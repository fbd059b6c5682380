//! Batched recovery-round engine: stacked L-BFGS Hessian-vector products.
//!
//! Every replayed round applies each remaining client's compact L-BFGS
//! approximation to the **same** shared vector `v = w̄ₜ − wₜ` (Eq. 6). The
//! per-client path therefore performs `n` independent small `hvp`s whose
//! inbound passes all stream `v` again. This module restructures the round
//! into block linear algebra over one stacked factor matrix:
//!
//! 1. **Fused inbound pass** — each factor column is a contiguous row,
//!    and the stack is an index over those rows where the pairs already
//!    hold them: every client's `ΔG` handles, then each distinct `ΔW`
//!    handle **once**. The pairs are `(ΔW, ΔGⁱ)` (§IV-B): a model
//!    difference carries no client index, and every client with a pair
//!    from the same round holds the same `ΔW` handle, so the stack lists
//!    that row once and each client's entry records where its `ΔW` rows
//!    sit. No row is copied: the stack holds handles, not a matrix. One
//!    [`row_dots`] sweep over the handles computes every row's `rowᵀ·v`
//!    at once, parallelised over rows via the row-band pool.
//! 2. **Middle solves** — per client, the tiny `2sᵢ × 2sᵢ` factored system
//!    is solved against its `ΔG` dots and the dots of its `ΔW` rows, read
//!    by index (scratch recycled across clients).
//! 3. **Streamed outbound pass** — [`stream_fedavg`] walks the roster a
//!    block of rows at a time (four rows per pool worker): per client,
//!    the stored direction is decoded into its row of the block and
//!    `σv − ΔG·p₁ − σΔW·p₂` is accumulated onto it, streaming the
//!    client's own `ΔG` rows and the shared `ΔW` rows, which stay in cache
//!    across clients (the same kernel a lone [`LbfgsApprox::hvp`] runs on
//!    its own rows). The block is then clipped (Eq. 7) in one
//!    lane-parallel pass that also observes each row's norms, and folded
//!    into one `f64` FedAvg accumulator in roster order. No `n × d`
//!    estimate matrix exists: the block stays in L2 from decode to fold.
//!
//! **Memory.** Each pair row is held once, by the pair buffer and the
//! approximation that share its handle; the stack adds only its index.
//! When a round refreshes a client's pairs, the client's new
//! approximation replaces the old one and the stack releases its handles
//! on the client's `ΔG` rows (`StackedLbfgs::release`), so the row the
//! refresh evicted is freed within the round. A released stack is rebuilt
//! before anything reads it again.
//!
//! **Bitwise identity.** Each stacked row's dot accumulates `f64`
//! contributions in ascending element order with the `v[r] == 0.0` skip —
//! exactly [`Mat::tr_matvec`]'s per-column order — and depends only on that
//! row and `v`, so a row dotted once serves every client that shares it
//! with the same bits. The rhs rounds the `ΔW`-half to `f32` *before* the
//! σ scaling (matching `tr_matvec` then `vector::scale`), the middle solve
//! is the same [`Lu`] factorisation, and the outbound combination replays
//! the per-element `scale` + `axpy` sequence of the per-client path. The
//! fold adds each element's clients in roster order from `+0.0`, which is
//! [`vector::weighted_mean`]'s sequence however the roster is cut into
//! blocks. Every floating-point operation therefore happens in the same
//! order with the same inputs, and the recovered model is bit-for-bit the
//! per-client result at every thread count (see `tests/props.rs` and the
//! frozen golden trace).
//!
//! [`Mat::tr_matvec`]: fuiov_tensor::Mat::tr_matvec
//! [`Lu`]: fuiov_tensor::solve::Lu

use crate::lbfgs::LbfgsApprox;
use fuiov_storage::ClientId;
use fuiov_tensor::matrix::row_dots;
use fuiov_tensor::simd::AVec;
use fuiov_tensor::solve::Lu;
use fuiov_tensor::{pool, vector};
use std::collections::HashMap;
use std::sync::Arc;

/// One client's entry in the stack.
#[derive(Debug, Clone)]
struct StackedEntry {
    /// Where the client's block starts in the logical per-client layout
    /// (`Σ 2s` over the clients before it): the offset of its middle-solve
    /// solution in `ps`, and what [`StackedLbfgs::fingerprint`] records.
    offset: usize,
    /// Stacked row of the client's first `ΔG` column; its `s` `ΔG` rows
    /// are contiguous.
    g_row: usize,
    /// Stacked rows of the client's `ΔW` columns, oldest → newest.
    w_rows: Vec<usize>,
    /// Pair count `s`.
    pairs: usize,
    sigma: f32,
    middle: Lu,
}

/// All remaining clients' L-BFGS factors stacked into one index over
/// their rows, ready to serve a whole recovery round with one fused
/// inbound sweep.
///
/// The stack holds the approximations' own row handles, not copies: a
/// rebuild records each entry's `ΔG` handles and each distinct `ΔW`
/// handle once, which is O(rows) bookkeeping and no `d`-length buffer.
/// Re-stack (via [`StackedLbfgs::rebuild`]) whenever any client's
/// approximation changes — pair refreshes are rare (every
/// `pair_refresh_interval` rounds).
#[derive(Debug, Clone)]
pub struct StackedLbfgs {
    dim: usize,
    /// Every stacked row, `dim` long: the clients' `ΔG` handles in client
    /// order, then every distinct `ΔW` handle once, in order of first
    /// use. Two clients share a `ΔW` row exactly when their
    /// approximations hold the same handle ([`Arc::ptr_eq`]). A released
    /// client's `ΔG` slots hold an empty row.
    rows: Vec<Arc<[f32]>>,
    entries: Vec<StackedEntry>,
    /// Ascending client ids, parallel to `entries`.
    clients: Vec<ClientId>,
}

impl StackedLbfgs {
    /// Stacks the given approximations (must arrive in ascending client
    /// order, e.g. by iterating a `BTreeMap`). `dim` is the model
    /// dimension; an empty iterator yields an empty stack.
    ///
    /// # Panics
    ///
    /// As [`StackedLbfgs::rebuild`].
    pub fn build<'a, I>(dim: usize, approxes: I) -> Self
    where
        I: IntoIterator<Item = (ClientId, &'a LbfgsApprox)>,
    {
        let mut stacked = StackedLbfgs {
            dim,
            rows: Vec::new(),
            entries: Vec::new(),
            clients: Vec::new(),
        };
        stacked.rebuild(approxes);
        stacked
    }

    /// Re-stacks `approxes` (ascending client order, the stack's
    /// dimension): records every client's `ΔG` handles, then each
    /// distinct `ΔW` handle once, reusing the stack's index buffers. No
    /// row is copied. The result is indistinguishable from a fresh
    /// [`StackedLbfgs::build`] (equal [`StackedLbfgs::fingerprint`]).
    ///
    /// # Panics
    ///
    /// Panics if an approximation's dimension differs from `dim` or the
    /// client ids are not strictly ascending.
    pub fn rebuild<'a, I>(&mut self, approxes: I)
    where
        I: IntoIterator<Item = (ClientId, &'a LbfgsApprox)>,
    {
        let dim = self.dim;
        let approxes: Vec<(ClientId, &LbfgsApprox)> = approxes.into_iter().collect();
        let g_total: usize = approxes.iter().map(|(_, a)| a.pairs()).sum();
        self.entries.clear();
        self.clients.clear();
        self.rows.clear();
        // Each distinct ΔW handle, keyed by its address (every handle is
        // alive for the whole rebuild), with its stacked row.
        let mut w_index: HashMap<*const f32, usize> = HashMap::new();
        let mut distinct_w: Vec<Arc<[f32]>> = Vec::new();
        let mut offset = 0usize;
        for &(client, approx) in &approxes {
            assert_eq!(approx.dim(), dim, "StackedLbfgs: dimension mismatch");
            assert!(
                self.clients.last().is_none_or(|&last| last < client),
                "StackedLbfgs: clients must be strictly ascending"
            );
            let w_rows = approx
                .dw_rows()
                .iter()
                .map(|row| {
                    *w_index.entry(row.as_ptr()).or_insert_with(|| {
                        distinct_w.push(Arc::clone(row));
                        g_total + distinct_w.len() - 1
                    })
                })
                .collect();
            self.entries.push(StackedEntry {
                offset,
                g_row: self.rows.len(),
                w_rows,
                pairs: approx.pairs(),
                sigma: approx.sigma(),
                middle: approx.middle_lu().clone(),
            });
            self.clients.push(client);
            self.rows.extend(approx.dg_rows().iter().cloned());
            offset += 2 * approx.pairs();
        }
        self.rows.append(&mut distinct_w);
    }

    /// Drops the stack's handles on `client`'s `ΔG` rows (a no-op for a
    /// client it does not hold). The replay round calls this as it
    /// replaces the client's approximation after a pair refresh, so the
    /// rows the refresh evicted are freed at once rather than at the next
    /// rebuild. The client's `ΔW` rows stay: other clients share them.
    ///
    /// A released slot holds an empty row. The released entry must not
    /// be read again, and the stack must be rebuilt before its next sweep
    /// or fingerprint: every reader debug-asserts this, and the kernels'
    /// length asserts refuse an empty row in any build.
    pub(crate) fn release(&mut self, client: ClientId) {
        let Some(i) = self.entry_for(client) else {
            return;
        };
        let e = &self.entries[i];
        for row in &mut self.rows[e.g_row..e.g_row + e.pairs] {
            *row = Arc::default();
        }
    }

    /// Whether no entry was released since the last rebuild.
    fn is_whole(&self) -> bool {
        self.rows.iter().all(|row| row.len() == self.dim)
    }

    /// Whether no client is stacked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of stacked clients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of stacked rows: `Σᵢ sᵢ` `ΔG` rows plus one row per distinct
    /// `ΔW` handle — the length of [`StackedLbfgs::fused_dots`]'s output.
    pub fn total_columns(&self) -> usize {
        self.rows.len()
    }

    /// The entry index serving `client`, if it is stacked.
    pub fn entry_for(&self, client: ClientId) -> Option<usize> {
        self.clients.binary_search(&client).ok()
    }

    /// Model dimension the stack was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Order-sensitive FNV-1a fingerprint of everything that feeds the
    /// stacked arithmetic, over the logical per-client layout: the
    /// dimension and client count; each client's id, block offset
    /// (`Σ 2s` before it), pair count and `σ` bits; then each client's
    /// `ΔG` rows followed by its `ΔW` rows, every element's `f32` bits. It
    /// is [`fuiov_storage::segment::fnv1a64`] of that byte sequence, fed
    /// in pieces, so it does not depend on which rows the stack shares:
    /// two stacks with equal fingerprints produce bitwise-identical
    /// sweeps, and `core::jobs` seals this value into each checkpoint and
    /// verifies it after rebuilding the stack on resume.
    pub fn fingerprint(&self) -> u64 {
        debug_assert!(self.is_whole(), "fingerprint of a released stack");
        let mut h = Fnv1aWords::new();
        h.u64(self.dim as u64);
        h.u64(self.entries.len() as u64);
        for (client, e) in self.clients.iter().zip(&self.entries) {
            h.u64(*client as u64);
            h.u64(e.offset as u64);
            h.u64(e.pairs as u64);
            h.u32(e.sigma.to_bits());
        }
        for e in &self.entries {
            for row in &self.rows[e.g_row..e.g_row + e.pairs] {
                h.f32s(row);
            }
            for &r in &e.w_rows {
                h.f32s(&self.rows[r]);
            }
        }
        h.finish()
    }

    /// Pass 1: the fused inbound sweep. Computes every stacked row's
    /// `f64`-accumulated dot with the shared `v` into `dots` (resized to
    /// [`StackedLbfgs::total_columns`]), one parallel row-band pass of
    /// [`row_dots`] over the stack's row handles.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn fused_dots(&self, v: &[f32], dots: &mut AVec) {
        assert_eq!(v.len(), self.dim, "fused_dots: dimension mismatch");
        debug_assert!(self.is_whole(), "sweep of a released stack");
        dots.clear();
        dots.resize(self.rows.len(), 0.0);
        pool::par_row_bands_weighted(dots, self.rows.len(), 1, self.dim, |rows, band| {
            row_dots(&self.rows[rows], v, band);
        });
    }

    /// The range form of pass 1: computes stacked rows
    /// `rows.start..rows.end`'s dots with `v` into `band` (one slot per
    /// row), without touching the rest of the stack. Each row's dot is a
    /// pure function of that row and `v`, so any partition of
    /// `0..total_columns()` into range calls reproduces
    /// [`StackedLbfgs::fused_dots`] bit-for-bit — the property
    /// [`fused_dots_multi`] builds its cross-job sweep on.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`, the range exceeds
    /// [`StackedLbfgs::total_columns`], or `band.len() != rows.len()`.
    pub fn dots_range_into(&self, v: &[f32], rows: std::ops::Range<usize>, band: &mut [f32]) {
        assert_eq!(v.len(), self.dim, "dots_range_into: dimension mismatch");
        debug_assert!(self.is_whole(), "sweep of a released stack");
        row_dots(&self.rows[rows], v, band);
    }

    /// Pass 2: every client's middle solve against its dots — its `ΔG`
    /// rows' and, by index, its `ΔW` rows'. `ps` receives the solutions
    /// in client order, client i's `p` at `ps[offsetᵢ..offsetᵢ+2sᵢ]` with
    /// `offsetᵢ = Σ_{j<i} 2sⱼ`; the two scratch vectors are recycled
    /// across clients and calls.
    ///
    /// # Panics
    ///
    /// Panics if `dots.len() != total_columns()`.
    pub fn solve_middles(
        &self,
        dots: &[f32],
        ps: &mut Vec<f32>,
        rhs_scratch: &mut Vec<f32>,
        p_scratch: &mut Vec<f32>,
    ) {
        assert_eq!(
            dots.len(),
            self.rows.len(),
            "solve_middles: dots length mismatch"
        );
        ps.clear();
        for e in &self.entries {
            // rhs = [ΔGᵀv ; σ·ΔWᵀv]: the ΔW dots were rounded to f32 by
            // pass 1, so scaling here matches tr_matvec → vector::scale.
            rhs_scratch.clear();
            rhs_scratch.extend_from_slice(&dots[e.g_row..e.g_row + e.pairs]);
            rhs_scratch.extend(e.w_rows.iter().map(|&r| dots[r] * e.sigma));
            e.middle.solve_into(rhs_scratch, p_scratch);
            ps.extend_from_slice(p_scratch);
        }
    }

    /// Pass 3 for one client: accumulates the Eq. 6 correction
    /// `σv − ΔG·p₁ − σΔW·p₂` into `est` (`est[r] += 1.0 · correction[r]`,
    /// the exact `axpy(1.0, …)` of the per-client path).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range or slice lengths mismatch.
    pub fn accumulate_correction(&self, entry: usize, ps: &[f32], v: &[f32], est: &mut [f32]) {
        self.apply(entry, ps, v, est, true);
    }

    /// Pass 3 writing the raw Hessian-vector product instead of
    /// accumulating — bit-for-bit [`LbfgsApprox::hvp`] of the stacked
    /// client, used by the equivalence tests and benches.
    ///
    /// # Panics
    ///
    /// As [`StackedLbfgs::accumulate_correction`].
    pub fn write_hvp(&self, entry: usize, ps: &[f32], v: &[f32], out: &mut [f32]) {
        self.apply(entry, ps, v, out, false);
    }

    fn apply(&self, entry: usize, ps: &[f32], v: &[f32], out: &mut [f32], accumulate: bool) {
        let e = &self.entries[entry];
        debug_assert!(
            self.rows[e.g_row].len() == self.dim,
            "correction through released rows"
        );
        let p = &ps[e.offset..e.offset + 2 * e.pairs];
        apply_block(
            |j| &self.rows[e.g_row + j],
            |j| &self.rows[e.w_rows[j]],
            e.pairs,
            e.sigma,
            p,
            v,
            out,
            accumulate,
        );
    }
}

/// FNV-1a over a byte sequence fed in pieces of whole 32-bit words: the
/// value [`fuiov_storage::segment::fnv1a64`] gives the concatenation.
/// That hash folds 8-byte little-endian words, then any tail bytes one by
/// one; every piece here is a multiple of 4 bytes long, so a word can
/// straddle two pieces only by its upper half, which waits in `pending`.
#[derive(Clone)]
struct Fnv1aWords {
    h: u64,
    pending: Option<u32>,
}

impl Fnv1aWords {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1aWords {
            h: 0xcbf2_9ce4_8422_2325,
            pending: None,
        }
    }

    fn word(&mut self, w: u64) {
        self.h ^= w;
        self.h = self.h.wrapping_mul(Self::PRIME);
    }

    fn u32(&mut self, x: u32) {
        match self.pending.take() {
            Some(lo) => self.word(u64::from(lo) | (u64::from(x) << 32)),
            None => self.pending = Some(x),
        }
    }

    fn u64(&mut self, x: u64) {
        self.u32(x as u32);
        self.u32((x >> 32) as u32);
    }

    fn f32s(&mut self, xs: &[f32]) {
        let mut xs = xs;
        if self.pending.is_some() {
            let Some((&first, rest)) = xs.split_first() else {
                return;
            };
            self.u32(first.to_bits());
            xs = rest;
        }
        let mut pairs = xs.chunks_exact(2);
        for pair in &mut pairs {
            self.word(u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32));
        }
        if let [last] = pairs.remainder() {
            self.pending = Some(last.to_bits());
        }
    }

    fn finish(mut self) -> u64 {
        if let Some(tail) = self.pending.take() {
            for b in tail.to_le_bytes() {
                self.h ^= u64::from(b);
                self.h = self.h.wrapping_mul(Self::PRIME);
            }
        }
        self.h
    }
}

/// The outbound kernel of the compact representation, shared by the stack
/// and [`LbfgsApprox::hvp_into`]: for `s` pairs whose `ΔG` row `j` is
/// `g(j)` and `ΔW` row `j` is `w(j)`, and the middle-solve solution
/// `p = [p₁; p₂]`, writes (or, with `accumulate`, adds via `axpy(1.0, …)`)
/// `σ·v[r] − (ΔG·p₁)[r] − σ·(ΔW·p₂)[r]` into `out[r]`.
///
/// Per element, both row dots accumulate in `f64` over ascending `j` with
/// no zero skip (exactly [`fuiov_tensor::vector::dot`] as `Mat::matvec`
/// calls it) and the combination replays the textbook chain's `scale` +
/// two `axpy`s, so every caller produces the same bits as the original
/// five-pass implementation.
///
/// # Panics
///
/// Panics if `out.len() != v.len()`, `p.len() != 2s`, or a row's length
/// differs from `v.len()`.
// `-1.0 * x` is deliberate: it replays `axpy(-1.0, …)`'s exact `a * xi`
// multiply so the combination stays bit-for-bit the per-client chain.
#[allow(clippy::neg_multiply, clippy::too_many_arguments)]
pub(crate) fn apply_block<'a>(
    g: impl Fn(usize) -> &'a [f32],
    w: impl Fn(usize) -> &'a [f32],
    s: usize,
    sigma: f32,
    p: &[f32],
    v: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(out.len(), v.len(), "apply: output dimension mismatch");
    assert_eq!(p.len(), 2 * s, "apply: solution length mismatch");
    let (p1, p2) = p.split_at(s);
    if s == 2 {
        // The paper's buffer size — fully zipped streams, no indexing.
        let (g0, g1, w0, w1) = (g(0), g(1), w(0), w(1));
        assert!(
            [g0, g1, w0, w1].iter().all(|row| row.len() == v.len()),
            "apply: dimension mismatch"
        );
        let (pg0, pg1) = (f64::from(p1[0]), f64::from(p1[1]));
        let (pw0, pw1) = (f64::from(p2[0]), f64::from(p2[1]));
        for (((((&vr, slot), &x0), &x1), &y0), &y1) in
            v.iter().zip(out.iter_mut()).zip(g0).zip(g1).zip(w0).zip(w1)
        {
            let mut acc_g = 0.0f64;
            acc_g += f64::from(x0) * pg0;
            acc_g += f64::from(x1) * pg1;
            let part_g = acc_g as f32;
            let mut acc_w = 0.0f64;
            acc_w += f64::from(y0) * pw0;
            acc_w += f64::from(y1) * pw1;
            let part_w = acc_w as f32;
            let mut t = vr * sigma;
            t += -1.0 * part_g;
            t += -sigma * part_w;
            if accumulate {
                *slot += 1.0 * t;
            } else {
                *slot = t;
            }
        }
        return;
    }
    // The client's 2s rows, read as parallel sequential streams: element
    // r of logical factor column j is rows_?[j][r].
    let rows_g: Vec<&[f32]> = (0..s).map(g).collect();
    let rows_w: Vec<&[f32]> = (0..s).map(w).collect();
    assert!(
        rows_g.iter().chain(&rows_w).all(|row| row.len() == v.len()),
        "apply: dimension mismatch"
    );
    for (r, (&vr, slot)) in v.iter().zip(out.iter_mut()).enumerate() {
        let mut acc_g = 0.0f64;
        for (row, &pj) in rows_g.iter().zip(p1) {
            acc_g += f64::from(row[r]) * f64::from(pj);
        }
        let part_g = acc_g as f32;
        let mut acc_w = 0.0f64;
        for (row, &pj) in rows_w.iter().zip(p2) {
            acc_w += f64::from(row[r]) * f64::from(pj);
        }
        let part_w = acc_w as f32;
        let mut t = vr * sigma;
        t += -1.0 * part_g;
        t += -sigma * part_w;
        if accumulate {
            *slot += 1.0 * t;
        } else {
            *slot = t;
        }
    }
}

/// The *cross-job* fused inbound sweep: one parallel row-band pass over
/// the concatenation of several jobs' stacks, each dotted against its own
/// job's `w̄ₜ − wₜ`. `dots` receives every group's per-column dots
/// back-to-back in group order — group `i`'s slice starts at
/// `Σ_{j<i} total_columns(j)` and is bit-for-bit what
/// [`StackedLbfgs::fused_dots`] would have produced for that group alone,
/// because every output slot is a pure per-column function
/// ([`StackedLbfgs::dots_range_into`]); the shared banding only changes
/// the schedule, never the bytes.
///
/// This is how `core::jobs` batches replay across concurrent unlearning
/// jobs sharing a round: one sweep serves every job, and each job's
/// middle solves consume its slice unchanged.
///
/// # Panics
///
/// Panics if any group's vector length differs from its stack's dimension.
pub fn fused_dots_multi(groups: &[(&StackedLbfgs, &[f32])], dots: &mut AVec) {
    let total: usize = groups.iter().map(|(s, _)| s.total_columns()).sum();
    dots.clear();
    dots.resize(total, 0.0);
    if total == 0 {
        return;
    }
    // Per-row work is the dot length; groups can differ in dim, so weight
    // the spawn gate by the largest (affects the band split only).
    let work_per_row = groups
        .iter()
        .map(|(s, _)| s.dim())
        .max()
        .unwrap_or(1)
        .max(1);
    let starts: Vec<usize> = groups
        .iter()
        .scan(0usize, |acc, (s, _)| {
            let start = *acc;
            *acc += s.total_columns();
            Some(start)
        })
        .collect();
    fuiov_tensor::pool::par_row_bands_weighted(dots, total, 1, work_per_row, |rows, band| {
        for ((stack, v), &start) in groups.iter().zip(&starts) {
            let end = start + stack.total_columns();
            let lo = rows.start.max(start);
            let hi = rows.end.min(end);
            if lo >= hi {
                continue;
            }
            stack.dots_range_into(
                v,
                lo - start..hi - start,
                &mut band[lo - rows.start..hi - rows.start],
            );
        }
    });
}

/// Pass 3, streamed: every roster row's estimate is built, clipped
/// (Eq. 7), observed and folded into FedAvg (Eq. 1) a block of rows at a
/// time, so no `n × d` estimate matrix exists. Row `p`'s unclipped
/// estimate is whatever `fill(state, p, row)` writes (the replay round
/// decodes the stored direction, then adds the Eq. 6 correction); rows
/// are `weights.len()` long in roster order.
///
/// Each block holds [`vector::CLIP_LANES`] × pool width rows in `est`.
/// The pool fills the block's rows in bands, and each band clamps its
/// rows at `±clip` in the same pass; with observation on, that pass is
/// [`vector::clip_elementwise_norms_rows`], which records each row's
/// pre- and post-clip norm and counts a clip activation when they differ.
/// Then the block is folded into `acc` in roster order
/// ([`vector::weighted_accumulate_rows`]), and `on_block(state, rows,
/// block)` sees its clipped rows (the replay round's pair refresh). After
/// the last block `agg[j] = (acc[j] / Σw) as f32`.
///
/// `state` is shared by the pool's `fill` calls within a block and lent
/// exclusively to `on_block`, which runs on the calling thread between
/// blocks: the replay round fills rows through its stack and, in
/// `on_block`, releases the stack's handles on the rows a refresh
/// evicted, with no lock.
///
/// **Bitwise identity.** Each row is filled and clamped element by
/// element, each norm is [`vector::l2_norm`]'s chain, and each
/// `acc[j]` starts at `+0.0` and adds `f64(wᵢ)·f64(xᵢ[j])` over the whole
/// roster in order, exactly [`vector::weighted_mean`]'s sequence, with
/// `Σw` summed as it sums it. The aggregate is therefore bitwise the
/// clipped matrix's `weighted_mean` at every pool width and block split.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero, if `clip` is not
/// strictly positive and finite, or if `fill` panics.
#[allow(clippy::too_many_arguments)]
pub fn stream_fedavg<S: Sync>(
    dim: usize,
    weights: &[f32],
    clip: f32,
    est: &mut AVec,
    acc: &mut Vec<f64>,
    agg: &mut Vec<f32>,
    state: &mut S,
    fill: impl Fn(&S, usize, &mut [f32]) + Sync,
    mut on_block: impl FnMut(&mut S, std::ops::Range<usize>, &[f32]),
) {
    assert!(!weights.is_empty(), "stream_fedavg: no rows");
    let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
    assert!(total != 0.0, "stream_fedavg: weights sum to zero");
    acc.clear();
    acc.resize(dim, 0.0);
    let n = weights.len();
    let block = vector::CLIP_LANES * pool::threads();
    // Hoisted so the disabled path adds nothing inside the bands; when
    // enabled, the clip pass also measures both norms, which is pure
    // observation: the clipped rows are bitwise unchanged.
    let obs_on = fuiov_obs::enabled();
    let fill = &fill;
    let mut start = 0;
    while start < n {
        let rows = block.min(n - start);
        est.resize(rows * dim, 0.0);
        let buf = &mut est[..rows * dim];
        let shared: &S = state;
        pool::par_row_bands_weighted(buf, rows, dim, dim, |band_rows, band| {
            let nrows = band_rows.len();
            for (i, p) in band_rows.enumerate() {
                fill(shared, start + p, &mut band[i * dim..(i + 1) * dim]);
            }
            if obs_on {
                clip_and_observe(band, nrows, dim, clip);
            } else {
                vector::clip_elementwise(band, clip);
            }
        });
        vector::weighted_accumulate_rows(buf, &weights[start..start + rows], acc);
        on_block(state, start..start + rows, buf);
        start += rows;
    }
    agg.clear();
    agg.extend(acc.iter().map(|a| (a / total) as f32));
}

/// The observed clip pass over `rows` rows of `band`, one lane group at a
/// time: clamps, then records each row's pre- and post-clip norm and
/// counts the rows the clamp changed.
fn clip_and_observe(band: &mut [f32], rows: usize, dim: usize, clip: f32) {
    let mut norms = [(0.0f32, 0.0f32); vector::CLIP_LANES];
    for first in (0..rows).step_by(vector::CLIP_LANES) {
        let k = vector::CLIP_LANES.min(rows - first);
        let group = &mut band[first * dim..(first + k) * dim];
        vector::clip_elementwise_norms_rows(group, dim, clip, &mut norms[..k]);
        for &(pre, post) in &norms[..k] {
            fuiov_obs::histogram!("core.clip_pre_norm_micros").observe_scaled(pre as f64);
            fuiov_obs::histogram!("core.clip_post_norm_micros").observe_scaled(post as f64);
            if post.to_bits() != pre.to_bits() {
                fuiov_obs::counter!("core.clip_activations").inc();
            }
        }
    }
}

/// Reusable per-recovery scratch arena: every `d`-length (and `Σ2s`-length)
/// temporary the replay loop needs, allocated once per recovery and
/// recycled across all rounds and clients.
#[derive(Debug, Default)]
pub struct RoundScratch {
    /// `w̄ₜ − wₜ` for the current round. 64-byte aligned ([`AVec`]): the
    /// SIMD inbound sweep streams this vector once per stacked column.
    pub dw_t: AVec,
    /// Fused per-column dots of the stack against `dw_t` (aligned).
    pub dots: AVec,
    /// Concatenated middle-solve solutions, offsets parallel to `dots`.
    pub ps: Vec<f32>,
    /// `2s`-length rhs scratch for the middle solves.
    pub rhs: Vec<f32>,
    /// `2s`-length solution scratch for the middle solves.
    pub p: Vec<f32>,
    /// Row-major estimate rows, 64-byte aligned so each row starts on a
    /// cache-line boundary when `dim % 16 == 0`. The replay round
    /// ([`stream_fedavg`]) keeps one block of rows here, lanes × pool
    /// width (4 × d at width 1); `fuiov-baselines`' FedRecover keeps its
    /// whole `n × d` estimate matrix here.
    pub est: AVec,
    /// Decoded stored direction of the client being refreshed.
    pub stored: Vec<f32>,
    /// The replay round's `f64` FedAvg accumulator (`d` slots), which
    /// [`stream_fedavg`] folds every block into.
    pub acc64: Vec<f64>,
    /// The replay round's aggregate `Σ wᵢ·xᵢ / Σ wᵢ` (`d` slots), written
    /// by [`stream_fedavg`].
    pub agg: Vec<f32>,
}

impl RoundScratch {
    /// An empty arena; buffers grow on first use and are then recycled.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_for(seed: u64, dim: usize, pairs: usize) -> LbfgsApprox {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let dws: Vec<Vec<f32>> = (0..pairs)
            .map(|_| (0..dim).map(|_| next()).collect())
            .collect();
        let dgs: Vec<Vec<f32>> = dws
            .iter()
            .map(|w| {
                w.iter()
                    .enumerate()
                    .map(|(i, x)| x * (1.5 + (i % 3) as f32))
                    .collect()
            })
            .collect();
        LbfgsApprox::new(&dws, &dgs).expect("synthetic pairs are well-conditioned")
    }

    #[test]
    fn stacked_hvp_matches_per_client_bitwise() {
        let dim = 33;
        let approxes: Vec<(ClientId, LbfgsApprox)> = vec![
            (2, approx_for(11, dim, 1)),
            (5, approx_for(22, dim, 2)),
            (9, approx_for(33, dim, 3)),
        ];
        let stacked = StackedLbfgs::build(dim, approxes.iter().map(|(c, a)| (*c, a)));
        assert_eq!(stacked.len(), 3);
        assert_eq!(stacked.total_columns(), 2 * (1 + 2 + 3));
        let v: Vec<f32> = (0..dim)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    i as f32 * 0.01 - 0.4
                }
            })
            .collect();
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&v, &mut scratch.dots);
        stacked.solve_middles(
            &scratch.dots,
            &mut scratch.ps,
            &mut scratch.rhs,
            &mut scratch.p,
        );
        for (client, approx) in &approxes {
            let e = stacked.entry_for(*client).expect("stacked");
            let mut batched = vec![0.0f32; dim];
            stacked.write_hvp(e, &scratch.ps, &v, &mut batched);
            let per_client = approx.hvp(&v);
            assert_eq!(
                batched.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                per_client.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "client {client} diverged"
            );
        }
        assert_eq!(stacked.entry_for(3), None);
    }

    #[test]
    fn accumulate_adds_exactly_like_axpy() {
        let dim = 10;
        let approx = approx_for(7, dim, 2);
        let stacked = StackedLbfgs::build(dim, [(0 as ClientId, &approx)]);
        let v: Vec<f32> = (0..dim).map(|i| i as f32 * 0.1 - 0.3).collect();
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&v, &mut scratch.dots);
        stacked.solve_middles(
            &scratch.dots,
            &mut scratch.ps,
            &mut scratch.rhs,
            &mut scratch.p,
        );
        let base: Vec<f32> = (0..dim).map(|i| (i as f32).sin()).collect();
        let mut batched = base.clone();
        stacked.accumulate_correction(0, &scratch.ps, &v, &mut batched);
        let mut reference = base;
        fuiov_tensor::vector::axpy(1.0, &approx.hvp(&v), &mut reference);
        assert_eq!(
            batched.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_stack_is_fine() {
        let stacked = StackedLbfgs::build(4, std::iter::empty());
        assert!(stacked.is_empty());
        assert_eq!(stacked.total_columns(), 0);
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&[0.0; 4], &mut scratch.dots);
        assert!(scratch.dots.is_empty());
        stacked.solve_middles(
            &scratch.dots,
            &mut scratch.ps,
            &mut scratch.rhs,
            &mut scratch.p,
        );
        assert!(scratch.ps.is_empty());
    }

    #[test]
    fn streamed_fedavg_is_the_clipped_matrix_weighted_mean() {
        // Roster lengths around the lane width and pool widths 1–3, with
        // observation on and off: the aggregate must be `weighted_mean`
        // of the clipped rows bit for bit, and `on_block` must see every
        // clipped row once, in roster order.
        let _g = fuiov_obs::test_lock();
        let dim = 37;
        let clip = 0.9;
        for n in [1usize, 3, 4, 5, 9, 13] {
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|p| {
                    (0..dim)
                        .map(|j| ((p * 31 + j * 7) % 23) as f32 * 0.11 - 1.2)
                        .collect()
                })
                .collect();
            let weights: Vec<f32> = (0..n).map(|p| 1.0 + 0.25 * p as f32).collect();
            let clipped: Vec<Vec<f32>> = rows
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    vector::clip_elementwise(&mut r, clip);
                    r
                })
                .collect();
            let refs: Vec<&[f32]> = clipped.iter().map(Vec::as_slice).collect();
            let expect = vector::weighted_mean(&refs, &weights);
            for (threads, obs) in [(1, true), (2, false), (3, true), (3, false)] {
                fuiov_obs::set_enabled(obs);
                pool::set_threads(threads);
                let mut scratch = RoundScratch::new();
                let mut seen = Vec::new();
                stream_fedavg(
                    dim,
                    &weights,
                    clip,
                    &mut scratch.est,
                    &mut scratch.acc64,
                    &mut scratch.agg,
                    &mut seen,
                    |_, p, row| row.copy_from_slice(&rows[p]),
                    |seen, range, block| {
                        seen.extend(range.zip(block.chunks(dim).map(<[f32]>::to_vec)))
                    },
                );
                pool::set_threads(0);
                fuiov_obs::set_enabled(true);
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scratch.agg), bits(&expect), "n {n} width {threads}");
                let want: Vec<(usize, Vec<f32>)> = clipped.iter().cloned().enumerate().collect();
                assert_eq!(seen, want, "n {n} width {threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_clients() {
        let a = approx_for(1, 4, 1);
        let _ = StackedLbfgs::build(4, [(3 as ClientId, &a), (1 as ClientId, &a)]);
    }

    /// The fingerprint's definition: FNV-1a of the logical per-client
    /// byte sequence, built whole — dimension and client count, each
    /// client's id / `Σ 2s` offset / pair count / σ bits, then each
    /// client's `ΔG` rows and its `ΔW` rows.
    fn reference_fingerprint(dim: usize, stacked: &[(ClientId, &LbfgsApprox)]) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(dim as u64).to_le_bytes());
        bytes.extend_from_slice(&(stacked.len() as u64).to_le_bytes());
        let mut offset = 0u64;
        for (client, approx) in stacked {
            bytes.extend_from_slice(&(*client as u64).to_le_bytes());
            bytes.extend_from_slice(&offset.to_le_bytes());
            bytes.extend_from_slice(&(approx.pairs() as u64).to_le_bytes());
            bytes.extend_from_slice(&approx.sigma().to_bits().to_le_bytes());
            offset += 2 * approx.pairs() as u64;
        }
        for (_, approx) in stacked {
            for row in approx.dg_rows().iter().chain(approx.dw_rows()) {
                for x in row.iter() {
                    bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
        fuiov_storage::segment::fnv1a64(&bytes)
    }

    /// Approximations over a pool of shared ΔW rows: client `k` with
    /// spec `(s, mask)` takes its pair `j < s` from `pool[j]` when bit `j`
    /// of `mask` is set, and from a fresh row of its own otherwise.
    fn sharing_approxes(dim: usize, specs: &[(usize, u8)]) -> Vec<LbfgsApprox> {
        use std::sync::Arc;
        let pool: Vec<Arc<[f32]>> = (0..4)
            .map(|j| approx_for(100 + j, dim, 1).dw_rows()[0].clone())
            .collect();
        specs
            .iter()
            .enumerate()
            .map(|(k, &(s, mask))| {
                let mut buf = crate::PairBuffer::new(s);
                for (j, shared) in pool.iter().enumerate().take(s) {
                    let dw: Arc<[f32]> = if mask & (1 << j) != 0 {
                        Arc::clone(shared)
                    } else {
                        approx_for(200 + 8 * k as u64 + j as u64, dim, 1).dw_rows()[0].clone()
                    };
                    let dg: Vec<f32> = dw
                        .iter()
                        .enumerate()
                        .map(|(i, x)| x * (1.5 + ((i + k) % 3) as f32))
                        .collect();
                    buf.push(dw, dg);
                }
                buf.approximation().expect("well-conditioned pairs")
            })
            .collect()
    }

    #[test]
    fn shared_dw_rows_are_stacked_once_and_sweep_like_copies() {
        let dim = 37;
        // Clients 0–2 share both pool rows, client 3 one of them, client
        // 4 none; client 5 has four pairs, two shared.
        let specs = [
            (2, 0b11),
            (2, 0b11),
            (1, 0b1),
            (2, 0b10),
            (3, 0),
            (4, 0b0101),
        ];
        let approxes = sharing_approxes(dim, &specs);
        let stacked_in: Vec<(ClientId, &LbfgsApprox)> = approxes.iter().enumerate().collect();
        let stacked = StackedLbfgs::build(dim, stacked_in.iter().copied());
        let g_rows: usize = specs.iter().map(|&(s, _)| s).sum();
        // Pool rows 0, 1 and 2 are used; fresh rows: 0 + 0 + 0 + 1 + 3 + 2.
        assert_eq!(stacked.total_columns(), g_rows + 3 + 6);
        assert_eq!(
            stacked.fingerprint(),
            reference_fingerprint(dim, &stacked_in)
        );
        let v: Vec<f32> = (0..dim)
            .map(|i| match i % 6 {
                0 => 0.0,
                3 => -0.0,
                _ => (i as f32 * 0.3).sin(),
            })
            .collect();
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&v, &mut scratch.dots);
        stacked.solve_middles(
            &scratch.dots,
            &mut scratch.ps,
            &mut scratch.rhs,
            &mut scratch.p,
        );
        for (e, approx) in approxes.iter().enumerate() {
            let copy = LbfgsApprox::new(
                &approx
                    .dw_rows()
                    .iter()
                    .map(|r| r.to_vec())
                    .collect::<Vec<_>>(),
                &approx
                    .dg_rows()
                    .iter()
                    .map(|r| r.to_vec())
                    .collect::<Vec<_>>(),
            )
            .expect("deep copy builds");
            let mut out = vec![0.0f32; dim];
            stacked.write_hvp(e, &scratch.ps, &v, &mut out);
            assert_eq!(
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                copy.hvp(&v).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "client {e}"
            );
        }
    }

    #[test]
    fn release_drops_a_clients_g_rows_and_leaves_the_others_readable() {
        use std::sync::Arc;
        let dim = 37;
        let specs = [(2, 0b11), (2, 0b11), (2, 0b01)];
        let approxes = sharing_approxes(dim, &specs);
        let stacked_in: Vec<(ClientId, &LbfgsApprox)> = approxes.iter().enumerate().collect();
        let mut stacked = StackedLbfgs::build(dim, stacked_in.iter().copied());
        let v: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.4).sin()).collect();
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&v, &mut scratch.dots);
        stacked.solve_middles(
            &scratch.dots,
            &mut scratch.ps,
            &mut scratch.rhs,
            &mut scratch.p,
        );
        let g_row = &approxes[1].dg_rows()[0];
        let w_row = &approxes[1].dw_rows()[0];
        let (g_held, w_held) = (Arc::strong_count(g_row), Arc::strong_count(w_row));
        stacked.release(1);
        stacked.release(7); // not stacked: a no-op
        assert_eq!(Arc::strong_count(g_row), g_held - 1, "the stack let go");
        assert_eq!(Arc::strong_count(w_row), w_held, "shared ΔW rows stay");
        // The other clients still correct exactly as before.
        for e in [0, 2] {
            let mut out = vec![0.0f32; dim];
            stacked.write_hvp(e, &scratch.ps, &v, &mut out);
            assert_eq!(
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                approxes[e]
                    .hvp(&v)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            );
        }
        stacked.rebuild(stacked_in.iter().copied());
        assert_eq!(Arc::strong_count(g_row), g_held);
        assert_eq!(
            stacked.fingerprint(),
            StackedLbfgs::build(dim, stacked_in.iter().copied()).fingerprint()
        );
    }

    #[test]
    #[should_panic]
    fn a_released_entry_is_never_read() {
        let a = approx_for(3, 8, 2);
        let mut stacked = StackedLbfgs::build(8, [(4 as ClientId, &a)]);
        let v = vec![0.5f32; 8];
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&v, &mut scratch.dots);
        stacked.solve_middles(
            &scratch.dots,
            &mut scratch.ps,
            &mut scratch.rhs,
            &mut scratch.p,
        );
        stacked.release(4);
        // Debug builds stop at the release assert, release builds at the
        // kernel's length assert: the released slots hold empty rows.
        stacked.write_hvp(0, &scratch.ps, &v, &mut [0.0; 8]);
    }

    #[test]
    fn streaming_fnv_matches_the_whole_sequence_at_any_split() {
        // Pieces of 4, 8 and 28 bytes and f32 runs of every parity, so
        // words straddle pieces in both phases.
        let mut h = Fnv1aWords::new();
        let mut bytes = Vec::new();
        for k in 0..9u64 {
            h.u64(k * 0x0123_4567_89ab_cdef);
            bytes.extend_from_slice(&(k * 0x0123_4567_89ab_cdef).to_le_bytes());
            for _ in 0..(k % 3) {
                h.u32(k as u32 ^ 0xdead_beef);
                bytes.extend_from_slice(&(k as u32 ^ 0xdead_beef).to_le_bytes());
            }
            let xs: Vec<f32> = (0..k).map(|i| i as f32 * -0.75).collect();
            h.f32s(&xs);
            xs.iter()
                .for_each(|x| bytes.extend_from_slice(&x.to_bits().to_le_bytes()));
            assert_eq!(
                h.clone().finish(),
                fuiov_storage::segment::fnv1a64(&bytes),
                "after piece {k}"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_stack_contents() {
        let dim = 12;
        let a = approx_for(5, dim, 2);
        let b = approx_for(6, dim, 2);
        let one = StackedLbfgs::build(dim, [(1 as ClientId, &a)]);
        let same = StackedLbfgs::build(dim, [(1 as ClientId, &a)]);
        assert_eq!(one.fingerprint(), same.fingerprint());
        let other_factors = StackedLbfgs::build(dim, [(1 as ClientId, &b)]);
        assert_ne!(one.fingerprint(), other_factors.fingerprint());
        let other_client = StackedLbfgs::build(dim, [(2 as ClientId, &a)]);
        assert_ne!(one.fingerprint(), other_client.fingerprint());
        let empty = StackedLbfgs::build(dim, std::iter::empty());
        assert_ne!(one.fingerprint(), empty.fingerprint());
        assert_eq!(one.dim(), dim);
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_build() {
        // Clients removed and added, a client's pair count changed, the
        // stack emptied and refilled: every in-place rebuild must
        // fingerprint like a fresh build, and sweep like one.
        let dim = 33;
        let a1 = approx_for(11, dim, 1);
        let a2 = approx_for(22, dim, 2);
        let a3 = approx_for(33, dim, 3);
        let a3b = approx_for(44, dim, 3);
        let steps: Vec<Vec<(ClientId, &LbfgsApprox)>> = vec![
            vec![(2, &a1), (5, &a2), (9, &a3)],
            vec![(2, &a1), (9, &a3), (11, &a2)],
            vec![(2, &a3b), (9, &a3), (11, &a2)],
            vec![(0, &a2)],
            vec![],
            vec![(1, &a1), (4, &a3), (7, &a2), (8, &a3b)],
        ];
        let v: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut stacked = StackedLbfgs::build(dim, std::iter::empty());
        for step in &steps {
            stacked.rebuild(step.iter().copied());
            let fresh = StackedLbfgs::build(dim, step.iter().copied());
            assert_eq!(stacked.fingerprint(), fresh.fingerprint());
            assert_eq!(stacked.len(), step.len());
            let (mut got, mut want) = (RoundScratch::new(), RoundScratch::new());
            stacked.fused_dots(&v, &mut got.dots);
            fresh.fused_dots(&v, &mut want.dots);
            stacked.solve_middles(&got.dots, &mut got.ps, &mut got.rhs, &mut got.p);
            fresh.solve_middles(&want.dots, &mut want.ps, &mut want.rhs, &mut want.p);
            for (e, &(client, approx)) in step.iter().enumerate() {
                assert_eq!(stacked.entry_for(client), Some(e));
                let mut out = vec![0.0f32; dim];
                stacked.write_hvp(e, &got.ps, &v, &mut out);
                assert_eq!(
                    out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    approx
                        .hvp(&v)
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                );
            }
            assert_eq!(
                got.ps.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.ps.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_sweep_matches_per_job_fused_dots_bitwise() {
        let dim_a = 33;
        let dim_b = 17; // jobs may disagree on nothing but their windows, but the sweep must not assume equal dims
        let (a1, a2) = (approx_for(11, dim_a, 1), approx_for(22, dim_a, 3));
        let stack_a = StackedLbfgs::build(dim_a, [(2 as ClientId, &a1), (5 as ClientId, &a2)]);
        let b1 = approx_for(9, dim_b, 2);
        let stack_b = StackedLbfgs::build(dim_b, [(4 as ClientId, &b1)]);
        let empty = StackedLbfgs::build(dim_a, std::iter::empty());
        let v_a: Vec<f32> = (0..dim_a)
            .map(|i| {
                if i % 4 == 0 {
                    0.0
                } else {
                    i as f32 * 0.03 - 0.5
                }
            })
            .collect();
        let v_b: Vec<f32> = (0..dim_b).map(|i| 0.2 - i as f32 * 0.01).collect();
        let mut expect_a = AVec::new();
        let mut expect_b = AVec::new();
        stack_a.fused_dots(&v_a, &mut expect_a);
        stack_b.fused_dots(&v_b, &mut expect_b);

        let mut dots = AVec::new();
        fused_dots_multi(
            &[
                (&stack_a, &v_a[..]),
                (&empty, &v_a[..]),
                (&stack_b, &v_b[..]),
            ],
            &mut dots,
        );
        assert_eq!(
            dots.len(),
            stack_a.total_columns() + stack_b.total_columns()
        );
        let (got_a, got_b) = dots.split_at(stack_a.total_columns());
        assert_eq!(
            got_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            got_b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect_b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        // The range primitive itself, at an awkward split point.
        let cols = stack_a.total_columns();
        let mut band = vec![0.0f32; cols];
        let (head, tail) = band.split_at_mut(3);
        stack_a.dots_range_into(&v_a, 0..3, head);
        stack_a.dots_range_into(&v_a, 3..cols, tail);
        assert_eq!(
            band.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        // No groups at all is a no-op.
        fused_dots_multi(&[], &mut dots);
        assert!(dots.is_empty());
    }
}
