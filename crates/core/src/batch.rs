//! Batched recovery-round engine: stacked L-BFGS Hessian-vector products.
//!
//! Every replayed round applies each remaining client's compact L-BFGS
//! approximation to the **same** shared vector `v = w̄ₜ − wₜ` (Eq. 6). The
//! per-client path therefore performs `n` independent small `hvp`s whose
//! inbound passes all stream `v` again. This module restructures the round
//! into block linear algebra over one stacked factor matrix:
//!
//! 1. **Fused inbound pass** — all clients' factor columns
//!    `[ΔG₁ ΔW₁ │ ΔG₂ ΔW₂ │ …]` live in one `Σᵢ2sᵢ × d` matrix (stored
//!    *transposed* so each logical column is a contiguous row — the very
//!    layout every [`LbfgsApprox`] keeps its own `2s × d` factor block in,
//!    so stacking a client is one block copy), and a single
//!    [`Mat::row_dots_into`] sweep computes every `colᵀ·v` at once,
//!    parallelised over stacked columns via the row-band pool.
//! 2. **Middle solves** — per client, the tiny `2sᵢ × 2sᵢ` factored system
//!    is solved against its slice of the fused dots (scratch recycled
//!    across clients).
//! 3. **Fused outbound pass** — per client, `σv − ΔG·p₁ − σΔW·p₂` is
//!    accumulated straight into that client's estimate row of the round
//!    scratch, reading the client's `2s` stacked rows as parallel streams
//!    (the same kernel a lone [`LbfgsApprox::hvp`] runs on its own block).
//!
//! **Bitwise identity.** Each stacked column's dot accumulates `f64`
//! contributions in ascending element order with the `v[r] == 0.0` skip —
//! exactly [`Mat::tr_matvec`]'s per-column order. The rhs rounds the
//! `ΔW`-half to `f32` *before* the σ scaling (matching `tr_matvec` then
//! `vector::scale`), the middle solve is the same [`Lu`] factorisation,
//! and the outbound combination replays the per-element `scale` + `axpy`
//! sequence of the per-client path. Every `f32` operation therefore
//! happens in the same order with the same inputs, and the recovered model
//! is bit-for-bit the per-client result at every thread count
//! (see `tests/props.rs` and the frozen golden trace).
//!
//! [`Mat::row_dots_into`]: fuiov_tensor::Mat::row_dots_into
//! [`Mat::tr_matvec`]: fuiov_tensor::Mat::tr_matvec
//! [`Lu`]: fuiov_tensor::solve::Lu

use crate::lbfgs::LbfgsApprox;
use fuiov_storage::ClientId;
use fuiov_tensor::simd::AVec;
use fuiov_tensor::solve::Lu;
use fuiov_tensor::Mat;

/// One client's block inside the stack.
#[derive(Debug, Clone)]
struct StackedEntry {
    /// First stacked row of this client's block (`ΔG` columns first, then
    /// `ΔW` columns).
    offset: usize,
    /// Pair count `s` (the block spans `2s` stacked rows).
    pairs: usize,
    sigma: f32,
    middle: Lu,
}

/// All remaining clients' L-BFGS factors stacked into one matrix, ready to
/// serve a whole recovery round with one fused inbound sweep.
///
/// Re-stack (via [`StackedLbfgs::rebuild`]) whenever any client's
/// approximation changes — pair refreshes are rare (every
/// `pair_refresh_interval` rounds), and each client's factors already
/// sit in the stack's row layout, so a rebuild is one block copy per
/// client into the buffer the stack already owns.
#[derive(Debug, Clone)]
pub struct StackedLbfgs {
    dim: usize,
    /// `Σᵢ2sᵢ × dim`, row-major: row `offsetᵢ + j` is client i's `ΔG`
    /// column j; row `offsetᵢ + sᵢ + j` its `ΔW` column j.
    stack: Mat,
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
            stack: Mat::zeros(0, 0),
            entries: Vec::new(),
            clients: Vec::new(),
        };
        stacked.rebuild(approxes);
        stacked
    }

    /// Re-stacks `approxes` (ascending client order, the stack's
    /// dimension) into the buffer this stack already owns. Every approximation keeps
    /// its factors in the stack's row layout, so each client costs one
    /// block copy; the buffer is reserved to the exact new size once and
    /// reused across rebuilds. The result is indistinguishable from a
    /// fresh [`StackedLbfgs::build`] (equal [`StackedLbfgs::fingerprint`]).
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
        let rows: usize = approxes.iter().map(|(_, a)| a.factors().rows()).sum();
        let mut data = std::mem::replace(&mut self.stack, Mat::zeros(0, 0)).into_vec();
        data.clear();
        data.reserve_exact(rows * dim);
        self.entries.clear();
        self.clients.clear();
        let mut offset = 0usize;
        for (client, approx) in approxes {
            assert_eq!(approx.dim(), dim, "StackedLbfgs: dimension mismatch");
            assert!(
                self.clients.last().is_none_or(|&last| last < client),
                "StackedLbfgs: clients must be strictly ascending"
            );
            data.extend_from_slice(approx.factors().as_slice());
            self.entries.push(StackedEntry {
                offset,
                pairs: approx.pairs(),
                sigma: approx.sigma(),
                middle: approx.middle_lu().clone(),
            });
            self.clients.push(client);
            offset += approx.factors().rows();
        }
        self.stack = Mat::from_vec(offset, dim, data);
    }

    /// Whether no client is stacked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of stacked clients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total stacked factor columns `Σᵢ2sᵢ`.
    pub fn total_columns(&self) -> usize {
        self.stack.rows()
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
    /// stacked arithmetic: the dimension, each client's id / block offset /
    /// pair count / `σ` bits, and every stacked factor element's `f32`
    /// bits. Two stacks with equal fingerprints produce bitwise-identical
    /// sweeps, so `core::jobs` seals this value into each checkpoint and
    /// verifies it after rebuilding the stack on resume.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes =
            Vec::with_capacity(16 + self.entries.len() * 28 + self.stack.rows() * self.dim * 4);
        bytes.extend_from_slice(&(self.dim as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (client, e) in self.clients.iter().zip(&self.entries) {
            bytes.extend_from_slice(&(*client as u64).to_le_bytes());
            bytes.extend_from_slice(&(e.offset as u64).to_le_bytes());
            bytes.extend_from_slice(&(e.pairs as u64).to_le_bytes());
            bytes.extend_from_slice(&e.sigma.to_bits().to_le_bytes());
        }
        for r in 0..self.stack.rows() {
            for &x in self.stack.row(r) {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        fuiov_storage::segment::fnv1a64(&bytes)
    }

    /// Pass 1: the fused inbound sweep. Computes every stacked column's
    /// `f64`-accumulated dot with the shared `v` into `dots` (resized to
    /// [`StackedLbfgs::total_columns`]), one parallel row-band pass over
    /// the whole stack.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn fused_dots(&self, v: &[f32], dots: &mut AVec) {
        assert_eq!(v.len(), self.dim, "fused_dots: dimension mismatch");
        dots.clear();
        dots.resize(self.stack.rows(), 0.0);
        if !dots.is_empty() {
            self.stack.row_dots_into(v, dots);
        }
    }

    /// The range form of pass 1: computes stacked columns
    /// `rows.start..rows.end`'s dots with `v` into `band` (one slot per
    /// column), without touching the rest of the stack. Each column's dot
    /// is a pure function of that column and `v`, so any partition of
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
        self.stack.row_dots_range_into(v, rows, band);
    }

    /// Pass 2: every client's middle solve against its slice of the fused
    /// dots. `ps` receives the solutions at the same offsets as `dots`
    /// (client i's `p` occupies `ps[offsetᵢ..offsetᵢ+2sᵢ]`); the two
    /// scratch vectors are recycled across clients and calls.
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
            self.stack.rows(),
            "solve_middles: dots length mismatch"
        );
        ps.clear();
        for e in &self.entries {
            let s = e.pairs;
            // rhs = [ΔGᵀv ; σ·ΔWᵀv]: the ΔW dots were rounded to f32 by
            // pass 1, so scaling here matches tr_matvec → vector::scale.
            rhs_scratch.clear();
            rhs_scratch.extend_from_slice(&dots[e.offset..e.offset + s]);
            rhs_scratch.extend(
                dots[e.offset + s..e.offset + 2 * s]
                    .iter()
                    .map(|&x| x * e.sigma),
            );
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
        let p = &ps[e.offset..e.offset + 2 * e.pairs];
        apply_block(
            &self.stack,
            e.offset,
            e.pairs,
            e.sigma,
            p,
            v,
            out,
            accumulate,
        );
    }
}

/// The outbound kernel of the compact representation, shared by the stack
/// and [`LbfgsApprox::hvp_into`]: for the `2s` factor rows of `factors`
/// starting at `offset` (`ΔG` rows, then `ΔW` rows) and the middle-solve
/// solution `p = [p₁; p₂]`, writes (or, with `accumulate`, adds via
/// `axpy(1.0, …)`) `σ·v[r] − (ΔG·p₁)[r] − σ·(ΔW·p₂)[r]` into `out[r]`.
///
/// Per element, both row dots accumulate in `f64` over ascending `j` with
/// no zero skip (exactly [`fuiov_tensor::vector::dot`] as `Mat::matvec`
/// calls it) and the combination replays the textbook chain's `scale` +
/// two `axpy`s, so every caller produces the same bits as the original
/// five-pass implementation.
///
/// # Panics
///
/// Panics if `out.len() != v.len()`, `p.len() != 2s`, or the rows are out
/// of range.
// `-1.0 * x` is deliberate: it replays `axpy(-1.0, …)`'s exact `a * xi`
// multiply so the combination stays bit-for-bit the per-client chain.
#[allow(clippy::neg_multiply, clippy::too_many_arguments)]
pub(crate) fn apply_block(
    factors: &Mat,
    offset: usize,
    s: usize,
    sigma: f32,
    p: &[f32],
    v: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(v.len(), factors.cols(), "apply: dimension mismatch");
    assert_eq!(out.len(), v.len(), "apply: output dimension mismatch");
    assert_eq!(p.len(), 2 * s, "apply: solution length mismatch");
    let (p1, p2) = p.split_at(s);
    if s == 2 {
        // The paper's buffer size — fully zipped streams, no indexing.
        let (g0, g1) = (factors.row(offset), factors.row(offset + 1));
        let (w0, w1) = (factors.row(offset + 2), factors.row(offset + 3));
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
    // The client's 2s stacked rows, read as parallel sequential
    // streams: element r of logical factor column j is rows_?[j][r].
    let rows_g: Vec<&[f32]> = (0..s).map(|j| factors.row(offset + j)).collect();
    let rows_w: Vec<&[f32]> = (0..s).map(|j| factors.row(offset + s + j)).collect();
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
    /// Row-major `n × d` estimate matrix (one row per remaining client),
    /// 64-byte aligned so every estimate row's SIMD accumulation starts
    /// on a cache-line boundary when `dim % 16 == 0`.
    pub est: AVec,
    /// Decoded stored direction of the client being refreshed.
    pub stored: Vec<f32>,
    /// `est − stored` for the pair being pushed.
    pub dg: Vec<f32>,
    /// `f64` accumulator reused by lr calibration windows.
    pub acc64: Vec<f64>,
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
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_clients() {
        let a = approx_for(1, 4, 1);
        let _ = StackedLbfgs::build(4, [(3 as ClientId, &a), (1 as ClientId, &a)]);
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
