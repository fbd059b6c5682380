//! Compact L-BFGS Hessian approximation (the paper's Algorithm 2).
//!
//! Given `s` vector pairs — model differences `ΔW = [Δw₁ … Δwₛ]` and
//! gradient differences `ΔGⁱ = [Δg₁ … Δgₛ]` for client `i` — the compact
//! (Byrd–Nocedal–Schnabel) representation of the BFGS matrix with initial
//! scaling `σI` is
//!
//! ```text
//! B = σI − [ΔG  σΔW] · M⁻¹ · [ΔGᵀ; σΔWᵀ],
//! M = [ −D   Lᵀ
//!        L   σΔWᵀΔW ],
//! ```
//!
//! where `A = ΔWᵀΔG`, `L = tril(A)` (strictly lower), `D = diag(A)`, and
//! `σ = (Δgₛᵀ Δwₛ)/(Δwₛᵀ Δwₛ)` — exactly Algorithm 2's lines 1–6, with the
//! practical difference that the `d × d` matrix `B` is never materialised:
//! [`LbfgsApprox::hvp`] computes the Hessian-vector product `B·v` the
//! recovery loop needs (Eq. 6) using only `d × 2s` work.
//!
//! The factor columns are shared rows (`Arc<[f32]>`), each stored once: a
//! [`PairBuffer`] holds one handle per pair row, the approximation built
//! from it holds the same handles, and the replay round's stack
//! ([`crate::batch::StackedLbfgs`]) indexes them rather than copying them.
//! Both dot their rows with `v` through one kernel,
//! [`fuiov_tensor::matrix::row_dots`].

use fuiov_tensor::matrix::row_dots;
use fuiov_tensor::solve::Lu;
use fuiov_tensor::{vector, Mat};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Why an L-BFGS approximation could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum LbfgsError {
    /// No vector pairs were supplied.
    Empty,
    /// `ΔW`/`ΔG` counts or dimensions disagree.
    ShapeMismatch,
    /// The curvature `Δgₛᵀ Δwₛ` or `‖Δwₛ‖²` is non-positive / non-finite,
    /// so the BFGS scaling `σ` is undefined.
    BadCurvature {
        /// The offending σ numerator `Δgᵀ Δw`.
        sy: f32,
    },
    /// The `2s × 2s` middle matrix is singular (linearly dependent pairs).
    SingularMiddle,
}

impl fmt::Display for LbfgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbfgsError::Empty => write!(f, "no L-BFGS vector pairs supplied"),
            LbfgsError::ShapeMismatch => write!(f, "vector pair shapes disagree"),
            LbfgsError::BadCurvature { sy } => {
                write!(
                    f,
                    "non-positive curvature (Δgᵀ·Δw = {sy}); BFGS scaling undefined"
                )
            }
            LbfgsError::SingularMiddle => write!(f, "singular L-BFGS middle matrix"),
        }
    }
}

impl Error for LbfgsError {}

/// A ready-to-apply compact L-BFGS Hessian approximation.
///
/// The factor columns are shared rows: an approximation built from a
/// [`PairBuffer`] holds the buffer's own handles, not copies, and a `ΔW`
/// row is the same handle in every client's approximation whose pair
/// came from the same round.
#[derive(Debug, Clone)]
pub struct LbfgsApprox {
    /// The `ΔG` columns, oldest → newest.
    dgs: Vec<Arc<[f32]>>,
    /// The `ΔW` columns, oldest → newest.
    dws: Vec<Arc<[f32]>>,
    /// Factored `2s × 2s` middle matrix.
    middle: Lu,
    sigma: f32,
}

impl LbfgsApprox {
    /// Builds the approximation from parallel lists of vector pairs
    /// (ordered oldest → newest; the newest pair defines σ). The pairs
    /// are copied into rows no other approximation shares.
    ///
    /// # Errors
    ///
    /// Returns [`LbfgsError`] if the inputs are empty or inconsistent, the
    /// newest pair has non-positive curvature, or the middle matrix is
    /// singular.
    pub fn new(dws: &[Vec<f32>], dgs: &[Vec<f32>]) -> Result<Self, LbfgsError> {
        check_pairs(dws, dgs)?;
        Self::from_checked(copy_rows(dws), copy_rows(dgs))
    }

    /// [`LbfgsApprox::new`] over borrowed columns.
    ///
    /// # Errors
    ///
    /// As [`LbfgsApprox::new`].
    pub fn from_slices(dws: &[&[f32]], dgs: &[&[f32]]) -> Result<Self, LbfgsError> {
        check_pairs(dws, dgs)?;
        Self::from_checked(copy_rows(dws), copy_rows(dgs))
    }

    /// [`LbfgsApprox::new`] over shared rows: the approximation keeps the
    /// handles it is given, so it shares every row with whoever else holds
    /// them ([`PairBuffer::approximation`], a decoded checkpoint).
    pub(crate) fn from_rows(
        dws: Vec<Arc<[f32]>>,
        dgs: Vec<Arc<[f32]>>,
    ) -> Result<Self, LbfgsError> {
        check_pairs(&dws, &dgs)?;
        Self::from_checked(dws, dgs)
    }

    fn from_checked(dws: Vec<Arc<[f32]>>, dgs: Vec<Arc<[f32]>>) -> Result<Self, LbfgsError> {
        let rows: Vec<&[f32]> = dgs.iter().chain(&dws).map(|row| &row[..]).collect();
        let (sigma, m) = compact_middle(&rows)?;
        let middle = Lu::factor(&m).map_err(|_| LbfgsError::SingularMiddle)?;
        Ok(LbfgsApprox {
            dgs,
            dws,
            middle,
            sigma,
        })
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.dgs[0].len()
    }

    /// Number of stored vector pairs `s`.
    pub fn pairs(&self) -> usize {
        self.dgs.len()
    }

    /// The initial-scaling coefficient σ.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Hessian-vector product `B·v` (Algorithm 2 applied to `v`; this is
    /// the `H̃ᵗᵢ·(w̄ₜ − wₜ)` term of Eq. 6).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn hvp(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; v.len()];
        self.hvp_into(v, &mut out);
        out
    }

    /// The textbook five-pass chain (two `tr_matvec`s, an explicit scale,
    /// a solve, two `matvec` + `axpy` passes) that [`LbfgsApprox::hvp`]'s
    /// fused implementation replaced. Kept as the differential baseline:
    /// the unit tests demand `hvp` reproduce it bit for bit, and the
    /// recovery-round benchmark measures the batched engine against it.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn hvp_reference(&self, v: &[f32]) -> Vec<f32> {
        let s = self.pairs();
        let dg = Mat::from_cols(&self.dgs);
        let dw = Mat::from_cols(&self.dws);
        let top = dg.tr_matvec(v);
        let mut bottom = dw.tr_matvec(v);
        vector::scale(self.sigma, &mut bottom);
        let mut rhs = Vec::with_capacity(2 * s);
        rhs.extend_from_slice(&top);
        rhs.extend_from_slice(&bottom);
        let p = self.middle.solve(&rhs);
        let mut out: Vec<f32> = v.to_vec();
        vector::scale(self.sigma, &mut out);
        let part_g = dg.matvec(&p[..s]);
        vector::axpy(-1.0, &part_g, &mut out);
        let part_w = dw.matvec(&p[s..]);
        vector::axpy(-self.sigma, &part_w, &mut out);
        out
    }

    /// [`LbfgsApprox::hvp`] into a caller-owned buffer.
    ///
    /// A one-client stack: the inbound half dots each of the `2s` factor
    /// rows with `v` through the stack's own kernel, [`row_dots`], in
    /// `Mat::tr_matvec`'s per-column order (ascending `r`, skipping
    /// `v[r] == 0.0`, `f64` sums rounded once), the `ΔW` half of the rhs
    /// is rounded to `f32` before the σ scaling
    /// (`tr_matvec` then `vector::scale`), and the outbound half is the
    /// stack's `σv − ΔG·p₁ − σΔW·p₂` kernel. Per output element the `f32`
    /// operation sequence is the textbook chain's, so the result is
    /// bitwise [`LbfgsApprox::hvp_reference`] — the property the replay
    /// golden traces pin — up to the sign of a zero where `v[r] == −0.0`
    /// meets an all-zero factor row (the chain's `matvec` dots start from
    /// `−0.0`, the kernel's from `+0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()` or `out.len() != dim()`.
    pub fn hvp_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.dim(), "hvp: dimension mismatch");
        assert_eq!(out.len(), self.dim(), "hvp: output dimension mismatch");
        let s = self.pairs();
        // All 2s rows in one call, so they share the kernel's passes.
        let rows: Vec<&[f32]> = self.dgs.iter().chain(&self.dws).map(|r| &r[..]).collect();
        let mut rhs = vec![0.0f32; 2 * s];
        row_dots(&rows, v, &mut rhs);
        for x in &mut rhs[s..] {
            *x *= self.sigma;
        }
        let p = self.middle.solve(&rhs);
        crate::batch::apply_block(
            |j| &self.dgs[j],
            |j| &self.dws[j],
            s,
            self.sigma,
            &p,
            v,
            out,
            false,
        );
    }

    /// The `ΔG` rows, oldest → newest.
    pub(crate) fn dg_rows(&self) -> &[Arc<[f32]>] {
        &self.dgs
    }

    /// The `ΔW` rows, oldest → newest.
    pub(crate) fn dw_rows(&self) -> &[Arc<[f32]>] {
        &self.dws
    }

    /// Factored middle matrix (batch-engine access).
    pub(crate) fn middle_lu(&self) -> &Lu {
        &self.middle
    }

    /// Materialises the dense `d × d` approximation by applying
    /// [`LbfgsApprox::hvp`] to unit vectors — Algorithm 2 exactly as
    /// written. Only sensible for tiny models; used for cross-validation
    /// in tests and the `micro` ablation bench.
    pub fn dense(&self) -> Mat {
        let d = self.dim();
        let cols: Vec<Vec<f32>> = (0..d)
            .map(|j| {
                let mut e = vec![0.0; d];
                e[j] = 1.0;
                self.hvp(&e)
            })
            .collect();
        Mat::from_cols(&cols)
    }
}

/// The shape checks every constructor runs before it builds anything.
fn check_pairs<A: AsRef<[f32]>, B: AsRef<[f32]>>(dws: &[A], dgs: &[B]) -> Result<(), LbfgsError> {
    if dws.is_empty() || dgs.is_empty() {
        return Err(LbfgsError::Empty);
    }
    if dws.len() != dgs.len() {
        return Err(LbfgsError::ShapeMismatch);
    }
    let dim = dws[0].as_ref().len();
    if dim == 0
        || dws.iter().any(|v| v.as_ref().len() != dim)
        || dgs.iter().any(|v| v.as_ref().len() != dim)
    {
        return Err(LbfgsError::ShapeMismatch);
    }
    Ok(())
}

fn copy_rows<R: AsRef<[f32]>>(rows: &[R]) -> Vec<Arc<[f32]>> {
    rows.iter().map(|row| Arc::from(row.as_ref())).collect()
}

/// Model coordinates (factor-block columns) each step of
/// [`compact_middle`]'s pass keeps in L1 while every accumulator advances
/// over them.
const GRAM_BLOCK: usize = 512;

/// σ and the `2s × 2s` middle matrix `M = [ −D  Lᵀ ; L  σ·ΔWᵀΔW ]` from
/// one pass over the `2s` factor rows (`ΔG` rows then `ΔW` rows, each
/// oldest → newest): the pass walks the columns in blocks of
/// [`GRAM_BLOCK`] elements, and over each block advances σ's two chains
/// and then, per pair `i`, the row `[A[i][·] ΔWᵀΔW[i][·]]` four
/// accumulators at a time, held in registers. (When `s` is odd the last
/// group of four repeats its first column in the spare lanes, whose sums
/// are dropped.)
///
/// Every accumulator keeps the sequence of `vector::dot` (σ) or
/// `Mat::tr_matmul` (`A = ΔWᵀΔG`, `ΔWᵀΔW`), only interleaved with the
/// others:
///
/// - `sy = Δgₛᵀ Δwₛ` and `ss = Δwₛᵀ Δwₛ` sum `f64` products in ascending
///   `r` from `−0.0` with no skip, then round to `f32` once;
/// - `A[i][j]` and `(ΔWᵀΔW)[i][j]` start from `+0.0`, add
///   `f64(Δwᵢ[r]) · f64(x[r])` in ascending `r`, skip every `r` where
///   `Δwᵢ[r] == 0.0`, and round to `f32` once;
/// - `M` is then assembled element by element exactly as `diag` →
///   `scale_in_place(−1.0)`, `tril_strict`, `transpose`, `scale_in_place(σ)`
///   and `block2x2` assembled it (including the `−0.0` that `0.0 · −1.0`
///   leaves off the `−D` diagonal).
///
/// The result is therefore bitwise what those `vector`/`Mat` calls give,
/// at any `s` (the reference tests compare them).
///
/// # Errors
///
/// [`LbfgsError::BadCurvature`] when `sy` or `ss` is non-positive or
/// non-finite.
// `x * -1.0` is deliberate: it replays `scale_in_place(-1.0)`'s multiply
// over the whole −D block, off-diagonal zeros included.
#[allow(clippy::neg_multiply)]
fn compact_middle(rows: &[&[f32]]) -> Result<(f32, Mat), LbfgsError> {
    let s = rows.len() / 2;
    let dim = rows[0].len();
    let mut sy = -0.0f64;
    let mut ss = -0.0f64;
    // Row i of `gram`: `A[i][0..s]`, then `(ΔWᵀΔW)[i][0..s]` — the same
    // column order as `rows`, so one group of four serves both blocks.
    let mut gram = vec![0.0f64; 2 * s * s];
    let mut start = 0;
    while start < dim {
        let span = start..(start + GRAM_BLOCK).min(dim);
        let (newest_g, newest_w) = (&rows[s - 1][span.clone()], &rows[2 * s - 1][span.clone()]);
        for (&g, &w) in newest_g.iter().zip(newest_w) {
            sy += f64::from(g) * f64::from(w);
            ss += f64::from(w) * f64::from(w);
        }
        for (acc_row, w_row) in gram.chunks_exact_mut(2 * s).zip(&rows[s..]) {
            let w_row = &w_row[span.clone()];
            for (group, acc) in rows.chunks(4).zip(acc_row.chunks_mut(4)) {
                let col = |k: usize| &group.get(k).unwrap_or(&group[0])[span.clone()];
                let mut a = [0.0f64; 4];
                a[..acc.len()].copy_from_slice(acc);
                for ((((&w, &x0), &x1), &x2), &x3) in
                    w_row.iter().zip(col(0)).zip(col(1)).zip(col(2)).zip(col(3))
                {
                    if w == 0.0 {
                        continue;
                    }
                    let w = f64::from(w);
                    a[0] += w * f64::from(x0);
                    a[1] += w * f64::from(x1);
                    a[2] += w * f64::from(x2);
                    a[3] += w * f64::from(x3);
                }
                let n = acc.len();
                acc.copy_from_slice(&a[..n]);
            }
        }
        start = span.end;
    }
    let (sy, ss) = (sy as f32, ss as f32);
    if sy <= 0.0 || ss <= 0.0 || !sy.is_finite() || !ss.is_finite() {
        return Err(LbfgsError::BadCurvature { sy });
    }
    let sigma = sy / ss;
    let mut m = Mat::zeros(2 * s, 2 * s);
    for i in 0..s {
        for j in 0..s {
            let a_ij = gram[i * 2 * s + j] as f32;
            let a_ji = gram[j * 2 * s + i] as f32;
            let ww_ij = gram[i * 2 * s + s + j] as f32;
            m.set(i, j, (if i == j { a_ij } else { 0.0 }) * -1.0);
            m.set(i, s + j, if j > i { a_ji } else { 0.0 });
            m.set(s + i, j, if i > j { a_ij } else { 0.0 });
            m.set(s + i, s + j, ww_ij * sigma);
        }
    }
    Ok((sigma, m))
}

/// A FIFO buffer of at most `s` vector pairs, as maintained per client
/// during recovery ("vector pairs are updated every … rounds", §V-A3).
///
/// The pairs are shared rows. A pair's `ΔW` is the model difference of
/// the round the pair came from, the same for every client with a pair
/// from that round (§IV-B writes the pairs `(ΔW, ΔGⁱ)`), so the recovery
/// loop pushes one handle into every such client's buffer instead of a
/// copy each; [`PairBuffer::approximation`] hands the buffer's handles on
/// without copying a row.
#[derive(Debug, Clone, Default)]
pub struct PairBuffer {
    capacity: usize,
    dws: VecDeque<Arc<[f32]>>,
    dgs: VecDeque<Arc<[f32]>>,
}

impl PairBuffer {
    /// Creates a buffer holding at most `capacity` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PairBuffer: capacity must be positive");
        PairBuffer {
            capacity,
            dws: VecDeque::with_capacity(capacity),
            dgs: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.dws.len()
    }

    /// Whether no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.dws.is_empty()
    }

    /// Pushes a pair, evicting the oldest when full. A row passed as an
    /// `Arc<[f32]>` is stored as that handle; a `Vec` or slice is copied
    /// into a row of its own.
    ///
    /// # Panics
    ///
    /// Panics if `dw`/`dg` lengths differ from each other or from stored
    /// pairs.
    pub fn push(&mut self, dw: impl Into<Arc<[f32]>>, dg: impl Into<Arc<[f32]>>) {
        let (dw, dg) = (dw.into(), dg.into());
        assert_eq!(dw.len(), dg.len(), "PairBuffer::push: pair length mismatch");
        if let Some(first) = self.dws.front() {
            assert_eq!(first.len(), dw.len(), "PairBuffer::push: dimension changed");
        }
        if self.dws.len() == self.capacity {
            self.dws.pop_front();
            self.dgs.pop_front();
        }
        self.dws.push_back(dw);
        self.dgs.push_back(dg);
    }

    /// Maximum number of pairs the buffer holds before evicting.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the stored pairs oldest → newest as borrowed `(dw, dg)`
    /// slices — the exact order [`PairBuffer::push`] replays them, so a
    /// checkpoint codec that serialises this iteration and pushes it back
    /// reconstructs the buffer bit for bit.
    pub fn pairs(&self) -> impl Iterator<Item = (&[f32], &[f32])> {
        self.dws
            .iter()
            .map(|row| &row[..])
            .zip(self.dgs.iter().map(|row| &row[..]))
    }

    /// Builds the L-BFGS approximation from the buffered pairs (oldest →
    /// newest), sharing the buffer's rows: no row is copied.
    ///
    /// # Errors
    ///
    /// Propagates [`LbfgsError`] from [`LbfgsApprox::new`] (including
    /// [`LbfgsError::Empty`] when the buffer has no pairs yet).
    pub fn approximation(&self) -> Result<LbfgsApprox, LbfgsError> {
        LbfgsApprox::from_rows(
            self.dws.iter().cloned().collect(),
            self.dgs.iter().cloned().collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds pairs from a known quadratic with Hessian Q: Δg = Q·Δw.
    fn quadratic_pairs(q: &Mat, dws: &[Vec<f32>]) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let dgs: Vec<Vec<f32>> = dws.iter().map(|w| q.matvec(w)).collect();
        (dws.to_vec(), dgs)
    }

    #[test]
    fn isotropic_quadratic_is_recovered_exactly() {
        // Q = 3I: every direction has curvature 3, so B ≡ 3I.
        let q = {
            let mut m = Mat::eye(4);
            m.scale_in_place(3.0);
            m
        };
        let dws = vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 1.0, 0.0]];
        let (dws, dgs) = quadratic_pairs(&q, &dws);
        let b = LbfgsApprox::new(&dws, &dgs).unwrap();
        assert!((b.sigma() - 3.0).abs() < 1e-5);
        let v = vec![0.5, -1.0, 2.0, 0.25];
        let bv = b.hvp(&v);
        let qv = q.matvec(&v);
        assert!(vector::l2_distance(&bv, &qv) < 1e-4);
    }

    #[test]
    fn secant_equation_holds_for_newest_pair() {
        // Anisotropic quadratic.
        let q = Mat::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 0.5], &[0.0, 0.5, 2.0]]);
        let dws = vec![vec![1.0, 0.0, 0.0], vec![0.2, 1.0, -0.3]];
        let (dws, dgs) = quadratic_pairs(&q, &dws);
        let b = LbfgsApprox::new(&dws, &dgs).unwrap();
        let pred = b.hvp(&dws[1]);
        assert!(
            vector::l2_distance(&pred, &dgs[1]) < 1e-3,
            "secant violated: {pred:?} vs {:?}",
            dgs[1]
        );
    }

    #[test]
    fn dense_matches_hvp() {
        let q = Mat::from_rows(&[&[2.0, 0.3], &[0.3, 1.5]]);
        let dws = vec![vec![1.0, 0.2], vec![-0.1, 1.0]];
        let (dws, dgs) = quadratic_pairs(&q, &dws);
        let b = LbfgsApprox::new(&dws, &dgs).unwrap();
        let dense = b.dense();
        let v = vec![0.7, -0.4];
        let via_dense = dense.matvec(&v);
        let via_hvp = b.hvp(&v);
        assert!(vector::l2_distance(&via_dense, &via_hvp) < 1e-5);
        // Dense approximation of a 2-D quadratic with 2 independent pairs
        // should reproduce Q closely (f32 round-off leaves ~4e-3).
        assert!(dense.max_abs_diff(&q) < 1e-2, "dense={dense:?}");
    }

    #[test]
    fn hvp_is_linear() {
        let q = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 5.0]]);
        let dws = vec![vec![1.0, 1.0]];
        let (dws, dgs) = quadratic_pairs(&q, &dws);
        let b = LbfgsApprox::new(&dws, &dgs).unwrap();
        let u = vec![1.0, -2.0];
        let v = vec![0.5, 3.0];
        let sum = vector::add(&u, &v);
        let lhs = b.hvp(&sum);
        let rhs = vector::add(&b.hvp(&u), &b.hvp(&v));
        assert!(vector::l2_distance(&lhs, &rhs) < 1e-4);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert_eq!(LbfgsApprox::new(&[], &[]).unwrap_err(), LbfgsError::Empty);
        assert_eq!(
            LbfgsApprox::new(&[vec![1.0]], &[]).unwrap_err(),
            LbfgsError::Empty
        );
        assert_eq!(
            LbfgsApprox::new(&[vec![1.0], vec![2.0]], &[vec![1.0]]).unwrap_err(),
            LbfgsError::ShapeMismatch
        );
        assert_eq!(
            LbfgsApprox::new(&[vec![1.0, 2.0]], &[vec![1.0]]).unwrap_err(),
            LbfgsError::ShapeMismatch
        );
    }

    #[test]
    fn rejects_negative_curvature() {
        // Δg anti-parallel to Δw → sy < 0.
        let err = LbfgsApprox::new(&[vec![1.0, 0.0]], &[vec![-1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, LbfgsError::BadCurvature { .. }));
        assert!(err.to_string().contains("curvature"));
    }

    #[test]
    fn duplicate_pairs_still_satisfy_secant() {
        // Identical pairs keep the middle matrix invertible thanks to the
        // −D block; the approximation must still satisfy the secant
        // equation. (True singularity — e.g. a zero Δw — surfaces as
        // BadCurvature or SingularMiddle and is handled by the recovery
        // loop's fallback.)
        let dw = vec![1.0, 2.0, 3.0];
        let dg = vec![2.0, 4.0, 6.0];
        let b = LbfgsApprox::new(&[dw.clone(), dw.clone()], &[dg.clone(), dg.clone()]).unwrap();
        let pred = b.hvp(&dw);
        assert!(vector::l2_distance(&pred, &dg) < 1e-3);
    }

    #[test]
    fn zero_pair_is_rejected() {
        let err = LbfgsApprox::new(&[vec![0.0, 0.0]], &[vec![0.0, 0.0]]).unwrap_err();
        assert!(matches!(err, LbfgsError::BadCurvature { .. }));
    }

    #[test]
    fn pair_buffer_fifo_eviction() {
        let mut buf = PairBuffer::new(2);
        assert!(buf.is_empty());
        buf.push(vec![1.0, 0.0], vec![2.0, 0.0]);
        buf.push(vec![0.0, 1.0], vec![0.0, 3.0]);
        buf.push(vec![1.0, 1.0], vec![2.0, 3.0]);
        assert_eq!(buf.len(), 2);
        // Oldest pair evicted: sigma now comes from the newest pair.
        let approx = buf.approximation().unwrap();
        let expected_sigma =
            vector::dot(&[2.0, 3.0], &[1.0, 1.0]) / vector::dot(&[1.0, 1.0], &[1.0, 1.0]);
        assert!((approx.sigma() - expected_sigma).abs() < 1e-6);
    }

    #[test]
    fn fused_hvp_matches_original_five_pass_chain_bitwise() {
        // Reimplements the pre-fusion implementation (two tr_matvecs, an
        // explicit scale, a solve, two matvec+axpy passes) and demands the
        // fused kernel reproduce it bit for bit — this is the contract
        // that keeps the replay golden traces frozen. Exercise several s/d
        // shapes, including vectors with exact zeros (the tr_matvec skip).
        for (salt, d, s) in [(1u64, 7usize, 1usize), (2, 40, 2), (3, 129, 4)] {
            let mut seed = salt;
            let mut next = || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            };
            let dws: Vec<Vec<f32>> = (0..s).map(|_| (0..d).map(|_| next()).collect()).collect();
            // dg = dw scaled per-coordinate by a positive factor: positive
            // curvature guaranteed, anisotropic enough to be interesting.
            let dgs: Vec<Vec<f32>> = dws
                .iter()
                .map(|w| {
                    w.iter()
                        .enumerate()
                        .map(|(i, x)| x * (1.0 + (i % 5) as f32))
                        .collect()
                })
                .collect();
            let b = LbfgsApprox::new(&dws, &dgs).unwrap();
            let v: Vec<f32> = (0..d)
                .map(|i| if i % 7 == 0 { 0.0 } else { next() })
                .collect();

            // The original chain, now kept alive as `hvp_reference`.
            let naive = b.hvp_reference(&v);

            let fused = b.hvp(&v);
            assert_eq!(
                fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                naive.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "fused hvp diverged at d={d} s={s}"
            );
        }
    }

    /// The chain [`compact_middle`] replaced, kept as its reference: two
    /// `vector::dot`s for σ, `Mat::from_cols` for both factors, two
    /// `tr_matmul`s, then `diag`/`tril_strict`/`transpose`/`block2x2`.
    fn reference_middle(dws: &[Vec<f32>], dgs: &[Vec<f32>]) -> Result<(f32, Mat), LbfgsError> {
        let last = dws.len() - 1;
        let sy = vector::dot(&dgs[last], &dws[last]);
        let ss = vector::dot(&dws[last], &dws[last]);
        if sy <= 0.0 || ss <= 0.0 || !sy.is_finite() || !ss.is_finite() {
            return Err(LbfgsError::BadCurvature { sy });
        }
        let sigma = sy / ss;
        let dw = Mat::from_cols(dws);
        let dg = Mat::from_cols(dgs);
        let a = dw.tr_matmul(&dg);
        let l = a.tril_strict();
        let mut neg_d = a.diag();
        neg_d.scale_in_place(-1.0);
        let lt = l.transpose();
        let mut sww = dw.tr_matmul(&dw);
        sww.scale_in_place(sigma);
        Ok((sigma, Mat::block2x2(&neg_d, &lt, &l, &sww)))
    }

    /// The whole pre-fusion `hvp`: reference middle, its LU, and the
    /// five-pass apply over `Mat::from_cols` factors.
    fn reference_hvp(dws: &[Vec<f32>], dgs: &[Vec<f32>], v: &[f32]) -> Vec<f32> {
        let (sigma, m) = reference_middle(dws, dgs).expect("reference builds");
        let lu = Lu::factor(&m).expect("reference middle factors");
        let s = dws.len();
        let dw = Mat::from_cols(dws);
        let dg = Mat::from_cols(dgs);
        let mut rhs = dg.tr_matvec(v);
        let mut bottom = dw.tr_matvec(v);
        vector::scale(sigma, &mut bottom);
        rhs.extend_from_slice(&bottom);
        let p = lu.solve(&rhs);
        let mut out = v.to_vec();
        vector::scale(sigma, &mut out);
        vector::axpy(-1.0, &dg.matvec(&p[..s]), &mut out);
        vector::axpy(-sigma, &dw.matvec(&p[s..]), &mut out);
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The factor rows [`compact_middle`] reads: `ΔG` rows, then `ΔW` rows.
    fn rows<'a>(dws: &'a [Vec<f32>], dgs: &'a [Vec<f32>]) -> Vec<&'a [f32]> {
        dgs.iter().chain(dws).map(Vec::as_slice).collect()
    }

    /// Seeded pairs with exact `+0.0` and `−0.0` in every Δw and Δg, and
    /// mostly positive curvature along each pair (a short pair can still
    /// come out non-positive; the tests compare that error too).
    fn signed_zero_pairs(seed: u64, dim: usize, s: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dws: Vec<Vec<f32>> = (0..s)
            .map(|_| {
                (0..dim)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-1.0f32..1.0),
                    })
                    .collect()
            })
            .collect();
        let dgs = dws
            .iter()
            .map(|w| {
                w.iter()
                    .map(|&x| match rng.gen_range(0..12) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => x * rng.gen_range(0.5f32..3.0) + rng.gen_range(-0.05f32..0.05),
                    })
                    .collect()
            })
            .collect();
        (dws, dgs)
    }

    #[test]
    fn gram_pass_matches_the_reference_chain_bitwise() {
        // Every dimension from 1 to 300, the block edges of the fused
        // pass, and the paper's MNIST size; s = 1..4 each.
        let dims = (1..=300usize)
            .chain([511, 512, 513, 1024, 1537])
            .chain([52_138]);
        let mut built = 0;
        for (case, dim) in dims.enumerate() {
            for s in 1..=4usize {
                let (dws, dgs) = signed_zero_pairs((case * 8 + s) as u64, dim, s);
                let fused = LbfgsApprox::new(&dws, &dgs);
                let Ok((sigma, m)) = reference_middle(&dws, &dgs) else {
                    let err = reference_middle(&dws, &dgs).unwrap_err();
                    let LbfgsError::BadCurvature { sy } = err else {
                        panic!("reference failed unexpectedly: {err}");
                    };
                    match fused.unwrap_err() {
                        LbfgsError::BadCurvature { sy: got } => {
                            assert_eq!(got.to_bits(), sy.to_bits(), "sy at d={dim} s={s}")
                        }
                        other => panic!("d={dim} s={s}: expected BadCurvature, got {other}"),
                    }
                    continue;
                };
                let (got_sigma, got_m) = compact_middle(&rows(&dws, &dgs)).expect("fused builds");
                assert_eq!(got_sigma.to_bits(), sigma.to_bits(), "σ at d={dim} s={s}");
                assert_eq!(
                    bits(got_m.as_slice()),
                    bits(m.as_slice()),
                    "middle matrix at d={dim} s={s}"
                );
                let Ok(approx) = fused else {
                    // A singular middle must be singular for both.
                    assert!(Lu::factor(&m).is_err(), "d={dim} s={s}");
                    continue;
                };
                assert_eq!(approx.sigma().to_bits(), sigma.to_bits());
                // Exact +0.0 entries exercise the inbound skip. (No −0.0:
                // the five-pass chain's `matvec` dots start from −0.0 and
                // the outbound kernel's from +0.0, so at a −0.0 entry of v
                // that meets an all-zero factor row the two chains' zeros
                // differ in sign — a corner older than this kernel.)
                let v: Vec<f32> = (0..dim)
                    .map(|i| {
                        if i % 9 == 0 {
                            0.0
                        } else {
                            (i as f32 * 0.37).sin()
                        }
                    })
                    .collect();
                assert_eq!(
                    bits(&approx.hvp(&v)),
                    bits(&reference_hvp(&dws, &dgs, &v)),
                    "hvp at d={dim} s={s}"
                );
                built += 1;
            }
        }
        assert!(built > 1000, "only {built} approximations built");
    }

    #[test]
    fn gram_pass_skips_zero_dw_rows_exactly() {
        // An infinite Δg element where every Δw is ±0.0: the tr_matmul
        // skip keeps 0·∞ = NaN out of A, and the fused pass must skip it
        // identically. (The newest pair's Δg stays finite so σ is defined.)
        let dim = 37;
        let (mut dws, mut dgs) = signed_zero_pairs(91, dim, 3);
        for (k, w) in dws.iter_mut().enumerate() {
            w[5] = if k % 2 == 0 { 0.0 } else { -0.0 };
        }
        dgs[0][5] = f32::INFINITY;
        dgs[1][5] = f32::NEG_INFINITY;
        let (sigma, m) = reference_middle(&dws, &dgs).expect("reference builds");
        let (got_sigma, got_m) = compact_middle(&rows(&dws, &dgs)).expect("fused builds");
        assert_eq!(got_sigma.to_bits(), sigma.to_bits());
        assert_eq!(bits(got_m.as_slice()), bits(m.as_slice()));
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn zero_curvature_newest_pair_is_bad_curvature() {
        // Δgₛ ⟂ Δwₛ with every product −0.0 (and an older pair that is
        // fine): sy is `vector::dot`'s −0.0, not +0.0.
        let dws = vec![vec![1.0, 2.0, -0.0, 0.5], vec![1.0, -0.0, 0.0, 2.0]];
        let dgs = vec![vec![2.0, 4.0, 0.0, 1.0], vec![-0.0, 5.0, -3.0, -0.0]];
        let err = LbfgsApprox::new(&dws, &dgs).unwrap_err();
        let expected = reference_middle(&dws, &dgs).unwrap_err();
        assert_eq!(err, expected);
        let (LbfgsError::BadCurvature { sy: got }, LbfgsError::BadCurvature { sy }) =
            (err, expected)
        else {
            panic!("expected BadCurvature from both");
        };
        assert_eq!(got.to_bits(), sy.to_bits());
        assert_eq!(sy.to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn pushed_rows_are_shared_not_copied() {
        // One ΔW handle pushed into two buffers is one row in both
        // approximations; a Vec or a slice push copies into a row of its
        // own. Either way the approximation is the same bits.
        let pairs: Vec<(Vec<f32>, Vec<f32>)> = (0..4)
            .map(|i| {
                let w: Vec<f32> = (0..3).map(|j| (i * 3 + j) as f32 + 1.0).collect();
                let g: Vec<f32> = w.iter().map(|x| x * 2.0).collect();
                (w, g)
            })
            .collect();
        let (mut owned, mut borrowed) = (PairBuffer::new(2), PairBuffer::new(2));
        let (mut first, mut second) = (PairBuffer::new(2), PairBuffer::new(2));
        for (w, g) in &pairs {
            owned.push(w.clone(), g.clone());
            borrowed.push(&w[..], &g[..]);
            let shared: Arc<[f32]> = Arc::from(&w[..]);
            first.push(Arc::clone(&shared), &g[..]);
            second.push(shared, &g[..]);
        }
        assert_eq!(owned.len(), 2);
        let approxes: Vec<LbfgsApprox> = [&owned, &borrowed, &first, &second]
            .iter()
            .map(|buf| buf.approximation().unwrap())
            .collect();
        let (a, b) = (&approxes[2], &approxes[3]);
        for (x, y) in a.dw_rows().iter().zip(b.dw_rows()) {
            assert!(Arc::ptr_eq(x, y), "a shared ΔW row was copied");
        }
        assert!(!Arc::ptr_eq(
            &approxes[0].dw_rows()[0],
            &approxes[1].dw_rows()[0]
        ));
        // The approximation holds the buffer's own handles.
        let newest = first.dws.back().unwrap();
        assert!(Arc::ptr_eq(newest, &a.dw_rows()[1]));
        let v = vec![0.3, -0.7, 1.1];
        for approx in &approxes[1..] {
            assert_eq!(approx.sigma().to_bits(), approxes[0].sigma().to_bits());
            assert_eq!(bits(&approx.hvp(&v)), bits(&approxes[0].hvp(&v)));
        }
    }

    #[test]
    fn pair_buffer_empty_approximation_errors() {
        let buf = PairBuffer::new(2);
        assert_eq!(buf.approximation().unwrap_err(), LbfgsError::Empty);
    }

    #[test]
    fn larger_random_quadratic_hvp_error_is_bounded() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let d = 12;
        // SPD matrix Q = R Rᵀ + I.
        let r_data: Vec<f32> = (0..d * d).map(|_| rng.gen_range(-0.4..0.4)).collect();
        let r = Mat::from_vec(d, d, r_data);
        let mut q = r.matmul(&r.transpose());
        for i in 0..d {
            q.set(i, i, q.get(i, i) + 1.0);
        }
        let dws: Vec<Vec<f32>> = (0..4)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let (dws, dgs) = quadratic_pairs(&q, &dws);
        let b = LbfgsApprox::new(&dws, &dgs).unwrap();
        // The approximation must reproduce curvature along buffered dirs.
        let pred = b.hvp(&dws[3]);
        let rel = vector::l2_distance(&pred, &dgs[3]) / vector::l2_norm(&dgs[3]);
        assert!(rel < 0.05, "relative secant error {rel}");
    }
}
