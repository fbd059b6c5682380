//! BLAS-1 style operations on `f32` slices.
//!
//! All functions operate on plain slices so callers can keep parameters in
//! whatever container they like (the NN substrate uses flat `Vec<f32>`
//! parameter vectors throughout).
//!
//! # Panics
//!
//! Every binary operation panics if the two slices have different lengths;
//! mismatched lengths always indicate a bug in the caller (a model/gradient
//! shape mismatch), so failing loudly is preferable to silent truncation.

/// Dot product `xᵀy`.
///
/// Accumulates in `f64` for stability on long vectors (model parameter
/// vectors can exceed 10⁵ elements).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// ```
/// assert_eq!(fuiov_tensor::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| f64::from(*a) * f64::from(*b))
        .sum::<f64>() as f32
}

/// `y ← a·x + y` (the classic axpy update).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f32, x: &mut [f32]) {
    for xi in x {
        *xi *= a;
    }
}

/// Element-wise sum `x + y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn add(x: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x − y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub(x: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Element-wise difference `x − y` written into `out`, recycling its
/// allocation (the zero-allocation form of [`sub`] for replay hot loops
/// that compute `w̄ₜ − wₜ` every round).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub_into(x: &[f32], y: &[f32], out: &mut Vec<f32>) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch");
    out.clear();
    out.extend(x.iter().zip(y).map(|(a, b)| a - b));
}

/// [`sub_into`] targeting a 64-byte-aligned scratch buffer
/// ([`crate::simd::AVec`]): the same element-wise `x[i] − y[i]`, with
/// `out` resized to fit. Used for the replay arena's `w̄ₜ − wₜ` vector so
/// the SIMD sweeps that stream it start on a cache-line boundary.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub_into_aligned(x: &[f32], y: &[f32], out: &mut crate::simd::AVec) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch");
    out.resize(x.len(), 0.0);
    for ((o, a), b) in out.iter_mut().zip(x).zip(y) {
        *o = a - b;
    }
}

/// Euclidean norm `‖x‖₂`, accumulated in `f64`.
pub fn l2_norm(x: &[f32]) -> f32 {
    x.iter()
        .map(|a| f64::from(*a) * f64::from(*a))
        .sum::<f64>()
        .sqrt() as f32
}

/// Squared Euclidean norm `‖x‖₂²`.
pub fn l2_norm_sq(x: &[f32]) -> f32 {
    x.iter().map(|a| f64::from(*a) * f64::from(*a)).sum::<f64>() as f32
}

/// Euclidean distance `‖x − y‖₂`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn l2_distance(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "l2_distance: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = f64::from(*a) - f64::from(*b);
            d * d
        })
        .sum::<f64>()
        .sqrt() as f32
}

/// Infinity norm `‖x‖∞` (largest absolute element), `0.0` for empty input.
pub fn linf_norm(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |m, a| m.max(a.abs()))
}

/// The paper's Eq. 7 gradient clipping:
/// `g̃ = ḡ / max(1, ‖ḡ‖₂ / L)`.
///
/// If the vector's L2 norm is at most `L` it is returned unchanged;
/// otherwise it is scaled down so its norm equals `L`. This bounds the step
/// any single estimated gradient can take during recovery, limiting the
/// damage of estimation error.
///
/// # Panics
///
/// Panics if `l` is not strictly positive and finite.
///
/// ```
/// let mut g = vec![3.0, 4.0]; // ‖g‖ = 5
/// fuiov_tensor::vector::clip_l2(&mut g, 1.0);
/// assert!((fuiov_tensor::vector::l2_norm(&g) - 1.0).abs() < 1e-6);
/// ```
pub fn clip_l2(x: &mut [f32], l: f32) {
    assert!(
        l > 0.0 && l.is_finite(),
        "clip_l2: threshold must be positive"
    );
    let norm = l2_norm(x);
    if norm > l {
        scale(l / norm, x);
    }
}

/// The paper's Eq. 7 read element-wise (its `|·|` "denotes the absolute
/// value of gradient elements"): every element is clamped to `[−L, L]`,
/// i.e. `g̃ⱼ = ḡⱼ / max(1, |ḡⱼ|/L)`.
///
/// # Panics
///
/// Panics if `l` is not strictly positive and finite.
///
/// ```
/// let mut g = vec![0.5, -3.0, 2.0];
/// fuiov_tensor::vector::clip_elementwise(&mut g, 1.0);
/// assert_eq!(g, vec![0.5, -1.0, 1.0]);
/// ```
pub fn clip_elementwise(x: &mut [f32], l: f32) {
    assert!(
        l > 0.0 && l.is_finite(),
        "clip_elementwise: threshold must be positive"
    );
    for v in x {
        *v = v.clamp(-l, l);
    }
}

/// [`clip_elementwise`] that also measures the row: returns
/// `(‖x‖₂ before, ‖x‖₂ after)` from the same single pass that clamps it.
///
/// Each norm keeps [`l2_norm`]'s exact sequence — `f64` squares summed in
/// index order from `−0.0`, then `sqrt` and one cast to `f32` — the first
/// over the unclipped elements, the second over the clamped ones, so the
/// pair is bitwise `l2_norm`, `clip_elementwise`, `l2_norm` in one read
/// and one write of the row instead of three passes.
///
/// # Panics
///
/// Panics if `l` is not strictly positive and finite.
///
/// ```
/// let mut g = vec![3.0, -4.0];
/// let (pre, post) = fuiov_tensor::vector::clip_elementwise_norms(&mut g, 1.0);
/// assert_eq!((pre, post), (5.0, 2.0f32.sqrt()));
/// assert_eq!(g, vec![1.0, -1.0]);
/// ```
pub fn clip_elementwise_norms(x: &mut [f32], l: f32) -> (f32, f32) {
    assert!(
        l > 0.0 && l.is_finite(),
        "clip_elementwise: threshold must be positive"
    );
    clip_norms_from(x, l, -0.0, -0.0)
}

/// The chains of [`clip_elementwise_norms`] continued over `x`: clamps
/// every element and adds its square before and after to `pre` and
/// `post`, then takes both square roots. The SIMD lane pass re-enters
/// here for each row's column tail with its lane accumulators, so every
/// row stays one unbroken chain.
fn clip_norms_from(x: &mut [f32], l: f32, mut pre: f64, mut post: f64) -> (f32, f32) {
    for v in x {
        pre += f64::from(*v) * f64::from(*v);
        *v = v.clamp(-l, l);
        post += f64::from(*v) * f64::from(*v);
    }
    (pre.sqrt() as f32, post.sqrt() as f32)
}

/// Rows per pass of [`clip_elementwise_norms_rows`]'s lane-parallel
/// kernel: one `f64` lane per row in a 256-bit register.
pub const CLIP_LANES: usize = 4;

/// [`clip_elementwise_norms`] over a block of rows: `x` holds
/// `norms.len()` consecutive rows of `dim` elements, each is clamped in
/// place, and `norms[i]` receives row `i`'s `(‖x‖₂ before, ‖x‖₂ after)`.
///
/// Every row's result is bitwise [`clip_elementwise_norms`] of that row,
/// which is the scalar reference. On AVX2 hosts
/// ([`crate::simd::enabled`]) rows go [`CLIP_LANES`] at a time through
/// one pass with one `f64` lane per row: each 4×8 tile is clamped
/// (`max(−L, x)` then `min(L, ·)`, which is `f32::clamp` on NaN and ±0.0
/// too), stored back, and transposed so the rows' pre- and post-clip
/// chains each advance one element per step in ascending order. Four
/// serial chains then run side by side instead of one. Rows past the last
/// full lane group, and each row's elements past the last group of eight,
/// take the scalar path.
///
/// # Panics
///
/// Panics if `l` is not strictly positive and finite, or if
/// `x.len() != norms.len() * dim`.
///
/// ```
/// let mut rows = vec![3.0, -4.0, 0.5, 0.5];
/// let mut norms = [(0.0, 0.0); 2];
/// fuiov_tensor::vector::clip_elementwise_norms_rows(&mut rows, 2, 1.0, &mut norms);
/// assert_eq!(norms[0], (5.0, 2.0f32.sqrt()));
/// assert_eq!(rows, vec![1.0, -1.0, 0.5, 0.5]);
/// ```
pub fn clip_elementwise_norms_rows(x: &mut [f32], dim: usize, l: f32, norms: &mut [(f32, f32)]) {
    assert!(
        l > 0.0 && l.is_finite(),
        "clip_elementwise: threshold must be positive"
    );
    assert_eq!(
        x.len(),
        norms.len() * dim,
        "clip_elementwise_norms_rows: block size mismatch"
    );
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        // SAFETY: `simd::enabled()` implies the AVX2 probe passed, and the
        // block holds `norms.len()` rows of `dim` elements.
        done = unsafe { x86::clip_norms_lanes_avx2(x, dim, l, norms) };
    }
    for (i, slot) in norms.iter_mut().enumerate().skip(done) {
        *slot = clip_elementwise_norms(&mut x[i * dim..(i + 1) * dim], l);
    }
}

/// The AVX2 lane pass of [`clip_elementwise_norms_rows`]. Only compiled on
/// `x86_64`, only executed when `crate::simd::enabled()` says the probe
/// passed, and bound by the bitwise contract of `crate::simd`. A norm is
/// one serial `f64` chain whose order defines its bits, so a lane is a
/// whole row's chain (lane = row), never a slice of one chain; this is
/// the layout of the row-dots sweep in `matrix.rs`, applied to the clip.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{clip_norms_from, CLIP_LANES};
    use std::arch::x86_64::*;

    /// Clamps and measures the block's full lane groups, returning how
    /// many rows it covered (a multiple of [`CLIP_LANES`]).
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and `x.len() == norms.len() * dim`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn clip_norms_lanes_avx2(
        x: &mut [f32],
        dim: usize,
        l: f32,
        norms: &mut [(f32, f32)],
    ) -> usize {
        let groups = norms.len() / CLIP_LANES;
        let lo = _mm256_set1_ps(-l);
        let hi = _mm256_set1_ps(l);
        for g in 0..groups {
            let base = x.as_mut_ptr().add(g * CLIP_LANES * dim);
            let rows = [base, base.add(dim), base.add(2 * dim), base.add(3 * dim)];
            let mut pre = _mm256_set1_pd(-0.0);
            let mut post = _mm256_set1_pd(-0.0);
            let mut j = 0;
            while j + 8 <= dim {
                let r0 = _mm256_loadu_ps(rows[0].add(j));
                let r1 = _mm256_loadu_ps(rows[1].add(j));
                let r2 = _mm256_loadu_ps(rows[2].add(j));
                let r3 = _mm256_loadu_ps(rows[3].add(j));
                // max(lo, x) keeps x when x is NaN or not below −L, and
                // min(hi, ·) keeps it when NaN or not above L: exactly
                // `f32::clamp`, NaN and ±0.0 included.
                let c0 = _mm256_min_ps(hi, _mm256_max_ps(lo, r0));
                let c1 = _mm256_min_ps(hi, _mm256_max_ps(lo, r1));
                let c2 = _mm256_min_ps(hi, _mm256_max_ps(lo, r2));
                let c3 = _mm256_min_ps(hi, _mm256_max_ps(lo, r3));
                _mm256_storeu_ps(rows[0].add(j), c0);
                _mm256_storeu_ps(rows[1].add(j), c1);
                _mm256_storeu_ps(rows[2].add(j), c2);
                _mm256_storeu_ps(rows[3].add(j), c3);
                pre = add_squares(pre, r0, r1, r2, r3);
                post = add_squares(post, c0, c1, c2, c3);
                j += 8;
            }
            let mut pre_lanes = [0.0f64; CLIP_LANES];
            let mut post_lanes = [0.0f64; CLIP_LANES];
            _mm256_storeu_pd(pre_lanes.as_mut_ptr(), pre);
            _mm256_storeu_pd(post_lanes.as_mut_ptr(), post);
            for (k, &row) in rows.iter().enumerate() {
                let tail = std::slice::from_raw_parts_mut(row.add(j), dim - j);
                norms[g * CLIP_LANES + k] = clip_norms_from(tail, l, pre_lanes[k], post_lanes[k]);
            }
        }
        groups * CLIP_LANES
    }

    /// Advances four row chains by eight elements: the 4×8 tile is
    /// transposed in registers (`unpack`, `shuffle`) into one vector per
    /// column whose lanes are the rows, then each column's `f64` squares
    /// are added in ascending column order, `acc + x·x` as in the scalar
    /// chain.
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_squares(
        mut acc: __m256d,
        r0: __m256,
        r1: __m256,
        r2: __m256,
        r3: __m256,
    ) -> __m256d {
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        // Low halves hold columns 0–3, high halves columns 4–7.
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let columns = [
            _mm256_castps256_ps128(s0),
            _mm256_castps256_ps128(s1),
            _mm256_castps256_ps128(s2),
            _mm256_castps256_ps128(s3),
            _mm256_extractf128_ps::<1>(s0),
            _mm256_extractf128_ps::<1>(s1),
            _mm256_extractf128_ps::<1>(s2),
            _mm256_extractf128_ps::<1>(s3),
        ];
        for column in columns {
            let v = _mm256_cvtps_pd(column);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
        }
        acc
    }
}

/// Element-wise sign with a dead-zone threshold `δ ≥ 0` (the paper's §IV
/// direction quantisation): `+1` if `v > δ`, `-1` if `v < −δ`, else `0`.
///
/// NaN values map to `0` (they fall in neither open half-line).
///
/// # Panics
///
/// Panics if `delta` is negative or NaN.
pub fn sign_with_threshold(x: &[f32], delta: f32) -> Vec<i8> {
    assert!(delta >= 0.0, "sign_with_threshold: delta must be >= 0");
    x.iter()
        .map(|&v| {
            if v > delta {
                1
            } else if v < -delta {
                -1
            } else {
                0
            }
        })
        .collect()
}

/// Expands a sign vector back to `f32` (`i8 ∈ {−1,0,1}` → `f32`).
pub fn signs_to_f32(s: &[i8]) -> Vec<f32> {
    s.iter().map(|&v| f32::from(v)).collect()
}

/// Linear interpolation `(1−t)·x + t·y`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn lerp(x: &[f32], y: &[f32], t: f32) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "lerp: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| (1.0 - t) * a + t * b)
        .collect()
}

/// Weighted average of several vectors: `Σ wᵢ·xᵢ / Σ wᵢ`.
///
/// This is FedAvg's Eq. 1 kernel; weights are typically client dataset
/// sizes.
///
/// # Panics
///
/// Panics if `vecs` is empty, lengths differ, `weights.len() != vecs.len()`,
/// or all weights sum to zero.
pub fn weighted_mean(vecs: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    assert!(!vecs.is_empty(), "weighted_mean: no vectors");
    assert_eq!(
        vecs.len(),
        weights.len(),
        "weighted_mean: weight count mismatch"
    );
    let dim = vecs[0].len();
    let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
    assert!(total != 0.0, "weighted_mean: weights sum to zero");
    let mut acc = vec![0.0f64; dim];
    for (v, &w) in vecs.iter().zip(weights) {
        assert_eq!(v.len(), dim, "weighted_mean: length mismatch");
        for (a, &x) in acc.iter_mut().zip(*v) {
            *a += f64::from(w) * f64::from(x);
        }
    }
    acc.into_iter().map(|a| (a / total) as f32).collect()
}

/// [`weighted_mean`] writing into caller-owned buffers: `acc` is the `f64`
/// accumulator scratch and `out` receives the `f32` result. Both are
/// cleared and resized, so at steady state (server round loop, tree-node
/// reduction) no allocation happens. The fold order and every arithmetic
/// operation are identical to [`weighted_mean`], so the result is bitwise
/// equal by construction.
///
/// # Panics
///
/// As [`weighted_mean`].
pub fn weighted_mean_into(
    vecs: &[&[f32]],
    weights: &[f32],
    acc: &mut Vec<f64>,
    out: &mut Vec<f32>,
) {
    assert!(!vecs.is_empty(), "weighted_mean: no vectors");
    assert_eq!(
        vecs.len(),
        weights.len(),
        "weighted_mean: weight count mismatch"
    );
    let dim = vecs[0].len();
    let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
    assert!(total != 0.0, "weighted_mean: weights sum to zero");
    acc.clear();
    acc.resize(dim, 0.0);
    for (v, &w) in vecs.iter().zip(weights) {
        assert_eq!(v.len(), dim, "weighted_mean: length mismatch");
        for (a, &x) in acc.iter_mut().zip(*v) {
            *a += f64::from(w) * f64::from(x);
        }
    }
    out.clear();
    out.extend(acc.iter().map(|a| (a / total) as f32));
}

/// The accumulation of [`weighted_mean`] over a block of rows: `rows`
/// holds `weights.len()` consecutive rows of `acc.len()` elements, and
/// each element gets `acc[j] += f64(wᵢ) · f64(xᵢ[j])` for the rows in
/// order. Folding a roster block by block into one accumulator that
/// starts at `+0.0` therefore repeats `weighted_mean`'s per-element
/// sequence exactly; four rows share each read and write of `acc`.
///
/// # Panics
///
/// Panics if `rows.len() != weights.len() * acc.len()`.
pub fn weighted_accumulate_rows(rows: &[f32], weights: &[f32], acc: &mut [f64]) {
    let dim = acc.len();
    assert_eq!(
        rows.len(),
        weights.len() * dim,
        "weighted_accumulate_rows: block size mismatch"
    );
    let row = |i: usize| &rows[i * dim..(i + 1) * dim];
    let mut i = 0;
    while i + 4 <= weights.len() {
        let w: [f64; 4] = std::array::from_fn(|k| f64::from(weights[i + k]));
        for ((((a, &x0), &x1), &x2), &x3) in acc
            .iter_mut()
            .zip(row(i))
            .zip(row(i + 1))
            .zip(row(i + 2))
            .zip(row(i + 3))
        {
            let mut s = *a;
            s += w[0] * f64::from(x0);
            s += w[1] * f64::from(x1);
            s += w[2] * f64::from(x2);
            s += w[3] * f64::from(x3);
            *a = s;
        }
        i += 4;
    }
    for (k, &w) in weights.iter().enumerate().skip(i) {
        for (a, &x) in acc.iter_mut().zip(row(k)) {
            *a += f64::from(w) * f64::from(x);
        }
    }
}

/// Number of elements on which two sign vectors agree (used by tests and
/// by the storage-fidelity diagnostics).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sign_agreement(a: &[i8], b: &[i8]) -> usize {
    assert_eq!(a.len(), b.len(), "sign_agreement: length mismatch");
    a.iter().zip(b).filter(|(x, y)| x == y).count()
}

/// Cosine similarity between two vectors, or `None` if either is the zero
/// vector (the quantity is undefined there).
pub fn cosine_similarity(x: &[f32], y: &[f32]) -> Option<f32> {
    let nx = l2_norm(x);
    let ny = l2_norm(y);
    if nx == 0.0 || ny == 0.0 {
        None
    } else {
        Some(dot(x, y) / (nx * ny))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-0.5, &mut x);
        assert_eq!(x, vec![-0.5, 1.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0.5, -1.0, 2.0];
        assert_eq!(sub(&add(&x, &y), &y), x);
    }

    #[test]
    fn sub_into_matches_sub_and_recycles() {
        let x = vec![1.0f32, -2.5, 0.25];
        let y = vec![0.5f32, 1.5, 0.25];
        let mut out = Vec::with_capacity(3);
        sub_into(&x, &y, &mut out);
        assert_eq!(out, sub(&x, &y));
        let ptr = out.as_ptr();
        sub_into(&y, &x, &mut out);
        assert_eq!(out, sub(&y, &x));
        assert_eq!(ptr, out.as_ptr(), "sub_into must reuse the buffer");
    }

    #[test]
    fn norms() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(linf_norm(&[-3.0, 2.0]), 3.0);
        assert_eq!(linf_norm(&[]), 0.0);
        assert_eq!(l2_distance(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
    }

    #[test]
    fn clip_l2_below_threshold_is_identity() {
        let mut g = vec![0.3, 0.4]; // norm 0.5
        clip_l2(&mut g, 1.0);
        assert_eq!(g, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_l2_above_threshold_scales_to_l() {
        let mut g = vec![30.0, 40.0];
        clip_l2(&mut g, 2.5);
        assert!((l2_norm(&g) - 2.5).abs() < 1e-5);
        // Direction preserved.
        assert!((g[1] / g[0] - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn clip_l2_rejects_nonpositive() {
        clip_l2(&mut [1.0], 0.0);
    }

    #[test]
    fn clip_elementwise_clamps_each_element() {
        let mut g = vec![0.2, -5.0, 1.0, 3.0];
        clip_elementwise(&mut g, 1.0);
        assert_eq!(g, vec![0.2, -1.0, 1.0, 1.0]);
    }

    #[test]
    fn clip_elementwise_identity_below_threshold() {
        let mut g = vec![0.2, -0.3];
        clip_elementwise(&mut g, 1.0);
        assert_eq!(g, vec![0.2, -0.3]);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn clip_elementwise_rejects_nan() {
        clip_elementwise(&mut [1.0], f32::NAN);
    }

    #[test]
    fn clip_norms_match_norm_clip_norm_bitwise() {
        // The fused pass against `l2_norm`, `clip_elementwise`, `l2_norm`:
        // rows mixing ±0.0, ±∞, NaN, values exactly ±L and values just
        // past it, at lengths that cover the empty row and odd tails.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc11b);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for case in 0..400 {
            let l = [1.0f32, 0.8, 1e-3, 3.5][case % 4];
            let len = [0, 1, 2, 7, 16, 33, 257][case % 7] + case / 7;
            let row: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..14) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => l,
                    3 => -l,
                    4 if case % 5 == 0 => f32::INFINITY,
                    5 if case % 5 == 0 => f32::NEG_INFINITY,
                    6 if case % 7 == 3 => f32::NAN,
                    7 => l * 1.0000001,
                    _ => rng.gen_range(-3.0 * l..3.0 * l),
                })
                .collect();
            let mut expect = row.clone();
            let pre = l2_norm(&expect);
            clip_elementwise(&mut expect, l);
            let post = l2_norm(&expect);

            let mut got = row;
            let (got_pre, got_post) = clip_elementwise_norms(&mut got, l);
            assert_eq!(bits(&got), bits(&expect), "row, case {case}");
            assert_eq!(got_pre.to_bits(), pre.to_bits(), "pre norm, case {case}");
            assert_eq!(got_post.to_bits(), post.to_bits(), "post norm, case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn clip_norms_rejects_bad_threshold() {
        clip_elementwise_norms(&mut [1.0], -1.0);
    }

    #[test]
    fn sign_threshold_dead_zone() {
        let s = sign_with_threshold(&[0.5, -0.5, 1e-7, -1e-7, 0.0], 1e-6);
        assert_eq!(s, vec![1, -1, 0, 0, 0]);
    }

    #[test]
    fn sign_threshold_zero_delta_is_plain_sign() {
        let s = sign_with_threshold(&[2.0, -3.0, 0.0], 0.0);
        assert_eq!(s, vec![1, -1, 0]);
    }

    #[test]
    fn sign_nan_maps_to_zero() {
        let s = sign_with_threshold(&[f32::NAN], 0.0);
        assert_eq!(s, vec![0]);
    }

    #[test]
    fn signs_roundtrip_to_f32() {
        assert_eq!(signs_to_f32(&[1, 0, -1]), vec![1.0, 0.0, -1.0]);
    }

    #[test]
    fn weighted_mean_matches_fedavg() {
        // Two clients: weights 1 and 3.
        let m = weighted_mean(&[&[1.0, 0.0], &[5.0, 4.0]], &[1.0, 3.0]);
        assert_eq!(m, vec![4.0, 3.0]);
    }

    #[test]
    fn weighted_mean_single_vector_is_identity() {
        let m = weighted_mean(&[&[1.5, -2.0]], &[7.0]);
        assert_eq!(m, vec![1.5, -2.0]);
    }

    #[test]
    fn weighted_mean_into_is_bitwise_identical_and_reuses_buffers() {
        let vecs: Vec<Vec<f32>> = vec![
            vec![1.0, -2.5, 0.125, 1e-30],
            vec![3.0, 0.0, -7.25, 2.0],
            vec![-0.1, 0.3, 0.7, -1.5],
        ];
        let refs: Vec<&[f32]> = vecs.iter().map(Vec::as_slice).collect();
        let weights = [1.0f32, 3.5, 0.25];
        let baseline = weighted_mean(&refs, &weights);
        let mut acc = Vec::new();
        let mut out = Vec::new();
        // Twice through the same buffers: results identical, and the
        // second pass must not grow capacity (steady state is allocation
        // free).
        weighted_mean_into(&refs, &weights, &mut acc, &mut out);
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let expected: Vec<u32> = baseline.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected);
        let (cap_acc, cap_out) = (acc.capacity(), out.capacity());
        weighted_mean_into(&refs, &weights, &mut acc, &mut out);
        assert_eq!(acc.capacity(), cap_acc);
        assert_eq!(out.capacity(), cap_out);
        let bits2: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits2, expected);
    }

    #[test]
    fn weighted_accumulate_rows_repeats_weighted_mean_bitwise() {
        // Any split of the rows into blocks (tails of 1–3 rows included)
        // must leave weighted_mean's accumulator, so dividing by Σw gives
        // its bits. Values with cancellation make the order visible.
        let dim = 13;
        let n = 11;
        let rows: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * [1e-3, 1e4, 0.7][i % 3])
            .collect();
        let weights: Vec<f32> = (0..n).map(|i| 1.0 + 0.37 * i as f32).collect();
        let refs: Vec<&[f32]> = rows.chunks(dim).collect();
        let expect = weighted_mean(&refs, &weights);
        let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
        for block in [1, 2, 3, 4, 5, 8, 11] {
            let mut acc = vec![0.0f64; dim];
            for (b, w) in rows.chunks(block * dim).zip(weights.chunks(block)) {
                weighted_accumulate_rows(b, w, &mut acc);
            }
            let got: Vec<f32> = acc.iter().map(|a| (a / total) as f32).collect();
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expect), "block {block}");
        }
        // A zero-length row is a no-op, not a panic.
        weighted_accumulate_rows(&[], &[1.0, 2.0], &mut []);
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn weighted_mean_zero_weights_panics() {
        weighted_mean(&[&[1.0]], &[0.0]);
    }

    #[test]
    fn lerp_endpoints() {
        let x = vec![0.0, 10.0];
        let y = vec![4.0, 20.0];
        assert_eq!(lerp(&x, &y, 0.0), x);
        assert_eq!(lerp(&x, &y, 1.0), y);
        assert_eq!(lerp(&x, &y, 0.5), vec![2.0, 15.0]);
    }

    #[test]
    fn cosine_similarity_cases() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]).unwrap() - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).unwrap()).abs() < 1e-6);
        assert!(cosine_similarity(&[0.0], &[1.0]).is_none());
    }

    #[test]
    fn sign_agreement_counts() {
        assert_eq!(sign_agreement(&[1, -1, 0], &[1, 1, 0]), 2);
    }
}
