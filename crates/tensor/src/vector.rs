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
    let mut pre = -0.0f64;
    let mut post = -0.0f64;
    for v in x {
        pre += f64::from(*v) * f64::from(*v);
        *v = v.clamp(-l, l);
        post += f64::from(*v) * f64::from(*v);
    }
    (pre.sqrt() as f32, post.sqrt() as f32)
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
