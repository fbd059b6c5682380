//! SIMD == scalar bitwise pinning for the dense row-dots kernel and the
//! lane-parallel clip pass.
//!
//! Every case runs the dispatched kernel with the SIMD path *forced on*
//! (in-process `FUIOV_SIMD=1`; on a host without AVX2 this resolves back
//! to scalar and the assertion is trivially true) and compares it, bit
//! for bit, against the pinned scalar reference. Lengths sweep `0..=67`
//! so every tail-residue class of the 8-lane kernel — ragged 8-column
//! groups, ragged 8-row blocks, sub-width inputs — is hit.

use fuiov_tensor::matrix::{row_dots, row_dots_scalar};
use fuiov_tensor::simd;
use proptest::prelude::*;

/// Finite values with a deliberate sprinkle of exact zeros, so the
/// `== 0.0` skip branches (shared by both paths) are exercised.
fn kernel_f32() -> impl Strategy<Value = f32> {
    (any::<u8>(), -100.0f32..100.0).prop_map(|(z, v)| match z % 8 {
        0 | 1 => 0.0,
        2 => -0.0,
        _ => v,
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` with the dispatch pinned to the SIMD path, restoring the
/// default before returning (guarded, so parallel test threads can't
/// observe each other's override).
fn with_forced_simd<T>(f: impl FnOnce() -> T) -> T {
    let _g = simd::force_guard();
    simd::set_forced(Some(true));
    let out = f();
    simd::set_forced(None);
    out
}

/// Same, pinned to the scalar path through the *dispatcher* (distinct
/// from calling the `*_scalar` reference directly: this checks the
/// kill-switch plumbing too).
fn with_forced_scalar<T>(f: impl FnOnce() -> T) -> T {
    let _g = simd::force_guard();
    simd::set_forced(Some(false));
    let out = f();
    simd::set_forced(None);
    out
}

/// The rows of a row-major `rows × cols` buffer, each its own slice.
fn split_rows(data: &[f32], rows: usize, cols: usize) -> Vec<&[f32]> {
    (0..rows).map(|r| &data[r * cols..(r + 1) * cols]).collect()
}

/// Row data plus shared vector for the fused row-dots sweep.
#[allow(clippy::type_complexity)]
fn row_dots_case() -> impl Strategy<Value = (usize, usize, Vec<f32>, Vec<f32>)> {
    (0usize..=67, 0usize..=67).prop_flat_map(|(rows, cols)| {
        (
            Just(rows),
            Just(cols),
            prop::collection::vec(kernel_f32(), rows * cols),
            prop::collection::vec(kernel_f32(), cols),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn row_dots_simd_matches_scalar_bitwise((rows, cols, data, v) in row_dots_case()) {
        let m = split_rows(&data, rows, cols);
        let mut scalar = vec![7.0f32; rows]; // poisoned: every slot written
        row_dots_scalar(&m, &v, &mut scalar);
        let mut fast = vec![-7.0f32; rows];
        with_forced_simd(|| row_dots(&m, &v, &mut fast));
        let mut slow = vec![3.0f32; rows];
        with_forced_scalar(|| row_dots(&m, &v, &mut slow));
        prop_assert_eq!(bits(&fast), bits(&scalar), "simd row_dots at {}x{}", rows, cols);
        prop_assert_eq!(bits(&slow), bits(&scalar), "dispatched scalar at {}x{}", rows, cols);
    }
}

#[test]
fn row_dots_hits_every_tail_residue_class_deterministically() {
    // The proptests above sample shapes; this sweep guarantees coverage
    // of every (rows mod 8, cols mod 8) residue pair at least once.
    for rows in 0usize..=17 {
        for cols in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 67] {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| if i % 5 == 0 { 0.0 } else { (i as f32).sin() })
                .collect();
            let m = split_rows(&data, rows, cols);
            let v: Vec<f32> = (0..cols)
                .map(|j| if j % 3 == 0 { 0.0 } else { (j as f32).cos() })
                .collect();
            let mut scalar = vec![1.0f32; rows];
            row_dots_scalar(&m, &v, &mut scalar);
            let mut fast = vec![-1.0f32; rows];
            with_forced_simd(|| row_dots(&m, &v, &mut fast));
            assert_eq!(bits(&fast), bits(&scalar), "rows={rows} cols={cols}");
            // The rows need not be contiguous or ascending in memory: the
            // same rows reversed give the same dots reversed.
            let reversed: Vec<&[f32]> = m.iter().rev().copied().collect();
            let mut back = vec![-1.0f32; rows];
            with_forced_simd(|| row_dots(&reversed, &v, &mut back));
            back.reverse();
            assert_eq!(
                bits(&back),
                bits(&scalar),
                "reversed rows={rows} cols={cols}"
            );
        }
    }
}

/// Rows for the lane-parallel clip pass: ±0.0, exactly ±L, just past
/// ±L, subnormals, and values spread over 2⁻²⁰–2¹⁹ × L. One row in three
/// (which ones depends on `salt`) also holds NaN and ±∞; the others have
/// finite norms.
fn clip_rows(rows: usize, dim: usize, l: f32, salt: usize) -> Vec<f32> {
    (0..rows * dim)
        .map(|i| {
            let special = (i / dim + salt).is_multiple_of(3);
            match (i * 7 + salt) % 13 {
                0 if special => f32::NAN,
                1 if special => f32::INFINITY,
                2 if special => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => l,
                6 => -l,
                7 => l * 1.000_000_1,
                8 => f32::from_bits(1 + (i as u32 % 977)),
                9 => -f32::from_bits(0x007f_ffff - (i as u32 % 977)),
                _ => {
                    let scale = 2f32.powi(((i * 17 + salt) % 40) as i32 - 20);
                    ((i * 31 + salt) as f32 * 0.37).sin() * 3.0 * l * scale
                }
            }
        })
        .collect()
}

#[test]
fn clip_rows_pass_matches_the_per_row_reference_bitwise() {
    // Every row against `clip_elementwise_norms` on its own: clamped
    // values and both norms, bit for bit, with the dispatch forced to
    // SIMD and to scalar. Lengths 0–33 cover every column tail of the
    // 8-wide tiles; 1 to CLIP_LANES + 1 rows cover a lone lane group, the
    // scalar-only blocks below it and a row past it.
    use fuiov_tensor::vector::{clip_elementwise_norms, clip_elementwise_norms_rows, CLIP_LANES};
    for l in [1.0f32, 0.75, 1e-3] {
        for dim in 0..=33 {
            for rows in 1..=CLIP_LANES + 1 {
                for salt in 0..3 {
                    let input = clip_rows(rows, dim, l, salt);
                    let mut expect = input.clone();
                    let expect_norms: Vec<(u32, u32)> = (0..rows)
                        .map(|r| {
                            let (pre, post) =
                                clip_elementwise_norms(&mut expect[r * dim..(r + 1) * dim], l);
                            (pre.to_bits(), post.to_bits())
                        })
                        .collect();
                    for (label, forced) in [("simd", true), ("scalar", false)] {
                        let mut got = input.clone();
                        let mut norms = vec![(-1.0f32, -1.0f32); rows];
                        let _g = simd::force_guard();
                        simd::set_forced(Some(forced));
                        clip_elementwise_norms_rows(&mut got, dim, l, &mut norms);
                        simd::set_forced(None);
                        let ctx = format!("{label} l={l} dim={dim} rows={rows} salt={salt}");
                        assert_eq!(bits(&got), bits(&expect), "values, {ctx}");
                        let got_norms: Vec<(u32, u32)> = norms
                            .iter()
                            .map(|(pre, post)| (pre.to_bits(), post.to_bits()))
                            .collect();
                        assert_eq!(got_norms, expect_norms, "norms, {ctx}");
                    }
                }
            }
        }
    }
}
