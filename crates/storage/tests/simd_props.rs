//! SIMD == scalar bitwise pinning for the storage kernels that dispatch:
//! the 2-bit sign decode into `f32` and the fused decode-and-accumulate.
//!
//! Same discipline as `crates/tensor/tests/simd_props.rs`: the dispatched
//! kernel runs with the SIMD path forced on (resolving to scalar on
//! non-AVX2 hosts) and must match the pinned scalar reference bit for
//! bit; lengths sweep `0..=67` to cover every tail-residue class of the
//! 32-element sign blocks.

use fuiov_storage::direction::GradientDirection;
use fuiov_tensor::simd;
use proptest::prelude::*;

fn with_forced_simd<T>(f: impl FnOnce() -> T) -> T {
    let _g = simd::force_guard();
    simd::set_forced(Some(true));
    let out = f();
    simd::set_forced(None);
    out
}

/// Signs in {-1, 0, 1}.
fn arb_signs() -> impl Strategy<Value = Vec<i8>> {
    prop::collection::vec((0u8..3).prop_map(|v| v as i8 - 1), 0..=67)
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn direction_kernels_simd_match_scalar_bitwise(signs in arb_signs()) {
        let d = GradientDirection::from_signs(&signs);
        let n = signs.len();

        prop_assert_eq!(&d.to_signs(), &signs);

        let mut fast_f32 = vec![7.0f32; n]; // poisoned: every slot written
        with_forced_simd(|| d.decode_into(&mut fast_f32));
        let mut scalar_f32 = vec![-7.0f32; n];
        d.decode_into_scalar(&mut scalar_f32);
        prop_assert_eq!(f32_bits(&fast_f32), f32_bits(&scalar_f32));

        // Negative `a` so the sign of `a · 0` (−0.0 contributions) is
        // exercised; bitwise equality must still hold.
        for a in [2.375f64, -0.625] {
            let init: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 3.0).collect();
            let mut fast_acc = init.clone();
            with_forced_simd(|| d.decode_axpy(a, &mut fast_acc));
            let mut scalar_acc = init;
            d.decode_axpy_scalar(a, &mut scalar_acc);
            let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits64(&fast_acc), bits64(&scalar_acc), "a={}", a);
        }
    }
}

#[test]
fn direction_kernels_hit_every_tail_residue_class_deterministically() {
    // Guaranteed coverage of every length residue mod 32 (the SIMD block)
    // and mod 4 (the packed byte), beyond what sampling happens to draw.
    for n in (0usize..=35).chain([63, 64, 65, 67]) {
        let signs: Vec<i8> = (0..n).map(|i| [1i8, -1, 0, 0, 1, -1][i % 6]).collect();
        let d = GradientDirection::from_signs(&signs);
        assert_eq!(d.to_signs(), signs, "n={n}");
        let mut fast = vec![1.0f32; n];
        with_forced_simd(|| d.decode_into(&mut fast));
        let mut scalar = vec![-1.0f32; n];
        d.decode_into_scalar(&mut scalar);
        assert_eq!(f32_bits(&fast), f32_bits(&scalar), "n={n}");
    }
}
