//! ReLU activation.

use super::Layer;
use crate::tensor4::Tensor4;

/// Element-wise `max(0, x)`, in place.
///
/// Forward keeps one bit per element, set where the input was `> 0.0`;
/// backward zeroes the incoming gradient wherever that bit is clear
/// (subgradient 0 at exactly zero, and at NaN).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// Bit `i % 64` of word `i / 64` is set where input `i` was `> 0.0`.
    mask: Vec<u64>,
    /// Element count of the last forward's input; `None` before the first.
    len: Option<usize>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, mut x: Tensor4) -> Tensor4 {
        let v = x.as_mut_slice();
        self.len = Some(v.len());
        self.mask.clear();
        self.mask.extend(v.chunks_mut(64).map(|chunk| {
            let mut bits = 0u64;
            for (i, v) in chunk.iter_mut().enumerate() {
                let keep = *v > 0.0;
                bits |= u64::from(keep) << i;
                *v = if keep { *v } else { 0.0 };
            }
            bits
        }));
        x
    }

    fn backward(&mut self, mut grad_out: Tensor4) -> Tensor4 {
        let len = self.len.expect("relu: backward before forward");
        assert_eq!(grad_out.len(), len, "relu: gradient shape mismatch");
        for (chunk, &bits) in grad_out.as_mut_slice().chunks_mut(64).zip(&self.mask) {
            for (i, g) in chunk.iter_mut().enumerate() {
                *g = if bits >> i & 1 == 1 { *g } else { 0.0 };
            }
        }
        grad_out
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{self, bits};
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor4::from_vec(1, 1, 1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor4::from_vec(1, 1, 1, 3, vec![-1.0, 1.0, 2.0]);
        r.forward(x);
        let g = Tensor4::from_vec(1, 1, 1, 3, vec![5.0, 6.0, 7.0]);
        let gi = r.backward(g);
        assert_eq!(gi.as_slice(), &[0.0, 6.0, 7.0]);
    }

    /// The bit mask at lengths around its 64-element words, over the
    /// inputs where `> 0.0` is subtle: NaN, ±0.0, ±subnormal, ±∞. Output
    /// and masked gradient must equal the per-element `v > 0.0` rule bit
    /// for bit, and a second backward must read the same mask.
    #[test]
    fn bit_mask_matches_the_compare_rule_bitwise() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
            -1.5,
        ];
        for len in [1usize, 63, 64, 65, 129] {
            let x: Vec<f32> = (0..len)
                .map(|i| specials[(i * 7 + len) % specials.len()])
                .collect();
            // Gradients that are themselves signed zeros, NaN or ordinary.
            let g: Vec<f32> = (0..len)
                .map(|i| [-0.0, 2.0, f32::NAN, -3.25][i % 4])
                .collect();
            let rule = |v: &[f32], by: &[f32]| -> Vec<f32> {
                v.iter()
                    .zip(by)
                    .map(|(&v, &b)| if b > 0.0 { v } else { 0.0 })
                    .collect()
            };
            let mut r = Relu::new();
            let y = r.forward(Tensor4::from_vec(1, 1, 1, len, x.clone()));
            assert_eq!(
                bits(y.as_slice()),
                bits(&rule(&x, &x)),
                "forward, len {len}"
            );
            for pass in 0..2 {
                let gi = r.backward(Tensor4::from_vec(1, 1, 1, len, g.clone()));
                assert_eq!(
                    bits(gi.as_slice()),
                    bits(&rule(&g, &x)),
                    "backward pass {pass}, len {len}"
                );
            }
        }
    }

    #[test]
    fn gradient_matches_numeric_away_from_zero() {
        let mut r = Relu::new();
        // Keep inputs away from the kink at 0 so finite differences are valid.
        let x = Tensor4::from_vec(1, 2, 1, 3, vec![-1.0, 0.5, 2.0, -0.7, 1.5, -2.0]);
        testutil::check_input_gradient(&mut r, &x, 1e-2);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut r = Relu::new();
        let _ = r.backward(Tensor4::zeros(1, 1, 1, 1));
    }

    #[test]
    fn has_no_params() {
        let r = Relu::new();
        assert_eq!(r.param_count(), 0);
    }
}
