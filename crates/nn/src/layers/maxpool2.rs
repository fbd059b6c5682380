//! 2×2 max pooling with stride 2.

use super::Layer;
use crate::tensor4::Tensor4;

/// Max pooling over non-overlapping 2×2 windows.
///
/// Odd trailing rows/columns are dropped (floor division), matching the
/// common deep-learning default. Each window's winner is cached as its
/// position in the window so backward can route gradients to the winning
/// element only.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2 {
    /// For each output element, the winner's window position `2·dy + dx`.
    winner: Vec<u8>,
    in_shape: Option<(usize, usize, usize, usize)>,
}

impl MaxPool2 {
    /// Creates a 2×2/stride-2 max-pool layer.
    pub fn new() -> Self {
        MaxPool2::default()
    }

    /// Output spatial size for an input of `h × w`.
    pub fn out_hw(h: usize, w: usize) -> (usize, usize) {
        (h / 2, w / 2)
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn forward(&mut self, x: Tensor4) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        assert!(h >= 2 && w >= 2, "maxpool2: input smaller than window");
        let (oh, ow) = Self::out_hw(h, w);
        let mut out = Tensor4::zeros(n, c, oh, ow);
        self.winner.clear();
        self.winner.resize(out.len(), 0);
        let planes = x
            .as_slice()
            .chunks_exact(h * w)
            .zip(out.as_mut_slice().chunks_exact_mut(oh * ow))
            .zip(self.winner.chunks_exact_mut(oh * ow));
        for ((xp, op), wp) in planes {
            let rows = op.chunks_exact_mut(ow).zip(wp.chunks_exact_mut(ow));
            for (y, (orow, wrow)) in rows.enumerate() {
                let (top, bottom) = (&xp[2 * y * w..][..w], &xp[(2 * y + 1) * w..][..w]);
                for (xx, (o, win)) in orow.iter_mut().zip(wrow).enumerate() {
                    let window = [
                        top[2 * xx],
                        top[2 * xx + 1],
                        bottom[2 * xx],
                        bottom[2 * xx + 1],
                    ];
                    // Seeded from the window's own first element, so a
                    // window of −∞ or NaN still routes its gradient to
                    // itself (and a leading NaN propagates); ties go to
                    // the first.
                    let (mut best, mut pos) = (window[0], 0);
                    for (k, &v) in (1..).zip(&window[1..]) {
                        if v > best {
                            (best, pos) = (v, k);
                        }
                    }
                    (*o, *win) = (best, pos);
                }
            }
        }
        self.in_shape = Some((n, c, h, w));
        out
    }

    fn backward(&mut self, grad_out: Tensor4) -> Tensor4 {
        let (n, c, h, w) = self.in_shape.expect("maxpool2: backward before forward");
        assert_eq!(
            grad_out.len(),
            self.winner.len(),
            "maxpool2: gradient shape mismatch"
        );
        let (oh, ow) = Self::out_hw(h, w);
        let mut grad_in = Tensor4::zeros(n, c, h, w);
        let planes = grad_in
            .as_mut_slice()
            .chunks_exact_mut(h * w)
            .zip(grad_out.as_slice().chunks_exact(oh * ow))
            .zip(self.winner.chunks_exact(oh * ow));
        for ((gi, go), wp) in planes {
            let rows = go.chunks_exact(ow).zip(wp.chunks_exact(ow));
            for (y, (grow, wrow)) in rows.enumerate() {
                for (xx, (&g, &pos)) in grow.iter().zip(wrow).enumerate() {
                    let (dy, dx) = (usize::from(pos >> 1), usize::from(pos & 1));
                    gi[(2 * y + dy) * w + 2 * xx + dx] += g;
                }
            }
        }
        grad_in
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn forward_picks_window_max() {
        let mut p = MaxPool2::new();
        // The second window is a four-way tie: the first element wins.
        #[rustfmt::skip]
        let x = Tensor4::from_vec(1, 1, 2, 6, vec![
            1.0, 5.0, 2.0, 2.0, 2.0, 0.0,
            3.0, 4.0, 2.0, 2.0, 1.0, 6.0,
        ]);
        let y = p.forward(x);
        assert_eq!(y.shape(), (1, 1, 1, 3));
        assert_eq!(y.as_slice(), &[5.0, 2.0, 6.0]);
        assert_eq!(p.winner, [1, 0, 3]);
    }

    #[test]
    fn odd_dimensions_truncate() {
        let mut p = MaxPool2::new();
        // 5 × 3: the last row and the last column belong to no window, so
        // their large values are ignored and get no gradient.
        #[rustfmt::skip]
        let x = Tensor4::from_vec(1, 1, 5, 3, vec![
            1.0, 2.0, 90.0,
            4.0, 3.0, 91.0,
            0.0, 0.0, 92.0,
            7.0, 0.0, 93.0,
            94.0, 95.0, 96.0,
        ]);
        let y = p.forward(x);
        assert_eq!(y.shape(), (1, 1, 2, 1));
        assert_eq!(y.as_slice(), &[4.0, 7.0]);
        let gi = p.backward(Tensor4::from_vec(1, 1, 2, 1, vec![1.0, 2.0]));
        #[rustfmt::skip]
        let want = [
            0.0, 0.0, 0.0,
            1.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            2.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
        ];
        assert_eq!(gi.as_slice(), &want);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut p = MaxPool2::new();
        // The second window ties its last two elements at 4: the earlier
        // of them, window position 2, wins.
        #[rustfmt::skip]
        let x = Tensor4::from_vec(1, 1, 2, 4, vec![
            1.0, 5.0, 1.0, 3.0,
            3.0, 4.0, 4.0, 4.0,
        ]);
        p.forward(x);
        let g = Tensor4::from_vec(1, 1, 1, 2, vec![2.0, -0.5]);
        let gi = p.backward(g);
        assert_eq!(gi.as_slice(), &[0.0, 2.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0]);
    }

    #[test]
    fn all_negative_infinity_window_routes_inside_its_own_item() {
        let mut p = MaxPool2::new();
        let mut data = vec![1.0; 2 * 4];
        data[4..].fill(f32::NEG_INFINITY); // item 1's only window
        let x = Tensor4::from_vec(2, 1, 2, 2, data);
        let y = p.forward(x);
        assert_eq!(y.as_slice(), &[1.0, f32::NEG_INFINITY]);
        let gi = p.backward(Tensor4::from_vec(2, 1, 1, 1, vec![0.0, 3.0]));
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn all_nan_window_outputs_nan() {
        let mut p = MaxPool2::new();
        // Window 0 is all NaN, window 1 ordinary, window 2 leads with a
        // NaN that no later element can beat.
        #[rustfmt::skip]
        let data = vec![
            f32::NAN, f32::NAN, 1.0, 2.0, f32::NAN, 8.0,
            f32::NAN, f32::NAN, 3.0, 4.0, 9.0, f32::INFINITY,
        ];
        let y = p.forward(Tensor4::from_vec(1, 1, 2, 6, data));
        for i in [0, 2] {
            assert!(
                y.as_slice()[i].is_nan(),
                "NaN window {i} must not output {}",
                y.as_slice()[i]
            );
        }
        assert_eq!(y.as_slice()[1], 4.0);
        let gi = p.backward(Tensor4::from_vec(1, 1, 1, 3, vec![5.0, 6.0, 7.0]));
        #[rustfmt::skip]
        let want = [
            5.0, 0.0, 0.0, 0.0, 7.0, 0.0,
            0.0, 0.0, 0.0, 6.0, 0.0, 0.0,
        ];
        assert_eq!(gi.as_slice(), &want);
    }

    #[test]
    fn gradient_matches_numeric() {
        let mut p = MaxPool2::new();
        // Distinct values so the argmax is stable under ±eps perturbation.
        let x = Tensor4::from_vec(
            1,
            2,
            4,
            4,
            (0..32).map(|i| (i as f32 * 0.73).sin() * 3.0).collect(),
        );
        testutil::check_input_gradient(&mut p, &x, 1e-2);
    }
}
