//! 2-D convolution with 3×3 kernels, stride 1 and zero padding 1: the
//! shape every model in this crate builds, so each output plane is the
//! size of its input plane.
//!
//! One kernel, `correlate`, serves the forward pass and the input
//! gradient. It vectorises across `LANES` batch items and, per output
//! plane and output row, holds a tile of `TILE` = 7 output pixels in
//! registers while it adds all `c × 9` taps, so each output value is
//! loaded and stored once. Only a tile's first and last pixel can have a
//! padded tap, so only they test for one; input rows outside the plane
//! are skipped whole, and the `w mod 7` pixels after a row's last full
//! tile go one at a time with the same tests. The tile width is fixed by
//! the register budget, not by any plane width: seven pixels of `LANES`
//! items fill seven AVX2 registers (fourteen SSE2 ones), while a
//! fourteen-pixel tile no longer stays in registers and runs about ten
//! times slower. The input gradient is that forward correlation run on
//! the output gradient, with the kernel turned 180° and transposed
//! (`k[ic][oc][8 − t] = w[oc][ic][t]`) and every sum starting at +0.0.
//! The parameter gradients vectorise across output channels instead.
//!
//! Every element keeps the accumulation sequence of the plain direct loop
//! (kept in the tests as the reference):
//!
//! - forward: `bias`, then `+= w·x` over the valid taps `(ic, dy, dx)`
//!   ascending; padded taps are skipped, never added as `w·0`;
//! - `grad_weight` / `grad_bias`: `+= g·x` / `+= g` over `(b, y, xx)`
//!   ascending; the nine taps of one input channel advance side by side,
//!   nine running sums over one pass of the item's pixels;
//! - `grad_in`: `+= g·w` over `(oc, y, xx)` ascending, i.e. `(oc, dy, dx)`
//!   with `dy` and `dx` descending: the turned kernel's taps ascending.
//!
//! The direct loop skips `g == 0`; these kernels add those terms too. With
//! finite weights and inputs they are ±0, and a gradient accumulator starts
//! at +0.0 and so can never be −0.0, so adding them changes no bit. Each
//! addition is rounded to `f32` on its own (rustc contracts nothing into
//! FMA), so SSE2, AVX2 and AVX-512 builds agree bit for bit.

use super::lanes::{from_lanes, to_lanes, Lanes, LANES};
use super::Layer;
use crate::init;
use crate::tensor4::Tensor4;
use rand::Rng;

/// Kernel side.
const K: usize = 3;
/// Taps per input channel.
const TAPS: usize = K * K;

/// Convolution with 3×3 kernels, stride 1 and zero padding 1.
///
/// Weights are stored as `out_channels × in_channels × 3 × 3` followed by
/// the per-output-channel bias in the flat parameter layout.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor4>,
}

/// Output pixels per register tile: with `LANES` items each, seven
/// pixels take seven AVX2 registers (fourteen SSE2 ones) and leave room
/// for a weight and an input.
const TILE: usize = 7;

/// The 3×3 correlation the forward pass and the input gradient share,
/// `LANES` items side by side: output plane `o` is `start[o]` plus
/// `k[o][i][t] · x[i]` at each valid tap `t`, every element taking its
/// terms in `(i, dy, dx)` order. `x` holds the input planes and `out` the
/// output planes, each `h × w`, and `k` is `out planes × in planes × 9`.
/// Each output row goes by tiles of [`TILE`] pixels, then one pixel at a
/// time for the last `w mod TILE`.
fn correlate(x: &[Lanes], k: &[f32], start: &[f32], out: &mut [Lanes], (h, w): (usize, usize)) {
    let taps = x.len() / (h * w) * TAPS;
    for ((yp, ko), &s) in out
        .chunks_exact_mut(h * w)
        .zip(k.chunks_exact(taps))
        .zip(start)
    {
        for (y, yr) in yp.chunks_exact_mut(w).enumerate() {
            let (tiles, tail) = yr.as_chunks_mut::<TILE>();
            for (i, t) in tiles.iter_mut().enumerate() {
                *t = tile(s, ko, x, (h, w), (y, i * TILE));
            }
            let x0 = tiles.len() * TILE;
            for (i, px) in tail.iter_mut().enumerate() {
                [*px] = tile(s, ko, x, (h, w), (y, x0 + i));
            }
        }
    }
}

/// Output pixels `x0..x0 + P` of row `y`: `s` plus the terms of the taps
/// `ko` over the input planes `x`, the sums held in registers. Input rows
/// outside the plane are skipped whole; within a row only the first and
/// the last pixel can read a padded column, so only they test for one.
#[inline(always)]
fn tile<const P: usize>(
    s: f32,
    ko: &[f32],
    x: &[Lanes],
    (h, w): (usize, usize),
    (y, x0): (usize, usize),
) -> [Lanes; P] {
    let mut acc = [[s; LANES]; P];
    for (kc, xc) in ko.as_chunks::<TAPS>().0.iter().zip(x.chunks_exact(h * w)) {
        for (dy, kr) in kc.as_chunks::<K>().0.iter().enumerate() {
            let Some(r) = (y + dy).checked_sub(1).filter(|&r| r < h) else {
                continue;
            };
            let row = &xc[r * w..][..w];
            // The pixels' own columns, and the columns either side of
            // them where the row has them.
            let mid = row[x0..]
                .first_chunk::<P>()
                .expect("a tile lies in its row");
            let before = x0.checked_sub(1).map(|c| &row[c]);
            let after = row.get(x0 + P);
            for (dx, &kv) in kr.iter().enumerate() {
                for (p, a) in acc.iter_mut().enumerate() {
                    // Column x0 + p + dx − 1.
                    let xv = match (p + dx).checked_sub(1) {
                        None => before,
                        Some(i) => mid.get(i).or(after),
                    };
                    if let Some(xv) = xv {
                        for j in 0..LANES {
                            a[j] += kv * xv[j];
                        }
                    }
                }
            }
        }
    }
    acc
}

/// Adds one item's terms to the nine tap sums of one input channel,
/// `LANES` output channels side by side. `g` is the item's output
/// gradient for those channels, pixel by pixel, and `x` its `h × w` input
/// plane. Tap `3·dy + dx` of output pixel `(y, xx)` reads input
/// `(y + dy − 1, xx + dx − 1)`; every sum takes its terms in `(y, xx)`
/// order, and a padded tap adds nothing.
fn accumulate_taps(sums: &mut [Lanes; TAPS], g: &[Lanes], x: &[f32], (h, w): (usize, usize)) {
    // A local copy, so the nine sums stay in registers across the plane.
    let mut s = *sums;
    for (y, gr) in g.chunks_exact(w).enumerate() {
        // Input rows y − 1, y and y + 1, where they exist.
        let rows: [Option<&[f32]>; K] = std::array::from_fn(|dy| {
            (y + dy)
                .checked_sub(1)
                .filter(|&r| r < h)
                .map(|r| &x[r * w..][..w])
        });
        match rows {
            [Some(r0), Some(r1), Some(r2)] if w >= K => {
                edge_taps(&mut s, &gr[0], &rows, 0);
                // Columns 1..w − 1, where every tap lies inside the plane:
                // tap t reads its row from column t % 3 on.
                let inner = w - 2;
                let xs: [&[f32]; TAPS] =
                    std::array::from_fn(|t| &[r0, r1, r2][t / K][t % K..][..inner]);
                for (i, gv) in gr[1..=inner].iter().enumerate() {
                    for (st, xs) in s.iter_mut().zip(&xs) {
                        let xv = xs[i];
                        for j in 0..LANES {
                            st[j] += gv[j] * xv;
                        }
                    }
                }
                edge_taps(&mut s, &gr[w - 1], &rows, w - 1);
            }
            _ => {
                for (xx, gv) in gr.iter().enumerate() {
                    edge_taps(&mut s, gv, &rows, xx);
                }
            }
        }
    }
    *sums = s;
}

/// The terms of output column `xx` for the taps whose input lies inside
/// the plane: input row `rows[dy]` exists and has column `xx + dx − 1`.
fn edge_taps(s: &mut [Lanes; TAPS], gv: &Lanes, rows: &[Option<&[f32]>; K], xx: usize) {
    for (t, st) in s.iter_mut().enumerate() {
        let col = (xx + t % K).checked_sub(1);
        if let Some(&xv) = rows[t / K].zip(col).and_then(|(row, c)| row.get(c)) {
            for j in 0..LANES {
                st[j] += gv[j] * xv;
            }
        }
    }
}

impl Conv2d {
    /// Creates a 3×3 convolution with Kaiming-uniform weights and zero
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if either channel count is zero.
    pub fn new<R: Rng>(rng: &mut R, in_channels: usize, out_channels: usize) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "Conv2d::new: zero dimension"
        );
        let fan_in = in_channels * TAPS;
        let mut weight = vec![0.0; out_channels * fan_in];
        init::kaiming_uniform(rng, &mut weight, fan_in);
        Conv2d {
            in_channels,
            out_channels,
            weight,
            bias: vec![0.0; out_channels],
            grad_weight: vec![0.0; out_channels * fan_in],
            grad_bias: vec![0.0; out_channels],
            cached_input: None,
        }
    }

    /// Adds this batch's terms to `grad_weight` and `grad_bias`, `LANES`
    /// output channels side by side: per item and input channel, the nine
    /// taps' sums advance together over the item's pixels in order.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor4) {
        let x = self
            .cached_input
            .as_ref()
            .expect("conv2d: backward before forward");
        let (n, c, h, w) = x.shape();
        let oc_n = self.out_channels;
        assert_eq!(
            grad_out.shape(),
            (n, oc_n, h, w),
            "conv2d: gradient shape mismatch"
        );
        let (taps, plane) = (c * TAPS, h * w);
        let blocks = oc_n.div_ceil(LANES);
        // Channel `blk·LANES + j` of the gradients lives in lane `j` of
        // entry `blk` (tap-major for the weights); padding lanes stay 0.
        let mut gw = vec![[0.0f32; LANES]; blocks * taps];
        let mut gb = vec![[0.0f32; LANES]; blocks];
        for (oc, (row, &bias)) in self
            .grad_weight
            .chunks_exact(taps)
            .zip(&self.grad_bias)
            .enumerate()
        {
            for (t, &v) in row.iter().enumerate() {
                gw[oc / LANES * taps + t][oc % LANES] = v;
            }
            gb[oc / LANES][oc % LANES] = bias;
        }
        let mut g = Vec::new();
        let items = x
            .as_slice()
            .chunks_exact(c * plane)
            .zip(grad_out.as_slice().chunks_exact(oc_n * plane));
        for (xb, gob) in items {
            for (blk, (gw, gb)) in gw.chunks_exact_mut(taps).zip(&mut gb).enumerate() {
                // This item's gradient for the block, channel-last.
                to_lanes(gob, plane, blk * LANES, &mut g);
                for gv in &g {
                    for j in 0..LANES {
                        gb[j] += gv[j];
                    }
                }
                for (xc, sums) in xb.chunks_exact(plane).zip(gw.chunks_exact_mut(TAPS)) {
                    let sums = sums.try_into().expect("nine taps per input channel");
                    accumulate_taps(sums, &g, xc, (h, w));
                }
            }
        }
        for (oc, (row, bias)) in self
            .grad_weight
            .chunks_exact_mut(taps)
            .zip(&mut self.grad_bias)
            .enumerate()
        {
            for (t, v) in row.iter_mut().enumerate() {
                *v = gw[oc / LANES * taps + t][oc % LANES];
            }
            *bias = gb[oc / LANES][oc % LANES];
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: Tensor4) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        assert_eq!(c, self.in_channels, "conv2d: input channel mismatch");
        assert!(h > 0 && w > 0, "conv2d: empty input plane");
        let oc_n = self.out_channels;
        let mut out = Tensor4::zeros(n, oc_n, h, w);
        let (mut xl, mut yl) = (Vec::new(), vec![[0.0f32; LANES]; oc_n * h * w]);
        for b0 in (0..n).step_by(LANES) {
            to_lanes(x.as_slice(), c * h * w, b0, &mut xl);
            correlate(&xl, &self.weight, &self.bias, &mut yl, (h, w));
            from_lanes(&yl, oc_n * h * w, b0, out.as_mut_slice());
        }
        self.cached_input = Some(x);
        out
    }

    fn backward(&mut self, grad_out: Tensor4) -> Tensor4 {
        self.accumulate_param_grads(&grad_out);

        // The input gradient is the correlation of the output gradient with
        // the kernel turned 180° and transposed: tap `t` of `w[oc][ic]` is
        // tap `8 − t` of `k[ic][oc]`, so the turned kernel's `(oc, dy, dx)`
        // ascending is `(oc, y, xx)` ascending for every input element.
        let (n, oc_n, h, w) = grad_out.shape();
        let c = self.in_channels;
        let mut turned = vec![0.0; self.weight.len()];
        for (oc, wo) in self.weight.chunks_exact(c * TAPS).enumerate() {
            for (ic, wt) in wo.chunks_exact(TAPS).enumerate() {
                let kt = &mut turned[(ic * oc_n + oc) * TAPS..][..TAPS];
                for (k, &v) in kt.iter_mut().rev().zip(wt) {
                    *k = v;
                }
            }
        }
        let zeros = vec![0.0; c];
        let mut grad_in = Tensor4::zeros(n, c, h, w);
        let (mut gl, mut il) = (Vec::new(), vec![[0.0f32; LANES]; c * h * w]);
        for b0 in (0..n).step_by(LANES) {
            to_lanes(grad_out.as_slice(), oc_n * h * w, b0, &mut gl);
            correlate(&gl, &turned, &zeros, &mut il, (h, w));
            from_lanes(&il, c * h * w, b0, grad_in.as_mut_slice());
        }
        grad_in
    }

    fn backward_params(&mut self, grad_out: Tensor4) {
        self.accumulate_param_grads(&grad_out);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn read_params(&self, out: &mut [f32]) {
        let (w, b) = out.split_at_mut(self.weight.len());
        w.copy_from_slice(&self.weight);
        b.copy_from_slice(&self.bias);
    }

    fn write_params(&mut self, src: &[f32]) {
        let (w, b) = src.split_at(self.weight.len());
        self.weight.copy_from_slice(w);
        self.bias.copy_from_slice(b);
    }

    fn read_grads(&self, out: &mut [f32]) {
        let (w, b) = out.split_at_mut(self.grad_weight.len());
        w.copy_from_slice(&self.grad_weight);
        b.copy_from_slice(&self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weight.iter_mut().for_each(|v| *v = 0.0);
        self.grad_bias.iter_mut().for_each(|v| *v = 0.0);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{self, bits, signed_values};
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    /// Flat index of weight `(oc, ic, dy, dx)`.
    fn w_index(l: &Conv2d, oc: usize, ic: usize, dy: usize, dx: usize) -> usize {
        ((oc * l.in_channels + ic) * K + dy) * K + dx
    }

    /// Input `(y + dy − 1, xx + dx − 1)` of an `h × w` plane, if it exists.
    fn tap_input(
        y: usize,
        xx: usize,
        dy: usize,
        dx: usize,
        (h, w): (usize, usize),
    ) -> Option<(usize, usize)> {
        let iy = (y + dy).checked_sub(1).filter(|&r| r < h)?;
        let ix = (xx + dx).checked_sub(1).filter(|&c| c < w)?;
        Some((iy, ix))
    }

    /// The scalar direct forward the kernel replaced: one serial add chain
    /// per output element. The reference for the per-element order.
    fn reference_forward(l: &Conv2d, x: &Tensor4) -> Tensor4 {
        let (n, _, h, w) = x.shape();
        let mut out = Tensor4::zeros(n, l.out_channels, h, w);
        for b in 0..n {
            for oc in 0..l.out_channels {
                for y in 0..h {
                    for xx in 0..w {
                        let mut acc = l.bias[oc];
                        for ic in 0..l.in_channels {
                            for dy in 0..K {
                                for dx in 0..K {
                                    if let Some((iy, ix)) = tap_input(y, xx, dy, dx, (h, w)) {
                                        acc += l.weight[w_index(l, oc, ic, dy, dx)]
                                            * x.get(b, ic, iy, ix);
                                    }
                                }
                            }
                        }
                        out.set(b, oc, y, xx, acc);
                    }
                }
            }
        }
        out
    }

    /// The scalar direct backward the kernel replaced, accumulating into
    /// `l`'s parameter gradients.
    fn reference_backward(l: &mut Conv2d, x: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let (n, _, h, w) = x.shape();
        let mut grad_in = Tensor4::zeros(n, l.in_channels, h, w);
        for b in 0..n {
            for oc in 0..l.out_channels {
                for y in 0..h {
                    for xx in 0..w {
                        let g = grad_out.get(b, oc, y, xx);
                        if g == 0.0 {
                            continue;
                        }
                        l.grad_bias[oc] += g;
                        for ic in 0..l.in_channels {
                            for dy in 0..K {
                                for dx in 0..K {
                                    let Some((iy, ix)) = tap_input(y, xx, dy, dx, (h, w)) else {
                                        continue;
                                    };
                                    let wi = w_index(l, oc, ic, dy, dx);
                                    l.grad_weight[wi] += g * x.get(b, ic, iy, ix);
                                    let gi = grad_in.index(b, ic, iy, ix);
                                    grad_in.as_mut_slice()[gi] += g * l.weight[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    #[test]
    fn kernels_match_the_scalar_loops_bitwise() {
        // Items and plane of every fifth case: a row, a column and planes
        // too small for an interior pixel; the models' planes (28², 14²,
        // 32², 16²), up to four tiles per row; widths below, at and either
        // side of a multiple of the 7-pixel tile; two batches of 10, which
        // end inside their second lane group.
        const FIXED: [(usize, usize, usize); 14] = [
            (1, 1, 1),
            (2, 1, 7),
            (1, 9, 1),
            (3, 2, 2),
            (2, 2, 13),
            (2, 28, 28),
            (1, 14, 14),
            (1, 32, 32),
            (2, 16, 16),
            (10, 3, 6),
            (3, 4, 7),
            (2, 5, 8),
            (10, 3, 13),
            (1, 6, 15),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0de);
        for case in 0..400 {
            // Otherwise planes from 1×1 to 16×16 and mostly 1–3 items and
            // 1–5 output channels; every tenth case spans several lane
            // groups of both.
            let wide = LANES + 1..=2 * LANES + 1;
            let (n, h, w) = if case % 5 == 0 {
                FIXED[case / 5 % FIXED.len()]
            } else {
                let n = if case % 10 == 9 {
                    rng.gen_range(wide.clone())
                } else {
                    rng.gen_range(1..=3usize)
                };
                (n, rng.gen_range(1..=16usize), rng.gen_range(1..=16usize))
            };
            let oc = if case % 10 == 9 {
                rng.gen_range(wide)
            } else {
                rng.gen_range(1..=5usize)
            };
            let c = rng.gen_range(1..=9usize);
            let mut layer = Conv2d::new(&mut rng, c, oc);
            // Some weights exactly zero and some biases −0.0, so padded
            // taps that were wrongly added as `w·0` would flip a sign.
            let mut params = vec![0.0; layer.param_count()];
            layer.read_params(&mut params);
            let (weights, biases) = params.split_at_mut(oc * c * TAPS);
            for v in weights.iter_mut() {
                if rng.gen_bool(0.1) {
                    *v = 0.0;
                }
            }
            for v in biases.iter_mut() {
                *v = [0.0, -0.0, rng.gen_range(-0.5f32..0.5)][rng.gen_range(0..3usize)];
            }
            layer.write_params(&params);

            let shape = format!("{n}x{c}x{h}x{w} -> {oc}");
            let x = Tensor4::from_vec(n, c, h, w, signed_values(&mut rng, n * c * h * w, 0.3));
            let y = layer.forward(x.clone());
            assert_eq!(
                bits(y.as_slice()),
                bits(reference_forward(&layer, &x).as_slice()),
                "case {case}: forward, {shape}"
            );

            let g = Tensor4::from_vec(n, oc, h, w, signed_values(&mut rng, y.len(), 0.4));
            layer.zero_grads();
            let mut reference = layer.clone();
            let mut params_only = layer.clone();
            // Two passes: the parameter gradients accumulate across calls.
            for _ in 0..2 {
                let gi = layer.backward(g.clone());
                params_only.backward_params(g.clone());
                let want = reference_backward(&mut reference, &x, &g);
                assert_eq!(
                    bits(gi.as_slice()),
                    bits(want.as_slice()),
                    "case {case}: grad_in, {shape}"
                );
            }
            for l in [&layer, &params_only] {
                assert_eq!(
                    bits(&l.grad_weight),
                    bits(&reference.grad_weight),
                    "case {case}: grad_weight, {shape}"
                );
                assert_eq!(
                    bits(&l.grad_bias),
                    bits(&reference.grad_bias),
                    "case {case}: grad_bias, {shape}"
                );
            }
        }
    }

    #[test]
    fn centre_tap_kernel_reproduces_input() {
        // Only the centre tap set, weight 1, bias 0 == identity.
        let mut c = Conv2d::new(&mut rng(), 1, 1);
        let mut p = vec![0.0; 10];
        p[4] = 1.0;
        c.write_params(&p);
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(x.clone());
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_padded_convolution() {
        let mut c = Conv2d::new(&mut rng(), 1, 1);
        // Sum-of-window kernel, bias 10.
        let mut p = vec![1.0; 9];
        p.push(10.0);
        c.write_params(&p);
        let x = Tensor4::from_vec(1, 1, 3, 3, (1..=9).map(|i| i as f32).collect());
        let y = c.forward(x);
        assert_eq!(y.shape(), (1, 1, 3, 3));
        // Corner: 1 + 2 + 4 + 5; centre: 45; each plus the bias.
        assert_eq!(y.get(0, 0, 0, 0), 22.0);
        assert_eq!(y.get(0, 0, 1, 1), 55.0);
    }

    #[test]
    fn multi_channel_shapes() {
        let mut c = Conv2d::new(&mut rng(), 3, 5);
        let x = Tensor4::zeros(2, 3, 6, 6);
        let y = c.forward(x);
        assert_eq!(y.shape(), (2, 5, 6, 6));
        assert_eq!(c.param_count(), 5 * 3 * 9 + 5);
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut c = Conv2d::new(&mut rng(), 2, 3);
        // A 4×4 plane goes pixel by pixel; a 9×9 one takes a full tile
        // per row, then two single pixels.
        for hw in [4, 9] {
            let len = 2 * hw * hw;
            let x = Tensor4::from_vec(
                1,
                2,
                hw,
                hw,
                (0..len).map(|i| (i as f32 * 0.37).sin()).collect(),
            );
            testutil::check_input_gradient(&mut c, &x, 1e-2);
        }
    }

    #[test]
    fn param_gradient_matches_numeric() {
        let mut c = Conv2d::new(&mut rng(), 2, 2);
        let x = Tensor4::from_vec(
            2,
            2,
            4,
            4,
            (0..64).map(|i| (i as f32 * 0.29).cos()).collect(),
        );
        testutil::check_param_gradient(&mut c, &x, 1e-2);
    }

    #[test]
    fn param_roundtrip() {
        let a = Conv2d::new(&mut rng(), 2, 3);
        let mut p = vec![0.0; a.param_count()];
        a.read_params(&mut p);
        let mut b = Conv2d::new(&mut rng(), 2, 3);
        b.write_params(&p);
        let mut q = vec![0.0; b.param_count()];
        b.read_params(&mut q);
        assert_eq!(p, q);
    }
}
