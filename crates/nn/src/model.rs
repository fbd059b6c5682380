//! Model container and the paper's architectures.
//!
//! [`Sequential`] chains [`Layer`]s and exposes the *flat parameter vector*
//! interface the unlearning pipeline is written against: the entire model is
//! one `Vec<f32>`, and `loss_and_grad` returns the gradient in the same
//! layout. [`ModelSpec`] is a serialisable architecture description so that
//! every federated client can deterministically construct an identical
//! model from a seed.

use crate::layers::{Conv2d, Flatten, Layer, Linear, MaxPool2, Relu};
use crate::loss::{batch_accuracy, softmax_cross_entropy};
use crate::tensor4::Tensor4;
use fuiov_tensor::rng::{rng_for, streams};

/// Architecture description.
///
/// The two CNN variants mirror the paper's §V-A setup: MNIST uses
/// "two convolutional layers and two fully-connected layers"; GTSRB uses
/// "two convolutional layers and one fully connected layer". The MLP and
/// linear variants exist for fast unit tests and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// conv(c1,3×3,p1) → ReLU → pool → conv(c2) → ReLU → pool → fc(hidden)
    /// → ReLU → fc(classes). The paper's MNIST model shape.
    CnnTwoFc {
        /// Input channels.
        in_ch: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// First conv channel count.
        c1: usize,
        /// Second conv channel count.
        c2: usize,
        /// Hidden fully-connected width.
        hidden: usize,
        /// Output classes.
        classes: usize,
    },
    /// conv(c1) → ReLU → pool → conv(c2) → ReLU → pool → fc(classes).
    /// The paper's GTSRB model shape.
    CnnOneFc {
        /// Input channels.
        in_ch: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// First conv channel count.
        c1: usize,
        /// Second conv channel count.
        c2: usize,
        /// Output classes.
        classes: usize,
    },
    /// flatten → fc(hidden) → ReLU → fc(classes); for fast tests.
    Mlp {
        /// Flat input feature count.
        inputs: usize,
        /// Hidden width.
        hidden: usize,
        /// Output classes.
        classes: usize,
    },
    /// Single linear layer (softmax regression); the cheapest testable model.
    Linear {
        /// Flat input feature count.
        inputs: usize,
        /// Output classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// The paper's MNIST architecture at full 28×28 scale.
    pub fn mnist() -> Self {
        ModelSpec::CnnTwoFc {
            in_ch: 1,
            h: 28,
            w: 28,
            c1: 8,
            c2: 16,
            hidden: 64,
            classes: 10,
        }
    }

    /// The paper's GTSRB architecture (3-channel 32×32, here with the
    /// synthetic sign dataset's default class count).
    pub fn gtsrb(classes: usize) -> Self {
        ModelSpec::CnnOneFc {
            in_ch: 3,
            h: 32,
            w: 32,
            c1: 8,
            c2: 16,
            classes,
        }
    }

    /// A reduced-scale CNN for integration tests (same code path as
    /// [`ModelSpec::mnist`], ~20× fewer parameters).
    pub fn tiny_cnn(in_ch: usize, hw: usize, classes: usize) -> Self {
        ModelSpec::CnnTwoFc {
            in_ch,
            h: hw,
            w: hw,
            c1: 4,
            c2: 4,
            hidden: 16,
            classes,
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match *self {
            ModelSpec::CnnTwoFc { classes, .. }
            | ModelSpec::CnnOneFc { classes, .. }
            | ModelSpec::Mlp { classes, .. }
            | ModelSpec::Linear { classes, .. } => classes,
        }
    }

    /// Expected input shape `(c, h, w)`; flat specs report `(features, 1, 1)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        match *self {
            ModelSpec::CnnTwoFc { in_ch, h, w, .. } | ModelSpec::CnnOneFc { in_ch, h, w, .. } => {
                (in_ch, h, w)
            }
            ModelSpec::Mlp { inputs, .. } | ModelSpec::Linear { inputs, .. } => (inputs, 1, 1),
        }
    }

    /// Builds the model with weights drawn deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Sequential {
        let mut rng = rng_for(seed, streams::INIT);
        let layers: Vec<Box<dyn Layer>> = match *self {
            ModelSpec::CnnTwoFc {
                in_ch,
                h,
                w,
                c1,
                c2,
                hidden,
                classes,
            } => {
                let flat = c2 * (h / 4) * (w / 4);
                vec![
                    Box::new(Conv2d::new(&mut rng, in_ch, c1, 3, 1)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2::new()),
                    Box::new(Conv2d::new(&mut rng, c1, c2, 3, 1)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2::new()),
                    Box::new(Flatten::new()),
                    Box::new(Linear::new(&mut rng, flat, hidden)),
                    Box::new(Relu::new()),
                    Box::new(Linear::new(&mut rng, hidden, classes)),
                ]
            }
            ModelSpec::CnnOneFc {
                in_ch,
                h,
                w,
                c1,
                c2,
                classes,
            } => {
                let flat = c2 * (h / 4) * (w / 4);
                vec![
                    Box::new(Conv2d::new(&mut rng, in_ch, c1, 3, 1)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2::new()),
                    Box::new(Conv2d::new(&mut rng, c1, c2, 3, 1)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2::new()),
                    Box::new(Flatten::new()),
                    Box::new(Linear::new(&mut rng, flat, classes)),
                ]
            }
            ModelSpec::Mlp {
                inputs,
                hidden,
                classes,
            } => vec![
                Box::new(Flatten::new()),
                Box::new(Linear::new(&mut rng, inputs, hidden)),
                Box::new(Relu::new()),
                Box::new(Linear::new(&mut rng, hidden, classes)),
            ],
            ModelSpec::Linear { inputs, classes } => vec![
                Box::new(Flatten::new()),
                Box::new(Linear::new(&mut rng, inputs, classes)),
            ],
        };
        Sequential::from_layers(*self, layers)
    }

    /// Parameter count of the built model (without building weights twice).
    pub fn param_count(&self) -> usize {
        // Cheap enough to just build once; specs are only used at setup.
        self.build(0).param_count()
    }
}

/// A feed-forward stack of layers with a flat-parameter interface.
#[derive(Clone)]
pub struct Sequential {
    spec: ModelSpec,
    layers: Vec<Box<dyn Layer>>,
    param_count: usize,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("spec", &self.spec)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("param_count", &self.param_count)
            .finish()
    }
}

impl Sequential {
    fn from_layers(spec: ModelSpec, layers: Vec<Box<dyn Layer>>) -> Self {
        let param_count = layers.iter().map(|l| l.param_count()).sum();
        Sequential {
            spec,
            layers,
            param_count,
        }
    }

    /// The architecture this model was built from.
    pub fn spec(&self) -> ModelSpec {
        self.spec
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Forward pass through all layers (caches activations for backward).
    pub fn forward(&mut self, x: &Tensor4) -> Tensor4 {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Mean loss and the flat gradient vector for one batch.
    ///
    /// Gradients are freshly computed (internal buffers are zeroed first),
    /// so the result is exactly `∂L/∂θ` for this batch.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.n()` or shapes are inconsistent with
    /// the architecture.
    pub fn loss_and_grad(&mut self, x: &Tensor4, labels: &[usize]) -> (f32, Vec<f32>) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
        let logits = self.forward(x);
        let (loss, grad_logits) = softmax_cross_entropy(&logits, labels);
        let mut grad = grad_logits;
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        (loss, self.grads())
    }

    /// The flat-parameter layout, layer by layer in network order: one
    /// `(layer name, range into the flat vector)` entry per *parametric*
    /// layer (layers with no trainable parameters are skipped). The ranges
    /// partition `0..param_count()` and index directly into
    /// [`Sequential::params`] / [`Sequential::set_params`] vectors —
    /// baselines that edit individual layers (e.g. NoT weight negation)
    /// use this instead of guessing offsets.
    pub fn layer_param_spans(&self) -> Vec<(&'static str, std::ops::Range<usize>)> {
        let mut spans = Vec::new();
        let mut off = 0;
        for layer in &self.layers {
            let n = layer.param_count();
            if n > 0 {
                spans.push((layer.name(), off..off + n));
            }
            off += n;
        }
        spans
    }

    /// Flat copy of all parameters, layer by layer in network order.
    pub fn params(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.param_count];
        let mut off = 0;
        for layer in &self.layers {
            let n = layer.param_count();
            layer.read_params(&mut out[off..off + n]);
            off += n;
        }
        out
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != param_count()`.
    pub fn set_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.param_count, "set_params: length mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            let n = layer.param_count();
            layer.write_params(&src[off..off + n]);
            off += n;
        }
    }

    /// Flat copy of the accumulated gradients.
    pub fn grads(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.param_count];
        let mut off = 0;
        for layer in &self.layers {
            let n = layer.param_count();
            layer.read_grads(&mut out[off..off + n]);
            off += n;
        }
        out
    }

    /// Predicted class for each batch item.
    pub fn predict(&mut self, x: &Tensor4) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.n())
            .map(|b| fuiov_tensor::stats::argmax(logits.item(b)).expect("non-empty logits"))
            .collect()
    }

    /// A human-readable per-layer summary (name and parameter count) —
    /// the usual "model.summary()" table.
    ///
    /// ```
    /// use fuiov_nn::ModelSpec;
    /// let m = ModelSpec::Mlp { inputs: 4, hidden: 8, classes: 2 }.build(0);
    /// let s = m.summary();
    /// assert!(s.contains("linear"));
    /// assert!(s.contains("total"));
    /// ```
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<12} {:>10}", "layer", "params");
        for layer in &self.layers {
            let _ = writeln!(out, "{:<12} {:>10}", layer.name(), layer.param_count());
        }
        let _ = writeln!(out, "{:<12} {:>10}", "total", self.param_count);
        out
    }

    /// Classification accuracy on a batch.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.n()`.
    pub fn accuracy(&mut self, x: &Tensor4, labels: &[usize]) -> f32 {
        let logits = self.forward(x);
        batch_accuracy(&logits, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_batch() -> (Tensor4, Vec<usize>) {
        let x = Tensor4::from_vec(4, 2, 1, 1, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn build_is_deterministic() {
        let spec = ModelSpec::Mlp {
            inputs: 4,
            hidden: 8,
            classes: 3,
        };
        let a = spec.build(5).params();
        let b = spec.build(5).params();
        let c = spec.build(6).params();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn param_roundtrip_through_flat_vector() {
        let spec = ModelSpec::tiny_cnn(1, 8, 4);
        let m1 = spec.build(1);
        let p = m1.params();
        let mut m2 = spec.build(2);
        m2.set_params(&p);
        assert_eq!(m2.params(), p);
    }

    #[test]
    fn cnn_shapes_flow_end_to_end() {
        let spec = ModelSpec::tiny_cnn(1, 8, 4);
        let mut m = spec.build(0);
        let x = Tensor4::zeros(3, 1, 8, 8);
        let logits = m.forward(&x);
        assert_eq!(logits.shape(), (3, 4, 1, 1));
    }

    #[test]
    fn cnn_one_fc_shapes() {
        let spec = ModelSpec::CnnOneFc {
            in_ch: 3,
            h: 8,
            w: 8,
            c1: 4,
            c2: 4,
            classes: 5,
        };
        let mut m = spec.build(0);
        let x = Tensor4::zeros(2, 3, 8, 8);
        assert_eq!(m.forward(&x).shape(), (2, 5, 1, 1));
    }

    #[test]
    fn whole_model_gradient_matches_numeric() {
        let spec = ModelSpec::Mlp {
            inputs: 3,
            hidden: 4,
            classes: 2,
        };
        let mut m = spec.build(9);
        let x = Tensor4::from_vec(2, 3, 1, 1, vec![0.1, -0.2, 0.5, 0.7, 0.0, -0.4]);
        let labels = [0usize, 1];
        let (_, grad) = m.loss_and_grad(&x, &labels);
        let params = m.params();
        let eps = 1e-3f32;
        for i in (0..params.len()).step_by(3) {
            let mut p = params.clone();
            p[i] += eps;
            m.set_params(&p);
            let (lu, _) = m.loss_and_grad(&x, &labels);
            p[i] = params[i] - eps;
            m.set_params(&p);
            let (ld, _) = m.loss_and_grad(&x, &labels);
            m.set_params(&params);
            let num = (lu - ld) / (2.0 * eps);
            assert!(
                (num - grad[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "grad mismatch at {i}: numeric={num} analytic={}",
                grad[i]
            );
        }
    }

    #[test]
    fn sgd_learns_xor() {
        let spec = ModelSpec::Mlp {
            inputs: 2,
            hidden: 16,
            classes: 2,
        };
        let mut m = spec.build(3);
        let (x, y) = xor_batch();
        for _ in 0..800 {
            let (_, g) = m.loss_and_grad(&x, &y);
            let mut p = m.params();
            fuiov_tensor::vector::axpy(-0.5, &g, &mut p);
            m.set_params(&p);
        }
        assert_eq!(m.accuracy(&x, &y), 1.0, "MLP failed to fit XOR");
    }

    #[test]
    fn loss_and_grad_does_not_accumulate_across_calls() {
        let spec = ModelSpec::Linear {
            inputs: 2,
            classes: 2,
        };
        let mut m = spec.build(0);
        let x = Tensor4::from_vec(1, 2, 1, 1, vec![1.0, -1.0]);
        let (_, g1) = m.loss_and_grad(&x, &[0]);
        let (_, g2) = m.loss_and_grad(&x, &[0]);
        assert_eq!(g1, g2);
    }

    #[test]
    fn predict_matches_accuracy() {
        let spec = ModelSpec::Linear {
            inputs: 2,
            classes: 2,
        };
        let mut m = spec.build(1);
        let (x, y) = xor_batch();
        let preds = m.predict(&x);
        let acc = m.accuracy(&x, &y);
        let manual = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f32 / y.len() as f32;
        assert_eq!(acc, manual);
    }

    #[test]
    fn summary_lists_layers_and_total() {
        let spec = ModelSpec::tiny_cnn(1, 8, 4);
        let m = spec.build(0);
        let s = m.summary();
        assert!(s.contains("conv2d"));
        assert!(s.contains("maxpool2"));
        assert!(s.contains(&m.param_count().to_string()));
    }

    #[test]
    fn layer_param_spans_partition_the_flat_vector() {
        for spec in [
            ModelSpec::Mlp {
                inputs: 9,
                hidden: 4,
                classes: 3,
            },
            ModelSpec::tiny_cnn(1, 8, 4),
        ] {
            let m = spec.build(0);
            let spans = m.layer_param_spans();
            assert!(!spans.is_empty());
            let mut expected_start = 0;
            for (name, range) in &spans {
                assert!(!name.is_empty());
                assert_eq!(range.start, expected_start, "spans must be contiguous");
                assert!(range.end > range.start, "parametric spans are non-empty");
                expected_start = range.end;
            }
            assert_eq!(expected_start, m.param_count());
            // First span is the first weighted layer (linear for the MLP).
            assert!(matches!(spans[0].0, "linear" | "conv2d"));
        }
    }

    #[test]
    fn clone_is_independent() {
        let spec = ModelSpec::Mlp {
            inputs: 2,
            hidden: 4,
            classes: 2,
        };
        let m1 = spec.build(0);
        let mut m2 = m1.clone();
        let zeros = vec![0.0; m2.param_count()];
        m2.set_params(&zeros);
        assert_ne!(m1.params(), m2.params());
    }
}
