//! Flattening layer: `(n, c, h, w) → (n, c·h·w, 1, 1)`.

use super::Layer;
use crate::tensor4::Tensor4;

/// Reshapes feature maps into flat feature vectors in place (the data is
/// already contiguous in NCHW order, so nothing is copied).
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_shape: Option<(usize, usize, usize, usize)>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { in_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, x: Tensor4) -> Tensor4 {
        self.in_shape = Some(x.shape());
        x.flatten()
    }

    fn backward(&mut self, grad_out: Tensor4) -> Tensor4 {
        let (_, c, h, w) = self.in_shape.expect("flatten: backward before forward");
        grad_out.reshape(c, h, w)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_data() {
        let mut f = Flatten::new();
        let x = Tensor4::from_vec(2, 2, 1, 2, (0..8).map(|i| i as f32).collect());
        let y = f.forward(x.clone());
        assert_eq!(y.shape(), (2, 4, 1, 1));
        let back = f.backward(y);
        assert_eq!(back, x);
    }
}
