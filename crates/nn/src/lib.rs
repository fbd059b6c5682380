//! From-scratch neural-network substrate for the FUIOV stack.
//!
//! The paper's experiments (§V-A) train small CNNs — two convolutional
//! layers plus one or two fully-connected layers — with plain SGD. This
//! crate implements exactly that, with manual backpropagation, so that:
//!
//! - gradients are bit-reproducible given a seed (every experiment in the
//!   repository is deterministic), and
//! - the whole model round-trips through a **flat `Vec<f32>` parameter
//!   vector**, the representation the federated-unlearning math
//!   (backtracking, L-BFGS, Cauchy-MVT recovery) operates on.
//!
//! # Example
//!
//! ```
//! use fuiov_nn::{ModelSpec, Tensor4};
//!
//! // Deterministic tiny CNN; same seed → same weights.
//! let spec = ModelSpec::tiny_cnn(1, 8, 4);
//! let mut model = spec.build(42);
//! let x = Tensor4::zeros(2, 1, 8, 8);
//! let (loss, grad) = model.loss_and_grad(&x, &[0, 1]);
//! assert_eq!(grad.len(), model.param_count());
//! assert!(loss > 0.0);
//! ```

pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod tensor4;

pub use model::{ModelSpec, Sequential};
pub use tensor4::Tensor4;
