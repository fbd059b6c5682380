//! Poisoning attacks and attack-success evaluation (§V-A2).
//!
//! The paper samples 20 % of clients as malicious and runs two data
//! poisoning attacks on the MNIST task:
//!
//! - [`label_flip`]: relabel digit '7' training images to '1';
//! - [`backdoor`]: stamp a 3×3 pixel trigger and relabel to class '2'.
//!
//! Attackers are ordinary FL clients over poisoned datasets — see
//! [`client::label_flip_client`] / [`client::backdoor_client`] — plus a
//! gradient-[`client::ScalingAttacker`] extension for model-poisoning
//! ablations. [`eval`] computes the attack success rate metric used in
//! Fig. 1, and [`reconstruction`] mounts the gradient-difference probe
//! ("Verifiably Forgotten?", arXiv 2505.11097) against the stored 2-bit
//! sign history — the scenario lab's `recon.*` eval column.

pub mod backdoor;
pub mod client;
pub mod eval;
pub mod label_flip;
pub mod reconstruction;

pub use backdoor::{Backdoor, Corner, Trigger};
pub use client::{backdoor_client, label_flip_client, ScalingAttacker};
pub use eval::{backdoor_asr, label_flip_asr};
pub use label_flip::LabelFlip;
pub use reconstruction::{
    direction_agreement, majority_direction, reconstruct_update, reconstruction_error,
};
