//! Synthetic datasets and federated partitioning for the FUIOV stack.
//!
//! Real MNIST/GTSRB are unavailable offline, so this crate provides
//! procedurally generated substitutes (see `DESIGN.md` §2 for the
//! substitution rationale):
//!
//! - [`synth_digits`]: a 10-class digit-glyph task standing in for MNIST;
//! - [`synth_signs`]: a 12-class traffic-sign task standing in for GTSRB;
//! - [`dataset`]: the in-memory [`Dataset`] container with batching;
//! - [`partition`]: IID and Dirichlet non-IID splits across FL clients;
//! - [`image`]: the tiny rasteriser behind the generators.
//!
//! # Example
//!
//! ```
//! use fuiov_data::{Dataset, DigitStyle, partition::partition_iid};
//!
//! let ds = Dataset::digits(100, &DigitStyle::small(), 42);
//! let shards = partition_iid(ds.len(), 5, 42);
//! assert_eq!(shards.len(), 5);
//! let client0 = ds.subset(&shards[0]);
//! assert_eq!(client0.len(), 20);
//! ```

pub mod dataset;
pub mod image;
pub mod partition;
pub mod synth_digits;
pub mod synth_sensors;
pub mod synth_signs;

pub use dataset::Dataset;
pub use image::Image;
pub use synth_digits::DigitStyle;
pub use synth_sensors::SensorStyle;
pub use synth_signs::SignStyle;
