//! Federated-learning simulator for the IoV setting.
//!
//! Implements the paper's §III-A training loop — RSU as server, vehicles
//! as clients, FedAvg aggregation (Eq. 1–2) — plus the IoV dynamics that
//! motivate the unlearning scheme: vehicles join mid-training, drop out of
//! individual rounds, and permanently depart ([`mobility`]).
//!
//! During training the server records everything the unlearning pipeline
//! later consumes (via [`fuiov_storage::HistoryStore`]): per-round global
//! models, per-client gradient directions, join rounds and FedAvg weights.
//!
//! # Example
//!
//! ```
//! use fuiov_fl::{Client, FlConfig, HonestClient, Server};
//! use fuiov_fl::mobility::ChurnSchedule;
//! use fuiov_data::{Dataset, DigitStyle};
//! use fuiov_nn::ModelSpec;
//!
//! let spec = ModelSpec::Mlp { inputs: 144, hidden: 8, classes: 10 };
//! let data = Dataset::digits(40, &DigitStyle::small(), 1);
//! let mut clients: Vec<Box<dyn Client>> = (0..2)
//!     .map(|id| {
//!         let shard = data.subset(&(id * 20..(id + 1) * 20).collect::<Vec<_>>());
//!         Box::new(HonestClient::new(id, spec, shard, 10, 1)) as Box<dyn Client>
//!     })
//!     .collect();
//! let mut server = Server::new(FlConfig::new(3, 0.1), spec.build(0).params());
//! server.train(&mut clients, &ChurnSchedule::static_membership(2, 3));
//! assert_eq!(server.history().rounds().len(), 4); // models w_0..w_3
//! ```

pub mod aggregate;
pub mod client;
pub mod comms;
pub mod config;
pub mod hierarchy;
pub mod mobility;
pub mod rsa;
pub mod server;

pub use client::{Client, HonestClient};
pub use comms::CommsReport;
pub use config::{AggregationRule, FlConfig};
pub use hierarchy::{AggregationTree, CohortConfig, CohortRun, VehicleForget};
pub use server::{ForgetRequest, Server, Upload};
