//! # FUIOV — Federated Unlearning in the Internet of Vehicles
//!
//! Facade crate re-exporting the full reproduction stack of the DSN 2024
//! paper: training substrates ([`nn`], [`data`], [`tensor`]), the FL
//! simulator ([`fl`]), the socket transport ([`net`]), server-side
//! storage ([`storage`]), attacks
//! ([`attacks`]), the paper's unlearning pipeline ([`unlearn`]) and its
//! baselines ([`baselines`]), plus evaluation utilities ([`eval`]).
//!
//! The shortest end-to-end path — train, forget a vehicle, recover — in
//! one doctest:
//!
//! ```
//! use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
//! use fuiov::fl::mobility::{ChurnSchedule, Membership};
//! use fuiov::fl::{Client, FlConfig, HonestClient, Server};
//! use fuiov::nn::ModelSpec;
//! use fuiov::unlearn::{recover_set, NoOracle, RecoveryConfig};
//!
//! // 1. A tiny federation over a synthetic digit task.
//! let spec = ModelSpec::Mlp { inputs: 144, hidden: 8, classes: 10 };
//! let data = Dataset::digits(60, &DigitStyle::small(), 1);
//! let mut clients: Vec<Box<dyn Client>> = partition_iid(data.len(), 3, 1)
//!     .into_iter()
//!     .enumerate()
//!     .map(|(id, idx)| {
//!         Box::new(HonestClient::new(id, spec, data.subset(&idx), 20, 1))
//!             as Box<dyn Client>
//!     })
//!     .collect();
//!
//! // 2. Train; vehicle 2 joins at round 2 (its future backtrack target).
//! let mut schedule = ChurnSchedule::static_membership(3, 6);
//! schedule.set_membership(2, Membership { joined: 2, leaves_after: None, dropouts: vec![] });
//! let mut server = Server::new(
//!     FlConfig::new(6, 0.1).parallel_clients(false),
//!     spec.build(1).params(),
//! );
//! server.train(&mut clients, &schedule);
//!
//! // 3. Forget vehicle 2 and recover — server-side only, from the 2-bit
//! //    direction history.
//! let cfg = RecoveryConfig::new(0.01);
//! let outcome = recover_set(server.history(), &[2], &cfg, &mut NoOracle, |_, _| {})
//!     .expect("client 2 participated");
//! assert_eq!(outcome.start_round, 2);
//! assert_eq!(outcome.rounds_replayed, 4);
//! assert!(outcome.params.iter().all(|p| p.is_finite()));
//! ```
//!
//! See the repository `README.md` for the experiment reproduction matrix
//! and `DESIGN.md` for the architecture and substitution rationale.

pub use fuiov_attacks as attacks;
pub use fuiov_baselines as baselines;
pub use fuiov_core as unlearn;
pub use fuiov_data as data;
pub use fuiov_eval as eval;
pub use fuiov_fl as fl;
pub use fuiov_net as net;
pub use fuiov_nn as nn;
pub use fuiov_obs as obs;
pub use fuiov_storage as storage;
pub use fuiov_tensor as tensor;
