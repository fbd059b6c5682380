//! Networked FL plane for the IoV federated-unlearning stack.
//!
//! Moves the §III-A round loop onto real sockets — TCP or Unix-domain —
//! without forking any round arithmetic: the wire is a *transport seam*
//! in front of [`fuiov_fl::Server`], which still owns aggregation, the
//! Eq. 2 step, history recording, and byte accounting.
//!
//! The protocol is the storage tier's own FUSG framing
//! ([`fuiov_storage::segment`]) promoted to the wire: every message is a
//! sealed record (word-wise FNV-1a trailer), so torn frames and bit rot
//! arrive as the same typed errors the segment codec already has, and the
//! round-pipeline payloads are byte-for-byte the quantities
//! [`fuiov_fl::comms`] accounts — a model broadcast is exactly `4·d`
//! payload bytes, a 2-bit sign upload exactly `⌈d/4⌉`.
//!
//! Determinism is restored at one boundary (see [`server`]): uploads are
//! buffered per round and reduced in flat client order, so a networked
//! round is bitwise identical to the in-process loop for the same
//! participation set.
//!
//! The plane reads no environment: [`NetConfig`] and [`VehicleConfig`]
//! take every setting by value, with the defaults
//! [`server::DEFAULT_ROUND_DEADLINE`] and [`server::DEFAULT_MAX_THREADS`]
//! changed through their `with_*` builders. A binary that wants an
//! address from its environment parses it with [`NetAddr::parse`].
//!
//! # Example
//!
//! ```
//! use fuiov_net::{NetAddr, NetConfig, NetServer, NetVehicle, VehicleConfig};
//! use fuiov_fl::{Client, FlConfig, HonestClient, Server};
//! use fuiov_data::{Dataset, DigitStyle};
//! use fuiov_nn::ModelSpec;
//!
//! let spec = ModelSpec::Mlp { inputs: 144, hidden: 4, classes: 10 };
//! let dim = spec.build(0).params().len();
//! let mut net = NetServer::bind(NetConfig::new(
//!     NetAddr::parse("tcp:127.0.0.1:0"),
//!     2,
//! ))
//! .unwrap();
//! let addr = net.local_addr().clone();
//! let vehicles: Vec<_> = (0..2)
//!     .map(|id| {
//!         let addr = addr.clone();
//!         std::thread::spawn(move || {
//!             let data = Dataset::digits(20, &DigitStyle::small(), id as u64);
//!             let spec = ModelSpec::Mlp { inputs: 144, hidden: 4, classes: 10 };
//!             let dim = spec.build(0).params().len();
//!             let client = Box::new(HonestClient::new(id, spec, data, 10, 1));
//!             NetVehicle::new(VehicleConfig::new(addr, 7), client, dim)
//!                 .run()
//!                 .unwrap()
//!         })
//!     })
//!     .collect();
//! let mut fl = Server::new(FlConfig::new(2, 0.1), spec.build(0).params());
//! let report = net.serve(&mut fl, 2).unwrap();
//! assert_eq!(fl.round(), 2);
//! assert_eq!(report.rx_payload, 2 * 2 * 4 * dim as u64);
//! for v in vehicles {
//!     v.join().unwrap();
//! }
//! ```

pub mod registry;
pub mod server;
pub mod transport;
pub mod vehicle;
pub mod wire;

pub use registry::{Registration, Registry};
pub use server::{NetConfig, NetError, NetRunReport, NetServer, UploadMode};
pub use transport::{Conn, Listener, NetAddr};
pub use vehicle::{NetVehicle, RetryPolicy, VehicleConfig, VehicleReport};
pub use wire::{ControlCode, Message, WireError};
