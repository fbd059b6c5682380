//! Quickstart for the networked plane: a 4-vehicle federation over real
//! loopback sockets — same arithmetic, same golden traces, different
//! transport.
//!
//! ```sh
//! cargo run --release --example quickstart_net
//! ```
//!
//! Knob: `FUIOV_NET_ADDR` picks the listen address (`tcp:HOST:PORT` or
//! `unix:/path.sock`; default loopback TCP, ephemeral port).

use fuiov::data::{partition::partition_iid, Dataset, DigitStyle};
use fuiov::fl::{FlConfig, HonestClient, Server};
use fuiov::net::{NetAddr, NetConfig, NetServer, NetVehicle, VehicleConfig};
use fuiov::nn::ModelSpec;
use std::time::Duration;

fn main() {
    let (seed, n_vehicles, rounds) = (42, 4, 3);

    // 1. Data and model, exactly as in the in-process quickstart.
    let style = DigitStyle::small();
    let train = Dataset::digits(n_vehicles * 30, &style, seed);
    let shards = partition_iid(train.len(), n_vehicles, seed);
    let spec = ModelSpec::Mlp {
        inputs: 144,
        hidden: 16,
        classes: 10,
    };
    let dim = spec.param_count();

    // 2. Server side: bind the listener first so vehicles have a live
    //    address to dial (port 0 = ephemeral; local_addr resolves it).
    let addr = match std::env::var("FUIOV_NET_ADDR") {
        Ok(s) if !s.is_empty() => NetAddr::parse(&s),
        _ => NetAddr::parse("tcp:127.0.0.1:0"),
    };
    let cfg = NetConfig::new(addr, n_vehicles).with_deadline(Duration::from_secs(10));
    let mut net = NetServer::bind(cfg).expect("bind listener");
    let addr = net.local_addr().clone();
    println!("server listening on {addr}");

    // 3. Vehicle side: each vehicle is its own thread dialing the server,
    //    registering, and answering round broadcasts with gradients.
    let vehicles: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(id, idx)| {
            let addr = addr.clone();
            let client = HonestClient::new(id, spec, train.subset(&idx), 30, seed);
            std::thread::spawn(move || {
                NetVehicle::new(VehicleConfig::new(addr, seed), Box::new(client), dim)
                    .run()
                    .expect("vehicle session")
            })
        })
        .collect();

    // 4. Drive the rounds. The wire layer buffers each round's uploads
    //    and reduces in client order, so this run is bitwise identical
    //    to `Server::run_round` with the same participants.
    let mut fl = Server::new(FlConfig::new(rounds, 0.1), spec.build(seed).params());
    let report = net.serve(&mut fl, rounds).expect("serve rounds");
    for v in vehicles {
        let r = v.join().expect("vehicle thread");
        println!(
            "vehicle uploaded {} round(s), {} payload bytes",
            r.uploads, r.tx_payload
        );
    }

    println!(
        "\n{} rounds with {} vehicles: broadcast {} B, uploads {} B (+{} B framing)",
        report.rounds,
        report.clients,
        report.tx_payload,
        report.rx_payload,
        report.tx_overhead + report.rx_overhead,
    );
    for s in fl.summaries() {
        println!(
            "round {}: {} participants, update norm {:.4}",
            s.round,
            s.participants.len(),
            s.update_norm
        );
    }
}
