//! Scaling experiment: hierarchical RSU/edge cohorts vs flat replay.
//!
//! Trains a group-history cohort at n ∈ {10³, 10⁴, 10⁵, 10⁶} vehicles
//! (fixed 1024-vehicle leaves, 4 KB history budget) and forgets one
//! vehicle two ways on identical inputs:
//!
//! - **subtree**: [`recover_vehicle`] — ghost-client forget scoped to the
//!   vehicle's leaf; every sibling leaf replays its stored direction from
//!   the group history verbatim.
//! - **flat**: [`recover_vehicle_flat`] — the same forget replayed
//!   unscoped, Eq. 6 estimation for every leaf (what a hierarchy-blind
//!   server would do).
//!
//! Writes `BENCH_scale.json` (replay wall-clock, resident bytes, and the
//! estimated per-vehicle flat-history footprint) and prints the table.
//! Expected shape: subtree replay beats flat wherever the tree is real
//! (n ≥ 10⁴, i.e. more than one leaf), and resident bytes grow with
//! *leaves*, not vehicles.
//!
//! Usage: `cargo run --release -p fuiov-bench --bin exp_scale`

use fuiov_core::{recover_vehicle, recover_vehicle_flat, NoOracle, RecoveryConfig};
use fuiov_eval::table::Table;
use fuiov_fl::hierarchy::{run_cohort, CohortConfig, CohortRun};
use fuiov_fl::mobility::ChurnModel;
use fuiov_storage::TierConfig;
use std::fmt::Write as _;
use std::time::Instant;

const GROUP: usize = 1024;
const ROUNDS: usize = 8;
const DIM: usize = 512;

struct Row {
    n: usize,
    leaves: usize,
    tree_resident: usize,
    flat_resident_est: usize,
    subtree_ns: u128,
    flat_ns: u128,
    sibling_reuses: usize,
    rounds_replayed: usize,
}

fn cohort(n: usize) -> CohortRun {
    // Churned cohort: most vehicles are present from round 0, the rest
    // stream in. A mid-training joiner gives the forget a real backtrack
    // point (F > 0), so replay exercises Eq. 6 estimation rather than
    // degenerating to pure direction replay.
    run_cohort(
        CohortConfig::new(n)
            .group_size(GROUP)
            .dim(DIM)
            .rounds(ROUNDS)
            .seed(11)
            .churn(ChurnModel {
                arrival_prob: 0.3,
                departure_prob: 0.0,
                dropout_prob: 0.0,
                initial_active: n / 2,
            })
            .tier(TierConfig::bounded(4096)),
    )
}

/// A vehicle that joined mid-training (round 3+): its forget backtracks
/// to a round with seedable history on both sides.
fn late_joiner(run: &CohortRun) -> usize {
    let lazy = run.lazy_churn().expect("cohort has churn");
    (0..run.cfg.n_vehicles)
        .find(|&v| {
            let j = lazy.joined(v);
            (3..ROUNDS - 2).contains(&j)
        })
        .expect("some vehicle joins mid-training")
}

/// Median wall-clock of `iters` runs of `f`.
fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// What per-vehicle history would cost resident at this scale: one join
/// entry, one weight, and `ROUNDS` packed 2-bit directions per vehicle
/// (map overhead counted at a conservative 48 B/client).
fn flat_resident_estimate(n: usize) -> usize {
    n * (ROUNDS * DIM.div_ceil(4) + 48)
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.2} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    println!("== Hierarchical subtree replay vs flat replay ==");
    println!("(group {GROUP}, {ROUNDS} rounds, dim {DIM}, 4 KB history budget)\n");

    let mut rows = Vec::new();
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let run = cohort(n);
        let cfg = RecoveryConfig::new(run.cfg.lr);
        let vehicle = late_joiner(&run);
        let iters = if n >= 1_000_000 { 3 } else { 5 };
        let rec = recover_vehicle(&run, vehicle, &cfg, &mut NoOracle).expect("subtree recovery");
        let subtree_ns = median_ns(iters, || {
            recover_vehicle(&run, vehicle, &cfg, &mut NoOracle).expect("subtree recovery");
        });
        let flat_ns = median_ns(iters, || {
            recover_vehicle_flat(&run, vehicle, &cfg, &mut NoOracle).expect("flat recovery");
        });
        rows.push(Row {
            n,
            leaves: run.cfg.leaf_count(),
            tree_resident: run.peak_resident_bytes,
            flat_resident_est: flat_resident_estimate(n),
            subtree_ns,
            flat_ns,
            sibling_reuses: rec.outcome.sibling_reuses,
            rounds_replayed: rec.outcome.rounds_replayed,
        });
    }

    let mut table = Table::new(&[
        "vehicles",
        "leaves",
        "subtree replay",
        "flat replay",
        "speedup",
        "tree resident",
        "flat resident (est)",
    ]);
    for r in &rows {
        table.row(&[
            r.n.to_string(),
            r.leaves.to_string(),
            format!("{:.2} ms", r.subtree_ns as f64 / 1e6),
            format!("{:.2} ms", r.flat_ns as f64 / 1e6),
            format!("{:.2}x", r.flat_ns as f64 / r.subtree_ns as f64),
            human(r.tree_resident),
            human(r.flat_resident_est),
        ]);
    }
    println!("{table}");
    println!("expected shape: speedup > 1 at every n >= 10^4 (more than one leaf)");

    let mut json = String::from("{\n  \"meta\": {\n");
    let _ = writeln!(
        json,
        "    \"experiment\": \"exp_scale\",\n    \"group_size\": {GROUP},\n    \"rounds\": {ROUNDS},\n    \"dim\": {DIM},\n    \"history_budget_bytes\": 4096,\n    \"notes\": \"subtree = recover_vehicle (scope = forgotten vehicle's leaf, siblings replay their group-history directions); flat = recover_vehicle_flat (unscoped, every leaf estimated). flat_resident_bytes_est = what per-vehicle sign history would keep resident (2-bit dirs x rounds + 48 B map overhead per vehicle); tree_peak_resident_bytes is measured during training.\""
    );
    json.push_str("  },\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n_vehicles\": {}, \"leaves\": {}, \"subtree_replay_ns\": {}, \"flat_replay_ns\": {}, \"speedup\": {:.3}, \"tree_peak_resident_bytes\": {}, \"flat_resident_bytes_est\": {}, \"rounds_replayed\": {}, \"sibling_reuses\": {}}}{}",
            r.n,
            r.leaves,
            r.subtree_ns,
            r.flat_ns,
            r.flat_ns as f64 / r.subtree_ns as f64,
            r.tree_resident,
            r.flat_resident_est,
            r.rounds_replayed,
            r.sibling_reuses,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");

    for r in &rows {
        if r.leaves > 1 {
            assert!(
                r.flat_ns > r.subtree_ns,
                "subtree replay must beat flat at n = {} ({} vs {} ns)",
                r.n,
                r.subtree_ns,
                r.flat_ns
            );
        }
    }
}
