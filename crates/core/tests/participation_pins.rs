//! Bitwise replay pins on federations with ragged participation.
//!
//! The L-BFGS pairs of two clients share their model difference `ΔW`
//! exactly when both took part in the rounds the pairs came from: the
//! seed rounds before `F` and every pair refresh. These histories break
//! that symmetry on purpose. Clients miss one or both seed rounds, miss
//! refresh rounds, join late, and drop out of random replay rounds, so
//! the clients' pair sets overlap in every pattern. The recovered model
//! and its update norms are pinned for the one-shot replay, and the same
//! job must reproduce them when it is resumed at every checkpoint
//! boundary, from memory and from a reopened log. The random masks also
//! vary the roster length from round to round, so replay blocks end in
//! tails of every length; the clip observations (pre- and post-clip norm
//! histograms and clip activations) are pinned too, at pool widths 1 and
//! 3, and the recovered bits must not depend on whether observation is
//! on.
//!
//! Run with `FUIOV_PIN_PRINT=1 cargo test -p fuiov-core --test
//! participation_pins -- --nocapture` to print the values.

use fuiov_core::jobs::{JobConfig, JobLog, JobService};
use fuiov_core::{recover_set, NoOracle, RecoveryConfig, RecoveryOutcome};
use fuiov_obs::Snapshot;
use fuiov_storage::{segment, ClientId, HistoryStore};
use fuiov_tensor::{pool, vector};
use std::path::PathBuf;

const DIM: usize = 131;
const CLIENTS: usize = 9;
const ROUNDS: usize = 22;
/// Joins at round 4, so backtracking lands on F = 4.
const FORGOTTEN: ClientId = 4;
const F: usize = 4;
/// Joins after F: no direction at F or in any seed round.
const LATE: ClientId = 7;
const LATE_JOIN: usize = 6;
/// Pair refreshes land on replay rounds with `(t − F + 1) % 3 == 0`.
const REFRESH_INTERVAL: usize = 3;

/// One pinned federation: its seed and recovery knobs, and the pins.
struct Case {
    seed: u64,
    buffer_size: usize,
    clip: f32,
    patience: Option<usize>,
    params_fnv: u64,
    norms_fnv: u64,
    /// FNV of the whole job log an uninterrupted run with checkpoint
    /// interval 2 leaves behind: every sealed payload's bytes.
    log_fnv: u64,
}

const CASES: [Case; 3] = [
    Case {
        seed: 1,
        buffer_size: 2,
        clip: 1.0,
        patience: None,
        params_fnv: 17486328255135470347,
        norms_fnv: 8052806775623632271,
        log_fnv: 5233992168486190290,
    },
    Case {
        seed: 2,
        buffer_size: 2,
        clip: 0.9,
        patience: None,
        params_fnv: 3234450863192261686,
        norms_fnv: 10614236174448418064,
        log_fnv: 10122578052699140170,
    },
    Case {
        seed: 3,
        buffer_size: 3,
        clip: 0.95,
        patience: Some(2),
        params_fnv: 14120430415464094648,
        norms_fnv: 5817439625602106799,
        log_fnv: 2871046834852416106,
    },
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn is_refresh_round(t: usize) -> bool {
    t >= F && (t - F + 1).is_multiple_of(REFRESH_INTERVAL)
}

/// Which clients report in round `t`. Fixed roles: client 0 misses the
/// first seed round, client 1 misses every seed round, client 2 misses
/// every other refresh round, and the late joiner is absent until it
/// joins. On top of that every non-forgotten client drops out of about
/// one replay round in six, drawn from `seed`.
fn mask(seed: u64) -> Vec<Vec<bool>> {
    let mut state = seed;
    (0..ROUNDS)
        .map(|t| {
            (0..CLIENTS)
                .map(|c| {
                    let draw = splitmix(&mut state) % 6;
                    if c == FORGOTTEN {
                        return t >= F;
                    }
                    if c == LATE && t < LATE_JOIN {
                        return false;
                    }
                    if c == 0 && t == F - 2 || c == 1 && t < F {
                        return false;
                    }
                    if c == 2
                        && is_refresh_round(t)
                        && (t - F + 1).is_multiple_of(2 * REFRESH_INTERVAL)
                    {
                        return false;
                    }
                    !(t >= F && draw == 0)
                })
                .collect()
        })
        .collect()
}

/// A sign-alternating federation (period 3 per coordinate, so pairs keep
/// positive curvature) with exact zeros in the gradients at `j % 11 == 0`
/// (so every ΔW is zero there) and per-client coordinates under the sign
/// threshold.
fn history(seed: u64) -> HistoryStore {
    let present = mask(seed);
    let mut h = HistoryStore::new(1e-6);
    for c in 0..CLIENTS {
        let join = match c {
            FORGOTTEN => F,
            LATE => LATE_JOIN,
            _ => 0,
        };
        h.record_join(c, join);
        h.set_weight(c, 10.0 + c as f32);
    }
    let mut w: Vec<f32> = (0..DIM).map(|j| ((j % 17) as f32 - 8.0) * 0.01).collect();
    for (t, row) in present.iter().enumerate() {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        let mut weights = Vec::new();
        for c in (0..CLIENTS).filter(|&c| row[c]) {
            let g: Vec<f32> = (0..DIM)
                .map(|j| {
                    if j % 11 == 0 {
                        return 0.0;
                    }
                    let sign = if (t + j + c) % 3 < 2 { 1.0f32 } else { -1.0 };
                    let mag = 0.5 + 0.03 * c as f32 + 0.001 * (j % 29) as f32;
                    if (c + j) % 13 == 0 {
                        sign * 1e-7
                    } else {
                        sign * mag
                    }
                })
                .collect();
            h.record_gradient(t, c, &g);
            grads.push(g);
            weights.push(10.0 + c as f32);
        }
        let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
        let agg = vector::weighted_mean(&refs, &weights);
        vector::axpy(-0.02, &agg, &mut w);
    }
    h.record_model(ROUNDS, w);
    h
}

fn config(case: &Case) -> RecoveryConfig {
    RecoveryConfig::new(0.03)
        .buffer_size(case.buffer_size)
        .pair_refresh_interval(REFRESH_INTERVAL)
        .clip_threshold(case.clip)
        .divergence_patience(case.patience)
}

fn fnv_bits(xs: &[f32]) -> u64 {
    let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    segment::fnv1a64(&bytes)
}

fn fnvs(out: &RecoveryOutcome) -> (u64, u64) {
    (fnv_bits(&out.params), fnv_bits(&out.update_norms))
}

fn log_path(tag: &str, seed: u64) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fuiov-participation-{tag}-{seed}-{}-{n}.seg",
        std::process::id()
    ))
}

fn take(svc: &mut JobService, id: u64) -> RecoveryOutcome {
    svc.take_outcome(id)
        .expect("job finished")
        .expect("job succeeded")
}

/// The one-shot replay, plus the FNV of an uninterrupted job's log.
fn pinned_values(case: &Case, h: &HistoryStore) -> (u64, u64, u64) {
    let cfg = config(case);
    let out = recover_set(h, &[FORGOTTEN], &cfg, &mut NoOracle, |_, _| {}).expect("recovers");
    let path = log_path("pin", case.seed);
    {
        let (log, logged) = JobLog::open(&path).expect("open log");
        let mut svc = JobService::with_log(JobConfig::new(cfg).checkpoint_interval(2), log, logged);
        let id = svc.submit(h, &[FORGOTTEN]);
        svc.run_to_completion(&mut NoOracle);
        assert_eq!(fnvs(&take(&mut svc, id)), fnvs(&out), "seed {}", case.seed);
    }
    let log = std::fs::read(&path).expect("read log");
    std::fs::remove_file(&path).ok();
    let (params, norms) = fnvs(&out);
    (params, norms, segment::fnv1a64(&log))
}

#[test]
fn ragged_participation_replay_is_pinned() {
    // Every test here holds the obs lock, so the observation pins below
    // see only their own run's counts.
    let _lock = fuiov_obs::test_lock();
    for case in &CASES {
        let h = history(case.seed);
        let got = pinned_values(case, &h);
        if std::env::var("FUIOV_PIN_PRINT").is_ok() {
            println!("PIN seed {}: {got:?}", case.seed);
            continue;
        }
        assert_eq!(
            got,
            (case.params_fnv, case.norms_fnv, case.log_fnv),
            "replay pins moved at seed {}",
            case.seed
        );
    }
}

#[test]
fn preempting_at_every_boundary_reproduces_the_pins() {
    let _lock = fuiov_obs::test_lock();
    for case in &CASES {
        let h = history(case.seed);
        let mut svc = JobService::new(JobConfig::new(config(case)).checkpoint_interval(1));
        let id = svc.submit(&h, &[FORGOTTEN]);
        let mut steps = 0;
        while svc.step(&mut NoOracle) {
            svc.preempt(id);
            steps += 1;
            assert!(steps < 1_000, "seed {}: no progress", case.seed);
        }
        let got = fnvs(&take(&mut svc, id));
        if std::env::var("FUIOV_PIN_PRINT").is_ok() {
            println!("PIN preempt seed {}: {got:?}", case.seed);
            continue;
        }
        assert_eq!(got, (case.params_fnv, case.norms_fnv), "seed {}", case.seed);
    }
}

#[test]
fn crashing_at_every_step_and_reopening_the_log_reproduces_the_pins() {
    let _lock = fuiov_obs::test_lock();
    for case in &CASES {
        let h = history(case.seed);
        let cfg = || JobConfig::new(config(case)).checkpoint_interval(2);
        let total = {
            let mut svc = JobService::new(cfg());
            svc.submit(&h, &[FORGOTTEN]);
            let mut total = 1;
            while svc.step(&mut NoOracle) {
                total += 1;
                assert!(total < 1_000, "seed {}: no progress", case.seed);
            }
            total
        };
        for kill_at in 0..=total {
            let path = log_path("crash", case.seed);
            {
                let (log, logged) = JobLog::open(&path).expect("open log");
                let mut svc = JobService::with_log(cfg(), log, logged);
                svc.submit(&h, &[FORGOTTEN]);
                for _ in 0..kill_at {
                    svc.step(&mut NoOracle);
                }
            }
            let (log, logged) = JobLog::open(&path).expect("reopen log");
            let mut svc = JobService::with_log(cfg(), log, logged);
            let id = svc.submit(&h, &[FORGOTTEN]);
            svc.run_to_completion(&mut NoOracle);
            let got = fnvs(&take(&mut svc, id));
            drop(svc);
            std::fs::remove_file(&path).ok();
            if std::env::var("FUIOV_PIN_PRINT").is_ok() {
                continue;
            }
            assert_eq!(
                got,
                (case.params_fnv, case.norms_fnv),
                "seed {} kill_at {kill_at}",
                case.seed
            );
        }
    }
}

/// One federation's clip observations with obs on: `(count, sum)` of
/// `core.clip_pre_norm_micros` and of `core.clip_post_norm_micros`, and
/// `core.clip_activations`.
type ObsPin = ((u64, u64), (u64, u64), u64);

/// Parallel to `CASES`.
const OBS_PINS: [ObsPin; 3] = [
    ((115, 2014907734), (115, 1103867231), 78),
    ((108, 3175684930), (108, 908540458), 101),
    ((123, 1350681679), (123, 1192459686), 120),
];

#[test]
fn clip_observations_are_pinned_at_widths_1_and_3() {
    let _lock = fuiov_obs::test_lock();
    for (case, pin) in CASES.iter().zip(&OBS_PINS) {
        let h = history(case.seed);
        let cfg = config(case);
        for width in [1, 3] {
            pool::set_threads(width);
            fuiov_obs::set_enabled(true);
            let before = Snapshot::capture();
            let observed =
                recover_set(&h, &[FORGOTTEN], &cfg, &mut NoOracle, |_, _| {}).expect("recovers");
            let window = Snapshot::capture().delta(&before);
            fuiov_obs::set_enabled(false);
            let silent =
                recover_set(&h, &[FORGOTTEN], &cfg, &mut NoOracle, |_, _| {}).expect("recovers");
            fuiov_obs::set_enabled(true);
            pool::set_threads(0);
            let hist = |name: &str| {
                window
                    .histogram(name)
                    .map_or((0, 0), |hs| (hs.count, hs.sum))
            };
            let got = (
                hist("core.clip_pre_norm_micros"),
                hist("core.clip_post_norm_micros"),
                window.counter("core.clip_activations"),
            );
            assert_eq!(
                fnvs(&silent),
                fnvs(&observed),
                "seed {} width {width}: observation moved the recovered bits",
                case.seed
            );
            if std::env::var("FUIOV_PIN_PRINT").is_ok() {
                println!("PIN obs seed {} width {width}: {got:?}", case.seed);
                continue;
            }
            assert_eq!(
                fnvs(&observed),
                (case.params_fnv, case.norms_fnv),
                "seed {} width {width}",
                case.seed
            );
            assert_eq!(
                got, *pin,
                "clip observations moved at seed {} width {width}",
                case.seed
            );
        }
    }
}
