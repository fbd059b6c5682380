//! Bitwise regression pins for the replay engine: the recovered model of a
//! deterministic synthetic run must not move, bit for bit, across refactors
//! of the recovery hot loop (per-client → batched engine).
//!
//! Run with `FUIOV_PIN_PRINT=1 cargo test -p fuiov-core --test replay_pinned
//! -- --nocapture` to print the bits for re-pinning after an *intentional*
//! numeric change.

use fuiov_core::jobs::{JobConfig, JobLog, JobService};
use fuiov_core::{recover_set, NoOracle, RecoveryConfig};
use fuiov_storage::{ClientId, HistoryStore};
use fuiov_tensor::vector;

/// The synthetic linear-optimisation history used by the recover unit
/// tests: clients pull the model toward distinct targets.
fn synthetic_history(rounds: usize, clients: usize, forgotten: ClientId) -> HistoryStore {
    let dim = 6;
    let lr = 0.05f32;
    let mut h = HistoryStore::new(1e-6);
    let mut w = vec![0.0f32; dim];
    for c in 0..clients {
        h.record_join(c, if c == forgotten { 2 } else { 0 });
        h.set_weight(c, 10.0);
    }
    for t in 0..rounds {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        for c in 0..clients {
            if c == forgotten && t < 2 {
                continue;
            }
            let target: Vec<f32> = (0..dim).map(|j| ((c + j) % 3) as f32 - 1.0).collect();
            let g = vector::sub(&w, &target);
            h.record_gradient(t, c, &g);
            grads.push(g);
        }
        let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
        let weights = vec![10.0f32; refs.len()];
        let agg = vector::weighted_mean(&refs, &weights);
        vector::axpy(-lr, &agg, &mut w);
    }
    h.record_model(rounds, w);
    h
}

fn run_bits(cfg: &RecoveryConfig) -> Vec<u32> {
    let h = synthetic_history(30, 6, 1);
    let out = recover_set(&h, &[1], cfg, &mut NoOracle, |_, _| {}).unwrap();
    // Pin the recovered params AND every per-round update norm: the norms
    // differ between configs even when the trajectories reconverge, so a
    // refactor that changes any intermediate round is caught.
    out.params
        .iter()
        .chain(out.update_norms.iter())
        .map(|v| v.to_bits())
        .collect()
}

fn check(label: &str, cfg: &RecoveryConfig, expected: &[u32]) {
    // The wide pins below read global replay counters; holding the obs
    // lock keeps this run's increments out of their windows.
    let _lock = fuiov_obs::test_lock();
    let got = run_bits(cfg);
    if std::env::var("FUIOV_PIN_PRINT").is_ok() {
        println!("PIN {label}: {got:?}");
        return;
    }
    assert_eq!(got, expected, "replay bits moved for config `{label}`");
}

#[test]
fn pinned_default_refresh5() {
    // lr off the training rate so replay does not trivially reconverge.
    let cfg = RecoveryConfig::new(0.07)
        .pair_refresh_interval(5)
        .clip_threshold(0.8);
    check("refresh5", &cfg, &EXPECT_REFRESH5);
}

#[test]
fn pinned_divergence_patience() {
    let cfg = RecoveryConfig::new(0.07)
        .pair_refresh_interval(7)
        .clip_threshold(0.8)
        .divergence_patience(Some(1));
    check("patience", &cfg, &EXPECT_PATIENCE);
}

#[test]
fn pinned_no_hessian() {
    let cfg = RecoveryConfig::new(0.07)
        .pair_refresh_interval(5)
        .clip_threshold(0.8)
        .without_hessian();
    check("no_hessian", &cfg, &EXPECT_NO_HESSIAN);
}

const EXPECT_REFRESH5: [u32; 34] = [
    0, 1048406049, 3195889697, 0, 1048406049, 3195889697, 1050924810, 1050924810, 1050924810,
    1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050621196,
    1050325783, 1050038371, 1049758763, 1049486765, 1049222186, 1048964840, 1048714548, 1048366253,
    1047892810, 1047432419, 1046984746, 1046549462, 1046126250, 1045714794, 1045314789, 1044925938,
    1044547939,
];
const EXPECT_PATIENCE: [u32; 34] = [
    0, 1035973085, 3183456733, 0, 1035973085, 3183456733, 1050924810, 1050924810, 1050924810,
    1049573376, 1048225558, 1046189754, 1044421627, 1042885134, 1041549133, 1040386704, 1038561782,
    1036797952, 1035259763, 1033917146, 1032744128, 1031637690, 1029841248, 1028266534, 1026884435,
    1025669760, 1024600730, 1023658438, 1022242957, 1020771661, 1019468288, 1018311552, 1017282995,
    1016366592,
];
const EXPECT_NO_HESSIAN: [u32; 34] = [
    0, 1050055749, 3197539397, 0, 1050055749, 3197539397, 1050924810, 1050924810, 1050924810,
    1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810,
    1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810,
    1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810, 1050924810,
    1050924810,
];

// ---------------------------------------------------------------------------
// Pins at a real dimension
// ---------------------------------------------------------------------------
//
// d = 4,099 is odd and not a multiple of 8 or 16, so every vector kernel
// runs its tail. The history has exact zeros both in the stored
// directions (gradients under the sign threshold) and in the seeded model
// differences Δw (coordinates no client's gradient ever moves), which is
// where the zero-skip rules of the L-BFGS Gram products and the inbound
// sweep matter. Observation is on, so the clip-norm histograms and the
// replay counters are pinned alongside the bits.

const WIDE_DIM: usize = 4099;
const WIDE_CLIENTS: usize = 16;
const WIDE_ROUNDS: usize = 30;
/// Joins at round 2, so backtracking lands on F = 2.
const WIDE_FORGOTTEN: ClientId = 5;

fn fnv_bits(xs: &[f32]) -> u64 {
    let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fuiov_storage::segment::fnv1a64(&bytes)
}

/// A sign-alternating federation (period 3 per coordinate, so seeded and
/// refreshed pairs keep positive curvature) with two kinds of exact zero:
/// coordinates `j % 11 == 0` carry a zero gradient for every client (the
/// model never moves there, so every seeded Δw is 0.0 at them), and each
/// client has coordinates `(c + j) % 13 == 0` whose gradient sits under
/// the sign threshold (stored direction 0 while the model still moves).
fn wide_history() -> HistoryStore {
    let mut h = HistoryStore::new(1e-6);
    for c in 0..WIDE_CLIENTS {
        h.record_join(c, if c == WIDE_FORGOTTEN { 2 } else { 0 });
        h.set_weight(c, 10.0 + c as f32);
    }
    let mut w: Vec<f32> = (0..WIDE_DIM)
        .map(|j| ((j % 17) as f32 - 8.0) * 0.01)
        .collect();
    for t in 0..WIDE_ROUNDS {
        h.record_model(t, w.clone());
        let mut grads = Vec::new();
        let mut weights = Vec::new();
        for c in 0..WIDE_CLIENTS {
            if c == WIDE_FORGOTTEN && t < 2 {
                continue;
            }
            let g: Vec<f32> = (0..WIDE_DIM)
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
    h.record_model(WIDE_ROUNDS, w);
    h
}

fn wide_config(s: usize) -> RecoveryConfig {
    RecoveryConfig::new(0.03)
        .buffer_size(s)
        .pair_refresh_interval(7)
        .clip_threshold(1.05)
}

/// What one pinned configuration must reproduce.
struct WidePin {
    params_fnv: u64,
    norms_fnv: u64,
    clip_activations: u64,
    pair_refreshes: u64,
    stack_rebuilds: u64,
    /// `(count, sum)` of `core.clip_pre_norm_micros`.
    pre: (u64, u64),
    /// `(count, sum)` of `core.clip_post_norm_micros`.
    post: (u64, u64),
    /// FNV of the last checkpoint payload a `JobService` seals.
    checkpoint_fnv: u64,
}

fn check_wide(s: usize, pin: &WidePin) {
    let _lock = fuiov_obs::test_lock();
    fuiov_obs::set_enabled(true);
    let h = wide_history();
    let cfg = wide_config(s);

    let before = fuiov_obs::Snapshot::capture();
    let out = recover_set(&h, &[WIDE_FORGOTTEN], &cfg, &mut NoOracle, |_, _| {}).unwrap();
    let window = fuiov_obs::Snapshot::capture().delta(&before);
    let hist = |name: &str| {
        window
            .histogram(name)
            .map_or((0, 0), |hs| (hs.count, hs.sum))
    };
    let got_pre = hist("core.clip_pre_norm_micros");
    let got_post = hist("core.clip_post_norm_micros");

    // The same history through the job service, checkpointing every 3
    // rounds into a log whose last sealed payload is pinned too.
    let log = JobLog::temp().expect("temp job log");
    let path = log.path().to_path_buf();
    let mut svc = JobService::with_log(JobConfig::new(cfg).checkpoint_interval(3), log, Vec::new());
    let id = svc.submit(&h, &[WIDE_FORGOTTEN]);
    svc.run_to_completion(&mut NoOracle);
    let job = svc.take_outcome(id).expect("job finished").expect("job ok");
    let (_reader, sealed) = JobLog::open(&path).expect("reopen job log");
    let last_payload = &sealed.last().expect("sealed checkpoints").2;
    let got_checkpoint = fuiov_storage::segment::fnv1a64(last_payload);
    drop(svc);

    let got = (
        fnv_bits(&out.params),
        fnv_bits(&out.update_norms),
        window.counter("core.clip_activations"),
        window.counter("core.pair_refreshes"),
        window.counter("core.stack_rebuilds"),
        got_pre,
        got_post,
        got_checkpoint,
    );
    if std::env::var("FUIOV_PIN_PRINT").is_ok() {
        println!("PIN wide s={s}: {got:?}");
        return;
    }
    assert_eq!(
        got,
        (
            pin.params_fnv,
            pin.norms_fnv,
            pin.clip_activations,
            pin.pair_refreshes,
            pin.stack_rebuilds,
            pin.pre,
            pin.post,
            pin.checkpoint_fnv,
        ),
        "wide replay pins moved at s = {s}"
    );
    assert_eq!(
        (fnv_bits(&job.params), fnv_bits(&job.update_norms)),
        (pin.params_fnv, pin.norms_fnv),
        "job-service replay diverged from the pinned one-shot bits at s = {s}"
    );
}

#[test]
fn pinned_wide_s1() {
    check_wide(1, &WIDE_S1);
}

#[test]
fn pinned_wide_s2() {
    check_wide(2, &WIDE_S2);
}

#[test]
fn pinned_wide_s3() {
    check_wide(3, &WIDE_S3);
}

const WIDE_S1: WidePin = WidePin {
    params_fnv: 17594189269339218608,
    norms_fnv: 7662508069078912448,
    clip_activations: 291,
    pair_refreshes: 44,
    stack_rebuilds: 4,
    pre: (420, 123072707315),
    post: (420, 23671313321),
    checkpoint_fnv: 7801342251873157855,
};
const WIDE_S2: WidePin = WidePin {
    params_fnv: 11701918920347260263,
    norms_fnv: 1065863596522302226,
    clip_activations: 276,
    pair_refreshes: 44,
    stack_rebuilds: 4,
    pre: (420, 174231943734),
    post: (420, 23594728114),
    checkpoint_fnv: 185016720834334551,
};
const WIDE_S3: WidePin = WidePin {
    params_fnv: 11121222114001586577,
    norms_fnv: 7648799878405304710,
    clip_activations: 292,
    pair_refreshes: 44,
    stack_rebuilds: 4,
    pre: (420, 196602994019),
    post: (420, 24083223525),
    checkpoint_fnv: 13864149958728055037,
};
