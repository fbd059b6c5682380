//! Property-based robustness tests: recovery must behave sanely on
//! arbitrary (even adversarial) histories — no panics on valid inputs, no
//! NaNs out, clip bounds respected.

use fuiov_core::{
    backtrack_set, recover_set, LbfgsApprox, NoOracle, PairBuffer, RecoveryConfig, RoundScratch,
    StackedLbfgs,
};
use fuiov_storage::{segment, ClientId, HistoryStore};
use fuiov_tensor::Mat;
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a random but *valid* history: `rounds+1` models of dimension
/// `dim`, every client joins at a random round and reports gradients from
/// then on.
fn arb_history(
    dim: usize,
    rounds: usize,
    clients: usize,
) -> impl Strategy<Value = (HistoryStore, Vec<usize>)> {
    let models = prop::collection::vec(prop::collection::vec(-1.0f32..1.0, dim), rounds + 1);
    let joins = prop::collection::vec(0usize..rounds, clients);
    let grads = prop::collection::vec(
        prop::collection::vec(prop::collection::vec(-1.0f32..1.0, dim), rounds),
        clients,
    );
    (models, joins, grads).prop_map(move |(models, joins, grads)| {
        let mut h = HistoryStore::new(1e-3);
        for (t, m) in models.into_iter().enumerate() {
            h.record_model(t, m);
        }
        for (c, &join) in joins.iter().enumerate() {
            h.record_join(c, join);
            for (t, g) in grads[c].iter().enumerate().take(rounds).skip(join) {
                h.record_gradient(t, c, g);
            }
        }
        (h, joins)
    })
}

/// One stacked client of [`shared_rows_stack_once_and_sweep_like_copies`]:
/// its pairs as deep copies, and its approximation over shared rows.
struct SharingClient {
    id: ClientId,
    dws: Vec<Vec<f32>>,
    dgs: Vec<Vec<f32>>,
    /// Whether pair j's ΔW is the pool's shared row j.
    pooled: Vec<bool>,
    approx: LbfgsApprox,
}

/// The fingerprint's definition, built whole as the logical per-client
/// byte sequence: dimension and client count; each client's id, `Σ 2s`
/// offset, pair count and σ bits; then each client's ΔG rows and its ΔW
/// rows.
fn reference_fingerprint(dim: usize, clients: &[SharingClient]) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(dim as u64).to_le_bytes());
    bytes.extend_from_slice(&(clients.len() as u64).to_le_bytes());
    let mut offset = 0u64;
    for c in clients {
        bytes.extend_from_slice(&(c.id as u64).to_le_bytes());
        bytes.extend_from_slice(&offset.to_le_bytes());
        bytes.extend_from_slice(&(c.dws.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&c.approx.sigma().to_bits().to_le_bytes());
        offset += 2 * c.dws.len() as u64;
    }
    for c in clients {
        for x in c.dgs.iter().chain(&c.dws).flatten() {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    segment::fnv1a64(&bytes)
}

/// A row's dot with `v` as the stacked sweep defines it: `tr_matvec` of
/// the row taken as a one-column matrix.
fn one_row_dot(row: &[f32], v: &[f32]) -> f32 {
    Mat::from_vec(row.len(), 1, row.to_vec()).tr_matvec(v)[0]
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recovery on any valid random history terminates with finite
    /// parameters, correct round accounting, and (with tiny L) bounded
    /// per-round updates.
    #[test]
    fn recovery_is_total_and_finite((h, joins) in arb_history(6, 8, 3)) {
        let forgotten = 0usize;
        let cfg = RecoveryConfig::new(0.05);
        match recover_set(&h, &[forgotten], &cfg, &mut NoOracle, |_, _| {}) {
            Ok(out) => {
                prop_assert!(out.params.iter().all(|v| v.is_finite()));
                prop_assert_eq!(out.start_round, joins[0]);
                prop_assert_eq!(out.rounds_replayed, 8 - joins[0]);
                prop_assert_eq!(out.update_norms.len(), out.rounds_replayed);
            }
            // Joining at the last recorded round means nothing to recover.
            Err(fuiov_core::UnlearnError::NothingToRecover { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// With clip threshold L, every aggregated update norm is at most
    /// √dim · L (element-wise bound through FedAvg).
    #[test]
    fn clip_bound_holds_on_random_histories((h, _) in arb_history(5, 6, 3), l in 0.01f32..0.5) {
        let cfg = RecoveryConfig::new(1.0).clip_threshold(l);
        if let Ok(out) = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}) {
            let bound = (5.0f32).sqrt() * l + 1e-5;
            for n in out.update_norms {
                prop_assert!(n <= bound, "norm {n} exceeds bound {bound}");
            }
        }
    }

    /// Backtracking a set equals the minimum of individual backtracks,
    /// and its params match the stored model at that round.
    #[test]
    fn set_backtrack_is_min_of_singletons((h, joins) in arb_history(4, 6, 3)) {
        let bt_all = backtrack_set(&h, &[0, 1, 2]).unwrap();
        let min_join = *joins.iter().min().unwrap();
        prop_assert_eq!(bt_all.join_round, min_join);
        prop_assert_eq!(&bt_all.params[..], &*h.model(min_join).unwrap());
    }

    /// Recovery is deterministic: same history, same config, same output.
    #[test]
    fn recovery_is_deterministic((h, _) in arb_history(5, 7, 3)) {
        let cfg = RecoveryConfig::new(0.02);
        let a = recover_set(&h, &[2], &cfg, &mut NoOracle, |_, _| {});
        let b = recover_set(&h, &[2], &cfg, &mut NoOracle, |_, _| {});
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.params, y.params),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "determinism violated in error path"),
        }
    }

    /// The batched recovery engine's stacked HVP is bit-for-bit the
    /// per-client [`LbfgsApprox::hvp`] for every stacked client, across
    /// random client counts, pair counts, and dimensions — the invariant
    /// that lets `recover_set` swap one for the other without moving the
    /// golden trace.
    #[test]
    fn stacked_hvp_is_bitwise_per_client_hvp(
        dim in 3usize..48,
        pair_counts in prop::collection::vec(1usize..=3, 1..=6),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        // Pairs with dg a positive per-coordinate scaling of dw are always
        // well-conditioned; clients whose factorisation still fails are
        // simply left unstacked (mirroring recover_set's fallback).
        let approxes: Vec<(ClientId, LbfgsApprox)> = pair_counts
            .iter()
            .enumerate()
            .filter_map(|(c, &s)| {
                let dws: Vec<Vec<f32>> =
                    (0..s).map(|_| (0..dim).map(|_| next()).collect()).collect();
                let dgs: Vec<Vec<f32>> = dws
                    .iter()
                    .map(|w| {
                        w.iter()
                            .enumerate()
                            .map(|(i, x)| x * (1.0 + (i % 4) as f32 * 0.5))
                            .collect()
                    })
                    .collect();
                LbfgsApprox::new(&dws, &dgs).ok().map(|a| (c, a))
            })
            .collect();
        prop_assume!(!approxes.is_empty());
        // Shared round vector with exact zeros planted (the zero-skip in
        // the inbound pass must agree between the two paths).
        let v: Vec<f32> =
            (0..dim).map(|i| if i % 7 == 0 { 0.0 } else { next() }).collect();

        let stacked = StackedLbfgs::build(dim, approxes.iter().map(|(c, a)| (*c, a)));
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&v, &mut scratch.dots);
        stacked.solve_middles(&scratch.dots, &mut scratch.ps, &mut scratch.rhs, &mut scratch.p);
        let mut batched = vec![0.0f32; dim];
        for (client, approx) in &approxes {
            let entry = stacked.entry_for(*client).expect("client was stacked");
            stacked.write_hvp(entry, &scratch.ps, &v, &mut batched);
            let per_client = approx.hvp(&v);
            prop_assert_eq!(
                batched.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
                per_client.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
                "client {} diverged from per-client hvp", client
            );
        }
    }

    /// Clients whose pairs share ΔW rows — all of them, some, or none —
    /// stack each shared row once, and the stack still sweeps every
    /// client exactly like a lone approximation over deep copies of its
    /// pairs. Client k takes pair j's ΔW from a common pool when bit j of
    /// its mask is set; otherwise from a row of its own, which may be a
    /// bitwise copy of the pool row (equal content is not sharing).
    #[test]
    fn shared_rows_stack_once_and_sweep_like_copies(
        dim in 3usize..40,
        specs in prop::collection::vec((1usize..=4, 0u8..16, any::<bool>()), 1..=7),
        mode in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let pool: Vec<Arc<[f32]>> = (0..4).map(|_| (0..dim).map(|_| next()).collect()).collect();
        let clients: Vec<SharingClient> = specs
            .iter()
            .enumerate()
            .filter_map(|(id, &(s, mask, copy_pool))| {
                let mask = [0b1111, 0, mask][mode];
                let pooled: Vec<bool> = (0..s).map(|j| mask & (1 << j) != 0).collect();
                let mut buf = PairBuffer::new(s);
                let (mut dws, mut dgs) = (Vec::new(), Vec::new());
                for (j, &shared) in pooled.iter().enumerate() {
                    let dw: Arc<[f32]> = if shared {
                        Arc::clone(&pool[j])
                    } else if copy_pool {
                        Arc::from(pool[j].to_vec())
                    } else {
                        (0..dim).map(|_| next()).collect()
                    };
                    // A positive per-coordinate scaling: positive curvature.
                    let dg: Vec<f32> = dw
                        .iter()
                        .enumerate()
                        .map(|(i, x)| x * (1.0 + ((i + id) % 4) as f32 * 0.5))
                        .collect();
                    dws.push(dw.to_vec());
                    dgs.push(dg.clone());
                    buf.push(dw, dg);
                }
                // A client whose pairs do not factor stays unstacked, as in
                // the replay's fallback.
                let approx = buf.approximation().ok()?;
                Some(SharingClient { id, dws, dgs, pooled, approx })
            })
            .collect();
        prop_assume!(!clients.is_empty());
        // Exact zeros of both signs in v: the inbound skip.
        let v: Vec<f32> = (0..dim)
            .map(|i| match i % 7 {
                0 => 0.0,
                3 => -0.0,
                _ => next(),
            })
            .collect();

        let stacked = StackedLbfgs::build(dim, clients.iter().map(|c| (c.id, &c.approx)));

        // Σ sᵢ ΔG rows, plus one row per distinct ΔW handle: every own row
        // and every pool row some stacked client uses.
        let sum_s: usize = clients.iter().map(|c| c.dws.len()).sum();
        let own = clients.iter().flat_map(|c| &c.pooled).filter(|&&p| !p).count();
        let pooled = (0..4)
            .filter(|&j| clients.iter().any(|c| c.pooled.get(j) == Some(&true)))
            .count();
        prop_assert_eq!(stacked.total_columns(), sum_s + own + pooled);

        // The documented layout: every client's ΔG rows in client order,
        // then each distinct ΔW row once, in order of first use.
        let mut layout: Vec<&[f32]> =
            clients.iter().flat_map(|c| c.dgs.iter().map(Vec::as_slice)).collect();
        let mut pool_used = [false; 4];
        for c in &clients {
            for (j, dw) in c.dws.iter().enumerate() {
                if c.pooled[j] && std::mem::replace(&mut pool_used[j], true) {
                    continue;
                }
                layout.push(dw);
            }
        }
        let mut scratch = RoundScratch::new();
        stacked.fused_dots(&v, &mut scratch.dots);
        let want_dots: Vec<f32> = layout.iter().map(|r| one_row_dot(r, &v)).collect();
        prop_assert_eq!(bits(&scratch.dots), bits(&want_dots));
        stacked.solve_middles(&scratch.dots, &mut scratch.ps, &mut scratch.rhs, &mut scratch.p);

        let mut offset = 0;
        let mut out = vec![0.0f32; dim];
        for c in &clients {
            let copy = LbfgsApprox::new(&c.dws, &c.dgs).expect("deep copy builds");
            // The middle solution of a one-client stack of the copies.
            let alone = StackedLbfgs::build(dim, [(c.id, &copy)]);
            let mut solo = RoundScratch::new();
            alone.fused_dots(&v, &mut solo.dots);
            alone.solve_middles(&solo.dots, &mut solo.ps, &mut solo.rhs, &mut solo.p);
            let width = 2 * c.dws.len();
            prop_assert_eq!(bits(&scratch.ps[offset..offset + width]), bits(&solo.ps));
            offset += width;

            let entry = stacked.entry_for(c.id).expect("client was stacked");
            stacked.write_hvp(entry, &scratch.ps, &v, &mut out);
            prop_assert_eq!(bits(&out), bits(&copy.hvp(&v)), "client {}", c.id);
        }
        prop_assert_eq!(stacked.fingerprint(), reference_fingerprint(dim, &clients));
    }

    /// Disabling the Hessian keeps estimates inside the clip box exactly:
    /// raw directions are ±1, so with L ≥ 1 the replay is untouched and
    /// the update equals the weighted mean of stored directions.
    #[test]
    fn sign_replay_update_norm_is_bounded_by_dim((h, _) in arb_history(4, 5, 2)) {
        let cfg = RecoveryConfig::new(0.1).without_hessian();
        if let Ok(out) = recover_set(&h, &[0], &cfg, &mut NoOracle, |_, _| {}) {
            // Elements of the aggregate are means of {−1,0,1} → |·| ≤ 1.
            let bound = 2.0f32 + 1e-5; // √4 · 1
            for n in out.update_norms {
                prop_assert!(n <= bound);
            }
        }
    }
}
