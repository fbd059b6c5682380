//! Seeded synthetic training history at paper shape.
//!
//! Training the paper's MNIST CNN for `T = 100` rounds costs about 9 s per
//! round, so the forget workloads replay a synthetic history instead. It
//! models each client as a separable quadratic: client `c` pulls
//! coordinate `j` toward its own target `θ_cj` with curvature `h_j`, so its
//! true gradient is `h_j (w_j − θ_cj)`. The server records the model and
//! the 2-bit direction of every client's gradient each round, then steps
//! the model with the FedAvg of the *true* gradients, as real training
//! does.
//!
//! The trajectory moves every coordinate monotonically toward the weighted
//! mean target, and the sign function is monotone, so every stored pair
//! `(w_r − w_F, sign g_r − sign g_F)` has non-negative curvature, positive
//! as soon as one coordinate crossed a client's target between the two
//! rounds. The start point sits inside the spread of targets so that many
//! do. Most clients therefore hold a live L-BFGS approximation from round
//! `F` on, and replay exercises Eq. 6 rather than the raw-direction
//! fallback (an alternating-sign generator left 67 % of client-rounds on
//! the fallback at this shape).

use fuiov_storage::{ClientId, HistoryStore, Round, TierConfig};

/// Sign threshold `δ` of the recorded directions (the server default).
pub const SIGN_DELTA: f32 = 1e-6;

/// Server learning rate of the synthetic training run.
const TRAIN_LR: f32 = 0.08;

/// Shape of one synthetic history.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Clients `n`; ids are `0..n`.
    pub clients: usize,
    /// Model dimension `d`.
    pub dim: usize,
    /// Training rounds `T`; models are recorded for `0..=T`.
    pub rounds: usize,
    /// Clients that join late, all at [`SynthSpec::late_round`]; everyone
    /// else joins at round 0.
    pub late: Vec<ClientId>,
    /// The join round `F` of the late clients.
    pub late_round: Round,
    /// Resident-memory tiering of the store.
    pub tier: TierConfig,
}

impl SynthSpec {
    /// Join round of `client`.
    pub fn join_round(&self, client: ClientId) -> Round {
        if self.late.contains(&client) {
            self.late_round
        } else {
            0
        }
    }
}

/// SplitMix64: a tiny seeded generator, so the inputs depend on the seed
/// alone and not on any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` on stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `[-1, 1)`.
    pub fn sym(&mut self) -> f32 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `k` distinct client ids drawn from `0..n` by `seed`, ascending.
pub fn pick_clients(seed: u64, n: usize, k: usize) -> Vec<ClientId> {
    assert!(k <= n, "cannot pick {k} of {n} clients");
    let mut rng = SplitMix64::new(seed, 0x5EED_C11E);
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let c = rng.below(n);
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    picked.sort_unstable();
    picked
}

/// Builds the history for `spec` from `seed`.
pub fn build(spec: &SynthSpec, seed: u64) -> HistoryStore {
    let (n, d) = (spec.clients, spec.dim);
    let mut rng = SplitMix64::new(seed, 0x4849_5354);
    let curvature: Vec<f32> = (0..d).map(|_| 0.5 + rng.unit()).collect();
    let center: Vec<f32> = (0..d).map(|_| rng.sym()).collect();
    let targets: Vec<f32> = (0..n)
        .flat_map(|_| {
            center
                .iter()
                .map(|&m| m + 0.5 * rng.sym())
                .collect::<Vec<_>>()
        })
        .collect();
    let weights: Vec<f32> = (0..n).map(|_| (40 + rng.below(41)) as f32).collect();
    let mut w: Vec<f32> = center.iter().map(|&m| m + 0.6 * rng.sym()).collect();

    let mut h = HistoryStore::with_tier(SIGN_DELTA, spec.tier);
    for (c, &weight) in weights.iter().enumerate() {
        h.record_join(c, spec.join_round(c));
        h.set_weight(c, weight);
    }
    let mut grad = vec![0.0f32; d];
    let mut acc = vec![0.0f32; d];
    for t in 0..spec.rounds {
        h.record_model(t, w.clone());
        acc.fill(0.0);
        let mut weight_sum = 0.0f32;
        for c in (0..n).filter(|&c| spec.join_round(c) <= t) {
            let target = &targets[c * d..(c + 1) * d];
            for (((g, &wj), &tj), &hj) in grad.iter_mut().zip(&w).zip(target).zip(&curvature) {
                *g = hj * (wj - tj);
            }
            h.record_gradient(t, c, &grad);
            for (a, &g) in acc.iter_mut().zip(&grad) {
                *a += weights[c] * g;
            }
            weight_sum += weights[c];
        }
        let step = TRAIN_LR / weight_sum;
        for (wj, &a) in w.iter_mut().zip(&acc) {
            *wj -= step * a;
        }
    }
    h.record_model(spec.rounds, w);
    h
}

/// Bytes replay reads for a forget that backtracks to `from`: every
/// model and packed direction of rounds `from..T`.
pub fn window_bytes(h: &HistoryStore, from: Round) -> u64 {
    let end = h.latest_round().expect("history has rounds");
    (from..end)
        .map(|t| {
            let view = h.round_view(t);
            let model = view.model().map_or(0, |m| m.len() * 4);
            let dirs: usize = view.directions().map(|(_, d)| d.byte_size()).sum();
            (model + dirs) as u64
        })
        .sum()
}

/// Client-rounds a forget of `forgotten` estimates with Eq. 6: every
/// remaining participant of every replayed round. The base of
/// `core.fallback_share`.
pub fn estimated_client_rounds(h: &HistoryStore, forgotten: &[ClientId]) -> u64 {
    let from = forgotten
        .iter()
        .filter_map(|&c| h.join_round(c))
        .min()
        .expect("forgotten clients joined");
    let end = h.latest_round().expect("history has rounds");
    (from..end)
        .map(|t| {
            h.clients_in_round_iter(t)
                .filter(|c| !forgotten.contains(c))
                .count() as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_core::PairBuffer;
    use fuiov_tensor::vector;

    const N: usize = 24;
    const D: usize = 3_000;
    const T: usize = 20;
    const F: Round = 2;

    fn spec(tier: TierConfig) -> SynthSpec {
        SynthSpec {
            clients: N,
            dim: D,
            rounds: T,
            late: vec![3, 17],
            late_round: F,
            tier,
        }
    }

    #[test]
    fn shape_and_joins_match_the_spec() {
        let h = build(&spec(TierConfig::unbounded()), 7);
        assert_eq!(h.clients().len(), N);
        assert_eq!(h.dim(), Some(D));
        assert_eq!(h.latest_round(), Some(T));
        assert_eq!(h.rounds().len(), T + 1);
        for c in 0..N {
            let want = if c == 3 || c == 17 { F } else { 0 };
            assert_eq!(h.join_round(c), Some(want), "client {c}");
        }
        assert_eq!(h.clients_in_round(0).len(), N - 2);
        assert_eq!(h.clients_in_round(F).len(), N);
    }

    #[test]
    fn unbounded_store_is_fully_resident() {
        let h = build(&spec(TierConfig::unbounded()), 7);
        assert_eq!(h.spilled_bytes(), 0);
        let models = (T + 1) * D * 4;
        let dirs = (N * T - 2 * F) * D.div_ceil(4);
        assert_eq!(h.resident_bytes(), models + dirs);
        assert_eq!(h.direction_bytes(), dirs);
    }

    #[test]
    fn bounded_store_spills_and_stays_bitwise_equal() {
        let budget = 64 * 1024;
        let hot = build(&spec(TierConfig::unbounded()), 7);
        let cold = build(&spec(TierConfig::bounded(budget)), 7);
        assert!(cold.spilled_bytes() > 0, "nothing spilled");
        assert!(
            cold.resident_bytes() < hot.resident_bytes() / 2,
            "resident {} of {} bytes under a {budget}-byte budget",
            cold.resident_bytes(),
            hot.resident_bytes()
        );
        for t in 0..=T {
            let (a, b) = (hot.model(t).unwrap(), cold.model(t).unwrap());
            assert_eq!(*a, *b, "model {t}");
        }
        assert_eq!(window_bytes(&hot, F), window_bytes(&cold, F));
    }

    #[test]
    fn same_seed_same_history_other_seed_other_history() {
        let a = build(&spec(TierConfig::unbounded()), 7);
        let b = build(&spec(TierConfig::unbounded()), 7);
        let c = build(&spec(TierConfig::unbounded()), 8);
        assert_eq!(*a.model(T).unwrap(), *b.model(T).unwrap());
        assert_ne!(*a.model(T).unwrap(), *c.model(T).unwrap());
    }

    /// The pairs recovery seeds from rounds `F − 2..F` (buffer size 2)
    /// give a live L-BFGS approximation for nearly every remaining client.
    #[test]
    fn most_clients_have_live_approximations() {
        let h = build(&spec(TierConfig::unbounded()), 7);
        let w_f = h.model(F).unwrap().to_vec();
        let mut live = 0;
        let remaining: Vec<ClientId> = (0..N).filter(|c| *c != 3 && *c != 17).collect();
        for &c in &remaining {
            let g_f = h.direction(F, c).unwrap().to_f32();
            let mut buf = PairBuffer::new(2);
            for r in 0..F {
                let w_r = h.model(r).unwrap();
                let g_r = h.direction(r, c).unwrap().to_f32();
                buf.push(vector::sub(&w_r, &w_f), vector::sub(&g_r, &g_f));
            }
            live += usize::from(buf.approximation().is_ok());
        }
        assert!(
            live * 10 >= remaining.len() * 9,
            "only {live} of {} clients have a live approximation",
            remaining.len()
        );
    }

    #[test]
    fn estimated_client_rounds_counts_remaining_participants() {
        let h = build(&spec(TierConfig::unbounded()), 7);
        assert_eq!(
            estimated_client_rounds(&h, &[3]),
            ((T - F) * (N - 1)) as u64
        );
    }

    #[test]
    fn picks_are_distinct_and_seeded() {
        let a = pick_clients(5, 100, 4);
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, pick_clients(5, 100, 4));
        assert_ne!(a, pick_clients(6, 100, 4));
    }
}
