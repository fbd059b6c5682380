//! IoV churn: vehicles joining, leaving and dropping out of the RSU's
//! federation.
//!
//! The paper's core motivation (§II, Challenge II) is that vehicles join
//! FL *at any time* and may leave or drop out before an unlearning request
//! arrives. This module produces deterministic per-round membership
//! schedules with exactly those dynamics, so experiments can e.g. forget a
//! vehicle that joined at round `F = 2` while other vehicles have already
//! left the federation.

use fuiov_storage::{ClientId, Round};
use fuiov_tensor::rng::{rng_for, streams};
use rand::Rng;

/// Parameters of the vehicle-churn process.
#[derive(Debug, Clone, Copy)]
pub struct ChurnModel {
    /// Probability per round that an unjoined vehicle arrives in RSU range.
    pub arrival_prob: f64,
    /// Probability per round that an active vehicle permanently departs.
    pub departure_prob: f64,
    /// Probability per round that an active vehicle drops out of *this*
    /// round only (temporary connectivity loss).
    pub dropout_prob: f64,
    /// Number of vehicles present from round 0.
    pub initial_active: usize,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel {
            arrival_prob: 0.15,
            departure_prob: 0.01,
            dropout_prob: 0.05,
            initial_active: 0,
        }
    }
}

/// A vehicle's membership interval plus its per-round dropout record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// First round the vehicle participates in.
    pub joined: Round,
    /// Round after which the vehicle permanently leaves (inclusive last
    /// active round), or `None` if it stays to the end.
    pub leaves_after: Option<Round>,
    /// Rounds in `[joined, leaves_after]` the vehicle missed.
    pub dropouts: Vec<Round>,
}

impl Membership {
    /// A vehicle present for the whole run with no dropouts.
    pub fn always() -> Self {
        Membership {
            joined: 0,
            leaves_after: None,
            dropouts: Vec::new(),
        }
    }

    /// Whether the vehicle participates in `round`.
    pub fn active_in(&self, round: Round) -> bool {
        round >= self.joined
            && self.leaves_after.is_none_or(|l| round <= l)
            && !self.dropouts.contains(&round)
    }
}

/// A full membership schedule: one [`Membership`] per vehicle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSchedule {
    memberships: Vec<Membership>,
    rounds: Round,
}

impl ChurnSchedule {
    /// Builds a schedule where every one of `n` vehicles is active in all
    /// `rounds` rounds — the static-membership setting the comparison
    /// baselines assume (§V-A3: "vehicles do not exit FL in the comparison
    /// methods").
    pub fn static_membership(n: usize, rounds: Round) -> Self {
        ChurnSchedule {
            memberships: vec![Membership::always(); n],
            rounds,
        }
    }

    /// Builds a schedule from explicit memberships.
    pub fn from_memberships(memberships: Vec<Membership>, rounds: Round) -> Self {
        ChurnSchedule {
            memberships,
            rounds,
        }
    }

    /// Samples a schedule for `n` vehicles over `rounds` rounds.
    ///
    /// Vehicles beyond `model.initial_active` join according to the
    /// arrival process; every active vehicle may depart permanently or
    /// drop out per round. Vehicles that never manage to join are given a
    /// join round at the end (they arrive just as the run finishes and
    /// participate zero times).
    pub fn sample(model: &ChurnModel, n: usize, rounds: Round, seed: u64) -> Self {
        let mut memberships = Vec::with_capacity(n);
        for v in 0..n {
            let mut rng = rng_for(seed, streams::CHURN + v as u64);
            let joined = if v < model.initial_active {
                0
            } else {
                let mut j = rounds; // default: never effectively joins
                for t in 0..rounds {
                    if rng.gen_bool(model.arrival_prob) {
                        j = t;
                        break;
                    }
                }
                j
            };
            let mut leaves_after = None;
            let mut dropouts = Vec::new();
            for t in joined..rounds {
                if rng.gen_bool(model.departure_prob) {
                    leaves_after = Some(t);
                    break;
                }
                if rng.gen_bool(model.dropout_prob) {
                    dropouts.push(t);
                }
            }
            memberships.push(Membership {
                joined,
                leaves_after,
                dropouts,
            });
        }
        ChurnSchedule {
            memberships,
            rounds,
        }
    }

    /// Number of vehicles in the schedule.
    pub fn len(&self) -> usize {
        self.memberships.len()
    }

    /// Whether the schedule covers zero vehicles.
    pub fn is_empty(&self) -> bool {
        self.memberships.is_empty()
    }

    /// Total rounds the schedule covers.
    pub fn rounds(&self) -> Round {
        self.rounds
    }

    /// The membership record of vehicle `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn membership(&self, v: ClientId) -> &Membership {
        &self.memberships[v]
    }

    /// Overrides vehicle `v`'s membership (used by experiments to pin the
    /// forgotten client's join round to the paper's `F = 2`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_membership(&mut self, v: ClientId, m: Membership) {
        self.memberships[v] = m;
    }

    /// Vehicles active in `round`, ascending.
    pub fn active_in(&self, round: Round) -> Vec<ClientId> {
        (0..self.memberships.len())
            .filter(|&v| self.memberships[v].active_in(round))
            .collect()
    }

    /// Vehicles that have permanently left before `round` begins.
    pub fn departed_before(&self, round: Round) -> Vec<ClientId> {
        (0..self.memberships.len())
            .filter(|&v| self.memberships[v].leaves_after.is_some_and(|l| l < round))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_schedule_everyone_active_every_round() {
        let s = ChurnSchedule::static_membership(5, 10);
        for t in 0..10 {
            assert_eq!(s.active_in(t), vec![0, 1, 2, 3, 4]);
        }
        assert!(s.departed_before(10).is_empty());
    }

    #[test]
    fn membership_interval_logic() {
        let m = Membership {
            joined: 3,
            leaves_after: Some(7),
            dropouts: vec![5],
        };
        assert!(!m.active_in(2));
        assert!(m.active_in(3));
        assert!(!m.active_in(5)); // dropout
        assert!(m.active_in(7));
        assert!(!m.active_in(8)); // left
    }

    #[test]
    fn sample_is_deterministic() {
        let model = ChurnModel {
            initial_active: 3,
            ..Default::default()
        };
        let a = ChurnSchedule::sample(&model, 10, 20, 42);
        let b = ChurnSchedule::sample(&model, 10, 20, 42);
        assert_eq!(a, b);
        let c = ChurnSchedule::sample(&model, 10, 20, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn initial_active_join_at_zero() {
        let model = ChurnModel {
            initial_active: 4,
            arrival_prob: 0.0,
            departure_prob: 0.0,
            dropout_prob: 0.0,
        };
        let s = ChurnSchedule::sample(&model, 6, 10, 1);
        for v in 0..4 {
            assert_eq!(s.membership(v).joined, 0);
        }
        // Later vehicles never arrive (arrival_prob 0) → join == rounds.
        assert_eq!(s.membership(4).joined, 10);
        assert!(s.active_in(5).len() == 4);
    }

    #[test]
    fn high_departure_produces_departed_vehicles() {
        let model = ChurnModel {
            initial_active: 20,
            arrival_prob: 0.0,
            departure_prob: 0.5,
            dropout_prob: 0.0,
        };
        let s = ChurnSchedule::sample(&model, 20, 30, 9);
        assert!(
            s.departed_before(30).len() > 10,
            "most vehicles should have departed"
        );
    }

    #[test]
    fn set_membership_pins_join_round() {
        let mut s = ChurnSchedule::static_membership(3, 10);
        s.set_membership(
            1,
            Membership {
                joined: 2,
                leaves_after: None,
                dropouts: vec![],
            },
        );
        assert!(!s.active_in(1).contains(&1));
        assert!(s.active_in(2).contains(&1));
    }
}
