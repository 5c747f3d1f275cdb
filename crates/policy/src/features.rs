//! Shared feature extraction and discretization for learned judges.
//!
//! Both learned backends see the same per-file observation: the
//! windowed whole-file access count `N_d`, the hottest block's windowed
//! count `N_b_max`, the freshness-pattern flag, the current replication
//! factor and the time since last access. The [`Discretizer`] folds
//! those into a small state index for the Q-table (768 states) and a
//! four-level demand observation for the HMM, with bucket fences
//! derived from the same τ/M thresholds the rules use — so a learned
//! judge and the rules judge disagree on *policy*, never on what they
//! observed.

use crate::{CepProbe, FileSnapshot};
use simcore::SimTime;

/// One file's observation, already normalised the way the rules
/// normalise (per-block `N_d`, per-replica pressure).
#[derive(Debug, Clone, Copy)]
pub struct Features {
    /// Whole-file windowed accesses (raw opens / block count).
    pub n_d: f64,
    /// Hottest block's windowed count.
    pub n_b_max: f64,
    /// Combined per-replica pressure, normalised so `1.0` is exactly
    /// the rules' hot boundary: `max(N_d/(r·τ_M), N_b_max/(r·M_M))`.
    pub pressure: f64,
    /// The `create → open` freshness-pattern flag.
    pub fresh: bool,
    pub replication: usize,
    pub age_secs: f64,
}

impl Features {
    /// Read one file's features through the probe. Learned backends
    /// always scan every block (no Formula (1) short-circuit — they
    /// have no formulas), which is what makes their per-file belief
    /// and table updates independent of anything but the file itself.
    pub fn observe(
        probe: &mut dyn CepProbe,
        now: SimTime,
        file: &FileSnapshot<'_>,
        fresh: bool,
        tau_hot: f64,
        block_burst: f64,
    ) -> Features {
        let r = file.replication.max(1) as f64;
        let raw_opens = probe.file_accesses(now, file.path);
        let n_d = raw_opens / file.blocks.len().max(1) as f64;
        let mut n_b_max = 0.0f64;
        for &b in file.blocks {
            n_b_max = n_b_max.max(probe.block_accesses(now, b));
        }
        let pressure = (n_d / (r * tau_hot)).max(n_b_max / (r * block_burst));
        Features {
            n_d,
            n_b_max,
            pressure,
            fresh,
            replication: file.replication,
            age_secs: now.since(file.last_access).as_secs_f64(),
        }
    }
}

/// Bucket fences for the Q-state space, derived from the rule
/// thresholds so the learned state space is aligned with the decision
/// boundaries that matter.
#[derive(Debug, Clone, Copy)]
pub struct Discretizer {
    pub tau_hot: f64,
    pub block_burst: f64,
    pub block_warm: f64,
    pub tau_cooled: f64,
    pub tau_cold: f64,
    pub window_secs: f64,
    pub cold_age_secs: f64,
    pub default_replication: usize,
}

/// Bucket counts: pressure × hot-block × fresh × extra-replicas × age.
pub const PRESSURE_BUCKETS: usize = 6;
pub const BLOCK_BUCKETS: usize = 4;
pub const FRESH_BUCKETS: usize = 2;
pub const REPL_BUCKETS: usize = 4;
pub const AGE_BUCKETS: usize = 4;

/// Total number of discrete states.
pub const NUM_STATES: usize =
    PRESSURE_BUCKETS * BLOCK_BUCKETS * FRESH_BUCKETS * REPL_BUCKETS * AGE_BUCKETS;

impl Discretizer {
    /// Per-replica pressure bucket. Fences sit on the rules'
    /// cold/cooled/hot boundaries (normalised by τ_M), so states
    /// separate exactly where the decision should flip.
    pub fn pressure_bucket(&self, pressure: f64) -> usize {
        let cold = self.tau_cold / self.tau_hot;
        let cooled = self.tau_cooled / self.tau_hot;
        if pressure <= 0.0 {
            0
        } else if pressure < cold {
            1
        } else if pressure < cooled {
            2
        } else if pressure <= 1.0 {
            3
        } else if pressure <= 2.0 {
            4
        } else {
            5
        }
    }

    /// Hottest-block bucket against the per-replica warm/burst bounds.
    pub fn block_bucket(&self, n_b_max: f64, replication: usize) -> usize {
        let r = replication.max(1) as f64;
        let per_replica = n_b_max / r;
        if per_replica <= 0.0 {
            0
        } else if per_replica <= self.block_warm {
            1
        } else if per_replica <= self.block_burst {
            2
        } else {
            3
        }
    }

    /// Extra replicas above the namespace default.
    pub fn repl_bucket(&self, replication: usize) -> usize {
        match replication.saturating_sub(self.default_replication) {
            0 => 0,
            1..=2 => 1,
            3..=5 => 2,
            _ => 3,
        }
    }

    /// Time-since-access bucket against the CEP window and the cold
    /// age.
    pub fn age_bucket(&self, age_secs: f64) -> usize {
        if age_secs < self.window_secs {
            0
        } else if age_secs <= self.cold_age_secs {
            1
        } else if age_secs <= 2.0 * self.cold_age_secs {
            2
        } else {
            3
        }
    }

    /// Fold an observation into its dense state index in
    /// `[0, NUM_STATES)`.
    pub fn state(&self, f: &Features) -> usize {
        let p = self.pressure_bucket(f.pressure);
        let b = self.block_bucket(f.n_b_max, f.replication);
        let fr = usize::from(f.fresh);
        let re = self.repl_bucket(f.replication);
        let ag = self.age_bucket(f.age_secs);
        (((p * BLOCK_BUCKETS + b) * FRESH_BUCKETS + fr) * REPL_BUCKETS + re) * AGE_BUCKETS + ag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disc() -> Discretizer {
        // the calibrate(4.0) shape the scenarios use
        Discretizer {
            tau_hot: 4.0,
            block_burst: 6.0,
            block_warm: 3.0,
            tau_cooled: 2.0,
            tau_cold: 0.5,
            window_secs: 600.0,
            cold_age_secs: 1800.0,
            default_replication: 3,
        }
    }

    #[test]
    fn state_index_stays_in_range() {
        let d = disc();
        for pressure in [0.0, 0.01, 0.2, 0.6, 1.0, 1.5, 9.0] {
            for n_b in [0.0, 2.0, 10.0, 100.0] {
                for fresh in [false, true] {
                    for repl in [1usize, 3, 5, 8, 18] {
                        for age in [0.0, 700.0, 2000.0, 9000.0] {
                            let f = Features {
                                n_d: pressure * 4.0 * repl as f64,
                                n_b_max: n_b,
                                pressure,
                                fresh,
                                replication: repl,
                                age_secs: age,
                            };
                            assert!(d.state(&f) < NUM_STATES);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pressure_fences_sit_on_the_rule_boundaries() {
        let d = disc();
        assert_eq!(d.pressure_bucket(0.0), 0);
        // τ_m/τ_M = 0.125: just below is the idle-ish band
        assert_eq!(d.pressure_bucket(0.12), 1);
        // τ_d/τ_M = 0.5: cooled boundary
        assert_eq!(d.pressure_bucket(0.49), 2);
        assert_eq!(d.pressure_bucket(0.99), 3);
        // above 1.0 the rules would boost
        assert_eq!(d.pressure_bucket(1.01), 4);
        assert_eq!(d.pressure_bucket(5.0), 5);
    }

    #[test]
    fn distinct_observations_get_distinct_states() {
        let d = disc();
        let base = Features {
            n_d: 0.0,
            n_b_max: 0.0,
            pressure: 0.0,
            fresh: false,
            replication: 3,
            age_secs: 0.0,
        };
        let hot = Features {
            pressure: 1.5,
            ..base
        };
        let fresh = Features {
            fresh: true,
            ..base
        };
        let old = Features {
            age_secs: 9999.0,
            ..base
        };
        let s: std::collections::BTreeSet<usize> = [&base, &hot, &fresh, &old]
            .iter()
            .map(|f| d.state(f))
            .collect();
        assert_eq!(s.len(), 4);
    }
}
