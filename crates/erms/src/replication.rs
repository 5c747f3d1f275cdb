//! Optimal replication factors and increase strategies.
//!
//! Given a hot file's windowed demand and the per-replica capacity `τ_M`,
//! the number of replicas that brings per-replica pressure back under the
//! threshold is `⌈demand / τ_M⌉`. The manager passes the judge's
//! `max(N_d, N_b,max)` ([`crate::Judgment::demand`]): one replica holds
//! one block, so the busiest block needs the most. Figure 7 compares raising the
//! factor **directly** to that optimum against raising it one step at a
//! time and finds direct "is a better choice"; both strategies are
//! implemented so the figure (and the ablation bench) can reproduce the
//! comparison.

use serde::{Deserialize, Serialize};

/// Replicas needed so `N_d / r ≤ τ_M`, clamped to `[r_default, max]`.
pub fn optimal_replication(n_d: f64, tau_hot: f64, r_default: usize, max: usize) -> usize {
    assert!(tau_hot > 0.0);
    let need = (n_d / tau_hot).ceil().max(0.0) as usize;
    need.clamp(r_default, max.max(r_default))
}

/// How to move from the current factor to the target (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncreaseStrategy {
    /// One shot: request every extra replica at once — copies stream in
    /// parallel from different sources.
    Direct,
    /// Step-wise: raise by one, wait for it to land, raise again.
    OneByOne,
}

impl IncreaseStrategy {
    /// The sequence of intermediate targets from `from` to `to`.
    pub fn steps(self, from: usize, to: usize) -> Vec<usize> {
        if to <= from {
            return Vec::new();
        }
        match self {
            IncreaseStrategy::Direct => vec![to],
            IncreaseStrategy::OneByOne => (from + 1..=to).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_scales_with_demand() {
        // τ_M = 8
        assert_eq!(optimal_replication(0.0, 8.0, 3, 18), 3, "floor at default");
        assert_eq!(optimal_replication(24.0, 8.0, 3, 18), 3);
        assert_eq!(optimal_replication(25.0, 8.0, 3, 18), 4);
        assert_eq!(optimal_replication(80.0, 8.0, 3, 18), 10);
        assert_eq!(
            optimal_replication(1000.0, 8.0, 3, 18),
            18,
            "ceiling at cluster"
        );
    }

    #[test]
    fn lower_tau_means_more_replicas() {
        let n_d = 32.0;
        let r8 = optimal_replication(n_d, 8.0, 3, 18);
        let r6 = optimal_replication(n_d, 6.0, 3, 18);
        let r4 = optimal_replication(n_d, 4.0, 3, 18);
        assert!(r8 <= r6 && r6 <= r4, "{r8} {r6} {r4}");
        assert_eq!(r4, 8);
    }

    #[test]
    fn strategies_produce_expected_step_sequences() {
        assert_eq!(IncreaseStrategy::Direct.steps(3, 8), vec![8]);
        assert_eq!(IncreaseStrategy::OneByOne.steps(3, 8), vec![4, 5, 6, 7, 8]);
        assert!(IncreaseStrategy::Direct.steps(5, 5).is_empty());
        assert!(IncreaseStrategy::OneByOne.steps(5, 3).is_empty());
    }
}
