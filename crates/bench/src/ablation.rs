//! Ablations of the design choices DESIGN.md calls out.
//!
//! Each ablation isolates one mechanism and measures what it buys:
//!
//! * [`placement_rebalance`] — Algorithm 1's standby parking vs placing
//!   extras anywhere: rebalance bytes owed after a boost/shed cycle
//!   (Section III.B: "does not need to re-balance when increasing and
//!   decreasing the replication factor");
//! * [`judge_rules`] — Formula (1) alone vs (1)+(2)+(3): detection of a
//!   file whose *blocks* are hot while its file-level count stays low;
//! * [`hysteresis`] — cooled-patience 1 vs 3 on a bursty replay:
//!   boost/shed thrash (completed ERMS tasks) and delivered throughput;
//! * [`predictor`] — reactive thresholding vs the EWMA pre-boost
//!   (the paper's future work): control-loop ticks until a ramping file
//!   is flagged;
//! * [`energy`] — active/standby vs all-active deployment on the same
//!   replay: standby node-hours actually burned.

use crate::common::{paper_standby_pool, Mode};
use crate::replay::{self, ReplayConfig};
use erms::{ErmsConfig, ErmsPlacement, Thresholds};
use hdfs_sim::placement::DefaultRackAware;
use hdfs_sim::{balancer, ClusterConfig, ClusterSim};
use serde::Serialize;
use simcore::units::{Bytes, MB};

/// Result of the placement ablation.
#[derive(Debug, Clone, Serialize)]
pub struct PlacementAblation {
    /// Rebalance bytes owed after boost+shed under Algorithm 1.
    pub erms_rebalance_bytes: Bytes,
    /// Same cycle with the default policy placing extras anywhere.
    pub default_rebalance_bytes: Bytes,
    /// Active-node replica churn (copies that landed on active nodes).
    pub erms_active_copies: usize,
    pub default_active_copies: usize,
}

/// Boost a hot file 3→8 and shed back to 3 under `erms_policy`; measure
/// the disturbance left on the *active* nodes.
fn boost_shed_cycle(erms_policy: bool) -> (Bytes, usize) {
    let policy: Box<dyn hdfs_sim::PlacementPolicy> = if erms_policy {
        Box::new(ErmsPlacement::new())
    } else {
        Box::new(DefaultRackAware)
    };
    let mut c = ClusterSim::new(ClusterConfig::paper_testbed(), policy);

    let standby = paper_standby_pool();
    c.designate_standby(&standby);
    // a balanced base load on the 10 active nodes
    for i in 0..10 {
        c.create_file(&format!("/base/f{i}"), 320 * MB, 3, None)
            .expect("fits");
    }
    let file = c.create_file("/hot", 256 * MB, 3, None).expect("fits");
    for &n in &standby {
        c.commission(n);
    }
    c.run_until_quiescent();
    let baseline = balancer::plan_bytes(&balancer::plan_moves(&c, 0.02));

    // boost to 8, wait for the copies, then shed back to 3
    c.set_file_replication(file, 8);
    c.run_until_quiescent();
    let active_copies = c
        .drain_completed_copies()
        .iter()
        .filter(|s| s.succeeded && s.target.0 < 10)
        .count();
    c.set_file_replication(file, 3);
    c.run_until_quiescent();
    // power the (now drained or not) standby nodes back off, as ERMS
    // would; a node still holding a last replica refuses and stays on
    for &n in &standby {
        let _ = c.power_off(n);
    }
    let after = balancer::plan_bytes(&balancer::plan_moves(&c, 0.02));
    (after.saturating_sub(baseline), active_copies)
}

pub fn placement_rebalance() -> PlacementAblation {
    let (erms_bytes, erms_copies) = boost_shed_cycle(true);
    let (default_bytes, default_copies) = boost_shed_cycle(false);
    PlacementAblation {
        erms_rebalance_bytes: erms_bytes,
        default_rebalance_bytes: default_bytes,
        erms_active_copies: erms_copies,
        default_active_copies: default_copies,
    }
}

/// Result of the judge-rules ablation.
#[derive(Debug, Clone, Serialize)]
pub struct JudgeRulesAblation {
    /// Did Formula (1) alone flag the block-skewed file?
    pub rule1_detects: bool,
    /// Did the full rule set flag it?
    pub full_detects: bool,
    /// Which rule fired in the full set (2 or 3 expected).
    pub full_rule: u8,
}

pub fn judge_rules() -> JudgeRulesAblation {
    use cep::audit::format_block_line;
    use erms::{DataClass, DataJudge, FileSnapshot};
    use simcore::SimTime;

    // a 20-block file where ONE block takes a burst of direct reads
    // (an index header everyone probes): file-level N_d stays low.
    let blocks: Vec<hdfs_sim::BlockId> = (0..20).map(hdfs_sim::BlockId).collect();
    let mut lines = Vec::new();
    for i in 0..30u64 {
        lines.push(format_block_line(
            SimTime::from_secs(1 + i),
            &blocks[0].to_string(),
            "dn3",
            "/skewed",
            64 << 20,
        ));
    }
    let snap = FileSnapshot {
        id: hdfs_sim::FileId(0),
        path: "/skewed",
        replication: 3,
        blocks: &blocks,
        last_access: SimTime::from_secs(30),
        boosted: false,
        encoded: false,
    };

    let full_thresholds = Thresholds::calibrate(4.0);
    let mut rule1_only = full_thresholds.clone();
    rule1_only.block_burst = f64::MAX / 4.0;
    rule1_only.block_warm = f64::MAX / 8.0;

    let mut j_full = DataJudge::new(full_thresholds);
    j_full.observe_lines(lines.iter().map(String::as_str));
    let full = j_full.classify(SimTime::from_secs(31), &snap);

    let mut j1 = DataJudge::new(rule1_only);
    j1.observe_lines(lines.iter().map(String::as_str));
    let r1 = j1.classify(SimTime::from_secs(31), &snap);

    JudgeRulesAblation {
        rule1_detects: r1.class == DataClass::Hot,
        full_detects: full.class == DataClass::Hot,
        full_rule: full.rule.code(),
    }
}

/// Result of the hysteresis ablation.
#[derive(Debug, Clone, Serialize)]
pub struct HysteresisAblation {
    pub patient_tasks: u64,
    pub impatient_tasks: u64,
    pub patient_throughput: f64,
    pub impatient_throughput: f64,
}

pub fn hysteresis(cfg: &ReplayConfig) -> HysteresisAblation {
    let make = |patience: u32| -> ErmsConfig {
        let mut thresholds = Thresholds::default().with_tau_hot(4.0);
        thresholds.window = cfg.window;
        thresholds.cold_age = cfg.cold_age;
        ErmsConfig::builder()
            .thresholds(thresholds)
            .standby([])
            .cooled_patience(patience)
            .build()
            .expect("valid ablation config")
    };
    let mode = Mode::Erms { tau_hot: 4.0 };
    let patient = replay::run_with(mode, "fair", cfg, Some(make(3)));
    let impatient = replay::run_with(mode, "fair", cfg, Some(make(1)));
    HysteresisAblation {
        patient_tasks: patient.erms_tasks_completed,
        impatient_tasks: impatient.erms_tasks_completed,
        patient_throughput: patient.read_throughput_mb_s,
        impatient_throughput: impatient.read_throughput_mb_s,
    }
}

/// Result of the predictor ablation.
#[derive(Debug, Clone, Serialize)]
pub struct PredictorAblation {
    /// Tick at which the reactive threshold (demand > τ_M·r) fires.
    pub reactive_tick: Option<u32>,
    /// Tick at which the EWMA forecast (3 ticks ahead) fires.
    pub predictive_tick: Option<u32>,
}

pub fn predictor() -> PredictorAblation {
    // a linear demand ramp: 2 more whole-file accesses per tick
    let tau = 8.0;
    let r = 3.0;
    let mut p = erms::predict::DemandPredictor::default_params();
    let mut reactive = None;
    let mut predictive = None;
    for tick in 0..40u32 {
        let demand = 2.0 * f64::from(tick);
        p.observe(demand);
        if reactive.is_none() && demand / r > tau {
            reactive = Some(tick);
        }
        if predictive.is_none() && p.forecast(3) / r > tau {
            predictive = Some(tick);
        }
    }
    PredictorAblation {
        reactive_tick: reactive,
        predictive_tick: predictive,
    }
}

/// Result of the energy ablation.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyAblation {
    pub standby_node_hours: f64,
    pub all_active_node_hours: f64,
    pub savings_fraction: f64,
}

pub fn energy(cfg: &ReplayConfig) -> EnergyAblation {
    let mut c = cfg.clone();
    c.use_standby_pool = true;
    let r = replay::run(Mode::Erms { tau_hot: 8.0 }, "fair", &c);
    let saved = if r.all_active_node_hours > 0.0 {
        1.0 - r.standby_node_hours / r.all_active_node_hours
    } else {
        0.0
    };
    EnergyAblation {
        standby_node_hours: r.standby_node_hours,
        all_active_node_hours: r.all_active_node_hours,
        savings_fraction: saved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn algorithm1_avoids_rebalancing() {
        let a = placement_rebalance();
        // standby parking leaves active nodes undisturbed: shedding the
        // extras owes no more balancer traffic than before the boost
        assert!(
            a.erms_rebalance_bytes <= a.default_rebalance_bytes,
            "erms {} vs default {}",
            a.erms_rebalance_bytes,
            a.default_rebalance_bytes
        );
        assert!(
            a.erms_active_copies < a.default_active_copies,
            "Algorithm 1 must park extras off the active set: {} vs {}",
            a.erms_active_copies,
            a.default_active_copies
        );
    }

    #[test]
    fn block_rules_catch_what_rule1_misses() {
        let a = judge_rules();
        assert!(
            !a.rule1_detects,
            "file-level count alone must miss block skew"
        );
        assert!(a.full_detects);
        assert!(a.full_rule == 2 || a.full_rule == 3);
    }

    #[test]
    fn predictor_fires_earlier_than_reactive() {
        let a = predictor();
        let (r, p) = (a.reactive_tick.unwrap(), a.predictive_tick.unwrap());
        assert!(p < r, "forecast {p} should precede threshold {r}");
    }

    #[test]
    fn hysteresis_reduces_thrash() {
        let mut cfg = ReplayConfig::small();
        cfg.trace.num_jobs = 60;
        cfg.cooldown = SimDuration::from_secs(600);
        let a = hysteresis(&cfg);
        assert!(
            a.patient_tasks <= a.impatient_tasks,
            "patience must not increase task churn: {} vs {}",
            a.patient_tasks,
            a.impatient_tasks
        );
    }
}
