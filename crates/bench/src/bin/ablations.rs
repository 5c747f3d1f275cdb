//! Run the design-choice ablations and print a report.
//!
//! ```text
//! cargo run -p bench --release --bin ablations
//! ```

use bench::ablation;
use bench::common::write_json;
use bench::replay::ReplayConfig;
use simcore::units::fmt_bytes;

fn main() {
    println!("== Ablation: placement Algorithm 1 vs default for elastic replicas ==");
    let p = ablation::placement_rebalance();
    println!(
        "  rebalance owed after boost+shed:  Algorithm 1 = {}, default = {}",
        fmt_bytes(p.erms_rebalance_bytes),
        fmt_bytes(p.default_rebalance_bytes)
    );
    println!(
        "  extra-replica copies hitting active nodes: Algorithm 1 = {}, default = {}",
        p.erms_active_copies, p.default_active_copies
    );
    write_json("ablation_placement", &p);

    println!("\n== Ablation: judge Formula (1) alone vs (1)+(2)+(3) ==");
    let j = ablation::judge_rules();
    println!(
        "  block-skewed hot file detected: rule(1) only = {}, full rules = {} (fired rule {})",
        j.rule1_detects, j.full_detects, j.full_rule
    );
    write_json("ablation_judge_rules", &j);

    println!("\n== Ablation: cooled-patience hysteresis ==");
    let cfg = ReplayConfig::small();
    let h = ablation::hysteresis(&cfg);
    println!(
        "  ERMS tasks completed: patience=3 -> {}, patience=1 -> {}",
        h.patient_tasks, h.impatient_tasks
    );
    println!(
        "  read throughput:      patience=3 -> {:.1} MB/s, patience=1 -> {:.1} MB/s",
        h.patient_throughput, h.impatient_throughput
    );
    write_json("ablation_hysteresis", &h);

    println!("\n== Ablation: EWMA demand predictor (paper future work) ==");
    let pr = ablation::predictor();
    println!(
        "  ramping file flagged at tick: reactive = {:?}, predictive(+3) = {:?}",
        pr.reactive_tick, pr.predictive_tick
    );
    write_json("ablation_predictor", &pr);

    println!("\n== Ablation: active/standby energy ==");
    let e = ablation::energy(&cfg);
    println!(
        "  standby pool burned {:.2} node-hours vs {:.2} if always on ({:.0}% saved)",
        e.standby_node_hours,
        e.all_active_node_hours,
        e.savings_fraction * 100.0
    );
    write_json("ablation_energy", &e);
}
