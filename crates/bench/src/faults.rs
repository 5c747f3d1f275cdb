//! Durability under churn: ERMS self-healing vs an unmanaged cluster.
//!
//! Three variants run the *same* seeded fault schedule (node crashes and
//! restarts, permanent kills, rack uplink outages, stragglers) against
//! byte-identical clusters:
//!
//! * `vanilla` — no control loop at all (crashed nodes block-report on
//!   restart, but nobody re-replicates what the kills destroy);
//! * `erms_no_healing` — the ERMS manager ticks but with self-healing
//!   off (the PR-0 baseline behaviour);
//! * `erms_healing` — self-healing on: repair scan, dark-shard
//!   reconstruction, task watchdog, standby eviction.
//!
//! The output is machine-readable durability accounting per variant —
//! unavailability windows, MTTR, data-loss events, repair bytes — and is
//! a pure function of the seed: two runs with the same seed produce
//! byte-identical JSON.

use crate::common::count_under_replicated;
use erms::{ErmsConfig, ErmsManager};
use hdfs_sim::faults::{FaultConfig, FaultInjector, FaultPlan};
use hdfs_sim::topology::{ClientId, Endpoint};
use hdfs_sim::{ClusterConfig, ClusterSim, DefaultRackAware};
use serde::Serialize;
use simcore::telemetry::TelemetrySink;
use simcore::units::{Bytes, MB};
use simcore::{SimDuration, SimTime};

/// Scenario shape.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    pub seed: u64,
    pub fault: FaultConfig,
    /// Files created before the churn starts (all default replication).
    pub num_files: usize,
    pub file_size: Bytes,
    /// Control-loop / injection cadence.
    pub tick: SimDuration,
    /// Extra quiet ticks after the horizon for repairs to drain.
    pub settle_ticks: usize,
    /// On each of the first `warmup_read_ticks` control ticks, open
    /// `reads_per_tick` client read sessions against `/churn/f0`. The
    /// flash crowd gives the managed variants a hot file to boost — and,
    /// once it leaves, to shed — so a captured trace carries read, task
    /// and elastic-episode spans alongside the repair copies.
    pub warmup_read_ticks: usize,
    pub reads_per_tick: u32,
}

impl FaultsConfig {
    pub fn default_scenario() -> Self {
        FaultsConfig {
            seed: 42,
            fault: FaultConfig::paper_default(),
            num_files: 40,
            file_size: 256 * MB,
            tick: SimDuration::from_secs(30),
            settle_ticks: 40,
            warmup_read_ticks: 10,
            reads_per_tick: 8,
        }
    }

    /// Reduced-scale variant for `--small` and the test suite.
    pub fn small() -> Self {
        let mut cfg = Self::default_scenario();
        cfg.num_files = 12;
        cfg.fault.horizon = SimDuration::from_hours(4);
        cfg.fault.node_mtbf = SimDuration::from_hours(1);
        cfg
    }
}

/// Per-variant durability accounting.
#[derive(Debug, Clone, Serialize)]
pub struct FaultVariant {
    pub variant: String,
    pub seed: u64,
    /// Fault-plan shape (identical across variants by construction).
    pub planned_events: usize,
    pub planned_kills: usize,
    pub events_applied: usize,
    /// Durability summary at the end of the run.
    pub unavailability_windows: usize,
    pub unresolved_windows: usize,
    pub total_unavailable_secs: f64,
    pub mttr_secs: f64,
    pub max_window_secs: f64,
    pub data_loss_events: usize,
    pub repair_bytes: u64,
    /// Blocks still short of their target replication when the run ends.
    pub under_replicated_final: usize,
    /// Manager-side healing counters (zero for vanilla).
    pub repairs_started: usize,
    pub replicas_trimmed: usize,
    pub reconstructions: usize,
    pub tasks_timed_out: usize,
    pub standby_evicted: usize,
}

/// The whole scenario result.
#[derive(Debug, Clone, Serialize)]
pub struct FaultsResult {
    pub seed: u64,
    pub horizon_hours: f64,
    pub num_files: usize,
    pub file_size_mb: u64,
    pub variants: Vec<FaultVariant>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Vanilla,
    ErmsNoHealing,
    ErmsHealing,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Vanilla => "vanilla",
            Variant::ErmsNoHealing => "erms_no_healing",
            Variant::ErmsHealing => "erms_healing",
        }
    }
}

/// Telemetry captured from the `erms_healing` variant when tracing is
/// requested (`figures faults --trace/--metrics`).
#[derive(Debug, Clone, Default)]
pub struct CapturedTelemetry {
    /// The full structured event trace, one JSON object per line.
    /// A pure function of the seed: byte-identical across runs.
    pub trace_jsonl: String,
    /// One metrics-registry snapshot (JSON object) per control tick.
    pub metric_snapshots: Vec<String>,
}

impl CapturedTelemetry {
    /// The per-tick snapshots as one JSON array document.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, snap) in self.metric_snapshots.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(snap);
        }
        out.push_str("\n]\n");
        out
    }
}

/// Run all three variants under the same seed.
pub fn run(cfg: &FaultsConfig) -> FaultsResult {
    run_captured(cfg, false).0
}

/// Like [`run`], optionally recording the `erms_healing` variant's
/// structured trace and per-tick metric snapshots.
pub fn run_captured(cfg: &FaultsConfig, capture: bool) -> (FaultsResult, CapturedTelemetry) {
    let mut telemetry = CapturedTelemetry::default();
    let variants = [
        Variant::Vanilla,
        Variant::ErmsNoHealing,
        Variant::ErmsHealing,
    ]
    .into_iter()
    .map(|v| {
        let cap = (capture && v == Variant::ErmsHealing).then_some(&mut telemetry);
        run_variant(cfg, v, cap)
    })
    .collect();
    let result = FaultsResult {
        seed: cfg.seed,
        horizon_hours: cfg.fault.horizon.as_secs_f64() / 3600.0,
        num_files: cfg.num_files,
        file_size_mb: cfg.file_size / (1 << 20),
        variants,
    };
    (result, telemetry)
}

fn run_variant(
    cfg: &FaultsConfig,
    variant: Variant,
    mut capture: Option<&mut CapturedTelemetry>,
) -> FaultVariant {
    // identical placement for every variant: the comparison isolates the
    // control loop, not the placement policy
    let ccfg = ClusterConfig::paper_testbed();
    let nodes = ccfg.datanodes as usize;
    let racks = ccfg.racks as usize;
    let mut c = ClusterSim::new(ccfg, Box::new(DefaultRackAware));
    // a recording sink only where capture was requested — every other
    // variant keeps the disabled (zero-cost) sink
    let sink = if capture.is_some() {
        TelemetrySink::recording()
    } else {
        TelemetrySink::disabled()
    };
    c.set_telemetry(sink.clone());
    for i in 0..cfg.num_files {
        c.create_file(&format!("/churn/f{i}"), cfg.file_size, 3, None)
            .expect("base data fits");
    }
    c.run_until_quiescent();

    let mut manager = match variant {
        Variant::Vanilla => None,
        Variant::ErmsNoHealing | Variant::ErmsHealing => {
            let ecfg = ErmsConfig::builder()
                .standby([]) // all-active: same serving set as vanilla
                .encode(false)
                .self_healing(variant == Variant::ErmsHealing)
                .build()
                .expect("valid faults config");
            let mut m = ErmsManager::new(ecfg, &mut c).expect("valid faults manager");
            m.set_telemetry(sink.clone());
            Some(m)
        }
    };

    let plan = FaultPlan::generate(&cfg.fault, nodes, racks, cfg.seed);
    let planned_events = plan.len();
    let planned_kills = plan.kills();
    let mut injector = FaultInjector::new(plan, cfg.fault.straggler_slowdown);

    let mut applied = 0usize;
    let mut repairs_started = 0usize;
    let mut replicas_trimmed = 0usize;
    let mut reconstructions = 0usize;
    let mut tasks_timed_out = 0usize;
    let mut standby_evicted = 0usize;

    let total_ticks = (cfg.fault.horizon.as_secs_f64() / cfg.tick.as_secs_f64()).ceil() as usize
        + cfg.settle_ticks;
    let mut deadline = SimTime::ZERO;
    for tick_idx in 0..total_ticks {
        deadline += cfg.tick;
        // drain the previous tick's dispatched work first, so the clock
        // sits at the deadline when faults land and the loop ticks — the
        // trace then carries monotone timestamps (the spans oracle checks
        // this) instead of faults stamped ahead of the events around them
        c.run_until(deadline);
        if tick_idx < cfg.warmup_read_ticks {
            for r in 0..cfg.reads_per_tick {
                // churn can leave the file briefly unreadable; the crowd
                // just comes back next tick
                let _ = c.open_read(
                    Endpoint::Client(ClientId(tick_idx as u32 * cfg.reads_per_tick + r)),
                    "/churn/f0",
                );
            }
        }
        // trailing restarts may land past the horizon; let them apply so
        // only permanent kills persist into the settle window
        applied += injector.apply_due(&mut c, deadline);
        if let Some(m) = manager.as_mut() {
            let now = c.now();
            let r = m.tick(&mut c, now);
            repairs_started += r.repairs_started;
            replicas_trimmed += r.replicas_trimmed;
            reconstructions += r.reconstructions;
            tasks_timed_out += r.tasks_timed_out;
            standby_evicted += r.standby_evicted.len();
        }
        if let Some(cap) = capture.as_deref_mut() {
            if let Some(snap) = sink.snapshot_json(c.now()) {
                cap.metric_snapshots.push(snap);
            }
        }
    }
    // the last tick's repairs are still in flight — drain them
    c.run_until_quiescent();
    let end = c.now();
    c.durability_mut().finalize(end);
    if let Some(cap) = capture {
        cap.trace_jsonl = sink.drain_jsonl();
    }

    let under_replicated_final = count_under_replicated(&c);
    let s = c.durability().summary();
    FaultVariant {
        variant: variant.label().to_string(),
        seed: cfg.seed,
        planned_events,
        planned_kills,
        events_applied: applied,
        unavailability_windows: s.unavailability_windows,
        unresolved_windows: s.unresolved_windows,
        total_unavailable_secs: s.total_unavailable_secs,
        mttr_secs: s.mttr_secs,
        max_window_secs: s.max_window_secs,
        data_loss_events: s.data_loss_events,
        repair_bytes: s.repair_bytes,
        under_replicated_final,
        repairs_started,
        replicas_trimmed,
        reconstructions,
        tasks_timed_out,
        standby_evicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FaultsConfig {
        let mut cfg = FaultsConfig::small();
        cfg.num_files = 6;
        cfg.fault.horizon = SimDuration::from_hours(2);
        cfg.settle_ticks = 20;
        cfg
    }

    #[test]
    fn same_seed_is_reproducible() {
        let cfg = quick_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "same seed must give byte-identical results");
    }

    #[test]
    fn healing_repairs_what_vanilla_loses() {
        let cfg = FaultsConfig::small();
        let r = run(&cfg);
        let vanilla = &r.variants[0];
        let healing = &r.variants[2];
        assert_eq!(vanilla.variant, "vanilla");
        assert_eq!(healing.variant, "erms_healing");
        assert!(vanilla.planned_kills > 0, "churn includes permanent kills");
        // unmanaged: permanent kills erode redundancy for good
        assert!(
            vanilla.under_replicated_final > 0,
            "vanilla keeps a deficit: {vanilla:?}"
        );
        // self-healing: every under-replicated block back at target, and
        // no replicated file ever lost data
        assert_eq!(
            healing.under_replicated_final, 0,
            "healing repairs all deficits: {healing:?}"
        );
        assert_eq!(
            healing.data_loss_events, 0,
            "no 3-replica file loses data under healing: {healing:?}"
        );
        assert!(healing.repairs_started > 0);
        assert!(healing.repair_bytes > 0);
    }

    #[test]
    fn same_seed_trace_is_byte_identical() {
        let cfg = quick_cfg();
        let (_, t1) = run_captured(&cfg, true);
        let (_, t2) = run_captured(&cfg, true);
        assert!(!t1.trace_jsonl.is_empty(), "healing variant traced events");
        assert_eq!(t1.trace_jsonl, t2.trace_jsonl, "trace bytes must match");
        assert_eq!(t1.metric_snapshots, t2.metric_snapshots);
        // every line is a JSON object with the stable envelope keys
        for line in t1.trace_jsonl.lines().take(50) {
            assert!(line.starts_with("{\"t_ns\":"), "envelope: {line}");
            assert!(line.contains("\"ev\":"), "event tag: {line}");
        }
    }

    #[test]
    fn capture_off_records_nothing() {
        let cfg = quick_cfg();
        let (_, t) = run_captured(&cfg, false);
        assert!(t.trace_jsonl.is_empty());
        assert!(t.metric_snapshots.is_empty());
    }
}
