//! Corruption storm: silent bit-rot under a background scrubber vs
//! detection-on-use only.
//!
//! Two variants run the *same* seeded fault schedule (light crash/restart
//! churn with torn writes, plus per-node silent-corruption arrivals)
//! against byte-identical clusters, both with self-healing on:
//!
//! * `no_scrubber` — corruption is only ever caught when a read or a
//!   repair copy happens to checksum the rotten replica;
//! * `scrubber` — the budgeted background scrub sweeps the block space
//!   every tick and schedules verified repair for what it finds.
//!
//! The output is a machine-readable *scrub scorecard* per variant —
//! injected/detected/repaired counts, mean time-to-detect, scan volume,
//! leftover latent rot — and is a pure function of the seed.

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
pub struct CorruptionConfig {
    pub seed: u64,
    pub fault: FaultConfig,
    /// Files created before the storm starts (all default replication).
    pub num_files: usize,
    pub file_size: Bytes,
    /// Control-loop / injection cadence.
    pub tick: SimDuration,
    /// Extra quiet ticks after the horizon for scrub + repairs to drain.
    pub settle_ticks: usize,
    /// Scrub budget handed to the `scrubber` variant.
    pub scrub_blocks_per_tick: u32,
    /// Steady read load against `/storm/f0` on each of the first
    /// `read_ticks` ticks, so the read path gets its share of
    /// detections in both variants.
    pub read_ticks: usize,
    pub reads_per_tick: u32,
}

impl CorruptionConfig {
    pub fn default_scenario() -> Self {
        let fault = FaultConfig::churn_only(
            SimDuration::from_hours(3),
            SimDuration::from_secs(15 * 60),
            SimDuration::from_hours(6),
        )
        .with_corruption(SimDuration::from_hours(2), 0.0, 0.5);
        CorruptionConfig {
            seed: 11,
            fault,
            num_files: 24,
            file_size: 256 * MB,
            tick: SimDuration::from_secs(30),
            settle_ticks: 60,
            scrub_blocks_per_tick: 16,
            read_ticks: 10,
            reads_per_tick: 4,
        }
    }

    /// Reduced-scale variant for `--small` and the test suite.
    pub fn small() -> Self {
        let mut cfg = Self::default_scenario();
        cfg.num_files = 8;
        cfg.fault.horizon = SimDuration::from_hours(2);
        cfg.fault.node_mtbf = SimDuration::from_hours(2);
        cfg.fault.corrupt_mtbf = SimDuration::from_mins(45);
        cfg.settle_ticks = 40;
        cfg
    }
}

/// Per-variant scrub scorecard.
#[derive(Debug, Clone, Serialize)]
pub struct CorruptionVariant {
    pub variant: String,
    pub seed: u64,
    /// Fault-plan shape (identical across variants by construction).
    pub planned_events: usize,
    pub events_applied: usize,
    /// Corruption pipeline counters at the end of the run.
    pub corruptions_injected: u64,
    pub corruptions_detected: u64,
    pub corruptions_quarantined: u64,
    pub corruptions_repaired: u64,
    /// Detection latency (injection → checksum failure), seconds.
    pub mean_detect_secs: f64,
    pub p95_detect_secs: f64,
    /// Detection latency expressed in control-loop ticks.
    pub mean_detect_ticks: f64,
    /// Scrub sweep volume (zero for `no_scrubber`).
    pub scrub_blocks_scanned: u64,
    /// Rot nobody ever noticed (still latent when the run ends).
    pub latent_remaining: usize,
    /// Quarantined blocks still waiting on a verified repair.
    pub pending_repair_final: usize,
    pub data_loss_events: usize,
    pub under_replicated_final: usize,
    pub tasks_timed_out: usize,
}

/// The whole scenario result.
#[derive(Debug, Clone, Serialize)]
pub struct CorruptionResult {
    pub seed: u64,
    pub horizon_hours: f64,
    pub num_files: usize,
    pub file_size_mb: u64,
    pub scrub_blocks_per_tick: u32,
    pub variants: Vec<CorruptionVariant>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    NoScrubber,
    Scrubber,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::NoScrubber => "no_scrubber",
            Variant::Scrubber => "scrubber",
        }
    }
}

/// Run both variants under the same seed.
pub fn run(cfg: &CorruptionConfig) -> CorruptionResult {
    run_captured(cfg, false).0
}

/// Like [`run`], optionally keeping the `scrubber` variant's structured
/// event trace (byte-identical across same-seed runs).
pub fn run_captured(cfg: &CorruptionConfig, capture: bool) -> (CorruptionResult, String) {
    let mut trace = String::new();
    let variants = [Variant::NoScrubber, Variant::Scrubber]
        .into_iter()
        .map(|v| {
            let keep = capture && v == Variant::Scrubber;
            let (scorecard, jsonl) = run_variant(cfg, v, keep);
            if keep {
                trace = jsonl;
            }
            scorecard
        })
        .collect();
    let result = CorruptionResult {
        seed: cfg.seed,
        horizon_hours: cfg.fault.horizon.as_secs_f64() / 3600.0,
        num_files: cfg.num_files,
        file_size_mb: cfg.file_size / (1 << 20),
        scrub_blocks_per_tick: cfg.scrub_blocks_per_tick,
        variants,
    };
    (result, trace)
}

fn run_variant(
    cfg: &CorruptionConfig,
    variant: Variant,
    capture: bool,
) -> (CorruptionVariant, String) {
    let ccfg = ClusterConfig::paper_testbed();
    let nodes = ccfg.datanodes as usize;
    let racks = ccfg.racks as usize;
    let mut c = ClusterSim::new(ccfg, Box::new(DefaultRackAware));
    // always a recording sink: the scorecard reads the metric registry;
    // events are dropped per tick unless a trace was requested
    let sink = TelemetrySink::recording();
    c.set_telemetry(sink.clone());
    for i in 0..cfg.num_files {
        c.create_file(&format!("/storm/f{i}"), cfg.file_size, 3, None)
            .expect("base data fits");
    }
    c.run_until_quiescent();

    let ecfg = ErmsConfig::builder()
        .standby([]) // all-active: the comparison isolates the scrubber
        .encode(false)
        .self_healing(true)
        .scrubber(variant == Variant::Scrubber)
        .scrub_blocks_per_tick(cfg.scrub_blocks_per_tick)
        .build()
        .expect("valid corruption config");
    let mut m = ErmsManager::new(ecfg, &mut c).expect("valid corruption manager");
    m.set_telemetry(sink.clone());

    let plan = FaultPlan::generate(&cfg.fault, nodes, racks, cfg.seed);
    let planned_events = plan.len();
    let mut injector = FaultInjector::new(plan, cfg.fault.straggler_slowdown);

    let mut applied = 0usize;
    let mut tasks_timed_out = 0usize;
    let total_ticks = (cfg.fault.horizon.as_secs_f64() / cfg.tick.as_secs_f64()).ceil() as usize
        + cfg.settle_ticks;
    let mut deadline = SimTime::ZERO;
    for tick_idx in 0..total_ticks {
        deadline += cfg.tick;
        c.run_until(deadline);
        if tick_idx < cfg.read_ticks {
            for r in 0..cfg.reads_per_tick {
                let _ = c.open_read(
                    Endpoint::Client(ClientId(tick_idx as u32 * cfg.reads_per_tick + r)),
                    "/storm/f0",
                );
            }
        }
        applied += injector.apply_due(&mut c, deadline);
        let now = c.now();
        let r = m.tick(&mut c, now);
        tasks_timed_out += r.tasks_timed_out;
        if !capture {
            // scorecards only need the metric registry, not the events
            let _ = sink.drain_events();
        }
    }
    c.run_until_quiescent();
    let end = c.now();
    c.durability_mut().finalize(end);
    let trace = if capture {
        sink.drain_jsonl()
    } else {
        let _ = sink.drain_events();
        String::new()
    };

    let counter = |name: &str| sink.with_metrics(|m| m.counter(name)).unwrap_or(0);
    let (mean_detect, p95_detect) = sink
        .with_metrics(|m| {
            m.histogram("hdfs.corruption_detect_secs")
                .map(|h| (h.mean(), h.percentile(0.95)))
                .unwrap_or((0.0, 0.0))
        })
        .unwrap_or((0.0, 0.0));
    let scorecard = CorruptionVariant {
        variant: variant.label().to_string(),
        seed: cfg.seed,
        planned_events,
        events_applied: applied,
        corruptions_injected: counter("hdfs.corruptions_injected"),
        corruptions_detected: counter("hdfs.corruptions_detected"),
        corruptions_quarantined: counter("hdfs.corruptions_quarantined"),
        corruptions_repaired: counter("hdfs.corruptions_repaired"),
        mean_detect_secs: mean_detect,
        p95_detect_secs: p95_detect,
        mean_detect_ticks: mean_detect / cfg.tick.as_secs_f64(),
        scrub_blocks_scanned: counter("hdfs.scrub_blocks_scanned"),
        latent_remaining: c.latent_corrupt_count(),
        pending_repair_final: c.corrupt_blocks_pending_repair().len(),
        data_loss_events: c.durability().summary().data_loss_events,
        under_replicated_final: count_under_replicated(&c),
        tasks_timed_out,
    };
    (scorecard, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CorruptionConfig {
        let mut cfg = CorruptionConfig::small();
        cfg.num_files = 5;
        cfg.fault.horizon = SimDuration::from_hours(1);
        cfg.settle_ticks = 30;
        cfg
    }

    #[test]
    fn same_seed_is_reproducible() {
        let cfg = quick_cfg();
        let a = serde_json::to_string(&run(&cfg)).unwrap();
        let b = serde_json::to_string(&run(&cfg)).unwrap();
        assert_eq!(a, b, "same seed must give byte-identical scorecards");
    }

    #[test]
    fn scrubbing_repairs_every_injected_corruption() {
        let cfg = CorruptionConfig::small();
        let r = run(&cfg);
        let bare = &r.variants[0];
        let scrub = &r.variants[1];
        assert_eq!(bare.variant, "no_scrubber");
        assert_eq!(scrub.variant, "scrubber");
        assert!(scrub.corruptions_injected > 0, "the storm injected rot");
        // the scrubber finds and repairs everything that survived to be
        // found; nothing stays latent or quarantined at the end
        assert_eq!(
            scrub.corruptions_detected, scrub.corruptions_quarantined,
            "every detection quarantines: {scrub:?}"
        );
        assert_eq!(scrub.latent_remaining, 0, "no silent rot left: {scrub:?}");
        assert_eq!(
            scrub.pending_repair_final, 0,
            "every quarantine repaired: {scrub:?}"
        );
        assert_eq!(scrub.under_replicated_final, 0, "{scrub:?}");
        assert_eq!(scrub.data_loss_events, 0, "{scrub:?}");
        assert!(scrub.scrub_blocks_scanned > 0);
        // without the scrubber, rot is only found on use — some of it is
        // never noticed at all
        assert_eq!(bare.scrub_blocks_scanned, 0);
        assert!(
            bare.latent_remaining > 0,
            "detection-on-use misses rot the scrubber would catch: {bare:?}"
        );
        assert!(scrub.corruptions_detected > bare.corruptions_detected);
    }

    #[test]
    fn scrubber_trace_passes_the_oracle() {
        let cfg = quick_cfg();
        let (_, trace) = run_captured(&cfg, true);
        assert!(!trace.is_empty());
        assert!(
            trace.contains("\"ev\":\"corruption_injected\""),
            "storm traced"
        );
        assert!(trace.contains("\"ev\":\"corruption_detected\""));
        assert!(trace.contains("\"ev\":\"corrupt_repaired\""));
        assert!(trace.contains("\"ev\":\"scrub_progress\""));
    }
}
