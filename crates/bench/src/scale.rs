//! `bench scale` — how the control loop's cost grows with the namespace.
//!
//! The scenario is N one-block files on an M-node cluster with a
//! flash-crowd audit storm on a small hot subset: a few ticks of heavy
//! reading, then a long idle tail. That shape is exactly where the
//! incremental visit set pays off — after the storm settles, almost
//! every file is stable and a tick should cost O(dirty + active), not
//! O(namespace). Each size runs twice, incremental and forced full
//! rescan, timing only the `ErmsManager::tick` calls; a CEP push
//! micro-measurement rides along so the events/sec of the audit→window
//! path lands in the same artifact.
//!
//! The `scale` binary wraps these functions with a counting global
//! allocator (the allocations proxy) and archives everything as
//! `BENCH_scale.json`.

use erms::{DataJudge, ErmsConfig, ErmsManager, ErmsPlacement, Thresholds};
use hdfs_sim::topology::{ClientId, Endpoint};
use hdfs_sim::{ClusterConfig, ClusterSim};
use serde::Serialize;
use simcore::units::MB;
use simcore::SimDuration;
use std::time::Instant;

/// One scenario size.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    pub label: &'static str,
    pub files: usize,
    pub nodes: u32,
    pub racks: u16,
    /// Files the flash crowd hammers.
    pub hot_files: usize,
    /// Concurrent readers per hot file per storm tick.
    pub readers_per_hot: u32,
    /// Ticks with the storm running.
    pub storm_ticks: usize,
    /// Quiet ticks after the storm — the incremental win lives here.
    pub idle_ticks: usize,
    /// Simulated time between ticks.
    pub tick_step: SimDuration,
    /// CEP window — the idle tail must outlast it (plus the shed/encode
    /// wave's own audit traffic) for files to go stable at all.
    pub window: SimDuration,
}

impl ScaleConfig {
    pub fn small() -> Self {
        ScaleConfig {
            label: "small",
            files: 150,
            nodes: 18,
            racks: 3,
            hot_files: 6,
            readers_per_hot: 20,
            storm_ticks: 6,
            idle_ticks: 30,
            tick_step: SimDuration::from_secs(60),
            window: SimDuration::from_secs(600),
        }
    }

    pub fn medium() -> Self {
        ScaleConfig {
            files: 600,
            nodes: 36,
            racks: 6,
            label: "medium",
            ..Self::small()
        }
    }

    pub fn large() -> Self {
        ScaleConfig {
            files: 2400,
            nodes: 72,
            racks: 12,
            label: "large",
            ..Self::small()
        }
    }

    /// The columnar-state stress size: a ~100k-file namespace on a
    /// 1000-node fleet. Fewer ticks than the smaller sizes — the point
    /// is per-tick cost at scale (the acceptance bar is a ≤50 ms mean),
    /// not a long steady-state tail.
    pub fn xlarge() -> Self {
        ScaleConfig {
            files: 100_000,
            nodes: 1000,
            racks: 50,
            hot_files: 12,
            storm_ticks: 3,
            idle_ticks: 12,
            label: "xlarge",
            ..Self::small()
        }
    }

    /// Look a size up by name.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            "large" => Some(Self::large()),
            "xlarge" => Some(Self::xlarge()),
            _ => None,
        }
    }

    pub fn ticks(&self) -> usize {
        self.storm_ticks + self.idle_ticks
    }
}

/// Tick timings of one (size, mode) run.
#[derive(Debug, Clone, Serialize)]
pub struct ModeStats {
    pub full_rescan: bool,
    pub ticks: usize,
    /// Sum of `TickReport::files_judged` over the run.
    pub files_judged: usize,
    pub total_tick_ms: f64,
    pub mean_tick_ms: f64,
    pub max_tick_ms: f64,
    /// Mean over the idle tail only — the steady-state cost.
    pub idle_mean_tick_ms: f64,
}

/// Mid-run snapshot accounting when `scale --checkpoint-every N` is on.
///
/// Every Nth tick the cluster + manager are snapshotted into the
/// checkpoint wire format (outside the timed tick region, so
/// [`ModeStats`] stay comparable), re-hydrated into a freshly built
/// cluster/manager pair and re-saved; `verified` stays true only if
/// every re-save produced byte-identical JSON.
#[derive(Debug, Clone, Serialize)]
pub struct CheckpointStats {
    pub every: usize,
    pub snapshots: usize,
    pub total_bytes: usize,
    pub mean_save_ms: f64,
    pub verified: bool,
}

/// The zero-cost-when-disabled claim for the self-profiler, measured.
///
/// A disabled `prof_scope!` is a thread-local flag check; this model
/// prices that check (`per_scope_ns_disabled`, the *minimum* over
/// several multi-million-iteration batches, so scheduler noise can only
/// inflate, never deflate, the floor), counts how many scopes a manager
/// tick actually enters (`scopes_per_tick`, from an enabled probe run —
/// the count is a function of the manager config, not the namespace
/// size), and charges the product against the disabled-mode mean tick.
/// The scale binary fails the run when `overhead_pct` reaches 1%.
#[derive(Debug, Clone, Serialize)]
pub struct ProfilerOverhead {
    /// Cost of one disabled `prof_scope!` check, nanoseconds.
    pub per_scope_ns_disabled: f64,
    /// Mean scopes entered per `ErmsManager::tick`.
    pub scopes_per_tick: f64,
    /// The disabled-profiler mean tick the overhead is charged against.
    pub mean_tick_ms: f64,
    /// Estimated disabled-profiler share of a mean tick, percent.
    pub overhead_pct: f64,
}

/// Measure [`ProfilerOverhead`] against `mean_tick_ms` (a
/// disabled-profiler tick time from [`ModeStats`]).
pub fn profiler_overhead(mean_tick_ms: f64) -> ProfilerOverhead {
    use simcore::profiler;
    assert!(
        !profiler::is_enabled(),
        "overhead is priced with the profiler off"
    );
    const BATCH: u64 = 4_000_000;
    let mut per_scope_ns = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..BATCH {
            simcore::prof_scope!("overhead_probe");
            std::hint::black_box(i);
        }
        per_scope_ns = per_scope_ns.min(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }

    // scopes per tick from an enabled probe storm on a small namespace
    let probe = ScaleConfig {
        label: "probe",
        files: 60,
        nodes: 9,
        racks: 3,
        hot_files: 4,
        readers_per_hot: 10,
        storm_ticks: 3,
        idle_ticks: 8,
        ..ScaleConfig::small()
    };
    profiler::reset();
    profiler::set_enabled(true);
    let _ = run_mode(&probe, false);
    profiler::set_enabled(false);
    let snap = profiler::snapshot();
    profiler::reset();
    let ticks = snap.find("tick").map(|t| t.calls).unwrap_or(0).max(1);
    let scopes_per_tick = snap.total_calls() as f64 / ticks as f64;

    let overhead_ns = per_scope_ns * scopes_per_tick;
    let overhead_pct = if mean_tick_ms > 0.0 {
        100.0 * overhead_ns / (mean_tick_ms * 1e6)
    } else {
        0.0
    };
    ProfilerOverhead {
        per_scope_ns_disabled: per_scope_ns,
        scopes_per_tick,
        mean_tick_ms,
        overhead_pct,
    }
}

/// Build the cluster for one scale size (shared with the dev probes).
pub fn scale_cluster(cfg: &ScaleConfig) -> ClusterSim {
    let cluster_cfg = ClusterConfig {
        datanodes: cfg.nodes,
        racks: cfg.racks,
        ..ClusterConfig::default()
    };
    ClusterSim::new(cluster_cfg, Box::new(ErmsPlacement::new()))
}

/// Build the manager config for one scale size.
pub fn scale_erms_config(cfg: &ScaleConfig, full_rescan: bool) -> ErmsConfig {
    let mut thresholds = Thresholds::calibrate(4.0);
    thresholds.window = cfg.window;
    thresholds.cold_age = SimDuration::from_hours(4);
    ErmsConfig::builder()
        .thresholds(thresholds)
        .standby([])
        .self_healing(true)
        .full_rescan(full_rescan)
        .build()
        .expect("valid scale config")
}

/// Settle the bulk-create transient before the measured region.
///
/// Creating the namespace emits one `create` audit event per file, so
/// straight after bootstrap *every* file has windowed demand and sits
/// in the incremental visit set — the first window's worth of ticks
/// would measure namespace bootstrap, not the storm the scenario
/// describes. Advance the clock one full CEP window (plus a step, the
/// eviction rule keeps the boundary) so those events age out, then let
/// one untimed tick drain the creation dirty set. Both modes get the
/// identical warm-up, so the incremental/full comparison is unskewed.
pub(crate) fn settle_bootstrap(cfg: &ScaleConfig, c: &mut ClusterSim, m: &mut ErmsManager) {
    c.run_until(c.now() + cfg.window + cfg.tick_step);
    c.run_until_quiescent();
    let now = c.now();
    let _ = m.tick(c, now);
    c.run_until(c.now() + cfg.tick_step);
    c.run_until_quiescent();
}

/// The storm's reads before tick `tick`: while the storm lasts, each of
/// `readers_per_hot` clients opens every hot file once, then the cluster
/// settles. Client ids are unique per (tick, file, reader).
pub(crate) fn storm_reads(cfg: &ScaleConfig, c: &mut ClusterSim, tick: usize) {
    if tick >= cfg.storm_ticks {
        return;
    }
    for h in 0..cfg.hot_files.min(cfg.files) {
        for r in 0..cfg.readers_per_hot {
            let id = (tick as u32) * 100_000 + (h as u32) * 1_000 + r;
            let _ = c.open_read(Endpoint::Client(ClientId(id)), &format!("/scale/f{h}"));
        }
    }
    c.run_until_quiescent();
}

/// Drive one mode through the scenario, timing only the tick calls.
pub fn run_mode(cfg: &ScaleConfig, full_rescan: bool) -> ModeStats {
    run_mode_checkpointed(cfg, full_rescan, None).0
}

/// [`run_mode`], optionally snapshotting every `checkpoint_every` ticks.
pub fn run_mode_checkpointed(
    cfg: &ScaleConfig,
    full_rescan: bool,
    checkpoint_every: Option<usize>,
) -> (ModeStats, Option<CheckpointStats>) {
    use checkpoint::{Checkpointable, Snapshot, SnapshotMeta};

    let mut c = scale_cluster(cfg);
    let mut m =
        ErmsManager::new(scale_erms_config(cfg, full_rescan), &mut c).expect("valid scale manager");

    for i in 0..cfg.files {
        c.create_file(&format!("/scale/f{i}"), 64 * MB, 3, None)
            .expect("cluster sized to hold the namespace");
    }
    c.run_until_quiescent();
    settle_bootstrap(cfg, &mut c, &mut m);

    let mut ck = checkpoint_every.map(|every| CheckpointStats {
        every: every.max(1),
        snapshots: 0,
        total_bytes: 0,
        mean_save_ms: 0.0,
        verified: true,
    });
    let mut save_ms_total = 0.0f64;

    let mut total = 0.0f64;
    let mut max = 0.0f64;
    let mut idle_total = 0.0f64;
    let mut judged = 0usize;
    for tick in 0..cfg.ticks() {
        storm_reads(cfg, &mut c, tick);
        let now = c.now();
        let start = Instant::now();
        let report = m.tick(&mut c, now);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        total += ms;
        max = max.max(ms);
        if tick >= cfg.storm_ticks {
            idle_total += ms;
        }
        judged += report.files_judged;

        if let Some(stats) = ck.as_mut() {
            if (tick + 1) % stats.every == 0 {
                let start = Instant::now();
                let mut snap = Snapshot::new(SnapshotMeta {
                    scenario: format!("scale-{}", cfg.label),
                    seed: 0,
                    tick: tick as u64 + 1,
                });
                snap.insert_section("cluster", c.save_state());
                snap.insert_section("manager", m.save_state());
                let wire = snap.to_json();
                save_ms_total += start.elapsed().as_secs_f64() * 1e3;
                stats.snapshots += 1;
                stats.total_bytes += wire.len();

                // hydrate a fresh pair from the wire bytes and re-save:
                // the round trip must reproduce the snapshot exactly
                let back = Snapshot::from_json(&wire).expect("own snapshot parses");
                let mut c2 = scale_cluster(cfg);
                let mut m2 = ErmsManager::new(scale_erms_config(cfg, full_rescan), &mut c2)
                    .expect("valid scale manager");
                let hydrated = c2
                    .load_state(back.section("cluster").expect("cluster section"))
                    .and_then(|()| {
                        m2.load_state(back.section("manager").expect("manager section"))
                    });
                let mut resnap = Snapshot::new(back.meta.clone());
                resnap.insert_section("cluster", c2.save_state());
                resnap.insert_section("manager", m2.save_state());
                stats.verified &= hydrated.is_ok() && resnap.to_json() == wire;
            }
        }

        c.run_until(c.now() + cfg.tick_step);
        c.run_until_quiescent();
    }
    if let Some(stats) = ck.as_mut() {
        if stats.snapshots > 0 {
            stats.mean_save_ms = save_ms_total / stats.snapshots as f64;
        }
    }

    let mode = ModeStats {
        full_rescan,
        ticks: cfg.ticks(),
        files_judged: judged,
        total_tick_ms: total,
        mean_tick_ms: total / cfg.ticks() as f64,
        max_tick_ms: max,
        idle_mean_tick_ms: if cfg.idle_ticks > 0 {
            idle_total / cfg.idle_ticks as f64
        } else {
            0.0
        },
    };
    (mode, ck)
}

/// Throughput of the audit-line → CEP window path.
#[derive(Debug, Clone, Serialize)]
pub struct CepPushStats {
    pub events: u64,
    pub elapsed_ms: f64,
    pub events_per_sec: f64,
}

/// Synthesize the audit stream the scale scenario's storm produces:
/// seven of every eight opens land on the `hot_paths`-file flash-crowd
/// set (the paper's premise — ERMS reacts to concentrated heat), the
/// eighth walks the full `paths`-file namespace on a scrambled stride
/// (background scans: mostly-cold keys that churn the intern pool and
/// group maps). Deterministic, so every run times the same byte stream.
pub fn synth_audit_lines(events: u64, paths: usize, hot_paths: usize) -> Vec<String> {
    let paths = paths.max(1);
    let hot = hot_paths.clamp(1, paths);
    (0..events)
        .map(|i| {
            let idx = if i % 8 == 7 {
                // Fibonacci scramble spreads the tail over the namespace.
                (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % paths
            } else {
                i as usize % hot
            };
            cep::audit::format_audit_line(
                simcore::SimTime::from_secs(i / 50),
                "bench",
                "10.0.0.1",
                "open",
                &format!("/scale/f{idx}"),
                None,
            )
        })
        .collect()
}

/// Push `events` synthetic audit opens (the storm-shaped stream from
/// [`synth_audit_lines`]) through a [`DataJudge`]'s full query set and
/// measure the rate.
pub fn cep_push_rate(events: u64, paths: usize, hot_paths: usize) -> CepPushStats {
    let mut thresholds = Thresholds::calibrate(4.0);
    thresholds.window = SimDuration::from_secs(600);
    let mut judge = DataJudge::new(thresholds);
    let lines = synth_audit_lines(events, paths, hot_paths);
    let start = Instant::now();
    judge.observe_lines(lines.iter().map(String::as_str));
    let elapsed = start.elapsed().as_secs_f64();
    CepPushStats {
        events,
        elapsed_ms: elapsed * 1e3,
        events_per_sec: if elapsed > 0.0 {
            events as f64 / elapsed
        } else {
            0.0
        },
    }
}

/// Allocation counts sampled by the `scale` binary's counting
/// allocator around each mode run (a proxy, not a profile: it counts
/// every allocation on the thread, tick loop and simulator alike).
#[derive(Debug, Clone, Serialize)]
pub struct AllocStats {
    pub incremental_allocs: u64,
    pub full_allocs: u64,
    /// Phase attribution (judge vs CEP vs telemetry) when the binary
    /// ran the dedicated probe runs; `null` otherwise.
    pub phases: Option<PhaseAllocs>,
}

/// Where the allocations go, one counting-allocator sample per phase.
///
/// * `judge_allocs` — the control-loop ticks of a telemetry-off run:
///   snapshotting, classification, task submission and execution.
/// * `cep_allocs` — pushing one synthetic audit storm through a bare
///   [`DataJudge`]'s query set (`observe_lines` only).
/// * `telemetry_allocs` — the *extra* allocations the identical tick
///   run costs once a recording sink is attached. The simulation is
///   deterministic, so the telemetry-on minus telemetry-off delta is
///   attributable to event emission and trace buffering alone.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseAllocs {
    pub judge_allocs: u64,
    pub cep_allocs: u64,
    pub telemetry_allocs: u64,
}

/// Allocations of the tick loop alone (file creation and inter-tick
/// simulation excluded), with or without a recording telemetry sink.
fn tick_allocs(cfg: &ScaleConfig, telemetry: bool, sample: &dyn Fn() -> u64) -> u64 {
    let mut c = scale_cluster(cfg);
    let mut m =
        ErmsManager::new(scale_erms_config(cfg, false), &mut c).expect("valid scale manager");
    let sink = telemetry.then(simcore::telemetry::TelemetrySink::recording);
    if let Some(sink) = &sink {
        c.set_telemetry(sink.clone());
        m.set_telemetry(sink.clone());
    }
    for i in 0..cfg.files {
        c.create_file(&format!("/scale/f{i}"), 64 * MB, 3, None)
            .expect("cluster sized to hold the namespace");
    }
    c.run_until_quiescent();
    settle_bootstrap(cfg, &mut c, &mut m);

    let mut total = 0u64;
    for tick in 0..cfg.ticks() {
        storm_reads(cfg, &mut c, tick);
        let now = c.now();
        let a0 = sample();
        let _ = m.tick(&mut c, now);
        total += sample() - a0;
        if let Some(sink) = &sink {
            // keep the trace buffer bounded; the emission cost already
            // landed inside the sampled window above
            let _ = sink.drain_events();
        }
        c.run_until(c.now() + cfg.tick_step);
        c.run_until_quiescent();
    }
    total
}

/// Run the phase-attribution probes for one size. `sample` reads the
/// binary's counting allocator (the library stays allocator-agnostic).
pub fn phase_allocs(cfg: &ScaleConfig, sample: &dyn Fn() -> u64) -> PhaseAllocs {
    let mut thresholds = Thresholds::calibrate(4.0);
    thresholds.window = cfg.window;
    let mut judge = DataJudge::new(thresholds);
    let lines = synth_audit_lines(20_000, cfg.files, cfg.hot_files);
    let a0 = sample();
    judge.observe_lines(lines.iter().map(String::as_str));
    let cep_allocs = sample() - a0;

    let judge_allocs = tick_allocs(cfg, false, sample);
    let traced = tick_allocs(cfg, true, sample);
    PhaseAllocs {
        judge_allocs,
        cep_allocs,
        telemetry_allocs: traced.saturating_sub(judge_allocs),
    }
}

/// Everything `BENCH_scale.json` records for one size.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleResult {
    pub size: &'static str,
    pub files: usize,
    pub nodes: u32,
    pub ticks: usize,
    pub incremental: ModeStats,
    pub full: ModeStats,
    /// full / incremental mean tick time (>1 means incremental wins).
    pub tick_speedup: f64,
    /// incremental / full files judged (<1 means work was skipped).
    pub judged_ratio: f64,
    pub cep: CepPushStats,
    /// `None` (→ `null`) when run without the counting allocator.
    pub allocations: Option<AllocStats>,
    /// `None` (→ `null`) unless run with `--checkpoint-every N`; taken
    /// from the incremental-mode run.
    pub checkpoints: Option<CheckpointStats>,
    /// `None` (→ `null`) when the binary skips the overhead probe.
    pub profiler: Option<ProfilerOverhead>,
}

/// Combine the two mode runs and the CEP measurement for one size.
pub fn assemble(
    cfg: &ScaleConfig,
    incremental: ModeStats,
    full: ModeStats,
    cep: CepPushStats,
) -> ScaleResult {
    let tick_speedup = if incremental.mean_tick_ms > 0.0 {
        full.mean_tick_ms / incremental.mean_tick_ms
    } else {
        1.0
    };
    let judged_ratio = if full.files_judged > 0 {
        incremental.files_judged as f64 / full.files_judged as f64
    } else {
        1.0
    };
    ScaleResult {
        size: cfg.label,
        files: cfg.files,
        nodes: cfg.nodes,
        ticks: cfg.ticks(),
        incremental,
        full,
        tick_speedup,
        judged_ratio,
        cep,
        allocations: None,
        checkpoints: None,
        profiler: None,
    }
}

/// Run one size end to end (both modes + CEP rate), without the
/// allocation proxy — the binary layers that on top.
pub fn run(cfg: &ScaleConfig) -> ScaleResult {
    let incremental = run_mode(cfg, false);
    let full = run_mode(cfg, true);
    let cep = cep_push_rate(50_000, cfg.files, cfg.hot_files);
    assemble(cfg, incremental, full, cep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> ScaleConfig {
        ScaleConfig {
            label: "mini",
            files: 24,
            nodes: 6,
            racks: 2,
            hot_files: 2,
            readers_per_hot: 8,
            storm_ticks: 2,
            idle_ticks: 10,
            tick_step: SimDuration::from_secs(60),
            window: SimDuration::from_secs(180),
        }
    }

    #[test]
    fn incremental_mode_judges_fewer_files() {
        let cfg = mini();
        let inc = run_mode(&cfg, false);
        let full = run_mode(&cfg, true);
        assert_eq!(full.files_judged, cfg.files * cfg.ticks());
        assert!(
            inc.files_judged < full.files_judged,
            "incremental {} vs full {}",
            inc.files_judged,
            full.files_judged
        );
    }

    #[test]
    fn cep_rate_is_positive_and_result_serialises() {
        let cfg = mini();
        let r = assemble(
            &cfg,
            run_mode(&cfg, false),
            run_mode(&cfg, true),
            cep_push_rate(2_000, cfg.files, cfg.hot_files),
        );
        assert!(r.cep.events_per_sec > 0.0);
        assert!(r.judged_ratio < 1.0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"size\":\"mini\""));
        assert!(json.contains("\"allocations\":null"));
    }

    #[test]
    fn checkpoint_every_snapshots_and_verifies() {
        let cfg = mini();
        let (mode, ck) = run_mode_checkpointed(&cfg, false, Some(4));
        let ck = ck.expect("stats requested");
        assert_eq!(mode.ticks, cfg.ticks());
        assert_eq!(ck.snapshots, cfg.ticks() / 4);
        assert!(ck.total_bytes > 0);
        assert!(
            ck.verified,
            "every mid-run snapshot must re-save to identical bytes"
        );
        let json = serde_json::to_string(&ck).unwrap();
        assert!(json.contains("\"verified\":true"));
    }

    #[test]
    fn sizes_resolve_by_name() {
        for name in ["small", "medium", "large", "xlarge"] {
            let cfg = ScaleConfig::named(name).unwrap();
            assert_eq!(cfg.label, name);
            assert!(cfg.ticks() > 0);
        }
        assert!(ScaleConfig::named("galactic").is_none());
        let xl = ScaleConfig::xlarge();
        assert!(xl.files >= 100_000 && xl.nodes >= 1000);
    }

    #[test]
    fn phase_probe_attributes_allocations() {
        use std::cell::Cell;
        // deterministic fake "allocator": monotonically advancing
        // counter, bumped by the probe's own work via a closure the
        // binary normally wires to its global allocator
        let counter = Cell::new(0u64);
        let sample = || {
            counter.set(counter.get() + 1);
            counter.get()
        };
        let p = phase_allocs(&mini(), &sample);
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("judge_allocs"));
        assert!(json.contains("cep_allocs"));
        assert!(json.contains("telemetry_allocs"));
    }
}
