//! Resumable scenario runner — the checkpoint subsystem's main consumer.
//!
//! A [`ResumableRun`] drives the faults-under-churn scenario one control
//! tick at a time and can [`save`](ResumableRun::save) its *entire*
//! deterministic state into a [`checkpoint::Snapshot`] at any tick
//! boundary: cluster (namespace, blockmap, flows, durability), ERMS
//! manager (CEP windows, journal, bookkeeping sets, standby model),
//! fault-plan cursor, telemetry sequence number, metric registry and
//! the runner's own loop state. [`resume`](ResumableRun::resume) rebuilds a run from a
//! snapshot via rebuild-then-hydrate: construct everything from the
//! named scenario's config (config is *not* serialized), then overwrite
//! the dynamic state.
//!
//! The contract the integration suite enforces: a run checkpointed at
//! tick T and resumed is byte-identical to the straight-through run —
//! the telemetry JSONL prefix (drained before the snapshot) plus the
//! resumed suffix concatenate into the exact straight-through trace,
//! and the final snapshots compare equal field for field.

use checkpoint::codec as c;
use checkpoint::{CheckpointError, Checkpointable, Snapshot, SnapshotMeta};
use erms::{ErmsConfig, ErmsManager, ErmsPlacement, Thresholds};
use hdfs_sim::faults::{FaultConfig, FaultInjector};
use hdfs_sim::topology::{ClientId, Endpoint};
use hdfs_sim::{ClusterConfig, ClusterSim, NodeId};
use simcore::telemetry::TelemetrySink;
use simcore::units::{Bytes, MB};
use simcore::{SimDuration, SimTime};
use workload::{DiurnalConfig, FlashCrowdConfig, IngestScanConfig, ProdScenario, TieredConfig};

/// A named, code-defined scenario shape. Snapshots store only the name
/// (plus seed), so resuming looks the config up here — the snapshot
/// never has to serialize topology or thresholds, and a snapshot taken
/// against one binary cannot silently run under a different config.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: &'static str,
    pub fault: FaultConfig,
    pub num_files: usize,
    pub file_size: Bytes,
    /// Control-loop / fault-injection cadence.
    pub tick: SimDuration,
    /// Horizon ticks plus the settle tail, i.e. when [`ResumableRun::done`]
    /// flips.
    pub total_ticks: u64,
    /// Flash-crowd shape (same as the faults bench): the first
    /// `warmup_read_ticks` ticks each open `reads_per_tick` reads on
    /// `/churn/f0`, giving the manager something to boost and shed.
    pub warmup_read_ticks: u64,
    pub reads_per_tick: u32,
    /// Node ids handed to ERMS as the elastic standby pool.
    pub standby: std::ops::Range<u32>,
    /// Judge mode: forced full rescan instead of the incremental visit set.
    pub full_rescan: bool,
    /// Background scrubber on (with the default per-tick budget).
    pub scrubber: bool,
    /// Erasure-code cold data (the tiered scenarios' whole point).
    pub encode: bool,
    /// Production-shaped traffic driving the run: the trace synthesised
    /// from this config (and the run seed) is quantised onto the tick
    /// grid — file creations and job reads fire at their tick's
    /// deadline. `None` means the classic `/churn` warm-up shape.
    pub workload: Option<ProdScenario>,
}

impl Scenario {
    /// 1h of churn + settle tail on the 18-node paper testbed,
    /// incremental judging. The workhorse for tests and CI.
    pub fn churn_small() -> Self {
        let mut fault = FaultConfig::paper_default();
        fault.horizon = SimDuration::from_hours(1);
        fault.node_mtbf = SimDuration::from_mins(25);
        Scenario {
            name: "churn-small",
            fault,
            num_files: 8,
            file_size: 64 * MB,
            tick: SimDuration::from_secs(30),
            total_ticks: 120 + 16,
            warmup_read_ticks: 8,
            reads_per_tick: 8,
            standby: 15..18,
            full_rescan: false,
            scrubber: false,
            encode: false,
            workload: None,
        }
    }

    /// [`churn_small`](Self::churn_small) with the judge forced into
    /// full-rescan mode — the equivalence guard runs both.
    pub fn churn_small_full() -> Self {
        Scenario {
            name: "churn-small-full",
            full_rescan: true,
            ..Self::churn_small()
        }
    }

    /// Half-hour micro variant for property tests.
    pub fn churn_tiny() -> Self {
        let mut s = Self::churn_small();
        s.name = "churn-tiny";
        s.fault.horizon = SimDuration::from_mins(30);
        s.fault.node_mtbf = SimDuration::from_mins(12);
        s.num_files = 6;
        s.total_ticks = 60 + 10;
        s
    }

    /// [`churn_tiny`](Self::churn_tiny) with silent corruption and torn
    /// writes in the fault mix and the background scrubber switched on —
    /// exercises checksum-validity maps and the scrub cursor through the
    /// resume-equivalence guard.
    pub fn churn_corrupt() -> Self {
        let mut s = Self::churn_tiny();
        s.name = "churn-corrupt";
        s.fault = s.fault.with_corruption(SimDuration::from_mins(8), 0.0, 0.5);
        s.scrubber = true;
        s
    }

    /// Base shape for the production-traffic scenarios: no `/churn`
    /// warm-up corpus (the trace brings its own files), faults tuned per
    /// scenario, otherwise the churn defaults.
    fn prod_base() -> Self {
        Scenario {
            num_files: 0,
            warmup_read_ticks: 0,
            reads_per_tick: 0,
            ..Self::churn_small()
        }
    }

    /// One simulated day of six-tenant Zipf traffic with staggered
    /// diurnal peaks — the shape the elastic scale-up/down loop tracks.
    pub fn prod_diurnal() -> Self {
        let mut fault = FaultConfig::paper_default();
        fault.horizon = SimDuration::from_hours(24);
        fault.node_mtbf = SimDuration::from_hours(8);
        Scenario {
            name: "prod-diurnal",
            fault,
            tick: SimDuration::from_secs(240),
            total_ticks: 360 + 20,
            workload: Some(ProdScenario::Diurnal(DiurnalConfig::default())),
            ..Self::prod_base()
        }
    }

    /// Four hours of background Zipf reads punctuated by correlated
    /// cross-file flash crowds (whole file groups slammed at once).
    pub fn prod_flashcrowd() -> Self {
        let mut fault = FaultConfig::paper_default();
        fault.horizon = SimDuration::from_mins(210);
        Scenario {
            name: "prod-flashcrowd",
            fault,
            tick: SimDuration::from_secs(60),
            total_ticks: 240 + 16,
            workload: Some(ProdScenario::FlashCrowd(FlashCrowdConfig::default())),
            ..Self::prod_base()
        }
    }

    /// Six hours of continuous ingest (write pressure all horizon long)
    /// with fresh-read validation traffic and periodic namespace scans.
    pub fn prod_ingest() -> Self {
        let mut fault = FaultConfig::paper_default();
        fault.horizon = SimDuration::from_hours(5);
        fault.node_mtbf = SimDuration::from_hours(3);
        Scenario {
            name: "prod-ingest",
            fault,
            tick: SimDuration::from_secs(60),
            total_ticks: 360 + 16,
            workload: Some(ProdScenario::IngestScan(IngestScanConfig::default())),
            ..Self::prod_base()
        }
    }

    /// Eight hours of wave-structured arrivals cooling past the
    /// cold-age threshold, with erasure coding switched on so the
    /// cold-data policy actually trades storage against repair latency.
    pub fn prod_tiered() -> Self {
        let mut fault = FaultConfig::paper_default();
        fault.horizon = SimDuration::from_hours(7);
        fault.node_mtbf = SimDuration::from_hours(4);
        Scenario {
            name: "prod-tiered",
            fault,
            tick: SimDuration::from_secs(120),
            total_ticks: 240 + 16,
            encode: true,
            workload: Some(ProdScenario::Tiered(TieredConfig::default())),
            ..Self::prod_base()
        }
    }

    /// The long-horizon soak: two simulated days of diurnal traffic
    /// with node churn *and* silent corruption under the scrubber —
    /// the scenario `bench soak` splits across checkpointed segments.
    pub fn soak_diurnal() -> Self {
        let mut fault = FaultConfig::paper_default();
        fault.horizon = SimDuration::from_hours(46);
        fault.node_mtbf = SimDuration::from_hours(16);
        let fault = fault.with_corruption(SimDuration::from_hours(8), 0.0, 0.3);
        Scenario {
            name: "soak-diurnal",
            fault,
            tick: SimDuration::from_secs(120),
            total_ticks: 1440 + 20,
            scrubber: true,
            workload: Some(ProdScenario::Diurnal(DiurnalConfig::soak())),
            ..Self::prod_base()
        }
    }

    /// Look a scenario up by the name a snapshot recorded.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "churn-small" => Some(Self::churn_small()),
            "churn-small-full" => Some(Self::churn_small_full()),
            "churn-tiny" => Some(Self::churn_tiny()),
            "churn-corrupt" => Some(Self::churn_corrupt()),
            "prod-diurnal" => Some(Self::prod_diurnal()),
            "prod-flashcrowd" => Some(Self::prod_flashcrowd()),
            "prod-ingest" => Some(Self::prod_ingest()),
            "prod-tiered" => Some(Self::prod_tiered()),
            "soak-diurnal" => Some(Self::soak_diurnal()),
            _ => None,
        }
    }

    pub fn names() -> &'static [&'static str] {
        &[
            "churn-small",
            "churn-small-full",
            "churn-tiny",
            "churn-corrupt",
            "prod-diurnal",
            "prod-flashcrowd",
            "prod-ingest",
            "prod-tiered",
            "soak-diurnal",
        ]
    }

    fn erms_config(&self) -> ErmsConfig {
        let mut thresholds = Thresholds::calibrate(4.0);
        thresholds.window = SimDuration::from_secs(600);
        thresholds.cold_age = SimDuration::from_secs(1800);
        ErmsConfig::builder()
            .thresholds(thresholds)
            .standby(self.standby.clone().map(NodeId))
            .self_healing(true)
            .encode(self.encode)
            .scrubber(self.scrubber)
            .full_rescan(self.full_rescan)
            .build()
            .expect("scenario config is valid")
    }

    /// Quantise the production trace (if any) onto the tick grid. Fully
    /// derived from (scenario shape, seed), so resume regenerates it —
    /// the ops schedule never enters a snapshot, exactly like the fault
    /// plan. Times past the horizon clamp into the last tick; a job
    /// never precedes its input file, so in-tick create-before-read
    /// ordering keeps every read satisfiable.
    fn workload_ops(&self, seed: u64) -> Option<WorkloadOps> {
        // Salted so the trace generator's streams never mirror the
        // fault plan's, which is seeded with the raw run seed.
        const TRACE_SEED_SALT: u64 = 0x7ACE_5EED;
        let trace = self.workload.as_ref()?.generate(seed ^ TRACE_SEED_SALT);
        let tick_secs = self.tick.as_secs_f64();
        let last = self.total_ticks.saturating_sub(1);
        let tick_of = |t: f64| ((t / tick_secs) as u64).min(last) as usize;
        let mut creates = vec![Vec::new(); self.total_ticks as usize];
        let mut reads = vec![Vec::new(); self.total_ticks as usize];
        for f in &trace.files {
            creates[tick_of(f.created_at_secs)].push((f.path.clone(), f.size));
        }
        for j in &trace.jobs {
            reads[tick_of(j.submit_at_secs)].push(j.input.clone());
        }
        Some(WorkloadOps { creates, reads })
    }
}

/// A production trace flattened onto the tick grid: what to create and
/// read at each tick boundary.
struct WorkloadOps {
    creates: Vec<Vec<(String, Bytes)>>,
    reads: Vec<Vec<String>>,
}

/// A scenario run that can be snapshotted at any tick boundary.
pub struct ResumableRun {
    scenario: Scenario,
    seed: u64,
    cluster: ClusterSim,
    manager: ErmsManager,
    injector: FaultInjector,
    /// Regenerated from (scenario, seed) on construction *and* resume —
    /// never serialized, like the fault plan.
    ops: Option<WorkloadOps>,
    sink: TelemetrySink,
    tick_idx: u64,
    deadline: SimTime,
    finished: bool,
}

impl ResumableRun {
    /// Start a fresh run: paper testbed, base files created and settled,
    /// fault plan generated from the seed, recording telemetry attached
    /// from the first event.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        let ccfg = ClusterConfig::paper_testbed();
        let nodes = ccfg.datanodes as usize;
        let racks = ccfg.racks as usize;
        let mut cluster = ClusterSim::new(ccfg, Box::new(ErmsPlacement::new()));
        let sink = TelemetrySink::recording();
        cluster.set_telemetry(sink.clone());
        let mut manager =
            ErmsManager::new(scenario.erms_config(), &mut cluster).expect("scenario manager");
        manager.set_telemetry(sink.clone());
        for i in 0..scenario.num_files {
            cluster
                .create_file(&format!("/churn/f{i}"), scenario.file_size, 3, None)
                .expect("base data fits");
        }
        cluster.run_until_quiescent();
        let injector = FaultInjector::from_config(&scenario.fault, nodes, racks, seed);
        let ops = scenario.workload_ops(seed);
        ResumableRun {
            scenario,
            seed,
            cluster,
            manager,
            injector,
            ops,
            sink,
            tick_idx: 0,
            deadline: SimTime::ZERO,
            finished: false,
        }
    }

    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }
    pub fn tick_idx(&self) -> u64 {
        self.tick_idx
    }
    pub fn done(&self) -> bool {
        self.tick_idx >= self.scenario.total_ticks
    }
    pub fn cluster(&self) -> &ClusterSim {
        &self.cluster
    }
    pub fn manager(&self) -> &ErmsManager {
        &self.manager
    }

    /// One control tick, same shape as the faults bench: drain to the
    /// deadline, stoke the flash crowd, land due faults, tick ERMS.
    pub fn step(&mut self) {
        debug_assert!(!self.done(), "stepping past the horizon");
        self.deadline += self.scenario.tick;
        self.cluster.run_until(self.deadline);
        if self.tick_idx < self.scenario.warmup_read_ticks {
            for r in 0..self.scenario.reads_per_tick {
                // churn can leave the file briefly unreadable; the crowd
                // just comes back next tick
                let _ = self.cluster.open_read(
                    Endpoint::Client(ClientId(
                        self.tick_idx as u32 * self.scenario.reads_per_tick + r,
                    )),
                    "/churn/f0",
                );
            }
        }
        if let Some(ops) = &self.ops {
            let t = self.tick_idx as usize;
            for (path, size) in &ops.creates[t] {
                // placement can fail transiently under churn (racks
                // down); the trace just loses that file's traffic
                let _ = self.cluster.create_file(path, *size, 3, None);
            }
            for (pos, path) in ops.reads[t].iter().enumerate() {
                let client = ClientId(
                    (self.tick_idx as u32)
                        .wrapping_mul(131)
                        .wrapping_add(pos as u32)
                        % 4096,
                );
                let _ = self.cluster.open_read(Endpoint::Client(client), path);
            }
        }
        self.injector.apply_due(&mut self.cluster, self.deadline);
        let now = self.cluster.now();
        self.manager.tick(&mut self.cluster, now);
        self.tick_idx += 1;
    }

    /// Step until tick `t` (or the horizon, whichever is first).
    pub fn run_to_tick(&mut self, t: u64) {
        while self.tick_idx < t && !self.done() {
            self.step();
        }
    }

    /// Step to the horizon, drain in-flight work and close the
    /// durability ledger. Idempotent.
    pub fn finish(&mut self) {
        while !self.done() {
            self.step();
        }
        if !self.finished {
            self.cluster.run_until_quiescent();
            let end = self.cluster.now();
            self.cluster.durability_mut().finalize(end);
            self.finished = true;
        }
    }

    /// JSON snapshot of the sink's metric registry at the cluster's
    /// current time — the integration suite compares this between
    /// straight-through and resumed runs.
    pub fn metrics_snapshot(&self) -> Option<String> {
        self.sink.snapshot_json(self.cluster.now())
    }

    /// Drain the telemetry recorded since the last drain. Draining does
    /// not disturb the sequence numbering, so a prefix drained before
    /// [`save`](Self::save) and the suffix from the resumed run
    /// concatenate into the straight-through trace.
    pub fn drain_trace(&mut self) -> String {
        self.sink.drain_jsonl()
    }

    /// Snapshot the complete deterministic state at the current tick
    /// boundary. Telemetry *events* are not serialized — only the
    /// sequence counter, so the resumed sink continues the numbering.
    pub fn save(&self) -> Snapshot {
        let mut snap = Snapshot::new(SnapshotMeta {
            scenario: self.scenario.name.to_string(),
            seed: self.seed,
            tick: self.tick_idx,
        });
        snap.insert_section("cluster", self.cluster.save_state());
        snap.insert_section("manager", self.manager.save_state());
        snap.insert_section(
            "metrics",
            self.sink
                .with_metrics(|m| m.save_state())
                .expect("resumable runs always record"),
        );
        snap.insert_section(
            "runner",
            c::MapBuilder::new()
                .put("tick_idx", &self.tick_idx)
                .put("deadline", &self.deadline)
                .put("fault_cursor", &self.injector.cursor())
                .put("telemetry_seq", &self.sink.seq())
                .put("finished", &self.finished)
                .build(),
        );
        snap
    }

    /// Rebuild a run from a snapshot. The scenario named in the meta is
    /// looked up in the registry and everything is constructed fresh
    /// (with the telemetry sink still disabled, so construction noise
    /// never reaches the trace), then hydrated from the sections; the
    /// fault plan is regenerated from the seed and fast-forwarded to
    /// the saved cursor.
    pub fn resume(snap: &Snapshot) -> Result<Self, CheckpointError> {
        let scenario = Scenario::by_name(&snap.meta.scenario).ok_or_else(|| {
            CheckpointError::Corrupt(format!(
                "snapshot names unknown scenario {:?}",
                snap.meta.scenario
            ))
        })?;
        let seed = snap.meta.seed;
        let ccfg = ClusterConfig::paper_testbed();
        let nodes = ccfg.datanodes as usize;
        let racks = ccfg.racks as usize;
        let mut cluster = ClusterSim::new(ccfg, Box::new(ErmsPlacement::new()));
        let mut manager = ErmsManager::new(scenario.erms_config(), &mut cluster)
            .map_err(|e| CheckpointError::Corrupt(format!("scenario config rejected: {e}")))?;
        cluster.load_state(snap.section("cluster")?)?;
        manager.load_state(snap.section("manager")?)?;

        let runner = snap.section("runner")?;
        let tick_idx = c::get(runner, "tick_idx")?;
        let deadline = c::get(runner, "deadline")?;
        let finished = c::get(runner, "finished")?;
        let mut injector = FaultInjector::from_config(&scenario.fault, nodes, racks, seed);
        injector.set_cursor(c::get(runner, "fault_cursor")?);

        let sink = TelemetrySink::recording();
        sink.set_seq(c::get(runner, "telemetry_seq")?);
        // Restore the metric registry so counters/gauges/histograms
        // continue accumulating from their saved values and the final
        // metric snapshot matches the straight-through run's. Lenient
        // on absence: pre-metrics snapshots still resume.
        if let Ok(section) = snap.section("metrics") {
            let mut metrics = simcore::MetricsRegistry::default();
            metrics.load_state(section)?;
            sink.replace_metrics(metrics);
        }
        cluster.set_telemetry(sink.clone());
        manager.set_telemetry(sink.clone());

        let ops = scenario.workload_ops(seed);
        Ok(ResumableRun {
            scenario,
            seed,
            cluster,
            manager,
            injector,
            ops,
            sink,
            tick_idx,
            deadline,
            finished,
        })
    }

    /// Resume as after a manager *crash*: the snapshot stands in for the
    /// journal a restarted manager replays, so instead of continuing
    /// exactly, every task the journal shows in flight is failed and its
    /// rollback compensation applied ([`ErmsManager::restore`]). Returns
    /// the run plus how many in-flight tasks were recovered.
    pub fn crash_restart(snap: &Snapshot) -> Result<(Self, usize), CheckpointError> {
        let mut run = Self::resume(snap)?;
        let now = run.cluster.now();
        let recovered = run.manager.restore(&mut run.cluster, now);
        Ok((run, recovered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_resolve_by_name() {
        for name in Scenario::names() {
            let s = Scenario::by_name(name).unwrap();
            assert_eq!(&s.name, name);
            assert!(s.total_ticks > 0);
        }
        assert!(Scenario::by_name("churn-galactic").is_none());
    }

    #[test]
    fn scenarios_actually_schedule_churn() {
        use hdfs_sim::faults::FaultPlan;
        for name in Scenario::names() {
            let s = Scenario::by_name(name).unwrap();
            let plan = FaultPlan::generate(&s.fault, 18, 3, 42);
            assert!(!plan.is_empty(), "{name} plans no faults");
            let span = SimDuration::from_secs_f64(s.tick.as_secs_f64() * s.total_ticks as f64);
            assert!(
                span > s.fault.horizon,
                "{name} ends before its fault horizon"
            );
        }
    }

    #[test]
    fn prod_scenarios_quantise_their_trace_onto_the_tick_grid() {
        for name in [
            "prod-diurnal",
            "prod-flashcrowd",
            "prod-ingest",
            "prod-tiered",
        ] {
            let s = Scenario::by_name(name).unwrap();
            let ops = s.workload_ops(42).expect("prod scenarios carry a trace");
            assert_eq!(ops.creates.len(), s.total_ticks as usize);
            assert_eq!(ops.reads.len(), s.total_ticks as usize);
            let creates: usize = ops.creates.iter().map(Vec::len).sum();
            let reads: usize = ops.reads.iter().map(Vec::len).sum();
            assert!(creates > 0, "{name} schedules no file creations");
            assert!(
                reads > creates,
                "{name} is not read-dominated: {reads}/{creates}"
            );
            // every read targets a file some tick creates, never earlier
            let mut born = std::collections::BTreeMap::new();
            for (t, c) in ops.creates.iter().enumerate() {
                for (path, _) in c {
                    born.insert(path.as_str(), t);
                }
            }
            for (t, r) in ops.reads.iter().enumerate() {
                for path in r {
                    let b = born.get(path.as_str()).expect("read of unknown file");
                    assert!(*b <= t, "{name}: {path} read at tick {t}, born {b}");
                }
            }
        }
        assert!(Scenario::churn_small().workload_ops(42).is_none());
    }

    #[test]
    fn prod_traffic_reaches_the_cluster() {
        let mut run = ResumableRun::new(Scenario::prod_flashcrowd(), 7);
        // the flash-crowd corpus lands inside the first 5% of the horizon
        run.run_to_tick(14);
        let s = Scenario::prod_flashcrowd();
        let expect = match &s.workload {
            Some(ProdScenario::FlashCrowd(c)) => c.groups * c.files_per_group,
            _ => unreachable!(),
        };
        assert_eq!(run.cluster().namespace().num_files(), expect);
    }

    #[test]
    fn snapshot_carries_the_four_sections() {
        let mut run = ResumableRun::new(Scenario::churn_tiny(), 7);
        run.run_to_tick(3);
        let snap = run.save();
        assert_eq!(snap.meta.tick, 3);
        assert_eq!(snap.meta.scenario, "churn-tiny");
        let names: Vec<&str> = snap.section_names().collect();
        assert_eq!(names, ["cluster", "manager", "metrics", "runner"]);
    }

    #[test]
    fn resume_rejects_unknown_scenario() {
        let mut run = ResumableRun::new(Scenario::churn_tiny(), 7);
        run.run_to_tick(2);
        let mut snap = run.save();
        snap.meta.scenario = "churn-galactic".into();
        assert!(matches!(
            ResumableRun::resume(&snap),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
