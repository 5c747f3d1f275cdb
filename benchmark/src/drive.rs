//! Set-up and the drive loop: everything that touches the program.
//!
//! The loop is the benchmark's own (it mirrors what the repo's scenario
//! runner does per tick, without depending on it):
//!
//! ```text
//! per tick:  cluster.run_until(deadline)        (sliced when polling for relief)
//!            drain completed reads and writes   (the harness's to drain)
//!            issue this tick's writes and reads (creates-before-reads)
//!            injector.apply_due(deadline)
//!            manager.tick(now)
//!            sample gauges
//! after:     cluster.run_until_quiescent(), drain, finalize durability
//! ```
//!
//! The schedule is open-loop in simulated time: a read fires at its
//! tick whatever the cluster's backlog. The harness never drains
//! completed copies or audit lines — the manager consumes those, and
//! taking them would change the run.

use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{
    find_bursts, quantise, Episode, Ingest, Schedule, Spec, DATANODES, RACKS, REPLICATION,
    STANDBY_NODES,
};
use checkpoint::{Checkpointable, Snapshot, SnapshotMeta};
use erms::{ErmsConfig, ErmsManager, ErmsPlacement, Thresholds, TickReport};
use hdfs_sim::cluster::{ReadStats, WriteStats};
use hdfs_sim::faults::FaultInjector;
use hdfs_sim::topology::{ClientId, Endpoint};
use hdfs_sim::{ClusterConfig, ClusterSim, NodeId};
use simcore::profiler::{self, ProfileNode};
use simcore::spans::oracle::{OracleConfig, TraceOracle};
use simcore::spans::{parse_jsonl, SpanCollector};
use simcore::telemetry::TelemetrySink;
use simcore::{SimDuration, SimTime};
use std::time::Instant;

/// Host time of the set-up phases, in seconds, and what they produced.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub quantise_s: f64,
    pub total_s: f64,
    pub files: usize,
    pub jobs: usize,
}

/// A workload instantiated and ready to drive.
pub struct Rig {
    spec: Spec,
    seed: u64,
    cluster: ClusterSim,
    manager: ErmsManager,
    injector: Option<FaultInjector>,
    schedule: Schedule,
    episodes: Vec<Episode>,
    sink: TelemetrySink,
    /// Bytes of files created so far (the storage-overhead baseline).
    logical_bytes: u64,
    pub setup: SetupTimes,
}

/// Everything the set-up measures: trace generation, tick-grid
/// quantisation, cluster/manager/injector construction and the bulk
/// namespace load. With `traced`, a recording telemetry sink is attached
/// to cluster and manager from the first event.
pub fn set_up(spec: &Spec, seed: u64, traced: bool, tr: &mut Tracer) -> Rig {
    let t_all = Instant::now();

    let t = Instant::now();
    let s = tr.begin("workload.generate");
    let trace = spec.scenario.generate(seed ^ spec.salt);
    tr.end(s);
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let s = tr.begin("workload.quantise");
    let mut schedule = quantise(
        &trace.files,
        &trace.jobs,
        spec.tick_secs,
        spec.traffic_ticks,
    );
    let episodes = spec.burst.as_ref().map_or_else(Vec::new, |rule| {
        find_bursts(&trace.jobs, rule, spec.tick_secs, spec.traffic_ticks)
    });
    tr.end(s);
    let quantise_s = t.elapsed().as_secs_f64();

    let s = tr.begin("hdfs.new");
    let ccfg = ClusterConfig {
        datanodes: DATANODES,
        racks: RACKS,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterSim::new(ccfg, Box::new(ErmsPlacement::new()));
    let sink = if traced {
        TelemetrySink::recording()
    } else {
        TelemetrySink::disabled()
    };
    if traced {
        cluster.set_telemetry(sink.clone());
    }
    tr.end(s);
    let s = tr.begin("erms.new");
    let mut thresholds = Thresholds::calibrate(4.0);
    thresholds.window = SimDuration::from_secs(600);
    thresholds.cold_age = SimDuration::from_secs(1800);
    let ecfg = ErmsConfig::builder()
        .thresholds(thresholds)
        .standby((DATANODES - STANDBY_NODES..DATANODES).map(NodeId))
        .self_healing(true)
        .encode(spec.encode)
        .scrubber(spec.scrubber)
        .build()
        .expect("benchmark manager config is valid");
    let mut manager = ErmsManager::new(ecfg, &mut cluster).expect("benchmark manager config");
    if traced {
        manager.set_telemetry(sink.clone());
    }
    tr.end(s);
    let s = tr.begin("hdfs.fault_plan");
    let injector = spec
        .faults
        .as_ref()
        .map(|f| FaultInjector::from_config(f, DATANODES as usize, usize::from(RACKS), seed));
    tr.end(s);

    let mut logical_bytes = 0;
    if spec.ingest == Ingest::BulkAtSetup {
        let s = tr.begin("hdfs.bulk_load");
        for (path, size) in schedule.creates.iter_mut().flat_map(std::mem::take) {
            cluster
                .create_file(&path, size, REPLICATION, None)
                .expect("the cluster is sized to hold every workload's corpus");
            logical_bytes += size;
        }
        tr.end(s);
    }

    Rig {
        spec: spec.clone(),
        seed,
        cluster,
        manager,
        injector,
        schedule,
        episodes,
        sink,
        logical_bytes,
        setup: SetupTimes {
            gen_s,
            quantise_s,
            total_s: t_all.elapsed().as_secs_f64(),
            files: trace.files.len(),
            jobs: trace.jobs.len(),
        },
    }
}

/// The simulated ledger a modelled HDFS client would see. A pure
/// function of (workload, seed): it must repeat bit for bit across reps
/// and between traced and untraced runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub read_p50_s: Option<f64>,
    pub read_p90_s: Option<f64>,
    pub read_p99_s: Option<f64>,
    pub read_fail_pct: f64,
    pub write_p95_s: Option<f64>,
    pub storage_overhead_x: f64,
    pub standby_on_pct: f64,
    pub relief_lag_s: Option<f64>,
    pub data_loss_events: u64,
}

/// Deterministic counts, in the harness and per layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub files: u64,
    pub jobs: u64,
    pub ticks: u64,
    pub reads_attempted: u64,
    pub reads_refused: u64,
    pub reads_done: u64,
    pub reads_failed: u64,
    pub writes_attempted: u64,
    pub writes_refused: u64,
    pub writes_done: u64,
    pub writes_failed: u64,
    pub relief_pairs: u64,
    /// Bursts whose file was still boosted from an earlier one.
    pub relief_prewarmed: u64,
    pub relief_miss: u64,
    pub run_calls: u64,
    pub faults_applied: u64,
    pub audit_lines: u64,
    pub audit_pending_max: u64,
    pub inflight_reads_max: u64,
    pub total_load_max: u64,
    pub repair_bytes: u64,
    pub unavail_windows: u64,
    pub files_judged: u64,
    pub verdicts: u64,
    pub tasks_submitted: u64,
    pub tasks_completed: u64,
    pub tasks_failed: u64,
    pub tasks_timed_out: u64,
    pub repairs_started: u64,
    pub reconstructions: u64,
    pub scrub_scanned: u64,
    pub cep_events_seen: u64,
    pub cep_parse_errors: u64,
    pub queue_immediate_max: u64,
    pub queue_idle_max: u64,
    pub running_max: u64,
}

/// What consuming the telemetry trace cost and found (traced runs).
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    pub events: u64,
    pub bytes: u64,
    pub oracle_violations: u64,
    /// First few violations, rendered, for the failure message.
    pub violation_samples: Vec<String>,
    pub checkpoint_save_s: f64,
    pub checkpoint_bytes: u64,
    pub profile: ProfileNode,
}

#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup: SetupTimes,
    pub wall_s: f64,
    /// Host milliseconds of each `ErmsManager::tick` call, in tick order.
    pub tick_ms: Vec<f64>,
    /// Whether each tick was idle: no hot or cooled verdict and no task
    /// submitted, completed or failed (cold verdicts with nothing to do
    /// still count as idle — re-judging them is the idle cost).
    pub tick_idle: Vec<bool>,
    pub ledger: Ledger,
    pub counts: Counts,
    /// Non-failed read latencies in simulated seconds, ascending.
    pub read_samples: usize,
    pub trace: Option<TraceStats>,
}

/// A burst waiting for its file to be boosted.
struct Pending {
    path: String,
    since: SimTime,
}

#[derive(Default)]
struct ClientLog {
    read_secs: Vec<f64>,
    write_secs: Vec<f64>,
}

impl ClientLog {
    fn absorb(&mut self, reads: Vec<ReadStats>, writes: Vec<WriteStats>, c: &mut Counts) {
        for r in reads {
            if r.failed {
                c.reads_failed += 1;
            } else {
                c.reads_done += 1;
                self.read_secs.push(r.duration());
            }
        }
        for w in writes {
            if w.failed {
                c.writes_failed += 1;
            } else {
                c.writes_done += 1;
                self.write_secs.push(w.duration());
            }
        }
    }
}

fn boosted(cluster: &ClusterSim, path: &str) -> bool {
    let ns = cluster.namespace();
    ns.resolve(path)
        .and_then(|f| ns.file(f))
        .and_then(|meta| meta.blocks.first().copied())
        .is_some_and(|b| cluster.blockmap().replica_count(b) > REPLICATION)
}

/// Consumes one tick's worth of telemetry: drain, parse, collect spans,
/// check invariants. Kept per tick so the whole trace (hundreds of MB on
/// `control-manyfiles`) is never resident.
struct TraceConsumer {
    collector: SpanCollector,
    oracle: TraceOracle,
    events: u64,
    bytes: u64,
}

impl TraceConsumer {
    fn consume(&mut self, sink: &TelemetrySink, tr: &mut Tracer) {
        let s = tr.begin("telemetry.drain");
        let jsonl = sink.drain_jsonl();
        tr.end(s);
        self.bytes += jsonl.len() as u64;
        let s = tr.begin("spans.parse");
        let events = parse_jsonl(&jsonl).expect("the program emits well-formed telemetry");
        tr.end(s);
        self.events += events.len() as u64;
        let s = tr.begin("spans.collect");
        for ev in &events {
            self.collector.observe(ev);
        }
        tr.end(s);
        let s = tr.begin("oracle.check");
        for ev in &events {
            self.oracle.observe(ev);
        }
        tr.end(s);
    }
}

impl Rig {
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Drive the workload to its end. Traced rigs also enable the
    /// program's self-profiler and consume the telemetry per tick.
    pub fn drive(mut self, tr: &mut Tracer) -> Outcome {
        let traced = self.sink.enabled();
        let mut consumer = traced.then(|| TraceConsumer {
            collector: SpanCollector::new(),
            oracle: TraceOracle::new(OracleConfig::default()),
            events: 0,
            bytes: 0,
        });
        if traced {
            profiler::reset();
            profiler::set_enabled(true);
        }

        let spec = self.spec.clone();
        let tick = SimDuration::from_secs(spec.tick_secs);
        let total_ticks = spec.total_ticks();
        let mut c = Counts {
            files: self.setup.files as u64,
            jobs: self.setup.jobs as u64,
            ..Counts::default()
        };
        let mut log = ClientLog::default();
        let mut tick_ms = Vec::with_capacity(total_ticks);
        let mut tick_idle = Vec::with_capacity(total_ticks);
        let mut overhead_sum = 0.0;
        let mut overhead_n = 0u64;
        let mut pending: Vec<Pending> = Vec::new();
        let mut relief_lags: Vec<f64> = Vec::new();
        let mut next_episode = 0;
        let mut deadline = SimTime::ZERO;

        let wall = Instant::now();
        for k in 0..total_ticks {
            tr.set_tick(k as u32);
            let tick_span = tr.begin("harness.tick");
            let prev = deadline;
            deadline += tick;

            // advance the data plane to the tick boundary
            match spec.burst {
                Some(rule) => {
                    let slice = SimDuration::from_secs(rule.poll_secs);
                    let mut t = prev;
                    while t < deadline {
                        t = (t + slice).min(deadline);
                        let s = tr.begin("hdfs.run_until");
                        self.cluster.run_until(t);
                        tr.end(s);
                        c.run_calls += 1;
                        pending.retain(|p| {
                            let relieved = boosted(&self.cluster, &p.path);
                            if relieved {
                                relief_lags.push(t.since(p.since).as_secs_f64());
                            }
                            !relieved
                        });
                    }
                }
                None => {
                    let s = tr.begin("hdfs.run_until");
                    self.cluster.run_until(deadline);
                    tr.end(s);
                    c.run_calls += 1;
                }
            }
            let s = tr.begin("hdfs.drain_completed");
            let reads = self.cluster.drain_completed_reads();
            let writes = self.cluster.drain_completed_writes();
            tr.end(s);
            log.absorb(reads, writes, &mut c);

            // this tick's operations: creations before reads
            if k < spec.traffic_ticks {
                for (pos, (path, size)) in self.schedule.creates[k].iter().enumerate() {
                    let writer = Endpoint::Client(client_id(k, pos));
                    c.writes_attempted += 1;
                    let s = tr.begin("hdfs.write_file");
                    let id = self.cluster.write_file(writer, path, *size, REPLICATION);
                    tr.end(s);
                    match id {
                        Some(_) => self.logical_bytes += size,
                        None => c.writes_refused += 1,
                    }
                }
                for (pos, path) in self.schedule.reads[k].iter().enumerate() {
                    c.reads_attempted += 1;
                    let s = tr.begin("hdfs.open_read");
                    let id = self
                        .cluster
                        .open_read(Endpoint::Client(client_id(k, pos)), path);
                    tr.end(s);
                    if id.is_none() {
                        c.reads_refused += 1;
                    }
                }
                while let Some(e) = self.episodes.get(next_episode).filter(|e| e.tick == k) {
                    next_episode += 1;
                    c.relief_pairs += 1;
                    if boosted(&self.cluster, &e.path) {
                        c.relief_prewarmed += 1;
                    } else {
                        pending.push(Pending {
                            path: e.path.clone(),
                            since: deadline,
                        });
                    }
                }
            }

            if let Some(injector) = &mut self.injector {
                let s = tr.begin("hdfs.apply_faults");
                c.faults_applied += injector.apply_due(&mut self.cluster, deadline) as u64;
                tr.end(s);
            }

            c.audit_pending_max = c
                .audit_pending_max
                .max(self.cluster.audit_mut().pending() as u64);
            c.inflight_reads_max = c
                .inflight_reads_max
                .max(self.cluster.inflight_reads() as u64);
            c.total_load_max = c.total_load_max.max(self.cluster.total_load() as u64);

            let now = self.cluster.now();
            let s = tr.begin("erms.tick");
            let t0 = Instant::now();
            let report = self.manager.tick(&mut self.cluster, now);
            tick_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.end(s);
            tick_idle.push(
                report.hot + report.cooled == 0
                    && report.tasks_submitted + report.tasks_completed + report.tasks_failed == 0,
            );
            tally(&mut c, &report);

            let (immediate, idle, running) = self.manager.condor().queue_depths();
            c.queue_immediate_max = c.queue_immediate_max.max(immediate as u64);
            c.queue_idle_max = c.queue_idle_max.max(idle as u64);
            c.running_max = c.running_max.max(running as u64);
            if self.logical_bytes > 0 {
                overhead_sum += self.cluster.storage_used() as f64
                    / (REPLICATION as u64 * self.logical_bytes) as f64;
                overhead_n += 1;
            }

            if let Some(consumer) = &mut consumer {
                consumer.consume(&self.sink, tr);
            }
            tr.end(tick_span);
        }

        // let in-flight work land, then close the books
        tr.set_tick(total_ticks as u32);
        let s = tr.begin("hdfs.run_until_quiescent");
        let end = self.cluster.run_until_quiescent();
        tr.end(s);
        c.run_calls += 1;
        let s = tr.begin("hdfs.drain_completed");
        let reads = self.cluster.drain_completed_reads();
        let writes = self.cluster.drain_completed_writes();
        tr.end(s);
        log.absorb(reads, writes, &mut c);
        self.cluster.durability_mut().finalize(end);
        if let Some(consumer) = &mut consumer {
            consumer.consume(&self.sink, tr);
        }
        let wall_s = wall.elapsed().as_secs_f64();
        tr.set_tick(crate::spans::NO_TICK);

        for p in pending {
            c.relief_miss += 1;
            relief_lags.push(end.since(p.since).as_secs_f64());
        }
        c.ticks = total_ticks as u64;
        c.audit_lines = self.cluster.audit_mut().total_emitted();
        c.repair_bytes = self.cluster.durability().repair_bytes();
        c.unavail_windows = self.cluster.durability().windows().len() as u64;
        c.cep_events_seen = self.manager.judge().events_seen();
        c.cep_parse_errors = self.manager.judge().parse_errors() as u64;

        stats::sort(&mut log.read_secs);
        stats::sort(&mut log.write_secs);
        let read_ops = c.reads_attempted.max(1) as f64;
        let model = self.manager.model();
        let ledger = Ledger {
            read_p50_s: stats::percentile(&log.read_secs, 50.0),
            read_p90_s: stats::percentile(&log.read_secs, 90.0),
            read_p99_s: stats::percentile(&log.read_secs, 99.0),
            read_fail_pct: (c.reads_failed + c.reads_refused) as f64 / read_ops * 100.0,
            write_p95_s: stats::percentile(&log.write_secs, 95.0),
            storage_overhead_x: overhead_sum / overhead_n.max(1) as f64,
            standby_on_pct: model.standby_node_seconds(end) / model.all_active_node_seconds(end)
                * 100.0,
            relief_lag_s: stats::median(&relief_lags),
            data_loss_events: self.cluster.durability().loss_events().len() as u64,
        };

        let trace = consumer.map(|consumer| {
            profiler::set_enabled(false);
            let profile = profiler::snapshot();
            profiler::reset();
            let violations = consumer.oracle.into_violations();
            // the span report is the product a trace consumer would keep;
            // building it is part of what `spans.collect` prices
            let _ = consumer.collector.finish();

            let s = tr.begin("checkpoint.save");
            let t0 = Instant::now();
            let mut snap = Snapshot::new(SnapshotMeta {
                scenario: spec.name.to_string(),
                seed: self.seed,
                tick: total_ticks as u64,
            });
            snap.insert_section("cluster", self.cluster.save_state());
            snap.insert_section("manager", self.manager.save_state());
            let json = snap.to_json();
            let checkpoint_save_s = t0.elapsed().as_secs_f64();
            tr.end(s);

            TraceStats {
                events: consumer.events,
                bytes: consumer.bytes,
                oracle_violations: violations.len() as u64,
                violation_samples: violations.iter().take(5).map(|v| v.to_string()).collect(),
                checkpoint_save_s,
                checkpoint_bytes: json.len() as u64,
                profile,
            }
        });

        Outcome {
            setup: self.setup,
            wall_s,
            tick_ms,
            tick_idle,
            ledger,
            read_samples: log.read_secs.len(),
            counts: c,
            trace,
        }
    }
}

/// Spread clients over a fixed pool so the audit log's `ip=` field has
/// realistic cardinality.
fn client_id(tick: usize, pos: usize) -> ClientId {
    ClientId((tick as u32).wrapping_mul(131).wrapping_add(pos as u32) % 4096)
}

fn tally(c: &mut Counts, r: &TickReport) {
    c.files_judged += r.files_judged as u64;
    c.verdicts += (r.hot + r.cooled + r.cold) as u64;
    c.tasks_submitted += r.tasks_submitted as u64;
    c.tasks_completed += r.tasks_completed as u64;
    c.tasks_failed += r.tasks_failed as u64;
    c.tasks_timed_out += r.tasks_timed_out as u64;
    c.repairs_started += r.repairs_started as u64;
    c.reconstructions += r.reconstructions as u64;
    c.scrub_scanned += r.scrub_scanned as u64;
}
