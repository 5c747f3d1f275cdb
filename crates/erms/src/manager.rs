//! The ERMS control loop.
//!
//! [`ErmsManager::tick`] is one pass of the architecture in the paper's
//! Fig. 1: drain the audit logs into the CEP-backed judge, classify every
//! file, and turn the verdicts into Condor tasks —
//!
//! * hot → `Increase` straight to the computed optimum
//!   `⌈max(N_d, N_b,max) / τ_M⌉` (**immediate** priority; commissioning
//!   standby nodes first when the extras need somewhere to land). A
//!   file promoted by Formula (4) alone gets at least r_D + 1, never
//!   "one more than now", so a file at its target submits nothing
//!   however long its node stays overloaded,
//! * hot-but-encoded → `Decode` (**immediate**),
//! * cooled → `Decrease` back to the default factor (**when idle**),
//! * cold → `Encode` with the configured stripe layout (**when idle**).
//!
//! Tasks execute against the [`ClusterSim`]; replica movement completes
//! asynchronously (real simulated bytes), and a task only reports
//! success to Condor once every copy it started has landed — so the
//! journal honestly reflects cluster state, rollbacks included.
//! Commissioning picks its standby nodes by a typed query over cluster
//! node state, where the paper matches Condor ads (see
//! `ErmsManager::ensure_standby_capacity`).
//!
//! What the loop remembers lives in two record maps: one `FileCtl` per
//! file under management, keyed by `FileId` (ids are never reused, so a
//! record cannot outlive its file and alias a later one at the same
//! path), and one `JobCtl` per job waiting on replica copies. Paths
//! appear only at the edge: in [`ErmsTask`] (the Condor journal and its
//! rollback plan) and in telemetry events.

use crate::config::{ConfigError, ErmsConfig};
use crate::judge::{DataClass, DataJudge, FileSnapshot};
use crate::model::ActiveStandbyModel;
use crate::replication::optimal_replication;
use checkpoint::codec::{unknown, Ck};
use checkpoint::{CheckpointError, Value};
use condor::scheduler::{JobId, JobState, Outcome, Priority, Scheduler};
use hdfs_sim::cluster::CopyId;
use hdfs_sim::namespace::{FileMeta, StorageMode};
use hdfs_sim::{BlockId, ClusterSim, FileId, NodeId};
use simcore::telemetry::{Event as Tel, TelemetrySink};
use simcore::{prof_scope, trace, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// A replication-management task, as journalled by Condor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErmsTask {
    /// Raise `path` to `target` replicas.
    Increase { path: String, target: usize },
    /// Lower `path` to `target` replicas.
    Decrease { path: String, target: usize },
    /// Erasure-encode `path` (replication 1 + parities).
    Encode { path: String },
    /// Undo encoding and restore `target` replicas.
    Decode { path: String, target: usize },
    /// Verified repair of a file with quarantined-corrupt copies:
    /// re-copy every under-replicated block from a clean source (the
    /// scrubber's repair route for replicated files; dark encoded
    /// shards go through RS reconstruction instead).
    Repair { path: String },
}

/// Number of [`ErmsTask`] variants: the in-flight slots of a [`FileCtl`].
const TASK_KINDS: usize = 5;

/// The in-flight slot of `Encode` tasks.
const ENCODE: usize = 2;

impl ErmsTask {
    /// Index of the task's in-flight slot.
    fn kind(&self) -> usize {
        match self {
            ErmsTask::Increase { .. } => 0,
            ErmsTask::Decrease { .. } => 1,
            ErmsTask::Encode { .. } => ENCODE,
            ErmsTask::Decode { .. } => 3,
            ErmsTask::Repair { .. } => 4,
        }
    }
    fn path(&self) -> &str {
        match self {
            ErmsTask::Increase { path, .. }
            | ErmsTask::Decrease { path, .. }
            | ErmsTask::Encode { path }
            | ErmsTask::Decode { path, .. }
            | ErmsTask::Repair { path } => path,
        }
    }

    /// The compensating action recorded on rollback.
    fn inverse(&self, default_r: usize) -> ErmsTask {
        match self {
            ErmsTask::Increase { path, .. } => ErmsTask::Decrease {
                path: path.clone(),
                target: default_r,
            },
            ErmsTask::Decrease { path, .. } => ErmsTask::Increase {
                path: path.clone(),
                target: default_r,
            },
            ErmsTask::Encode { path } => ErmsTask::Decode {
                path: path.clone(),
                target: default_r,
            },
            ErmsTask::Decode { path, .. } => ErmsTask::Encode { path: path.clone() },
            // repair is idempotent convergence toward the replica
            // target; the only sane compensation is another attempt
            ErmsTask::Repair { path } => ErmsTask::Repair { path: path.clone() },
        }
    }
}

/// What one control-loop pass did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Files classified this tick. Settled-Cold files are counted in
    /// `cold` without being classified (see `Visit::Cold`).
    pub files_judged: usize,
    pub hot: usize,
    pub cooled: usize,
    pub cold: usize,
    pub tasks_submitted: usize,
    pub tasks_completed: usize,
    pub tasks_failed: usize,
    pub commissioned: Vec<NodeId>,
    pub shut_down: Vec<NodeId>,
    /// Self-healing: repair copies started this tick.
    pub repairs_started: usize,
    /// Self-healing: excess replicas trimmed this tick.
    pub replicas_trimmed: usize,
    /// Self-healing: dark encoded shards whose reconstruction started.
    pub reconstructions: usize,
    /// Self-healing: tasks failed by the timeout watchdog.
    pub tasks_timed_out: usize,
    /// Self-healing: commissioned standby nodes found dead and evicted.
    pub standby_evicted: Vec<NodeId>,
    /// Scrubber: blocks checksum-verified this tick.
    pub scrub_scanned: usize,
    /// Scrubber: corrupt copies detected (and quarantined) this tick.
    pub corruptions_found: usize,
}

/// What the control loop remembers about one file. A record exists only
/// while it says something: one equal to `FileCtl::default()` is dropped
/// (see [`ErmsManager::prune`]), and a deleted file's record goes with it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FileCtl {
    /// ERMS holds the file above the default factor.
    boosted: bool,
    /// Consecutive Cooled verdicts (hysteresis); any other verdict
    /// resets it.
    cooled_streak: u32,
    /// When the judge pass must look at the file again.
    visit: Visit,
    /// The queued or running job of each task kind (indexed by
    /// [`ErmsTask::kind`]), deduplicating resubmission.
    inflight: [Option<JobId>; TASK_KINDS],
}

/// When the judge pass revisits a file, besides whenever the cluster
/// marks it dirty (see [`ClusterSim::drain_dirty_files`]) or it is a
/// Formula (4) hit.
///
/// A file is *settled* when its verdict has reached a fixed point. The
/// cluster marks a file dirty with every audit or client-trace line it
/// logs for it and with every replication or encoding change, so while
/// it stays clean its window counts only decay: Formulas (1)–(3) can
/// only stop firing, (5) needs `boosted` (which only a finishing task
/// changes), and (6) is time-driven.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Visit {
    /// Re-judge every tick.
    Every,
    /// Settled with no deadline: an encoded Normal file, or a file
    /// without a record.
    #[default]
    Settled,
    /// Settled Normal and unencoded, with this `last_access`: revisited
    /// once `now - last_access` exceeds the judge's `cold_age`, so
    /// Formula (6) can fire.
    ColdDue(SimTime),
    /// Settled Cold: with encoding off or an `Encode` already queued,
    /// judging it again would only add one to `TickReport::cold`, so
    /// `select` counts it instead.
    Cold,
}

/// The records by [`Visit`], kept beside them so `select` reads only the
/// files it must revisit instead of walking every record. Every change
/// of a record's `Visit` goes through [`set`](Self::set).
#[derive(Debug, Default, PartialEq, Eq)]
struct VisitIndex {
    /// `Visit::Every` records.
    every: BTreeSet<FileId>,
    /// `Visit::ColdDue` records, by `last_access`.
    due: BTreeSet<(SimTime, FileId)>,
    /// `Visit::Cold` records.
    cold: BTreeSet<FileId>,
}

impl VisitIndex {
    /// Index every record (a loaded snapshot's).
    fn of(files: &BTreeMap<FileId, FileCtl>) -> Self {
        let mut index = VisitIndex::default();
        for (&file, ctl) in files {
            index.enter(file, ctl.visit);
        }
        index
    }

    /// Set `file`'s record to `visit`.
    fn set(&mut self, file: FileId, ctl: &mut FileCtl, visit: Visit) {
        if ctl.visit == visit {
            return;
        }
        match ctl.visit {
            Visit::Every => self.every.remove(&file),
            Visit::ColdDue(last) => self.due.remove(&(last, file)),
            Visit::Cold => self.cold.remove(&file),
            Visit::Settled => true,
        };
        self.enter(file, visit);
        ctl.visit = visit;
    }

    fn enter(&mut self, file: FileId, visit: Visit) {
        match visit {
            Visit::Every => self.every.insert(file),
            Visit::ColdDue(last) => self.due.insert((last, file)),
            Visit::Cold => self.cold.insert(file),
            Visit::Settled => true,
        };
    }
}

/// A dispatched job waiting on the replica copies it started.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JobCtl {
    /// Copies still in flight: the job's entries in `pending_copies`.
    waiting: usize,
    /// Whether a copy that already landed failed.
    failed_copy: bool,
    /// When the copies started (timeout watchdog).
    started: SimTime,
}

/// What one judge pass covers, resolved to ids once per tick.
struct Pass {
    /// Files to judge, ascending — the order a namespace walk visits
    /// them, so task submission (and thus Condor `JobId` assignment) is
    /// the same whichever way the set was built.
    visit: Vec<FileId>,
    /// Formula (4): each overloaded datanode's top file.
    promoted: BTreeSet<FileId>,
    /// Settled-Cold files outside `visit`: Cold verdicts counted, not
    /// recomputed.
    settled_cold: usize,
}

/// The elastic replication manager.
pub struct ErmsManager {
    cfg: ErmsConfig,
    judge: DataJudge,
    condor: Scheduler<ErmsTask>,
    model: ActiveStandbyModel,
    /// Per-file control state, for files that have any.
    files: BTreeMap<FileId, FileCtl>,
    /// `files` by `Visit`; rebuilt on load, never serialized.
    visits: VisitIndex,
    /// Jobs waiting on copies.
    jobs: BTreeMap<JobId, JobCtl>,
    /// The job each in-flight task copy belongs to.
    pending_copies: BTreeMap<CopyId, JobId>,
    /// In-flight shard reconstructions (self-healing), by copy.
    reconstruct_copies: BTreeMap<CopyId, BlockId>,
    /// Blocks with a reconstruction already in flight.
    reconstructing: BTreeSet<BlockId>,
    /// Whether the first full classification pass has happened. The
    /// manager may be built over a cluster that already has files, so
    /// tick 1 always rescans everything.
    primed: bool,
    telemetry: TelemetrySink,
    /// Total tasks finished, for harness accounting.
    pub total_completed: u64,
    pub total_failed: u64,
}

impl ErmsManager {
    /// Build the manager and configure `cluster` for the active/standby
    /// model (designating and powering off the standby pool).
    ///
    /// Beyond the config's own invariants, this validates the standby
    /// pool against the actual cluster: every designated node must exist
    /// and must not already hold block replicas (powering such a node
    /// off would take live data with it).
    pub fn new(cfg: ErmsConfig, cluster: &mut ClusterSim) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let datanodes = cluster.config().datanodes;
        for &n in &cfg.standby {
            if n.0 >= datanodes {
                return Err(ConfigError::UnknownStandbyNode {
                    node: n.0,
                    datanodes,
                });
            }
            let blocks = cluster.node_block_count(n);
            if blocks > 0 {
                return Err(ConfigError::StandbyHoldsReplicas { node: n.0, blocks });
            }
        }
        let all: Vec<NodeId> = cluster.topology().nodes().collect();
        let standby: Vec<NodeId> = cfg.standby.clone();
        let active: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|n| !standby.contains(n))
            .collect();
        cluster.designate_standby(&standby);
        let model = if standby.is_empty() {
            ActiveStandbyModel::all_active(active)
        } else {
            ActiveStandbyModel::new(active, standby)
        };
        // Under self-healing (and for the scrubber's repair tasks),
        // failed tasks (dead endpoints, downed racks) retry with
        // exponential backoff instead of hammering the same broken
        // placement every tick.
        let condor = if cfg.enable_self_healing || cfg.enable_scrubber {
            Scheduler::with_retry_policy(
                cfg.max_concurrent_tasks,
                cfg.max_task_attempts,
                condor::scheduler::RetryPolicy::new(
                    simcore::SimDuration::from_secs(60),
                    simcore::SimDuration::from_mins(15),
                    0.2,
                    7,
                ),
            )
        } else {
            Scheduler::new(cfg.max_concurrent_tasks, cfg.max_task_attempts)
        };
        Ok(ErmsManager {
            judge: DataJudge::try_new(cfg.thresholds.clone())?,
            condor,
            model,
            files: BTreeMap::new(),
            visits: VisitIndex::default(),
            jobs: BTreeMap::new(),
            pending_copies: BTreeMap::new(),
            reconstruct_copies: BTreeMap::new(),
            reconstructing: BTreeSet::new(),
            primed: false,
            telemetry: TelemetrySink::disabled(),
            total_completed: 0,
            total_failed: 0,
            cfg,
        })
    }

    /// Install a telemetry sink, fanning it out to the CEP engine and
    /// the Condor scheduler so one recording handle captures the whole
    /// control loop.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.judge.set_telemetry(sink.clone());
        self.condor.set_telemetry(sink.clone());
        self.telemetry = sink;
    }

    pub fn judge(&mut self) -> &mut DataJudge {
        &mut self.judge
    }
    pub fn model(&self) -> &ActiveStandbyModel {
        &self.model
    }
    pub fn condor(&self) -> &Scheduler<ErmsTask> {
        &self.condor
    }
    pub fn is_boosted(&self, file: FileId) -> bool {
        self.files.get(&file).is_some_and(|ctl| ctl.boosted)
    }

    /// One control-loop pass at `now`: the phases below, in order, each
    /// a profiler scope under `tick`.
    pub fn tick(&mut self, cluster: &mut ClusterSim, now: SimTime) -> TickReport {
        prof_scope!("tick");
        let mut report = TickReport::default();
        self.observe(cluster);
        self.note_booted(cluster);
        self.settle_copies(cluster, now, &mut report);
        self.heal(cluster, now, &mut report);
        self.scrub_pass(cluster, now, &mut report);
        let pass = self.select(cluster, now);
        self.judge_pass(cluster, now, pass, &mut report);
        self.dispatch(cluster, now, &mut report);
        self.power(cluster, now, &mut report);
        self.flush(&report);
        report
    }

    // ------------------------------------------------------------------

    /// Phase 1: what the cluster logged since the last tick — audit
    /// lines into the CEP windows, and deletions out of the record maps,
    /// so the manager never leaks state for (or acts on a streak or
    /// boost belonging to) a file that no longer exists. A task already
    /// queued for a deleted file is left to fail at dispatch.
    fn observe(&mut self, cluster: &mut ClusterSim) {
        let lines = {
            prof_scope!("audit");
            for file in cluster.drain_deleted_files() {
                if let Some(mut ctl) = self.files.remove(&file) {
                    self.visits.set(file, &mut ctl, Visit::Settled);
                }
            }
            cluster.drain_audit()
        };
        prof_scope!("cep_drain");
        self.judge.observe_lines(lines.iter().map(String::as_str));
        // freed inside the scope, not after it
        drop(lines);
    }

    /// Phase 2: note which commissioned standby nodes have finished
    /// booting.
    fn note_booted(&mut self, cluster: &ClusterSim) {
        prof_scope!("boot");
        for n in self.model.powered_on() {
            if matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Active) {
                self.model.mark_booted(n);
            }
        }
    }

    /// Phase 6: the judge pass's visit set. By default it is
    /// incremental: files touched by audit/replica traffic since the
    /// last tick (the cluster's dirty set), records to re-judge every
    /// tick, Formula (4) promotions, and files whose cold-age deadline
    /// has arrived. Every other file is settled (see [`Visit`]): a full
    /// rescan would give it the verdict it last had and act on none, so
    /// only the settled-Cold ones need counting and the two modes yield
    /// identical actions (see DESIGN.md, "Scaling the control loop";
    /// `full_rescan` forces the exhaustive walk, as does the first
    /// tick).
    fn select(&mut self, cluster: &mut ClusterSim, now: SimTime) -> Pass {
        prof_scope!("select");
        let overloaded = self.judge.overloaded_nodes(now);
        let dirty = cluster.drain_dirty_files();
        let ns = cluster.namespace();
        let promoted: BTreeSet<FileId> = overloaded
            .iter()
            .filter_map(|(_, path, _)| ns.resolve(path))
            .collect();
        let full = self.cfg.full_rescan || !self.primed;
        self.primed = true;
        #[cfg(test)]
        assert_eq!(
            self.visits,
            VisitIndex::of(&self.files),
            "the visit index differs from the records"
        );
        let mut settled_cold = 0;
        let visit: Vec<FileId> = if full {
            ns.files().map(|meta| meta.id).collect()
        } else {
            let mut visit: BTreeSet<FileId> = dirty
                .into_iter()
                .filter(|&f| ns.file(f).is_some())
                .collect();
            visit.extend(&promoted);
            visit.extend(&self.visits.every);
            // the due records are a prefix of `due`: the oldest accesses
            let cold_age = self.judge.thresholds().cold_age;
            let due = self.visits.due.iter();
            let due = due.take_while(|(last, _)| now.since(*last) > cold_age);
            visit.extend(due.map(|&(_, file)| file));
            let cold = &self.visits.cold;
            let revisited = if visit.len() < cold.len() {
                visit.iter().filter(|f| cold.contains(f)).count()
            } else {
                cold.iter().filter(|f| visit.contains(f)).count()
            };
            settled_cold = cold.len() - revisited;
            visit.into_iter().collect()
        };
        Pass {
            visit,
            promoted,
            settled_cold,
        }
    }

    /// Phase 7: judge and act, file by file in `FileId` order. The
    /// judge decides from a view of the namespace's own record and its
    /// CEP windows; acting on one file touches neither, so it cannot
    /// change the next file's verdict.
    fn judge_pass(
        &mut self,
        cluster: &ClusterSim,
        now: SimTime,
        pass: Pass,
        report: &mut TickReport,
    ) {
        prof_scope!("judge");
        let default_r = cluster.config().default_replication;
        report.files_judged = pass.visit.len();
        report.cold += pass.settled_cold;
        let ns = cluster.namespace();
        for meta in pass.visit.iter().filter_map(|&id| ns.file(id)) {
            self.judge_file(now, meta, &pass, default_r, report);
        }
        // freed inside the scope, not at the end of `tick`
        drop(pass);
    }

    /// Classify one file and turn the verdict into a task.
    fn judge_file(
        &mut self,
        now: SimTime,
        meta: &FileMeta,
        pass: &Pass,
        default_r: usize,
        report: &mut TickReport,
    ) {
        let (boosted, cooled_before) = self
            .files
            .get(&meta.id)
            .map_or((false, 0), |ctl| (ctl.boosted, ctl.cooled_streak));
        let snap = FileSnapshot {
            id: meta.id,
            path: &meta.path,
            replication: meta.replication(),
            blocks: &meta.blocks,
            last_access: meta.last_access,
            boosted,
            encoded: meta.is_encoded(),
        };
        let is_promoted = pass.promoted.contains(&snap.id);
        let verdict = self.judge.classify(now, &snap);
        let class = if verdict.class == DataClass::Normal && is_promoted {
            DataClass::Hot
        } else {
            verdict.class
        };
        trace!(
            self.telemetry,
            now,
            Tel::Verdict {
                path: snap.path.to_string(),
                verdict: class_name(class).into(),
                file_sessions: verdict.n_d,
                max_block_sessions: verdict.n_b_max,
                replicas: snap.replication as u32,
            }
        );
        // consecutive Cooled verdicts, this one included (hysteresis)
        let streak = match class {
            DataClass::Cooled => cooled_before + 1,
            _ => 0,
        };
        match class {
            DataClass::Hot => {
                report.hot += 1;
                // one jump to the factor the file's own demand needs; a
                // Formula (4) promotion only guarantees r_D + 1, so an
                // overloaded node's stale window count cannot ratchet
                // its top file up one replica per tick
                let target = optimal_replication(
                    verdict.demand,
                    self.cfg.thresholds.tau_hot,
                    default_r,
                    self.cfg.max_replication,
                )
                .max(if is_promoted { default_r + 1 } else { 0 })
                .min(self.cfg.max_replication.max(default_r));
                if snap.encoded {
                    // `DecodeCold` is traced when the rewrite lands
                    // in `exec_decode`, not at submission.
                    let task = ErmsTask::Decode {
                        path: snap.path.to_string(),
                        target: target.max(default_r),
                    };
                    self.submit(now, snap.id, task, Priority::Immediate, report);
                } else if target > snap.replication {
                    self.boost(now, &snap, target, verdict.demand, report);
                }
            }
            DataClass::Cooled => {
                report.cooled += 1;
                if streak >= self.cfg.cooled_patience && snap.replication > default_r {
                    let task = ErmsTask::Decrease {
                        path: snap.path.to_string(),
                        target: default_r,
                    };
                    if self.submit(now, snap.id, task, Priority::WhenIdle, report) {
                        trace!(
                            self.telemetry,
                            now,
                            Tel::ReplicationShed {
                                path: snap.path.to_string(),
                                from: snap.replication as u32,
                                to: default_r as u32,
                            }
                        );
                    }
                }
            }
            DataClass::Cold => {
                report.cold += 1;
                if self.cfg.enable_encode && !snap.encoded {
                    // `EncodeCold` is traced when the stripes land
                    // in `exec_encode`, not at submission.
                    let task = ErmsTask::Encode {
                        path: snap.path.to_string(),
                    };
                    self.submit(now, snap.id, task, Priority::WhenIdle, report);
                }
            }
            DataClass::Normal => {}
        }
        self.note_visit(&snap, class, streak);
    }

    /// Submit an `Increase` to `target` and trace the boost if it was
    /// not already queued.
    fn boost(
        &mut self,
        now: SimTime,
        snap: &FileSnapshot<'_>,
        target: usize,
        sessions: f64,
        report: &mut TickReport,
    ) {
        let task = ErmsTask::Increase {
            path: snap.path.to_string(),
            target,
        };
        if self.submit(now, snap.id, task, Priority::Immediate, report) {
            trace!(
                self.telemetry,
                now,
                Tel::ReplicationBoost {
                    path: snap.path.to_string(),
                    from: snap.replication as u32,
                    to: target as u32,
                    sessions,
                }
            );
        }
    }

    /// Drop `file`'s record once it says nothing.
    fn prune(&mut self, file: FileId) {
        if self.files.get(&file) == Some(&FileCtl::default()) {
            self.files.remove(&file);
        }
    }

    /// Maintain the file's record after judging it: the Cooled streak
    /// and when to judge it next.
    ///
    /// An unboosted file settles (see [`Visit`]) when it is judged
    /// Normal with no task in flight, or Cold with no task in flight but
    /// a queued `Encode` and nothing left to submit. Windowed demand may
    /// still be non-zero: it can only decay. Time alone can carry an
    /// unencoded Normal file past Formula (6)'s cold age, so its
    /// deadline is kept; encoded files never re-enter Cold.
    fn note_visit(&mut self, snap: &FileSnapshot<'_>, class: DataClass, cooled_streak: u32) {
        let encode = self.cfg.enable_encode;
        let ctl = self.files.entry(snap.id).or_default();
        ctl.cooled_streak = cooled_streak;
        let mut slots = ctl.inflight.iter().enumerate();
        let others_idle = slots.all(|(kind, job)| kind == ENCODE || job.is_none());
        let encode_queued = ctl.inflight[ENCODE].is_some();
        let visit = match class {
            _ if snap.boosted || !others_idle => Visit::Every,
            DataClass::Normal if encode_queued => Visit::Every,
            DataClass::Normal if snap.encoded => Visit::Settled,
            DataClass::Normal => Visit::ColdDue(snap.last_access),
            DataClass::Cold if encode_queued || !encode => Visit::Cold,
            DataClass::Hot | DataClass::Cooled | DataClass::Cold => Visit::Every,
        };
        self.visits.set(snap.id, ctl, visit);
        self.prune(snap.id);
    }

    /// Enqueue `task` for `file` (the file at the task's path). Returns
    /// whether it was actually enqueued: false when a task of the same
    /// kind is already queued or running for the file.
    fn submit(
        &mut self,
        now: SimTime,
        file: FileId,
        task: ErmsTask,
        priority: Priority,
        report: &mut TickReport,
    ) -> bool {
        let slot = &mut self.files.entry(file).or_default().inflight[task.kind()];
        if slot.is_some() {
            return false;
        }
        *slot = Some(self.condor.submit(now, task, priority));
        report.tasks_submitted += 1;
        true
    }

    /// Phase 8: dispatch and execute Condor tasks, then compensate the
    /// ones that failed for good.
    fn dispatch(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        prof_scope!("dispatch");
        let idle = cluster.is_idle();
        for (job, task) in self.condor.dispatch(now, idle) {
            self.execute(cluster, now, job, task, report);
        }
        self.compensate_rollbacks(cluster, now);
    }

    fn execute(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        task: ErmsTask,
        report: &mut TickReport,
    ) {
        // a task acts on whatever file is at its path when it runs
        let outcome = match (cluster.namespace().resolve(task.path()), &task) {
            (None, _) => PendingOrDone::Done(Outcome::Failure("file deleted".into())),
            (Some(file), ErmsTask::Increase { target, .. }) => {
                self.exec_increase(cluster, now, job, file, *target, report)
            }
            (Some(file), ErmsTask::Decrease { target, .. }) => {
                cluster.set_file_replication(file, *target);
                PendingOrDone::Done(Outcome::Success)
            }
            (Some(file), ErmsTask::Encode { path }) => self.exec_encode(cluster, file, path),
            (Some(file), ErmsTask::Decode { path, target }) => {
                self.exec_decode(cluster, now, job, file, path, *target)
            }
            (Some(file), ErmsTask::Repair { .. }) => self.exec_repair(cluster, now, job, file),
        };
        match outcome {
            PendingOrDone::Done(outcome) => {
                self.finish(cluster, now, job, &task, outcome, report);
            }
            PendingOrDone::AwaitingCopies => {
                // settled by a later tick via settle_copies
            }
        }
    }

    /// Report `job`'s outcome to Condor and update the record of the
    /// file now at the task's path (none if it was deleted meanwhile).
    fn finish(
        &mut self,
        cluster: &ClusterSim,
        now: SimTime,
        job: JobId,
        task: &ErmsTask,
        outcome: Outcome,
        report: &mut TickReport,
    ) {
        let ok = outcome == Outcome::Success;
        self.condor.report(now, job, outcome);
        if ok {
            report.tasks_completed += 1;
            self.total_completed += 1;
        } else {
            report.tasks_failed += 1;
            self.total_failed += 1;
        }
        let Some(file) = cluster.namespace().resolve(task.path()) else {
            return;
        };
        let ctl = self.files.entry(file).or_default();
        // free the dedup slot only when the job is no longer
        // queued/running (a path reused by a newer file may hold that
        // file's own job there)
        let slot = &mut ctl.inflight[task.kind()];
        if *slot == Some(job) && self.condor.state(job) != Some(JobState::Queued) {
            *slot = None;
            // a full rescan may act on a Cold file again once a slot
            // frees (resubmit an `Encode` that failed for good)
            if ctl.visit == Visit::Cold {
                self.visits.set(file, ctl, Visit::Every);
            }
        }
        if ok {
            match task {
                ErmsTask::Increase { .. } | ErmsTask::Decode { .. } => ctl.boosted = true,
                ErmsTask::Decrease { .. } | ErmsTask::Encode { .. } => ctl.boosted = false,
                ErmsTask::Repair { .. } => {} // no replication-state change
            }
        }
        self.prune(file);
    }

    fn exec_increase(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        file: FileId,
        target: usize,
        report: &mut TickReport,
    ) -> PendingOrDone {
        let current = cluster
            .namespace()
            .file(file)
            .map(|m| m.replication())
            .unwrap_or(0);
        let extra = target.saturating_sub(current);
        if extra == 0 {
            return PendingOrDone::Done(Outcome::Success);
        }
        // make sure the extras have standby nodes to land on
        if !self.ensure_standby_capacity(cluster, now, extra, report) {
            return PendingOrDone::Done(Outcome::Failure("awaiting standby boot".into()));
        }
        let copies = cluster.set_file_replication(file, target);
        if copies.is_empty() {
            // nothing could start (no space anywhere)
            return PendingOrDone::Done(Outcome::Failure("no placement targets".into()));
        }
        self.track_copies(now, job, copies);
        PendingOrDone::AwaitingCopies
    }

    fn exec_encode(&mut self, cluster: &mut ClusterSim, file: FileId, path: &str) -> PendingOrDone {
        let (num_blocks, already) = match cluster.namespace().file(file) {
            Some(m) => (m.blocks.len(), m.is_encoded()),
            None => return PendingOrDone::Done(Outcome::Failure("file vanished".into())),
        };
        if already {
            return PendingOrDone::Done(Outcome::Success);
        }
        let block_size = cluster.config().block_size;
        let plan = erasure::StripePlan::for_file(num_blocks, block_size, self.cfg.cold_stripe);
        // 1. shrink data replicas to one
        cluster.set_file_replication(file, 1);
        // 2. place the parity blocks per Algorithm 1
        let mut parities = Vec::new();
        let mut index = 0u32;
        for stripe in &plan.stripes {
            for _ in 0..stripe.parity_count {
                match cluster.place_parity_block(file, index, block_size) {
                    Some((b, _node)) => parities.push(b),
                    None => {
                        return PendingOrDone::Done(Outcome::Failure(
                            "no parity placement target".into(),
                        ))
                    }
                }
                index += 1;
            }
        }
        let parity_count = parities.len() as u32;
        cluster.mark_encoded(file, parities);
        trace!(
            self.telemetry,
            cluster.now(),
            Tel::EncodeCold {
                path: path.to_string(),
                stripes: plan.stripes.len() as u32,
                parities: parity_count,
            }
        );
        PendingOrDone::Done(Outcome::Success)
    }

    fn exec_decode(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        file: FileId,
        path: &str,
        target: usize,
    ) -> PendingOrDone {
        // a retry (its first attempt's copies failed) finds the file
        // decoded already, and only restores the replicas
        if cluster
            .namespace()
            .file(file)
            .is_some_and(FileMeta::is_encoded)
        {
            cluster.mark_decoded(file, target);
            trace!(
                self.telemetry,
                now,
                Tel::DecodeCold {
                    path: path.to_string(),
                }
            );
        }
        let copies = cluster.set_file_replication(file, target);
        if copies.is_empty() {
            return PendingOrDone::Done(Outcome::Success);
        }
        self.track_copies(now, job, copies);
        PendingOrDone::AwaitingCopies
    }

    /// Verified repair of a quarantined file: re-copy every block that
    /// sits below its target replica count from a surviving clean source
    /// (the cluster's copy completion re-verifies the source, so a
    /// corrupt replica can never propagate). Blocks with zero live
    /// replicas are left for the dark-shard reconstruction pass; the task
    /// fails and retries with backoff until reconstruction lands.
    fn exec_repair(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        job: JobId,
        file: FileId,
    ) -> PendingOrDone {
        let blocks: Vec<BlockId> = match cluster.namespace().file(file) {
            Some(meta) => all_blocks(meta).collect(),
            None => return PendingOrDone::Done(Outcome::Failure("file vanished".into())),
        };
        let mut copies = Vec::new();
        let mut dark = 0usize;
        for b in blocks {
            let have = cluster.blockmap().replica_count(b);
            let want = cluster.block_target(b).max(1);
            if have == 0 {
                dark += 1;
                continue;
            }
            if have < want {
                copies.extend(cluster.add_replicas(b, want - have));
            }
        }
        if !copies.is_empty() {
            self.track_copies(now, job, copies);
            return PendingOrDone::AwaitingCopies;
        }
        if dark > 0 {
            return PendingOrDone::Done(Outcome::Failure("awaiting reconstruction".into()));
        }
        PendingOrDone::Done(Outcome::Success)
    }

    fn track_copies(&mut self, now: SimTime, job: JobId, copies: Vec<CopyId>) {
        let ctl = JobCtl {
            waiting: copies.len(),
            failed_copy: false,
            started: now,
        };
        self.jobs.insert(job, ctl);
        for c in copies {
            self.pending_copies.insert(c, job);
        }
    }

    /// Stop waiting on `job`'s copies (its executor timed out or died).
    fn abandon_copies(&mut self, job: JobId) {
        self.pending_copies.retain(|_, &mut j| j != job);
        self.jobs.remove(&job);
    }

    /// Phase 3: settle the copy completions of earlier ticks, finishing
    /// each job whose last copy has landed.
    fn settle_copies(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        prof_scope!("settle");
        let mut finished: Vec<(JobId, bool)> = Vec::new();
        for stat in cluster.drain_completed_copies() {
            let Some(job) = self.pending_copies.remove(&stat.id) else {
                // not a task copy: maybe one of our shard reconstructions
                if let Some(block) = self.reconstruct_copies.remove(&stat.id) {
                    // success or failure, the block is fair game for the
                    // next heal pass to re-examine
                    self.reconstructing.remove(&block);
                }
                continue; // otherwise repair traffic, not ours
            };
            // `load_state` refuses a pending copy without its job record
            let Some(ctl) = self.jobs.get_mut(&job) else {
                continue;
            };
            ctl.failed_copy |= !stat.succeeded;
            ctl.waiting -= 1;
            if ctl.waiting == 0 {
                finished.push((job, !ctl.failed_copy));
                self.jobs.remove(&job);
            }
        }
        for (job, ok) in finished {
            let Some(task) = self.condor.journal().payload_of(job) else {
                continue;
            };
            let outcome = if ok {
                Outcome::Success
            } else {
                Outcome::Failure("replica copy failed".into())
            };
            self.finish(cluster, now, job, &task, outcome, report);
        }
    }

    /// Commission standby nodes until `extra` serving standby nodes are
    /// available (or the pool is exhausted). Returns whether enough
    /// capacity is already serving.
    ///
    /// The candidates are the standby-pool nodes the cluster holds
    /// powered off (`NodeState::Standby`) that this tick has not already
    /// commissioned, tried in `NodeId` order. The pick stops at the
    /// first one the model still has booting from an earlier tick (its
    /// boot request is refused), so a jump larger than the serving pool
    /// waits on that boot rather than commissioning past it.
    ///
    /// The paper picks by matching Condor ads; this is the same query,
    /// typed. Ranking by free disk never separates two candidates:
    /// powering a node off empties it, and every node has the
    /// configured `disk_capacity`. The ads broke that tie by name
    /// (`"dn10" < "dn9"`), which agrees with `NodeId` order on every
    /// pool within one digit count (10..18, 15..18, 150..180); a pool
    /// spanning 9 and 10 now picks `NodeId(9)` first.
    fn ensure_standby_capacity(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        extra: usize,
        report: &mut TickReport,
    ) -> bool {
        if self.model.standby_nodes().count() == 0 {
            return true; // all-active configuration: place anywhere
        }
        let serving_standby = self
            .model
            .standby_nodes()
            .filter(|&n| matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Active))
            .count();
        if serving_standby >= extra {
            return true;
        }
        // Not enough: commission more. The boot takes time; retry the
        // task later.
        let candidates: Vec<NodeId> = self
            .model
            .standby_nodes()
            .filter(|&n| {
                matches!(
                    cluster.node_state(n),
                    hdfs_sim::datanode::NodeState::Standby
                )
            })
            .filter(|n| !report.commissioned.contains(n))
            .collect();
        for n in candidates.into_iter().take(extra - serving_standby) {
            // refused: still booting from an earlier tick, so stop here
            if !(self.model.request_boot(n, now) && cluster.commission(n)) {
                break;
            }
            report.commissioned.push(n);
        }
        // if no commissionable node remains (pool exhausted, or only
        // crashed nodes left — those can never boot), let placement fall
        // back to the active set instead of waiting forever
        let commissionable = self.model.powered_off().into_iter().any(|n| {
            matches!(
                cluster.node_state(n),
                hdfs_sim::datanode::NodeState::Standby
            )
        });
        !commissionable && report.commissioned.is_empty()
    }

    /// Phase 4, the self-healing pass: (1) time out tasks stuck behind dead
    /// endpoints or downed uplinks, (2) evict crashed standby nodes from
    /// the model so commissioning re-selects, (3) run the namenode
    /// repair scan (under-replication re-copies honour the replication
    /// monitor's staging and `max_replication_streams` pacing inside the
    /// cluster; block-reported excess gets trimmed), (4) reconstruct
    /// dark shards of encoded files from their surviving stripe mates.
    /// Without self-healing only the watchdog runs, and only for the
    /// scrubber's repair tasks.
    fn heal(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        prof_scope!("repair_scan");
        // (1) task-timeout watchdog
        if self.cfg.enable_self_healing || self.cfg.enable_scrubber {
            self.watchdog_stuck_tasks(cluster, now, report);
        }
        if !self.cfg.enable_self_healing {
            return;
        }

        // (2) crashed commissioned standby nodes: bank their energy,
        // return them to Off, and let the next capacity request pick a
        // healthy replacement (a dead node is never a candidate)
        for n in self.model.powered_on() {
            if matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Dead)
                && self.model.mark_failed(n, now)
            {
                report.standby_evicted.push(n);
                trace!(
                    self.telemetry,
                    now,
                    Tel::SelfHeal {
                        action: "standby_evict".into(),
                        detail: n.to_string(),
                    }
                );
            }
        }

        // (3) namenode repair scan
        let under = cluster.repair_under_replicated().len();
        let over = cluster.trim_over_replicated();
        report.repairs_started += under;
        report.replicas_trimmed += over;

        // (4) reconstruct dark shards of encoded files (immediate
        // priority: a dark block is the namenode's most urgent queue, so
        // this bypasses Condor's idle gating entirely)
        let recon_before = report.reconstructions;
        self.reconstruct_dark_shards(cluster, now, report);
        trace!(
            self.telemetry,
            now,
            Tel::RepairScan {
                under_replicated: under as u64,
                over_replicated: over as u64,
                dark_shards: (report.reconstructions - recon_before) as u64,
            }
        );
    }

    /// Time out tasks stuck behind dead endpoints or downed uplinks so
    /// Condor can retry them with backoff elsewhere. Shared between the
    /// self-healing pass and the scrubber (which needs the watchdog for
    /// its repair tasks even when full self-healing is off).
    fn watchdog_stuck_tasks(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        report: &mut TickReport,
    ) {
        let stuck: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, ctl)| now.since(ctl.started) > self.cfg.task_timeout)
            .map(|(&job, _)| job)
            .collect();
        for job in stuck {
            self.abandon_copies(job);
            let Some(task) = self.condor.journal().payload_of(job) else {
                continue;
            };
            report.tasks_timed_out += 1;
            trace!(
                self.telemetry,
                now,
                Tel::SelfHeal {
                    action: "task_timeout".into(),
                    detail: task.path().to_string(),
                }
            );
            self.finish(
                cluster,
                now,
                job,
                &task,
                Outcome::Failure("task timeout".into()),
                report,
            );
        }
    }

    /// Phase 5, the budgeted background scrub pass: walk a slice of the block
    /// space verifying stored checksums (hot, boosted files first), then
    /// schedule a verified repair task for every block left quarantined.
    /// The scan budget sheds under queue pressure — half budget once the
    /// Condor queue exceeds the concurrency cap, zero at twice the cap —
    /// so scrubbing degrades before it can stall the control loop.
    ///
    /// Both orders here are by *path* — the hot list and the repair
    /// submissions (hence their `JobId`s) — and traces pin them.
    fn scrub_pass(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        if !self.cfg.enable_scrubber {
            return;
        }
        prof_scope!("scrub");
        let full = self.cfg.scrub_blocks_per_tick as usize;
        let queued = self.condor.pending();
        let cap = self.cfg.max_concurrent_tasks;
        let budget = if queued >= cap * 2 {
            0
        } else if queued > cap {
            full / 2
        } else {
            full
        };

        // hot data first: blocks of currently boosted files
        let ns = cluster.namespace();
        let boosted: BTreeMap<&str, &FileMeta> = self
            .files
            .iter()
            .filter(|(_, ctl)| ctl.boosted)
            .filter_map(|(&file, _)| ns.file(file))
            .map(|meta| (meta.path.as_str(), meta))
            .collect();
        let hot: Vec<BlockId> = boosted.values().flat_map(|meta| all_blocks(meta)).collect();
        let (scanned, found) = cluster.scrub(budget, &hot);
        report.scrub_scanned += scanned;
        report.corruptions_found += found;

        // verified repair for everything quarantined (by this pass, the
        // read path, or a failed copy) — dedup through the in-flight slot;
        // a block whose file was deleted since quarantine resolves to none
        let ns = cluster.namespace();
        let quarantined: BTreeMap<&str, FileId> = cluster
            .corrupt_blocks_pending_repair()
            .into_iter()
            .filter_map(|block| ns.file(ns.block(block)?.file))
            .map(|meta| (meta.path.as_str(), meta.id))
            .collect();
        for (path, file) in quarantined {
            let task = ErmsTask::Repair {
                path: path.to_string(),
            };
            self.submit(now, file, task, Priority::Immediate, report);
        }
    }

    /// Start an RS reconstruction for each recoverable shard with zero
    /// live replicas. Candidate files come from the blockmap's dark-block
    /// index (blocks with a registered target and no replicas), so a
    /// healthy cluster pays nothing here regardless of namespace size;
    /// per-file stripe analysis then proceeds exactly as a namespace walk
    /// would, in file-id order.
    fn reconstruct_dark_shards(
        &mut self,
        cluster: &mut ClusterSim,
        now: SimTime,
        report: &mut TickReport,
    ) {
        use erasure::recovery::{rs_recovery_plan, ErasurePattern};
        use erasure::StripePlan;

        struct DarkShard {
            block: BlockId,
            sources: Vec<NodeId>,
        }
        let mut work: Vec<DarkShard> = Vec::new();
        let block_size = cluster.config().block_size;
        let candidates: BTreeSet<FileId> = cluster
            .blockmap()
            .dark_blocks()
            .filter_map(|b| cluster.namespace().block(b).map(|info| info.file))
            .collect();
        for meta in candidates
            .iter()
            .filter_map(|&id| cluster.namespace().file(id))
        {
            let StorageMode::Encoded { parity_blocks } = &meta.mode else {
                continue;
            };
            let plan = StripePlan::for_file(meta.blocks.len(), block_size, self.cfg.cold_stripe);
            for stripe in &plan.stripes {
                // shard order: the stripe's data blocks, then its parities
                let m = stripe.parity_count;
                let parities = &parity_blocks[stripe.index * m..(stripe.index + 1) * m];
                let shards: Vec<BlockId> = stripe
                    .blocks
                    .iter()
                    .map(|&i| meta.blocks[i])
                    .chain(parities.iter().copied())
                    .collect();
                let erased: Vec<usize> = (0..shards.len())
                    .filter(|&i| cluster.blockmap().replica_count(shards[i]) == 0)
                    .collect();
                if erased.is_empty() {
                    continue;
                }
                let k = stripe.blocks.len();
                let pattern = ErasurePattern::from_indices(shards.len(), &erased);
                for &e in &erased {
                    let block = shards[e];
                    // only data shards carry client-visible bytes; dark
                    // parities are rebuilt too (they restore tolerance)
                    if self.reconstructing.contains(&block) {
                        continue;
                    }
                    let Some(recovery) = rs_recovery_plan(&pattern, k, e) else {
                        continue; // stripe unrecoverable: true data loss
                    };
                    let sources: Vec<NodeId> = recovery
                        .read_from
                        .iter()
                        .filter_map(|&s| {
                            cluster.blockmap().replica_nodes(shards[s]).first().copied()
                        })
                        .collect();
                    if sources.len() < recovery.read_from.len() {
                        continue; // a survivor went dark mid-scan
                    }
                    work.push(DarkShard { block, sources });
                }
            }
        }
        for shard in work {
            // target: the serving node with the most free disk that is
            // not a source (ties break toward the lower id)
            let target = cluster
                .node_views(Some(shard.block))
                .into_iter()
                .filter(|v| v.serving && !v.holds_block && !shard.sources.contains(&v.id))
                .max_by_key(|v| (v.free, std::cmp::Reverse(v.id.0)))
                .map(|v| v.id);
            let Some(target) = target else { continue };
            if let Some(copy) = cluster.reconstruct_block(shard.block, &shard.sources, target) {
                self.reconstruct_copies.insert(copy, shard.block);
                self.reconstructing.insert(shard.block);
                report.reconstructions += 1;
                trace!(
                    self.telemetry,
                    now,
                    Tel::SelfHeal {
                        action: "reconstruct_shard".into(),
                        detail: shard.block.to_string(),
                    }
                );
            }
        }
    }

    /// Phase 9: shut drained standby nodes down.
    fn power(&mut self, cluster: &mut ClusterSim, now: SimTime, report: &mut TickReport) {
        prof_scope!("power");
        if self.condor.pending() > 0 || !self.jobs.is_empty() {
            return; // replica traffic may still target standby nodes
        }
        for n in self.model.powered_on() {
            let serving = matches!(cluster.node_state(n), hdfs_sim::datanode::NodeState::Active);
            if serving
                && cluster.node_block_count(n) == 0
                && cluster.node_load(n) == 0
                && cluster.power_off(n).is_ok()
            {
                self.model.shut_down(n, now);
                report.shut_down.push(n);
            }
        }
    }

    /// Phase 10: the tick's counters and gauges.
    fn flush(&mut self, report: &TickReport) {
        if !self.telemetry.enabled() {
            return;
        }
        prof_scope!("telemetry_flush");
        self.telemetry
            .counter_add("erms.hot_verdicts", report.hot as u64);
        self.telemetry
            .counter_add("erms.cooled_verdicts", report.cooled as u64);
        self.telemetry
            .counter_add("erms.cold_verdicts", report.cold as u64);
        let boosted = self.files.values().filter(|ctl| ctl.boosted).count();
        self.telemetry
            .gauge_set("erms.boosted_files", boosted as f64);
        self.telemetry
            .gauge_set("erms.tasks_pending", self.condor.pending() as f64);
    }
}

/// A file's data blocks, then its parity blocks if it is encoded.
fn all_blocks(meta: &FileMeta) -> impl Iterator<Item = BlockId> + '_ {
    let parity: &[BlockId] = match &meta.mode {
        StorageMode::Encoded { parity_blocks } => parity_blocks,
        StorageMode::Replicated { .. } => &[],
    };
    meta.blocks.iter().chain(parity).copied()
}

enum PendingOrDone {
    Done(Outcome),
    AwaitingCopies,
}

fn class_name(class: DataClass) -> &'static str {
    match class {
        DataClass::Hot => "hot",
        DataClass::Cooled => "cooled",
        DataClass::Normal => "normal",
        DataClass::Cold => "cold",
    }
}

checkpoint::ck_tagged!(ErmsTask, "kind" {
    "increase" => Increase { path, target },
    "decrease" => Decrease { path, target },
    "encode" => Encode { path },
    "decode" => Decode { path, target },
    "repair" => Repair { path },
});

/// `"every"`, `null` (settled), the `ColdDue` time, or `"cold"`.
impl Ck for Visit {
    fn put(&self) -> Value {
        match self {
            Visit::Every => Value::Str("every".into()),
            Visit::Settled => Value::Null,
            Visit::ColdDue(last_access) => last_access.put(),
            Visit::Cold => Value::Str("cold".into()),
        }
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        match v {
            Value::Null => Ok(Visit::Settled),
            Value::Str(s) if s == "every" => Ok(Visit::Every),
            Value::Str(s) if s == "cold" => Ok(Visit::Cold),
            Value::Str(s) => Err(unknown(at, "visit", s)),
            v => SimTime::take(v, at).map(Visit::ColdDue),
        }
    }
}

/// `[boosted, cooled_streak, visit, [[kind, job]…]]` — of the in-flight
/// slots, the ones that hold a job, by task kind.
type FileCtlRow = (bool, u32, Visit, Vec<(usize, JobId)>);

impl FileCtl {
    fn row(&self) -> FileCtlRow {
        let slots = self.inflight.iter().enumerate();
        let held = slots.filter_map(|(kind, job)| Some((kind, (*job)?)));
        (self.boosted, self.cooled_streak, self.visit, held.collect())
    }

    fn from_row(row: FileCtlRow, at: &str) -> Result<Self, CheckpointError> {
        let (boosted, cooled_streak, visit, held) = row;
        let mut inflight = [None; TASK_KINDS];
        for (kind, job) in held {
            let slot = inflight.get_mut(kind);
            *slot.ok_or_else(|| unknown(at, "task kind", &kind.to_string()))? = Some(job);
        }
        Ok(FileCtl {
            boosted,
            cooled_streak,
            visit,
            inflight,
        })
    }
}

impl Ck for FileCtl {
    const CELLS: usize = FileCtlRow::CELLS;
    fn put(&self) -> Value {
        self.row().put()
    }
    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        Self::from_row(Ck::take(v, at)?, at)
    }
    fn put_cells(&self, row: &mut Vec<Value>) {
        self.row().put_cells(row);
    }
    fn take_cells(cells: &[Value], at: &str) -> Result<Self, CheckpointError> {
        Self::from_row(Ck::take_cells(cells, at)?, at)
    }
}

checkpoint::ck_record!(JobCtl [waiting, failed_copy, started]);

impl checkpoint::Checkpointable for ErmsManager {
    // Rebuild-then-hydrate: a restored manager is built by
    // `ErmsManager::new` with the same config first, then hydrated. The
    // config and the telemetry sink are construction state; everything
    // the control loop itself mutates is captured.
    // Records are written as their key followed by their fields.
    checkpoint::ck_fields! {
        judge: state,
        condor: state,
        model: state,
        files,
        jobs,
        pending_copies,
        reconstruct_copies,
        reconstructing,
        primed,
        total_completed,
        total_failed;
        then finish_load
    }
}

impl ErmsManager {
    /// Rebuild the visit index from the loaded records, and check what
    /// the decoders cannot see: `settle_copies` counts a job's record
    /// down once per pending copy, so the two must agree, or a
    /// completion would find no record (or a count that never reaches
    /// zero).
    fn finish_load(&mut self) -> Result<(), CheckpointError> {
        self.visits = VisitIndex::of(&self.files);
        let mut waited: BTreeMap<JobId, usize> = BTreeMap::new();
        for job in self.pending_copies.values() {
            *waited.entry(*job).or_default() += 1;
        }
        let recorded = self.jobs.iter().map(|(job, ctl)| (job, &ctl.waiting));
        if !waited.iter().eq(recorded) {
            return Err(CheckpointError::Corrupt(
                "pending copies do not match the jobs awaiting them".into(),
            ));
        }
        Ok(())
    }
}

/// Apply a compensation action directly (outside Condor: the journal has
/// already recorded the rollback).
impl ErmsManager {
    /// Crash-restart recovery. An exact resume (cluster and manager both
    /// hydrated from the same snapshot) needs nothing more than
    /// `load_state`; a *restart* — a fresh manager process attaching to a
    /// cluster that outlived the old one — must deal with the tasks the
    /// journal shows as in flight at capture time, because their
    /// executors died with the old process. Each job named by
    /// [`condor::journal::Journal::rollback_plan`] is failed (Condor's
    /// retry or rollback machinery then takes over) and any resulting
    /// rollbacks are compensated immediately, so the cluster converges
    /// back to an oracle-clean state under normal ticking. Returns the
    /// number of in-flight tasks recovered.
    pub fn restore(&mut self, cluster: &mut ClusterSim, now: SimTime) -> usize {
        let plan = self.condor.journal().rollback_plan();
        let recovered = plan.len();
        let mut report = TickReport::default();
        for (job, task) in plan {
            // volatile copy tracking died with the old executor
            self.abandon_copies(job);
            trace!(
                self.telemetry,
                now,
                Tel::SelfHeal {
                    action: "crash_restart".into(),
                    detail: task.path().to_string(),
                }
            );
            self.finish(
                cluster,
                now,
                job,
                &task,
                Outcome::Failure("manager crash-restart".into()),
                &mut report,
            );
        }
        self.compensate_rollbacks(cluster, now);
        recovered
    }

    /// Compensate the tasks Condor has given up on.
    fn compensate_rollbacks(&mut self, cluster: &mut ClusterSim, now: SimTime) {
        let default_r = cluster.config().default_replication;
        for (_job, task) in self.condor.take_rollbacks(now) {
            let inv = task.inverse(default_r);
            self.apply_compensation(cluster, inv);
        }
    }

    fn apply_compensation(&mut self, cluster: &mut ClusterSim, task: ErmsTask) {
        match task {
            ErmsTask::Decrease { path, target } | ErmsTask::Increase { path, target } => {
                if let Some(file) = cluster.namespace().resolve(&path) {
                    cluster.set_file_replication(file, target);
                }
            }
            ErmsTask::Decode { path, target } => {
                if let Some(file) = cluster.namespace().resolve(&path) {
                    cluster.mark_decoded(file, target);
                    cluster.set_file_replication(file, target);
                }
            }
            ErmsTask::Encode { .. } => {
                // failed decode leaves the file encoded; nothing to undo
            }
            ErmsTask::Repair { .. } => {
                // repair is idempotent convergence toward the target
                // replica count; an interrupted repair has nothing to undo
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdfs_sim::topology::{ClientId, Endpoint};
    use hdfs_sim::{ClusterConfig, ClusterSim};
    use simcore::units::MB;
    use simcore::SimDuration;

    fn cluster() -> ClusterSim {
        ClusterSim::new(
            ClusterConfig::paper_testbed(),
            Box::new(crate::placement::ErmsPlacement::new()),
        )
    }

    fn fast_thresholds() -> crate::Thresholds {
        let mut t = crate::Thresholds::calibrate(4.0);
        t.window = SimDuration::from_secs(600);
        t.cold_age = SimDuration::from_secs(300);
        t
    }

    fn manager(cluster: &mut ClusterSim, standby: Vec<NodeId>) -> ErmsManager {
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby(standby)
            .build()
            .unwrap();
        ErmsManager::new(cfg, cluster).unwrap()
    }

    fn hammer(cluster: &mut ClusterSim, path: &str, readers: usize) {
        for i in 0..readers {
            cluster
                .open_read(Endpoint::Client(ClientId(i as u32 + 100)), path)
                .unwrap();
        }
        cluster.run_until_quiescent();
    }

    #[test]
    fn hot_file_gets_boosted_onto_standby() {
        let mut c = cluster();
        let mut m = manager(&mut c, (10..18).map(NodeId).collect());
        let f = c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40); // 40/r3 ≈ 13 > τ_M=4

        // tick 1: classifies hot, commissions standby, task retries
        let now = c.now();
        let r1 = m.tick(&mut c, now);
        assert_eq!(r1.hot, 1);
        assert!(r1.tasks_submitted >= 1);
        assert!(!r1.commissioned.is_empty(), "standby nodes commissioned");
        // let the standby nodes boot
        c.run_until(c.now() + SimDuration::from_secs(60));
        // tick 2+: the increase lands and copies flow
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let now = c.now();
        m.tick(&mut c, now); // settle copy completions
        let b = c.namespace().file(f).unwrap().blocks[0];
        let r = c.blockmap().replica_count(b);
        assert!(r > 3, "replication should rise above default, got {r}");
        assert!(m.is_boosted(f));
        // extras landed on standby-pool nodes
        let on_standby = (10..18).map(NodeId).filter(|&n| c.node_holds(n, b)).count();
        assert!(on_standby > 0, "extras parked on standby nodes");
    }

    /// Commissioning takes powered-off standby nodes in `NodeId` order:
    /// a same-tick double commission, then a later tick that commissions
    /// again after the node next in line has died.
    #[test]
    fn commissioning_picks_standby_nodes_in_id_order_skipping_the_dead() {
        let mut c = cluster();
        let mut m = manager(&mut c, (10..18).map(NodeId).collect());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 20);
        let now = c.now();
        let first = m.tick(&mut c, now).commissioned;
        let n = first.len() as u32;
        assert!(n >= 2, "same-tick double commission");
        assert_eq!(first, (10..10 + n).map(NodeId).collect::<Vec<_>>());

        // let them boot; the next in line dies
        c.run_until(c.now() + SimDuration::from_secs(60));
        let dead = NodeId(10 + n);
        assert!(c.crash_node(dead));
        c.create_file("/hot2", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot2", 32); // more extras than serve now
        let mut later = Vec::new();
        for _ in 0..4 {
            let now = c.now();
            later.extend(m.tick(&mut c, now).commissioned);
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        assert_eq!(later.first(), Some(&NodeId(11 + n)), "{later:?}");
        assert!(!later.contains(&dead), "{later:?}");
    }

    /// A second capacity request in the same tick passes over the nodes
    /// the first one commissioned (still `Standby` in the cluster until
    /// they boot) instead of stopping at them.
    #[test]
    fn a_second_request_in_a_tick_skips_that_ticks_commissions() {
        let mut c = cluster();
        let mut m = manager(&mut c, (10..18).map(NodeId).collect());
        let now = c.now();
        let mut report = TickReport::default();
        assert!(!m.ensure_standby_capacity(&mut c, now, 2, &mut report));
        assert!(!m.ensure_standby_capacity(&mut c, now, 3, &mut report));
        assert_eq!(
            report.commissioned,
            (10..15).map(NodeId).collect::<Vec<_>>()
        );
    }

    /// The pick stops at a node still booting from an earlier tick: it
    /// commissions the nodes before it and none after it.
    #[test]
    fn commissioning_stops_at_a_node_still_booting() {
        let mut c = cluster();
        let mut m = manager(&mut c, (10..18).map(NodeId).collect());
        let now = c.now();
        assert!(m.model.request_boot(NodeId(11), now) && c.commission(NodeId(11)));
        let mut report = TickReport::default();
        assert!(!m.ensure_standby_capacity(&mut c, now, 4, &mut report));
        assert_eq!(report.commissioned, vec![NodeId(10)]);
        assert_eq!(
            m.model.state_of(NodeId(12)),
            Some(crate::model::StandbyState::Off)
        );
    }

    /// Candidates go in `NodeId` order, not by the name `dnN`: a pool
    /// spanning 9 and 10 picks `NodeId(9)` first, where the ads'
    /// tie-break on names (`"dn10" < "dn9"`) picked `NodeId(10)`.
    #[test]
    fn a_pool_spanning_nine_and_ten_picks_nine_first() {
        let mut c = cluster();
        let mut m = manager(&mut c, (9..12).map(NodeId).collect());
        let now = c.now();
        let mut report = TickReport::default();
        m.ensure_standby_capacity(&mut c, now, 1, &mut report);
        assert_eq!(report.commissioned, vec![NodeId(9)]);
    }

    #[test]
    fn cooled_file_sheds_extras_and_standby_powers_off() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby((10..18).map(NodeId))
            .encode(false) // keep the cooled file from going cold→encoded
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/fading", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/fading", 40);
        // boost it
        for _ in 0..8 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until(c.now() + SimDuration::from_secs(40));
        }
        let b = c.namespace().file(f).unwrap().blocks[0];
        assert!(c.blockmap().replica_count(b) > 3, "precondition: boosted");

        // silence: demand expires from the window → cooled → decrease
        c.run_until(c.now() + SimDuration::from_secs(1200));
        for _ in 0..4 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until(c.now() + SimDuration::from_secs(10));
        }
        assert_eq!(c.blockmap().replica_count(b), 3, "back to default");
        assert!(!m.is_boosted(f));
        // drained standby nodes were shut down again
        let serving_standby = (10..18)
            .map(NodeId)
            .filter(|&n| matches!(c.node_state(n), hdfs_sim::datanode::NodeState::Active))
            .count();
        assert_eq!(serving_standby, 0, "standby pool powered back off");
    }

    #[test]
    fn cold_file_gets_encoded_and_saves_storage() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        // 20 blocks × 3 replicas
        let f = c.create_file("/cold", 1280 * MB, 3, None).unwrap();
        let before = c.storage_used();
        // age it far beyond cold_age with zero accesses
        c.run_until(c.now() + SimDuration::from_secs(4000));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert_eq!(r.cold, 1);
        let now = c.now();
        m.tick(&mut c, now); // idle dispatch executes the encode
        let meta = c.namespace().file(f).unwrap();
        assert!(meta.is_encoded());
        let after = c.storage_used();
        assert!(
            after < before / 2,
            "RS(10,4) ≈ 1.4x vs 3x: {before} -> {after}"
        );
        // 20 blocks → 2 stripes → 8 parities, r=1 data
        assert_eq!(after, (20 + 8) * 64 * MB);
    }

    #[test]
    fn hot_encoded_file_is_decoded_immediately() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        let f = c.create_file("/revived", 64 * MB, 3, None).unwrap();
        // make it cold + encoded
        c.run_until(c.now() + SimDuration::from_secs(4000));
        let now = c.now();
        m.tick(&mut c, now);
        let now = c.now();
        m.tick(&mut c, now);
        assert!(c.namespace().file(f).unwrap().is_encoded());

        // demand returns
        hammer(&mut c, "/revived", 30);
        for _ in 0..6 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let meta = c.namespace().file(f).unwrap();
        assert!(!meta.is_encoded(), "decode restored replication");
        assert!(meta.replication() >= 3);
    }

    #[test]
    fn journal_records_the_whole_story() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let journal = m.condor().journal();
        assert!(!journal.is_empty());
        let states = journal.replay();
        assert!(states
            .values()
            .any(|s| *s == condor::journal::ReplayState::Completed));
    }

    /// Every `Increase` submitted so far, in submission order.
    fn increases(m: &ErmsManager) -> Vec<ErmsTask> {
        use condor::journal::JournalEvent;
        let entries = m.condor.journal().entries().iter();
        entries
            .filter_map(|e| match &e.event {
                JournalEvent::Submitted {
                    payload: task @ ErmsTask::Increase { .. },
                    ..
                } => Some(task.clone()),
                _ => None,
            })
            .collect()
    }

    /// A whole-file read is one `open` but one read of every block, so a
    /// 4-block file read by 20 clients has `N_d` ≈ 5 and `N_b` = 20 on
    /// every block. Formula (2) fires (20 / 3 > M_M = 6), and the one
    /// `Increase` goes straight to ⌈N_b,max / τ_M⌉ = ⌈20 / 4⌉ = 5: not to
    /// ⌈N_d / τ_M⌉ (which is r_D), nor one replica at a time.
    #[test]
    fn hot_boost_jumps_to_the_busiest_block_optimum() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        let sink = TelemetrySink::recording();
        m.set_telemetry(sink.clone());
        let f = c.create_file("/wide", 256 * MB, 3, None).unwrap();
        assert_eq!(c.namespace().file(f).unwrap().blocks.len(), 4);
        hammer(&mut c, "/wide", 20);
        for _ in 0..8 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        let to5 = ErmsTask::Increase {
            path: "/wide".into(),
            target: 5,
        };
        assert_eq!(increases(&m), [to5]);
        assert_eq!(c.namespace().file(f).unwrap().replication(), 5);
        let boosts: Vec<(u32, u32, f64)> = sink
            .drain_events()
            .into_iter()
            .filter_map(|e| match e.event {
                Tel::ReplicationBoost {
                    from, to, sessions, ..
                } => Some((from, to, sessions)),
                _ => None,
            })
            .collect();
        assert_eq!(boosts, [(3, 5, 20.0)], "sized from the busiest block");
    }

    /// Formula (4) alone promotes a file, once, to r_D + 1. Nine opens of
    /// `/top` and nine reads of its block from one holder, fed straight
    /// to the judge, keep that node over τ_DN = 8 for the 20 ticks they
    /// stay windowed, and `/top` is its top file. The file's own demand
    /// leaves it Normal at r_D (N_b / r = 3, not above M_m = 3; N_d / r
    /// ≈ 3.3 with the `create`, not above τ_M = 4) and short of Cooled at
    /// r_D + 1 (N_d / r ≥ τ_d = 2), so only the promotion can act on it.
    #[test]
    fn formula4_promotion_does_not_ratchet() {
        use cep::audit::{format_audit_line, format_block_line};
        let mut c = cluster();
        let mut t = fast_thresholds();
        t.cold_age = SimDuration::from_secs(7200);
        let cfg = ErmsConfig::builder()
            .thresholds(t)
            .standby([])
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/top", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let dn = c.blockmap().replica_nodes(b)[0];
        let at = c.now();
        let lines: Vec<String> = (0..9)
            .flat_map(|_| {
                [
                    format_audit_line(at, "u", "/10.0.0.1", "open", "/top", None),
                    format_block_line(at, &b.to_string(), &dn.to_string(), "/top", 64 * MB),
                ]
            })
            .collect();
        m.judge.observe_lines(lines.iter().map(String::as_str));
        for tick in 0..20 {
            let now = c.now();
            let over = m.judge.overloaded_nodes(now);
            assert_eq!(
                over,
                [(dn.to_string(), "/top".to_string(), 9.0)],
                "tick {tick}"
            );
            let r = m.tick(&mut c, now);
            assert_eq!((r.hot, r.cooled), (1, 0), "tick {tick}");
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        let to4 = ErmsTask::Increase {
            path: "/top".into(),
            target: 4,
        };
        assert_eq!(increases(&m), [to4]);
        assert_eq!(c.blockmap().replica_count(b), 4);
    }

    /// A `Decode` whose copies all fail is retried by Condor, and the
    /// retry finds the file decoded already. It restores the replicas
    /// without tracing a second `DecodeCold`, which the oracle reads as
    /// decoding a file that was not encoded.
    #[test]
    fn a_retried_decode_traces_decode_cold_once() {
        use simcore::spans::oracle::{OracleConfig, TraceOracle};
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        m.set_telemetry(sink.clone());
        let f = c.create_file("/revived", 64 * MB, 3, None).unwrap();
        c.run_until(c.now() + SimDuration::from_secs(4000));
        for _ in 0..2 {
            let now = c.now();
            m.tick(&mut c, now);
        }
        assert!(c.namespace().file(f).unwrap().is_encoded());

        // demand returns: the tick dispatches the Decode, whose copies
        // wait out the replication monitor's scan delay; every copy
        // target goes down before its copy can start, then comes back
        hammer(&mut c, "/revived", 30);
        let now = c.now();
        m.tick(&mut c, now);
        assert!(!c.namespace().file(f).unwrap().is_encoded());
        let b = c.namespace().file(f).unwrap().blocks[0];
        let nodes: Vec<NodeId> = c.topology().nodes().collect();
        let targets: Vec<NodeId> = nodes
            .into_iter()
            .filter(|&n| !c.blockmap().holds(b, n))
            .collect();
        for &n in &targets {
            assert!(c.crash_node(n));
        }
        c.run_until(c.now() + SimDuration::from_secs(10));
        for &n in &targets {
            c.restart_node(n);
        }
        let mut failed = 0;
        for _ in 0..8 {
            let now = c.now();
            failed += m.tick(&mut c, now).tasks_failed;
            c.run_until(c.now() + SimDuration::from_secs(60));
        }
        let now = c.now();
        m.tick(&mut c, now);
        assert!(failed >= 1, "the first attempt's copies failed");
        assert!(c.blockmap().replica_count(b) >= 3, "the retry landed");

        let events = sink.drain_events();
        let decodes = events
            .iter()
            .filter(|e| matches!(e.event, Tel::DecodeCold { .. }))
            .count();
        assert_eq!(decodes, 1);
        let violations = TraceOracle::check(&events, OracleConfig::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    fn healing_manager(cluster: &mut ClusterSim, standby: Vec<NodeId>) -> ErmsManager {
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby(standby)
            .encode(false)
            .self_healing(true)
            .task_timeout(SimDuration::from_secs(60))
            .build()
            .unwrap();
        ErmsManager::new(cfg, cluster).unwrap()
    }

    #[test]
    fn self_healing_restores_replication_after_a_kill() {
        let mut c = cluster();
        let mut m = healing_manager(&mut c, Vec::new());
        let f = c.create_file("/data", 512 * MB, 3, None).unwrap();
        c.run_until_quiescent();

        let victim = c
            .blockmap()
            .replica_nodes(c.namespace().file(f).unwrap().blocks[0])[0];
        let (degraded, lost) = c.kill_node(victim);
        assert!(!degraded.is_empty());
        assert!(lost.is_empty(), "3-way replication survives one kill");

        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.repairs_started > 0, "repair scan kicked in");
        for _ in 0..6 {
            c.run_until_quiescent();
            let now = c.now();
            m.tick(&mut c, now);
        }
        for b in &c.namespace().file(f).unwrap().blocks {
            assert_eq!(c.blockmap().replica_count(*b), 3, "{b:?} back to target");
        }
        assert!(c.durability().loss_events().is_empty());
    }

    #[test]
    fn without_self_healing_the_deficit_persists() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new()); // healing off
        let f = c.create_file("/data", 512 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let victim = c
            .blockmap()
            .replica_nodes(c.namespace().file(f).unwrap().blocks[0])[0];
        c.kill_node(victim);
        for _ in 0..4 {
            let now = c.now();
            let r = m.tick(&mut c, now);
            assert_eq!(r.repairs_started, 0);
            c.run_until_quiescent();
        }
        let deficit = c
            .namespace()
            .file(f)
            .unwrap()
            .blocks
            .iter()
            .filter(|&&b| c.blockmap().replica_count(b) < 3)
            .count();
        assert!(deficit > 0, "nobody repaired the killed replicas");
    }

    fn reconstruct_config() -> ErmsConfig {
        ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby([])
            .self_healing(true)
            .task_timeout(SimDuration::from_secs(60))
            .build()
            .unwrap()
    }

    /// A cold file encoded via the normal path, the single holder of its
    /// first data block killed, and one tick on: the stripe's
    /// reconstruction is in flight.
    fn reconstructing() -> (ClusterSim, ErmsManager, FileId) {
        let mut c = cluster();
        let mut m = ErmsManager::new(reconstruct_config(), &mut c).unwrap();
        let f = c.create_file("/cold", 1280 * MB, 3, None).unwrap();
        c.run_until(c.now() + SimDuration::from_secs(4000));
        let now = c.now();
        m.tick(&mut c, now);
        let now = c.now();
        m.tick(&mut c, now);
        assert!(c.namespace().file(f).unwrap().is_encoded());

        let b0 = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b0)[0];
        let (_, lost) = c.kill_node(victim);
        assert!(lost.contains(&b0), "encoded data block went dark");
        assert!(
            c.durability().open_windows() > 0,
            "dark encoded shard opens an unavailability window"
        );

        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.reconstructions > 0, "reconstruction scheduled");
        (c, m, f)
    }

    #[test]
    fn a_reconstructing_manager_snapshot_is_pinned_and_reloads_byte_for_byte() {
        use checkpoint::Checkpointable;
        use std::hash::Hasher;
        let (_c, m, _) = reconstructing();
        assert!(!m.reconstruct_copies.is_empty() && !m.reconstructing.is_empty());

        let json = serde_json::to_string(&m.save_state()).unwrap();
        let mut h = cep::fnv::FnvHasher::default();
        h.write(json.as_bytes());
        println!(
            "reconstructing manager: {:#018x} {}",
            h.finish(),
            json.len()
        );
        assert_eq!(
            (h.finish(), json.len()),
            (0x6dc0_fa29_1449_0324, 875),
            "reconstructing-manager snapshot bytes changed"
        );
        let mut scratch = cluster();
        let mut back = ErmsManager::new(reconstruct_config(), &mut scratch).unwrap();
        back.load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert_eq!(serde_json::to_string(&back.save_state()).unwrap(), json);
    }

    #[test]
    fn self_healing_reconstructs_dark_encoded_shards() {
        let (mut c, mut m, f) = reconstructing();
        for _ in 0..6 {
            c.run_until_quiescent();
            let now = c.now();
            m.tick(&mut c, now);
        }
        for b in &c.namespace().file(f).unwrap().blocks {
            assert!(
                c.blockmap().replica_count(*b) >= 1,
                "{b:?} rebuilt from stripe mates"
            );
        }
        assert_eq!(c.durability().open_windows(), 0, "windows closed");
        assert!(c.durability().loss_events().is_empty(), "no data lost");
    }

    #[test]
    fn watchdog_times_out_stuck_tasks() {
        let mut c = cluster();
        let mut m = healing_manager(&mut c, Vec::new());
        c.create_file("/hot", 256 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        // cripple every node so the boost copies crawl (80 MB/s → 0.8)
        for n in c.topology().nodes().collect::<Vec<_>>() {
            c.set_node_slowdown(n, 0.01);
        }
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.tasks_submitted >= 1, "boost submitted");
        // past the 60 s timeout, but well short of copy completion
        c.run_until(c.now() + SimDuration::from_secs(70));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(r.tasks_timed_out >= 1, "watchdog fired: {r:?}");
    }

    #[test]
    fn crashed_standby_is_evicted_and_replaced() {
        let mut c = cluster();
        let standby: Vec<NodeId> = (10..18).map(NodeId).collect();
        let mut m = healing_manager(&mut c, standby.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        // 15 direct reads: hot (15/3 > 4) with a modest optimum, so
        // exactly one standby node gets commissioned
        hammer(&mut c, "/hot", 15);
        let now = c.now();
        let r = m.tick(&mut c, now);
        let commissioned = r
            .commissioned
            .first()
            .copied()
            .expect("standby commissioned");
        c.run_until(c.now() + SimDuration::from_secs(60)); // let it boot

        assert!(c.crash_node(commissioned));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(
            r.standby_evicted.contains(&commissioned),
            "dead standby evicted: {r:?}"
        );
        assert_eq!(
            m.model().state_of(commissioned),
            Some(crate::model::StandbyState::Off),
            "model returns the node to the commission pool"
        );
        // new demand needing standby capacity re-selects a healthy node
        c.create_file("/hot2", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot2", 15);
        let mut replacement = None;
        for _ in 0..6 {
            let now = c.now();
            let r = m.tick(&mut c, now);
            if let Some(&n) = r.commissioned.iter().find(|&&n| n != commissioned) {
                replacement = Some(n);
                break;
            }
            c.run_until(c.now() + SimDuration::from_secs(70));
        }
        assert!(replacement.is_some(), "a healthy standby was re-selected");
    }

    #[test]
    fn new_rejects_unknown_or_occupied_standby_nodes() {
        use crate::config::ConfigError;

        // paper_testbed has 18 datanodes: dn99 does not exist
        let mut c = cluster();
        let cfg = ErmsConfig::builder().standby([NodeId(99)]).build().unwrap();
        assert_eq!(
            ErmsManager::new(cfg, &mut c).err(),
            Some(ConfigError::UnknownStandbyNode {
                node: 99,
                datanodes: 18
            })
        );

        // a node already holding replicas cannot join the standby pool
        let mut c = cluster();
        c.create_file("/data", 512 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let occupied = (0..18)
            .map(NodeId)
            .find(|&n| c.node_block_count(n) > 0)
            .expect("some node holds a replica");
        let cfg = ErmsConfig::builder().standby([occupied]).build().unwrap();
        match ErmsManager::new(cfg, &mut c).err() {
            Some(ConfigError::StandbyHoldsReplicas { node, blocks }) => {
                assert_eq!(node, occupied.0);
                assert!(blocks > 0);
            }
            other => panic!("expected StandbyHoldsReplicas, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_traces_the_boost_decision() {
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        let sink = simcore::telemetry::TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        m.set_telemetry(sink.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let events = sink.drain_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"verdict"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"replication_boost"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"task_dispatched"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"copy_completed"), "kinds: {kinds:?}");
        // the boost event carries the formula inputs
        let boost = events
            .iter()
            .find(|e| e.event.kind() == "replication_boost")
            .unwrap();
        let line = boost.to_json_line();
        assert!(line.contains("\"path\":\"/hot\""), "{line}");
        assert!(line.contains("\"sessions\":"), "{line}");
    }

    #[test]
    fn stable_files_leave_the_visit_set() {
        let mut c = cluster();
        let mut t = crate::Thresholds::calibrate(4.0);
        t.window = SimDuration::from_secs(600);
        t.cold_age = SimDuration::from_secs(7200);
        let cfg = ErmsConfig::builder()
            .thresholds(t)
            .standby([])
            .encode(false)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/idle", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let now = c.now();
        let r1 = m.tick(&mut c, now);
        assert_eq!(r1.files_judged, 1, "first tick is a full scan");
        let settled = FileCtl {
            visit: Visit::ColdDue(c.namespace().file(f).unwrap().last_access),
            ..FileCtl::default()
        };
        assert_eq!(
            m.files[&f], settled,
            "creation traffic is still windowed, but it can only decay"
        );
        let now = c.now();
        assert_eq!(m.tick(&mut c, now).files_judged, 0, "settled file skipped");
        // past the cold age: judged Cold once, then only counted
        c.run_until(c.now() + SimDuration::from_secs(7300));
        for tick in 0..3 {
            let now = c.now();
            let r = m.tick(&mut c, now);
            let judged = usize::from(tick == 0);
            assert_eq!((r.files_judged, r.cold), (judged, 1), "tick {tick}");
        }
        assert_eq!(m.files[&f].visit, Visit::Cold);
        // touching it puts it back in the visit set
        c.open_read(Endpoint::Client(ClientId(7)), "/idle").unwrap();
        c.run_until_quiescent();
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert_eq!((r.files_judged, r.cold), (1, 0), "dirty file revisited");
    }

    /// A settled-Cold file whose queued `Encode` fails for good is judged
    /// again on the next tick even though nothing dirtied it, so the
    /// `Encode` is resubmitted when a full rescan would resubmit it.
    #[test]
    fn a_settled_cold_file_is_rejudged_once_its_encode_fails_for_good() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby([])
            .max_task_attempts(1)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/cold", 64 * MB, 3, None).unwrap();
        c.run_until(c.now() + SimDuration::from_secs(4000));
        // judge without dispatching, so the Encode stays queued
        let now = c.now();
        let mut report = TickReport::default();
        let pass = m.select(&mut c, now);
        m.judge_pass(&c, now, pass, &mut report);
        assert_eq!((report.cold, report.tasks_submitted), (1, 1));
        assert_eq!(m.files[&f].visit, Visit::Cold);

        let [(job, task)] = &m.condor.dispatch(now, true)[..] else {
            panic!("one Encode queued");
        };
        let failure = Outcome::Failure("no parity placement target".into());
        m.finish(&c, now, *job, task, failure, &mut report);
        assert_eq!(m.files[&f].visit, Visit::Every);
        let r = m.tick(&mut c, now);
        assert_eq!((r.files_judged, r.cold, r.tasks_submitted), (1, 1, 1));
    }

    #[test]
    fn deleting_a_file_prunes_manager_bookkeeping() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .standby([])
            .encode(false)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/doomed", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/doomed", 40);
        for _ in 0..5 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        assert!(m.is_boosted(f), "precondition: file got boosted");
        // silence starts a cooled streak (patience 3, so no demote yet)
        c.run_until(c.now() + SimDuration::from_secs(1200));
        let now = c.now();
        m.tick(&mut c, now);
        assert!(
            m.files[&f].cooled_streak > 0,
            "precondition: streak accruing"
        );
        assert_eq!(m.files[&f].visit, Visit::Every);

        assert!(c.delete_file("/doomed"));
        let now = c.now();
        m.tick(&mut c, now);
        assert!(
            !m.files.contains_key(&f),
            "boost, streak, visit state and dedup slots pruned"
        );
        // a new file at the same path starts with a clean slate
        let f2 = c.create_file("/doomed", 64 * MB, 3, None).unwrap();
        let now = c.now();
        m.tick(&mut c, now);
        assert_ne!(f2, f);
        assert!(!m.is_boosted(f2));
        assert_eq!(m.files[&f2].cooled_streak, 0);
    }

    #[test]
    fn quiet_cluster_does_nothing() {
        let mut c = cluster();
        let mut m = manager(&mut c, (10..18).map(NodeId).collect());
        c.create_file("/idle", 64 * MB, 3, None).unwrap();
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert_eq!(r.hot + r.cooled + r.cold, 0);
        assert_eq!(r.tasks_submitted, 0);
        assert!(r.commissioned.is_empty());
    }

    /// Drive a manager into a rich state (boosted file, commissioned
    /// standby, copies in flight), checkpoint it through a real JSON
    /// cycle, and hydrate a freshly-constructed manager: every piece of
    /// control-loop bookkeeping must survive.
    #[test]
    fn checkpoint_round_trip_restores_every_bookkeeping_set() {
        use checkpoint::Checkpointable;
        let standby: Vec<NodeId> = (10..18).map(NodeId).collect();
        let mut c = cluster();
        let mut m = manager(&mut c, standby.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        c.create_file("/hot2", 64 * MB, 3, None).unwrap();
        let quiet = c.create_file("/quiet", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        // a boost lands in one task, so a boosted record and a job
        // awaiting copies coexist only across two files: tick until
        // `/hot` is boosted, then until `/hot2`'s boost is in flight
        for _ in 0..12 {
            if m.files.values().any(|ctl| ctl.boosted) {
                break;
            }
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        hammer(&mut c, "/hot2", 40);
        for _ in 0..12 {
            let now = c.now();
            m.tick(&mut c, now);
            if !m.jobs.is_empty() {
                break;
            }
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        // the record fields this short scenario does not reach
        let ctl = m.files.get_mut(&quiet).unwrap();
        ctl.cooled_streak = 2;
        m.visits
            .set(quiet, ctl, Visit::ColdDue(SimTime::from_secs(7)));
        let job = m.jobs.values_mut().next().expect("an increase in flight");
        job.failed_copy = true;

        let json = serde_json::to_string(&m.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut scratch = cluster();
        let mut fresh = manager(&mut scratch, standby);
        fresh.load_state(&back).unwrap();

        assert!(m.files.values().any(|ctl| ctl.boosted), "rich state");
        assert_eq!(fresh.files, m.files);
        assert_eq!(fresh.visits, m.visits);
        assert_eq!(fresh.jobs, m.jobs);
        assert_eq!(fresh.pending_copies, m.pending_copies);
        assert_eq!(fresh.reconstruct_copies, m.reconstruct_copies);
        assert_eq!(fresh.reconstructing, m.reconstructing);
        assert_eq!(fresh.primed, m.primed);
        assert_eq!(fresh.total_completed, m.total_completed);
        assert_eq!(fresh.total_failed, m.total_failed);
        assert_eq!(fresh.judge.events_seen(), m.judge.events_seen());
        assert_eq!(fresh.model.powered_on(), m.model.powered_on());
        assert_eq!(fresh.condor.pending(), m.condor.pending());
        assert_eq!(
            fresh.condor.journal().rollback_plan(),
            m.condor.journal().rollback_plan()
        );
    }

    /// A fresh manager process attaches to a cluster that outlived the
    /// old one: `restore` fails every journal-in-flight task, then
    /// normal ticking retries it and the boost still lands.
    #[test]
    fn crash_restart_recovers_inflight_tasks_via_rollback_plan() {
        use checkpoint::Checkpointable;
        let standby: Vec<NodeId> = (10..18).map(NodeId).collect();
        let mut c = cluster();
        let mut m = manager(&mut c, standby.clone());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        // drive until an Increase is actually awaiting copies, then
        // capture the manager mid-flight
        let mut saved = None;
        for _ in 0..12 {
            let now = c.now();
            m.tick(&mut c, now);
            if !m.jobs.is_empty() {
                saved = Some(m.save_state());
                break;
            }
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        let saved = saved.expect("an increase task went in flight");
        drop(m); // the old manager process dies here

        let json = serde_json::to_string(&saved).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        // construction happens against a scratch cluster so it cannot
        // disturb the live one (new() powers standby nodes off)
        let mut scratch = cluster();
        let mut m2 = manager(&mut scratch, standby);
        m2.load_state(&back).unwrap();
        assert!(
            !m2.condor.journal().rollback_plan().is_empty(),
            "precondition: the journal names the dead in-flight task"
        );

        let now = c.now();
        let recovered = m2.restore(&mut c, now);
        assert!(recovered >= 1, "at least the increase was recovered");
        assert!(m2.condor.journal().rollback_plan().is_empty());
        assert!(m2.pending_copies.is_empty() && m2.jobs.is_empty());

        // the restarted manager converges: the failed task retries (or
        // the old copies land on their own) and the boost materialises.
        // Quiescent draining (not wall-clock advances) keeps the demand
        // inside the CEP window so the file does not legitimately cool.
        for _ in 0..10 {
            let now = c.now();
            m2.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let now = c.now();
        m2.tick(&mut c, now); // settle the last copy completions
        let f = c.namespace().resolve("/hot").unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        assert!(
            c.blockmap().replica_count(b) > 3,
            "boost landed after restart, got {}",
            c.blockmap().replica_count(b)
        );
    }

    #[test]
    fn scrubber_detects_quarantines_and_repairs_corruption() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .scrubber(true)
            .scrub_blocks_per_tick(64)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        let f = c.create_file("/data", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        assert!(c.corrupt_replica(victim, 0, false));
        assert_eq!(c.latent_corrupt_count(), 1);

        // tick 1: the scrub sweep finds the corrupt replica, quarantines
        // it (dropping it from the blockmap) and submits a Repair task
        let now = c.now();
        let r1 = m.tick(&mut c, now);
        assert!(r1.scrub_scanned > 0, "scrubber scanned blocks");
        assert_eq!(r1.corruptions_found, 1);
        assert_eq!(c.latent_corrupt_count(), 0, "corruption detected");
        assert!(!c.blockmap().holds(b, victim), "quarantined replica gone");
        assert_eq!(c.blockmap().replica_count(b), 2);

        // subsequent ticks: the Repair task re-copies from a clean source
        for _ in 0..6 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }
        let now = c.now();
        m.tick(&mut c, now); // settle copy completions
        assert_eq!(c.blockmap().replica_count(b), 3, "replica re-copied");
        assert!(
            c.corrupt_blocks_pending_repair().is_empty(),
            "quarantine cleared after verified repair"
        );
    }

    fn scrub_manager(c: &mut ClusterSim) -> ErmsManager {
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .scrubber(true)
            .scrub_blocks_per_tick(64)
            .task_timeout(SimDuration::from_secs(60))
            .build()
            .unwrap();
        ErmsManager::new(cfg, c).unwrap()
    }

    #[test]
    fn repair_watchdog_fires_without_self_healing() {
        let mut c = cluster();
        let mut m = scrub_manager(&mut c);
        let f = c.create_file("/data", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        assert!(c.corrupt_replica(victim, 0, false));
        // cripple the cluster so the repair copy crawls
        for n in c.topology().nodes().collect::<Vec<_>>() {
            c.set_node_slowdown(n, 0.01);
        }
        let now = c.now();
        let r = m.tick(&mut c, now); // scrub detects + submits repair
        assert_eq!(r.corruptions_found, 1);
        let now = c.now();
        m.tick(&mut c, now); // repair executes, copy goes in flight
                             // past the 60 s timeout, far short of copy completion
        c.run_until(c.now() + SimDuration::from_secs(70));
        let now = c.now();
        let r = m.tick(&mut c, now);
        assert!(
            r.tasks_timed_out >= 1,
            "scrubber-only watchdog fired: {r:?}"
        );
    }

    #[test]
    fn repair_retries_after_target_dies_mid_copy() {
        let mut c = cluster();
        let mut m = scrub_manager(&mut c);
        let f = c.create_file("/data", 64 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        assert!(c.corrupt_replica(victim, 0, false));
        let now = c.now();
        let r = m.tick(&mut c, now); // detect + quarantine + submit
        assert_eq!(r.corruptions_found, 1);
        let now = c.now();
        m.tick(&mut c, now); // repair executes, copy staged
                             // into the transfer window, then kill the copy's landing node:
                             // torn-crash non-holders until the in-flight copy registers
        c.run_until(c.now() + SimDuration::from_millis(3050));
        let holders = c.blockmap().replica_nodes(b).to_vec();
        let latent_before = c.latent_corrupt_count();
        let mut died = None;
        for i in 0..c.config().datanodes {
            let n = NodeId(i);
            if holders.contains(&n) {
                continue;
            }
            assert!(c.crash_node_torn(n));
            if c.latent_corrupt_count() > latent_before {
                died = Some(n);
                break;
            }
        }
        assert!(died.is_some(), "the repair copy's target was mid-copy");
        // the failed copy fails the task; backoff retries it onto a
        // healthy node and the quarantine eventually clears
        let mut failed_seen = 0usize;
        for _ in 0..12 {
            c.run_until(c.now() + SimDuration::from_secs(30));
            let now = c.now();
            let r = m.tick(&mut c, now);
            failed_seen += r.tasks_failed + r.tasks_timed_out;
            if c.corrupt_blocks_pending_repair().is_empty() && c.blockmap().replica_count(b) >= 3 {
                break;
            }
        }
        assert!(failed_seen >= 1, "first repair attempt failed");
        assert_eq!(c.blockmap().replica_count(b), 3, "repair landed on retry");
        assert!(c.corrupt_blocks_pending_repair().is_empty());
    }

    #[test]
    fn scrub_budget_sheds_under_queue_pressure() {
        let mut c = cluster();
        let cfg = ErmsConfig::builder()
            .thresholds(fast_thresholds())
            .scrubber(true)
            .scrub_blocks_per_tick(8)
            .build()
            .unwrap();
        let mut m = ErmsManager::new(cfg, &mut c).unwrap();
        c.create_file("/data", 640 * MB, 3, None).unwrap();
        c.run_until_quiescent();
        // saturate the Condor queue far beyond twice the concurrency cap
        let now = c.now();
        for i in 0..(m.cfg.max_concurrent_tasks * 2 + 4) {
            m.condor.submit(
                now,
                ErmsTask::Increase {
                    path: format!("/ghost{i}"),
                    target: 4,
                },
                Priority::WhenIdle,
            );
        }
        let queued = m.condor.pending();
        assert!(queued >= m.cfg.max_concurrent_tasks * 2);
        let mut report = TickReport::default();
        m.scrub_pass(&mut c, now, &mut report);
        assert_eq!(report.scrub_scanned, 0, "budget fully shed under pressure");
    }

    /// A saved manager section, hand-edited: a pending copy whose job
    /// has no record (or the wrong count) is refused as `Corrupt` — it
    /// used to load and panic in the next `settle_copies` — and a
    /// version-1 envelope is refused before any section is looked at.
    #[test]
    fn corrupt_snapshots_are_typed_errors_not_panics() {
        use checkpoint::{Checkpointable, Snapshot, SnapshotMeta};
        let mut c = cluster();
        let mut m = manager(&mut c, Vec::new());
        c.create_file("/hot", 64 * MB, 3, None).unwrap();
        hammer(&mut c, "/hot", 40);
        for _ in 0..12 {
            let now = c.now();
            m.tick(&mut c, now);
            if !m.jobs.is_empty() {
                break;
            }
            c.run_until(c.now() + SimDuration::from_secs(30));
        }
        assert!(!m.pending_copies.is_empty(), "an increase awaits copies");
        let good = m.save_state();
        let edited = |key: &str, v: Value| {
            let Value::Map(mut entries) = good.clone() else {
                panic!("manager section is a map");
            };
            entries.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
            Value::Map(entries)
        };
        let load = |section: &Value| {
            let mut scratch = cluster();
            manager(&mut scratch, Vec::new()).load_state(section)
        };
        load(&good).expect("the unedited section loads");

        // the copy's job record is gone
        let dangling = load(&edited("jobs", Value::Seq(Vec::new())));
        assert!(
            matches!(dangling, Err(CheckpointError::Corrupt(_))),
            "{dangling:?}"
        );
        // the record is there but counts a copy that is not pending
        let (&job, ctl) = m.jobs.iter().next().unwrap();
        let miscounted = vec![(job, ctl.waiting + 1, false, ctl.started)];
        let miscounted = load(&edited("jobs", miscounted.put()));
        assert!(
            matches!(miscounted, Err(CheckpointError::Corrupt(_))),
            "{miscounted:?}"
        );

        // a version-1 envelope: refused on the version alone, even with
        // sections that would not parse
        let mut snap = Snapshot::new(SnapshotMeta {
            scenario: "unit".into(),
            seed: 1,
            tick: 0,
        });
        snap.insert_section("manager", good.clone());
        let current = snap.to_json();
        let version = format!("{{\"version\":{},", checkpoint::FORMAT_VERSION);
        let v1 = current.replacen(&version, "{\"version\":1,", 1);
        assert_ne!(v1, current);
        Snapshot::from_json(&current).expect("the current version loads");
        let no_sections =
            r#"{"version":1,"meta":{"scenario":"unit","seed":1,"tick":0},"sections":7}"#;
        for json in [v1.as_str(), no_sections] {
            match Snapshot::from_json(json) {
                Err(CheckpointError::UnknownVersion { found, supported }) => {
                    assert_eq!((found, supported), (1, checkpoint::FORMAT_VERSION));
                }
                other => panic!("expected UnknownVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn task_codec_rejects_unknown_kind() {
        let bad = checkpoint::codec::MapBuilder::tagged("kind", "compress")
            .put("path", &"/f".to_string())
            .build();
        assert!(matches!(
            ErmsTask::take(&bad, "payload"),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
