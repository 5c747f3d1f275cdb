//! The tasktracker/slot model driving the HDFS simulator.
//!
//! Every datanode runs a tasktracker with a fixed number of map slots.
//! When a slot frees, the scheduler is offered it; the chosen map task
//! opens its input block on the simulated cluster (so mapper I/O really
//! contends with everything else), computes, and completes. Slot offers
//! also recur on a heartbeat so delay scheduling cannot deadlock the
//! replay.
//!
//! A periodic [`ControllerHook`] lets ERMS's manager observe and steer
//! the cluster *while the trace replays* — the paper's Fig. 3/4/5 loop.

use crate::job::{JobPhase, JobSpec, JobStats, MapTask, TaskState};
use crate::scheduler::{PendingTask, TaskScheduler};
use hdfs_sim::cluster::ReadId;
use hdfs_sim::topology::Endpoint;
use hdfs_sim::{ClusterSim, NodeId};
use simcore::units::Bytes;
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Periodic controller callback (the ERMS manager's entry point).
pub type ControllerHook = Box<dyn FnMut(&mut ClusterSim, SimTime)>;

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    pub map_slots_per_node: usize,
    /// Heartbeat used to re-offer idle slots (delay scheduling progress).
    pub heartbeat: SimDuration,
    /// Interval of the controller hook, if one is installed.
    pub controller_interval: SimDuration,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            map_slots_per_node: 2,
            heartbeat: SimDuration::from_secs(1),
            controller_interval: SimDuration::from_secs(60),
        }
    }
}

// timer token namespaces
const TK_ARRIVAL: u64 = 1 << 56;
const TK_COMPUTE: u64 = 2 << 56;
const TK_REDUCE: u64 = 3 << 56;
const TK_TICK: u64 = 4 << 56;
const TK_HEARTBEAT: u64 = 5 << 56;
const TK_MASK: u64 = 0xFF << 56;

struct JobRt {
    spec: JobSpec,
    phase: JobPhase,
    tasks: Vec<MapTask>,
    running: usize,
    pending: usize,
    bytes_read: Bytes,
    total_read_secs: f64,
}

/// The MapReduce runner.
pub struct MapReduceRunner {
    cluster: ClusterSim,
    scheduler: Box<dyn TaskScheduler>,
    cfg: RunnerConfig,
    jobs: Vec<JobRt>,
    read_to_task: BTreeMap<ReadId, (usize, usize)>,
    task_node: BTreeMap<(usize, usize), NodeId>,
    free_slots: Vec<usize>,
    controller: Option<ControllerHook>,
    finished: Vec<JobStats>,
    heartbeat_pending: bool,
}

impl MapReduceRunner {
    pub fn new(cluster: ClusterSim, scheduler: Box<dyn TaskScheduler>, cfg: RunnerConfig) -> Self {
        let n = cluster.config().datanodes as usize;
        let slots = vec![cfg.map_slots_per_node; n];
        MapReduceRunner {
            cluster,
            scheduler,
            cfg,
            jobs: Vec::new(),
            read_to_task: BTreeMap::new(),
            task_node: BTreeMap::new(),
            free_slots: slots,
            controller: None,
            finished: Vec::new(),
            heartbeat_pending: false,
        }
    }

    /// Access the cluster for setup (file creation, standby designation).
    pub fn cluster_mut(&mut self) -> &mut ClusterSim {
        &mut self.cluster
    }
    pub fn cluster(&self) -> &ClusterSim {
        &self.cluster
    }

    /// Install the periodic controller (ERMS) hook.
    pub fn set_controller(&mut self, hook: ControllerHook) {
        self.controller = Some(hook);
    }

    /// Queue a job for its arrival time.
    pub fn submit(&mut self, spec: JobSpec) {
        let idx = self.jobs.len();
        let at = spec.submit_at;
        self.jobs.push(JobRt {
            spec,
            phase: JobPhase::Future,
            tasks: Vec::new(),
            running: 0,
            pending: 0,
            bytes_read: 0,
            total_read_secs: 0.0,
        });
        self.cluster.schedule_timer(at, TK_ARRIVAL | idx as u64);
    }

    /// Replay every submitted job to completion; returns per-job stats
    /// in completion order.
    pub fn run(mut self) -> (Vec<JobStats>, ClusterSim) {
        if self.controller.is_some() {
            let t = self.cluster.now() + self.cfg.controller_interval;
            self.cluster.schedule_timer(t, TK_TICK);
        }
        while !self.all_done() {
            if !self.cluster.step() {
                // No events: can only happen if every job is done (slots
                // idle with nothing pending re-arms via heartbeat).
                break;
            }
            self.pump();
        }
        (std::mem::take(&mut self.finished), self.cluster)
    }

    fn all_done(&self) -> bool {
        !self.jobs.is_empty() && self.jobs.iter().all(|j| j.phase == JobPhase::Done)
    }

    fn pump(&mut self) {
        // timers first (arrivals enable scheduling), then read completions
        for (t, token) in self.cluster.drain_fired_timers() {
            self.on_timer(t, token);
        }
        for stats in self.cluster.drain_completed_reads() {
            self.on_read_done(stats);
        }
        self.try_schedule();
    }

    fn on_timer(&mut self, now: SimTime, token: u64) {
        let payload = token & !TK_MASK;
        match token & TK_MASK {
            TK_ARRIVAL => self.on_arrival(now, payload as usize),
            TK_COMPUTE => {
                let job = (payload >> 24) as usize;
                let task = (payload & 0xFF_FFFF) as usize;
                self.on_compute_done(now, job, task);
            }
            TK_REDUCE => self.on_reduce_done(now, payload as usize),
            TK_TICK => {
                if let Some(mut hook) = self.controller.take() {
                    hook(&mut self.cluster, now);
                    self.controller = Some(hook);
                }
                if !self.all_done() {
                    let t = now + self.cfg.controller_interval;
                    self.cluster.schedule_timer(t, TK_TICK);
                }
            }
            TK_HEARTBEAT => {
                self.heartbeat_pending = false;
            }
            _ => {}
        }
    }

    fn on_arrival(&mut self, now: SimTime, idx: usize) {
        // materialize map tasks from the input file's blocks
        let (blocks, ok) = {
            let input = self.jobs[idx].spec.input.clone();
            match self
                .cluster
                .namespace()
                .resolve(&input)
                .and_then(|f| self.cluster.namespace().file(f))
            {
                Some(meta) => (meta.blocks.clone(), true),
                None => (Vec::new(), false),
            }
        };
        let job = &mut self.jobs[idx];
        job.phase = JobPhase::Mapping;
        job.spec.submit_at = now;
        if !ok || blocks.is_empty() {
            // missing input: empty job completes immediately
            job.phase = JobPhase::Done;
            self.finished.push(JobStats {
                name: job.spec.name.clone(),
                input: job.spec.input.clone(),
                submitted: now,
                finished: now,
                map_tasks: 0,
                node_local_tasks: 0,
                bytes_read: 0,
                total_read_secs: 0.0,
            });
            return;
        }
        job.tasks = blocks
            .into_iter()
            .map(|b| MapTask {
                block: b,
                state: TaskState::Pending,
                node_local: None,
            })
            .collect();
        job.pending = job.tasks.len();
        let spec = job.spec.clone();
        self.scheduler.on_job_submitted(idx, &spec);
    }

    fn on_read_done(&mut self, stats: hdfs_sim::ReadStats) {
        let Some((j, t)) = self.read_to_task.remove(&stats.id) else {
            return; // a read the controller opened, not ours
        };
        let job = &mut self.jobs[j];
        job.bytes_read += stats.bytes;
        job.total_read_secs += stats.duration();
        job.tasks[t].state = TaskState::Computing;
        let at = stats.finished + job.spec.compute_per_block;
        self.cluster
            .schedule_timer(at, TK_COMPUTE | ((j as u64) << 24) | t as u64);
    }

    fn on_compute_done(&mut self, now: SimTime, j: usize, t: usize) {
        {
            let job = &mut self.jobs[j];
            job.tasks[t].state = TaskState::Done;
            job.running -= 1;
        }
        if let Some(node) = self.task_node.remove(&(j, t)) {
            self.free_slots[node.0 as usize] += 1;
        }
        let job = &mut self.jobs[j];
        if job.pending == 0 && job.running == 0 && job.phase == JobPhase::Mapping {
            job.phase = JobPhase::Reducing;
            let at = now + job.spec.reduce_duration;
            self.cluster.schedule_timer(at, TK_REDUCE | j as u64);
        }
    }

    fn on_reduce_done(&mut self, now: SimTime, j: usize) {
        let job = &mut self.jobs[j];
        job.phase = JobPhase::Done;
        self.finished.push(JobStats {
            name: job.spec.name.clone(),
            input: job.spec.input.clone(),
            submitted: job.spec.submit_at,
            finished: now,
            map_tasks: job.tasks.len() as u32,
            node_local_tasks: job
                .tasks
                .iter()
                .filter(|t| t.node_local == Some(true))
                .count() as u32,
            bytes_read: job.bytes_read,
            total_read_secs: job.total_read_secs,
        });
    }

    fn pending_tasks(&self) -> Vec<PendingTask> {
        let mut out = Vec::new();
        for (j, job) in self.jobs.iter().enumerate() {
            if job.phase != JobPhase::Mapping {
                continue;
            }
            for (t, task) in job.tasks.iter().enumerate() {
                if task.state == TaskState::Pending {
                    out.push(PendingTask {
                        job: j,
                        task: t,
                        block: task.block,
                        holders: self.cluster.blockmap().replica_nodes(task.block).to_vec(),
                    });
                }
            }
        }
        out
    }

    fn try_schedule(&mut self) {
        let running: Vec<usize> = self.jobs.iter().map(|j| j.running).collect();
        let mut running = running;
        let mut any_unassigned_with_free_slot = false;
        // offer each free slot once per pump, in node order
        for node_idx in 0..self.free_slots.len() {
            while self.free_slots[node_idx] > 0 {
                if !self.cluster.node_views(None)[node_idx].serving {
                    break; // standby/dead nodes offer no slots
                }
                let pending = self.pending_tasks();
                if pending.is_empty() {
                    return self.arm_heartbeat_if_needed(false);
                }
                let node = NodeId(node_idx as u32);
                match self.scheduler.pick(node, &pending, &running) {
                    Some(i) => {
                        let pt = pending[i].clone();
                        self.assign(node, &pt);
                        running[pt.job] += 1;
                    }
                    None => {
                        any_unassigned_with_free_slot = true;
                        break; // scheduler is delaying on this slot
                    }
                }
            }
        }
        self.arm_heartbeat_if_needed(any_unassigned_with_free_slot);
    }

    fn arm_heartbeat_if_needed(&mut self, needed: bool) {
        // keep one heartbeat outstanding while delay scheduling idles
        // slots, so slot offers recur and the replay can't stall
        if needed && !self.heartbeat_pending {
            self.heartbeat_pending = true;
            let t = self.cluster.now() + self.cfg.heartbeat;
            self.cluster.schedule_timer(t, TK_HEARTBEAT);
        }
    }

    fn assign(&mut self, node: NodeId, pt: &PendingTask) {
        let path = self.jobs[pt.job].spec.input.clone();
        let Some(read) = self
            .cluster
            .open_block_read(Endpoint::Node(node), &path, pt.block)
        else {
            // input vanished mid-job: count the task done with no bytes
            let job = &mut self.jobs[pt.job];
            job.tasks[pt.task].state = TaskState::Done;
            job.pending -= 1;
            return;
        };
        let job = &mut self.jobs[pt.job];
        job.tasks[pt.task].state = TaskState::Reading;
        job.tasks[pt.task].node_local = Some(pt.is_local_to(node));
        job.pending -= 1;
        job.running += 1;
        self.free_slots[node.0 as usize] -= 1;
        self.task_node.insert((pt.job, pt.task), node);
        self.read_to_task.insert(read, (pt.job, pt.task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FairScheduler, FifoScheduler};
    use hdfs_sim::{ClusterConfig, DefaultRackAware};
    use simcore::units::MB;

    fn cluster_with_files(paths: &[(&str, u64)]) -> ClusterSim {
        let mut c = ClusterSim::new(ClusterConfig::paper_testbed(), Box::new(DefaultRackAware));
        for (p, size) in paths {
            c.create_file(p, *size, 3, None).unwrap();
        }
        c
    }

    fn job(name: &str, input: &str, at: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            input: input.into(),
            submit_at: SimTime::from_secs(at),
            compute_per_block: SimDuration::from_secs(2),
            reduce_duration: SimDuration::from_secs(3),
        }
    }

    #[test]
    fn single_job_runs_to_completion() {
        let c = cluster_with_files(&[("/in", 256 * MB)]);
        let mut r = MapReduceRunner::new(c, Box::new(FifoScheduler), RunnerConfig::default());
        r.submit(job("j0", "/in", 0));
        let (stats, cluster) = r.run();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.map_tasks, 4);
        assert_eq!(s.bytes_read, 256 * MB);
        assert!(s.duration_secs() > 2.0, "reads+compute+reduce take time");
        assert!(cluster.is_idle());
    }

    #[test]
    fn missing_input_finishes_empty() {
        let c = cluster_with_files(&[]);
        let mut r = MapReduceRunner::new(c, Box::new(FifoScheduler), RunnerConfig::default());
        r.submit(job("j0", "/nope", 0));
        let (stats, _) = r.run();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].map_tasks, 0);
    }

    #[test]
    fn multiple_jobs_all_finish_fifo_and_fair() {
        for fair in [false, true] {
            let c = cluster_with_files(&[("/a", 128 * MB), ("/b", 128 * MB), ("/c", 192 * MB)]);
            let sched: Box<dyn TaskScheduler> = if fair {
                Box::new(FairScheduler::default())
            } else {
                Box::new(FifoScheduler)
            };
            let mut r = MapReduceRunner::new(c, sched, RunnerConfig::default());
            r.submit(job("j0", "/a", 0));
            r.submit(job("j1", "/b", 1));
            r.submit(job("j2", "/c", 2));
            let (stats, _) = r.run();
            assert_eq!(stats.len(), 3, "fair={fair}");
            assert!(stats.iter().all(|s| s.map_tasks > 0));
            let total: u64 = stats.iter().map(|s| s.bytes_read).sum();
            assert_eq!(total, (128 + 128 + 192) * MB);
        }
    }

    #[test]
    fn locality_is_tracked() {
        // 18 nodes, r=3, one 6-block file: some tasks should land local
        // (with 2 slots/node there is plenty of slot diversity)
        let c = cluster_with_files(&[("/in", 384 * MB)]);
        let mut r = MapReduceRunner::new(
            c,
            Box::new(FairScheduler::default()),
            RunnerConfig::default(),
        );
        r.submit(job("j0", "/in", 0));
        let (stats, _) = r.run();
        let s = &stats[0];
        assert_eq!(s.map_tasks, 6);
        assert!(
            s.node_local_tasks > 0,
            "delay scheduling should find local slots, got {}",
            s.node_local_tasks
        );
        assert!(s.locality() <= 1.0);
    }

    #[test]
    fn fair_beats_fifo_on_locality_under_contention() {
        // Many single-block jobs over distinct files: FIFO grabs any slot
        // for the head job; Fair waits for local ones.
        let mk = || {
            let mut c = ClusterSim::new(ClusterConfig::paper_testbed(), Box::new(DefaultRackAware));
            for i in 0..12 {
                c.create_file(&format!("/f{i}"), 64 * MB, 3, None).unwrap();
            }
            c
        };
        let run = |fair: bool| -> f64 {
            let sched: Box<dyn TaskScheduler> = if fair {
                Box::new(FairScheduler::new(6))
            } else {
                Box::new(FifoScheduler)
            };
            let mut r = MapReduceRunner::new(mk(), sched, RunnerConfig::default());
            for i in 0..12 {
                r.submit(job(&format!("j{i}"), &format!("/f{i}"), 0));
            }
            let (stats, _) = r.run();
            let local: u32 = stats.iter().map(|s| s.node_local_tasks).sum();
            let total: u32 = stats.iter().map(|s| s.map_tasks).sum();
            local as f64 / total as f64
        };
        let fifo = run(false);
        let fair = run(true);
        assert!(
            fair >= fifo,
            "fair locality {fair} should be >= fifo locality {fifo}"
        );
    }

    #[test]
    fn controller_hook_ticks() {
        let c = cluster_with_files(&[("/in", 256 * MB)]);
        let mut r = MapReduceRunner::new(
            c,
            Box::new(FifoScheduler),
            RunnerConfig {
                controller_interval: SimDuration::from_secs(1),
                ..RunnerConfig::default()
            },
        );
        use std::cell::Cell;
        use std::rc::Rc;
        let ticks = Rc::new(Cell::new(0u32));
        let t2 = ticks.clone();
        r.set_controller(Box::new(move |_c, _t| t2.set(t2.get() + 1)));
        r.submit(job("j0", "/in", 0));
        let (stats, _) = r.run();
        assert_eq!(stats.len(), 1);
        assert!(
            ticks.get() >= 2,
            "controller should tick repeatedly, got {}",
            ticks.get()
        );
    }
}
