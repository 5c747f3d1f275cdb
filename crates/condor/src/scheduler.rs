//! Two-priority task scheduling.
//!
//! The paper: Condor "schedules the increasing replication tasks and
//! erasure decoding tasks immediately, while run\[ning\] the decreasing
//! replication tasks and erasure encoding tasks when the HDFS cluster is
//! idle." The scheduler therefore keeps two FIFO queues:
//!
//! * [`Priority::Immediate`] — dispatched on every tick,
//! * [`Priority::WhenIdle`] — dispatched only when the caller reports the
//!   cluster idle.
//!
//! Execution is cooperative: [`Scheduler::dispatch`] hands out up to
//! `max_concurrent` runnable payloads; the caller performs them against
//! the HDFS simulator and calls [`Scheduler::report`]. Failures retry up
//! to `max_attempts`, after which the job is journalled for rollback and
//! surfaced via [`Scheduler::take_rollbacks`].

use crate::journal::{Journal, JournalEvent};
use checkpoint::codec::{Ck, Keyed};
use simcore::telemetry::{Event as TelemetryEvent, TelemetrySink};
use simcore::{trace, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub use crate::journal::JobId;

/// Exponential retry backoff with deterministic, seeded jitter.
///
/// After attempt *k* fails (1-based), the job may not be re-dispatched
/// before `now + min(cap, base·2^(k-1)) · jitter`, where `jitter` is a
/// per-(job, attempt) multiplier drawn uniformly from
/// `[1 − jitter_frac, 1 + jitter_frac]` by hashing `(seed, job, attempt)`
/// — fully reproducible, no shared RNG state. [`Scheduler::new`] keeps
/// the historical zero-delay behaviour; opt in with
/// [`Scheduler::with_retry_policy`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Delay after the first failure.
    pub base: SimDuration,
    /// Upper bound on the (pre-jitter) delay.
    pub cap: SimDuration,
    /// Jitter half-width as a fraction of the delay, in `[0, 1]`.
    pub jitter_frac: f64,
    /// Seed for the per-(job, attempt) jitter hash.
    pub seed: u64,
}

impl RetryPolicy {
    pub fn new(base: SimDuration, cap: SimDuration, jitter_frac: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&jitter_frac),
            "jitter_frac {jitter_frac} outside [0, 1]"
        );
        assert!(cap >= base, "cap below base delay");
        RetryPolicy {
            base,
            cap,
            jitter_frac,
            seed,
        }
    }

    /// The delay imposed after `attempt` (1-based) of `job` failed.
    pub fn delay_after(&self, job: JobId, attempt: u32) -> SimDuration {
        let doublings = attempt.saturating_sub(1).min(62);
        let raw = self.base.as_secs_f64() * (1u64 << doublings) as f64;
        let capped = raw.min(self.cap.as_secs_f64());
        // splitmix64 over (seed, job, attempt) → uniform in [0, 1)
        let mut z = self
            .seed
            .wrapping_add(job.0.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let mult = 1.0 + self.jitter_frac * (2.0 * unit - 1.0);
        SimDuration::from_secs_f64(capped * mult)
    }
}

/// Scheduling class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Replica increases, erasure decodes: run now.
    Immediate,
    /// Replica decreases, erasure encodes: run when the cluster is idle.
    WhenIdle,
}

/// Result the executor reports for a dispatched job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Success,
    Failure(String),
}

/// Live job state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Completed,
    /// Permanently failed; rollback pending or done.
    Failed,
}

#[derive(Debug, Clone)]
struct Job<P> {
    id: JobId,
    payload: P,
    priority: Priority,
    state: JobState,
    attempts: u32,
    /// Submission instant, kept so the terminal report can observe the
    /// queue-to-outcome latency across every retry.
    submitted: SimTime,
}

/// The Condor-like scheduler.
pub struct Scheduler<P> {
    jobs: BTreeMap<JobId, Job<P>>,
    immediate: VecDeque<JobId>,
    idle: VecDeque<JobId>,
    running: BTreeSet<JobId>,
    journal: Journal<P>,
    rollbacks: Vec<(JobId, P)>,
    next_id: u64,
    max_concurrent: usize,
    max_attempts: u32,
    retry_policy: Option<RetryPolicy>,
    /// Earliest re-dispatch time for jobs in backoff.
    not_before: BTreeMap<JobId, SimTime>,
    telemetry: TelemetrySink,
}

impl<P: Clone> Scheduler<P> {
    pub fn new(max_concurrent: usize, max_attempts: u32) -> Self {
        assert!(max_concurrent >= 1 && max_attempts >= 1);
        Scheduler {
            jobs: BTreeMap::new(),
            immediate: VecDeque::new(),
            idle: VecDeque::new(),
            running: BTreeSet::new(),
            journal: Journal::new(),
            rollbacks: Vec::new(),
            next_id: 0,
            max_concurrent,
            max_attempts,
            retry_policy: None,
            not_before: BTreeMap::new(),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Install a telemetry sink; queue/dispatch/retry/outcome events are
    /// then traced alongside queue-depth metrics.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// A scheduler whose retries back off per `policy` instead of
    /// requeueing instantly.
    pub fn with_retry_policy(
        max_concurrent: usize,
        max_attempts: u32,
        policy: RetryPolicy,
    ) -> Self {
        let mut s = Self::new(max_concurrent, max_attempts);
        s.retry_policy = Some(policy);
        s
    }

    /// Enqueue a job.
    pub fn submit(&mut self, now: SimTime, payload: P, priority: Priority) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.journal.record(
            now,
            id,
            JournalEvent::Submitted {
                payload: payload.clone(),
                priority,
            },
        );
        self.jobs.insert(
            id,
            Job {
                id,
                payload,
                priority,
                state: JobState::Queued,
                attempts: 0,
                submitted: now,
            },
        );
        match priority {
            Priority::Immediate => self.immediate.push_back(id),
            Priority::WhenIdle => self.idle.push_back(id),
        }
        trace!(
            self.telemetry,
            now,
            TelemetryEvent::TaskQueued {
                job: id.0,
                priority: match priority {
                    Priority::Immediate => "immediate".to_string(),
                    Priority::WhenIdle => "when_idle".to_string(),
                },
            }
        );
        self.telemetry.counter_add("condor.submitted", 1);
        id
    }

    /// Pop the first queued job whose backoff (if any) has elapsed,
    /// preserving FIFO order among the ready.
    fn pop_ready(
        queue: &mut VecDeque<JobId>,
        not_before: &BTreeMap<JobId, SimTime>,
        now: SimTime,
    ) -> Option<JobId> {
        let idx = queue
            .iter()
            .position(|id| not_before.get(id).is_none_or(|&at| at <= now))?;
        queue.remove(idx)
    }

    /// Hand out runnable jobs: immediate jobs always, idle-class jobs
    /// only when `cluster_idle`. Respects the concurrency cap; jobs
    /// still in retry backoff are passed over until their time comes.
    pub fn dispatch(&mut self, now: SimTime, cluster_idle: bool) -> Vec<(JobId, P)> {
        simcore::prof_scope!("condor/dispatch");
        let mut out = Vec::new();
        while self.running.len() < self.max_concurrent {
            let id = match Self::pop_ready(&mut self.immediate, &self.not_before, now) {
                Some(id) => id,
                None if cluster_idle => {
                    match Self::pop_ready(&mut self.idle, &self.not_before, now) {
                        Some(id) => id,
                        None => break,
                    }
                }
                None => break,
            };
            self.not_before.remove(&id);
            let job = self.jobs.get_mut(&id).expect("queued job exists");
            debug_assert_eq!(job.state, JobState::Queued);
            job.state = JobState::Running;
            job.attempts += 1;
            self.journal.record(
                now,
                id,
                JournalEvent::Started {
                    attempt: job.attempts,
                },
            );
            self.running.insert(id);
            trace!(
                self.telemetry,
                now,
                TelemetryEvent::TaskDispatched {
                    job: id.0,
                    attempt: job.attempts,
                }
            );
            out.push((id, job.payload.clone()));
        }
        if !out.is_empty() {
            self.telemetry
                .counter_add("condor.dispatched", out.len() as u64);
            self.telemetry
                .gauge_set("condor.running", self.running.len() as f64);
        }
        out
    }

    /// Report the outcome of a dispatched job.
    ///
    /// # Panics
    /// If `id` was not running (double-report or bogus id) — that is
    /// always a driver bug.
    pub fn report(&mut self, now: SimTime, id: JobId, outcome: Outcome) {
        assert!(self.running.remove(&id), "{id} was not running");
        let job = self.jobs.get_mut(&id).expect("running job exists");
        match outcome {
            Outcome::Success => {
                job.state = JobState::Completed;
                self.journal.record(now, id, JournalEvent::Completed);
                self.telemetry
                    .observe("condor.task_secs", now.since(job.submitted).as_secs_f64());
                trace!(
                    self.telemetry,
                    now,
                    TelemetryEvent::TaskFinished {
                        job: id.0,
                        ok: true
                    }
                );
                self.telemetry.counter_add("condor.completed", 1);
            }
            Outcome::Failure(reason) => {
                self.journal.record(
                    now,
                    id,
                    JournalEvent::Failed {
                        reason,
                        attempt: job.attempts,
                    },
                );
                if job.attempts < self.max_attempts {
                    job.state = JobState::Queued;
                    let mut delay = SimDuration::ZERO;
                    if let Some(policy) = &self.retry_policy {
                        delay = policy.delay_after(id, job.attempts);
                        self.not_before.insert(id, now + delay);
                    }
                    match job.priority {
                        Priority::Immediate => self.immediate.push_back(id),
                        Priority::WhenIdle => self.idle.push_back(id),
                    }
                    trace!(
                        self.telemetry,
                        now,
                        TelemetryEvent::TaskRetry {
                            job: id.0,
                            attempt: job.attempts,
                            delay_ns: delay.as_nanos(),
                        }
                    );
                    self.telemetry.counter_add("condor.retries", 1);
                } else {
                    job.state = JobState::Failed;
                    self.journal
                        .record(now, id, JournalEvent::RollbackRequested);
                    self.rollbacks.push((id, job.payload.clone()));
                    self.telemetry
                        .observe("condor.task_secs", now.since(job.submitted).as_secs_f64());
                    trace!(
                        self.telemetry,
                        now,
                        TelemetryEvent::TaskFinished {
                            job: id.0,
                            ok: false,
                        }
                    );
                    self.telemetry.counter_add("condor.failed", 1);
                }
            }
        }
    }

    /// Drain permanently-failed jobs whose effects the caller must undo;
    /// draining journals them as rolled back.
    pub fn take_rollbacks(&mut self, now: SimTime) -> Vec<(JobId, P)> {
        let out = std::mem::take(&mut self.rollbacks);
        for (id, _) in &out {
            self.journal.record(now, *id, JournalEvent::RolledBack);
        }
        out
    }

    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.jobs.get(&id).map(|j| j.state)
    }

    /// When `id` becomes dispatchable again, if it is in retry backoff.
    pub fn next_retry_at(&self, id: JobId) -> Option<SimTime> {
        self.not_before.get(&id).copied()
    }

    pub fn journal(&self) -> &Journal<P> {
        &self.journal
    }

    /// Jobs currently dispatched and awaiting a report. After a
    /// crash-restart these are dead (no executor will ever report them);
    /// the restoring manager fails each one so the normal retry/rollback
    /// machinery takes over.
    pub fn running_jobs(&self) -> Vec<JobId> {
        self.running.iter().copied().collect()
    }

    /// (queued_immediate, queued_idle, running) sizes.
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        (self.immediate.len(), self.idle.len(), self.running.len())
    }

    pub fn pending(&self) -> usize {
        self.immediate.len() + self.idle.len() + self.running.len()
    }
}

checkpoint::ck_enum!(Priority { Immediate => "immediate", WhenIdle => "when_idle" });
checkpoint::ck_enum!(JobState {
    Queued => "queued",
    Running => "running",
    Completed => "completed",
    Failed => "failed",
});
checkpoint::ck_record!(Job<P> where P { id, payload, priority, state, attempts, submitted });

impl<P> Keyed for Job<P> {
    type Key = JobId;
    fn key(&self) -> JobId {
        self.id
    }
}

/// All dynamic state. Construction-time config (`max_concurrent`,
/// `max_attempts`, the retry policy) and the telemetry sink are rebuilt
/// by the caller, not serialized.
impl<P: Ck + Clone> checkpoint::Checkpointable for Scheduler<P> {
    checkpoint::ck_fields! {
        next_id,
        jobs: keyed,
        immediate,
        idle,
        running,
        journal: state,
        rollbacks,
        not_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::ReplayState;
    use checkpoint::Checkpointable;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn immediate_runs_even_when_busy() {
        let mut s: Scheduler<&str> = Scheduler::new(4, 2);
        s.submit(t(0), "inc_replica", Priority::Immediate);
        s.submit(t(0), "encode_cold", Priority::WhenIdle);
        let d = s.dispatch(t(1), false);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, "inc_replica");
        let (qi, ql, run) = s.queue_depths();
        assert_eq!((qi, ql, run), (0, 1, 1));
    }

    #[test]
    fn idle_work_waits_for_idleness() {
        let mut s: Scheduler<&str> = Scheduler::new(4, 2);
        s.submit(t(0), "decrease", Priority::WhenIdle);
        assert!(s.dispatch(t(1), false).is_empty());
        let d = s.dispatch(t(2), true);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn immediate_preempts_idle_in_dispatch_order() {
        let mut s: Scheduler<&str> = Scheduler::new(1, 2);
        s.submit(t(0), "idle1", Priority::WhenIdle);
        s.submit(t(0), "imm1", Priority::Immediate);
        let d = s.dispatch(t(1), true);
        assert_eq!(d.len(), 1, "capacity 1");
        assert_eq!(d[0].1, "imm1", "immediate first even if submitted later");
    }

    #[test]
    fn concurrency_cap_respected() {
        let mut s: Scheduler<u32> = Scheduler::new(2, 1);
        for i in 0..5 {
            s.submit(t(0), i, Priority::Immediate);
        }
        let d1 = s.dispatch(t(1), false);
        assert_eq!(d1.len(), 2);
        assert!(s.dispatch(t(1), false).is_empty(), "cap reached");
        s.report(t(2), d1[0].0, Outcome::Success);
        let d2 = s.dispatch(t(2), false);
        assert_eq!(d2.len(), 1, "slot freed");
    }

    #[test]
    fn retry_then_success() {
        let mut s: Scheduler<&str> = Scheduler::new(1, 3);
        let id = s.submit(t(0), "flaky", Priority::Immediate);
        let d = s.dispatch(t(1), false);
        s.report(t(2), d[0].0, Outcome::Failure("net".into()));
        assert_eq!(s.state(id), Some(JobState::Queued), "requeued");
        let d = s.dispatch(t(3), false);
        s.report(t(4), d[0].0, Outcome::Success);
        assert_eq!(s.state(id), Some(JobState::Completed));
        assert!(s.take_rollbacks(t(5)).is_empty());
    }

    #[test]
    fn permanent_failure_triggers_rollback() {
        let mut s: Scheduler<&str> = Scheduler::new(1, 2);
        let id = s.submit(t(0), "doomed", Priority::Immediate);
        for attempt in 0..2 {
            let d = s.dispatch(t(attempt), false);
            assert_eq!(d.len(), 1, "attempt {attempt}");
            s.report(t(attempt + 1), d[0].0, Outcome::Failure("disk".into()));
        }
        assert_eq!(s.state(id), Some(JobState::Failed));
        let rb = s.take_rollbacks(t(10));
        assert_eq!(rb, vec![(id, "doomed")]);
        assert!(s.take_rollbacks(t(11)).is_empty(), "rollbacks drain once");
        assert_eq!(s.journal().replay()[&id], ReplayState::RolledBack);
    }

    #[test]
    #[should_panic(expected = "was not running")]
    fn double_report_panics() {
        let mut s: Scheduler<&str> = Scheduler::new(1, 1);
        s.submit(t(0), "x", Priority::Immediate);
        let d = s.dispatch(t(0), false);
        s.report(t(1), d[0].0, Outcome::Success);
        s.report(t(2), d[0].0, Outcome::Success);
    }

    #[test]
    fn journal_replay_matches_live_state() {
        let mut s: Scheduler<u32> = Scheduler::new(3, 2);
        let mut ids = Vec::new();
        for i in 0..6 {
            let pri = if i % 2 == 0 {
                Priority::Immediate
            } else {
                Priority::WhenIdle
            };
            ids.push(s.submit(t(0), i, pri));
        }
        let d = s.dispatch(t(1), true);
        for (n, (id, _)) in d.iter().enumerate() {
            let outcome = if n == 0 {
                Outcome::Failure("x".into())
            } else {
                Outcome::Success
            };
            s.report(t(2), *id, outcome);
        }
        let replayed = s.journal().replay();
        for id in &ids {
            let live = s.state(*id).unwrap();
            let rep = replayed.get(&crate::journal::JobId(id.0)).copied();
            let expected = match live {
                JobState::Queued => ReplayState::Queued,
                JobState::Running => ReplayState::Running,
                JobState::Completed => ReplayState::Completed,
                JobState::Failed => ReplayState::FailedAwaitingRollback,
            };
            assert_eq!(rep, Some(expected), "{id}");
        }
    }

    mod properties {
        use super::*;
        use crate::journal::ReplayState;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Submit { idle_class: bool },
            Dispatch { idle: bool },
            ReportNext { ok: bool },
            TakeRollbacks,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                any::<bool>().prop_map(|idle_class| Op::Submit { idle_class }),
                any::<bool>().prop_map(|idle| Op::Dispatch { idle }),
                any::<bool>().prop_map(|ok| Op::ReportNext { ok }),
                Just(Op::TakeRollbacks),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn journal_replay_always_matches_live_state(
                ops in prop::collection::vec(op(), 1..60),
                cap in 1usize..4,
                attempts in 1u32..4,
            ) {
                let mut s: Scheduler<u32> = Scheduler::new(cap, attempts);
                let mut running: Vec<JobId> = Vec::new();
                let mut clock = 0u64;
                let mut submitted: Vec<JobId> = Vec::new();
                for o in ops {
                    clock += 1;
                    let now = t(clock);
                    match o {
                        Op::Submit { idle_class } => {
                            let pri = if idle_class {
                                Priority::WhenIdle
                            } else {
                                Priority::Immediate
                            };
                            submitted.push(s.submit(now, clock as u32, pri));
                        }
                        Op::Dispatch { idle } => {
                            for (id, _) in s.dispatch(now, idle) {
                                running.push(id);
                            }
                        }
                        Op::ReportNext { ok } => {
                            if let Some(id) = running.pop() {
                                let outcome = if ok {
                                    Outcome::Success
                                } else {
                                    Outcome::Failure("x".into())
                                };
                                s.report(now, id, outcome);
                            }
                        }
                        Op::TakeRollbacks => {
                            s.take_rollbacks(now);
                        }
                    }
                }
                // invariant: replaying the journal reconstructs exactly
                // the live state of every job ever submitted
                let replayed = s.journal().replay();
                for id in submitted {
                    let live = s.state(id).expect("submitted job tracked");
                    let rep = replayed
                        .get(&crate::journal::JobId(id.0))
                        .copied()
                        .expect("journalled");
                    let matches = match live {
                        JobState::Queued => rep == ReplayState::Queued,
                        JobState::Running => rep == ReplayState::Running,
                        JobState::Completed => rep == ReplayState::Completed,
                        JobState::Failed => {
                            rep == ReplayState::FailedAwaitingRollback
                                || rep == ReplayState::RolledBack
                        }
                    };
                    prop_assert!(matches, "{id}: live {live:?} vs replay {rep:?}");
                }
                // invariant: queue depths never exceed what was submitted
                let (qi, ql, run) = s.queue_depths();
                prop_assert!(run <= cap);
                prop_assert!(qi + ql + run <= s.journal().replay().len());
            }
        }
    }

    fn backoff_policy() -> RetryPolicy {
        RetryPolicy::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(60),
            0.2,
            99,
        )
    }

    #[test]
    fn backoff_delays_retry_until_due() {
        let mut s: Scheduler<&str> = Scheduler::with_retry_policy(1, 5, backoff_policy());
        let id = s.submit(t(0), "flaky", Priority::Immediate);
        let d = s.dispatch(t(0), false);
        s.report(t(1), d[0].0, Outcome::Failure("net".into()));
        let due = s.next_retry_at(id).expect("in backoff");
        // base 10s ± 20 % jitter, measured from the failure report
        assert!(due >= t(1) + SimDuration::from_secs(8));
        assert!(due <= t(1) + SimDuration::from_secs(13));
        assert!(s.dispatch(t(2), false).is_empty(), "still backing off");
        let d = s.dispatch(due, false);
        assert_eq!(d.len(), 1, "due at {due}");
        assert!(s.next_retry_at(id).is_none(), "cleared on dispatch");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = backoff_policy();
        let id = JobId(3);
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=3 {
            let d = p.delay_after(id, attempt);
            assert!(d > prev, "attempt {attempt} should back off further");
            prev = d;
        }
        // attempt 10 would be 10·2⁹ = 5120 s raw; the cap (60 s ± 20 %)
        // bounds it
        let capped = p.delay_after(id, 10);
        assert!(capped <= SimDuration::from_secs(72), "{capped} exceeds cap");
        assert!(capped >= SimDuration::from_secs(48));
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let a = backoff_policy();
        let b = backoff_policy();
        let mut c = backoff_policy();
        c.seed = 100;
        let mut saw_difference = false;
        for attempt in 1..=4 {
            for job in 0..8 {
                let id = JobId(job);
                assert_eq!(a.delay_after(id, attempt), b.delay_after(id, attempt));
                if a.delay_after(id, attempt) != c.delay_after(id, attempt) {
                    saw_difference = true;
                }
            }
        }
        assert!(saw_difference, "different seeds must jitter differently");
    }

    #[test]
    fn backoff_does_not_block_other_ready_jobs() {
        let mut s: Scheduler<&str> = Scheduler::with_retry_policy(1, 5, backoff_policy());
        s.submit(t(0), "flaky", Priority::Immediate);
        let d = s.dispatch(t(0), false);
        s.report(t(1), d[0].0, Outcome::Failure("net".into()));
        // a fresh job behind the backing-off head of the queue still runs
        s.submit(t(1), "fresh", Priority::Immediate);
        let d = s.dispatch(t(2), false);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, "fresh", "ready job overtakes one in backoff");
    }

    #[test]
    fn backoff_exhausts_into_rollback() {
        let mut s: Scheduler<&str> = Scheduler::with_retry_policy(1, 2, backoff_policy());
        let id = s.submit(t(0), "doomed", Priority::Immediate);
        let d = s.dispatch(t(0), false);
        s.report(t(1), d[0].0, Outcome::Failure("x".into()));
        let due = s.next_retry_at(id).unwrap();
        let d = s.dispatch(due, false);
        s.report(
            due + SimDuration::from_secs(1),
            d[0].0,
            Outcome::Failure("x".into()),
        );
        // max_attempts reached: permanent failure, no further backoff
        assert_eq!(s.state(id), Some(JobState::Failed));
        assert!(s.next_retry_at(id).is_none());
        let rb = s.take_rollbacks(due + SimDuration::from_secs(2));
        assert_eq!(rb, vec![(id, "doomed")]);
        assert_eq!(s.journal().replay()[&id], ReplayState::RolledBack);
    }

    #[test]
    fn backoff_jitter_always_stays_inside_the_window() {
        // exhaustive sweep: for every (job, attempt) pair the jittered
        // delay must land in [(1−f)·d, (1+f)·d] where d = min(cap, base·2^k)
        let p = backoff_policy();
        let base = 10.0;
        let cap = 60.0;
        for job in 0..256u64 {
            for attempt in 1..=16u32 {
                let doublings = attempt.saturating_sub(1).min(62);
                let pre = (base * (1u64 << doublings) as f64).min(cap);
                let d = p.delay_after(JobId(job), attempt).as_secs_f64();
                assert!(
                    d >= pre * 0.8 - 1e-9 && d <= pre * 1.2 + 1e-9,
                    "job {job} attempt {attempt}: {d} outside [{}, {}]",
                    pre * 0.8,
                    pre * 1.2
                );
            }
        }
    }

    #[test]
    fn retries_are_capped_at_max_attempts_dispatches() {
        // a permanently failing job is dispatched exactly max_attempts
        // times, never more, no matter how long we keep asking
        let max_attempts = 4;
        let mut s: Scheduler<&str> =
            Scheduler::with_retry_policy(1, max_attempts, backoff_policy());
        let id = s.submit(t(0), "doomed", Priority::Immediate);
        let mut dispatches = 0u32;
        let mut now = t(0);
        for _ in 0..max_attempts * 8 {
            for (job, _) in s.dispatch(now, false) {
                dispatches += 1;
                now += SimDuration::from_secs(1);
                s.report(now, job, Outcome::Failure("x".into()));
            }
            now = s
                .next_retry_at(id)
                .unwrap_or(now + SimDuration::from_secs(1));
        }
        assert_eq!(dispatches, max_attempts, "attempt cap honoured");
        assert_eq!(s.state(id), Some(JobState::Failed));
    }

    #[test]
    fn default_scheduler_keeps_zero_delay_retries() {
        let mut s: Scheduler<&str> = Scheduler::new(1, 3);
        let id = s.submit(t(0), "flaky", Priority::Immediate);
        let d = s.dispatch(t(0), false);
        s.report(t(1), d[0].0, Outcome::Failure("net".into()));
        assert!(s.next_retry_at(id).is_none());
        assert_eq!(s.dispatch(t(1), false).len(), 1, "instant requeue");
    }

    #[test]
    fn checkpoint_round_trip_resumes_identically() {
        let mut live: Scheduler<u32> = Scheduler::with_retry_policy(2, 2, backoff_policy());
        for i in 0..6u32 {
            let pri = if i % 2 == 0 {
                Priority::Immediate
            } else {
                Priority::WhenIdle
            };
            live.submit(t(0), i, pri);
        }
        let d = live.dispatch(t(1), false);
        live.report(t(2), d[0].0, Outcome::Failure("net".into()));
        live.report(t(3), d[1].0, Outcome::Success);
        live.dispatch(t(3), true); // leaves jobs running across the snapshot

        let json = serde_json::to_string(&live.save_state()).unwrap();
        let mut restored: Scheduler<u32> = Scheduler::with_retry_policy(2, 2, backoff_policy());
        restored
            .load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();

        assert_eq!(restored.queue_depths(), live.queue_depths());
        assert_eq!(restored.running_jobs(), live.running_jobs());
        assert_eq!(restored.journal().entries(), live.journal().entries());
        for id in 0..6 {
            let id = JobId(id);
            assert_eq!(restored.state(id), live.state(id), "{id}");
            assert_eq!(restored.next_retry_at(id), live.next_retry_at(id), "{id}");
        }

        // Both continue identically: finish the running jobs, then drain.
        for s in [&mut live, &mut restored] {
            for id in s.running_jobs() {
                s.report(t(4), id, Outcome::Success);
            }
        }
        let a = live.dispatch(t(100), true);
        let b = restored.dispatch(t(100), true);
        assert_eq!(a, b, "post-restore dispatch order matches");
        // A job submitted after restore gets the same fresh id.
        assert_eq!(
            live.submit(t(101), 99, Priority::Immediate),
            restored.submit(t(101), 99, Priority::Immediate)
        );
    }

    /// A scheduler with every queue occupied: immediate and idle jobs
    /// waiting, two running, one in retry backoff, one rollback drained
    /// and one still pending, and a journal holding every event kind.
    fn busy_scheduler() -> Scheduler<u32> {
        let mut s: Scheduler<u32> = Scheduler::with_retry_policy(3, 2, backoff_policy());
        for i in 0..8u32 {
            let pri = if i % 2 == 0 {
                Priority::Immediate
            } else {
                Priority::WhenIdle
            };
            s.submit(t(0), i * 11, pri);
        }
        let fail = || Outcome::Failure("dn died".into());
        assert_eq!(s.dispatch(t(1), false).len(), 3);
        s.report(t(2), JobId(0), fail());
        s.report(t(2), JobId(2), Outcome::Success);
        s.report(t(3), JobId(4), fail());
        assert_eq!(s.dispatch(t(20), false).len(), 3);
        s.report(t(21), JobId(0), fail());
        assert_eq!(s.take_rollbacks(t(21)).len(), 1);
        s.report(t(22), JobId(4), fail());
        assert_eq!(s.dispatch(t(23), true).len(), 2);
        s.report(t(24), JobId(1), fail());
        s.submit(t(25), 88, Priority::Immediate);
        s.submit(t(25), 99, Priority::WhenIdle);
        s
    }

    #[test]
    fn a_busy_scheduler_snapshot_is_pinned_and_reloads_byte_for_byte() {
        let s = busy_scheduler();
        assert!(!s.immediate.is_empty() && !s.idle.is_empty() && !s.running.is_empty());
        assert!(!s.rollbacks.is_empty() && !s.not_before.is_empty());
        let kinds: std::collections::HashSet<_> = s
            .journal
            .entries()
            .iter()
            .map(|e| std::mem::discriminant(&e.event))
            .collect();
        assert_eq!(kinds.len(), 6, "every journal event kind is present");

        let json = serde_json::to_string(&s.save_state()).unwrap();
        let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        println!("busy scheduler: {fnv:#018x} {}", json.len());
        assert_eq!(
            (fnv, json.len()),
            (0x9ca9_1d70_1bc7_115b, 2724),
            "busy-scheduler snapshot bytes changed"
        );
        let mut back: Scheduler<u32> = Scheduler::with_retry_policy(3, 2, backoff_policy());
        back.load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert_eq!(serde_json::to_string(&back.save_state()).unwrap(), json);
    }

    #[test]
    fn pending_counts() {
        let mut s: Scheduler<u32> = Scheduler::new(2, 1);
        s.submit(t(0), 1, Priority::Immediate);
        s.submit(t(0), 2, Priority::WhenIdle);
        assert_eq!(s.pending(), 2);
        let d = s.dispatch(t(1), false);
        assert_eq!(s.pending(), 2, "running still pending");
        s.report(t(2), d[0].0, Outcome::Success);
        assert_eq!(s.pending(), 1);
    }
}
