//! The task journal (Condor's "user log").
//!
//! Every replication-manager and erasure-coding task is recorded here so
//! that, per the paper, "if these tasks failed, they could rollback
//! automatically. We can replay all operations and analyze them." The
//! journal is an append-only event list; [`Journal::replay`] folds it
//! back into per-job final states and is property-tested (in the
//! scheduler) to agree with live state.

use checkpoint::codec::{get, unknown, Ck, MapBuilder};
use checkpoint::{CheckpointError, Value};
use simcore::SimTime;
use std::fmt;

/// Job identifier shared with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent<P> {
    Submitted {
        payload: P,
        priority: crate::scheduler::Priority,
    },
    Started {
        attempt: u32,
    },
    Completed,
    Failed {
        reason: String,
        attempt: u32,
    },
    /// Permanent failure: the job's effects must be undone.
    RollbackRequested,
    RolledBack,
}

/// A timestamped journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry<P> {
    pub time: SimTime,
    pub job: JobId,
    pub event: JournalEvent<P>,
}

/// Final state of a job as reconstructed by replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayState {
    Queued,
    Running,
    Completed,
    FailedAwaitingRollback,
    RolledBack,
}

/// Append-only task log.
#[derive(Debug, Clone, Default)]
pub struct Journal<P> {
    entries: Vec<JournalEntry<P>>,
}

impl<P: Clone> Journal<P> {
    pub fn new() -> Self {
        Journal {
            entries: Vec::new(),
        }
    }

    pub fn record(&mut self, time: SimTime, job: JobId, event: JournalEvent<P>) {
        self.entries.push(JournalEntry { time, job, event });
    }

    pub fn entries(&self) -> &[JournalEntry<P>] {
        &self.entries
    }
    pub fn len(&self) -> usize {
        self.entries.len()
    }
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries for one job, in order.
    pub fn for_job(&self, job: JobId) -> Vec<&JournalEntry<P>> {
        self.entries.iter().filter(|e| e.job == job).collect()
    }

    /// Fold the log into each job's final state.
    pub fn replay(&self) -> std::collections::BTreeMap<JobId, ReplayState> {
        let mut states = std::collections::BTreeMap::new();
        for entry in &self.entries {
            let state = match &entry.event {
                JournalEvent::Submitted { .. } => ReplayState::Queued,
                JournalEvent::Started { .. } => ReplayState::Running,
                JournalEvent::Completed => ReplayState::Completed,
                // a failure before exhausting retries re-queues
                JournalEvent::Failed { .. } => ReplayState::Queued,
                JournalEvent::RollbackRequested => ReplayState::FailedAwaitingRollback,
                JournalEvent::RolledBack => ReplayState::RolledBack,
            };
            states.insert(entry.job, state);
        }
        states
    }

    /// Payloads of jobs that permanently failed and still need undoing
    /// (RollbackRequested without a later RolledBack).
    pub fn pending_rollbacks(&self) -> Vec<(JobId, P)> {
        let states = self.replay();
        let mut out = Vec::new();
        for (job, state) in states {
            if state == ReplayState::FailedAwaitingRollback {
                if let Some(payload) = self.payload_of(job) {
                    out.push((job, payload));
                }
            }
        }
        out
    }

    /// The submitted payload of a job.
    pub fn payload_of(&self, job: JobId) -> Option<P> {
        self.entries.iter().find_map(|e| {
            if e.job == job {
                if let JournalEvent::Submitted { payload, .. } = &e.event {
                    return Some(payload.clone());
                }
            }
            None
        })
    }

    /// Compensating actions for jobs the log shows as *Running* — tasks
    /// that were in flight when the journal was captured and died with
    /// the crashed manager. A restarting manager cannot wait for their
    /// reports (no executor holds them any more), so each payload must be
    /// either undone or re-driven to a safe state. Jobs that permanently
    /// failed before the crash are covered by
    /// [`Self::pending_rollbacks`], not repeated here.
    pub fn rollback_plan(&self) -> Vec<(JobId, P)> {
        self.replay()
            .into_iter()
            .filter(|(_, state)| *state == ReplayState::Running)
            .filter_map(|(job, _)| self.payload_of(job).map(|p| (job, p)))
            .collect()
    }
}

checkpoint::ck_id!(JobId);

// `{"t", "job", "ev": kind, ...the event's fields}` — the entry and its
// event share one flat map.
impl<P: Ck> Ck for JournalEntry<P> {
    fn put(&self) -> Value {
        let b = MapBuilder::new().put("t", &self.time).put("job", &self.job);
        let ev = |name| b.raw("ev", Value::Str(String::from(name)));
        match &self.event {
            JournalEvent::Submitted { payload, priority } => ev("submitted")
                .put("payload", payload)
                .put("priority", priority),
            JournalEvent::Started { attempt } => ev("started").put("attempt", attempt),
            JournalEvent::Completed => ev("completed"),
            JournalEvent::Failed { reason, attempt } => {
                ev("failed").put("reason", reason).put("attempt", attempt)
            }
            JournalEvent::RollbackRequested => ev("rollback_requested"),
            JournalEvent::RolledBack => ev("rolled_back"),
        }
        .build()
    }

    fn take(v: &Value, at: &str) -> Result<Self, CheckpointError> {
        let event = match get::<String>(v, "ev")?.as_str() {
            "submitted" => JournalEvent::Submitted {
                payload: get(v, "payload")?,
                priority: get(v, "priority")?,
            },
            "started" => JournalEvent::Started {
                attempt: get(v, "attempt")?,
            },
            "completed" => JournalEvent::Completed,
            "failed" => JournalEvent::Failed {
                reason: get(v, "reason")?,
                attempt: get(v, "attempt")?,
            },
            "rollback_requested" => JournalEvent::RollbackRequested,
            "rolled_back" => JournalEvent::RolledBack,
            other => return Err(unknown(at, "journal event", other)),
        };
        Ok(JournalEntry {
            time: get(v, "t")?,
            job: get(v, "job")?,
            event,
        })
    }
}

/// The log is the sequence of its entries.
impl<P: Ck> checkpoint::Checkpointable for Journal<P> {
    fn save_state(&self) -> Value {
        self.entries.put()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError> {
        self.entries = Ck::take(state, "journal")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Priority;
    use checkpoint::Checkpointable;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn replay_reconstructs_lifecycle() {
        let mut j: Journal<&str> = Journal::new();
        let a = JobId(1);
        let b = JobId(2);
        j.record(
            t(0),
            a,
            JournalEvent::Submitted {
                payload: "inc",
                priority: Priority::Immediate,
            },
        );
        j.record(
            t(0),
            b,
            JournalEvent::Submitted {
                payload: "enc",
                priority: Priority::WhenIdle,
            },
        );
        j.record(t(1), a, JournalEvent::Started { attempt: 1 });
        j.record(t(2), a, JournalEvent::Completed);
        j.record(t(3), b, JournalEvent::Started { attempt: 1 });
        let states = j.replay();
        assert_eq!(states[&a], ReplayState::Completed);
        assert_eq!(states[&b], ReplayState::Running);
    }

    #[test]
    fn failure_then_retry_then_rollback() {
        let mut j: Journal<&str> = Journal::new();
        let a = JobId(7);
        j.record(
            t(0),
            a,
            JournalEvent::Submitted {
                payload: "inc",
                priority: Priority::Immediate,
            },
        );
        j.record(t(1), a, JournalEvent::Started { attempt: 1 });
        j.record(
            t(2),
            a,
            JournalEvent::Failed {
                reason: "dn died".into(),
                attempt: 1,
            },
        );
        assert_eq!(j.replay()[&a], ReplayState::Queued, "failure requeues");
        j.record(t(3), a, JournalEvent::Started { attempt: 2 });
        j.record(
            t(4),
            a,
            JournalEvent::Failed {
                reason: "dn died".into(),
                attempt: 2,
            },
        );
        j.record(t(4), a, JournalEvent::RollbackRequested);
        assert_eq!(j.replay()[&a], ReplayState::FailedAwaitingRollback);
        assert_eq!(j.pending_rollbacks(), vec![(a, "inc")]);
        j.record(t(5), a, JournalEvent::RolledBack);
        assert_eq!(j.replay()[&a], ReplayState::RolledBack);
        assert!(j.pending_rollbacks().is_empty());
    }

    #[test]
    fn rollback_plan_names_only_inflight_jobs() {
        let mut j: Journal<&str> = Journal::new();
        let done = JobId(1);
        let inflight = JobId(2);
        let queued = JobId(3);
        for (id, p) in [(done, "a"), (inflight, "b"), (queued, "c")] {
            j.record(
                t(0),
                id,
                JournalEvent::Submitted {
                    payload: p,
                    priority: Priority::Immediate,
                },
            );
        }
        j.record(t(1), done, JournalEvent::Started { attempt: 1 });
        j.record(t(2), done, JournalEvent::Completed);
        j.record(t(3), inflight, JournalEvent::Started { attempt: 1 });
        assert_eq!(j.rollback_plan(), vec![(inflight, "b")]);
    }

    #[test]
    fn save_load_round_trips_every_event_kind() {
        let mut j: Journal<String> = Journal::new();
        let a = JobId(4);
        j.record(
            t(0),
            a,
            JournalEvent::Submitted {
                payload: "p".to_string(),
                priority: Priority::WhenIdle,
            },
        );
        j.record(t(1), a, JournalEvent::Started { attempt: 1 });
        j.record(
            t(2),
            a,
            JournalEvent::Failed {
                reason: "dn died".into(),
                attempt: 1,
            },
        );
        j.record(t(3), a, JournalEvent::Started { attempt: 2 });
        j.record(t(4), a, JournalEvent::Completed);
        j.record(t(5), a, JournalEvent::RollbackRequested);
        j.record(t(6), a, JournalEvent::RolledBack);

        let json = serde_json::to_string(&j.save_state()).unwrap();
        let mut back: Journal<String> = Journal::new();
        back.load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert_eq!(back.entries(), j.entries());
    }

    #[test]
    fn for_job_and_payload() {
        let mut j: Journal<u32> = Journal::new();
        j.record(
            t(0),
            JobId(1),
            JournalEvent::Submitted {
                payload: 10,
                priority: Priority::Immediate,
            },
        );
        j.record(
            t(0),
            JobId(2),
            JournalEvent::Submitted {
                payload: 20,
                priority: Priority::Immediate,
            },
        );
        j.record(t(1), JobId(1), JournalEvent::Completed);
        assert_eq!(j.for_job(JobId(1)).len(), 2);
        assert_eq!(j.payload_of(JobId(2)), Some(20));
        assert_eq!(j.payload_of(JobId(9)), None);
        assert_eq!(j.len(), 3);
    }
}
