//! `condor` — the task-execution substrate ERMS schedules through.
//!
//! The paper uses Condor for three things (Section III.A/B). This crate
//! implements the last two:
//!
//! 1. **Node detection**: Condor's attribute ads represent "the
//!    characteristics and constraints of nodes and replicas" and detect
//!    datanode commission/decommission. ERMS asks one such question, "a
//!    powered-off standby node", so it asks it as a typed query over the
//!    simulator's node state instead (`erms::manager`); there is no
//!    expression language here.
//! 2. **Scheduling**: replica-increase and erasure-*decode* tasks run
//!    immediately, replica-decrease and erasure-*encode* tasks run "when
//!    the HDFS cluster is idle" — module [`scheduler`].
//! 3. **The user log** records every replication/coding task so failed
//!    tasks "could rollback automatically" and operators "can replay all
//!    operations" — module [`journal`].
//!
//! The crate is generic over the task payload: ERMS supplies its own
//! replication/erasure commands (`erms::manager`), tests use plain enums.
//!
//! ```
//! use condor::{Outcome, Priority, Scheduler};
//! use simcore::SimTime;
//!
//! let mut sched: Scheduler<&str> = Scheduler::new(4, 3);
//! sched.submit(SimTime::ZERO, "increase /hot to r=8", Priority::Immediate);
//! sched.submit(SimTime::ZERO, "encode /cold", Priority::WhenIdle);
//!
//! // a busy cluster only runs the immediate class
//! let dispatched = sched.dispatch(SimTime::from_secs(1), false);
//! assert_eq!(dispatched.len(), 1);
//! let (job, payload) = (&dispatched[0].0, dispatched[0].1);
//! assert_eq!(payload, "increase /hot to r=8");
//! sched.report(SimTime::from_secs(2), *job, Outcome::Success);
//!
//! // everything is journalled for rollback and replay
//! assert_eq!(sched.journal().len(), 4);
//! ```

pub mod journal;
pub mod scheduler;

pub use journal::{Journal, JournalEntry, JournalEvent};
pub use scheduler::{JobId, JobState, Outcome, Priority, Scheduler};
