//! `erms` — the paper's contribution: an Elastic Replication Management
//! System for HDFS.
//!
//! ERMS watches the cluster's audit-log stream through a CEP engine,
//! classifies every file as **hot / cooled / normal / cold** in real time
//! (Formulas (1)–(6) of Section III.C), and reacts elastically:
//!
//! * hot data jumps **directly** to its computed optimal replication
//!   factor, with the extra replicas parked on freshly commissioned
//!   **standby** nodes (Section III.B's Active/Standby storage model);
//! * cooled data sheds those extras — no rebalancing needed, because
//!   Algorithm 1 put them on standby nodes in the first place;
//! * cold data is Reed–Solomon encoded down to one replica plus parities;
//! * all actions execute as Condor tasks: promotions immediately,
//!   demotions when the cluster is idle, everything journalled for
//!   rollback and replay.
//!
//! ```
//! use erms::prelude::*;
//! use hdfs_sim::topology::{ClientId, Endpoint};
//!
//! let mut cluster = ClusterSim::new(
//!     ClusterConfig::paper_testbed(),
//!     Box::new(ErmsPlacement::new()), // Algorithm 1
//! );
//! let cfg = ErmsConfigBuilder::all_active().build().unwrap();
//! let mut erms = ErmsManager::new(cfg, &mut cluster).unwrap();
//!
//! cluster.create_file("/hot", 64 << 20, 3, None).unwrap();
//! for i in 0..40 {
//!     cluster.open_read(Endpoint::Client(ClientId(i)), "/hot").unwrap();
//! }
//! cluster.run_until_quiescent();
//!
//! // one control-loop pass: audit → CEP judge → Condor tasks
//! let now = cluster.now();
//! let report = erms.tick(&mut cluster, now);
//! assert_eq!(report.hot, 1);
//! assert!(report.tasks_submitted >= 1);
//! ```
//!
//! Module map: [`thresholds`] (the τ/M/ε knobs plus calibration),
//! [`judge`] (CEP-backed classification), [`replication`] (optimal-factor
//! computation and increase strategies), [`placement`] (Algorithm 1 as a
//! [`hdfs_sim::PlacementPolicy`]), [`model`] (active/standby bookkeeping
//! and energy metering), [`manager`] (the control loop gluing it all to
//! a [`hdfs_sim::ClusterSim`]), [`predict`] (future-work EWMA predictor).

pub mod calibrate;
pub mod config;
pub mod judge;
pub mod manager;
pub mod model;
pub mod placement;
pub mod predict;
pub mod replication;
pub mod thresholds;

pub use calibrate::{probe, ProbeConfig, ProbeResult};
pub use config::{ConfigError, ErmsConfig, ErmsConfigBuilder};
pub use judge::{DataClass, DataJudge, FileSnapshot, JudgeRule, Judgment};
pub use manager::{ErmsManager, ErmsTask, TickReport};
pub use model::ActiveStandbyModel;
pub use placement::ErmsPlacement;
pub use replication::{optimal_replication, IncreaseStrategy};
pub use thresholds::Thresholds;

/// One-stop imports for driving an ERMS simulation: the manager and its
/// config/builder/error types, the cluster it manages, the typed ids that
/// key its columnar state ([`FileId`](hdfs_sim::FileId),
/// [`BlockId`](hdfs_sim::BlockId), [`NodeId`](hdfs_sim::NodeId)), the
/// simulation clock, and the telemetry sinks — everything a harness or
/// example needs without spelling out five crate paths.
pub mod prelude {
    pub use crate::config::{ConfigError, ErmsConfig, ErmsConfigBuilder};
    pub use crate::judge::{DataClass, JudgeRule};
    pub use crate::manager::{ErmsManager, ErmsTask, TickReport};
    pub use crate::placement::ErmsPlacement;
    pub use crate::replication::IncreaseStrategy;
    pub use crate::thresholds::Thresholds;
    pub use hdfs_sim::{BlockId, ClusterConfig, ClusterSim, FileId, NodeId};
    pub use simcore::telemetry::{
        Event as TelemetryEvent, MetricsRegistry, TelemetrySink, TracedEvent,
    };
    pub use simcore::{SimDuration, SimTime};
}
