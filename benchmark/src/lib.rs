//! `ermsbench`: the repo's benchmark. Four seeded workloads drive
//! `ClusterSim` + `ErmsManager` + `FaultInjector` through the program's
//! public API from a single thread; each prints the end-to-end metrics
//! (host-time cost of the simulator and control loop, and the simulated
//! ledger an HDFS client would see) from untraced runs, and the
//! per-layer metrics from one separate traced run. See README.md.

pub mod cli;
pub mod compare;
pub mod drive;
pub mod json;
pub mod metrics;
pub mod record;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
