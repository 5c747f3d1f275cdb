//! `hdfs-sim` — a discrete-event simulator of an HDFS cluster.
//!
//! This is the substrate substitution for the paper's physical testbed
//! (1 namenode + 18 datanodes in 3 racks on Gigabit Ethernet, Hadoop
//! 0.20-append). The quantities ERMS's evaluation measures — read
//! throughput, data locality, storage utilisation, the number of
//! concurrent sessions a replica set sustains — are functions of replica
//! *placement* and per-node *service capacity*, which the simulator
//! models explicitly:
//!
//! * [`topology`] — racks, datanodes, external clients;
//! * [`block`] / [`namespace`] / [`blockmap`] — files, 64 MB blocks and
//!   the block → replica-locations map, with under-replication tracking;
//! * [`datanode`] — per-node disk capacity and the **session cap** (HDFS's
//!   `max.xcievers`-style limit: requests beyond it queue, reproducing the
//!   contention collapse of Figures 6 and 8);
//! * [`flow`] — a fair-share flow-level network model: every transfer is
//!   a flow over a set of capacity resources (source disk+NIC, client NIC,
//!   rack uplinks) and gets the min equal share across them, recomputed
//!   whenever the flow set changes;
//! * [`placement`] — the pluggable replica-placement interface plus
//!   HDFS's default rack-aware policy (ERMS plugs Algorithm 1 in here);
//! * [`audit`] — namenode audit log + datanode client-trace emission, the
//!   textual interface ERMS's CEP pipeline consumes;
//! * [`cluster`] — the [`cluster::ClusterSim`] facade gluing it together:
//!   reads, writes, replication changes, node commission/decommission,
//!   failures and metrics.
//!
//! ```
//! use hdfs_sim::topology::{ClientId, Endpoint};
//! use hdfs_sim::{ClusterConfig, ClusterSim, DefaultRackAware};
//!
//! let mut cluster = ClusterSim::new(
//!     ClusterConfig::paper_testbed(), // 18 nodes, 3 racks, 64 MB blocks
//!     Box::new(DefaultRackAware),
//! );
//! cluster.create_file("/data/f", 128 << 20, 3, None).unwrap();
//! cluster.open_read(Endpoint::Client(ClientId(1)), "/data/f").unwrap();
//! cluster.run_until_quiescent();
//!
//! let read = &cluster.drain_completed_reads()[0];
//! assert!(!read.failed);
//! assert!(read.throughput_mb_s() > 0.0);
//! // and the audit log recorded it in HDFS's own format
//! assert!(cluster.drain_audit().iter().any(|l| l.contains("cmd=open")));
//! ```

pub mod audit;
pub mod balancer;
pub mod block;
pub mod blockmap;
pub mod cluster;
pub mod config;
pub mod datanode;
pub mod faults;
pub mod flow;
pub mod namespace;
pub mod placement;
pub mod topology;

pub use block::{BlockId, FileId};
pub use cluster::{ClusterSim, Locality, QueueStats, ReadStats};
pub use config::{ClusterConfig, ConfigError};
pub use faults::{FaultConfig, FaultEvent, FaultInjector, FaultPlan, TimedFault};
pub use placement::{DefaultRackAware, PlacementContext, PlacementPolicy};
pub use topology::{ClientId, NodeId, RackId, Topology};
