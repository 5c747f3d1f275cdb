//! Shared experiment plumbing: cluster variants, durability counts and
//! result output.

use erms::{ErmsConfig, ErmsManager, ErmsPlacement, Thresholds};
use hdfs_sim::{ClusterConfig, ClusterSim, DefaultRackAware, NodeId};
use serde::Serialize;
use simcore::SimDuration;
use std::path::PathBuf;

/// Which system variant an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Vanilla Hadoop: default rack-aware placement, all nodes active,
    /// fixed triplication.
    Vanilla,
    /// ERMS with the paper's active/standby split and the given τ_M.
    Erms { tau_hot: f64 },
}

impl Mode {
    pub fn label(self) -> String {
        match self {
            Mode::Vanilla => "vanilla".to_string(),
            Mode::Erms { tau_hot } => format!("erms_tau{}", tau_hot as u32),
        }
    }
}

/// The paper's split: datanodes 10..18 standby, 0..10 active.
pub fn paper_standby_pool() -> Vec<NodeId> {
    (10..18).map(NodeId).collect()
}

/// Build the cluster for a mode (paper-testbed shape).
pub fn build_cluster(mode: Mode) -> ClusterSim {
    let cfg = ClusterConfig::paper_testbed();
    match mode {
        Mode::Vanilla => ClusterSim::new(cfg, Box::new(DefaultRackAware)),
        Mode::Erms { .. } => ClusterSim::new(cfg, Box::new(ErmsPlacement::new())),
    }
}

/// Build the ERMS manager for a mode. Returns `None` in vanilla mode.
///
/// `use_standby_pool` selects between the paper's 10+8 active/standby
/// split (the Fig. 8/9 deployment) and ERMS logic over an all-active
/// cluster (the Fig. 3 replay, where vanilla and ERMS share the same
/// serving capacity and differ only in replication management).
pub fn build_manager(
    mode: Mode,
    cluster: &mut ClusterSim,
    window: SimDuration,
    cold_age: SimDuration,
    use_standby_pool: bool,
) -> Option<ErmsManager> {
    let Mode::Erms { tau_hot } = mode else {
        return None;
    };
    let mut thresholds = Thresholds::default().with_tau_hot(tau_hot);
    thresholds.window = window;
    thresholds.cold_age = cold_age;
    let cfg = ErmsConfig::builder()
        .thresholds(thresholds)
        .standby(if use_standby_pool {
            paper_standby_pool()
        } else {
            Vec::new()
        })
        .build()
        .expect("valid bench config");
    Some(ErmsManager::new(cfg, cluster).expect("valid bench manager"))
}

/// Blocks currently short of their file's target replication, counting
/// dark (zero-replica) blocks the blockmap no longer lists.
pub fn count_under_replicated(c: &ClusterSim) -> usize {
    let mut short = 0usize;
    for meta in c.namespace().files() {
        let want = meta.replication();
        for &b in &meta.blocks {
            if c.blockmap().replica_count(b) < want {
                short += 1;
            }
        }
    }
    short
}

/// Where figure JSON lands (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("results");
    p
}

/// Archive a figure result as pretty JSON; best-effort (the printed
/// tables are the primary output).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(path, json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::MB;

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::Vanilla.label(), "vanilla");
        assert_eq!(Mode::Erms { tau_hot: 8.0 }.label(), "erms_tau8");
    }

    #[test]
    fn vanilla_cluster_serves_all_nodes() {
        let c = build_cluster(Mode::Vanilla);
        assert_eq!(c.serving_nodes(), 18);
    }

    #[test]
    fn erms_mode_wires_the_standby_pool() {
        let mut c = build_cluster(Mode::Erms { tau_hot: 8.0 });
        let m = build_manager(
            Mode::Erms { tau_hot: 8.0 },
            &mut c,
            SimDuration::from_secs(300),
            SimDuration::from_hours(1),
            true,
        )
        .unwrap();
        assert_eq!(c.serving_nodes(), 10, "8 standby powered off");
        assert_eq!(m.model().standby_nodes().count(), 8);
        // base data lands only on active nodes
        c.create_file("/f", 64 * MB, 3, None).unwrap();
        let b = c.namespace().files().next().unwrap().blocks[0];
        for loc in c.blockmap().replica_nodes(b) {
            assert!(loc.0 < 10);
        }
    }

    #[test]
    fn vanilla_has_no_manager() {
        let mut c = build_cluster(Mode::Vanilla);
        assert!(build_manager(
            Mode::Vanilla,
            &mut c,
            SimDuration::from_secs(300),
            SimDuration::from_hours(1),
            false,
        )
        .is_none());
    }
}
