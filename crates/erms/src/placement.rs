//! Algorithm 1: the ERMS replica placement strategy.
//!
//! The paper's placement rules, from Section III.D:
//!
//! * **Extra data replicas** (the block already has ≥ the default factor)
//!   go to **standby-pool** nodes that don't hold the block, preferring
//!   nodes "placed in the same racks with the other replica of the
//!   block"; only when no standby node qualifies does an active node
//!   take them.
//! * **Normal data replicas** (below the default factor) follow the
//!   default rack-aware strategy.
//! * **Parity blocks** go to the active node holding the *fewest* blocks
//!   of the same file — "if the erasure codes parities are located in
//!   the same nodes with the original data, the data will be lost and
//!   could not be recovered if these nodes are crashed".
//! * **Deletions** drain standby nodes first, so shrinking a hot file
//!   back to the default factor never forces a rebalance.

use hdfs_sim::placement::{DefaultRackAware, NodeView, PlacementContext, PlacementPolicy};
use hdfs_sim::{NodeId, RackId};

/// Algorithm 1 as a pluggable policy.
#[derive(Debug, Default, Clone)]
pub struct ErmsPlacement {
    fallback: DefaultRackAware,
}

impl ErmsPlacement {
    pub fn new() -> Self {
        Self::default()
    }

    /// The best standby-pool candidate: replica-rack-colocated first,
    /// then by (load, most free, id).
    fn standby_candidate(ctx: &PlacementContext<'_>, chosen: &[NodeId]) -> Option<NodeId> {
        let replica_racks: &[RackId] = ctx.replica_racks;
        ctx.eligible()
            .filter(|v| v.standby_pool && !chosen.contains(&v.id))
            .min_by_key(|v| {
                let colocated = replica_racks.contains(&v.rack);
                (!colocated, v.load, std::cmp::Reverse(v.free), v.id)
            })
            .map(|v| v.id)
    }
}

impl PlacementPolicy for ErmsPlacement {
    fn choose_targets(&self, ctx: &PlacementContext<'_>, want: usize) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
        let have = ctx.replica_locations.len();
        if have < ctx.default_replication {
            // below the default factor: vanilla rack-aware placement for
            // the deficit (the fallback handles rack sequencing itself)
            let deficit = (ctx.default_replication - have).min(want);
            chosen.extend(self.fallback.choose_targets(ctx, deficit));
        }
        while chosen.len() < want {
            // extra replica: standby first, active as a last resort
            let pick = Self::standby_candidate(ctx, &chosen).or_else(|| {
                ctx.eligible()
                    .filter(|v| !chosen.contains(&v.id))
                    .min_by_key(|v| (v.load, std::cmp::Reverse(v.free), v.id))
                    .map(|v| v.id)
            });
            match pick {
                Some(id) => chosen.push(id),
                None => break,
            }
        }
        chosen
    }

    fn choose_removals(&self, ctx: &PlacementContext<'_>, count: usize) -> Vec<NodeId> {
        // drain standby holders first (lines 39-51 of Algorithm 1)
        let mut holders: Vec<&NodeView> = ctx
            .replica_locations
            .iter()
            .filter_map(|&id| ctx.view(id))
            .collect();
        holders.sort_by_key(|v| (!v.standby_pool, v.free, v.id));
        holders.iter().take(count).map(|v| v.id).collect()
    }

    fn choose_parity_target(&self, ctx: &PlacementContext<'_>) -> Option<NodeId> {
        // active node with the fewest blocks of the same file
        ctx.eligible()
            .filter(|v| !v.standby_pool)
            .min_by_key(|v| (v.file_block_count, v.load, v.id))
            .map(|v| v.id)
            .or_else(|| self.fallback.choose_parity_target(ctx))
    }

    fn name(&self) -> &'static str {
        "erms-algorithm-1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, rack: u16, standby: bool) -> NodeView {
        NodeView {
            id: NodeId(id),
            rack: RackId(rack),
            serving: true,
            standby_pool: standby,
            free: 1 << 40,
            load: 0,
            holds_block: false,
            file_block_count: 0,
        }
    }

    /// 6 active (0-5, racks 0-2) + 4 standby (6-9, racks 0-1).
    fn mixed_cluster() -> Vec<NodeView> {
        let mut v: Vec<NodeView> = (0..6).map(|i| view(i, (i / 2) as u16, false)).collect();
        v.extend((6..10).map(|i| view(i, ((i - 6) / 2) as u16, true)));
        v
    }

    fn ctx<'a>(
        views: &'a [NodeView],
        locs: &'a [NodeId],
        racks: &'a [RackId],
    ) -> PlacementContext<'a> {
        PlacementContext {
            views,
            replica_locations: locs,
            replica_racks: racks,
            default_replication: 3,
            writer: None,
            block_len: 1,
        }
    }

    #[test]
    fn extra_replicas_prefer_standby_in_replica_racks() {
        let views = mixed_cluster();
        // block already at default factor, replicas in racks 0 and 1
        let locs = [NodeId(0), NodeId(2), NodeId(3)];
        let racks = [RackId(0), RackId(1), RackId(1)];
        let c = ctx(&views, &locs, &racks);
        let targets = ErmsPlacement::new().choose_targets(&c, 2);
        assert_eq!(targets.len(), 2);
        for t in &targets {
            assert!(t.0 >= 6, "extra replica must land on standby, got {t}");
        }
        // rack-colocated standby nodes (6,7 in rack 0; 8,9 in rack 1) all
        // qualify; lowest (load,id) colocated first
        assert_eq!(targets, vec![NodeId(6), NodeId(7)]);
    }

    #[test]
    fn below_default_uses_rack_aware_on_active_nodes() {
        let views = mixed_cluster();
        let c = ctx(&views, &[], &[]);
        let targets = ErmsPlacement::new().choose_targets(&c, 3);
        assert_eq!(targets.len(), 3);
        // default policy is free to use any serving node; the key property
        // for fresh files is rack diversity
        let racks: std::collections::BTreeSet<u16> = targets
            .iter()
            .map(|t| views.iter().find(|v| v.id == *t).unwrap().rack.0)
            .collect();
        assert!(
            racks.len() >= 2,
            "initial placement spans racks: {targets:?}"
        );
    }

    #[test]
    fn falls_back_to_active_when_standby_exhausted() {
        let mut views = mixed_cluster();
        // every standby node already holds the block
        for v in views.iter_mut().filter(|v| v.standby_pool) {
            v.holds_block = true;
        }
        let locs = [NodeId(0), NodeId(1), NodeId(2)];
        let racks = [RackId(0), RackId(0), RackId(1)];
        let c = ctx(&views, &locs, &racks);
        let targets = ErmsPlacement::new().choose_targets(&c, 1);
        assert_eq!(targets.len(), 1);
        assert!(targets[0].0 < 6, "active node fallback");
    }

    #[test]
    fn removals_drain_standby_first() {
        let views = mixed_cluster();
        let locs = [NodeId(1), NodeId(6), NodeId(8), NodeId(3)];
        let racks = [RackId(0), RackId(0), RackId(1), RackId(1)];
        let c = ctx(&views, &locs, &racks);
        let victims = ErmsPlacement::new().choose_removals(&c, 2);
        assert_eq!(victims, vec![NodeId(6), NodeId(8)]);
        // removing three reaches into active holders only after standby
        let victims = ErmsPlacement::new().choose_removals(&c, 3);
        assert_eq!(victims[2], NodeId(1));
    }

    #[test]
    fn parity_avoids_standby_and_file_blocks() {
        let mut views = mixed_cluster();
        views[0].file_block_count = 3;
        views[1].file_block_count = 1;
        views[2].file_block_count = 0;
        views[3].file_block_count = 2;
        // a standby node with zero blocks must still not take parity
        views[7].file_block_count = 0;
        let c = ctx(&views, &[], &[]);
        let t = ErmsPlacement::new().choose_parity_target(&c).unwrap();
        assert_eq!(t, NodeId(2), "fewest same-file blocks among active");
    }

    /// Through the cluster, which counts each node's blocks of the file
    /// from their replica lists only when placing a parity.
    #[test]
    fn cluster_parity_placement_avoids_the_files_holders() {
        use hdfs_sim::{ClusterConfig, ClusterSim};
        use simcore::units::MB;
        let mut c = ClusterSim::new(
            ClusterConfig::paper_testbed(),
            Box::new(ErmsPlacement::new()),
        );
        // 8 single-replica blocks on 18 nodes: most hold none
        let f = c.create_file("/cold", 8 * 64 * MB, 1, None).unwrap();
        let meta = c.namespace().file(f).unwrap();
        let holders: Vec<NodeId> = meta
            .blocks
            .iter()
            .map(|&b| c.blockmap().replica_nodes(b)[0])
            .collect();
        let (_, node) = c.place_parity_block(f, 0, 64 * MB).unwrap();
        assert!(!holders.contains(&node), "{node} in {holders:?}");
    }

    #[test]
    fn no_duplicate_targets() {
        let views = mixed_cluster();
        let locs = [NodeId(0), NodeId(1), NodeId(2)];
        let racks = [RackId(0), RackId(0), RackId(1)];
        let c = ctx(&views, &locs, &racks);
        let targets = ErmsPlacement::new().choose_targets(&c, 7);
        let mut dedup = targets.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), targets.len());
        assert_eq!(targets.len(), 7, "4 standby + 3 remaining active");
    }

    #[test]
    fn policy_name() {
        assert_eq!(ErmsPlacement::new().name(), "erms-algorithm-1");
    }
}
