//! Pluggable replica placement.
//!
//! "Administrators ... can also implement their own replica placement
//! strategy for HDFS" — this trait is that hook. The simulator ships the
//! default rack-aware policy ("one replica on one node in the local
//! rack; another on a node in a remote rack; and the last on a different
//! node in the same remote rack"); the `erms` crate plugs Algorithm 1 in
//! through the same interface.

use crate::topology::{NodeId, RackId};
use simcore::units::Bytes;

/// Snapshot of one datanode, as placement decisions see it.
#[derive(Debug, Clone)]
pub struct NodeView {
    pub id: NodeId,
    pub rack: RackId,
    /// Powered on and serving.
    pub serving: bool,
    /// Designated a standby node under the active/standby model
    /// (regardless of current power state).
    pub standby_pool: bool,
    pub free: Bytes,
    /// Active + queued sessions.
    pub load: usize,
    /// Whether this node already holds the block being placed.
    pub holds_block: bool,
    /// How many blocks of the same *file* this node holds (drives the
    /// parity-placement rule of Algorithm 1). Counted only for parity
    /// placement; 0 in every other view.
    pub file_block_count: usize,
}

/// Everything a placement decision may consult.
#[derive(Debug)]
pub struct PlacementContext<'a> {
    pub views: &'a [NodeView],
    /// Current replica locations of the block in question.
    pub replica_locations: &'a [NodeId],
    /// Racks of those replicas (parallel to `replica_locations`).
    pub replica_racks: &'a [RackId],
    /// The cluster's default replication factor `r_D`.
    pub default_replication: usize,
    /// The writing node for initial placement (data-locality seed).
    pub writer: Option<NodeId>,
    /// Bytes the new replica needs.
    pub block_len: Bytes,
}

impl PlacementContext<'_> {
    /// Candidates able to take a new replica of the block.
    pub fn eligible(&self) -> impl Iterator<Item = &NodeView> {
        self.views
            .iter()
            .filter(|v| v.serving && !v.holds_block && v.free >= self.block_len)
    }

    pub fn view(&self, id: NodeId) -> Option<&NodeView> {
        self.views.iter().find(|v| v.id == id)
    }
}

/// A replica placement strategy.
pub trait PlacementPolicy {
    /// Choose up to `want` nodes for new replicas of a data block.
    fn choose_targets(&self, ctx: &PlacementContext<'_>, want: usize) -> Vec<NodeId>;

    /// Choose `count` replicas to delete (from `ctx.replica_locations`).
    fn choose_removals(&self, ctx: &PlacementContext<'_>, count: usize) -> Vec<NodeId>;

    /// Choose a node for an erasure-coding parity block. The default
    /// mirrors vanilla HDFS, which has no parity concept: least-loaded
    /// eligible node.
    fn choose_parity_target(&self, ctx: &PlacementContext<'_>) -> Option<NodeId> {
        let mut cands: Vec<&NodeView> = ctx.eligible().collect();
        cands.sort_by_key(|v| (v.load, v.id));
        cands.first().map(|v| v.id)
    }

    fn name(&self) -> &'static str;
}

/// HDFS's default rack-aware policy.
///
/// Initial pipeline: first replica on the writer's node when possible,
/// second on a node in a different rack, third on a different node in
/// that same remote rack; extras spread over the least-loaded nodes.
/// Deterministic tie-breaking (load, then id) replaces HDFS's randomness
/// so simulation runs are reproducible.
#[derive(Debug, Default, Clone)]
pub struct DefaultRackAware;

impl DefaultRackAware {
    fn pick_least_loaded<'a>(
        cands: impl Iterator<Item = &'a NodeView>,
        exclude: &[NodeId],
    ) -> Option<NodeId> {
        // load first, then prefer the emptiest disk (keeps bulk loads
        // spread like HDFS's randomised placement instead of piling onto
        // the lowest node ids), then id for determinism
        cands
            .filter(|v| !exclude.contains(&v.id))
            .min_by_key(|v| (v.load, std::cmp::Reverse(v.free), v.id))
            .map(|v| v.id)
    }
}

impl PlacementPolicy for DefaultRackAware {
    fn choose_targets(&self, ctx: &PlacementContext<'_>, want: usize) -> Vec<NodeId> {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
        let mut racks_used: Vec<RackId> = ctx.replica_racks.to_vec();

        // replica ordinal counts existing replicas
        let mut ordinal = ctx.replica_locations.len();
        while chosen.len() < want {
            let pick = match ordinal {
                0 => {
                    // local: the writer if eligible, else least-loaded anywhere
                    ctx.writer
                        .and_then(|w| {
                            ctx.eligible()
                                .find(|v| v.id == w && !chosen.contains(&v.id))
                                .map(|v| v.id)
                        })
                        .or_else(|| Self::pick_least_loaded(ctx.eligible(), &chosen))
                }
                1 => {
                    // remote rack relative to the first replica
                    let first_rack = racks_used.first().copied();
                    Self::pick_least_loaded(
                        ctx.eligible().filter(|v| Some(v.rack) != first_rack),
                        &chosen,
                    )
                    .or_else(|| Self::pick_least_loaded(ctx.eligible(), &chosen))
                }
                2 => {
                    // same rack as the second replica, different node
                    let second_rack = racks_used.get(1).copied();
                    let second_node = ctx
                        .replica_locations
                        .get(1)
                        .copied()
                        .or_else(|| chosen.get(1).copied());
                    Self::pick_least_loaded(
                        ctx.eligible()
                            .filter(|v| Some(v.rack) == second_rack && Some(v.id) != second_node),
                        &chosen,
                    )
                    .or_else(|| Self::pick_least_loaded(ctx.eligible(), &chosen))
                }
                _ => Self::pick_least_loaded(ctx.eligible(), &chosen),
            };
            match pick {
                Some(id) => {
                    racks_used.push(ctx.view(id).map(|v| v.rack).unwrap_or(RackId(0)));
                    chosen.push(id);
                    ordinal += 1;
                }
                None => break, // cluster exhausted
            }
        }
        chosen
    }

    fn choose_removals(&self, ctx: &PlacementContext<'_>, count: usize) -> Vec<NodeId> {
        // vanilla HDFS trims over-replication from the most space-pressed
        // node first; ties by id
        let mut holders: Vec<&NodeView> = ctx
            .replica_locations
            .iter()
            .filter_map(|&id| ctx.view(id))
            .collect();
        holders.sort_by_key(|v| (v.free, v.id));
        holders.iter().take(count).map(|v| v.id).collect()
    }

    fn name(&self) -> &'static str {
        "default-rack-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, rack: u16, load: usize) -> NodeView {
        NodeView {
            id: NodeId(id),
            rack: RackId(rack),
            serving: true,
            standby_pool: false,
            free: 1 << 40,
            load,
            holds_block: false,
            file_block_count: 0,
        }
    }

    fn six_nodes() -> Vec<NodeView> {
        // racks: 0,0,1,1,2,2
        (0..6u32).map(|i| view(i, (i / 2) as u16, 0)).collect()
    }

    #[test]
    fn initial_triplication_follows_rack_rule() {
        let views = six_nodes();
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[],
            replica_racks: &[],
            default_replication: 3,
            writer: Some(NodeId(0)),
            block_len: 1,
        };
        let targets = DefaultRackAware.choose_targets(&ctx, 3);
        assert_eq!(targets.len(), 3);
        assert_eq!(targets[0], NodeId(0), "first replica local to writer");
        let r1 = views[targets[1].0 as usize].rack;
        assert_ne!(r1, RackId(0), "second replica off-rack");
        let r2 = views[targets[2].0 as usize].rack;
        assert_eq!(r2, r1, "third replica in the second's rack");
        assert_ne!(targets[2], targets[1]);
    }

    #[test]
    fn no_duplicate_targets_and_no_holders() {
        let mut views = six_nodes();
        views[3].holds_block = true;
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[NodeId(3)],
            replica_racks: &[RackId(1)],
            default_replication: 3,
            writer: None,
            block_len: 1,
        };
        let targets = DefaultRackAware.choose_targets(&ctx, 4);
        assert_eq!(targets.len(), 4);
        assert!(!targets.contains(&NodeId(3)), "holder excluded");
        let mut sorted = targets.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "no duplicates");
    }

    #[test]
    fn full_disks_are_skipped() {
        let mut views = six_nodes();
        for v in views.iter_mut().take(5) {
            v.free = 0;
        }
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[],
            replica_racks: &[],
            default_replication: 3,
            writer: None,
            block_len: 100,
        };
        let targets = DefaultRackAware.choose_targets(&ctx, 3);
        assert_eq!(targets, vec![NodeId(5)], "only one node has space");
    }

    #[test]
    fn load_breaks_ties() {
        let mut views = six_nodes();
        for v in views.iter_mut() {
            v.load = 3;
        }
        views[0].load = 5;
        views[1].load = 1;
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[],
            replica_racks: &[],
            default_replication: 3,
            writer: None,
            block_len: 1,
        };
        let targets = DefaultRackAware.choose_targets(&ctx, 1);
        assert_eq!(targets, vec![NodeId(1)], "least-loaded wins without writer");
    }

    #[test]
    fn removals_prefer_space_pressed_nodes() {
        let mut views = six_nodes();
        views[2].free = 10;
        views[4].free = 1000;
        views[0].free = 500;
        let locs = [NodeId(0), NodeId(2), NodeId(4)];
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &locs,
            replica_racks: &[RackId(0), RackId(1), RackId(2)],
            default_replication: 3,
            writer: None,
            block_len: 1,
        };
        let rm = DefaultRackAware.choose_removals(&ctx, 2);
        assert_eq!(rm, vec![NodeId(2), NodeId(0)]);
    }

    #[test]
    fn parity_default_is_least_loaded() {
        let mut views = six_nodes();
        for v in views.iter_mut() {
            v.load = 4;
        }
        views[0].load = 3;
        views[1].load = 1;
        views[2].load = 2;
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[],
            replica_racks: &[],
            default_replication: 3,
            writer: None,
            block_len: 1,
        };
        assert_eq!(DefaultRackAware.choose_parity_target(&ctx), Some(NodeId(1)));
    }

    #[test]
    fn exhausted_cluster_returns_partial() {
        let views: Vec<NodeView> = (0..2u32).map(|i| view(i, i as u16, 0)).collect();
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[],
            replica_racks: &[],
            default_replication: 3,
            writer: None,
            block_len: 1,
        };
        let targets = DefaultRackAware.choose_targets(&ctx, 5);
        assert_eq!(targets.len(), 2, "only two nodes exist");
    }
}
