//! The block → replica-locations map, in columnar layout.
//!
//! The namenode side of replication: which datanodes hold each block,
//! plus derived under-/over-replication queries that drive both HDFS's
//! own re-replication after failures and ERMS's elastic actions.
//!
//! Block ids are minted from the namespace's monotone counter, so they
//! are **dense** — the map stores its state as columns indexed by
//! `BlockId.0` (a sorted replica list per block, a target per block)
//! instead of hash- or tree-keyed records. Lookups are O(1) array
//! loads, scans walk contiguous memory in id order, and the checkpoint
//! section serializes the columns as parallel arrays.
//!
//! Alongside the raw locations the map keeps a **deficit index**: each
//! block's replication *target* (registered by the cluster as files are
//! created, re-replicated, encoded and decoded) plus three derived sets
//! — under-replicated, over-replicated and dark (zero live replicas) —
//! maintained incrementally in [`add`](BlockMap::add),
//! [`remove`](BlockMap::remove) and [`remove_node`](BlockMap::remove_node).
//! The repair scan then visits only deficient blocks instead of walking
//! the whole map; the closure-driven
//! [`under_replicated`](BlockMap::under_replicated) /
//! [`over_replicated`](BlockMap::over_replicated) scans remain as the
//! brute-force reference the property tests compare the index against.

use crate::block::BlockId;
use crate::topology::NodeId;
use std::collections::BTreeSet;

#[derive(Debug, Default)]
pub struct BlockMap {
    /// Column: replica holders per block, sorted by node id, indexed by
    /// `BlockId.0`. An empty row means zero live replicas.
    locations: Vec<Vec<NodeId>>,
    /// Column: desired replica count per block, indexed by `BlockId.0`
    /// (`None` = untracked: the block never appears in the derived
    /// sets, matching the closure scans' `unknown → skip` conventions).
    targets: Vec<Option<u32>>,
    /// Tracked blocks with `0 < replicas < target`.
    under: BTreeSet<BlockId>,
    /// Tracked blocks with `replicas > target`.
    over: BTreeSet<BlockId>,
    /// Tracked blocks with zero live replicas (lost unless parity or a
    /// retained crashed disk can bring them back).
    dark: BTreeSet<BlockId>,
    /// Blocks with at least one live replica.
    live_blocks: usize,
    /// Total replica records (Σ per-block row lengths).
    replicas: usize,
}

const NO_NODES: &[NodeId] = &[];

impl BlockMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the columns to cover `block`.
    fn ensure(&mut self, block: BlockId) -> usize {
        let i = block.0 as usize;
        if i >= self.locations.len() {
            self.locations.resize_with(i + 1, Vec::new);
            self.targets.resize(i + 1, None);
        }
        i
    }

    /// Record a replica. Returns false if it was already recorded.
    pub fn add(&mut self, block: BlockId, node: NodeId) -> bool {
        let i = self.ensure(block);
        let row = &mut self.locations[i];
        match row.binary_search(&node) {
            Ok(_) => false,
            Err(pos) => {
                if row.is_empty() {
                    self.live_blocks += 1;
                }
                row.insert(pos, node);
                self.replicas += 1;
                self.reindex(block);
                true
            }
        }
    }

    /// Remove a replica record. Returns false if it was not present.
    pub fn remove(&mut self, block: BlockId, node: NodeId) -> bool {
        let Some(row) = self.locations.get_mut(block.0 as usize) else {
            return false;
        };
        match row.binary_search(&node) {
            Ok(pos) => {
                row.remove(pos);
                self.replicas -= 1;
                if row.is_empty() {
                    self.live_blocks -= 1;
                }
                self.reindex(block);
                true
            }
            Err(_) => false,
        }
    }

    /// Register the desired replica count for a block, entering it into
    /// the deficit index. The cluster calls this wherever a block's
    /// target changes: file create, `setReplication`, parity placement,
    /// encode (data targets drop to 1) and decode.
    pub fn set_target(&mut self, block: BlockId, target: usize) {
        let i = self.ensure(block);
        self.targets[i] = Some(target as u32);
        self.reindex(block);
    }

    /// The registered replication target for a block, if any.
    pub fn target(&self, block: BlockId) -> Option<usize> {
        self.targets
            .get(block.0 as usize)
            .copied()
            .flatten()
            .map(|t| t as usize)
    }

    /// Forget a block entirely (file deleted).
    pub fn drop_block(&mut self, block: BlockId) {
        if let Some(row) = self.locations.get_mut(block.0 as usize) {
            if !row.is_empty() {
                self.live_blocks -= 1;
                self.replicas -= row.len();
                row.clear();
            }
        }
        if let Some(t) = self.targets.get_mut(block.0 as usize) {
            *t = None;
        }
        self.under.remove(&block);
        self.over.remove(&block);
        self.dark.remove(&block);
    }

    /// Recompute one block's membership in the derived sets after its
    /// replica count or target changed. O(log deficient).
    fn reindex(&mut self, block: BlockId) {
        let Some(target) = self.target(block) else {
            self.under.remove(&block);
            self.over.remove(&block);
            self.dark.remove(&block);
            return;
        };
        let count = self.replica_count(block);
        set_membership(&mut self.dark, block, count == 0);
        set_membership(&mut self.under, block, count > 0 && count < target);
        set_membership(&mut self.over, block, count > target);
    }

    /// Nodes currently holding `block`, in id order — a borrowed view
    /// straight into the column, no allocation.
    pub fn replica_nodes(&self, block: BlockId) -> &[NodeId] {
        self.locations
            .get(block.0 as usize)
            .map_or(NO_NODES, Vec::as_slice)
    }

    pub fn replica_count(&self, block: BlockId) -> usize {
        self.locations.get(block.0 as usize).map_or(0, Vec::len)
    }

    /// Iterate every (block, replica locations) pair in id order. Blocks
    /// with zero live replicas have no entry — finding those requires
    /// the namespace.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &[NodeId])> + '_ {
        self.locations
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_empty())
            .map(|(i, row)| (BlockId(i as u64), row.as_slice()))
    }

    pub fn holds(&self, block: BlockId, node: NodeId) -> bool {
        self.replica_nodes(block).binary_search(&node).is_ok()
    }

    /// Every (block, deficit) with fewer than `want(block)` replicas.
    ///
    /// Brute-force scan of every live block; the deficit index
    /// ([`under_replicated_indexed`](Self::under_replicated_indexed))
    /// answers the same question in O(deficient) and the property tests
    /// pin the two against each other.
    pub fn under_replicated(
        &self,
        mut want: impl FnMut(BlockId) -> usize,
    ) -> Vec<(BlockId, usize)> {
        self.blocks()
            .filter_map(|(b, locs)| {
                let target = want(b);
                (locs.len() < target).then(|| (b, target - locs.len()))
            })
            .collect()
    }

    /// Every (block, excess) with more than `want(block)` replicas.
    /// Brute-force counterpart of
    /// [`over_replicated_indexed`](Self::over_replicated_indexed).
    pub fn over_replicated(&self, mut want: impl FnMut(BlockId) -> usize) -> Vec<(BlockId, usize)> {
        self.blocks()
            .filter_map(|(b, locs)| {
                let target = want(b);
                (locs.len() > target).then(|| (b, locs.len() - target))
            })
            .collect()
    }

    /// Every (block, deficit) from the index: tracked blocks with at
    /// least one live replica but fewer than their registered target.
    /// O(deficient), id order — identical order and contents to the
    /// brute-force scan driven by the registered targets.
    pub fn under_replicated_indexed(&self) -> Vec<(BlockId, usize)> {
        self.under
            .iter()
            .map(|&b| {
                let target = self.target(b).unwrap_or(0);
                (b, target - self.replica_count(b))
            })
            .collect()
    }

    /// Every (block, excess) from the index. O(excess), id order.
    pub fn over_replicated_indexed(&self) -> Vec<(BlockId, usize)> {
        self.over
            .iter()
            .map(|&b| {
                let target = self.target(b).unwrap_or(0);
                (b, self.replica_count(b) - target)
            })
            .collect()
    }

    /// Tracked blocks with zero live replicas, in id order. Fuels dark
    /// RS-shard reconstruction without a namespace walk.
    pub fn dark_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.dark.iter().copied()
    }

    /// Blocks that lost *all* replicas after removing `node` (data loss
    /// unless parity can recover them).
    pub fn remove_node(&mut self, node: NodeId) -> (Vec<BlockId>, Vec<BlockId>) {
        let mut degraded = Vec::new();
        let mut lost = Vec::new();
        let affected: Vec<BlockId> = self
            .locations
            .iter()
            .enumerate()
            .filter(|(_, row)| row.binary_search(&node).is_ok())
            .map(|(i, _)| BlockId(i as u64))
            .collect();
        for b in affected {
            self.remove(b, node);
            if self.replica_count(b) == 0 {
                lost.push(b);
            } else {
                degraded.push(b);
            }
        }
        (degraded, lost)
    }

    /// Blocks with at least one live replica.
    pub fn num_blocks(&self) -> usize {
        self.live_blocks
    }

    /// Total replica records (Σ per-block locations).
    pub fn total_replicas(&self) -> usize {
        self.replicas
    }
}

// Only the raw facts are stored — the under/over/dark derived sets are
// recomputed on load via the same `reindex` path the live mutations use —
// and they go on the wire **columnar**: the replica lists as (block ids,
// row ends, flat node column), the targets as two parallel arrays.
impl BlockMap {
    pub(crate) fn save_state(&self) -> checkpoint::Value {
        use checkpoint::codec::MapBuilder;
        let mut blocks = Vec::with_capacity(self.live_blocks);
        let mut row_ends = Vec::with_capacity(self.live_blocks);
        let mut nodes = Vec::with_capacity(self.replicas);
        for (b, row) in self.blocks() {
            blocks.push(b);
            nodes.extend_from_slice(row);
            row_ends.push(nodes.len());
        }
        let (target_blocks, target_values): (Vec<u64>, Vec<u32>) = self
            .targets
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((i as u64, (*t)?)))
            .unzip();
        MapBuilder::new()
            .put("blocks", &blocks)
            .put("row_ends", &row_ends)
            .put("nodes", &nodes)
            .put("target_blocks", &target_blocks)
            .put("target_values", &target_values)
            .build()
    }

    /// Hydrate from [`save_state`](Self::save_state). The columns are
    /// sized by the block ids they hold, so the caller bounds them:
    /// every block id must be below `next_block` (the namespace's
    /// counter) and every holder below `nodes`.
    pub(crate) fn load_state(
        &mut self,
        state: &checkpoint::Value,
        next_block: u64,
        nodes: usize,
    ) -> Result<(), checkpoint::CheckpointError> {
        use checkpoint::codec::get;
        use checkpoint::CheckpointError::Corrupt;
        *self = BlockMap::default();
        let blocks: Vec<BlockId> = get(state, "blocks")?;
        let row_ends: Vec<usize> = get(state, "row_ends")?;
        let holders: Vec<NodeId> = get(state, "nodes")?;
        let target_blocks: Vec<BlockId> = get(state, "target_blocks")?;
        let target_values: Vec<u32> = get(state, "target_values")?;
        if blocks.len() != row_ends.len() || target_blocks.len() != target_values.len() {
            return Err(Corrupt("blockmap columns differ in length".into()));
        }
        if let Some(b) = blocks
            .iter()
            .chain(&target_blocks)
            .find(|b| b.0 >= next_block)
        {
            return Err(Corrupt(format!(
                "blockmap: {b} was never minted (next is {next_block})"
            )));
        }
        if let Some(n) = holders.iter().find(|n| n.0 as usize >= nodes) {
            return Err(Corrupt(format!("blockmap: {n} of {nodes} nodes")));
        }
        let mut start = 0;
        for (&b, &end) in blocks.iter().zip(&row_ends) {
            let row = holders
                .get(start..end)
                .ok_or_else(|| Corrupt("blockmap: row_ends is not a monotone prefix sum".into()))?;
            for &n in row {
                self.add(b, n);
            }
            start = end;
        }
        for (&b, &t) in target_blocks.iter().zip(&target_values) {
            self.set_target(b, t as usize);
        }
        Ok(())
    }
}

/// Insert or remove `block` from `set` so membership equals `wanted`.
fn set_membership(set: &mut BTreeSet<BlockId>, block: BlockId, wanted: bool) {
    if wanted {
        set.insert(block);
    } else {
        set.remove(&block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_locations() {
        let mut bm = BlockMap::new();
        assert!(bm.add(BlockId(1), NodeId(0)));
        assert!(!bm.add(BlockId(1), NodeId(0)), "duplicate");
        bm.add(BlockId(1), NodeId(2));
        assert_eq!(bm.replica_nodes(BlockId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(bm.replica_count(BlockId(1)), 2);
        assert!(bm.holds(BlockId(1), NodeId(2)));
        assert!(bm.remove(BlockId(1), NodeId(0)));
        assert!(!bm.remove(BlockId(1), NodeId(0)));
        assert_eq!(bm.replica_count(BlockId(1)), 1);
    }

    #[test]
    fn under_and_over_replication() {
        let mut bm = BlockMap::new();
        for n in 0..2 {
            bm.add(BlockId(1), NodeId(n));
        }
        for n in 0..5 {
            bm.add(BlockId(2), NodeId(n));
        }
        let under = bm.under_replicated(|_| 3);
        assert_eq!(under, vec![(BlockId(1), 1)]);
        let over = bm.over_replicated(|_| 3);
        assert_eq!(over, vec![(BlockId(2), 2)]);
    }

    #[test]
    fn node_removal_classifies_loss() {
        let mut bm = BlockMap::new();
        bm.add(BlockId(1), NodeId(0));
        bm.add(BlockId(1), NodeId(1));
        bm.add(BlockId(2), NodeId(0)); // only replica
        let (degraded, lost) = bm.remove_node(NodeId(0));
        assert_eq!(degraded, vec![BlockId(1)]);
        assert_eq!(lost, vec![BlockId(2)]);
        assert_eq!(bm.replica_count(BlockId(1)), 1);
        assert_eq!(bm.replica_count(BlockId(2)), 0);
    }

    #[test]
    fn totals() {
        let mut bm = BlockMap::new();
        bm.add(BlockId(1), NodeId(0));
        bm.add(BlockId(1), NodeId(1));
        bm.add(BlockId(2), NodeId(0));
        assert_eq!(bm.num_blocks(), 2);
        assert_eq!(bm.total_replicas(), 3);
        bm.drop_block(BlockId(1));
        assert_eq!(bm.num_blocks(), 1);
        assert_eq!(bm.total_replicas(), 1);
    }

    #[test]
    fn empty_block_queries() {
        let bm = BlockMap::new();
        assert!(bm.replica_nodes(BlockId(9)).is_empty());
        assert_eq!(bm.replica_count(BlockId(9)), 0);
        assert!(!bm.holds(BlockId(9), NodeId(0)));
    }

    #[test]
    fn blocks_iterates_live_rows_in_id_order() {
        let mut bm = BlockMap::new();
        bm.add(BlockId(5), NodeId(0));
        bm.add(BlockId(2), NodeId(1));
        bm.add(BlockId(2), NodeId(0));
        bm.set_target(BlockId(7), 3); // tracked but dark: no row
        let rows: Vec<(BlockId, Vec<NodeId>)> =
            bm.blocks().map(|(b, locs)| (b, locs.to_vec())).collect();
        assert_eq!(
            rows,
            vec![
                (BlockId(2), vec![NodeId(0), NodeId(1)]),
                (BlockId(5), vec![NodeId(0)]),
            ]
        );
    }

    #[test]
    fn index_tracks_add_remove_and_target_changes() {
        let mut bm = BlockMap::new();
        bm.set_target(BlockId(1), 3);
        // No replicas yet: dark, not under.
        assert_eq!(bm.dark_blocks().collect::<Vec<_>>(), vec![BlockId(1)]);
        assert!(bm.under_replicated_indexed().is_empty());

        bm.add(BlockId(1), NodeId(0));
        assert_eq!(bm.under_replicated_indexed(), vec![(BlockId(1), 2)]);
        assert_eq!(bm.dark_blocks().count(), 0);

        bm.add(BlockId(1), NodeId(1));
        bm.add(BlockId(1), NodeId(2));
        assert!(bm.under_replicated_indexed().is_empty());
        assert!(bm.over_replicated_indexed().is_empty());

        bm.add(BlockId(1), NodeId(3));
        assert_eq!(bm.over_replicated_indexed(), vec![(BlockId(1), 1)]);

        // Target raised: over turns into under.
        bm.set_target(BlockId(1), 6);
        assert_eq!(bm.under_replicated_indexed(), vec![(BlockId(1), 2)]);
        assert!(bm.over_replicated_indexed().is_empty());

        // Lose everything: dark again.
        for n in 0..4 {
            bm.remove(BlockId(1), NodeId(n));
        }
        assert_eq!(bm.dark_blocks().collect::<Vec<_>>(), vec![BlockId(1)]);
        assert!(bm.under_replicated_indexed().is_empty());

        bm.drop_block(BlockId(1));
        assert_eq!(bm.dark_blocks().count(), 0);
        assert_eq!(bm.target(BlockId(1)), None);
    }

    #[test]
    fn untracked_blocks_stay_out_of_the_index() {
        let mut bm = BlockMap::new();
        bm.add(BlockId(7), NodeId(0));
        assert!(bm.under_replicated_indexed().is_empty());
        assert!(bm.over_replicated_indexed().is_empty());
        assert_eq!(bm.dark_blocks().count(), 0);
        // The brute-force scan still sees it through its closure.
        assert_eq!(bm.under_replicated(|_| 2), vec![(BlockId(7), 1)]);
    }

    #[test]
    fn remove_node_updates_index() {
        let mut bm = BlockMap::new();
        for b in [1u64, 2] {
            bm.set_target(BlockId(b), 2);
        }
        bm.add(BlockId(1), NodeId(0));
        bm.add(BlockId(1), NodeId(1));
        bm.add(BlockId(2), NodeId(0));
        let (degraded, lost) = bm.remove_node(NodeId(0));
        assert_eq!(degraded, vec![BlockId(1)]);
        assert_eq!(lost, vec![BlockId(2)]);
        assert_eq!(bm.under_replicated_indexed(), vec![(BlockId(1), 1)]);
        assert_eq!(bm.dark_blocks().collect::<Vec<_>>(), vec![BlockId(2)]);
    }

    #[test]
    fn columnar_checkpoint_roundtrip() {
        let mut bm = BlockMap::new();
        bm.set_target(BlockId(0), 2);
        bm.set_target(BlockId(3), 1);
        bm.add(BlockId(0), NodeId(1));
        bm.add(BlockId(3), NodeId(0));
        bm.add(BlockId(3), NodeId(2));
        bm.add(BlockId(5), NodeId(4)); // untracked but live
        let wire = bm.save_state();
        let mut back = BlockMap::new();
        back.load_state(&wire, 6, 5).unwrap();
        assert_eq!(back.num_blocks(), bm.num_blocks());
        assert_eq!(back.total_replicas(), bm.total_replicas());
        assert_eq!(back.replica_nodes(BlockId(3)), bm.replica_nodes(BlockId(3)));
        assert_eq!(back.target(BlockId(0)), Some(2));
        assert_eq!(
            back.under_replicated_indexed(),
            bm.under_replicated_indexed()
        );
        assert_eq!(back.save_state(), wire, "re-save is bit-identical");
        // a block the namespace never minted, a holder the cluster lacks
        for (next_block, nodes) in [(5, 5), (6, 4)] {
            assert!(matches!(
                back.load_state(&wire, next_block, nodes),
                Err(checkpoint::CheckpointError::Corrupt(_))
            ));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One mutation against the map: (kind, block, node, target).
        fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u32, usize)>> {
            prop::collection::vec((0u8..5, 0u64..10, 0u32..6, 0usize..5), 1..80)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The deficit index agrees with a brute-force scan after any
            /// sequence of add / remove / set_target / remove_node /
            /// drop_block operations.
            #[test]
            fn index_matches_brute_force_scan(ops in arb_ops()) {
                let mut bm = BlockMap::new();
                for (kind, b, n, t) in ops {
                    match kind {
                        0 => {
                            bm.add(BlockId(b), NodeId(n));
                        }
                        1 => {
                            bm.remove(BlockId(b), NodeId(n));
                        }
                        2 => bm.set_target(BlockId(b), t),
                        3 => {
                            bm.remove_node(NodeId(n));
                        }
                        _ => bm.drop_block(BlockId(b)),
                    }

                    // untracked blocks are outside the index by design:
                    // the reference scan treats them as "never deficient"
                    let under_ref = bm.under_replicated(|b| bm.target(b).unwrap_or(0));
                    let over_ref = bm.over_replicated(|b| bm.target(b).unwrap_or(usize::MAX));
                    prop_assert_eq!(bm.under_replicated_indexed(), under_ref);
                    prop_assert_eq!(bm.over_replicated_indexed(), over_ref);

                    let dark_ref: Vec<BlockId> = (0..10)
                        .map(BlockId)
                        .filter(|&b| bm.target(b).is_some() && bm.replica_count(b) == 0)
                        .collect();
                    prop_assert_eq!(bm.dark_blocks().collect::<Vec<_>>(), dark_ref);

                    let live = bm.blocks().count();
                    prop_assert_eq!(bm.num_blocks(), live);
                    let total: usize = bm.blocks().map(|(_, locs)| locs.len()).sum();
                    prop_assert_eq!(bm.total_replicas(), total);
                }
            }
        }
    }

    #[test]
    fn indexed_matches_brute_force_against_targets() {
        let mut bm = BlockMap::new();
        for b in 0..10u64 {
            bm.set_target(BlockId(b), (b % 4) as usize + 1);
            for n in 0..(b % 5) as u32 {
                bm.add(BlockId(b), NodeId(n));
            }
        }
        let want = |bm: &BlockMap, b: BlockId| bm.target(b).unwrap_or(0);
        assert_eq!(
            bm.under_replicated_indexed(),
            bm.under_replicated(|b| want(&bm, b))
        );
        assert_eq!(
            bm.over_replicated_indexed(),
            bm.over_replicated(|b| want(&bm, b))
        );
    }
}
