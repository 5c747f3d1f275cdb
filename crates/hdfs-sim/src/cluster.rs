//! The cluster simulator facade.
//!
//! [`ClusterSim`] glues the pieces together into a driveable HDFS model:
//! clients open files and read them block by block from the best replica
//! (datanode sessions cap out and queue, flows share bandwidth
//! max-min-fairly), replication changes move real simulated bytes, nodes
//! boot, drain, and die. Every namespace operation and block transfer is
//! written to the audit sink in HDFS's own log format — the feed ERMS's
//! CEP pipeline consumes.
//!
//! The simulator is **driven**: callers submit work, then pump the event
//! loop with [`ClusterSim::run_until`] / [`ClusterSim::run_until_quiescent`]
//! and collect completions with [`ClusterSim::drain_completed_reads`].

use crate::audit::AuditSink;
use crate::block::{BlockId, FileId};
use crate::blockmap::BlockMap;
use crate::config::ClusterConfig;
use crate::datanode::{DataNode, NodeState, SessionTicket};
use crate::flow::{FlowId, FlowNet, ResourceId};
use crate::namespace::{Namespace, StorageMode};
use crate::placement::{NodeView, PlacementContext, PlacementPolicy};
use crate::topology::{ClientId, Distance, Endpoint, NodeId, RackId, Topology};
use checkpoint::codec::{Ck, Keyed};
use checkpoint::{CheckpointError, Value};
use simcore::queue::QueueSnapshot;
use simcore::stats::DurabilityLog;
use simcore::telemetry::{Event as Tel, TelemetrySink};
use simcore::units::{Bandwidth, Bytes};
use simcore::{trace, EventId, EventQueue, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Handle to an in-flight read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReadId(pub u64);

/// Handle to an in-flight replica copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CopyId(pub u64);

/// Which replica distance served a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    NodeLocal,
    RackLocal,
    Remote,
}

/// Final accounting of one read request.
#[derive(Debug, Clone)]
pub struct ReadStats {
    pub id: ReadId,
    pub path: String,
    pub reader: Endpoint,
    pub bytes: Bytes,
    pub started: SimTime,
    pub finished: SimTime,
    pub node_local_blocks: u32,
    pub rack_local_blocks: u32,
    pub remote_blocks: u32,
    pub failed: bool,
}

impl ReadStats {
    pub fn duration(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }
    /// Mean throughput in MB/s over the request's lifetime.
    pub fn throughput_mb_s(&self) -> f64 {
        let d = self.duration();
        if d <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / (1 << 20) as f64 / d
        }
    }
    pub fn total_blocks(&self) -> u32 {
        self.node_local_blocks + self.rack_local_blocks + self.remote_blocks
    }
    /// Fraction of blocks served node-locally.
    pub fn locality_fraction(&self) -> f64 {
        let t = self.total_blocks();
        if t == 0 {
            0.0
        } else {
            self.node_local_blocks as f64 / t as f64
        }
    }
}

/// Final accounting of one replica copy.
#[derive(Debug, Clone)]
pub struct CopyStats {
    pub id: CopyId,
    pub block: BlockId,
    pub source: NodeId,
    pub target: NodeId,
    pub started: SimTime,
    pub finished: SimTime,
    pub succeeded: bool,
}

/// Handle to an in-flight pipelined write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteId(pub u64);

/// Final accounting of one pipelined file write.
#[derive(Debug, Clone)]
pub struct WriteStats {
    pub id: WriteId,
    pub path: String,
    pub bytes: Bytes,
    pub started: SimTime,
    pub finished: SimTime,
    pub failed: bool,
}

impl WriteStats {
    pub fn duration(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }
    pub fn throughput_mb_s(&self) -> f64 {
        let d = self.duration();
        if d <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / (1 << 20) as f64 / d
        }
    }
}

#[derive(Debug, Clone)]
enum Ev {
    BeginRead(ReadId),
    FlowDone(FlowId),
    NodeBooted(NodeId),
    /// A staged replica copy clears the replication-monitor delay.
    StartCopy(CopyId),
    /// Opaque caller timer (MapReduce compute phases, controller ticks).
    Timer(u64),
}

#[derive(Debug)]
struct ReadReq {
    id: ReadId,
    reader: Endpoint,
    path: String,
    pending_blocks: VecDeque<BlockId>,
    bytes_done: Bytes,
    started: SimTime,
    node_local: u32,
    rack_local: u32,
    remote: u32,
    failed: bool,
}

#[derive(Debug, Clone)]
enum Transfer {
    ReadBlock {
        read: ReadId,
        block: BlockId,
        node: NodeId,
    },
    WriteBlock {
        write: WriteId,
        block: BlockId,
        targets: Vec<NodeId>,
        len: Bytes,
    },
    Copy {
        copy: CopyId,
        block: BlockId,
        source: NodeId,
        target: NodeId,
        len: Bytes,
        started: SimTime,
    },
    /// Erasure reconstruction: the target pulls one shard from each of
    /// `sources` (k surviving stripe members) and writes the rebuilt
    /// block, so ~k × len bytes cross the network.
    Reconstruct {
        copy: CopyId,
        block: BlockId,
        sources: Vec<NodeId>,
        target: NodeId,
        len: Bytes,
        started: SimTime,
    },
}

/// A replica copy waiting out the replication-monitor scan delay or a
/// free replication stream; the source is chosen at dispatch time so
/// newly landed replicas can serve later copies.
#[derive(Debug, Clone)]
struct StagedCopy {
    block: BlockId,
    target: NodeId,
    len: Bytes,
    requested: SimTime,
}

#[derive(Debug)]
struct WriteReq {
    id: WriteId,
    writer: Endpoint,
    file: FileId,
    path: String,
    replication: usize,
    pending_blocks: VecDeque<BlockId>,
    bytes_done: Bytes,
    started: SimTime,
    failed: bool,
}

/// A flow completion waiting to fire, ordered against the queue's
/// events by `(at, id)` like any of them.
#[derive(Debug, Clone, Copy)]
struct FlowEvent {
    at: SimTime,
    id: EventId,
    flow: FlowId,
}

#[derive(Debug, Clone, Copy)]
struct PendingSession {
    read: ReadId,
    block: BlockId,
    node: NodeId,
}

/// Occupancy of the event queue and the flow model
/// ([`ClusterSim::queue_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries the event heap holds, cancelled ones included.
    pub heap_len: usize,
    /// Events that will still fire.
    pub live_events: usize,
    /// Transfers in flight in the flow model.
    pub active_flows: usize,
    /// Capacity resources registered with the flow model: disks, NICs
    /// and uplinks, plus one NIC per client ever seen.
    pub resources: usize,
    /// Max-min fillings run by this instance (monotone).
    pub fillings: u64,
    /// Resyncs — changes to the flows or capacities — made by this
    /// instance (monotone); `resyncs / fillings` of them share a filling.
    pub resyncs: u64,
}

/// The HDFS cluster simulator.
pub struct ClusterSim {
    cfg: ClusterConfig,
    topology: Topology,
    nodes: Vec<DataNode>,
    namespace: Namespace,
    blockmap: BlockMap,
    net: FlowNet,
    queue: EventQueue<Ev>,
    audit: AuditSink,
    policy: Box<dyn PlacementPolicy>,

    node_disk: Vec<ResourceId>,
    node_nic: Vec<ResourceId>,
    rack_uplink: Vec<ResourceId>,
    client_nic: BTreeMap<ClientId, ResourceId>,

    reads: BTreeMap<ReadId, ReadReq>,
    next_read: u64,
    writes: BTreeMap<WriteId, WriteReq>,
    next_write: u64,
    completed_writes: Vec<WriteStats>,
    transfers: BTreeMap<FlowId, Transfer>,
    /// The one pending `FlowDone`: the completion
    /// [`FlowNet::next_completion`] names for the last resync. Every
    /// change to the flows ends in a resync, so no other flow can finish
    /// before this one fires or is replaced. It is held here, beside the
    /// queue, because a resync replaces it — a heap entry would have to
    /// be cancelled and left behind as a tombstone each time. Out of
    /// date while `unaimed` is set.
    flow_event: Option<FlowEvent>,
    /// First id of the batch the last resync reserved, until
    /// [`ClusterSim::aim_flow_event`] turns it into `flow_event`. Always
    /// `None` when a public call returns, so nothing outside the event
    /// loop — a snapshot least of all — sees a stale completion or rate.
    unaimed: Option<EventId>,
    resyncs: u64,
    /// The reference the lazy aim is tested against: aim in every resync.
    #[cfg(test)]
    eager_aim: bool,
    tickets: BTreeMap<SessionTicket, PendingSession>,
    next_ticket: u64,
    next_copy: u64,

    completed_reads: Vec<ReadStats>,
    completed_copies: Vec<CopyStats>,
    fired_timers: Vec<(SimTime, u64)>,
    standby_pool: Vec<bool>,
    /// In-flight replica-copy flows touching each node (sources and
    /// targets), counted into placement/source load so parallel copies
    /// spread across holders.
    copy_load: Vec<u32>,
    /// Copies waiting for the replication monitor.
    staged_copies: BTreeMap<CopyId, StagedCopy>,
    /// Copies past the monitor delay, waiting for a free stream.
    ready_copies: VecDeque<(CopyId, StagedCopy)>,
    /// Outbound replication streams per node (capped by config).
    copy_streams: Vec<u32>,
    /// On-disk blocks a crashed node retains across its downtime; the
    /// block report on [`ClusterSim::restart_node`] reconciles them.
    /// Kept cluster-side so `storage_used` keeps matching the block map
    /// while the node is down.
    retained: BTreeMap<NodeId, Vec<(BlockId, Bytes)>>,
    /// Per-node service slowdown factor (1.0 = healthy); a straggler
    /// episode scales the node's disk and NIC capacity by this.
    slowdown: Vec<f64>,
    /// Rack uplinks currently forced down by a fault.
    rack_down: Vec<bool>,
    /// Copies started by the repair loop (counted as repair traffic).
    repair_copies: BTreeSet<CopyId>,
    /// Unavailability windows, loss events and repair bytes.
    durability: DurabilityLog,
    /// Files touched since the last [`ClusterSim::drain_dirty_files`]:
    /// creates, reads (including per-block read completions), writes,
    /// replication changes, landed copies, encode/decode flips and
    /// fault-affected replicas all mark the owning file. A control loop
    /// can re-examine only these instead of walking the namespace.
    dirty_files: BTreeSet<FileId>,
    /// Files removed by [`ClusterSim::delete_file`] since the last
    /// [`ClusterSim::drain_deleted_files`], so per-file bookkeeping
    /// outside the cluster (ERMS streaks, boost flags, in-flight dedup)
    /// can be pruned instead of leaking.
    deleted_files: Vec<FileId>,
    /// Replicas/shards whose on-disk bytes are silently corrupt but not
    /// yet detected, keyed by (block, holder) with the injection time so
    /// detection latency can be measured. A corrupt copy still *serves*
    /// until a read, a repair copy or the scrubber checksums it; the key
    /// survives a crash (the stash keeps the bad bytes) and dies with
    /// the disk (kill/power-off/delete).
    latent_corrupt: BTreeMap<(BlockId, NodeId), SimTime>,
    /// Blocks with at least one detected-and-quarantined corrupt copy
    /// that have not yet been restored to their target replica count.
    /// The scrubber's repair scheduling drains this.
    corrupt_pending_repair: BTreeSet<BlockId>,
    /// Next block id the background scrub sweep will checksum; wraps
    /// around the sorted block-id space so the scan order is
    /// deterministic regardless of budget.
    scrub_cursor: u64,
    /// Structured event/metric sink; disabled (free) by default.
    telemetry: TelemetrySink,
}

impl ClusterSim {
    /// Build a cluster with every node active and the given policy.
    pub fn new(cfg: ClusterConfig, policy: Box<dyn PlacementPolicy>) -> Self {
        cfg.validate().expect("invalid cluster config");
        let topology = Topology::round_robin(cfg.datanodes, cfg.racks);
        let mut net = FlowNet::new();
        let mut nodes = Vec::with_capacity(cfg.datanodes as usize);
        let mut node_disk = Vec::new();
        let mut node_nic = Vec::new();
        for i in 0..cfg.datanodes {
            nodes.push(DataNode::new(
                NodeId(i),
                cfg.disk_capacity,
                cfg.max_sessions_per_node,
                NodeState::Active,
            ));
            node_disk.push(net.add_resource(cfg.disk_bandwidth));
            node_nic.push(net.add_resource(cfg.nic_bandwidth));
        }
        let rack_uplink = (0..cfg.racks)
            .map(|_| net.add_resource(cfg.rack_uplink))
            .collect();
        let datanodes = cfg.datanodes as usize;
        let cfg_racks = cfg.racks as usize;
        let standby_pool = vec![false; datanodes];
        let copy_load = vec![0; datanodes];
        ClusterSim {
            cfg,
            topology,
            nodes,
            namespace: Namespace::new(),
            blockmap: BlockMap::new(),
            net,
            queue: EventQueue::new(),
            audit: AuditSink::new(),
            policy,
            node_disk,
            node_nic,
            rack_uplink,
            client_nic: BTreeMap::new(),
            reads: BTreeMap::new(),
            next_read: 0,
            writes: BTreeMap::new(),
            next_write: 0,
            completed_writes: Vec::new(),
            transfers: BTreeMap::new(),
            flow_event: None,
            unaimed: None,
            resyncs: 0,
            #[cfg(test)]
            eager_aim: false,
            tickets: BTreeMap::new(),
            next_ticket: 0,
            next_copy: 0,
            completed_reads: Vec::new(),
            completed_copies: Vec::new(),
            fired_timers: Vec::new(),
            standby_pool,
            copy_load,
            staged_copies: BTreeMap::new(),
            ready_copies: VecDeque::new(),
            copy_streams: vec![0; datanodes],
            retained: BTreeMap::new(),
            slowdown: vec![1.0; datanodes],
            rack_down: vec![false; cfg_racks],
            repair_copies: BTreeSet::new(),
            durability: DurabilityLog::new(),
            dirty_files: BTreeSet::new(),
            deleted_files: Vec::new(),
            latent_corrupt: BTreeMap::new(),
            corrupt_pending_repair: BTreeSet::new(),
            scrub_cursor: 0,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Install a telemetry sink; pass a clone of the harness-wide sink
    /// so cluster events interleave with manager/scheduler events in
    /// one trace. [`TelemetrySink::disabled`] (the default) is free.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// The installed telemetry sink (disabled unless a harness swapped
    /// one in). The fault injector emits through this.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Schedule an opaque timer; it surfaces in
    /// [`ClusterSim::drain_fired_timers`] once the clock reaches `at`.
    /// Lets callers (the MapReduce runner, the ERMS control loop) run
    /// their own logic on the cluster clock.
    pub fn schedule_timer(&mut self, at: SimTime, token: u64) {
        let at = at.max(self.now());
        self.queue.schedule(at, Ev::Timer(token));
    }

    /// Timers that fired since the last drain.
    pub fn drain_fired_timers(&mut self) -> Vec<(SimTime, u64)> {
        std::mem::take(&mut self.fired_timers)
    }

    // ------------------------------------------------------------------
    // introspection

    pub fn now(&self) -> SimTime {
        self.queue.now()
    }
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }
    pub fn blockmap(&self) -> &BlockMap {
        &self.blockmap
    }
    pub fn audit_mut(&mut self) -> &mut AuditSink {
        &mut self.audit
    }
    /// Take all audit-log lines emitted since the last drain.
    pub fn drain_audit(&mut self) -> Vec<String> {
        self.audit.drain()
    }

    /// Take the set of files touched since the last drain, in id order.
    /// See the `dirty_files` field for what counts as a touch.
    pub fn drain_dirty_files(&mut self) -> Vec<FileId> {
        let set = std::mem::take(&mut self.dirty_files);
        set.into_iter().collect()
    }

    /// Take the ids of the files deleted since the last drain, in
    /// deletion order. Ids are never reused, so they stay unambiguous
    /// even when a new file has since been created at the same path.
    pub fn drain_deleted_files(&mut self) -> Vec<FileId> {
        std::mem::take(&mut self.deleted_files)
    }

    fn mark_dirty(&mut self, file: FileId) {
        self.dirty_files.insert(file);
    }

    /// Mark the file owning `block` dirty (no-op for forgotten blocks).
    fn mark_block_dirty(&mut self, block: BlockId) {
        if let Some(f) = self.namespace.block(block).map(|i| i.file) {
            self.dirty_files.insert(f);
        }
    }

    pub fn node_state(&self, n: NodeId) -> NodeState {
        self.nodes[n.0 as usize].state
    }
    pub fn node_load(&self, n: NodeId) -> usize {
        self.nodes[n.0 as usize].load() + self.copy_load[n.0 as usize] as usize
    }
    pub fn node_used(&self, n: NodeId) -> Bytes {
        self.nodes[n.0 as usize].used()
    }
    pub fn node_block_count(&self, n: NodeId) -> usize {
        self.nodes[n.0 as usize].block_count()
    }
    pub fn node_holds(&self, n: NodeId, b: BlockId) -> bool {
        self.nodes[n.0 as usize].holds(b)
    }
    /// Blocks stored on a node, in id order. Borrows the node's sorted
    /// block column; collect only if you need ownership.
    pub fn node_blocks(&self, n: NodeId) -> impl Iterator<Item = BlockId> + '_ {
        self.nodes[n.0 as usize].blocks()
    }
    pub fn peak_sessions(&self, n: NodeId) -> usize {
        self.nodes[n.0 as usize].peak_sessions
    }

    /// Total bytes stored across all datanodes.
    pub fn storage_used(&self) -> Bytes {
        self.nodes.iter().map(DataNode::used).sum()
    }

    /// Durability ledger (unavailability windows, loss events, repair
    /// bytes) accumulated by the fault surface.
    pub fn durability(&self) -> &DurabilityLog {
        &self.durability
    }
    pub fn durability_mut(&mut self) -> &mut DurabilityLog {
        &mut self.durability
    }
    /// Current straggler slowdown factor of a node (1.0 = healthy).
    pub fn node_slowdown(&self, n: NodeId) -> f64 {
        self.slowdown[n.0 as usize]
    }
    /// Whether a rack's uplink is currently failed.
    pub fn rack_uplink_down(&self, r: RackId) -> bool {
        self.rack_down[r.0 as usize]
    }
    /// Blocks a crashed node still retains on disk (restored by the
    /// block report when the node restarts).
    pub fn retained_blocks(&self, n: NodeId) -> usize {
        self.retained.get(&n).map_or(0, Vec::len)
    }

    /// Number of datanodes currently serving.
    pub fn serving_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_serving()).count()
    }

    /// Sum of active+queued sessions across the cluster — the idleness
    /// signal the Condor scheduler consults.
    pub fn total_load(&self) -> usize {
        self.nodes.iter().map(DataNode::load).sum()
    }

    /// Event-queue and flow-model occupancy; `heap_len - live_events` is
    /// the number of cancelled events not yet discarded.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            heap_len: self.queue.raw_len(),
            live_events: self.queue.len() + usize::from(self.flow_event.is_some()),
            active_flows: self.net.active_flows(),
            resources: self.net.resources(),
            fillings: self.net.fillings(),
            resyncs: self.resyncs,
        }
    }

    pub fn is_idle(&self) -> bool {
        self.transfers.is_empty()
            && self.tickets.is_empty()
            && self.staged_copies.is_empty()
            && self.ready_copies.is_empty()
    }

    /// Placement snapshot for `block`. `file_block_count` is left at 0:
    /// only parity placement reads it, and
    /// [`ClusterSim::place_parity_block`] fills it in.
    pub fn node_views(&self, block: Option<BlockId>) -> Vec<NodeView> {
        self.nodes
            .iter()
            .map(|n| NodeView {
                id: n.id,
                rack: self.topology.rack_of(n.id),
                serving: n.is_serving(),
                standby_pool: self.standby_pool[n.id.0 as usize],
                free: n.free(),
                load: n.load() + self.copy_load[n.id.0 as usize] as usize,
                holds_block: block.is_some_and(|b| n.holds(b)),
                file_block_count: 0,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // namespace operations

    /// Create a file and place its blocks instantly (bulk-load path used
    /// by trace replay; timed data movement goes through the replication
    /// APIs). Returns `None` if the path exists or placement failed.
    pub fn create_file(
        &mut self,
        path: &str,
        size: Bytes,
        replication: usize,
        writer: Option<NodeId>,
    ) -> Option<FileId> {
        let now = self.now();
        let id = self
            .namespace
            .create_file(path, size, self.cfg.block_size, replication, now)?;
        let blocks: Vec<BlockId> = self
            .namespace
            .file(id)
            .expect("just created")
            .blocks
            .clone();
        self.mark_dirty(id);
        for b in blocks {
            self.blockmap.set_target(b, replication);
            let len = self.namespace.block(b).expect("block exists").len;
            let views = self.node_views(Some(b));
            let ctx = PlacementContext {
                views: &views,
                replica_locations: &[],
                replica_racks: &[],
                default_replication: self.cfg.default_replication,
                writer,
                block_len: len,
            };
            let targets = self.policy.choose_targets(&ctx, replication);
            for t in targets {
                self.store_replica(b, t, len);
            }
        }
        let ep = writer
            .map(Endpoint::Node)
            .unwrap_or(Endpoint::Client(ClientId(0)));
        self.audit.file_op(now, ep, "create", path);
        Some(id)
    }

    /// Write a file through the simulated pipeline: blocks stream
    /// sequentially through `replication` targets chosen per block by
    /// the placement policy, moving real simulated bytes (unlike
    /// [`ClusterSim::create_file`], which bulk-loads instantly).
    /// Completion surfaces in [`ClusterSim::drain_completed_writes`].
    pub fn write_file(
        &mut self,
        writer: Endpoint,
        path: &str,
        size: Bytes,
        replication: usize,
    ) -> Option<WriteId> {
        let now = self.now();
        let file = self
            .namespace
            .create_file(path, size, self.cfg.block_size, replication, now)?;
        let blocks: Vec<BlockId> = self
            .namespace
            .file(file)
            .expect("just created")
            .blocks
            .clone();
        self.mark_dirty(file);
        for &b in &blocks {
            self.blockmap.set_target(b, replication);
        }
        let id = WriteId(self.next_write);
        self.next_write += 1;
        self.audit.file_op(now, writer, "create", path);
        trace!(
            self.telemetry,
            now,
            Tel::WriteStarted {
                write: id.0,
                path: path.to_string(),
                replication: replication as u32,
            }
        );
        self.telemetry.counter_add("hdfs.writes_started", 1);
        self.writes.insert(
            id,
            WriteReq {
                id,
                writer,
                file,
                path: path.to_string(),
                replication,
                pending_blocks: blocks.into_iter().collect(),
                bytes_done: 0,
                started: now,
                failed: false,
            },
        );
        self.advance_write(id);
        self.aim_flow_event();
        Some(id)
    }

    fn advance_write(&mut self, id: WriteId) {
        let Some(req) = self.writes.get(&id) else {
            return;
        };
        let Some(&block) = req.pending_blocks.front() else {
            self.finish_write(id, false);
            return;
        };
        let writer = req.writer;
        let replication = req.replication;
        let len = self.block_len_or_zero(block);
        // choose the pipeline targets for this block
        let views = self.node_views(Some(block));
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[],
            replica_racks: &[],
            default_replication: self.cfg.default_replication,
            writer: match writer {
                Endpoint::Node(n) => Some(n),
                Endpoint::Client(_) => None,
            },
            block_len: len,
        };
        let targets = self.policy.choose_targets(&ctx, replication);
        if targets.is_empty() {
            self.finish_write(id, true);
            return;
        }
        // in-flight pipeline targets count as load so concurrent writes
        // spread instead of stacking on the same empty nodes
        for &t in &targets {
            self.copy_load[t.0 as usize] += 1;
        }
        // the pipeline traverses the writer's NIC and every target's
        // NIC + disk; cross-rack hops pay their uplinks
        let mut resources = Vec::new();
        let mut prev: Option<NodeId> = None;
        match writer {
            Endpoint::Node(n) => {
                resources.push(self.node_nic[n.0 as usize]);
                prev = Some(n);
            }
            Endpoint::Client(c) => {
                let client_bw = self.cfg.client_bandwidth;
                let nic = *self
                    .client_nic
                    .entry(c)
                    .or_insert_with(|| self.net.add_resource(client_bw));
                resources.push(nic);
                if let Some(&first) = targets.first() {
                    resources.push(self.rack_uplink[self.topology.rack_of(first).0 as usize]);
                }
            }
        }
        for &t in &targets {
            resources.push(self.node_nic[t.0 as usize]);
            resources.push(self.node_disk[t.0 as usize]);
            if let Some(p) = prev {
                if self.topology.crosses_racks(p, t) {
                    resources.push(self.rack_uplink[self.topology.rack_of(p).0 as usize]);
                    resources.push(self.rack_uplink[self.topology.rack_of(t).0 as usize]);
                }
            }
            prev = Some(t);
        }
        resources.sort_unstable();
        resources.dedup();
        let now = self.now();
        let flow = self.net.start(now, len, resources);
        self.transfers.insert(
            flow,
            Transfer::WriteBlock {
                write: id,
                block,
                targets,
                len,
            },
        );
        self.resync_flow_events();
    }

    fn finish_write(&mut self, id: WriteId, failed: bool) {
        let Some(req) = self.writes.remove(&id) else {
            return;
        };
        let now = self.now();
        if failed {
            // abandon the partial file like an expired lease would
            let path = req.path.clone();
            self.delete_file(&path);
        }
        trace!(
            self.telemetry,
            now,
            Tel::WriteFinished {
                write: id.0,
                path: req.path.clone(),
                bytes: req.bytes_done,
                failed: failed || req.failed,
            }
        );
        self.telemetry
            .observe("hdfs.write_secs", now.since(req.started).as_secs_f64());
        self.telemetry.counter_add("hdfs.writes_finished", 1);
        self.telemetry
            .counter_add("hdfs.bytes_written", req.bytes_done);
        self.completed_writes.push(WriteStats {
            id: req.id,
            path: req.path,
            bytes: req.bytes_done,
            started: req.started,
            finished: now,
            failed: failed || req.failed,
        });
    }

    /// Delete a file, freeing every replica.
    pub fn delete_file(&mut self, path: &str) -> bool {
        let Some(id) = self.namespace.resolve(path) else {
            return false;
        };
        let now = self.now();
        // capture lengths before the namespace forgets the blocks
        let meta = self.namespace.file(id).expect("resolved file");
        let mut all_blocks: Vec<BlockId> = meta.blocks.clone();
        if let StorageMode::Encoded { parity_blocks } = &meta.mode {
            all_blocks.extend_from_slice(parity_blocks);
        }
        let lens: Vec<Bytes> = all_blocks
            .iter()
            .map(|&b| self.block_len_or_zero(b))
            .collect();
        self.namespace.delete_file(id).expect("resolved file");
        for (&b, &len) in all_blocks.iter().zip(&lens) {
            for n in self.blockmap.replica_nodes(b) {
                self.nodes[n.0 as usize].remove_block(b, len);
            }
            self.blockmap.drop_block(b);
            self.durability.forget(b.0);
            // crashed disks forget deleted blocks at their next report;
            // drop them now so a restart cannot resurrect them
            for stash in self.retained.values_mut() {
                stash.retain(|&(rb, _)| rb != b);
            }
            self.latent_corrupt.retain(|&(lb, _), _| lb != b);
            self.corrupt_pending_repair.remove(&b);
        }
        self.audit
            .file_op(now, Endpoint::Client(ClientId(0)), "delete", path);
        self.dirty_files.remove(&id);
        self.deleted_files.push(id);
        true
    }

    fn block_len_or_zero(&self, b: BlockId) -> Bytes {
        self.namespace.block(b).map(|i| i.len).unwrap_or(0)
    }

    fn store_replica(&mut self, block: BlockId, node: NodeId, len: Bytes) -> bool {
        if self.nodes[node.0 as usize].add_block(block, len) {
            self.blockmap.add(block, node);
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // reads

    /// Open a file for reading. The request incurs the configured
    /// overhead, then streams each block from the best available replica.
    pub fn open_read(&mut self, reader: Endpoint, path: &str) -> Option<ReadId> {
        let file = self.namespace.resolve(path)?;
        let meta = self.namespace.file(file).expect("resolved file");
        let id = ReadId(self.next_read);
        self.next_read += 1;
        let req = ReadReq {
            id,
            reader,
            path: path.to_string(),
            pending_blocks: meta.blocks.iter().copied().collect(),
            bytes_done: 0,
            started: self.now(),
            node_local: 0,
            rack_local: 0,
            remote: 0,
            failed: false,
        };
        let now = self.now();
        self.audit.file_op(now, reader, "open", path);
        trace!(
            self.telemetry,
            now,
            Tel::ReadStarted {
                read: id.0,
                path: path.to_string(),
            }
        );
        self.telemetry.counter_add("hdfs.reads_started", 1);
        self.namespace.touch(file, now);
        self.mark_dirty(file);
        self.reads.insert(id, req);
        let begin = now + self.cfg.request_overhead;
        self.queue.schedule(begin, Ev::BeginRead(id));
        Some(id)
    }

    /// Open a read of a single block of `path` — the map-task pattern:
    /// each mapper opens the file and reads exactly its input split.
    pub fn open_block_read(
        &mut self,
        reader: Endpoint,
        path: &str,
        block: BlockId,
    ) -> Option<ReadId> {
        let file = self.namespace.resolve(path)?;
        let meta = self.namespace.file(file)?;
        if !meta.blocks.contains(&block) {
            return None;
        }
        let id = ReadId(self.next_read);
        self.next_read += 1;
        let req = ReadReq {
            id,
            reader,
            path: path.to_string(),
            pending_blocks: std::iter::once(block).collect(),
            bytes_done: 0,
            started: self.now(),
            node_local: 0,
            rack_local: 0,
            remote: 0,
            failed: false,
        };
        let now = self.now();
        self.audit.file_op(now, reader, "open", path);
        trace!(
            self.telemetry,
            now,
            Tel::ReadStarted {
                read: id.0,
                path: path.to_string(),
            }
        );
        self.telemetry.counter_add("hdfs.reads_started", 1);
        self.namespace.touch(file, now);
        self.mark_dirty(file);
        self.reads.insert(id, req);
        let begin = now + self.cfg.request_overhead;
        self.queue.schedule(begin, Ev::BeginRead(id));
        Some(id)
    }

    /// Collect finished reads.
    pub fn drain_completed_reads(&mut self) -> Vec<ReadStats> {
        std::mem::take(&mut self.completed_reads)
    }
    /// Collect finished replica copies.
    pub fn drain_completed_copies(&mut self) -> Vec<CopyStats> {
        std::mem::take(&mut self.completed_copies)
    }
    pub fn inflight_reads(&self) -> usize {
        self.reads.len()
    }
    pub fn inflight_writes(&self) -> usize {
        self.writes.len()
    }
    /// Collect finished pipelined writes.
    pub fn drain_completed_writes(&mut self) -> Vec<WriteStats> {
        std::mem::take(&mut self.completed_writes)
    }

    fn advance_read(&mut self, id: ReadId) {
        let Some(req) = self.reads.get_mut(&id) else {
            return;
        };
        let Some(&block) = req.pending_blocks.front() else {
            self.finish_read(id, false);
            return;
        };
        // candidate replicas: serving holders
        let reader = req.reader;
        let holders: Vec<NodeId> = self
            .blockmap
            .replica_nodes(block)
            .iter()
            .copied()
            .filter(|&n| self.nodes[n.0 as usize].is_serving())
            .collect();
        if holders.is_empty() {
            self.finish_read(id, true);
            return;
        }
        // rank: distance first, then instantaneous load, then id
        let best = holders
            .into_iter()
            .min_by_key(|&n| {
                let d = match self.topology.reader_distance(reader, n) {
                    Distance::SameNode => 0u8,
                    Distance::SameRack => 1,
                    Distance::OffRack => 2,
                };
                (d, self.nodes[n.0 as usize].load(), n)
            })
            .expect("non-empty holders");
        // locality accounting happens at replica choice
        {
            let req = self.reads.get_mut(&id).expect("read exists");
            match self.topology.reader_distance(reader, best) {
                Distance::SameNode => req.node_local += 1,
                Distance::SameRack => req.rack_local += 1,
                Distance::OffRack => req.remote += 1,
            }
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if self.nodes[best.0 as usize].admit_or_queue(ticket) {
            self.start_block_flow(id, block, best);
        } else {
            self.tickets.insert(
                ticket,
                PendingSession {
                    read: id,
                    block,
                    node: best,
                },
            );
        }
    }

    fn read_path_resources(&mut self, reader: Endpoint, node: NodeId) -> Vec<ResourceId> {
        let ni = node.0 as usize;
        match reader {
            Endpoint::Node(r) if r == node => vec![self.node_disk[ni]],
            Endpoint::Node(r) => {
                let mut res = vec![
                    self.node_disk[ni],
                    self.node_nic[ni],
                    self.node_nic[r.0 as usize],
                ];
                if self.topology.crosses_racks(r, node) {
                    res.push(self.rack_uplink[self.topology.rack_of(node).0 as usize]);
                    res.push(self.rack_uplink[self.topology.rack_of(r).0 as usize]);
                }
                res
            }
            Endpoint::Client(c) => {
                let client_bw = self.cfg.client_bandwidth;
                let nic = *self
                    .client_nic
                    .entry(c)
                    .or_insert_with(|| self.net.add_resource(client_bw));
                vec![
                    self.node_disk[ni],
                    self.node_nic[ni],
                    nic,
                    self.rack_uplink[self.topology.rack_of(node).0 as usize],
                ]
            }
        }
    }

    fn start_block_flow(&mut self, id: ReadId, block: BlockId, node: NodeId) {
        let len = self.block_len_or_zero(block);
        let reader = self.reads.get(&id).expect("read exists").reader;
        let resources = self.read_path_resources(reader, node);
        let now = self.now();
        let flow = self.net.start(now, len, resources);
        self.transfers.insert(
            flow,
            Transfer::ReadBlock {
                read: id,
                block,
                node,
            },
        );
        self.resync_flow_events();
    }

    fn finish_read(&mut self, id: ReadId, failed: bool) {
        let Some(req) = self.reads.remove(&id) else {
            return;
        };
        let now = self.now();
        trace!(
            self.telemetry,
            now,
            Tel::ReadFinished {
                read: id.0,
                path: req.path.clone(),
                bytes: req.bytes_done,
                failed: failed || req.failed,
            }
        );
        self.telemetry
            .observe("hdfs.read_secs", now.since(req.started).as_secs_f64());
        self.telemetry.counter_add("hdfs.reads_finished", 1);
        self.telemetry
            .counter_add("hdfs.bytes_read", req.bytes_done);
        if failed || req.failed {
            self.telemetry.counter_add("hdfs.reads_failed", 1);
        }
        self.completed_reads.push(ReadStats {
            id: req.id,
            path: req.path,
            reader: req.reader,
            bytes: req.bytes_done,
            started: req.started,
            finished: now,
            node_local_blocks: req.node_local,
            rack_local_blocks: req.rack_local,
            remote_blocks: req.remote,
            failed: failed || req.failed,
        });
    }

    // ------------------------------------------------------------------
    // replication operations

    /// Copy `block` to `target` from the least-loaded serving holder.
    /// Bytes move through the simulated network; completion appears in
    /// [`ClusterSim::drain_completed_copies`].
    pub fn add_replica_to(&mut self, block: BlockId, target: NodeId) -> Option<CopyId> {
        let len = self.namespace.block(block)?.len;
        if self.nodes[target.0 as usize].holds(block)
            || !self.nodes[target.0 as usize].is_serving()
            || self.nodes[target.0 as usize].free() < len
        {
            return None;
        }
        // a serving source must exist now (it is re-picked at dispatch)
        self.blockmap
            .replica_nodes(block)
            .iter()
            .copied()
            .find(|&n| self.nodes[n.0 as usize].is_serving())?;
        self.copy_load[target.0 as usize] += 1;
        let id = CopyId(self.next_copy);
        self.next_copy += 1;
        let now = self.now();
        self.staged_copies.insert(
            id,
            StagedCopy {
                block,
                target,
                len,
                requested: now,
            },
        );
        self.queue
            .schedule(now + self.cfg.replication_scan_delay, Ev::StartCopy(id));
        Some(id)
    }

    /// The replication monitor picked up a staged copy: queue it for a
    /// free replication stream and try to dispatch.
    fn start_staged_copy(&mut self, id: CopyId) {
        if let Some(staged) = self.staged_copies.remove(&id) {
            self.ready_copies.push_back((id, staged));
        }
        self.dispatch_replications();
    }

    /// Start every ready copy that can get a source with a free stream.
    /// Sources are picked at dispatch time, so replicas that just landed
    /// immediately widen the fan-out (the waves real HDFS exhibits).
    fn dispatch_replications(&mut self) {
        let now = self.now();
        let cap = self.cfg.max_replication_streams as u32;
        let mut remaining: VecDeque<(CopyId, StagedCopy)> = VecDeque::new();
        let mut started_any = false;
        while let Some((id, staged)) = self.ready_copies.pop_front() {
            let StagedCopy {
                block,
                target,
                len,
                requested,
            } = staged.clone();
            let ti = target.0 as usize;
            let target_ok = self.nodes[ti].is_serving()
                && !self.nodes[ti].holds(block)
                && self.nodes[ti].free() >= len;
            let holders: Vec<NodeId> = self
                .blockmap
                .replica_nodes(block)
                .iter()
                .copied()
                .filter(|&n| self.nodes[n.0 as usize].is_serving())
                .collect();
            if !target_ok || holders.is_empty() {
                self.copy_load[ti] = self.copy_load[ti].saturating_sub(1);
                self.repair_copies.remove(&id);
                self.completed_copies.push(CopyStats {
                    id,
                    block,
                    source: holders.first().copied().unwrap_or(target),
                    target,
                    started: requested,
                    finished: now,
                    succeeded: false,
                });
                continue;
            }
            let source = holders
                .into_iter()
                .filter(|&n| self.copy_streams[n.0 as usize] < cap)
                .min_by_key(|&n| (self.copy_streams[n.0 as usize], self.node_load(n), n));
            let Some(source) = source else {
                remaining.push_back((id, staged)); // wait for a stream
                continue;
            };
            let si = source.0 as usize;
            self.copy_streams[si] += 1;
            self.copy_load[si] += 1;
            let mut resources = vec![
                self.node_disk[si],
                self.node_nic[si],
                self.node_nic[ti],
                self.node_disk[ti],
            ];
            if self.topology.crosses_racks(source, target) {
                resources.push(self.rack_uplink[self.topology.rack_of(source).0 as usize]);
                resources.push(self.rack_uplink[self.topology.rack_of(target).0 as usize]);
            }
            let flow = self.net.start(now, len, resources);
            trace!(
                self.telemetry,
                now,
                Tel::CopyDispatched {
                    copy: id.0,
                    block: block.0,
                    source: source.0,
                    target: target.0,
                }
            );
            self.telemetry.counter_add("hdfs.copies_dispatched", 1);
            self.transfers.insert(
                flow,
                Transfer::Copy {
                    copy: id,
                    block,
                    source,
                    target,
                    len,
                    started: requested,
                },
            );
            started_any = true;
        }
        self.ready_copies = remaining;
        if started_any {
            self.resync_flow_events();
        }
    }

    /// Raise `block`'s replica count by `extra`, letting the placement
    /// policy choose targets. Returns the copy handles actually started.
    pub fn add_replicas(&mut self, block: BlockId, extra: usize) -> Vec<CopyId> {
        let Some(info) = self.namespace.block(block).copied() else {
            return Vec::new();
        };
        let locs = self.blockmap.replica_nodes(block);
        let racks: Vec<RackId> = locs.iter().map(|&n| self.topology.rack_of(n)).collect();
        let views = self.node_views(Some(block));
        let ctx = PlacementContext {
            views: &views,
            replica_locations: locs,
            replica_racks: &racks,
            default_replication: self.cfg.default_replication,
            writer: None,
            block_len: info.len,
        };
        let targets = self.policy.choose_targets(&ctx, extra);
        targets
            .into_iter()
            .filter_map(|t| self.add_replica_to(block, t))
            .collect()
    }

    /// Drop one replica of `block` from `node` (instant: deletes are
    /// metadata operations).
    pub fn remove_replica(&mut self, block: BlockId, node: NodeId) -> bool {
        let len = self.block_len_or_zero(block);
        if self.nodes[node.0 as usize].remove_block(block, len) {
            self.blockmap.remove(block, node);
            self.latent_corrupt.remove(&(block, node));
            self.mark_block_dirty(block);
            if self.blockmap.replica_count(block) == 0 {
                self.note_zero_replicas(block);
            }
            true
        } else {
            false
        }
    }

    /// Lower `block`'s replica count by `count`, letting the policy pick
    /// victims. Returns how many replicas were actually removed.
    pub fn remove_replicas(&mut self, block: BlockId, count: usize) -> usize {
        let Some(info) = self.namespace.block(block).copied() else {
            return 0;
        };
        let locs = self.blockmap.replica_nodes(block);
        let racks: Vec<RackId> = locs.iter().map(|&n| self.topology.rack_of(n)).collect();
        let views = self.node_views(Some(block));
        let ctx = PlacementContext {
            views: &views,
            replica_locations: locs,
            replica_racks: &racks,
            default_replication: self.cfg.default_replication,
            writer: None,
            block_len: info.len,
        };
        let victims = self.policy.choose_removals(&ctx, count);
        victims
            .into_iter()
            .filter(|&v| self.remove_replica(block, v))
            .count()
    }

    /// Set the target replication of a whole file: adds copies or removes
    /// excess per block. Returns the started copy handles.
    pub fn set_file_replication(&mut self, file: FileId, r: usize) -> Vec<CopyId> {
        let Some(meta) = self.namespace.file_mut(file) else {
            return Vec::new();
        };
        meta.mode = StorageMode::Replicated { replication: r };
        let blocks = meta.blocks.clone();
        let path = meta.path.clone();
        self.mark_dirty(file);
        let mut copies = Vec::new();
        for b in blocks {
            self.blockmap.set_target(b, r);
            let have = self.blockmap.replica_count(b);
            if have < r {
                copies.extend(self.add_replicas(b, r - have));
            } else if have > r {
                self.remove_replicas(b, have - r);
            }
        }
        let now = self.now();
        self.audit
            .file_op(now, Endpoint::Client(ClientId(0)), "setReplication", &path);
        copies
    }

    /// Place a parity block for `file` via the policy and store it
    /// instantly (the byte-level encode cost is the erasure crate's
    /// domain; the storage and placement effects are modelled here).
    pub fn place_parity_block(
        &mut self,
        file: FileId,
        index: u32,
        len: Bytes,
    ) -> Option<(BlockId, NodeId)> {
        let block = self.namespace.allocate_parity_block(file, index, len);
        self.blockmap.set_target(block, 1);
        self.mark_dirty(file);
        let mut views = self.node_views(Some(block));
        // Algorithm 1's parity rule: how many of the file's blocks each
        // node holds, counted from their replica lists
        if let Some(meta) = self.namespace.file(file) {
            let parity: &[BlockId] = match &meta.mode {
                StorageMode::Encoded { parity_blocks } => parity_blocks,
                StorageMode::Replicated { .. } => &[],
            };
            for &b in meta.blocks.iter().chain(parity) {
                for n in self.blockmap.replica_nodes(b) {
                    views[n.0 as usize].file_block_count += 1;
                }
            }
        }
        let ctx = PlacementContext {
            views: &views,
            replica_locations: &[],
            replica_racks: &[],
            default_replication: self.cfg.default_replication,
            writer: None,
            block_len: len,
        };
        let target = self.policy.choose_parity_target(&ctx)?;
        if self.store_replica(block, target, len) {
            Some((block, target))
        } else {
            None
        }
    }

    /// Mark a file encoded (replication 1 + parities). The caller (ERMS
    /// manager) supplies the parity blocks it placed.
    pub fn mark_encoded(&mut self, file: FileId, parity_blocks: Vec<BlockId>) {
        if let Some(meta) = self.namespace.file_mut(file) {
            meta.mode = StorageMode::Encoded { parity_blocks };
            let data_blocks = meta.blocks.clone();
            // encoded files keep exactly one replica per data block
            for b in data_blocks {
                self.blockmap.set_target(b, 1);
            }
            self.mark_dirty(file);
        }
    }

    /// Undo encoding: drop the parity blocks and return the file to
    /// `replication`-way storage (the caller then restores replicas with
    /// [`ClusterSim::set_file_replication`], which moves real bytes).
    pub fn mark_decoded(&mut self, file: FileId, replication: usize) {
        let Some(meta) = self.namespace.file_mut(file) else {
            return;
        };
        let parities =
            match std::mem::replace(&mut meta.mode, StorageMode::Replicated { replication }) {
                StorageMode::Encoded { parity_blocks } => parity_blocks,
                StorageMode::Replicated { .. } => Vec::new(),
            };
        let data_blocks = meta.blocks.clone();
        for b in data_blocks {
            self.blockmap.set_target(b, replication);
        }
        self.mark_dirty(file);
        for p in parities {
            let len = self.block_len_or_zero(p);
            for n in self.blockmap.replica_nodes(p) {
                self.nodes[n.0 as usize].remove_block(p, len);
            }
            self.blockmap.drop_block(p);
            self.namespace.forget_block(p);
            self.durability.forget(p.0);
            for stash in self.retained.values_mut() {
                stash.retain(|&(rb, _)| rb != p);
            }
            self.latent_corrupt.retain(|&(lb, _), _| lb != p);
            self.corrupt_pending_repair.remove(&p);
        }
    }

    // ------------------------------------------------------------------
    // node lifecycle

    /// Designate nodes as the standby pool and power them off. Their data
    /// (if any) is dropped — ERMS only parks *extra* replicas there. A
    /// node whose power-off would orphan a last replica is skipped (and
    /// left out of the pool).
    pub fn designate_standby(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.standby_pool[n.0 as usize] = true;
            if self.power_off(n).is_err() {
                self.standby_pool[n.0 as usize] = false;
            }
        }
    }

    /// Power a standby node off (drops its blocks from the block map).
    ///
    /// Refuses — and changes nothing — when the node holds the last live
    /// replica of any block; the would-be-orphaned blocks are returned so
    /// the caller can re-replicate (e.g. via
    /// [`ClusterSim::decommission`]) and retry.
    pub fn power_off(&mut self, n: NodeId) -> Result<(), Vec<BlockId>> {
        let ni = n.0 as usize;
        if self.nodes[ni].state == NodeState::Dead {
            return Ok(());
        }
        let orphaned: Vec<BlockId> = self.nodes[ni]
            .blocks()
            .filter(|&b| self.blockmap.replica_count(b) <= 1)
            .collect();
        if !orphaned.is_empty() {
            return Err(orphaned);
        }
        // leave service *before* failing transfers (see kill_node)
        for b in self.nodes[ni].clear() {
            self.blockmap.remove(b, n);
            self.mark_block_dirty(b);
        }
        // the powered-off disk is parked, not preserved: any latent
        // corruption it carried leaves with the blocks
        self.latent_corrupt.retain(|&(_, ln), _| ln != n);
        self.nodes[ni].state = NodeState::Standby;
        self.apply_node_capacity(n);
        self.fail_node_transfers(n, false);
        self.resync_and_aim();
        let now = self.now();
        trace!(
            self.telemetry,
            now,
            Tel::StandbyPower {
                node: n.0,
                on: false,
            }
        );
        Ok(())
    }

    /// Commission (boot) a standby node; it starts serving after the
    /// configured boot time. Returns false if the node isn't standby.
    pub fn commission(&mut self, n: NodeId) -> bool {
        if self.nodes[n.0 as usize].state != NodeState::Standby {
            return false;
        }
        let at = self.now() + self.cfg.standby_boot_time;
        self.queue.schedule(at, Ev::NodeBooted(n));
        true
    }

    /// Begin a graceful decommission of `n`: start one extra copy of
    /// every block it holds (targets chosen by the placement policy,
    /// which never reuses a holder). Once the returned copies complete,
    /// the node can be powered off with no replication deficit — the
    /// orderly path, versus [`ClusterSim::kill_node`]'s crash.
    pub fn decommission(&mut self, n: NodeId) -> Vec<CopyId> {
        let blocks: Vec<BlockId> = self.nodes[n.0 as usize].blocks().collect();
        let mut copies = Vec::new();
        for b in blocks {
            copies.extend(self.add_replicas(b, 1));
        }
        copies
    }

    /// Kill a node permanently: its disk (including anything it retained
    /// across an earlier crash) is destroyed, transfers failed, queued
    /// readers retried. Returns the blocks that lost a replica but
    /// survive elsewhere, and the blocks whose last live replica died.
    pub fn kill_node(&mut self, n: NodeId) -> (Vec<BlockId>, Vec<BlockId>) {
        let ni = n.0 as usize;
        // leave service *before* failing transfers: the retried reads
        // re-resolve replicas and must not land back on this node
        self.nodes[ni].clear();
        self.nodes[ni].state = NodeState::Dead;
        let (degraded, lost) = self.blockmap.remove_node(n);
        let stash = self.retained.remove(&n).unwrap_or_default();
        // the disk is destroyed: its latent corruption dies with it
        self.latent_corrupt.retain(|&(_, ln), _| ln != n);
        self.apply_node_capacity(n);
        self.fail_node_transfers(n, true);
        self.resync_and_aim();
        for &b in &lost {
            self.note_zero_replicas(b);
        }
        // blocks that only survived on this node's crashed disk die too
        for (b, _) in stash {
            if self.blockmap.replica_count(b) == 0 && self.namespace.block(b).is_some() {
                self.note_zero_replicas(b);
            }
        }
        for &b in degraded.iter().chain(lost.iter()) {
            self.mark_block_dirty(b);
        }
        (degraded, lost)
    }

    /// Crash a node: it stops serving and its replicas leave the block
    /// map, but the disk contents survive the outage — a later
    /// [`ClusterSim::restart_node`] block-reports them back. This is the
    /// MTBF/MTTR churn path; [`ClusterSim::kill_node`] is the permanent
    /// one. Returns false when the node is already down.
    pub fn crash_node(&mut self, n: NodeId) -> bool {
        let ni = n.0 as usize;
        if self.nodes[ni].state == NodeState::Dead {
            return false;
        }
        let on_disk: Vec<BlockId> = self.nodes[ni].blocks().collect();
        let stash: Vec<(BlockId, Bytes)> = on_disk
            .iter()
            .map(|&b| (b, self.block_len_or_zero(b)))
            .collect();
        // leave service *before* failing transfers (see kill_node)
        self.nodes[ni].clear();
        self.nodes[ni].state = NodeState::Dead;
        if !stash.is_empty() {
            self.retained.insert(n, stash);
        }
        let (degraded, lost) = self.blockmap.remove_node(n);
        self.apply_node_capacity(n);
        self.fail_node_transfers(n, true);
        self.resync_and_aim();
        for &b in &lost {
            self.note_zero_replicas(b);
        }
        for &b in degraded.iter().chain(lost.iter()) {
            self.mark_block_dirty(b);
        }
        true
    }

    /// Restart a crashed node. It rejoins serving immediately and its
    /// block report reconciles the retained replicas: blocks still known
    /// to the namespace re-enter the block map (possibly over-replicating
    /// — [`ClusterSim::trim_over_replicated`] cleans up), stale ones
    /// (deleted while the node was down) are discarded. Returns the
    /// number of replicas re-admitted, or `None` if the node was not
    /// down.
    pub fn restart_node(&mut self, n: NodeId) -> Option<usize> {
        let ni = n.0 as usize;
        if self.nodes[ni].state != NodeState::Dead {
            return None;
        }
        let report = self.retained.remove(&n).unwrap_or_default();
        self.nodes[ni].state = NodeState::Active;
        self.apply_node_capacity(n);
        let mut readmitted = 0;
        for (b, len) in report {
            if self.namespace.block(b).is_none() {
                continue; // stale: deleted during the outage
            }
            let was_dark = self.blockmap.replica_count(b) == 0;
            if self.nodes[ni].add_block(b, len) {
                self.blockmap.add(b, n);
                self.mark_block_dirty(b);
                readmitted += 1;
                if was_dark {
                    self.note_replica_restored(b);
                }
            }
        }
        self.resync_and_aim();
        Some(readmitted)
    }

    /// Fail a rack's shared uplink: every cross-rack flow through it
    /// stalls (rate 0) until [`ClusterSim::restore_rack_uplink`]. Returns
    /// false if it was already down.
    pub fn fail_rack_uplink(&mut self, r: RackId) -> bool {
        let ri = r.0 as usize;
        if self.rack_down[ri] {
            return false;
        }
        self.rack_down[ri] = true;
        let now = self.now();
        self.net
            .set_capacity(now, self.rack_uplink[ri], Bandwidth::ZERO);
        self.resync_and_aim();
        true
    }

    /// Bring a failed rack uplink back at its configured capacity;
    /// stalled flows resume. Returns false if it was not down.
    pub fn restore_rack_uplink(&mut self, r: RackId) -> bool {
        let ri = r.0 as usize;
        if !self.rack_down[ri] {
            return false;
        }
        self.rack_down[ri] = false;
        let now = self.now();
        self.net
            .set_capacity(now, self.rack_uplink[ri], self.cfg.rack_uplink);
        self.resync_and_aim();
        true
    }

    /// Begin a straggler episode: the node keeps serving but its disk
    /// and NIC run at `factor` (clamped to [0.01, 1.0]) of their
    /// configured rates.
    pub fn set_node_slowdown(&mut self, n: NodeId, factor: f64) {
        self.slowdown[n.0 as usize] = factor.clamp(0.01, 1.0);
        self.apply_node_capacity(n);
        self.resync_and_aim();
    }

    /// End a straggler episode (restore full service rate).
    pub fn clear_node_slowdown(&mut self, n: NodeId) {
        self.set_node_slowdown(n, 1.0);
    }

    /// Set a node's disk/NIC capacity from its state and slowdown
    /// factor. All state transitions funnel through this.
    fn apply_node_capacity(&mut self, n: NodeId) {
        let ni = n.0 as usize;
        let now = self.now();
        let (disk, nic) = if self.nodes[ni].is_serving() {
            let f = self.slowdown[ni];
            (
                Bandwidth(self.cfg.disk_bandwidth.bytes_per_sec() * f),
                Bandwidth(self.cfg.nic_bandwidth.bytes_per_sec() * f),
            )
        } else {
            (Bandwidth::ZERO, Bandwidth::ZERO)
        };
        self.net.set_capacity(now, self.node_disk[ni], disk);
        self.net.set_capacity(now, self.node_nic[ni], nic);
    }

    /// The last live replica of `block` is gone: if a crashed disk still
    /// retains a copy (or the block belongs to an encoded file, whose
    /// stripe may be reconstructable) this opens an unavailability
    /// window; otherwise it is a permanent loss. Parity blocks carry no
    /// client-visible data, so they never open windows.
    fn note_zero_replicas(&mut self, block: BlockId) {
        let Some(info) = self.namespace.block(block).copied() else {
            return;
        };
        if info.is_parity {
            return;
        }
        let now = self.now();
        let encoded = self
            .namespace
            .file(info.file)
            .is_some_and(|f| f.is_encoded());
        // a corrupt retained copy cannot bring the data back — only
        // clean stashes count toward recoverability, so loss is declared
        // exactly when every copy is dead-or-corrupt
        let clean_retained = self
            .retained
            .iter()
            .filter(|&(&n, stash)| {
                stash.iter().any(|&(b, _)| b == block)
                    && !self.latent_corrupt.contains_key(&(block, n))
            })
            .count() as u64;
        if encoded || clean_retained > 0 {
            self.durability.mark_unavailable(block.0, now);
        } else if !self.durability.is_lost(block.0) {
            self.durability.mark_lost(block.0, now);
            trace!(
                self.telemetry,
                now,
                Tel::DataLoss {
                    block: block.0,
                    live_replicas: 0,
                    clean_retained,
                }
            );
            self.telemetry.counter_add("hdfs.data_loss_events", 1);
        }
    }

    /// A replica of `block` is live again; closes any open window.
    fn note_replica_restored(&mut self, block: BlockId) {
        let now = self.now();
        self.durability.mark_available(block.0, now);
    }

    // ------------------------------------------------------------------
    // silent corruption: injection, detection, quarantine, scrubbing

    /// Silently corrupt one replica (or parity shard) held by `node`.
    /// `pick` seeds the deterministic victim choice among the node's
    /// blocks; with `prefer_parity` the victim is drawn from the node's
    /// parity shards when it holds any. The copy keeps serving — nothing
    /// notices until a read, a repair copy or the scrubber checksums it.
    /// Returns false when the node is down or holds nothing.
    pub fn corrupt_replica(&mut self, node: NodeId, pick: u64, prefer_parity: bool) -> bool {
        let ni = node.0 as usize;
        if !self.nodes[ni].is_serving() {
            return false;
        }
        let all: Vec<BlockId> = self.nodes[ni].blocks().collect();
        if all.is_empty() {
            return false;
        }
        let parities: Vec<BlockId> = all
            .iter()
            .copied()
            .filter(|&b| {
                self.namespace
                    .block(b)
                    .map(|i| i.is_parity)
                    .unwrap_or(false)
            })
            .collect();
        let pool = if prefer_parity && !parities.is_empty() {
            parities
        } else {
            all
        };
        let victim = pool[(pick % pool.len() as u64) as usize];
        if self.latent_corrupt.contains_key(&(victim, node)) {
            return false; // already rotten; flipping more bits changes nothing
        }
        let now = self.now();
        self.latent_corrupt.insert((victim, node), now);
        let kind = if self
            .namespace
            .block(victim)
            .map(|i| i.is_parity)
            .unwrap_or(false)
        {
            "shard"
        } else {
            "replica"
        };
        trace!(
            self.telemetry,
            now,
            Tel::CorruptionInjected {
                block: victim.0,
                node: node.0,
                kind: kind.to_string(),
            }
        );
        self.telemetry.counter_add("hdfs.corruptions_injected", 1);
        true
    }

    /// Crash `n` mid-write: like [`ClusterSim::crash_node`], but every
    /// block that was landing on the node through an in-flight transfer
    /// (write pipeline, replica copy or reconstruction) is torn — the
    /// partial bytes survive on the crashed disk and block-report back
    /// on restart as a latently corrupt replica. Returns false when the
    /// node is already down.
    pub fn crash_node_torn(&mut self, n: NodeId) -> bool {
        let torn: Vec<(BlockId, Bytes)> = self
            .transfers
            .values()
            .filter_map(|t| match t {
                Transfer::WriteBlock {
                    block,
                    targets,
                    len,
                    ..
                } if targets.contains(&n) => Some((*block, *len)),
                Transfer::Copy {
                    block, target, len, ..
                } if *target == n => Some((*block, *len)),
                Transfer::Reconstruct {
                    block, target, len, ..
                } if *target == n => Some((*block, *len)),
                _ => None,
            })
            .collect();
        if !self.crash_node(n) {
            return false;
        }
        let now = self.now();
        for (b, len) in torn {
            if self.namespace.block(b).is_none() {
                continue;
            }
            let stash = self.retained.entry(n).or_default();
            if !stash.iter().any(|&(sb, _)| sb == b) {
                stash.push((b, len));
            }
            if self.latent_corrupt.insert((b, n), now).is_none() {
                trace!(
                    self.telemetry,
                    now,
                    Tel::CorruptionInjected {
                        block: b.0,
                        node: n.0,
                        kind: "torn_write".to_string(),
                    }
                );
                self.telemetry.counter_add("hdfs.corruptions_injected", 1);
            }
        }
        true
    }

    /// A checksum just failed on `(block, node)` via `via` ("read",
    /// "scrub" or "copy"): report it, quarantine the copy (drop it from
    /// the map so nothing else is served from it) and queue the block
    /// for repair — unless surviving replicas already meet the target,
    /// in which case the quarantine itself is the repair.
    fn detect_corruption(&mut self, block: BlockId, node: NodeId, via: &str) {
        let Some(injected) = self.latent_corrupt.remove(&(block, node)) else {
            return;
        };
        let now = self.now();
        trace!(
            self.telemetry,
            now,
            Tel::CorruptionDetected {
                block: block.0,
                node: node.0,
                via: via.to_string(),
            }
        );
        self.telemetry.counter_add("hdfs.corruptions_detected", 1);
        self.telemetry.observe(
            "hdfs.corruption_detect_secs",
            now.since(injected).as_secs_f64(),
        );
        trace!(
            self.telemetry,
            now,
            Tel::CorruptQuarantined {
                block: block.0,
                node: node.0,
            }
        );
        self.telemetry
            .counter_add("hdfs.corruptions_quarantined", 1);
        self.corrupt_pending_repair.insert(block);
        self.remove_replica(block, node);
        if self.blockmap.replica_count(block) >= self.block_target(block).max(1) {
            // enough healthy copies remain: quarantining was the repair
            self.note_corruption_repaired(block, "spare");
        }
    }

    /// `block` is back at (or above) its target replica count after a
    /// quarantine: close out the corruption incident.
    fn note_corruption_repaired(&mut self, block: BlockId, via: &str) {
        if self.corrupt_pending_repair.remove(&block) {
            let now = self.now();
            trace!(
                self.telemetry,
                now,
                Tel::CorruptRepaired {
                    block: block.0,
                    via: via.to_string(),
                }
            );
            self.telemetry.counter_add("hdfs.corruptions_repaired", 1);
        }
    }

    /// The replica count `block` should be at: the blockmap target when
    /// set, else the owning file's replication (parities target 1).
    pub fn block_target(&self, block: BlockId) -> usize {
        if let Some(t) = self.blockmap.target(block) {
            return t;
        }
        let ns = &self.namespace;
        ns.block(block)
            .and_then(|i| {
                if i.is_parity {
                    Some(1)
                } else {
                    ns.file(i.file).map(|f| f.replication())
                }
            })
            .unwrap_or(self.cfg.default_replication)
    }

    /// Background scrub sweep: checksum up to `budget` blocks, the
    /// `priority` list first (hot data), then the global cursor order —
    /// every live block id ascending, wrapping around, so successive
    /// budgeted calls cover the whole namespace deterministically.
    /// Every corrupt copy found is quarantined via the detection path.
    /// Returns `(blocks scanned, corrupt copies found)`.
    pub fn scrub(&mut self, budget: usize, priority: &[BlockId]) -> (usize, usize) {
        if budget == 0 {
            return (0, 0);
        }
        let mut scanned = 0usize;
        let mut found = 0usize;
        let mut visited: BTreeSet<BlockId> = BTreeSet::new();
        for &b in priority {
            if scanned >= budget {
                break;
            }
            if self.namespace.block(b).is_none() || !visited.insert(b) {
                continue;
            }
            scanned += 1;
            found += self.verify_block_replicas(b);
        }
        if scanned < budget {
            // cursor order: all live block ids ascending, wrap-around
            let mut ids: Vec<BlockId> = Vec::new();
            for meta in self.namespace.files() {
                ids.extend(meta.blocks.iter().copied());
                if let StorageMode::Encoded { parity_blocks } = &meta.mode {
                    ids.extend(parity_blocks.iter().copied());
                }
            }
            ids.sort_unstable();
            if !ids.is_empty() {
                let start = ids.partition_point(|&b| b.0 < self.scrub_cursor);
                for i in 0..ids.len() {
                    if scanned >= budget {
                        break;
                    }
                    let b = ids[(start + i) % ids.len()];
                    self.scrub_cursor = b.0 + 1;
                    if !visited.insert(b) {
                        continue;
                    }
                    scanned += 1;
                    found += self.verify_block_replicas(b);
                }
            }
        }
        let now = self.now();
        trace!(
            self.telemetry,
            now,
            Tel::ScrubProgress {
                scanned: scanned as u64,
                cursor: self.scrub_cursor,
                found: found as u64,
            }
        );
        self.telemetry
            .counter_add("hdfs.scrub_blocks_scanned", scanned as u64);
        (scanned, found)
    }

    /// Checksum every live replica of `block`; quarantine the corrupt
    /// ones. Returns how many were corrupt.
    fn verify_block_replicas(&mut self, block: BlockId) -> usize {
        let bad: Vec<NodeId> = self
            .blockmap
            .replica_nodes(block)
            .iter()
            .copied()
            .filter(|&n| self.latent_corrupt.contains_key(&(block, n)))
            .collect();
        for n in &bad {
            self.detect_corruption(block, *n, "scrub");
        }
        bad.len()
    }

    /// Blocks quarantined for corruption and still below their target
    /// replica count (the scrubber's repair queue).
    pub fn corrupt_blocks_pending_repair(&self) -> Vec<BlockId> {
        self.corrupt_pending_repair.iter().copied().collect()
    }

    /// Undetected corrupt copies currently in the system (test/metrics
    /// visibility; a real namenode could not know this).
    pub fn latent_corrupt_count(&self) -> usize {
        self.latent_corrupt.len()
    }

    /// Whether `(block, node)` is a latently corrupt copy (undetected).
    pub fn is_replica_corrupt(&self, block: BlockId, node: NodeId) -> bool {
        self.latent_corrupt.contains_key(&(block, node))
    }

    /// Where the background scrub sweep will resume.
    pub fn scrub_cursor(&self) -> u64 {
        self.scrub_cursor
    }

    /// Start copies for every under-replicated block (HDFS's namenode
    /// repair loop, invoked explicitly by the driver or the ERMS
    /// self-healing tick). The copies count as repair traffic.
    ///
    /// Reads the block map's deficit index — O(deficient blocks), not a
    /// scan of every live block. Debug builds cross-check the index
    /// against the brute-force namespace-driven scan on every call.
    pub fn repair_under_replicated(&mut self) -> Vec<CopyId> {
        let want = self.blockmap.under_replicated_indexed();
        #[cfg(debug_assertions)]
        self.assert_deficit_index_consistent();
        let mut out = Vec::new();
        for (b, deficit) in want {
            out.extend(self.add_replicas(b, deficit));
        }
        self.repair_copies.extend(out.iter().copied());
        self.telemetry
            .counter_add("hdfs.repair_copies_started", out.len() as u64);
        out
    }

    /// Remove excess replicas of every over-replicated block (the
    /// namenode's excess-replica chooser) — restarted nodes block-report
    /// replicas the repair loop may have replaced in the meantime.
    /// Returns how many replicas were trimmed. Reads the deficit index,
    /// like [`ClusterSim::repair_under_replicated`].
    pub fn trim_over_replicated(&mut self) -> usize {
        let excess = self.blockmap.over_replicated_indexed();
        let mut trimmed = 0;
        for (b, extra) in excess {
            trimmed += self.remove_replicas(b, extra);
        }
        self.telemetry
            .counter_add("hdfs.replicas_trimmed", trimmed as u64);
        trimmed
    }

    /// Debug-build invariant: the incrementally maintained deficit index
    /// answers exactly what the brute-force scan (with targets derived
    /// from the namespace, as the scans historically did) answers.
    #[cfg(debug_assertions)]
    fn assert_deficit_index_consistent(&self) {
        let ns = &self.namespace;
        let under = self.blockmap.under_replicated(|b| {
            ns.block(b)
                .and_then(|i| ns.file(i.file))
                .map(|f| {
                    if i_is_parity(ns, b) {
                        1
                    } else {
                        f.replication()
                    }
                })
                .unwrap_or(0)
        });
        debug_assert_eq!(
            self.blockmap.under_replicated_indexed(),
            under,
            "deficit index diverged from namespace-driven scan"
        );
        let over = self.blockmap.over_replicated(|b| {
            ns.block(b)
                .and_then(|i| ns.file(i.file))
                .map(|f| {
                    if i_is_parity(ns, b) {
                        1
                    } else {
                        f.replication()
                    }
                })
                .unwrap_or(usize::MAX)
        });
        debug_assert_eq!(
            self.blockmap.over_replicated_indexed(),
            over,
            "excess index diverged from namespace-driven scan"
        );
    }

    /// Rebuild `block` onto `target` by streaming one surviving shard
    /// from each of `sources` — the RS reconstruction data path for
    /// encoded files. Unlike [`ClusterSim::add_replica_to`] this is
    /// *immediate*: it bypasses the replication-monitor staging because
    /// a dark block is the namenode's highest-priority queue. Roughly
    /// `sources.len() × len` bytes cross the network. Completion (and
    /// success) surfaces through [`ClusterSim::drain_completed_copies`].
    pub fn reconstruct_block(
        &mut self,
        block: BlockId,
        sources: &[NodeId],
        target: NodeId,
    ) -> Option<CopyId> {
        let len = self.namespace.block(block)?.len;
        let ti = target.0 as usize;
        if sources.is_empty()
            || self.nodes[ti].holds(block)
            || !self.nodes[ti].is_serving()
            || self.nodes[ti].free() < len
            || sources
                .iter()
                .any(|&s| s == target || !self.nodes[s.0 as usize].is_serving())
        {
            return None;
        }
        let id = CopyId(self.next_copy);
        self.next_copy += 1;
        self.copy_load[ti] += 1;
        let mut resources = vec![self.node_nic[ti], self.node_disk[ti]];
        for &s in sources {
            let si = s.0 as usize;
            self.copy_load[si] += 1;
            resources.push(self.node_disk[si]);
            resources.push(self.node_nic[si]);
            if self.topology.crosses_racks(s, target) {
                resources.push(self.rack_uplink[self.topology.rack_of(s).0 as usize]);
                resources.push(self.rack_uplink[self.topology.rack_of(target).0 as usize]);
            }
        }
        resources.sort_unstable();
        resources.dedup();
        let now = self.now();
        let flow = self.net.start(now, len * sources.len() as Bytes, resources);
        trace!(
            self.telemetry,
            now,
            Tel::ReconstructDispatched {
                copy: id.0,
                block: block.0,
                sources: sources.len() as u64,
                target: target.0,
            }
        );
        self.telemetry
            .counter_add("hdfs.reconstructions_dispatched", 1);
        self.transfers.insert(
            flow,
            Transfer::Reconstruct {
                copy: id,
                block,
                sources: sources.to_vec(),
                target,
                len,
                started: now,
            },
        );
        self.resync_and_aim();
        Some(id)
    }

    /// Tear down every transfer touching `n`. The pending `FlowDone` may
    /// name one of them: callers resync afterwards, which replaces it.
    fn fail_node_transfers(&mut self, n: NodeId, retry_reads: bool) {
        let now = self.now();
        // cancel flows touching the node
        let affected: Vec<(FlowId, Transfer)> = self
            .transfers
            .iter()
            .filter(|(_, t)| match t {
                Transfer::ReadBlock { node, .. } => *node == n,
                Transfer::Copy { source, target, .. } => *source == n || *target == n,
                Transfer::WriteBlock { targets, .. } => targets.contains(&n),
                Transfer::Reconstruct {
                    sources, target, ..
                } => *target == n || sources.contains(&n),
            })
            .map(|(&f, t)| (f, t.clone()))
            .collect();
        for (flow, t) in affected {
            self.net.remove(now, flow);
            self.transfers.remove(&flow);
            match t {
                Transfer::ReadBlock { read, .. } => {
                    let _ = retry_reads;
                    // re-resolve the block on another replica
                    self.advance_read(read);
                }
                Transfer::WriteBlock { write, targets, .. } => {
                    for t in targets {
                        self.copy_load[t.0 as usize] =
                            self.copy_load[t.0 as usize].saturating_sub(1);
                    }
                    // restart the block's pipeline with fresh targets
                    self.advance_write(write);
                }
                Transfer::Copy {
                    copy,
                    block,
                    source,
                    target,
                    started,
                    ..
                } => {
                    self.copy_streams[source.0 as usize] =
                        self.copy_streams[source.0 as usize].saturating_sub(1);
                    self.copy_load[source.0 as usize] =
                        self.copy_load[source.0 as usize].saturating_sub(1);
                    self.copy_load[target.0 as usize] =
                        self.copy_load[target.0 as usize].saturating_sub(1);
                    self.repair_copies.remove(&copy);
                    self.completed_copies.push(CopyStats {
                        id: copy,
                        block,
                        source,
                        target,
                        started,
                        finished: now,
                        succeeded: false,
                    });
                }
                Transfer::Reconstruct {
                    copy,
                    block,
                    sources,
                    target,
                    started,
                    ..
                } => {
                    for &s in &sources {
                        self.copy_load[s.0 as usize] =
                            self.copy_load[s.0 as usize].saturating_sub(1);
                    }
                    self.copy_load[target.0 as usize] =
                        self.copy_load[target.0 as usize].saturating_sub(1);
                    self.completed_copies.push(CopyStats {
                        id: copy,
                        block,
                        source: sources.first().copied().unwrap_or(target),
                        target,
                        started,
                        finished: now,
                        succeeded: false,
                    });
                }
            }
        }
        // retry queued sessions elsewhere
        let stale = self.nodes[n.0 as usize].drain_queue();
        for t in stale {
            if let Some(ps) = self.tickets.remove(&t) {
                self.advance_read(ps.read);
            }
        }
    }

    // ------------------------------------------------------------------
    // event loop

    /// Run until the event queue drains (all submitted work finished).
    pub fn run_until_quiescent(&mut self) -> SimTime {
        while self.fire_next() {}
        self.aim_flow_event();
        self.now()
    }

    /// Run events up to and including `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        simcore::prof_scope!("hdfs/run_until");
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.fire_next();
        }
        self.aim_flow_event();
        self.queue.advance_to(deadline);
        self.net.settle(deadline);
        self.now()
    }

    /// Process one event. Returns false when nothing is pending.
    pub fn step(&mut self) -> bool {
        let fired = self.fire_next();
        self.aim_flow_event();
        fired
    }

    /// [`step`](Self::step) inside the event loop: whatever the event
    /// changed stays unaimed until the loop has to order it.
    fn fire_next(&mut self) -> bool {
        let (t, ev) = if let Some(f) = self.flow_event_if_next() {
            self.flow_event = None;
            self.queue.advance_to(f.at);
            (f.at, Ev::FlowDone(f.flow))
        } else if let Some(queued) = self.queue.pop() {
            queued
        } else {
            return false;
        };
        match ev {
            Ev::BeginRead(id) => self.advance_read(id),
            Ev::NodeBooted(n) => {
                let ni = n.0 as usize;
                if self.nodes[ni].state == NodeState::Standby {
                    self.nodes[ni].state = NodeState::Active;
                    self.apply_node_capacity(n);
                    self.resync_flow_events();
                    trace!(
                        self.telemetry,
                        t,
                        Tel::StandbyPower {
                            node: n.0,
                            on: true
                        }
                    );
                }
            }
            Ev::FlowDone(flow) => self.on_flow_done(t, flow),
            Ev::StartCopy(id) => self.start_staged_copy(id),
            Ev::Timer(token) => self.fired_timers.push((t, token)),
        }
        true
    }

    fn on_flow_done(&mut self, now: SimTime, flow: FlowId) {
        let Some(transfer) = self.transfers.remove(&flow) else {
            // the two tables are kept in step; should they ever part, drop
            // the orphan so its siblings get its share and the run drains
            debug_assert!(false, "{flow:?} completed without a transfer");
            self.net.remove(now, flow);
            self.resync_flow_events();
            return;
        };
        self.net.remove(now, flow);
        match transfer {
            Transfer::ReadBlock { read, block, node } => {
                let len = self.block_len_or_zero(block);
                let path = self
                    .reads
                    .get(&read)
                    .map(|r| r.path.clone())
                    .unwrap_or_default();
                // free the session; maybe admit a queued reader
                self.admit_next(node);
                if self.latent_corrupt.contains_key(&(block, node)) {
                    // checksum mismatch at the client: the bytes never
                    // count, the copy is quarantined, and the read fails
                    // over to the surviving replicas (advance_read
                    // re-resolves; no holders left ⇒ failed read)
                    self.detect_corruption(block, node, "read");
                    if self.reads.contains_key(&read) {
                        self.advance_read(read);
                    }
                } else {
                    self.audit.block_read(now, block, node, &path, len);
                    // the block-read line shifts the owning file's
                    // per-block demand statistics: re-examine it
                    self.mark_block_dirty(block);
                    if let Some(req) = self.reads.get_mut(&read) {
                        req.bytes_done += len;
                        req.pending_blocks.pop_front();
                        if req.pending_blocks.is_empty() {
                            self.finish_read(read, false);
                        } else {
                            self.advance_read(read);
                        }
                    }
                }
            }
            Transfer::WriteBlock {
                write,
                block,
                targets,
                len,
            } => {
                for &t in &targets {
                    self.copy_load[t.0 as usize] = self.copy_load[t.0 as usize].saturating_sub(1);
                }
                for t in targets {
                    if self.nodes[t.0 as usize].is_serving()
                        && self.nodes[t.0 as usize].add_block(block, len)
                    {
                        self.blockmap.add(block, t);
                    }
                }
                self.mark_block_dirty(block);
                if let Some(req) = self.writes.get_mut(&write) {
                    req.bytes_done += len;
                    req.pending_blocks.pop_front();
                    if req.pending_blocks.is_empty() {
                        self.finish_write(write, false);
                    } else {
                        self.advance_write(write);
                    }
                }
            }
            Transfer::Copy {
                copy,
                block,
                source,
                target,
                len,
                started,
            } => {
                self.copy_streams[source.0 as usize] =
                    self.copy_streams[source.0 as usize].saturating_sub(1);
                self.copy_load[source.0 as usize] =
                    self.copy_load[source.0 as usize].saturating_sub(1);
                self.copy_load[target.0 as usize] =
                    self.copy_load[target.0 as usize].saturating_sub(1);
                // verified repair: the target checksums what it received,
                // so a corrupt source is caught here and never propagates
                // — the copy fails and the rotten source is quarantined
                let source_corrupt = self.latent_corrupt.contains_key(&(block, source));
                if source_corrupt {
                    self.detect_corruption(block, source, "copy");
                }
                let ok = !source_corrupt
                    && self.nodes[target.0 as usize].is_serving()
                    && self.nodes[target.0 as usize].add_block(block, len);
                if ok {
                    self.blockmap.add(block, target);
                    self.mark_block_dirty(block);
                    if self.blockmap.replica_count(block) >= self.block_target(block).max(1) {
                        self.note_corruption_repaired(block, "copy");
                    }
                }
                if self.repair_copies.remove(&copy) && ok {
                    self.durability.add_repair_bytes(len);
                }
                if ok {
                    trace!(
                        self.telemetry,
                        now,
                        Tel::CopyCompleted {
                            copy: copy.0,
                            block: block.0,
                            target: target.0,
                        }
                    );
                    self.telemetry
                        .observe("hdfs.copy_secs", now.since(started).as_secs_f64());
                    self.telemetry.counter_add("hdfs.copies_completed", 1);
                    self.telemetry.counter_add("hdfs.bytes_replicated", len);
                }
                self.completed_copies.push(CopyStats {
                    id: copy,
                    block,
                    source,
                    target,
                    started,
                    finished: now,
                    succeeded: ok,
                });
                // the new replica may unblock queued copies as a source
                self.dispatch_replications();
            }
            Transfer::Reconstruct {
                copy,
                block,
                sources,
                target,
                len,
                started,
            } => {
                for &s in &sources {
                    self.copy_load[s.0 as usize] = self.copy_load[s.0 as usize].saturating_sub(1);
                }
                self.copy_load[target.0 as usize] =
                    self.copy_load[target.0 as usize].saturating_sub(1);
                let was_dark = self.blockmap.replica_count(block) == 0;
                // RS decode verifies the stripe: a corrupt shard among
                // the streamed sources fails the reconstruction and is
                // itself detected and quarantined. Each source streams
                // its shard of this block's stripe (= owning file).
                let stripe_file = self.namespace.block(block).map(|i| i.file);
                let bad_shards: Vec<(BlockId, NodeId)> = sources
                    .iter()
                    .flat_map(|&s| {
                        self.nodes[s.0 as usize]
                            .blocks()
                            .filter(|&sb| {
                                self.namespace.block(sb).map(|i| i.file) == stripe_file
                                    && self.latent_corrupt.contains_key(&(sb, s))
                            })
                            .map(move |sb| (sb, s))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let decode_failed = !bad_shards.is_empty();
                for (sb, sn) in bad_shards {
                    self.detect_corruption(sb, sn, "copy");
                }
                let ok = !decode_failed
                    && self.nodes[target.0 as usize].is_serving()
                    && self.nodes[target.0 as usize].add_block(block, len);
                if ok {
                    self.blockmap.add(block, target);
                    self.mark_block_dirty(block);
                    self.note_corruption_repaired(block, "reconstruct");
                    self.durability
                        .add_repair_bytes(len * sources.len() as Bytes);
                    if was_dark {
                        self.note_replica_restored(block);
                    }
                    trace!(
                        self.telemetry,
                        now,
                        Tel::CopyCompleted {
                            copy: copy.0,
                            block: block.0,
                            target: target.0,
                        }
                    );
                    self.telemetry
                        .observe("hdfs.reconstruct_secs", now.since(started).as_secs_f64());
                    self.telemetry
                        .counter_add("hdfs.reconstructions_completed", 1);
                }
                self.completed_copies.push(CopyStats {
                    id: copy,
                    block,
                    source: sources.first().copied().unwrap_or(target),
                    target,
                    started,
                    finished: now,
                    succeeded: ok,
                });
                self.dispatch_replications();
            }
        }
        self.resync_flow_events();
    }

    fn admit_next(&mut self, node: NodeId) {
        loop {
            match self.nodes[node.0 as usize].release_session() {
                None => break,
                Some(t) => {
                    if let Some(ps) = self.tickets.remove(&t) {
                        self.start_block_flow(ps.read, ps.block, ps.node);
                        break;
                    }
                    // stale ticket consumed a slot; release again
                }
            }
        }
    }

    /// Rates changed: the pending `FlowDone` must be re-aimed.
    ///
    /// The schedule is defined as if every active flow got a completion
    /// event here, in `FlowId` order with consecutive ids. Only the
    /// earliest of those could ever fire — it ends in the next resync,
    /// which would replace all the others — so it alone is kept, under
    /// the id its rank gives it, and the id counter moves past the rest.
    /// Every event id and same-nanosecond tie-break in the run depends
    /// on that numbering, so the batch is reserved here, at every call.
    /// Finding the earliest completion is what costs (a filling and a
    /// scan of the flows) and is left to [`Self::aim_flow_event`]: a later
    /// resync at the same instant replaces the batch before anyone looked.
    fn resync_flow_events(&mut self) {
        debug_assert_eq!(self.transfers.len(), self.net.active_flows());
        self.resyncs += 1;
        self.unaimed = Some(self.queue.reserve_seqs(self.net.active_flows() as u64));
        #[cfg(test)]
        if self.eager_aim {
            self.aim_flow_event();
        }
    }

    /// Resync from a mutator called from outside the event loop, which
    /// must leave nothing unaimed behind.
    fn resync_and_aim(&mut self) {
        self.resync_flow_events();
        self.aim_flow_event();
    }

    /// Name the completion of the last resync, if that is still owed. Only
    /// events at `now` fire while a batch is unaimed and every change to
    /// the flows is a resync, so it is the one the resync would have named.
    fn aim_flow_event(&mut self) {
        let Some(first) = self.unaimed.take() else {
            return;
        };
        simcore::prof_scope!("flow_aim");
        self.flow_event = self.net.next_completion(self.now()).map(|next| FlowEvent {
            at: next.at,
            id: EventId::from_raw(first.raw() + next.rank as u64),
            flow: next.flow,
        });
    }

    /// The pending flow completion, if it fires before the queue's head.
    ///
    /// An unaimed batch is aimed here unless the head makes the answer
    /// moot: an event at the current instant numbered below the batch
    /// precedes any completion the batch could name (`at ≥ now`,
    /// `id ≥ first`), and firing it may well resync again.
    fn flow_event_if_next(&mut self) -> Option<FlowEvent> {
        let head = self.queue.peek();
        if let Some(first) = self.unaimed {
            if head.is_some_and(|(at, id)| at <= self.now() && id < first) {
                return None;
            }
            self.aim_flow_event();
        }
        let f = self.flow_event?;
        head.is_none_or(|head| (f.at, f.id) < head).then_some(f)
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        match self.flow_event_if_next() {
            Some(f) => Some(f.at),
            None => self.queue.peek_time(),
        }
    }
}

#[cfg_attr(not(debug_assertions), allow(dead_code))]
fn i_is_parity(ns: &Namespace, b: BlockId) -> bool {
    ns.block(b).map(|i| i.is_parity).unwrap_or(false)
}

// ----------------------------------------------------------------------
// checkpoint/restore
//
// The cluster's dynamic state — everything above — round-trips through
// the `checkpoint` crate's Value tree. Static wiring (config, topology,
// placement policy, telemetry sink, the constructor-ordered disk/NIC/
// uplink resource ids) is NOT captured: restore hydrates a freshly
// constructed `ClusterSim` built from the same config, then overwrites
// the dynamic fields. Crucially the event queue is restored verbatim
// (ids, id counter and all) and `resync_flow_events` is NOT run. The
// pending flow completion travels as the queue entry it stands for and
// is lifted back out on load; a resync in its place would reserve a
// fresh batch of ids, so every event scheduled after the restore would
// be numbered differently from the straight-through run, and it would
// re-derive the completion time from a flow model that has since been
// settled to the snapshot instant, which rounds to a different
// nanosecond. Either breaks bit-identical resume.

checkpoint::ck_id!(ReadId, CopyId, WriteId);
checkpoint::ck_record!(ReadStats {
    id,
    path,
    reader,
    bytes,
    started,
    finished,
    node_local_blocks => "node_local",
    rack_local_blocks => "rack_local",
    remote_blocks => "remote",
    failed,
});
checkpoint::ck_record!(CopyStats {
    id,
    block,
    source,
    target,
    started,
    finished,
    succeeded
});
checkpoint::ck_record!(WriteStats {
    id,
    path,
    bytes,
    started,
    finished,
    failed
});
checkpoint::ck_record!(ReadReq {
    id,
    reader,
    path,
    pending_blocks,
    bytes_done,
    started,
    node_local,
    rack_local,
    remote,
    failed,
});
checkpoint::ck_record!(WriteReq {
    id,
    writer,
    file,
    path,
    replication,
    pending_blocks,
    bytes_done,
    started,
    failed,
});
checkpoint::ck_record!(StagedCopy {
    block,
    target,
    len,
    requested
});
checkpoint::ck_record!(PendingSession [read, block, node]);

impl Keyed for ReadReq {
    type Key = ReadId;
    fn key(&self) -> ReadId {
        self.id
    }
}

impl Keyed for WriteReq {
    type Key = WriteId;
    fn key(&self) -> WriteId {
        self.id
    }
}

checkpoint::ck_tagged!(Ev, "k" {
    "read" => BeginRead(id),
    "flow" => FlowDone(id),
    "boot" => NodeBooted(id),
    "copy" => StartCopy(id),
    "timer" => Timer(id),
});
checkpoint::ck_tagged!(Transfer, "k" {
    "read" => ReadBlock { read, block, node },
    "write" => WriteBlock { write, block, targets, len },
    "copy" => Copy { copy, block, source, target, len, started },
    "reconstruct" => Reconstruct { copy, block, sources, target, len, started },
});

impl Transfer {
    /// Every node the transfer reads from or lands on.
    fn nodes(&self) -> Vec<NodeId> {
        match self {
            Transfer::ReadBlock { node, .. } => vec![*node],
            Transfer::WriteBlock { targets, .. } => targets.clone(),
            Transfer::Copy { source, target, .. } => vec![*source, *target],
            Transfer::Reconstruct {
                sources, target, ..
            } => sources.iter().copied().chain([*target]).collect(),
        }
    }
}

impl checkpoint::Checkpointable for ClusterSim {
    checkpoint::ck_fields! {
        namespace: state,
        blockmap(save_blockmap, load_blockmap),
        net: state,
        audit: state,
        nodes,
        queue(save_queue, load_queue),
        client_nic,
        reads: keyed,
        next_read,
        writes: keyed,
        next_write,
        completed_writes,
        transfers,
        flow_events(save_flow_events, check_flow_events),
        tickets,
        next_ticket,
        next_copy,
        completed_reads,
        completed_copies,
        fired_timers,
        standby_pool,
        copy_load,
        staged_copies,
        ready_copies,
        copy_streams,
        retained,
        slowdown,
        rack_down,
        repair_copies,
        durability: state,
        dirty_files,
        deleted_files,
        latent_corrupt,
        corrupt_pending_repair,
        scrub_cursor;
        then check_loaded
    }
}

/// The irregular snapshot sections, and what the decoders cannot check.
impl ClusterSim {
    fn save_blockmap(&self) -> Value {
        self.blockmap.save_state()
    }

    fn load_blockmap(&mut self, v: &Value) -> Result<(), CheckpointError> {
        self.blockmap
            .load_state(v, self.namespace.next_block(), self.node_disk.len())
    }

    /// The pending flow completion is written where it sorts among the
    /// queue's entries, as the queued event it stands for.
    fn save_queue(&self) -> Value {
        debug_assert!(self.unaimed.is_none() && self.net.is_filled());
        let mut qs = self.queue.snapshot();
        if let Some(f) = self.flow_event {
            let pos = qs
                .entries
                .partition_point(|&(at, seq, _)| (at, seq) < (f.at, f.id.raw()));
            qs.entries
                .insert(pos, (f.at, f.id.raw(), Ev::FlowDone(f.flow)));
        }
        qs.put()
    }

    /// The event queue is restored verbatim: same entries, same seqs,
    /// same id counter — deliberately NOT re-derived from the flow
    /// table, so resumed runs replay the identical schedule.
    ///
    /// Flow completions leave the queue: the first to pop becomes the
    /// pending one. A snapshot may list a completion for every active
    /// flow (`flow_events` then pairs each with its event); only the
    /// earliest can fire before the resync it ends in replaces them
    /// all, so dropping the others here leaves the resumed schedule
    /// exactly as it was.
    fn load_queue(&mut self, v: &Value) -> Result<(), CheckpointError> {
        let mut qs = QueueSnapshot::<Ev>::take(v, "queue")?;
        self.flow_event = qs
            .entries
            .iter()
            .filter_map(|(at, seq, ev)| match ev {
                Ev::FlowDone(flow) => Some((*at, *seq, *flow)),
                _ => None,
            })
            .min()
            .map(|(at, seq, flow)| FlowEvent {
                at,
                id: EventId::from_raw(seq),
                flow,
            });
        qs.entries
            .retain(|(_, _, ev)| !matches!(ev, Ev::FlowDone(_)));
        for (_, _, ev) in &qs.entries {
            if let Ev::NodeBooted(n) = ev {
                self.known_node(*n, "queue.entries")?;
            }
        }
        self.queue = EventQueue::restore(qs);
        Ok(())
    }

    fn save_flow_events(&self) -> Value {
        debug_assert!(self.unaimed.is_none() && self.net.is_filled());
        let pending: Vec<(FlowId, u64)> = self
            .flow_event
            .iter()
            .map(|f| (f.flow, f.id.raw()))
            .collect();
        pending.put()
    }

    /// `flow_events` carries no state of its own: it must list the
    /// pending completion [`load_queue`](Self::load_queue) lifted out.
    fn check_flow_events(&mut self, v: &Value) -> Result<(), CheckpointError> {
        let listed = Vec::<(FlowId, u64)>::take(v, "flow_events")?;
        let pending_listed = match self.flow_event {
            Some(f) => listed.contains(&(f.flow, f.id.raw())),
            None => listed.is_empty(),
        };
        if !pending_listed {
            return Err(CheckpointError::Corrupt(
                "`flow_events` disagrees with the queued flow completions".into(),
            ));
        }
        Ok(())
    }

    fn known_node(&self, n: NodeId, at: &str) -> Result<(), CheckpointError> {
        let nodes = self.node_disk.len();
        if (n.0 as usize) < nodes {
            return Ok(());
        }
        Err(CheckpointError::Corrupt(format!(
            "`{at}`: {n} of {nodes} nodes"
        )))
    }

    /// What must hold between the loaded fields and the cluster they
    /// were loaded into before anything indexes by them: one entry per
    /// node (or rack) in every per-node vector, every node id naming a
    /// node, every resource id a registered resource.
    fn check_loaded(&self) -> Result<(), CheckpointError> {
        let shaped = |what: &str, len: usize, want: usize| {
            if len == want {
                return Ok(());
            }
            Err(CheckpointError::Corrupt(format!(
                "snapshot has {len} `{what}` entries, cluster has {want} — wrong scenario config?"
            )))
        };
        let nodes = self.node_disk.len();
        shaped("nodes", self.nodes.len(), nodes)?;
        shaped("standby_pool", self.standby_pool.len(), nodes)?;
        shaped("copy_load", self.copy_load.len(), nodes)?;
        shaped("copy_streams", self.copy_streams.len(), nodes)?;
        shaped("slowdown", self.slowdown.len(), nodes)?;
        shaped("rack_down", self.rack_down.len(), self.rack_uplink.len())?;

        for (i, node) in self.nodes.iter().enumerate() {
            let ascending = node.blocks().zip(node.blocks().skip(1)).all(|(a, b)| a < b);
            if node.id.0 as usize != i || !ascending {
                return Err(CheckpointError::Corrupt(format!(
                    "`nodes[{i}]`: wrong id or unsorted block list"
                )));
            }
        }
        let endpoints = (self.reads.values().map(|r| r.reader))
            .chain(self.writes.values().map(|w| w.writer))
            .filter_map(|e| match e {
                Endpoint::Node(n) => Some(n),
                Endpoint::Client(_) => None,
            });
        let named = (self.transfers.values().flat_map(Transfer::nodes))
            .chain(endpoints)
            .chain(self.tickets.values().map(|t| t.node))
            .chain(self.staged_copies.values().map(|s| s.target))
            .chain(self.ready_copies.iter().map(|(_, s)| s.target))
            .chain(self.retained.keys().copied())
            .chain(self.latent_corrupt.keys().map(|&(_, n)| n));
        for n in named {
            self.known_node(n, "cluster")?;
        }

        if !self.transfers.keys().copied().eq(self.net.flow_ids()) {
            return Err(CheckpointError::Corrupt(
                "`transfers` and `net.flows` name different flows".into(),
            ));
        }

        let registered = self.net.resources();
        let wired = nodes * 2 + self.rack_uplink.len();
        if registered < wired || self.client_nic.values().any(|r| r.0 >= registered) {
            return Err(CheckpointError::Corrupt(format!(
                "`net.capacities`: {registered} resources registered, {wired} wired plus the client NICs needed"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::DefaultRackAware;
    use checkpoint::codec::get;
    use simcore::units::MB;

    fn sim() -> ClusterSim {
        ClusterSim::new(ClusterConfig::paper_testbed(), Box::new(DefaultRackAware))
    }

    #[test]
    fn checkpoint_mid_flight_resumes_identically() {
        use checkpoint::Checkpointable;
        // Drive two runs from the same script; checkpoint one mid-read
        // (in-flight flows, queued copies, a killed node) and hydrate a
        // fresh cluster from the JSON round trip of its state.
        let script = |c: &mut ClusterSim| {
            c.create_file("/a", 256 * MB, 3, Some(NodeId(0))).unwrap();
            c.create_file("/b", 64 * MB, 2, Some(NodeId(3))).unwrap();
            for i in 0..5 {
                c.open_read(Endpoint::Client(ClientId(i)), "/a").unwrap();
            }
            c.open_read(Endpoint::Client(ClientId(9)), "/b").unwrap();
            c.run_until(SimTime::from_millis(700));
            c.kill_node(NodeId(1));
            c.repair_under_replicated();
            c.run_until(SimTime::from_millis(900));
        };
        let mut straight = sim();
        script(&mut straight);

        let mut saved = sim();
        script(&mut saved);
        let json = serde_json::to_string(&saved.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut resumed = sim();
        resumed.load_state(&back).unwrap();
        assert_eq!(resumed.now(), saved.now());
        assert_eq!(resumed.storage_used(), saved.storage_used());

        // Both continue to quiescence and must agree exactly.
        straight.run_until_quiescent();
        resumed.run_until_quiescent();
        assert_eq!(resumed.now(), straight.now());
        assert_eq!(resumed.storage_used(), straight.storage_used());
        let a: Vec<_> = straight
            .drain_completed_reads()
            .iter()
            .map(|r| (r.id, r.bytes, r.finished, r.failed))
            .collect();
        let b: Vec<_> = resumed
            .drain_completed_reads()
            .iter()
            .map(|r| (r.id, r.bytes, r.finished, r.failed))
            .collect();
        assert_eq!(a, b, "read completions must match after resume");
        let ca: Vec<_> = straight
            .drain_completed_copies()
            .iter()
            .map(|s| (s.id, s.block, s.target, s.finished, s.succeeded))
            .collect();
        let cb: Vec<_> = resumed
            .drain_completed_copies()
            .iter()
            .map(|s| (s.id, s.block, s.target, s.finished, s.succeeded))
            .collect();
        assert_eq!(ca, cb, "copy completions must match after resume");
        assert_eq!(straight.drain_audit(), resumed.drain_audit());
    }

    fn crowd_cluster() -> ClusterSim {
        let cfg = ClusterConfig {
            datanodes: 60,
            racks: 6,
            max_sessions_per_node: 24,
            ..ClusterConfig::paper_testbed()
        };
        ClusterSim::new(cfg, Box::new(DefaultRackAware))
    }

    /// 240 clients each reading one of 24 four-block files on a 60-node
    /// cluster: more than 200 flows at once.
    fn read_crowd() -> ClusterSim {
        let mut c = crowd_cluster();
        for f in 0..24 {
            c.create_file(&format!("/crowd/{f}"), 256 * MB, 3, None)
                .unwrap();
        }
        for i in 0..240u32 {
            let path = format!("/crowd/{}", i % 24);
            c.open_read(Endpoint::Client(ClientId(i)), &path).unwrap();
        }
        c
    }

    /// What a finished run leaves behind: each read's `(id, bytes,
    /// finished, failed)`, the audit log and the end time.
    type Ledger = (Vec<(ReadId, Bytes, SimTime, bool)>, Vec<String>, SimTime);

    fn finish(c: &mut ClusterSim) -> Ledger {
        let end = c.run_until_quiescent();
        let reads = c
            .drain_completed_reads()
            .iter()
            .map(|r| (r.id, r.bytes, r.finished, r.failed))
            .collect();
        (reads, c.drain_audit(), end)
    }

    /// What holds between events however many flows there are: no
    /// tombstones, and one pending completion beside the heap.
    fn crowd_invariants(c: &ClusterSim) -> QueueStats {
        let q = c.queue_stats();
        assert!(q.heap_len <= q.live_events, "tombstones pile up: {q:?}");
        assert_eq!(c.flow_event.is_some(), q.active_flows > 0, "{q:?}");
        let in_heap = c.queue.snapshot().entries;
        assert!(!in_heap
            .iter()
            .any(|(_, _, ev)| matches!(ev, Ev::FlowDone(_))));
        q
    }

    #[test]
    fn a_read_crowd_keeps_one_flow_completion_and_a_heap_of_live_events() {
        let mut c = read_crowd();
        let mut peak_flows = 0;
        loop {
            let q = crowd_invariants(&c);
            peak_flows = peak_flows.max(q.active_flows);
            if !c.step() {
                break;
            }
        }
        assert!(peak_flows >= 200, "only {peak_flows} flows at once");
        assert_eq!(c.queue_stats().live_events, 0);
        let (reads, _, _) = finish(&mut c);
        assert_eq!(reads.len(), 240);
        assert!(reads.iter().all(|r| r.1 == 256 * MB && !r.3));
        // every client's NIC stays registered after its read
        assert_eq!(c.queue_stats().resources, 2 * 60 + 6 + 240);
    }

    #[test]
    fn a_read_crowd_fills_rates_once_per_instant() {
        // stepped from outside, every event is a public call of its own
        // and is aimed for; that run supplies what happened and when
        let mut stepped = read_crowd();
        let (mut queue_instants, mut completions) = (BTreeSet::new(), 0u64);
        let mut last = crowd_invariants(&stepped);
        loop {
            let is_completion = stepped.flow_event_if_next().is_some();
            if !stepped.step() {
                break;
            }
            if is_completion {
                completions += 1;
            } else {
                queue_instants.insert(stepped.now());
            }
            let q = crowd_invariants(&stepped);
            assert!(q.fillings >= last.fillings && q.resyncs >= last.resyncs);
            last = q;
        }
        assert_eq!((queue_instants.len(), completions), (1, 240 * 4));

        let mut c = read_crowd();
        assert_eq!(c.queue_stats().resyncs, 0, "opening a read changes no flow");
        // all 240 reads begin at one instant: 240 changes, one filling
        c.run_until(c.now() + c.cfg.request_overhead);
        let q = c.queue_stats();
        assert_eq!((q.active_flows, q.resyncs, q.fillings), (240, 240, 1));
        c.run_until_quiescent();
        let q = c.queue_stats();
        assert_eq!(q.resyncs, last.resyncs, "the same schedule either way");
        // rates are filled where the loop has to name the next completion:
        // once for an instant's queued events, once after each completion
        // (many of this symmetric crowd's land on one nanosecond, and the
        // successor of each can only be named from fresh rates)
        assert!(q.fillings <= 1 + completions, "{q:?}");
        assert!(q.fillings < last.fillings, "{q:?} vs stepped {last:?}");
        let per_filling = q.resyncs as f64 / q.fillings as f64;
        assert!(per_filling >= 1.8, "{per_filling:.2} resyncs per filling");
        assert_eq!(finish(&mut c), finish(&mut stepped));
    }

    /// Load `state` into a fresh crowd cluster, check it re-saves as
    /// `expect` and finish the run.
    fn resume_crowd(state: &checkpoint::Value, expect: &checkpoint::Value) -> Ledger {
        use checkpoint::Checkpointable;
        let json = serde_json::to_string(state).unwrap();
        let mut resumed = crowd_cluster();
        resumed
            .load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert!(
            resumed.save_state() == *expect,
            "reloaded state re-saves differently"
        );
        finish(&mut resumed)
    }

    #[test]
    fn a_crowd_snapshot_resumes_to_the_straight_through_run() {
        use checkpoint::Checkpointable;
        let mut straight = read_crowd();
        straight.run_until(SimTime::from_millis(1500));
        let q = straight.queue_stats();
        assert!(q.active_flows >= 200, "{q:?}");
        let state = straight.save_state();
        assert_eq!(listed_flow_events(&state), 1, "one completion for {q:?}");

        assert_eq!(resume_crowd(&state, &state), finish(&mut straight));
    }

    /// `c`'s state as a build that queued a completion per active flow
    /// wrote it. Exact only straight after a resync, while the flow
    /// model's settle point is still the resync's `now`.
    fn saved_with_every_flow_queued(c: &mut ClusterSim) -> Value {
        use checkpoint::Checkpointable;
        let now = c.now();
        let pending = c.flow_event.unwrap();
        let rank = c.transfers.keys().position(|&f| f == pending.flow).unwrap();
        let first_id = pending.id.raw() - rank as u64;
        let all: Vec<(SimTime, u64, FlowId)> = c
            .transfers
            .keys()
            .enumerate()
            .map(|(i, &f)| (c.net.eta(f).unwrap().max(now), first_id + i as u64, f))
            .collect();
        assert_eq!(
            all.iter().min(),
            Some(&(pending.at, pending.id.raw(), pending.flow))
        );

        let mut state = c.save_state();
        let listed: Vec<(FlowId, u64)> = all.iter().map(|&(_, id, f)| (f, id)).collect();
        *at_mut(&mut state, &["flow_events"]) = listed.put();
        let mut qs: QueueSnapshot<Ev> = get(&state, "queue").unwrap();
        qs.entries.retain(|e| !matches!(e.2, Ev::FlowDone(_)));
        qs.entries
            .extend(all.iter().map(|&(at, id, f)| (at, id, Ev::FlowDone(f))));
        qs.entries.sort_by_key(|e| (e.0, e.1));
        *at_mut(&mut state, &["queue"]) = qs.put();
        state
    }

    fn listed_flow_events(state: &Value) -> usize {
        get::<Vec<(FlowId, u64)>>(state, "flow_events")
            .unwrap()
            .len()
    }

    #[test]
    fn a_snapshot_with_every_flow_queued_loads_as_the_one_pending_completion() {
        use checkpoint::Checkpointable;
        let mut straight = read_crowd();
        straight.run_until(SimTime::from_millis(1500));
        // a no-op capacity change: settles the flows and resyncs at `now`
        straight.set_node_slowdown(NodeId(0), 1.0);
        let flows = straight.queue_stats().active_flows;
        assert!(flows >= 200, "{flows} flows");

        let old_format = saved_with_every_flow_queued(&mut straight);
        assert_eq!(listed_flow_events(&old_format), flows);
        let resumed = resume_crowd(&old_format, &straight.save_state());
        assert_eq!(resumed, finish(&mut straight));
    }

    #[test]
    fn flow_events_must_list_the_pending_completion() {
        use checkpoint::Checkpointable;
        let mut c = read_crowd();
        c.run_until(SimTime::from_millis(1500));
        let mut state = c.save_state();
        *at_mut(&mut state, &["flow_events"]) = Value::Seq(Vec::new());
        match crowd_cluster().load_state(&state) {
            Err(checkpoint::CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains("flow_events"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A cluster caught with every snapshot field populated and nothing
    /// drained: a session-capped read crowd, a pipelined write in
    /// flight, finished reads, writes and copies, copies staged, waiting
    /// for a stream and in flight, a reconstruction, a fired timer, an
    /// open, a closed and a lost durability window, a crashed disk,
    /// latent and quarantined corruption, an encoded file, a deleted
    /// file, a straggler and a failed rack uplink.
    fn busy_cluster() -> ClusterSim {
        let mut c = sim();
        let client = |i| Endpoint::Client(ClientId(i));
        c.schedule_timer(SimTime::from_secs(1), 77);
        let one = c.create_file("/one", 64 * MB, 1, Some(NodeId(0))).unwrap();
        c.create_file("/hot", 64 * MB, 1, Some(NodeId(5))).unwrap();
        c.create_file("/small", MB, 3, Some(NodeId(2))).unwrap();
        c.create_file("/open", 64 * MB, 1, Some(NodeId(7))).unwrap();
        c.create_file("/closed", 64 * MB, 1, Some(NodeId(8)))
            .unwrap();
        c.create_file("/lost", 64 * MB, 1, Some(NodeId(9))).unwrap();
        c.create_file("/wide", 128 * MB, 3, Some(NodeId(10)))
            .unwrap();
        c.create_file("/gone", MB, 2, None).unwrap();
        let enc = c
            .create_file("/enc", 128 * MB, 1, Some(NodeId(12)))
            .unwrap();
        let (parity, _) = c.place_parity_block(enc, 0, 64 * MB).unwrap();
        c.mark_encoded(enc, vec![parity]);

        // ten copies of a single-replica block, two streams per holder:
        // most wait their turn
        let b_one = c.namespace().file(one).unwrap().blocks[0];
        for n in [1, 2, 3, 4, 6, 11, 13, 14, 15, 17] {
            c.add_replica_to(b_one, NodeId(n)).unwrap();
        }
        for i in 0..25 {
            c.open_read(client(i), "/hot").unwrap();
        }
        c.open_read(client(100), "/small").unwrap();
        c.open_read(Endpoint::Node(NodeId(2)), "/small").unwrap();
        c.write_file(client(200), "/w-long", 640 * MB, 3).unwrap();
        c.write_file(client(201), "/w-short", 4 * MB, 2).unwrap();
        c.run_until(SimTime::from_secs(2));

        assert!(c.crash_node(NodeId(7)));
        assert!(c.crash_node(NodeId(8)));
        c.kill_node(NodeId(9));
        assert!(c.corrupt_replica(NodeId(10), 0, false));
        assert_eq!(c.scrub(1000, &[]).1, 1, "the scrubber finds the rot");
        assert!(c.delete_file("/gone"));
        c.set_node_slowdown(NodeId(3), 0.25);
        c.fail_rack_uplink(RackId(2));
        c.run_until(SimTime::from_millis(4900));
        assert_eq!(c.restart_node(NodeId(8)), Some(1));
        assert!(!c.repair_under_replicated().is_empty());
        // a data block of the encoded file goes dark and is rebuilt
        // from its stripe
        let b_enc = c.namespace().file(enc).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b_enc)[0];
        c.crash_node(holder);
        let sources: Vec<NodeId> = [NodeId(14), NodeId(15)]
            .into_iter()
            .filter(|&n| n != holder)
            .collect();
        c.reconstruct_block(b_enc, &sources, NodeId(16)).unwrap();
        assert!(c.corrupt_replica(NodeId(2), 0, false));
        c.run_until(SimTime::from_secs(5));
        c
    }

    fn fnv(bytes: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut h = cep::fnv::FnvHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn a_busy_cluster_snapshot_is_pinned_and_reloads_byte_for_byte() {
        use checkpoint::Checkpointable;
        let c = busy_cluster();
        assert!(!c.reads.is_empty() && !c.completed_reads.is_empty());
        assert!(!c.writes.is_empty() && !c.completed_writes.is_empty());
        assert!(!c.completed_copies.is_empty());
        assert!(!c.staged_copies.is_empty() && !c.ready_copies.is_empty());
        assert!(!c.tickets.is_empty() && !c.fired_timers.is_empty());
        assert!(c.nodes.iter().any(|n| n.queued_sessions() > 0));
        assert!(!c.dirty_files.is_empty() && !c.deleted_files.is_empty());
        assert!(!c.latent_corrupt.is_empty() && !c.corrupt_pending_repair.is_empty());
        assert!(!c.retained.is_empty() && !c.repair_copies.is_empty());
        assert!(c.audit.pending() > 0);
        let d = c.durability.state();
        assert!(!d.open.is_empty() && !d.windows.is_empty() && !d.lost.is_empty());
        for kind in ["ReadBlock", "WriteBlock", "Copy", "Reconstruct"] {
            assert!(
                c.transfers
                    .values()
                    .any(|t| format!("{t:?}").starts_with(kind)),
                "no {kind} transfer in flight"
            );
        }
        assert!(c.namespace.files().any(|f| f.is_encoded()));
        assert!(c.flow_event.is_some() && c.queue_stats().live_events > 0);

        let json = serde_json::to_string(&c.save_state()).unwrap();
        println!(
            "busy cluster: {:#018x} {}",
            fnv(json.as_bytes()),
            json.len()
        );
        assert_eq!(
            (fnv(json.as_bytes()), json.len()),
            (0x94ee_eb26_f6ee_2d20, 20302),
            "busy-cluster snapshot bytes changed"
        );
        let mut back = sim();
        back.load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert_eq!(serde_json::to_string(&back.save_state()).unwrap(), json);
    }

    #[test]
    fn checkpoint_rejects_wrong_cluster_shape() {
        use checkpoint::Checkpointable;
        let mut big = sim();
        big.create_file("/f", 64 * MB, 3, None).unwrap();
        let state = big.save_state();
        let mut cfg = ClusterConfig::paper_testbed();
        cfg.datanodes = 4;
        let mut small = ClusterSim::new(cfg, Box::new(DefaultRackAware));
        match small.load_state(&state) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains("nodes"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // a per-node (or per-rack) vector cut short used to load, then
        // index out of bounds on the next event
        for key in [
            "nodes",
            "standby_pool",
            "copy_load",
            "copy_streams",
            "slowdown",
            "rack_down",
        ] {
            let mut cut = state.clone();
            let Value::Seq(items) = at_mut(&mut cut, &[key]) else {
                panic!("`{key}` is a sequence");
            };
            items.truncate(1);
            match sim().load_state(&cut) {
                Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(key), "{msg}"),
                other => panic!("`{key}` cut short: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// The value at `path` inside a saved section: map keys, and decimal
    /// indices into sequences.
    fn at_mut<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
        let Some((step, rest)) = path.split_first() else {
            return v;
        };
        let inner = match v {
            Value::Map(m) => &mut m.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Value::Seq(items) => &mut items[step.parse::<usize>().unwrap()],
            other => panic!("no `{step}` in {other:?}"),
        };
        at_mut(inner, rest)
    }

    /// Load the busy cluster's snapshot with the number at `path` passed
    /// through `edit`.
    fn load_edited(path: &[&str], edit: impl Fn(u64) -> u64) -> Result<(), CheckpointError> {
        use checkpoint::Checkpointable;
        let mut state = busy_cluster().save_state();
        let cell = at_mut(&mut state, path);
        let Value::U64(n) = *cell else {
            panic!("{path:?} is not a number: {cell:?}");
        };
        *cell = Value::U64(edit(n));
        sim().load_state(&state)
    }

    #[test]
    fn an_id_that_was_never_minted_is_refused_before_a_column_grows_to_it() {
        for path in [
            &["namespace", "files", "0", "id"][..],
            &["namespace", "blocks", "0", "id"],
            &["blockmap", "blocks", "0"],
            &["blockmap", "target_blocks", "0"],
        ] {
            match load_edited(path, |_| 1 << 62) {
                Err(CheckpointError::Corrupt(msg)) => {
                    assert!(msg.contains("never minted"), "{msg}")
                }
                other => panic!("{path:?}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_flow_through_an_unregistered_resource_is_refused() {
        match load_edited(&["net", "flows", "0", "resources", "0"], |_| 999_999) {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains("resources"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_flow_and_its_transfer_must_both_be_there() {
        use checkpoint::Checkpointable;
        // the flow model and the transfer table each name every flow in
        // flight; with one row gone the flow would finish into nothing
        // (or never start), so neither edit may load
        for table in [&["transfers"][..], &["net", "flows"]] {
            for row in [0, 3] {
                let mut state = busy_cluster().save_state();
                let Value::Seq(rows) = at_mut(&mut state, table) else {
                    panic!("{table:?} is a sequence");
                };
                rows.remove(row);
                match sim().load_state(&state) {
                    Err(CheckpointError::Corrupt(msg)) => {
                        assert!(msg.contains("`transfers` and `net.flows`"), "{msg}")
                    }
                    other => panic!("{table:?} less row {row}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_node_id_above_u32_is_a_type_error_not_the_truncated_node() {
        for path in [
            &["blockmap", "nodes", "0"][..],
            &["tickets", "0", "3"],
            &["retained", "0", "0"],
            &["latent_corrupt", "0", "1"],
            &["client_nic", "0", "0"],
            &["copy_load", "0"],
            &["copy_streams", "0"],
            &["staged_copies", "0", "1", "target"],
        ] {
            match load_edited(path, |n| n + (1 << 32)) {
                Err(CheckpointError::TypeMismatch { expected, .. }) => {
                    assert_eq!(expected, "u32", "{path:?}")
                }
                other => panic!("{path:?}: expected TypeMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_node_id_the_cluster_lacks_is_refused() {
        for path in [
            &["blockmap", "nodes", "0"][..],
            &["tickets", "0", "3"],
            &["ready_copies", "0", "1", "target"],
            &["transfers", "0", "1", "node"],
        ] {
            match load_edited(path, |_| 18) {
                Err(CheckpointError::Corrupt(msg)) => {
                    assert!(msg.contains("dn18 of 18 nodes"), "{msg}")
                }
                other => panic!("{path:?}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn create_file_places_replicas() {
        let mut c = sim();
        let f = c
            .create_file("/data/a", 128 * MB, 3, Some(NodeId(0)))
            .unwrap();
        let meta = c.namespace().file(f).unwrap();
        assert_eq!(meta.blocks.len(), 2);
        for &b in &meta.blocks.clone() {
            assert_eq!(c.blockmap().replica_count(b), 3);
        }
        assert_eq!(c.storage_used(), 3 * 128 * MB);
        assert!(c.create_file("/data/a", MB, 3, None).is_none(), "dup path");
    }

    #[test]
    fn single_read_completes_at_disk_rate() {
        let mut c = sim();
        c.create_file("/f", 64 * MB, 3, Some(NodeId(0))).unwrap();
        let r = c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        assert_eq!(done.len(), 1);
        let s = &done[0];
        assert_eq!(s.id, r);
        assert!(!s.failed);
        assert_eq!(s.bytes, 64 * MB);
        // 64MB at 80MB/s disk ≈ 0.8s plus overhead
        assert!(
            s.duration() > 0.7 && s.duration() < 1.1,
            "took {}",
            s.duration()
        );
        assert!(s.throughput_mb_s() > 55.0, "tput {}", s.throughput_mb_s());
    }

    #[test]
    fn node_local_read_is_fast_and_local() {
        let mut c = sim();
        c.create_file("/f", 64 * MB, 3, Some(NodeId(2))).unwrap();
        c.open_read(Endpoint::Node(NodeId(2)), "/f").unwrap();
        c.run_until_quiescent();
        let s = &c.drain_completed_reads()[0];
        assert_eq!(s.node_local_blocks, 1);
        assert_eq!(s.remote_blocks + s.rack_local_blocks, 0);
        assert!((s.locality_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contention_degrades_throughput() {
        let mut c = sim();
        c.create_file("/hot", 64 * MB, 1, Some(NodeId(0))).unwrap();
        for i in 0..4 {
            c.open_read(Endpoint::Client(ClientId(i)), "/hot").unwrap();
        }
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        assert_eq!(done.len(), 4);
        // 4 concurrent sessions share one 80MB/s disk → ≈ 20MB/s each
        for s in &done {
            assert!(
                s.throughput_mb_s() < 30.0,
                "expected contention, got {}",
                s.throughput_mb_s()
            );
        }
    }

    #[test]
    fn more_replicas_restore_throughput() {
        let mut c = sim();
        c.create_file("/hot", 64 * MB, 4, Some(NodeId(0))).unwrap();
        for i in 0..4 {
            c.open_read(Endpoint::Client(ClientId(i)), "/hot").unwrap();
        }
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        // readers spread across 4 replicas → near-full disk rate each
        for s in &done {
            assert!(
                s.throughput_mb_s() > 50.0,
                "expected spread, got {}",
                s.throughput_mb_s()
            );
        }
    }

    #[test]
    fn session_cap_queues_and_eventually_serves() {
        let mut cfg = ClusterConfig::paper_testbed();
        cfg.max_sessions_per_node = 2;
        let mut c = ClusterSim::new(cfg, Box::new(DefaultRackAware));
        c.create_file("/hot", 64 * MB, 1, Some(NodeId(0))).unwrap();
        for i in 0..6 {
            c.open_read(Endpoint::Client(ClientId(i)), "/hot").unwrap();
        }
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        assert_eq!(done.len(), 6, "queued readers are eventually served");
        assert!(done.iter().all(|s| !s.failed));
        assert_eq!(c.peak_sessions(NodeId(0)).max(2), 2, "cap respected");
        // queued readers take much longer than the first two
        let mut durs: Vec<f64> = done.iter().map(ReadStats::duration).collect();
        durs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(durs[5] > durs[0] * 1.8, "{durs:?}");
    }

    #[test]
    fn add_replica_moves_bytes() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        assert_eq!(c.blockmap().replica_count(b), 1);
        let copies = c.add_replicas(b, 2);
        assert_eq!(copies.len(), 2);
        c.run_until_quiescent();
        let stats = c.drain_completed_copies();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.succeeded));
        assert_eq!(c.blockmap().replica_count(b), 3);
        assert!(c.now().as_secs_f64() > 0.5, "copies take simulated time");
    }

    #[test]
    fn set_file_replication_up_and_down() {
        let mut c = sim();
        let f = c.create_file("/f", 128 * MB, 3, Some(NodeId(0))).unwrap();
        let copies = c.set_file_replication(f, 5);
        assert_eq!(copies.len(), 4, "2 blocks × 2 extra");
        c.run_until_quiescent();
        let blocks = c.namespace().file(f).unwrap().blocks.clone();
        for &b in &blocks {
            assert_eq!(c.blockmap().replica_count(b), 5);
        }
        c.set_file_replication(f, 2);
        for &b in &blocks {
            assert_eq!(c.blockmap().replica_count(b), 2, "removal is instant");
        }
        assert_eq!(c.storage_used(), 2 * 2 * 64 * MB);
    }

    #[test]
    fn delete_file_frees_space() {
        let mut c = sim();
        c.create_file("/f", 64 * MB, 3, None).unwrap();
        assert!(c.storage_used() > 0);
        assert!(c.delete_file("/f"));
        assert_eq!(c.storage_used(), 0);
        assert!(!c.delete_file("/f"));
        assert_eq!(c.blockmap().num_blocks(), 0);
    }

    #[test]
    fn standby_nodes_do_not_take_reads_or_data() {
        let mut c = sim();
        let standby: Vec<NodeId> = (10..18).map(NodeId).collect();
        c.designate_standby(&standby);
        assert_eq!(c.serving_nodes(), 10);
        let f = c.create_file("/f", 64 * MB, 3, None).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        for n in &standby {
            assert!(!c.node_holds(*n, b), "standby must not receive replicas");
        }
        // commission brings a standby node back after boot time
        assert!(c.commission(NodeId(10)));
        c.run_until_quiescent();
        assert_eq!(c.node_state(NodeId(10)), NodeState::Active);
        assert_eq!(c.serving_nodes(), 11);
    }

    #[test]
    fn kill_node_loses_data_and_repair_restores() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 3, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        c.kill_node(victim);
        assert_eq!(c.blockmap().replica_count(b), 2);
        let copies = c.repair_under_replicated();
        assert_eq!(copies.len(), 1);
        c.run_until_quiescent();
        assert_eq!(c.blockmap().replica_count(b), 3);
        assert!(!c.blockmap().holds(b, victim));
    }

    #[test]
    fn reads_survive_replica_node_death() {
        let mut c = sim();
        c.create_file("/f", 256 * MB, 3, Some(NodeId(0))).unwrap();
        let r = c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        // let the read get going, then kill the serving node
        c.run_until(SimTime::from_millis(500));
        let serving: Vec<NodeId> = c
            .transfers
            .values()
            .filter_map(|t| match t {
                Transfer::ReadBlock { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert!(!serving.is_empty(), "read should be in flight");
        c.kill_node(serving[0]);
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, r);
        assert!(!done[0].failed, "retried on surviving replicas");
        assert_eq!(done[0].bytes, 256 * MB);
    }

    #[test]
    fn read_of_lost_block_fails() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b)[0];
        c.kill_node(holder);
        c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        assert_eq!(done.len(), 1);
        assert!(done[0].failed);
    }

    #[test]
    fn audit_log_covers_reads() {
        let mut c = sim();
        c.create_file("/f", 128 * MB, 3, None).unwrap();
        c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        c.run_until_quiescent();
        let lines = c.drain_audit();
        let text = lines.join("\n");
        assert!(text.contains("cmd=create"));
        assert!(text.contains("cmd=open"));
        assert_eq!(
            text.matches("cmd=read_block").count(),
            2,
            "one clienttrace line per block"
        );
        let (events, bad) = cep::audit::parse_log(&text);
        assert_eq!(bad, 0);
        assert_eq!(events.len(), lines.len());
    }

    #[test]
    fn parity_placement_and_encoding_mode() {
        let mut c = sim();
        let f = c.create_file("/cold", 128 * MB, 3, None).unwrap();
        let (pb, node) = c.place_parity_block(f, 0, 64 * MB).unwrap();
        assert!(c.node_holds(node, pb));
        assert_eq!(c.blockmap().replica_count(pb), 1);
        c.mark_encoded(f, vec![pb]);
        assert!(c.namespace().file(f).unwrap().is_encoded());
        assert_eq!(c.namespace().file(f).unwrap().replication(), 1);
        // deleting the file also frees the parity block
        assert!(c.delete_file("/cold"));
        assert_eq!(c.storage_used(), 0);
    }

    #[test]
    fn pipelined_write_moves_real_bytes() {
        let mut c = sim();
        let w = c
            .write_file(Endpoint::Client(ClientId(1)), "/w", 128 * MB, 3)
            .unwrap();
        assert_eq!(c.inflight_writes(), 1);
        c.run_until_quiescent();
        let done = c.drain_completed_writes();
        assert_eq!(done.len(), 1);
        let stats = &done[0];
        assert_eq!(stats.id, w);
        assert!(!stats.failed);
        assert_eq!(stats.bytes, 128 * MB);
        // 2 blocks × 64MB at ≤80MB/s pipeline: at least 1.6 s
        assert!(stats.duration() > 1.5, "took {}", stats.duration());
        // the file is fully replicated afterwards
        let f = c.namespace().resolve("/w").unwrap();
        for &b in &c.namespace().file(f).unwrap().blocks.clone() {
            assert_eq!(c.blockmap().replica_count(b), 3);
        }
        assert_eq!(c.storage_used(), 3 * 128 * MB);
    }

    #[test]
    fn duplicate_write_path_rejected() {
        let mut c = sim();
        c.create_file("/w", 64 * MB, 3, None).unwrap();
        assert!(c
            .write_file(Endpoint::Client(ClientId(1)), "/w", 64 * MB, 3)
            .is_none());
    }

    #[test]
    fn writes_contend_with_reads() {
        let mut c = sim();
        c.create_file("/data", 256 * MB, 3, None).unwrap();
        // a solo read baseline
        c.open_read(Endpoint::Client(ClientId(1)), "/data").unwrap();
        c.run_until_quiescent();
        let solo = c.drain_completed_reads()[0].duration();
        // now a read racing enough pipelined writes that every node's
        // disk serves write traffic
        for i in 0..14 {
            c.write_file(
                Endpoint::Client(ClientId(100 + i)),
                &format!("/w{i}"),
                512 * MB,
                3,
            )
            .unwrap();
        }
        c.open_read(Endpoint::Client(ClientId(2)), "/data").unwrap();
        c.run_until_quiescent();
        let busy = c
            .drain_completed_reads()
            .iter()
            .find(|r| r.id.0 > 0)
            .map(ReadStats::duration)
            .unwrap();
        assert!(
            busy > solo,
            "write pipelines must steal read bandwidth: {busy} vs {solo}"
        );
    }

    #[test]
    fn graceful_decommission_preserves_replication() {
        let mut c = sim();
        let f = c.create_file("/f", 128 * MB, 3, None).unwrap();
        let blocks = c.namespace().file(f).unwrap().blocks.clone();
        let victim = c.blockmap().replica_nodes(blocks[0])[0];
        let held = c.node_block_count(victim);
        assert!(held > 0);
        let copies = c.decommission(victim);
        assert_eq!(copies.len(), held);
        c.run_until_quiescent();
        assert!(c.drain_completed_copies().iter().all(|s| s.succeeded));
        // now powering the node off leaves no block under-replicated
        c.power_off(victim).expect("no last replicas remain");
        for &b in &blocks {
            assert!(
                c.blockmap().replica_count(b) >= 3,
                "block {b} lost redundancy"
            );
        }
        let under = c.blockmap().under_replicated(|_| 3);
        assert!(under.is_empty(), "{under:?}");
    }

    #[test]
    fn is_idle_reflects_inflight_work() {
        let mut c = sim();
        c.create_file("/f", 64 * MB, 3, None).unwrap();
        assert!(c.is_idle());
        c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        c.run_until(SimTime::from_millis(100));
        assert!(!c.is_idle());
        c.run_until_quiescent();
        assert!(c.is_idle());
    }

    #[test]
    fn crash_then_restart_block_reports_retained_replicas() {
        let mut c = sim();
        let f = c.create_file("/f", 128 * MB, 3, Some(NodeId(0))).unwrap();
        let blocks = c.namespace().file(f).unwrap().blocks.clone();
        let victim = c.blockmap().replica_nodes(blocks[0])[0];
        let held = c.node_block_count(victim);
        let used_before = c.storage_used();
        assert!(c.crash_node(victim));
        assert!(!c.crash_node(victim), "double crash refused");
        assert_eq!(c.node_state(victim), NodeState::Dead);
        assert_eq!(c.retained_blocks(victim), held);
        assert_eq!(c.blockmap().replica_count(blocks[0]), 2);
        // restart: the block report readmits every retained replica
        assert_eq!(c.restart_node(victim), Some(held));
        assert_eq!(c.node_state(victim), NodeState::Active);
        assert_eq!(c.retained_blocks(victim), 0);
        assert_eq!(c.blockmap().replica_count(blocks[0]), 3);
        assert_eq!(c.storage_used(), used_before);
        assert_eq!(c.restart_node(victim), None, "not down");
    }

    #[test]
    fn restart_drops_stale_blocks_and_trims_over_replication() {
        let mut c = sim();
        let f = c.create_file("/keep", 64 * MB, 3, Some(NodeId(0))).unwrap();
        c.create_file("/gone", 64 * MB, 3, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        c.crash_node(victim);
        // while the node is down: the file is deleted and the block repaired
        assert!(c.delete_file("/gone"));
        let copies = c.repair_under_replicated();
        assert!(!copies.is_empty());
        c.run_until_quiescent();
        assert_eq!(c.blockmap().replica_count(b), 3);
        // the restart re-reports only the surviving block -> 4 replicas
        let readmitted = c.restart_node(victim).unwrap();
        assert_eq!(readmitted, 1, "stale replica of /gone dropped");
        assert_eq!(c.blockmap().replica_count(b), 4);
        assert_eq!(c.trim_over_replicated(), 1);
        assert_eq!(c.blockmap().replica_count(b), 3);
        // storage accounting survived the whole episode
        let expected: Bytes = c
            .blockmap()
            .blocks()
            .map(|(blk, locs)| c.namespace().block(blk).unwrap().len * locs.len() as Bytes)
            .sum();
        assert_eq!(c.storage_used(), expected);
    }

    #[test]
    fn crash_opens_window_restart_closes_it() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b)[0];
        c.run_until(SimTime::from_secs(10));
        c.crash_node(holder);
        assert_eq!(c.durability().open_windows(), 1, "sole replica went dark");
        assert!(c.durability().loss_events().is_empty(), "disk retained it");
        c.run_until(SimTime::from_secs(40));
        c.restart_node(holder);
        assert_eq!(c.durability().open_windows(), 0);
        let w = &c.durability().windows()[0];
        assert!(
            (w.duration_secs() - 30.0).abs() < 1e-6,
            "{}",
            w.duration_secs()
        );
        assert!(!w.unresolved);
    }

    #[test]
    fn kill_records_permanent_loss() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b)[0];
        let (degraded, lost) = c.kill_node(holder);
        assert!(degraded.is_empty());
        assert_eq!(lost, vec![b]);
        assert_eq!(c.durability().loss_events().len(), 1);
        assert_eq!(c.durability().loss_events()[0].key, b.0);
    }

    #[test]
    fn kill_after_crash_destroys_retained_copy() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b)[0];
        c.crash_node(holder);
        assert!(c.durability().loss_events().is_empty(), "still on the disk");
        c.kill_node(holder);
        assert_eq!(c.retained_blocks(holder), 0);
        assert_eq!(c.durability().loss_events().len(), 1, "retained copy gone");
        assert_eq!(c.restart_node(holder), Some(0), "nothing to report");
    }

    #[test]
    fn power_off_refuses_last_replica() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b)[0];
        let orphans = c.power_off(holder).unwrap_err();
        assert_eq!(orphans, vec![b]);
        assert_eq!(c.node_state(holder), NodeState::Active, "unchanged");
        assert_eq!(c.blockmap().replica_count(b), 1);
        // decommission first, then the power-off is accepted
        let copies = c.decommission(holder);
        assert_eq!(copies.len(), 1);
        c.run_until_quiescent();
        c.power_off(holder).expect("replica copied away");
        assert_eq!(c.blockmap().replica_count(b), 1);
        assert!(!c.blockmap().holds(b, holder));
    }

    #[test]
    fn designate_standby_skips_last_replica_holders() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b)[0];
        let empty = NodeId(if holder.0 == 17 { 16 } else { 17 });
        c.designate_standby(&[holder, empty]);
        assert_eq!(c.node_state(holder), NodeState::Active, "refused");
        assert_eq!(c.node_state(empty), NodeState::Standby);
        assert_eq!(c.blockmap().replica_count(b), 1, "no data lost");
    }

    #[test]
    fn rack_outage_stalls_and_restore_resumes() {
        let mut c = sim();
        // single remote replica: the client read crosses the rack uplink
        let f = c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holder = c.blockmap().replica_nodes(b)[0];
        let rack = c.topology().rack_of(holder);
        let r = c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        c.run_until(SimTime::from_millis(100));
        assert!(c.fail_rack_uplink(rack));
        assert!(!c.fail_rack_uplink(rack), "already down");
        assert!(c.rack_uplink_down(rack));
        // with the uplink at zero the read cannot finish in bounded time
        c.run_until(SimTime::from_secs(60));
        assert!(c.drain_completed_reads().is_empty(), "stalled, not failed");
        assert!(c.restore_rack_uplink(rack));
        assert!(!c.restore_rack_uplink(rack), "already up");
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, r);
        assert!(!done[0].failed, "flow resumed after restore");
    }

    #[test]
    fn straggler_slows_reads_and_recovers() {
        let mut c = sim();
        c.create_file("/f", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let holder = {
            let f = c.namespace().resolve("/f").unwrap();
            let b = c.namespace().file(f).unwrap().blocks[0];
            c.blockmap().replica_nodes(b)[0]
        };
        c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        c.run_until_quiescent();
        let healthy = c.drain_completed_reads()[0].duration();
        c.set_node_slowdown(holder, 0.1);
        assert!((c.node_slowdown(holder) - 0.1).abs() < 1e-12);
        c.open_read(Endpoint::Client(ClientId(2)), "/f").unwrap();
        c.run_until_quiescent();
        let slow = c.drain_completed_reads()[0].duration();
        assert!(slow > healthy * 5.0, "straggler: {slow} vs {healthy}");
        c.clear_node_slowdown(holder);
        c.open_read(Endpoint::Client(ClientId(3)), "/f").unwrap();
        c.run_until_quiescent();
        let recovered = c.drain_completed_reads()[0].duration();
        assert!(recovered < healthy * 1.5, "{recovered} vs {healthy}");
    }

    #[test]
    fn reconstruct_block_rebuilds_a_dark_block() {
        let mut c = sim();
        let f = c.create_file("/cold", 64 * MB, 1, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        // model an encoded file: parities elsewhere, then lose the data block
        let (p0, _) = c.place_parity_block(f, 0, 64 * MB).unwrap();
        let (p1, _) = c.place_parity_block(f, 1, 64 * MB).unwrap();
        c.mark_encoded(f, vec![p0, p1]);
        let holder = c.blockmap().replica_nodes(b)[0];
        c.kill_node(holder);
        assert_eq!(c.blockmap().replica_count(b), 0);
        assert!(
            c.durability().loss_events().is_empty(),
            "encoded file: stripe may still be recoverable"
        );
        assert_eq!(c.durability().open_windows(), 1);
        // rebuild from two surviving shard holders (the ERMS manager
        // derives these from the stripe's recovery plan; the cluster
        // only models the data movement)
        let mut live = (0..18)
            .map(NodeId)
            .filter(|&n| c.node_state(n) == NodeState::Active && !c.node_holds(n, b));
        let sources = [live.next().unwrap(), live.next().unwrap()];
        let target = live.next().unwrap();
        let copy = c.reconstruct_block(b, &sources, target).unwrap();
        c.run_until_quiescent();
        let done = c.drain_completed_copies();
        let stat = done.iter().find(|s| s.id == copy).unwrap();
        assert!(stat.succeeded);
        assert_eq!(c.blockmap().replica_count(b), 1);
        assert!(c.node_holds(target, b));
        assert_eq!(c.durability().open_windows(), 0, "window closed");
        // k shards crossed the network
        assert_eq!(c.durability().repair_bytes(), 2 * 64 * MB);
        // immediate path: no replication-monitor staging was involved
        assert!(
            stat.finished.as_secs_f64() - stat.started.as_secs_f64() < 3.0,
            "reconstruction must not wait out the monitor delay"
        );
    }

    #[test]
    fn reconstruct_rejects_bad_endpoints() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 2, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let locs = c.blockmap().replica_nodes(b).to_vec();
        let target = locs[0];
        assert!(
            c.reconstruct_block(b, &[locs[1]], target).is_none(),
            "target already holds the block"
        );
        let spare = NodeId((0..18).find(|&i| !locs.contains(&NodeId(i))).unwrap());
        assert!(c.reconstruct_block(b, &[], spare).is_none(), "no sources");
        assert!(
            c.reconstruct_block(b, &[spare], spare).is_none(),
            "source == target"
        );
    }

    #[test]
    fn repair_copies_count_repair_bytes() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 3, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let victim = c.blockmap().replica_nodes(b)[0];
        c.kill_node(victim);
        let copies = c.repair_under_replicated();
        assert_eq!(copies.len(), 1);
        c.run_until_quiescent();
        assert_eq!(c.durability().repair_bytes(), 64 * MB);
        // ordinary (non-repair) copies do not count
        c.add_replicas(b, 1);
        c.run_until_quiescent();
        assert_eq!(c.durability().repair_bytes(), 64 * MB);
    }

    #[test]
    fn read_detects_corrupt_replica_and_fails_over() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 3, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        // corrupt every replica but one: whichever source the read picks
        // first, it can only finish cleanly from the one clean copy
        let locs = c.blockmap().replica_nodes(b).to_vec();
        for &n in &locs[..2] {
            assert!(c.corrupt_replica(n, 0, false));
        }
        assert_eq!(c.latent_corrupt_count(), 2);
        let r = c.open_read(Endpoint::Client(ClientId(1)), "/f").unwrap();
        c.run_until_quiescent();
        let done = c.drain_completed_reads();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, r);
        assert!(!done[0].failed, "read fails over to the clean replica");
        // every corrupt replica the read touched was quarantined; none
        // can still be serving
        for &n in &locs[..2] {
            if c.blockmap().holds(b, n) {
                assert!(!c.is_replica_corrupt(b, n));
            }
        }
        assert!(c.blockmap().replica_count(b) >= 1);
    }

    #[test]
    fn all_replicas_corrupt_means_data_loss_not_silent_success() {
        let mut c = sim();
        let f = c.create_file("/f", 64 * MB, 3, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        for &n in c.blockmap().replica_nodes(b).to_vec().iter() {
            assert!(c.corrupt_replica(n, 0, false));
        }
        // a scrub sweep detects and quarantines all three; with zero
        // clean copies left this is recorded loss, not availability
        let (_, found) = c.scrub(16, &[]);
        assert_eq!(found, 3);
        assert_eq!(c.blockmap().replica_count(b), 0);
        assert!(c.durability().is_lost(b.0), "loss recorded in the ledger");
        let _ = f;
    }

    #[test]
    fn scrub_detects_and_quarantines_with_deterministic_cursor() {
        let mut c = sim();
        let f = c.create_file("/f", 256 * MB, 3, Some(NodeId(0))).unwrap();
        let blocks = c.namespace().file(f).unwrap().blocks.clone();
        assert_eq!(blocks.len(), 4);
        let last = *blocks.last().unwrap();
        let victim = c.blockmap().replica_nodes(last)[0];
        assert!(c.corrupt_replica(victim, last.0, false));
        let corrupted = blocks
            .iter()
            .copied()
            .find(|&b| c.is_replica_corrupt(b, victim))
            .expect("one replica corrupted");
        let idx = blocks.iter().position(|&b| b == corrupted).unwrap();
        // budget 1: the cursor walks one block per sweep in id order and
        // reaches the corrupt one exactly at its position
        let mut found_at = None;
        for sweep in 0..4 {
            let (scanned, found) = c.scrub(1, &[]);
            assert_eq!(scanned, 1);
            if found == 1 {
                found_at = Some(sweep);
            }
        }
        assert_eq!(found_at, Some(idx), "cursor order is block-id order");
        assert_eq!(c.latent_corrupt_count(), 0);
        assert_eq!(c.blockmap().replica_count(corrupted), 2);
        assert!(c.corrupt_blocks_pending_repair().contains(&corrupted));
        // the cursor wraps: the next sweep starts from the first block
        let cursor_after = c.scrub_cursor();
        let (scanned, _) = c.scrub(1, &[]);
        assert_eq!(scanned, 1);
        assert!(c.scrub_cursor() <= cursor_after, "cursor wrapped around");
    }

    #[test]
    fn scrub_priority_list_checks_hot_blocks_first() {
        let mut c = sim();
        let f = c.create_file("/hot", 256 * MB, 3, Some(NodeId(0))).unwrap();
        let blocks = c.namespace().file(f).unwrap().blocks.clone();
        let hot = *blocks.last().unwrap();
        let victim = c.blockmap().replica_nodes(hot)[0];
        assert!(c.corrupt_replica(victim, hot.0, false));
        let corrupted = blocks
            .iter()
            .copied()
            .find(|&b| c.is_replica_corrupt(b, victim))
            .expect("one replica corrupted");
        // with the block prioritized, budget 1 finds it immediately, and
        // the priority visit does not advance the background cursor
        let (scanned, found) = c.scrub(1, &[corrupted]);
        assert_eq!((scanned, found), (1, 1));
        assert_eq!(c.latent_corrupt_count(), 0);
        assert_eq!(c.scrub_cursor(), 0, "priority scan leaves the cursor");
    }

    #[test]
    fn torn_crash_marks_inflight_copy_corrupt_until_scrubbed() {
        let mut c = sim();
        let f = c.create_file("/t", 64 * MB, 2, Some(NodeId(0))).unwrap();
        let b = c.namespace().file(f).unwrap().blocks[0];
        let holders = c.blockmap().replica_nodes(b).to_vec();
        let copies = c.add_replicas(b, 1);
        assert_eq!(copies.len(), 1);
        // let the replication monitor dispatch the staged copy, then
        // stop mid-transfer (64 MB over gigabit needs ~0.5 s)
        c.run_until(SimTime::from_millis(3050));
        // the copy's landing node is some non-holder: torn-crash
        // candidates until the in-flight transfer registers torn
        let mut hit = None;
        for i in 0..c.config().datanodes {
            let n = NodeId(i);
            if holders.contains(&n) {
                continue;
            }
            assert!(c.crash_node_torn(n));
            if c.latent_corrupt_count() == 1 {
                hit = Some(n);
                break;
            }
        }
        let n = hit.expect("the in-flight copy target was found");
        assert!(c.is_replica_corrupt(b, n));
        c.run_until_quiescent();
        // the node comes back: its block report re-admits the torn
        // replica, which stays suspect until a scrub verifies it
        assert!(c.restart_node(n).is_some());
        if c.blockmap().holds(b, n) {
            let before = c.blockmap().replica_count(b);
            let (_, found) = c.scrub(64, &[b]);
            assert_eq!(found, 1, "scrub catches the torn replica");
            assert_eq!(c.blockmap().replica_count(b), before - 1);
        }
        assert_eq!(c.latent_corrupt_count(), 0);
    }

    #[test]
    fn corruption_state_survives_checkpoint_round_trip() {
        use checkpoint::Checkpointable;
        let mut c = sim();
        let f = c.create_file("/f", 256 * MB, 3, Some(NodeId(0))).unwrap();
        let blocks = c.namespace().file(f).unwrap().blocks.clone();
        let b0 = blocks[0];
        let victim = c.blockmap().replica_nodes(b0)[0];
        assert!(c.corrupt_replica(victim, 0, false));
        let (scanned, _) = c.scrub(2, &[]);
        assert_eq!(scanned, 2);
        let json = serde_json::to_string(&c.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut r = sim();
        r.load_state(&back).unwrap();
        assert_eq!(r.latent_corrupt_count(), c.latent_corrupt_count());
        assert_eq!(r.scrub_cursor(), c.scrub_cursor());
        assert_eq!(
            r.corrupt_blocks_pending_repair(),
            c.corrupt_blocks_pending_repair()
        );
        assert_eq!(
            r.is_replica_corrupt(b0, victim),
            c.is_replica_corrupt(b0, victim)
        );
    }

    /// The lazy aim against the eager one (`eager_aim`: name the next
    /// completion inside every resync, as the cluster did before rates
    /// became lazy), through the same script of public calls.
    mod lazy_vs_eager {
        use super::*;
        use checkpoint::Checkpointable;
        use proptest::prelude::*;
        use simcore::SimDuration;

        const NODES: u32 = 8;
        const RACKS: u16 = 2;
        /// `(path, bytes)`: no blocks at all, one tiny block, one short
        /// of a full block, and several blocks.
        const FILES: [(&str, Bytes); 5] = [
            ("/zero", 0),
            ("/byte", 1),
            ("/small", MB),
            ("/block", 64 * MB),
            ("/long", 200 * MB),
        ];

        #[derive(Debug, Clone)]
        enum Act {
            OpenRead {
                client: u32,
                file: usize,
            },
            /// A read by a datanode: node-local ones finish together.
            NodeRead {
                node: u32,
                file: usize,
            },
            WriteFile {
                client: u32,
                mb: u64,
                replication: usize,
            },
            SetReplication {
                file: usize,
                r: usize,
            },
            KillNode(u32),
            CrashNode(u32),
            RestartNode(u32),
            SetSlowdown(u32, f64),
            FailUplink(u16),
            RestoreUplink(u16),
            Timer {
                ms: u64,
            },
            /// A timer on the very nanosecond of the pending completion,
            /// numbered above it — and below the next resync's batch.
            TimerAtCompletion,
            Step,
            /// `run_until`, noting every event fired.
            Run {
                ms: u64,
            },
            /// The real `run_until`.
            RunPlain {
                ms: u64,
            },
        }

        fn arb_act() -> impl Strategy<Value = Act> {
            let node = || 0..NODES;
            let open = || {
                (0u32..6, 0..FILES.len()).prop_map(|(client, file)| Act::OpenRead { client, file })
            };
            let node_read =
                || (node(), 0..FILES.len()).prop_map(|(node, file)| Act::NodeRead { node, file });
            prop_oneof![
                open(),
                open(),
                open(),
                node_read(),
                node_read(),
                (0u32..6, prop_oneof![Just(0u64), 1u64..150], 1usize..4).prop_map(
                    |(client, mb, replication)| Act::WriteFile {
                        client,
                        mb,
                        replication
                    }
                ),
                (0..FILES.len(), 1usize..5).prop_map(|(file, r)| Act::SetReplication { file, r }),
                node().prop_map(Act::KillNode),
                node().prop_map(Act::CrashNode),
                node().prop_map(Act::RestartNode),
                (node(), 0.05f64..1.0).prop_map(|(n, f)| Act::SetSlowdown(n, f)),
                (0..RACKS).prop_map(Act::FailUplink),
                (0..RACKS).prop_map(Act::RestoreUplink),
                prop_oneof![Just(0u64), 0u64..3000].prop_map(|ms| Act::Timer { ms }),
                Just(Act::TimerAtCompletion),
                Just(Act::TimerAtCompletion),
                Just(Act::Step),
                Just(Act::Step),
                Just(Act::Step),
                (0u64..1500).prop_map(|ms| Act::Run { ms }),
                (0u64..1500).prop_map(|ms| Act::Run { ms }),
                (0u64..1500).prop_map(|ms| Act::RunPlain { ms }),
            ]
        }

        /// `(time, event id, event)` of everything fired.
        type Fired = Vec<(SimTime, u64, String)>;

        fn cluster(request_overhead: SimDuration, eager_aim: bool) -> ClusterSim {
            let cfg = ClusterConfig {
                datanodes: NODES,
                racks: RACKS,
                max_sessions_per_node: 2,
                request_overhead,
                ..ClusterConfig::paper_testbed()
            };
            let mut c = ClusterSim::new(cfg, Box::new(DefaultRackAware));
            c.eager_aim = eager_aim;
            for (path, bytes) in FILES {
                c.create_file(path, bytes, 2, None).unwrap();
            }
            c
        }

        /// Note the event about to fire.
        fn note_next(c: &mut ClusterSim, fired: &mut Fired) {
            let next = match c.flow_event_if_next() {
                Some(f) => Some((f.at, f.id.raw(), format!("{:?}", Ev::FlowDone(f.flow)))),
                None => (c.queue.snapshot().entries.into_iter().next())
                    .map(|(at, seq, ev)| (at, seq, format!("{ev:?}"))),
            };
            fired.extend(next);
        }

        fn apply(c: &mut ClusterSim, act: &Act, n: usize, fired: &mut Fired) {
            match *act {
                Act::OpenRead { client, file } => {
                    c.open_read(Endpoint::Client(ClientId(client)), FILES[file].0);
                }
                Act::NodeRead { node, file } => {
                    c.open_read(Endpoint::Node(NodeId(node)), FILES[file].0);
                }
                Act::WriteFile {
                    client,
                    mb,
                    replication,
                } => {
                    let client = Endpoint::Client(ClientId(client));
                    c.write_file(client, &format!("/w{n}"), mb * MB, replication);
                }
                Act::SetReplication { file, r } => {
                    if let Some(id) = c.namespace.resolve(FILES[file].0) {
                        c.set_file_replication(id, r);
                    }
                }
                Act::KillNode(n) => {
                    c.kill_node(NodeId(n));
                }
                Act::CrashNode(n) => {
                    c.crash_node(NodeId(n));
                }
                Act::RestartNode(n) => {
                    c.restart_node(NodeId(n));
                }
                Act::SetSlowdown(n, f) => c.set_node_slowdown(NodeId(n), f),
                Act::FailUplink(r) => {
                    c.fail_rack_uplink(RackId(r));
                }
                Act::RestoreUplink(r) => {
                    c.restore_rack_uplink(RackId(r));
                }
                Act::Timer { ms } => {
                    c.schedule_timer(c.now() + SimDuration::from_millis(ms), n as u64)
                }
                Act::TimerAtCompletion => {
                    if let Some(f) = c.flow_event {
                        c.schedule_timer(f.at, n as u64);
                    }
                }
                Act::Step => {
                    note_next(c, fired);
                    c.step();
                }
                Act::Run { ms } => {
                    let deadline = c.now() + SimDuration::from_millis(ms);
                    while c.next_event_time().is_some_and(|t| t <= deadline) {
                        note_next(c, fired);
                        c.fire_next();
                    }
                    c.run_until(deadline);
                }
                Act::RunPlain { ms } => {
                    c.run_until(c.now() + SimDuration::from_millis(ms));
                }
            }
        }

        fn bytes(c: &ClusterSim) -> String {
            serde_json::to_string(&c.save_state()).unwrap()
        }

        proptest! {
            #[test]
            fn the_lazy_aim_fires_the_eager_schedule(
                zero_overhead in any::<bool>(),
                script in prop::collection::vec(arb_act(), 1..60),
            ) {
                let overhead = if zero_overhead {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_millis(1)
                };
                let mut lazy = cluster(overhead, false);
                let mut eager = cluster(overhead, true);
                let (mut fired_lazy, mut fired_eager) = (Fired::new(), Fired::new());
                for (n, act) in script.iter().enumerate() {
                    apply(&mut lazy, act, n, &mut fired_lazy);
                    apply(&mut eager, act, n, &mut fired_eager);
                    prop_assert_eq!(&fired_lazy, &fired_eager, "after {:?}", act);
                    prop_assert!(lazy.unaimed.is_none(), "{:?} left a resync unaimed", act);
                    prop_assert!(bytes(&lazy) == bytes(&eager), "snapshots differ after {:?}", act);
                }
                for (c, fired) in [(&mut lazy, &mut fired_lazy), (&mut eager, &mut fired_eager)] {
                    while c.next_event_time().is_some() {
                        note_next(c, fired);
                        c.fire_next();
                    }
                    c.run_until_quiescent();
                }
                prop_assert_eq!(&fired_lazy, &fired_eager);
                prop_assert!(bytes(&lazy) == bytes(&eager), "final snapshots differ");
                let (l, e) = (lazy.queue_stats(), eager.queue_stats());
                prop_assert_eq!(l.resyncs, e.resyncs);
                prop_assert!(l.fillings <= e.fillings, "{:?} vs eager {:?}", l, e);
            }
        }
    }
}
