//! The datanode service model.
//!
//! A datanode is a disk (capacity + block set), a NIC, and a bounded
//! session pool. "A datanode can simultaneously support a limited number
//! of sessions due to capacity constraint ... the connection requests
//! from application servers will be blocked, or rejected" (paper
//! Section III.C) — requests beyond [`DataNode::max_sessions`] wait in a
//! FIFO queue, which is what produces the execution-time blow-up at high
//! concurrency in Figures 6 and 8.

use crate::block::BlockId;
use crate::topology::NodeId;
use simcore::units::Bytes;
use std::collections::VecDeque;

/// Power/service state of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving reads/writes.
    Active,
    /// Powered off, holds no data, serves nothing (ERMS standby pool).
    Standby,
    /// Crashed: data lost, serves nothing.
    Dead,
}

/// A queued session waiting for a free slot; the cluster stores an opaque
/// ticket it knows how to resume.
pub type SessionTicket = u64;

#[derive(Debug)]
pub struct DataNode {
    pub id: NodeId,
    pub state: NodeState,
    pub capacity: Bytes,
    used: Bytes,
    /// Replica list kept sorted by block id — a dense column rather
    /// than a tree, since membership checks are binary searches and
    /// scans (checkpoint, crash drain) walk it front to back.
    blocks: Vec<BlockId>,
    /// Sessions currently being served.
    active_sessions: usize,
    pub max_sessions: usize,
    /// Requests blocked on the session cap.
    wait_queue: VecDeque<SessionTicket>,
    /// Total sessions ever admitted (for metrics).
    pub sessions_served: u64,
    /// Peak concurrent sessions observed.
    pub peak_sessions: usize,
}

impl DataNode {
    pub fn new(id: NodeId, capacity: Bytes, max_sessions: usize, state: NodeState) -> Self {
        DataNode {
            id,
            state,
            capacity,
            used: 0,
            blocks: Vec::new(),
            active_sessions: 0,
            max_sessions,
            wait_queue: VecDeque::new(),
            sessions_served: 0,
            peak_sessions: 0,
        }
    }

    pub fn is_serving(&self) -> bool {
        self.state == NodeState::Active
    }

    pub fn used(&self) -> Bytes {
        self.used
    }
    pub fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    pub fn holds(&self, block: BlockId) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.iter().copied()
    }

    /// Store a replica. Returns false (and stores nothing) when the disk
    /// is full or the block is already present.
    pub fn add_block(&mut self, block: BlockId, len: Bytes) -> bool {
        match self.blocks.binary_search(&block) {
            Ok(_) => false,
            Err(pos) => {
                if self.free() < len {
                    return false;
                }
                self.blocks.insert(pos, block);
                self.used += len;
                true
            }
        }
    }

    /// Drop a replica; returns whether it was present.
    pub fn remove_block(&mut self, block: BlockId, len: Bytes) -> bool {
        match self.blocks.binary_search(&block) {
            Ok(pos) => {
                self.blocks.remove(pos);
                self.used = self.used.saturating_sub(len);
                true
            }
            Err(_) => false,
        }
    }

    /// Wipe all data (crash / decommission drain).
    pub fn clear(&mut self) -> Vec<BlockId> {
        self.used = 0;
        std::mem::take(&mut self.blocks)
    }

    pub fn active_sessions(&self) -> usize {
        self.active_sessions
    }
    pub fn queued_sessions(&self) -> usize {
        self.wait_queue.len()
    }
    /// Load proxy used by replica selection: serving + waiting sessions.
    pub fn load(&self) -> usize {
        self.active_sessions + self.wait_queue.len()
    }
    pub fn has_free_slot(&self) -> bool {
        self.active_sessions < self.max_sessions
    }

    /// Try to admit a session now; if the cap is reached, the ticket
    /// queues and `false` is returned.
    pub fn admit_or_queue(&mut self, ticket: SessionTicket) -> bool {
        if self.active_sessions < self.max_sessions {
            self.active_sessions += 1;
            self.sessions_served += 1;
            self.peak_sessions = self.peak_sessions.max(self.active_sessions);
            true
        } else {
            self.wait_queue.push_back(ticket);
            false
        }
    }

    /// Finish a session; if someone is waiting, admit them and return
    /// their ticket so the cluster can start the transfer.
    pub fn release_session(&mut self) -> Option<SessionTicket> {
        debug_assert!(self.active_sessions > 0, "release without active session");
        self.active_sessions = self.active_sessions.saturating_sub(1);
        if let Some(next) = self.wait_queue.pop_front() {
            self.active_sessions += 1;
            self.sessions_served += 1;
            self.peak_sessions = self.peak_sessions.max(self.active_sessions);
            Some(next)
        } else {
            None
        }
    }

    /// Drop every queued ticket (node died); returns them for cancellation.
    pub fn drain_queue(&mut self) -> Vec<SessionTicket> {
        let out = self.wait_queue.drain(..).collect();
        self.active_sessions = 0;
        out
    }
}

checkpoint::ck_enum!(NodeState { Active => "active", Standby => "standby", Dead => "dead" });
checkpoint::ck_record!(DataNode {
    id,
    state,
    capacity,
    used,
    blocks,
    active_sessions,
    max_sessions,
    wait_queue,
    sessions_served,
    peak_sessions,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn dn() -> DataNode {
        DataNode::new(NodeId(0), 1000, 2, NodeState::Active)
    }

    #[test]
    fn block_storage_accounting() {
        let mut d = dn();
        assert!(d.add_block(BlockId(1), 400));
        assert!(d.add_block(BlockId(2), 400));
        assert_eq!(d.used(), 800);
        assert_eq!(d.free(), 200);
        assert!(!d.add_block(BlockId(3), 400), "disk full");
        assert!(!d.add_block(BlockId(1), 100), "duplicate replica");
        assert!(d.remove_block(BlockId(1), 400));
        assert!(!d.remove_block(BlockId(1), 400), "already gone");
        assert_eq!(d.used(), 400);
        assert_eq!(d.block_count(), 1);
    }

    #[test]
    fn session_cap_queues_excess() {
        let mut d = dn();
        assert!(d.admit_or_queue(100));
        assert!(d.admit_or_queue(101));
        assert!(!d.admit_or_queue(102), "third session must queue");
        assert_eq!(d.active_sessions(), 2);
        assert_eq!(d.queued_sessions(), 1);
        assert_eq!(d.load(), 3);
        assert_eq!(d.peak_sessions, 2);
        // releasing admits the waiter
        assert_eq!(d.release_session(), Some(102));
        assert_eq!(d.active_sessions(), 2);
        assert_eq!(d.queued_sessions(), 0);
        assert_eq!(d.release_session(), None);
        assert_eq!(d.active_sessions(), 1);
        assert_eq!(d.sessions_served, 3);
    }

    #[test]
    fn clear_wipes_data() {
        let mut d = dn();
        d.add_block(BlockId(1), 100);
        d.add_block(BlockId(2), 100);
        let lost = d.clear();
        assert_eq!(lost.len(), 2);
        assert_eq!(d.used(), 0);
        assert_eq!(d.block_count(), 0);
    }

    #[test]
    fn drain_queue_returns_tickets() {
        let mut d = dn();
        d.admit_or_queue(1);
        d.admit_or_queue(2);
        d.admit_or_queue(3);
        d.admit_or_queue(4);
        assert_eq!(d.drain_queue(), vec![3, 4]);
        assert_eq!(d.active_sessions(), 0);
    }

    #[test]
    fn standby_nodes_do_not_serve() {
        let d = DataNode::new(NodeId(1), 1000, 2, NodeState::Standby);
        assert!(!d.is_serving());
        let d = DataNode::new(NodeId(1), 1000, 2, NodeState::Dead);
        assert!(!d.is_serving());
    }
}
