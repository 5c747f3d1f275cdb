//! Cluster topology: racks, datanodes and external clients.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A datanode identifier (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// A rack identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackId(pub u16);

/// An external (non-datanode) client machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dn{}", self.0)
    }
}
impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}
impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Where a transfer endpoint lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    Node(NodeId),
    Client(ClientId),
}

checkpoint::ck_id!(NodeId, ClientId);

checkpoint::ck_tagged!(Endpoint, "k" { "node" => Node(id), "client" => Client(id) });

/// Network distance categories, mirroring HDFS's topology levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Distance {
    SameNode,
    SameRack,
    OffRack,
}

/// Static rack layout of the datanodes. Clients are assumed off-rack
/// (they reach the cluster through the core switch), except when a
/// "client" is actually a task running *on* a datanode — that case is
/// expressed with [`Endpoint::Node`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// rack of each node, indexed by `NodeId.0`.
    node_rack: Vec<RackId>,
    racks: u16,
}

impl Topology {
    /// Distribute `nodes` datanodes round-robin over `racks` racks —
    /// matching the paper's 18 nodes in 3 racks when called as `(18, 3)`.
    pub fn round_robin(nodes: u32, racks: u16) -> Self {
        assert!(nodes > 0 && racks > 0);
        Topology {
            node_rack: (0..nodes)
                .map(|i| RackId((i % racks as u32) as u16))
                .collect(),
            racks,
        }
    }

    /// Explicit rack assignment.
    pub fn from_racks(node_rack: Vec<RackId>) -> Self {
        assert!(!node_rack.is_empty());
        let racks = node_rack.iter().map(|r| r.0 + 1).max().expect("non-empty");
        Topology { node_rack, racks }
    }

    pub fn num_nodes(&self) -> u32 {
        self.node_rack.len() as u32
    }
    pub fn num_racks(&self) -> u16 {
        self.racks
    }

    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.node_rack[node.0 as usize]
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId)
    }

    pub fn nodes_in_rack(&self, rack: RackId) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.rack_of(n) == rack).collect()
    }

    pub fn distance(&self, a: NodeId, b: NodeId) -> Distance {
        if a == b {
            Distance::SameNode
        } else if self.rack_of(a) == self.rack_of(b) {
            Distance::SameRack
        } else {
            Distance::OffRack
        }
    }

    /// Distance from a reader endpoint to a datanode.
    pub fn reader_distance(&self, reader: Endpoint, node: NodeId) -> Distance {
        match reader {
            Endpoint::Node(n) => self.distance(n, node),
            Endpoint::Client(_) => Distance::OffRack,
        }
    }

    /// Whether a node-to-node transfer crosses racks.
    pub fn crosses_racks(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) != self.rack_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_evenly() {
        let t = Topology::round_robin(18, 3);
        assert_eq!(t.num_nodes(), 18);
        assert_eq!(t.num_racks(), 3);
        for r in 0..3u16 {
            assert_eq!(t.nodes_in_rack(RackId(r)).len(), 6);
        }
    }

    #[test]
    fn distances() {
        let t = Topology::round_robin(6, 3); // racks: 0,1,2,0,1,2
        assert_eq!(t.distance(NodeId(0), NodeId(0)), Distance::SameNode);
        assert_eq!(t.distance(NodeId(0), NodeId(3)), Distance::SameRack);
        assert_eq!(t.distance(NodeId(0), NodeId(1)), Distance::OffRack);
        assert!(Distance::SameNode < Distance::SameRack);
        assert!(Distance::SameRack < Distance::OffRack);
    }

    #[test]
    fn reader_distances() {
        let t = Topology::round_robin(6, 3);
        assert_eq!(
            t.reader_distance(Endpoint::Node(NodeId(0)), NodeId(0)),
            Distance::SameNode
        );
        assert_eq!(
            t.reader_distance(Endpoint::Node(NodeId(0)), NodeId(3)),
            Distance::SameRack
        );
        assert_eq!(
            t.reader_distance(Endpoint::Client(ClientId(9)), NodeId(0)),
            Distance::OffRack
        );
    }

    #[test]
    fn explicit_racks() {
        let t = Topology::from_racks(vec![RackId(0), RackId(0), RackId(4)]);
        assert_eq!(t.num_racks(), 5);
        assert!(t.crosses_racks(NodeId(0), NodeId(2)));
        assert!(!t.crosses_racks(NodeId(0), NodeId(1)));
    }
}
