//! The Active/Standby storage model and energy accounting.
//!
//! "This model classifies the storage nodes into two types: active nodes
//! and standby nodes... After all data in a standby node are removed,
//! ERMS could shut down that node for energy saving." This module owns
//! that bookkeeping: which nodes form the standby pool, which of them
//! are currently powered (commissioned), and how many node-seconds of
//! energy the pool has consumed — the quantity the energy ablation
//! reports.

use hdfs_sim::NodeId;
use simcore::SimTime;
use std::collections::BTreeMap;

/// Power state the model believes a standby node is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandbyState {
    Off,
    /// Boot requested; counts as powered from the request onward.
    Booting,
    On,
}

/// Active/standby bookkeeping.
#[derive(Debug)]
pub struct ActiveStandbyModel {
    active: Vec<NodeId>,
    standby: BTreeMap<NodeId, StandbyState>,
    /// Accumulated powered node-seconds of the standby pool.
    powered_secs: f64,
    /// When each powered standby node last changed state.
    powered_since: BTreeMap<NodeId, SimTime>,
}

impl ActiveStandbyModel {
    /// Split the node set: `active` always-on nodes, `standby` elastic
    /// ones (initially off).
    pub fn new(active: Vec<NodeId>, standby: Vec<NodeId>) -> Self {
        assert!(!active.is_empty(), "need at least one active node");
        let standby = standby
            .into_iter()
            .map(|n| (n, StandbyState::Off))
            .collect();
        ActiveStandbyModel {
            active,
            standby,
            powered_secs: 0.0,
            powered_since: BTreeMap::new(),
        }
    }

    /// Every node active (the vanilla baseline).
    pub fn all_active(nodes: Vec<NodeId>) -> Self {
        ActiveStandbyModel::new(nodes, Vec::new())
    }

    pub fn active_nodes(&self) -> &[NodeId] {
        &self.active
    }
    pub fn standby_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.standby.keys().copied()
    }
    pub fn is_standby(&self, n: NodeId) -> bool {
        self.standby.contains_key(&n)
    }
    pub fn state_of(&self, n: NodeId) -> Option<StandbyState> {
        self.standby.get(&n).copied()
    }

    /// Standby nodes currently off (commission candidates), id order.
    pub fn powered_off(&self) -> Vec<NodeId> {
        self.standby
            .iter()
            .filter(|(_, &s)| s == StandbyState::Off)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Standby nodes on or booting.
    pub fn powered_on(&self) -> Vec<NodeId> {
        self.standby
            .iter()
            .filter(|(_, &s)| s != StandbyState::Off)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Record a commission request at `now`. Returns false if the node is
    /// not a standby node or is already powered.
    pub fn request_boot(&mut self, n: NodeId, now: SimTime) -> bool {
        match self.standby.get_mut(&n) {
            Some(s @ StandbyState::Off) => {
                *s = StandbyState::Booting;
                self.powered_since.insert(n, now);
                true
            }
            _ => false,
        }
    }

    /// The node finished booting.
    pub fn mark_booted(&mut self, n: NodeId) {
        if let Some(s) = self.standby.get_mut(&n) {
            if *s == StandbyState::Booting {
                *s = StandbyState::On;
            }
        }
    }

    /// Power a standby node down at `now`, banking its energy usage.
    pub fn shut_down(&mut self, n: NodeId, now: SimTime) -> bool {
        match self.standby.get_mut(&n) {
            Some(s) if *s != StandbyState::Off => {
                *s = StandbyState::Off;
                if let Some(since) = self.powered_since.remove(&n) {
                    self.powered_secs += now.since(since).as_secs_f64();
                }
                true
            }
            _ => false,
        }
    }

    /// A commissioned standby node crashed: bank its energy and return
    /// it to `Off` so the next commission request selects a healthy
    /// replacement. Returns false if the node was not powered (or not a
    /// standby node at all).
    pub fn mark_failed(&mut self, n: NodeId, now: SimTime) -> bool {
        self.shut_down(n, now)
    }

    /// Total standby-pool energy consumed by `now`, in node-seconds
    /// (running nodes accrue up to `now` without being stopped).
    pub fn standby_node_seconds(&self, now: SimTime) -> f64 {
        let running: f64 = self
            .powered_since
            .values()
            .map(|&since| now.since(since).as_secs_f64())
            .sum();
        self.powered_secs + running
    }

    /// Node-seconds an all-active cluster of the same size would have
    /// burned on these nodes (the energy baseline).
    pub fn all_active_node_seconds(&self, now: SimTime) -> f64 {
        self.standby.len() as f64 * now.as_secs_f64()
    }
}

checkpoint::ck_enum!(StandbyState { Off => "off", Booting => "booting", On => "on" });

impl checkpoint::Checkpointable for ActiveStandbyModel {
    // The active/standby split is reconstructed from config by
    // `ErmsManager::new`, but the split is cheap and the power states /
    // energy meter are genuinely dynamic, so the whole model is captured.
    checkpoint::ck_fields!(active, standby, powered_secs, powered_since);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn model() -> ActiveStandbyModel {
        ActiveStandbyModel::new(
            (0..10).map(NodeId).collect(),
            (10..18).map(NodeId).collect(),
        )
    }

    #[test]
    fn partition_is_tracked() {
        let m = model();
        assert_eq!(m.active_nodes().len(), 10);
        assert_eq!(m.standby_nodes().count(), 8);
        assert!(m.is_standby(NodeId(12)));
        assert!(!m.is_standby(NodeId(2)));
        assert_eq!(m.powered_off().len(), 8);
        assert!(m.powered_on().is_empty());
    }

    #[test]
    fn boot_lifecycle() {
        let mut m = model();
        assert!(m.request_boot(NodeId(10), t(0)));
        assert_eq!(m.state_of(NodeId(10)), Some(StandbyState::Booting));
        assert!(!m.request_boot(NodeId(10), t(1)), "double boot rejected");
        assert!(!m.request_boot(NodeId(0), t(1)), "active nodes can't boot");
        m.mark_booted(NodeId(10));
        assert_eq!(m.state_of(NodeId(10)), Some(StandbyState::On));
        assert_eq!(m.powered_on(), vec![NodeId(10)]);
        assert!(m.shut_down(NodeId(10), t(100)));
        assert!(!m.shut_down(NodeId(10), t(101)), "already off");
        assert_eq!(m.powered_off().len(), 8);
    }

    #[test]
    fn energy_accounting() {
        let mut m = model();
        m.request_boot(NodeId(10), t(0));
        m.mark_booted(NodeId(10));
        m.request_boot(NodeId(11), t(50));
        // at t=100: node10 ran 100s, node11 ran 50s
        assert!((m.standby_node_seconds(t(100)) - 150.0).abs() < 1e-9);
        m.shut_down(NodeId(10), t(100));
        // at t=200: node10 banked 100, node11 still running → 100+150
        assert!((m.standby_node_seconds(t(200)) - 250.0).abs() < 1e-9);
        // all-active baseline would have burned 8 nodes × 200s
        assert!((m.all_active_node_seconds(t(200)) - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn all_active_baseline_has_no_standby() {
        let m = ActiveStandbyModel::all_active((0..18).map(NodeId).collect());
        assert_eq!(m.standby_nodes().count(), 0);
        assert_eq!(m.standby_node_seconds(t(1000)), 0.0);
    }

    #[test]
    fn checkpoint_round_trips_power_states_and_energy() {
        use checkpoint::Checkpointable;
        let mut m = model();
        m.request_boot(NodeId(10), t(0));
        m.mark_booted(NodeId(10));
        m.request_boot(NodeId(11), t(50));
        m.shut_down(NodeId(10), t(100)); // banked 100 node-seconds
        m.request_boot(NodeId(12), t(110));

        // survive an actual serialize → parse cycle, not just a clone
        let json = serde_json::to_string(&m.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut fresh = model();
        fresh.load_state(&back).unwrap();

        assert_eq!(fresh.state_of(NodeId(10)), Some(StandbyState::Off));
        assert_eq!(fresh.state_of(NodeId(11)), Some(StandbyState::Booting));
        assert_eq!(fresh.state_of(NodeId(12)), Some(StandbyState::Booting));
        assert_eq!(fresh.active_nodes(), m.active_nodes());
        assert_eq!(
            fresh.standby_node_seconds(t(200)).to_bits(),
            m.standby_node_seconds(t(200)).to_bits(),
            "energy meter is bit-exact"
        );
    }

    #[test]
    fn checkpoint_rejects_unknown_standby_state() {
        use checkpoint::codec::MapBuilder;
        use checkpoint::Checkpointable;
        let mut m = model();
        let bad = MapBuilder::new()
            .put("active", &vec![0u32])
            .put("standby", &vec![(10u32, "rebooting".to_string())])
            .put("powered_secs", &0.0)
            .put("powered_since", &Vec::<u32>::new())
            .build();
        assert!(matches!(
            m.load_state(&bad),
            Err(checkpoint::CheckpointError::Corrupt(_))
        ));
    }
}
