//! Fair-share flow-level network model.
//!
//! Every transfer (block read, replica copy) is a **flow** with a byte
//! count and a set of capacity **resources** it traverses — the serving
//! datanode's disk, its NIC, the reader's NIC, and the rack uplinks when
//! the path crosses racks. Rates are assigned by **max-min fair
//! progressive filling**: all flows fill equally until some resource
//! saturates, flows through it freeze, and the rest keep filling. This
//! is the standard fluid approximation of TCP sharing and reproduces the
//! contention behaviour the paper measures (per-session throughput
//! collapsing as sessions pile onto the nodes holding hot replicas).
//!
//! # Cost model
//!
//! Rates are a lazily evaluated function of the flow set: a flow arrival,
//! departure or capacity change only marks them stale, and the one
//! filling (`FlowNet::fill`, the data plane's inner loop) runs when a
//! rate is next *read* — a `settle` over a non-zero interval,
//! `next_completion`, `rate` or `eta`. So however many flows change at
//! an instant, it costs one filling (the cluster reads again after each
//! completion, to name the next). That is exact: the filling is a pure
//! function of the capacities and the flows' paths in `FlowId` order,
//! and a `settle` that does not advance time changes nothing, so the
//! rates the skipped fillings would have produced were never observable.
//! A filling costs O(rounds × (L + Σ path lengths))
//! where L is the number of resources a live flow crosses — a few dozen
//! to a few hundred — and **not** the number of resources registered.
//! That distinction is the whole point: the cluster registers one NIC
//! per `ClientId` the first time that client moves a byte and never
//! releases it, so a long run holds thousands of resources of which all
//! but a handful are idle at any instant. The filling therefore builds
//! its list of loaded resources while it counts the flows on each, and
//! every later round walks that list only. The per-resource `counts` and
//! `residual` vectors and the two work lists live in the `FlowNet` and
//! are reused, so a filling allocates nothing; rates are written into
//! the flows as they freeze, and a frozen flow's resources are
//! un-counted on the spot.
//!
//! # Why the sparse filling is bit-identical to a dense one
//!
//! A dense filling (the test module keeps one as the reference oracle)
//! sweeps every registered resource each round. Restricting the sweep to
//! loaded resources changes no floating-point result: a round's `delta`
//! is a `min` over the quotients of exactly the resources with a live
//! flow (exact and order-independent), `level` accumulates the same
//! deltas in the same order, a loaded resource's `residual` sees the same
//! subtraction, and an idle resource's dense update is `-= delta * 0`.
//! Traces pin completion times to the nanosecond, so this matters.
//!
//! Filling is deliberately **not** restricted to the connected component
//! of the flow↔resource graph that changed. Each component would then
//! reach its rates through its own sequence of deltas, and
//! `(a + b) + c` is not `a + (b + c)`: rates move by ULPs, nanosecond
//! ETAs shift and every pinned trace digest with them.

use simcore::units::Bandwidth;
use simcore::SimTime;

/// A capacity resource (a NIC, a disk, a rack uplink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// A flow in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

#[derive(Debug)]
struct Flow {
    id: FlowId,
    resources: Vec<ResourceId>,
    remaining: f64,
    rate: f64,
}

/// Residual capacity at or below which a resource counts as saturated.
const SATURATED: f64 = 1e-6;

/// The flow that finishes first, as [`FlowNet::next_completion`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextCompletion {
    pub at: SimTime,
    pub flow: FlowId,
    /// Position of `flow` among the active flows in `FlowId` order.
    pub rank: usize,
}

/// The flow network.
#[derive(Debug, Default)]
pub struct FlowNet {
    capacities: Vec<f64>,
    /// Active flows in ascending `FlowId` order (ids only grow, so a new
    /// flow is pushed at the back).
    flows: Vec<Flow>,
    next_flow: u64,
    last_settle: SimTime,
    /// The flows or capacities changed since the rates were last filled.
    stale: bool,
    /// Fillings run so far.
    fillings: u64,

    // `fill` scratch, kept so a filling allocates nothing.
    /// Unfrozen flows on each resource; all zero between fillings.
    counts: Vec<u32>,
    /// Capacity left on each resource; meaningful only for `loaded` ones.
    residual: Vec<f64>,
    /// Resources crossed by at least one flow.
    loaded: Vec<usize>,
    /// Indices into `flows` of the flows not yet frozen.
    live: Vec<usize>,
}

impl FlowNet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource; capacity may later change (e.g. node death).
    pub fn add_resource(&mut self, capacity: Bandwidth) -> ResourceId {
        self.capacities.push(capacity.bytes_per_sec());
        self.counts.push(0);
        self.residual.push(0.0);
        ResourceId(self.capacities.len() - 1)
    }

    pub fn set_capacity(&mut self, now: SimTime, r: ResourceId, capacity: Bandwidth) {
        self.settle(now);
        self.capacities[r.0] = capacity.bytes_per_sec();
        self.stale = true;
    }

    pub fn capacity(&self, r: ResourceId) -> Bandwidth {
        Bandwidth(self.capacities[r.0])
    }

    /// Resources registered so far, loaded or idle.
    pub fn resources(&self) -> usize {
        self.capacities.len()
    }

    /// Start a flow of `bytes` across `resources`.
    pub fn start(&mut self, now: SimTime, bytes: u64, resources: Vec<ResourceId>) -> FlowId {
        debug_assert!(resources.iter().all(|r| r.0 < self.capacities.len()));
        self.settle(now);
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.flows.push(Flow {
            id,
            resources,
            remaining: bytes as f64,
            rate: 0.0,
        });
        self.stale = true;
        id
    }

    /// Remove a flow (completion or cancellation). Returns the bytes it
    /// still had left (0 ⇒ it was done).
    pub fn remove(&mut self, now: SimTime, id: FlowId) -> Option<u64> {
        self.settle(now);
        let flow = self.flows.remove(self.index_of(id)?);
        self.stale = true;
        Some(flow.remaining.max(0.0).round() as u64)
    }

    fn index_of(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        self.index_of(id).map(|i| &self.flows[i])
    }

    pub fn contains(&self, id: FlowId) -> bool {
        self.index_of(id).is_some()
    }
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Ids of the active flows, ascending.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.flows.iter().map(|f| f.id)
    }

    /// Fillings run so far (see the module's cost model).
    pub fn fillings(&self) -> u64 {
        self.fillings
    }

    /// Whether the rates reflect every change made so far.
    pub fn is_filled(&self) -> bool {
        !self.stale
    }

    /// Current rate of a flow in bytes/sec.
    pub fn rate(&mut self, id: FlowId) -> Option<Bandwidth> {
        self.fill();
        self.get(id).map(|f| Bandwidth(f.rate))
    }

    /// Remaining bytes of a flow as of the last settle point.
    pub fn remaining(&self, id: FlowId) -> Option<u64> {
        self.get(id).map(|f| f.remaining.max(0.0).round() as u64)
    }

    /// Predicted completion time of a flow given current rates.
    pub fn eta(&mut self, id: FlowId) -> Option<SimTime> {
        self.fill();
        self.get(id).map(|f| self.eta_of(f))
    }

    fn eta_of(&self, f: &Flow) -> SimTime {
        self.last_settle + Bandwidth(f.rate).transfer_time(f.remaining.max(0.0) as u64)
    }

    /// The flow that completes first under current rates, no completion
    /// counted earlier than `not_before`; the lowest `FlowId` wins a tie.
    /// Until rates next change no other flow can complete before it.
    pub fn next_completion(&mut self, not_before: SimTime) -> Option<NextCompletion> {
        self.fill();
        let mut best: Option<NextCompletion> = None;
        for (rank, f) in self.flows.iter().enumerate() {
            let at = self.eta_of(f).max(not_before);
            if best.is_none_or(|b| at < b.at) {
                best = Some(NextCompletion {
                    at,
                    flow: f.id,
                    rank,
                });
            }
        }
        best
    }

    /// Advance internal progress accounting to `now`.
    pub fn settle(&mut self, now: SimTime) {
        if now <= self.last_settle {
            return;
        }
        self.fill();
        let dt = (now - self.last_settle).as_secs_f64();
        for f in &mut self.flows {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        self.last_settle = now;
    }

    /// Max-min fair progressive filling over the loaded resources, if
    /// anything changed since the last one. Every read of a rate starts here.
    fn fill(&mut self) {
        if !std::mem::take(&mut self.stale) {
            return;
        }
        self.fillings += 1;
        simcore::prof_scope!("flow_recompute");
        let FlowNet {
            capacities,
            flows,
            counts,
            residual,
            loaded,
            live,
            ..
        } = self;
        loaded.clear();
        live.clear();
        live.extend(0..flows.len());
        for f in flows.iter() {
            for r in &f.resources {
                if counts[r.0] == 0 {
                    residual[r.0] = capacities[r.0];
                    loaded.push(r.0);
                }
                counts[r.0] += 1;
            }
        }

        let mut level = 0.0f64;
        while !live.is_empty() {
            // headroom per live flow on each resource that still has one
            let mut delta = f64::INFINITY;
            for &r in loaded.iter() {
                if counts[r] > 0 {
                    delta = delta.min(residual[r].max(0.0) / f64::from(counts[r]));
                }
            }
            if !delta.is_finite() {
                // live flows traverse no resources: unconstrained — give
                // them an effectively unlimited rate and stop.
                for &i in live.iter() {
                    flows[i].rate = f64::MAX / 4.0;
                }
                break;
            }
            level += delta;
            for &r in loaded.iter() {
                residual[r] -= delta * f64::from(counts[r]);
            }
            // freeze flows crossing any saturated resource
            let before = live.len();
            live.retain(|&i| {
                let f = &mut flows[i];
                let saturated = f.resources.iter().any(|r| residual[r.0] <= SATURATED);
                if saturated {
                    f.rate = level;
                    for r in &f.resources {
                        counts[r.0] -= 1;
                    }
                }
                !saturated
            });
            debug_assert!(
                live.len() < before || live.is_empty(),
                "progressive filling must make progress"
            );
            if live.len() == before {
                // numerical corner: freeze everything at current level
                for &i in live.iter() {
                    flows[i].rate = level;
                }
                break;
            }
        }
        for &r in loaded.iter() {
            counts[r] = 0;
        }
    }
}

checkpoint::ck_id!(ResourceId, FlowId);
checkpoint::ck_record!(Flow {
    id,
    resources,
    remaining,
    rate
});

impl checkpoint::Checkpointable for FlowNet {
    // Capacities are replaced wholesale: the saved run may have lazily
    // registered more resources (client NICs) than a freshly built
    // instance has.
    checkpoint::ck_fields!(capacities, flows, next_flow, last_settle; then check_loaded);
}

impl FlowNet {
    /// Size the scratch vectors to the loaded capacities and refuse a
    /// flow that crosses a resource nobody registered.
    fn check_loaded(&mut self) -> Result<(), checkpoint::CheckpointError> {
        let registered = self.capacities.len();
        if let Some(r) = self
            .flows
            .iter()
            .flat_map(|f| &f.resources)
            .find(|r| r.0 >= registered)
        {
            return Err(checkpoint::CheckpointError::Corrupt(format!(
                "`flows[].resources`: resource {} of {registered} registered",
                r.0
            )));
        }
        self.counts = vec![0; registered];
        self.residual = vec![0.0; registered];
        self.flows.sort_by_key(|f| f.id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::MB;
    use std::collections::BTreeMap;

    fn bw(mb: f64) -> Bandwidth {
        Bandwidth::from_mb_per_sec(mb)
    }

    #[test]
    fn single_flow_gets_bottleneck_rate() {
        let mut net = FlowNet::new();
        let disk = net.add_resource(bw(80.0));
        let nic = net.add_resource(bw(119.0));
        let f = net.start(SimTime::ZERO, 80 * MB, vec![disk, nic]);
        assert!((net.rate(f).unwrap().mb_per_sec() - 80.0).abs() < 1e-6);
        let next = net.next_completion(SimTime::ZERO).unwrap();
        assert_eq!((next.flow, next.rank), (f, 0));
        assert!((next.at.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_resource_equally() {
        let mut net = FlowNet::new();
        let disk = net.add_resource(bw(80.0));
        let f1 = net.start(SimTime::ZERO, 80 * MB, vec![disk]);
        let f2 = net.start(SimTime::ZERO, 80 * MB, vec![disk]);
        assert!((net.rate(f1).unwrap().mb_per_sec() - 40.0).abs() < 1e-6);
        assert!((net.rate(f2).unwrap().mb_per_sec() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flow() {
        // Two flows share disk A (80); flow 2 also crosses a slow client
        // NIC (10). True max-min: f2 = 10, f1 = 70. Plain equal split
        // would wrongly give f1 = 40.
        let mut net = FlowNet::new();
        let disk = net.add_resource(bw(80.0));
        let slow_nic = net.add_resource(bw(10.0));
        let f1 = net.start(SimTime::ZERO, MB, vec![disk]);
        let f2 = net.start(SimTime::ZERO, MB, vec![disk, slow_nic]);
        assert!((net.rate(f2).unwrap().mb_per_sec() - 10.0).abs() < 1e-6);
        assert!((net.rate(f1).unwrap().mb_per_sec() - 70.0).abs() < 1e-6);
    }

    #[test]
    fn progress_settles_across_rate_changes() {
        let mut net = FlowNet::new();
        let disk = net.add_resource(bw(100.0));
        let f1 = net.start(SimTime::ZERO, 200 * MB, vec![disk]);
        // at t=1s, 100MB done; start a second flow → both at 50
        let f2 = net.start(SimTime::from_secs(1), 100 * MB, vec![disk]);
        assert_eq!(net.remaining(f1), Some(100 * MB));
        assert!((net.rate(f1).unwrap().mb_per_sec() - 50.0).abs() < 1e-6);
        // both need 2 more seconds
        let next = net.next_completion(SimTime::ZERO).unwrap();
        assert!((next.at.as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(next.flow, f1, "a tie goes to the lowest FlowId");
        assert_eq!(Some(next.at), net.eta(f1));
        assert_eq!(
            net.next_completion(SimTime::from_secs(5)).unwrap().at,
            SimTime::from_secs(5),
            "never reported before `not_before`"
        );
        // completing f1 at t=3 restores f2 to full rate with 0 left
        net.settle(SimTime::from_secs(3));
        assert_eq!(net.remaining(f1), Some(0));
        assert_eq!(net.remaining(f2), Some(0));
        assert_eq!(net.remove(SimTime::from_secs(3), f1), Some(0));
        assert_eq!(net.remove(SimTime::from_secs(3), f2), Some(0));
        assert!(net.next_completion(SimTime::ZERO).is_none());
    }

    #[test]
    fn capacity_change_rebalances() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(bw(100.0));
        let f = net.start(SimTime::ZERO, 100 * MB, vec![nic]);
        net.set_capacity(SimTime::from_millis(500), nic, bw(50.0));
        assert!((net.rate(f).unwrap().mb_per_sec() - 50.0).abs() < 1e-6);
        // 50MB left at 50MB/s → done at t=1.5
        let t = net.next_completion(SimTime::ZERO).unwrap().at;
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_stalls_but_does_not_hang() {
        let mut net = FlowNet::new();
        let dead = net.add_resource(bw(0.0));
        let f = net.start(SimTime::ZERO, MB, vec![dead]);
        assert_eq!(net.rate(f).unwrap().bytes_per_sec(), 0.0);
        let t = net.next_completion(SimTime::ZERO).unwrap().at;
        assert!(
            t.as_secs_f64() > 1e6,
            "stalled flow sorts far in the future"
        );
        // removing the stalled flow reports its bytes intact
        assert_eq!(net.remove(SimTime::from_secs(10), f), Some(MB));
    }

    #[test]
    fn removal_mid_flight_reports_leftover() {
        let mut net = FlowNet::new();
        let disk = net.add_resource(bw(100.0));
        let f = net.start(SimTime::ZERO, 100 * MB, vec![disk]);
        let left = net.remove(SimTime::from_millis(250), f).unwrap();
        assert_eq!(left, 75 * MB);
        assert!(
            net.remove(SimTime::from_secs(1), f).is_none(),
            "double remove"
        );
    }

    #[test]
    fn many_flows_conserve_capacity() {
        let mut net = FlowNet::new();
        let disk = net.add_resource(bw(80.0));
        let flows: Vec<FlowId> = (0..16)
            .map(|_| net.start(SimTime::ZERO, MB, vec![disk]))
            .collect();
        let total: f64 = flows
            .iter()
            .map(|&f| net.rate(f).unwrap().mb_per_sec())
            .sum();
        assert!(
            (total - 80.0).abs() < 1e-3,
            "sum of rates = capacity, got {total}"
        );
        for &f in &flows {
            assert!((net.rate(f).unwrap().mb_per_sec() - 5.0).abs() < 1e-6);
        }
    }

    /// The reference oracle: the same model with the textbook dense
    /// filling — every round allocates and sweeps a vector over every
    /// registered resource, and rates are collected in a map. Slow and
    /// obviously right; [`FlowNet`] must agree with it to the bit.
    #[derive(Default)]
    struct DenseNet {
        capacities: Vec<f64>,
        flows: BTreeMap<FlowId, (Vec<ResourceId>, f64, f64)>, // resources, remaining, rate
        next_flow: u64,
        last_settle: SimTime,
    }

    impl DenseNet {
        fn add_resource(&mut self, capacity: Bandwidth) {
            self.capacities.push(capacity.bytes_per_sec());
        }

        fn set_capacity(&mut self, now: SimTime, r: ResourceId, capacity: Bandwidth) {
            self.settle(now);
            self.capacities[r.0] = capacity.bytes_per_sec();
            self.recompute();
        }

        fn start(&mut self, now: SimTime, bytes: u64, resources: Vec<ResourceId>) -> FlowId {
            self.settle(now);
            let id = FlowId(self.next_flow);
            self.next_flow += 1;
            self.flows.insert(id, (resources, bytes as f64, 0.0));
            self.recompute();
            id
        }

        fn remove(&mut self, now: SimTime, id: FlowId) -> Option<u64> {
            self.settle(now);
            let (_, remaining, _) = self.flows.remove(&id)?;
            self.recompute();
            Some(remaining.max(0.0).round() as u64)
        }

        fn rate(&self, id: FlowId) -> f64 {
            self.flows[&id].2
        }

        fn eta(&self, id: FlowId) -> SimTime {
            let (_, remaining, rate) = &self.flows[&id];
            self.last_settle + Bandwidth(*rate).transfer_time(remaining.max(0.0) as u64)
        }

        fn settle(&mut self, now: SimTime) {
            if now <= self.last_settle {
                return;
            }
            let dt = (now - self.last_settle).as_secs_f64();
            for (_, remaining, rate) in self.flows.values_mut() {
                *remaining = (*remaining - *rate * dt).max(0.0);
            }
            self.last_settle = now;
        }

        fn recompute(&mut self) {
            let n_res = self.capacities.len();
            let mut residual = self.capacities.clone();
            let mut frozen: BTreeMap<FlowId, f64> = BTreeMap::new();
            let mut level = 0.0f64;
            let mut live: Vec<FlowId> = self.flows.keys().copied().collect();
            while !live.is_empty() {
                let mut counts = vec![0usize; n_res];
                for id in &live {
                    for r in &self.flows[id].0 {
                        counts[r.0] += 1;
                    }
                }
                let mut delta = f64::INFINITY;
                for r in 0..n_res {
                    if counts[r] > 0 {
                        delta = delta.min(residual[r].max(0.0) / counts[r] as f64);
                    }
                }
                if !delta.is_finite() {
                    for id in live.drain(..) {
                        frozen.insert(id, f64::MAX / 4.0);
                    }
                    break;
                }
                level += delta;
                for r in 0..n_res {
                    residual[r] -= delta * counts[r] as f64;
                }
                let before = live.len();
                live.retain(|id| {
                    let saturated = self.flows[id].0.iter().any(|r| residual[r.0] <= 1e-6);
                    if saturated {
                        frozen.insert(*id, level);
                    }
                    !saturated
                });
                if live.len() == before {
                    for id in live.drain(..) {
                        frozen.insert(id, level);
                    }
                }
            }
            for (id, f) in self.flows.iter_mut() {
                f.2 = frozen.get(id).copied().unwrap_or(0.0);
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random topologies: flows over random subsets of resources.
        fn arb_net() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
            (2usize..8, 1usize..14).prop_flat_map(|(n_res, n_flows)| {
                let caps = prop::collection::vec(1.0f64..200.0, n_res);
                let paths = prop::collection::vec(
                    prop::collection::btree_set(0..n_res, 1..=n_res.min(4)),
                    n_flows,
                )
                .prop_map(|v| v.into_iter().map(|s| s.into_iter().collect()).collect());
                (caps, paths)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn rates_are_max_min_fair((caps, paths) in arb_net()) {
                let mut net = FlowNet::new();
                let res: Vec<ResourceId> = caps
                    .iter()
                    .map(|&c| net.add_resource(Bandwidth(c)))
                    .collect();
                let flows: Vec<FlowId> = paths
                    .iter()
                    .map(|p| {
                        let r: Vec<ResourceId> = p.iter().map(|&i| res[i]).collect();
                        net.start(SimTime::ZERO, 1 << 30, r)
                    })
                    .collect();
                let rates: Vec<f64> = flows
                    .iter()
                    .map(|&f| net.rate(f).unwrap().bytes_per_sec())
                    .collect();

                // feasibility: no resource is oversubscribed
                let eps = 1e-6;
                let mut load = vec![0.0f64; caps.len()];
                for (path, &rate) in paths.iter().zip(&rates) {
                    for &r in path {
                        load[r] += rate;
                    }
                }
                for (r, (&l, &c)) in load.iter().zip(&caps).enumerate() {
                    prop_assert!(l <= c + eps * c.max(1.0), "resource {r}: {l} > {c}");
                }

                // max-min optimality: every flow is blocked by a resource
                // that is saturated AND on which it has a maximal rate
                // (no flow could grow without shrinking a smaller one)
                for (i, path) in paths.iter().enumerate() {
                    let blocked = path.iter().any(|&r| {
                        let saturated = load[r] >= caps[r] - eps * caps[r].max(1.0);
                        let maximal = paths
                            .iter()
                            .enumerate()
                            .filter(|(_, q)| q.contains(&r))
                            .all(|(j, _)| rates[j] <= rates[i] + eps);
                        saturated && maximal
                    });
                    prop_assert!(blocked, "flow {i} (rate {}) has headroom", rates[i]);
                }
            }

            #[test]
            fn settle_conserves_bytes(
                (caps, paths) in arb_net(),
                steps in prop::collection::vec(1u64..500, 1..6),
            ) {
                // Advancing in many small steps must account the same
                // progress as advancing once (piecewise-constant rates:
                // no flow completes mid-interval here because we never
                // remove flows, so rates are constant throughout).
                let total_ms: u64 = steps.iter().sum();
                let build = |net: &mut FlowNet| -> Vec<FlowId> {
                    let res: Vec<ResourceId> = caps
                        .iter()
                        .map(|&c| net.add_resource(Bandwidth(c)))
                        .collect();
                    paths
                        .iter()
                        .map(|p| {
                            let r: Vec<ResourceId> = p.iter().map(|&i| res[i]).collect();
                            net.start(SimTime::ZERO, 1 << 40, r)
                        })
                        .collect()
                };
                let mut stepped = FlowNet::new();
                let fs = build(&mut stepped);
                let mut t = 0u64;
                for &ms in &steps {
                    t += ms;
                    stepped.settle(SimTime::from_millis(t));
                }
                let mut whole = FlowNet::new();
                let fw = build(&mut whole);
                whole.settle(SimTime::from_millis(total_ms));
                for (&a, &b) in fs.iter().zip(&fw) {
                    let ra = stepped.remaining(a).unwrap();
                    let rb = whole.remaining(b).unwrap();
                    let diff = ra.abs_diff(rb);
                    prop_assert!(diff <= 8, "stepped {ra} vs whole {rb}");
                }
            }
        }

        /// The cluster's shape: a block of node/uplink resources that
        /// carry the traffic, then thousands of client NICs that were
        /// each used once and sit idle for the rest of the run.
        const BUSY: usize = 24;
        const REGISTERED: usize = 4_200;

        #[derive(Debug, Clone)]
        enum Op {
            /// A flow over these resources (indices; none ⇒ unconstrained).
            Start {
                bytes: u64,
                path: Vec<usize>,
            },
            /// Remove the `pick`-th active flow (modulo the live count).
            Remove {
                pick: usize,
            },
            SetCapacity {
                res: usize,
                mb: f64,
            },
        }

        /// Mostly the busy block, sometimes a far-away client NIC.
        fn arb_res() -> impl Strategy<Value = usize> {
            prop_oneof![0..BUSY, 0..BUSY, 0..BUSY, BUSY..REGISTERED]
        }

        fn arb_start() -> impl Strategy<Value = Op> {
            (
                1u64..(64 << 20),
                prop::collection::btree_set(arb_res(), 0..=5),
            )
                .prop_map(|(bytes, path)| Op::Start {
                    bytes,
                    path: path.into_iter().collect(),
                })
        }

        fn arb_remove() -> impl Strategy<Value = Op> {
            any::<usize>().prop_map(|pick| Op::Remove { pick })
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                arb_start(),
                arb_start(),
                arb_start(),
                arb_remove(),
                arb_remove(),
                (arb_res(), arb_capacity()).prop_map(|(res, mb)| Op::SetCapacity { res, mb }),
            ]
        }

        /// One capacity in five is a dead (zero) resource.
        fn arb_capacity() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                0.5f64..200.0,
                0.5f64..200.0,
                0.5f64..200.0,
                0.5f64..200.0
            ]
        }

        /// 1–8 changes at one instant `gap_ms` after the previous burst
        /// (0 ⇒ the same instant, after its rates were read), then
        /// `run_ms` of progress at the rates they leave behind.
        fn arb_burst() -> impl Strategy<Value = (Vec<Op>, u64, u64)> {
            (prop::collection::vec(arb_op(), 1..=8), 0u64..400, 0u64..400)
        }

        proptest! {
            /// The lazy sparse filling against the eager dense one. The
            /// reference refills on every operation; `FlowNet` is read
            /// only once a burst is over, so it must get there in one
            /// filling — and to the same bits.
            #[test]
            fn sparse_filling_matches_the_dense_reference(
                caps in prop::collection::vec(arb_capacity(), BUSY),
                bursts in prop::collection::vec(arb_burst(), 1..24),
            ) {
                let mut net = FlowNet::new();
                let mut dense = DenseNet::default();
                for i in 0..REGISTERED {
                    let c = bw(caps.get(i).copied().unwrap_or(119.0));
                    net.add_resource(c);
                    dense.add_resource(c);
                }
                let mut active: Vec<FlowId> = Vec::new();
                let mut now_ms = 0u64;
                let mut changed_bursts = 0u64;
                for (ops, gap_ms, run_ms) in bursts {
                    now_ms += gap_ms;
                    let now = SimTime::from_millis(now_ms);
                    let mut changed = false;
                    for op in ops {
                        match op {
                            Op::Start { bytes, path } => {
                                let path: Vec<ResourceId> =
                                    path.into_iter().map(ResourceId).collect();
                                let id = net.start(now, bytes, path.clone());
                                prop_assert_eq!(id, dense.start(now, bytes, path));
                                active.push(id);
                                changed = true;
                            }
                            Op::Remove { pick } if !active.is_empty() => {
                                let id = active.remove(pick % active.len());
                                prop_assert_eq!(net.remove(now, id), dense.remove(now, id));
                                changed = true;
                            }
                            Op::Remove { .. } => {}
                            Op::SetCapacity { res, mb } => {
                                net.set_capacity(now, ResourceId(res), bw(mb));
                                dense.set_capacity(now, ResourceId(res), bw(mb));
                                changed = true;
                            }
                        }
                    }
                    changed_bursts += u64::from(changed);

                    let first = active.iter().map(|&id| (dense.eta(id), id)).min();
                    prop_assert_eq!(
                        net.next_completion(SimTime::ZERO).map(|n| (n.at, n.flow)),
                        first
                    );
                    for &id in &active {
                        prop_assert_eq!(
                            net.rate(id).unwrap().bytes_per_sec().to_bits(),
                            dense.rate(id).to_bits(),
                            "rate of {:?}", id
                        );
                        prop_assert_eq!(net.eta(id), Some(dense.eta(id)), "eta of {:?}", id);
                    }
                    prop_assert_eq!(net.fillings(), changed_bursts, "one filling per changed burst");
                    prop_assert!(net.counts.iter().all(|&c| c == 0), "scratch counts left dirty");

                    now_ms += run_ms;
                    let now = SimTime::from_millis(now_ms);
                    net.settle(now);
                    dense.settle(now);
                    for f in &net.flows {
                        prop_assert_eq!(
                            f.remaining.to_bits(),
                            dense.flows[&f.id].1.to_bits(),
                            "remaining of {:?}", f.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cross_rack_path_bottlenecks_on_uplink() {
        let mut net = FlowNet::new();
        let src_nic = net.add_resource(bw(119.0));
        let uplink = net.add_resource(bw(30.0));
        let dst_nic = net.add_resource(bw(119.0));
        let f = net.start(SimTime::ZERO, MB, vec![src_nic, uplink, dst_nic]);
        assert!((net.rate(f).unwrap().mb_per_sec() - 30.0).abs() < 1e-6);
    }
}
