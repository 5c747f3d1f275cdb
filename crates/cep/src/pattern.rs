//! Event-sequence patterns (correlation).
//!
//! The paper's CEP engine "identifies the most meaningful events from
//! event clouds, analyzes their correlation, and takes action in real
//! time". Windowed aggregation (the [`crate::query`] module) covers the
//! counting rules; this module covers *sequences*: "an `A` event followed
//! by a `B` event within `t`, correlated on a key" — e.g. a file
//! `create` followed by a burst-opening `open` on the same path (a
//! fresh-data popularity spike), or a datanode decommission followed by
//! reads of blocks it held.
//!
//! Matching semantics: every unexpired `A` pairs with the first
//! subsequent `B` that shares its correlation key (each `A` fires at most
//! once; a `B` may complete several pending `A`s arriving in one batch of
//! distinct keys, but consumes at most one `A` per key — the common
//! "first match, no reuse" CEP policy).

use crate::event::Event;
use crate::query::Predicate;
use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Filter for one leg of a sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct EventFilter {
    /// Event type; `None` matches any.
    pub event_type: Option<String>,
    pub predicates: Vec<Predicate>,
}

impl EventFilter {
    pub fn of_type(t: impl Into<String>) -> Self {
        EventFilter {
            event_type: Some(t.into()),
            predicates: Vec::new(),
        }
    }

    pub fn with(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    pub fn matches(&self, e: &Event) -> bool {
        if let Some(t) = &self.event_type {
            if e.event_type.as_ref() != t {
                return false;
            }
        }
        self.predicates.iter().all(|p| p.matches(e))
    }
}

/// `first` followed by `second` within `within`, correlated on `key_field`.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowedBy {
    pub first: EventFilter,
    pub second: EventFilter,
    pub within: SimDuration,
    /// Field whose value must be equal on both events; `None` correlates
    /// any A with any B.
    pub key_field: Option<String>,
}

/// A completed sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    pub first: Event,
    pub second: Event,
}

impl PatternMatch {
    pub fn gap(&self) -> SimDuration {
        self.second.time.since(self.first.time)
    }
}

/// Incremental matcher for one [`FollowedBy`] pattern.
#[derive(Debug)]
pub struct PatternState {
    spec: FollowedBy,
    /// Pending unmatched `A` events, oldest first.
    pending: VecDeque<Event>,
    matches_emitted: u64,
}

impl PatternState {
    pub fn new(spec: FollowedBy) -> Self {
        PatternState {
            spec,
            pending: VecDeque::new(),
            matches_emitted: 0,
        }
    }

    pub fn spec(&self) -> &FollowedBy {
        &self.spec
    }
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
    pub fn matches_emitted(&self) -> u64 {
        self.matches_emitted
    }

    fn expire(&mut self, now: SimTime) {
        let within = self.spec.within;
        while let Some(front) = self.pending.front() {
            if front.time + within < now {
                self.pending.pop_front();
            } else {
                break;
            }
        }
    }

    fn keys_equal(&self, a: &Event, b: &Event) -> bool {
        match &self.spec.key_field {
            None => true,
            Some(k) => match (a.get(k), b.get(k)) {
                (Some(x), Some(y)) => x.loosely_eq(y),
                _ => false,
            },
        }
    }

    /// Offer an event (non-decreasing time); returns completed matches.
    pub fn offer(&mut self, event: &Event) -> Vec<PatternMatch> {
        self.expire(event.time);
        let mut out = Vec::new();
        // B leg first: an event may satisfy both legs, but it cannot
        // complete itself (strictly-later semantics would drop same-time
        // matches; we allow same-time-or-later pairs from *earlier* As)
        if self.spec.second.matches(event) {
            if let Some(pos) = self.pending.iter().position(|a| self.keys_equal(a, event)) {
                let first = self.pending.remove(pos).expect("position valid");
                self.matches_emitted += 1;
                out.push(PatternMatch {
                    first,
                    second: event.clone(),
                });
            }
        }
        if self.spec.first.matches(event) {
            self.pending.push_back(event.clone());
        }
        out
    }
}

checkpoint::ck_record!(PatternMatch [first, second]);

impl checkpoint::Checkpointable for PatternState {
    // The spec is rebuilt by re-registration on restore; only the pending
    // `A` queue and the emitted-match counter are runtime state.
    checkpoint::ck_fields!(pending, matches_emitted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    fn ev(t: u64, ty: &str, path: &str) -> Event {
        Event::new(SimTime::from_secs(t), ty).with("src", path)
    }

    fn create_then_open(within: u64) -> PatternState {
        PatternState::new(FollowedBy {
            first: EventFilter::of_type("audit")
                .with(Predicate::Eq("cmd".into(), Value::str("create"))),
            second: EventFilter::of_type("audit")
                .with(Predicate::Eq("cmd".into(), Value::str("open"))),
            within: SimDuration::from_secs(within),
            key_field: Some("src".into()),
        })
    }

    fn audit(t: u64, cmd: &str, path: &str) -> Event {
        ev(t, "audit", path).with("cmd", cmd)
    }

    #[test]
    fn matches_within_window_on_same_key() {
        let mut p = create_then_open(60);
        assert!(p.offer(&audit(0, "create", "/a")).is_empty());
        let m = p.offer(&audit(30, "open", "/a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].gap(), SimDuration::from_secs(30));
        assert_eq!(p.matches_emitted(), 1);
        assert_eq!(p.pending_len(), 0, "A consumed by its match");
    }

    #[test]
    fn different_keys_do_not_match() {
        let mut p = create_then_open(60);
        p.offer(&audit(0, "create", "/a"));
        assert!(p.offer(&audit(10, "open", "/b")).is_empty());
        assert_eq!(p.pending_len(), 1, "A for /a still waiting");
    }

    #[test]
    fn expiry_drops_stale_as() {
        let mut p = create_then_open(60);
        p.offer(&audit(0, "create", "/a"));
        // 61s later: the A has expired
        assert!(p.offer(&audit(61, "open", "/a")).is_empty());
        assert_eq!(p.pending_len(), 0);
    }

    #[test]
    fn boundary_time_still_matches() {
        let mut p = create_then_open(60);
        p.offer(&audit(0, "create", "/a"));
        let m = p.offer(&audit(60, "open", "/a"));
        assert_eq!(m.len(), 1, "within is inclusive");
    }

    #[test]
    fn each_a_fires_once_oldest_first() {
        let mut p = create_then_open(600);
        p.offer(&audit(0, "create", "/a"));
        // an A for the same key queued again (e.g. re-create)
        p.offer(&audit(5, "create", "/a"));
        let m1 = p.offer(&audit(10, "open", "/a"));
        assert_eq!(m1.len(), 1);
        assert_eq!(m1[0].first.time, SimTime::from_secs(0), "oldest A first");
        let m2 = p.offer(&audit(20, "open", "/a"));
        assert_eq!(m2.len(), 1);
        assert_eq!(m2[0].first.time, SimTime::from_secs(5));
        assert!(p.offer(&audit(30, "open", "/a")).is_empty(), "no As left");
    }

    #[test]
    fn uncorrelated_pattern_matches_any_pair() {
        let mut p = PatternState::new(FollowedBy {
            first: EventFilter::of_type("node_down"),
            second: EventFilter::of_type("read_failed"),
            within: SimDuration::from_secs(300),
            key_field: None,
        });
        p.offer(&Event::new(SimTime::from_secs(0), "node_down").with("dn", "dn3"));
        let m = p.offer(&Event::new(SimTime::from_secs(9), "read_failed").with("blk", "blk_1"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn filters_apply_to_both_legs() {
        let mut p = create_then_open(60);
        // wrong cmd on the A leg: never queued
        p.offer(&audit(0, "delete", "/a"));
        assert_eq!(p.pending_len(), 0);
        // wrong type on the B leg: ignored
        p.offer(&audit(0, "create", "/a"));
        assert!(p
            .offer(&Event::new(SimTime::from_secs(1), "block_read").with("src", "/a"))
            .is_empty());
        assert_eq!(p.pending_len(), 1);
    }

    #[test]
    fn expiry_boundary_is_inclusive_then_exclusive() {
        // front.time + within < now is the eviction rule: an A is still
        // live when now == A.time + within, and gone one second later.
        let mut p = create_then_open(60);
        p.offer(&audit(0, "create", "/a"));
        // a non-matching event exactly at the boundary must not evict
        assert!(p.offer(&audit(60, "delete", "/other")).is_empty());
        assert_eq!(p.pending_len(), 1, "A survives until exactly t+within");
        // one second past the boundary the A is expired
        assert!(p.offer(&audit(61, "open", "/a")).is_empty());
        assert_eq!(p.pending_len(), 0, "A dropped past t+within");
    }

    #[test]
    fn b_batch_completes_distinct_keys_at_most_one_each() {
        let mut p = create_then_open(600);
        // two As per key, three distinct keys
        for path in ["/a", "/b", "/c"] {
            p.offer(&audit(0, "create", path));
            p.offer(&audit(1, "create", path));
        }
        assert_eq!(p.pending_len(), 6);
        // a batch of Bs arriving together, one per key: each completes
        // exactly one pending A (the oldest for its key), never both
        let mut completed = Vec::new();
        for path in ["/a", "/b", "/c"] {
            completed.extend(p.offer(&audit(10, "open", path)));
        }
        assert_eq!(completed.len(), 3, "one match per distinct key");
        for m in &completed {
            assert_eq!(m.first.time, SimTime::from_secs(0), "oldest A per key");
        }
        assert_eq!(p.pending_len(), 3, "second A of each key still waits");
        assert_eq!(p.matches_emitted(), 3);
    }

    #[test]
    fn checkpoint_round_trips_pending_state() {
        use checkpoint::Checkpointable;
        let mut p = create_then_open(600);
        p.offer(&audit(0, "create", "/a"));
        p.offer(&audit(5, "create", "/b"));
        p.offer(&audit(10, "open", "/a"));
        assert_eq!((p.pending_len(), p.matches_emitted()), (1, 1));

        let saved = p.save_state();
        let mut restored = create_then_open(600);
        restored.load_state(&saved).unwrap();
        assert_eq!(restored.pending_len(), 1);
        assert_eq!(restored.matches_emitted(), 1);

        // both matchers see the same future and produce identical output
        let m_live = p.offer(&audit(20, "open", "/b"));
        let m_back = restored.offer(&audit(20, "open", "/b"));
        assert_eq!(m_live, m_back);
        assert_eq!(m_back.len(), 1);
        assert_eq!(m_back[0].first.time, SimTime::from_secs(5));
    }

    #[test]
    fn event_matching_both_legs_does_not_self_match() {
        // A == B filter: an event must not complete itself
        let filt = EventFilter::of_type("tick");
        let mut p = PatternState::new(FollowedBy {
            first: filt.clone(),
            second: filt,
            within: SimDuration::from_secs(100),
            key_field: None,
        });
        assert!(p
            .offer(&Event::new(SimTime::from_secs(0), "tick"))
            .is_empty());
        // the second tick pairs with the first
        let m = p.offer(&Event::new(SimTime::from_secs(1), "tick"));
        assert_eq!(m.len(), 1);
        assert_eq!(p.pending_len(), 1, "second tick now waits as an A");
    }
}
