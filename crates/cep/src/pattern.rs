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

use crate::event::{Event, Value};
use simcore::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Filter for one leg of a sequence: an event type and the fields the
/// event must carry with given values.
#[derive(Debug, Clone, PartialEq)]
pub struct EventFilter {
    pub event_type: String,
    /// `(field, value)` pairs, each compared with [`Value::loosely_eq`].
    pub equals: Vec<(String, Value)>,
}

impl EventFilter {
    pub fn of_type(t: impl Into<String>) -> Self {
        EventFilter {
            event_type: t.into(),
            equals: Vec::new(),
        }
    }

    /// Also require `field` to equal `value`.
    pub fn with(mut self, field: impl Into<String>, value: impl Into<Value>) -> Self {
        self.equals.push((field.into(), value.into()));
        self
    }

    pub fn matches(&self, e: &Event) -> bool {
        e.event_type.as_ref() == self.event_type
            && self
                .equals
                .iter()
                .all(|(k, v)| e.get(k).is_some_and(|x| x.loosely_eq(v)))
    }
}

/// `first` followed by `second` within `within`, correlated on `key_field`.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowedBy {
    pub first: EventFilter,
    pub second: EventFilter,
    pub within: SimDuration,
    /// Field whose value must be equal on both events.
    pub key_field: String,
}

/// A completed sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    pub first: Event,
    pub second: Event,
}

/// A correlation value as a hash key: two values share a key exactly
/// when [`Value::loosely_eq`] holds between them. Numbers compare as
/// `f64` across `Int` and `Float` (so `-0.0` and `0.0` share a key);
/// NaN equals nothing, so it has no key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CorrKey {
    Num(u64),
    Str(Arc<str>),
    Bool(bool),
}

impl CorrKey {
    fn of(v: &Value) -> Option<CorrKey> {
        match v {
            Value::Str(s) => Some(CorrKey::Str(s.clone())),
            Value::Bool(b) => Some(CorrKey::Bool(*b)),
            Value::Int(_) | Value::Float(_) => {
                let x = v.as_f64()?;
                let bits = if x == 0.0 { 0 } else { x.to_bits() };
                (!x.is_nan()).then_some(CorrKey::Num(bits))
            }
        }
    }
}

/// Incremental matcher for one [`FollowedBy`] pattern.
///
/// A `B` finds the oldest live `A` of its key through a key index
/// instead of scanning every pending `A`, so a long window of waiting
/// `A`s costs nothing per `B`.
#[derive(Debug)]
pub struct PatternState {
    spec: FollowedBy,
    /// Pending `A` events in arrival order. One a `B` consumed stays as
    /// `None` until it reaches the front; the front is always live.
    pending: VecDeque<Option<Event>>,
    /// Arrival number of `pending[0]`.
    front_seq: u64,
    /// The live (`Some`) entries of `pending`.
    live: usize,
    /// Correlation key → arrival numbers of its live `A`s, oldest first.
    /// An `A` without a key (field missing, or NaN) is not indexed: no
    /// `B` can match it. Keys come from the audit stream, so the map
    /// keeps the default hasher.
    by_key: HashMap<CorrKey, VecDeque<u64>>,
}

impl PatternState {
    pub fn new(spec: FollowedBy) -> Self {
        PatternState {
            spec,
            pending: VecDeque::new(),
            front_seq: 0,
            live: 0,
            by_key: HashMap::new(),
        }
    }

    /// Live waiting `A`s (ROADMAP item 6's `health` reports them).
    pub fn pending_len(&self) -> usize {
        self.live
    }

    fn key_of(&self, e: &Event) -> Option<CorrKey> {
        CorrKey::of(e.get(&self.spec.key_field)?)
    }

    /// Queue a pending `A`.
    fn push(&mut self, a: Event) {
        if let Some(key) = self.key_of(&a) {
            let seq = self.front_seq + self.pending.len() as u64;
            self.by_key.entry(key).or_default().push_back(seq);
        }
        self.pending.push_back(Some(a));
        self.live += 1;
    }

    /// Unindex the oldest live `A` of `key`; returns its arrival number.
    fn pop_oldest(&mut self, key: &CorrKey) -> Option<u64> {
        let seqs = self.by_key.get_mut(key)?;
        let seq = seqs.pop_front();
        if seqs.is_empty() {
            self.by_key.remove(key);
        }
        seq
    }

    /// Take the live `A` with arrival number `seq` out of `pending`.
    fn take(&mut self, seq: u64) -> Event {
        let slot = &mut self.pending[(seq - self.front_seq) as usize];
        let a = slot.take().expect("an indexed A is live");
        self.live -= 1;
        while let Some(None) = self.pending.front() {
            self.pending.pop_front();
            self.front_seq += 1;
        }
        a
    }

    fn expire(&mut self, now: SimTime) {
        let within = self.spec.within;
        while let Some(Some(front)) = self.pending.front() {
            if front.time + within >= now {
                break;
            }
            // the oldest live A overall is the oldest of its key
            if let Some(key) = self.key_of(front) {
                let oldest = self.pop_oldest(&key);
                debug_assert_eq!(oldest, Some(self.front_seq));
            }
            self.take(self.front_seq);
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
            let oldest = self.key_of(event).and_then(|key| self.pop_oldest(&key));
            if let Some(seq) = oldest {
                let first = self.take(seq);
                out.push(PatternMatch {
                    first,
                    second: event.clone(),
                });
            }
        }
        if self.spec.first.matches(event) {
            self.push(event.clone());
        }
        out
    }

    /// The waiting `A`s, oldest first — the wire form of the queue.
    fn save_pending(&self) -> checkpoint::Value {
        checkpoint::codec::put_seq(self.pending.iter().flatten())
    }

    fn load_pending(&mut self, v: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        use checkpoint::codec::Ck;
        let waiting = Vec::<Event>::take(v, "pending")?;
        self.pending.clear();
        self.by_key.clear();
        self.front_seq = 0;
        self.live = 0;
        for a in waiting {
            self.push(a);
        }
        Ok(())
    }
}

checkpoint::ck_record!(PatternMatch [first, second]);

impl checkpoint::Checkpointable for PatternState {
    // The spec is rebuilt by re-registration on restore; only the waiting
    // `A`s are runtime state. The key index is rebuilt from them.
    checkpoint::ck_fields!(pending(save_pending, load_pending));
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkpoint::codec::Ck;

    /// The matcher the key index replaced: each `B` scans the pending
    /// `A`s for the first whose key is loosely equal to its own. Kept as
    /// the reference [`PatternState`] is checked against.
    struct LinearPattern {
        spec: FollowedBy,
        pending: VecDeque<Event>,
    }

    impl LinearPattern {
        fn offer(&mut self, event: &Event) -> Vec<PatternMatch> {
            let within = self.spec.within;
            while self
                .pending
                .front()
                .is_some_and(|front| front.time + within < event.time)
            {
                self.pending.pop_front();
            }
            let k = &self.spec.key_field;
            let keys_equal = |a: &Event| match (a.get(k), event.get(k)) {
                (Some(x), Some(y)) => x.loosely_eq(y),
                _ => false,
            };
            let mut out = Vec::new();
            if self.spec.second.matches(event) {
                if let Some(pos) = self.pending.iter().position(keys_equal) {
                    let first = self.pending.remove(pos).expect("position valid");
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

    impl checkpoint::Checkpointable for LinearPattern {
        checkpoint::ck_fields!(pending);
    }

    fn wire(v: &checkpoint::Value) -> String {
        serde_json::to_string(v).unwrap()
    }

    /// Random streams through both matchers: keys that are loosely equal
    /// across `Int` and `Float` (and `-0.0` against `0.0`), NaN keys,
    /// events without the key field, strings and bools that look like
    /// numbers, out-of-order times, and events matching the A leg only,
    /// the B leg only, both legs or neither. Matches, `pending_len` and
    /// snapshot bytes agree at every step, across a mid-stream
    /// checkpoint round trip.
    #[test]
    fn key_index_matches_the_linear_scan() {
        use checkpoint::Checkpointable;
        let keys = [
            Some(Value::Int(0)),
            Some(Value::Float(-0.0)),
            Some(Value::Float(0.0)),
            Some(Value::Int(1)),
            Some(Value::Float(1.0)),
            Some(Value::Float(1.5)),
            Some(Value::Float(f64::NAN)),
            Some(Value::Int(1 << 53)),
            Some(Value::Int((1 << 53) + 1)),
            Some(Value::str("1")),
            Some(Value::str("a")),
            Some(Value::Bool(true)),
            None,
        ];
        // A is `a = 1`, B is `b = 1`; each field is 1, 0 or missing
        let legs = [Some(1i64), Some(0), None];
        let spec_with = |within| FollowedBy {
            first: EventFilter::of_type("ev").with("a", 1i64),
            second: EventFilter::of_type("ev").with("b", 1i64),
            within,
            key_field: "k".to_string(),
        };
        let mut rng = simcore::rng::DetRng::new(0x9A77);
        let mut matched = 0usize;
        // events matching [neither, A only, B only, both] legs
        let mut seen = [0usize; 4];
        for case in 0..300 {
            let spec = spec_with(SimDuration::from_secs(rng.gen_range(1, 60) as u64));
            let mut fast = PatternState::new(spec.clone());
            let mut slow = LinearPattern {
                spec: spec.clone(),
                pending: VecDeque::new(),
            };
            let steps = rng.gen_range(1, 200);
            let restart_at = rng.gen_range(0, steps);
            let mut clock = 0u64;
            for step in 0..steps {
                clock += rng.gen_range(0, 4) as u64;
                // one event in eight arrives late
                let t = if rng.gen_range(0, 8) == 0 {
                    clock.saturating_sub(rng.gen_range(0, 30) as u64)
                } else {
                    clock
                };
                let mut e = Event::new(SimTime::from_secs(t), "ev");
                for field in ["a", "b"] {
                    if let Some(x) = legs[rng.gen_range(0, legs.len())] {
                        e.set(field, x);
                    }
                }
                if let Some(k) = &keys[rng.gen_range(0, keys.len())] {
                    e.set("k", k.clone());
                }
                let (is_a, is_b) = (spec.first.matches(&e), spec.second.matches(&e));
                seen[usize::from(is_a) + 2 * usize::from(is_b)] += 1;
                let (got, want) = (fast.offer(&e), slow.offer(&e));
                assert_eq!(
                    wire(&got.put()),
                    wire(&want.put()),
                    "case {case} step {step}"
                );
                assert_eq!(fast.pending_len(), slow.pending.len(), "case {case}");
                assert_eq!(wire(&fast.save_state()), wire(&slow.save_state()));
                matched += got.len();
                if step == restart_at {
                    let json = wire(&fast.save_state());
                    fast = PatternState::new(spec.clone());
                    fast.load_state(&serde_json::parse_value(&json).unwrap())
                        .unwrap();
                    assert_eq!(wire(&fast.save_state()), json);
                }
            }
        }
        assert!(matched > 1000, "the streams must match often: {matched}");
        assert!(
            seen.iter().all(|&n| n > 0),
            "every leg category occurs: {seen:?}"
        );
    }

    fn ev(t: u64, ty: &str, path: &str) -> Event {
        Event::new(SimTime::from_secs(t), ty).with("src", path)
    }

    fn create_then_open(within: u64) -> PatternState {
        PatternState::new(FollowedBy {
            first: EventFilter::of_type("audit").with("cmd", "create"),
            second: EventFilter::of_type("audit").with("cmd", "open"),
            within: SimDuration::from_secs(within),
            key_field: "src".into(),
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
        assert_eq!(m[0].first.time, SimTime::ZERO);
        assert_eq!(m[0].second.time, SimTime::from_secs(30));
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
    }

    #[test]
    fn checkpoint_round_trips_pending_state() {
        use checkpoint::Checkpointable;
        let mut p = create_then_open(600);
        p.offer(&audit(0, "create", "/a"));
        p.offer(&audit(5, "create", "/b"));
        p.offer(&audit(10, "open", "/a"));
        assert_eq!(p.pending_len(), 1);

        let saved = p.save_state();
        let mut restored = create_then_open(600);
        restored.load_state(&saved).unwrap();
        assert_eq!(restored.pending_len(), 1);

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
            key_field: "src".into(),
        });
        assert!(p.offer(&ev(0, "tick", "/a")).is_empty());
        // the second tick pairs with the first
        let m = p.offer(&ev(1, "tick", "/a"));
        assert_eq!(m.len(), 1);
        assert_eq!(p.pending_len(), 1, "second tick now waits as an A");
    }
}
