//! Event routing and query registration.
//!
//! The engine is the piece ERMS talks to: register queries, push every
//! audit event at it, then poll windowed counts.

use crate::event::Event;
use crate::query::{GroupRow, QuerySpec, QueryState};
use checkpoint::codec::{put_row, Ck};
use checkpoint::Checkpointable;
use simcore::telemetry::{Event as TelemetryEvent, TelemetrySink};
use simcore::{trace, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Handle to a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(u64);

/// The CEP engine.
#[derive(Default)]
pub struct CepEngine {
    queries: BTreeMap<QueryId, QueryState>,
    next_id: u64,
    events_seen: u64,
    telemetry: TelemetrySink,
}

impl CepEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a telemetry sink; every polled
    /// [`value_for`](Self::value_for) read is then traced as a
    /// `window_emit` event.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Register a query; returns its handle.
    pub fn register(&mut self, spec: QuerySpec) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.queries.insert(id, QueryState::new(spec));
        id
    }

    /// Push one event through every registered query.
    pub fn push(&mut self, event: &Event) {
        self.events_seen += 1;
        for state in self.queries.values_mut() {
            state.offer(event);
        }
    }

    /// Poll the current grouped rows of a query at `now`.
    pub fn rows(&mut self, id: QueryId, now: SimTime) -> Vec<GroupRow> {
        self.queries
            .get_mut(&id)
            .map(|q| q.rows(now))
            .unwrap_or_default()
    }

    /// The leading `top_by` value of one group of a query at `now` (see
    /// [`QueryState::top_of`]). Untraced, like [`rows`](Self::rows).
    pub fn top_of(&mut self, id: QueryId, now: SimTime, key: &str) -> Option<(Arc<str>, f64)> {
        self.queries.get_mut(&id)?.top_of(now, key)
    }

    /// Current windowed count of one group of a query. Each polled read
    /// is traced as a [`TelemetryEvent::WindowEmit`].
    pub fn value_for(&mut self, id: QueryId, now: SimTime, key: &str) -> f64 {
        let Some(q) = self.queries.get_mut(&id) else {
            return 0.0;
        };
        let value = q.value_for(now, key);
        trace!(
            self.telemetry,
            now,
            TelemetryEvent::WindowEmit {
                query: q.spec.from.clone(),
                group: key.to_string(),
                value,
            }
        );
        value
    }

    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
}

checkpoint::ck_id!(QueryId);

impl checkpoint::Checkpointable for CepEngine {
    // Rebuild-then-hydrate: ids are assigned sequentially at registration,
    // so a restored engine must re-register the same queries in the same
    // order before loading. The telemetry sink is re-attached by the
    // caller, never serialized.
    checkpoint::ck_fields! {
        next_id,
        events_seen,
        queries(save_queries, load_queries),
    }
}

/// The registered queries hydrate in place, by id: `[id, state]` rows.
/// A snapshot row must name a query this engine registered.
impl CepEngine {
    fn save_queries(&self) -> checkpoint::Value {
        let row = |(id, q): (&QueryId, &QueryState)| {
            put_row(2, |row| row.extend([id.put(), q.save_state()]))
        };
        checkpoint::Value::Seq(self.queries.iter().map(row).collect())
    }

    fn load_queries(&mut self, v: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        let rows = Vec::<(QueryId, checkpoint::Value)>::take(v, "queries")?;
        if rows.len() != self.queries.len() {
            return Err(checkpoint::CheckpointError::Corrupt(format!(
                "snapshot has {} queries, engine has {} registered",
                rows.len(),
                self.queries.len()
            )));
        }
        for (id, state) in rows {
            let query = self.queries.get_mut(&id).ok_or_else(|| {
                checkpoint::CheckpointError::Corrupt(format!(
                    "snapshot queries {id:?} is not registered"
                ))
            })?;
            query.load_state(&state)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn access(t: u64, path: &str) -> Event {
        Event::new(SimTime::from_secs(t), "audit")
            .with("cmd", "open")
            .with("src", path)
    }

    #[test]
    fn register_push_poll() {
        let mut eng = CepEngine::new();
        let q = eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(60),
        ));
        for p in ["/a", "/a", "/b"] {
            eng.push(&access(1, p));
        }
        let rows = eng.rows(q, SimTime::from_secs(1));
        assert_eq!(rows.len(), 2);
        assert_eq!(eng.value_for(q, SimTime::from_secs(1), "/a"), 2.0);
        assert_eq!(eng.events_seen(), 3);
    }

    #[test]
    fn multiple_queries_route_independently() {
        let mut eng = CepEngine::new();
        let by_src = eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(60),
        ));
        let blocks = eng.register(QuerySpec::count_per_group(
            "block_read",
            "blk",
            SimDuration::from_secs(60),
        ));
        eng.push(&access(0, "/a"));
        eng.push(&Event::new(SimTime::from_secs(0), "block_read").with("blk", "blk_1"));
        assert_eq!(eng.rows(by_src, SimTime::ZERO).len(), 1);
        assert_eq!(eng.rows(blocks, SimTime::ZERO).len(), 1);
    }

    #[test]
    fn checkpoint_round_trip_resumes_identically() {
        // Same registration sequence both times (rebuild-then-hydrate).
        let build = || {
            let mut eng = CepEngine::new();
            let q_src = eng.register(QuerySpec::count_per_group(
                "audit",
                "src",
                SimDuration::from_secs(60),
            ));
            let q_dn = eng.register(QuerySpec {
                top_by: Some("src".into()),
                ..QuerySpec::count_per_group("block_read", "dn", SimDuration::from_secs(30))
            });
            (eng, q_src, q_dn)
        };
        let feed = |eng: &mut CepEngine, range: std::ops::Range<u64>| {
            for t in range {
                eng.push(&access(t, if t % 3 == 0 { "/a" } else { "/b" }));
                eng.push(
                    &Event::new(SimTime::from_secs(t), "block_read")
                        .with("dn", format!("dn{}", t % 4))
                        .with("src", if t % 5 == 0 { "/a" } else { "/c" }),
                );
            }
        };
        let wire = |eng: &CepEngine| serde_json::to_string(&eng.save_state()).unwrap();

        let (mut live, q_src, q_dn) = build();
        feed(&mut live, 0..40);

        let json = wire(&live);
        let (mut restored, ..) = build();
        restored
            .load_state(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        assert_eq!(wire(&restored), json);

        // Continue both engines over identical input and compare outputs.
        feed(&mut live, 40..80);
        feed(&mut restored, 40..80);
        assert!(live.top_of(q_dn, SimTime::from_secs(80), "dn0").is_some());
        for now in [80, 95, 110, 200].map(SimTime::from_secs) {
            for key in ["/a", "/b", "/c"] {
                assert_eq!(
                    live.value_for(q_src, now, key),
                    restored.value_for(q_src, now, key)
                );
            }
            for dn in ["dn0", "dn1", "dn2", "dn3"] {
                assert_eq!(
                    live.value_for(q_dn, now, dn),
                    restored.value_for(q_dn, now, dn)
                );
                assert_eq!(live.top_of(q_dn, now, dn), restored.top_of(q_dn, now, dn));
            }
            assert_eq!(wire(&live), wire(&restored));
        }
        assert_eq!(live.events_seen(), restored.events_seen());
    }

    #[test]
    fn checkpoint_rejects_mismatched_registration() {
        let mut eng = CepEngine::new();
        eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(60),
        ));
        let saved = eng.save_state();
        let mut empty = CepEngine::new();
        let err = empty.load_state(&saved).unwrap_err();
        assert!(matches!(err, checkpoint::CheckpointError::Corrupt(_)));
    }

    #[test]
    fn window_decay_drops_counts() {
        let mut eng = CepEngine::new();
        let q = eng.register(QuerySpec::count_per_group(
            "audit",
            "src",
            SimDuration::from_secs(10),
        ));
        eng.push(&access(0, "/a"));
        eng.push(&access(1, "/a"));
        eng.push(&access(2, "/b"));
        assert_eq!(eng.value_for(q, SimTime::from_secs(1), "/a"), 2.0);
        // counts decay on read with no push: t=0 is gone at t=11
        assert_eq!(eng.value_for(q, SimTime::from_secs(11), "/a"), 1.0);
        assert_eq!(eng.value_for(q, SimTime::from_secs(11), "/b"), 1.0);
        // long silence → everything expires, every group with it
        assert_eq!(eng.value_for(q, SimTime::from_secs(100), "/a"), 0.0);
        assert!(eng.rows(q, SimTime::from_secs(100)).is_empty());
    }
}
