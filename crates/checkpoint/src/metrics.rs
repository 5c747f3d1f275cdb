//! Codecs for [`simcore::MetricsRegistry`] and
//! [`simcore::stats::DurabilityLog`].
//!
//! `simcore` sits below this crate in the dependency DAG, so — unlike
//! the substrate codecs that live with their owning crates — the
//! [`Checkpointable`] impls of its two stateful components live here,
//! built entirely on their public accessors. Counters, gauges and histograms all
//! round-trip; floats go through as raw bits so a restored
//! registry's `snapshot_json` is byte-identical to the saved one's,
//! which is what lets the resume-equivalence guard extend from traces
//! to metric dumps.

use crate::codec::{self as c, Ck};
use crate::{CheckpointError, Checkpointable, Value};
use simcore::stats::{DurabilityLog, DurabilityState};
use simcore::telemetry::MetricHistogram;
use simcore::MetricsRegistry;
use std::collections::BTreeMap;

/// The durability ledger is its [`DurabilityState`].
impl Checkpointable for DurabilityLog {
    fn save_state(&self) -> Value {
        self.state().put()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError> {
        self.set_state(DurabilityState::take(state, "durability")?);
        Ok(())
    }
}

/// A histogram's parts, as the wire names them.
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}
crate::ck_record!(Histogram {
    count,
    sum,
    min,
    max,
    buckets
});

/// A name-sorted iterator as a `Map`.
fn by_name<'a, T, V: Ck>(
    items: impl Iterator<Item = (&'a str, T)>,
    wire: impl Fn(T) -> V,
) -> Value {
    Value::Map(items.map(|(k, x)| (k.to_string(), wire(x).put())).collect())
}

impl Checkpointable for MetricsRegistry {
    fn save_state(&self) -> Value {
        c::MapBuilder::new()
            .raw("counters", by_name(self.counters(), |n| n))
            .raw("gauges", by_name(self.gauges(), |x| x))
            .raw(
                "histograms",
                by_name(self.histograms(), |h| Histogram {
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: h.buckets().to_vec(),
                }),
            )
            .build()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError> {
        let mut fresh = MetricsRegistry::default();
        for (k, n) in c::get::<BTreeMap<String, u64>>(state, "counters")? {
            fresh.restore_counter(&k, n);
        }
        for (k, x) in c::get::<BTreeMap<String, f64>>(state, "gauges")? {
            fresh.restore_gauge(&k, x);
        }
        for (k, h) in c::get::<BTreeMap<String, Histogram>>(state, "histograms")? {
            fresh.restore_histogram(
                &k,
                MetricHistogram::from_parts(h.count, h.sum, h.min, h.max, h.buckets),
            );
        }
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn registry_round_trips_byte_identically_through_json() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("erms.hot_verdicts", 17);
        reg.counter_add("hdfs.reads", 900);
        reg.gauge_set("erms.energy", -0.125);
        reg.gauge_set("weird", f64::NAN);
        for v in [0.5, 2.0, 2.0, 66.0, 1e9] {
            reg.observe("hdfs.read_latency", v);
        }

        let json = serde_json::to_string(&reg.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut restored = MetricsRegistry::default();
        restored.load_state(&back).unwrap();

        let now = SimTime::from_secs(99);
        assert_eq!(restored.snapshot_json(now), reg.snapshot_json(now));
        // NaN gauge survived bit-exactly (snapshot renders it as null,
        // so check the bits directly).
        assert_eq!(
            restored.gauge("weird").unwrap().to_bits(),
            reg.gauge("weird").unwrap().to_bits()
        );
    }

    #[test]
    fn load_replaces_rather_than_merges() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("stale.counter", 1);
        let empty = MetricsRegistry::default();
        reg.load_state(&empty.save_state()).unwrap();
        assert!(reg.is_empty(), "restore overwrites pre-existing metrics");
    }

    #[test]
    fn load_rejects_malformed_state() {
        let mut reg = MetricsRegistry::default();
        assert!(reg.load_state(&Value::Null).is_err());
        let missing = c::MapBuilder::new()
            .raw("counters", Value::Map(vec![]))
            .build();
        assert!(matches!(
            reg.load_state(&missing),
            Err(CheckpointError::MissingField(_))
        ));
    }
}
