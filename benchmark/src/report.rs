//! Reps of one workload folded into a report: medians with min/max,
//! the cross-run correctness checks, the JSON document and the table.

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::record::RunRecord;
use crate::stats;
use std::fmt::Write as _;

pub const SCHEMA: &str = "ermsbench/1";

pub const LOAD_MODEL: &str =
    "Open loop in simulated time: every read and write fires at its trace \
    time (quantised to the control tick) whatever the cluster's backlog, so queueing shows in \
    simulated latency. Batch in host time: a fixed input is driven to completion and timed. One \
    process per rep, one thread, no sockets.";

/// Median, extremes and every rep's value of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: Vec<f64>) -> Option<Summary> {
        Some(Summary {
            median: stats::median(&values)?,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            values,
        })
    }
}

#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub name: String,
    pub why: String,
    /// Untraced reps: the source of every end-to-end metric.
    pub reps: Vec<RunRecord>,
    /// The traced run: the source of the per-layer metrics.
    pub traced: Option<RunRecord>,
    pub failures: Vec<String>,
}

impl WorkloadReport {
    /// How many trace-oracle violations the traced run saw, and the
    /// first few of them.
    pub fn oracle_violations(&self) -> (u64, &[String]) {
        self.traced.as_ref().map_or((0, &[]), |t| {
            (
                t.per_layer("oracle.violations").unwrap_or(0.0) as u64,
                &t.oracle_violations,
            )
        })
    }

    /// Whether every check passed, the trace oracle's included.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.oracle_violations().0 == 0
    }

    /// Fold the runs of one (workload, seed), checking that the
    /// simulated ledger and every exact count agree between all of them,
    /// traced or not, and pricing the tracing.
    pub fn assemble(
        name: &str,
        why: &str,
        reps: Vec<RunRecord>,
        mut traced: Option<RunRecord>,
    ) -> WorkloadReport {
        let mut failures = Vec::new();
        for (i, r) in reps.iter().enumerate() {
            failures.extend(r.failures.iter().map(|f| format!("rep {i}: {f}")));
        }
        if let Some(t) = &traced {
            failures.extend(t.failures.iter().map(|f| format!("traced run: {f}")));
        }
        let mut runs = reps
            .iter()
            .map(|r| ("rep", r))
            .chain(traced.iter().map(|t| ("traced run", t)));
        if let Some((_, first)) = runs.next() {
            let want = first.exact_view();
            for (i, (label, r)) in runs.enumerate() {
                for ((key, a), (_, b)) in want.iter().zip(r.exact_view()) {
                    if *a != b {
                        failures.push(format!(
                            "{key} differs between rep 0 and {label} {}: {:?} vs {:?}",
                            i + 1,
                            a.map(f64::from_bits),
                            b.map(f64::from_bits)
                        ));
                    }
                }
            }
        }
        let untraced_wall = stats::median(
            &reps
                .iter()
                .filter_map(|r| r.end_to_end("wall_s"))
                .collect::<Vec<_>>(),
        );
        if let (Some(t), Some(base)) = (&mut traced, untraced_wall) {
            let overhead = t.end_to_end("wall_s").map(|w| (w - base) / base * 100.0);
            t.set_per_layer("trace.overhead_pct", overhead);
        }
        WorkloadReport {
            name: name.to_string(),
            why: why.to_string(),
            reps,
            traced,
            failures,
        }
    }

    /// `setup_s` pools every set-up sample of every rep; the other
    /// metrics take one value per rep.
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        let values: Vec<f64> = if metric == "setup_s" {
            self.reps
                .iter()
                .flat_map(|r| r.setup_samples.iter().copied())
                .collect()
        } else {
            self.reps
                .iter()
                .filter_map(|r| r.end_to_end(metric))
                .collect()
        };
        Summary::of(values)
    }

    pub fn support(&self, name: &str) -> f64 {
        self.reps.first().map_or(0.0, |r| r.support(name))
    }

    pub fn to_json(&self) -> Value {
        let mut e2e = Value::obj();
        for m in &END_TO_END {
            let mut o = Value::obj();
            o.set("unit", m.unit)
                .set("better", m.better.label())
                .set("simulated", m.simulated);
            match self.summary(m.name) {
                Some(s) => o
                    .set("median", s.median)
                    .set("min", s.min)
                    .set("max", s.max)
                    .set("values", s.values),
                None => o.set("median", Value::Null),
            };
            e2e.set(m.name, o);
        }
        let mut layers = Value::obj();
        for m in PER_LAYER {
            let mut o = Value::obj();
            o.set("unit", m.unit).set("better", m.better.label()).set(
                "value",
                self.traced.as_ref().and_then(|t| t.per_layer(m.name)),
            );
            layers.set(m.name, o);
        }
        let first = self.reps.first().or(self.traced.as_ref());
        let mut v = Value::obj();
        v.set("name", self.name.as_str())
            .set("why", self.why.as_str())
            .set("params", first.map_or("", |r| r.params.as_str()))
            .set("end_to_end", e2e)
            .set(
                "support",
                Value::Obj(first.map_or_else(Vec::new, |r| {
                    r.support
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect()
                })),
            )
            .set("per_layer", layers)
            .set(
                "profile_scopes",
                self.traced
                    .as_ref()
                    .map_or(Value::Arr(Vec::new()), RunRecord::scopes_to_json),
            )
            .set("failures", self.failures.clone())
            .set("oracle_violations", self.oracle_violations().1.to_vec());
        v
    }

    /// Every metric by name with its unit, for a terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let _ = writeln!(out, "   {}", self.why);
        if let Some(r) = self.reps.first().or(self.traced.as_ref()) {
            let _ = writeln!(out, "   {}", r.params);
        }
        let _ = writeln!(
            out,
            "   end-to-end ({} untraced reps; median [min .. max])",
            self.reps.len()
        );
        for m in &END_TO_END {
            let note = match m.name {
                "tick_p50_ms" | "tick_p95_ms" => format!(
                    "  ({} ticks, {} beyond p95)",
                    self.support("tick_samples"),
                    self.support("tick_beyond_p95")
                ),
                "read_p50_s" | "read_p90_s" | "read_p99_s" => format!(
                    "  ({} reads, {} beyond p99)",
                    self.support("read_samples"),
                    self.support("read_beyond_p99")
                ),
                "read_fail_pct" => format!(
                    "  ({} attempted, {} refused)",
                    self.support("reads_attempted"),
                    self.support("reads_refused")
                ),
                "write_p95_s" => format!(
                    "  ({} writes, write_fail {})",
                    self.support("write_samples"),
                    self.support("write_fail")
                ),
                "relief_lag_s" => format!(
                    "  ({} bursts, {} already boosted, relief_miss {})",
                    self.support("relief_pairs"),
                    self.support("relief_prewarmed"),
                    self.support("relief_miss")
                ),
                _ => String::new(),
            };
            let value = match self.summary(m.name) {
                Some(s) if m.simulated => format!("{:>12.6}", s.median),
                Some(s) => format!("{:>12.4} [{:.4} .. {:.4}]", s.median, s.min, s.max),
                None => format!("{:>12}", "null"),
            };
            let _ = writeln!(out, "     {:<20} {value} {}{note}", m.name, m.unit);
        }
        if let Some(t) = &self.traced {
            let _ = writeln!(out, "   per-layer (one traced run)");
            for m in PER_LAYER {
                let value = match t.per_layer(m.name) {
                    Some(v) if m.unit == "count" || m.unit == "bytes" => format!("{v:>14.0}"),
                    Some(v) => format!("{v:>14.6}"),
                    None => format!("{:>14}", "null"),
                };
                let _ = writeln!(out, "     {:<32} {value} {}", m.name, m.unit);
            }
        }
        for f in &self.failures {
            let _ = writeln!(out, "   CHECK FAILED: {f}");
        }
        if let (n @ 1.., samples) = self.oracle_violations() {
            let _ = writeln!(
                out,
                "   CHECK FAILED: {n} trace-oracle violations, e.g. {samples:?}"
            );
        }
        out
    }
}

/// The whole document `run` writes.
pub fn document(env: Value, workloads: &[WorkloadReport]) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", SCHEMA)
        .set("claim", Value::Null)
        .set("env", env)
        .set("load_model", LOAD_MODEL)
        .set(
            "workloads",
            Value::Arr(workloads.iter().map(WorkloadReport::to_json).collect()),
        );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_median_and_extremes() {
        let s = Summary::of(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        assert!(Summary::of(vec![]).is_none());
    }
}
