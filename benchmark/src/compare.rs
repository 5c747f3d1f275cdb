//! `compare A.json B.json`: apply each end-to-end metric's bound to two
//! documents written by `run` (A is the baseline, B the candidate).
//!
//! Per (workload, metric) the verdict is one of
//!
//! * `better`     — every rep of B reads better than every rep of A, or
//!   B's median is better by more than the bound;
//! * `within`     — B's median is no worse than A's by more than the bound;
//! * `WORSE`      — B's median is worse than A's by more than the bound;
//! * `unresolved` — the two sides' rep ranges overlap by more than the
//!   bound, so a change of the bound's size cannot be told from noise.
//!
//! Simulated metrics are pure functions of the seed: any difference at
//! all between the two sides is reported as a mismatch (and fails the
//! comparison) even when it is inside the bound.

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reps' median and range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    pub fn point(v: f64) -> Side {
        Side {
            median: v,
            min: v,
            max: v,
        }
    }
}

/// Judge B against A. `allowed` is the bound already scaled to A's
/// median (an absolute amount in the metric's unit).
pub fn judge(a: Side, b: Side, better: Better, allowed: f64) -> Verdict {
    // flip so that larger always means worse
    let (a, b) = match better {
        Better::Lower => (a, b),
        Better::Higher => (
            Side {
                median: -a.median,
                min: -a.max,
                max: -a.min,
            },
            Side {
                median: -b.median,
                min: -b.max,
                max: -b.min,
            },
        ),
    };
    if b.max < a.min {
        return Verdict::Better;
    }
    let overlap = a.max.min(b.max) - a.min.max(b.min);
    if overlap > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = b.median - a.median;
    if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Option<Side>,
    pub b: Option<Side>,
    pub verdict: Verdict,
    /// A simulated metric that is not bit-identical on the two sides.
    pub mismatch: bool,
}

#[derive(Debug, Clone, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Problems that are not a metric verdict: a workload missing on one
    /// side, failed checks recorded in a document, differing seeds.
    pub problems: Vec<String>,
}

impl Comparison {
    pub fn failed(&self) -> bool {
        !self.problems.is_empty()
            || self
                .rows
                .iter()
                .any(|r| r.verdict == Verdict::Worse || r.mismatch)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:<20} {:>14} {:>14} {:>9}  verdict",
            "workload", "metric", "A median", "B median", "change"
        );
        for r in &self.rows {
            let show =
                |s: Option<Side>| s.map_or("null".to_string(), |s| format!("{:.6}", s.median));
            let change = match (r.a, r.b) {
                (Some(a), Some(b)) if a.median != 0.0 => {
                    format!("{:+.2}%", (b.median - a.median) / a.median.abs() * 100.0)
                }
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<22} {:<20} {:>14} {:>14} {:>9}  {}{}",
                r.workload,
                r.metric,
                show(r.a),
                show(r.b),
                change,
                r.verdict.label(),
                if r.mismatch {
                    "  (simulated metric differs)"
                } else {
                    ""
                }
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {p}");
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            out,
            "{} better, {} within, {} WORSE, {} unresolved, {} simulated mismatches",
            count(Verdict::Better),
            count(Verdict::Within),
            count(Verdict::Worse),
            count(Verdict::Unresolved),
            self.rows.iter().filter(|r| r.mismatch).count()
        );
        out
    }
}

fn side_of(workload: &Value, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        median: m.get("median")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
    })
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not an ermsbench document: no workloads".to_string())
}

pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let mut cmp = Comparison::default();
    let seed = |d: &Value| {
        d.get("env")
            .and_then(|e| e.get("seed"))
            .and_then(Value::as_f64)
    };
    if seed(a) != seed(b) {
        cmp.problems.push(format!(
            "seeds differ ({:?} vs {:?}): simulated metrics cannot be compared",
            seed(a),
            seed(b)
        ));
    }
    let wa = workloads(a)?;
    let wb = workloads(b)?;
    for (label, doc) in [("A", wa), ("B", wb)] {
        for w in doc {
            let recorded = |key: &str| w.get(key).and_then(Value::as_arr).map_or(0, <[Value]>::len);
            if recorded("failures") + recorded("oracle_violations") > 0 {
                cmp.problems.push(format!(
                    "{label}: {} recorded failed checks",
                    w.get("name").and_then(Value::as_str).unwrap_or("?"),
                ));
            }
        }
    }
    for w in wa {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let Some(other) = wb
            .iter()
            .find(|o| o.get("name").and_then(Value::as_str) == Some(name))
        else {
            cmp.problems.push(format!("{name} is missing from B"));
            continue;
        };
        for m in &END_TO_END {
            let (sa, sb) = (side_of(w, m.name), side_of(other, m.name));
            let (verdict, mismatch) = match (sa, sb) {
                (Some(x), Some(y)) => (
                    judge(x, y, m.better, m.bound.at(x.median)),
                    m.simulated && x.median.to_bits() != y.median.to_bits(),
                ),
                (None, None) => (Verdict::Within, false),
                // a metric that exists on one side only is a changed ledger
                _ => (Verdict::Worse, m.simulated),
            };
            cmp.rows.push(Row {
                workload: name.to_string(),
                metric: m.name,
                a: sa,
                b: sb,
                verdict,
                mismatch,
            });
        }
    }
    for w in wb {
        let name = w.get("name").and_then(Value::as_str).unwrap_or("?");
        if !wa
            .iter()
            .any(|o| o.get("name").and_then(Value::as_str) == Some(name))
        {
            cmp.problems.push(format!("{name} is missing from A"));
        }
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(min: f64, median: f64, max: f64) -> Side {
        Side { median, min, max }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_rep_ranges() {
        let a = side(9.9, 10.0, 10.1);
        let lower = Better::Lower;
        // 8 % of 10 s
        let allowed = 0.8;
        // same numbers: inside the bound
        assert_eq!(judge(a, a, lower, allowed), Verdict::Within);
        // every rep of B below every rep of A
        assert_eq!(
            judge(a, side(9.0, 9.1, 9.2), lower, allowed),
            Verdict::Better
        );
        // median worse by more than the bound, ranges apart
        assert_eq!(
            judge(a, side(11.0, 11.1, 11.2), lower, allowed),
            Verdict::Worse
        );
        // worse, but inside the bound
        assert_eq!(
            judge(a, side(10.3, 10.4, 10.5), lower, allowed),
            Verdict::Within
        );
        // ranges overlap by more than the bound: noise hides the answer
        assert_eq!(
            judge(side(9.0, 10.0, 11.0), side(9.2, 10.9, 11.5), lower, allowed),
            Verdict::Unresolved
        );
        // median better by more than the bound although ranges touch
        assert_eq!(
            judge(side(9.0, 10.0, 10.2), side(8.0, 9.0, 9.1), lower, allowed),
            Verdict::Better
        );
    }

    #[test]
    fn higher_is_better_metrics_flip() {
        let a = side(99.0, 100.0, 101.0);
        assert_eq!(
            judge(a, side(110.0, 111.0, 112.0), Better::Higher, 5.0),
            Verdict::Better
        );
        assert_eq!(
            judge(a, side(80.0, 81.0, 82.0), Better::Higher, 5.0),
            Verdict::Worse
        );
    }

    #[test]
    fn zero_bound_metrics_fail_on_any_increase() {
        let lower = Better::Lower;
        assert_eq!(
            judge(Side::point(28.0), Side::point(28.0), lower, 0.0),
            Verdict::Within
        );
        assert_eq!(
            judge(Side::point(28.0), Side::point(29.0), lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(Side::point(28.0), Side::point(27.0), lower, 0.0),
            Verdict::Better
        );
    }

    fn doc(wall: [f64; 3], read_p50: f64) -> Value {
        let entry = |v: [f64; 3]| {
            let mut o = Value::obj();
            o.set("median", v[1]).set("min", v[0]).set("max", v[2]);
            o
        };
        let mut e2e = Value::obj();
        e2e.set("wall_s", entry(wall))
            .set("read_p50_s", entry([read_p50; 3]));
        let mut w = Value::obj();
        w.set("name", "crowd-elastic")
            .set("end_to_end", e2e)
            .set("failures", Value::Arr(vec![]));
        let mut env = Value::obj();
        env.set("seed", 42u64);
        let mut d = Value::obj();
        d.set("env", env).set("workloads", Value::Arr(vec![w]));
        d
    }

    #[test]
    fn documents_compare_and_simulated_differences_fail() {
        let base = doc([9.9, 10.0, 10.1], 1.5);
        let same = compare(&base, &base).unwrap();
        assert!(!same.failed(), "{}", same.render());
        assert_eq!(same.rows.len(), END_TO_END.len());

        let slower = compare(&base, &doc([11.9, 12.0, 12.1], 1.5)).unwrap();
        assert!(slower.failed());
        let row = slower.rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!(row.verdict, Verdict::Worse);

        // 0.1 % off: inside the 1 % bound, but the ledger must be identical
        let bent = compare(&base, &doc([9.9, 10.0, 10.1], 1.5015)).unwrap();
        let row = bent.rows.iter().find(|r| r.metric == "read_p50_s").unwrap();
        assert_eq!(row.verdict, Verdict::Within);
        assert!(row.mismatch && bent.failed());
        assert!(bent.render().contains("simulated metric differs"));

        assert!(compare(&Value::obj(), &base).is_err());
    }
}
