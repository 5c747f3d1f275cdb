//! One run of one workload in this process, reduced to named metrics.
//!
//! A [`RunRecord`] is what a child process hands back to its parent: the
//! end-to-end metrics, the counts printed beside them, the per-layer
//! metrics (all of them from a traced run, only the exact counts from an
//! untraced one) and the correctness checks that can be made from a
//! single run.

use crate::drive::{set_up, Counts, Outcome};
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{self, Tracer, NO_TICK};
use crate::stats;
use crate::workloads::{spec, Scale, Spec};
use simcore::profiler::ProfileNode;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Scope {
    pub path: String,
    pub calls: u64,
    pub wall_s: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub scale: String,
    pub traced: bool,
    pub params: String,
    /// Every set-up of this process, in seconds; `setup_s` is their median.
    pub setup_samples: Vec<f64>,
    /// All end-to-end metrics in catalogue order; `None` where the
    /// workload has no writes or bursts.
    pub end_to_end: Vec<(String, Option<f64>)>,
    /// Sample counts and failure counts printed beside the metrics.
    pub support: Vec<(String, f64)>,
    /// All per-layer metrics in catalogue order; `None` for what this
    /// run could not see (untraced run, absent profiler scope).
    pub per_layer: Vec<(String, Option<f64>)>,
    pub profile_scopes: Vec<Scope>,
    /// Correctness checks this run failed, rendered.
    pub failures: Vec<String>,
    /// The first few trace-oracle violations of a traced run, rendered
    /// (their count is the `oracle.violations` metric). Kept apart from
    /// `failures`: they fault the program's telemetry stream, not the
    /// numbers the run measured, and the driver contract reports them
    /// without calling the measurement incorrect.
    pub oracle_violations: Vec<String>,
}

/// Run `workload` once in this process. `setup_reps` set-ups are timed
/// (each one dropped before the next is built); the last is driven.
pub fn run_once(
    workload: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
    setup_reps: usize,
    spans_out: Option<&Path>,
) -> Result<RunRecord, String> {
    let spec = spec(workload, scale).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let mut tr = Tracer::new(traced);
    let mut setup_samples = Vec::new();
    let mut rig = set_up(&spec, seed, traced, &mut tr);
    setup_samples.push(rig.setup.total_s);
    for _ in 1..setup_reps.max(1) {
        drop(rig);
        rig = set_up(&spec, seed, traced, &mut tr);
        setup_samples.push(rig.setup.total_s);
    }
    let outcome = rig.drive(&mut tr);
    let record = build(&spec, seed, scale, setup_samples, &outcome, &tr);
    if let Some(path) = spans_out {
        tr.write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(record)
}

/// `VmHWM` of this process in MB, or `None` where /proc is missing.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reduce a finished run (measured before anything else allocates, so
/// `VmHWM` is the run's) to its record.
fn build(
    spec: &Spec,
    seed: u64,
    scale: Scale,
    setup_samples: Vec<f64>,
    out: &Outcome,
    tr: &Tracer,
) -> RunRecord {
    let peak_rss_mb = peak_rss_mb();
    let traced = out.trace.is_some();
    let c = &out.counts;
    let l = &out.ledger;
    let mut ticks = out.tick_ms.clone();
    stats::sort(&mut ticks);

    let end_to_end: Vec<(String, Option<f64>)> = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => stats::median(&setup_samples),
                "wall_s" => Some(out.wall_s),
                "tick_p50_ms" => stats::percentile(&ticks, 50.0),
                "tick_p95_ms" => stats::percentile(&ticks, 95.0),
                "peak_rss_mb" => peak_rss_mb,
                "read_p50_s" => l.read_p50_s,
                "read_p90_s" => l.read_p90_s,
                "read_p99_s" => l.read_p99_s,
                "read_fail_pct" => Some(l.read_fail_pct),
                "write_p95_s" => l.write_p95_s,
                "storage_overhead_x" => Some(l.storage_overhead_x),
                "standby_on_pct" => Some(l.standby_on_pct),
                "relief_lag_s" => l.relief_lag_s,
                "data_loss_events" => Some(l.data_loss_events as f64),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m.name.to_string(), v)
        })
        .collect();

    let support = [
        ("tick_samples", ticks.len()),
        ("tick_beyond_p95", stats::samples_beyond(ticks.len(), 95.0)),
        ("read_samples", out.read_samples),
        (
            "read_beyond_p99",
            stats::samples_beyond(out.read_samples, 99.0),
        ),
        ("reads_attempted", c.reads_attempted as usize),
        ("reads_refused", c.reads_refused as usize),
        ("writes_attempted", c.writes_attempted as usize),
        ("write_samples", c.writes_done as usize),
        ("write_fail", (c.writes_failed + c.writes_refused) as usize),
        ("relief_pairs", c.relief_pairs as usize),
        ("relief_prewarmed", c.relief_prewarmed as usize),
        ("relief_miss", c.relief_miss as usize),
    ]
    .map(|(name, n)| (name.to_string(), n as f64))
    .to_vec();

    // busy time per span name over the drive loop (set-up and the final
    // checkpoint carry no tick and stay out of the wall's accounting)
    let own = spans::own_times(tr.spans());
    let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut root_ns = 0;
    for (s, own_ns) in tr.spans().iter().zip(own) {
        if s.tick == NO_TICK {
            continue;
        }
        *busy.entry(s.name).or_default() += own_ns as f64 / 1e9;
        if s.parent.is_none() {
            root_ns += s.dur_ns();
        }
    }
    let view = LayerView {
        out,
        busy: &busy,
        uncovered_s: out.wall_s - root_ns as f64 / 1e9,
        spans: tr.spans().len(),
        traced,
    };
    let per_layer: Vec<(String, Option<f64>)> = PER_LAYER
        .iter()
        .map(|m| {
            let v = if traced || m.exact {
                view.value(m.name)
            } else {
                None
            };
            (m.name.to_string(), v)
        })
        .collect();

    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(
        c.reads_attempted == c.reads_done + c.reads_failed + c.reads_refused,
        format!(
            "reads do not add up: {} attempted, {} done + {} failed + {} refused",
            c.reads_attempted, c.reads_done, c.reads_failed, c.reads_refused
        ),
    );
    check(
        c.writes_attempted == c.writes_done + c.writes_failed + c.writes_refused,
        format!(
            "writes do not add up: {} attempted, {} done + {} failed + {} refused",
            c.writes_attempted, c.writes_done, c.writes_failed, c.writes_refused
        ),
    );
    for expected in expected_positive(spec) {
        let total: f64 = expected
            .split('+')
            .map(|name| count_value(c, name).unwrap_or(0.0))
            .sum();
        check(
            total > 0.0,
            format!("{expected} is 0 on a workload defined to produce it"),
        );
    }
    if traced {
        let layers: f64 = busy
            .iter()
            .filter(|(name, _)| spans::layer_of(name) != "harness")
            .map(|(_, secs)| secs)
            .sum();
        let accounted = layers + view.harness_self_s();
        check(
            (accounted - out.wall_s).abs() <= 0.01 * out.wall_s,
            format!(
                "layer self times sum to {accounted:.4} s of a {:.4} s wall",
                out.wall_s
            ),
        );
    }

    RunRecord {
        workload: spec.name.to_string(),
        seed,
        scale: scale.label().to_string(),
        traced,
        params: spec.describe(),
        setup_samples,
        end_to_end,
        support,
        per_layer,
        profile_scopes: out
            .trace
            .as_ref()
            .map_or_else(Vec::new, |t| flatten(&t.profile)),
        failures,
        oracle_violations: out
            .trace
            .as_ref()
            .map_or_else(Vec::new, |t| t.violation_samples.clone()),
    }
}

/// Counts a workload is defined to produce (`a+b`: the sum must be
/// positive).
fn expected_positive(spec: &Spec) -> Vec<&'static str> {
    let mut names = vec![
        "hdfs.reads_done",
        "hdfs.audit_lines",
        "erms.files_judged",
        "cep.events_seen",
    ];
    if spec.burst.is_some() {
        names.extend(["erms.verdicts", "erms.tasks_submitted", "relief_pairs"]);
    }
    if spec.faults.is_some() {
        names.extend([
            "hdfs.faults_applied",
            "hdfs.reads_failed+hdfs.ops_refused",
            "erms.reconstructions+erms.repairs_started",
        ]);
    }
    if spec.scrubber {
        names.push("erms.scrub_scanned");
    }
    if spec.ingest == crate::workloads::Ingest::PipelinedWrites {
        names.push("hdfs.writes_done");
    }
    names
}

/// The exact per-layer counts (and the harness's own), by metric name.
fn count_value(c: &Counts, name: &str) -> Option<f64> {
    let v = match name {
        "workload.files" => c.files,
        "workload.jobs" => c.jobs,
        "hdfs.run_calls" => c.run_calls,
        "hdfs.ops" => c.reads_attempted + c.writes_attempted,
        "hdfs.ops_refused" => c.reads_refused + c.writes_refused,
        "hdfs.faults_applied" => c.faults_applied,
        "hdfs.audit_lines" => c.audit_lines,
        "hdfs.audit_pending_max" => c.audit_pending_max,
        "hdfs.inflight_reads_max" => c.inflight_reads_max,
        "hdfs.total_load_max" => c.total_load_max,
        "hdfs.reads_done" => c.reads_done,
        "hdfs.reads_failed" => c.reads_failed,
        "hdfs.writes_done" => c.writes_done,
        "hdfs.writes_failed" => c.writes_failed,
        "hdfs.repair_bytes" => c.repair_bytes,
        "hdfs.unavail_windows" => c.unavail_windows,
        "erms.ticks" => c.ticks,
        "erms.files_judged" => c.files_judged,
        "erms.verdicts" => c.verdicts,
        "erms.tasks_submitted" => c.tasks_submitted,
        "erms.tasks_completed" => c.tasks_completed,
        "erms.tasks_failed" => c.tasks_failed,
        "erms.tasks_timed_out" => c.tasks_timed_out,
        "erms.repairs_started" => c.repairs_started,
        "erms.reconstructions" => c.reconstructions,
        "erms.scrub_scanned" => c.scrub_scanned,
        "cep.events_seen" => c.cep_events_seen,
        "cep.parse_errors" => c.cep_parse_errors,
        "condor.queue_immediate_max" => c.queue_immediate_max,
        "condor.queue_idle_max" => c.queue_idle_max,
        "condor.running_max" => c.running_max,
        "relief_pairs" => c.relief_pairs,
        _ => return None,
    };
    Some(v as f64)
}

/// Everything a per-layer metric can be computed from.
struct LayerView<'a> {
    out: &'a Outcome,
    /// Self seconds per span name over the drive loop.
    busy: &'a BTreeMap<&'static str, f64>,
    /// Wall time inside the drive loop that no span covers.
    uncovered_s: f64,
    spans: usize,
    traced: bool,
}

impl LayerView<'_> {
    fn busy_s(&self, names: &[&str]) -> f64 {
        // fold from +0.0: an empty `sum()` is -0.0, which prints as "-0"
        names
            .iter()
            .filter_map(|n| self.busy.get(n))
            .fold(0.0, |acc, secs| acc + secs)
    }

    /// What consuming the telemetry cost: not part of the program's run.
    fn observability_s(&self) -> f64 {
        self.busy_s(&[
            "telemetry.drain",
            "spans.parse",
            "spans.collect",
            "oracle.check",
        ])
    }

    /// The traced wall without the trace consumption — the base of the
    /// layer shares.
    fn program_wall_s(&self) -> f64 {
        self.out.wall_s - self.observability_s()
    }

    fn hdfs_run_s(&self) -> f64 {
        self.busy_s(&["hdfs.run_until", "hdfs.run_until_quiescent"])
    }

    fn harness_self_s(&self) -> f64 {
        self.busy_s(&["harness.tick"]) + self.uncovered_s
    }

    fn scope_s(&self, path: &[&str]) -> Option<f64> {
        let mut node = &self.out.trace.as_ref()?.profile;
        for part in path {
            node = node.children.iter().find(|c| c.name == *part)?;
        }
        Some(node.wall_ns as f64 / 1e9)
    }

    /// Calls and seconds of every scope called `name`, wherever it nests.
    fn scope_anywhere(&self, name: &str) -> Option<(u64, f64)> {
        fn walk(node: &ProfileNode, name: &str, acc: &mut Option<(u64, f64)>) {
            if node.name == name {
                let (calls, secs) = acc.get_or_insert((0, 0.0));
                *calls += node.calls;
                *secs += node.wall_ns as f64 / 1e9;
            }
            for c in &node.children {
                walk(c, name, acc);
            }
        }
        let mut acc = None;
        walk(&self.out.trace.as_ref()?.profile, name, &mut acc);
        acc
    }

    fn value(&self, name: &str) -> Option<f64> {
        let c = &self.out.counts;
        if let Some(v) = count_value(c, name) {
            return Some(v);
        }
        let ratio = |num: f64, den: f64| (den > 0.0).then(|| num / den);
        let trace = self.out.trace.as_ref();
        let tick_s = self.busy_s(&["erms.tick"]);
        match name {
            "workload.gen_s" => Some(self.out.setup.gen_s),
            "workload.quantise_s" => Some(self.out.setup.quantise_s),
            "hdfs.run_s" => Some(self.hdfs_run_s()),
            "hdfs.run_share" => ratio(self.hdfs_run_s(), self.program_wall_s()),
            "hdfs.run_us_per_read" => ratio(self.hdfs_run_s() * 1e6, c.reads_done as f64),
            "hdfs.ops_s" => Some(self.busy_s(&["hdfs.write_file", "hdfs.open_read"])),
            "hdfs.drain_s" => Some(self.busy_s(&["hdfs.drain_completed"])),
            "hdfs.faults_s" => Some(self.busy_s(&["hdfs.apply_faults"])),
            "erms.tick_s" => Some(tick_s),
            "erms.tick_share" => ratio(tick_s, self.program_wall_s()),
            "erms.tick_us_per_judged" => ratio(tick_s * 1e6, c.files_judged as f64),
            "erms.idle_tick_ms" => {
                let idle: Vec<f64> = self
                    .out
                    .tick_ms
                    .iter()
                    .zip(&self.out.tick_idle)
                    .filter(|(_, &idle)| idle)
                    .map(|(&ms, _)| ms)
                    .collect();
                stats::median(&idle)
            }
            "erms.judge_useful_ratio" => ratio(c.verdicts as f64, c.files_judged as f64),
            "erms.scope.audit_s" => self.scope_s(&["tick", "audit"]),
            "erms.scope.cep_drain_s" => self.scope_s(&["tick", "cep_drain"]),
            "erms.scope.judge_s" => self.scope_s(&["tick", "judge"]),
            "erms.scope.merge_s" => self.scope_s(&["tick", "merge"]),
            "erms.scope.repair_scan_s" => self.scope_s(&["tick", "repair_scan"]),
            "erms.scope.scrub_s" => self.scope_s(&["tick", "scrub"]),
            "erms.scope.telemetry_flush_s" => self.scope_s(&["tick", "telemetry_flush"]),
            "erms.scope.unattributed_s" => {
                let tick = trace?.profile.children.iter().find(|n| n.name == "tick")?;
                let children: u64 = tick.children.iter().map(|n| n.wall_ns).sum();
                Some(tick.wall_ns.saturating_sub(children) as f64 / 1e9)
            }
            "cep.parse_s" => self.scope_anywhere("cep/parse").map(|(_, s)| s),
            "cep.parse_calls" => self.scope_anywhere("cep/parse").map(|(n, _)| n as f64),
            "cep.parse_ns_per_line" => {
                let (_, secs) = self.scope_anywhere("cep/parse")?;
                ratio(secs * 1e9, c.cep_events_seen as f64)
            }
            "condor.dispatch_s" => self.scope_anywhere("condor/dispatch").map(|(_, s)| s),
            "telemetry.events" => trace.map(|t| t.events as f64),
            "telemetry.bytes" => trace.map(|t| t.bytes as f64),
            "telemetry.drain_s" => Some(self.busy_s(&["telemetry.drain"])),
            "spans.parse_s" => Some(self.busy_s(&["spans.parse"])),
            "spans.collect_s" => Some(self.busy_s(&["spans.collect"])),
            "oracle.check_s" => Some(self.busy_s(&["oracle.check"])),
            "oracle.violations" => trace.map(|t| t.oracle_violations as f64),
            // needs the untraced wall: the parent fills it in
            "trace.overhead_pct" => None,
            "checkpoint.save_s" => trace.map(|t| t.checkpoint_save_s),
            "checkpoint.bytes" => trace.map(|t| t.checkpoint_bytes as f64),
            "harness.self_s" => Some(self.harness_self_s()),
            "harness.spans" => self.traced.then_some(self.spans as f64),
            other => unreachable!("per-layer metric {other} has no source"),
        }
    }
}

/// The profiler tree as `a/b/c` paths, depth first.
fn flatten(root: &ProfileNode) -> Vec<Scope> {
    fn walk(node: &ProfileNode, prefix: &str, out: &mut Vec<Scope>) {
        for c in &node.children {
            let path = if prefix.is_empty() {
                c.name.clone()
            } else {
                format!("{prefix}/{}", c.name)
            };
            out.push(Scope {
                path: path.clone(),
                calls: c.calls,
                wall_s: c.wall_ns as f64 / 1e9,
            });
            walk(c, &path, out);
        }
    }
    let mut out = Vec::new();
    walk(root, "", &mut out);
    out
}

fn pairs_to_json(pairs: &[(String, Option<f64>)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect(),
    )
}

fn pairs_from_json(v: Option<&Value>) -> Result<Vec<(String, Option<f64>)>, String> {
    let v = v.ok_or("missing metric object")?;
    Ok(v.fields()
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64()))
        .collect())
}

impl RunRecord {
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        lookup(&self.end_to_end, name)
    }

    pub fn per_layer(&self, name: &str) -> Option<f64> {
        lookup(&self.per_layer, name)
    }

    pub fn support(&self, name: &str) -> f64 {
        self.support
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn set_per_layer(&mut self, name: &str, value: Option<f64>) {
        if let Some(slot) = self.per_layer.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        }
    }

    /// The simulated ledger and every exact count, for equality checks
    /// between runs of the same (workload, seed).
    pub fn exact_view(&self) -> Vec<(String, Option<u64>)> {
        let sim = END_TO_END
            .iter()
            .filter(|m| m.simulated)
            .map(|m| (m.name, self.end_to_end(m.name)));
        let counts = PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name, self.per_layer(m.name)));
        let support = self
            .support
            .iter()
            .filter(|(k, _)| !k.starts_with("tick_"))
            .map(|(k, v)| (k.as_str(), Some(*v)));
        sim.chain(counts)
            .chain(support)
            .map(|(k, v)| (k.to_string(), v.map(f64::to_bits)))
            .collect()
    }

    pub fn scopes_to_json(&self) -> Value {
        let scope = |s: &Scope| {
            let mut o = Value::obj();
            o.set("path", s.path.as_str())
                .set("calls", s.calls)
                .set("wall_s", s.wall_s);
            o
        };
        Value::Arr(self.profile_scopes.iter().map(scope).collect())
    }

    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("scale", self.scale.as_str())
            .set("traced", self.traced)
            .set("params", self.params.as_str())
            .set("setup_samples", self.setup_samples.clone())
            .set("end_to_end", pairs_to_json(&self.end_to_end))
            .set(
                "support",
                Value::Obj(
                    self.support
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            )
            .set("per_layer", pairs_to_json(&self.per_layer))
            .set("profile_scopes", self.scopes_to_json())
            .set("failures", self.failures.clone())
            .set("oracle_violations", self.oracle_violations.clone());
        v
    }

    pub fn from_json(v: &Value) -> Result<RunRecord, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run record lacks {key}"))
        };
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("run record lacks {key}"))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("{key}: not a number")))
                .collect()
        };
        let texts = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect()
        };
        let scopes = v
            .get("profile_scopes")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                Ok(Scope {
                    path: s
                        .get("path")
                        .and_then(Value::as_str)
                        .ok_or("scope lacks path")?
                        .to_string(),
                    calls: s.get("calls").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    wall_s: s.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            workload: text("workload")?,
            seed: v
                .get("seed")
                .and_then(Value::as_f64)
                .ok_or("run record lacks seed")? as u64,
            scale: text("scale")?,
            traced: v.get("traced") == Some(&Value::Bool(true)),
            params: text("params")?,
            setup_samples: nums("setup_samples")?,
            end_to_end: pairs_from_json(v.get("end_to_end"))?,
            support: pairs_from_json(v.get("support"))?
                .into_iter()
                .map(|(k, v)| (k, v.unwrap_or(0.0)))
                .collect(),
            per_layer: pairs_from_json(v.get("per_layer"))?,
            profile_scopes: scopes,
            failures: texts("failures"),
            oracle_violations: texts("oracle_violations"),
        })
    }
}

fn lookup(pairs: &[(String, Option<f64>)], name: &str) -> Option<f64> {
    pairs.iter().find(|(k, _)| k == name).and_then(|(_, v)| *v)
}
