//! The metric catalogue: every name the benchmark prints, with its
//! unit, direction and — for end-to-end metrics — the bound `compare`
//! applies. README.md carries the same tables with the full definitions
//! and the interaction notes.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse a metric may read before `compare` calls it WORSE:
/// the larger of `rel` times the baseline and `abs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs: f64,
}

impl Bound {
    pub fn at(&self, baseline: f64) -> f64 {
        (self.rel * baseline.abs()).max(self.abs)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated metrics are pure functions of the seed and must repeat
    /// bit for bit; host metrics are timings and memory of this process.
    pub simulated: bool,
    pub bound: Bound,
}

const fn host(name: &'static str, unit: &'static str, rel: f64, abs: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        simulated: false,
        bound: Bound { rel, abs },
    }
}

const fn sim(name: &'static str, unit: &'static str, rel: f64, abs: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        simulated: true,
        bound: Bound { rel, abs },
    }
}

pub const END_TO_END: [EndToEnd; 14] = [
    host("setup_s", "s", 0.15, 0.02),
    host("wall_s", "s", 0.08, 0.0),
    host("tick_p50_ms", "ms", 0.10, 0.0),
    host("tick_p95_ms", "ms", 0.10, 0.0),
    host("peak_rss_mb", "MB", 0.05, 0.0),
    sim("read_p50_s", "sim_s", 0.01, 0.0),
    sim("read_p90_s", "sim_s", 0.01, 0.0),
    sim("read_p99_s", "sim_s", 0.01, 0.0),
    sim("read_fail_pct", "%", 0.0, 0.1),
    sim("write_p95_s", "sim_s", 0.01, 0.0),
    sim("storage_overhead_x", "ratio", 0.01, 0.0),
    sim("standby_on_pct", "%", 0.01, 0.0),
    sim("relief_lag_s", "sim_s", 0.01, 0.0),
    sim("data_loss_events", "count", 0.0, 0.0),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Exact metrics are deterministic counts: they repeat bit for bit
    /// and are available from untraced runs too.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Layer = the name's prefix. Work counts are listed "lower is better"
/// by convention: at a fixed input, less work for the same ledger is
/// the improvement; completions and useful-work ratios are "higher".
pub const PER_LAYER: &[PerLayer] = &[
    // workload
    layer("workload.gen_s", "s", L, false),
    layer("workload.quantise_s", "s", L, false),
    layer("workload.files", "count", L, true),
    layer("workload.jobs", "count", L, true),
    // hdfs-sim
    layer("hdfs.run_s", "s", L, false),
    layer("hdfs.run_share", "ratio", L, false),
    layer("hdfs.run_calls", "count", L, true),
    layer("hdfs.run_us_per_read", "us", L, false),
    layer("hdfs.ops_s", "s", L, false),
    layer("hdfs.ops", "count", L, true),
    layer("hdfs.ops_refused", "count", L, true),
    layer("hdfs.drain_s", "s", L, false),
    layer("hdfs.faults_s", "s", L, false),
    layer("hdfs.faults_applied", "count", L, true),
    layer("hdfs.audit_lines", "count", L, true),
    layer("hdfs.audit_pending_max", "count", L, true),
    layer("hdfs.inflight_reads_max", "count", L, true),
    layer("hdfs.total_load_max", "count", L, true),
    layer("hdfs.reads_done", "count", H, true),
    layer("hdfs.reads_failed", "count", L, true),
    layer("hdfs.writes_done", "count", H, true),
    layer("hdfs.writes_failed", "count", L, true),
    layer("hdfs.repair_bytes", "bytes", L, true),
    layer("hdfs.unavail_windows", "count", L, true),
    // erms
    layer("erms.tick_s", "s", L, false),
    layer("erms.tick_share", "ratio", L, false),
    layer("erms.ticks", "count", L, true),
    layer("erms.tick_us_per_judged", "us", L, false),
    layer("erms.idle_tick_ms", "ms", L, false),
    layer("erms.files_judged", "count", L, true),
    layer("erms.verdicts", "count", L, true),
    layer("erms.judge_useful_ratio", "ratio", H, true),
    layer("erms.tasks_submitted", "count", L, true),
    layer("erms.tasks_completed", "count", L, true),
    layer("erms.tasks_failed", "count", L, true),
    layer("erms.tasks_timed_out", "count", L, true),
    layer("erms.repairs_started", "count", L, true),
    layer("erms.reconstructions", "count", L, true),
    layer("erms.scrub_scanned", "count", L, true),
    layer("erms.scope.audit_s", "s", L, false),
    layer("erms.scope.cep_drain_s", "s", L, false),
    layer("erms.scope.judge_s", "s", L, false),
    layer("erms.scope.merge_s", "s", L, false),
    layer("erms.scope.repair_scan_s", "s", L, false),
    layer("erms.scope.scrub_s", "s", L, false),
    layer("erms.scope.telemetry_flush_s", "s", L, false),
    layer("erms.scope.unattributed_s", "s", L, false),
    // cep
    layer("cep.parse_s", "s", L, false),
    layer("cep.parse_calls", "count", L, false),
    layer("cep.events_seen", "count", L, true),
    layer("cep.parse_errors", "count", L, true),
    layer("cep.parse_ns_per_line", "ns", L, false),
    // condor
    layer("condor.dispatch_s", "s", L, false),
    layer("condor.queue_immediate_max", "count", L, true),
    layer("condor.queue_idle_max", "count", L, true),
    layer("condor.running_max", "count", L, true),
    // simcore: telemetry, spans, oracle
    layer("telemetry.events", "count", L, false),
    layer("telemetry.bytes", "bytes", L, false),
    layer("telemetry.drain_s", "s", L, false),
    layer("spans.parse_s", "s", L, false),
    layer("spans.collect_s", "s", L, false),
    layer("oracle.check_s", "s", L, false),
    layer("oracle.violations", "count", L, false),
    layer("trace.overhead_pct", "%", L, false),
    // checkpoint
    layer("checkpoint.save_s", "s", L, false),
    layer("checkpoint.bytes", "bytes", L, false),
    // harness
    layer("harness.self_s", "s", L, false),
    layer("harness.spans", "count", L, false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn bounds_take_the_larger_of_relative_and_absolute() {
        let b = end_to_end("setup_s").unwrap().bound;
        assert_eq!(b.at(1.0), 0.15);
        assert_eq!(b.at(0.05), 0.02);
        assert_eq!(end_to_end("data_loss_events").unwrap().bound.at(28.0), 0.0);
        assert_eq!(end_to_end("read_fail_pct").unwrap().bound.at(1.7), 0.1);
    }
}
