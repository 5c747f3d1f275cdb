//! Command line: `run`, `trace`, `compare`, `list`, and the driver
//! contract (`--workload W --seed N --seconds S --trace 0|1`).
//!
//! Every run of a workload happens in a fresh child process of this
//! binary (the hidden `child` subcommand), so peak memory and allocator
//! state are per run; the parent only spawns, folds and prints.

use crate::compare::compare;
use crate::json::{self, Value};
use crate::metrics::{Better, PER_LAYER};
use crate::record::{run_once, RunRecord};
use crate::report::{document, WorkloadReport};
use crate::workloads::{spec, Scale, NAMES};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub const USAGE: &str = "\
ermsbench — the ERMS benchmark (see benchmark/README.md)

  ermsbench run     [--workload W]... [--seed N] [--reps R] [--out FILE] [--smoke]
  ermsbench trace   [--workload W]... [--seed N] [--smoke]
  ermsbench compare A.json B.json
  ermsbench list
  ermsbench contract                                          (prints BENCHMARK.json)
  ermsbench --workload W --seed N --seconds S --trace 0|1     (driver contract)

run      R untraced reps and one traced run per workload; prints every
         metric, runs the correctness checks, exits non-zero if any fails
trace    the traced run only (per-layer metrics and spans)
compare  applies each end-to-end metric's bound to two `run --out` files
defaults: every workload, seed 42, 3 reps";

/// Set-ups timed per untraced child; `setup_s` is the median of all of
/// them across the run's reps.
const SETUP_REPS: usize = 3;
/// What one rep's drive loop takes on the reference box: the workloads
/// are sized to it, and the driver contract turns `--seconds` into a
/// whole number of reps with it, so the work done does not depend on
/// how fast the host happens to be.
const NOMINAL_REP_SECONDS: f64 = 10.0;

#[derive(Debug, Default)]
struct Args {
    workloads: Vec<String>,
    seed: Option<u64>,
    reps: Option<usize>,
    out: Option<PathBuf>,
    smoke: bool,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    setup_reps: usize,
    spans_out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        setup_reps: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        let flag01 = |flag: &str, v: String| match v.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {v:?}")),
        };
        match arg.as_str() {
            "--workload" => a.workloads.push(value(arg)?),
            "--seed" => a.seed = Some(num(arg, value(arg)?)?),
            "--reps" => a.reps = Some(num(arg, value(arg)?)?),
            "--out" => a.out = Some(PathBuf::from(value(arg)?)),
            "--smoke" => a.smoke = true,
            "--seconds" => a.seconds = Some(num(arg, value(arg)?)?),
            "--trace" => a.trace = Some(flag01(arg, value(arg)?)?),
            "--traced" => a.traced = flag01(arg, value(arg)?)?,
            "--setup-reps" => a.setup_reps = num(arg, value(arg)?)?,
            "--spans-out" => a.spans_out = Some(PathBuf::from(value(arg)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    for w in &a.workloads {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?} (try `list`)"));
        }
    }
    Ok(a)
}

impl Args {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    fn selected(&self) -> Vec<&str> {
        if self.workloads.is_empty() {
            NAMES.to_vec()
        } else {
            self.workloads.iter().map(String::as_str).collect()
        }
    }
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    if cfg!(debug_assertions) {
        eprintln!("ermsbench: refusing to measure a debug build; use `cargo run --release`");
        return 2;
    }
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "list" | "child" | "contract")) => (c, &args[1..]),
        Some("-h" | "--help" | "help") | None => {
            println!("{USAGE}");
            return if args.is_empty() { 2 } else { 0 };
        }
        Some(_) => ("driver", args),
    };
    let outcome = parse_args(rest).and_then(|a| match cmd {
        "run" => cmd_run(&a, true),
        "trace" => cmd_run(&a, false),
        "compare" => cmd_compare(&a),
        "list" => Ok(cmd_list()),
        "child" => cmd_child(&a),
        "contract" => {
            print!("{}", contract_document().to_pretty());
            Ok(0)
        }
        _ => cmd_driver(&a),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ermsbench: {e}");
            2
        }
    }
}

fn cmd_list() -> i32 {
    for name in NAMES {
        let s = spec(name, Scale::Full).expect("listed workloads resolve");
        println!("{name}\n    {}\n    {}", s.why, s.describe());
    }
    0
}

fn cmd_child(a: &Args) -> Result<i32, String> {
    let [workload] = a.workloads.as_slice() else {
        return Err("child runs exactly one workload".into());
    };
    let record = run_once(
        workload,
        a.seed.unwrap_or(42),
        a.scale(),
        a.traced,
        a.setup_reps,
        a.spans_out.as_deref(),
    )?;
    println!("{}", record.to_json().to_line());
    Ok(0)
}

/// Run one (workload, rep) in a fresh process of this binary and wait
/// for it to end.
fn spawn_child(
    workload: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
    setup_reps: usize,
    spans_out: Option<&Path>,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--setup-reps", &setup_reps.to_string()]);
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = spans_out {
        cmd.arg("--spans-out").arg(p);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting child for {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {workload} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child for {workload} printed nothing"))?;
    RunRecord::from_json(&json::parse(line)?)
}

fn spans_path(workload: &str) -> PathBuf {
    Path::new("benchmark/out").join(format!("{workload}.spans.jsonl"))
}

/// `run` (untraced reps + traced run) and `trace` (traced run only).
fn cmd_run(a: &Args, with_reps: bool) -> Result<i32, String> {
    let seed = a.seed.unwrap_or(42);
    let reps = if with_reps { a.reps.unwrap_or(3) } else { 0 };
    if with_reps && reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let mut reports = Vec::new();
    for name in a.selected() {
        let s = spec(name, a.scale()).expect("validated workload name");
        let mut records = Vec::new();
        for rep in 0..reps {
            eprintln!("[{name}] rep {}/{reps}", rep + 1);
            records.push(spawn_child(name, seed, a.scale(), false, SETUP_REPS, None)?);
        }
        eprintln!("[{name}] traced run");
        let traced = spawn_child(name, seed, a.scale(), true, 1, Some(&spans_path(name)))?;
        let report = WorkloadReport::assemble(name, s.why, records, Some(traced));
        print!("{}", report.render());
        reports.push(report);
    }
    let doc = document(environment(seed, reps, a.scale()), &reports);
    if let Some(path) = &a.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    let failed = reports.iter().filter(|r| !r.passed()).count();
    if failed > 0 {
        eprintln!("ermsbench: correctness checks failed on {failed} workloads");
        return Ok(1);
    }
    println!("all correctness checks passed");
    Ok(0)
}

fn cmd_compare(a: &Args) -> Result<i32, String> {
    let [pa, pb] = a.positional.as_slice() else {
        return Err("compare takes two files: A.json B.json".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|s| json::parse(&s).map_err(|e| format!("{p}: {e}")))
    };
    let cmp = compare(&load(pa)?, &load(pb)?)?;
    print!("{}", cmp.render());
    Ok(i32::from(cmp.failed()))
}

/// What was measured on what: recorded in the output, never acted on.
fn environment(seed: u64, reps: usize, scale: Scale) -> Value {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // only inside a git checkout: elsewhere git would search the parents
    let git_head = Path::new(".git")
        .exists()
        .then(|| run("git", &["rev-parse", "HEAD"]))
        .flatten();
    let mut env = Value::obj();
    env.set("git_head", git_head.unwrap_or_else(|| "unknown".into()))
        .set(
            "rustc",
            run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .set("seed", seed)
        .set("reps", reps)
        .set("scale", scale.label())
        .set(
            "profile_matches_root",
            profile_matches_root().map_or(Value::Null, Value::Bool),
        );
    env
}

/// The `[profile.release]` table of a manifest: its lines, trimmed,
/// without blanks and comments.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Whether the benchmark's release profile still reads like the root
/// workspace's (`None` when not run from the repo root).
fn profile_matches_root() -> Option<bool> {
    let root = std::fs::read_to_string("Cargo.toml").ok()?;
    let own = std::fs::read_to_string("benchmark/Cargo.toml").ok()?;
    Some(release_profile(&root) == release_profile(&own))
}

/// The end-to-end metrics the driver contract prints, with the share of
/// the parent's median each may worsen by. The bounds are about three
/// times the widest seed-to-seed quartile spread measured on any
/// workload (capped at the contract's 0.25); `compare` applies the
/// tighter same-seed bounds of [`crate::metrics::END_TO_END`]. Every workload must emit every one, none may
/// ever be 0, and each must hold steady from seed to seed. So the
/// single-workload and can-be-zero entries of the full ledger
/// (`write_p95_s`, `relief_lag_s`, `read_fail_pct`, `standby_on_pct`,
/// `data_loss_events`) travel in the per-layer list as `client.*`, the
/// failure share is bounded as `read_ok_pct`, the bounded read tail is
/// `read_p90_s` (`read_p99_s` swings 40 % between seeds on the flash
/// crowds and travels as `client.read_p99_s`), and `peak_rss_mb` — 10 to
/// 20 MB, half of it allocator bursts that move with the seed — travels
/// as `process.peak_rss_mb`.
pub const CONTRACT_END_TO_END: [(&str, &str, Better, f64); 8] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("wall_s", "s", Better::Lower, 0.25),
    ("tick_p50_ms", "ms", Better::Lower, 0.2),
    ("tick_p95_ms", "ms", Better::Lower, 0.25),
    ("read_p50_s", "sim_s", Better::Lower, 0.12),
    ("read_p90_s", "sim_s", Better::Lower, 0.25),
    ("read_ok_pct", "%", Better::Higher, 0.015),
    ("storage_overhead_x", "ratio", Better::Lower, 0.18),
];

/// The end-to-end entries the contract's per-layer list carries on top
/// of [`PER_LAYER`], taken from the untraced rep that runs beside the
/// traced one: (contract name, end-to-end name, unit).
pub const CONTRACT_EXTRA: [(&str, &str, &str); 7] = [
    ("process.peak_rss_mb", "peak_rss_mb", "MB"),
    ("client.read_p99_s", "read_p99_s", "sim_s"),
    ("client.read_fail_pct", "read_fail_pct", "%"),
    ("client.write_p95_s", "write_p95_s", "sim_s"),
    ("client.relief_lag_s", "relief_lag_s", "sim_s"),
    ("client.standby_on_pct", "standby_on_pct", "%"),
    ("client.data_loss_events", "data_loss_events", "count"),
];

fn metric(value: f64, unit: &str) -> Value {
    let mut m = Value::obj();
    m.set("value", value).set("unit", unit);
    m
}

/// The driver contract: one workload, one seed, `--seconds` of measured
/// drive-loop time, one JSON object as the last line of stdout.
fn cmd_driver(a: &Args) -> Result<i32, String> {
    let ([name], Some(seed), Some(seconds), Some(trace)) =
        (a.workloads.as_slice(), a.seed, a.seconds, a.trace)
    else {
        return Err(format!(
            "the driver contract needs --workload, --seed, --seconds and --trace\n\n{USAGE}"
        ));
    };
    let s = spec(name, a.scale()).expect("validated workload name");
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    // with tracing, one untraced rep prices the overhead and proves the
    // ledger does not depend on the telemetry
    let rep_count = if trace {
        1
    } else {
        ((seconds / NOMINAL_REP_SECONDS).round() as usize).max(1)
    };
    let reps = (0..rep_count)
        .map(|_| spawn_child(name, seed, a.scale(), false, SETUP_REPS, None))
        .collect::<Result<Vec<_>, _>>()?;
    let traced = if trace {
        Some(spawn_child(
            name,
            seed,
            a.scale(),
            true,
            1,
            Some(&spans_path(name)),
        )?)
    } else {
        None
    };
    let report = WorkloadReport::assemble(name, s.why, reps, traced);
    eprint!("{}", report.render());

    let mut missing = Vec::new();
    let mut metrics = Value::obj();
    if let Some(t) = &report.traced {
        for m in PER_LAYER {
            // absent scopes and not-applicable entries read 0
            metrics.set(m.name, metric(t.per_layer(m.name).unwrap_or(0.0), m.unit));
        }
        for (name, source, unit) in CONTRACT_EXTRA {
            let value = report.summary(source).map_or(0.0, |s| s.median);
            metrics.set(name, metric(value, unit));
        }
    } else {
        for (name, unit, _, _) in CONTRACT_END_TO_END {
            let value = match name {
                "read_ok_pct" => report.summary("read_fail_pct").map(|s| 100.0 - s.median),
                _ => report.summary(name).map(|s| s.median),
            };
            match value {
                Some(v) => metrics.set(name, metric(v, unit)),
                None => {
                    missing.push(name);
                    metrics.set(name, metric(0.0, unit))
                }
            };
        }
    }
    for m in &missing {
        eprintln!("ermsbench: metric {m} has no value");
    }

    // Operations are the simulated client's reads and writes. A read
    // that fails inside the simulation under an injected fault is a
    // modelled outcome, reported as `read_ok_pct` / `client.read_fail_pct`;
    // `failed` counts operations the harness could not account for.
    let count = |r: &RunRecord, name: &str| r.per_layer(name).unwrap_or(0.0);
    let runs = || report.reps.iter().chain(report.traced.iter());
    let attempted: f64 = runs().map(|r| count(r, "hdfs.ops")).sum();
    let unaccounted: f64 = runs()
        .map(|r| {
            let accounted: f64 = [
                "hdfs.reads_done",
                "hdfs.reads_failed",
                "hdfs.writes_done",
                "hdfs.writes_failed",
                "hdfs.ops_refused",
            ]
            .iter()
            .map(|name| count(r, name))
            .sum();
            (count(r, "hdfs.ops") - accounted).abs()
        })
        .sum();
    let mut line = Value::obj();
    line.set("correct", report.failures.is_empty() && missing.is_empty())
        .set("attempted", attempted.max(1.0))
        .set("failed", unaccounted)
        .set("metrics", metrics);
    println!("{}", line.to_line());
    Ok(0)
}

/// The seconds `BENCHMARK.json` asks the driver to pass as `--seconds`.
const RUN_SECONDS: u64 = 10;

/// What `BENCHMARK.json` must say for the driver to find what
/// [`cmd_driver`] prints (`ermsbench contract` writes it out).
pub fn contract_document() -> Value {
    let named = |name: &str, unit: &str, better: Better| {
        let mut m = Value::obj();
        m.set("name", name)
            .set("unit", unit)
            .set("better", better.label());
        m
    };
    let command = "cargo run --release --quiet --manifest-path benchmark/Cargo.toml --";
    let mut doc = Value::obj();
    doc.set(
        "command",
        command.split(' ').map(Value::from).collect::<Vec<_>>(),
    )
    .set("paths", vec!["benchmark"])
    .set("run_seconds", RUN_SECONDS)
    .set(
        "workloads",
        NAMES
            .iter()
            .map(|name| {
                let mut w = Value::obj();
                w.set("name", *name)
                    .set("why", spec(name, Scale::Full).expect("listed").why);
                w
            })
            .collect::<Vec<_>>(),
    )
    .set(
        "end_to_end",
        CONTRACT_END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| {
                let mut m = named(name, unit, better);
                m.set("bound", bound);
                m
            })
            .collect::<Vec<_>>(),
    )
    .set(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| named(m.name, m.unit, m.better))
            .chain(
                CONTRACT_EXTRA
                    .iter()
                    .map(|&(name, _, unit)| named(name, unit, Better::Lower)),
            )
            .collect::<Vec<_>>(),
    );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&args(
            "--workload crowd-elastic --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, ["crowd-elastic"]);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(10.0), Some(true))
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    #[test]
    fn contract_metrics_have_a_source_in_the_catalogue() {
        let sources = CONTRACT_END_TO_END
            .iter()
            .map(|m| match m.0 {
                "read_ok_pct" => "read_fail_pct",
                other => other,
            })
            .chain(CONTRACT_EXTRA.iter().map(|m| m.1));
        for source in sources {
            assert!(
                END_TO_END.iter().any(|m| m.name == source),
                "{source} is not an end-to-end metric"
            );
        }
    }

    #[test]
    fn release_profile_tables_compare_textually() {
        let root = "[workspace]\n\n[profile.release]\ndebug = \"line-tables-only\"\n\n[profile.bench]\nx = 1\n";
        let own = "[profile.release]\n# copied\ndebug = \"line-tables-only\"\n";
        assert_eq!(release_profile(root), release_profile(own));
        assert_eq!(release_profile(root), ["debug = \"line-tables-only\""]);
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }
}
