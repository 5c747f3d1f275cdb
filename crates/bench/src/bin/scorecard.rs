//! Scenario-matrix SLO scorecard → `SCORECARD.json` + `profile.json`.
//!
//! ```text
//! scorecard [scenario...] [--seed N] [--xlarge] [--write-baseline]
//! ```
//!
//! Runs the scorecard matrix (default: every churn and production
//! traffic scenario plus `scale-small`; `--xlarge` appends the
//! 100k-file storm) under the
//! self-profiler, prints the per-scenario summary table, and archives
//! `results/SCORECARD.json` (metric maps + per-phase breakdown) and
//! `results/profile.json` (the merged flame tree, scenario names at the
//! top level). `--write-baseline` additionally regenerates
//! `results/slo_baseline.json`, the SLO document `trace-tools regress`
//! gates candidates against in CI.
//!
//! Exits non-zero when the phase scopes of `ErmsManager::tick` account
//! for under 95 % of the `tick` scope in any scenario (`attr %`,
//! `tick_attributed_pct` in the wall-clock metrics) — a phase has gone
//! dark. Scenarios whose ticks do too little work to resolve are exempt,
//! by a deterministic rule: see [`scorecard::MIN_GATED_EVENTS_PER_TICK`].

use bench::common::{results_dir, write_json};
use bench::scorecard::{self, Case, Scorecard};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every allocation call — the
/// profiler's allocation proxy (`alloc` column of the phase rows).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

fn main() -> ExitCode {
    let mut cases: Vec<Case> = Vec::new();
    let mut seed = scorecard::DEFAULT_SEED;
    let mut write_baseline = false;
    let mut xlarge = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed needs a number");
                    return ExitCode::FAILURE;
                };
                seed = v;
            }
            "--write-baseline" => write_baseline = true,
            "--xlarge" => xlarge = true,
            name => match Case::by_name(name) {
                Some(c) => cases.push(c),
                None => {
                    eprintln!("unknown scenario {name:?} (churn-*|prod-*|soak-*|scale-*)");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if cases.is_empty() {
        cases = scorecard::default_matrix();
    }
    if xlarge {
        cases.push(Case::by_name("scale-xlarge").expect("registry name"));
    }

    simcore::profiler::set_alloc_probe(Some(allocs));

    // One discarded warm-up run: the first measured scenario otherwise
    // pays cold-start costs (page faults, branch training) that swing
    // its wall-clock metrics an order of magnitude against the baseline.
    let _ = scorecard::run_case(&Case::by_name("churn-tiny").expect("registry name"), seed);

    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>10} {:>8} {:>12} {:>8} {:>12}",
        "scenario",
        "reads",
        "p50 ms",
        "p99 ms",
        "ovhd x",
        "oracle",
        "tick ms",
        "attr %",
        "CEP ev/s"
    );
    let mut dark: Vec<String> = Vec::new();
    let mut card = Scorecard::default();
    for case in &cases {
        let s = scorecard::run_case(case, seed);
        let det = |k: &str| s.deterministic.get(k).copied().unwrap_or(0.0);
        let wall = |k: &str| s.wallclock.get(k).copied().unwrap_or(0.0);
        let attributed = wall("tick_attributed_pct");
        if scorecard::attribution_gated(&s.deterministic)
            && attributed < scorecard::MIN_TICK_ATTRIBUTED_PCT
        {
            dark.push(s.name.clone());
        }
        println!(
            "{:<18} {:>8} {:>10.2} {:>10.2} {:>10.3} {:>8} {:>12.3} {:>8.1} {:>12.0}",
            s.name,
            det("read_count") as u64,
            det("read_p50_s") * 1e3,
            det("read_p99_s") * 1e3,
            det("storage_overhead_x"),
            det("oracle_violations") as u64,
            wall("mean_tick_ms"),
            attributed,
            wall("cep_parse_per_sec"),
        );
        card.scenarios.push(s);
    }

    write_json("SCORECARD", &card.to_value());
    let profile = serde_json::parse_value(&card.merged_profile().to_json())
        .expect("profiler JSON is well-formed");
    write_json("profile", &profile);
    println!(
        "archived {}",
        results_dir().join("SCORECARD.json").display()
    );
    println!("archived {}", results_dir().join("profile.json").display());

    if write_baseline {
        write_json("slo_baseline", &scorecard::baseline_value(&card));
        println!(
            "archived {}",
            results_dir().join("slo_baseline.json").display()
        );
    }
    if !dark.is_empty() {
        eprintln!(
            "tick phases account for under {}% of the tick in: {}",
            scorecard::MIN_TICK_ATTRIBUTED_PCT,
            dark.join(", ")
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
