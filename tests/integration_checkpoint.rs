//! Resume-equivalence guard for the checkpoint subsystem.
//!
//! The contract under test: checkpointing a seeded churn run at tick T,
//! serialising the snapshot through its JSON wire format, resuming, and
//! running to the horizon is *indistinguishable* from never having
//! stopped — the telemetry JSONL prefix (drained before the snapshot)
//! plus the resumed suffix concatenate into the byte-identical
//! straight-through trace, and the final snapshots (cluster, manager,
//! runner — the entire deterministic state) compare equal. The guard
//! runs under both judge modes (incremental and forced full rescan),
//! the trace-invariant oracle vets every trace it sees, and a property
//! test moves the checkpoint tick and fault schedule around.

use bench::checkpointing::{ResumableRun, Scenario};
use cep::fnv::FnvHasher;
use checkpoint::{Snapshot, Value};
use proptest::prelude::*;
use std::hash::Hasher;
use trace_tools::{check, OracleConfig};

/// Straight-through run: full trace plus the final-state snapshot JSON.
fn straight(scenario: Scenario, seed: u64) -> (String, String) {
    let mut run = ResumableRun::new(scenario, seed);
    run.finish();
    let trace = run.drain_trace();
    (trace, run.save().to_json())
}

/// Checkpoint at `at_tick`, push the snapshot through JSON, resume and
/// finish. Returns (prefix + suffix trace, final-state snapshot JSON).
fn split(scenario: Scenario, seed: u64, at_tick: u64) -> (String, String) {
    let mut run = ResumableRun::new(scenario, seed);
    run.run_to_tick(at_tick);
    let prefix = run.drain_trace();
    let wire = run.save().to_json();
    drop(run); // the "process" ends here

    let snap = Snapshot::from_json(&wire).expect("snapshot round-trips");
    assert_eq!(snap.meta.tick, at_tick);
    let mut resumed = ResumableRun::resume(&snap).expect("snapshot resumes");
    resumed.finish();
    let suffix = resumed.drain_trace();
    (format!("{prefix}{suffix}"), resumed.save().to_json())
}

fn assert_oracle_clean(trace: &str) {
    let (text, violations) = check(trace, OracleConfig::default()).expect("trace parses");
    assert!(violations.is_empty(), "oracle violations:\n{text}");
}

fn assert_equivalent(scenario: fn() -> Scenario, seed: u64, at_tick: u64) {
    let (trace_a, state_a) = straight(scenario(), seed);
    let (trace_b, state_b) = split(scenario(), seed, at_tick);
    assert!(!trace_a.is_empty(), "run traced events");
    assert_eq!(
        trace_a, trace_b,
        "prefix+suffix must be the byte-identical straight-through trace"
    );
    assert_eq!(state_a, state_b, "final snapshots must compare equal");
    assert_oracle_clean(&trace_a);
}

#[test]
fn resume_is_equivalent_incremental() {
    assert_equivalent(Scenario::churn_small, 42, 40);
}

#[test]
fn resume_is_equivalent_full_rescan() {
    assert_equivalent(Scenario::churn_small_full, 42, 40);
}

#[test]
fn resume_at_the_first_and_last_tick_boundaries() {
    // degenerate checkpoints: before any tick ran, and after the horizon
    let s = Scenario::churn_tiny;
    let (trace_a, state_a) = straight(s(), 11);
    for at in [0, s().total_ticks] {
        let (trace_b, state_b) = split(s(), 11, at);
        assert_eq!(trace_a, trace_b, "checkpoint at tick {at}");
        assert_eq!(state_a, state_b, "checkpoint at tick {at}");
    }
}

#[test]
fn resume_is_equivalent_with_production_traffic_and_encoding() {
    // The tiered scenario drives wave-structured workload traffic
    // (creates + reads regenerated from the seed on resume, never
    // serialized) with cold-data erasure coding on — the checkpoint now
    // lands mid-trace with stripes, EC state and the ops schedule all
    // in play.
    assert_equivalent(Scenario::prod_tiered, 42, 100);
}

#[test]
fn resume_is_equivalent_with_corruption_and_scrubbing() {
    // Mid-run state now includes latent-corruption maps, quarantine
    // sets and the scrub cursor; the byte-identical guard must still
    // hold with the storm active and the scrubber mid-sweep, and the
    // combined trace must show the corruption pipeline actually ran.
    let (trace_a, state_a) = straight(Scenario::churn_corrupt(), 42);
    let (trace_b, state_b) = split(Scenario::churn_corrupt(), 42, 25);
    assert!(
        trace_a.contains("\"ev\":\"corruption_injected\""),
        "storm injected rot"
    );
    assert!(
        trace_a.contains("\"ev\":\"scrub_progress\""),
        "scrubber swept"
    );
    assert_eq!(
        trace_a, trace_b,
        "prefix+suffix must be the byte-identical straight-through trace"
    );
    assert_eq!(state_a, state_b, "final snapshots must compare equal");
    assert_oracle_clean(&trace_a);
}

#[test]
fn resumed_run_restores_the_metric_registry() {
    // The metric registry is part of the snapshot ("metrics" section):
    // counters, gauges and histograms resume from their saved values,
    // so the final metric snapshot — percentile estimates, bucket
    // vectors, float bits and all — is byte-identical to the
    // straight-through run's. (This was a known deviation before the
    // registry became Checkpointable.)
    let mut a = ResumableRun::new(Scenario::churn_small(), 42);
    a.finish();
    let metrics_a = a.metrics_snapshot().expect("recording sink");
    assert!(
        metrics_a.contains("erms.hot_verdicts"),
        "run accumulated manager counters: {metrics_a}"
    );

    let mut b = ResumableRun::new(Scenario::churn_small(), 42);
    b.run_to_tick(40);
    let wire = b.save().to_json();
    drop(b);
    let snap = Snapshot::from_json(&wire).expect("snapshot round-trips");
    let mut resumed = ResumableRun::resume(&snap).expect("snapshot resumes");
    resumed.finish();
    let metrics_b = resumed.metrics_snapshot().expect("recording sink");

    assert_eq!(
        metrics_a, metrics_b,
        "metric snapshots must be byte-identical straight-through vs resumed"
    );
}

#[test]
fn resume_equivalence_holds_with_the_profiler_enabled() {
    // The profiler records wall-clock state outside the sim-time world;
    // enabling it must not perturb traces, metrics or snapshots.
    simcore::profiler::reset();
    simcore::profiler::set_enabled(true);
    let (trace_a, state_a) = straight(Scenario::churn_tiny(), 42);
    let (trace_b, state_b) = split(Scenario::churn_tiny(), 42, 20);
    simcore::profiler::set_enabled(false);
    let profile = simcore::profiler::snapshot();
    simcore::profiler::reset();
    assert_eq!(trace_a, trace_b, "profiler must not perturb the trace");
    assert_eq!(state_a, state_b, "profiler must not perturb snapshots");
    assert_oracle_clean(&trace_a);
    // ...and it actually profiled the runs it watched.
    let tick = profile.find("tick").expect("tick phase recorded");
    assert!(tick.calls > 0);
    assert!(profile.find("tick/judge").is_some());
}

#[test]
fn snapshot_survives_the_file_round_trip() {
    let mut run = ResumableRun::new(Scenario::churn_tiny(), 5);
    run.run_to_tick(10);
    let snap = run.save();
    let path = std::env::temp_dir().join(format!("erms-ckpt-test-{}.json", std::process::id()));
    snap.write_file(&path).expect("snapshot writes");
    let back = Snapshot::read_file(&path).expect("snapshot reads");
    std::fs::remove_file(&path).ok();
    assert_eq!(back.to_json(), snap.to_json());
    assert!(ResumableRun::resume(&back).is_ok());
}

#[test]
fn crash_restart_trace_stays_oracle_clean() {
    // A restart is *not* an exact resume: in-flight tasks are failed and
    // compensated via the journal's rollback plan. The combined trace
    // must still satisfy every invariant the oracle checks, and the run
    // must still reach the horizon with a clean journal.
    let mut run = ResumableRun::new(Scenario::churn_small(), 42);
    run.run_to_tick(40);
    let prefix = run.drain_trace();
    let wire = run.save().to_json();
    drop(run);

    let snap = Snapshot::from_json(&wire).expect("snapshot round-trips");
    let (mut restarted, _recovered) =
        ResumableRun::crash_restart(&snap).expect("snapshot restarts");
    restarted.finish();
    let suffix = restarted.drain_trace();
    assert_oracle_clean(&format!("{prefix}{suffix}"));
}

/// A mid-run snapshot's JSON, checkpointed at `at_tick`.
fn snapshot_json(scenario: &str, at_tick: u64) -> String {
    let scenario = Scenario::by_name(scenario).expect("registered scenario");
    let mut run = ResumableRun::new(scenario, 42);
    run.run_to_tick(at_tick);
    run.save().to_json()
}

/// The snapshot wire bytes, pinned per scenario: FNV-1a-64 of the JSON
/// plus its length. The resume guards above prove a build agrees with
/// itself; this proves it still writes the bytes every earlier build of
/// this format wrote, so a codec refactor that moves a key, a row arity
/// or a number's encoding fails here.
#[test]
fn snapshot_digest_is_pinned() {
    // (scenario, tick, format-7 digest, format-7 length)
    let pinned = [
        ("churn-small", 40, 0x969f_acab_ae54_92b7_u64, 24336_usize),
        ("churn-small-full", 40, 0x412e_7cc2_fda6_e7ca, 24342),
        ("churn-corrupt", 35, 0x6d34_4a48_39ba_5cb8, 35559),
        ("prod-flashcrowd", 20, 0x917d_f67a_6577_6f8a, 30992),
        ("prod-tiered", 33, 0x4bd9_6ecd_f82f_5b21, 69932),
    ];
    assert_eq!(checkpoint::FORMAT_VERSION, 7);
    for (scenario, at_tick, digest, len) in pinned {
        let json = snapshot_json(scenario, at_tick);
        let mut h = FnvHasher::default();
        h.write(json.as_bytes());
        let got = (h.finish(), json.len());
        println!("{scenario}@{at_tick}: {:#018x} {}", got.0, got.1);
        assert_eq!(got, (digest, len), "{scenario}@{at_tick} snapshot changed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Wherever the checkpoint lands in whatever fault schedule, the
    /// resumed run is byte-equivalent to the straight-through one.
    #[test]
    fn resume_equivalence_holds_anywhere(seed in 1u64..500, at_tick in 1u64..70) {
        let (trace_a, state_a) = straight(Scenario::churn_tiny(), seed);
        let (trace_b, state_b) = split(Scenario::churn_tiny(), seed, at_tick);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(state_a, state_b);
    }
}

/// One seeded mutation somewhere in `v`: walk down from the root taking a
/// random child at each level (stopping early one time in six), then
/// drop, overwrite, duplicate, swap or truncate what is there.
fn mutate(v: &mut Value, next: &mut impl FnMut() -> usize) {
    let children = match v {
        Value::Map(m) => m.len(),
        Value::Seq(s) => s.len(),
        _ => 0,
    };
    if children == 0 {
        *v = Value::U64(u64::MAX);
        return;
    }
    let i = next() % children;
    let j = next() % children;
    let child = match v {
        Value::Map(m) => &mut m[i].1,
        Value::Seq(s) => &mut s[i],
        _ => unreachable!("scalars have no children"),
    };
    if matches!(child, Value::Map(_) | Value::Seq(_)) && !next().is_multiple_of(6) {
        return mutate(child, next);
    }
    match next() % 9 {
        0 => *child = Value::U64(0),
        1 => *child = Value::U64(u64::MAX),
        2 => *child = Value::Str("x".into()),
        3 => *child = Value::Null,
        4 => *child = Value::U64(1 << 32),
        5 => match v {
            Value::Map(m) => drop(m.remove(i)),
            Value::Seq(s) => drop(s.remove(i)),
            _ => {}
        },
        6 => match v {
            Value::Map(m) => m.push(m[i].clone()),
            Value::Seq(s) => s.insert(i, s[i].clone()),
            _ => {}
        },
        7 => match v {
            Value::Map(m) => {
                let (a, b) = (m[i].1.clone(), m[j].1.clone());
                (m[i].1, m[j].1) = (b, a);
            }
            Value::Seq(s) => s.swap(i, j),
            _ => {}
        },
        _ => match v {
            Value::Map(m) => m.truncate(i),
            Value::Seq(s) => s.truncate(i),
            _ => {}
        },
    }
}

/// The two richest pinned snapshots, parsed once.
fn fuzz_corpus() -> &'static [Value; 2] {
    static CORPUS: std::sync::OnceLock<[Value; 2]> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        [("churn-corrupt", 35), ("prod-tiered", 33)]
            .map(|(name, at)| serde_json::parse_value(&snapshot_json(name, at)).expect("own JSON"))
    })
}

proptest! {
    /// Loader fuzz: whatever one mutation does to a snapshot, parsing
    /// and resuming it ends in `Ok` or a typed error — never a panic, an
    /// out-of-bounds index or an allocation sized by a number in the
    /// file. (Default 64 cases; CI runs `PROPTEST_CASES=2048`.)
    #[test]
    fn a_mutated_snapshot_resumes_or_is_refused_never_panics(
        which in 0usize..2,
        seed in any::<u64>(),
    ) {
        let mut doc = fuzz_corpus()[which].clone();
        let mut state = seed;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 16) as usize
        };
        // the envelope has four fields and its own tests; spend the
        // mutations on the sections
        let Value::Map(envelope) = &mut doc else {
            unreachable!("a snapshot is a map");
        };
        mutate(&mut envelope[2].1, &mut next);
        let json = serde_json::to_string(&doc).expect("value tree always prints");
        let outcome = std::panic::catch_unwind(|| {
            Snapshot::from_json(&json).and_then(|snap| ResumableRun::resume(&snap).map(drop))
        });
        prop_assert!(outcome.is_ok(), "corpus {which}, seed {seed}: the loader panicked");
    }
}
