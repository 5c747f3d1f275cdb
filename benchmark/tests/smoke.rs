//! Smoke-scale runs through the library: the schema of what a run
//! emits, determinism, and agreement between traced and untraced runs.

use ermsbench::cli::{contract_document, CONTRACT_END_TO_END};
use ermsbench::json::{self, Value};
use ermsbench::metrics::{END_TO_END, PER_LAYER};
use ermsbench::record::{run_once, RunRecord};
use ermsbench::report::{document, WorkloadReport};
use ermsbench::workloads::{Scale, NAMES};

fn smoke(workload: &str, seed: u64, traced: bool) -> RunRecord {
    run_once(workload, seed, Scale::Smoke, traced, 1, None).unwrap()
}

fn names(pairs: &[(String, Option<f64>)]) -> Vec<&str> {
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn a_smoke_run_emits_every_named_metric_exactly_once_per_workload() {
    let want_e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let want_layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for workload in NAMES {
        let r = smoke(workload, 42, true);
        assert_eq!(names(&r.end_to_end), want_e2e, "{workload}");
        assert_eq!(names(&r.per_layer), want_layers, "{workload}");
        assert!(r.failures.is_empty(), "{workload}: {:?}", r.failures);
        assert!(r.oracle_violations.is_empty(), "{workload}");

        // a traced run sees every layer; what may be null is a profiler
        // scope the workload never enters, the overhead (needs an untraced
        // run beside it) and the idle tick where no tick is idle
        for (name, value) in &r.per_layer {
            let may_be_null = name.starts_with("erms.scope.")
                || name == "trace.overhead_pct"
                || name == "erms.idle_tick_ms";
            assert!(value.is_some() || may_be_null, "{workload}: {name} is null");
        }
        assert!(!r.profile_scopes.is_empty());
        assert!(r.profile_scopes.iter().any(|s| s.path == "tick"));

        // and the record survives the trip to the parent process
        let line = r.to_json().to_line();
        assert_eq!(
            RunRecord::from_json(&json::parse(&line).unwrap()).unwrap(),
            r
        );

        // the document carries every name once, with its unit
        let report =
            WorkloadReport::assemble(workload, "why", vec![smoke(workload, 42, false)], Some(r));
        let doc = document(Value::obj(), std::slice::from_ref(&report));
        let w = &doc.get("workloads").unwrap().as_arr().unwrap()[0];
        for (section, want) in [("end_to_end", &want_e2e), ("per_layer", &want_layers)] {
            let got: Vec<&str> = w
                .get(section)
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(&got, want, "{workload}: {section}");
            for (_, m) in w.get(section).unwrap().fields() {
                assert!(m.get("unit").and_then(Value::as_str).is_some());
            }
        }
        assert_eq!(doc.get("claim"), Some(&Value::Null));
        let rendered = report.render();
        for name in want_e2e.iter().chain(&want_layers) {
            assert!(rendered.contains(name), "{workload}: table lacks {name}");
        }
    }
}

#[test]
fn an_untraced_run_reports_exact_counts_and_leaves_the_timings_null() {
    let r = smoke("crowd-elastic", 42, false);
    for (m, (_, value)) in PER_LAYER.iter().zip(&r.per_layer) {
        assert_eq!(value.is_some(), m.exact, "{}", m.name);
    }
    assert!(r.profile_scopes.is_empty());
}

#[test]
fn the_same_seed_gives_the_same_ledger_and_counts() {
    for workload in NAMES {
        let a = smoke(workload, 42, false);
        let b = smoke(workload, 42, false);
        assert_eq!(a.exact_view(), b.exact_view(), "{workload}");
        let other = smoke(workload, 7, false);
        assert_ne!(
            a.exact_view(),
            other.exact_view(),
            "{workload} ignores the seed"
        );
    }
}

#[test]
fn seeds_42_and_7_pass_every_check_traced_and_untraced_alike() {
    for workload in NAMES {
        for seed in [42, 7] {
            let report = WorkloadReport::assemble(
                workload,
                "why",
                vec![smoke(workload, seed, false)],
                Some(smoke(workload, seed, true)),
            );
            assert!(
                report.failures.is_empty(),
                "{workload} seed {seed}: {:?}",
                report.failures
            );
            let overhead = report
                .traced
                .as_ref()
                .unwrap()
                .per_layer("trace.overhead_pct");
            assert!(overhead.is_some(), "{workload}: overhead not priced");
        }
    }
}

#[test]
fn a_disagreeing_ledger_is_caught() {
    let a = smoke("dataplane-diurnal", 42, false);
    let b = smoke("dataplane-diurnal", 7, false);
    let report = WorkloadReport::assemble("dataplane-diurnal", "why", vec![a, b], None);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.contains("differs between")),
        "{:?}",
        report.failures
    );
}

#[test]
fn oracle_violations_fail_a_run_without_faulting_the_measurement() {
    let clean = smoke("ingest-tiered-faults", 42, true);
    assert!(clean.oracle_violations.is_empty());
    let report = |traced| {
        WorkloadReport::assemble(
            "ingest-tiered-faults",
            "why",
            vec![smoke("ingest-tiered-faults", 42, false)],
            Some(traced),
        )
    };
    assert!(report(clean.clone()).passed());

    let mut dirty = clean;
    dirty.set_per_layer("oracle.violations", Some(2.0));
    dirty.oracle_violations = vec!["[seq 9 @ 1.000s] encoded_replicas: /f".to_string()];
    let report = report(dirty);
    assert!(!report.passed());
    assert!(
        report.failures.is_empty(),
        "the ledger checks still hold: {:?}",
        report.failures
    );
    assert!(report.render().contains("2 trace-oracle violations"));
    let doc = report.to_json();
    assert_eq!(
        doc.get("oracle_violations")
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn workloads_produce_what_they_are_defined_to() {
    let crowd = smoke("crowd-elastic", 42, false);
    assert!(crowd.support("relief_pairs") > 0.0);
    assert!(crowd.end_to_end("relief_lag_s").is_some());
    assert!(crowd.end_to_end("write_p95_s").is_none());
    let ingest = smoke("ingest-tiered-faults", 42, false);
    assert!(ingest.per_layer("hdfs.writes_done").unwrap() > 0.0);
    assert!(ingest.per_layer("hdfs.faults_applied").unwrap() > 0.0);
    assert!(ingest.end_to_end("write_p95_s").is_some());
    assert!(ingest.end_to_end("relief_lag_s").is_none());
    let control = smoke("control-manyfiles", 42, true);
    assert!(
        control.per_layer("erms.idle_tick_ms").is_some(),
        "the quiet tail never goes idle"
    );
}

/// `BENCHMARK.json` describes what the driver contract prints.
#[test]
fn benchmark_json_matches_the_harness() {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    assert_eq!(
        doc,
        contract_document(),
        "regenerate with `ermsbench contract > BENCHMARK.json`"
    );

    // and the contract's own limits hold
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for (_, _, _, bound) in CONTRACT_END_TO_END {
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(CONTRACT_END_TO_END
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s"));
    let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
    let mut seen = std::collections::BTreeSet::new();
    for m in doc
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .chain(layers)
    {
        let name = m.get("name").and_then(Value::as_str).unwrap();
        assert!(seen.insert(name), "{name} listed twice");
    }
    assert!(include_str!("../../BENCHMARK.json").len() < 64 * 1024);
}
