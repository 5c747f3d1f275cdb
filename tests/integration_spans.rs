//! Integration: causal spans and the trace-invariant oracle against
//! traces from the real simulator, not hand-built fixtures.
//!
//! 1. the seeded-churn scenario's captured trace parses, reconstructs
//!    every span kind (read sessions, copy streams, Condor tasks,
//!    elastic episodes) and passes the oracle with zero violations;
//! 2. `trace-tools summary` output is a pure function of the seed —
//!    byte-identical across same-seed runs, loud under `diff` across
//!    different seeds;
//! 3. arbitrary fault schedules run through the self-healing manager
//!    never produce a trace the oracle rejects — the invariants hold
//!    under fuzzing, not just on the blessed scenario.

use bench::faults::{self, FaultsConfig};
use erms::{ErmsConfig, ErmsManager, ErmsPlacement, Thresholds};
use hdfs_sim::topology::{ClientId, Endpoint};
use hdfs_sim::{ClusterConfig, ClusterSim, NodeId};
use proptest::prelude::*;
use simcore::spans::{SpanCollector, SpanKind};
use simcore::telemetry::TelemetrySink;
use simcore::units::MB;
use simcore::SimDuration;
use trace_tools::{check, diff, parse_jsonl, summarize, OracleConfig};

fn quick_cfg() -> FaultsConfig {
    let mut cfg = FaultsConfig::small();
    cfg.num_files = 6;
    cfg.fault.horizon = SimDuration::from_hours(2);
    cfg.settle_ticks = 20;
    cfg
}

#[test]
fn captured_faults_trace_is_oracle_clean_with_every_span_kind() {
    let (_, t) = faults::run_captured(&quick_cfg(), true);
    let (text, violations) = check(&t.trace_jsonl, OracleConfig::default()).expect("trace parses");
    assert!(
        violations.is_empty(),
        "scenario trace must be clean:\n{text}"
    );
    assert!(text.contains("OK (0 violations)"), "{text}");

    let report = SpanCollector::collect(&parse_jsonl(&t.trace_jsonl).unwrap());
    // the warm-up flash crowd, churn repairs and the boost/shed cycle
    // together light up every span kind the collector knows
    for kind in [
        SpanKind::Read,
        SpanKind::Copy,
        SpanKind::Task,
        SpanKind::Episode,
    ] {
        assert!(
            report.count(kind) > 0,
            "no completed {} spans in scenario trace",
            kind.label()
        );
    }
    // copy spans pair dispatch with completion by copy id — exactly one
    // of each, even though churn retries repairs under fresh ids
    for s in report.spans.iter().filter(|s| s.kind == SpanKind::Copy) {
        assert_eq!(s.events, 2, "copy span {} events", s.key);
        assert!(s.end >= s.start, "copy span {} runs backwards", s.key);
    }
    // copies dispatched to nodes that died mid-stream never complete:
    // they stay open rather than being mis-paired with a later retry
    for s in report.open.iter().filter(|s| s.kind == SpanKind::Copy) {
        assert_eq!(s.events, 1, "open copy {} saw a completion", s.key);
        assert!(!s.ok);
    }
}

#[test]
fn summary_is_byte_identical_across_same_seed_runs() {
    let (_, a) = faults::run_captured(&quick_cfg(), true);
    let (_, b) = faults::run_captured(&quick_cfg(), true);
    let sa = summarize(&a.trace_jsonl).expect("trace parses");
    let sb = summarize(&b.trace_jsonl).expect("trace parses");
    assert_eq!(sa, sb, "summary must be a pure function of the seed");
    for row in ["read", "copy", "task", "episode"] {
        let line = sa
            .lines()
            .find(|l| l.split_whitespace().next() == Some(row))
            .unwrap_or_else(|| panic!("no {row} row in summary:\n{sa}"));
        let count: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(count > 0, "{row} span count missing from summary:\n{sa}");
    }
}

#[test]
fn diff_separates_seeds_and_is_quiet_on_itself() {
    let (_, a) = faults::run_captured(&quick_cfg(), true);
    let mut other = quick_cfg();
    other.seed = 1007;
    let (_, b) = faults::run_captured(&other, true);

    let (text, differs) = diff(&a.trace_jsonl, &a.trace_jsonl).expect("traces parse");
    assert!(!differs, "same trace must diff clean:\n{text}");
    assert!(text.contains("structurally identical"), "{text}");

    let (text, differs) = diff(&a.trace_jsonl, &b.trace_jsonl).expect("traces parse");
    assert!(differs, "different seeds must differ:\n{text}");
    assert!(text.contains("DIFFERENT"), "{text}");
}

/// The fault and workload moves the fuzzer may interleave.
#[derive(Debug, Clone)]
enum Op {
    Crash { node: u32 },
    Restart { idx: usize },
    Kill { node: u32 },
    RackOut { rack: u16 },
    RackBack { rack: u16 },
    Read { idx: usize, readers: u32 },
    Tick,
    Advance { secs: u64 },
    Corrupt { node: u32, pick: u64 },
    TornCrash { node: u32 },
    Scrub { budget: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..18).prop_map(|node| Op::Crash { node }),
        (0usize..8).prop_map(|idx| Op::Restart { idx }),
        (0u32..18).prop_map(|node| Op::Kill { node }),
        (0u16..3).prop_map(|rack| Op::RackOut { rack }),
        (0u16..3).prop_map(|rack| Op::RackBack { rack }),
        (0usize..4, 5u32..25).prop_map(|(idx, readers)| Op::Read { idx, readers }),
        Just(Op::Tick),
        (5u64..300).prop_map(|secs| Op::Advance { secs }),
        (0u32..18, 0u64..64).prop_map(|(node, pick)| Op::Corrupt { node, pick }),
        (0u32..18).prop_map(|node| Op::TornCrash { node }),
        (1usize..32).prop_map(|budget| Op::Scrub { budget }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Whatever the schedule — crashes mid-copy, kills during boosts,
    /// rack outages over repairs — the recorded trace satisfies every
    /// oracle invariant. The oracle is the same one `trace-tools check`
    /// runs in CI, so a regression here is a regression there. Half the
    /// cases encode cold files, as `ingest-tiered-faults` does, so a
    /// reheated file's `Decode` can lose its copies to a crash and be
    /// retried.
    #[test]
    fn random_fault_schedules_yield_oracle_clean_traces(
        ops in prop::collection::vec(op_strategy(), 1..40),
        encode in any::<bool>(),
    ) {
        let mut c = ClusterSim::new(
            ClusterConfig::paper_testbed(),
            Box::new(ErmsPlacement::new()),
        );
        let sink = TelemetrySink::recording();
        c.set_telemetry(sink.clone());
        let mut thresholds = Thresholds::calibrate(4.0);
        thresholds.window = SimDuration::from_secs(600);
        thresholds.cold_age = SimDuration::from_secs(300);
        let ecfg = ErmsConfig::builder()
            .thresholds(thresholds)
            .standby([])
            .encode(encode)
            .self_healing(true)
            .scrubber(true)
            .scrub_blocks_per_tick(24)
            .task_timeout(SimDuration::from_secs(120))
            .build()
            .expect("valid config");
        let mut m = ErmsManager::new(ecfg, &mut c).expect("valid manager");
        m.set_telemetry(sink.clone());

        let paths: Vec<String> = (0..4).map(|i| format!("/fuzz/f{i}")).collect();
        for p in &paths {
            c.create_file(p, 128 * MB, 3, None).unwrap();
        }
        c.run_until_quiescent();

        let mut crashed: Vec<NodeId> = Vec::new();
        for op in ops {
            match op {
                Op::Crash { node } => {
                    // keep a quorum of serving nodes so placement works
                    if c.serving_nodes() > 12 && c.crash_node(NodeId(node)) {
                        crashed.push(NodeId(node));
                    }
                }
                Op::Restart { idx } => {
                    if !crashed.is_empty() {
                        let n = crashed.remove(idx % crashed.len());
                        c.restart_node(n);
                    }
                }
                Op::Kill { node } => {
                    if c.serving_nodes() > 12 {
                        crashed.retain(|&n| n != NodeId(node));
                        c.kill_node(NodeId(node));
                    }
                }
                Op::RackOut { rack } => {
                    c.fail_rack_uplink(hdfs_sim::RackId(rack));
                }
                Op::RackBack { rack } => {
                    c.restore_rack_uplink(hdfs_sim::RackId(rack));
                }
                Op::Read { idx, readers } => {
                    let path = &paths[idx % paths.len()];
                    for r in 0..readers {
                        let _ = c.open_read(Endpoint::Client(ClientId(100 + r)), path);
                    }
                }
                Op::Tick => {
                    let now = c.now();
                    m.tick(&mut c, now);
                }
                Op::Advance { secs } => {
                    c.run_until(c.now() + SimDuration::from_secs(secs));
                }
                Op::Corrupt { node, pick } => {
                    c.corrupt_replica(NodeId(node), pick, false);
                }
                Op::TornCrash { node } => {
                    if c.serving_nodes() > 12 && c.crash_node_torn(NodeId(node)) {
                        crashed.push(NodeId(node));
                    }
                }
                Op::Scrub { budget } => {
                    c.scrub(budget, &[]);
                }
            }
        }
        // drain in-flight work and give the healer a few rounds
        c.run_until_quiescent();
        for _ in 0..4 {
            let now = c.now();
            m.tick(&mut c, now);
            c.run_until_quiescent();
        }

        let trace = sink.drain_jsonl();
        let (text, violations) =
            check(&trace, OracleConfig::default()).expect("fuzzed trace parses");
        prop_assert!(violations.is_empty(), "oracle violations:\n{}", text);
    }
}
