//! Cross-crate integration: the full audit → CEP → judge → Condor →
//! cluster pipeline, including failure injection and rollback.

use erms::{ErmsConfig, ErmsManager, ErmsPlacement, Thresholds};
use hdfs_sim::topology::{ClientId, Endpoint};
use hdfs_sim::{ClusterConfig, ClusterSim, NodeId};
use simcore::units::MB;
use simcore::SimDuration;

fn fast_thresholds() -> Thresholds {
    let mut t = Thresholds::calibrate(4.0);
    t.window = SimDuration::from_secs(600);
    t.cold_age = SimDuration::from_secs(600);
    t
}

fn erms_cluster(standby: Vec<NodeId>) -> (ClusterSim, ErmsManager) {
    let mut cluster = ClusterSim::new(
        ClusterConfig::paper_testbed(),
        Box::new(ErmsPlacement::new()),
    );
    let cfg = ErmsConfig::builder()
        .thresholds(fast_thresholds())
        .standby(standby)
        .build()
        .expect("valid config");
    let manager = ErmsManager::new(cfg, &mut cluster).expect("valid manager");
    (cluster, manager)
}

fn hammer(cluster: &mut ClusterSim, path: &str, n: u32, base: u32) {
    for i in 0..n {
        cluster
            .open_read(Endpoint::Client(ClientId(base + i)), path)
            .expect("path exists");
    }
    cluster.run_until_quiescent();
}

fn settle(cluster: &mut ClusterSim, manager: &mut ErmsManager, rounds: usize) {
    for _ in 0..rounds {
        let now = cluster.now();
        manager.tick(cluster, now);
        cluster.run_until(cluster.now() + SimDuration::from_secs(45));
        cluster.run_until_quiescent();
    }
}

#[test]
fn audit_text_is_the_only_channel_between_cluster_and_judge() {
    // The judge must learn about demand exclusively through parsed audit
    // lines: feed it a manually formatted log and check classification.
    let (mut cluster, mut manager) = erms_cluster(Vec::new());
    cluster.create_file("/hot", 64 * MB, 3, None).unwrap();
    hammer(&mut cluster, "/hot", 40, 0);

    // intercept the audit stream before the manager sees it
    let lines = cluster.drain_audit();
    assert!(lines.iter().any(|l| l.contains("cmd=open")));
    assert!(lines.iter().any(|l| l.contains("cmd=read_block")));
    let (events, bad) = cep::audit::parse_log(&lines.join("\n"));
    assert_eq!(bad, 0, "simulator emits parseable HDFS log lines");
    assert!(events.len() >= 80, "one open + one clienttrace per read");

    // hand the same lines to the judge manually
    manager
        .judge()
        .observe_lines(lines.iter().map(String::as_str));
    let now = cluster.now();
    let snap = erms::FileSnapshot {
        id: hdfs_sim::FileId(0),
        path: "/hot",
        replication: 3,
        blocks: &[hdfs_sim::BlockId(0)],
        last_access: now,
        boosted: false,
        encoded: false,
    };
    let verdict = manager.judge().classify(now, &snap);
    assert_eq!(verdict.class, erms::DataClass::Hot);
    assert_eq!(verdict.rule, erms::JudgeRule::FilePressure);
    assert_eq!(
        verdict.rule.code(),
        1,
        "wire code for Formula (1) is stable"
    );
}

#[test]
fn boost_survives_node_failure_with_retry() {
    let (mut cluster, mut manager) = erms_cluster(Vec::new());
    let file = cluster.create_file("/hot", 128 * MB, 3, None).unwrap();
    hammer(&mut cluster, "/hot", 40, 0);

    // first tick submits the increase; kill a replica holder while the
    // copies are in flight
    let now = cluster.now();
    manager.tick(&mut cluster, now);
    let block = cluster.namespace().file(file).unwrap().blocks[0];
    let victim = cluster.blockmap().replica_nodes(block)[0];
    cluster.run_until(cluster.now() + SimDuration::from_secs(4));
    cluster.kill_node(victim);
    cluster.repair_under_replicated();
    settle(&mut cluster, &mut manager, 6);

    // the boost must eventually land despite the failure
    let r = cluster.blockmap().replica_count(block);
    assert!(r > 3, "boost should survive a node death, got r={r}");
    assert!(!cluster.blockmap().holds(block, victim));
    // journal shows the story: at least one submit and one completion
    let journal = manager.condor().journal();
    let replay = journal.replay();
    assert!(replay
        .values()
        .any(|s| *s == condor::journal::ReplayState::Completed));
}

#[test]
fn standby_commissioning_boots_serving_nodes() {
    let (mut cluster, mut manager) = erms_cluster((10..18).map(NodeId).collect());
    assert_eq!(cluster.serving_nodes(), 10);
    cluster.create_file("/hot", 64 * MB, 3, None).unwrap();
    hammer(&mut cluster, "/hot", 60, 0);

    let now = cluster.now();
    let report = manager.tick(&mut cluster, now);
    assert!(
        !report.commissioned.is_empty(),
        "a hot file should commission standby nodes"
    );
    for n in &report.commissioned {
        assert!(manager.model().is_standby(*n));
    }
    // checked as soon as they boot: a file already at its target keeps
    // no task queued, so the power phase may drain them again later
    let serving = (0..6).any(|_| {
        settle(&mut cluster, &mut manager, 1);
        cluster.serving_nodes() > 10
    });
    assert!(serving, "commissioned nodes must be serving");
}

#[test]
fn whole_lifecycle_ends_where_it_began() {
    // hot → boosted → cooled → shed → cold → encoded → hot → decoded
    let (mut cluster, mut manager) = erms_cluster(Vec::new());
    let file = cluster.create_file("/cycle", 64 * MB, 3, None).unwrap();
    let block = cluster.namespace().file(file).unwrap().blocks[0];

    // phase 1: hot
    hammer(&mut cluster, "/cycle", 40, 0);
    settle(&mut cluster, &mut manager, 5);
    assert!(cluster.blockmap().replica_count(block) > 3, "boosted");

    // phase 2: silence → cooled → shed (needs patience + window expiry)
    cluster.run_until(cluster.now() + SimDuration::from_secs(700));
    settle(&mut cluster, &mut manager, 6);
    assert_eq!(cluster.blockmap().replica_count(block), 3, "shed");

    // phase 3: long silence → cold → encoded
    cluster.run_until(cluster.now() + SimDuration::from_secs(700));
    settle(&mut cluster, &mut manager, 3);
    assert!(
        cluster.namespace().file(file).unwrap().is_encoded(),
        "encoded"
    );
    assert_eq!(cluster.blockmap().replica_count(block), 1);

    // phase 4: demand returns → decoded and re-replicated
    hammer(&mut cluster, "/cycle", 40, 1000);
    settle(&mut cluster, &mut manager, 6);
    let meta = cluster.namespace().file(file).unwrap();
    assert!(!meta.is_encoded(), "decoded on reheat");
    assert!(cluster.blockmap().replica_count(block) >= 3);
}
