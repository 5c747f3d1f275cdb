//! The four workloads: what each one generates, on which tick grid, and
//! why it exists.
//!
//! Traces come from `workload::ProdScenario::generate(seed ^ salt)` with
//! the public config fields scaled up here; the program under test sees
//! only the generated inputs. The scale constants below were tuned once
//! to put each workload's drive loop at 8–15 s of host time on the
//! 2-core reference box and are frozen: changing them redefines the
//! benchmark and invalidates every earlier number.

use hdfs_sim::faults::FaultConfig;
use simcore::units::Bytes;
use simcore::SimDuration;
use workload::{DiurnalConfig, FlashCrowdConfig, ProdScenario, TieredConfig, TraceFile, TraceJob};

/// Cluster shape shared by all workloads.
pub const DATANODES: u32 = 180;
pub const RACKS: u16 = 30;
/// The last `STANDBY_NODES` datanodes form the elastic standby pool.
pub const STANDBY_NODES: u32 = 30;
/// Replication every file is created at (HDFS default).
pub const REPLICATION: usize = 3;

/// The multi-block workloads draw file sizes from a narrow lognormal
/// around 256 MB (four 64 MB blocks, sometimes a sliver of a fifth).
/// With the generators' default 64-512 MB spread, the size of whichever
/// file lands on the head of the popularity curve decides how many bytes
/// a run moves, and every metric swings 15-30 % from seed to seed.
const FILE_SIZE_MU: f64 = 5.545; // e^5.545 ~ 256 MB
const FILE_SIZE_SIGMA: f64 = 0.08;
const MIN_FILE_MB: u64 = 224;
const MAX_FILE_MB: u64 = 288;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// Same shapes cut down so every workload runs in well under a
    /// second; for tests and for checking the plumbing.
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// How the trace's files enter the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Every file is placed instantly with `create_file` during set-up.
    BulkAtSetup,
    /// Each file is streamed through the write pipeline with
    /// `write_file` at the tick its creation time falls in.
    PipelinedWrites,
}

/// When a file counts as under a read burst, for `relief_lag_s`: at
/// least `reads` reads of it are due within `within_secs`. Every
/// generated flash-crowd episode qualifies (20 jobs per file in 120 s);
/// so does an organic burst on the head of the popularity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstRule {
    pub reads: usize,
    pub within_secs: f64,
    /// Replica counts are polled this often, by slicing `run_until`.
    pub poll_secs: u64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// XORed into the run seed before trace generation so the four
    /// workloads (and the fault plan, seeded with the raw seed) never
    /// share a random stream.
    pub salt: u64,
    pub scenario: ProdScenario,
    pub tick_secs: u64,
    /// Ticks that carry trace traffic (horizon / tick).
    pub traffic_ticks: usize,
    /// Quiet ticks after the traffic ends.
    pub tail_ticks: usize,
    pub ingest: Ingest,
    pub encode: bool,
    pub scrubber: bool,
    pub faults: Option<FaultConfig>,
    pub burst: Option<BurstRule>,
}

impl Spec {
    pub fn total_ticks(&self) -> usize {
        self.traffic_ticks + self.tail_ticks
    }

    /// One line of workload parameters for the output.
    pub fn describe(&self) -> String {
        let shape = match &self.scenario {
            ProdScenario::Diurnal(c) => format!(
                "diurnal: {} tenants x {} files of {}-{} MB, peak {} jobs/h, horizon {} s",
                c.tenants,
                c.files_per_tenant,
                c.min_file_mb,
                c.max_file_mb,
                c.peak_jobs_per_hour,
                c.horizon_secs
            ),
            ProdScenario::FlashCrowd(c) => format!(
                "flash-crowd: {} groups x {} files, {} crowds of {} jobs/file in {} s, \
                 background inter-arrival {} s, horizon {} s",
                c.groups,
                c.files_per_group,
                c.crowds,
                c.crowd_jobs_per_file,
                c.crowd_span_secs,
                c.background_interarrival_secs,
                c.horizon_secs
            ),
            ProdScenario::Tiered(c) => format!(
                "tiered: {} waves x {} files, inter-arrival {} s, horizon {} s",
                c.waves, c.files_per_wave, c.mean_interarrival_secs, c.horizon_secs
            ),
            ProdScenario::IngestScan(_) => "ingest-scan".to_string(),
        };
        format!(
            "{shape}; tick {} s x {} (+{} quiet); files {}; encode {}, scrubber {}, faults {}",
            self.tick_secs,
            self.traffic_ticks,
            self.tail_ticks,
            match self.ingest {
                Ingest::BulkAtSetup => "bulk-loaded at set-up",
                Ingest::PipelinedWrites => "written through the pipeline",
            },
            self.encode,
            self.scrubber,
            self.faults.is_some(),
        )
    }
}

pub const NAMES: [&str; 4] = [
    "dataplane-diurnal",
    "control-manyfiles",
    "crowd-elastic",
    "ingest-tiered-faults",
];

pub fn spec(name: &str, scale: Scale) -> Option<Spec> {
    match name {
        "dataplane-diurnal" => Some(dataplane_diurnal(scale)),
        "control-manyfiles" => Some(control_manyfiles(scale)),
        "crowd-elastic" => Some(crowd_elastic(scale)),
        "ingest-tiered-faults" => Some(ingest_tiered_faults(scale)),
        _ => None,
    }
}

fn ticks(horizon_secs: f64, tick_secs: u64) -> usize {
    (horizon_secs / tick_secs as f64).ceil() as usize
}

/// Hundreds of concurrent multi-block flows: the flow model and the
/// event queue do almost all the work, the control loop almost none.
fn dataplane_diurnal(scale: Scale) -> Spec {
    let base = DiurnalConfig {
        file_size_mu: FILE_SIZE_MU,
        file_size_sigma: FILE_SIZE_SIGMA,
        min_file_mb: MIN_FILE_MB,
        max_file_mb: MAX_FILE_MB,
        ..DiurnalConfig::default()
    };
    let cfg = match scale {
        Scale::Full => DiurnalConfig {
            files_per_tenant: 64,
            peak_jobs_per_hour: 1500.0,
            ..base
        },
        Scale::Smoke => DiurnalConfig {
            horizon_secs: 7200.0,
            ..base
        },
    };
    let tick_secs = 180;
    Spec {
        name: "dataplane-diurnal",
        why: "Large multi-block reads under a day curve: hundreds of concurrent flows, so hdfs-sim \
              (max-min rates, flow events, queue tombstones) does the work and the control loop idles.",
        salt: 0xD1A7_0001,
        traffic_ticks: ticks(cfg.horizon_secs, tick_secs),
        tail_ticks: 0,
        scenario: ProdScenario::Diurnal(cfg),
        tick_secs,
        ingest: Ingest::BulkAtSetup,
        encode: false,
        scrubber: false,
        faults: None,
        burst: None,
    }
}

/// Tiny transfers, huge audit volume and visit set: judge, merge, CEP
/// parse and windows dominate; the flow model is nearly idle. The quiet
/// tail outlasts the CEP window and exposes the idle-tick cost.
fn control_manyfiles(scale: Scale) -> Spec {
    let base = DiurnalConfig {
        tenants: 8,
        horizon_secs: 14_400.0,
        file_size_mu: 0.4, // e^0.4 ~ 1.5 MB median
        file_size_sigma: 0.3,
        min_file_mb: 1,
        max_file_mb: 2,
        ..DiurnalConfig::default()
    };
    let cfg = match scale {
        Scale::Full => DiurnalConfig {
            files_per_tenant: 400,
            peak_jobs_per_hour: 16_000.0,
            ..base
        },
        Scale::Smoke => DiurnalConfig {
            files_per_tenant: 40,
            peak_jobs_per_hour: 4000.0,
            horizon_secs: 1200.0,
            ..base
        },
    };
    let tick_secs = 30;
    Spec {
        name: "control-manyfiles",
        why: "Thousands of 1-2 MB files read at a high rate, then silence: audit parse, CEP windows, \
              judge and merge dominate while flows are trivial; the quiet tail prices an idle tick.",
        salt: 0xC0A7_0002,
        traffic_ticks: ticks(cfg.horizon_secs, tick_secs),
        tail_ticks: match scale {
            Scale::Full => 100,
            Scale::Smoke => 25,
        },
        scenario: ProdScenario::Diurnal(cfg),
        tick_secs,
        ingest: Ingest::BulkAtSetup,
        encode: false,
        scrubber: false,
        faults: None,
        burst: None,
    }
}

/// The paper's own scenario: hot data, a direct jump to the optimal
/// factor on standby nodes, shed, power-off. Both planes do real work
/// and the simulated client ledger is the product.
fn crowd_elastic(scale: Scale) -> Spec {
    let base = FlashCrowdConfig {
        file_size_mu: FILE_SIZE_MU,
        file_size_sigma: FILE_SIZE_SIGMA,
        min_file_mb: MIN_FILE_MB,
        max_file_mb: MAX_FILE_MB,
        ..FlashCrowdConfig::default()
    };
    let cfg = match scale {
        Scale::Full => FlashCrowdConfig {
            groups: 128,
            crowds: 96,
            background_interarrival_secs: 2.4,
            ..base
        },
        Scale::Smoke => FlashCrowdConfig {
            groups: 16,
            crowds: 4,
            background_interarrival_secs: 15.0,
            horizon_secs: 1800.0,
            ..base
        },
    };
    let tick_secs = 30;
    let burst = BurstRule {
        reads: cfg.crowd_jobs_per_file * 3 / 4,
        within_secs: cfg.crowd_span_secs,
        poll_secs: 10,
    };
    Spec {
        name: "crowd-elastic",
        why: "Correlated flash crowds over background reads: the paper's hot-data path (boost onto \
              standby nodes, shed, power off), where read latency, relief lag and storage cost are the product.",
        salt: 0xC20D_0003,
        traffic_ticks: ticks(cfg.horizon_secs, tick_secs),
        tail_ticks: 0,
        scenario: ProdScenario::FlashCrowd(cfg),
        tick_secs,
        ingest: Ingest::BulkAtSetup,
        encode: false,
        scrubber: false,
        faults: None,
        burst: Some(burst),
    }
}

/// The same layers used differently: pipelined writes beside reads,
/// repair/reconstruct/scrub instead of boosts, idle-priority encode
/// jobs, node churn and silent corruption throughout.
fn ingest_tiered_faults(scale: Scale) -> Spec {
    let base = TieredConfig {
        file_size_mu: FILE_SIZE_MU,
        file_size_sigma: FILE_SIZE_SIGMA,
        min_file_mb: MIN_FILE_MB,
        max_file_mb: MAX_FILE_MB,
        ..TieredConfig::default()
    };
    let cfg = match scale {
        Scale::Full => TieredConfig {
            files_per_wave: 144,
            mean_interarrival_secs: 2.0,
            ..base
        },
        Scale::Smoke => TieredConfig {
            horizon_secs: 7200.0,
            ..base
        },
    };
    let tick_secs = 60;
    let mut faults = FaultConfig::paper_default();
    faults.node_mtbf = SimDuration::from_hours(4);
    faults.horizon = SimDuration::from_secs_f64(cfg.horizon_secs);
    let faults = faults.with_corruption(SimDuration::from_mins(20), 0.0, 0.3);
    Spec {
        name: "ingest-tiered-faults",
        why: "Waves of pipelined writes cooling into erasure-coded cold data under node churn and \
              silent corruption: writes, repair, reconstruction, scrubbing and idle-priority encodes share the cluster with reads.",
        salt: 0x7133_0004,
        traffic_ticks: ticks(cfg.horizon_secs, tick_secs),
        tail_ticks: 0,
        scenario: ProdScenario::Tiered(cfg),
        tick_secs,
        ingest: Ingest::PipelinedWrites,
        encode: true,
        scrubber: true,
        faults: Some(faults),
        burst: None,
    }
}

/// A trace flattened onto the tick grid: what to create and what to read
/// at each tick boundary. Tick `k` covers trace times
/// `[k * tick, (k + 1) * tick)` and its operations are issued when the
/// cluster reaches the end of that interval; times at or past the
/// horizon fall into the last traffic tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    pub creates: Vec<Vec<(String, Bytes)>>,
    pub reads: Vec<Vec<String>>,
}

/// Quantise a trace. The generators never submit a job before its input
/// exists, and flooring is monotone, so a job's tick is never earlier
/// than its file's; within a tick creations are issued before reads.
pub fn quantise(files: &[TraceFile], jobs: &[TraceJob], tick_secs: u64, ticks: usize) -> Schedule {
    assert!(ticks > 0 && tick_secs > 0);
    let tick_of = |t: f64| ((t.max(0.0) / tick_secs as f64) as usize).min(ticks - 1);
    let mut s = Schedule {
        creates: vec![Vec::new(); ticks],
        reads: vec![Vec::new(); ticks],
    };
    for f in files {
        s.creates[tick_of(f.created_at_secs)].push((f.path.clone(), f.size));
    }
    for j in jobs {
        s.reads[tick_of(j.submit_at_secs)].push(j.input.clone());
    }
    s
}

/// A read burst on one file: it starts with the reads of tick `tick`.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    pub path: String,
    pub tick: usize,
}

/// Find the bursts of `rule` in a trace, ordered by starting tick. After
/// a burst is found on a file, the next one on the same file can start
/// no sooner than `within_secs` later.
pub fn find_bursts(
    jobs: &[TraceJob],
    rule: &BurstRule,
    tick_secs: u64,
    ticks: usize,
) -> Vec<Episode> {
    use std::collections::BTreeMap;
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for j in jobs {
        times.entry(&j.input).or_default().push(j.submit_at_secs);
    }
    let mut out = Vec::new();
    for (path, mut t) in times {
        t.sort_by(f64::total_cmp);
        let mut i = 0;
        while i + rule.reads <= t.len() {
            if t[i + rule.reads - 1] - t[i] <= rule.within_secs {
                let tick = ((t[i] / tick_secs as f64) as usize).min(ticks - 1);
                out.push(Episode {
                    path: path.to_string(),
                    tick,
                });
                let resume = t[i] + rule.within_secs;
                while i < t.len() && t[i] <= resume {
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
    }
    out.sort_by(|a, b| a.tick.cmp(&b.tick).then_with(|| a.path.cmp(&b.path)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn every_workload_resolves_at_both_scales() {
        for name in NAMES {
            for scale in [Scale::Full, Scale::Smoke] {
                let s = spec(name, scale).unwrap();
                assert_eq!(s.name, name);
                assert!(s.why.len() <= 200, "{name}: why is {} chars", s.why.len());
                assert!(!s.describe().is_empty());
            }
            // enough ticks that p95 has >= 24 samples beyond it
            let full = spec(name, Scale::Full).unwrap();
            assert!(full.total_ticks() >= 480, "{name}: {}", full.total_ticks());
        }
        assert!(spec("no-such", Scale::Full).is_none());
        let salts: std::collections::BTreeSet<u64> = NAMES
            .iter()
            .map(|n| spec(n, Scale::Full).unwrap().salt)
            .collect();
        assert_eq!(salts.len(), NAMES.len());
    }

    /// Every file and job of the trace lands in exactly one tick, and a
    /// job never precedes its file.
    #[test]
    fn quantiser_places_everything_once_and_keeps_files_before_jobs() {
        for name in NAMES {
            for seed in [42u64, 7] {
                let s = spec(name, Scale::Smoke).unwrap();
                let trace = s.scenario.generate(seed ^ s.salt);
                let q = quantise(&trace.files, &trace.jobs, s.tick_secs, s.traffic_ticks);
                assert_eq!(q.creates.len(), s.traffic_ticks);
                assert_eq!(q.reads.len(), s.traffic_ticks);
                let created: usize = q.creates.iter().map(Vec::len).sum();
                let read: usize = q.reads.iter().map(Vec::len).sum();
                assert_eq!(created, trace.files.len(), "{name}");
                assert_eq!(read, trace.jobs.len(), "{name}");
                let mut born = BTreeMap::new();
                for (t, tick) in q.creates.iter().enumerate() {
                    for (path, _) in tick {
                        assert!(born.insert(path.as_str(), t).is_none(), "{path} twice");
                    }
                }
                for (t, tick) in q.reads.iter().enumerate() {
                    for path in tick {
                        assert!(born[path.as_str()] <= t, "{name}: {path} read before born");
                    }
                }
            }
        }
    }

    #[test]
    fn quantiser_clamps_times_outside_the_grid() {
        let f = |t: f64| TraceFile {
            path: format!("/f{t}"),
            size: 1,
            created_at_secs: t,
        };
        let q = quantise(&[f(-1.0), f(0.0), f(29.9), f(30.0), f(1e9)], &[], 30, 3);
        let counts: Vec<usize> = q.creates.iter().map(Vec::len).collect();
        assert_eq!(counts, [3, 1, 1]);
    }

    fn job(path: &str, t: f64) -> TraceJob {
        TraceJob {
            name: String::new(),
            input: path.to_string(),
            submit_at_secs: t,
            compute_per_block_secs: 0.0,
            reduce_secs: 0.0,
        }
    }

    #[test]
    fn bursts_are_found_once_per_span() {
        let rule = BurstRule {
            reads: 3,
            within_secs: 10.0,
            poll_secs: 10,
        };
        let mut jobs = vec![
            // /a: a burst at t=100 (4 reads in 6 s), another at 200
            job("/a", 100.0),
            job("/a", 102.0),
            job("/a", 104.0),
            job("/a", 106.0),
            job("/a", 200.0),
            job("/a", 201.0),
            job("/a", 209.0),
            // /b: three reads but 11 s apart end to end: no burst
            job("/b", 50.0),
            job("/b", 55.0),
            job("/b", 61.0),
        ];
        jobs.reverse(); // order of the input must not matter
        let e = find_bursts(&jobs, &rule, 30, 10);
        assert_eq!(
            e,
            vec![
                Episode {
                    path: "/a".into(),
                    tick: 3
                },
                Episode {
                    path: "/a".into(),
                    tick: 6
                },
            ]
        );
    }

    #[test]
    fn every_generated_crowd_is_a_burst() {
        let s = spec("crowd-elastic", Scale::Smoke).unwrap();
        let ProdScenario::FlashCrowd(cfg) = &s.scenario else {
            panic!("crowd-elastic is a flash-crowd scenario");
        };
        let trace = s.scenario.generate(42 ^ s.salt);
        let e = find_bursts(&trace.jobs, &s.burst.unwrap(), s.tick_secs, s.traffic_ticks);
        assert!(
            e.len() >= cfg.crowds * cfg.files_per_group,
            "{} bursts for {} crowds",
            e.len(),
            cfg.crowds
        );
    }
}
