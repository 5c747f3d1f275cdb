//! Component micro-benchmarks: the hot paths of every substrate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use erasure::gf256;
use erasure::ReedSolomon;
use hdfs_sim::flow::FlowNet;
use hdfs_sim::placement::{DefaultRackAware, NodeView, PlacementContext, PlacementPolicy};
use hdfs_sim::{NodeId, RackId};
use simcore::units::Bandwidth;
use simcore::{SimDuration, SimTime};
use std::hint::black_box;

fn bench_gf256(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256");
    let src: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut dst = vec![0u8; src.len()];
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("mul_acc_slice_64k", |b| {
        b.iter(|| gf256::mul_acc_slice(black_box(&mut dst), black_box(&src), 0x57));
    });
    g.bench_function("xor_slice_64k", |b| {
        b.iter(|| gf256::mul_acc_slice(black_box(&mut dst), black_box(&src), 1));
    });
    g.finish();
}

fn bench_reed_solomon(c: &mut Criterion) {
    let mut g = c.benchmark_group("reed_solomon");
    let rs = ReedSolomon::paper_cold_code(); // RS(10,4)
    let shard = 256 * 1024;
    let data: Vec<Vec<u8>> = (0..10)
        .map(|i| (0..shard).map(|j| ((i * 31 + j) % 251) as u8).collect())
        .collect();
    g.throughput(Throughput::Bytes((shard * 10) as u64));
    g.bench_function("encode_rs_10_4_2.5MB", |b| {
        b.iter(|| rs.encode(black_box(&data)).expect("encode"));
    });
    let parity = rs.encode(&data).expect("encode");
    let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
    g.bench_function("verify_rs_10_4_2.5MB", |b| {
        b.iter(|| rs.verify(black_box(&full)).expect("verify"));
    });
    g.bench_function("reconstruct_4_erasures", |b| {
        b.iter_batched(
            || {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                for i in [0usize, 3, 7, 11] {
                    shards[i] = None;
                }
                shards
            },
            |mut shards| rs.reconstruct(black_box(&mut shards)).expect("decode"),
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_cep(c: &mut Criterion) {
    let mut g = c.benchmark_group("cep");
    // the judge's pipeline: 4 registered queries, audit-shaped events
    let lines: Vec<String> = (0..1000)
        .map(|i| {
            cep::audit::format_audit_line(
                SimTime::from_millis(i),
                "hadoop",
                "/10.0.0.9",
                "open",
                &format!("/data/file_{}", i % 40),
                None,
            )
        })
        .collect();
    g.throughput(Throughput::Elements(lines.len() as u64));
    g.bench_function("parse_1k_audit_lines", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for l in &lines {
                if cep::audit::parse_line(black_box(l)).is_ok() {
                    n += 1;
                }
            }
            n
        });
    });
    g.bench_function("engine_push_1k_events", |b| {
        b.iter_batched(
            || {
                let mut eng = cep::CepEngine::new();
                for field in ["src", "ugi", "ip"] {
                    eng.register(cep::QuerySpec::count_per_group(
                        "audit",
                        field,
                        SimDuration::from_secs(300),
                    ));
                }
                let events: Vec<cep::Event> = lines
                    .iter()
                    .map(|l| cep::audit::parse_line(l).expect("valid"))
                    .collect();
                (eng, events)
            },
            |(mut eng, events)| {
                for e in &events {
                    eng.push(black_box(e));
                }
                eng.events_seen()
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    let views: Vec<NodeView> = (0..18u32)
        .map(|i| NodeView {
            id: NodeId(i),
            rack: RackId((i % 3) as u16),
            serving: true,
            standby_pool: i >= 10,
            free: (1u64 << 37) - u64::from(i) * (1 << 30),
            load: (i % 5) as usize,
            holds_block: i % 7 == 0,
            file_block_count: (i % 4) as usize,
        })
        .collect();
    let locs = [NodeId(0), NodeId(7), NodeId(14)];
    let racks = [RackId(0), RackId(1), RackId(2)];
    let ctx = PlacementContext {
        views: &views,
        replica_locations: &locs,
        replica_racks: &racks,
        default_replication: 3,
        writer: None,
        block_len: 64 << 20,
    };
    g.bench_function("default_rack_aware_5_targets", |b| {
        b.iter(|| DefaultRackAware.choose_targets(black_box(&ctx), 5));
    });
    let erms = erms::ErmsPlacement::new();
    g.bench_function("erms_algorithm1_5_targets", |b| {
        b.iter(|| erms.choose_targets(black_box(&ctx), 5));
    });
    g.finish();
}

fn bench_flownet(c: &mut Criterion) {
    let mut g = c.benchmark_group("flownet");
    g.bench_function("start_remove_100_flows", |b| {
        b.iter_batched(
            || {
                let mut net = FlowNet::new();
                let res: Vec<_> = (0..40)
                    .map(|_| net.add_resource(Bandwidth::from_mb_per_sec(100.0)))
                    .collect();
                (net, res)
            },
            |(mut net, res)| {
                let mut flows = Vec::with_capacity(100);
                for i in 0..100usize {
                    let path = vec![res[i % 40], res[(i * 7 + 1) % 40]];
                    flows.push(net.start(SimTime::ZERO, 1 << 20, path));
                    // rates are filled when read: read after every
                    // change, or 100 starts cost no filling at all
                    black_box(net.next_completion(SimTime::ZERO));
                }
                for f in flows {
                    net.remove(SimTime::from_millis(1), f);
                    black_box(net.next_completion(SimTime::ZERO));
                }
                net.active_flows()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_gf256,
    bench_reed_solomon,
    bench_cep,
    bench_placement,
    bench_flownet
);
criterion_main!(micro);
