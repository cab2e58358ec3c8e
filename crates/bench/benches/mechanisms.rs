//! Criterion micro-benchmarks: client-side perturbation and server-side
//! aggregation throughput.
//!
//! Measures one user's perturbation cost **through the unified trait API**
//! (`dyn Mechanism::perturb_into` with a reused report buffer, the compact
//! `perturb_data` wire emission, plus the batched
//! `BatchMechanism::perturb_batch` fast paths) for GRR, RAPPOR/OUE/IDUE
//! (unary encoding over m bits), OLH (hashed pairs), subset selection
//! (size-k item sets) and IDUE-PS (pad-and-sample plus m+ℓ bits), at the
//! domain sizes of the paper's datasets — and the server-side fold cost of
//! the compact wire shapes through the shape accumulators. Mechanisms are
//! built through the registry, so a newly registered protocol can be
//! benchmarked by adding its name to a list. The `frame/reports` group
//! measures the transport codec between the two: encoding, decoding and
//! checking (the report grammar walked without decoding, as the
//! coordinator does before forwarding) one 1024-report frame of each wire
//! shape. Next to it, the `ingest` group times what a collector does with
//! one such frame from the wire to the counts: `admit-fold-1k` is its
//! path, admission (one walk checking the grammar and the tenant's
//! rules) and the fold read straight from the checked bytes;
//! `decode-fold-1k` is the path it replaced, decode to owned reports,
//! validate, and the validating `accumulate_batch` over borrowed views.
//! Shapes and widths are the service workloads': `value/100000`
//! (`coord-query`), `bits/64` (`idue-frames`) and `hashed/1000`
//! (`olh-fold`).
//!
//! The `checkpoint/*` groups measure the pluggable snapshot stores: one
//! save (`checkpoint/write/<backend>/m<domain>-t<traffic>`) after `t`
//! reports landed since the previous checkpoint, and one restore
//! (`checkpoint/restore/<backend>/m<domain>`), over domain sizes {1k,
//! 100k} × traffic {100, 100k}. The grid is the point: the flat `file`
//! backend rewrites O(domain) bytes per checkpoint no matter how little
//! arrived, while the `delta` backend's record is O(traffic) — CI gates on
//! delta being ≥ 5× faster at the sparse corner (m=100k, t=100). Files
//! live on `/dev/shm` when the host has it, so the numbers measure
//! serialization and layout, not disk latency.
//!
//! `stream/sharded-new/m<domain>` builds a collector's count state: a GRR
//! prototype split into the default 8 shards, the step a collector takes
//! before it restores. These rows and `checkpoint/restore/*` are warm
//! in-process figures. After the first iteration frees its rows, the
//! allocator serves later ones from memory this process already touched,
//! so the rows cannot see the first-touch page faults a freshly started
//! collector pays on every new page. The cold figure is the service
//! benchmark's `setup_s` (`coord-query` restores two collectors at
//! m = 100k).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idldp_core::budget::Epsilon;
use idldp_core::levels::LevelPartition;
use idldp_core::mechanism::{BatchMechanism, CountAccumulator, Input, InputBatch};
use idldp_core::olh::OptimalLocalHashing;
use idldp_core::report::{validate, Report, ReportData};
use idldp_core::snapshot::{open_store, AccumulatorSnapshot, StoreKind};
use idldp_num::rng::stream_rng;
use idldp_server::{encode_reports_frame, Frame, ReportsFrame, WireFrame};
use idldp_sim::stream::{ReportAccumulator, ShapedAccumulator, ShardedAccumulator, DEFAULT_SHARDS};
use idldp_sim::{BuildContext, MechanismRegistry};
use std::hint::black_box;
use std::path::PathBuf;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn four_level(m: usize) -> LevelPartition {
    let budgets = vec![eps(1.0), eps(1.2), eps(2.0), eps(4.0)];
    let level_of = (0..m)
        .map(|i| if i % 20 < 17 { 3 } else { i % 20 % 3 })
        .collect();
    LevelPartition::new(level_of, budgets).unwrap()
}

fn build(name: &str, m: usize, l: usize) -> Box<dyn BatchMechanism> {
    let levels = four_level(m);
    let ctx = BuildContext {
        levels: &levels,
        padding: l,
        solver: None,
    };
    let reg = MechanismRegistry::standard();
    if l > 0 {
        reg.build_item_set(name, &ctx).unwrap()
    } else {
        reg.build_single_item(name, &ctx).unwrap()
    }
}

fn bench_single_perturb(c: &mut Criterion) {
    let mut group = c.benchmark_group("perturb/one-report");
    for name in ["grr", "rappor", "oue", "idue-opt1", "olh", "ss"] {
        for m in [100usize, 1000] {
            let mech = build(name, m, 0);
            let mut report = vec![0u8; mech.report_len()];
            group.bench_with_input(BenchmarkId::new(name, m), &m, |b, _| {
                let mut rng = stream_rng(1, 0);
                b.iter(|| {
                    mech.perturb_into(black_box(Input::Item(7 % m)), &mut rng, &mut report)
                        .unwrap();
                    black_box(report[0])
                });
            });
        }
    }
    group.finish();
}

fn bench_item_set_perturb(c: &mut Criterion) {
    let mut group = c.benchmark_group("perturb/idue-ps");
    for (m, l) in [(100usize, 4usize), (1000, 8)] {
        let mech = build("idue-opt1", m, l);
        let set: Vec<u32> = (0..6).map(|i| (i * (m / 7)) as u32).collect();
        let mut report = vec![0u8; mech.report_len()];
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("m{m}-l{l}")),
            &m,
            |b, _| {
                let mut rng = stream_rng(4, 0);
                b.iter(|| {
                    mech.perturb_into(black_box(Input::Set(&set)), &mut rng, &mut report)
                        .unwrap();
                    black_box(report[0])
                });
            },
        );
    }
    group.finish();
}

fn bench_batch_fast_paths(c: &mut Criterion) {
    // The batched entry point: 1k users per call, accumulating counts
    // directly (what the simulation pipeline runs per chunk).
    let mut group = c.benchmark_group("perturb/batch-1k");
    group.sample_size(10);
    let users: Vec<u32> = (0..1000u32).map(|i| i % 100).collect();
    for name in ["grr", "oue", "idue-opt1", "olh", "ss"] {
        let mech = build(name, 100, 0);
        group.bench_function(name, |b| {
            let mut rng = stream_rng(9, 0);
            b.iter(|| {
                let mut acc = CountAccumulator::new(mech.report_len());
                mech.perturb_batch(InputBatch::Items(&users), &mut rng, &mut acc)
                    .unwrap();
                black_box(acc.num_users())
            });
        });
    }
    group.finish();
}

fn bench_compact_wire_emission(c: &mut Criterion) {
    // The shape-aware emission path: one compact wire report per call
    // (OLH's (seed, value) pair, subset selection's size-k item set, GRR's
    // bare value) — what a real transport would serialize, measured against
    // the folded `perturb_into` numbers above.
    let mut group = c.benchmark_group("perturb/wire-report");
    for name in ["grr", "olh", "ss"] {
        for m in [100usize, 1000] {
            let mech = build(name, m, 0);
            group.bench_with_input(BenchmarkId::new(name, m), &m, |b, _| {
                let mut rng = stream_rng(2, 0);
                b.iter(|| {
                    let data = mech
                        .perturb_data(black_box(Input::Item(7 % m)), &mut rng)
                        .unwrap();
                    black_box(data)
                });
            });
        }
    }
    group.finish();
}

fn bench_frame_reports(c: &mut Criterion) {
    // The wire codec of one 1024-report `Reports` frame per report shape:
    // what a client pays to encode a batch and a server pays to decode it
    // before validation. A bit report is copied between its packed words
    // and the wire bytes; divide by 1024 for the per-report cost. The
    // `check` rows walk the same report grammar without building a report:
    // what the coordinator pays per frame before it forwards the bytes.
    let mut group = c.benchmark_group("frame/reports");
    for (shape, name, m) in [
        ("bits", "idue-opt1", 64usize),
        ("bits", "idue-opt1", 1000),
        ("value", "grr", 1000),
        ("hashed", "olh", 1000),
    ] {
        let mech = build(name, m, 0);
        let mut rng = stream_rng(7, 0);
        let reports: Vec<_> = (0..1024)
            .map(|i| mech.perturb_data(Input::Item(i % m), &mut rng).unwrap())
            .collect();
        let bytes = encode_reports_frame(&reports);
        group.bench_with_input(
            BenchmarkId::new(&format!("encode-{shape}"), m),
            &m,
            |b, _| {
                b.iter(|| black_box(encode_reports_frame(black_box(&reports))));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(&format!("decode-{shape}"), m),
            &m,
            |b, _| {
                b.iter(|| black_box(Frame::decode(black_box(&bytes)).unwrap()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(&format!("check-{shape}"), m),
            &m,
            |b, _| {
                b.iter(|| black_box(ReportsFrame::check(black_box(&bytes)).unwrap().len()));
            },
        );
    }
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    // One 1024-report frame from its received bytes into a persistent
    // accumulator, per collector path. The frame's buffer is copied
    // outside the timed region (the collector receives it into a buffer
    // of its own), so each sample times one frame.
    let mut group = c.benchmark_group("ingest");
    group.sample_size(201);
    for (shape, name, m) in [
        ("value", "grr", 100_000usize),
        ("bits", "idue-opt1", 64),
        ("hashed", "olh", 1000),
    ] {
        let mech = build(name, m, 0);
        let (report_shape, width) = (mech.report_shape(), mech.report_len());
        let mut rng = stream_rng(11, 0);
        let reports: Vec<_> = (0..1024)
            .map(|i| mech.perturb_data(Input::Item(i % m), &mut rng).unwrap())
            .collect();
        let bytes = encode_reports_frame(&reports);
        let mut acc = ShapedAccumulator::for_mechanism(mech.as_ref());
        group.bench_with_input(
            BenchmarkId::new(&format!("admit-fold-1k/{shape}"), m),
            &m,
            |b, _| {
                b.iter_with_setup(
                    || WireFrame::new(bytes.clone()).unwrap(),
                    |frame| {
                        let batch = frame.admit_reports(report_shape, width).unwrap();
                        acc.accumulate_checked(&batch).unwrap();
                        acc.num_users()
                    },
                );
            },
        );
        let mut acc = ShapedAccumulator::for_mechanism(mech.as_ref());
        group.bench_with_input(
            BenchmarkId::new(&format!("decode-fold-1k/{shape}"), m),
            &m,
            |b, _| {
                b.iter_with_setup(
                    || WireFrame::new(bytes.clone()).unwrap(),
                    |frame| {
                        let Ok(Frame::Reports(decoded)) = frame.decode() else {
                            panic!("a Reports frame")
                        };
                        let views: Vec<Report<'_>> =
                            decoded.iter().map(ReportData::as_report).collect();
                        validate(report_shape, width, views.iter().copied()).unwrap();
                        acc.accumulate_batch(&views).unwrap();
                        acc.num_users()
                    },
                );
            },
        );
    }
    group.finish();
}

fn bench_aggregate_fold(c: &mut Criterion) {
    // Server side of all four wire shapes: folding the same 1k native wire
    // reports as one `accumulate_batch` call into a persistent accumulator.
    // Bit rows carry-save-add through SWAR bit-planes, and subset selection
    // checks distinctness against a shared scratch row instead of sorting a
    // copy of every set. The hashed fold has no preimage cache any more, so
    // re-folding the same OLH reports costs what fresh ones do: `olh/100`
    // and `olh/1000` no longer measure a warm-cache replay and read near
    // `olh-fresh`. No real traffic ever hit that cache (clients draw a
    // fresh seed per report).
    let mut group = c.benchmark_group("aggregate/fold-1k");
    group.sample_size(10);
    for name in ["oue", "grr", "olh", "ss"] {
        for m in [100usize, 1000] {
            let mech = build(name, m, 0);
            let mut rng = stream_rng(3, 0);
            let reports: Vec<_> = (0..1000)
                .map(|i| mech.perturb_data(Input::Item(i % m), &mut rng).unwrap())
                .collect();
            let views: Vec<_> = reports.iter().map(|r| r.as_report()).collect();
            group.bench_with_input(BenchmarkId::new(name, m), &m, |b, _| {
                let mut acc = ShapedAccumulator::for_mechanism(mech.as_ref());
                b.iter(|| {
                    acc.accumulate_batch(black_box(&views)).unwrap();
                    black_box(acc.num_users())
                });
            });
        }
    }
    // What an OLH ingest worker really folds: every iteration's 1k reports
    // are freshly perturbed (outside the timed region), and the item-major
    // kernel hashes every pair against every item. `olh-fresh` runs at the
    // registry's ε = 1, whose range g = 4 takes the kernel's mask arm
    // (AVX-512 where the CPU has it); `olh-fresh-g5` forces g = 5, which
    // keeps the remainder arm. `olh-fresh` is the standalone fold loop to
    // check an `olh-fold` service move against: the svcbench binary's
    // fold speed also moves with where the linker places the kernel.
    let m = 1000usize;
    let fresh: [(&str, Box<dyn BatchMechanism>); 2] = [
        ("olh-fresh", build("olh", m, 0)),
        (
            "olh-fresh-g5",
            Box::new(OptimalLocalHashing::with_hash_range(eps(1.0), m, 5).unwrap()),
        ),
    ];
    for (master, (label, mech)) in (5u64..).zip(fresh) {
        let mut rng = stream_rng(master, 0);
        let mut acc = ShapedAccumulator::for_mechanism(mech.as_ref());
        group.bench_with_input(BenchmarkId::new(label, m), &m, |b, _| {
            b.iter_with_setup(
                || {
                    (0..1000)
                        .map(|i| mech.perturb_data(Input::Item(i % m), &mut rng).unwrap())
                        .collect::<Vec<_>>()
                },
                |reports| {
                    let views: Vec<_> = reports.iter().map(|r| r.as_report()).collect();
                    acc.accumulate_batch(black_box(&views)).unwrap();
                    black_box(acc.num_users())
                },
            );
        });
    }
    group.finish();
}

fn bench_sharded_new(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    for m in [1_000usize, 100_000] {
        let grr = build("grr", m, 0);
        group.bench_with_input(
            BenchmarkId::new("sharded-new", format!("m{m}")),
            &m,
            |b, _| {
                b.iter(|| {
                    let prototype = ShapedAccumulator::for_mechanism(grr.as_ref());
                    black_box(ShardedAccumulator::new(prototype, DEFAULT_SHARDS))
                });
            },
        );
    }
    group.finish();
}

/// Scratch directory for checkpoint benches: tmpfs when the host has it,
/// so the measurements are serialization + layout, not disk latency.
fn bench_dir() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    let base = if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("idldp-bench-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

/// The evolving accumulator state a checkpoint writer persists: per-shard
/// monotone counts, mutated in place between saves the way folded reports
/// mutate the server's shards, and merged by the store on every save.
struct Traffic {
    counts: Vec<Vec<u64>>,
    users: Vec<u64>,
    step: u64,
}

impl Traffic {
    /// The server's default shard count, as `snapshot_shards()` hands
    /// them to a store.
    const SHARDS: usize = 8;

    fn new(m: usize) -> Self {
        Self {
            counts: vec![vec![0u64; m]; Self::SHARDS],
            users: vec![0u64; Self::SHARDS],
            step: 0,
        }
    }

    /// Applies `t` reports' worth of count growth, scattered across shards
    /// and buckets.
    fn apply(&mut self, t: usize) {
        let m = self.counts[0].len();
        for _ in 0..t {
            self.step = self.step.wrapping_add(1);
            let h = self.step.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let shard = (h >> 32) as usize % Self::SHARDS;
            self.counts[shard][h as usize % m] += 1;
            self.users[shard] += 1;
        }
    }

    /// Freezes the per-shard state, like `ShardedAccumulator::snapshot_shards`.
    fn snapshots(&self) -> Vec<AccumulatorSnapshot> {
        self.counts
            .iter()
            .zip(&self.users)
            .map(|(c, &u)| AccumulatorSnapshot::new(c.clone(), u).expect("nonzero width"))
            .collect()
    }
}

const CHECKPOINT_RUN_LINE: &str = "run idldp-bench checkpoint";

fn bench_checkpoint_write(c: &mut Criterion) {
    let dir = bench_dir();
    let mut group = c.benchmark_group("checkpoint/write");
    group.sample_size(10);
    for kind in StoreKind::ALL {
        for m in [1_000usize, 100_000] {
            for t in [100usize, 100_000] {
                let path = dir.join(format!("write-{kind}-{m}-{t}"));
                let mut traffic = Traffic::new(m);
                traffic.apply(t);
                let mut store = open_store(kind, &path);
                // Prime the store so delta measures its steady state (an
                // append after a base record), not the first compaction.
                store
                    .save(&traffic.snapshots(), CHECKPOINT_RUN_LINE)
                    .expect("priming save");
                group.bench_with_input(
                    BenchmarkId::new(&kind.to_string(), format!("m{m}-t{t}")),
                    &m,
                    |b, _| {
                        b.iter(|| {
                            traffic.apply(t);
                            store
                                .save(&traffic.snapshots(), CHECKPOINT_RUN_LINE)
                                .expect("checkpoint save");
                            black_box(traffic.step)
                        });
                    },
                );
            }
        }
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_checkpoint_restore(c: &mut Criterion) {
    let dir = bench_dir();
    let mut group = c.benchmark_group("checkpoint/restore");
    group.sample_size(10);
    for kind in StoreKind::ALL {
        for m in [1_000usize, 100_000] {
            let path = dir.join(format!("restore-{kind}-{m}"));
            // A few saves so the delta log holds a base plus deltas — the
            // shape a kill mid-run would actually restore from.
            let mut traffic = Traffic::new(m);
            let mut store = open_store(kind, &path);
            for _ in 0..4 {
                traffic.apply(1_000);
                store
                    .save(&traffic.snapshots(), CHECKPOINT_RUN_LINE)
                    .expect("checkpoint save");
            }
            drop(store);
            let want_users: u64 = traffic.users.iter().sum();
            group.bench_with_input(
                BenchmarkId::new(&kind.to_string(), format!("m{m}")),
                &m,
                |b, _| {
                    b.iter(|| {
                        let mut store = open_store(kind, &path);
                        let restored = store
                            .load()
                            .expect("checkpoint load")
                            .expect("checkpoint exists");
                        assert_eq!(restored.num_users(), want_users);
                        black_box(restored.num_users())
                    });
                },
            );
        }
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_single_perturb,
    bench_item_set_perturb,
    bench_batch_fast_paths,
    bench_compact_wire_emission,
    bench_frame_reports,
    bench_ingest,
    bench_aggregate_fold,
    bench_sharded_new,
    bench_checkpoint_write,
    bench_checkpoint_restore
);
criterion_main!(benches);
