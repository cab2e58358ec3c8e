//! The traced replay: the run's own generated frames pushed
//! single-threaded through each layer's public functions, one span per
//! layer call, so every layer's self time is measured where the work
//! happens.

use crate::load::{as_reports, fold, Fleet};
use crate::trace::Tracer;
use crate::workload::{count, Frame, Spec, TOP_K};
use idldp_coord::{merge_candidates, Coordinator};
use idldp_core::mechanism::Mechanism;
use idldp_core::report::{hash_bucket, ReportData, ReportShape};
use idldp_core::snapshot::{open_store, StoreKind};
use idldp_num::rng::stream_rng;
use idldp_num::vecops::top_k_indices;
use idldp_server::{
    encode_reply, encode_reports_frame, run_identity_line, FrameAssembler, IngestQueue,
    ReportClient,
};
use idldp_stream::{ReportAccumulator, ShapedAccumulator, ShardedAccumulator};
use rand::RngCore;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Bytes the server's blocking engine reads per `read` call; decode is
/// fed in pieces of this size, as the connection loop feeds it.
const READ_CHUNK: usize = 8 << 10;

/// Fresh hash seeds timed by `report.hash_ns_per_item`.
const HASH_SEEDS: usize = 256;

/// Closed-loop frames (of `CLOSED_FRAME` reports) whose reports the
/// replay pushes through the report path.
pub const FRAMES: usize = 160;

/// Checkpoint saves (and loads) timed.
const STORE_ROUNDS: usize = 5;

/// Request ids of the bulk pass start here, apart from the other spans.
const BULK_REQ: u64 = 2 << 32;

/// What the replay counted (its timings are the tracers' spans).
pub struct Replay {
    /// Reports pushed through the report path, in each of its two passes.
    pub reports: u64,
    /// Frames of the workload's own size pushed through the report path.
    pub frames: u64,
    /// Frames of the bulk pass, at the closed loop's frame size.
    pub bulk_frames: u64,
    /// Encoded wire bytes of the workload-sized frames.
    pub wire_bytes: u64,
    /// Items hashed by the `hash_bucket` pass.
    pub hashed_items: u64,
    /// Preimage-cache hits and misses of the frame-sized fold.
    pub preimage: (u64, u64),
    /// Bytes on disk after one checkpoint save.
    pub store_bytes: u64,
    /// Reports the coordinator replay routed (0 without a coordinator).
    pub routed: u64,
    /// Of the routed reports, those that spilled to another collector.
    pub spilled: u64,
}

/// Replays the reports of `bulk` through the report path twice: re-cut
/// into frames of the workload's own size (`spec.frame`) on `tracer`,
/// which the per-layer metrics read, and in the closed loop's frames on
/// `bulk_tracer`, which the cost budget sets against the closed loop's
/// server CPU. Then answers `spec.replay_queries` queries, saves and
/// loads checkpoints, and on a coordinated workload routes and merges
/// through a coordinator over the live collectors.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &Spec,
    shared: &Arc<dyn Mechanism>,
    bulk: &[Frame],
    fleet: &Fleet,
    dir: &Path,
    seed: u64,
    tracer: &mut Tracer,
    bulk_tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mech = shared.as_ref();
    let m = mech.report_len();
    let all: Vec<ReportData> = bulk.iter().flatten().cloned().collect();
    let frames: Vec<Frame> = all.chunks(spec.frame).map(<[_]>::to_vec).collect();
    let mut out = Replay {
        reports: count(&frames),
        frames: frames.len() as u64,
        bulk_frames: bulk.len() as u64,
        wire_bytes: frames
            .iter()
            .map(|f| encode_reports_frame(f).len() as u64)
            .sum(),
        hashed_items: 0,
        preimage: (0, 0),
        store_bytes: 0,
        routed: 0,
        spilled: 0,
    };
    report_path(mech, bulk, BULK_REQ, bulk_tracer)?;
    let sink = report_path(mech, &frames, 0, tracer)?;

    // The fold alone, frame-sized, with the preimage cache's own counters.
    let mut acc = ShapedAccumulator::for_mechanism(mech);
    for (i, frame) in frames.iter().enumerate() {
        let reports = as_reports(frame);
        tracer
            .span("accumulator.fold", None, i as u64, || {
                acc.accumulate_batch(&reports)
            })
            .map_err(|e| format!("replay: fold failed: {e}"))?;
    }
    if let ShapedAccumulator::Hashed(h) = &acc {
        out.preimage = (h.preimage_cache().hits(), h.preimage_cache().misses());
    }
    let direct = fold(mech, [all.as_slice()])?.snapshot();
    if sink.snapshot() != direct || acc.snapshot() != direct {
        return Err("replay: layer-by-layer fold differs from a direct fold".into());
    }

    // `hash_bucket` over the whole domain for fresh seeds, at the
    // workload's hash range (OLH's g = 4 at ε = 1 for unhashed shapes).
    let range = match mech.report_shape() {
        ReportShape::Hashed { range } => range,
        _ => 4,
    };
    let mut rng = stream_rng(seed, 99);
    for s in 0..HASH_SEEDS {
        let hash_seed = rng.next_u64();
        tracer.span("report.hash", None, s as u64, || {
            let mut acc = 0usize;
            for v in 0..m {
                acc = acc.wrapping_add(hash_bucket(black_box(hash_seed), v, range));
            }
            black_box(acc)
        });
    }
    out.hashed_items = (HASH_SEEDS * m) as u64;

    // Queries, as a settled Estimates / TopK reply is built.
    for q in 0..spec.replay_queries {
        let req = (1 << 32) + q as u64;
        let root = tracer.begin("replay.query", None, req);
        let snapshot = tracer.span("sharded.snapshot", root, req, || sink.snapshot());
        let users = snapshot.num_users();
        let estimates = tracer
            .span("oracle.estimate", root, req, || {
                mech.frequency_oracle(users).estimate_from(&snapshot)
            })
            .map_err(|e| format!("replay: oracle: {e}"))?;
        black_box(tracer.span("oracle.topk_select", root, req, || {
            top_k_indices(&estimates, TOP_K)
        }));
        let reply = idldp_server::Frame::Estimates { users, estimates };
        black_box(tracer.span("frame.reply_encode", root, req, || encode_reply(&reply)));
        tracer.end(root);
    }

    // Checkpoint save and restore through the default store backend:
    // every workload issues Checkpoint queries, and a restarted server
    // restores what they saved.
    let store_dir = dir.join("replay-store");
    std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?;
    let path = store_dir.join("replay.ckpt");
    let run_line = run_identity_line(mech, None);
    let kind = StoreKind::default();
    let mut store = open_store(kind, &path);
    for r in 0..STORE_ROUNDS {
        let shards = sink.snapshot_shards();
        tracer
            .span("store.save", None, r as u64, || {
                store.save(&shards, &run_line)
            })
            .map_err(|e| format!("replay: store save: {e}"))?;
        let restored = tracer
            .span("store.load", None, r as u64, || {
                open_store(kind, &path).load()
            })
            .map_err(|e| format!("replay: store load: {e}"))?;
        if restored.map(|c| c.merged()) != Some(direct.clone()) {
            return Err("replay: restored checkpoint differs from the saved state".into());
        }
    }
    out.store_bytes = dir_bytes(&store_dir);

    if spec.collectors > 0 {
        coordinator(spec, shared, &frames, fleet, tracer, &mut out)?;
    }
    Ok(out)
}

/// Pushes `frames` through the report path as a connection worker and an
/// ingest worker run it — decode, validate, queue push, pop, sharded
/// fold, mark — and returns the folded sink.
fn report_path(
    mech: &dyn Mechanism,
    frames: &[Frame],
    req_base: u64,
    tracer: &mut Tracer,
) -> Result<ShardedAccumulator<ShapedAccumulator>, String> {
    // The queue capacity and shard count a default `ServerConfig` uses.
    let default_of = |name, fallback| {
        crate::report::server_config(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(fallback)
    };
    let capacity = default_of("queue_capacity", 65_536);
    let shards = default_of("shards", idldp_stream::DEFAULT_SHARDS);
    let m = mech.report_len();
    let shape_param = match mech.report_shape() {
        ReportShape::Hashed { range } => range,
        ReportShape::ItemSet { k } => k,
        _ => 0,
    };
    let wires: Vec<Vec<u8>> = frames.iter().map(|f| encode_reports_frame(f)).collect();
    let queue: IngestQueue<ReportData> = IngestQueue::new(capacity);
    let sink = ShardedAccumulator::new(ShapedAccumulator::for_mechanism(mech), shards);
    let mut asm = FrameAssembler::new();
    for (i, wire) in wires.iter().enumerate() {
        let req = req_base + i as u64;
        let root = tracer.begin("replay.frame", None, req);
        let decoded = tracer.span("frame.decode", root, req, || {
            for piece in wire.chunks(READ_CHUNK) {
                asm.feed(piece)?;
            }
            Ok::<_, idldp_server::FrameError>(asm.next_frame())
        });
        let reports = match decoded {
            Ok(Some(idldp_server::Frame::Reports(reports))) => reports,
            other => return Err(format!("replay: frame {i} decoded to {other:?}")),
        };
        tracer
            .span("report.validate", root, req, || {
                reports
                    .iter()
                    .try_for_each(|r| r.as_report().validate(m, shape_param))
            })
            .map_err(|e| format!("replay: invalid report: {e}"))?;
        let len = reports.len();
        let accepted = tracer.span("queue.push", root, req, || queue.try_push_batch(reports));
        if accepted != Ok(len) {
            return Err(format!("replay: queue refused a frame ({accepted:?})"));
        }
        let (ticket, batch) = tracer
            .span("queue.pop", root, req, || queue.pop())
            .ok_or("replay: queue closed")?;
        tracer
            .span("sharded.push_batch", root, req, || {
                sink.push_batch(&as_reports(&batch))
            })
            .map_err(|e| format!("replay: fold failed: {e}"))?;
        tracer.span("queue.mark", root, req, || queue.mark_processed(ticket));
        tracer.end(root);
    }
    Ok(sink)
}

/// The coordinator over the live collectors: route the workload-sized
/// frames, then merge snapshots and re-rank candidates.
fn coordinator(
    spec: &Spec,
    shared: &Arc<dyn Mechanism>,
    frames: &[Frame],
    fleet: &Fleet,
    tracer: &mut Tracer,
    out: &mut Replay,
) -> Result<(), String> {
    let mech = shared.as_ref();
    let addrs: Vec<(String, usize)> = fleet
        .collector_addrs()
        .into_iter()
        .map(|a| (a, 1))
        .collect();
    let (mut coordinator, _) = Coordinator::connect(Arc::clone(shared), None, &addrs)
        .map_err(|e| format!("replay: coordinator: {e}"))?;
    for (i, frame) in frames.iter().enumerate() {
        tracer
            .span("coord.route", None, i as u64, || coordinator.route(frame))
            .map_err(|e| format!("replay: route: {e}"))?;
    }
    out.routed = count(frames);
    out.spilled = coordinator.stats().iter().map(|s| s.spilled_in).sum();
    let mut locals = Vec::new();
    for (addr, _) in &addrs {
        let (mut client, _) =
            ReportClient::connect(addr.as_str(), mech).map_err(|e| format!("replay: {e}"))?;
        locals.push(
            client
                .query_top_k(TOP_K)
                .map_err(|e| format!("replay: {e}"))?
                .1,
        );
    }
    for q in 0..spec.replay_queries.min(20) {
        let merged = tracer
            .span("coord.merged_snapshot", None, q as u64, || {
                coordinator.merged_snapshot()
            })
            .map_err(|e| format!("replay: merge: {e}"))?;
        let estimates = mech
            .frequency_oracle(merged.num_users())
            .estimate_from(&merged)
            .map_err(|e| format!("replay: oracle: {e}"))?;
        black_box(tracer.span("coord.merge_candidates", None, q as u64, || {
            merge_candidates(&locals, &estimates, TOP_K)
        }));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
