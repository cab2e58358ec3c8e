//! `svcbench` — the collector's service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload olh-fold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run drives a seeded load against real `ReportServer` /
//! `CoordServer` processes (this binary re-executed in a server role, so
//! server CPU time and peak RSS are read from `/proc/<pid>` apart from
//! the load generator): [`load::SETUPS`] timed set-ups, a closed-loop
//! ingest phase, an open-loop phase timed from due times, and a
//! bit-identity gate against a local fold of exactly the acknowledged
//! reports. `--trace 1` records spans around every client call, then
//! replays the same reports single-threaded through each layer and prints
//! the per-layer cost budget. The last stdout line is the JSON result.

mod load;
mod procs;
mod replay;
mod report;
mod roles;
mod sched;
mod selftest;
mod stats;
mod trace;
mod workload;

use load::{Ask, Closed, Open};
use replay::Replay;
use report::Metrics;
use stats::{median, percentile, Ratio};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Per replayed span name: (calls, total ns, self ns).
type Layers = std::collections::BTreeMap<&'static str, (u64, u64, u64)>;

/// A run's open-loop latencies are invalid when the generator itself sent
/// this late (p90, ms): they would measure the generator, not the server.
const LATE_LIMIT_MS: f64 = 2.0;

/// Where runs keep their checkpoints and span files, inside the checkout.
const WORK_DIR: &str = ".svcbench";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("--child") {
        match roles::run(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("svcbench child: {e}");
                1
            }
        }
    } else {
        match bench(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("svcbench: {e}");
                1
            }
        }
    };
    std::process::exit(code);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| {
                format!("missing {name} (usage: --workload NAME --seed N --seconds N --trace 0|1)")
            })
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace: num("--trace")? == 1,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench(args: &[String]) -> Result<i32, String> {
    let args = parse(args)?;
    selftest::run()?;
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {} (expected one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let mech = workload::mechanism(spec)?;
    for (key, value) in report::stamps(spec, mech.as_ref(), args.seed, args.seconds) {
        println!("stamp {key} {value}");
    }
    let scratch = Scratch(Path::new(WORK_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let dir = scratch.0.as_path();

    let inputs = workload::generate(spec, mech.as_ref(), args.seed, args.seconds)?;
    load::write_checkpoints(mech.as_ref(), &inputs, dir)?;
    let restored = inputs.restored_users();

    let (mut live, setups) = load::setup(spec, mech.as_ref(), restored, dir)?;
    let mut sorted = setups.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "setup times ms: min {:.3} median {:.3} max {:.3} over {} set-ups",
        sorted[0] * 1e3,
        sorted[sorted.len() / 2] * 1e3,
        sorted[sorted.len() - 1] * 1e3,
        sorted.len()
    );
    let mut tracer = Tracer::new(Instant::now(), false);
    // Traced runs alternate traced and untraced rounds: their difference
    // is the tracing overhead.
    let closed = load::closed_loop(&mut live, &inputs, restored, &mut tracer, |r| {
        args.trace && r % 2 == 1
    })?;
    tracer.set_enabled(args.trace);
    let open = load::open_loop(
        &mut live,
        spec,
        &inputs,
        args.seconds,
        args.seed,
        &mut tracer,
    );
    tracer.set_enabled(false);
    let gate = load::gate(mech.as_ref(), &inputs, &open, &mut live.clients[1]);
    let peak_rss_mb = live.fleet.peak_rss_mb();
    let replay = if args.trace {
        // Closed-loop frames: the phase whose server CPU the budget
        // explains.
        let frames = &inputs.closed[..replay::FRAMES.min(inputs.closed.len())];
        let mut replay_tracer = tracer.sibling(true);
        let mut bulk_tracer = tracer.sibling(true);
        let replay = replay::run(
            spec,
            &mech,
            frames,
            &live.fleet,
            dir,
            args.seed,
            &mut replay_tracer,
            &mut bulk_tracer,
        )?;
        Some((replay, replay_tracer, bulk_tracer))
    } else {
        None
    };
    drop(live.clients);
    live.fleet.stop();

    let correct = match (&gate, &open.first_error) {
        (Ok(users), None) => {
            println!(
                "gate ok: {users} users, counts, estimates and top-{} bit-identical",
                workload::TOP_K
            );
            true
        }
        (Err(e), _) | (Ok(_), Some(e)) => {
            println!("gate FAILED: {e}");
            false
        }
    };

    let late: Vec<f64> = open
        .frames
        .iter()
        .map(|(t, _)| t)
        .chain(open.queries.iter().map(|(_, t, _)| t))
        .map(|t| t.generator_late().as_secs_f64() * 1e3)
        .collect();
    let late_p90 = percentile(&late, 0.90);
    println!(
        "loadgen late p90 {} ms over {} sends",
        late_p90.map_or("n/a".into(), |v| format!("{v:.3}")),
        late.len()
    );

    let attempted_reports = workload::count(inputs.closed_sent()) + workload::count(&inputs.open);
    let queries = (closed.round_secs.len() + open.queries.len() + 3) as u64;
    let refused = open.refused_reports(&inputs);
    let failed_queries = open.queries.iter().filter(|(_, _, ok)| !ok).count() as u64;
    let attempted = attempted_reports + queries;
    let failed = refused + failed_queries;
    println!(
        "failed_frac {}",
        Ratio::new(failed as f64, attempted as f64)
    );

    // Untracked: on the small workloads it swings with how full the
    // ingest queue happened to get.
    println!("untracked peak_rss_mb {peak_rss_mb} MiB (VmHWM summed over the server processes)");
    if late_p90.is_some_and(|v| v <= LATE_LIMIT_MS) {
        print_latencies(&open);
    } else {
        println!(
            "latencies INVALID: the load generator fell behind schedule \
             (late p90 over {LATE_LIMIT_MS} ms); not reported"
        );
    }
    let metrics = match replay {
        Some((replay, replay_tracer, bulk_tracer)) => {
            let layers = trace::totals(replay_tracer.spans());
            let bulk = trace::totals(bulk_tracer.spans());
            tracer.absorb(replay_tracer);
            tracer.absorb(bulk_tracer);
            let spans_path = Path::new(WORK_DIR).join(format!("spans-{}.jsonl", spec.name));
            trace::write_jsonl(&spans_path, tracer.spans()).map_err(|e| e.to_string())?;
            println!(
                "spans written to {} ({} spans)",
                spans_path.display(),
                tracer.spans().len()
            );
            layer_metrics(
                spec,
                &closed,
                &replay,
                &layers,
                &bulk,
                tracer.spans(),
                late_p90,
            )
        }
        None => end_to_end(&setups, &closed),
    };
    report::print_metrics(&metrics);
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

/// Reports per second of `per` (each round's wall or server CPU seconds),
/// over the rounds that were (or were not) traced.
fn rates(closed: &Closed, per: &[f64], traced: bool) -> Vec<f64> {
    per.iter()
        .zip(&closed.round_reports)
        .zip(&closed.round_traced)
        .filter(|(_, &t)| t == traced)
        .map(|((s, &n), _)| n as f64 / s)
        .collect()
}

fn closed_reports(closed: &Closed) -> f64 {
    closed.round_reports.iter().sum::<u64>() as f64
}

/// The tracked end-to-end metrics: set-up time and bulk ingest
/// throughput and cost.
fn end_to_end(setups: &[f64], closed: &Closed) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(setups), "s");
    m.put(
        "ingest_rps",
        median(&rates(closed, &closed.round_secs, false)),
        "1/s",
    );
    m.put(
        "reports_per_cpu_s",
        median(&rates(closed, &closed.round_cpu_s, false)),
        "1/s",
    );
    m
}

/// Prints the open-loop latencies, timed from due time, with their sample
/// counts. They are reported but not tracked: on a small virtual host a
/// request's latency is a mixture of a fast mode and a slow one (a halted
/// vCPU waking, a fold worker's time slice, a steal), and run to run the
/// mixture weight moves these percentiles by more than any bound.
fn print_latencies(open: &Open) {
    let us = |t: &sched::Timing| t.latency().as_secs_f64() * 1e6;
    let ack: Vec<f64> = open.frames.iter().map(|(t, _)| us(t)).collect();
    let ms = |ask| open.query_ms(ask);
    for (name, samples, q, unit) in [
        ("ack_p50_us", ack.clone(), 0.5, "us"),
        ("ack_p90_us", ack.clone(), 0.9, "us"),
        ("ack_p99_us", ack, 0.99, "us"),
        ("query_p50_ms", ms(Ask::Estimates), 0.5, "ms"),
        ("query_p90_ms", ms(Ask::Estimates), 0.9, "ms"),
        ("topk_p50_ms", ms(Ask::TopK), 0.5, "ms"),
        ("checkpoint_p50_ms", ms(Ask::Checkpoint), 0.5, "ms"),
    ] {
        match percentile(&samples, q) {
            Some(v) => println!("untracked {name} {v} {unit} (n={})", samples.len()),
            None => println!(
                "untracked {name} n/a (n={}: fewer than 10 samples beyond it)",
                samples.len()
            ),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    spec: &workload::Spec,
    closed: &Closed,
    r: &Replay,
    t: &Layers,
    bulk: &Layers,
    spans: &[trace::Span],
    late_p90: Option<f64>,
) -> Metrics {
    // Mean duration per call of a replay span, in ns.
    let per_call = |name: &str| t.get(name).map(|&(n, total, _)| total as f64 / n as f64);
    let total = |name: &str| t.get(name).map_or(0.0, |&(_, total, _)| total as f64);
    let reports = r.reports as f64;
    let frames = r.frames as f64;
    let mut m = Metrics::default();

    m.put(
        "frame.decode_us_per_frame",
        per_call("frame.decode").map(|v| v / 1e3),
        "us",
    );
    m.put(
        "frame.decode_ns_per_report",
        Some(total("frame.decode") / reports),
        "ns",
    );
    m.put(
        "frame.wire_bytes_per_report",
        Some(r.wire_bytes as f64 / reports),
        "B",
    );
    m.put(
        "frame.reply_encode_us",
        per_call("frame.reply_encode").map(|v| v / 1e3),
        "us",
    );
    m.put(
        "report.validate_ns_per_report",
        Some(total("report.validate") / reports),
        "ns",
    );
    m.put(
        "report.hash_ns_per_item",
        Some(total("report.hash") / r.hashed_items as f64),
        "ns",
    );
    m.put("queue.push_ns_per_frame", per_call("queue.push"), "ns");
    m.put("queue.pop_ns_per_frame", per_call("queue.pop"), "ns");
    m.put(
        "accumulator.fold_ns_per_report",
        Some(total("accumulator.fold") / reports),
        "ns",
    );
    let (hits, misses) = r.preimage;
    let hit_ratio = Ratio::new(hits as f64, (hits + misses) as f64);
    println!("fold.preimage_hit_ratio {hit_ratio}");
    m.put(
        "fold.preimage_hit_ratio",
        Some(hit_ratio.value().unwrap_or(0.0)),
        "ratio",
    );
    m.put("fold.preimage_hits", Some(hits as f64), "count");
    m.put("fold.preimage_misses", Some(misses as f64), "count");
    m.put(
        "sharded.push_batch_ns_per_report",
        Some(total("sharded.push_batch") / reports),
        "ns",
    );
    m.put(
        "sharded.snapshot_us",
        per_call("sharded.snapshot").map(|v| v / 1e3),
        "us",
    );
    m.put(
        "oracle.estimate_us",
        per_call("oracle.estimate").map(|v| v / 1e3),
        "us",
    );
    m.put(
        "oracle.topk_select_us",
        per_call("oracle.topk_select").map(|v| v / 1e3),
        "us",
    );
    m.put(
        "store.save_ms",
        per_call("store.save").map(|v| v / 1e6),
        "ms",
    );
    m.put("store.bytes_per_save", Some(r.store_bytes as f64), "B");
    m.put(
        "store.load_ms",
        per_call("store.load").map(|v| v / 1e6),
        "ms",
    );

    // A workload without a coordinator spends nothing in it.
    let coord = |v: Option<f64>| if spec.collectors == 0 { Some(0.0) } else { v };
    if spec.collectors == 0 {
        println!("coord.* reported as 0: {} runs no coordinator", spec.name);
    }
    m.put(
        "coord.route_us_per_frame",
        coord(per_call("coord.route").map(|v| v / 1e3)),
        "us",
    );
    let spilled = Ratio::new(r.spilled as f64, r.routed as f64);
    println!("coord.spilled_frac {spilled}");
    m.put("coord.spilled_frac", coord(spilled.value()), "ratio");
    m.put(
        "coord.merged_snapshot_ms",
        coord(per_call("coord.merged_snapshot").map(|v| v / 1e6)),
        "ms",
    );
    m.put(
        "coord.merge_candidates_us",
        coord(per_call("coord.merge_candidates").map(|v| v / 1e3)),
        "us",
    );

    // The load run's own spans: the client's view of the same layers.
    // Open-loop pushes carry frames of the workload's size, as the
    // replayed frames above do.
    let push_rtt_us = percentile(&trace::durations(spans, "client.push"), 0.5).map(|v| v / 1e3);
    let query_rtt_ms =
        percentile(&trace::durations(spans, "client.estimates"), 0.5).map(|v| v / 1e6);
    m.put("client.push_rtt_us_p50", push_rtt_us, "us");
    m.put("client.query_rtt_ms_p50", query_rtt_ms, "ms");
    m.put(
        "client.busy_retries",
        Some(closed.busy_retries as f64),
        "count",
    );
    let ingress_us =
        (total("frame.decode") + total("report.validate") + total("queue.push")) / frames / 1e3;
    m.put(
        "engine.residual_us_per_frame",
        push_rtt_us.map(|v| v - ingress_us),
        "us",
    );
    let answer_ms = ["sharded.snapshot", "oracle.estimate", "frame.reply_encode"]
        .iter()
        .map(|n| per_call(n).unwrap_or(0.0))
        .sum::<f64>()
        / 1e6;
    m.put(
        "query.residual_ms",
        query_rtt_ms.map(|v| v - answer_ms),
        "ms",
    );

    // The budget: the bulk pass, in the closed loop's frames, against the
    // closed loop's server CPU.
    let path_ns = bulk
        .get("replay.frame")
        .map_or(0.0, |&(_, total, _)| total as f64);
    m.put(
        "replay.single_thread_rps",
        Some(reports / (path_ns / 1e9)),
        "1/s",
    );
    let cpu_s: f64 = closed.round_cpu_s.iter().sum();
    let cpu_us_per_report = cpu_s * 1e6 / closed_reports(closed);
    m.put("server.cpu_us_per_report", Some(cpu_us_per_report), "us");
    let replay_us_per_report = path_ns / reports / 1e3;
    let explained = Ratio::new(replay_us_per_report, cpu_us_per_report);
    m.put("budget.explained_frac", explained.value(), "ratio");
    m.put("loadgen.late_p90_ms", late_p90, "ms");
    let wall = &closed.round_secs;
    let overhead = match (
        median(&rates(closed, wall, false)),
        median(&rates(closed, wall, true)),
    ) {
        (Some(plain), Some(traced)) => Some(Ratio::new(plain - traced, plain)),
        _ => None,
    };
    m.put(
        "trace.overhead_frac",
        overhead.and_then(|r| r.value()),
        "ratio",
    );

    print_budget(spec, t, bulk, r, cpu_us_per_report, explained);
    m
}

/// The per-workload cost budget: each replayed layer's self time per
/// report on the report path — in the closed loop's frames, which the
/// server CPU figure is measured on, and in the workload's own frames —
/// and per query on the query path.
fn print_budget(
    spec: &workload::Spec,
    t: &Layers,
    bulk: &Layers,
    r: &Replay,
    cpu_us_per_report: f64,
    explained: Ratio,
) {
    let reports = r.reports as f64;
    let own = |layers: &Layers, name: &str| layers.get(name).map_or(0.0, |&(_, _, own)| own as f64);
    let path = [
        "replay.frame",
        "frame.decode",
        "report.validate",
        "queue.push",
        "queue.pop",
        "sharded.push_batch",
        "queue.mark",
    ];
    let path_total: f64 = path.iter().map(|n| own(bulk, n)).sum();
    println!(
        "budget {}: report path, self time per report ({} reports; {} frames of {} / {} frames of {})",
        spec.name,
        reports,
        r.bulk_frames,
        workload::CLOSED_FRAME,
        r.frames,
        spec.frame
    );
    println!(
        "budget   {:<22} {:>14} {:>8} {:>15}",
        "layer",
        format!("us/report@{}", workload::CLOSED_FRAME),
        "share",
        format!("us/report@{}", spec.frame)
    );
    for name in path {
        println!(
            "budget   {name:<22} {:>14.4} {:>7.2}% {:>15.4}",
            own(bulk, name) / reports / 1e3,
            100.0 * own(bulk, name) / path_total.max(1.0),
            own(t, name) / reports / 1e3
        );
    }
    let queries = t.get("replay.query").map_or(0, |&(n, _, _)| n);
    println!(
        "budget {}: query path, self time per query ({queries} queries)",
        spec.name
    );
    for name in [
        "replay.query",
        "sharded.snapshot",
        "oracle.estimate",
        "oracle.topk_select",
        "frame.reply_encode",
    ] {
        println!(
            "budget   {name:<22} {:>12.4} us/query",
            own(t, name) / queries.max(1) as f64 / 1e3
        );
    }
    println!(
        "budget   replay.single_thread_rps {:.1}",
        reports / (path_total / 1e9)
    );
    println!("budget   server cpu {cpu_us_per_report:.4} us/report");
    println!("budget   explained {explained}");
    if let Some(v) = explained.value() {
        println!("budget   unexplained remainder {:.4}", 1.0 - v);
    }
}
