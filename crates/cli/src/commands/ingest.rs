//! `idldp ingest` — serve-style streaming aggregation.
//!
//! Folds a seeded report stream into a [`ShardedAccumulator`] one chunk
//! at a time, each chunk as one batch on one shard, and emits calibrated
//! estimates at a fixed cadence, the way an online ID-LDP collector would
//! serve a dashboard. The stream is the deterministic [`SeededReportStream`] over a synthetic
//! population (the report-transport twin of `idldp simulate`), so every run
//! is reproducible, and — by the streaming conformance contract — its final
//! counts are bit-identical to a batch `SimulationPipeline` run of the same
//! mechanism and dataset at the stream's RNG seed (a sub-seed derived from
//! `--seed`, distinct from the streams that generate the dataset and the
//! budget assignment).
//!
//! With `--top-k K` (or `--threshold T`) the sink is wrapped in a
//! [`HeavyHitterTracker`]: every `--track-every` reports the tracker runs
//! its snapshot → prune → re-estimate cycle (splitting a chunk at those
//! boundaries), and each emission prints the evolving candidate set
//! alongside the periodic estimates. The final
//! candidate line is identical to what batch `identify_top_k` /
//! `identify_above` would report over the full population (the
//! `topk_conformance` suite proves this).
//!
//! With `--checkpoint FILE` the accumulator state is persisted after every
//! emission through the backend picked by `--checkpoint-store
//! {file,delta}` — one atomically-rewritten flat file, or an append-only
//! delta log whose cost tracks the traffic since the last emission instead
//! of the domain size. Re-running the same command restores the checkpoint
//! and resumes mid-stream instead of starting over (kill it halfway and
//! run it again to see the user counter continue where it stopped); both
//! backends restore v1 flat checkpoints transparently. The tracker needs
//! no extra checkpoint state: its candidates are a pure function of the
//! counts.

use crate::args::CliArgs;
use idldp_core::identity::RunIdentity;
use idldp_core::snapshot::{open_store, StoreKind};
use idldp_sim::report::sci;
use idldp_sim::stream::{
    HeavyHitterTracker, SeededReportStream, ShapedAccumulator, ShardedAccumulator, TrackerMode,
};
use idldp_sim::{BuildContext, MechanismRegistry};

/// The ingestion sink: the plain sharded accumulator, or the same sharding
/// wrapped in an online heavy-hitter tracker (`--top-k` / `--threshold`).
enum Sink<'a> {
    Plain(ShardedAccumulator<ShapedAccumulator>),
    Tracked(HeavyHitterTracker<'a, ShapedAccumulator>),
}

impl Sink<'_> {
    fn num_users(&self) -> u64 {
        match self {
            Sink::Plain(sink) => sink.num_users(),
            Sink::Tracked(tracker) => tracker.num_users(),
        }
    }
}

/// Runs the subcommand.
pub fn run(args: &CliArgs) -> Result<(), String> {
    let n: usize = args.parse_or("n", 200_000)?;
    let m: usize = args.parse_or("m", 64)?;
    let eps: f64 = args.parse_or("eps", 1.0)?;
    let seed: u64 = args.parse_or("seed", 20200401)?;
    let shards: usize = args.parse_or("shards", idldp_sim::stream::DEFAULT_SHARDS)?;
    let chunk: usize = args.parse_or("chunk", idldp_sim::stream::DEFAULT_CHUNK_SIZE)?;
    let emit_every: usize = args.parse_or("emit-every", n.div_ceil(10).max(chunk))?;
    let top: usize = args.parse_or("top", 5)?;
    let mechanism_name = args.get_or("mechanism", "oue");
    let dataset_kind = args.get_or("dataset", "powerlaw");
    let checkpoint = args.get("checkpoint");
    let checkpoint_store = args
        .get_or("checkpoint-store", "file")
        .parse::<StoreKind>()
        .map_err(|e| format!("flag --checkpoint-store: {e}"))?;
    if shards == 0 || chunk == 0 {
        return Err("--shards and --chunk must be positive".into());
    }

    // Online heavy-hitter tracking flags.
    let top_k: Option<usize> = args.parse_opt("top-k")?;
    let threshold: Option<f64> = args.parse_opt("threshold")?;
    let mode = match (top_k, threshold) {
        (Some(_), Some(_)) => {
            return Err("--top-k and --threshold are mutually exclusive".into());
        }
        (Some(k), None) => {
            let slack: usize = args.parse_or("slack", k)?;
            Some(TrackerMode::TopK { k, slack })
        }
        (None, Some(t)) => Some(TrackerMode::Threshold { threshold: t }),
        (None, None) => None,
    };
    let track_every: usize = args.parse_or("track-every", emit_every)?;

    // The shared workload derivation (`super::stream_workload`) keeps
    // ingest/push/simulate-estimates on identical RNG streams.
    let workload = super::stream_workload(&dataset_kind, n, m, eps, seed)?;
    let dataset = &workload.dataset;
    let ctx = BuildContext {
        levels: &workload.levels,
        padding: 0,
        solver: None,
    };
    let mechanism = MechanismRegistry::standard()
        .build_single_item(&mechanism_name, &ctx)
        .map_err(|e| e.to_string())?;

    // The sink is picked from the mechanism's declared wire shape, so the
    // same command ingests bit vectors, categorical values, hashed
    // (seed, value) pairs, and item sets without per-mechanism dispatch.
    let sharded =
        ShardedAccumulator::new(ShapedAccumulator::for_mechanism(mechanism.as_ref()), shards);
    let mut sink = match mode {
        Some(mode) => Sink::Tracked(
            HeavyHitterTracker::new(mechanism.as_ref(), sharded, mode, track_every)
                .map_err(|e| e.to_string())?,
        ),
        None => Sink::Plain(sharded),
    };
    let mut stream = SeededReportStream::new(
        mechanism.as_ref(),
        dataset.input_batch(),
        workload.stream_seed,
    )
    .with_chunk_size(chunk);

    // The run-identity line appended to every checkpoint: resuming under
    // different flags would splice counts from incompatible populations,
    // so a mismatch is an error, not a silent restart. The typed
    // `RunIdentity` captures the mechanism's wire identity (kind, shape,
    // width, exact ε bits); the stamp pins everything else that shaped
    // the population and the stream.
    let stamp = format!(
        "mechanism={mechanism_name} dataset={dataset_kind} n={n} m={m} eps={eps} seed={seed} \
         chunk={chunk}"
    );
    let run_line = RunIdentity::for_mechanism(
        RunIdentity::PRODUCER_INGEST,
        mechanism.as_ref(),
        Some(&stamp),
    )
    .to_string();

    // The checkpoint store, when one is configured. Opened once: the delta
    // backend appends each emission's record relative to the previous save
    // it made, so the handle carries state across the loop.
    let mut store = checkpoint.map(|path| open_store(checkpoint_store, path));

    // Resume from a checkpoint when one exists.
    if let (Some(path), Some(store)) = (checkpoint, store.as_mut()) {
        let restored = store
            .load()
            .map_err(|e| format!("checkpoint `{path}`: {e}"))?;
        if let Some(restored) = restored {
            match restored.run_line() {
                Some(line) if line == run_line => {}
                Some(line) => {
                    return Err(format!(
                        "checkpoint `{path}` was written by a different run\n  found:    \
                         {line}\n  expected: {run_line}"
                    ))
                }
                None => {
                    return Err(format!(
                        "checkpoint `{path}` carries no run-identity line; refusing to \
                         resume (delete it to start over)"
                    ))
                }
            }
            let users = restored.num_users() as usize;
            stream
                .seek_to_user(users)
                .map_err(|e| format!("checkpoint `{path}`: {e}"))?;
            match &mut sink {
                Sink::Plain(sharded) => sharded.restore(restored.into_snapshot()),
                Sink::Tracked(tracker) => tracker.restore(restored.into_snapshot()),
            }
            .map_err(|e| e.to_string())?;
            println!("ingest: restored {users} users from checkpoint `{path}`");
        }
    }

    let tracking = match mode {
        Some(TrackerMode::TopK { k, slack }) => {
            format!(", tracking top-{k} (+{slack} slack) every {track_every} users")
        }
        Some(TrackerMode::Threshold { threshold }) => {
            format!(", tracking estimates >= {threshold} every {track_every} users")
        }
        None => String::new(),
    };
    println!(
        "ingest: mechanism = {mechanism_name} ({} reports), dataset = {dataset_kind}, n = {n}, \
         m = {m}, eps = {eps}, shards = {shards}, chunk = {chunk}, emit every {emit_every} \
         users{tracking}",
        mechanism.report_shape().label()
    );
    let truth = dataset.true_counts();
    let mut since_emit = 0usize;
    loop {
        let ingested = match &mut sink {
            Sink::Plain(sharded) => stream.ingest_chunk(sharded).map_err(|e| e.to_string())?,
            Sink::Tracked(tracker) => stream.track_chunk(tracker).map_err(|e| e.to_string())?,
        };
        since_emit += ingested;
        let done = ingested == 0;
        if done || since_emit >= emit_every {
            since_emit = 0;
            match &mut sink {
                Sink::Plain(sharded) => {
                    // Freeze once, estimate once: the same merged snapshot
                    // backs the emission.
                    let snapshot = sharded.snapshot();
                    let estimates = if snapshot.num_users() == 0 {
                        Vec::new()
                    } else {
                        mechanism
                            .frequency_oracle(snapshot.num_users())
                            .estimate_from(&snapshot)
                            .expect("snapshot width matches mechanism")
                    };
                    emit(&estimates, snapshot.num_users(), &truth, top, n);
                }
                Sink::Tracked(tracker) => {
                    // Re-prune at the emission point so the printed
                    // candidates reflect everything ingested so far, not
                    // the last cadence boundary — and reuse the estimates
                    // that refresh already computed for the estimate line.
                    let estimates = tracker.refresh_estimates().map_err(|e| e.to_string())?;
                    emit(&estimates, tracker.num_users(), &truth, top, n);
                    emit_candidates(tracker);
                }
            }
            if let (Some(path), Some(store)) = (checkpoint, store.as_mut()) {
                // The merged view, as a delta against the previous save
                // (delta backend) or one rewritten flat file (file
                // backend). Both commit atomically, so a kill mid-write
                // can never leave a half-applied checkpoint behind — same
                // rule as the server's checkpoint frame.
                let snapshot = match &sink {
                    Sink::Plain(sharded) => sharded.snapshot(),
                    Sink::Tracked(tracker) => tracker.sink().snapshot(),
                };
                store
                    .save(std::slice::from_ref(&snapshot), &run_line)
                    .map_err(|e| format!("checkpoint `{path}`: {e}"))?;
            }
        }
        if done {
            break;
        }
    }
    if let Sink::Tracked(tracker) = &mut sink {
        let found = tracker.finish().map_err(|e| e.to_string())?;
        let label: Vec<String> = found.iter().map(ToString::to_string).collect();
        println!(
            "ingest: identified heavy hitters [{}] ({} refreshes)",
            label.join(", "),
            tracker.refreshes()
        );
    }
    println!("ingest: done ({} users)", sink.num_users());
    Ok(())
}

/// Prints one periodic estimate line from calibrated estimates (empty
/// while no reports have arrived).
fn emit(estimates: &[f64], users: u64, truth: &[f64], top: usize, n: usize) {
    if users == 0 || estimates.is_empty() {
        println!("  [{users:>10} users] no reports yet");
        return;
    }
    // Scale the full-population truth to the users seen so far, so the
    // error column is comparable across emissions.
    let progress = users as f64 / n as f64;
    let mse: f64 = estimates
        .iter()
        .zip(truth)
        .map(|(&e, &t)| {
            let d = e - t * progress;
            d * d
        })
        .sum::<f64>()
        / truth.len() as f64;
    let head: Vec<String> = idldp_num::vecops::top_k_indices(estimates, top)
        .into_iter()
        .map(|i| format!("{i}:{}", sci(estimates[i])))
        .collect();
    println!(
        "  [{users:>10} users] mse/item {} top-{top} {}",
        sci(mse),
        head.join(" ")
    );
}

/// Prints the tracker's current (just refreshed) candidate set.
fn emit_candidates(tracker: &HeavyHitterTracker<'_, ShapedAccumulator>) {
    let shown: Vec<String> = tracker
        .candidates()
        .iter()
        .map(|c| format!("{}:{}", c.item, sci(c.estimate)))
        .collect();
    let what = match tracker.mode() {
        TrackerMode::TopK { k, slack } => format!("top-{k}+{slack}"),
        TrackerMode::Threshold { threshold } => format!(">={threshold}"),
    };
    println!(
        "  [{:>10} users] candidates {what} {}",
        tracker.num_users(),
        shown.join(" ")
    );
}
