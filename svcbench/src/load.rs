//! One load run against real server processes: repeated set-up, the
//! closed-loop bulk-ingest phase, the open-loop latency phase, and the
//! bit-identity gate.

use crate::procs::ServerProc;
use crate::roles;
use crate::sched::{self, Timing, Wall};
use crate::trace::Tracer;
use crate::workload::{count, Frame, Inputs, Spec, OPEN_SHARE, ROUNDS, TOP_K};
use idldp_core::mechanism::Mechanism;
use idldp_core::report::{Report, ReportData};
use idldp_core::snapshot::{open_store, StoreKind};
use idldp_num::rng::stream_rng;
use idldp_num::vecops::top_k_indices;
use idldp_server::{run_identity_line, ClientError, PushOutcome, Query, Reply, ReportClient};
use idldp_stream::{ReportAccumulator, ShapedAccumulator};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. A single server sets up
/// in a few milliseconds, so one slow process start or wake-up moves a
/// small sample's median; this many keep it put.
pub const SETUPS: usize = 21;

/// Pause before each set-up after the first. Back to back, a run's
/// set-ups all fall in one fraction of a second and share whatever state
/// the host is in then, so their median moves from run to run as a
/// block; spaced out, they sample the host over seconds, and each starts
/// after the previous fleet has fully exited.
const SETUP_GAP: Duration = Duration::from_millis(200);

/// The running server side: every server process and the address clients
/// connect to (the coordinator when there is one).
pub struct Fleet {
    /// Collectors first, then the coordinator.
    pub procs: Vec<ServerProc>,
    /// Client-facing address.
    pub front: String,
}

impl Fleet {
    /// CPU seconds used so far, summed over all server processes.
    pub fn cpu_seconds(&self) -> f64 {
        self.procs.iter().map(ServerProc::cpu_seconds).sum()
    }

    /// Peak RSS in MiB, summed over all server processes.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(ServerProc::peak_rss_mb).sum()
    }

    /// Addresses of the collectors (the lone server when uncoordinated).
    pub fn collector_addrs(&self) -> Vec<String> {
        let n = self.procs.len().saturating_sub(1).max(1);
        self.procs[..n].iter().map(|p| p.addr.clone()).collect()
    }

    /// Stops every server and waits for each to exit.
    pub fn stop(self) {
        for p in self.procs.into_iter().rev() {
            p.stop();
        }
    }
}

/// The folded views of frames as borrowed reports.
pub fn as_reports(frame: &[ReportData]) -> Vec<Report<'_>> {
    frame.iter().map(|r| r.as_report()).collect()
}

/// Folds frames into a fresh accumulator for `mech`.
pub fn fold<'a>(
    mech: &dyn Mechanism,
    frames: impl IntoIterator<Item = &'a [ReportData]>,
) -> Result<ShapedAccumulator, String> {
    let mut acc = ShapedAccumulator::for_mechanism(mech);
    for frame in frames {
        acc.accumulate_batch(&as_reports(frame))
            .map_err(|e| e.to_string())?;
    }
    Ok(acc)
}

/// Writes each collector's restored population as a file checkpoint
/// stamped with the collector's run identity.
pub fn write_checkpoints(mech: &dyn Mechanism, inputs: &Inputs, dir: &Path) -> Result<(), String> {
    for (c, frames) in inputs.restored.iter().enumerate() {
        let acc = fold(mech, frames.iter().map(Vec::as_slice))?;
        open_store(StoreKind::File, collector_checkpoint(dir, c))
            .save(&[acc.snapshot()], &run_identity_line(mech, None))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn collector_checkpoint(dir: &Path, c: usize) -> PathBuf {
    dir.join(format!("collector-{c}.ckpt"))
}

/// Starts the server processes of `spec` (collectors restore their
/// checkpoints) and returns once every one of them listens.
pub fn start_fleet(spec: &Spec, dir: &Path) -> Result<Fleet, String> {
    if spec.collectors == 0 {
        let server = ServerProc::spawn(&roles::server_args(spec.name, &dir.join("server.ckpt")))?;
        return Ok(Fleet {
            front: server.addr.clone(),
            procs: vec![server],
        });
    }
    let mut procs = Vec::with_capacity(spec.collectors + 1);
    for c in 0..spec.collectors {
        procs.push(ServerProc::spawn(&roles::server_args(
            spec.name,
            &collector_checkpoint(dir, c),
        ))?);
    }
    let addrs: Vec<String> = procs.iter().map(|p| p.addr.clone()).collect();
    let coordinator = ServerProc::spawn(&roles::coordinator_args(spec.name, &addrs))?;
    let front = coordinator.addr.clone();
    procs.push(coordinator);
    Ok(Fleet { procs, front })
}

/// Connects and handshakes one client; the server must report exactly
/// the restored users.
pub fn connect(addr: &str, mech: &dyn Mechanism, restored: u64) -> Result<ReportClient, String> {
    let (client, users) = ReportClient::connect(addr, mech).map_err(|e| e.to_string())?;
    if users != restored {
        return Err(format!(
            "server holds {users} users at start, expected {restored}"
        ));
    }
    Ok(client)
}

/// The live server side plus its two client connections: `clients[0]`
/// carries reports, `clients[1]` queries and checkpoints.
pub struct Live {
    /// Server processes.
    pub fleet: Fleet,
    /// Report connection and query connection.
    pub clients: [ReportClient; 2],
}

/// Sets up [`SETUPS`] times, [`SETUP_GAP`] apart — spawn the servers,
/// restore, handshake both clients — tearing down all but the last;
/// returns it with every set-up's duration in seconds.
pub fn setup(
    spec: &Spec,
    mech: &dyn Mechanism,
    restored: u64,
    dir: &Path,
) -> Result<(Live, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            drop(old.clients);
            old.fleet.stop();
            std::thread::sleep(SETUP_GAP);
        }
        let start = Instant::now();
        let fleet = start_fleet(spec, dir)?;
        let clients = [
            connect(&fleet.front, mech, restored)?,
            connect(&fleet.front, mech, restored)?,
        ];
        times.push(start.elapsed().as_secs_f64());
        live = Some(Live { fleet, clients });
    }
    Ok((live.expect("SETUPS > 0"), times))
}

/// What the closed-loop phase measured.
pub struct Closed {
    /// Seconds per round, from the first push until a linearized
    /// `Estimates` query counted every report of the round.
    pub round_secs: Vec<f64>,
    /// Whether each round was traced.
    pub round_traced: Vec<bool>,
    /// Reports per round.
    pub round_reports: Vec<u64>,
    /// Server CPU seconds per round.
    pub round_cpu_s: Vec<f64>,
    /// `Busy` replies absorbed by the clients' retry loop.
    pub busy_retries: u64,
}

/// Closed-loop saturation: in each round both connections push their
/// frames back to back (each frame a `push_all`, absorbing `Busy`), then
/// the query connection asks for estimates, which settle only once every
/// accepted report is folded. `traced(round)` turns span recording on for
/// that round.
pub fn closed_loop(
    live: &mut Live,
    inputs: &Inputs,
    restored: u64,
    tracer: &mut Tracer,
    traced: impl Fn(usize) -> bool,
) -> Result<Closed, String> {
    let busy_before: u64 = live.clients.iter().map(ReportClient::busy_retries).sum();
    let mut expected = restored;
    let mut out = Closed {
        round_secs: Vec::new(),
        round_traced: Vec::new(),
        round_reports: Vec::new(),
        round_cpu_s: Vec::new(),
        busy_retries: 0,
    };
    for round in 0..ROUNDS {
        let on = traced(round);
        tracer.set_enabled(on);
        let mut side = tracer.sibling(on);
        let [reports_conn, query_conn] = &mut live.clients;
        let cpu_before = live.fleet.cpu_seconds();
        let start = Instant::now();
        let (a, b) = std::thread::scope(|s| {
            let side = &mut side;
            let handle =
                s.spawn(move || push_turn(reports_conn, inputs.closed_turn(round, 0), side, round));
            let b = push_turn(query_conn, inputs.closed_turn(round, 1), tracer, round);
            (handle.join().expect("push thread"), b)
        });
        a?;
        b?;
        expected += inputs.round_reports(round);
        let users = tracer.span("client.settle", None, round as u64, || {
            query_conn.query_estimates()
        });
        let (users, _) = users.map_err(|e| format!("closed-loop query: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        out.round_cpu_s.push(live.fleet.cpu_seconds() - cpu_before);
        if users != expected {
            return Err(format!(
                "closed-loop round {round}: server counts {users} users, expected {expected}"
            ));
        }
        tracer.absorb(side);
        out.round_secs.push(secs);
        out.round_traced.push(on);
        out.round_reports.push(inputs.round_reports(round));
    }
    tracer.set_enabled(false);
    out.busy_retries = live
        .clients
        .iter()
        .map(ReportClient::busy_retries)
        .sum::<u64>()
        - busy_before;
    Ok(out)
}

fn push_turn(
    client: &mut ReportClient,
    frames: &[Frame],
    tracer: &mut Tracer,
    round: usize,
) -> Result<(), String> {
    for frame in frames {
        tracer
            .span("client.push_all", None, round as u64, || {
                client.push_all(frame)
            })
            .map_err(|e| format!("closed-loop push: {e}"))?;
    }
    Ok(())
}

/// The kinds of scheduled query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ask {
    /// `Estimates`.
    Estimates,
    /// `TopK(TOP_K)`.
    TopK,
    /// A (coordinated) `Checkpoint`.
    Checkpoint,
}

impl Ask {
    fn query(self) -> Query {
        match self {
            Ask::Estimates => Query::Estimates,
            Ask::TopK => Query::TopK(TOP_K),
            Ask::Checkpoint => Query::Checkpoint,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Ask::Estimates => "client.estimates",
            Ask::TopK => "client.topk",
            Ask::Checkpoint => "client.checkpoint",
        }
    }
}

/// What the open-loop phase measured.
pub struct Open {
    /// Per report frame: timing and reports accepted.
    pub frames: Vec<(Timing, u64)>,
    /// Per query: kind, timing, success.
    pub queries: Vec<(Ask, Timing, bool)>,
    /// First transport or protocol error, if any.
    pub first_error: Option<String>,
}

impl Open {
    /// Reports refused (`Busy` remainder, `Reject`, transport error).
    pub fn refused_reports(&self, inputs: &Inputs) -> u64 {
        count(&inputs.open) - self.frames.iter().map(|(_, a)| a).sum::<u64>()
    }

    /// Latencies (from due time) of one query kind, in ms.
    pub fn query_ms(&self, ask: Ask) -> Vec<f64> {
        self.queries
            .iter()
            .filter(|(k, _, ok)| *k == ask && *ok)
            .map(|(_, t, _)| t.latency().as_secs_f64() * 1e3)
            .collect()
    }
}

/// The query schedule of the open-loop phase: each kind at its own fixed
/// rate with random phases drawn from the workload seed, merged in due
/// order, so runs sample every way queries of different kinds collide.
pub fn query_schedule(spec: &Spec, seconds: f64, seed: u64) -> Vec<(Duration, Ask)> {
    let span = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let mut rng = stream_rng(seed, 3);
    let mut all = Vec::new();
    for (ask, rate) in [
        (Ask::Estimates, spec.estimates_per_s),
        (Ask::TopK, spec.topk_per_s),
        (Ask::Checkpoint, spec.checkpoints_per_s),
    ] {
        let n = (rate * span.as_secs_f64()).round() as usize;
        all.extend(
            sched::jittered(n, span, &mut rng)
                .into_iter()
                .map(|d| (d, ask)),
        );
    }
    all.sort_by_key(|&(d, _)| d);
    all
}

/// Open-loop latency phase: report frames arrive at the workload's fixed
/// rate, each at a random phase of its slot, on one connection while the
/// query schedule runs on the other; every request is timed from its due
/// time.
pub fn open_loop(
    live: &mut Live,
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> Open {
    let span = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let dues = sched::jittered(inputs.open.len(), span, &mut stream_rng(seed, 4));
    let asks = query_schedule(spec, seconds, seed);
    let query_dues: Vec<Duration> = asks.iter().map(|&(d, _)| d).collect();
    let epoch = Instant::now() + Duration::from_millis(5);
    let [reports_conn, query_conn] = &mut live.clients;
    let (frames, queries) = std::thread::scope(|s| {
        let pusher = s.spawn(|| {
            let mut broken: Option<String> = None;
            let runs = sched::run(&Wall(epoch), &dues, |i, _| {
                if broken.is_some() {
                    return 0;
                }
                let frame = &inputs.open[i];
                match reports_conn.push(frame) {
                    Ok(PushOutcome::Ingested) => frame.len() as u64,
                    Ok(PushOutcome::Busy { accepted }) => accepted,
                    Err(ClientError::Rejected { accepted, .. }) => accepted,
                    Err(e) => {
                        broken = Some(format!("report connection: {e}"));
                        0
                    }
                }
            });
            (runs, broken)
        });
        let mut broken: Option<String> = None;
        let queries = sched::run(&Wall(epoch), &query_dues, |i, _| {
            if broken.is_some() {
                return false;
            }
            match query_conn.query(asks[i].1.query()) {
                Ok(
                    Reply::Estimates { .. }
                    | Reply::Candidates { .. }
                    | Reply::CheckpointAck { .. },
                ) => true,
                Ok(_) => false,
                Err(ClientError::Rejected { .. }) => false,
                Err(e) => {
                    broken = Some(format!("query connection: {e}"));
                    false
                }
            }
        });
        (pusher.join().expect("push thread"), (queries, broken))
    });
    let ((frames, frames_err), (queries, queries_err)) = (frames, queries);
    if tracer.enabled() {
        let base = tracer.at(epoch);
        let ns = |d: Duration| base + d.as_nanos() as u64;
        for (i, (t, _)) in frames.iter().enumerate() {
            let (due, sent, done) = (ns(t.due), ns(t.sent), ns(t.done));
            let parent = tracer.record("load.frame", due, done, None, i as u64);
            tracer.record("client.push", sent, done, parent, i as u64);
        }
        for (i, (t, _)) in queries.iter().enumerate() {
            let (due, sent, done) = (ns(t.due), ns(t.sent), ns(t.done));
            let req = (1 << 32) + i as u64;
            let parent = tracer.record("load.query", due, done, None, req);
            tracer.record(asks[i].1.span(), sent, done, parent, req);
        }
    }
    Open {
        frames,
        queries: queries
            .into_iter()
            .zip(&asks)
            .map(|((t, ok), &(_, ask))| (ask, t, ok))
            .collect(),
        first_error: frames_err.or(queries_err),
    }
}

/// The bit-identity gate: fold exactly the reports the server
/// acknowledged (restored + closed-loop + each open-loop frame's accepted
/// prefix) locally, then demand the server's counts, estimates and top-k
/// — through the coordinator, the merged fleet's — match bit for bit.
/// Returns the number of users checked.
pub fn gate(
    mech: &dyn Mechanism,
    inputs: &Inputs,
    open: &Open,
    client: &mut ReportClient,
) -> Result<u64, String> {
    let acked: Vec<&[ReportData]> = inputs
        .restored
        .iter()
        .flatten()
        .chain(inputs.closed_sent())
        .map(Vec::as_slice)
        .chain(
            inputs
                .open
                .iter()
                .zip(&open.frames)
                .map(|(f, (_, accepted))| &f[..*accepted as usize]),
        )
        .collect();
    // Folded in two halves on two threads (the servers are idle by now),
    // then merged: exact, by the merge law.
    let (front, back) = acked.split_at(acked.len() / 2);
    let (local, back) = std::thread::scope(|s| {
        let back = s.spawn(|| fold(mech, back.iter().copied()));
        (
            fold(mech, front.iter().copied()),
            back.join().expect("fold thread"),
        )
    });
    let mut local = local?;
    local.merge_from(&back?).map_err(|e| e.to_string())?;
    let local = local.snapshot();
    let users = local.num_users();
    let want = mech
        .frequency_oracle(users)
        .estimate_from(&local)
        .map_err(|e| e.to_string())?;

    let (got_users, counts) = client
        .query_snapshot()
        .map_err(|e| format!("gate snapshot: {e}"))?;
    if got_users != users || counts != local.counts() {
        return Err(format!(
            "gate: server counts differ from the local fold ({got_users} vs {users} users)"
        ));
    }
    let (_, estimates) = client
        .query_estimates()
        .map_err(|e| format!("gate estimates: {e}"))?;
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if !same(&estimates, &want) {
        return Err("gate: server estimates differ from the local oracle bit for bit".into());
    }
    let (_, top) = client
        .query_top_k(TOP_K)
        .map_err(|e| format!("gate top-k: {e}"))?;
    let want_top: Vec<(u64, f64)> = top_k_indices(&want, TOP_K)
        .into_iter()
        .map(|i| (i as u64, want[i]))
        .collect();
    let ids = |v: &[(u64, f64)]| v.iter().map(|&(i, e)| (i, e.to_bits())).collect::<Vec<_>>();
    if ids(&top) != ids(&want_top) {
        return Err("gate: server top-k differs from the local top-k".into());
    }
    Ok(users)
}
