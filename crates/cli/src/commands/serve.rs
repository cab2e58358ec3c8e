//! `idldp serve` — the long-running networked ingestion service.
//!
//! Binds an [`idldp_server::ReportServer`] for one mechanism and serves
//! the framed compact-wire protocol: report batches (with `Busy`
//! backpressure off a bounded ingest queue), estimate and top-k queries
//! over live snapshots, and on-demand atomic checkpoints. The bound
//! address is printed (and flushed) as soon as the listener is up —
//! `--port 0` picks an ephemeral port, which is how the CI loopback smoke
//! and local experiments avoid port collisions:
//!
//! ```text
//! idldp serve --mechanism oue --m 64 --eps 1.0 --port 0
//! serve: listening on 127.0.0.1:40213
//! ```
//!
//! The mechanism is built exactly like `idldp ingest` / `idldp push`
//! build theirs (paper-default budgets over RNG stream `(seed, 1)`), so a
//! `push` run with the same `--m/--eps/--seed` handshakes successfully.
//! With `--checkpoint FILE` the server restores the file at startup (the
//! restart path) and persists a new checkpoint whenever a client sends
//! the checkpoint control frame — through the backend selected by
//! `--checkpoint-store {file,delta}`: `file` rewrites one flat file
//! atomically, and `delta` appends only the count deltas since the
//! previous checkpoint (compacting periodically), so checkpoint cost
//! tracks traffic instead of domain size. Both backends restore v1 flat
//! checkpoints transparently.
//!
//! Every connection is multiplexed onto `--workers` readiness event
//! loops, so thousands of mostly-idle clients cost registrations instead
//! of threads. `--idle-timeout-ms N` reaps a connection that completes no
//! frame for `N` ms (`0` disables reaping).
//!
//! `--tenants NAME=MECH:M:EPS:SEED,...` hosts additional fully
//! independent streams alongside the default one — per-tenant
//! accumulator, ingest queue, and checkpoint (at the sibling path
//! `<checkpoint>.tenant-<NAME>`). `--tenants-file FILE` reads the same
//! specs from a file, one per line (`#` comments and blank lines
//! ignored). Clients select a tenant with `push --tenant NAME`; clients
//! that name no tenant land on the default tenant.

use crate::args::CliArgs;
use idldp_core::identity::TenantId;
use idldp_core::mechanism::Mechanism;
use idldp_server::{ReportServer, ServerConfig, TenantConfig};
use idldp_sim::{BuildContext, MechanismRegistry};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Parses one `NAME=MECH:M:EPS:SEED` tenant spec into a built
/// [`TenantConfig`] — the same mechanism construction and config stamp
/// the default stream gets from the top-level flags, so `push --tenant`
/// and a coordinator's registration check work identically against any
/// tenant.
fn parse_tenant_spec(spec: &str) -> Result<TenantConfig, String> {
    let bad = || format!("tenant spec `{spec}`: expected NAME=MECH:M:EPS:SEED");
    let (name, rest) = spec.split_once('=').ok_or_else(bad)?;
    let id = name
        .parse::<TenantId>()
        .map_err(|e| format!("tenant spec `{spec}`: {e}"))?;
    let parts: Vec<&str> = rest.split(':').collect();
    let [mech_name, m, eps, seed] = parts.as_slice() else {
        return Err(bad());
    };
    let m: usize = m.parse().map_err(|e| format!("tenant `{id}`: m: {e}"))?;
    let eps: f64 = eps
        .parse()
        .map_err(|e| format!("tenant `{id}`: eps: {e}"))?;
    let seed: u64 = seed
        .parse()
        .map_err(|e| format!("tenant `{id}`: seed: {e}"))?;
    let mechanism =
        build_mechanism(mech_name, m, eps, seed).map_err(|e| format!("tenant `{id}`: {e}"))?;
    Ok(TenantConfig::new(id, mechanism)
        .with_config_stamp(format!("mechanism={mech_name} m={m} eps={eps} seed={seed}")))
}

/// Collects tenant specs from `--tenants` (comma-separated) and
/// `--tenants-file` (one spec per line; `#` comments and blank lines
/// ignored), in that order.
fn collect_tenants(args: &CliArgs) -> Result<Vec<TenantConfig>, String> {
    let mut tenants = Vec::new();
    if let Some(list) = args.get("tenants") {
        for spec in list.split(',').filter(|s| !s.trim().is_empty()) {
            tenants.push(parse_tenant_spec(spec.trim())?);
        }
    }
    if let Some(path) = args.get("tenants-file") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("--tenants-file {path}: {e}"))?;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            tenants.push(parse_tenant_spec(line)?);
        }
    }
    Ok(tenants)
}

/// Builds a single-item mechanism exactly like `ingest`/`push` do: paper
/// default budgets over RNG stream `(seed, 1)`.
fn build_mechanism(
    mechanism_name: &str,
    m: usize,
    eps: f64,
    seed: u64,
) -> Result<Arc<dyn Mechanism>, String> {
    let levels = super::stream_levels(m, eps, seed)?;
    let ctx = BuildContext {
        levels: &levels,
        padding: 0,
        solver: None,
    };
    let mechanism = MechanismRegistry::standard()
        .build_single_item(mechanism_name, &ctx)
        .map_err(|e| e.to_string())?;
    // Box<dyn BatchMechanism> → Arc<dyn BatchMechanism> → upcast.
    Ok(Arc::<dyn idldp_sim::BatchMechanism>::from(mechanism))
}

/// Runs the subcommand. Blocks until the process is killed.
pub fn run(args: &CliArgs) -> Result<(), String> {
    let m: usize = args.parse_or("m", 64)?;
    let eps: f64 = args.parse_or("eps", 1.0)?;
    let seed: u64 = args.parse_or("seed", 20200401)?;
    let mechanism_name = args.get_or("mechanism", "oue");
    let host = args.get_or("host", "127.0.0.1");
    let port: u16 = args.parse_or("port", 0)?;
    let shards: usize = args.parse_or("shards", idldp_sim::stream::DEFAULT_SHARDS)?;
    let queue_capacity: usize = args.parse_or("queue-capacity", 65_536)?;
    let ingest_workers: usize = args.parse_or("ingest-workers", 2)?;
    let workers: usize = args.parse_or("workers", 4)?;
    let idle_timeout_ms: u64 = args.parse_or("idle-timeout-ms", 60_000)?;
    let checkpoint = args.get("checkpoint");
    let checkpoint_store = args
        .get_or("checkpoint-store", "file")
        .parse::<idldp_core::snapshot::StoreKind>()
        .map_err(|e| format!("flag --checkpoint-store: {e}"))?;
    if shards == 0 || queue_capacity == 0 || ingest_workers == 0 || workers == 0 {
        return Err(
            "--shards, --queue-capacity, --ingest-workers, and --workers must be positive".into(),
        );
    }

    let mechanism = build_mechanism(&mechanism_name, m, eps, seed)?;
    let tenants = collect_tenants(args)?;

    let mut builder = ServerConfig::builder()
        .addr(format!("{host}:{port}"))
        .shards(shards)
        .queue_capacity(queue_capacity)
        .ingest_workers(ingest_workers)
        .connection_workers(workers)
        // `0` disables reaping; anything else is the per-frame deadline.
        .idle_timeout((idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)))
        .checkpoint_store(checkpoint_store)
        // Everything that went into *building* the mechanism, so a restart
        // under different flags refuses the old checkpoint.
        .config_stamp(format!(
            "mechanism={mechanism_name} m={m} eps={eps} seed={seed}"
        ));
    if let Some(path) = checkpoint {
        builder = builder.checkpoint_path(path);
    }
    let tenant_summaries: Vec<String> = tenants.iter().map(TenantConfig::summary_line).collect();
    for tenant in tenants {
        builder = builder.tenant(tenant);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let server = ReportServer::start(Arc::clone(&mechanism), config).map_err(|e| e.to_string())?;

    println!(
        "serve: mechanism = {mechanism_name} ({} reports, width {}), m = {m}, eps = {eps}, \
         shards = {shards}, queue = {queue_capacity}, workers = {workers}+{ingest_workers}",
        mechanism.report_shape().label(),
        mechanism.report_len()
    );
    for summary in &tenant_summaries {
        println!("serve: tenant {summary}");
    }
    if server.num_users() > 0 {
        println!(
            "serve: restored {} users from checkpoint `{}`",
            server.num_users(),
            checkpoint.unwrap_or_default()
        );
    }
    println!("serve: listening on {}", server.local_addr());
    // Scripts (the CI loopback smoke) scrape the port from a piped stdout;
    // flush past the pipe's block buffering before parking forever.
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    // The event loops and ingest threads do all the work; this
    // thread only keeps the process alive until it is killed.
    loop {
        std::thread::park();
    }
}
