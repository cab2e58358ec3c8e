//! `idldp push` — drive a report stream against a live `idldp serve`.
//!
//! The networked twin of `idldp ingest`: the same seeded synthetic
//! population, the same mechanism construction, the same deterministic
//! report stream — but every report travels through the frame codec and a
//! TCP socket into the server's bounded ingest queue ([`ReportClient`]
//! absorbs `Busy` backpressure by retrying the unaccepted tail). After the
//! push it queries the server's calibrated estimates and prints them in
//! the stable `users` / `estimate` line format, bit-for-bit diffable
//! against `idldp simulate --estimates` run with the same flags — the CI
//! `server-loopback` step does exactly that diff.
//!
//! If the server restored a checkpoint (nonzero user count in the
//! handshake), the stream seeks past the users already ingested and pushes
//! only the tail — the client half of the restart story.
//!
//! Against a multi-tenant server, `--tenant NAME` selects the stream to
//! push into (the handshake then validates this run's mechanism config
//! against *that tenant's*); without the flag the push lands on the
//! default tenant.

use crate::args::CliArgs;
use idldp_core::identity::TenantId;
use idldp_server::ReportClient;
use idldp_sim::stream::SeededReportStream;
use idldp_sim::{BuildContext, MechanismRegistry};

/// Runs the subcommand.
pub fn run(args: &CliArgs) -> Result<(), String> {
    let addr = args.require("addr")?;
    let n: usize = args.parse_or("n", 200_000)?;
    let m: usize = args.parse_or("m", 64)?;
    let eps: f64 = args.parse_or("eps", 1.0)?;
    let seed: u64 = args.parse_or("seed", 20200401)?;
    let chunk: usize = args.parse_or("chunk", idldp_sim::stream::DEFAULT_CHUNK_SIZE)?;
    let mechanism_name = args.get_or("mechanism", "oue");
    let dataset_kind = args.get_or("dataset", "powerlaw");
    let top_k: Option<usize> = args.parse_opt("top-k")?;
    let want_checkpoint = args.get("checkpoint-server").is_some();
    let resume = args.get("resume").is_some();
    let tenant = args
        .get("tenant")
        .map(|name| {
            name.parse::<TenantId>()
                .map_err(|e| format!("flag --tenant: {e}"))
        })
        .transpose()?;
    if chunk == 0 {
        return Err("--chunk must be positive".into());
    }

    let workload = super::stream_workload(&dataset_kind, n, m, eps, seed)?;
    let ctx = BuildContext {
        levels: &workload.levels,
        padding: 0,
        solver: None,
    };
    let mechanism = MechanismRegistry::standard()
        .build_single_item(&mechanism_name, &ctx)
        .map_err(|e| e.to_string())?;

    let (mut client, resumed) =
        ReportClient::connect_tenant(addr, mechanism.as_ref(), tenant.as_ref())
            .map_err(|e| e.to_string())?;
    let mut stream = SeededReportStream::new(
        mechanism.as_ref(),
        workload.dataset.input_batch(),
        workload.stream_seed,
    )
    .with_chunk_size(chunk);
    if resumed > 0 {
        // The handshake pins the mechanism config (kind/shape/width/ε) but
        // cannot know which *population* produced the server's existing
        // counts. Seeking past them is only correct when they came from
        // this exact workload (same --dataset/--n/--seed — the restart
        // story), so the operator must assert that explicitly.
        if !resume {
            return Err(format!(
                "server already holds {resumed} users; pass --resume if they are this \
                 run's own earlier reports (same --dataset/--n/--seed), or point at a \
                 fresh server"
            ));
        }
        stream
            .seek_to_user(resumed as usize)
            .map_err(|e| format!("server already holds {resumed} users: {e}"))?;
        println!("push: server restored {resumed} users; resuming from there");
    }

    println!(
        "push: mechanism = {mechanism_name} ({} reports), dataset = {dataset_kind}, n = {n}, \
         m = {m}, eps = {eps}, chunk = {chunk}, server = {addr}{}",
        mechanism.report_shape().label(),
        tenant
            .as_ref()
            .map(|t| format!(", tenant = {t}"))
            .unwrap_or_default()
    );
    let mut pushed = 0usize;
    loop {
        let mut batch = Vec::with_capacity(chunk);
        let got = stream
            .next_chunk_with(|report| {
                batch.push(report.to_data());
                Ok(())
            })
            .map_err(|e| e.to_string())?;
        if got == 0 {
            break;
        }
        client.push_all(&batch).map_err(|e| e.to_string())?;
        pushed += got;
    }
    println!(
        "push: pushed {pushed} users ({} busy retries)",
        client.busy_retries()
    );

    let (users, estimates) = client.query_estimates().map_err(|e| e.to_string())?;
    super::print_estimate_lines(users, &estimates);

    if let Some(k) = top_k {
        let (_, candidates) = client.query_top_k(k).map_err(|e| e.to_string())?;
        let shown: Vec<String> = candidates
            .iter()
            .map(|&(item, estimate)| format!("{item}:{}", idldp_sim::report::sci(estimate)))
            .collect();
        println!("candidates top-{k} {}", shown.join(" "));
    }
    if want_checkpoint {
        let covered = client.checkpoint().map_err(|e| e.to_string())?;
        println!("push: server checkpointed {covered} users");
    }
    Ok(())
}
