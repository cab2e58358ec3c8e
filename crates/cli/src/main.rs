//! `idldp` — command-line interface to the ID-LDP workspace.
//!
//! ```text
//! idldp solve    --budgets 1,1.2,2,4 --counts 5,5,5,85 [--model opt0] [--r min]
//! idldp audit    --budgets 1,4 --counts 1,5 --a 0.59,0.67 --b 0.33,0.28
//! idldp leakage  --budgets 1,1.2,2,4
//! idldp simulate --dataset powerlaw --n 100000 --m 100 --eps 1.0 [--trials 10] [--estimates]
//! idldp ingest   --mechanism oue --n 200000 --m 64 --eps 1.0 [--top-k 8] [--checkpoint state.ckpt]
//! idldp serve    --mechanism oue --m 64 --eps 1.0 --port 0 [--checkpoint state.ckpt]
//! idldp coordinate --collectors ADDR,ADDR,.. --mechanism oue --m 64 --eps 1.0 --port 0
//! idldp push     --addr 127.0.0.1:PORT --mechanism oue --n 200000 --m 64 --eps 1.0 [--top-k 8]
//! idldp mechanisms [--names]
//! ```
//!
//! Run `idldp help` (or any unknown subcommand) for usage.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }
    let command = argv.remove(0);
    let parsed = args::CliArgs::parse(&argv);
    let result = match command.as_str() {
        "solve" => commands::solve::run(&parsed),
        "audit" => commands::audit::run(&parsed),
        "leakage" => commands::leakage::run(&parsed),
        "simulate" => commands::simulate::run(&parsed),
        "ingest" => commands::ingest::run(&parsed),
        "serve" => commands::serve::run(&parsed),
        "coordinate" => commands::coordinate::run(&parsed),
        "push" => commands::push::run(&parsed),
        "mechanisms" => commands::mechanisms::run(&parsed),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "idldp — Input-Discriminative Local Differential Privacy (Gu et al., ICDE 2020)

USAGE:
  idldp solve    --budgets E1,E2,.. --counts M1,M2,..  [--model opt0|opt1|opt2] [--r min|avg|max]
      solve IDUE perturbation probabilities for privacy levels

  idldp audit    --budgets E1,.. --counts M1,.. --a A1,.. --b B1,..  [--r min|avg|max]
      check given per-level parameters against the Eq. 7 constraints

  idldp leakage  --budgets E1,E2,..
      print Table-I-style prior-posterior leakage bounds

  idldp simulate --dataset powerlaw|uniform --n N --m M --eps E
                 [--model opt0|opt1|opt2] [--trials T] [--seed S]
                 [--estimates [--chunk C]]
      run a frequency-estimation experiment and print MSE per mechanism;
      with --estimates, print one deterministic bit-exact estimate
      vector per mechanism instead (diffable against `idldp push`)

  idldp ingest   --mechanism NAME --n N --m M --eps E
                 [--dataset powerlaw|uniform] [--shards S] [--chunk C]
                 [--emit-every U] [--top K] [--seed S] [--checkpoint FILE]
                 [--top-k K [--slack S] | --threshold T] [--track-every U]
      stream perturbed reports through sharded accumulators, emitting
      calibrated estimates every U users; with --checkpoint the
      accumulator state is persisted and a rerun resumes mid-stream;
      with --top-k (or --threshold) an online heavy-hitter tracker
      prints its evolving candidate set at every emission, and its
      final answer is identical to batch identification

  idldp serve    --mechanism NAME --m M --eps E [--port P] [--host H]
                 [--seed S] [--shards S] [--queue-capacity Q]
                 [--workers W] [--ingest-workers I] [--checkpoint FILE]
                 [--idle-timeout-ms N]
                 [--tenants NAME=MECH:M:EPS:SEED,..] [--tenants-file FILE]
      run the networked ingestion service: accept framed compact-wire
      report batches over TCP with bounded-queue backpressure (Busy
      replies), serve estimate/top-k queries from live snapshots, and
      persist atomic checkpoints on demand; --port 0 picks an
      ephemeral port and prints it; all connections are multiplexed
      onto --workers event loops; --idle-timeout-ms reaps silent peers
      (0 disables);
      --tenants hosts extra fully independent streams next to the
      default one (own accumulator, ingest queue, and checkpoint at
      <FILE>.tenant-<NAME>), selected by `push --tenant`

  idldp coordinate --collectors ADDR[@W],ADDR[@W],.. --mechanism NAME
                 --m M --eps E [--seed S] [--port P] [--host H]
                 [--tenant NAME]
      front a fleet of `idldp serve` collectors behind one port
      speaking the same protocol: registration refuses collectors
      whose mechanism/m/eps/seed differ, report frames are routed
      round-robin (weight W frames per turn; Busy remainders spill to
      the next collector), and every query merges the collectors' raw
      count snapshots before estimating once — answers are
      bit-identical to a single unsharded server for any fleet size;
      --tenant registers against that tenant on every collector

  idldp push     --addr HOST:PORT --mechanism NAME --n N --m M --eps E
                 [--dataset powerlaw|uniform] [--chunk C] [--seed S]
                 [--top-k K] [--checkpoint-server] [--resume]
                 [--tenant NAME]
      stream the seeded synthetic population to a running `idldp
      serve`, absorbing Busy backpressure, then query and print the
      server's estimates (bit-identical to `idldp simulate
      --estimates` with the same flags); --checkpoint-server asks the
      server to persist its checkpoint at the end; --resume skips the
      users the server already holds (only valid when they came from
      this same workload, e.g. after a checkpointed restart);
      --tenant pushes into that stream of a multi-tenant server

  idldp mechanisms [--names]
      list every registered mechanism with its aliases, supported
      deployment kinds, report wire shape, and description
      (--names prints just the canonical names, one per line)"
    );
}
