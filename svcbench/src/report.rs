//! Output: host and configuration stamps, human-readable metric lines,
//! and the final one-line JSON result.

use crate::workload::{Spec, CLOSED_SHARE, OPEN_SHARE};
use idldp_core::mechanism::Mechanism;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a metric list, skipping values that could not be measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds `name` when `value` is a finite number; otherwise notes why it
    /// is missing.
    pub fn put(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value.filter(|v| v.is_finite()) {
            Some(value) => self.0.push(Metric { name, value, unit }),
            None => println!("metric {name} not reported (too few samples or no base)"),
        }
    }
}

/// Prints each metric on its own line: `metric <name> <value> <unit>`.
pub fn print_metrics(metrics: &Metrics) {
    for m in &metrics.0 {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Host facts and every configuration value that shapes the result.
pub fn stamps(
    spec: &Spec,
    mech: &dyn Mechanism,
    seed: u64,
    seconds: f64,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string());
    let field = |name| server_config(name).unwrap_or_else(|| "unknown".into());
    let frame_rate = spec.open_rps / spec.frame as f64;
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("git_commit", git_commit()),
        ("workload", spec.name.to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("engine", field("engine")),
        ("checkpoint_store", field("checkpoint_store")),
        ("shards", field("shards")),
        ("queue_capacity", field("queue_capacity")),
        ("ingest_workers", field("ingest_workers")),
        ("connection_workers", field("connection_workers")),
        ("collectors", spec.collectors.to_string()),
        (
            "restored_per_collector",
            spec.restored_per_collector.to_string(),
        ),
        ("mechanism", format!("{} ({})", spec.mechanism, mech.kind())),
        ("m", spec.m.to_string()),
        ("eps", spec.eps.to_string()),
        ("ldp_eps", mech.ldp_epsilon().to_string()),
        ("frame_reports", spec.frame.to_string()),
        ("closed_reports_per_s_sized", spec.closed_rps.to_string()),
        ("closed_share", CLOSED_SHARE.to_string()),
        ("open_reports_per_s", spec.open_rps.to_string()),
        ("open_frames_per_s", format!("{frame_rate:.3}")),
        ("open_seconds", (seconds * OPEN_SHARE).to_string()),
        ("estimates_per_s", spec.estimates_per_s.to_string()),
        ("topk_per_s", spec.topk_per_s.to_string()),
        ("checkpoints_per_s", spec.checkpoints_per_s.to_string()),
    ]
}

/// One field of a default `ServerConfig`, read from its `Debug` form (the
/// fields are private): the defaults a run measures, stamped so a change
/// to one shows in the results.
pub fn server_config(name: &str) -> Option<String> {
    let config = format!("{:?}", idldp_server::ServerConfig::default());
    let rest = &config[config.find(&format!("{name}: "))? + name.len() + 2..];
    Some(rest[..rest.find(", ").unwrap_or(rest.len())].to_string())
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}
