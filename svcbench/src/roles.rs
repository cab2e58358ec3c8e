//! The server side of a run, each in its own process: a collector
//! (`ReportServer`) or a coordinator (`CoordServer`) over collectors.
//! Every server runs the default `ServerConfig`; a collector adds only a
//! checkpoint path, so a later change to a default is measured here.

use crate::workload::{mechanism, spec};
use idldp_coord::{CoordServer, Coordinator};
use idldp_server::{ReportServer, ServerConfig};
use std::io::{Read, Write};

/// Arguments that start a server child for `workload`.
pub fn server_args(workload: &str, checkpoint: &std::path::Path) -> Vec<String> {
    vec![
        "--child".into(),
        "server".into(),
        "--workload".into(),
        workload.into(),
        "--checkpoint".into(),
        checkpoint.display().to_string(),
    ]
}

/// Arguments that start a coordinator child over `collectors`.
pub fn coordinator_args(workload: &str, collectors: &[String]) -> Vec<String> {
    vec![
        "--child".into(),
        "coordinator".into(),
        "--workload".into(),
        workload.into(),
        "--collectors".into(),
        collectors.join(","),
    ]
}

/// Runs a child role: starts the server, prints `ready <addr>`, serves
/// until stdin closes, then shuts down in order.
pub fn run(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("child: missing {name}"))
    };
    let role = args.first().cloned().unwrap_or_default();
    let workload = flag("--workload")?;
    let spec = spec(&workload).ok_or_else(|| format!("child: unknown workload {workload}"))?;
    let mech = mechanism(spec)?;
    match role.as_str() {
        "server" => {
            let config = ServerConfig::builder()
                .checkpoint_path(flag("--checkpoint")?)
                .build()
                .map_err(|e| e.to_string())?;
            let server = ReportServer::start(mech, config).map_err(|e| e.to_string())?;
            announce(&server.local_addr().to_string())?;
            wait_for_stdin_close();
            server.shutdown();
        }
        "coordinator" => {
            let collectors: Vec<(String, usize)> = flag("--collectors")?
                .split(',')
                .map(|a| (a.to_string(), 1))
                .collect();
            let (coordinator, _) =
                Coordinator::connect(mech, None, &collectors).map_err(|e| e.to_string())?;
            let server =
                CoordServer::start(coordinator, "127.0.0.1:0").map_err(|e| e.to_string())?;
            announce(&server.local_addr().to_string())?;
            wait_for_stdin_close();
            server.shutdown();
        }
        other => return Err(format!("child: unknown role {other}")),
    }
    Ok(())
}

fn announce(addr: &str) -> Result<(), String> {
    let mut out = std::io::stdout();
    writeln!(out, "ready {addr}")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())
}

fn wait_for_stdin_close() {
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}
