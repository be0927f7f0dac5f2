//! `csst-serve` — the long-running streaming analysis service.
//!
//! ```text
//! csst-serve [--listen tcp:HOST:PORT | --listen unix:/path]
//!            [--idle-timeout-ms N] [--max-sessions N] [--faults SPEC]
//! ```
//!
//! Prints `listening on <addr>` once bound (with the OS-chosen port
//! for `tcp:…:0`), serves sessions until a client sends SHUTDOWN, then
//! exits 0. See `csst-client --help` for the driver.
//!
//! `--faults` takes a deterministic fault-injection spec (see
//! `csst_serve::fault`); when absent, the `CSST_FAULTS` environment
//! variable is consulted, so the chaos suite can inject faults without
//! touching the command line.

use csst_serve::{FaultPlan, Server, ServerCfg};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut listen = "tcp:127.0.0.1:0".to_string();
    let mut cfg = ServerCfg::default();
    let mut faults_flag: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parsed = loop {
        let Some(arg) = args.next() else {
            break Ok(());
        };
        let result = match arg.as_str() {
            "--listen" => value(&mut args, "--listen").map(|v| listen = v),
            "--idle-timeout-ms" => value(&mut args, "--idle-timeout-ms").and_then(|v| {
                v.parse::<u64>()
                    .map(|ms| cfg.idle_timeout = Duration::from_millis(ms))
                    .map_err(|_| "--idle-timeout-ms wants a number".into())
            }),
            "--max-sessions" => value(&mut args, "--max-sessions").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| cfg.max_sessions = n.max(1))
                    .map_err(|_| "--max-sessions wants a number".into())
            }),
            "--faults" => value(&mut args, "--faults").map(|v| faults_flag = Some(v)),
            "--help" | "-h" => {
                println!(
                    "usage: csst-serve [--listen tcp:HOST:PORT | --listen unix:/path] \
                     [--idle-timeout-ms N] [--max-sessions N] [--faults SPEC]"
                );
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument `{other}` (see --help)")),
        };
        if let Err(e) = result {
            break Err(e);
        }
    };
    if let Err(e) = parsed {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let faults = match faults_flag {
        Some(spec) => FaultPlan::parse(&spec),
        None => FaultPlan::from_env(),
    };
    match faults {
        Ok(plan) => {
            if !plan.is_empty() {
                eprintln!("csst-serve: fault injection active");
            }
            cfg.faults = plan;
        }
        Err(e) => {
            eprintln!("bad fault spec: {e}");
            return ExitCode::from(2);
        }
    }
    let server = match Server::bind_with(&listen, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            return ExitCode::from(1);
        }
    };
    println!("listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::from(1)
        }
    }
}
