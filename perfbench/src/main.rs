//! End-to-end benchmark of the CSST analyses and `csst-serve`, with a
//! per-layer traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-predict --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, measured with no instrumentation; `--trace 1` alternates
//! untraced passes with traced ones, which time the calls into each
//! layer from outside, and prints the per-layer metrics. Every output
//! is checked against a reference, outside the timed spans; any
//! mismatch sets `correct` to false and the exit code to 1. The last
//! line of standard output is the result object; the line before it
//! carries the host facts, the sample counts and the error rate.

mod batch;
mod inputs;
mod render;
mod report;
mod serve;
mod timed;

use report::{metric_objects, Obj, Outcomes, Value, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run instead of the untraced one.
    pub trace: bool,
}

/// What one workload run measured.
pub struct Measured {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Checked operations.
    pub outcomes: Outcomes,
}

/// The workloads and why each was chosen.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "batch-predict",
        "race/deadlock/membug/uaf/linearizability traces decoded and analysed through the \
         registry: the paper's headline path, through decoders, base order and witness checks",
    ),
    (
        "batch-dense",
        "x86-TSO and densest C11 traces through the registry: index-bound, where CSSTs lose \
         to vector clocks today",
    ),
    (
        "serve-race-window",
        "windowed race sessions (text frames, a races query per frame): ShardedRace \
         witness fan-out and window retirement via Csst::delete_edge",
    ),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "unknown workload `{workload}`; workloads: {}",
            names.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the working directory, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        hash.to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let measured = match args.workload.as_str() {
        "batch-predict" => batch::run(&args, inputs::batch_predict),
        "batch-dense" => batch::run(&args, inputs::batch_dense),
        "serve-race-window" => serve::run(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let Measured { values, outcomes } = measured;
    let correct = outcomes.failed == 0 && outcomes.attempted > 0;
    for note in &outcomes.notes {
        eprintln!("perfbench: MISMATCH {note}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let (metrics, counts) = metric_objects(table, &values);
    for &(name, unit) in table {
        let v = values.get(name).copied().unwrap_or_default();
        eprintln!(
            "{name:<36} {:>16.6} {unit:<6} ({} samples)",
            v.value, v.samples
        );
    }
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, why)| why);
    let host = Obj::default()
        .num(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
        )
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .str("commit", &commit());
    let detail = Obj::default()
        .str("workload", &args.workload)
        .str("why", why)
        .raw("seed", args.seed.to_string())
        .num("seconds", args.seconds)
        .num("trace", u8::from(args.trace) as f64)
        .raw("host", host.render())
        .num(
            "error_rate",
            outcomes.failed as f64 / outcomes.attempted.max(1) as f64,
        )
        .raw("samples", counts.render());
    println!("{}", detail.render());
    let result = Obj::default()
        .raw("correct", correct.to_string())
        .raw("attempted", outcomes.attempted.to_string())
        .raw("failed", outcomes.failed.to_string())
        .raw("metrics", metrics.render());
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
