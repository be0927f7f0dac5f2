//! The `serve-race-window` workload: closed-loop client sessions, one
//! at a time, against an in-process `csst_serve::Server` on a Unix
//! socket.
//!
//! One client thread drives one connection, sending an EVENTS frame and
//! then a `races` query, whose answer it waits for before the next
//! frame: an instrumented program blocks on its socket when the server
//! falls behind. The session thread and the witness workers it spawns
//! belong to the system under test.

use crate::batch::push_core;
use crate::inputs::{racy, sub_seed};
use crate::render::{analyze, race_output, same_output};
use crate::report::{median, unit_quantile, Outcomes, Samples, Value, PER_LAYER};
use crate::timed::{take_totals, CoreStats, TimedIndex};
use crate::{Args, Measured};
use csst_analyses::race::{RaceCfg, RacePredictor};
use csst_analyses::registry::{self, IndexKind, RunOutput};
use csst_analyses::Analysis;
use csst_core::{Csst, ThreadId};
use csst_serve::{Client, Hello, Server, ShardedRace, WireFormat};
use csst_trace::{text, EventKind, Trace};
use std::collections::BTreeMap;
use std::io;
use std::thread::JoinHandle;
use std::time::Instant;

/// Events per EVENTS frame (the `csst-client` chunk size).
const FRAME_EVENTS: usize = 512;

/// Tumbling window of the sessions, in events: every fourth query waits
/// for a window's analysis.
const RACE_WINDOW: usize = 2048;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Programs per run, each generated from its own seed derived from the
/// workload seed. A cycle streams each once, one session per program;
/// averaging over several programs keeps one seed's quirks (how costly
/// its witness checks are, how its races fall) from setting a run's
/// figures.
const PROGRAMS: u64 = 8;

/// One program: its text frames, decoded as the server decodes them,
/// and what every run over it must reproduce.
struct Program {
    frames: Vec<Vec<u8>>,
    events: usize,
    decoded: Vec<Vec<(ThreadId, EventKind)>>,
    /// The decoded stream as one trace.
    stream: Trace,
    /// The `races` answer after each frame.
    answers: Vec<String>,
    /// The batch registry's report over the decoded stream.
    report: RunOutput,
}

fn hello() -> Hello {
    Hello {
        analysis: "race".into(),
        index: "csst".into(),
        format: WireFormat::Text,
        shards: 1,
        window: Some(RACE_WINDOW),
    }
}

fn race_cfg() -> RaceCfg {
    RaceCfg {
        window: Some(RACE_WINDOW),
        ..Default::default()
    }
}

/// The Table 1 xalan program as 512-line text frames.
fn make_frames(seed: u64) -> Vec<Vec<u8>> {
    let encoded = text::write(&racy("xalan", seed));
    let lines: Vec<&str> = encoded.split_inclusive('\n').collect();
    lines
        .chunks(FRAME_EVENTS)
        .map(|c| c.concat().into_bytes())
        .collect()
}

/// Decodes every frame as the server's wire decoder does.
fn decode_frames(frames: &[Vec<u8>]) -> Vec<Vec<(ThreadId, EventKind)>> {
    frames
        .iter()
        .map(|f| {
            let chunk = std::str::from_utf8(f).expect("text frames are UTF-8");
            let trace = text::parse(chunk).expect("frames come from the text encoder");
            trace
                .iter_order()
                .map(|(id, ev)| (id.thread, ev.kind))
                .collect()
        })
        .collect()
}

/// The engine the session runs on, in-process and without the wire:
/// the `races` answer after each frame and the registry-formatted
/// report.
fn pipeline(
    decoded: &[Vec<(ThreadId, EventKind)>],
) -> Result<(Vec<String>, RunOutput), csst_serve::ServeError> {
    let mut race = ShardedRace::<Csst>::new(race_cfg(), 1);
    let mut answers = Vec::with_capacity(decoded.len());
    for events in decoded {
        for &(t, ev) in events {
            race.feed(t, ev)?;
        }
        answers.push(race.races_so_far().len().to_string());
    }
    let r = race.finish()?;
    Ok((answers, race_output(&r.races, r.candidates)))
}

/// Decodes `frames` and computes the references (untimed): the report
/// of the batch registry on the session's index and window, as
/// `csst-client --check-batch` checks, and the in-process engine's
/// answers, whose report must equal it.
fn prepare(frames: Vec<Vec<u8>>) -> Result<Program, String> {
    let decoded = decode_frames(&frames);
    let mut stream = Trace::new(0);
    for &(t, ev) in decoded.iter().flatten() {
        stream.push(t, ev);
    }
    let report = registry::resolve("race")?.run(&stream, IndexKind::Csst, Some(RACE_WINDOW))?;
    let (answers, pipe_report) = pipeline(&decoded).map_err(|e| e.to_string())?;
    if !same_output(&pipe_report, &report) {
        return Err("in-process pipeline report differs from the registry's".into());
    }
    Ok(Program {
        events: stream.total_events(),
        frames,
        decoded,
        stream,
        answers,
        report,
    })
}

impl Program {
    /// Counts each answer and the report as one operation.
    fn check(&self, outcomes: &mut Outcomes, who: &str, answers: &[String], report: &RunOutput) {
        for (i, (got, want)) in answers.iter().zip(&self.answers).enumerate() {
            outcomes.check(got == want, || {
                format!("{who}: answer {i} is `{got}`, expected `{want}`")
            });
        }
        outcomes.check(answers.len() == self.answers.len(), || {
            format!(
                "{who}: {} answers for {} queries",
                answers.len(),
                self.answers.len()
            )
        });
        outcomes.check(same_output(report, &self.report), || {
            format!("{who}: report differs from the batch registry's")
        });
    }
}

/// A server running on its own thread.
struct Running {
    addr: String,
    join: JoinHandle<io::Result<()>>,
}

impl Running {
    /// Binds a Unix socket in the working directory, starts the accept
    /// loop and connects once to see it accept.
    fn start(n: usize) -> io::Result<Running> {
        let path = format!("perfbench-{}-{n}.sock", std::process::id());
        let server = Server::bind(&format!("unix:{path}"))?;
        let addr = server.local_addr();
        let join = std::thread::spawn(move || server.run());
        drop(csst_serve::server::connect(&addr)?);
        Ok(Running { addr, join })
    }

    /// Shuts the server down and joins it (which removes the socket).
    fn stop(self) -> io::Result<()> {
        let shutdown = Client::shutdown_server(&self.addr);
        let run = self
            .join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?;
        shutdown.and(run)
    }
}

/// Timings and answers of one session.
struct Session {
    secs: f64,
    hello_secs: f64,
    finish_secs: f64,
    write_secs: f64,
    bytes: usize,
    latencies_us: Vec<f64>,
    answers: Vec<String>,
    report: RunOutput,
}

/// Streams `p` through one session: HELLO, then each frame followed by
/// a `races` query, then FINISH.
fn session(addr: &str, p: &Program) -> io::Result<Session> {
    let start = Instant::now();
    let mut client = Client::open(addr, &hello())?;
    let hello_secs = start.elapsed().as_secs_f64();
    let (mut write_secs, mut bytes) = (0.0, 0);
    let mut latencies_us = Vec::with_capacity(p.frames.len());
    let mut answers = Vec::with_capacity(p.frames.len());
    for frame in &p.frames {
        let t = Instant::now();
        client.send_events_raw(frame)?;
        write_secs += t.elapsed().as_secs_f64();
        bytes += frame.len();
        let t = Instant::now();
        answers.push(client.query("races")?);
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let t = Instant::now();
    let report = client.finish()?;
    let finish_secs = t.elapsed().as_secs_f64();
    Ok(Session {
        secs: start.elapsed().as_secs_f64(),
        hello_secs,
        finish_secs,
        write_secs,
        bytes,
        latencies_us,
        answers,
        report: RunOutput {
            lines: report.lines,
            summary: report.summary,
            exit_code: report.exit_code,
        },
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Measured {
    let mut samples = Samples::default();
    let mut outcomes = Outcomes::default();
    let mut values: BTreeMap<&'static str, Value> = BTreeMap::new();

    let mut prepared: Option<(Vec<Vec<Vec<u8>>>, Running)> = None;
    for n in 0..SETUP_REPS {
        if let Some((_, server)) = prepared.take() {
            if let Err(e) = server.stop() {
                outcomes.check(false, || format!("server shutdown failed: {e}"));
            }
        }
        let start = Instant::now();
        let frames: Vec<_> = (0..PROGRAMS)
            .map(|k| make_frames(sub_seed(args.seed, k)))
            .collect();
        let server = match Running::start(n) {
            Ok(s) => s,
            Err(e) => {
                outcomes.check(false, || format!("server start failed: {e}"));
                return Measured { values, outcomes };
            }
        };
        samples.push("setup_s", start.elapsed().as_secs_f64());
        prepared = Some((frames, server));
    }
    let (frames, server) = prepared.expect("at least one set-up");

    let mut programs = Vec::with_capacity(frames.len());
    for f in frames {
        match prepare(f) {
            Ok(p) => programs.push(p),
            Err(e) => {
                outcomes.check(false, || format!("reference run failed: {e}"));
                let _ = server.stop();
                return Measured { values, outcomes };
            }
        }
    }

    let run_session = |outcomes: &mut Outcomes, p: &Program| -> Option<Session> {
        match session(&server.addr, p) {
            Ok(s) => {
                p.check(outcomes, "session", &s.answers, &s.report);
                Some(s)
            }
            Err(e) => {
                outcomes.check(false, || format!("session failed: {e}"));
                None
            }
        }
    };

    // Timed cycles: one session per program. A traced run follows each
    // cycle with a traced one, so that drift in the host's speed
    // cancels out of `trace_overhead_frac`.
    let mut untraced_eps = Vec::new();
    let mut latencies_us = Vec::new();
    let mut traced_eps = Vec::new();
    let mut core_passes = Vec::new();
    let phase = Instant::now();
    while untraced_eps.is_empty() || phase.elapsed().as_secs_f64() < args.seconds {
        let (mut events, mut secs) = (0, 0.0);
        for p in &programs {
            if let Some(s) = run_session(&mut outcomes, p) {
                events += p.events;
                secs += s.secs;
                latencies_us.push(s.latencies_us);
            }
        }
        untraced_eps.push(events as f64 / secs);
        if args.trace {
            let (mut events, mut secs) = (0, 0.0);
            let mut pass: BTreeMap<&'static str, f64> = BTreeMap::new();
            let mut core = CoreStats::default();
            for p in &programs {
                if let Some(s) = run_session(&mut outcomes, p) {
                    events += p.events;
                    secs += s.secs;
                    core.add(&traced_pass(p, &s, &mut outcomes, &mut pass));
                }
            }
            for (name, v) in pass {
                samples.push(name, v);
            }
            core_passes.push(core);
            traced_eps.push(events as f64 / secs);
        }
    }
    if let Err(e) = server.stop() {
        outcomes.check(false, || format!("server shutdown failed: {e}"));
    }

    if args.trace {
        for &(name, _) in PER_LAYER {
            let v = samples.median(name);
            if v.samples > 0 {
                values.insert(name, v);
            }
        }
        push_core(&mut values, &core_passes);
        values.insert(
            "trace_overhead_frac",
            Value {
                value: 1.0 - median(&traced_eps) / median(&untraced_eps),
                samples: traced_eps.len(),
            },
        );
        return Measured { values, outcomes };
    }

    let mut bytes = 0;
    for p in &programs {
        let ok = analyze::<Csst>("race", &p.stream, Some(RACE_WINDOW)).is_some_and(|(out, b)| {
            bytes += b;
            same_output(&out, &p.report)
        });
        outcomes.check(ok, || {
            "index_bytes run: report differs from the reference".into()
        });
    }
    values.insert(
        "index_bytes",
        Value {
            value: bytes as f64,
            samples: programs.len(),
        },
    );
    for (name, q) in [("query_p50_us", 0.5), ("query_p99_us", 0.99)] {
        values.insert(name, unit_quantile(&latencies_us, q));
    }
    values.insert(
        "events_per_s",
        Value {
            value: median(&untraced_eps),
            samples: untraced_eps.len(),
        },
    );
    values.insert("setup_s", samples.median("setup_s"));
    Measured { values, outcomes }
}

/// One program's share of a traced cycle: the client-side phases of
/// session `s`, then the layers below the wire driven in-process on the
/// same stream. Adds its figures to `pass`; returns the sequential
/// predictor's index work.
fn traced_pass(
    p: &Program,
    s: &Session,
    outcomes: &mut Outcomes,
    pass: &mut BTreeMap<&'static str, f64>,
) -> CoreStats {
    let mut add = |name: &'static str, v: f64| *pass.entry(name).or_default() += v;
    add("serve.hello_ms", s.hello_secs * 1e3);
    add("serve.finish_ms", s.finish_secs * 1e3);
    add("serve.frame_write_s", s.write_secs);
    add("serve.frames", p.frames.len() as f64);
    add("serve.bytes_sent", s.bytes as f64);

    let start = Instant::now();
    drop(decode_frames(&p.frames));
    add("trace.text_parse_s", start.elapsed().as_secs_f64());

    let start = Instant::now();
    let piped = pipeline(&p.decoded);
    let pipe_secs = start.elapsed().as_secs_f64();
    match piped {
        Ok((answers, report)) => p.check(outcomes, "pipeline", &answers, &report),
        Err(e) => outcomes.check(false, || format!("pipeline failed: {e}")),
    }
    add("serve.race_pipeline_s", pipe_secs);
    add("serve.wire_s", s.secs - pipe_secs);

    take_totals();
    let start = Instant::now();
    let mut det = RacePredictor::<TimedIndex<Csst>>::new(race_cfg());
    for &(t, ev) in p.decoded.iter().flatten() {
        det.feed(t, ev);
    }
    let r = det.finish();
    let report = race_output(&r.races, r.candidates);
    drop(r);
    add(
        "analyses.race_window_sequential_s",
        start.elapsed().as_secs_f64(),
    );
    // The sequential predictor answers no online queries.
    outcomes.check(same_output(&report, &p.report), || {
        "sequential: report differs from the batch registry's".into()
    });
    take_totals()
}
