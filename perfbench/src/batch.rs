//! The batch workloads: encoded traces decoded and analysed through
//! `csst_analyses::registry`, the `csst_analyze` path.

use crate::inputs::{BatchInput, Format};
use crate::render::{analyze, needs_deletion, same_output};
use crate::report::{median, quantile, Outcomes, Samples, Value};
use crate::timed::{take_totals, CoreStats, TimedIndex};
use crate::{Args, Measured};
use csst_analyses::registry::{self, IndexKind, RunOutput};
use csst_analyses::BaseOrderBuilder;
use csst_core::{Csst, IncrementalCsst, PartialOrderIndex};
use csst_trace::Trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The reference each output is checked against: the same analysis on
/// vector clocks, or on graphs where the analysis deletes edges.
fn reference_index(analysis: &str) -> IndexKind {
    if needs_deletion(analysis) {
        IndexKind::Graph
    } else {
        IndexKind::VectorClock
    }
}

/// Runs `analysis` through its generic entry point with the registry's
/// config, on the CSST variant the registry picks, wrapped in `W`.
macro_rules! on_registry_csst {
    ($analysis:expr, $trace:expr, $wrap:ident) => {
        if needs_deletion($analysis) {
            analyze::<$wrap<Csst>>($analysis, $trace, None)
        } else {
            analyze::<$wrap<IncrementalCsst>>($analysis, $trace, None)
        }
    };
}

/// Identity wrapper, so the untraced and traced generic runs share
/// [`on_registry_csst`].
type Plain<P> = P;

fn metric_names(analysis: &str) -> (&'static str, &'static str) {
    match analysis {
        "race" => ("analyses.race_s", "analyses.race_self_s"),
        "deadlock" => ("analyses.deadlock_s", "analyses.deadlock_self_s"),
        "membug" => ("analyses.membug_s", "analyses.membug_self_s"),
        "uaf" => ("analyses.uaf_s", "analyses.uaf_self_s"),
        "linearizability" => (
            "analyses.linearizability_s",
            "analyses.linearizability_self_s",
        ),
        "tso" => ("analyses.tso_s", "analyses.tso_self_s"),
        "c11" => ("analyses.c11_s", "analyses.c11_self_s"),
        other => unreachable!("no batch input runs `{other}`"),
    }
}

/// Feeds `trace` to a lone base-order builder in the mode `analysis`
/// uses it.
fn base_order_alone(analysis: &str, trace: &Trace) -> usize {
    fn drive<P: PartialOrderIndex>(mut b: BaseOrderBuilder<P>, trace: &Trace) -> usize {
        for (id, ev) in trace.iter_order() {
            b.feed(id.thread, ev.kind);
        }
        b.base_inserted()
    }
    match analysis {
        "linearizability" => drive(BaseOrderBuilder::<Csst>::counting(None), trace),
        "tso" | "c11" => drive(BaseOrderBuilder::<IncrementalCsst>::counting(None), trace),
        _ => drive(BaseOrderBuilder::<IncrementalCsst>::observing(None), trace),
    }
}

fn registry_run(input: &BatchInput, trace: &Trace, index: IndexKind) -> Result<RunOutput, String> {
    registry::resolve(input.analysis)?.run(trace, index, None)
}

/// Pushes the median of each layer sample set and the core counters.
pub fn push_core(values: &mut BTreeMap<&'static str, Value>, passes: &[CoreStats]) {
    let pick = |f: &dyn Fn(&CoreStats) -> f64| -> Value {
        let v: Vec<f64> = passes.iter().map(f).collect();
        Value {
            value: median(&v),
            samples: v.len(),
        }
    };
    values.insert("core.insert_s", pick(&|c| c.insert_ns as f64 / 1e9));
    values.insert("core.delete_s", pick(&|c| c.delete_ns as f64 / 1e9));
    values.insert("core.query_s", pick(&|c| c.query_ns as f64 / 1e9));
    values.insert(
        "core.ns_per_probe",
        pick(&|c| c.query_ns as f64 / c.probes().max(1) as f64),
    );
    values.insert("core.inserts", pick(&|c| c.inserts as f64));
    values.insert("core.deletes", pick(&|c| c.deletes as f64));
    values.insert("core.probes.reachable", pick(&|c| c.reachable as f64));
    values.insert("core.probes.successor", pick(&|c| c.successor as f64));
    values.insert("core.probes.predecessor", pick(&|c| c.predecessor as f64));
    values.insert("core.batch_calls", pick(&|c| c.batch_calls as f64));
}

/// Runs one batch workload over the inputs `make` generates.
pub fn run(args: &Args, make: fn(u64) -> Vec<BatchInput>) -> Measured {
    let mut samples = Samples::default();
    let mut outcomes = Outcomes::default();
    let mut values: BTreeMap<&'static str, Value> = BTreeMap::new();

    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = make(args.seed);
        samples.push("setup_s", start.elapsed().as_secs_f64());
    }

    // Reference outputs, untimed except for the baseline figure.
    let mut references = Vec::with_capacity(inputs.len());
    let mut pass_events = 0usize;
    let mut ref_secs = 0.0;
    for input in &inputs {
        let trace = input.decode();
        pass_events += trace.total_events();
        let start = Instant::now();
        let reference = registry_run(input, &trace, reference_index(input.analysis));
        ref_secs += start.elapsed().as_secs_f64();
        outcomes.check(reference.is_ok(), || {
            format!("{}/{}: reference run failed", input.analysis, input.profile)
        });
        references.push(reference.ok());
    }
    values.insert(
        "ref.vc_events_per_s",
        Value {
            value: pass_events as f64 / ref_secs,
            samples: 1,
        },
    );
    let check = |outcomes: &mut Outcomes, i: usize, out: Result<RunOutput, String>| {
        let ok = match (&references[i], &out) {
            (Some(r), Ok(o)) => same_output(r, o),
            _ => false,
        };
        outcomes.check(ok, || {
            format!(
                "{}/{}: output differs from the {} reference",
                inputs[i].analysis,
                inputs[i].profile,
                reference_index(inputs[i].analysis).name()
            )
        });
    };

    // Timed passes. An untraced pass runs the registry path, as
    // `csst_analyze` does. A traced run alternates it with a traced
    // pass, so that drift in the host's speed cancels out of
    // `trace_overhead_frac`.
    let mut untraced_eps = Vec::new();
    let mut latencies_us = Vec::new();
    let mut traced_eps = Vec::new();
    let mut core_passes = Vec::new();
    let phase = Instant::now();
    while untraced_eps.is_empty() || phase.elapsed().as_secs_f64() < args.seconds {
        let mut pass_secs = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            let start = Instant::now();
            let trace = input.decode();
            let out = registry_run(input, &trace, IndexKind::Csst);
            pass_secs += start.elapsed().as_secs_f64();
            check(&mut outcomes, i, out);
        }
        untraced_eps.push(pass_events as f64 / pass_secs);
        latencies_us.push(pass_secs * 1e6);
        if args.trace {
            let (secs, core) = traced_pass(&inputs, &mut samples, |i, out| {
                check(&mut outcomes, i, out.ok_or_else(String::new))
            });
            traced_eps.push(pass_events as f64 / secs);
            core_passes.push(core);
        }
    }

    if args.trace {
        for &(name, _) in crate::report::PER_LAYER {
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

    let mut bytes = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        let trace = input.decode();
        let run = on_registry_csst!(input.analysis, &trace, Plain);
        let out = run.map(|(out, b)| {
            bytes += b;
            out
        });
        check(&mut outcomes, i, out.ok_or_else(String::new));
    }
    values.insert(
        "index_bytes",
        Value {
            value: bytes as f64,
            samples: 1,
        },
    );
    for (name, q) in [("query_p50_us", 0.5), ("query_p99_us", 0.99)] {
        values.insert(
            name,
            Value {
                value: quantile(&latencies_us, q),
                samples: latencies_us.len(),
            },
        );
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

/// One traced pass: every input decoded and analysed through the
/// generic entry point over [`TimedIndex`], each layer timed from
/// outside, then the base-order builders driven alone. Records one
/// sample per layer metric; returns the seconds spent decoding and
/// analysing, and the pass's index work.
fn traced_pass(
    inputs: &[BatchInput],
    samples: &mut Samples,
    mut check: impl FnMut(usize, Option<RunOutput>),
) -> (f64, CoreStats) {
    let mut pass: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut pass_secs = 0.0;
    let mut pass_core = CoreStats::default();
    let mut traces = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let start = Instant::now();
        let trace = input.decode();
        let decode_secs = start.elapsed().as_secs_f64();
        let parse_metric = match input.format {
            Format::Rapid => "trace.rapid_parse_s",
            Format::Text => "trace.text_parse_s",
        };
        *pass.entry(parse_metric).or_default() += decode_secs;

        take_totals();
        let start = Instant::now();
        let run = on_registry_csst!(input.analysis, &trace, TimedIndex);
        let analysis_secs = start.elapsed().as_secs_f64();
        let core = take_totals();
        pass_core.add(&core);
        let (total, own) = metric_names(input.analysis);
        *pass.entry(total).or_default() += analysis_secs;
        *pass.entry(own).or_default() += analysis_secs - core.index_ns() as f64 / 1e9;
        pass_secs += decode_secs + analysis_secs;
        check(i, run.map(|(out, _)| out));
        traces.push(trace);
    }
    let start = Instant::now();
    for (input, trace) in inputs.iter().zip(&traces) {
        base_order_alone(input.analysis, trace);
    }
    pass.insert("analyses.base_order_s", start.elapsed().as_secs_f64());
    for (name, v) in pass {
        samples.push(name, v);
    }
    (pass_secs, pass_core)
}
