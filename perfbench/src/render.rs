//! Generic runs of the analyses, formatted like the registry.
//!
//! The registry (`csst_analyses::registry`) only runs its fixed index
//! types and returns formatted output. The traced run needs the same
//! analyses over [`TimedIndex`](crate::timed::TimedIndex), and the
//! `index_bytes` pass needs the final index of each report, so this
//! module calls the generic entry points with the configs the registry
//! uses and formats their reports the way the registry does. A traced
//! report can then be compared with the registry's output line by line.

use csst_analyses::registry::RunOutput;
use csst_analyses::{c11, deadlock, linearizability, membug, race, tso, uaf};
use csst_core::{NodeId, PartialOrderIndex};
use csst_trace::Trace;

/// `true` for analyses the registry runs unwindowed on the fully
/// dynamic [`Csst`] (edge deletion) rather than on [`IncrementalCsst`].
///
/// [`Csst`]: csst_core::Csst
/// [`IncrementalCsst`]: csst_core::IncrementalCsst
pub fn needs_deletion(analysis: &str) -> bool {
    analysis == "linearizability"
}

/// The registry's output of a `race` run.
pub fn race_output(races: &[(NodeId, NodeId)], candidates: usize) -> RunOutput {
    RunOutput {
        lines: races
            .iter()
            .map(|(a, b)| format!("race between {a} and {b}"))
            .collect(),
        summary: format!(
            "{} race(s) predicted from {} candidate(s)",
            races.len(),
            candidates
        ),
        exit_code: (!races.is_empty()) as u8,
    }
}

/// Runs `analysis` on `trace` through its generic entry point over
/// index `P`, with the registry's config and `window`. Returns the
/// registry-formatted output and the final index's `memory_bytes()`,
/// or `None` for a name this benchmark does not run (`hb`).
pub fn analyze<P: PartialOrderIndex>(
    analysis: &str,
    trace: &Trace,
    window: Option<usize>,
) -> Option<(RunOutput, usize)> {
    Some(match analysis {
        "race" => {
            let cfg = race::RaceCfg {
                window,
                ..Default::default()
            };
            let r = race::predict::<P>(trace, &cfg);
            (race_output(&r.races, r.candidates), r.base.memory_bytes())
        }
        "deadlock" => {
            let cfg = deadlock::DeadlockCfg {
                window,
                ..Default::default()
            };
            let r = deadlock::predict::<P>(trace, &cfg);
            let out = RunOutput {
                lines: r
                    .deadlocks
                    .iter()
                    .map(|d| {
                        format!(
                            "deadlock: {} acquires {} holding {}, {} acquires {} holding {}",
                            d.first.inner_acq,
                            d.first.inner,
                            d.first.outer,
                            d.second.inner_acq,
                            d.second.inner,
                            d.second.outer
                        )
                    })
                    .collect(),
                summary: format!(
                    "{} deadlock(s) predicted from {} pattern(s)",
                    r.deadlocks.len(),
                    r.patterns
                ),
                exit_code: (!r.deadlocks.is_empty()) as u8,
            };
            (out, r.base.memory_bytes())
        }
        "membug" => {
            let cfg = membug::MemBugCfg {
                window,
                ..Default::default()
            };
            let r = membug::predict::<P>(trace, &cfg);
            let out = RunOutput {
                lines: r
                    .bugs
                    .iter()
                    .map(|bug| match bug {
                        membug::MemBug::UseAfterFree {
                            obj,
                            use_event,
                            free_event,
                        } => {
                            format!("use-after-free of {obj}: use {use_event} vs free {free_event}")
                        }
                        membug::MemBug::DoubleFree { obj, first, second } => {
                            format!("double free of {obj}: {first} and {second}")
                        }
                    })
                    .collect(),
                summary: format!("{} bug(s) predicted", r.bugs.len()),
                exit_code: (!r.bugs.is_empty()) as u8,
            };
            (out, r.base.memory_bytes())
        }
        "uaf" => {
            let cfg = uaf::UafCfg {
                window,
                ..Default::default()
            };
            let r = uaf::generate::<P>(trace, &cfg);
            let out = RunOutput {
                lines: r
                    .candidates
                    .iter()
                    .take(20)
                    .map(|c| {
                        format!(
                            "candidate: {} use {} vs free {} ({} constraints)",
                            c.obj, c.use_event, c.free_event, c.constraints
                        )
                    })
                    .collect(),
                summary: format!(
                    "{} candidate(s) ({} pruned), {} total constraints for the solver",
                    r.candidates.len(),
                    r.pruned,
                    r.total_constraints
                ),
                exit_code: 0,
            };
            (out, r.base.memory_bytes())
        }
        "tso" => {
            let cfg = tso::TsoCheckCfg {
                window,
                ..Default::default()
            };
            let r = tso::check::<P>(trace, &cfg);
            let out = RunOutput {
                lines: Vec::new(),
                summary: format!(
                    "history is {} under x86-TSO ({} ordering(s) inferred, {} round(s))",
                    if r.consistent {
                        "CONSISTENT"
                    } else {
                        "INCONSISTENT"
                    },
                    r.inserted,
                    r.rounds
                ),
                exit_code: (!r.consistent) as u8,
            };
            (out, r.po.memory_bytes())
        }
        "c11" => {
            let cfg = c11::C11Cfg {
                window,
                ..Default::default()
            };
            let r = c11::detect::<P>(trace, &cfg);
            let out = RunOutput {
                lines: r
                    .races
                    .iter()
                    .take(20)
                    .map(|(a, b)| format!("race between {a} and {b}"))
                    .collect(),
                summary: format!(
                    "{} race(s); {} synchronizes-with edge(s), {} from-read edge(s)",
                    r.races.len(),
                    r.sw_edges,
                    r.fr_edges
                ),
                exit_code: (!r.races.is_empty()) as u8,
            };
            (out, r.hb.memory_bytes())
        }
        "linearizability" => {
            let cfg = linearizability::LinCfg {
                window,
                ..Default::default()
            };
            let r = linearizability::analyze::<P>(trace, &cfg);
            let out = match r.verdict {
                linearizability::LinVerdict::Linearizable(order) => RunOutput {
                    lines: Vec::new(),
                    summary: format!(
                        "linearizable; one witness order of {} ops found",
                        order.len()
                    ),
                    exit_code: 0,
                },
                linearizability::LinVerdict::Violation(rc) => RunOutput {
                    lines: Vec::new(),
                    summary: format!(
                        "NOT linearizable; longest legal prefix has {} ops; blocked frontier: {:?}",
                        rc.executed, rc.blocked
                    ),
                    exit_code: 1,
                },
                linearizability::LinVerdict::Unknown => RunOutput {
                    lines: Vec::new(),
                    summary: "search budget exhausted".into(),
                    exit_code: 3,
                },
            };
            (out, r.po.memory_bytes())
        }
        _ => return None,
    })
}

/// Field-by-field equality of two outputs (`RunOutput` has no
/// `PartialEq`).
pub fn same_output(a: &RunOutput, b: &RunOutput) -> bool {
    a.exit_code == b.exit_code && a.summary == b.summary && a.lines == b.lines
}
