//! Compatibility reader/writer for the RAPID/STD trace format.
//!
//! The tools the paper evaluates (M2, SeqCheck, and the RAPID family of
//! predictive analyses) exchange traces in a line format of the shape
//!
//! ```text
//! T0|w(V1)|100
//! T1|r(V1)|101
//! T0|acq(L2)|102
//! T0|rel(L2)|103
//! T0|fork(T1)|104
//! T0|join(T1)|105
//! ```
//!
//! `<thread>|<op>(<operand>)|<aux>` — thread, operation with operand,
//! and an auxiliary field (location/line id) that this reader accepts
//! and ignores (it may be absent). Thread, variable, and lock names are
//! arbitrary identifiers, interned in order of first appearance.
//!
//! RAPID traces carry no values; reads are given value 0 and writes a
//! running counter, so [`Trace::reads_from`] (which pairs each read
//! with the latest preceding write in trace order) behaves identically
//! to the tools' own last-writer semantics.

use crate::event::{EventKind, LockId, VarId};
use crate::text::ParseError;
use crate::trace::{check_thread, Trace};
use csst_core::ThreadId;
use std::collections::HashMap;
use std::fmt::Write as _;

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

#[derive(Default)]
struct Interner {
    map: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(name.to_owned()).or_insert(next)
    }

    /// Interns a thread name, refusing a distinct name past the shared
    /// chain limit ([`check_thread`]).
    fn thread(&mut self, name: &str, line: usize) -> Result<ThreadId, ParseError> {
        check_thread(self.intern(name)).map_err(|e| err(line, format!("thread `{name}`: {e}")))
    }
}

/// Parses a RAPID/STD-format trace.
///
/// Unknown operations (e.g. `begin`, `end`, branch events emitted by
/// some tools) are skipped. The auxiliary third field is optional.
///
/// # Errors
///
/// Returns a [`ParseError`] for structurally malformed lines, and for
/// more distinct thread names (event threads and `fork`/`join`
/// children) than the shared chain limit ([`check_thread`]) allows.
pub fn parse(input: &str) -> Result<Trace, ParseError> {
    let mut trace = Trace::new(0);
    let mut threads = Interner::default();
    let mut vars = Interner::default();
    let mut locks = Interner::default();
    let mut next_value = 1u64;

    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            continue;
        }
        let mut parts = line.split('|');
        let thread = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| err(lineno, "missing thread field"))?
            .trim();
        let op = parts
            .next()
            .ok_or_else(|| err(lineno, "missing operation field"))?
            .trim();
        // Third field (location) is optional and ignored.
        let t = threads.thread(thread, lineno)?;
        let (name, operand) = match (op.find('('), op.ends_with(')')) {
            (Some(i), true) => (&op[..i], op[i + 1..op.len() - 1].trim()),
            _ => return Err(err(lineno, format!("malformed operation `{op}`"))),
        };
        let kind = match name {
            "r" => EventKind::Read {
                var: VarId(vars.intern(operand)),
                value: 0,
            },
            "w" => {
                let value = next_value;
                next_value += 1;
                EventKind::Write {
                    var: VarId(vars.intern(operand)),
                    value,
                }
            }
            "acq" => EventKind::Acquire {
                lock: LockId(locks.intern(operand)),
            },
            "rel" => EventKind::Release {
                lock: LockId(locks.intern(operand)),
            },
            "fork" => EventKind::Fork {
                child: threads.thread(operand, lineno)?,
            },
            "join" => EventKind::Join {
                child: threads.thread(operand, lineno)?,
            },
            // Events some RAPID producers emit that carry no ordering
            // information for our analyses.
            "begin" | "end" | "branch" | "enter" | "exit" => continue,
            other => return Err(err(lineno, format!("unknown operation `{other}`"))),
        };
        trace.push(t, kind);
    }
    Ok(trace)
}

/// Serializes the lock/access/fork structure of a trace in RAPID
/// format (values and non-RAPID events are dropped; the auxiliary
/// field is the trace position).
pub fn write(trace: &Trace) -> String {
    let mut out = String::new();
    for (id, ev) in trace.iter_order() {
        let t = id.thread.0;
        let pos = ev.trace_pos;
        match ev.kind {
            EventKind::Read { var, .. } => {
                let _ = writeln!(out, "T{t}|r(V{})|{pos}", var.0);
            }
            EventKind::Write { var, .. } => {
                let _ = writeln!(out, "T{t}|w(V{})|{pos}", var.0);
            }
            EventKind::Acquire { lock } => {
                let _ = writeln!(out, "T{t}|acq(L{})|{pos}", lock.0);
            }
            EventKind::Release { lock } => {
                let _ = writeln!(out, "T{t}|rel(L{})|{pos}", lock.0);
            }
            EventKind::Fork { child } => {
                let _ = writeln!(out, "T{t}|fork(T{})|{pos}", child.0);
            }
            EventKind::Join { child } => {
                let _ = writeln!(out, "T{t}|join(T{})|{pos}", child.0);
            }
            _ => {} // atomics/heap/history events have no RAPID form
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{racy_program, RacyProgramCfg};

    const SAMPLE: &str = "\
T0|w(V1)|100
T1|r(V1)|101
T0|acq(L2)|102
T0|rel(L2)|103
T0|fork(T1)|104
T1|begin()|105
T1|end()|106
T0|join(T1)|107
";

    #[test]
    fn parses_rapid_sample() {
        let t = parse(SAMPLE).unwrap();
        assert_eq!(t.num_threads(), 2);
        assert_eq!(t.total_events(), 6, "begin/end are skipped");
        let rf = t.reads_from();
        assert_eq!(rf.len(), 1, "the read pairs with the preceding write");
    }

    #[test]
    fn aux_field_is_optional_and_names_are_free_form() {
        let t = parse("main|w(obj.field)\nworker|r(obj.field)\n").unwrap();
        assert_eq!(t.num_threads(), 2);
        assert_eq!(t.reads_from().len(), 1);
    }

    #[test]
    fn error_reporting() {
        let e = parse("T0|zap(V1)|3").unwrap_err();
        assert!(e.message.contains("unknown operation"));
        assert_eq!(e.line, 1);
        let e = parse("T0|w V1|3").unwrap_err();
        assert!(e.message.contains("malformed"));
        let e = parse("|w(V1)|3").unwrap_err();
        assert!(e.message.contains("thread"));
    }

    #[test]
    fn thread_names_beyond_the_chain_universe_are_rejected() {
        use csst_core::MAX_CHAINS;
        // 70,000 distinct names used to intern into a 40.8 GB CSST pair
        // matrix and abort the analyzer; the first name past the limit
        // is now a positioned error.
        let many: String = (0..70_000).map(|i| format!("T{i}|w(V0)|{i}\n")).collect();
        let e = parse(&many).unwrap_err();
        assert_eq!(e.line, MAX_CHAINS + 1);
        assert!(
            e.message.contains(&format!("thread `T{MAX_CHAINS}`")),
            "{e}"
        );
        assert!(e.message.contains("addressable chains"), "{e}");
        // A fork/join child counts as a distinct name too.
        let mut forks: String = (0..MAX_CHAINS - 1)
            .map(|i| format!("T{i}|w(V0)\n"))
            .collect();
        forks.push_str("T0|fork(child)\n");
        assert!(parse(&forks).is_ok(), "the last addressable name parses");
        forks.push_str("T0|join(other)\n");
        let e = parse(&forks).unwrap_err();
        assert_eq!(e.line, MAX_CHAINS + 1);
        assert!(e.message.contains("thread `other`"), "{e}");
    }

    #[test]
    fn roundtrip_of_lock_race_structure() {
        let orig = racy_program(&RacyProgramCfg {
            threads: 4,
            events_per_thread: 60,
            seed: 5,
            ..Default::default()
        });
        // Identifiers are interned by first appearance, so one round
        // trip renames threads/vars/locks; the *structure* (event
        // count, rf pairing count, critical sections) is preserved,
        // and a second round trip is the identity on the normalized
        // trace.
        let once = parse(&write(&orig)).unwrap();
        assert_eq!(orig.total_events(), once.total_events());
        assert_eq!(orig.num_threads(), once.num_threads());
        assert_eq!(orig.reads_from().len(), once.reads_from().len());
        assert_eq!(
            orig.critical_sections().len(),
            once.critical_sections().len()
        );
        let twice = parse(&write(&once)).unwrap();
        assert_eq!(once.order(), twice.order());
        assert_eq!(once.reads_from(), twice.reads_from());
        for (id, ev) in once.iter_order() {
            // Write values are re-synthesized in trace order, so the
            // full kinds coincide after the first normalization.
            assert_eq!(&ev.kind, twice.kind(id));
        }
    }

    /// Counts conflicting cross-thread write pairs that no common lock
    /// protects — a miniature race check sufficient for format tests
    /// (the full analyses live in `csst-analyses`).
    fn unprotected_write_pairs(trace: &Trace) -> usize {
        let acc = trace.var_accesses();
        let mut races = 0;
        for a in acc.values() {
            for (i, &w1) in a.writes.iter().enumerate() {
                for &w2 in &a.writes[i + 1..] {
                    if w1.thread != w2.thread {
                        let l1 = trace.locks_held_at(w1);
                        let l2 = trace.locks_held_at(w2);
                        if !l1.iter().any(|l| l2.contains(l)) {
                            races += 1;
                        }
                    }
                }
            }
        }
        races
    }

    #[test]
    fn analyses_run_on_rapid_input() {
        let trace = parse("T0|w(Vx)|1\nT1|w(Vx)|2\n").unwrap();
        assert_eq!(
            unprotected_write_pairs(&trace),
            1,
            "the two unprotected writes race"
        );
    }
}
