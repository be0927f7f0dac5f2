//! # csst-trace — concurrent execution traces for the CSSTs reproduction
//!
//! The CSSTs paper evaluates its data structure inside seven dynamic
//! concurrency analyses, each of which consumes *traces*: per-thread
//! sequences of events (reads/writes, lock operations, allocations,
//! C11 atomics, method invocations, …) observed from a concurrent
//! execution.
//!
//! This crate provides the trace substrate those analyses run on:
//!
//! * [`Event`]/[`EventKind`] — the event model, covering every event
//!   class the paper's analyses interpret;
//! * [`Trace`] — the container: per-thread chains plus the observed
//!   total order, with derived views (reads-from map, critical
//!   sections, per-variable access lists);
//! * [`TraceBuilder`] — ergonomic construction with name interning;
//! * [`text`] — a line-based interchange format (parser + writer) with
//!   full event coverage, plus [`rapid`], a compatibility reader/writer
//!   for the RAPID/STD format the paper's tools exchange;
//! * [`gen`] — seeded synthetic workload generators, one family per
//!   analysis (racy programs, lock hierarchies, allocator lifetimes,
//!   x86-TSO histories, C11 atomics, concurrent-object histories).
//!   These replace the paper's closed-source tool datasets; see
//!   DESIGN.md §5 for the substitution argument.
//! * [`sc`] — linearization helpers (Kahn's algorithm over chain DAGs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod builder;
pub mod event;
pub mod gen;
pub mod rapid;
pub mod sc;
pub mod text;
pub mod trace;

pub use builder::TraceBuilder;
pub use event::{Event, EventKind, LockId, MemOrder, Method, ObjId, OpId, VarId};
pub use trace::{check_thread, CriticalSection, ThreadLimitError, Trace, VarAccesses};

pub use csst_core::{NodeId, ThreadId};
