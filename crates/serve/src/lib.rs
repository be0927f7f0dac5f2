//! # csst-serve — the streaming analysis service
//!
//! The paper frames CSSTs as the data structure for *online* analyses
//! over unbounded event streams. This crate supplies the systems layer
//! that claim implies:
//!
//! * **`csst-serve`** ([`server`], [`proto`]) — a long-running service
//!   accepting concurrent trace sessions over TCP or Unix sockets with
//!   length-prefixed framing; each session picks its analysis, index
//!   representation, wire format ([`csst_trace::binary`], text or
//!   rapid), window and (for `race`) witness-worker count in the HELLO
//!   frame, streams events, and can interleave online race/ordering
//!   queries before collecting a final report formatted exactly like
//!   the batch CLI's. `hb` sessions run the sequential
//!   [`HbDetector`](csst_analyses::hb::HbDetector); sessions are
//!   independent, so the service uses many cores by running many
//!   sessions at once.
//! * **Witness fan-out** ([`race`]) — [`ShardedRace`] fans the
//!   per-candidate witness checks of race prediction out over scoped
//!   threads and reports *bit-identical* results to the sequential
//!   predictor — pinned by unit tests here and property tests in the
//!   workspace `tests/`.
//! * **`csst-client`** ([`client`]) — the driver: stream a trace file
//!   or a registry demo workload into a server, query it, fetch the
//!   report, optionally cross-check against a local batch run.
//! * **Fault containment** ([`error`], [`fault`]) — a [`ServeError`]
//!   taxonomy replaces panics and unwraps throughout the subsystem;
//!   `catch_unwind` boundaries at session threads and witness workers
//!   keep any single-component failure contained to one session (a
//!   panicked witness chunk is re-checked sequentially; any other
//!   panic ends its session with a structured ERROR frame) while the
//!   server and every other session keep running. A deterministic,
//!   seeded [`FaultPlan`] injection layer (env/flag-driven) exercises
//!   those boundaries in `scripts/fault_smoke.sh` and the `faults`
//!   integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod fault;
pub mod proto;
pub mod race;
pub mod server;

pub use client::Client;
pub use error::ServeError;
pub use fault::FaultPlan;
pub use proto::{Hello, Report, WireFormat};
pub use race::{ShardedRace, ShardedRaceReport};
pub use server::{Server, ServerCfg};
