//! Seeded workload inputs.
//!
//! Every trace comes from a `csst_trace::gen` generator with the
//! parameters of one row of the paper's tables, as written in
//! `crates/bench/src/tables.rs` (kept private there, so restated here).
//! The workload seed is mixed into each row's own seed: the same seed
//! gives the same inputs, and the programs under test only ever see
//! the generated, encoded traces.

use csst_trace::gen::{
    alloc_program, c11_program, lock_program, object_history, racy_program, tso_history,
    AllocProgramCfg, C11Cfg, LockProgramCfg, ObjectHistoryCfg, RacyProgramCfg, TsoCfg,
};
use csst_trace::{rapid, text, Trace};

/// The serialization a batch trace is decoded from inside the timed
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// RAPID/STD lines, the format the paper's M2 and SeqCheck read.
    Rapid,
    /// The native text format.
    Text,
}

/// One batch input: an encoded trace and the analysis to run on it.
pub struct BatchInput {
    /// Registry name of the analysis.
    pub analysis: &'static str,
    /// Table row the trace was generated from.
    pub profile: String,
    /// Serialization of `encoded`.
    pub format: Format,
    /// The encoded trace.
    pub encoded: String,
}

impl BatchInput {
    /// Decodes the trace.
    ///
    /// # Panics
    ///
    /// Never on inputs from [`batch`]: they are written by the same
    /// crate's encoders.
    pub fn decode(&self) -> Trace {
        match self.format {
            Format::Rapid => rapid::parse(&self.encoded),
            Format::Text => text::parse(&self.encoded),
        }
        .expect("benchmark inputs are produced by the matching encoder")
    }
}

/// SplitMix64 finalizer: mixes the workload seed into a row's seed.
fn mix(row_seed: u64, seed: u64) -> u64 {
    let mut z = row_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of program `k` of a workload seeded with `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    mix(k, seed)
}

fn scaled(events: usize, scale: f64) -> usize {
    ((events as f64 * scale) as usize).max(8)
}

fn encode(analysis: &'static str, profile: &str, format: Format, trace: &Trace) -> BatchInput {
    BatchInput {
        analysis,
        profile: profile.to_string(),
        format,
        encoded: match format {
            Format::Rapid => rapid::write(trace),
            Format::Text => text::write(trace),
        },
    }
}

/// A Table 1 race profile (M2-style prediction, also the racy program
/// `serve-race-window` streams).
pub fn racy(profile: &str, seed: u64) -> Trace {
    // (name, threads, events/thread, vars, locks, lock_frac, shared_frac)
    let rows: &[(&str, usize, usize, usize, usize, f64, f64)] = &[
        ("lang", 10, 1500, 8, 2, 0.45, 0.15),
        ("moldyn", 6, 9000, 8, 2, 0.40, 0.10),
        ("derby", 7, 12000, 14, 4, 0.55, 0.05),
        ("xalan", 9, 20000, 18, 5, 0.60, 0.03),
    ];
    let &(name, threads, epp, vars, locks, lock_frac, shared_frac) = rows
        .iter()
        .find(|r| r.0 == profile)
        .expect("known Table 1 profile");
    racy_program(&RacyProgramCfg {
        threads,
        events_per_thread: epp,
        vars,
        locks,
        lock_frac,
        write_frac: 0.4,
        shared_frac,
        seed: mix(0xC5517 ^ name.len() as u64, seed),
    })
}

/// Deadlock rows of Table 2 run at this share of their size: the
/// registry's deadlock config checks every pattern (no cap), and its
/// cost grows with the square of the pattern count.
const DEADLOCK_SCALE: f64 = 0.01;

/// TSO (Table 4) and C11 (Table 6) rows run at this share of their
/// size, so that one pass over all of them takes about a second.
const DENSE_SCALE: f64 = 0.25;

/// Inputs of `batch-predict`: race, deadlock, membug, uaf and
/// linearizability rows (Tables 1, 2, 3, 5 and 7), each generated with
/// [`PREDICT_SEEDS`] seeds derived from the workload seed.
pub fn batch_predict(seed: u64) -> Vec<BatchInput> {
    (0..PREDICT_SEEDS)
        .flat_map(|k| predict_rows(sub_seed(seed, k)))
        .collect()
}

/// Seeds per `batch-predict` row. How much witness checking a race or
/// deadlock trace needs varies with its seed (the race rows' time by up
/// to a factor of two), so a pass averages each row over several seeds.
const PREDICT_SEEDS: u64 = 3;

/// One seed's `batch-predict` rows.
fn predict_rows(seed: u64) -> Vec<BatchInput> {
    let mut out = Vec::new();
    for name in ["lang", "moldyn", "derby", "xalan"] {
        let trace = racy(name, seed);
        out.push(encode("race", name, Format::Rapid, &trace));
    }
    // (name, threads, blocks/thread, locks, inversion_frac)
    for (name, threads, blocks, locks, inversion_frac) in [
        ("elevator", 5, 1500, 5, 0.06),
        ("hedc", 7, 1800, 6, 0.06),
        ("JDBCMySQL", 3, 4000, 4, 0.05),
        ("cache4j", 2, 10000, 4, 0.04),
    ] {
        let trace = lock_program(&LockProgramCfg {
            threads,
            blocks_per_thread: scaled(blocks, DEADLOCK_SCALE),
            locks,
            inversion_frac,
            guard_frac: 0.3,
            vars: 10,
            seed: mix(0xDEAD ^ name.len() as u64, seed),
        });
        out.push(encode("deadlock", name, Format::Rapid, &trace));
    }
    // (analysis, name, threads, objects, derefs/object, protected_frac,
    // remote_free_frac, row seed)
    for (analysis, name, threads, objects, derefs, protected_frac, remote_free_frac, row_seed) in [
        ("membug", "pigz", 6, 2000, 6, 0.30, 0.5, 0xA110C_u64),
        ("membug", "x264", 7, 4500, 6, 0.35, 0.5, 0xA110C),
        ("membug", "x265", 15, 7000, 6, 0.35, 0.5, 0xA110C),
        ("uaf", "BoundedBuffer", 11, 2000, 8, 0.30, 0.6, 0x0F0),
        ("uaf", "DiningPhil", 21, 2500, 8, 0.35, 0.6, 0x0F0),
        ("uaf", "qtsort", 6, 6000, 8, 0.35, 0.6, 0x0F0),
    ] {
        let trace = alloc_program(&AllocProgramCfg {
            threads,
            objects,
            derefs_per_object: derefs,
            protected_frac,
            confined_frac: 0.4,
            remote_free_frac,
            locks: 3,
            seed: mix(row_seed ^ name.len() as u64, seed),
            max_events: None,
        });
        out.push(encode(analysis, name, Format::Text, &trace));
    }
    // (object, threads, ops/thread, row index in Table 7)
    for (name, threads, ops, row) in [
        ("LogicalOrderingAVL", 3, 500, 2_u64),
        ("OptimisticList", 3, 640, 7),
        ("RWLockCoarseList", 3, 960, 11),
    ] {
        let trace = object_history(&ObjectHistoryCfg {
            threads,
            ops_per_thread: ops,
            key_range: 5,
            violation: true,
            seed: mix(0x11A ^ row, seed),
        });
        out.push(encode("linearizability", name, Format::Text, &trace));
    }
    out
}

/// Inputs of `batch-dense`: Table 4 (x86-TSO) rows and the two densest
/// Table 6 (C11) rows. Left out are the Table 4 rows whose CSST time
/// would dominate a pass: seqlock and indexer, and the lock rows shaped
/// like mcs-lock (spinlock, ttaslock, mutex, twalock, mpmc), for which
/// mcs-lock stands.
pub fn batch_dense(seed: u64) -> Vec<BatchInput> {
    let mut out = Vec::new();
    // (name, threads, events/thread, vars)
    let tso_rows: &[(&str, usize, usize, usize)] = &[
        ("dekker", 3, 900, 3),
        ("peterson", 3, 1000, 3),
        ("lamport", 3, 1500, 4),
        ("dq", 4, 1300, 4),
        ("chase-lev", 5, 1100, 4),
        ("szymanski", 3, 2100, 3),
        ("buf-ring", 9, 1100, 6),
        ("mcs-lock", 11, 1400, 6),
        ("spsc", 3, 3200, 3),
        ("linuxrwlocks", 6, 1900, 4),
        ("fib-bench", 3, 4000, 3),
        ("exp-bug", 4, 3400, 4),
        ("ticketlock", 6, 3100, 4),
        ("gcd", 3, 5600, 3),
        ("treiber", 6, 4000, 4),
        ("barrier", 5, 5600, 4),
    ];
    for &(name, threads, epp, vars) in tso_rows {
        let trace = tso_history(&TsoCfg {
            threads,
            events_per_thread: scaled(epp, DENSE_SCALE),
            vars,
            flush_frac: 0.35,
            store_frac: 0.5,
            seed: mix(0x7150 ^ name.len() as u64, seed),
        });
        out.push(encode("tso", name, Format::Text, &trace));
    }
    // (name, threads, events/thread, middle_sync_frac)
    for (name, threads, epp, middle) in [
        ("readerswriters", 13, 12000, 0.25),
        ("atomicblocks", 33, 7500, 0.25),
    ] {
        let trace = c11_program(&C11Cfg {
            threads,
            events_per_thread: scaled(epp, DENSE_SCALE),
            atomic_vars: 4,
            plain_vars: 6,
            release_frac: 0.6,
            plain_frac: 0.35,
            rmw_frac: 0.15,
            middle_sync_frac: middle,
            seed: mix(0xC11 ^ name.len() as u64, seed),
        });
        out.push(encode("c11", name, Format::Text, &trace));
    }
    out
}
