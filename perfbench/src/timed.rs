//! The benchmark's view of the `core` layer: a wrapper that counts and
//! times every call an analysis makes into its partial-order index.
//!
//! The wrapper forwards every method an index implements or overrides:
//! the required ones, `with_capacity`, `insert_edges_raw`, `reachable`
//! and the three `*_batch` methods. A wrapper that fell back to the
//! trait's per-probe defaults would silently bypass the group sweeps of
//! the fully dynamic CSSTs. The validating entry points (`insert_edge`,
//! `insert_edges`, `delete_edge`, `insert_edge_checked`, `append`) keep
//! the trait defaults, exactly as in `csst_analyses::CountingIndex`, so
//! their work lands in the timed hooks below and the counts of the two
//! wrappers agree.
//!
//! Analyses build short-lived indexes (one per witness check), so each
//! wrapper adds its figures to a process-wide total when it is dropped;
//! [`take_totals`] reads and resets that total.

use csst_core::{NodeId, PartialOrderIndex, PoError, Pos, ThreadId};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// Work done inside index calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Edges inserted, single or batched.
    pub inserts: u64,
    /// Edges deleted.
    pub deletes: u64,
    /// `reachable` probes, single or batched.
    pub reachable: u64,
    /// `successor` probes, single or batched.
    pub successor: u64,
    /// `predecessor` probes, single or batched.
    pub predecessor: u64,
    /// Calls of `insert_edges_raw` and the three `*_batch` methods.
    pub batch_calls: u64,
    /// Nanoseconds inside insert hooks.
    pub insert_ns: u64,
    /// Nanoseconds inside delete hooks.
    pub delete_ns: u64,
    /// Nanoseconds inside query methods.
    pub query_ns: u64,
}

impl CoreStats {
    const ZERO: CoreStats = CoreStats {
        inserts: 0,
        deletes: 0,
        reachable: 0,
        successor: 0,
        predecessor: 0,
        batch_calls: 0,
        insert_ns: 0,
        delete_ns: 0,
        query_ns: 0,
    };

    /// Probes of every kind.
    pub fn probes(&self) -> u64 {
        self.reachable + self.successor + self.predecessor
    }

    /// Nanoseconds inside any index call.
    pub fn index_ns(&self) -> u64 {
        self.insert_ns + self.delete_ns + self.query_ns
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CoreStats) {
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.reachable += other.reachable;
        self.successor += other.successor;
        self.predecessor += other.predecessor;
        self.batch_calls += other.batch_calls;
        self.insert_ns += other.insert_ns;
        self.delete_ns += other.delete_ns;
        self.query_ns += other.query_ns;
    }
}

static TOTALS: Mutex<CoreStats> = Mutex::new(CoreStats::ZERO);

/// The figures of every wrapper dropped since the last call; resets
/// the total.
pub fn take_totals() -> CoreStats {
    let mut totals = TOTALS
        .lock()
        .expect("core totals lock is never held across a panic");
    std::mem::replace(&mut *totals, CoreStats::ZERO)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An index wrapper that counts and times every call (see the module
/// docs).
#[derive(Debug)]
pub struct TimedIndex<P> {
    inner: P,
    stats: Cell<CoreStats>,
}

impl<P> TimedIndex<P> {
    /// This wrapper's own figures so far.
    #[cfg(test)]
    pub fn stats(&self) -> CoreStats {
        self.stats.get()
    }

    fn record(&self, update: impl FnOnce(&mut CoreStats)) {
        let mut s = self.stats.get();
        update(&mut s);
        self.stats.set(s);
    }
}

impl<P> Drop for TimedIndex<P> {
    fn drop(&mut self) {
        // A poisoned lock only loses figures; never panic in drop.
        if let Ok(mut totals) = TOTALS.lock() {
            totals.add(&self.stats.get());
        }
    }
}

impl<P: PartialOrderIndex> PartialOrderIndex for TimedIndex<P> {
    fn new() -> Self {
        TimedIndex {
            inner: P::new(),
            stats: Cell::new(CoreStats::ZERO),
        }
    }

    fn with_capacity(chains: usize, chain_capacity: usize) -> Self {
        TimedIndex {
            inner: P::with_capacity(chains, chain_capacity),
            stats: Cell::new(CoreStats::ZERO),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn chains(&self) -> usize {
        self.inner.chains()
    }

    fn chain_len(&self, chain: ThreadId) -> usize {
        self.inner.chain_len(chain)
    }

    fn ensure_chain(&mut self, chain: ThreadId) {
        self.inner.ensure_chain(chain);
    }

    fn ensure_len(&mut self, chain: ThreadId, len: usize) {
        self.inner.ensure_len(chain, len);
    }

    fn insert_edge_raw(&mut self, from: NodeId, to: NodeId) {
        let start = Instant::now();
        self.inner.insert_edge_raw(from, to);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.inserts += 1;
            s.insert_ns += ns;
        });
    }

    fn insert_edges_raw(&mut self, edges: &[(NodeId, NodeId)]) {
        let start = Instant::now();
        self.inner.insert_edges_raw(edges);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.inserts += edges.len() as u64;
            s.batch_calls += 1;
            s.insert_ns += ns;
        });
    }

    fn delete_edge_raw(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        let start = Instant::now();
        let result = self.inner.delete_edge_raw(from, to);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.deletes += 1;
            s.delete_ns += ns;
        });
        result
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        let start = Instant::now();
        let answer = self.inner.reachable(from, to);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.reachable += 1;
            s.query_ns += ns;
        });
        answer
    }

    fn successor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let start = Instant::now();
        let answer = self.inner.successor(from, chain);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.successor += 1;
            s.query_ns += ns;
        });
        answer
    }

    fn predecessor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let start = Instant::now();
        let answer = self.inner.predecessor(from, chain);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.predecessor += 1;
            s.query_ns += ns;
        });
        answer
    }

    fn reachable_batch(&self, probes: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        let start = Instant::now();
        self.inner.reachable_batch(probes, out);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.reachable += probes.len() as u64;
            s.batch_calls += 1;
            s.query_ns += ns;
        });
    }

    fn successor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        let start = Instant::now();
        self.inner.successor_batch(probes, out);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.successor += probes.len() as u64;
            s.batch_calls += 1;
            s.query_ns += ns;
        });
    }

    fn predecessor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        let start = Instant::now();
        self.inner.predecessor_batch(probes, out);
        let ns = elapsed_ns(start);
        self.record(|s| {
            s.predecessor += probes.len() as u64;
            s.batch_calls += 1;
            s.query_ns += ns;
        });
    }

    fn supports_deletion(&self) -> bool {
        self.inner.supports_deletion()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_analyses::registry::{self, IndexKind};
    use csst_analyses::{c11, deadlock, hb, linearizability, membug, race, tso, uaf};
    use csst_analyses::{CountingIndex, OpCounters};
    use csst_core::{Csst, IncrementalCsst};

    /// The final index of `analysis` run over index type `$p` with the
    /// registry's config.
    macro_rules! final_index {
        ($analysis:expr, $p:ty, $trace:expr) => {
            match $analysis {
                "hb" => hb::detect::<$p>($trace).hb,
                "race" => race::predict::<$p>($trace, &Default::default()).base,
                "deadlock" => deadlock::predict::<$p>($trace, &Default::default()).base,
                "membug" => membug::predict::<$p>($trace, &Default::default()).base,
                "uaf" => uaf::generate::<$p>($trace, &Default::default()).base,
                "tso" => tso::check::<$p>($trace, &Default::default()).po,
                "c11" => c11::detect::<$p>($trace, &Default::default()).hb,
                "linearizability" => linearizability::analyze::<$p>($trace, &Default::default()).po,
                other => panic!("no such analysis `{other}`"),
            }
        };
    }

    fn counts(c: &OpCounters) -> [u64; 5] {
        [
            c.inserts.get(),
            c.deletes.get(),
            c.reachables.get(),
            c.successors.get(),
            c.predecessors.get(),
        ]
    }

    fn timed_counts(s: &CoreStats) -> [u64; 5] {
        [
            s.inserts,
            s.deletes,
            s.reachable,
            s.successor,
            s.predecessor,
        ]
    }

    #[test]
    fn counts_match_counting_index_on_every_analysis() {
        for entry in registry::entries() {
            let trace = entry.demo_trace();
            let (counting, timed) = if entry.name == "linearizability" {
                let c = counts(final_index!(entry.name, CountingIndex<Csst>, &trace).counters());
                let t = timed_counts(&final_index!(entry.name, TimedIndex<Csst>, &trace).stats());
                (c, t)
            } else {
                let c = counts(
                    final_index!(entry.name, CountingIndex<IncrementalCsst>, &trace).counters(),
                );
                let t = timed_counts(
                    &final_index!(entry.name, TimedIndex<IncrementalCsst>, &trace).stats(),
                );
                (c, t)
            };
            assert_eq!(timed, counting, "{}: wrapper counts differ", entry.name);
            assert!(
                timed.iter().sum::<u64>() > 0,
                "{}: no index work",
                entry.name
            );
        }
    }

    #[test]
    fn traced_reports_equal_the_registry() {
        // Every analysis the batch workloads run (all but `hb`).
        for entry in registry::entries().iter().filter(|e| e.name != "hb") {
            let trace = entry.demo_trace();
            let want = entry
                .run(&trace, IndexKind::Csst, None)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            let (got, _) = if crate::render::needs_deletion(entry.name) {
                crate::render::analyze::<TimedIndex<Csst>>(entry.name, &trace, None)
            } else {
                crate::render::analyze::<TimedIndex<IncrementalCsst>>(entry.name, &trace, None)
            }
            .expect("every registry analysis renders");
            assert!(
                crate::render::same_output(&got, &want),
                "{}: traced report differs from the registry's",
                entry.name
            );
        }
    }

    #[test]
    fn batch_methods_reach_the_inner_index() {
        let mut po = TimedIndex::<Csst>::new();
        po.insert_edges(&[
            (NodeId::new(0, 3), NodeId::new(1, 4)),
            (NodeId::new(1, 6), NodeId::new(2, 1)),
        ])
        .unwrap();
        let mut plain = Csst::new();
        plain
            .insert_edges(&[
                (NodeId::new(0, 3), NodeId::new(1, 4)),
                (NodeId::new(1, 6), NodeId::new(2, 1)),
            ])
            .unwrap();
        let reach = [
            (NodeId::new(0, 0), NodeId::new(2, 5)),
            (NodeId::new(0, 4), NodeId::new(1, 9)),
        ];
        let chains = [
            (NodeId::new(0, 1), ThreadId(2)),
            (NodeId::new(2, 3), ThreadId(0)),
        ];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        po.reachable_batch(&reach, &mut got);
        plain.reachable_batch(&reach, &mut want);
        assert_eq!(got, want);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        po.successor_batch(&chains, &mut got);
        plain.successor_batch(&chains, &mut want);
        assert_eq!(got, want);
        po.predecessor_batch(&chains, &mut got);
        plain.predecessor_batch(&chains, &mut want);
        assert_eq!(got, want);
        let s = po.stats();
        assert_eq!(
            (s.inserts, s.reachable, s.successor, s.predecessor),
            (2, 2, 2, 2)
        );
        assert_eq!(s.batch_calls, 4, "one insert batch and three probe batches");
    }
}
