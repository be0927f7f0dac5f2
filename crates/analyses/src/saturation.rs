//! The saturation engine: closure of a partial order under
//! reads-from-maximality and lock-mutual-exclusion rules.
//!
//! Given a trace, a reads-from map, and a partial-order index, the
//! engine repeatedly infers *necessary* orderings (§1.1: "the process
//! of inferring such orderings is known as saturation, and is used
//! widely in dynamic analyses"):
//!
//! * **Reads-from maximality** — if read `r` observes write `w`, every
//!   conflicting write `w'` must be ordered either before `w` or after
//!   `r`; when the current order places `w'` before `r`, the edge
//!   `w' → w` becomes mandatory, and when it places `w` before `w'`,
//!   the edge `r → w'` becomes mandatory.
//! * **Lock mutual exclusion** — two critical sections on the same
//!   lock cannot overlap: once one acquire is ordered before the other
//!   section's release, the first release must precede the second
//!   acquire.
//!
//! The fixpoint works on *frontiers*: each rule asks the index for the
//! latest predecessor / earliest successor per chain (the
//! `predecessor`/`successor` operations of §2.2) and relates only the
//! boundary event — all others follow by program order. This is how
//! the real tools drive the data structure, and it keeps the query
//! count proportional to the constraint count.
//!
//! The engine also runs in *prefix-restricted* mode, the workhorse of
//! the predictive witness checks (race/deadlock/memory bugs): a witness
//! is a correct reordering of a *prefix* of the trace that co-enables
//! the candidate events, so only prefix events participate in the
//! rules, sections left open by the prefix must not collide, and closed
//! sections must complete before open ones begin.
//!
//! Witness checks run once per candidate over a fresh index, so all
//! trace-level preprocessing is hoisted into a [`ClosureCtx`] built once
//! per analysis (or window). It interns variables and locks into dense
//! indices and keeps every per-chain table sorted by position — the
//! closure's pull lists, the section lists with a running maximum of
//! their releases, the write positions — so a check reaches its
//! prefix's share of each table by cursor or binary search and costs
//! time in its prefix rather than in the whole trace.

use crate::common::{require_order, OrderOutcome};
use csst_core::{NodeId, PartialOrderIndex, Pos, ThreadId};
use csst_trace::{EventKind, LockId, Trace, VarId};
use std::collections::HashMap;

/// Saturation statistics and verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationOutcome {
    /// `false` if a rule derived a contradiction (the observation is
    /// infeasible under the current constraints).
    pub consistent: bool,
    /// Number of edges inserted across all rounds.
    pub inserted: usize,
    /// Number of fixpoint rounds executed.
    pub rounds: usize,
}

impl SaturationOutcome {
    fn inconsistent(inserted: usize, rounds: usize) -> Self {
        SaturationOutcome {
            consistent: false,
            inserted,
            rounds,
        }
    }
}

/// Configuration of the saturation engine.
#[derive(Debug, Clone)]
pub struct SaturationCfg {
    /// Apply the lock mutual-exclusion rule.
    pub locks: bool,
    /// Only relate events whose trace-order distance is below this
    /// window (mirrors the windowing of practical predictive tools);
    /// `None` disables windowing.
    pub window: Option<u32>,
    /// Safety valve: stop after this many rounds.
    pub max_rounds: usize,
}

impl Default for SaturationCfg {
    fn default() -> Self {
        SaturationCfg {
            locks: true,
            window: None,
            max_rounds: 64,
        }
    }
}

/// Per-thread exclusive prefix bounds: event `⟨t, i⟩` belongs to the
/// prefix iff `i < bounds[t]`.
pub type PrefixBounds = Vec<u32>;

/// Trace-level tables shared by every closure/witness computation of
/// one analysis run. Variables and locks are interned into dense
/// indices and every per-chain table is sorted by position, so a
/// witness check finds its prefix's share of each table by cursor or
/// binary search instead of scanning the whole trace.
#[derive(Debug)]
pub struct ClosureCtx<'t> {
    /// The underlying trace.
    pub trace: &'t Trace,
    /// The observation: read → writer.
    pub rf: HashMap<NodeId, NodeId>,
    /// rf pairs of shared variables with the variable's dense index,
    /// grouped by (variable, read position): the closure engine works
    /// constraint-by-constraint, *not* in trace order — every variable
    /// group restarts from the beginning of the trace, so insertions
    /// repeatedly target events deep inside the partial order (the
    /// non-streaming pattern of §1.1). The streaming alternative is
    /// [`insert_observation`], used for base orders. Reads of variables
    /// only one thread accesses are left out (the standard
    /// thread-local filter).
    rf_grouped: Vec<(NodeId, NodeId, u32)>,
    /// Sorted write positions of each shared variable on each chain
    /// `t` of the `k`, at `var * k + t`.
    writes_at: Vec<Vec<Pos>>,
    /// All critical sections of the trace, in trace order of their
    /// acquires.
    sections: Vec<Section>,
    /// Number of distinct locks (the dense lock indices of `sections`).
    locks: usize,
    /// Each chain's sections, in acquire order.
    thread_sections: Vec<Vec<ThreadSection>>,
    /// Each chain's prefix-closure pulls `(pos, chain, bound)`, sorted:
    /// once event `pos` is in the prefix, so are the first `bound`
    /// events of `chain`. Reads pull in their writer (unless program
    /// order already does), joins the whole joined thread.
    pulls: Vec<Vec<(Pos, u32, Pos)>>,
    /// Fork event per child thread.
    forker: Vec<Option<NodeId>>,
    /// All fork/join events, for prefix-restricted edge insertion.
    fork_join: Vec<(NodeId, EventKind)>,
}

/// A critical section with its lock interned.
#[derive(Debug, Clone, Copy)]
struct Section {
    lock: u32,
    acquire: NodeId,
    release: Option<NodeId>,
}

/// One entry of a chain's section list.
#[derive(Debug, Clone, Copy)]
struct ThreadSection {
    /// Acquire position on the chain.
    acquire: Pos,
    /// Largest `release + 1` over this and the chain's earlier
    /// sections; unreleased sections contribute nothing.
    reach: Pos,
    /// Index into [`ClosureCtx::sections`].
    ix: u32,
}

impl<'t> ClosureCtx<'t> {
    /// Builds the context (linear passes over the trace and the
    /// reads-from map, which is the trace's own if `rf` is `None`).
    pub fn new(trace: &'t Trace, rf: Option<HashMap<NodeId, NodeId>>) -> Self {
        let rf = rf.unwrap_or_else(|| trace.reads_from());
        let k = trace.num_threads();
        let mut var_ix: HashMap<VarId, u32> = HashMap::new();
        // Per variable: its only accessing thread, `None` once shared.
        let mut owner: Vec<Option<ThreadId>> = Vec::new();
        let mut writes: Vec<(u32, NodeId)> = Vec::new();
        let mut forker: Vec<Option<NodeId>> = vec![None; k];
        let mut fork_join = Vec::new();
        for (id, ev) in trace.iter_order() {
            if let Some(var) = ev.kind.var() {
                let ix = *var_ix.entry(var).or_insert_with(|| {
                    owner.push(Some(id.thread));
                    (owner.len() - 1) as u32
                });
                if owner[ix as usize] != Some(id.thread) {
                    owner[ix as usize] = None;
                }
                if ev.kind.is_plain_write() {
                    writes.push((ix, id));
                }
            }
            match ev.kind {
                EventKind::Fork { child } => {
                    if child.index() < k && forker[child.index()].is_none() {
                        forker[child.index()] = Some(id);
                    }
                    fork_join.push((id, ev.kind));
                }
                EventKind::Join { .. } => fork_join.push((id, ev.kind)),
                _ => {}
            }
        }
        // Dense indices of the shared variables (accessed by more than
        // one thread); thread-local reads are no-ops for every rule
        // (their rf edge is implied by program order and no cross-chain
        // constraint can involve them).
        let mut shared = 0u32;
        let shared_ix: Vec<Option<u32>> = owner
            .iter()
            .map(|o| {
                o.is_none().then(|| {
                    shared += 1;
                    shared - 1
                })
            })
            .collect();
        let mut writes_at: Vec<Vec<Pos>> = vec![Vec::new(); shared as usize * k];
        for (ix, id) in writes {
            if let Some(v) = shared_ix[ix as usize] {
                writes_at[v as usize * k + id.thread.index()].push(id.pos);
            }
        }
        let mut rf_grouped: Vec<(NodeId, NodeId, u32)> = rf
            .iter()
            .filter_map(|(&r, &w)| {
                let v = shared_ix[var_ix[&trace.kind(r).var()?] as usize]?;
                Some((r, w, v))
            })
            .collect();
        rf_grouped.sort_unstable_by_key(|&(r, _, _)| {
            (trace.kind(r).var().map(|v| v.0), trace.trace_pos(r))
        });

        let mut pulls: Vec<Vec<(Pos, u32, Pos)>> = vec![Vec::new(); k];
        for (&r, &w) in &rf {
            // A same-chain writer po-before its read is already implied.
            let implied = w.thread == r.thread && w.pos < r.pos;
            if !implied && matches!(trace.kind(r), EventKind::Read { .. }) {
                pulls[r.thread.index()].push((r.pos, w.thread.0, w.pos + 1));
            }
        }
        for &(id, kind) in &fork_join {
            if let EventKind::Join { child } = kind {
                if child.index() < k {
                    let len = trace.thread_len(child) as u32;
                    pulls[id.thread.index()].push((id.pos, child.0, len));
                }
            }
        }
        for p in &mut pulls {
            p.sort_unstable();
        }

        let mut lock_ix: HashMap<LockId, u32> = HashMap::new();
        let mut thread_sections: Vec<Vec<ThreadSection>> = vec![Vec::new(); k];
        let mut sections = Vec::new();
        for (ix, cs) in trace.critical_sections().into_iter().enumerate() {
            let next = lock_ix.len() as u32;
            let lock = *lock_ix.entry(cs.lock).or_insert(next);
            let list = &mut thread_sections[cs.acquire.thread.index()];
            let reach = cs.release.map_or(0, |r| r.pos + 1);
            list.push(ThreadSection {
                acquire: cs.acquire.pos,
                reach: list.last().map_or(reach, |s| s.reach.max(reach)),
                ix: ix as u32,
            });
            sections.push(Section {
                lock,
                acquire: cs.acquire,
                release: cs.release,
            });
        }
        ClosureCtx {
            trace,
            rf,
            rf_grouped,
            writes_at,
            sections,
            locks: lock_ix.len(),
            thread_sections,
            pulls,
            forker,
            fork_join,
        }
    }

    /// Chain `t`'s sections whose acquire lies below `bound`.
    fn sections_below(&self, t: usize, bound: Pos) -> &[ThreadSection] {
        let list = &self.thread_sections[t];
        &list[..list.partition_point(|s| s.acquire < bound)]
    }

    /// Indices (into `sections`) of the sections whose acquire lies in
    /// the prefix, in trace order.
    fn sections_in(&self, prefix: Option<&PrefixBounds>) -> Vec<u32> {
        let mut ixs: Vec<u32> = (0..self.trace.num_threads())
            .flat_map(|t| {
                let bound = prefix.map_or(Pos::MAX, |upto| upto[t]);
                self.sections_below(t, bound).iter().map(|s| s.ix)
            })
            .collect();
        ixs.sort_unstable();
        ixs
    }
}

/// Computes a downward-closed prefix containing, for each root
/// `⟨t, i⟩`, the events `⟨t, 0⟩ … ⟨t, i−1⟩`, closed under:
///
/// * **reads-from** — a read in the prefix pulls in its writer;
/// * **fork** — a thread with prefix events pulls in its forking event;
/// * **join** — a join in the prefix pulls in the entire joined thread;
/// * **section rounding** — a cut landing inside a critical section of
///   a *non-root* thread is extended past the release (the thread can
///   always be run until it drops its locks; only the root threads are
///   frozen at their roots, deliberately holding whatever they hold).
///
/// Every rule only grows the bounds, so the least fixpoint does not
/// depend on the order the rules fire in: each chain advances a cursor
/// over its pull list and rounds by one binary search.
///
/// Returns `None` when the closure is forced to include a root itself —
/// the roots cannot be co-enabled.
pub fn prefix_closure(ctx: &ClosureCtx<'_>, roots: &[NodeId]) -> Option<PrefixBounds> {
    let k = ctx.trace.num_threads();
    let mut root_thread = vec![false; k];
    let mut upto: PrefixBounds = vec![0; k];
    for r in roots {
        let t = r.thread.index();
        root_thread[t] = true;
        upto[t] = upto[t].max(r.pos);
    }
    let mut cursor = vec![0usize; k];
    let mut changed = true;
    while changed {
        changed = false;
        for t in 0..k {
            loop {
                let pulls = &ctx.pulls[t];
                while let Some(&(pos, u, bound)) = pulls.get(cursor[t]) {
                    if pos >= upto[t] {
                        break;
                    }
                    cursor[t] += 1;
                    if bound > upto[u as usize] {
                        upto[u as usize] = bound;
                        changed = true;
                    }
                }
                // Section rounding for non-root threads.
                if root_thread[t] {
                    break;
                }
                let reach = ctx.sections_below(t, upto[t]).last().map_or(0, |s| s.reach);
                if reach <= upto[t] {
                    break;
                }
                upto[t] = reach;
                changed = true;
            }
            // Fork rule: any included event needs its thread forked.
            if upto[t] > 0 {
                if let Some(f) = ctx.forker[t] {
                    if f.pos + 1 > upto[f.thread.index()] {
                        upto[f.thread.index()] = f.pos + 1;
                        changed = true;
                    }
                }
            }
        }
    }
    for r in roots {
        if upto[r.thread.index()] > r.pos {
            return None;
        }
    }
    Some(upto)
}

/// Runs saturation of `po` under the observation of `ctx` until
/// fixpoint, optionally restricted to a prefix.
///
/// The rf edges themselves are inserted first (restricted to the
/// prefix when one is given). With a prefix, critical sections left
/// *open* by it participate specially: two open sections on one lock
/// are an immediate contradiction, and closed sections must complete
/// before open ones begin.
pub fn saturate_within<P: PartialOrderIndex>(
    po: &mut P,
    ctx: &ClosureCtx<'_>,
    cfg: &SaturationCfg,
    prefix: Option<&PrefixBounds>,
) -> SaturationOutcome {
    let trace = ctx.trace;
    let k = trace.num_threads();
    let prefix_bound = |t: usize| -> Pos { prefix.map_or(Pos::MAX, |upto| upto[t]) };
    let in_prefix = |id: NodeId| id.pos < prefix_bound(id.thread.index());
    let mut inserted = 0usize;

    // Observation edges, constraint-grouped (see ClosureCtx docs).
    let rf_in: Vec<(NodeId, NodeId, u32)> = ctx
        .rf_grouped
        .iter()
        .copied()
        .filter(|&(r, _, _)| in_prefix(r))
        .collect();
    for &(r, w, _) in &rf_in {
        debug_assert!(in_prefix(w), "prefix closure must include writers");
        match require_order(po, w, r) {
            OrderOutcome::Inserted => inserted += 1,
            OrderOutcome::AlreadyOrdered => {}
            OrderOutcome::Contradiction => return SaturationOutcome::inconsistent(inserted, 0),
        }
    }

    // Critical sections, split by the prefix into closed and open.
    // Release-sorted per (lock, chain) at `lock * k + t` for frontier
    // lookups (a thread's sections on one lock never overlap, so
    // acquire order is release order); acquire-sorted flat list for
    // deterministic iteration.
    let mut closed_at: Vec<Vec<(Pos, Pos)>> = Vec::new();
    let mut closed_flat: Vec<(u32, NodeId, NodeId)> = Vec::new();
    if cfg.locks {
        closed_at = vec![Vec::new(); ctx.locks * k];
        let mut open: Vec<(u32, NodeId)> = Vec::new();
        for ix in ctx.sections_in(prefix) {
            let cs = ctx.sections[ix as usize];
            match cs.release.filter(|&r| in_prefix(r)) {
                Some(rel) => {
                    let at = &mut closed_at[cs.lock as usize * k + cs.acquire.thread.index()];
                    debug_assert!(at.last().is_none_or(|&(_, r)| r < rel.pos));
                    at.push((cs.acquire.pos, rel.pos));
                    closed_flat.push((cs.lock, cs.acquire, rel));
                }
                None => open.push((cs.lock, cs.acquire)),
            }
        }
        // By lock index, each lock's acquires in trace order.
        open.sort_by_key(|&(lock, _)| lock);
        // Two sections left open on the same lock cannot both hold it.
        if open
            .windows(2)
            .any(|p| p[0].0 == p[1].0 && p[0].1.thread != p[1].1.thread)
        {
            return SaturationOutcome::inconsistent(inserted, 0);
        }
        // Closed sections complete before open ones begin.
        for &(lock, oa) in &open {
            for &(_, ca, crel) in closed_flat.iter().filter(|&&(l, _, _)| l == lock) {
                if ca.thread == oa.thread {
                    continue;
                }
                match require_order(po, crel, oa) {
                    OrderOutcome::Inserted => inserted += 1,
                    OrderOutcome::AlreadyOrdered => {}
                    OrderOutcome::Contradiction => {
                        return SaturationOutcome::inconsistent(inserted, 0)
                    }
                }
            }
        }
    }

    let in_window = |a: NodeId, b: NodeId| -> bool {
        match cfg.window {
            None => true,
            Some(win) => trace.trace_pos(a).abs_diff(trace.trace_pos(b)) <= win,
        }
    };

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        let apply = |po: &mut P, from: NodeId, to: NodeId| -> Result<bool, ()> {
            match require_order(po, from, to) {
                OrderOutcome::Inserted => Ok(true),
                OrderOutcome::AlreadyOrdered => Ok(false),
                OrderOutcome::Contradiction => Err(()),
            }
        };

        // Rule 1: reads-from maximality (frontier form).
        for &(r, w, var) in &rf_in {
            let writes = &ctx.writes_at[var as usize * k..][..k];
            for (t, ws) in writes.iter().enumerate() {
                // (a) The latest conflicting write reaching r (per
                // chain) must be ordered before the observed writer.
                if let Some(p) = po.predecessor(r, ThreadId(t as u32)) {
                    let i = ws.partition_point(|&x| x <= p);
                    if i > 0 {
                        let w2 = NodeId::new(t as u32, ws[i - 1]);
                        if w2 != w && in_window(w2, r) {
                            match apply(po, w2, w) {
                                Ok(ins) => {
                                    inserted += ins as usize;
                                    changed |= ins;
                                }
                                Err(()) => {
                                    return SaturationOutcome::inconsistent(inserted, rounds)
                                }
                            }
                        }
                    }
                }
                // (b) The earliest conflicting write reachable from the
                // observed writer (per chain) must be ordered after r.
                if let Some(s) = po.successor(w, ThreadId(t as u32)) {
                    let mut i = ws.partition_point(|&x| x < s);
                    if i < ws.len() && NodeId::new(t as u32, ws[i]) == w {
                        i += 1;
                    }
                    if i < ws.len() && ws[i] < prefix_bound(t) {
                        let w2 = NodeId::new(t as u32, ws[i]);
                        if in_window(w2, r) {
                            match apply(po, r, w2) {
                                Ok(ins) => {
                                    inserted += ins as usize;
                                    changed |= ins;
                                }
                                Err(()) => {
                                    return SaturationOutcome::inconsistent(inserted, rounds)
                                }
                            }
                        }
                    }
                }
            }
        }

        // Rule 2: lock mutual exclusion. For each closed section and
        // chain, the first same-lock section whose release is
        // reachable from our acquire overlaps us unless it starts
        // after our release. Chains with no closed section on the
        // lock have nothing to probe for.
        for &(lock, a1, r1) in &closed_flat {
            let at = &closed_at[lock as usize * k..][..k];
            for (t, sects) in at.iter().enumerate() {
                if t == a1.thread.index() || sects.is_empty() {
                    continue;
                }
                let Some(s) = po.successor(a1, ThreadId(t as u32)) else {
                    continue;
                };
                let i = sects.partition_point(|&(_, rel)| rel < s);
                if i >= sects.len() {
                    continue;
                }
                let a2 = NodeId::new(t as u32, sects[i].0);
                if !in_window(a1, a2) {
                    continue;
                }
                match apply(po, r1, a2) {
                    Ok(ins) => {
                        inserted += ins as usize;
                        changed |= ins;
                    }
                    Err(()) => return SaturationOutcome::inconsistent(inserted, rounds),
                }
            }
        }

        if !changed || rounds >= cfg.max_rounds {
            break;
        }
    }

    SaturationOutcome {
        consistent: true,
        inserted,
        rounds,
    }
}

/// Full-trace saturation (no prefix restriction).
pub fn saturate<P: PartialOrderIndex>(
    po: &mut P,
    ctx: &ClosureCtx<'_>,
    cfg: &SaturationCfg,
) -> SaturationOutcome {
    saturate_within(po, ctx, cfg, None)
}

/// Builds the *light* observed order of a trace: fork/join structure
/// plus the trace's reads-from edges in trace order (the streaming
/// order a real analysis uses for its base), without any saturation
/// fixpoint. The predictive analyses build exactly this edge set
/// incrementally per event through
/// [`crate::BaseOrderBuilder::observing`] and use it for candidate
/// filtering — the expensive closure happens per candidate in
/// [`witness_co_enabled`], exactly as in M2. This batch form remains
/// the one-shot equivalent for recorded traces.
///
/// Returns the number of edges inserted.
pub fn insert_observation<P: PartialOrderIndex>(
    po: &mut P,
    trace: &Trace,
    rf: &HashMap<NodeId, NodeId>,
) -> usize {
    crate::common::insert_fork_join(po, trace);
    let mut rf_sorted: Vec<(NodeId, NodeId)> = rf.iter().map(|(&r, &w)| (r, w)).collect();
    rf_sorted.sort_unstable_by_key(|&(r, _)| trace.trace_pos(r));
    let mut inserted = 0usize;
    for (r, w) in rf_sorted {
        if require_order(po, w, r) == OrderOutcome::Inserted {
            inserted += 1;
        }
    }
    inserted
}

/// Builds the *observed* partial order of a trace: fork/join structure,
/// the trace's own reads-from map, and full saturation.
pub fn saturate_observed<P: PartialOrderIndex>(
    po: &mut P,
    trace: &Trace,
    cfg: &SaturationCfg,
) -> SaturationOutcome {
    crate::common::insert_fork_join(po, trace);
    let ctx = ClosureCtx::new(trace, None);
    saturate(po, &ctx, cfg)
}

/// The witness check shared by the predictive analyses: are the `roots`
/// co-enabled by some correct reordering of a trace prefix?
///
/// Computes the prefix closure of the roots, then builds a *fresh*
/// index over the prefix (fork/join edges, reads-from, saturation,
/// open-section constraints) and reports whether it stayed acyclic.
/// This per-candidate reconstruction is exactly the non-streaming
/// workload the paper's Table 1–3 analyses impose on the data
/// structure.
pub fn witness_co_enabled<P: PartialOrderIndex>(
    ctx: &ClosureCtx<'_>,
    cfg: &SaturationCfg,
    roots: &[NodeId],
) -> bool {
    let Some(upto) = prefix_closure(ctx, roots) else {
        return false;
    };
    let trace = ctx.trace;
    let mut po = P::with_capacity(trace.num_threads().max(1), trace.max_chain_len().max(1));
    // Fork/join edges restricted to the prefix.
    for &(id, kind) in &ctx.fork_join {
        if id.pos >= upto[id.thread.index()] {
            continue;
        }
        match kind {
            EventKind::Fork { child } if child != id.thread && upto[child.index()] > 0 => {
                let _ = po.insert_edge_checked(id, NodeId::new(child, 0));
            }
            EventKind::Join { child } => {
                let len = trace.thread_len(child) as u32;
                if child != id.thread && len > 0 {
                    let _ = po.insert_edge_checked(NodeId::new(child, len - 1), id);
                }
            }
            _ => {}
        }
    }
    saturate_within(&mut po, ctx, cfg, Some(&upto)).consistent
}

/// `true` if the two events hold a common lock in the observed trace
/// (a cheap pre-filter used by the predictive analyses).
pub fn common_lock(trace: &Trace, a: NodeId, b: NodeId) -> bool {
    let la = trace.locks_held_at(a);
    if la.is_empty() {
        return false;
    }
    let lb = trace.locks_held_at(b);
    la.iter().any(|l| lb.contains(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingIndex;
    use csst_core::{IncrementalCsst, NodeId};
    use csst_trace::TraceBuilder;
    use proptest::prelude::*;

    fn n(t: u32, i: u32) -> NodeId {
        NodeId::new(t, i)
    }

    /// Reference closure for the proptest, straight from the rules:
    /// every pass walks each chain's new prefix events (one rf lookup
    /// per read) and rounds by scanning every section of the trace.
    fn reference_prefix_closure(ctx: &ClosureCtx<'_>, roots: &[NodeId]) -> Option<PrefixBounds> {
        let trace = ctx.trace;
        let k = trace.num_threads();
        let mut root_thread = vec![false; k];
        for r in roots {
            root_thread[r.thread.index()] = true;
        }
        let mut upto: PrefixBounds = vec![0; k];
        for r in roots {
            upto[r.thread.index()] = upto[r.thread.index()].max(r.pos);
        }
        let mut scanned: Vec<u32> = vec![0; k];
        let grow = |upto: &mut PrefixBounds, t: usize, bound: u32| {
            if bound > upto[t] {
                upto[t] = bound;
            }
        };
        loop {
            let mut changed = false;
            for t in 0..k {
                let tid = ThreadId(t as u32);
                let hi = upto[t].min(trace.thread_len(tid) as u32);
                while scanned[t] < hi {
                    let id = NodeId::new(tid, scanned[t]);
                    scanned[t] += 1;
                    match *trace.kind(id) {
                        EventKind::Read { .. } => {
                            if let Some(&w) = ctx.rf.get(&id) {
                                if w.pos + 1 > upto[w.thread.index()] {
                                    grow(&mut upto, w.thread.index(), w.pos + 1);
                                    changed = true;
                                }
                            }
                        }
                        EventKind::Join { child } if child.index() < k => {
                            let len = trace.thread_len(child) as u32;
                            if len > upto[child.index()] {
                                grow(&mut upto, child.index(), len);
                                changed = true;
                            }
                        }
                        _ => {}
                    }
                }
                // Fork rule: any included event needs its thread forked.
                if upto[t] > 0 {
                    if let Some(f) = ctx.forker[t] {
                        if f.pos + 1 > upto[f.thread.index()] {
                            grow(&mut upto, f.thread.index(), f.pos + 1);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                // Section rounding for non-root threads.
                for cs in &ctx.sections {
                    let t = cs.acquire.thread.index();
                    if root_thread[t] || cs.acquire.pos >= upto[t] {
                        continue;
                    }
                    if let Some(rel) = cs.release {
                        if rel.pos >= upto[t] {
                            grow(&mut upto, t, rel.pos + 1);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        for r in roots {
            if upto[r.thread.index()] > r.pos {
                return None;
            }
        }
        Some(upto)
    }

    fn fresh<'t>(trace: &'t Trace) -> (IncrementalCsst, ClosureCtx<'t>) {
        let po = crate::common::index_for_trace(trace);
        let ctx = ClosureCtx::new(trace, None);
        (po, ctx)
    }

    #[test]
    fn rf_edges_inserted() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0)
        b.on(1).read(x, 1); // (1,0)
        let trace = b.build();
        let mut po: IncrementalCsst = crate::common::index_for_trace(&trace);
        let out = saturate_observed(&mut po, &trace, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(po.reachable(n(0, 0), n(1, 0)));
    }

    #[test]
    fn maximality_orders_interfering_write() {
        // w1(x)=1 [t0]; w2(x)=2 [t1]; r(x)=2 [t2]  (r observes w2).
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0) = w1
        b.on(1).write(x, 2); // (1,0) = w2
        b.on(2).read(x, 2); // (2,0) = r
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        // Force w1 → r (e.g. discovered by an analysis), then saturate.
        po.insert_edge(n(0, 0), n(2, 0)).unwrap();
        assert_eq!(ctx.rf[&n(2, 0)], n(1, 0));
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(
            po.reachable(n(0, 0), n(1, 0)),
            "saturation must order w1 before w2"
        );
    }

    #[test]
    fn read_before_later_write() {
        // r observes w, and w is ordered before w': then r → w'.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0) = w
        b.on(1).read(x, 1); // (1,0) = r
        b.on(2).write(x, 2); // (2,0) = w'
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        po.insert_edge(n(0, 0), n(2, 0)).unwrap(); // w → w'
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(po.reachable(n(1, 0), n(2, 0)), "r must precede w'");
    }

    #[test]
    fn lock_rule_orders_sections() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.on(0).acquire(m); // (0,0)
        b.on(0).write(x, 1); // (0,1)
        b.on(0).release(m); // (0,2)
        b.on(1).acquire(m); // (1,0)
        b.on(1).read(x, 1); // (1,1)
        b.on(1).release(m); // (1,2)
        let trace = b.build();
        let mut po: IncrementalCsst = crate::common::index_for_trace(&trace);
        let out = saturate_observed(&mut po, &trace, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(
            po.reachable(n(0, 2), n(1, 0)),
            "release of CS1 must precede acquire of CS2"
        );
    }

    #[test]
    fn contradiction_detected() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0) = w
        b.on(1).read(x, 1); // (1,0) = r
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        po.insert_edge(n(1, 0), n(0, 0)).unwrap(); // r → w
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(!out.consistent);
    }

    #[test]
    fn prefix_closure_follows_rf_fork_join() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.on(0).write(x, 1); // (0,0)
        b.on(0).fork(1); // (0,1)
        b.on(1).write(y, 1); // (1,0)
        b.on(2).read(y, 1); // (2,0)
        b.on(2).write(x, 9); // (2,1)  ← root
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        let upto = prefix_closure(&ctx, &[n(2, 1)]).unwrap();
        // (2,1)'s prefix contains (2,0) which reads (1,0); thread 1
        // needs its fork (0,1).
        assert_eq!(upto[2], 1);
        assert_eq!(upto[1], 1);
        assert_eq!(upto[0], 2);
    }

    #[test]
    fn prefix_closure_detects_uncoenablable_roots() {
        // Root e1 = (0,0); root e2's prefix reads a write po-after e1.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.on(0).write(x, 1); // (0,0) — root 1
        b.on(0).write(y, 1); // (0,1)
        b.on(1).read(y, 1); // (1,0) observes (0,1)
        b.on(1).write(x, 2); // (1,1) — root 2
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert_eq!(prefix_closure(&ctx, &[n(0, 0), n(1, 1)]), None);
    }

    #[test]
    fn witness_open_sections_conflict() {
        // Both roots sit inside sections on the same lock: not
        // co-enabled.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.on(0).acquire(m); // (0,0)
        b.on(0).write(x, 1); // (0,1) — root 1
        b.on(0).release(m);
        b.on(1).acquire(m); // (1,0)
        b.on(1).write(x, 2); // (1,1) — root 2
        b.on(1).release(m);
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert!(!witness_co_enabled::<IncrementalCsst>(
            &ctx,
            &SaturationCfg::default(),
            &[n(0, 1), n(1, 1)]
        ));
    }

    #[test]
    fn witness_feasible_for_plain_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        b.on(1).write(x, 2);
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert!(witness_co_enabled::<IncrementalCsst>(
            &ctx,
            &SaturationCfg::default(),
            &[n(0, 0), n(1, 0)]
        ));
    }

    #[test]
    fn sections_partition() {
        let mut b = TraceBuilder::new();
        let m = b.lock("m");
        let g = b.lock("g");
        b.on(0).acquire(m); // (0,0)
        b.on(0).release(m); // (0,1)
        b.on(0).acquire(g); // (0,2)
        b.on(0).release(g); // (0,3)
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        let upto = vec![3u32];
        let (closed, open): (Vec<Section>, Vec<Section>) = ctx
            .sections_in(Some(&upto))
            .into_iter()
            .map(|ix| ctx.sections[ix as usize])
            .partition(|cs| cs.release.is_some_and(|r| r.pos < upto[0]));
        assert_eq!(closed.len(), 1);
        assert_eq!(open.len(), 1, "g's section is cut open by the prefix");
        assert_eq!(open[0].acquire, n(0, 2));
        assert_ne!(open[0].lock, closed[0].lock);
        assert_eq!(ctx.sections_in(None), vec![0, 1]);
    }

    #[test]
    fn windowing_skips_far_pairs() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        for _ in 0..50 {
            b.on(2).read(x, 1);
        }
        b.on(1).write(x, 2);
        b.on(2).read(x, 2);
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        po.insert_edge(n(0, 0), n(2, 50)).unwrap();
        let narrow = saturate(
            &mut po,
            &ctx,
            &SaturationCfg {
                window: Some(1),
                ..Default::default()
            },
        );
        assert!(narrow.consistent);
    }

    #[test]
    fn thread_local_variables_are_filtered() {
        let mut b = TraceBuilder::new();
        let private = b.var("private");
        let shared = b.var("shared");
        b.on(0).write(private, 1);
        b.on(0).read(private, 1);
        b.on(0).write(shared, 1);
        b.on(1).read(shared, 1);
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert_eq!(ctx.rf.len(), 2, "both reads observe a write");
        let reads: Vec<NodeId> = ctx.rf_grouped.iter().map(|&(r, _, _)| r).collect();
        assert_eq!(reads, [n(1, 0)], "only the shared read is kept");
    }

    #[test]
    fn common_lock_prefilter() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.on(0).acquire(m);
        let a = b.on(0).write(x, 1);
        b.on(0).release(m);
        b.on(1).acquire(m);
        let c = b.on(1).write(x, 2);
        b.on(1).release(m);
        let d = b.on(1).write(x, 3); // outside any lock
        let trace = b.build();
        assert!(common_lock(&trace, a, c));
        assert!(!common_lock(&trace, a, d));
    }

    #[test]
    fn witness_check_work_is_repeatable() {
        // Thread 0 ends holding eight locks, taken in reverse index
        // order; thread 1 closes a section on each in index order. The
        // closed→open edge of the last lock implies all the others, so
        // the number of inserts depends on the order the open locks
        // are visited in.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let locks: Vec<LockId> = (0..8).map(|i| b.lock(&format!("l{i}"))).collect();
        for (i, &l) in locks.iter().enumerate() {
            b.on(1).acquire(l);
            b.on(1).write(x, i as u64);
            b.on(1).release(l);
        }
        for &l in locks.iter().rev() {
            b.on(0).acquire(l);
            b.on(0).read(y, 0);
        }
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        let upto: PrefixBounds = (0..2)
            .map(|t| trace.thread_len(ThreadId(t)) as u32)
            .collect();
        let run = || {
            let mut po: CountingIndex<IncrementalCsst> = crate::common::index_for_trace(&trace);
            let out = saturate_within(&mut po, &ctx, &SaturationCfg::default(), Some(&upto));
            let c = po.counters();
            let counts = [
                c.inserts.get(),
                c.reachables.get(),
                c.successors.get(),
                c.predecessors.get(),
            ];
            (out, counts)
        };
        let first = run();
        assert!(first.0.consistent);
        assert!(first.0.inserted > 0);
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    /// A random trace over four threads, three variables and three
    /// locks: cross-thread reads, fork/join (self and out-of-range
    /// children included), nested, non-LIFO and unreleased sections.
    fn random_trace(ops: &[(u8, u32, u32)]) -> Trace {
        let mut b = TraceBuilder::new();
        let vars = [b.var("x"), b.var("y"), b.var("z")];
        let locks = [b.lock("l0"), b.lock("l1"), b.lock("l2")];
        for (i, &(kind, t, arg)) in ops.iter().enumerate() {
            let mut c = b.on(t);
            match kind {
                0 | 1 => c.write(vars[arg as usize % 3], i as u64),
                2 | 3 => c.read(vars[arg as usize % 3], 0),
                4 => c.acquire(locks[arg as usize % 3]),
                5 => c.release(locks[arg as usize % 3]),
                6 => c.fork(arg),
                _ => c.join(arg),
            };
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prefix_closure_matches_event_scan(
            ops in prop::collection::vec((0u8..8, 0u32..4, 0u32..5), 1..80),
            picks in prop::collection::vec((0u32..4, 0u32..1000), 1..4),
        ) {
            let trace = random_trace(&ops);
            let ctx = ClosureCtx::new(&trace, None);
            let k = trace.num_threads() as u32;
            let roots: Vec<NodeId> = picks
                .iter()
                .filter_map(|&(t, x)| {
                    let len = trace.thread_len(ThreadId(t % k)) as u32;
                    (len > 0).then(|| n(t % k, x % len))
                })
                .collect();
            let got = prefix_closure(&ctx, &roots);
            prop_assert_eq!(&got, &reference_prefix_closure(&ctx, &roots));

            // Per-chain section selection equals filtering every
            // section, for the closure and for the bare root cut.
            let mut cut: PrefixBounds = vec![0; k as usize];
            for r in &roots {
                cut[r.thread.index()] = cut[r.thread.index()].max(r.pos);
            }
            for upto in got.iter().chain([&cut]) {
                let filtered: Vec<u32> = (0..ctx.sections.len() as u32)
                    .filter(|&ix| {
                        let a = ctx.sections[ix as usize].acquire;
                        a.pos < upto[a.thread.index()]
                    })
                    .collect();
                prop_assert_eq!(ctx.sections_in(Some(upto)), filtered);
            }
        }
    }
}
