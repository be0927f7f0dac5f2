//! Deterministic edge generators shared by the criterion benches, so
//! every bench that names a workload measures the same edges.

use csst_core::{NodeId, PartialOrderIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic streaming edge list: edge `i` leaves `⟨t1, i⟩` for
/// `⟨t2, i + gap⟩` with `gap ≥ 1`, so every edge strictly increases the
/// position and the relation is acyclic by construction — the shape of
/// a streaming analysis's reads-from frontier.
pub fn streaming_edges(k: u32, len: usize, gap: u32, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let t1 = rng.gen_range(0..k);
            let mut t2 = rng.gen_range(0..k);
            while t2 == t1 {
                t2 = rng.gen_range(0..k);
            }
            let pos = i as u32;
            (
                NodeId::new(t1, pos),
                NodeId::new(t2, pos + rng.gen_range(1..=gap)),
            )
        })
        .collect()
}

/// A random cross-chain edge on `k` chains of length `ell`: the source
/// sits at a uniform position `i`, the target within `window` of `i`
/// (clamped to the chain), so the edge may point backward in position.
pub fn random_edge(rng: &mut SmallRng, k: u32, ell: u32, window: u32) -> (NodeId, NodeId) {
    let t1 = rng.gen_range(0..k);
    let mut t2 = rng.gen_range(0..k);
    while t2 == t1 {
        t2 = rng.gen_range(0..k);
    }
    let i = rng.gen_range(0..ell);
    let lo = i.saturating_sub(window);
    let hi = (i + window).min(ell - 1);
    (NodeId::new(t1, i), NodeId::new(t2, rng.gen_range(lo..=hi)))
}

/// An index on `k` chains of length `ell` holding `edges` edges drawn by
/// [`random_edge`], skipping any whose endpoints are already ordered
/// (so the order stays acyclic). Returns the generator, positioned
/// after the last draw, for the bench body to continue from.
pub fn prefill<P: PartialOrderIndex>(
    k: u32,
    ell: u32,
    window: u32,
    edges: usize,
    seed: u64,
) -> (P, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut po = P::with_capacity(k as usize, ell as usize);
    let mut n = 0;
    while n < edges {
        let (u, v) = random_edge(&mut rng, k, ell, window);
        if !po.reachable(u, v) && !po.reachable(v, u) {
            po.insert_edge(u, v).expect("valid edge");
            n += 1;
        }
    }
    (po, rng)
}
