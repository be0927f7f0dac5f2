//! Query scaling: successor / predecessor / reachable versus the chain
//! count `k` and the edge density.
//!
//! The sparse worklist query engine's pitch is that query cost tracks
//! the *live* chain-pair structure, not the `O(k³)` worst case. This
//! bench makes that claim measurable: each group fixes a query kind and
//! sweeps `k ∈ {4, 16, 64}` at two edge densities ("sparse" populates
//! roughly one edge per chain pair; "dense" two orders of magnitude
//! more), comparing the fully dynamic CSST against the graph and
//! vector-clock baselines.
//!
//! The `reachable_batch` group issues the same 256 probes through
//! [`PartialOrderIndex::reachable_batch`] in calls of 1, 16 and 256
//! probes. Calls of 1 pay the per-call setup on every probe; larger
//! calls let the CSST route each source chain's probes to one group
//! sweep or, for groups below its minimum sweep size, to per-probe
//! searches. Every call size reads the same probes, so the three
//! figures differ only in how the probes are grouped.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csst_bench::edges::streaming_edges;
use csst_core::{Csst, GraphIndex, NodeId, PartialOrderIndex, VectorClockIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GAP: u32 = 64;
const PROBES: usize = 256;

/// Edge counts per density label: "sparse" ≈ one edge per ordered chain
/// pair at k = 64, "dense" saturates every pair many times over.
const DENSITIES: &[(&str, usize)] = &[("sparse", 4_096), ("dense", 24_576)];

fn prefilled<P: PartialOrderIndex>(k: u32, edges: usize) -> P {
    let mut po = P::with_capacity(k as usize, edges + GAP as usize);
    for &(u, v) in &streaming_edges(k, edges, GAP, 0xC557 ^ u64::from(k)) {
        po.insert_edge(u, v).expect("scaling edge is valid");
    }
    po
}

fn probe_nodes(k: u32, edges: usize) -> Vec<(NodeId, NodeId)> {
    let span = (edges + GAP as usize) as u32;
    let mut rng = SmallRng::seed_from_u64(0x9E37 ^ u64::from(k));
    (0..PROBES)
        .map(|_| {
            let t1 = rng.gen_range(0..k);
            let t2 = rng.gen_range(0..k);
            (
                NodeId::new(t1, rng.gen_range(0..span)),
                NodeId::new(t2, rng.gen_range(0..span)),
            )
        })
        .collect()
}

fn run_kind<P: PartialOrderIndex>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    k: u32,
    edges: usize,
    kind: Kind,
) {
    let po: P = prefilled(k, edges);
    let probes = probe_nodes(k, edges);
    group.bench_with_input(BenchmarkId::new(name, k), &k, |b, _| {
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = probes[i % probes.len()];
            i += 1;
            criterion::black_box(match kind {
                Kind::Successor => po.successor(u, v.thread).map_or(0, u64::from),
                Kind::Predecessor => po.predecessor(u, v.thread).map_or(0, u64::from),
                Kind::Reachable => u64::from(po.reachable(u, v)),
            })
        });
    });
}

#[derive(Clone, Copy)]
enum Kind {
    Successor,
    Predecessor,
    Reachable,
}

fn bench_query_scaling(c: &mut Criterion) {
    for &(density, edges) in DENSITIES {
        for (kind, label) in [
            (Kind::Successor, "successor"),
            (Kind::Predecessor, "predecessor"),
            (Kind::Reachable, "reachable"),
        ] {
            let mut group = c.benchmark_group(format!("query_scaling/{density}/{label}"));
            group.sample_size(20);
            for &k in &[4u32, 16, 64] {
                run_kind::<Csst>(&mut group, "csst_dynamic", k, edges, kind);
                run_kind::<GraphIndex>(&mut group, "graph", k, edges, kind);
                // Dense VCs materialize an O(n·k) clock matrix; the
                // k = 64 dense point would cost hundreds of MB for a
                // number the k = 16 point already extrapolates.
                if (k as usize) * edges <= 1 << 20 {
                    run_kind::<VectorClockIndex>(&mut group, "vc", k, edges, kind);
                }
            }
            group.finish();
        }
    }
}

/// Probes per call of the `reachable_batch` group; 256 is one call for
/// all of [`PROBES`].
const CALL_SIZES: &[usize] = &[1, 16, PROBES];

fn run_batched<P: PartialOrderIndex>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    k: u32,
    edges: usize,
) {
    let po: P = prefilled(k, edges);
    let probes = probe_nodes(k, edges);
    for &size in CALL_SIZES {
        let id = BenchmarkId::new(format!("{name}/calls_of_{size}"), k);
        group.bench_with_input(id, &k, |b, _| {
            let mut out = Vec::with_capacity(size);
            b.iter(|| {
                let mut hits = 0usize;
                for call in probes.chunks(size) {
                    po.reachable_batch(call, &mut out);
                    hits += out.iter().filter(|&&r| r).count();
                }
                hits
            });
        });
    }
}

fn bench_reachable_batch(c: &mut Criterion) {
    for &(density, edges) in DENSITIES {
        let mut group = c.benchmark_group(format!("query_scaling/{density}/reachable_batch"));
        group.sample_size(20);
        for &k in &[4u32, 16, 64] {
            run_batched::<Csst>(&mut group, "csst_dynamic", k, edges);
            run_batched::<GraphIndex>(&mut group, "graph", k, edges);
        }
        group.finish();
    }
}

criterion_group!(benches, bench_query_scaling, bench_reachable_batch);
criterion_main!(benches);
