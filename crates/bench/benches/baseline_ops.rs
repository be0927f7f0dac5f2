//! Per-operation costs of the baselines (VCs, anchored VCs, STs,
//! Graphs) against incremental CSSTs — the microscopic view behind
//! Figure 11 and the Table 7 Graphs comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csst_bench::edges;
use csst_core::{
    AnchoredVectorClockIndex, GraphIndex, IncrementalCsst, NodeId, PartialOrderIndex, SegTreeIndex,
    VectorClockIndex,
};
use rand::rngs::SmallRng;

const ELL: u32 = 50_000;
const WINDOW: u32 = 5_000;
const K: u32 = 10;

fn random_edge(rng: &mut SmallRng) -> (NodeId, NodeId) {
    edges::random_edge(rng, K, ELL, WINDOW)
}

fn prefill<P: PartialOrderIndex>(n: usize, seed: u64) -> (P, SmallRng) {
    edges::prefill(K, ELL, WINDOW, n, seed)
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/insert_unordered");
    group.sample_size(15);

    fn run<P: PartialOrderIndex>(b: &mut criterion::Bencher<'_>) {
        let (mut po, mut rng) = prefill::<P>(1000, 3);
        b.iter(|| {
            let (u, v) = random_edge(&mut rng);
            if !po.reachable(u, v) && !po.reachable(v, u) {
                po.insert_edge(u, v).expect("valid edge");
            }
        });
    }
    group.bench_function(BenchmarkId::new("CSSTs", K), run::<IncrementalCsst>);
    group.bench_function(BenchmarkId::new("STs", K), run::<SegTreeIndex>);
    group.bench_function(BenchmarkId::new("VCs", K), run::<VectorClockIndex>);
    group.bench_function(BenchmarkId::new("aVCs", K), run::<AnchoredVectorClockIndex>);
    group.bench_function(BenchmarkId::new("Graphs", K), run::<GraphIndex>);
    group.finish();
}

fn bench_reachable(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/reachable");
    group.sample_size(15);

    fn run<P: PartialOrderIndex>(b: &mut criterion::Bencher<'_>) {
        let (po, mut rng) = prefill::<P>(3000, 5);
        b.iter(|| {
            let (u, v) = random_edge(&mut rng);
            po.reachable(u, v)
        });
    }
    group.bench_function(BenchmarkId::new("CSSTs", K), run::<IncrementalCsst>);
    group.bench_function(BenchmarkId::new("STs", K), run::<SegTreeIndex>);
    group.bench_function(BenchmarkId::new("VCs", K), run::<VectorClockIndex>);
    group.bench_function(BenchmarkId::new("aVCs", K), run::<AnchoredVectorClockIndex>);
    group.bench_function(BenchmarkId::new("Graphs", K), run::<GraphIndex>);
    group.finish();
}

criterion_group!(benches, bench_insert, bench_reachable);
criterion_main!(benches);
