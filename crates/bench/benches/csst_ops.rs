//! Per-operation costs of the two CSST variants (Theorems 1 and 2):
//! fully dynamic insert/delete/reachable vs incremental insert and
//! single-lookup queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csst_bench::edges;
use csst_core::{Csst, IncrementalCsst, NodeId, PartialOrderIndex};
use rand::rngs::SmallRng;

const ELL: u32 = 100_000;
const WINDOW: u32 = 10_000;

fn random_edge(rng: &mut SmallRng, k: u32) -> (NodeId, NodeId) {
    edges::random_edge(rng, k, ELL, WINDOW)
}

fn prefill<P: PartialOrderIndex>(k: u32, n: usize, seed: u64) -> (P, SmallRng) {
    edges::prefill(k, ELL, WINDOW, n, seed)
}

fn bench_inserts(c: &mut Criterion) {
    let mut group = c.benchmark_group("csst/insert");
    group.sample_size(20);
    for &k in &[4u32, 10, 20] {
        group.bench_with_input(BenchmarkId::new("dynamic", k), &k, |b, &k| {
            let (mut po, mut rng) = prefill::<Csst>(k, 2000, 7);
            b.iter(|| {
                let (u, v) = random_edge(&mut rng, k);
                if !po.reachable(u, v) && !po.reachable(v, u) {
                    po.insert_edge(u, v).expect("valid edge");
                    po.delete_edge(u, v).expect("undo"); // keep size stable
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental", k), &k, |b, &k| {
            let (mut po, mut rng) = prefill::<IncrementalCsst>(k, 2000, 7);
            b.iter(|| {
                let (u, v) = random_edge(&mut rng, k);
                if !po.reachable(u, v) && !po.reachable(v, u) {
                    po.insert_edge(u, v).expect("valid edge");
                }
            });
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("csst/reachable");
    group.sample_size(20);
    for &k in &[4u32, 10, 20] {
        group.bench_with_input(BenchmarkId::new("dynamic", k), &k, |b, &k| {
            let (po, mut rng) = prefill::<Csst>(k, 2000, 9);
            b.iter(|| {
                let (u, v) = random_edge(&mut rng, k);
                po.reachable(u, v)
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental", k), &k, |b, &k| {
            let (po, mut rng) = prefill::<IncrementalCsst>(k, 2000, 9);
            b.iter(|| {
                let (u, v) = random_edge(&mut rng, k);
                po.reachable(u, v)
            });
        });
    }
    group.finish();
}

fn bench_deletes(c: &mut Criterion) {
    let mut group = c.benchmark_group("csst/delete_insert_roundtrip");
    group.sample_size(20);
    group.bench_function("dynamic_k10", |b| {
        let (mut po, mut rng) = prefill::<Csst>(10, 2000, 11);
        // Collect a pool of live edges to delete/reinsert.
        let mut pool = Vec::new();
        while pool.len() < 512 {
            let (u, v) = random_edge(&mut rng, 10);
            if !po.reachable(u, v) && !po.reachable(v, u) {
                po.insert_edge(u, v).expect("valid edge");
                pool.push((u, v));
            }
        }
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = pool[i % pool.len()];
            po.delete_edge(u, v).expect("live edge");
            po.insert_edge(u, v).expect("valid edge");
            i += 1;
        });
    });
    group.finish();
}

criterion_group!(benches, bench_inserts, bench_queries, bench_deletes);
criterion_main!(benches);
