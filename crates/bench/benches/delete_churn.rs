//! Delete-heavy churn: per-event *sliding* retirement (the ROADMAP
//! open item's workload).
//!
//! The tumbling-window layer retires whole windows at once; the
//! scalability story wants per-event retirement, where every arriving
//! edge evicts the oldest live one — `delete_edge` runs at the same
//! rate as `insert_edge`, forever. This bench measures exactly that
//! steady state for the two fully dynamic representations, at several
//! window sizes, so the flat edge-heap layout's deletion win is
//! measured rather than asserted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csst_bench::edges::streaming_edges;
use csst_core::{Csst, GraphIndex, PartialOrderIndex};

const K: u32 = 10;
const GAP: u32 = 64;

fn bench_sliding_retirement(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn/slide");
    group.sample_size(20);
    for &window in &[512usize, 4096] {
        group.bench_with_input(BenchmarkId::new("csst", window), &window, |b, &window| {
            run_churn::<Csst>(b, window);
        });
        group.bench_with_input(BenchmarkId::new("graph", window), &window, |b, &window| {
            run_churn::<GraphIndex>(b, window);
        });
    }
    group.finish();
}

fn run_churn<P: PartialOrderIndex>(b: &mut criterion::Bencher<'_>, window: usize) {
    // A long circular edge stream (the acyclic generator `query_scaling`
    // prefills with); the bench body advances a sliding frontier
    // through it, wrapping around (deleting the edge again before
    // re-inserting keeps the wrap consistent).
    let stream = streaming_edges(K, window * 8, GAP, 0x51D3);
    let mut po = P::with_capacity(K as usize, stream.len() + GAP as usize + 1);
    for &(u, v) in &stream[..window] {
        po.insert_edge(u, v).expect("prefill edge");
    }
    let mut head = window; // next edge to insert
    let mut tail = 0usize; // oldest live edge
    b.iter(|| {
        let (u, v) = stream[head % stream.len()];
        // On wrap-around the slot is occupied by the previous lap;
        // parallel-edge support makes double-insert safe, but keeping
        // exactly `window` live edges keeps the measurement honest.
        po.insert_edge(u, v).expect("frontier edge");
        let (du, dv) = stream[tail % stream.len()];
        po.delete_edge(du, dv).expect("oldest edge is live");
        head += 1;
        tail += 1;
    });
}

criterion_group!(benches, bench_sliding_retirement);
criterion_main!(benches);
