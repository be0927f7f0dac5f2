//! Property tests of `csst-serve`'s race witness fan-out: for random
//! generated traces and every worker count, [`ShardedRace`] must report
//! *exactly* what the sequential predictor reports — same races in the
//! same order, same counters — windowed and unwindowed.
//!
//! Fanning witness checks out is an execution strategy, not an
//! approximation. Runs with `PROPTEST_CASES=16` in CI.

use csst_analyses::race;
use csst_core::{Csst, IncrementalCsst};
use csst_serve::ShardedRace;
use csst_trace::gen;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded race prediction equals the sequential predictor for
    /// shard counts 1, 2 and 4 — unwindowed.
    #[test]
    fn sharded_race_matches_sequential_unwindowed(
        seed in 0u64..500,
        threads in 2usize..5,
        events_per_thread in 20usize..60,
    ) {
        let trace = gen::racy_program(&gen::RacyProgramCfg {
            threads,
            events_per_thread,
            vars: 4,
            lock_frac: 0.4,
            shared_frac: 0.5,
            seed,
            ..Default::default()
        });
        let cfg = race::RaceCfg::default();
        let sequential = race::predict::<IncrementalCsst>(&trace, &cfg);
        for shards in [1usize, 2, 4] {
            let sharded = ShardedRace::<IncrementalCsst>::run(&trace, cfg.clone(), shards)
                .expect("fault-free run");
            prop_assert_eq!(&sharded.races, &sequential.races,
                "races diverge at {} shard(s)", shards);
            prop_assert_eq!(sharded.candidates, sequential.candidates);
            prop_assert_eq!(sharded.base_inserted, sequential.base_inserted);
        }
    }

    /// Sharded race prediction equals the sequential predictor with
    /// tumbling windows (the edge-deleting retirement path).
    #[test]
    fn sharded_race_matches_sequential_windowed(
        seed in 0u64..500,
        threads in 2usize..5,
        events_per_thread in 20usize..60,
        window in 24usize..96,
    ) {
        let trace = gen::racy_program(&gen::RacyProgramCfg {
            threads,
            events_per_thread,
            vars: 4,
            lock_frac: 0.4,
            shared_frac: 0.5,
            seed,
            ..Default::default()
        });
        let cfg = race::RaceCfg {
            window: Some(window),
            ..Default::default()
        };
        let sequential = race::predict::<Csst>(&trace, &cfg);
        for shards in [1usize, 2, 4] {
            let sharded = ShardedRace::<Csst>::run(&trace, cfg.clone(), shards)
                .expect("fault-free run");
            prop_assert_eq!(&sharded.races, &sequential.races,
                "windowed races diverge at {} shard(s)", shards);
            prop_assert_eq!(sharded.candidates, sequential.candidates);
            prop_assert_eq!(sharded.window.windows, sequential.window.windows);
            prop_assert_eq!(sharded.window.deleted_edges, sequential.window.deleted_edges);
        }
    }
}
