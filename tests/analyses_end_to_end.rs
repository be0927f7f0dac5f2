//! End-to-end tests of the seven analyses on generated workloads,
//! checking cross-representation agreement and the qualitative
//! properties each analysis must have.

use csst_analyses::{c11, deadlock, linearizability, membug, race, tso, uaf};
use csst_core::{Csst, GraphIndex, IncrementalCsst, SegTreeIndex, VectorClockIndex};
use csst_trace::gen::{
    alloc_program, c11_program, lock_program, object_history, racy_program, tso_history,
    AllocProgramCfg, C11Cfg, LockProgramCfg, ObjectHistoryCfg, RacyProgramCfg, TsoCfg,
};

#[test]
fn race_prediction_all_structures_and_monotone_candidates() {
    let trace = racy_program(&RacyProgramCfg {
        threads: 6,
        events_per_thread: 400,
        vars: 6,
        locks: 2,
        lock_frac: 0.4,
        shared_frac: 0.25,
        seed: 1,
        ..Default::default()
    });
    let cfg = race::RaceCfg {
        max_candidates: 30,
        ..Default::default()
    };
    let a = race::predict::<IncrementalCsst>(&trace, &cfg);
    let b = race::predict::<SegTreeIndex>(&trace, &cfg);
    let c = race::predict::<VectorClockIndex>(&trace, &cfg);
    let d = race::predict::<GraphIndex>(&trace, &cfg);
    assert_eq!(a.races, b.races);
    assert_eq!(a.races, c.races);
    assert_eq!(a.races, d.races);
    assert!(a.candidates > 0, "workload must produce candidates");
    assert!(!a.races.is_empty(), "unprotected sharing must race");

    // Fully protected workloads must not race.
    let safe = racy_program(&RacyProgramCfg {
        threads: 6,
        events_per_thread: 300,
        vars: 4,
        locks: 1,
        lock_frac: 1.0,
        shared_frac: 0.3,
        seed: 2,
        ..Default::default()
    });
    let r = race::predict::<IncrementalCsst>(&safe, &cfg);
    assert!(
        r.races.is_empty(),
        "single-lock protection must kill all races: {:?}",
        r.races
    );
}

#[test]
fn deadlock_prediction_monotone_in_inversions() {
    let mk = |inversion_frac: f64| {
        lock_program(&LockProgramCfg {
            threads: 5,
            blocks_per_thread: 120,
            locks: 5,
            inversion_frac,
            guard_frac: 0.0,
            vars: 6,
            seed: 5,
        })
    };
    let cfg = deadlock::DeadlockCfg {
        max_patterns: 30,
        ..Default::default()
    };
    let none = deadlock::predict::<IncrementalCsst>(&mk(0.0), &cfg);
    assert!(
        none.deadlocks.is_empty(),
        "canonical lock order cannot deadlock"
    );
    let some = deadlock::predict::<IncrementalCsst>(&mk(0.3), &cfg);
    assert!(!some.deadlocks.is_empty(), "inversions must be detected");
    // All structures agree.
    let g = deadlock::predict::<GraphIndex>(&mk(0.3), &cfg);
    assert_eq!(some.deadlocks.len(), g.deadlocks.len());
}

#[test]
fn membug_and_uaf_consistency() {
    let trace = alloc_program(&AllocProgramCfg {
        threads: 5,
        objects: 120,
        derefs_per_object: 5,
        protected_frac: 0.3,
        confined_frac: 0.3,
        remote_free_frac: 0.6,
        locks: 2,
        seed: 8,
        max_events: None,
    });
    let mb = membug::predict::<IncrementalCsst>(
        &trace,
        &membug::MemBugCfg {
            max_candidates: 50,
            ..Default::default()
        },
    );
    let uf = uaf::generate::<IncrementalCsst>(&trace, &uaf::UafCfg::default());
    assert!(mb.candidates > 0);
    assert!(
        !uf.candidates.is_empty(),
        "unprotected remote frees must survive pruning"
    );
    assert!(uf.total_constraints > 0);
    // Every membug UAF pair must also be a UFO candidate (same
    // prefiltering, stricter witness).
    for bug in &mb.bugs {
        if let membug::MemBug::UseAfterFree {
            use_event,
            free_event,
            ..
        } = bug
        {
            assert!(
                uf.candidates
                    .iter()
                    .any(|c| c.use_event == *use_event && c.free_event == *free_event),
                "witnessed bug missing from UFO candidates"
            );
        }
    }
    // Fully confined + protected workloads are clean.
    let safe = alloc_program(&AllocProgramCfg {
        threads: 5,
        objects: 80,
        protected_frac: 0.5,
        confined_frac: 1.0,
        seed: 9,
        ..Default::default()
    });
    let mb_safe = membug::predict::<IncrementalCsst>(&safe, &membug::MemBugCfg::default());
    assert!(
        mb_safe.bugs.is_empty(),
        "confined/protected lifetimes are safe: {:?}",
        mb_safe.bugs
    );
}

#[test]
fn tso_checker_accepts_machine_output_and_rejects_mutations() {
    let trace = tso_history(&TsoCfg {
        threads: 5,
        events_per_thread: 300,
        vars: 4,
        seed: 13,
        ..Default::default()
    });
    let cfg = tso::TsoCheckCfg::default();
    let ok = tso::check::<IncrementalCsst>(&trace, &cfg);
    assert!(ok.consistent);

    // Mutate one read to observe a value from the future: must be
    // rejected (value has the wrong variable or breaks coherence).
    let mut mutated = csst_trace::Trace::new(trace.num_threads());
    let mut flipped = false;
    for (id, ev) in trace.iter_order() {
        let kind = match ev.kind {
            csst_trace::EventKind::Read { var, .. } if !flipped => {
                flipped = true;
                csst_trace::EventKind::Read {
                    var,
                    value: u64::MAX, // a value never written
                }
            }
            k => k,
        };
        mutated.push(id.thread, kind);
    }
    assert!(flipped);
    let bad = tso::check::<IncrementalCsst>(&mutated, &cfg);
    assert!(!bad.consistent, "value from nowhere must be rejected");
}

#[test]
fn c11_detector_structures_agree_and_sync_reduces_races() {
    let racy = c11_program(&C11Cfg {
        threads: 6,
        events_per_thread: 500,
        release_frac: 0.0, // all relaxed: no sw edges
        seed: 17,
        ..Default::default()
    });
    let synced = c11_program(&C11Cfg {
        threads: 6,
        events_per_thread: 500,
        release_frac: 1.0, // all release/acquire
        seed: 17,
        ..Default::default()
    });
    let cfg = c11::C11Cfg::default();
    let r_racy = c11::detect::<IncrementalCsst>(&racy, &cfg);
    let r_sync = c11::detect::<IncrementalCsst>(&synced, &cfg);
    assert!(
        r_sync.races.len() <= r_racy.races.len(),
        "release/acquire sync must not increase races ({} vs {})",
        r_sync.races.len(),
        r_racy.races.len()
    );
    assert!(r_sync.sw_edges > 0);
    let r_vc = c11::detect::<VectorClockIndex>(&synced, &cfg);
    assert_eq!(r_sync.races, r_vc.races);
}

#[test]
fn linearizability_clean_vs_violating_histories() {
    let mut violations = 0;
    for seed in 0..5u64 {
        let clean = object_history(&ObjectHistoryCfg {
            threads: 3,
            ops_per_thread: 40,
            key_range: 6,
            violation: false,
            seed,
        });
        let r = linearizability::analyze::<Csst>(&clean, &linearizability::LinCfg::default());
        assert!(
            matches!(r.verdict, linearizability::LinVerdict::Linearizable(_)),
            "seed {seed}: clean history rejected: {:?}",
            r.verdict
        );

        let bad = object_history(&ObjectHistoryCfg {
            threads: 3,
            ops_per_thread: 40,
            key_range: 6,
            violation: true,
            seed,
        });
        let r = linearizability::analyze::<Csst>(&bad, &linearizability::LinCfg::default());
        let g = linearizability::analyze::<GraphIndex>(&bad, &linearizability::LinCfg::default());
        assert_eq!(r.verdict, g.verdict, "seed {seed}");
        if matches!(r.verdict, linearizability::LinVerdict::Violation(_)) {
            violations += 1;
        }
    }
    assert!(violations >= 3, "corrupted histories mostly violate");
}

#[test]
fn linearization_order_respects_spec() {
    let history = object_history(&ObjectHistoryCfg {
        threads: 4,
        ops_per_thread: 25,
        key_range: 4,
        violation: false,
        seed: 33,
    });
    let r = linearizability::analyze::<Csst>(&history, &linearizability::LinCfg::default());
    let linearizability::LinVerdict::Linearizable(order) = &r.verdict else {
        panic!("clean history must linearize");
    };
    // Replaying the produced order against a sequential set must
    // reproduce every recorded result.
    let ops = linearizability::operations(&history);
    let by_id: std::collections::HashMap<_, _> = ops.iter().map(|o| (o.op, o)).collect();
    let mut set = std::collections::HashSet::new();
    for opid in order {
        let op = by_id[opid];
        let result = match op.method {
            csst_trace::Method::Add => set.insert(op.arg) as u64,
            csst_trace::Method::Remove => set.remove(&op.arg) as u64,
            csst_trace::Method::Contains => set.contains(&op.arg) as u64,
        };
        assert_eq!(result, op.result, "op {opid:?} result mismatch in replay");
    }
}

/// Satellite smoke test: every one of the seven analyses runs
/// end-to-end on a *small* seeded trace, twice, and must produce the
/// same verdict both times (the generators and analyses are fully
/// deterministic in their seeds), with the expected qualitative
/// outcome on each workload.
#[test]
fn seven_analyses_smoke_deterministic() {
    // 1. Race prediction: unprotected sharing on a tiny trace.
    let racy = || {
        racy_program(&RacyProgramCfg {
            threads: 3,
            events_per_thread: 80,
            vars: 3,
            locks: 1,
            lock_frac: 0.2,
            shared_frac: 0.4,
            seed: 42,
            ..Default::default()
        })
    };
    let race_cfg = race::RaceCfg::default();
    let r1 = race::predict::<IncrementalCsst>(&racy(), &race_cfg);
    let r2 = race::predict::<IncrementalCsst>(&racy(), &race_cfg);
    assert_eq!(r1.races, r2.races, "race verdict must be deterministic");
    assert_eq!(r1.candidates, r2.candidates);
    assert!(!r1.races.is_empty(), "mostly-unlocked sharing must race");

    // 2. Deadlock prediction: inverted lock order.
    let locks = || {
        lock_program(&LockProgramCfg {
            threads: 3,
            blocks_per_thread: 40,
            locks: 3,
            inversion_frac: 0.4,
            guard_frac: 0.0,
            vars: 3,
            seed: 42,
        })
    };
    let dl_cfg = deadlock::DeadlockCfg::default();
    let d1 = deadlock::predict::<IncrementalCsst>(&locks(), &dl_cfg);
    let d2 = deadlock::predict::<IncrementalCsst>(&locks(), &dl_cfg);
    assert_eq!(
        d1.deadlocks, d2.deadlocks,
        "deadlock verdict must be deterministic"
    );
    assert!(
        !d1.deadlocks.is_empty(),
        "inverted lock order must deadlock"
    );

    // 3 & 4. Memory-bug prediction and UAF query generation share the
    // allocator workload.
    let allocs = || {
        alloc_program(&AllocProgramCfg {
            threads: 3,
            objects: 40,
            derefs_per_object: 4,
            protected_frac: 0.2,
            confined_frac: 0.2,
            remote_free_frac: 0.7,
            locks: 1,
            seed: 42,
            max_events: None,
        })
    };
    let m1 = membug::predict::<IncrementalCsst>(&allocs(), &membug::MemBugCfg::default());
    let m2 = membug::predict::<IncrementalCsst>(&allocs(), &membug::MemBugCfg::default());
    assert_eq!(m1.bugs, m2.bugs, "membug verdict must be deterministic");
    assert!(m1.candidates > 0);
    let u1 = uaf::generate::<IncrementalCsst>(&allocs(), &uaf::UafCfg::default());
    let u2 = uaf::generate::<IncrementalCsst>(&allocs(), &uaf::UafCfg::default());
    assert_eq!(
        u1.candidates, u2.candidates,
        "UAF candidates must be deterministic"
    );
    assert_eq!(u1.total_constraints, u2.total_constraints);
    assert!(
        !u1.candidates.is_empty(),
        "remote frees must survive pruning"
    );

    // 5. TSO consistency: machine-generated histories are consistent.
    let tso_trace = || {
        tso_history(&TsoCfg {
            threads: 3,
            events_per_thread: 60,
            vars: 2,
            seed: 42,
            ..Default::default()
        })
    };
    let t1 = tso::check::<IncrementalCsst>(&tso_trace(), &tso::TsoCheckCfg::default());
    let t2 = tso::check::<IncrementalCsst>(&tso_trace(), &tso::TsoCheckCfg::default());
    assert_eq!(t1.consistent, t2.consistent);
    assert_eq!((t1.inserted, t1.rounds), (t2.inserted, t2.rounds));
    assert!(t1.consistent, "machine output must be TSO-consistent");

    // 6. C11 race detection: all-relaxed atomics leave plain accesses
    // unsynchronized.
    let c11_trace = || {
        c11_program(&C11Cfg {
            threads: 3,
            events_per_thread: 80,
            release_frac: 0.0,
            seed: 42,
            ..Default::default()
        })
    };
    let c1 = c11::detect::<IncrementalCsst>(&c11_trace(), &c11::C11Cfg::default());
    let c2 = c11::detect::<IncrementalCsst>(&c11_trace(), &c11::C11Cfg::default());
    assert_eq!(c1.races, c2.races, "C11 verdict must be deterministic");
    assert_eq!((c1.sw_edges, c1.fr_edges), (c2.sw_edges, c2.fr_edges));

    // 7. Linearizability: a clean history linearizes, with the same
    // witness order every run.
    let history = || {
        object_history(&ObjectHistoryCfg {
            threads: 3,
            ops_per_thread: 15,
            key_range: 3,
            violation: false,
            seed: 42,
        })
    };
    let l1 = linearizability::analyze::<Csst>(&history(), &linearizability::LinCfg::default());
    let l2 = linearizability::analyze::<Csst>(&history(), &linearizability::LinCfg::default());
    assert_eq!(
        l1.verdict, l2.verdict,
        "linearizability verdict must be deterministic"
    );
    assert!(
        matches!(l1.verdict, linearizability::LinVerdict::Linearizable(_)),
        "clean history must linearize: {:?}",
        l1.verdict
    );
}

/// FNV-1a (64-bit) over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The witness-check reports (summary and every detail line) of the
/// four saturation-backed analyses, pinned by hash over two seeds of
/// each lock-using generator family. Any change to the saturation
/// engine that moves a single report byte fails here.
#[test]
fn witness_check_reports_are_pinned() {
    use csst_analyses::registry::{find, IndexKind};
    let mut traces = Vec::new();
    for seed in [3u64, 11] {
        traces.push(racy_program(&RacyProgramCfg {
            threads: 5,
            events_per_thread: 160,
            vars: 5,
            locks: 3,
            lock_frac: 0.5,
            shared_frac: 0.4,
            seed,
            ..Default::default()
        }));
        traces.push(lock_program(&LockProgramCfg {
            threads: 4,
            blocks_per_thread: 40,
            locks: 4,
            inversion_frac: 0.3,
            guard_frac: 0.3,
            vars: 4,
            seed,
        }));
        traces.push(alloc_program(&AllocProgramCfg {
            threads: 4,
            objects: 40,
            locks: 3,
            seed,
            ..Default::default()
        }));
    }
    let hashes: Vec<(&str, u64)> = ["race", "deadlock", "membug", "uaf"]
        .into_iter()
        .map(|name| {
            let entry = find(name).expect("registered analysis");
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for trace in &traces {
                let out = entry.run(trace, IndexKind::Csst, None).expect("batch run");
                h = fnv1a(h, out.summary.as_bytes());
                for line in &out.lines {
                    h = fnv1a(h, b"\n");
                    h = fnv1a(h, line.as_bytes());
                }
                h = fnv1a(h, b"\0");
            }
            (name, h)
        })
        .collect();
    // Captured from the event-scanning witness checks, before the
    // per-chain tables replaced them.
    assert_eq!(
        hashes,
        [
            ("race", 0x12cb_f032_e725_8fe1),
            ("deadlock", 0xf20d_8178_6b8e_49cb),
            ("membug", 0x6ca8_072d_bb33_70d2),
            ("uaf", 0x5b83_037b_f190_dd7b),
        ]
    );
}
