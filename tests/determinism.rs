//! Determinism and reproducibility: identical seeds must reproduce
//! identical traces, databases, and experiment outcomes — the property
//! that makes every figure in EXPERIMENTS.md regenerable bit-for-bit.

use specdb::sim::replay::{replay_trace, ReplayConfig};
use specdb::sim::{build_base_db, DatasetSpec};
use specdb::trace::{TraceStats, UserModel};

#[test]
fn trace_generation_is_deterministic() {
    let a = UserModel::default().generate_cohort(3, 99);
    let b = UserModel::default().generate_cohort(3, 99);
    assert_eq!(a, b);
}

#[test]
fn database_generation_is_deterministic() {
    let a = build_base_db(&DatasetSpec::tiny()).unwrap();
    let b = build_base_db(&DatasetSpec::tiny()).unwrap();
    for t in specdb::tpch::TPCH_TABLES {
        assert_eq!(a.catalog().table(t).unwrap().stats, b.catalog().table(t).unwrap().stats, "{t}");
    }
}

#[test]
fn replay_is_deterministic() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |cfg: &ReplayConfig| {
        let mut db = base.clone();
        replay_trace(&mut db, &trace, cfg).unwrap()
    };
    for cfg in [ReplayConfig::normal(), ReplayConfig::speculative()] {
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.elapsed, y.elapsed);
            assert_eq!(x.rows, y.rows);
        }
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.completed, b.completed);
    }
}

/// The plan cache and the incremental manipulation space are pure
/// memoization: with them on or off, a speculative replay must produce
/// the *bit-identical* outcome — same decisions, same timings, same
/// manipulation lifecycle counts.
#[test]
fn replay_identical_with_caching_on_and_off() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |cached: bool| {
        let mut db = base.clone();
        db.set_plan_cache(cached);
        let mut cfg = ReplayConfig::speculative();
        cfg.speculator.incremental = cached;
        replay_trace(&mut db, &trace, &cfg).unwrap()
    };
    let cached = run(true);
    let uncached = run(false);
    assert!(cached.issued > 0, "trace must exercise speculation");
    assert_eq!(cached, uncached, "caching changed observable replay behaviour");
}

/// The morsel-parallel executor's bit-identity contract, end to end: a
/// full speculative session — queries, speculative materializations,
/// cancellations, hit/miss accounting — replayed at 1, 2, and 4 worker
/// threads must produce the identical [`ReplayOutcome`]: same rows,
/// virtual timings, speculation decisions, and manipulation lifecycle
/// counts.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn replay_identical_at_any_thread_count() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |threads: usize| {
        let mut db = base.clone();
        db.set_threads(threads);
        replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap()
    };
    let serial = run(1);
    assert!(serial.issued > 0, "trace must exercise speculation");
    for threads in [2usize, 4] {
        let parallel = run(threads);
        assert_eq!(
            serial, parallel,
            "{threads} worker threads changed observable replay behaviour"
        );
    }
}

/// Tracing is strictly observational: a full speculative replay with
/// the tracer and an event sink attached must produce the bit-identical
/// [`ReplayOutcome`] as one with observability fully disabled, at every
/// worker-thread count. Wall-clock span timestamps must never leak into
/// virtual-time accounting or speculation decisions.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn replay_identical_with_tracing_on_and_off() {
    use specdb::obs::{MemorySink, Observer, Tracer};
    use std::sync::Arc;
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |threads: usize, traced: bool| {
        let mut db = base.clone();
        db.set_threads(threads);
        if traced {
            let sink = Arc::new(MemorySink::new());
            db.set_observer(Observer::enabled().with_sink(sink).with_tracer(Tracer::enabled()));
        }
        replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap()
    };
    for threads in [1usize, 4] {
        let plain = run(threads, false);
        let traced = run(threads, true);
        assert!(plain.issued > 0, "trace must exercise speculation");
        assert_eq!(
            plain, traced,
            "tracing changed observable replay behaviour at {threads} threads"
        );
    }
}

/// Segment encoding (dictionary/RLE columns, zone-map page skipping,
/// speculative prefetch) is strictly a wall-clock optimisation: a full
/// speculative replay with encodings on must produce the bit-identical
/// [`ReplayOutcome`] as one with encodings off — same rows, virtual
/// timings, speculation decisions, and manipulation lifecycle counts —
/// at every worker-thread count.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn replay_identical_with_encodings_on_and_off() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |threads: usize, encoding: bool| {
        let mut db = base.clone();
        db.set_threads(threads);
        db.set_encoding(encoding);
        replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap()
    };
    for threads in [1usize, 4] {
        let plain = run(threads, false);
        let encoded = run(threads, true);
        assert!(plain.issued > 0, "trace must exercise speculation");
        assert_eq!(
            plain, encoded,
            "segment encoding changed observable replay behaviour at {threads} threads"
        );
    }
}

/// Whole-query prediction keeps the determinism contract: for each
/// setting of the predictor knob a full speculative replay is
/// bit-identical across repeat runs and worker-thread counts, and
/// turning the predictor on or off never changes *answers* — only the
/// speculation lifecycle may differ between settings.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn replay_identical_with_prediction_on_and_off() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |threads: usize, predict: bool| {
        let mut db = base.clone();
        db.set_threads(threads);
        let mut cfg = ReplayConfig::speculative();
        cfg.speculator.predict = predict;
        cfg.speculator.predict_topk = 3;
        replay_trace(&mut db, &trace, &cfg).unwrap()
    };
    let mut per_setting = Vec::new();
    for predict in [true, false] {
        let serial = run(1, predict);
        assert!(serial.issued > 0, "trace must exercise speculation");
        assert_eq!(serial, run(1, predict), "predict={predict} replay must be reproducible");
        let parallel = run(4, predict);
        assert_eq!(serial, parallel, "4 worker threads changed the predict={predict} replay");
        per_setting.push(serial);
    }
    let (on, off) = (&per_setting[0], &per_setting[1]);
    assert!(on.predicted_issued > 0, "predictor must issue whole-query candidates");
    assert_eq!(off.predicted_issued, 0, "predict=off must never issue predictions");
    assert_eq!(on.queries.len(), off.queries.len());
    for (a, b) in on.queries.iter().zip(&off.queries) {
        assert_eq!(a.rows, b.rows, "prediction must never change answers");
    }
}

/// The concurrent multi-session replay itself is deterministic and
/// thread-count-invariant: same traces, same fleet outcome — counters,
/// timings, shared-hit accounting — at 1 and 4 worker threads.
#[test]
fn multi_session_replay_is_deterministic() {
    use specdb::sim::{replay_multi_session, MultiSessionConfig};
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let traces: Vec<_> = (0..3)
        .map(|i| {
            let cfg = specdb::trace::UserModelConfig { queries: 6, ..Default::default() };
            UserModel::new(cfg, specdb::tpch::ExploreDomain::tpch())
                .generate(&format!("u{i}"), 800 + i)
        })
        .collect();
    let run = |threads: usize| {
        let mut db = base.clone();
        db.set_threads(threads);
        replay_multi_session(&mut db, &traces, &MultiSessionConfig::speculative()).unwrap()
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "multi-session replay must be reproducible");
    let parallel = run(4);
    assert_eq!(a, parallel, "4 worker threads changed the fleet outcome");
}

#[test]
fn multi_user_replay_is_deterministic() {
    use specdb::sim::replay_multi;
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let model = UserModel::default();
    let traces: Vec<_> = (0..3)
        .map(|i| {
            let cfg = specdb::trace::UserModelConfig { queries: 6, ..Default::default() };
            UserModel::new(cfg, specdb::tpch::ExploreDomain::tpch())
                .generate(&format!("u{i}"), 500 + i)
        })
        .collect();
    let _ = model;
    let run = || {
        let mut db = base.clone();
        replay_multi(&mut db, &traces, &ReplayConfig::speculative()).unwrap()
    };
    let a = run();
    let b = run();
    for (ua, ub) in a.per_user.iter().zip(&b.per_user) {
        assert_eq!(ua.queries.len(), ub.queries.len());
        for (x, y) in ua.queries.iter().zip(&ub.queries) {
            assert_eq!(x.elapsed, y.elapsed);
            assert_eq!(x.rows, y.rows);
        }
        assert_eq!(ua.issued, ub.issued);
    }
}

#[test]
fn stats_are_stable_across_recomputation() {
    let traces = UserModel::default().generate_cohort(5, 7);
    let a = TraceStats::compute(&traces);
    let b = TraceStats::compute(&traces);
    assert_eq!(a.think_time, b.think_time);
    assert_eq!(a.selection_persistence, b.selection_persistence);
}

/// One recorded single-session replay per `ReplayConfig` shape, pinned
/// as literals: per-query virtual GO times (µs) and row counts,
/// completed build times (µs), and the lifecycle counters `[issued,
/// completed, cancelled, collected, waited, used, wasted,
/// predicted_issued, predicted_hits, salvaged_hits, predicted_wasted]`.
/// The values were recorded on the pre-fleet single-session replay
/// loop, so they hold `replay_trace` to that loop's behaviour now that
/// it runs through the fleet replay. Threads, prediction and top-k are
/// set explicitly, so every `SPECDB_*` environment setting checks the
/// same literals.
#[test]
fn replay_matches_golden_outcomes() {
    use specdb::core::UniformProfile;
    use specdb::exec::MatchMode;
    use specdb::sim::replay::{ProfileKind, QueryMeasurement, ReplayOutcome};
    use specdb::storage::VirtualTime;
    use specdb::trace::UserModelConfig;

    struct Golden {
        go_us: [u64; 6],
        builds_us: &'static [u64],
        counts: [u64; 11],
    }
    const ROWS: [u64; 6] = [1350, 1350, 11, 31092, 639, 639];
    impl Golden {
        fn outcome(&self) -> ReplayOutcome {
            let us = VirtualTime::from_micros;
            let c = self.counts;
            ReplayOutcome {
                queries: (0..6)
                    .map(|i| QueryMeasurement {
                        index: i,
                        elapsed: us(self.go_us[i]),
                        rows: ROWS[i],
                    })
                    .collect(),
                manipulation_times: self.builds_us.iter().map(|&b| us(b)).collect(),
                issued: c[0],
                completed: c[1],
                cancelled: c[2],
                collected: c[3],
                waited: c[4],
                used: c[5],
                wasted: c[6],
                predicted_issued: c[7],
                predicted_hits: c[8],
                salvaged_hits: c[9],
                predicted_wasted: c[10],
            }
        }
    }

    let spec = |predict: bool| {
        let mut cfg = ReplayConfig::speculative();
        cfg.speculator.predict = predict;
        cfg.speculator.predict_topk = 3;
        cfg
    };
    let uniform = ProfileKind::Uniform(UniformProfile::default());
    let shapes = [
        (
            "normal",
            ReplayConfig { speculative: false, ..spec(false) },
            MatchMode::Exact,
            Golden {
                go_us: [131050, 47705, 43678, 128606, 55975, 55975],
                builds_us: &[],
                counts: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            },
        ),
        (
            "speculative",
            spec(true),
            MatchMode::Exact,
            Golden {
                go_us: [25295, 2225, 10476, 138876, 61900, 28528],
                builds_us: &[41935, 72160, 25140, 9875, 35620, 20678, 38905, 5855, 52036],
                counts: [11, 9, 2, 8, 0, 4, 5, 2, 1, 0, 1],
            },
        ),
        (
            "wait-at-GO",
            ReplayConfig { wait_at_go: true, ..spec(false) },
            MatchMode::Exact,
            Golden {
                go_us: [25295, 15420, 10476, 129013, 123930, 57643],
                builds_us: &[41935, 72160, 25140, 9875, 20678, 18760, 6488, 132416, 114841, 32939],
                counts: [10, 10, 0, 8, 2, 5, 5, 0, 0, 0, 0],
            },
        ),
        (
            "pipeline",
            ReplayConfig { pipeline: true, ..spec(true) },
            MatchMode::Exact,
            Golden {
                go_us: [25295, 2225, 22, 140456, 61900, 7599],
                builds_us: &[
                    41935, 72160, 25140, 9875, 5228, 35620, 20678, 38905, 9253, 10981, 5855, 52036,
                    37284, 25544, 44460, 6440,
                ],
                counts: [18, 16, 2, 11, 0, 5, 11, 3, 2, 0, 1],
            },
        ),
        (
            "uniform",
            ReplayConfig { profile: uniform, ..spec(false) },
            MatchMode::Exact,
            Golden {
                go_us: [25295, 15420, 10476, 150726, 61900, 38403],
                builds_us: &[41935, 72160, 25140, 9875, 18760, 20678, 6488, 52036],
                counts: [10, 8, 2, 7, 0, 3, 5, 0, 0, 0, 0],
            },
        ),
        (
            "subsume",
            spec(true),
            MatchMode::Subsume,
            Golden {
                go_us: [25295, 2225, 3402, 137296, 61900, 44328],
                builds_us: &[41935, 72160, 25140, 9875, 35620, 38905, 2630, 7958, 52036],
                counts: [11, 9, 2, 8, 0, 3, 6, 2, 1, 0, 1],
            },
        ),
    ];

    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    // Short think times, so builds are still running at later edits and
    // at GO: the cancel and wait-at-GO paths both fire.
    let model = UserModelConfig {
        queries: 6,
        questions: 2,
        think_median_secs: 0.2,
        think_min_secs: 0.01,
        think_max_secs: 2.0,
        ..Default::default()
    };
    let trace = UserModel::new(model, specdb::tpch::ExploreDomain::tpch()).generate("golden", 18);
    for (name, cfg, match_mode, golden) in shapes {
        for threads in [1usize, 4] {
            let mut db = base.clone();
            db.set_threads(threads);
            db.set_match_mode(match_mode);
            let out = replay_trace(&mut db, &trace, &cfg).unwrap();
            assert_eq!(out, golden.outcome(), "{name} replay at {threads} threads left its golden");
        }
    }
}
