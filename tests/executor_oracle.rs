//! Executor correctness against a brute-force reference evaluator.
//!
//! The engine's optimizer may pick sequential scans, index scans, hash
//! joins, or index nested-loop joins; materialized-view rewriting adds
//! another layer. All of them must compute exactly the semantics of the
//! conjunctive query: filter the cartesian product of the relations by
//! every join and selection predicate. This suite evaluates that
//! definition directly (no indexes, no optimizer — just loops) and
//! checks every engine configuration against it on randomized databases
//! and queries. A leaf-boundary bug in the ordered index was caught by
//! exactly this kind of cross-check; this test pins the whole class down.

use proptest::prelude::*;
use specdb::catalog::{ColumnDef, DataType, Schema};
use specdb::exec::{CancelToken, Database, DatabaseConfig, ExecMode, MatchMode, ViewMode};
use specdb::prelude::*;
use specdb::query::{Join, Query};
use specdb::storage::Value;

/// A tiny three-table schema with plenty of duplicate join keys —
/// duplicates are where join bugs live.
///
/// r(k, a) — s(k, j, b) — t(j, c)
#[derive(Debug, Clone)]
struct TestDb {
    r: Vec<(i64, i64)>,
    s: Vec<(i64, i64, i64)>,
    t: Vec<(i64, i64)>,
}

fn arb_db() -> impl Strategy<Value = TestDb> {
    // Key domains are deliberately tiny (0..6) to force heavy duplication.
    let r = prop::collection::vec((0i64..6, 0i64..20), 0..40);
    let s = prop::collection::vec((0i64..6, 0i64..5, 0i64..20), 0..60);
    let t = prop::collection::vec((0i64..5, 0i64..20), 0..30);
    (r, s, t).prop_map(|(r, s, t)| TestDb { r, s, t })
}

#[derive(Debug, Clone)]
struct TestQuery {
    /// Optional selection `r.a < ca`.
    ca: Option<i64>,
    /// Optional selection `s.b >= cb`.
    cb: Option<i64>,
    /// Optional selection `t.c = cc`.
    cc: Option<i64>,
    /// Include the s ⋈ t join (r ⋈ s is always present).
    join_t: bool,
}

fn arb_query() -> impl Strategy<Value = TestQuery> {
    (
        prop::option::of(0i64..20),
        prop::option::of(0i64..20),
        prop::option::of(0i64..20),
        any::<bool>(),
    )
        .prop_map(|(ca, cb, cc, join_t)| TestQuery { ca, cb, cc, join_t })
}

/// The reference answer: loop over the cartesian product.
fn reference_count(db: &TestDb, q: &TestQuery) -> u64 {
    let mut count = 0u64;
    for &(rk, ra) in &db.r {
        if let Some(ca) = q.ca {
            if ra >= ca {
                continue;
            }
        }
        for &(sk, sj, sb) in &db.s {
            if sk != rk {
                continue;
            }
            if let Some(cb) = q.cb {
                if sb < cb {
                    continue;
                }
            }
            if q.join_t {
                for &(tj, tc) in &db.t {
                    if tj != sj {
                        continue;
                    }
                    if let Some(cc) = q.cc {
                        if tc != cc {
                            continue;
                        }
                    }
                    count += 1;
                }
            } else {
                count += 1;
            }
        }
    }
    count
}

fn build_engine(db: &TestDb, indexes: bool) -> Database {
    let mut engine = Database::new(DatabaseConfig::with_buffer_pages(128));
    engine
        .create_table(
            "r",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("a", DataType::Int),
            ]),
        )
        .unwrap();
    engine
        .create_table(
            "s",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("j", DataType::Int),
                ColumnDef::new("b", DataType::Int),
            ]),
        )
        .unwrap();
    engine
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("j", DataType::Int),
                ColumnDef::new("c", DataType::Int),
            ]),
        )
        .unwrap();
    engine
        .load("r", db.r.iter().map(|&(k, a)| Tuple::new(vec![Value::Int(k), Value::Int(a)])))
        .unwrap();
    engine
        .load(
            "s",
            db.s.iter()
                .map(|&(k, j, b)| Tuple::new(vec![Value::Int(k), Value::Int(j), Value::Int(b)])),
        )
        .unwrap();
    engine
        .load("t", db.t.iter().map(|&(j, c)| Tuple::new(vec![Value::Int(j), Value::Int(c)])))
        .unwrap();
    if indexes {
        for (t, c) in
            [("r", "k"), ("r", "a"), ("s", "k"), ("s", "j"), ("s", "b"), ("t", "j"), ("t", "c")]
        {
            engine.create_index(t, c).unwrap();
            engine.create_histogram(t, c).unwrap();
        }
    }
    engine
}

fn to_query(q: &TestQuery) -> Query {
    let mut g = QueryGraph::new();
    g.add_join(Join::new("r", "k", "s", "k"));
    if q.join_t {
        g.add_join(Join::new("s", "j", "t", "j"));
    }
    if let Some(ca) = q.ca {
        g.add_selection(Selection::new("r", Predicate::new("a", CompareOp::Lt, ca)));
    }
    if let Some(cb) = q.cb {
        g.add_selection(Selection::new("s", Predicate::new("b", CompareOp::Ge, cb)));
    }
    if let Some(cc) = q.cc {
        if q.join_t {
            g.add_selection(Selection::new("t", Predicate::new("c", CompareOp::Eq, cc)));
        }
    }
    Query::star(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plans_agree_with_reference(db in arb_db(), q in arb_query()) {
        let expected = reference_count(&db, &q);
        let query = to_query(&q);
        // No indexes: hash-join / seq-scan plans.
        let mut plain = build_engine(&db, false);
        prop_assert_eq!(plain.execute_discard(&query).unwrap().row_count, expected);
        // Fully indexed: index scans and index nested-loop joins allowed.
        let mut indexed = build_engine(&db, true);
        prop_assert_eq!(indexed.execute_discard(&query).unwrap().row_count, expected,
            "indexed plan diverged; plan:\n{}", indexed.execute_discard(&query).unwrap().plan);
    }

    #[test]
    fn aggregates_agree_with_reference(db in arb_db(), q in arb_query()) {
        // COUNT(*) grouped by r.k must equal per-group reference counts.
        let query = {
            let mut base = to_query(&q);
            base.agg = Some(specdb::query::AggSpec {
                group_by: vec![("r".into(), "k".into())],
                aggs: vec![specdb::query::Aggregate::count_star()],
            });
            base
        };
        // Reference: per-k counts from the plain reference evaluator.
        let mut per_k: std::collections::BTreeMap<i64, u64> = Default::default();
        for k in 0..6 {
            let sub = TestDb {
                r: db.r.iter().copied().filter(|&(rk, _)| rk == k).collect(),
                s: db.s.clone(),
                t: db.t.clone(),
            };
            let c = reference_count(&sub, &q);
            if c > 0 {
                per_k.insert(k, c);
            }
        }
        let mut engine = build_engine(&db, true);
        let out = engine.execute(&query).unwrap();
        prop_assert_eq!(out.row_count as usize, per_k.len());
        for row in &out.rows {
            let k = match row.get(0) {
                Value::Int(k) => *k,
                other => panic!("group key must be int, got {other:?}"),
            };
            let c = match row.get(1) {
                Value::Int(c) => *c as u64,
                other => panic!("count must be int, got {other:?}"),
            };
            prop_assert_eq!(Some(&c), per_k.get(&k), "group {}", k);
        }
    }

    #[test]
    fn view_rewrites_agree_with_reference(db in arb_db(), q in arb_query()) {
        let expected = reference_count(&db, &q);
        let query = to_query(&q);
        let base = build_engine(&db, true);
        // Materialize every selection and join subgraph of the query and
        // re-check under both view modes and both match modes.
        let mut subs: Vec<QueryGraph> = Vec::new();
        for s in query.graph.selections() {
            subs.push(query.graph.selection_subgraph(s));
        }
        for j in query.graph.joins() {
            subs.push(query.graph.join_subgraph(j));
        }
        for sub in subs {
            for view_mode in [ViewMode::Forced, ViewMode::CostBased] {
                for match_mode in [MatchMode::Exact, MatchMode::Subsume] {
                    let mut engine = base.clone();
                    engine.set_view_mode(view_mode);
                    engine.set_match_mode(match_mode);
                    engine.materialize(&sub, CancelToken::new()).unwrap();
                    let got = engine.execute_discard(&query).unwrap();
                    prop_assert_eq!(
                        got.row_count, expected,
                        "view {} under {:?}/{:?} diverged; plan:\n{}",
                        sub, view_mode, match_mode, got.plan
                    );
                }
            }
        }
    }
}

// ---------- executor-pipeline differential (columnar vs row) ----------
//
// The columnar pipeline promises bit-identical results AND identical
// virtual-time accounting against the row oracle for *any* SPJ query.
// The cases that break batch pipelines in practice are NULL-heavy join
// keys (NULL never matches, selection vectors must drop it the same way
// `CompareOp::eval` does) and table sizes straddling the k·1024 batch
// boundary (off-by-one in chunking shows up as a dropped or duplicated
// tail row). This property generates exactly those.

/// Two-table database with NULL-heavy columns; `u` is sized at a batch
/// boundary (k·1024 ± 1).
#[derive(Debug, Clone)]
struct NullDb {
    /// u(k: Int?, a: Int?, f: Float?) — size ∈ {1023, 1024, 1025, 2047, 2048, 2049}.
    u: Vec<(Option<i64>, Option<i64>, Option<i64>)>,
    /// v(k: Int?, c: Int)
    v: Vec<(Option<i64>, i64)>,
}

fn arb_null_db() -> impl Strategy<Value = NullDb> {
    let row_v = (prop::option::of(0i64..6), 0i64..40);
    (
        prop_oneof![Just(1023usize), Just(1024), Just(1025), Just(2047), Just(2048), Just(2049)],
        prop::collection::vec(row_v, 0..24),
        any::<u64>(),
    )
        .prop_map(|(n, v, seed)| {
            // Deterministic fill from a seed instead of a size-n vec
            // strategy: keeps shrinking tractable at 2049 rows.
            let mut x = seed | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let u = (0..n)
                .map(|_| {
                    let k = if next() % 10 < 3 { None } else { Some((next() % 6) as i64) };
                    let a = if next() % 10 < 4 { None } else { Some((next() % 40) as i64) };
                    let f = if next() % 10 < 4 { None } else { Some((next() % 1000) as i64) };
                    (k, a, f)
                })
                .collect();
            NullDb { u, v }
        })
}

#[derive(Debug, Clone)]
struct NullQuery {
    /// Optional selection `u.a < ca`.
    ca: Option<i64>,
    /// Optional selection `u.f >= cf` (Float column, Int constant).
    cf: Option<i64>,
    /// Optional selection `v.c = cc`.
    cc: Option<i64>,
    /// Include the u ⋈ v join (else single-table scan of u).
    join_v: bool,
    /// Index v.k so the optimizer may pick an index-nested-loop join.
    index_v: bool,
}

fn arb_null_query() -> impl Strategy<Value = NullQuery> {
    (
        prop::option::of(0i64..40),
        prop::option::of(0i64..1000),
        prop::option::of(0i64..40),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(ca, cf, cc, join_v, index_v)| NullQuery { ca, cf, cc, join_v, index_v })
}

fn opt_val(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn build_null_engine(db: &NullDb, q: &NullQuery) -> Database {
    let mut engine = Database::new(DatabaseConfig::with_buffer_pages(256));
    engine
        .create_table(
            "u",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("f", DataType::Float),
            ]),
        )
        .unwrap();
    engine
        .create_table(
            "v",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("c", DataType::Int),
            ]),
        )
        .unwrap();
    engine
        .load(
            "u",
            db.u.iter().map(|&(k, a, f)| {
                // The Float column stores a mix of Int and Float values
                // (DataType::Float admits Int) — the kernel-dispatch case
                // a fixed-stride layout would get wrong.
                let fv = match f {
                    None => Value::Null,
                    Some(x) if x % 2 == 0 => Value::Float(x as f64 / 2.0),
                    Some(x) => Value::Int(x),
                };
                Tuple::new(vec![opt_val(k), opt_val(a), fv])
            }),
        )
        .unwrap();
    engine
        .load("v", db.v.iter().map(|&(k, c)| Tuple::new(vec![opt_val(k), Value::Int(c)])))
        .unwrap();
    if q.index_v {
        engine.create_index("v", "k").unwrap();
        engine.create_histogram("v", "k").unwrap();
    }
    engine
}

fn to_null_query(q: &NullQuery) -> Query {
    let mut g = QueryGraph::new();
    g.add_relation("u");
    if q.join_v {
        g.add_join(Join::new("u", "k", "v", "k"));
    }
    if let Some(ca) = q.ca {
        g.add_selection(Selection::new("u", Predicate::new("a", CompareOp::Lt, ca)));
    }
    if let Some(cf) = q.cf {
        g.add_selection(Selection::new("u", Predicate::new("f", CompareOp::Ge, cf)));
    }
    if let Some(cc) = q.cc {
        if q.join_v {
            g.add_selection(Selection::new("v", Predicate::new("c", CompareOp::Eq, cc)));
        }
    }
    Query::star(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exec_modes_are_bit_identical(db in arb_null_db(), q in arb_null_query()) {
        let query = to_null_query(&q);
        let base = build_null_engine(&db, &q);
        let mut row_db = base.clone();
        row_db.set_exec_mode(ExecMode::Row);
        let expected = row_db.execute(&query).unwrap();
        let mut engine = base.clone();
        engine.set_exec_mode(ExecMode::Columnar);
        let got = engine.execute(&query).unwrap();
        prop_assert_eq!(&got.rows, &expected.rows,
            "columnar rows diverged from row oracle; plan:\n{}", got.plan);
        prop_assert_eq!(got.row_count, expected.row_count, "columnar row_count");
        prop_assert_eq!(got.demand, expected.demand,
            "columnar resource accounting diverged; plan:\n{}", got.plan);
    }
}
