//! Differential suite: the batch-vectorized executor must be
//! bit-identical to the row-at-a-time executor — same tuples, same
//! order, same virtual-time I/O accounting — on every workload, from
//! single scans to full speculative TPC-H replays. The batch path is a
//! wall-clock optimization only; any observable divergence is a bug.

use specdb::exec::{Database, DatabaseConfig, ExecMode};
use specdb::prelude::*;
use specdb::query::Join;
use specdb::sim::replay::{replay_trace, ReplayConfig};
use specdb::sim::{build_base_db, DatasetSpec};
use specdb::tpch::{generate_into, TpchConfig};
use specdb::trace::UserModel;

/// Execute `sql` against clones of `base` with batch execution on and
/// off (cold buffers) and assert identical results and accounting.
fn assert_query_agrees(base: &Database, sql: &str) {
    let mut bdb = base.clone();
    let mut rdb = base.clone();
    rdb.set_exec_mode(ExecMode::Row);
    bdb.clear_buffer();
    rdb.clear_buffer();
    let q = parse_sql(&bdb, sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    let b = bdb.execute(&q).unwrap();
    let r = rdb.execute(&q).unwrap();
    assert_eq!(b.rows, r.rows, "{sql}: tuples or order differ");
    assert_eq!(b.row_count, r.row_count, "{sql}");
    assert_eq!(b.demand, r.demand, "{sql}: I/O accounting differs");
    assert_eq!(b.elapsed, r.elapsed, "{sql}: virtual time differs");
}

/// The headline contract: a recorded TPC-H exploration session replays
/// to the *same* `ReplayOutcome` — per-query rows and virtual times,
/// speculation lifecycle counts, wait times — on the columnar pipeline
/// and the row oracle, under both normal and speculative replay.
#[test]
fn replay_identical_with_batch_on_and_off() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |batch: bool, cfg: &ReplayConfig| {
        let mut db = base.clone();
        db.set_exec_mode(if batch { ExecMode::Columnar } else { ExecMode::Row });
        replay_trace(&mut db, &trace, cfg).unwrap()
    };
    for cfg in [ReplayConfig::normal(), ReplayConfig::speculative()] {
        let b = run(true, &cfg);
        let r = run(false, &cfg);
        assert_eq!(b, r, "the columnar pipeline changed observable replay behaviour");
    }
    let spec = run(true, &ReplayConfig::speculative());
    assert!(spec.issued > 0, "trace must exercise speculation");
}

#[test]
fn tpch_queries_agree_across_paths() {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(4096));
    generate_into(&mut db, &TpchConfig::new(2)).unwrap();
    for sql in [
        "SELECT * FROM customer WHERE c_nation = 'FRANCE'",
        "SELECT c_name, c_acctbal FROM customer WHERE c_acctbal >= 5000",
        "SELECT customer.c_name, orders.o_totalprice FROM customer, orders \
         WHERE orders.o_custkey = customer.c_custkey AND c_nation = 'FRANCE'",
        "SELECT c_nation, count(*), avg(o_totalprice) FROM customer, orders \
         WHERE orders.o_custkey = customer.c_custkey GROUP BY c_nation",
        "SELECT count(*), min(o_totalprice), max(o_totalprice) FROM orders",
    ] {
        assert_query_agrees(&db, sql);
    }
}

#[test]
fn empty_tables_agree_across_paths() {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(64));
    let schema = || {
        Schema::new(vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Int)])
    };
    db.create_table("t", schema()).unwrap();
    db.create_table("u", schema()).unwrap();
    db.load("u", (0..100i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])))
        .unwrap();
    // Empty scan, empty-input global aggregate (one row by SQL
    // convention), and joins with the empty side as build and probe.
    assert_query_agrees(&db, "SELECT * FROM t");
    assert_query_agrees(&db, "SELECT count(*) FROM t");
    assert_query_agrees(&db, "SELECT * FROM t, u WHERE t.k = u.k");
    assert_query_agrees(&db, "SELECT * FROM u, t WHERE u.k = t.k");
}

#[test]
fn null_join_keys_agree_across_paths() {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(64));
    let schema = || {
        Schema::new(vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Int)])
    };
    db.create_table("l", schema()).unwrap();
    db.create_table("r", schema()).unwrap();
    // Every third key is NULL on each side; NULL never joins NULL.
    let rows = |offset: i64| {
        (0..300i64).map(move |i| {
            let k = if i % 3 == 0 { Value::Null } else { Value::Int(i % 50) };
            Tuple::new(vec![k, Value::Int(i + offset)])
        })
    };
    db.load("l", rows(0)).unwrap();
    db.load("r", rows(1000)).unwrap();
    assert_query_agrees(&db, "SELECT * FROM l, r WHERE l.k = r.k");
    assert_query_agrees(&db, "SELECT count(*) FROM l, r WHERE l.k = r.k");
}

/// Join and scan cardinalities of k·1024 ± 1 straddle the default batch
/// boundary; the tail batch and the exactly-full batch must both behave.
#[test]
fn batch_boundary_straddling_joins_agree() {
    for n in [1023i64, 1024, 1025, 2047, 2048, 2049] {
        let mut db = Database::new(DatabaseConfig::with_buffer_pages(512));
        let schema = || {
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ])
        };
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        db.load("a", (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)])))
            .unwrap();
        db.load("b", (0..4096i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])))
            .unwrap();
        assert_query_agrees(&db, "SELECT * FROM a");
        // Unique keys: the join emits exactly n rows, straddling the
        // 1024-tuple batch boundary.
        assert_query_agrees(&db, "SELECT * FROM a, b WHERE a.k = b.k");
        assert_query_agrees(&db, "SELECT a.v, count(*) FROM a, b WHERE a.k = b.k GROUP BY a.v");
        let q = parse_sql(&db, "SELECT * FROM a, b WHERE a.k = b.k").unwrap();
        assert_eq!(db.execute_discard(&q).unwrap().row_count, n as u64);
    }
}

/// Speculative materialization plus re-execution — the memory-resident
/// fast path — must leave results and accounting untouched.
#[test]
fn materialized_view_queries_agree_across_paths() {
    let mut base = Database::new(DatabaseConfig::with_buffer_pages(4096));
    generate_into(&mut base, &TpchConfig::new(2)).unwrap();
    let mut sub = QueryGraph::new();
    sub.add_join(Join::new("orders", "o_custkey", "customer", "c_custkey"));
    sub.add_selection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "GERMANY"),
    ));
    let mut bdb = base.clone();
    let mut rdb = base;
    rdb.set_exec_mode(ExecMode::Row);
    let mb = bdb.materialize(&sub, specdb::exec::CancelToken::new()).unwrap();
    let mr = rdb.materialize(&sub, specdb::exec::CancelToken::new()).unwrap();
    assert_eq!(mb.rows, mr.rows);
    assert_eq!(mb.demand, mr.demand);
    let sql = "SELECT customer.c_name, orders.o_totalprice FROM customer, orders \
               WHERE orders.o_custkey = customer.c_custkey AND c_nation = 'GERMANY' \
               AND o_orderpriority <= 2";
    let q = parse_sql(&bdb, sql).unwrap();
    // Run twice: the second execution reads the view through the warm
    // decoded segment cache on the batch path.
    for _ in 0..2 {
        let b = bdb.execute(&q).unwrap();
        let r = rdb.execute(&q).unwrap();
        assert_eq!(b.used_views, vec![mb.table.clone()]);
        assert_eq!(b.rows, r.rows);
        assert_eq!(b.demand, r.demand);
    }
}
