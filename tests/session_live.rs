//! Live-runtime integration tests: a one-session `SessionManager`, the
//! embeddable wall-clock runtime, under realistic interaction patterns
//! (wall-clock think time, pivots, aggregate GOs, many consecutive
//! queries, and a user profile carried across sessions).

use specdb::core::{Learner, SpeculatorConfig};
use specdb::exec::{Database, DatabaseConfig};
use specdb::prelude::*;
use specdb::query::{Join, Query};
use specdb::serve::{GovernorConfig, SessionManager};
use specdb::tpch::{generate_into, TpchConfig};
use std::thread::sleep;
use std::time::Duration;

fn db() -> Database {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
    generate_into(&mut db, &TpchConfig::new(1)).expect("generate");
    db.clear_buffer();
    db
}

fn runtime(db: Database) -> SessionManager {
    SessionManager::new(db, SpeculatorConfig::default(), GovernorConfig::default())
}

fn nation(v: &str) -> EditOp {
    EditOp::AddSelection(Selection::new("customer", Predicate::new("c_nation", CompareOp::Eq, v)))
}

#[test]
fn consecutive_queries_reuse_surviving_views() {
    let manager = runtime(db());
    let (_, s) = manager.connect("u");
    let mut s = s.lock();
    s.edit(EditOp::AddRelation("customer".into()));
    s.edit(nation("FRANCE"));
    sleep(Duration::from_millis(400));
    let first = s.go().expect("first GO").output;
    // Same predicate again (inter-query locality): if the view survived
    // GC, the second query must use it.
    sleep(Duration::from_millis(50));
    let second = s.go().expect("second GO").output;
    assert_eq!(first.row_count, second.row_count);
    if s.stats().completed >= 1 {
        assert!(!second.used_views.is_empty(), "surviving view should answer the repeat query");
    }
}

#[test]
fn go_with_aggregate_layers_over_canvas() {
    let manager = runtime(db());
    let (_, s) = manager.connect("u");
    let mut s = s.lock();
    s.edit(EditOp::AddRelation("customer".into()));
    s.edit(nation("GERMANY"));
    sleep(Duration::from_millis(300));
    // Plain canvas GO for the expected count.
    let rows = {
        let q = Query::star(s.partial().clone());
        manager.with_db(|db| db.execute_discard(&q)).expect("probe").row_count
    };
    let agg_query = Query::star(s.partial().clone()).aggregate(specdb::query::AggSpec {
        group_by: vec![],
        aggs: vec![specdb::query::Aggregate::count_star()],
    });
    let out = s.go_with(&agg_query).expect("aggregate GO").output;
    assert_eq!(out.row_count, 1);
    assert_eq!(out.rows[0].get(0), &Value::Int(rows as i64));
}

#[test]
fn rapid_fire_edits_never_deadlock_or_crash() {
    // Hammer the session with edits faster than manipulations can finish;
    // every path (issue, cancel, supersede, GO) must stay consistent.
    let manager = runtime(db());
    let (_, s) = manager.connect("u");
    let mut s = s.lock();
    let nations = ["FRANCE", "GERMANY", "RUSSIA", "JAPAN", "CHINA"];
    for round in 0..4 {
        s.edit(EditOp::AddRelation("customer".into()));
        for (i, n) in nations.iter().enumerate() {
            s.edit(nation(n));
            if i % 2 == round % 2 {
                s.edit(EditOp::RemoveSelection(Selection::new(
                    "customer",
                    Predicate::new("c_nation", CompareOp::Eq, *n),
                )));
            }
        }
        s.edit(EditOp::AddJoin(Join::new("orders", "o_custkey", "customer", "c_custkey")));
        let _ = s.go().expect("GO under churn"); // executed without error
                                                 // Clear the canvas for the next round.
        for rel in ["customer", "orders"] {
            s.edit(EditOp::RemoveRelation(rel.into()));
        }
    }
    let st = s.stats();
    assert_eq!(st.queries, 4);
    assert_eq!(st.issued, st.completed + st.cancelled, "bookkeeping must balance");
}

#[test]
fn finish_returns_database_with_consistent_views() {
    let manager = runtime(db());
    {
        let (_, s) = manager.connect("u");
        let mut s = s.lock();
        s.edit(EditOp::AddRelation("supplier".into()));
        s.edit(EditOp::AddSelection(Selection::new(
            "supplier",
            Predicate::new("s_nation", CompareOp::Eq, "PERU"),
        )));
        sleep(Duration::from_millis(300));
        let _ = s.go().expect("GO");
    }
    let db = manager.into_database();
    // Every registered view has a backing catalog table.
    for v in db.views().iter() {
        assert!(db.catalog().table(&v.name).is_some(), "view {} must have storage", v.name);
    }
}

#[test]
fn profile_round_trips_through_sessions() {
    let manager = runtime(db());
    let profile = {
        let (_, s1) = manager.connect("u");
        let mut s1 = s1.lock();
        s1.edit(EditOp::AddRelation("customer".into()));
        s1.edit(nation("FRANCE"));
        let _ = s1.go().unwrap();
        s1.learner().to_json()
    };
    let manager = runtime(manager.into_database());
    let restored = Learner::from_json(&profile).expect("profile parses");
    let (_, s2) = manager.connect_with_learner("u", restored);
    assert_eq!(s2.lock().learner().observed_gos(), 1, "knowledge carries over");
}

#[test]
fn gc_drops_views_after_pivot() {
    let manager = runtime(db());
    let (_, s) = manager.connect("u");
    let mut s = s.lock();
    s.edit(EditOp::AddRelation("customer".into()));
    s.edit(nation("FRANCE"));
    sleep(Duration::from_millis(300));
    let _ = s.go().unwrap();
    let views_after_first = manager.with_db(|db| db.views().len());
    // Pivot to a completely different exploration: supplier only.
    s.edit(EditOp::RemoveRelation("customer".into()));
    s.edit(EditOp::AddRelation("supplier".into()));
    let _ = s.go().unwrap();
    let views_after_pivot = manager.with_db(|db| db.views().len());
    assert!(
        views_after_pivot <= views_after_first,
        "pivot must not grow the view set ({views_after_first} -> {views_after_pivot})"
    );
    assert_eq!(views_after_pivot, 0, "nothing supports the old views");
}
