//! The generated input — look-alike pairs of `UserModel` traces — and
//! the in-process oracle every answer is checked against.

use crate::wire;
use specdb_exec::Database;
use specdb_query::{EditOp, PartialQuery, Query};
use specdb_tpch::ExploreDomain;
use specdb_trace::{Trace, UserModel, UserModelConfig};
use std::time::Instant;

/// Queries per session, all refinements of one question. Short
/// sessions put more distinct traces in one run: query cost varies
/// mostly between traces, so the number of traces a run holds sets how
/// well its figures repeat from seed to seed.
pub const QUERIES_PER_SESSION: usize = 4;

/// Sessions run concurrently, in look-alike pairs: both sessions of
/// pair `k` replay the same trace, so one session's speculative
/// artifacts can serve the other (as in the `multi_session` bench).
pub const SESSIONS_PER_PAIR: usize = 2;

/// The trace both sessions of pair `pair` replay under workload seed
/// `seed`. Different seeds give disjoint trace sequences.
pub fn pair_trace(seed: u64, pair: usize) -> Trace {
    let cfg = UserModelConfig { queries: QUERIES_PER_SESSION, questions: 1, ..Default::default() };
    let trace_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(pair as u64);
    UserModel::new(cfg, ExploreDomain::tpch()).generate(&format!("pair{pair}"), trace_seed)
}

/// The oracle for the first GOs of one trace.
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    /// Row count of each final query as the trace means it (`None` if
    /// the engine rejects it).
    pub intended_rows: Vec<Option<u64>>,
    /// Row count of each final query as the server parses the rendered
    /// request lines: what a correct server must answer.
    pub wire_rows: Vec<Option<u64>>,
    /// Wall milliseconds of `Database::execute` of each intended query.
    pub exec_ms: Vec<f64>,
    /// Wall milliseconds of executing each query as the server parses
    /// it (equal to `exec_ms` where the two queries agree).
    pub wire_exec_ms: Vec<f64>,
}

fn timed(db: &mut Database, q: &Query) -> (Option<u64>, f64) {
    let t = Instant::now();
    let rows = db.execute(q).ok().map(|out| out.row_count);
    (rows, t.elapsed().as_secs_f64() * 1e3)
}

/// Execute the first `gos` final queries of `trace` on `db` (a clone of
/// the base database) as intended and, with `wire`, also as the wire
/// carries them where the two differ.
pub fn oracle(db: &mut Database, trace: &Trace, gos: usize, wire: bool) -> Oracle {
    let mut out = Oracle::default();
    let mut intended = PartialQuery::new();
    let mut wired = PartialQuery::new();
    for te in &trace.edits {
        if out.intended_rows.len() == gos {
            break;
        }
        let is_go = intended.apply(&te.op);
        if let Some(op) = wire::as_parsed(&wire::render(&te.op)) {
            wired.apply(&op);
        }
        if !is_go {
            continue;
        }
        let (rows, ms) = timed(db, intended.query());
        out.intended_rows.push(rows);
        out.exec_ms.push(ms);
        if !wire || wired.query() == intended.query() {
            out.wire_rows.push(rows);
            out.wire_exec_ms.push(ms);
        } else {
            let (rows, ms) = timed(db, wired.query());
            out.wire_rows.push(rows);
            out.wire_exec_ms.push(ms);
        }
    }
    out
}

/// [`oracle`] for many `(trace, gos)` jobs, spread over one thread per
/// client connection, each thread on its own clone of `base`.
pub fn oracles(base: &Database, jobs: &[(Trace, usize)], wire: bool) -> Vec<Oracle> {
    let threads = crate::connections();
    let mut out = vec![Oracle::default(); jobs.len()];
    let done: Vec<Vec<(usize, Oracle)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut db = base.clone();
                    (t..jobs.len())
                        .step_by(threads)
                        .map(|i| (i, oracle(&mut db, &jobs[i].0, jobs[i].1, wire)))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    for (i, o) in done.into_iter().flatten() {
        out[i] = o;
    }
    out
}

/// Trace edits whose rendered line does not parse back to the edit.
pub fn roundtrip_failures(trace: &Trace) -> u64 {
    trace
        .edits
        .iter()
        .filter(|te| !wire::round_trips(&te.op, &wire::render(&te.op)))
        .count() as u64
}

/// Number of edits (GO excluded) and GOs in `trace`.
pub fn counts(trace: &Trace) -> (usize, usize) {
    let gos = trace.edits.iter().filter(|te| te.op == EditOp::Go).count();
    (trace.edits.len() - gos, gos)
}
