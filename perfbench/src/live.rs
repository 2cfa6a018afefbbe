//! The live workloads: a closed loop of client connections replaying
//! trace pairs against `specdb-serve` on loopback.

use crate::cohort;
use crate::layers::{self, Budget, GoWindow};
use crate::stats::{quantile, ratio};
use crate::wire::{self, Conn, Reply};
use crate::Phase;
use specdb_core::{SpaceConfig, SpeculatorConfig};
use specdb_exec::Database;
use specdb_obs::{Observer, SpanKind, Tracer};
use specdb_serve::{serve, ServeConfig};
use specdb_trace::Trace;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Trace think gaps are divided by this: 500× keeps the paper's median
/// 11 s formulation at about one median GO.
pub const THINK_COMPRESSION: f64 = 500.0;

/// How the two live workloads differ.
#[derive(Debug, Clone, Copy)]
pub struct Live {
    /// Sleep the compressed trace think gaps between requests.
    pub think: bool,
    /// Speculation and prediction at their defaults; when false every
    /// manipulation kind and prediction are switched off.
    pub speculate: bool,
}

impl Live {
    fn speculator(self) -> SpeculatorConfig {
        if self.speculate {
            return SpeculatorConfig::default();
        }
        SpeculatorConfig {
            space: SpaceConfig {
                histograms: false,
                indexes: false,
                materializations: false,
                selections_only: false,
                staging: false,
            },
            predict: false,
            ..SpeculatorConfig::default()
        }
    }
}

/// One request as the client saw it.
struct Sent {
    pair: usize,
    /// For a GO: its index among the trace's GOs.
    go: Option<usize>,
    start: Instant,
    secs: f64,
    reply: Option<Reply>,
    /// Whether the line parses back to the trace's edit.
    round_trips: bool,
}

#[derive(Default)]
struct ConnLog {
    sent: Vec<Sent>,
    /// Requests outside the measured EDIT/GO stream (CONNECT, STATS,
    /// QUIT) and whether each failed.
    control: u64,
    control_failed: u64,
    /// Planned edits and GOs never sent because the session broke off.
    unsent: u64,
    /// STATS counters at the end of each session, summed.
    session_stats: Vec<(String, u64)>,
    /// Per session: its pair, when it started and ended, and whether it
    /// replayed its whole trace.
    sessions: Vec<(usize, Instant, Instant, bool)>,
}

impl ConnLog {
    fn control(&mut self, conn: &mut Conn, line: &str) -> Option<Reply> {
        self.control += 1;
        let reply = conn.request(line).ok().and_then(|r| wire::parse_reply(&r)).filter(|r| r.ok);
        if reply.is_none() {
            self.control_failed += 1;
        }
        reply
    }

    fn add_stats(&mut self, stats: &[(String, u64)]) {
        for (k, v) in stats {
            match self.session_stats.iter_mut().find(|(n, _)| n == k) {
                Some((_, total)) => *total += v,
                None => self.session_stats.push((k.clone(), *v)),
            }
        }
    }
}

fn drive(addr: SocketAddr, id: usize, w: Live, plan: &[(Trace, usize)], pace: &Barrier) -> ConnLog {
    let mut log = ConnLog::default();
    for (pair, (trace, planned)) in plan.iter().enumerate() {
        // Both connections start pair `k` together.
        pace.wait();
        let began = Instant::now();
        let mut whole = false;
        let Ok(mut conn) = Conn::open(addr) else {
            log.control += 1;
            log.control_failed += 1;
            log.unsent += *planned as u64;
            continue;
        };
        if log.control(&mut conn, &format!("CONNECT pair{pair}-s{id}")).is_none() {
            log.unsent += *planned as u64;
            continue;
        }
        let mut prev_at = trace.edits.first().map(|te| te.at);
        let mut gos = 0;
        let mut sent = 0;
        for (i, te) in trace.edits[..*planned].iter().enumerate() {
            if w.think {
                let gap = te.at.saturating_sub(prev_at.unwrap_or(te.at));
                std::thread::sleep(Duration::from_secs_f64(gap.as_secs_f64() / THINK_COMPRESSION));
            }
            prev_at = Some(te.at);
            let line = wire::render(&te.op);
            let go = te.op.is_go().then_some(gos);
            let round_trips = wire::round_trips(&te.op, &line);
            let start = Instant::now();
            let reply = conn.request(&line);
            let secs = start.elapsed().as_secs_f64();
            let broken = reply.is_err();
            let reply = reply.ok().and_then(|r| wire::parse_reply(&r));
            log.sent.push(Sent { pair, go, start, secs, reply, round_trips });
            sent = i + 1;
            if broken {
                break;
            }
            gos += usize::from(go.is_some());
            whole = i + 1 == trace.edits.len();
        }
        log.unsent += (planned - sent) as u64;
        if let Some(stats) = log.control(&mut conn, "STATS") {
            log.add_stats(&stats.session);
        }
        log.control(&mut conn, "QUIT");
        log.sessions.push((pair, began, Instant::now(), whole));
    }
    log
}

/// The first `requests` edits (GOs included) of the trace sequence of
/// `seed`, as `(trace, edits to send)` per pair: every connection sends
/// them all, so the same seed and budget give the same requests.
pub fn plan(seed: u64, requests: usize) -> Vec<(Trace, usize)> {
    let mut left = requests;
    let mut out = Vec::new();
    for pair in 0.. {
        if left == 0 {
            break;
        }
        let trace = cohort::pair_trace(seed, pair);
        let n = trace.edits.len().min(left);
        left -= n;
        out.push((trace, n));
    }
    out
}

/// How one GO's reply compares with the oracle.
#[derive(Debug, PartialEq)]
struct Verdict {
    /// The server's answer differs from in-process execution of the
    /// query it parsed: an engine or server fault.
    wrong: bool,
    /// The request failed, or the answer differs from the query the
    /// trace meant.
    failed: bool,
}

/// Judge a GO's reply (`None` for a timeout, a disconnect or an
/// unreadable line) against the row counts of the query as the server
/// parsed it and as the trace meant it (`None` where the engine
/// rejects the query). An error reply answers no rows, which is right
/// only where the engine rejects the query too.
fn judge(reply: Option<&Reply>, wire_rows: Option<u64>, intended_rows: Option<u64>) -> Verdict {
    let rows = reply.filter(|r| r.ok).and_then(|r| r.rows);
    Verdict {
        wrong: reply.is_none() || rows != wire_rows,
        failed: rows.is_none() || rows != intended_rows,
    }
}

/// Run one live phase against a fresh server over a clone of `base`:
/// each connection sends the first `requests` edits and GOs of the
/// trace sequence of `seed`.
pub fn phase(
    base: &Database,
    w: Live,
    seed: u64,
    requests: usize,
    traced: bool,
) -> Result<Phase, String> {
    let plan = plan(seed, requests);
    let mut db = base.clone();
    let tracer = if traced { Tracer::enabled() } else { Tracer::disabled() };
    let epoch = Instant::now();
    let observer = traced.then(|| Observer::enabled().with_tracer(tracer.clone()));
    if let Some(o) = &observer {
        db.set_observer(o.clone());
    }
    let config = ServeConfig { speculator: w.speculator(), ..ServeConfig::default() };
    let handle = serve(db, config).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();
    let connections = crate::connections();
    let pace = Barrier::new(connections);
    let started = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|id| {
                let (plan, pace) = (&plan, &pace);
                s.spawn(move || drive(addr, id, w, plan, pace))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    // Every session has sent QUIT; wait for the server to close them so
    // the fleet counters are final.
    let manager = handle.manager().clone();
    let closing = Instant::now();
    while manager.session_count() > 0 && closing.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let fleet = manager.fleet_stats();
    let plan_cache = manager.with_db(|db| db.plan_cache_stats());
    let sessions_left = manager.session_count();
    drop(manager);
    handle.shutdown();

    let pairs = plan.len();
    let jobs: Vec<_> = plan
        .into_iter()
        .enumerate()
        .map(|(p, (trace, _))| {
            let gos = logs
                .iter()
                .flat_map(|l| &l.sent)
                .filter(|s| s.pair == p)
                .filter_map(|s| s.go.map(|g| g + 1))
                .max()
                .unwrap_or(0);
            (trace, gos)
        })
        .collect();
    let oracles = cohort::oracles(base, &jobs, true);

    let mut out = Phase { wall_s, ..Phase::default() };
    if sessions_left > 0 {
        out.notes.push(format!("{sessions_left} sessions still open after QUIT"));
    }
    let mut windows = Vec::new();
    let mut used_views = BTreeSet::new();
    let mut overhead_ms = Vec::new();
    for s in logs.iter().flat_map(|l| &l.sent) {
        out.attempted += 1;
        let ok = s.reply.as_ref().is_some_and(|r| r.ok);
        let Some(g) = s.go else {
            if ok {
                out.edits += 1;
                out.edit_ms.push(s.secs * 1e3);
            } else {
                out.failed += 1;
            }
            continue;
        };
        // Every GO's wait counts, failed ones included: an error reply
        // or a timeout is still what the user waited for.
        out.go_ms.push(s.secs * 1e3);
        let oracle = &oracles[s.pair];
        let verdict = judge(s.reply.as_ref(), oracle.wire_rows[g], oracle.intended_rows[g]);
        out.wrong += u64::from(verdict.wrong);
        out.failed += u64::from(verdict.failed);
        let Some(reply) = s.reply.as_ref().filter(|r| r.ok && r.rows.is_some()) else {
            continue;
        };
        out.gos += 1;
        out.virtual_go_s.push(reply.elapsed_secs.unwrap_or(0.0));
        used_views.extend(reply.used_views.iter().cloned());
        overhead_ms.push(s.secs * 1e3 - oracle.wire_exec_ms[g]);
        let start_us = s.start.saturating_duration_since(epoch).as_micros() as u64;
        windows.push(GoWindow { start_us, end_us: start_us + (s.secs * 1e6) as u64 });
    }
    for l in &logs {
        out.attempted += l.control + l.unsent;
        out.failed += l.control_failed + l.unsent;
    }
    // Rates per session pair whose sessions all ran their whole trace.
    for p in 0..pairs {
        let spans: Vec<_> = logs.iter().flat_map(|l| &l.sessions).filter(|s| s.0 == p).collect();
        if spans.len() < connections || !spans.iter().all(|s| s.3) {
            continue;
        }
        let from = spans.iter().map(|s| s.1).min().expect("pair has sessions");
        let to = spans.iter().map(|s| s.2).max().expect("pair has sessions");
        let secs = (to - from).as_secs_f64();
        let ok = |go: bool| {
            logs.iter()
                .flat_map(|l| &l.sent)
                .filter(|s| s.pair == p && s.go.is_some() == go)
                .filter(|s| s.reply.as_ref().is_some_and(|r| r.ok))
                .count() as f64
        };
        out.pair_go_rates.push(ok(true) / secs);
        out.pair_edit_rates.push(ok(false) / secs);
    }
    let stat = |name: &str| -> f64 {
        logs.iter()
            .flat_map(|l| &l.session_stats)
            .filter(|(k, _)| k == name)
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let issued = stat("issued");
    if w.speculate {
        if fleet.governor.admitted == 0 || issued == 0.0 {
            out.notes.push("live_think issued no speculative builds".into());
        }
        if fleet.cache.shared_hits == 0 {
            out.notes.push("live_think saw no cross-session shared hits".into());
        }
    } else if fleet.governor.admitted > 0 || issued > 0.0 {
        out.notes.push(format!("speculation disabled but {issued} builds were issued"));
    }

    let roundtrip_failures =
        logs.iter().flat_map(|l| &l.sent).filter(|s| !s.round_trips).count() as f64;

    let l = &mut out.layers;
    if traced {
        let spans = tracer.take_spans();
        let snap = observer.as_ref().map(|o| o.metrics().snapshot()).unwrap_or_default();
        layers::registry_layers(&snap, l);
        let mut budget = Budget::default();
        budget.add(&spans, &windows);
        budget.layers(l);
        l.insert(
            "core.decide_us_p50",
            quantile(&layers::durations_us(&spans, SpanKind::Decide, true), 0.5),
        );
        l.insert(
            "core.build_s_p50",
            quantile(&layers::durations_us(&spans, SpanKind::Speculation, true), 0.5) / 1e6,
        );
    }
    out.exec_ms = oracles.iter().flat_map(|o| o.exec_ms.iter().copied()).collect();
    out.dropped_spans = tracer.dropped();
    l.insert(
        "exec.plan_cache_hit_ratio",
        ratio(plan_cache.hits as f64, (plan_cache.hits + plan_cache.misses) as f64),
    );
    let completed = stat("completed");
    let used = used_views.len() as f64;
    l.insert("core.issued", issued);
    l.insert("core.completed", completed);
    l.insert("core.cancelled", stat("cancelled"));
    l.insert("core.used_ratio", ratio(used, completed));
    l.insert("core.waste_ratio", ratio((issued - used).max(0.0), issued));
    l.insert("serve.go_overhead_ms_p50", quantile(&overhead_ms, 0.5));
    l.insert("serve.go_overhead_ms_p95", quantile(&overhead_ms, 0.95));
    l.insert("serve.governor_admitted", fleet.governor.admitted as f64);
    l.insert("serve.governor_denied", fleet.governor.denied as f64);
    l.insert("serve.governor_preempted", fleet.governor.preempted as f64);
    l.insert("serve.shared_hits", fleet.cache.shared_hits as f64);
    l.insert("serve.cross_session_reuse", fleet.cache.cross_session_reuse());
    l.insert("serve.builds_stale", fleet.cache.stale as f64);
    l.insert("serve.wire_roundtrip_failures", roundtrip_failures);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(ok: bool, rows: Option<u64>) -> Option<Reply> {
        Some(Reply { ok, rows, ..Reply::default() })
    }

    #[test]
    fn a_plan_is_the_same_prefix_of_the_seed_traces() {
        let a = plan(7, 50);
        assert_eq!(a.iter().map(|(_, n)| n).sum::<usize>(), 50);
        // Every trace but the last is sent whole.
        assert!(a.iter().rev().skip(1).all(|(t, n)| *n == t.edits.len()));
        assert_eq!(a, plan(7, 50));
        assert_ne!(a[0].0, plan(8, 50)[0].0);
    }

    #[test]
    fn an_unanswered_go_is_never_right() {
        let v = |wrong, failed| Verdict { wrong, failed };
        // Right answer; a float constant parsed as a string.
        assert_eq!(judge(reply(true, Some(5)).as_ref(), Some(5), Some(5)), v(false, false));
        assert_eq!(judge(reply(true, Some(5)).as_ref(), Some(5), Some(9)), v(false, true));
        // An error reply where the engine answers, a timeout, a
        // reply without rows.
        assert_eq!(judge(reply(false, None).as_ref(), Some(5), Some(5)), v(true, true));
        assert_eq!(judge(None, Some(5), Some(5)), v(true, true));
        assert_eq!(judge(None, None, None), v(true, true));
        assert_eq!(judge(reply(true, None).as_ref(), Some(5), Some(5)), v(true, true));
        // The engine rejects the query too: the error is right, yet
        // the request failed.
        assert_eq!(judge(reply(false, None).as_ref(), None, None), v(false, true));
    }
}
