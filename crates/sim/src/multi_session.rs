//! Multi-session replay under the fleet governor.
//!
//! N traces replay *concurrently* against one shared [`Database`] on
//! one virtual clock: events from every session are processed in
//! global virtual-time order (ties fall to the lowest session index),
//! and each session keeps its own partial query, Learner profile,
//! speculator, and [`ReplayOutcome`]. Unlike [`crate::multi`], which
//! models background *load*, this mode models the serving layer of
//! `specdb-serve`: the per-session one-outstanding rule is replaced by
//! the fleet-wide [`Governor`] (admission by benefit rate, global
//! build budget, preemption), and speculative artifacts are shared —
//! a view materialized for one session serves every session's final
//! queries, with cross-session reuse accounted per use.
//!
//! **One session.** With one trace the governor admits every candidate
//! (a free slot always exists and non-idle decisions always carry a
//! positive benefit rate) and the cross-session hooks never fire, so the
//! loop is the paper's single-user replay; [`crate::replay::replay_trace`]
//! is exactly this call. `tests/determinism.rs` pins its outcomes.
//!
//! **Approximations** (shared with [`crate::multi`]): sessions do not
//! contend for virtual disk or CPU — each query's measured time is
//! what it would cost alone — and a build another session registered
//! but has not yet virtually committed is visible to the planner; only
//! *committed* foreign builds count toward `shared_hits`. The
//! `suspend_when_busy` replay knob is ignored here: the governor's
//! budget is the load-control mechanism.

use crate::replay::{
    cancel_pending, complete, edit_label, issue_gated, rollback, CompletedView, Pending,
    ProfileState, QueryMeasurement, ReplayConfig, ReplayOutcome,
};
use specdb_core::Speculator;
use specdb_exec::{Database, ExecResult};
use specdb_obs::{CancelReason, Event, EventKind};
use specdb_query::PartialQuery;
use specdb_serve::{Admission, Governor, GovernorConfig};
use specdb_storage::VirtualTime;
use specdb_trace::Trace;
use std::collections::{HashMap, HashSet};

/// Multi-session replay configuration: per-session replay behaviour
/// plus the fleet governor's policy.
#[derive(Debug, Clone, Default)]
pub struct MultiSessionConfig {
    /// Per-session replay knobs (profile, wait-at-GO, pipelining, …).
    /// `suspend_when_busy` is ignored — the governor budget replaces it.
    pub replay: ReplayConfig,
    /// Fleet-wide admission policy.
    pub governor: GovernorConfig,
}

impl MultiSessionConfig {
    /// Speculative sessions under the default governor policy.
    pub fn speculative() -> Self {
        MultiSessionConfig {
            replay: ReplayConfig::speculative(),
            governor: GovernorConfig::default(),
        }
    }
}

/// The outcome of a multi-session replay: one [`ReplayOutcome`] per
/// trace plus fleet-level counters. `PartialEq` so the determinism
/// suite can compare whole runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiSessionOutcome {
    /// Per-session outcomes, in input-trace order.
    pub per_session: Vec<ReplayOutcome>,
    /// Final-query plan reads of a *committed* speculative build made
    /// by a different session.
    pub shared_hits: u64,
    /// Final-query plan reads of any committed speculative build
    /// (own or foreign); denominator of [`cross_session_reuse`].
    ///
    /// [`cross_session_reuse`]: MultiSessionOutcome::cross_session_reuse
    pub artifact_uses: u64,
    /// Candidate builds the governor admitted.
    pub admitted: u64,
    /// Candidate builds the governor denied (budget full, no victim).
    pub denied: u64,
    /// In-flight builds preempted by stronger candidates.
    pub preempted: u64,
    /// Candidate builds skipped because another session had already
    /// built (or was building) the identical artifact.
    pub deduped: u64,
}

impl MultiSessionOutcome {
    /// Fraction of speculative-artifact reads served by another
    /// session's build.
    pub fn cross_session_reuse(&self) -> f64 {
        if self.artifact_uses == 0 {
            0.0
        } else {
            self.shared_hits as f64 / self.artifact_uses as f64
        }
    }

    /// Total execution time summed over every session's queries.
    pub fn total(&self) -> VirtualTime {
        self.per_session.iter().map(|o| o.total()).sum()
    }

    /// Every GO latency in the fleet (seconds), in session-major trace
    /// order — feed to a quantile estimator for p95 reporting.
    pub fn go_latency_secs(&self) -> Vec<f64> {
        self.per_session
            .iter()
            .flat_map(|o| o.queries.iter().map(|q| q.elapsed.as_secs_f64()))
            .collect()
    }
}

struct SessionState<'t> {
    trace: &'t Trace,
    speculator: Speculator,
    profile: ProfileState,
    pq: PartialQuery,
    offset: VirtualTime,
    pending: Option<Pending>,
    completed_views: HashMap<String, CompletedView>,
    out: ReplayOutcome,
    query_index: usize,
    question_start: Option<VirtualTime>,
    /// Next unprocessed edit in `trace`.
    idx: usize,
}

impl SessionState<'_> {
    fn active(&self) -> bool {
        self.idx < self.trace.edits.len()
    }

    fn next_at(&self) -> Option<VirtualTime> {
        self.trace.edits.get(self.idx).map(|te| te.at + self.offset)
    }
}

/// Cross-session bookkeeping: who owns which artifact.
#[derive(Default)]
struct FleetState {
    /// Canonical graph key → (builder index, backing table) for every
    /// live speculative artifact (pending or committed).
    owner_by_key: HashMap<String, (usize, String)>,
    /// Backing table → canonical graph key (for removal on drop).
    key_by_table: HashMap<String, String>,
    /// Backing table → builder index, for *committed* builds only.
    builder_of: HashMap<String, usize>,
    shared_hits: u64,
    artifact_uses: u64,
    deduped: u64,
}

impl FleetState {
    fn track_issue(&mut self, si: usize, p: &Pending) {
        if let (Some(g), Some(table)) = (p.manipulation.graph(), &p.table) {
            let key = Database::graph_key(g);
            self.owner_by_key.insert(key.clone(), (si, table.clone()));
            self.key_by_table.insert(table.clone(), key);
        }
    }

    fn track_commit(&mut self, si: usize, p: &Pending) {
        if let Some(table) = &p.table {
            self.builder_of.insert(table.clone(), si);
        }
    }

    fn forget_pending(&mut self, p: &Pending) {
        if let Some(table) = &p.table {
            self.forget_table(table);
        }
    }

    fn forget_table(&mut self, table: &str) {
        if let Some(key) = self.key_by_table.remove(table) {
            self.owner_by_key.remove(&key);
        }
        self.builder_of.remove(table);
    }
}

/// Replay `traces` concurrently against `db`, one session per trace.
pub fn replay_multi_session(
    db: &mut Database,
    traces: &[Trace],
    config: &MultiSessionConfig,
) -> ExecResult<MultiSessionOutcome> {
    if config.replay.cold_start {
        db.clear_buffer();
    }
    let observer = db.observer().clone();
    let tracer = observer.tracer().clone();
    let session_span = tracer.begin(specdb_obs::SpanKind::Session, "replay_multi_session", 0);
    let governor = Governor::with_observer(config.governor.clone(), observer.clone());
    let mut fleet = FleetState::default();
    let mut sessions: Vec<SessionState> = traces
        .iter()
        .map(|trace| SessionState {
            trace,
            speculator: Speculator::new(config.replay.speculator.clone()),
            profile: ProfileState::new(&config.replay.profile),
            pq: PartialQuery::new(),
            offset: VirtualTime::ZERO,
            pending: None,
            completed_views: HashMap::new(),
            out: ReplayOutcome::default(),
            query_index: 0,
            question_start: None,
            idx: 0,
        })
        .collect();

    loop {
        // Next event across the fleet: earliest virtual time, ties to
        // the lowest session index (strict `<` keeps the first seen).
        let mut next: Option<(VirtualTime, usize)> = None;
        for (i, s) in sessions.iter().enumerate() {
            if let Some(at) = s.next_at() {
                if next.is_none_or(|(best, _)| at < best) {
                    next = Some((at, i));
                }
            }
        }
        let Some((now, si)) = next else { break };
        observer.set_now_micros(now.as_micros());
        drain_completions(db, &mut sessions, si, now, config, &governor, &mut fleet)?;
        let op = sessions[si].trace.edits[sessions[si].idx].op.clone();
        if op.is_go() {
            process_go(db, &mut sessions, si, now, config, &governor, &mut fleet)?;
        } else {
            process_edit(db, &mut sessions, si, now, &op, config, &governor, &mut fleet)?;
        }
        sessions[si].idx += 1;
    }

    // Builds that survived every GC without ever being read are sunk
    // cost, per session (order-independent counter bumps).
    for s in &mut sessions {
        for (table, cv) in &s.completed_views {
            if !cv.used {
                s.out.wasted += 1;
                observer.metrics().counter("spec.wasted").incr();
                if cv.predicted {
                    s.out.predicted_wasted += 1;
                    observer.metrics().counter("spec.predicted_wasted").incr();
                }
                if observer.wants(EventKind::SpecWasted) {
                    observer.emit(Event::SpecWasted { table: table.clone() });
                }
            }
        }
    }
    let predicted_issued: u64 = sessions.iter().map(|s| s.out.predicted_issued).sum();
    if predicted_issued > 0 {
        let wasted: u64 = sessions.iter().map(|s| s.out.predicted_wasted).sum();
        observer
            .metrics()
            .gauge("spec.prediction_waste_ratio")
            .set(wasted as f64 / predicted_issued as f64);
    }

    let gov = governor.stats();
    let out = MultiSessionOutcome {
        per_session: sessions.into_iter().map(|s| s.out).collect(),
        shared_hits: fleet.shared_hits,
        artifact_uses: fleet.artifact_uses,
        admitted: gov.admitted,
        denied: gov.denied,
        preempted: gov.preempted,
        deduped: fleet.deduped,
    };
    observer
        .metrics()
        .gauge("spec.cross_session_reuse")
        .set(out.cross_session_reuse());
    let virt_end = observer.now_micros();
    let (n, shared, uses) = (out.per_session.len(), out.shared_hits, out.artifact_uses);
    session_span.finish_with(virt_end, |a| {
        a.push(("sessions", n.into()));
        a.push(("shared_hits", shared.into()));
        a.push(("artifact_uses", uses.into()));
        a.push(("admitted", gov.admitted.into()));
        a.push(("denied", gov.denied.into()));
        a.push(("preempted", gov.preempted.into()));
    });
    Ok(out)
}

/// Issue session `si`'s best manipulation through the dedupe check and
/// the governor gate.
fn try_issue(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    at: VirtualTime,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    let mut victim: Option<usize> = None;
    let mut deduped = false;
    let mut admitted = false;
    let pending = {
        let s = &mut sessions[si];
        let owner_by_key = &fleet.owner_by_key;
        issue_gated(db, &s.speculator, &s.profile, &s.pq, &mut s.out, at, &mut |d| {
            // Fleet dedupe: an identical artifact already exists (or is
            // being built) for another session — reuse, don't rebuild.
            if let Some(g) = d.manipulation.graph() {
                if let Some(&(owner, _)) = owner_by_key.get(&Database::graph_key(g)) {
                    if owner != si {
                        deduped = true;
                        return false;
                    }
                }
            }
            match governor.admit(si as u64, d.benefit_rate(), &d.manipulation.to_string()) {
                Admission::Admit => {
                    admitted = true;
                    true
                }
                Admission::Preempt(v) => {
                    admitted = true;
                    victim = Some(v as usize);
                    true
                }
                Admission::Deny => false,
            }
        })?
    };
    if deduped {
        fleet.deduped += 1;
    }
    match pending {
        Some(p) => {
            fleet.track_issue(si, &p);
            sessions[si].pending = Some(p);
        }
        // Admission without an issue (the engine refused the build):
        // give the slot back so it is not leaked.
        None if admitted => {
            governor.finish(si as u64);
        }
        None => {}
    }
    // Preemption resolves after the issue returns the database: the
    // victim's half-built artifact rolls back at the admission instant.
    if let Some(vi) = victim {
        if let Some(p) = sessions[vi].pending.take() {
            cancel_pending(db.observer(), &mut sessions[vi].out, &p, CancelReason::Preempted);
            rollback(db, &p);
            fleet.forget_pending(&p);
        }
    }
    Ok(())
}

/// Drain session `si`'s completions due by `now`. With pipelining on,
/// each completion frees the session's slot and the speculator issues
/// the next-best manipulation at the completion instant; the
/// paper-faithful default waits for the next edit.
fn drain_completions(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    now: VirtualTime,
    config: &MultiSessionConfig,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    if !config.replay.speculative {
        return Ok(());
    }
    let observer = db.observer().clone();
    while let Some(p) = sessions[si].pending.take() {
        if p.finish_at <= now {
            let completed_at = p.finish_at;
            {
                let s = &mut sessions[si];
                complete(&observer, &mut s.out, &mut s.completed_views, &p, completed_at);
            }
            governor.finish(si as u64);
            fleet.track_commit(si, &p);
            if config.replay.pipeline {
                try_issue(db, sessions, si, completed_at, governor, fleet)?;
            }
            if sessions[si].pending.is_none() {
                break;
            }
        } else {
            sessions[si].pending = Some(p);
            break;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn process_edit(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    now: VirtualTime,
    op: &specdb_query::EditOp,
    config: &MultiSessionConfig,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    let observer = db.observer().clone();
    let tracer = observer.tracer().clone();
    {
        let s = &mut sessions[si];
        s.profile.observe_edit(now, op);
        s.pq.apply(op);
        s.question_start.get_or_insert(now);
    }
    let label = edit_label(op);
    tracer.instant(specdb_obs::SpanKind::Edit, label, now.as_micros(), |a| {
        a.push(("session", (si as u64).into()));
    });
    if observer.wants(EventKind::Edit) {
        observer.emit(Event::Edit { op: label.to_string() });
    }
    // Cancel the in-flight manipulation if the edit invalidated it.
    if let Some(p) = sessions[si].pending.take() {
        if sessions[si].speculator.should_cancel(&p.manipulation, sessions[si].pq.graph()) {
            cancel_pending(&observer, &mut sessions[si].out, &p, CancelReason::Edit);
            rollback(db, &p);
            governor.finish(si as u64);
            fleet.forget_pending(&p);
        } else {
            sessions[si].pending = Some(p);
        }
    }
    if config.replay.speculative && sessions[si].pending.is_none() {
        try_issue(db, sessions, si, now, governor, fleet)?;
    }
    Ok(())
}

fn process_go(
    db: &mut Database,
    sessions: &mut [SessionState],
    si: usize,
    now: VirtualTime,
    config: &MultiSessionConfig,
    governor: &Governor,
    fleet: &mut FleetState,
) -> ExecResult<()> {
    let observer = db.observer().clone();
    let tracer = observer.tracer().clone();
    // Resolve the in-flight manipulation at GO. The paper's prototype
    // always cancels; with `wait_at_go` (its Section 7 suggestion) the
    // session waits out the remainder when it is smaller than the
    // manipulation's estimated per-query benefit, charging the wait to
    // the query's measured time.
    let mut wait = VirtualTime::ZERO;
    if let Some(p) = sessions[si].pending.take() {
        let remaining = p.finish_at.saturating_sub(now);
        if config.replay.wait_at_go && remaining.as_secs_f64() < p.benefit_secs {
            wait = remaining;
            let s = &mut sessions[si];
            s.out.waited += 1;
            complete(&observer, &mut s.out, &mut s.completed_views, &p, p.finish_at);
            governor.finish(si as u64);
            fleet.track_commit(si, &p);
        } else {
            cancel_pending(&observer, &mut sessions[si].out, &p, CancelReason::Go);
            rollback(db, &p);
            governor.finish(si as u64);
            fleet.forget_pending(&p);
        }
    }
    let query_index = sessions[si].query_index;
    tracer.instant(specdb_obs::SpanKind::Edit, "go", now.as_micros(), |a| {
        a.push(("query", query_index.into()));
        a.push(("session", (si as u64).into()));
    });
    if let Some(qs) = sessions[si].question_start.take() {
        observer
            .metrics()
            .histogram("lat.time_to_go_secs")
            .record(now.saturating_sub(qs).as_secs_f64());
    }
    let final_query = sessions[si].pq.query().clone();
    sessions[si].profile.observe_go(now, &final_query.graph);
    let result = db.execute_discard(&final_query)?;
    observer
        .metrics()
        .histogram("lat.query_secs")
        .record((result.elapsed + wait).as_secs_f64());
    // Settle this session's own bets first — a completed
    // materialization read by this plan counts as used once, and its
    // predicted per-query benefit is calibrated against the realized
    // saving — then the fleet's: a read of a committed foreign build is
    // a shared hit and marks the *builder's* bet as paid off.
    let go_key = Database::graph_key(&final_query.graph);
    for view in &result.used_views {
        let s = &mut sessions[si];
        if let Some(cv) = s.completed_views.get_mut(view) {
            if !cv.used {
                cv.used = true;
                s.out.used += 1;
                observer.metrics().counter("spec.used").incr();
                if cv.predicted {
                    if cv.artifact_key.as_deref() == Some(go_key.as_str()) {
                        s.out.predicted_hits += 1;
                        observer.metrics().counter("spec.predicted_hits").incr();
                    } else {
                        s.out.salvaged_hits += 1;
                        observer.metrics().counter("spec.salvaged_hits").incr();
                    }
                }
                if observer.wants(EventKind::SpecUsed) {
                    observer.emit(Event::SpecUsed { table: view.clone() });
                }
                if let Ok(base) = db.estimate_query_time_base(&final_query) {
                    observer.calibration().record_delta(
                        cv.predicted_delta_secs,
                        result.elapsed.as_secs_f64() - base.as_secs_f64(),
                    );
                }
            }
        }
    }
    for view in &result.used_views {
        let Some(&owner) = fleet.builder_of.get(view) else { continue };
        fleet.artifact_uses += 1;
        if owner == si {
            continue;
        }
        fleet.shared_hits += 1;
        observer.metrics().counter("spec.shared_hits").incr();
        let o = &mut sessions[owner];
        if let Some(cv) = o.completed_views.get_mut(view) {
            if !cv.used {
                cv.used = true;
                o.out.used += 1;
                observer.metrics().counter("spec.used").incr();
                // The builder's prediction paid off through a *foreign*
                // GO: classify against that GO's query key.
                if cv.predicted {
                    if cv.artifact_key.as_deref() == Some(go_key.as_str()) {
                        o.out.predicted_hits += 1;
                        observer.metrics().counter("spec.predicted_hits").incr();
                    } else {
                        o.out.salvaged_hits += 1;
                        observer.metrics().counter("spec.salvaged_hits").incr();
                    }
                }
                if observer.wants(EventKind::SpecUsed) {
                    observer.emit(Event::SpecUsed { table: view.clone() });
                }
            }
        }
    }
    {
        let s = &mut sessions[si];
        s.out.queries.push(QueryMeasurement {
            index: s.query_index,
            elapsed: result.elapsed + wait,
            rows: result.row_count,
        });
        s.query_index += 1;
        s.offset += result.elapsed + wait;
    }
    // Garbage collection, fleet rule: a materialization drops only when
    // *no* session supports it — neither this session's final query,
    // nor any other active session's current partial query, nor an
    // in-flight build's backing table. With one session this is exactly
    // the single-session GC.
    let mut doomed = sessions[si].speculator.gc_candidates(db, &final_query.graph);
    let inflight: HashSet<String> = sessions
        .iter()
        .enumerate()
        .filter(|(oi, _)| *oi != si)
        .filter_map(|(_, o)| o.pending.as_ref().and_then(|p| p.table.clone()))
        .collect();
    doomed.retain(|name| !inflight.contains(name));
    for (oi, other) in sessions.iter().enumerate() {
        if oi == si || doomed.is_empty() || !other.active() {
            continue;
        }
        let unsupported: HashSet<String> =
            db.unsupported_views(other.pq.graph()).into_iter().collect();
        doomed.retain(|name| unsupported.contains(name));
    }
    for name in doomed {
        db.drop_materialized(&name);
        sessions[si].out.collected += 1;
        observer.metrics().counter("spec.collected").incr();
        if observer.wants(EventKind::SpecCollected) {
            observer.emit(Event::SpecCollected { table: name.clone() });
        }
        settle_drop(sessions, si, &name, fleet, &observer);
    }
    let mut staged = db.unsupported_staged(&final_query.graph);
    for (oi, other) in sessions.iter().enumerate() {
        if oi == si || staged.is_empty() || !other.active() {
            continue;
        }
        let unsupported: HashSet<String> =
            db.unsupported_staged(other.pq.graph()).into_iter().collect();
        staged.retain(|name| unsupported.contains(name));
    }
    for table in staged {
        db.unstage(&table);
        sessions[si].out.collected += 1;
        observer.metrics().counter("spec.collected").incr();
        if observer.wants(EventKind::SpecCollected) {
            observer.emit(Event::SpecCollected { table: table.clone() });
        }
        settle_drop(sessions, si, &table, fleet, &observer);
    }
    Ok(())
}

/// A dropped table's unread build is wasted — charged to its builder
/// (which is the collecting session itself in the single-session case).
fn settle_drop(
    sessions: &mut [SessionState],
    si: usize,
    table: &str,
    fleet: &mut FleetState,
    observer: &specdb_obs::Observer,
) {
    let owner = fleet.builder_of.get(table).copied().unwrap_or(si);
    fleet.forget_table(table);
    if let Some(cv) = sessions[owner].completed_views.remove(table) {
        if !cv.used {
            sessions[owner].out.wasted += 1;
            observer.metrics().counter("spec.wasted").incr();
            if cv.predicted {
                sessions[owner].out.predicted_wasted += 1;
                observer.metrics().counter("spec.predicted_wasted").incr();
            }
            if observer.wants(EventKind::SpecWasted) {
                observer.emit(Event::SpecWasted { table: table.to_string() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_base_db, DatasetSpec};
    use specdb_trace::{UserModel, UserModelConfig};

    fn small_trace(queries: usize, seed: u64) -> Trace {
        let cfg = UserModelConfig { queries, questions: 2, ..Default::default() };
        UserModel::new(cfg, specdb_tpch::ExploreDomain::tpch()).generate("u", seed)
    }

    #[test]
    fn twin_sessions_share_artifacts() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        // Two users exploring the same question stream: the second
        // session's identical candidate builds dedupe against the
        // first's, and its final queries read the first's views.
        let trace = small_trace(10, 42);
        let traces = vec![trace.clone(), trace];
        let mut db = base.clone();
        let out =
            replay_multi_session(&mut db, &traces, &MultiSessionConfig::speculative()).unwrap();
        assert_eq!(out.per_session.len(), 2);
        for (a, b) in out.per_session[0].queries.iter().zip(&out.per_session[1].queries) {
            assert_eq!(a.rows, b.rows, "identical traces must see identical answers");
        }
        // The speculator's candidate space is registry-aware, so the
        // twin proposes *complementary* builds rather than duplicates
        // (the dedupe gate is defense-in-depth, not the common path) —
        // the sharing shows up as cross-session reads at GO.
        assert!(out.shared_hits > 0, "the twin must read the first session's views: {out:?}");
        assert!(out.cross_session_reuse() > 0.0);
        assert!(out.cross_session_reuse() <= 1.0);
    }

    #[test]
    fn bookkeeping_stays_consistent_per_session() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..4).map(|s| small_trace(6, 300 + s)).collect();
        let mut db = base.clone();
        let cfg = MultiSessionConfig {
            replay: ReplayConfig::speculative(),
            governor: GovernorConfig { max_outstanding: 1, ..Default::default() },
        };
        let out = replay_multi_session(&mut db, &traces, &cfg).unwrap();
        let mut issued_total = 0;
        for s in &out.per_session {
            assert_eq!(s.issued, s.completed + s.cancelled);
            assert_eq!(s.manipulation_times.len() as u64, s.completed);
            assert_eq!(s.queries.len(), 6);
            issued_total += s.issued;
        }
        assert_eq!(issued_total, out.admitted, "every admitted candidate must issue");
        assert!(out.artifact_uses >= out.shared_hits);
        assert_eq!(out.go_latency_secs().len(), 24);
    }

    #[test]
    fn tight_budget_denies_more_than_loose() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..4).map(|s| small_trace(6, 900 + s)).collect();
        let run = |budget: usize, preempt: bool| {
            let mut db = base.clone();
            let cfg = MultiSessionConfig {
                replay: ReplayConfig::speculative(),
                governor: GovernorConfig { max_outstanding: budget, preempt, ..Default::default() },
            };
            replay_multi_session(&mut db, &traces, &cfg).unwrap()
        };
        let tight = run(1, false);
        let loose = run(16, false);
        assert!(
            tight.denied >= loose.denied,
            "budget 1 must deny at least as often as budget 16: {} vs {}",
            tight.denied,
            loose.denied
        );
        assert!(tight.admitted <= loose.admitted);
        // Same fleet, same answers, regardless of the budget.
        for (a, b) in tight.per_session.iter().zip(&loose.per_session) {
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.rows, qb.rows, "admission policy must never change answers");
            }
        }
    }

    #[test]
    fn preemption_reclaims_slots_for_stronger_candidates() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let traces: Vec<Trace> = (0..6).map(|s| small_trace(6, 40 + s)).collect();
        let run = |preempt: bool| {
            let mut db = base.clone();
            let cfg = MultiSessionConfig {
                replay: ReplayConfig::speculative(),
                governor: GovernorConfig { max_outstanding: 1, preempt, ..Default::default() },
            };
            replay_multi_session(&mut db, &traces, &cfg).unwrap()
        };
        let without = run(false);
        assert_eq!(without.preempted, 0);
        let with = run(true);
        // Preemption count shows up both fleet-wide and in the victims'
        // cancellation tallies.
        let cancelled: u64 = with.per_session.iter().map(|s| s.cancelled).sum();
        assert!(with.preempted <= cancelled);
        for (a, b) in without.per_session.iter().zip(&with.per_session) {
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.rows, qb.rows, "preemption must never change answers");
            }
        }
    }
}
