//! One serving session: per-user partial query, Learner profile, and
//! speculative builds gated by the fleet governor.
//!
//! [`ServeSession`] is the wall-clock speculative runtime an application
//! embeds: feed it [`EditOp`]s as the user works and call
//! [`ServeSession::go`] when they hit the button. Between edits a
//! background thread executes the speculator's chosen manipulation;
//! edits that invalidate it cancel it at the next morsel boundary, and
//! GO cancels whatever is still running — the paper's asynchronous-
//! execution conventions on real threads. The database is *shared* with
//! every other session of the [`SessionManager`], builds must win a slot
//! from the [`Governor`], and speculative artifacts are registered in
//! the [`SharedArtifactCache`] so any session's GO can reuse them. (The
//! experiment harness in `specdb-sim` runs the same conventions on a
//! virtual clock.)
//!
//! [`SessionManager`]: crate::SessionManager

use crate::artifacts::{BeginBuild, BuildTicket, CompleteBuild, SessionId, SharedArtifactCache};
use crate::governor::{Admission, Governor};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::Serialize;
use specdb_core::apply_manipulation;
use specdb_core::{Learner, Manipulation, Speculator, SpeculatorConfig};
use specdb_exec::{CancelToken, Database, ExecResult, QueryOutput};
use specdb_query::{EditOp, PartialQuery, Query};
use specdb_storage::VirtualTime;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Counters describing one serving session's activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ServeSessionStats {
    /// Speculative builds admitted and started.
    pub issued: u64,
    /// Builds that completed and installed their artifact.
    pub completed: u64,
    /// Builds cancelled (edit invalidation, GO, or preemption).
    pub cancelled: u64,
    /// Candidate builds the governor denied.
    pub denied: u64,
    /// Candidate builds skipped because the artifact already existed
    /// (or was being built) fleet-wide.
    pub deduped: u64,
    /// Final queries executed.
    pub queries: u64,
    /// This session's GO plans that read an artifact built by a
    /// *different* session.
    pub shared_hits: u64,
    /// Artifacts garbage-collected by this session's sweeps.
    pub collected: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerEvent {
    Done,
    Cancelled,
}

/// Owned by a build thread. However the thread ends — done, cancelled,
/// stale, or panicking — dropping the guard releases the session's
/// governor slot, abandons the build ticket unless `complete_build`
/// consumed it, and reports the outcome to the session.
struct BuildGuard {
    session: SessionId,
    governor: Arc<Governor>,
    artifacts: Arc<SharedArtifactCache>,
    ticket: Option<BuildTicket>,
    events: Sender<WorkerEvent>,
    outcome: WorkerEvent,
}

impl Drop for BuildGuard {
    fn drop(&mut self) {
        self.governor.finish(self.session);
        if let Some(ticket) = self.ticket.take() {
            self.artifacts.abort_build(ticket);
        }
        let _ = self.events.send(self.outcome);
    }
}

struct Outstanding {
    manipulation: Manipulation,
    cancel: CancelToken,
    handle: JoinHandle<()>,
}

/// One interactive session against the shared database.
pub struct ServeSession {
    id: SessionId,
    name: String,
    db: Arc<Mutex<Database>>,
    speculator: Arc<Speculator>,
    governor: Arc<Governor>,
    artifacts: Arc<SharedArtifactCache>,
    learner: Learner,
    partial: PartialQuery,
    outstanding: Option<Outstanding>,
    events: (Sender<WorkerEvent>, Receiver<WorkerEvent>),
    epoch: Instant,
    stats: ServeSessionStats,
}

impl ServeSession {
    /// A new session over the shared database, speculating with the
    /// given user profile. Sessions are normally created through
    /// [`SessionManager::connect`], which wires the shared governor and
    /// artifact cache.
    ///
    /// [`SessionManager::connect`]: crate::SessionManager::connect
    pub fn new(
        id: SessionId,
        name: String,
        db: Arc<Mutex<Database>>,
        spec: SpeculatorConfig,
        governor: Arc<Governor>,
        artifacts: Arc<SharedArtifactCache>,
        learner: Learner,
    ) -> Self {
        ServeSession {
            id,
            name,
            db,
            speculator: Arc::new(Speculator::new(spec)),
            governor,
            artifacts,
            learner,
            partial: PartialQuery::new(),
            outstanding: None,
            events: unbounded(),
            epoch: Instant::now(),
            stats: ServeSessionStats::default(),
        }
    }

    /// Session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Session name (from CONNECT).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn now(&self) -> VirtualTime {
        VirtualTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn drain_events(&mut self) {
        while let Ok(ev) = self.events.1.try_recv() {
            match ev {
                WorkerEvent::Done => self.stats.completed += 1,
                WorkerEvent::Cancelled => self.stats.cancelled += 1,
            }
        }
    }

    fn resolve_outstanding(&mut self, force_cancel: bool) {
        if let Some(out) = &self.outstanding {
            let finished = out.handle.is_finished();
            let invalid = force_cancel
                || self.speculator.should_cancel(&out.manipulation, self.partial.graph());
            if finished || invalid {
                if !finished {
                    out.cancel.cancel();
                }
                let out = self.outstanding.take().unwrap();
                let _ = out.handle.join();
            }
        }
        self.drain_events();
    }

    /// Apply one user edit; may cancel the in-flight build, refresh the
    /// session's artifact leases, and propose a new build to the
    /// governor.
    pub fn edit(&mut self, op: EditOp) {
        let now = self.now();
        self.learner.observe_edit(now, &op);
        self.partial.apply(&op);
        self.resolve_outstanding(false);
        // Lease exactly the artifacts the new partial query supports.
        let keys = self.db.lock().supported_view_keys(self.partial.graph());
        self.artifacts.set_leases(self.id, &keys);
        if self.outstanding.is_some() {
            return;
        }
        let elapsed = self
            .learner
            .formulation_start()
            .map(|s| now.saturating_sub(s))
            .unwrap_or(VirtualTime::ZERO);
        let decision = {
            let db = self.db.lock();
            self.speculator.decide(self.partial.graph(), &db, &self.learner, elapsed)
        };
        if decision.is_idle() {
            return;
        }
        // Fleet-wide dedupe: if any session already built (or is
        // building) this artifact, don't propose a duplicate.
        let artifact_key = decision.manipulation.graph().map(Database::graph_key);
        if let Some(key) = &artifact_key {
            match self.artifacts.begin_build(key, self.id) {
                BeginBuild::Started(ticket) => {
                    // We hold the build claim; now win a slot or give
                    // the claim back.
                    let cand = decision.manipulation.to_string();
                    match self.governor.admit(self.id, decision.benefit_rate(), &cand) {
                        Admission::Admit | Admission::Preempt(_) => {
                            self.spawn_build(decision.manipulation.clone(), Some(ticket));
                        }
                        Admission::Deny => {
                            self.artifacts.abort_build(ticket);
                            self.stats.denied += 1;
                        }
                    }
                }
                BeginBuild::InFlight | BeginBuild::Ready(_) => {
                    self.stats.deduped += 1;
                }
            }
            return;
        }
        // Non-materializing manipulations (index, histogram, staging)
        // still consume a governor slot but register no artifact.
        let cand = decision.manipulation.to_string();
        match self.governor.admit(self.id, decision.benefit_rate(), &cand) {
            Admission::Admit | Admission::Preempt(_) => {
                self.spawn_build(decision.manipulation, None);
            }
            Admission::Deny => self.stats.denied += 1,
        }
    }

    fn spawn_build(&mut self, m: Manipulation, ticket: Option<BuildTicket>) {
        let cancel = CancelToken::new();
        self.governor.attach_cancel(self.id, cancel.clone());
        let db = Arc::clone(&self.db);
        let guard = BuildGuard {
            session: self.id,
            governor: Arc::clone(&self.governor),
            artifacts: Arc::clone(&self.artifacts),
            ticket,
            events: self.events.0.clone(),
            outcome: WorkerEvent::Cancelled,
        };
        let token = cancel.clone();
        let manipulation = m.clone();
        let handle = std::thread::spawn(move || {
            let mut guard = guard;
            let result = {
                let mut db = db.lock();
                apply_manipulation(&mut db, &manipulation, token)
            };
            let Ok(applied) = result else { return };
            if let Some(ticket) = guard.ticket.take() {
                let table = applied.table.clone().unwrap_or_default();
                if guard.artifacts.complete_build(ticket, table.clone()) == CompleteBuild::Stale {
                    // A DDL epoch bump raced the build: the result
                    // answers a stale snapshot. Drop it.
                    db.lock().drop_materialized(&table);
                    return;
                }
            }
            guard.outcome = WorkerEvent::Done;
        });
        self.stats.issued += 1;
        self.outstanding = Some(Outstanding { manipulation: m, cancel, handle });
    }

    /// Whether this session's speculative build is still running.
    pub(crate) fn build_in_flight(&self) -> bool {
        self.outstanding.as_ref().is_some_and(|out| !out.handle.is_finished())
    }

    /// Cancel the in-flight build, if any. Returns whether one was
    /// cancelled.
    pub fn cancel(&mut self) -> bool {
        let had = self.outstanding.is_some();
        self.resolve_outstanding(true);
        had
    }

    /// The user pressed GO: resolve the in-flight build, execute the
    /// canvas query, account cross-session artifact hits, and run the
    /// lease-aware GC sweep.
    pub fn go(&mut self) -> ExecResult<GoOutcome> {
        let final_query: Query = self.partial.query().clone();
        self.go_with(&final_query)
    }

    /// [`ServeSession::go`] with an explicit final query whose *core* is
    /// the current canvas. Lets a front end attach layers the canvas
    /// cannot express (projection lists built elsewhere, aggregates —
    /// see the `sql_shell` example); learning, leases and GC still key
    /// off the query's graph.
    pub fn go_with(&mut self, final_query: &Query) -> ExecResult<GoOutcome> {
        self.resolve_outstanding(true);
        let now = self.now();
        self.learner.observe_go(now, &final_query.graph);
        let (result, collected) = {
            let mut db = self.db.lock();
            let r = db.execute(final_query)?;
            // Lease against the final query, then sweep artifacts no
            // session supports any more.
            let keys = db.supported_view_keys(&final_query.graph);
            self.artifacts.set_leases(self.id, &keys);
            let doomed = self.artifacts.collect_unleased();
            for (_, table) in &doomed {
                db.drop_materialized(table);
            }
            for table in db.unsupported_staged(&final_query.graph) {
                db.unstage(&table);
            }
            (r, doomed.len() as u64)
        };
        self.stats.collected += collected;
        self.stats.queries += 1;
        let mut shared_hit = false;
        for view in &result.used_views {
            if self.artifacts.note_use(view, self.id) {
                self.stats.shared_hits += 1;
                shared_hit = true;
            }
        }
        Ok(GoOutcome { output: result, shared_hit })
    }

    /// The current partial query graph.
    pub fn partial(&self) -> &specdb_query::QueryGraph {
        self.partial.graph()
    }

    /// The session's user profile. Persist it with [`Learner::to_json`]
    /// and resume it in a later session through
    /// [`SessionManager::connect_with_learner`]: the paper's Learner
    /// accumulates knowledge of a user *across* sessions.
    ///
    /// [`SessionManager::connect_with_learner`]: crate::SessionManager::connect_with_learner
    pub fn learner(&self) -> &Learner {
        &self.learner
    }

    /// Session counters (drains pending worker events first).
    pub fn stats(&mut self) -> ServeSessionStats {
        self.drain_events();
        self.stats
    }

    /// Tear down: cancel in-flight work and release every artifact
    /// lease. Called by [`SessionManager::disconnect`].
    ///
    /// [`SessionManager::disconnect`]: crate::SessionManager::disconnect
    pub fn close(&mut self) {
        self.resolve_outstanding(true);
        self.artifacts.release_session(self.id);
        let doomed = self.artifacts.collect_unleased();
        if !doomed.is_empty() {
            let mut db = self.db.lock();
            for (_, table) in &doomed {
                db.drop_materialized(table);
            }
        }
    }
}

/// Result of [`ServeSession::go`].
#[derive(Debug)]
pub struct GoOutcome {
    /// The final query's output.
    pub output: QueryOutput,
    /// Whether the plan read at least one artifact built by a
    /// different session.
    pub shared_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorConfig;

    #[test]
    fn panicking_build_releases_its_slot_and_ticket() {
        let governor = Arc::new(Governor::new(GovernorConfig::default()));
        let artifacts = Arc::new(SharedArtifactCache::new());
        assert_eq!(governor.admit(1, 1.0, "materialize{k}"), Admission::Admit);
        let ticket = match artifacts.begin_build("k", 1) {
            BeginBuild::Started(t) => t,
            other => panic!("expected Started, got {other:?}"),
        };
        let (events, outcomes) = unbounded();
        let guard = BuildGuard {
            session: 1,
            governor: Arc::clone(&governor),
            artifacts: Arc::clone(&artifacts),
            ticket: Some(ticket),
            events,
            outcome: WorkerEvent::Cancelled,
        };
        let build = std::thread::spawn(move || {
            let _guard = guard;
            panic!("build failed halfway");
        });
        assert!(build.join().is_err(), "the build thread must have panicked");
        assert_eq!(governor.outstanding(), 0, "the slot must return to the fleet");
        assert!(
            matches!(artifacts.begin_build("k", 2), BeginBuild::Started(_)),
            "the key must not stay pinned in flight"
        );
        assert_eq!(outcomes.try_recv(), Ok(WorkerEvent::Cancelled));
    }
}
