//! The session manager: N sessions, one shared database, one governor,
//! one artifact cache.

use crate::artifacts::{CacheStats, SessionId, SharedArtifactCache};
use crate::governor::{Governor, GovernorConfig, GovernorStats};
use crate::session::ServeSession;
use parking_lot::Mutex;
use specdb_core::{Learner, SpeculatorConfig};
use specdb_exec::Database;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fleet-level counters (see [`SessionManager::fleet_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    /// Sessions currently connected.
    pub sessions: u64,
    /// Governor admission history.
    pub governor: GovernorStats,
    /// Shared artifact-cache counters.
    pub cache: CacheStats,
}

/// Owns the shared [`Database`] and hands out [`ServeSession`]s that
/// speculate under one fleet-wide [`Governor`] and share one
/// [`SharedArtifactCache`]. With a single session it is the embeddable
/// speculative runtime; [`SessionManager::into_database`] hands the
/// database back when the application is done.
pub struct SessionManager {
    db: Arc<Mutex<Database>>,
    governor: Arc<Governor>,
    artifacts: Arc<SharedArtifactCache>,
    spec_config: SpeculatorConfig,
    sessions: Mutex<BTreeMap<SessionId, Arc<Mutex<ServeSession>>>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// Wrap a database for multi-session serving.
    pub fn new(db: Database, spec: SpeculatorConfig, governor: GovernorConfig) -> Self {
        let observer = db.observer().clone();
        SessionManager {
            db: Arc::new(Mutex::new(db)),
            governor: Arc::new(Governor::with_observer(governor, observer.clone())),
            artifacts: Arc::new(SharedArtifactCache::with_observer(observer)),
            spec_config: spec,
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Open a new session with a fresh user profile. Session ids are
    /// unique for the manager's lifetime (never reused).
    pub fn connect(&self, name: &str) -> (SessionId, Arc<Mutex<ServeSession>>) {
        self.connect_with_learner(name, Learner::default())
    }

    /// Open a new session that resumes a previously trained user profile
    /// (see [`Learner::to_json`] / [`Learner::from_json`]).
    pub fn connect_with_learner(
        &self,
        name: &str,
        learner: Learner,
    ) -> (SessionId, Arc<Mutex<ServeSession>>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Mutex::new(ServeSession::new(
            id,
            name.to_string(),
            Arc::clone(&self.db),
            self.spec_config.clone(),
            Arc::clone(&self.governor),
            Arc::clone(&self.artifacts),
            learner,
        )));
        self.sessions.lock().insert(id, Arc::clone(&session));
        (id, session)
    }

    /// Look up a connected session.
    pub fn session(&self, id: SessionId) -> Option<Arc<Mutex<ServeSession>>> {
        self.sessions.lock().get(&id).cloned()
    }

    /// Close a session: cancel its in-flight build and release its
    /// artifact leases. Returns whether the session existed.
    pub fn disconnect(&self, id: SessionId) -> bool {
        let Some(session) = self.sessions.lock().remove(&id) else { return false };
        session.lock().close();
        true
    }

    /// Sessions currently connected.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// The fleet governor.
    pub fn governor(&self) -> &Arc<Governor> {
        &self.governor
    }

    /// The shared artifact cache.
    pub fn artifacts(&self) -> &Arc<SharedArtifactCache> {
        &self.artifacts
    }

    /// Run a closure against the shared database (e.g. to inspect the
    /// view registry in tests).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.lock())
    }

    /// Fleet-level counters.
    pub fn fleet_stats(&self) -> FleetStats {
        FleetStats {
            sessions: self.session_count() as u64,
            governor: self.governor.stats(),
            cache: self.artifacts.stats(),
        }
    }

    /// Tear down: close every session (cancelling and joining in-flight
    /// builds, collecting unleased artifacts) and return the database.
    ///
    /// # Panics
    ///
    /// If a [`ServeSession`] handle from [`SessionManager::connect`] is
    /// still alive outside the manager: it shares the database.
    pub fn into_database(self) -> Database {
        let ids: Vec<SessionId> = self.sessions.lock().keys().copied().collect();
        for id in ids {
            self.disconnect(id);
        }
        match Arc::try_unwrap(self.db) {
            Ok(db) => db.into_inner(),
            Err(_) => panic!("into_database: drop every ServeSession handle first"),
        }
    }
}
