#![warn(missing_docs)]
//! The speculation subsystem — the paper's primary contribution.
//!
//! Architecture (paper Figure 3): a **Speculator** watches the partial
//! query on the visual interface; a **Manipulation Space** enumerates the
//! asynchronous actions that could prepare the database; a **Cost Model**
//! scores each action's expected effect on the final query's execution
//! cost (Theorem 3.1 makes this computable without enumerating the
//! infinite universe of possible final queries); and a **Learner** builds
//! a per-user profile supplying the probability terms.
//!
//! * [`manipulation`] — the five operation types (null, histogram
//!   creation, index creation, query materialization, query rewriting)
//!   and [`apply_manipulation`], which executes one against the engine,
//! * [`space`] — candidate enumeration over the current partial query,
//! * [`cost_model`] — `Cost⊆(m) = f⊆(qm)·(cost(qm,m) − cost(qm,m∅))`,
//!   with the depth-n extension and a completion-probability factor,
//! * [`learner`] — survival/persistence/think-time estimators plus an
//!   online logistic-regression alternative, behind the [`Profile`]
//!   trait (with uniform and oracle baselines),
//! * [`speculator`] — decision making, cancellation tests, and the
//!   garbage-collection heuristic.
//!
//! Two runtimes run the speculator: `specdb-serve`'s `ServeSession` on
//! real threads and wall-clock time (the one applications embed), and
//! `specdb-sim`'s replay on a virtual clock.

pub mod cost_model;
pub mod learner;
pub mod manipulation;
pub mod space;
pub mod speculator;

pub use cost_model::{CostModel, CostModelConfig};
pub use learner::predict::EditPredictor;
pub use learner::{Learner, LearnerConfig, OracleProfile, Profile, UniformProfile};
pub use manipulation::{apply_manipulation, Applied, Manipulation};
pub use space::{IncrementalSpace, ManipulationSpace, SpaceConfig};
pub use speculator::{Decision, Speculator, SpeculatorConfig};

/// The learner's user-profile type alias used across the workspace.
pub type UserProfile = Learner;
