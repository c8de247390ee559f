//! Resumable engine state: what a suspended engine hands the scheduler
//! so a later [`crate::Portfolio::resume_bad_with_budget`] can continue
//! the run.
//!
//! The SAT engines checkpoint a cursor (their solver state is rebuilt
//! deterministically on resume); the BDD engines serialize their
//! reached/frontier sets through [`veridic_bdd::transfer`]'s
//! level-ordered export — the checkpoint owns no manager references, is
//! `Send`, and imports into a *fresh* manager, so a killed reachability
//! run resumes mid-fixpoint with an identical verdict, falsification
//! depth and completed-round count.

use veridic_bdd::transfer::{DeltaBdd, ExportedBdd};

/// Mid-fixpoint state of a BDD reachability engine (monolithic or
/// partitioned): per-window reached and frontier sets at the end of a
/// completed round, in the transfer layer's manager-independent format.
///
/// The monolithic engine has exactly one window; the POBDD engine one
/// entry per window cube, indexed like its window list (which is
/// deterministically re-derived from the AIG on resume).
///
/// The frontier is a subset of the reached set by construction (it is
/// the states first reached in the last completed round), so its cone
/// heavily overlaps the reached cone — each window's frontier is
/// therefore stored as a [`DeltaBdd`] against the *same window's*
/// `reached` export, shipping only the handful of nodes the frontier
/// adds. Resume rebuilds it with
/// [`veridic_bdd::transfer::import_delta`] over the paired baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct ReachCheckpoint {
    /// Completed reachability rounds at suspension (the next round to
    /// run is `depth + 1`).
    pub depth: usize,
    /// Per-window reached sets.
    pub reached: Vec<ExportedBdd>,
    /// Per-window frontiers, delta-encoded against the same window's
    /// `reached` export.
    pub frontier: Vec<DeltaBdd>,
    /// The window-variable count the partition was built with (0 for
    /// the monolithic engine); resume re-derives the same windows and
    /// verifies the count matches.
    pub window_vars: u32,
}

/// A suspended engine's resumable state.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineCheckpoint {
    /// BMC: the next unrolling depth to query. Frames below it are
    /// re-encoded on resume (deterministic) but not re-queried.
    Bmc {
        /// First depth the resumed run will query.
        next_depth: usize,
    },
    /// k-induction: the next k to attempt.
    Induction {
        /// First induction depth the resumed run will attempt.
        next_k: usize,
    },
    /// A BDD reachability fixpoint (monolithic or partitioned).
    Reach(ReachCheckpoint),
}

impl EngineCheckpoint {
    /// The completed reachability depth, if this is a BDD checkpoint.
    pub fn reach_depth(&self) -> Option<usize> {
        match self {
            EngineCheckpoint::Reach(r) => Some(r.depth),
            _ => None,
        }
    }
}
