//! Resumable engine state: what a suspended engine hands the scheduler
//! so a later [`crate::Portfolio::resume_bad_with_budget`] can continue
//! the run.
//!
//! The SAT engines checkpoint a cursor (their solver state is rebuilt
//! deterministically on resume); the BDD reachability fixpoint
//! serializes its reached/frontier sets through
//! [`veridic_bdd::transfer`]'s level-ordered export — the checkpoint
//! owns no manager references, is `Send`, and imports into a *fresh*
//! manager, so a killed reachability run resumes mid-fixpoint with an
//! identical verdict, falsification depth and completed-round count.

use std::fmt;

use veridic_bdd::transfer::ExportedBdd;

use crate::engine::EngineId;

/// Mid-fixpoint state of the BDD reachability fixpoint: every window's
/// reached and frontier set at the end of a completed round, in the
/// transfer layer's manager-independent format.
///
/// BDD-UMC has exactly one window; POBDD-UMC one per window cube,
/// indexed like its window list (which is deterministically re-derived
/// from the AIG on resume). All the sets are the roots of one export,
/// `[reached_0, frontier_0, reached_1, frontier_1, …]`: the frontier is
/// a subset of its window's reached set by construction (the states
/// first reached in the last completed round), so their cones overlap
/// heavily, and the shared node list stores each common node once.
#[derive(Clone, Debug, PartialEq)]
pub struct ReachCheckpoint {
    /// Completed reachability rounds at suspension (the next round to
    /// run is `depth + 1`).
    pub depth: usize,
    /// The reached and frontier set of every window, as the roots
    /// `[reached_0, frontier_0, reached_1, frontier_1, …]` of one
    /// export.
    pub sets: ExportedBdd,
    /// The window-variable count the partition was built with (0 for
    /// BDD-UMC); resume re-derives the same windows and verifies the
    /// count matches.
    pub window_vars: u32,
}

impl ReachCheckpoint {
    /// Checks that this checkpoint fits the run about to import it: it
    /// was taken on the window split the resuming engine derives
    /// (`window_vars` split variables, a reached and a frontier root for
    /// each of its `windows` windows), and every node lies in the
    /// transition system's variable space `0..vars` — a variable
    /// outside it would name no latch or input, and a huge one would
    /// make the importing manager grow its order maps to match.
    pub(crate) fn check_fit(
        &self,
        window_vars: u32,
        windows: usize,
        vars: usize,
    ) -> Result<(), CheckpointMisfit> {
        if self.window_vars != window_vars {
            let found = self.window_vars;
            return Err(CheckpointMisfit::WindowVars {
                expected: window_vars,
                found,
            });
        }
        let roots = self.sets.raw_roots().len();
        if roots != 2 * windows {
            return Err(CheckpointMisfit::WindowCount {
                expected: windows,
                roots,
            });
        }
        match self
            .sets
            .raw_nodes()
            .find(|(var, _, _)| *var as usize >= vars)
        {
            Some((var, _, _)) => Err(CheckpointMisfit::VarOutOfRange { var, vars }),
            None => Ok(()),
        }
    }
}

/// Why a checkpoint that decoded cleanly cannot resume a run: it does
/// not fit the portfolio, AIG or options it was handed with. Continuing
/// would not be the suspended run, so
/// [`crate::Portfolio::resume_bad_with_budget`] refuses the checkpoint,
/// and the caller can start the run afresh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointMisfit {
    /// The slot index is past the portfolio's last engine.
    SlotOutOfRange {
        /// The checkpoint's slot.
        slot: usize,
        /// The portfolio's engine count.
        slots: usize,
    },
    /// The bad index is past the AIG's last bad.
    BadOutOfRange {
        /// The checkpoint's bad index.
        bad_index: usize,
        /// The AIG's bad count.
        bads: usize,
    },
    /// The slot's engine cannot take this kind of engine state.
    WrongState {
        /// The checkpoint's slot.
        slot: usize,
        /// The engine in that slot.
        engine: EngineId,
    },
    /// The slot's engine is disabled under the options.
    SlotDisabled {
        /// The checkpoint's slot.
        slot: usize,
        /// The engine in that slot.
        engine: EngineId,
    },
    /// A reachability checkpoint split on another number of window
    /// variables than the resuming engine.
    WindowVars {
        /// The engine's count (0 for BDD-UMC).
        expected: u32,
        /// The checkpoint's count.
        found: u32,
    },
    /// A reachability checkpoint whose root count is not two (a reached
    /// and a frontier set) for each window of the split the resuming
    /// engine derives.
    WindowCount {
        /// The engine's window count (1 for BDD-UMC).
        expected: usize,
        /// The checkpoint's roots.
        roots: usize,
    },
    /// A reachability checkpoint with a node on a variable outside the
    /// transition system's variable space (two per latch, one per
    /// input).
    VarOutOfRange {
        /// The offending variable.
        var: u32,
        /// The size of the variable space.
        vars: usize,
    },
}

impl fmt::Display for CheckpointMisfit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointMisfit::SlotOutOfRange { slot, slots } => {
                write!(
                    f,
                    "it names engine slot {slot}, the portfolio has {slots} slots"
                )
            }
            CheckpointMisfit::BadOutOfRange { bad_index, bads } => {
                write!(f, "it is for bad {bad_index}, the AIG has {bads} bads")
            }
            CheckpointMisfit::WrongState { slot, engine } => {
                write!(f, "its engine state does not fit slot {slot} ({engine})")
            }
            CheckpointMisfit::SlotDisabled { slot, engine } => {
                write!(f, "slot {slot} ({engine}) is disabled under these options")
            }
            CheckpointMisfit::WindowVars { expected, found } => {
                write!(
                    f,
                    "it splits on {found} window variables, the engine on {expected}"
                )
            }
            CheckpointMisfit::WindowCount { expected, roots } => write!(
                f,
                "it has {roots} reached and frontier sets, the engine's {expected} windows take {}",
                2 * expected
            ),
            CheckpointMisfit::VarOutOfRange { var, vars } => {
                write!(
                    f,
                    "it has a node on variable {var}, the system has {vars} variables"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointMisfit {}

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
    /// The BDD reachability fixpoint (BDD-UMC or POBDD-UMC).
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
