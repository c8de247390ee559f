//! # veridic
//!
//! A formal verification methodology for checking **data integrity** —
//! a from-scratch Rust reproduction of Umezawa & Shimizu (DATE 2004/05),
//! complete with every substrate the methodology stands on:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | RTL IR | [`netlist`] | word-level synthesizable netlists |
//! | Frontend | [`verilog`] | Verilog subset parser/elaborator/emitter |
//! | Properties | [`psl`] | PSL safety subset → monitor circuits |
//! | Bit level | [`aig`] | And-Inverter Graphs, COI, replay |
//! | Engines | [`bdd`], [`sat`], [`mc`] | ROBDD/POBDD UMC, CDCL, BMC, k-induction |
//! | Baseline | [`sim`] | cycle simulator + constrained-random stimulus |
//! | Evaluation | [`chipgen`] | the synthetic server chip (Table 2 census, 7 bugs) |
//! | Methodology | [`core`] | Verifiable RTL, stereotype vunits, partitioning, campaign |
//! | Service | [`campaign`] | checkpoints, crash-recoverable daemon |
//!
//! ## Quickstart
//!
//! ```
//! use veridic::prelude::*;
//!
//! // 1. A leaf module with parity-protected state (from the generator).
//! let plan = &build_plans(Scale::Small)[0];
//! let module = build_leaf(plan, None);
//!
//! // 2. Make it Verifiable (Fig. 6) and derive the stereotype vunits.
//! let vm = make_verifiable(&module)?;
//! let vunits = generate_all(&vm)?;
//!
//! // 3. Model check one of them.
//! let (_gen, compiled) = &vunits[0];
//! let lowered = compiled.module.to_aig()?;
//! let mut aig = lowered.aig.clone();
//! for (label, net) in &compiled.asserts {
//!     aig.add_bad(label.clone(), lowered.bit(*net, 0));
//! }
//! for (label, net) in &compiled.assumes {
//!     aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
//! }
//! let result = check(&aig, &CheckOptions::default());
//! assert!(result.verdict.is_proved());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use veridic_aig as aig;
pub use veridic_bdd as bdd;
pub use veridic_campaign as campaign;
pub use veridic_chipgen as chipgen;
pub use veridic_core as core;
pub use veridic_mc as mc;
pub use veridic_netlist as netlist;
pub use veridic_psl as psl;
pub use veridic_sat as sat;
pub use veridic_sim as sim;
pub use veridic_verilog as verilog;

/// The working set of the methodology: one import for examples and
/// downstream tools.
pub mod prelude {
    pub use veridic_aig::analyze::{
        analyze, fold_constants, ternary_sweep, ternary_sweep_constrained, ConstantNet,
        ConstrainedSweep, DesignReport, FoldResult, StuckLatch, SweepResult, Ternary,
    };
    pub use veridic_aig::structure::{force_order, Condensation, ForceOrder, LatchGraph};
    pub use veridic_aig::Aig;
    pub use veridic_campaign::{
        maybe_run_worker, CampaignDir, CampaignSpec, CheckpointFile, CodecError, DaemonError,
        JobState, RunOutcome, StatusSummary,
    };
    pub use veridic_chipgen::{
        build_leaf, build_order_stress, build_plans, observe_symptom, BugId, Category, Chip,
        ChipConfig, LeafPlan, PropertyType, Scale, SpecCompliant, SpecialKind,
    };
    pub use veridic_core::checkpoint::{extract, Inventory};
    pub use veridic_core::flow::{
        run_campaign, run_campaign_with_portfolio, CampaignConfig, CampaignReport,
    };
    pub use veridic_core::impact::{
        area_report, category_increase, eco_replay, module_area, render_table4, CellCosts,
        TimingReport,
    };
    pub use veridic_core::partition::{
        cut_at, decomposition_is_acyclic, demo_chain_module, partition_output_integrity,
        run_partition, run_partition_with_portfolio, PartitionWorkerStats,
    };
    pub use veridic_core::stereotype::{
        edetect_vunit, generate_all, integrity_vunit, other_vunit, soundness_vunit,
    };
    pub use veridic_core::verifiable::{
        make_verifiable, transform_design, VerifiableModule, EC_PORT, ED_PORT,
    };
    pub use veridic_mc::{
        check, BadCoiStats, Budget, CancelToken, CheckOptions, CheckOptionsBuilder, CheckResult,
        CheckStats, CheckpointMisfit, Engine, EngineCheckpoint, EngineCtx, EngineEvent, EngineId,
        EngineOutcome, EventOutcome, EventResources, Portfolio, PortfolioOutcome, PreanalysisStats,
        ReachCheckpoint, RunCheckpoint, Verdict, PREANALYSIS,
    };
    pub use veridic_netlist::{Design, Expr, Module, NetId, PortDir, Value};
    pub use veridic_psl::{compile_vunit, parse_psl};
    pub use veridic_sim::{detection_latency, Simulator, Stimulus, UniformRandom, VcdWriter};
    pub use veridic_verilog::{elaborate, emit_design, emit_module, parse};
}
