//! Engine budgets and selection knobs, plus the builder that keeps
//! presets from drifting as fields are added.

/// Budgets and engine selection for a property check.
///
/// Construct via [`CheckOptions::builder`] (preferred — new knobs get a
/// default instead of breaking struct literals) or field-by-field from
/// [`CheckOptions::default`]. The fields stay public so existing
/// functional-update call sites (`CheckOptions { bdd_only: true,
/// ..Default::default() }`) keep working.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOptions {
    /// Maximum BMC unrolling depth.
    pub bmc_depth: usize,
    /// SAT conflict budget for each SAT engine call.
    pub sat_conflicts: u64,
    /// Maximum k for k-induction.
    pub induction_depth: usize,
    /// Add simple-path (loop-free) constraints to induction steps.
    pub simple_path: bool,
    /// BDD node quota (**live** nodes; the garbage collector reclaims
    /// dead intermediates before this budget is charged).
    pub bdd_nodes: usize,
    /// Maximum forward-reachability iterations.
    pub max_iterations: usize,
    /// Number of POBDD window variables (2^k partitions); 0 disables the
    /// POBDD fallback.
    pub pobdd_window_vars: u32,
    /// Seed both BDD engines' managers with the FORCE static variable
    /// order (`veridic_aig::structure::force_order`) before the first
    /// image: the latch/input slot order that minimizes hyperedge span
    /// over the AND/next-state structure, translated so each latch's
    /// current/next pair stays adjacent. Purely structural — computed
    /// once per property cone from the AIG alone. Verdicts, depths and
    /// iteration counts are unaffected; only node counts and wall-clock
    /// move. Off by default: with this off the engines are
    /// byte-identical to previous releases.
    pub static_order: bool,
    /// Skip the SAT engines (BDD-only portfolio).
    pub bdd_only: bool,
    /// Skip the BDD engines (SAT-only portfolio).
    pub sat_only: bool,
    /// Run the static pre-analysis stage before any engine: a ternary
    /// constant sweep over each bad's COI-reduced cone
    /// (`veridic_aig::analyze`). Statically-constant bads and
    /// constraints conclude with **zero** engine invocations;
    /// sequentially-stuck latches are folded out of the AIG every
    /// engine sees. On designs with nothing to fold the stage is an
    /// identity pass — verdicts, depths, iteration counts and event
    /// logs are byte-identical to running with this off. On by
    /// default: the sweep is linear in the cone and the fold only ever
    /// shrinks the state space.
    pub preanalysis: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            bmc_depth: 30,
            sat_conflicts: 200_000,
            // Stereotype properties are k<=3 inductive by construction;
            // hold-capable integrity properties are not k-inductive for
            // ANY k (see veridic-core docs) — iterating far past the
            // inductive horizon only burns quadratic simple-path clauses
            // before the BDD engines take over.
            induction_depth: 6,
            simple_path: true,
            // Recalibrated for live-node quota semantics: with complement
            // edges + GC a live node packs roughly twice the logical work
            // of the old ever-allocated unit, so 2M live ~= the old 4M.
            bdd_nodes: 1 << 21,
            max_iterations: 10_000,
            pobdd_window_vars: 2,
            static_order: false,
            bdd_only: false,
            sat_only: false,
            preanalysis: true,
        }
    }
}

impl CheckOptions {
    /// A builder seeded with [`CheckOptions::default`]: override only
    /// the knobs that matter and every field added later inherits its
    /// default instead of breaking the call site.
    pub fn builder() -> CheckOptionsBuilder {
        CheckOptionsBuilder { opts: CheckOptions::default() }
    }

    /// A deliberately tiny budget, used to demonstrate and test the
    /// resource-out → partition flow of Fig. 7.
    ///
    /// Expressed through the builder so the preset tracks the default
    /// for everything it does not explicitly tighten — it used to be a
    /// full struct literal, which silently missed the live-node quota
    /// recalibration (2 000 ever-allocated units ≈ 1 000 live
    /// complement-edge nodes) and had to be hand-patched for every new
    /// field.
    pub fn tiny_budget() -> Self {
        CheckOptions::builder()
            .bmc_depth(4)
            .sat_conflicts(200)
            .induction_depth(2)
            .simple_path(false)
            .bdd_nodes(1_000)
            .max_iterations(64)
            .pobdd_window_vars(0)
            .build()
    }

    /// A stable 64-bit fingerprint of every budget and selection knob
    /// (FNV-1a over the fields in declaration order), identical across
    /// processes and runs.
    ///
    /// Persistent checkpoint headers bind to this: a checkpoint taken
    /// under one set of options must refuse to resume under another,
    /// because budgets and engine selection shape the run's event log
    /// and round boundaries, not just its speed. Any new field changes
    /// the fingerprint of configurations that set it away from the old
    /// behavior — which is exactly when an old checkpoint stops being
    /// comparable.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        word(self.bmc_depth as u64);
        word(self.sat_conflicts);
        word(self.induction_depth as u64);
        word(u64::from(self.simple_path));
        word(self.bdd_nodes as u64);
        word(self.max_iterations as u64);
        word(u64::from(self.pobdd_window_vars));
        word(u64::from(self.static_order));
        word(u64::from(self.bdd_only));
        word(u64::from(self.sat_only));
        word(u64::from(self.preanalysis));
        h
    }
}

/// Builder for [`CheckOptions`]; see [`CheckOptions::builder`].
///
/// ```
/// use veridic_mc::CheckOptions;
///
/// let opts = CheckOptions::builder()
///     .bmc_depth(10)
///     .pobdd_window_vars(3)
///     .build();
/// assert_eq!(opts.bmc_depth, 10);
/// assert_eq!(opts.sat_conflicts, CheckOptions::default().sat_conflicts);
/// ```
#[derive(Clone, Debug)]
pub struct CheckOptionsBuilder {
    opts: CheckOptions,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $field(mut self, value: $ty) -> Self {
                self.opts.$field = value;
                self
            }
        )*
    };
}

impl CheckOptionsBuilder {
    builder_setters! {
        /// Sets [`CheckOptions::bmc_depth`].
        bmc_depth: usize,
        /// Sets [`CheckOptions::sat_conflicts`].
        sat_conflicts: u64,
        /// Sets [`CheckOptions::induction_depth`].
        induction_depth: usize,
        /// Sets [`CheckOptions::simple_path`].
        simple_path: bool,
        /// Sets [`CheckOptions::bdd_nodes`].
        bdd_nodes: usize,
        /// Sets [`CheckOptions::max_iterations`].
        max_iterations: usize,
        /// Sets [`CheckOptions::pobdd_window_vars`].
        pobdd_window_vars: u32,
        /// Sets [`CheckOptions::static_order`].
        static_order: bool,
        /// Sets [`CheckOptions::bdd_only`].
        bdd_only: bool,
        /// Sets [`CheckOptions::sat_only`].
        sat_only: bool,
        /// Sets [`CheckOptions::preanalysis`].
        preanalysis: bool,
    }

    /// Finishes the builder.
    pub fn build(self) -> CheckOptions {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_starts_from_default() {
        assert_eq!(CheckOptions::builder().build(), CheckOptions::default());
    }

    #[test]
    fn builder_overrides_only_named_fields() {
        let opts = CheckOptions::builder().bdd_nodes(42).sat_only(true).build();
        assert_eq!(opts.bdd_nodes, 42);
        assert!(opts.sat_only);
        let d = CheckOptions::default();
        assert_eq!(opts.bmc_depth, d.bmc_depth);
        assert_eq!(opts.pobdd_window_vars, d.pobdd_window_vars);
    }

    /// The drift regression: every field `tiny_budget` does not
    /// explicitly tighten must equal the default — in particular the
    /// fields added after the preset was written and any future ones
    /// (the builder guarantees it structurally, this pins the explicit
    /// list).
    #[test]
    fn tiny_budget_tracks_default_for_untouched_fields() {
        let tiny = CheckOptions::tiny_budget();
        let d = CheckOptions::default();
        assert_eq!(tiny.static_order, d.static_order);
        assert!(!d.static_order, "static-order seeding defaults off");
        assert_eq!(tiny.bdd_only, d.bdd_only);
        assert_eq!(tiny.sat_only, d.sat_only);
        assert_eq!(tiny.preanalysis, d.preanalysis);
        assert!(d.preanalysis, "the static pre-analysis stage defaults on");
        // And the recalibrated live-node quota: half the historical
        // 2 000 ever-allocated units, mirroring the 1<<22 → 1<<21
        // default recalibration.
        assert_eq!(tiny.bdd_nodes, 1_000);
    }
}
