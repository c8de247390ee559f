//! Static pre-analysis: ternary constant sweep, sequential constant
//! folding, and a typed design lint report.
//!
//! Industrial flows front-load cheap static checks before any engine
//! runs (Olmos et al., *Can We Start Earlier?*): real RTL arrives full
//! of stuck-at latches, dead cones and vacuous properties, and every
//! one of them burns full engine budget if nobody looks first. This
//! module is that look:
//!
//! * [`ternary_sweep`] runs a 0/1/X constant-propagation fixpoint over
//!   the latch system. Latches start at their reset values, primary
//!   inputs are X, and the next-state functions are evaluated in
//!   ternary until no latch value changes. A latch whose value is still
//!   a constant at the fixpoint is **sequentially stuck**: no input
//!   sequence can ever move it off its reset value.
//! * [`fold_constants`] rebuilds a simplified AIG with the stuck
//!   latches substituted by their constants, dead cones dropped, and a
//!   literal map back to the original. The folding contract: the new
//!   AIG's next-state/bad/constraint functions equal the originals with
//!   the stuck latches fixed — so reachable-state sets (projected onto
//!   the surviving latches), falsification depths and BDD iteration
//!   counts are preserved exactly.
//! * [`analyze`] emits a [`DesignReport`] of lint findings: stuck
//!   latches, constant bads (vacuous or trivially-falsified
//!   properties), constant constraints, constant outputs, dead logic
//!   outside every bad cone, and unused inputs.
//!
//! The sweep is a sound over-approximation of the reachable states: a
//! net it calls constant really is constant on every reachable state
//! (the converse does not hold — a net constant for a deep reachability
//! reason evaluates to X here). That one-sidedness is what makes the
//! verdicts drawn from it ([`DesignReport::vacuous_bads`], the
//! portfolio's zero-engine conclusions) safe.

use crate::hash::FxHashMap;
use crate::structure::LatchGraph;
use crate::{Aig, LatchId, Lit, Node, Var};

/// Direct AND-fanin reference count at which an unconstrained input is
/// reported as a fanout hot spot. Absolute, not relative: small clean
/// designs never trip it, while a free input steering half a real
/// netlist — the classic unconstrained-clock-enable mistake — always
/// does.
pub const FANOUT_HOTSPOT_THRESHOLD: usize = 64;

/// A value in the three-valued constant-propagation lattice:
/// `False < X`, `True < X`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Constant 0 on every reachable state.
    False,
    /// Constant 1 on every reachable state.
    True,
    /// Not known to be constant.
    X,
}

impl Ternary {
    /// Lifts a Boolean.
    pub fn from_bool(b: bool) -> Ternary {
        if b {
            Ternary::True
        } else {
            Ternary::False
        }
    }

    /// The constant, if this is one.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Ternary::False => Some(false),
            Ternary::True => Some(true),
            Ternary::X => None,
        }
    }

    /// True for [`Ternary::False`] and [`Ternary::True`].
    pub fn is_const(self) -> bool {
        self != Ternary::X
    }

    /// Kleene conjunction: false dominates X.
    pub fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::False, _) | (_, Ternary::False) => Ternary::False,
            (Ternary::True, Ternary::True) => Ternary::True,
            _ => Ternary::X,
        }
    }

    /// Lattice join: agreeing values stay, disagreement goes to X.
    pub fn join(self, other: Ternary) -> Ternary {
        if self == other {
            self
        } else {
            Ternary::X
        }
    }
}

impl std::ops::Not for Ternary {
    type Output = Ternary;
    fn not(self) -> Ternary {
        match self {
            Ternary::False => Ternary::True,
            Ternary::True => Ternary::False,
            Ternary::X => Ternary::X,
        }
    }
}

/// The fixpoint of a [`ternary_sweep`]: a ternary value for every node
/// variable, consistent with the final latch values.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Final value of each node variable, indexed by [`Var`].
    values: Vec<Ternary>,
    /// Final value of each latch, indexed by [`LatchId`].
    latch_values: Vec<Ternary>,
    /// Fixpoint rounds taken (each latch can only move constant → X
    /// once, so this is at most `num_latches + 1`).
    pub rounds: usize,
}

impl SweepResult {
    /// The sweep value of a variable.
    pub fn var_value(&self, var: Var) -> Ternary {
        self.values[var.0 as usize]
    }

    /// The sweep value of a literal (complement applied).
    pub fn lit_value(&self, lit: Lit) -> Ternary {
        let v = self.var_value(lit.var());
        if lit.is_compl() {
            !v
        } else {
            v
        }
    }

    /// The sweep value of a latch.
    pub fn latch_value(&self, id: LatchId) -> Ternary {
        self.latch_values[id.0 as usize]
    }

    /// Latches still constant at the fixpoint, with their stuck values
    /// (always the reset value), in latch order.
    pub fn stuck_latches(&self) -> impl Iterator<Item = (LatchId, bool)> + '_ {
        self.latch_values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.to_bool().map(|b| (LatchId(i as u32), b)))
    }

    /// Number of sequentially-stuck latches.
    pub fn stuck_count(&self) -> usize {
        self.latch_values.iter().filter(|v| v.is_const()).count()
    }
}

/// Runs the ternary constant-propagation fixpoint over `aig`'s latch
/// system.
///
/// Every latch starts at its reset constant; inputs are X; the
/// next-state functions are evaluated in ternary and joined into the
/// latch values until nothing changes. Values only move *up* the
/// lattice (constant → X), so the loop terminates in at most
/// `num_latches + 1` rounds, each linear in the AIG.
pub fn ternary_sweep(aig: &Aig) -> SweepResult {
    let n = aig.num_nodes();
    let mut latch_values: Vec<Ternary> = aig
        .latches()
        .iter()
        .map(|l| Ternary::from_bool(l.init))
        .collect();
    let mut values = vec![Ternary::X; n];
    let mut rounds = 0;
    loop {
        rounds += 1;
        // Node creation order is topological: one pass evaluates all.
        for i in 0..n {
            let v = Var(i as u32);
            values[i] = match aig.node_kind(v) {
                Node::Const0 => Ternary::False,
                Node::Input { .. } => Ternary::X,
                Node::Latch { index } => latch_values[*index as usize],
                Node::And { a, b } => {
                    let va = lit_value_in(&values, *a);
                    let vb = lit_value_in(&values, *b);
                    va.and(vb)
                }
            };
        }
        let mut changed = false;
        for (i, latch) in aig.latches().iter().enumerate() {
            let next = lit_value_in(&values, latch.next);
            let joined = latch_values[i].join(next);
            if joined != latch_values[i] {
                latch_values[i] = joined;
                changed = true;
            }
        }
        if !changed {
            // The last node pass used exactly these latch values, so
            // `values` is already consistent with the fixpoint.
            break;
        }
    }
    SweepResult {
        values,
        latch_values,
        rounds,
    }
}

fn lit_value_in(values: &[Ternary], lit: Lit) -> Ternary {
    let v = values[lit.var().0 as usize];
    if lit.is_compl() {
        !v
    } else {
        v
    }
}

/// The fixpoint of [`ternary_sweep_constrained`]: the plain sweep
/// lattice strengthened by the design's constraints.
#[derive(Clone, Debug)]
pub struct ConstrainedSweep {
    /// The strengthened sweep. Values here hold on every state of a
    /// *constraint-satisfying* trace prefix — a strictly smaller set
    /// than the plain sweep reasons about, so more nets come out
    /// constant.
    pub sweep: SweepResult,
    /// The forced-value closure of the constraint literals, sorted by
    /// variable: every (var, value) pair the constraints pin on each
    /// cycle they hold.
    pub forced: Vec<(Var, bool)>,
    /// True when the constraints are statically unsatisfiable — they
    /// force contradictory values, contradict a latch's reset value, or
    /// force a net the sweep proves is the opposite constant. No
    /// constrained path exists at all; every property is vacuous.
    pub contradiction: bool,
}

/// Runs the ternary sweep with the constraints folded in as forced
/// values.
///
/// Each constraint literal must be true on every cycle of a valid
/// trace, so its structural closure — both fanins of a forced-true AND,
/// the forced-false AND behind a negated literal, forced inputs and
/// latches — participates in the fixpoint as constants rather than X.
/// Latches a constraint pins are clamped to the pinned value each
/// round: on any cycle where the constraints hold (which includes every
/// cycle a bad may legally fire, under aiger semantics) the latch
/// carries that value.
///
/// The strengthening is one-sided by design: it may only *lower*
/// values (X → constant) relative to [`ternary_sweep`], never flip a
/// constant, so conclusions drawn from it are sound for the **proved**
/// direction (a bad constant-false here is unreachable under the
/// constraints). It must *not* be used to fabricate counterexamples —
/// a bad constant-true here still needs an engine to exhibit a
/// constraint-satisfying input sequence.
pub fn ternary_sweep_constrained(aig: &Aig) -> ConstrainedSweep {
    // Forced-true closure of the constraint literals.
    let mut forced: FxHashMap<Var, bool> = FxHashMap::default();
    let mut contradiction = false;
    let mut work: Vec<(Var, bool)> = Vec::new();
    for c in aig.constraints() {
        work.push((c.lit.var(), !c.lit.is_compl()));
    }
    while let Some((v, val)) = work.pop() {
        match forced.get(&v) {
            Some(&prev) if prev != val => {
                contradiction = true;
                continue;
            }
            Some(_) => continue,
            None => {}
        }
        forced.insert(v, val);
        match aig.node_kind(v) {
            // The constant node is false; forcing it true is absurd.
            Node::Const0 => contradiction |= val,
            Node::Input { .. } | Node::Latch { .. } => {}
            Node::And { a, b } => {
                // A forced-true AND forces both fanins; a forced-false
                // AND pins only itself (either leg could be the low
                // one).
                if val {
                    work.push((a.var(), !a.is_compl()));
                    work.push((b.var(), !b.is_compl()));
                }
            }
        }
    }
    // A forced latch whose reset value disagrees violates the
    // constraints at cycle 0: no valid trace exists.
    for latch in aig.latches() {
        if let Some(&val) = forced.get(&latch.var) {
            if val != latch.init {
                contradiction = true;
            }
        }
    }
    // The sweep fixpoint, with forced inputs as constants, forced
    // latches clamped each round, and forced ANDs overriding X (an AND
    // the sweep computes as the *opposite* constant is a contradiction:
    // the constraint can never hold, not even combinationally).
    let n = aig.num_nodes();
    let mut latch_values: Vec<Ternary> = aig
        .latches()
        .iter()
        .map(|l| Ternary::from_bool(*forced.get(&l.var).unwrap_or(&l.init)))
        .collect();
    let mut values = vec![Ternary::X; n];
    let mut rounds = 0;
    loop {
        rounds += 1;
        for i in 0..n {
            let v = Var(i as u32);
            values[i] = match aig.node_kind(v) {
                Node::Const0 => Ternary::False,
                Node::Input { .. } => match forced.get(&v) {
                    Some(&val) => Ternary::from_bool(val),
                    None => Ternary::X,
                },
                Node::Latch { index } => latch_values[*index as usize],
                Node::And { a, b } => {
                    let computed = lit_value_in(&values, *a).and(lit_value_in(&values, *b));
                    match (forced.get(&v), computed) {
                        (Some(&val), Ternary::X) => Ternary::from_bool(val),
                        (Some(&val), c) if c != Ternary::from_bool(val) => {
                            contradiction = true;
                            c
                        }
                        _ => computed,
                    }
                }
            };
        }
        let mut changed = false;
        for (i, latch) in aig.latches().iter().enumerate() {
            let joined = match forced.get(&latch.var) {
                Some(&val) => Ternary::from_bool(val),
                None => latch_values[i].join(lit_value_in(&values, latch.next)),
            };
            if joined != latch_values[i] {
                latch_values[i] = joined;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut forced: Vec<(Var, bool)> = forced.into_iter().collect();
    forced.sort_unstable_by_key(|&(v, _)| v.0);
    ConstrainedSweep {
        sweep: SweepResult {
            values,
            latch_values,
            rounds,
        },
        forced,
        contradiction,
    }
}

/// The result of [`fold_constants`]: the simplified AIG plus the
/// literal map back to the original.
#[derive(Clone, Debug)]
pub struct FoldResult {
    /// The folded AIG. All primary inputs of the original are preserved
    /// **in creation order** (even ones the folding disconnected), so
    /// input indices — and therefore counterexample traces — carry over
    /// unchanged. Outputs, bads and constraints are re-registered under
    /// their original names.
    pub aig: Aig,
    /// Old variable → new literal, for every original variable that is
    /// either constant under the sweep, an input, or alive in the
    /// folded cone. Use [`FoldResult::map_lit`].
    pub lit_map: FxHashMap<Var, Lit>,
    /// Old latch id → new latch id for the surviving latches.
    pub latch_map: FxHashMap<LatchId, LatchId>,
    /// The folded-away latches with their stuck values, in latch order.
    pub stuck: Vec<(LatchId, bool)>,
    /// AND nodes eliminated (constant-folded or dead after folding).
    pub folded_ands: usize,
}

impl FoldResult {
    /// Maps an original literal into the folded AIG; `None` if its
    /// variable died with a dead cone.
    pub fn map_lit(&self, old: Lit) -> Option<Lit> {
        let base = *self.lit_map.get(&old.var())?;
        Some(if old.is_compl() { !base } else { base })
    }
}

/// Folds the sweep's constants into a simplified AIG.
///
/// Returns `None` when the sweep found no stuck latch — in that case
/// the only constant variable is the constant node itself, nothing
/// would change, and callers should keep using the original AIG (the
/// portfolio relies on this identity fast-path for byte-identical
/// statistics on designs with nothing to fold).
///
/// The rebuild substitutes every constant-valued variable by its
/// constant and re-creates only the logic still alive underneath the
/// outputs, bads, constraints and surviving latches' next-state
/// functions. Primary inputs are all preserved in creation order; see
/// [`FoldResult::aig`].
pub fn fold_constants(aig: &Aig, sweep: &SweepResult) -> Option<FoldResult> {
    let stuck: Vec<(LatchId, bool)> = sweep.stuck_latches().collect();
    if stuck.is_empty() {
        return None;
    }
    let n = aig.num_nodes();
    // Phase 1: mark the vars alive after substitution, traversing from
    // the registered roots through surviving latches' next functions.
    // Constant-valued vars are not traversed (they fold away); an AND
    // with a constant-true fanin only keeps its other leg.
    let mut alive = vec![false; n];
    let mut work: Vec<Var> = aig
        .outputs()
        .iter()
        .chain(aig.bads())
        .chain(aig.constraints())
        .map(|o| o.lit.var())
        .collect();
    while let Some(v) = work.pop() {
        if alive[v.0 as usize] || sweep.var_value(v).is_const() {
            continue;
        }
        alive[v.0 as usize] = true;
        match aig.node_kind(v) {
            Node::Const0 | Node::Input { .. } => {}
            Node::Latch { index } => {
                work.push(aig.latches()[*index as usize].next.var());
            }
            Node::And { a, b } => {
                // The node is X, so neither fanin is constant-false; a
                // constant-true fanin makes the node equal its sibling.
                if sweep.lit_value(*a) != Ternary::True {
                    work.push(a.var());
                }
                if sweep.lit_value(*b) != Ternary::True {
                    work.push(b.var());
                }
            }
        }
    }
    // Phase 2: rebuild in index order. All inputs first (their creation
    // order defines trace indexing and must survive), then latches and
    // ANDs as encountered.
    let mut out = Aig::new();
    let mut lit_map: FxHashMap<Var, Lit> = FxHashMap::default();
    lit_map.insert(Var(0), Lit::FALSE);
    for (var, name) in aig.inputs() {
        let l = out.input(name.clone());
        lit_map.insert(*var, l);
    }
    let map_old = |lit_map: &FxHashMap<Var, Lit>, l: Lit| -> Lit {
        if let Some(c) = sweep.lit_value(l).to_bool() {
            return if c { Lit::TRUE } else { Lit::FALSE };
        }
        let base = *lit_map
            .get(&l.var())
            .expect("fold mapping missed an alive node"); // lint: allow
        if l.is_compl() {
            !base
        } else {
            base
        }
    };
    let mut latch_map: FxHashMap<LatchId, LatchId> = FxHashMap::default();
    let mut kept: Vec<(LatchId, LatchId)> = Vec::new();
    for (i, live) in alive.iter().enumerate().take(n) {
        let v = Var(i as u32);
        if !live || sweep.var_value(v).is_const() {
            continue;
        }
        match aig.node_kind(v) {
            Node::Const0 | Node::Input { .. } => {}
            Node::Latch { index } => {
                let old_id = LatchId(*index);
                let info = &aig.latches()[*index as usize];
                let (new_id, l) = out.latch(info.name.clone(), info.init);
                latch_map.insert(old_id, new_id);
                kept.push((old_id, new_id));
                lit_map.insert(v, l);
            }
            Node::And { a, b } => {
                let l = if sweep.lit_value(*a) == Ternary::True {
                    map_old(&lit_map, *b)
                } else if sweep.lit_value(*b) == Ternary::True {
                    map_old(&lit_map, *a)
                } else {
                    let na = map_old(&lit_map, *a);
                    let nb = map_old(&lit_map, *b);
                    out.and(na, nb)
                };
                lit_map.insert(v, l);
            }
        }
    }
    // Phase 3: wire surviving latches and re-register the named nets.
    for (old_id, new_id) in &kept {
        let next = aig.latches()[old_id.0 as usize].next;
        let mapped = map_old(&lit_map, next);
        out.set_next(*new_id, mapped);
    }
    for o in aig.outputs() {
        let l = map_old(&lit_map, o.lit);
        out.add_output(o.name.clone(), l);
    }
    for b in aig.bads() {
        let l = map_old(&lit_map, b.lit);
        out.add_bad(b.name.clone(), l);
    }
    for c in aig.constraints() {
        let l = map_old(&lit_map, c.lit);
        out.add_constraint(c.name.clone(), l);
    }
    let folded_ands = aig.num_ands() - out.num_ands();
    Some(FoldResult {
        aig: out,
        lit_map,
        latch_map,
        stuck,
        folded_ands,
    })
}

/// A sequentially-stuck latch found by the sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StuckLatch {
    /// The latch.
    pub id: LatchId,
    /// Its diagnostic name.
    pub name: String,
    /// The constant it is stuck at (always its reset value).
    pub value: bool,
}

/// A named net the sweep proved constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstantNet {
    /// The net's registered name.
    pub name: String,
    /// Its constant value.
    pub value: bool,
}

/// The typed lint report of [`analyze`]: everything the static
/// pre-analysis can say about a design without running an engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DesignReport {
    /// Fixpoint rounds the sweep took.
    pub sweep_rounds: usize,
    /// Latches stuck at their reset value forever.
    pub stuck_latches: Vec<StuckLatch>,
    /// Bads constant **false**: the property holds vacuously — no
    /// engine needs to run.
    pub vacuous_bads: Vec<String>,
    /// Bads constant **true**: the property is trivially falsified in
    /// the initial state (subject to constraints).
    pub trivial_bads: Vec<String>,
    /// Constraints constant true — they restrict nothing.
    pub constant_true_constraints: Vec<String>,
    /// Constraints constant false — **every** property is vacuous, no
    /// constrained path exists at all.
    pub constant_false_constraints: Vec<String>,
    /// Outputs the sweep proved constant.
    pub constant_outputs: Vec<ConstantNet>,
    /// Latches outside the cone of every bad and constraint: the
    /// engines never look at them (they may still feed outputs).
    pub dead_latches: Vec<String>,
    /// AND nodes outside the cone of every bad and constraint.
    pub dead_ands: usize,
    /// Inputs feeding no bad, constraint, or output cone at all.
    pub unused_inputs: Vec<String>,
    /// Combinational cycles found at the netlist/AIG boundary. An AIG
    /// itself is acyclic by construction, so [`analyze`] always leaves
    /// this empty; boundary tooling (the `structure_lint` driver, the
    /// lowering pipeline) merges cycle findings from the source netlist
    /// here, one rendered cycle per entry.
    pub comb_loops: Vec<String>,
    /// Unconstrained-input fanout hot spots: inputs outside every
    /// constraint cone whose direct AND fanout reaches
    /// [`FANOUT_HOTSPOT_THRESHOLD`] — free variables steering large
    /// swaths of logic, the usual sign of a missing environment
    /// assumption.
    pub fanout_hotspots: Vec<String>,
    /// Rank-unreachable latches: latches whose SCC in the latch
    /// dependency graph is not reachable from any input-driven logic.
    /// Autonomous state no input sequence can influence — such cones
    /// are verified against their reset orbit only.
    pub unreachable_latches: Vec<String>,
}

impl DesignReport {
    /// True when the report has nothing to say.
    pub fn is_clean(&self) -> bool {
        self.stuck_latches.is_empty()
            && self.vacuous_bads.is_empty()
            && self.trivial_bads.is_empty()
            && self.constant_true_constraints.is_empty()
            && self.constant_false_constraints.is_empty()
            && self.constant_outputs.is_empty()
            && self.dead_latches.is_empty()
            && self.dead_ands == 0
            && self.unused_inputs.is_empty()
            && self.comb_loops.is_empty()
            && self.fanout_hotspots.is_empty()
            && self.unreachable_latches.is_empty()
    }

    /// Total number of findings (each dead AND counts once).
    pub fn findings(&self) -> usize {
        self.stuck_latches.len()
            + self.vacuous_bads.len()
            + self.trivial_bads.len()
            + self.constant_true_constraints.len()
            + self.constant_false_constraints.len()
            + self.constant_outputs.len()
            + self.dead_latches.len()
            + self.dead_ands
            + self.unused_inputs.len()
            + self.comb_loops.len()
            + self.fanout_hotspots.len()
            + self.unreachable_latches.len()
    }

    /// Renders the findings as human-readable lint lines, one per
    /// finding category that fired.
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if !self.stuck_latches.is_empty() {
            let names: Vec<String> = self
                .stuck_latches
                .iter()
                .map(|s| format!("{}={}", s.name, s.value as u8))
                .collect();
            lines.push(format!("stuck latches: {}", names.join(", ")));
        }
        if !self.vacuous_bads.is_empty() {
            lines.push(format!(
                "vacuous bads (constant 0): {}",
                self.vacuous_bads.join(", ")
            ));
        }
        if !self.trivial_bads.is_empty() {
            lines.push(format!(
                "trivially-falsified bads (constant 1): {}",
                self.trivial_bads.join(", ")
            ));
        }
        if !self.constant_true_constraints.is_empty() {
            lines.push(format!(
                "constant-true constraints: {}",
                self.constant_true_constraints.join(", ")
            ));
        }
        if !self.constant_false_constraints.is_empty() {
            lines.push(format!(
                "constant-false constraints (all properties vacuous): {}",
                self.constant_false_constraints.join(", ")
            ));
        }
        if !self.constant_outputs.is_empty() {
            let names: Vec<String> = self
                .constant_outputs
                .iter()
                .map(|o| format!("{}={}", o.name, o.value as u8))
                .collect();
            lines.push(format!("constant outputs: {}", names.join(", ")));
        }
        if !self.dead_latches.is_empty() {
            lines.push(format!(
                "latches outside every bad cone: {}",
                self.dead_latches.join(", ")
            ));
        }
        if self.dead_ands > 0 {
            lines.push(format!(
                "AND nodes outside every bad cone: {}",
                self.dead_ands
            ));
        }
        if !self.unused_inputs.is_empty() {
            lines.push(format!("unused inputs: {}", self.unused_inputs.join(", ")));
        }
        if !self.comb_loops.is_empty() {
            lines.push(format!(
                "combinational loops: {}",
                self.comb_loops.join("; ")
            ));
        }
        if !self.fanout_hotspots.is_empty() {
            lines.push(format!(
                "unconstrained fanout hot spots: {}",
                self.fanout_hotspots.join(", ")
            ));
        }
        if !self.unreachable_latches.is_empty() {
            lines.push(format!(
                "input-unreachable latches: {}",
                self.unreachable_latches.join(", ")
            ));
        }
        lines
    }
}

/// Runs the full static pre-analysis and returns the lint report.
///
/// Combines the [`ternary_sweep`] (stuck latches, constant
/// bads/constraints/outputs) with a structural cone analysis (dead
/// logic outside every bad/constraint cone, inputs feeding nothing).
pub fn analyze(aig: &Aig) -> DesignReport {
    let sweep = ternary_sweep(aig);
    let mut report = DesignReport {
        sweep_rounds: sweep.rounds,
        ..DesignReport::default()
    };
    for (id, value) in sweep.stuck_latches() {
        report.stuck_latches.push(StuckLatch {
            id,
            name: aig.latch_info(id).name.clone(),
            value,
        });
    }
    for b in aig.bads() {
        match sweep.lit_value(b.lit) {
            Ternary::False => report.vacuous_bads.push(b.name.clone()),
            Ternary::True => report.trivial_bads.push(b.name.clone()),
            Ternary::X => {}
        }
    }
    for c in aig.constraints() {
        match sweep.lit_value(c.lit) {
            Ternary::True => report.constant_true_constraints.push(c.name.clone()),
            Ternary::False => report.constant_false_constraints.push(c.name.clone()),
            Ternary::X => {}
        }
    }
    for o in aig.outputs() {
        if let Some(value) = sweep.lit_value(o.lit).to_bool() {
            report.constant_outputs.push(ConstantNet {
                name: o.name.clone(),
                value,
            });
        }
    }
    // Structural verification cone: everything reachable from bads and
    // constraints through latch next-state functions.
    let verification_cone = cone_vars(aig, aig.bads().iter().chain(aig.constraints()));
    for latch in aig.latches() {
        if !verification_cone[latch.var.0 as usize] {
            report.dead_latches.push(latch.name.clone());
        }
    }
    report.dead_ands = aig
        .and_order()
        .filter(|v| !verification_cone[v.0 as usize])
        .count();
    // An input is unused only if nothing at all reads it — bads,
    // constraints and outputs included.
    let any_cone = cone_vars(
        aig,
        aig.bads()
            .iter()
            .chain(aig.constraints())
            .chain(aig.outputs()),
    );
    for (var, name) in aig.inputs() {
        if !any_cone[var.0 as usize] {
            report.unused_inputs.push(name.clone());
        }
    }
    // Structural lints from the latch dependency graph: fanout hot
    // spots on unconstrained inputs, and autonomous (rank-unreachable)
    // latch SCCs. `comb_loops` stays empty here — AIG construction is
    // topological, cycles only exist upstream at the netlist boundary.
    let mut fanout = vec![0usize; aig.num_nodes()];
    for v in aig.and_order() {
        if let Some((a, b)) = aig.and_fanins(v) {
            fanout[a.var().0 as usize] += 1;
            fanout[b.var().0 as usize] += 1;
        }
    }
    let constraint_cone = cone_vars(aig, aig.constraints().iter());
    for (var, name) in aig.inputs() {
        if !constraint_cone[var.0 as usize] && fanout[var.0 as usize] >= FANOUT_HOTSPOT_THRESHOLD {
            report.fanout_hotspots.push(name.clone());
        }
    }
    let condensation = LatchGraph::build(aig).condense();
    for id in condensation.input_unreachable_latches() {
        report
            .unreachable_latches
            .push(aig.latch_info(id).name.clone());
    }
    report
}

/// Marks every var reachable from `roots` through AND fanins and latch
/// next-state functions.
fn cone_vars<'a, I: Iterator<Item = &'a crate::NamedLit>>(aig: &Aig, roots: I) -> Vec<bool> {
    let mut seen = vec![false; aig.num_nodes()];
    let mut work: Vec<Var> = roots.map(|r| r.lit.var()).collect();
    while let Some(v) = work.pop() {
        if seen[v.0 as usize] {
            continue;
        }
        seen[v.0 as usize] = true;
        match aig.node_kind(v) {
            Node::Const0 | Node::Input { .. } => {}
            Node::Latch { index } => work.push(aig.latches()[*index as usize].next.var()),
            Node::And { a, b } => {
                work.push(a.var());
                work.push(b.var());
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toggling latch, a stuck-at-0 latch, and a stuck-at-1 latch.
    fn mixed_aig() -> (Aig, Lit, Lit, Lit) {
        let mut g = Aig::new();
        let (t_id, t) = g.latch("toggle", false);
        g.set_next(t_id, !t);
        let (s0_id, s0) = g.latch("stuck0", false);
        g.set_next(s0_id, s0);
        let (s1_id, s1) = g.latch("stuck1", true);
        g.set_next(s1_id, s1);
        (g, t, s0, s1)
    }

    #[test]
    fn ternary_ops() {
        use Ternary::*;
        assert_eq!(False.and(X), False);
        assert_eq!(True.and(X), X);
        assert_eq!(True.and(True), True);
        assert_eq!(!False, True);
        assert_eq!(!X, X);
        assert_eq!(True.join(True), True);
        assert_eq!(True.join(False), X);
        assert_eq!(Ternary::from_bool(true).to_bool(), Some(true));
        assert_eq!(X.to_bool(), None);
    }

    #[test]
    fn sweep_finds_stuck_latches() {
        let (g, t, s0, s1) = mixed_aig();
        let sweep = ternary_sweep(&g);
        assert_eq!(
            sweep.lit_value(t),
            Ternary::X,
            "a toggling latch is not constant"
        );
        assert_eq!(sweep.lit_value(s0), Ternary::False);
        assert_eq!(sweep.lit_value(s1), Ternary::True);
        assert_eq!(sweep.lit_value(!s1), Ternary::False);
        let stuck: Vec<_> = sweep.stuck_latches().collect();
        assert_eq!(stuck, vec![(LatchId(1), false), (LatchId(2), true)]);
        assert_eq!(sweep.stuck_count(), 2);
    }

    #[test]
    fn sweep_propagates_through_chains() {
        // A shift register seeded by a stuck-0 latch: every stage is
        // stuck 0, but only after enough fixpoint rounds.
        let mut g = Aig::new();
        let (s, q0) = g.latch("src", false);
        g.set_next(s, q0);
        let mut prev = q0;
        for i in 0..4 {
            let (id, q) = g.latch(format!("stage{i}"), false);
            g.set_next(id, prev);
            prev = q;
        }
        let sweep = ternary_sweep(&g);
        assert_eq!(sweep.stuck_count(), 5);
        // An init-1 stage fed by the stuck-0 chain is NOT stuck: it
        // holds 1 in cycle 0 and 0 forever after.
        let mut g2 = Aig::new();
        let (s, q0) = g2.latch("src", false);
        g2.set_next(s, q0);
        let (h, _qh) = g2.latch("high_then_low", true);
        g2.set_next(h, q0);
        let sweep2 = ternary_sweep(&g2);
        assert_eq!(sweep2.latch_value(LatchId(1)), Ternary::X);
    }

    #[test]
    fn sweep_is_conservative_about_reachability() {
        // next = !q: alternates 0,1,0,1 — genuinely non-constant, and
        // the sweep joins {0,1} to X as it must.
        let mut g = Aig::new();
        let (id, q) = g.latch("alt", false);
        g.set_next(id, !q);
        let sweep = ternary_sweep(&g);
        assert_eq!(sweep.lit_value(q), Ternary::X);
    }

    #[test]
    fn fold_returns_none_without_stuck_latches() {
        let mut g = Aig::new();
        let a = g.input("a");
        let (id, q) = g.latch("q", false);
        g.set_next(id, a);
        g.add_bad("q_high", q);
        let sweep = ternary_sweep(&g);
        assert!(fold_constants(&g, &sweep).is_none());
    }

    #[test]
    fn fold_substitutes_and_preserves_semantics() {
        // bad = toggle AND stuck1 AND (a OR stuck0): folds to
        // bad = toggle AND a's cone... stuck1 drops, stuck0 leg of the
        // OR drops.
        let (mut g, t, s0, s1) = mixed_aig();
        let a = g.input("a");
        let or = g.or(a, s0);
        let t1 = g.and(t, s1);
        let bad = g.and(t1, or);
        g.add_bad("bad", bad);
        let sweep = ternary_sweep(&g);
        let fold = fold_constants(&g, &sweep).expect("two stuck latches fold");
        assert_eq!(fold.stuck, vec![(LatchId(1), false), (LatchId(2), true)]);
        assert_eq!(fold.aig.num_latches(), 1, "only the toggler survives");
        assert_eq!(fold.aig.num_inputs(), 1, "inputs survive");
        assert_eq!(fold.aig.bads().len(), 1);
        assert_eq!(fold.latch_map.get(&LatchId(0)), Some(&LatchId(0)));
        assert_eq!(fold.latch_map.get(&LatchId(1)), None);
        // Semantics: simulate both for a few cycles on both input
        // values and compare the bad.
        for a_val in [false, true] {
            let inputs: Vec<Vec<bool>> = (0..6).map(|_| vec![a_val]).collect();
            let orig = g.simulate(&inputs);
            let folded = fold.aig.simulate(&inputs);
            for (o, f) in orig.iter().zip(&folded) {
                assert_eq!(o.bads, f.bads, "fold must preserve the bad, a={a_val}");
            }
        }
    }

    #[test]
    fn fold_drops_cones_dead_after_substitution() {
        // bad = stuck0 AND big-cone: the whole big cone dies.
        let mut g = Aig::new();
        let (s, q) = g.latch("stuck0", false);
        g.set_next(s, q);
        let xs: Vec<Lit> = (0..8).map(|i| g.input(format!("x{i}"))).collect();
        let big = g.and_many(xs.iter().copied());
        let bad = g.and(q, big);
        g.add_bad("never", bad);
        let sweep = ternary_sweep(&g);
        assert_eq!(sweep.lit_value(bad), Ternary::False);
        let fold = fold_constants(&g, &sweep).expect("stuck latch folds");
        assert_eq!(fold.aig.num_ands(), 0, "the whole cone is dead");
        assert_eq!(fold.aig.num_latches(), 0);
        assert_eq!(fold.aig.num_inputs(), 8, "inputs always survive");
        assert_eq!(fold.aig.bads()[0].lit, Lit::FALSE);
        assert_eq!(fold.folded_ands, g.num_ands());
    }

    #[test]
    fn fold_preserves_input_indexing() {
        let mut g = Aig::new();
        let a = g.input("a");
        let (s, q) = g.latch("stuck1", true);
        g.set_next(s, q);
        let b = g.input("b");
        let bad = g.and(q, b);
        g.add_bad("b_high", bad);
        let sweep = ternary_sweep(&g);
        let fold = fold_constants(&g, &sweep).expect("folds");
        // Input order a, b preserved even though a is disconnected.
        let ins = fold.aig.inputs();
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].1, "a");
        assert_eq!(ins[1].1, "b");
        // The bad folded to exactly `b`.
        assert_eq!(fold.map_lit(bad), Some(fold.aig.bads()[0].lit));
        let _ = a;
    }

    #[test]
    fn analyze_reports_constant_properties() {
        let (mut g, t, s0, s1) = mixed_aig();
        let vac = g.and(s0, t);
        g.add_bad("vacuous", vac);
        g.add_bad("trivial", s1);
        g.add_constraint("always", s1);
        g.add_constraint("never", s0);
        g.add_output("const_out", !s0);
        let report = analyze(&g);
        assert_eq!(report.vacuous_bads, vec!["vacuous".to_string()]);
        assert_eq!(report.trivial_bads, vec!["trivial".to_string()]);
        assert_eq!(report.constant_true_constraints, vec!["always".to_string()]);
        assert_eq!(report.constant_false_constraints, vec!["never".to_string()]);
        assert_eq!(
            report.constant_outputs,
            vec![ConstantNet {
                name: "const_out".to_string(),
                value: true,
            }]
        );
        assert_eq!(report.stuck_latches.len(), 2);
        assert!(!report.is_clean());
        assert!(report.findings() >= 7);
        assert!(!report.render().is_empty());
    }

    #[test]
    fn analyze_reports_dead_logic_and_unused_inputs() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let _floating = g.input("floating");
        let (id, q) = g.latch("q", false);
        g.set_next(id, a);
        let (dead_id, dead_q) = g.latch("dead", false);
        let dn = g.xor(dead_q, b);
        g.set_next(dead_id, dn);
        g.add_bad("q_high", q);
        g.add_output("o", dn);
        let report = analyze(&g);
        assert_eq!(report.dead_latches, vec!["dead".to_string()]);
        assert_eq!(
            report.dead_ands, 3,
            "the xor's three ANDs are outside the bad cone"
        );
        // `b` feeds the output cone, so only `floating` is unused.
        assert_eq!(report.unused_inputs, vec!["floating".to_string()]);
        assert!(
            report.stuck_latches.is_empty(),
            "free-running latches are not stuck"
        );
    }

    #[test]
    fn constrained_sweep_forces_inputs_through_the_closure() {
        // constraint = a AND b (positive AND literal): both inputs
        // forced true, so bad = q AND !a is constant false even though
        // the plain sweep sees X.
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let (id, q) = g.latch("q", false);
        g.set_next(id, b);
        let c = g.and(a, b);
        g.add_constraint("ab", c);
        let na = !a;
        let bad = g.and(q, na);
        g.add_bad("q_and_not_a", bad);
        let plain = ternary_sweep(&g);
        assert_eq!(plain.lit_value(bad), Ternary::X);
        let cs = ternary_sweep_constrained(&g);
        assert!(!cs.contradiction);
        assert_eq!(cs.sweep.lit_value(a), Ternary::True);
        assert_eq!(cs.sweep.lit_value(b), Ternary::True);
        assert_eq!(cs.sweep.lit_value(bad), Ternary::False);
        // The forced closure pins a, b and the AND itself.
        assert_eq!(cs.forced.len(), 3);
        // And the clamp propagates: q is fed by forced-true b, so after
        // the join q is X (init 0, then 1) — not constant.
        assert_eq!(cs.sweep.latch_value(LatchId(0)), Ternary::X);
    }

    #[test]
    fn constrained_sweep_clamps_forced_latches() {
        // constraint pins latch s (init true, next = input): on every
        // constrained cycle s is 1, so bad = !s is vacuous.
        let mut g = Aig::new();
        let i = g.input("i");
        let (id, s) = g.latch("s", true);
        g.set_next(id, i);
        g.add_constraint("s_high", s);
        g.add_bad("s_low", !s);
        let plain = ternary_sweep(&g);
        assert_eq!(plain.lit_value(s), Ternary::X);
        let cs = ternary_sweep_constrained(&g);
        assert!(!cs.contradiction);
        assert_eq!(cs.sweep.lit_value(!s), Ternary::False);
    }

    #[test]
    fn constrained_sweep_detects_contradictions() {
        // Two constraints forcing an input both ways.
        let mut g = Aig::new();
        let a = g.input("a");
        g.add_constraint("a_high", a);
        g.add_constraint("a_low", !a);
        g.add_bad("whatever", a);
        assert!(ternary_sweep_constrained(&g).contradiction);
        // A forced latch whose reset value disagrees.
        let mut g2 = Aig::new();
        let i = g2.input("i");
        let (id, s) = g2.latch("s", false);
        g2.set_next(id, i);
        g2.add_constraint("s_high", s);
        g2.add_bad("whatever", s);
        assert!(ternary_sweep_constrained(&g2).contradiction);
        // A forced net the sweep proves constant the other way.
        let mut g3 = Aig::new();
        let (id, s) = g3.latch("stuck0", false);
        g3.set_next(id, s);
        let a = g3.input("a");
        let c = g3.and(s, a);
        g3.add_constraint("impossible", c);
        g3.add_bad("whatever", a);
        assert!(ternary_sweep_constrained(&g3).contradiction);
    }

    #[test]
    fn constrained_sweep_without_constraints_matches_plain() {
        let (g, t, s0, s1) = mixed_aig();
        let plain = ternary_sweep(&g);
        let cs = ternary_sweep_constrained(&g);
        assert!(!cs.contradiction);
        assert!(cs.forced.is_empty());
        for lit in [t, s0, s1] {
            assert_eq!(cs.sweep.lit_value(lit), plain.lit_value(lit));
        }
        assert_eq!(cs.sweep.rounds, plain.rounds);
    }

    #[test]
    fn analyze_reports_unreachable_latches_and_hotspots() {
        let mut g = Aig::new();
        // An autonomous two-latch ring never touched by inputs.
        let (x, qx) = g.latch("ring_x", false);
        let (y, qy) = g.latch("ring_y", true);
        g.set_next(x, qy);
        g.set_next(y, qx);
        // A free input fanning out past the hot-spot threshold.
        let free = g.input("free");
        let others: Vec<Lit> = (0..FANOUT_HOTSPOT_THRESHOLD)
            .map(|i| g.input(format!("o{i}")))
            .collect();
        let ands: Vec<Lit> = others.iter().map(|&o| g.and(free, o)).collect();
        let any = g.or_many(ands);
        let ring_bad = g.and(qx, any);
        g.add_bad("ring_and_any", ring_bad);
        let report = analyze(&g);
        assert_eq!(
            report.unreachable_latches,
            vec!["ring_x".to_string(), "ring_y".to_string()]
        );
        assert_eq!(report.fanout_hotspots, vec!["free".to_string()]);
        assert!(report.comb_loops.is_empty(), "AIGs cannot hold comb cycles");
        assert!(!report.is_clean());
        // Constraining the hot input silences the hot-spot lint.
        g.add_constraint("free_low", !free);
        let constrained = analyze(&g);
        assert!(constrained.fanout_hotspots.is_empty());
    }

    #[test]
    fn clean_design_reports_clean() {
        let mut g = Aig::new();
        let a = g.input("a");
        let (id, q) = g.latch("q", false);
        let n = g.xor(q, a);
        g.set_next(id, n);
        g.add_bad("q_high", q);
        let report = analyze(&g);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.findings(), 0);
        assert!(report.render().is_empty());
    }
}
