//! Divide-and-Conquer property partitioning (paper §4.2, Figure 7).
//!
//! When a property is "beyond the power of available tools" (in veridic:
//! deterministic resource-out), the verification engineer splits it at
//! intermediate parity check points: each upstream checkpoint is proven
//! on a *cut* module where its parity-protected predecessors became free
//! inputs carrying integrity assumptions, and the original property is
//! finally proven assuming the intermediates.
//!
//! Soundness of the decomposition is the standard acyclic
//! assume-guarantee argument: step *k* assumes only checkpoints
//! guaranteed by steps *< k* (checked mechanically by
//! [`decomposition_is_acyclic`]), so the conjunction of the step
//! properties implies the original property on the uncut module.

use crate::checkpoint::Inventory;
use crate::verifiable::{VerifiableModule, EC_PORT};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use veridic_mc::{CheckOptions, CheckResult, Portfolio};
#[cfg(test)]
use veridic_mc::{check, Verdict};
use veridic_netlist::{Expr, ExprId, Module, NetId, PortDir};
use veridic_psl::{compile_vunit, parse_psl};

/// One proof obligation of a partitioned property.
#[derive(Clone, Debug)]
pub struct PartitionStep {
    /// Human-readable name (`prove ^ent3_datapath`).
    pub name: String,
    /// The cut module this step is checked on.
    pub module: Module,
    /// The generated vunit source.
    pub vunit_src: String,
    /// Names of checkpoints this step *assumes* (cut inputs).
    pub assumes: Vec<String>,
    /// Name of the checkpoint this step *guarantees*.
    pub guarantees: String,
}

/// Replaces the registers driving `cut_nets` with input ports: the
/// classic cut-point abstraction. References to the nets are untouched;
/// downstream logic now sees a free input.
///
/// # Panics
///
/// Panics if a cut net is not driven by a register.
pub fn cut_at(m: &Module, cut_nets: &[NetId]) -> Module {
    let mut out = m.clone();
    for net in cut_nets {
        let idx = out
            .regs
            .iter()
            .position(|r| r.q == *net)
            .unwrap_or_else(|| panic!("cut net {} is not a register", m.net(*net).name));
        out.regs.remove(idx);
        out.expose(*net, PortDir::Input);
        out.net_mut(*net).attrs.insert("cut".into(), "true".into());
    }
    out.name = format!("{}_cut", m.name);
    out
}

/// Entities (by net) in the transitive combinational fanin of `expr`,
/// stopping at registers and inputs.
fn entity_sources(m: &Module, inv: &Inventory, expr: ExprId) -> BTreeSet<NetId> {
    let entity_nets: BTreeSet<NetId> = inv.entities.iter().map(|e| e.net).collect();
    let assign_of: BTreeMap<NetId, ExprId> = m.assigns.iter().copied().collect();
    let mut out = BTreeSet::new();
    let mut seen = BTreeSet::new();
    let mut stack: Vec<NetId> = m.arena.support(expr);
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        if entity_nets.contains(&n) {
            out.insert(n);
            continue; // stop at parity-protected state
        }
        if m.reg_for(n).is_some() {
            continue; // non-checkpoint state: stop
        }
        if let Some(e) = assign_of.get(&n) {
            stack.extend(m.arena.support(*e));
        }
    }
    out
}

/// Builds the partition of one output-integrity property (Figure 7):
/// a step per upstream entity in topological order, then the final step
/// for the output itself.
///
/// # Errors
///
/// Returns an error string if the entity dependency graph is cyclic
/// (mutually-fed entities cannot be cut soundly by this scheme).
pub fn partition_output_integrity(
    vm: &VerifiableModule,
    out_group: usize,
) -> Result<Vec<PartitionStep>, String> {
    let m = &vm.module;
    let inv = &vm.inventory;
    let group = inv
        .output_groups
        .get(out_group)
        .ok_or_else(|| format!("module {} has no output group {out_group}", m.name))?;
    let (_, out_expr) = m
        .assigns
        .iter()
        .find(|(n, _)| *n == group.net)
        .ok_or_else(|| format!("output {} has no driver", group.name))?;

    // Dependency graph over entities feeding the output.
    let final_sources = entity_sources(m, inv, *out_expr);
    let mut needed: BTreeSet<NetId> = BTreeSet::new();
    let mut deps: BTreeMap<NetId, BTreeSet<NetId>> = BTreeMap::new();
    let mut work: Vec<NetId> = final_sources.iter().copied().collect();
    while let Some(x) = work.pop() {
        if !needed.insert(x) {
            continue;
        }
        let reg = m.reg_for(x).expect("entity has a register"); // lint: allow
        let mut parents = entity_sources(m, inv, reg.next);
        parents.remove(&x); // self-reference (hold paths) is not a dependency
        for p in &parents {
            work.push(*p);
        }
        deps.insert(x, parents);
    }
    // Topological order (Kahn).
    let mut order: Vec<NetId> = Vec::new();
    let mut remaining: BTreeSet<NetId> = needed.clone();
    while !remaining.is_empty() {
        let ready: Vec<NetId> = remaining
            .iter()
            .copied()
            .filter(|x| deps[x].iter().all(|p| !remaining.contains(p)))
            .collect();
        if ready.is_empty() {
            return Err(format!(
                "entity dependency cycle in {} — cut-point partitioning is unsound here",
                m.name
            ));
        }
        for x in ready {
            order.push(x);
            remaining.remove(&x);
        }
    }

    let mut steps = Vec::new();
    for x in &order {
        let parents: Vec<NetId> = deps[x].iter().copied().collect();
        let cut = cut_at(m, &parents);
        let x_name = m.net(*x).name.clone();
        let vunit_src = step_vunit(&cut, inv, &parents, &format!("^{x_name}"), &x_name, m);
        steps.push(PartitionStep {
            name: format!("prove ^{x_name}"),
            module: cut,
            vunit_src,
            assumes: parents.iter().map(|p| m.net(*p).name.clone()).collect(),
            guarantees: x_name,
        });
    }
    // Final step: the output property with all its direct sources cut.
    let parents: Vec<NetId> = final_sources.iter().copied().collect();
    let cut = cut_at(m, &parents);
    let vunit_src = step_vunit(&cut, inv, &parents, &format!("^{}", group.name), &group.name, m);
    steps.push(PartitionStep {
        name: format!("prove ^{}", group.name),
        module: cut,
        vunit_src,
        assumes: parents.iter().map(|p| m.net(*p).name.clone()).collect(),
        guarantees: group.name.clone(),
    });
    Ok(steps)
}

fn step_vunit(
    cut: &Module,
    inv: &Inventory,
    cut_nets: &[NetId],
    assertion: &str,
    target: &str,
    orig: &Module,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "vunit part_{target} ({}) {{", cut.name);
    for g in &inv.input_groups {
        let _ = writeln!(s, "    property pIn_{0} = always ( ^{0} );", g.name);
        let _ = writeln!(s, "    assume   pIn_{};", g.name);
    }
    let _ = writeln!(s, "    property pNoInj = always ( ~(|{EC_PORT}) );");
    let _ = writeln!(s, "    assume   pNoInj;");
    for n in cut_nets {
        let name = orig.net(*n).name.clone();
        let _ = writeln!(s, "    property pCut_{0} = always ( ^{0} );", name);
        let _ = writeln!(s, "    assume   pCut_{name}; // guaranteed by an earlier corn");
    }
    let _ = writeln!(s, "    property pGoal = always ( {assertion} );");
    let _ = writeln!(s, "    assert   pGoal;");
    let _ = writeln!(s, "}}");
    s
}

/// Mechanically checks the assume-guarantee DAG: every step's assumed
/// checkpoints must be guaranteed by an earlier step or be primary
/// inputs of the original module.
pub fn decomposition_is_acyclic(steps: &[PartitionStep], orig: &Module) -> Result<(), String> {
    let inputs: BTreeSet<String> = orig.inputs().map(|p| p.name.clone()).collect();
    let mut proven: BTreeSet<&str> = BTreeSet::new();
    for step in steps {
        for a in &step.assumes {
            if !proven.contains(a.as_str()) && !inputs.contains(a) {
                return Err(format!(
                    "step '{}' assumes '{a}' before it is guaranteed",
                    step.name
                ));
            }
        }
        proven.insert(&step.guarantees);
    }
    Ok(())
}

/// Per-worker BDD accounting of one [`run_partition_with_portfolio`]
/// run: with the deterministic round-robin corn assignment, both
/// figures are reproducible for a fixed worker count (they feed the
/// bench `peak_live` lines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionWorkerStats {
    /// Largest per-check peak of any corn this worker ran.
    pub peak_bdd_nodes: usize,
    /// Total BDD nodes allocated across this worker's corns.
    pub bdd_allocated: u64,
}

/// Outcome of running one partitioned proof.
#[derive(Clone, Debug)]
pub struct PartitionRun {
    /// Per-step results, in proof order.
    pub steps: Vec<(String, CheckResult)>,
    /// True if every step proved.
    pub all_proved: bool,
    /// Per-worker accounting, in worker-index order (a single entry for
    /// a serial run).
    pub worker_stats: Vec<PartitionWorkerStats>,
}

/// Compiles and checks one partition step under the shared portfolio.
fn run_step(step: &PartitionStep, portfolio: &Portfolio, opts: &CheckOptions) -> (String, CheckResult) {
    let units = parse_psl(&step.vunit_src).expect("step vunit parses"); // lint: allow
    let compiled = compile_vunit(&units[0], &step.module).expect("step vunit compiles"); // lint: allow
    let lowered = compiled.module.to_aig().expect("cut module lowers"); // lint: allow
    let mut aig = lowered.aig.clone();
    for (label, net) in &compiled.asserts {
        aig.add_bad(label.clone(), lowered.bit(*net, 0));
    }
    for (label, net) in &compiled.assumes {
        aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
    }
    (step.name.clone(), portfolio.check(&aig, opts))
}

/// Checks every step of a partition under the given budgets, serially
/// (one worker) with the default engine cascade. See
/// [`run_partition_with_portfolio`] for the fan-out variant.
///
/// # Panics
///
/// Panics if a generated step vunit fails to parse or compile (generator
/// bug).
pub fn run_partition(steps: &[PartitionStep], opts: &CheckOptions) -> PartitionRun {
    run_partition_with_portfolio(steps, opts, 1, &Portfolio::default())
}

/// Checks every step of a partition under an explicit engine
/// [`Portfolio`] (the partition-layer analogue of
/// `run_campaign_with_portfolio`), fanning the corns out across
/// `workers` threads (`0` = one per available CPU).
///
/// Corn assignment is a deterministic round-robin — worker `i` runs
/// steps `i, i + W, i + 2W, …` — and results are merged back in step
/// order, so the run is reproducible for any worker count: the verdict
/// list is identical to the serial run, and each worker's accounting in
/// [`PartitionRun::worker_stats`] is stable for a fixed `W` (the
/// determinism contract the `fig7/partitioned_parallel` bench leans
/// on). Each corn's `check` owns its engines; the portfolio is shared by
/// reference (it owns no per-run state).
///
/// # Panics
///
/// Panics if a generated step vunit fails to parse or compile (generator
/// bug).
pub fn run_partition_with_portfolio(
    steps: &[PartitionStep],
    opts: &CheckOptions,
    workers: usize,
    portfolio: &Portfolio,
) -> PartitionRun {
    let workers = resolve_workers(workers, steps.len());
    let per_worker: Vec<Vec<(usize, (String, CheckResult))>> = if workers <= 1 {
        vec![steps.iter().enumerate().map(|(i, s)| (i, run_step(s, portfolio, opts))).collect()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    s.spawn(move || {
                        (wid..steps.len())
                            .step_by(workers)
                            .map(|i| (i, run_step(&steps[i], portfolio, opts)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partition worker panicked")) // lint: allow
                .collect()
        })
    };
    let worker_stats = per_worker
        .iter()
        .map(|corns| PartitionWorkerStats {
            peak_bdd_nodes: corns.iter().map(|(_, (_, r))| r.stats.bdd_nodes).max().unwrap_or(0),
            bdd_allocated: corns.iter().map(|(_, (_, r))| r.stats.bdd_allocated).sum(),
        })
        .collect();
    // Merge in step order, never completion order.
    let mut slots: Vec<Option<(String, CheckResult)>> = (0..steps.len()).map(|_| None).collect();
    for (i, result) in per_worker.into_iter().flatten() {
        slots[i] = Some(result);
    }
    let results: Vec<(String, CheckResult)> =
        slots.into_iter().map(|r| r.expect("every step ran")).collect(); // lint: allow
    let all = results.iter().all(|(_, r)| r.verdict.is_proved());
    PartitionRun { steps: results, all_proved: all, worker_stats }
}

/// Resolves a requested worker count (`0` = one per available CPU),
/// clamped to the step count.
fn resolve_workers(requested: usize, steps: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
    .min(steps.max(1))
}

/// Builds the Figure-7 demonstration module: a deep chain of
/// parity-propagating datapath registers with hold enables. The
/// monolithic output-integrity cone spans the whole chain (and resists
/// plain k-induction because held stages can start in arbitrary states),
/// while each partitioned corn spans a single stage.
pub fn demo_chain_module(stages: usize) -> Module {
    assert!(stages >= 2, "need at least two stages");
    let mut m = Module::new("chain");
    let i0 = m.add_port("I0", PortDir::Input, 4);
    m.net_mut(i0).attrs.insert("checkpoint.kind".into(), "input_group".into());
    m.net_mut(i0).attrs.insert("checkpoint.index".into(), "0".into());
    m.net_mut(i0).attrs.insert("checkpoint.he_bit".into(), "0".into());
    let en = m.add_port("EN", PortDir::Input, stages as u32);
    m.net_mut(en).attrs.insert("checkpoint.kind".into(), "control".into());
    let mut prev = i0;
    let mut checker_bits = Vec::new();
    for k in 0..stages {
        let q = m.add_net(format!("dp{k}"), 4);
        let sprev = m.sig(prev);
        let si = m.sig(i0);
        // Parity-propagating mix: prev ^ I0 ^ 4'b0001 keeps odd parity
        // from odd-parity operands (3 odd terms).
        let x1 = m.arena.add(Expr::Xor(sprev, si));
        let c = m.lit(4, 1);
        let mixed = m.arena.add(Expr::Xor(x1, c));
        let sq = m.sig(q);
        let enb = m.sig_bit(en, k as u32);
        let nxt = m.arena.add(Expr::Mux { cond: enb, then_: mixed, else_: sq });
        let mut reset = veridic_netlist::Value::zero(4);
        reset.set_bit(3, true);
        m.add_reg(q, nxt, reset);
        let attrs = &mut m.net_mut(q).attrs;
        attrs.insert("checkpoint.kind".into(), "entity".into());
        attrs.insert("checkpoint.entity_kind".into(), "datapath".into());
        attrs.insert("checkpoint.index".into(), k.to_string());
        attrs.insert("checkpoint.he_bit".into(), "0".into());
        let sq2 = m.sig(q);
        let p = m.arena.add(Expr::RedXor(sq2));
        let bad = m.arena.add(Expr::Not(p));
        checker_bits.push(bad);
        prev = q;
    }
    let he = m.add_port("HE", PortDir::Output, 1);
    m.net_mut(he).attrs.insert("checkpoint.kind".into(), "he".into());
    let he_expr = checker_bits
        .into_iter()
        .reduce(|a, b| m.arena.add(Expr::Or(a, b)))
        .expect("stages >= 2"); // lint: allow
    m.assign(he, he_expr);
    let o = m.add_port("O0", PortDir::Output, 4);
    m.net_mut(o).attrs.insert("checkpoint.kind".into(), "output_group".into());
    m.net_mut(o).attrs.insert("checkpoint.index".into(), "0".into());
    let sprev = m.sig(prev);
    m.assign(o, sprev);
    m.validate().expect("chain module is well-formed"); // lint: allow
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifiable::make_verifiable;
    use crate::stereotype;
    use veridic_chipgen::PropertyType;

    fn chain_vm(stages: usize) -> VerifiableModule {
        make_verifiable(&demo_chain_module(stages)).unwrap()
    }

    #[test]
    fn cut_at_turns_regs_into_inputs() {
        let m = demo_chain_module(4);
        let dp1 = m.find_net("dp1").unwrap();
        let cut = cut_at(&m, &[dp1]);
        assert!(cut.inputs().any(|p| p.name == "dp1"));
        assert_eq!(cut.regs.len(), m.regs.len() - 1);
        assert!(cut.validate().is_ok());
    }

    #[test]
    fn partition_steps_form_acyclic_chain() {
        let vm = chain_vm(5);
        let steps = partition_output_integrity(&vm, 0).unwrap();
        // One step per stage plus the output step.
        assert_eq!(steps.len(), 6);
        decomposition_is_acyclic(&steps, &vm.module).unwrap();
    }

    #[test]
    fn partitioned_steps_prove_under_tiny_budget() {
        let vm = chain_vm(6);
        let steps = partition_output_integrity(&vm, 0).unwrap();
        let opts = CheckOptions {
            bdd_nodes: 60_000,
            sat_conflicts: 50_000,
            bmc_depth: 8,
            induction_depth: 6,
            ..CheckOptions::default()
        };
        let run = run_partition(&steps, &opts);
        assert!(
            run.all_proved,
            "every corn must prove: {:?}",
            run.steps.iter().map(|(n, r)| (n.clone(), r.verdict.clone())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_partition_matches_serial() {
        let vm = chain_vm(6);
        let steps = partition_output_integrity(&vm, 0).unwrap();
        let opts = CheckOptions {
            bdd_nodes: 60_000,
            sat_conflicts: 50_000,
            bmc_depth: 8,
            induction_depth: 6,
            ..CheckOptions::default()
        };
        let serial = run_partition(&steps, &opts);
        assert_eq!(serial.worker_stats.len(), 1);
        for workers in [2usize, 3, 0] {
            let par = run_partition_with_portfolio(&steps, &opts, workers, &Portfolio::default());
            assert_eq!(par.all_proved, serial.all_proved, "workers={workers}");
            assert_eq!(par.steps.len(), serial.steps.len());
            for ((an, ar), (bn, br)) in serial.steps.iter().zip(&par.steps) {
                assert_eq!(an, bn, "corn order must be step order, workers={workers}");
                assert_eq!(ar.verdict, br.verdict, "corn {an}, workers={workers}");
                assert_eq!(ar.stats.iterations, br.stats.iterations, "corn {an}");
            }
            // Per-worker accounting covers every worker and adds up to
            // the same total allocations as the serial run.
            assert!(!par.worker_stats.is_empty());
            assert_eq!(
                par.worker_stats.iter().map(|w| w.bdd_allocated).sum::<u64>(),
                serial.worker_stats[0].bdd_allocated,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn preanalysis_folds_nothing_on_the_chain_corns() {
        // Fig. 7 bench neutrality: no chain latch is sequentially stuck
        // (every datapath register free-runs behind its hold enable and
        // every monitor latch watches live parity), so the default-on
        // pre-analysis stage folds nothing on any corn. The one stage
        // conclusion is the *final* corn: its goal `^O0` is
        // combinationally the cut net `dp4`, whose parity the corn
        // assumes (`pCut_dp4`), so the constraint-aware sweep proves it
        // vacuous — assumption-implied, zero engine invocations.
        let vm = chain_vm(5);
        let steps = partition_output_integrity(&vm, 0).unwrap();
        let opts = CheckOptions {
            bdd_nodes: 60_000,
            sat_conflicts: 50_000,
            bmc_depth: 8,
            induction_depth: 6,
            ..CheckOptions::default()
        };
        let run = run_partition(&steps, &opts);
        assert!(run.all_proved);
        let last = run.steps.len() - 1;
        for (i, (name, r)) in run.steps.iter().enumerate() {
            assert!(r.stats.preanalysis.bads_analyzed > 0, "{name}: the stage must run");
            assert_eq!(r.stats.preanalysis.stuck_latches, 0, "{name}: nothing to fold");
            let expect_vacuous = usize::from(i == last);
            assert_eq!(
                r.stats.preanalysis.vacuous, expect_vacuous,
                "{name}: only the output corn is assumption-implied"
            );
        }
    }

    #[test]
    fn monolithic_resource_out_partitioned_proves() {
        // The Figure-7 reproduction: same budgets, monolithic fails,
        // partitioned succeeds.
        let vm = chain_vm(16);
        let opts = CheckOptions {
            bdd_nodes: 9_000,
            sat_conflicts: 600,
            bmc_depth: 3,
            induction_depth: 3,
            simple_path: false,
            max_iterations: 200,
            pobdd_window_vars: 0,
            ..CheckOptions::default()
        };
        // Monolithic: compile the integrity vunit, check O0.
        let all = stereotype::generate_all(&vm).unwrap();
        let (_, compiled) = all
            .iter()
            .find(|(g, _)| g.ptype == PropertyType::OutputIntegrity)
            .unwrap();
        let lowered = compiled.module.to_aig().unwrap();
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        let mono = check(&aig, &opts);
        assert!(
            matches!(mono.verdict, Verdict::ResourceOut { .. }),
            "monolithic check must exhaust the budget, got {:?}",
            mono.verdict
        );
        // Partitioned under the *same* budget: all corns prove.
        let steps = partition_output_integrity(&vm, 0).unwrap();
        decomposition_is_acyclic(&steps, &vm.module).unwrap();
        let run = run_partition(&steps, &opts);
        assert!(
            run.all_proved,
            "partitioned corns must prove: {:?}",
            run.steps.iter().map(|(n, r)| (n.clone(), r.verdict.clone())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chain_module_is_actually_correct() {
        // Sanity: with a generous budget the monolithic property proves —
        // the resource-out above is a budget artefact, not a real bug.
        let vm = chain_vm(4);
        let all = stereotype::generate_all(&vm).unwrap();
        let (_, compiled) = all
            .iter()
            .find(|(g, _)| g.ptype == PropertyType::OutputIntegrity)
            .unwrap();
        let lowered = compiled.module.to_aig().unwrap();
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        let r = check(&aig, &CheckOptions::default());
        assert!(r.verdict.is_proved(), "{:?}", r.verdict);
    }
}
