//! The structural-analysis contract through the public facade:
//!
//! * **Condensation correctness** — Tarjan SCC condensation of the
//!   latch dependency graph agrees with brute-force mutual
//!   reachability on random designs.
//! * **Static order well-formedness** — `force_order` always returns a
//!   permutation of the latch/input slot space and never worsens the
//!   hyperedge span it minimizes.
//! * **`CheckOptions::static_order` neutrality** — seeding the BDD
//!   managers with the FORCE order changes performance, never
//!   semantics: verdict kind, counterexample depth/bad index, and
//!   reachability iteration counts match the natural-order run on
//!   random chipgen properties, across every engine selection.
//! * **Off is off** — with `static_order` disabled (the default) the
//!   run is byte-identical to the default configuration and the span
//!   stats stay zero: the subsystem leaves no trace unless asked for.
//! * **Boundary comb-loop lint** — a seeded combinational cycle in a
//!   netlist is enumerated by `Module::comb_loops` (which never fails,
//!   unlike validation) and rejected by `validate`.

use proptest::prelude::*;
use veridic::aig::LatchId;
use veridic::prelude::*;

/// A random latch network: `deps[i]` lists the latches whose current
/// state feeds latch `i`'s next state (as an AND of positive
/// literals, so the structural support is exactly the dep set).
fn latch_network(deps: &[Vec<usize>]) -> Aig {
    let n = deps.len();
    let mut g = Aig::new();
    let qs: Vec<_> = (0..n).map(|i| g.latch(format!("l{i}"), false)).collect();
    for (i, ds) in deps.iter().enumerate() {
        let mut lits: Vec<_> = ds.iter().map(|&j| qs[j % n].1).collect();
        lits.sort();
        lits.dedup();
        let next = g.and_many(lits);
        g.set_next(qs[i].0, next);
    }
    // A bad cone over everything keeps the whole network relevant.
    let all: Vec<_> = qs.iter().map(|(_, q)| *q).collect();
    let bad = g.and_many(all);
    g.add_bad("all_ones", bad);
    g
}

/// Brute-force reachability closure over the dedup'd dep edges.
fn reachable(deps: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let n = deps.len();
    let mut reach = vec![vec![false; n]; n];
    for (i, ds) in deps.iter().enumerate() {
        for &j in ds {
            reach[i][j % n] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    reach
}

fn chipgen_property(module_idx: usize, with_bugs: bool, vunit_idx: usize) -> (Aig, String) {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs,
    });
    let modules = chip.modules();
    let mi = &modules[module_idx % modules.len()];
    let module = chip.design().module(mi.name()).unwrap();
    let vm = make_verifiable(module).unwrap();
    let vunits = generate_all(&vm).unwrap();
    let (_, compiled) = &vunits[vunit_idx % vunits.len()];
    let lowered = compiled.module.to_aig().unwrap();
    let mut aig = lowered.aig.clone();
    for (label, net) in &compiled.asserts {
        aig.add_bad(label.clone(), lowered.bit(*net, 0));
    }
    for (label, net) in &compiled.assumes {
        aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
    }
    (
        aig,
        format!("{}:{} with_bugs={}", mi.name(), vunit_idx, with_bugs),
    )
}

/// Static-order on-vs-off comparison on one AIG under one engine
/// selection: a variable order cannot change set semantics, so the
/// verdict kind, counterexample shape, and fixpoint round count must
/// all survive the seeding.
fn assert_static_order_neutral(aig: &Aig, base: &CheckOptions, what: &str) {
    let on = Portfolio::default().check(
        aig,
        &CheckOptions {
            static_order: true,
            ..base.clone()
        },
    );
    let off = Portfolio::default().check(
        aig,
        &CheckOptions {
            static_order: false,
            ..base.clone()
        },
    );
    match (&on.verdict, &off.verdict) {
        (Verdict::Falsified(a), Verdict::Falsified(b)) => {
            assert_eq!(a.len(), b.len(), "cex depth diverged on {what}");
            assert_eq!(a.bad_index, b.bad_index, "bad index diverged on {what}");
        }
        (Verdict::Proved { .. }, Verdict::Proved { .. }) => {}
        (Verdict::ResourceOut { .. }, Verdict::ResourceOut { .. }) => {}
        (a, b) => panic!("static_order changed the verdict on {what}: on={a:?} vs off={b:?}"),
    }
    assert_eq!(
        on.stats.iterations, off.stats.iterations,
        "static_order changed the reachability round count on {what}"
    );
    assert_eq!(
        off.stats.static_order_span_before, 0,
        "off run recorded a span on {what}"
    );
    assert_eq!(off.stats.static_order_span_after, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SCC condensation vs brute-force mutual reachability: two
    /// latches share an SCC iff each reaches the other (or they are
    /// the same latch).
    #[test]
    fn condensation_matches_brute_force_reachability(
        deps in collection::vec(collection::vec(0usize..12, 0..4), 1..12),
    ) {
        let aig = latch_network(&deps);
        let cond = LatchGraph::build(&aig).condense();
        let reach = reachable(&deps);
        let n = deps.len();
        // The SCC partition covers every latch exactly once.
        let mut seen = vec![false; n];
        for scc in &cond.sccs {
            for &m in scc {
                prop_assert!(!seen[m as usize], "latch {m} in two SCCs");
                seen[m as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "latch missing from the partition");
        for (i, reach_i) in reach.iter().enumerate() {
            for j in 0..n {
                let same = cond.scc_of[i] == cond.scc_of[j];
                let mutual = i == j || (reach_i[j] && reach[j][i]);
                prop_assert_eq!(
                    same, mutual,
                    "SCC membership of ({}, {}) disagrees with reachability", i, j
                );
            }
        }
        // Ranks are topological on the condensation: a dependency
        // never sits at a higher rank than its dependent... both
        // directions appear in the wild, so pin only acyclicity:
        // distinct SCCs connected by an edge have distinct ranks.
        for i in 0..n {
            for &j in LatchGraph::build(&aig).deps(LatchId(i as u32)) {
                if cond.scc_of[i] != cond.scc_of[j as usize] {
                    prop_assert!(
                        cond.ranks[cond.scc_of[i] as usize]
                            != cond.ranks[cond.scc_of[j as usize] as usize],
                        "cross-SCC edge within one rank"
                    );
                }
            }
        }
    }

    /// `force_order` always returns a permutation of the slot space
    /// and never reports a worse span than the natural order.
    #[test]
    fn force_order_is_a_span_improving_permutation(
        deps in collection::vec(collection::vec(0usize..12, 0..4), 1..12),
        module_idx in 0usize..16,
    ) {
        let random = latch_network(&deps);
        let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs: false });
        let mi = &chip.modules()[module_idx % chip.modules().len()];
        let lowered = chip.design().module(mi.name()).unwrap().to_aig().unwrap();
        for (aig, what) in [(&random, "random"), (&lowered.aig, mi.name())] {
            let fo = force_order(aig);
            let slots = aig.num_latches() + aig.num_inputs();
            let mut sorted = fo.slots.clone();
            sorted.sort_unstable();
            let identity: Vec<u32> = (0..slots as u32).collect();
            prop_assert_eq!(&sorted, &identity, "not a permutation on {}", what);
            prop_assert!(
                fo.span_after <= fo.span_before,
                "FORCE worsened the span on {}: {} -> {}",
                what, fo.span_before, fo.span_after
            );
        }
    }

    /// Seeding the FORCE order is semantics-neutral on the real
    /// workload shape, across every BDD engine selection (the SAT
    /// lane ignores the order entirely, so the full cascade doubles
    /// as the mixed case).
    #[test]
    fn static_order_is_neutral_on_chipgen_properties(
        module_idx in 0usize..32,
        bug_coin in 0u32..2,
        vunit_idx in 0usize..4,
        mode in 0u32..3,
    ) {
        let (aig, what) = chipgen_property(module_idx, bug_coin == 1, vunit_idx);
        let base = match mode {
            0 => CheckOptions::default(),
            1 => CheckOptions::builder().bdd_only(true).pobdd_window_vars(0).build(),
            _ => CheckOptions::builder().bdd_only(true).pobdd_window_vars(2).build(),
        };
        assert_static_order_neutral(&aig, &base, &format!("{what} mode={mode}"));
    }
}

/// Off means off: an explicit `static_order: false` run is
/// byte-identical to the default configuration, and the span fields
/// stay zero — the structural pass leaves no trace unless enabled.
/// This mirrors the preanalysis identity-pass pin from PR 8.
#[test]
fn static_order_off_is_byte_identical_to_the_default() {
    let (aig, _) = chipgen_property(0, false, 0);
    for base in [
        CheckOptions::default(),
        CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .build(),
    ] {
        let default_run = Portfolio::default().check(&aig, &base);
        let off = Portfolio::default().check(
            &aig,
            &CheckOptions {
                static_order: false,
                ..base.clone()
            },
        );
        assert_eq!(default_run.verdict, off.verdict);
        assert_eq!(
            default_run.stats, off.stats,
            "explicit off diverged from default"
        );
        assert_eq!(off.stats.static_order_span_before, 0);
        assert_eq!(off.stats.static_order_span_after, 0);
    }
}

/// On a BDD-only run the seeded order leaves its audit trail: the
/// span pair is recorded and the minimized span never exceeds the
/// natural one.
#[test]
fn static_order_records_the_span_improvement() {
    let module = build_order_stress(6);
    let lowered = module.to_aig().unwrap();
    let mut aig = lowered.aig.clone();
    let mismatch = module
        .ports
        .iter()
        .find(|p| p.name == "MISMATCH")
        .unwrap()
        .net;
    aig.add_bad("mismatch".to_string(), lowered.bit(mismatch, 0));
    let opts = CheckOptions::builder()
        .bdd_only(true)
        .pobdd_window_vars(0)
        .static_order(true)
        .build();
    let r = check(&aig, &opts);
    assert!(r.verdict.is_proved());
    assert!(
        r.stats.static_order_span_before > 0,
        "span audit trail missing"
    );
    assert!(r.stats.static_order_span_after <= r.stats.static_order_span_before);
    // The blocked twin-register file is the canonical win: the FORCE
    // order must strictly improve on the natural span.
    assert!(
        r.stats.static_order_span_after < r.stats.static_order_span_before,
        "FORCE found no improvement on the order-stress design"
    );
}

/// A seeded combinational cycle: `comb_loops` enumerates it on the
/// unvalidated module (lint tooling must not need a clean design),
/// and `validate` rejects the module.
#[test]
fn seeded_comb_loop_is_detected_at_the_boundary() {
    let mut m = Module::new("cyc");
    let a = m.add_net("a", 1);
    let b = m.add_net("b", 1);
    let sb = m.sig(b);
    let na = m.arena.add(Expr::Not(sb));
    m.assign(a, na);
    let sa = m.sig(a);
    let nb = m.arena.add(Expr::Not(sa));
    m.assign(b, nb);
    let out = m.add_port("o", PortDir::Output, 1);
    let so = m.sig(a);
    m.assign(out, so);

    assert_eq!(m.comb_loops(), vec![vec!["a".to_string(), "b".to_string()]]);
    assert!(m.validate().is_err(), "a cyclic module must not validate");

    // And the AIG-side report stays clean on an acyclic design: the
    // boundary lint is the only source of comb_loops entries.
    let (aig, _) = chipgen_property(0, false, 0);
    let report = analyze(&aig);
    assert!(
        report.comb_loops.is_empty(),
        "AIGs are acyclic by construction"
    );
}
