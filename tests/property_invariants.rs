//! Property-based tests (proptest) on the core data structures and
//! cross-layer invariants.

use proptest::prelude::*;
use veridic::bdd::BddManager;
use veridic::prelude::*;
use veridic::sat::{Lit as SLit, SolveResult, Solver};

/// A random boolean expression over `n` variables, as a tree.
#[derive(Clone, Debug)]
enum BoolTree {
    Var(u32),
    Not(Box<BoolTree>),
    And(Box<BoolTree>, Box<BoolTree>),
    Or(Box<BoolTree>, Box<BoolTree>),
    Xor(Box<BoolTree>, Box<BoolTree>),
}

fn bool_tree(nvars: u32) -> impl Strategy<Value = BoolTree> {
    let leaf = (0..nvars).prop_map(BoolTree::Var);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| BoolTree::Not(Box::new(a))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolTree::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolTree::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| BoolTree::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval_tree(t: &BoolTree, assignment: u32) -> bool {
    match t {
        BoolTree::Var(v) => assignment >> v & 1 == 1,
        BoolTree::Not(a) => !eval_tree(a, assignment),
        BoolTree::And(a, b) => eval_tree(a, assignment) && eval_tree(b, assignment),
        BoolTree::Or(a, b) => eval_tree(a, assignment) || eval_tree(b, assignment),
        BoolTree::Xor(a, b) => eval_tree(a, assignment) ^ eval_tree(b, assignment),
    }
}

fn tree_to_bdd(m: &mut BddManager, t: &BoolTree) -> veridic::bdd::NodeId {
    match t {
        BoolTree::Var(v) => m.var(*v).unwrap(),
        BoolTree::Not(a) => {
            let a = tree_to_bdd(m, a);
            m.not(a)
        }
        BoolTree::And(a, b) => {
            let a = tree_to_bdd(m, a);
            let b = tree_to_bdd(m, b);
            m.and(a, b).unwrap()
        }
        BoolTree::Or(a, b) => {
            let a = tree_to_bdd(m, a);
            let b = tree_to_bdd(m, b);
            m.or(a, b).unwrap()
        }
        BoolTree::Xor(a, b) => {
            let a = tree_to_bdd(m, a);
            let b = tree_to_bdd(m, b);
            m.xor(a, b).unwrap()
        }
    }
}

fn tree_to_aig(g: &mut Aig, inputs: &[veridic::aig::Lit], t: &BoolTree) -> veridic::aig::Lit {
    match t {
        BoolTree::Var(v) => inputs[*v as usize],
        BoolTree::Not(a) => !tree_to_aig(g, inputs, a),
        BoolTree::And(a, b) => {
            let a = tree_to_aig(g, inputs, a);
            let b = tree_to_aig(g, inputs, b);
            g.and(a, b)
        }
        BoolTree::Or(a, b) => {
            let a = tree_to_aig(g, inputs, a);
            let b = tree_to_aig(g, inputs, b);
            g.or(a, b)
        }
        BoolTree::Xor(a, b) => {
            let a = tree_to_aig(g, inputs, a);
            let b = tree_to_aig(g, inputs, b);
            g.xor(a, b)
        }
    }
}

const NVARS: u32 = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The BDD of a random expression equals its truth table.
    #[test]
    fn bdd_matches_truth_table(t in bool_tree(NVARS)) {
        let mut m = BddManager::new(1 << 18);
        let f = tree_to_bdd(&mut m, &t);
        for asg in 0..(1u32 << NVARS) {
            let want = eval_tree(&t, asg);
            let got = m.eval(f, &|v| asg >> v & 1 == 1);
            prop_assert_eq!(got, want, "assignment {:05b}", asg);
        }
    }

    /// The normalized, cache-shared, iterative ITE agrees with the
    /// textbook recursive reference on random operand triples: same
    /// canonical node, and the node's truth table is ite(f, g, h).
    #[test]
    fn ite_normalization_matches_reference(
        tf in bool_tree(NVARS),
        tg in bool_tree(NVARS),
        th in bool_tree(NVARS),
    ) {
        let mut m = BddManager::new(1 << 18);
        let f = tree_to_bdd(&mut m, &tf);
        let g = tree_to_bdd(&mut m, &tg);
        let h = tree_to_bdd(&mut m, &th);
        let fast = m.ite(f, g, h).unwrap();
        let reference = m.ite_reference(f, g, h).unwrap();
        prop_assert_eq!(fast, reference, "fast ITE must build the same canonical node");
        for asg in 0..(1u32 << NVARS) {
            let want = if eval_tree(&tf, asg) { eval_tree(&tg, asg) } else { eval_tree(&th, asg) };
            prop_assert_eq!(m.eval(fast, &|v| asg >> v & 1 == 1), want, "assignment {:05b}", asg);
        }
    }

    /// Complement-edge `not`/`and`/`or`/`xor` agree with the
    /// non-complemented oracle `ite_reference` — same canonical node —
    /// and with the expression truth tables.
    #[test]
    fn complemented_ops_match_reference(
        tf in bool_tree(NVARS),
        tg in bool_tree(NVARS),
    ) {
        use veridic::bdd::NodeId;
        let mut m = BddManager::new(1 << 18);
        let f = tree_to_bdd(&mut m, &tf);
        let g = tree_to_bdd(&mut m, &tg);
        // not: a tag flip must equal the reference ite(f, FALSE, TRUE).
        let nf = m.not(f);
        let nf_ref = m.ite_reference(f, NodeId::FALSE, NodeId::TRUE).unwrap();
        prop_assert_eq!(nf, nf_ref, "¬f must be the canonical complement");
        // and / or / xor against their reference ITE phrasings.
        let and = m.and(f, g).unwrap();
        let and_ref = m.ite_reference(f, g, NodeId::FALSE).unwrap();
        prop_assert_eq!(and, and_ref);
        let or = m.or(f, g).unwrap();
        let or_ref = m.ite_reference(f, NodeId::TRUE, g).unwrap();
        prop_assert_eq!(or, or_ref);
        let ng = m.not(g);
        let xor = m.xor(f, g).unwrap();
        let xor_ref = m.ite_reference(f, ng, g).unwrap();
        prop_assert_eq!(xor, xor_ref);
        for asg in 0..(1u32 << NVARS) {
            let fv = eval_tree(&tf, asg);
            let gv = eval_tree(&tg, asg);
            let assign = |v: u32| asg >> v & 1 == 1;
            prop_assert_eq!(m.eval(nf, &assign), !fv, "not, assignment {:05b}", asg);
            prop_assert_eq!(m.eval(and, &assign), fv && gv, "and, assignment {:05b}", asg);
            prop_assert_eq!(m.eval(or, &assign), fv || gv, "or, assignment {:05b}", asg);
            prop_assert_eq!(m.eval(xor, &assign), fv ^ gv, "xor, assignment {:05b}", asg);
        }
    }

    /// Mark-and-sweep preserves every rooted function: after building
    /// extra garbage and collecting, all protected roots still evaluate
    /// to their truth tables.
    #[test]
    fn gc_preserves_rooted_functions(
        t0 in bool_tree(NVARS),
        t1 in bool_tree(NVARS),
        t2 in bool_tree(NVARS),
        junk in bool_tree(NVARS),
    ) {
        let trees = [t0, t1, t2];
        let mut m = BddManager::new(1 << 18);
        let roots: Vec<_> = trees
            .iter()
            .map(|t| {
                let f = tree_to_bdd(&mut m, t);
                m.protect(f);
                f
            })
            .collect();
        // Unrooted garbage, then an explicit sweep.
        let _ = tree_to_bdd(&mut m, &junk);
        let live_before = m.num_nodes();
        let freed = m.gc();
        prop_assert_eq!(m.num_nodes(), live_before - freed);
        for (t, f) in trees.iter().zip(&roots) {
            for asg in 0..(1u32 << NVARS) {
                let want = eval_tree(t, asg);
                prop_assert_eq!(
                    m.eval(*f, &|v| asg >> v & 1 == 1),
                    want,
                    "root must survive GC, assignment {:05b}", asg
                );
            }
        }
        // The roots stay usable for further operations after the sweep.
        let conj = m.and(roots[0], roots[1]).unwrap();
        for asg in 0..(1u32 << NVARS) {
            let want = eval_tree(&trees[0], asg) && eval_tree(&trees[1], asg);
            prop_assert_eq!(m.eval(conj, &|v| asg >> v & 1 == 1), want);
        }
    }

    /// Transfer round-trips between managers whose orders diverge: a
    /// source under an adopted, permuted order exports in its own level
    /// order, an identity-order receiver rebuilds via the ITE fallback,
    /// a receiver that adopted the source's order rebuilds node-exactly,
    /// and a further hop into a third order still denotes the same
    /// function.
    #[test]
    fn transfer_roundtrip_across_diverged_orders(
        tf in bool_tree(NVARS),
        swaps in proptest::collection::vec(0u32..NVARS - 1, 1..8),
    ) {
        use veridic::bdd::transfer::{export, import};
        // The permuted order: random adjacent transpositions of the
        // identity.
        let mut order: Vec<u32> = (0..NVARS).collect();
        for &lvl in &swaps {
            order.swap(lvl as usize, lvl as usize + 1);
        }
        let mut src = BddManager::new(1 << 18);
        src.adopt_order(&order);
        let f = tree_to_bdd(&mut src, &tf);
        let exported = export(&src, f);
        prop_assert_eq!(exported.source_order(), &order[..]);

        // Identity-order receiver: level checks fail wherever the
        // orders disagree, so the ITE fallback must reconstruct.
        let mut dst = BddManager::new(1 << 18);
        let got = import(&exported, &mut dst).unwrap();
        for asg in 0..(1u32 << NVARS) {
            prop_assert_eq!(
                dst.eval(got, &|v| asg >> v & 1 == 1),
                src.eval(f, &|v| asg >> v & 1 == 1),
                "identity receiver, assignment {:05b}", asg
            );
        }

        // A receiver that adopted the source's order takes the fast
        // mk path throughout and rebuilds node-exactly.
        let mut twin = BddManager::new(1 << 18);
        twin.adopt_order(exported.source_order());
        let got_twin = import(&exported, &mut twin).unwrap();
        prop_assert_eq!(
            twin.size(got_twin),
            src.size(f),
            "order-adopting receiver must rebuild node-exactly"
        );
        for asg in 0..(1u32 << NVARS) {
            prop_assert_eq!(
                twin.eval(got_twin, &|v| asg >> v & 1 == 1),
                src.eval(f, &|v| asg >> v & 1 == 1),
                "order-adopting receiver, assignment {:05b}", asg
            );
        }

        // Second hop: re-export from the adopted-order twin into a
        // receiver with yet another order (the reversal).
        let back = export(&twin, got_twin);
        let reversed: Vec<u32> = (0..NVARS).rev().collect();
        let mut third = BddManager::new(1 << 18);
        third.adopt_order(&reversed);
        let got_third = import(&back, &mut third).unwrap();
        for asg in 0..(1u32 << NVARS) {
            prop_assert_eq!(
                third.eval(got_third, &|v| asg >> v & 1 == 1),
                src.eval(f, &|v| asg >> v & 1 == 1),
                "reversed-order receiver, assignment {:05b}", asg
            );
        }
    }

    /// Baseline + delta must reconstruct exactly what a full export
    /// reconstructs, for random function pairs: overlapping, identical
    /// (empty delta), disjoint and constant cones all arise.
    #[test]
    fn delta_export_matches_full_export(
        tb in bool_tree(NVARS),
        tf in bool_tree(NVARS),
    ) {
        use veridic::bdd::transfer::{export, export_delta, import, import_delta};
        use veridic::bdd::NodeId;
        let mut src = BddManager::new(1 << 18);
        let b = tree_to_bdd(&mut src, &tb);
        src.protect(b);
        let f = tree_to_bdd(&mut src, &tf);
        src.protect(f);
        let overlap = src.or(b, f).unwrap();
        src.protect(overlap);
        let baseline = export(&src, b);
        // Identical-cone edge first: a delta of the baseline function
        // against its own export ships zero nodes.
        let own = export_delta(&src, b, &baseline);
        prop_assert_eq!(own.delta_node_count(), 0, "identical cone must ship nothing");
        for target in [f, overlap, b, NodeId::TRUE, NodeId::FALSE] {
            let full = export(&src, target);
            let delta = export_delta(&src, target, &baseline);
            // Whatever sharing the delta found, it never ships more
            // than the full cone.
            prop_assert!(delta.delta_node_count() < full.node_count());
            // Both routes into one destination manager must hash-cons
            // to the same node (node-identical reconstruction).
            let mut dst = BddManager::new(1 << 18);
            let via_full = import(&full, &mut dst).unwrap();
            let via_delta = import_delta(&delta, &baseline, &mut dst).unwrap();
            prop_assert_eq!(via_delta, via_full, "delta route must rebuild the same node");
            for asg in 0..(1u32 << NVARS) {
                prop_assert_eq!(
                    dst.eval(via_delta, &|v| asg >> v & 1 == 1),
                    src.eval(target, &|v| asg >> v & 1 == 1),
                    "assignment {:05b}", asg
                );
            }
            dst.unprotect(via_full);
            dst.unprotect(via_delta);
        }
    }

    /// Transfer-layer roundtrip: export/import preserves the node count
    /// and the full truth table for arbitrary functions (built from a
    /// random truth table, so every shape of sharing and complement
    /// placement shows up), both into a fresh manager and into one that
    /// already holds unrelated nodes.
    #[test]
    fn transfer_roundtrip_preserves_count_and_truth_table(
        nvars in 2u32..6,
        table in 0u64..u64::MAX,
        complement_root in 0u32..2,
    ) {
        use veridic::bdd::transfer::{export, import};
        use veridic::bdd::NodeId;
        let rows = 1u64 << nvars;
        let table = table & ((1u128 << rows) as u64).wrapping_sub(1);
        let mut src = BddManager::new(1 << 16);
        // Build the function as an OR of minterms.
        let mut f = NodeId::FALSE;
        for row in 0..rows {
            if table >> row & 1 == 1 {
                let mut term = NodeId::TRUE;
                for v in 0..nvars {
                    let lit = if row >> v & 1 == 1 {
                        src.var(v).unwrap()
                    } else {
                        src.nvar(v).unwrap()
                    };
                    term = src.and(term, lit).unwrap();
                }
                f = src.or(f, term).unwrap();
            }
        }
        let f = if complement_root == 1 { !f } else { f };
        let exported = export(&src, f);
        prop_assert_eq!(exported.node_count(), src.size(f), "export must cover exactly the cone");

        // Fresh destination manager.
        let mut fresh = BddManager::new(1 << 16);
        let g = import(&exported, &mut fresh).unwrap();
        prop_assert_eq!(fresh.size(g), src.size(f), "node count must survive the roundtrip");

        // Populated destination manager (unrelated junk + armed GC).
        let mut busy = BddManager::new(1 << 16);
        let a = busy.var(0).unwrap();
        let b = busy.var(nvars - 1).unwrap();
        let junk = busy.xor(a, b).unwrap();
        busy.protect(junk);
        let h = import(&exported, &mut busy).unwrap();
        prop_assert_eq!(busy.size(h), src.size(f));

        for asg in 0..rows {
            let want = src.eval(f, &|v| asg >> v & 1 == 1);
            prop_assert_eq!(fresh.eval(g, &|v| asg >> v & 1 == 1), want, "fresh, row {}", asg);
            prop_assert_eq!(busy.eval(h, &|v| asg >> v & 1 == 1), want, "busy, row {}", asg);
        }
    }

    /// The AIG of a random expression equals its truth table, and the
    /// SAT encoding agrees with both: the solver finds a model exactly
    /// when the truth table has a one.
    #[test]
    fn aig_and_sat_match_truth_table(t in bool_tree(NVARS)) {
        let mut g = Aig::new();
        let inputs: Vec<_> = (0..NVARS).map(|i| g.input(format!("x{i}"))).collect();
        let root = tree_to_aig(&mut g, &inputs, &t);
        let mut ones = 0u32;
        for asg in 0..(1u32 << NVARS) {
            let want = eval_tree(&t, asg);
            ones += want as u32;
            let got = g.eval_comb(root, &|v| {
                let idx = g.input_index(v).unwrap();
                asg >> idx & 1 == 1
            });
            prop_assert_eq!(got, want);
        }
        // SAT check.
        let mut s = Solver::new();
        let mut cb = veridic::sat::CnfBuilder::new(&mut s);
        let frame = cb.encode_frame(&g, None);
        let lit = frame.lit(root);
        let res = s.solve(&[lit]);
        if ones > 0 {
            prop_assert_eq!(res, SolveResult::Sat);
            // Verify the model against the tree.
            let mut asg = 0u32;
            for (i, l) in frame.inputs.iter().enumerate() {
                if s.value(l.var()).map(|v| v ^ l.is_neg()).unwrap_or(false) {
                    asg |= 1 << i;
                }
            }
            prop_assert!(eval_tree(&t, asg), "SAT model must satisfy the tree");
        } else {
            prop_assert_eq!(res, SolveResult::Unsat);
        }
        let _ = SLit::pos(veridic::sat::Var(0)); // keep the import honest
    }

    /// Value arithmetic is consistent with u64 arithmetic at width <= 32.
    #[test]
    fn value_arithmetic_matches_u64(a in 0u64..0xFFFF_FFFF, b in 0u64..0xFFFF_FFFF) {
        let w = 32;
        let va = Value::from_u64(w, a);
        let vb = Value::from_u64(w, b);
        let mask = 0xFFFF_FFFFu64;
        prop_assert_eq!(va.add(&vb).to_u64(), (a + b) & mask);
        prop_assert_eq!(va.sub(&vb).to_u64(), a.wrapping_sub(b) & mask);
        prop_assert_eq!(va.and(&vb).to_u64(), a & b);
        prop_assert_eq!(va.or(&vb).to_u64(), a | b);
        prop_assert_eq!(va.xor(&vb).to_u64(), a ^ b);
        prop_assert_eq!(va.ult(&vb), a < b);
        prop_assert_eq!(va.xor_reduce(), (a.count_ones() % 2) == 1);
    }

    /// Simulator and AIG agree on random leaf-module stimulus: the HE
    /// output matches cycle by cycle.
    #[test]
    fn simulator_matches_aig_on_leaf(seed in 0u64..1000) {
        let plan = &build_plans(Scale::Small)[0];
        let module = build_leaf(plan, None);
        let lowered = module.to_aig().unwrap();
        let mut sim = Simulator::new(&module).unwrap();
        let mut stim = UniformRandom::new(seed);
        let he_net = module.find_net("HE").unwrap();
        let mut frames = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..20 {
            let drives = stim.drive(&module, sim.cycle());
            let mut frame = vec![false; lowered.aig.num_inputs()];
            for (net, v) in &drives {
                sim.poke_net(*net, v.clone()).unwrap();
                for bit in 0..v.width() {
                    if let Some(var) = lowered.input_vars.get(&(*net, bit)) {
                        frame[lowered.aig.input_index(*var).unwrap()] = v.bit(bit);
                    }
                }
            }
            sim.settle();
            expected.push(sim.peek_net(he_net));
            sim.step();
            frames.push(frame);
        }
        // Find HE output indices in the AIG (outputs named "HE[b]").
        let he_indices: Vec<usize> = lowered
            .aig
            .outputs()
            .iter()
            .enumerate()
            .filter(|(_, o)| o.name.starts_with("HE["))
            .map(|(i, _)| i)
            .collect();
        let reports = lowered.aig.simulate(&frames);
        for (k, rep) in reports.iter().enumerate() {
            for (bit, oi) in he_indices.iter().enumerate() {
                prop_assert_eq!(
                    rep.outputs[*oi],
                    expected[k].bit(bit as u32),
                    "cycle {} HE bit {}", k, bit
                );
            }
        }
    }

    /// Generated chips always verify their own structural invariant:
    /// odd parity of every entity after any number of spec-compliant
    /// cycles.
    #[test]
    fn parity_invariant_under_spec_stimulus(seed in 0u64..200, module_idx in 0usize..11) {
        let plans = build_plans(Scale::Small);
        let plan = &plans[module_idx % plans.len()];
        let module = build_leaf(plan, None);
        let inv = extract(&module).unwrap();
        let mut sim = Simulator::new(&module).unwrap();
        let mut stim = SpecCompliant::new(seed);
        for _ in 0..30 {
            let drives = stim.drive(&module, sim.cycle());
            for (net, v) in drives {
                sim.poke_net(net, v).unwrap();
            }
            sim.settle();
            sim.step();
            for e in &inv.entities {
                prop_assert!(
                    sim.peek_net(e.net).xor_reduce(),
                    "{} lost odd parity", e.name
                );
            }
        }
    }
}
