//! Failure-injection (mutation) testing of the methodology itself: the
//! stereotype property set must catch every targeted defect class the
//! paper's checkpoints are designed to guard. Each mutation models a
//! realistic RTL slip; the campaign on the mutated module must falsify
//! at least one property of the expected type.

use veridic::prelude::*;

/// Checks all stereotype properties of `module`; returns the property
/// types that were falsified.
fn falsified_types(module: &Module) -> Vec<PropertyType> {
    let vm = make_verifiable(module).unwrap();
    let mut out = Vec::new();
    for (g, compiled) in generate_all(&vm).unwrap() {
        let lowered = compiled.module.to_aig().unwrap();
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        for idx in 0..compiled.asserts.len() {
            let mut stats = CheckStats::default();
            let verdict =
                Portfolio::default().check_bad(&aig, idx, &CheckOptions::default(), &mut stats);
            if verdict.is_falsified() {
                out.push(g.ptype);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn base_module() -> Module {
    let plan = &build_plans(Scale::Small)[0];
    build_leaf(plan, None)
}

/// Mutation: stuck-at-zero parity bit on entity 0 — the classic
/// "designer forgot the parity flop" defect. Soundness must catch it.
#[test]
fn mutation_stuck_parity_bit_caught_by_soundness() {
    let mut m = base_module();
    let ent = m
        .find_net("ent0_legal_fsm")
        .or_else(|| m.find_net("ent0_fsm"))
        .unwrap();
    let w = m.net_width(ent);
    let idx = m.regs.iter().position(|r| r.q == ent).unwrap();
    let old_next = m.regs[idx].next;
    // next' = {1'b0, old_next[w-2:0]}: parity bit stuck at 0.
    let data = m.arena.add(Expr::Slice(old_next, w - 2, 0));
    let zero = m.arena.add(Expr::Const(Value::zero(1)));
    let stuck = m.arena.add(Expr::Concat(vec![zero, data]));
    m.regs[idx].next = stuck;
    let types = falsified_types(&m);
    assert!(
        types.contains(&PropertyType::Soundness),
        "stuck parity must violate soundness, got {types:?}"
    );
}

/// Mutation: a checker is disconnected (Check1 dropped for entity 0) —
/// exactly what the P0 error-detection properties exist to catch.
#[test]
fn mutation_disconnected_checker_caught_by_edetect() {
    let mut m = base_module();
    // The HE expression ORs entity checkers; rebuild HE without entity
    // 0's contribution by rewriting the HE assign: replace the parity
    // check of ent0 with constant 0. Easiest faithful emulation: drive
    // the entity's checker input from a constant-odd value.
    let ent = m
        .find_net("ent0_legal_fsm")
        .or_else(|| m.find_net("ent0_fsm"))
        .unwrap();
    let w = m.net_width(ent);
    // Find the HE assign and substitute: create a shadow net that the
    // checker reads; here we simply re-point the HE expression by adding
    // a fresh module where the checker term uses a constant.
    // Implementation: swap the RedXor(ent0) term by rebuilding the whole
    // HE expression is intrusive; instead, emulate the defect by gating
    // the entity checker with constant false at its source: wire the
    // entity output into HE via a constant-odd proxy.
    let he = m.find_port("HE").unwrap().net;
    let he_w = m.net_width(he);
    let aidx = m.assigns.iter().position(|(n, _)| *n == he).unwrap();
    // Constant odd-parity value of the entity's width => its checker term
    // is always 0.
    let mut cv = Value::zero(w);
    cv.set_bit(0, true);
    let cexpr = m.arena.add(Expr::Const(cv));
    let he_expr = m.assigns[aidx].1;
    let rebuilt = substitute_net(&mut m, he_expr, ent, cexpr);
    assert_ne!(rebuilt, he_expr, "substitution must change HE");
    m.assigns[aidx].1 = rebuilt;
    let _ = he_w;
    let types = falsified_types(&m);
    assert!(
        types.contains(&PropertyType::ErrorDetection),
        "disconnected checker must violate error-detection ability, got {types:?}"
    );
}

/// Mutation: an output group drops its parity-correction constant —
/// output integrity must catch it.
#[test]
fn mutation_output_parity_drop_caught_by_integrity() {
    let mut m = base_module();
    let o0 = m.find_net("O0").unwrap();
    let aidx = m.assigns.iter().position(|(n, _)| *n == o0).unwrap();
    let w = m.net_width(o0);
    // XOR the output with a single bit: flips parity to even whenever
    // that extra term is odd... use constant 1 bit: permanent parity flip.
    let mut cv = Value::zero(w);
    cv.set_bit(0, true);
    let c = m.arena.add(Expr::Const(cv));
    let flipped = m.arena.add(Expr::Xor(m.assigns[aidx].1, c));
    m.assigns[aidx].1 = flipped;
    let types = falsified_types(&m);
    assert!(
        types.contains(&PropertyType::OutputIntegrity),
        "dropped parity correction must violate integrity, got {types:?}"
    );
}

/// Mutation: legal-state FSM gains an escape transition — the P3
/// legal-state property must catch it.
#[test]
fn mutation_fsm_escape_caught_by_other() {
    let mut m = base_module();
    let Some(ent) = m.find_net("ent0_legal_fsm") else {
        // Plan without P3 on entity 0: nothing to test here.
        return;
    };
    let w = m.net_width(ent);
    let idx = m.regs.iter().position(|r| r.q == ent).unwrap();
    // Replace the wrap-at-4 update with free increment: data can reach 7.
    let sq = m.regs[idx].next; // injected? no — base module, plain next
    let _ = sq;
    let s = m.sig(ent);
    let data = m.arena.add(Expr::Slice(s, w - 2, 0));
    let one = m.arena.add(Expr::Const(Value::from_u64(w - 1, 1)));
    let inc = m.arena.add(Expr::Add(data, one));
    let p = m.arena.add(Expr::RedXor(inc));
    let np = m.arena.add(Expr::Not(p));
    let next = m.arena.add(Expr::Concat(vec![np, inc]));
    m.regs[idx].next = next;
    let types = falsified_types(&m);
    assert!(
        types.contains(&PropertyType::Other),
        "FSM escape must violate the legal-state property, got {types:?}"
    );
}

/// Substitutes references to `net` inside `expr` with `replacement`,
/// returning the rebuilt expression id.
fn substitute_net(
    m: &mut Module,
    expr: veridic::netlist::ExprId,
    net: NetId,
    replacement: veridic::netlist::ExprId,
) -> veridic::netlist::ExprId {
    use veridic::netlist::Expr as E;
    let node = m.arena.node(expr).clone();
    match node {
        E::Net(n) if n == net => replacement,
        E::Const(_) | E::Net(_) => expr,
        E::Not(a) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::Not(a))
        }
        E::And(a, b) => rebuild2(m, a, b, net, replacement, E::And),
        E::Or(a, b) => rebuild2(m, a, b, net, replacement, E::Or),
        E::Xor(a, b) => rebuild2(m, a, b, net, replacement, E::Xor),
        E::Add(a, b) => rebuild2(m, a, b, net, replacement, E::Add),
        E::Sub(a, b) => rebuild2(m, a, b, net, replacement, E::Sub),
        E::Mul(a, b) => rebuild2(m, a, b, net, replacement, E::Mul),
        E::Eq(a, b) => rebuild2(m, a, b, net, replacement, E::Eq),
        E::Ne(a, b) => rebuild2(m, a, b, net, replacement, E::Ne),
        E::Ult(a, b) => rebuild2(m, a, b, net, replacement, E::Ult),
        E::Ule(a, b) => rebuild2(m, a, b, net, replacement, E::Ule),
        E::RedAnd(a) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::RedAnd(a))
        }
        E::RedOr(a) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::RedOr(a))
        }
        E::RedXor(a) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::RedXor(a))
        }
        E::Shl(a, k) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::Shl(a, k))
        }
        E::Shr(a, k) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::Shr(a, k))
        }
        E::Mux { cond, then_, else_ } => {
            let cond = substitute_net(m, cond, net, replacement);
            let then_ = substitute_net(m, then_, net, replacement);
            let else_ = substitute_net(m, else_, net, replacement);
            m.arena.add(E::Mux { cond, then_, else_ })
        }
        E::Concat(parts) => {
            let parts = parts
                .into_iter()
                .map(|p| substitute_net(m, p, net, replacement))
                .collect();
            m.arena.add(E::Concat(parts))
        }
        E::Repeat(n, a) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::Repeat(n, a))
        }
        E::Slice(a, hi, lo) => {
            let a = substitute_net(m, a, net, replacement);
            m.arena.add(E::Slice(a, hi, lo))
        }
    }
}

fn rebuild2(
    m: &mut Module,
    a: veridic::netlist::ExprId,
    b: veridic::netlist::ExprId,
    net: NetId,
    replacement: veridic::netlist::ExprId,
    mk: fn(veridic::netlist::ExprId, veridic::netlist::ExprId) -> veridic::netlist::Expr,
) -> veridic::netlist::ExprId {
    let a = substitute_net(m, a, net, replacement);
    let b = substitute_net(m, b, net, replacement);
    m.arena.add(mk(a, b))
}
