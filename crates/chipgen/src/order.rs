//! Order-stress design: a register file whose *creation* order is
//! pessimal for BDDs.
//!
//! The module carries `pairs` twin registers `a<i>`/`b<i>` that both
//! sample input bit `DIN[i]` every cycle, declared in blocked order (all
//! `a`s, then all `b`s). The single output `MISMATCH` is the OR of all
//! `a<i> ^ b<i>` — combinationally false on every reachable state, so a
//! `MISMATCH`-never-fires property is provable, but the reached-state
//! BDD is the equality relation `a == b`, which needs ~2^pairs nodes
//! under the natural (blocked) variable order and ~3·pairs nodes once
//! the twins are interleaved. FORCE static ordering
//! (`CheckOptions::static_order`) recovers the interleaving from the
//! shared-input structure, which is exactly what the `order/` bench
//! family measures.

use veridic_netlist::{Expr, Module, PortDir, Value};

/// Builds the order-stress module with `pairs` twin-register pairs.
///
/// # Panics
///
/// Panics if `pairs` is zero or the generated module fails validation
/// (generator bug).
pub fn build_order_stress(pairs: u32) -> Module {
    assert!(pairs > 0, "order stress needs at least one register pair");
    let mut m = Module::new(format!("order_stress_{pairs}"));
    let din = m.add_port("DIN", PortDir::Input, pairs);
    // Blocked declaration order: every `a` register first, then every
    // `b`. Lowering preserves this order, so the natural BDD variable
    // order separates each twin from its partner by `pairs` positions.
    let mut a = Vec::with_capacity(pairs as usize);
    let mut b = Vec::with_capacity(pairs as usize);
    for i in 0..pairs {
        let q = m.add_net(format!("a{i}"), 1);
        let next = m.sig_bit(din, i);
        m.add_reg(q, next, Value::zero(1));
        a.push(q);
    }
    for i in 0..pairs {
        let q = m.add_net(format!("b{i}"), 1);
        let next = m.sig_bit(din, i);
        m.add_reg(q, next, Value::zero(1));
        b.push(q);
    }
    let mismatch = m.add_port("MISMATCH", PortDir::Output, 1);
    let mut acc = None;
    for i in 0..pairs as usize {
        let (sa, sb) = (m.sig(a[i]), m.sig(b[i]));
        let x = m.arena.add(Expr::Xor(sa, sb));
        acc = Some(match acc {
            None => x,
            Some(p) => m.arena.add(Expr::Or(p, x)),
        });
    }
    let e = acc.expect("pairs > 0"); // lint: allow
    m.assign(mismatch, e);
    m.validate()
        .unwrap_or_else(|err| panic!("order stress module invalid: {err}")); // lint: allow
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_stress_lowers_with_blocked_register_order() {
        let m = build_order_stress(4);
        let lowered = m.to_aig().unwrap();
        let aig = &lowered.aig;
        assert_eq!(aig.latches().len(), 8);
        let names: Vec<&str> = aig.latches().iter().map(|l| l.name.as_str()).collect();
        // Natural order is blocked: all a's, then all b's.
        assert_eq!(
            names,
            ["a0[0]", "a1[0]", "a2[0]", "a3[0]", "b0[0]", "b1[0]", "b2[0]", "b3[0]"]
        );
    }

    #[test]
    fn mismatch_is_unreachable() {
        // a and b always load the same input bit, so the mismatch output
        // can never fire from the all-zero reset state.
        let m = build_order_stress(3);
        let lowered = m.to_aig().unwrap();
        let mut aig = lowered.aig.clone();
        let mismatch = m.ports.iter().find(|p| p.name == "MISMATCH").unwrap().net;
        aig.add_bad("mismatch".to_string(), lowered.bit(mismatch, 0));
        let v = veridic_mc::check(&aig, &veridic_mc::CheckOptions::default());
        assert!(v.verdict.is_proved());
    }
}
