//! Golden tests for the paper's figures: the generated artifacts keep
//! the exact shapes of Figures 2, 3, 4 and 6.

use veridic::prelude::*;

/// A minimal Figure-1 module named `M`, for figure-faithful output: one
/// entity (the FSM state A), one input group I, one output group O,
/// 1-bit HE.
fn figure1_module() -> Module {
    let mut m = Module::new("M");
    let i = m.add_port("I", PortDir::Input, 4);
    m.net_mut(i)
        .attrs
        .insert("checkpoint.kind".into(), "input_group".into());
    m.net_mut(i)
        .attrs
        .insert("checkpoint.he_bit".into(), "0".into());
    let a = m.add_net("A", 4);
    let si = m.sig(i);
    let sa = m.sig(a);
    let data = m.arena.add(Expr::Slice(sa, 2, 0));
    let idata = m.arena.add(Expr::Slice(si, 2, 0));
    let mixed = m.arena.add(Expr::Xor(data, idata));
    let p = m.arena.add(Expr::RedXor(mixed));
    let np = m.arena.add(Expr::Not(p));
    let nxt = m.arena.add(Expr::Concat(vec![np, mixed]));
    m.add_reg(a, nxt, Value::from_u64(4, 0b1000));
    m.net_mut(a)
        .attrs
        .insert("checkpoint.kind".into(), "entity".into());
    m.net_mut(a)
        .attrs
        .insert("checkpoint.entity_kind".into(), "fsm".into());
    m.net_mut(a)
        .attrs
        .insert("checkpoint.he_bit".into(), "0".into());
    // Checkers: Check1 comb on A; Check2 registered on I.
    let sa2 = m.sig(a);
    let pa = m.arena.add(Expr::RedXor(sa2));
    let bad_a = m.arena.add(Expr::Not(pa));
    let pi = m.arena.add(Expr::RedXor(si));
    let bad_i = m.arena.add(Expr::Not(pi));
    let chk = m.add_net("in_chk_q", 1);
    m.add_reg(chk, bad_i, Value::zero(1));
    let schk = m.sig(chk);
    let he = m.add_port("HE", PortDir::Output, 1);
    m.net_mut(he)
        .attrs
        .insert("checkpoint.kind".into(), "he".into());
    let he_e = m.arena.add(Expr::Or(bad_a, schk));
    m.assign(he, he_e);
    let o = m.add_port("O", PortDir::Output, 4);
    m.net_mut(o)
        .attrs
        .insert("checkpoint.kind".into(), "output_group".into());
    let sa3 = m.sig(a);
    m.assign(o, sa3);
    m.validate().unwrap();
    m
}

#[test]
fn figure2_golden() {
    let vm = make_verifiable(&figure1_module()).unwrap();
    let src = edetect_vunit(&vm);
    let expected = "\
vunit M_edetect (M) { // check error detection ability
    property pCheck1_0 = always ((I_ERR_INJ_C & ~(^I_ERR_INJ_D)) -> next HE);
    assert   pCheck1_0; // A should be odd parity
    property pCheck2_0 = always ( ~(^I) -> next HE);
    assert   pCheck2_0; // I should be odd parity
}
";
    assert_eq!(src, expected);
}

#[test]
fn figure3_golden() {
    let vm = make_verifiable(&figure1_module()).unwrap();
    let src = soundness_vunit(&vm);
    let expected = "\
vunit M_soundness (M) { // soundness check
    property pIntegrityI_0 = always ( ^I );
    assume   pIntegrityI_0; // assumption for I
    property pNoErrInjection = always ( ~(|I_ERR_INJ_C) );
    assume   pNoErrInjection; // error injection is disabled
    property pNoError_0 = never ( HE );
    assert   pNoError_0; // then no error is reported
}
";
    assert_eq!(src, expected);
}

#[test]
fn figure4_golden() {
    let vm = make_verifiable(&figure1_module()).unwrap();
    let src = integrity_vunit(&vm);
    let expected = "\
vunit M_integrity (M) { // integrity check
    property pIntegrityI_0 = always ( ^I );
    assume   pIntegrityI_0; // assumption for I
    property pNoErrInjection = always ( ~(|I_ERR_INJ_C) );
    assume   pNoErrInjection; // error injection is disabled
    property pIntegrityO_0 = always ( ^O );
    assert   pIntegrityO_0; // then integrity of O holds
}
";
    assert_eq!(src, expected);
}

#[test]
fn figure1_module_verifies_completely() {
    let vm = make_verifiable(&figure1_module()).unwrap();
    for (genu, compiled) in generate_all(&vm).unwrap() {
        let lowered = compiled.module.to_aig().unwrap();
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        let r = check(&aig, &CheckOptions::default());
        assert!(r.verdict.is_proved(), "{}: {:?}", genu.unit.name, r.verdict);
    }
}

#[test]
fn figure6_golden_verilog() {
    let vm = make_verifiable(&figure1_module()).unwrap();
    let src = emit_module(&vm.module, None);
    // The Figure-6 idiom: injection ports in the header...
    assert!(src.contains("input  I_ERR_INJ_C"), "{src}");
    assert!(src.contains("input  [3:0] I_ERR_INJ_D"), "{src}");
    // ...and the priority selector on the state register.
    assert!(
        src.contains("(I_ERR_INJ_C ? I_ERR_INJ_D :"),
        "selector missing:\n{src}"
    );
    // Reset value preserved (4'b1000, the paper's 4'b1_000).
    assert!(src.contains("A <= 4'b1000"), "{src}");
    // Round-trip: the Verifiable RTL re-parses and re-elaborates.
    let ast = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let d = elaborate(&ast, "M").unwrap();
    assert_eq!(d.module("M").unwrap().regs.len(), vm.module.regs.len());
}
