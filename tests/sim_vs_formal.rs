//! Simulation vs. formal agreement and the Table-3 detectability story.

use veridic::prelude::*;

/// Helper: first falsified property's trace length on a module's
/// stereotype properties, if any.
fn formal_finds(module: &Module) -> Option<usize> {
    let vm = make_verifiable(module).unwrap();
    for (_g, compiled) in generate_all(&vm).unwrap() {
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
            if let Verdict::Falsified(t) =
                Portfolio::default().check_bad(&aig, idx, &CheckOptions::default(), &mut stats)
            {
                return Some(t.len());
            }
        }
    }
    None
}

/// Spec-compliant simulation detection latency, if detected.
fn sim_finds(module: &Module, cycles: u64) -> Option<u64> {
    let mut sim = Simulator::new(module).unwrap();
    let mut stim = SpecCompliant::new(0x7357);
    sim.run_with(&mut stim, cycles, observe_symptom)
        .unwrap()
        .map(|(c, _)| c)
}

#[test]
fn table3_detectability_shape() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let mut easy_latencies = Vec::new();
    let mut hard_outcomes = Vec::new();
    for (module_name, bug) in chip.bugs() {
        let module = chip.design().module(&module_name).unwrap();
        // Formal always finds every bug.
        assert!(formal_finds(module).is_some(), "formal must find {bug}");
        let latency = sim_finds(module, 20_000);
        if bug.easy_in_simulation() {
            let l = latency.unwrap_or_else(|| panic!("{bug} should be easy for simulation"));
            easy_latencies.push((bug, l));
        } else {
            hard_outcomes.push((bug, latency));
        }
    }
    // Easy bugs: found fast.
    for (bug, l) in &easy_latencies {
        assert!(*l < 200, "{bug} latency {l} not 'easy'");
    }
    // Hard bugs: either never found (B1, B3) or orders of magnitude
    // slower than the easy ones (B5, B6).
    let easy_max = easy_latencies.iter().map(|(_, l)| *l).max().unwrap();
    for (bug, latency) in &hard_outcomes {
        match bug {
            BugId::B1 | BugId::B3 => {
                assert_eq!(
                    *latency, None,
                    "{bug} must be invisible to spec-compliant sim"
                );
            }
            BugId::B5 | BugId::B6 => {
                if let Some(l) = latency {
                    assert!(
                        *l > easy_max * 3,
                        "{bug} latency {l} too close to easy bugs ({easy_max})"
                    );
                }
            }
            other => panic!("unexpected hard bug {other}"),
        }
    }
}

#[test]
fn clean_modules_agree_between_sim_and_formal() {
    // On clean modules, neither simulation (spec stimulus) nor formal
    // verification reports anything.
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: false,
    });
    for mi in chip.modules().iter().take(4) {
        let module = chip.design().module(mi.name()).unwrap();
        assert_eq!(formal_finds(module), None, "{}", mi.name());
        assert_eq!(sim_finds(module, 1_000), None, "{}", mi.name());
    }
}

#[test]
fn formal_counterexample_reproduces_symptom_in_simulator() {
    // Take B0's counterexample and drive the *raw module* with it on the
    // word-level simulator: the HE false alarm must appear.
    let plans = build_plans(Scale::Small);
    let module = build_leaf(&plans[0], Some(BugId::B0));
    let vm = make_verifiable(&module).unwrap();
    let vunits = generate_all(&vm).unwrap();
    let (_, compiled) = vunits
        .iter()
        .find(|(g, _)| g.ptype == PropertyType::Soundness)
        .unwrap();
    let lowered = compiled.module.to_aig().unwrap();
    let mut aig = lowered.aig.clone();
    for (label, net) in &compiled.asserts {
        aig.add_bad(label.clone(), lowered.bit(*net, 0));
    }
    for (label, net) in &compiled.assumes {
        aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
    }
    let mut trace = None;
    for idx in 0..compiled.asserts.len() {
        let mut stats = CheckStats::default();
        if let Verdict::Falsified(t) =
            Portfolio::default().check_bad(&aig, idx, &CheckOptions::default(), &mut stats)
        {
            trace = Some(t);
            break;
        }
    }
    let trace = trace.expect("B0 falsifies a soundness property");

    // Replay input values cycle by cycle on the instrumented module and
    // watch HE.
    let im = &compiled.module;
    let mut sim = Simulator::new(im).unwrap();
    let inputs: Vec<(NetId, String, u32)> = im
        .inputs()
        .map(|p| (p.net, p.name.clone(), im.net_width(p.net)))
        .collect();
    let mut he_fired = false;
    for frame in &trace.inputs {
        for (net, name, width) in &inputs {
            let mut v = Value::zero(*width);
            for b in 0..*width {
                // AIG input naming: "<net>[<bit>]".
                let key = format!("{name}[{b}]");
                if let Some(pos) = aig.inputs().iter().position(|(_, n)| *n == key) {
                    if frame[pos] {
                        v.set_bit(b, true);
                    }
                }
            }
            sim.poke_net(*net, v).unwrap();
        }
        sim.settle();
        if !sim.peek("HE").unwrap().is_zero() {
            he_fired = true;
        }
        sim.step();
    }
    assert!(he_fired, "counterexample must raise HE on the simulator");
}
