//! End-to-end integration: the complete methodology on a whole chip.
//!
//! The buggy chip campaign must find exactly the seeded defects (no
//! false positives, no misses) with the failing property types matching
//! Table 3; the clean chip must prove everything.

use veridic::prelude::*;

#[test]
fn clean_chip_fully_verifies() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: false,
    });
    let report = run_campaign(&chip, &CampaignConfig::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(
        report.failures().len(),
        0,
        "clean chip must verify completely"
    );
    assert_eq!(
        report.resource_outs().len(),
        0,
        "default budgets must suffice"
    );
    assert!((report.proved_ratio() - 1.0).abs() < 1e-9);
}

#[test]
fn buggy_chip_finds_exactly_the_seeded_bugs() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let report = run_campaign(&chip, &CampaignConfig::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let bug_modules: std::collections::BTreeSet<String> =
        chip.bugs().into_iter().map(|(m, _)| m).collect();
    // Soundness: no failures outside bug modules.
    for f in report.failures() {
        assert!(
            bug_modules.contains(&f.module),
            "false positive in {}: {}",
            f.module,
            f.label
        );
    }
    // Completeness: every seeded bug found with the right property type.
    for (module, bug) in chip.bugs() {
        let hits: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.module == module && r.verdict.is_falsified())
            .collect();
        assert!(!hits.is_empty(), "bug {bug} missed in {module}");
        assert!(
            hits.iter().any(|h| h.ptype == bug.property_type()),
            "bug {bug}: wrong property type(s): {:?}",
            hits.iter().map(|h| h.ptype).collect::<Vec<_>>()
        );
    }
}

#[test]
fn counterexamples_replay_on_the_simulator() {
    // Formal counterexamples from the campaign must reproduce the symptom
    // on the word-level simulator — engine-independent evidence.
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let report = run_campaign(&chip, &CampaignConfig::default());
    let mut replayed = 0;
    for rec in report.failures() {
        let Verdict::Falsified(trace) = &rec.verdict else {
            continue;
        };
        // Rebuild the instrumented module for this record's vunit.
        let module = chip.design().module(&rec.module).unwrap();
        let vm = make_verifiable(module).unwrap();
        let vunits = generate_all(&vm).unwrap();
        let (_, compiled) = vunits
            .iter()
            .find(|(g, _)| g.unit.name == rec.vunit)
            .expect("vunit regenerates identically");
        let lowered = compiled.module.to_aig().unwrap();
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        assert!(
            trace.replays_on(&aig),
            "{}/{}: counterexample does not replay",
            rec.module,
            rec.label
        );
        replayed += 1;
    }
    assert!(replayed > 0, "at least one counterexample replayed");
}
