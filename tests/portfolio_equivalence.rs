//! The portfolio safety net: `Portfolio::default()` must be
//! deterministic run-to-run, and its SAT-only and BDD-only halves must
//! agree with the full cascade on every verdict and counterexample
//! depth. (The byte-for-byte diff against the pre-redesign
//! cascade retired with `veridic::mc::legacy` after PR 6 — the
//! properties it pinned live on here as self-consistency contracts.)
//!
//! Three layers:
//! * a proptest over random small sequential designs,
//! * a proptest over random chipgen leaf-module properties (the real
//!   workload shape: stereotype vunits, assumes, multi-bad AIGs),
//! * the full small-chip campaign, record by record, Table-2 rendering
//!   included.

use proptest::prelude::*;
use veridic::mc::BddEngineOutcome;
use veridic::prelude::*;

/// Self-consistency on one AIG:
/// * repeat runs are identical down to every statistic,
/// * the SAT-only and BDD-only halves agree with the full cascade on
///   verdict and counterexample depth (a half may resource out —
///   fewer engines — but may not conclude differently).
fn assert_self_consistent(aig: &Aig, opts: &CheckOptions, what: &str) {
    let first = Portfolio::default().check(aig, opts);
    let again = Portfolio::default().check(aig, opts);
    assert_eq!(first.verdict, again.verdict, "verdict drifted between runs on {what}");
    assert_eq!(first.stats, again.stats, "stats drifted between runs on {what}");
    assert_eq!(
        first.stats.engines_tried(),
        again.stats.engines_tried(),
        "engine-log rendering drifted on {what}"
    );

    if !(opts.bdd_only || opts.sat_only) {
        for restricted in [
            CheckOptions { bdd_only: true, ..opts.clone() },
            CheckOptions { sat_only: true, ..opts.clone() },
        ] {
            let half = Portfolio::default().check(aig, &restricted);
            match (&first.verdict, &half.verdict) {
                (Verdict::Falsified(a), Verdict::Falsified(b)) => {
                    assert_eq!(a.len(), b.len(), "cex depth diverged on {what}");
                    assert_eq!(a.bad_index, b.bad_index, "bad index diverged on {what}");
                }
                (Verdict::Proved { .. }, Verdict::Proved { .. }) => {}
                (_, Verdict::ResourceOut { .. }) => {}
                (a, b) => panic!("portfolio halves disagree on {what}: {a:?} vs {b:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random small sequential designs.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Design {
    Counter { bits: u32, bad_at: u64 },
    ShiftXor { bits: u32, taps: u64, bad_mask: u64 },
    Stuck { bits: u32 },
}

fn build(design: &Design) -> Aig {
    let mut g = Aig::new();
    let counter = |g: &mut Aig, bits: u32| -> Vec<veridic::aig::Lit> {
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = veridic::aig::Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        qs.into_iter().map(|(_, q)| q).collect()
    };
    let state_match = |g: &mut Aig, qs: &[veridic::aig::Lit], mask: u64| {
        let hit: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| if mask >> i & 1 == 1 { *q } else { !*q })
            .collect();
        g.and_many(hit)
    };
    match design {
        Design::Counter { bits, bad_at } => {
            let qs = counter(&mut g, *bits);
            let bad = state_match(&mut g, &qs, bad_at & ((1 << bits) - 1));
            g.add_bad("count_hit", bad);
        }
        Design::ShiftXor { bits, taps, bad_mask } => {
            let bits = *bits as usize;
            let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("s{i}"), i == 0)).collect();
            let mut fb = qs[bits - 1].1;
            for (i, (_, q)) in qs.iter().enumerate().take(bits - 1) {
                if taps >> i & 1 == 1 {
                    fb = g.xor(fb, *q);
                }
            }
            for i in (1..bits).rev() {
                g.set_next(qs[i].0, qs[i - 1].1);
            }
            g.set_next(qs[0].0, fb);
            let lits: Vec<_> = qs.iter().map(|(_, q)| *q).collect();
            let bad = state_match(&mut g, &lits, bad_mask & ((1 << bits) - 1));
            g.add_bad("state_hit", bad);
        }
        Design::Stuck { bits } => {
            let qs = counter(&mut g, *bits);
            let (l, s) = g.latch("stuck", false);
            g.set_next(l, s);
            // Entangle with the counter so the COI keeps it.
            let full = state_match(&mut g, &qs, (1 << bits) - 1);
            let bad = g.and(s, full);
            g.add_bad("never", bad);
        }
    }
    g
}

fn design_strategy() -> impl Strategy<Value = Design> {
    prop_oneof![
        (2u32..5, 0u64..32).prop_map(|(bits, bad_at)| Design::Counter { bits, bad_at }),
        (3u32..6, 0u64..32, 0u64..64)
            .prop_map(|(bits, taps, bad_mask)| Design::ShiftXor { bits, taps, bad_mask }),
        (2u32..5, 0u64..1).prop_map(|(bits, _)| Design::Stuck { bits }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The self-consistency contract on random designs, across the
    /// option axes the default policy gates on.
    #[test]
    fn portfolio_is_self_consistent_on_random_designs(
        design in design_strategy(),
        mode in 0u32..3,
    ) {
        let aig = build(&design);
        let opts = match mode {
            0 => CheckOptions::default(),
            1 => CheckOptions::builder().bdd_only(true).build(),
            _ => CheckOptions::builder().sat_only(true).build(),
        };
        assert_self_consistent(&aig, &opts, &format!("{design:?} mode={mode}"));
    }

    /// The same contract on the real workload shape: a random chipgen
    /// leaf module (from the clean or the bug-seeded chip), one of its
    /// stereotype vunits, every assert of that vunit.
    #[test]
    fn portfolio_is_self_consistent_on_chipgen_properties(
        module_idx in 0usize..32,
        bug_coin in 0u32..2,
        vunit_idx in 0usize..4,
    ) {
        let with_bugs = bug_coin == 1;
        let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs });
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
        assert_self_consistent(&aig, &CheckOptions::default(), &format!(
            "{}:{} with_bugs={with_bugs}", mi.name(), vunit_idx
        ));
    }
}

// ---------------------------------------------------------------------
// The full campaign.
// ---------------------------------------------------------------------

/// The campaign over the full (buggy) small chip is deterministic
/// record-for-record — verdicts, stats, engine-log rendering and the
/// rendered Table 2.
#[test]
fn full_campaign_is_deterministic() {
    let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs: true });
    let opts = CheckOptions::default();
    let report = run_campaign(&chip, &CampaignConfig { check: opts.clone(), workers: 0 });
    let replay = run_campaign(&chip, &CampaignConfig { check: opts, workers: 0 });

    assert_eq!(report.records.len(), replay.records.len());
    for (rec, rep) in report.records.iter().zip(&replay.records) {
        let what = format!("{}/{}", rec.module, rec.label);
        assert_eq!(rec.module, rep.module, "record order diverged at {what}");
        assert_eq!(rec.label, rep.label, "record order diverged at {what}");
        assert_eq!(rec.verdict, rep.verdict, "verdict diverged at {what}");
        assert_eq!(rec.stats, rep.stats, "stats diverged at {what}");
        assert_eq!(
            rec.stats.engines_tried(),
            rep.stats.engines_tried(),
            "engine log diverged at {what}"
        );
    }
    assert_eq!(report.render_table2(&chip), replay.render_table2(&chip));
}

// ---------------------------------------------------------------------
// Kill → resume through the public facade.
// ---------------------------------------------------------------------

/// A 6-bit counter whose bad state is count == 44: a depth-44
/// falsification no small round budget can reach, shared by the
/// kill → resume tests.
fn counter6_bad_at_44() -> Aig {
    let mut g = Aig::new();
    let qs: Vec<_> = (0..6).map(|i| g.latch(format!("c{i}"), false)).collect();
    let mut carry = veridic::aig::Lit::TRUE;
    for (id, q) in &qs {
        let next = g.xor(*q, carry);
        carry = g.and(*q, carry);
        g.set_next(*id, next);
    }
    let hit: Vec<_> = (0..6).map(|i| if 44 >> i & 1 == 1 { qs[i].1 } else { !qs[i].1 }).collect();
    let bad = g.and_many(hit);
    g.add_bad("count_is_44", bad);
    g
}

/// A BDD reachability run killed mid-fixpoint resumes — through the
/// prelude-exported API — to the identical verdict, falsification
/// depth and completed-round count.
#[test]
fn killed_reachability_resumes_identically_via_facade() {
    let g = counter6_bad_at_44();
    let opts = CheckOptions::builder().bdd_only(true).pobdd_window_vars(0).build();
    let portfolio = Portfolio::default();
    let uninterrupted = portfolio.check(&g, &opts);

    let checkpoint = portfolio
        .run_with_budget(&g, &opts, &mut Budget::rounds(15))
        .into_checkpoint()
        .expect("15 rounds cannot reach depth 44");
    let resumed = match portfolio.resume(&g, &opts, checkpoint) {
        PortfolioOutcome::Done(r) => r,
        PortfolioOutcome::Suspended(_) => panic!("unbudgeted resume concludes"),
    };
    assert_eq!(resumed.verdict, uninterrupted.verdict);
    match (&resumed.verdict, &uninterrupted.verdict) {
        (Verdict::Falsified(a), Verdict::Falsified(b)) => assert_eq!(a.len(), b.len()),
        other => panic!("expected falsifications, got {other:?}"),
    }
    assert_eq!(resumed.stats.iterations, uninterrupted.stats.iterations);
}

/// What the checkpoint actually ships: a suspended monolithic run's
/// frontier is a [`veridic::bdd::DeltaBdd`] paired with the same
/// window's reached export, and a session resumed from it rebuilds the
/// frontier via the delta path and concludes with the full run's
/// verdict.
#[test]
fn monolithic_checkpoint_frontier_is_delta_encoded() {
    let g = counter6_bad_at_44();
    let mut stats = CheckStats::default();
    let outcome = veridic::mc::bdd_umc_session(
        &g,
        1 << 20,
        10_000,
        false,
        &mut stats,
        &mut Budget::rounds(15),
        None,
    );
    let ck = match outcome {
        BddEngineOutcome::Suspended(ck) => ck,
        other => panic!("expected a suspension, got {other:?}"),
    };
    assert_eq!(ck.depth, 15);
    assert_eq!(ck.window_vars, 0);
    assert_eq!((ck.reached.len(), ck.frontier.len()), (1, 1));
    assert_eq!(
        ck.frontier[0].baseline_len(),
        ck.reached[0].node_count() - 1,
        "the frontier delta must be encoded against this window's reached export"
    );
    // Resume through the delta path.
    let mut s = CheckStats::default();
    let resumed = veridic::mc::bdd_umc_session(
        &g,
        1 << 20,
        10_000,
        false,
        &mut s,
        &mut Budget::unlimited(),
        Some(&ck),
    );
    assert!(
        matches!(resumed, BddEngineOutcome::FalsifiedAtDepth(44)),
        "resume must conclude at depth 44, got {resumed:?}"
    );
}
