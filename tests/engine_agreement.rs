//! Cross-engine consistency: SAT-only and BDD-only portfolios must agree
//! on every property of a generated module — the reproduction analogue
//! of running both the "commercial tool" and the "in-house engine" —
//! and the partitioned-OBDD engine must agree with monolithic BDD
//! reachability round for round.

use proptest::prelude::*;
use veridic::mc::{bdd_umc, BddEngineOutcome};
use veridic::prelude::*;

fn aig_for(compiled: &veridic::psl::CompiledVUnit) -> Aig {
    let lowered = compiled.module.to_aig().unwrap();
    let mut aig = lowered.aig.clone();
    for (label, net) in &compiled.asserts {
        aig.add_bad(label.clone(), lowered.bit(*net, 0));
    }
    for (label, net) in &compiled.assumes {
        aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
    }
    aig
}

#[test]
fn sat_and_bdd_portfolios_agree_on_buggy_module() {
    let plans = build_plans(Scale::Small);
    let module = build_leaf(&plans[0], Some(BugId::B0));
    let vm = make_verifiable(&module).unwrap();
    let portfolio = Portfolio::default();
    let sat_opts = CheckOptions::builder().sat_only(true).build();
    let bdd_opts = CheckOptions::builder().bdd_only(true).build();
    for (genu, compiled) in generate_all(&vm).unwrap() {
        let aig = aig_for(&compiled);
        for idx in 0..compiled.asserts.len() {
            let mut s1 = CheckStats::default();
            let mut s2 = CheckStats::default();
            let v_sat = portfolio.check_bad(&aig, idx, &sat_opts, &mut s1);
            let v_bdd = portfolio.check_bad(&aig, idx, &bdd_opts, &mut s2);
            match (&v_sat, &v_bdd) {
                (Verdict::Proved { .. }, Verdict::Proved { .. }) => {}
                (Verdict::Falsified(a), Verdict::Falsified(b)) => {
                    assert_eq!(
                        a.len(),
                        b.len(),
                        "cex depth differs on {}/{}",
                        genu.unit.name,
                        compiled.asserts[idx].0
                    );
                }
                other => panic!(
                    "engines disagree on {}/{}: {other:?}",
                    genu.unit.name, compiled.asserts[idx].0
                ),
            }
        }
    }
}

#[test]
fn pobdd_agrees_with_monolithic_bdd_on_clean_module() {
    let plans = build_plans(Scale::Small);
    let module = build_leaf(&plans[3.min(plans.len() - 1)], None);
    let vm = make_verifiable(&module).unwrap();
    // POBDD-forced portfolio: starve the monolithic BDD so the POBDD
    // fallback concludes, then compare against a generous BDD run.
    for (_, compiled) in generate_all(&vm).unwrap().into_iter().take(2) {
        let aig = aig_for(&compiled);
        for idx in 0..compiled.asserts.len().min(3) {
            let mut s1 = CheckStats::default();
            let generous = CheckOptions::builder().bdd_only(true).build();
            let v1 = check_one(&aig, idx, &generous, &mut s1);
            let mut s2 = CheckStats::default();
            let pobdd = CheckOptions::builder().bdd_only(true).pobdd_window_vars(3).build();
            let v2 = check_one(&aig, idx, &pobdd, &mut s2);
            assert_eq!(
                v1.is_proved(),
                v2.is_proved(),
                "POBDD-enabled portfolio disagrees at assert {idx}"
            );
        }
    }
}

/// A random small sequential design with one bad.
#[derive(Clone, Debug)]
enum Design {
    /// `bits`-bit ripple counter; bad fires when the count equals
    /// `bad_at` (always reachable: counters wrap).
    Counter { bits: u32, bad_at: u64 },
    /// Shift register with xor feedback from `taps` (an LFSR when the
    /// taps are primitive); bad is the state matching `bad_mask` — some
    /// masks are off-orbit, so this generates proofs too.
    ShiftXor { bits: u32, taps: u64, bad_mask: u64 },
    /// Counter plus a stuck-at-false latch as the bad: always proved.
    Stuck { bits: u32 },
}

fn build_counter(g: &mut Aig, bits: u32) -> Vec<veridic::aig::Lit> {
    let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
    let mut carry = veridic::aig::Lit::TRUE;
    for (id, q) in &qs {
        let next = g.xor(*q, carry);
        carry = g.and(*q, carry);
        g.set_next(*id, next);
    }
    qs.into_iter().map(|(_, q)| q).collect()
}

fn state_match(g: &mut Aig, qs: &[veridic::aig::Lit], mask: u64) -> veridic::aig::Lit {
    let hit: Vec<_> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| if mask >> i & 1 == 1 { *q } else { !*q })
        .collect();
    g.and_many(hit)
}

fn build(design: &Design) -> Aig {
    let mut g = Aig::new();
    match design {
        Design::Counter { bits, bad_at } => {
            let qs = build_counter(&mut g, *bits);
            let bad = state_match(&mut g, &qs, bad_at & ((1 << bits) - 1));
            g.add_bad("count_hit", bad);
        }
        Design::ShiftXor { bits, taps, bad_mask } => {
            let bits = *bits as usize;
            let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("s{i}"), i == 0)).collect();
            // Feedback: xor of the tapped stages (always include the
            // last stage so every latch matters).
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
            let _ = build_counter(&mut g, *bits);
            let (l, s) = g.latch("stuck", false);
            g.set_next(l, s);
            g.add_bad("never", s);
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any small design and window split, the partitioned engine
    /// reports the monolithic engine's outcome (falsification depth
    /// included) and completed-round count: rounds are globally
    /// synchronous, so splitting the state space into windows changes
    /// how each round is computed, never what it reaches.
    #[test]
    fn pobdd_matches_bdd_umc_on_random_designs(
        design in design_strategy(),
        window_vars in 1u32..4,
    ) {
        let aig = build(&design);
        let mut mono = CheckStats::default();
        let want = bdd_umc(&aig, 1 << 20, 200, &mut mono);
        prop_assert!(
            !matches!(want, BddEngineOutcome::ResourceOut),
            "generated designs must conclude under the generous budget: {design:?}"
        );
        let mut part = CheckStats::default();
        let got = pobdd_reach(&aig, window_vars, 1 << 20, 200, &mut part);
        prop_assert_eq!(&want, &got, "outcome diverged for {:?}", &design);
        prop_assert_eq!(
            mono.iterations, part.iterations,
            "iteration count diverged for {:?}", &design
        );
    }
}
