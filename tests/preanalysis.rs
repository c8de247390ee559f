//! The static pre-analysis contract through the public facade:
//!
//! * **Neutrality** — `preanalysis` on vs off produces the same verdict
//!   kind, the same falsification depth and bad index, and the same
//!   iteration counts, for every engine selection in the portfolio
//!   (full cascade, BDD-only, SAT-only), on random chipgen properties
//!   and on random small sequential designs. When the sweep finds
//!   nothing to fold the stage is an *identity pass*: every statistic
//!   is byte-identical.
//! * **Vacuity short-circuit** — a statically-constant bad concludes
//!   with zero engine invocations: one `preanalysis` event, zero
//!   rounds, and the vacuous/folded counts surfaced in `CheckStats`.
//! * **Campaign equivalence** — the full small-chip campaign renders
//!   and records identically with the stage on or off.

use proptest::prelude::*;
use veridic::prelude::*;

/// On-vs-off comparison on one AIG under one engine selection.
///
/// Verdict kind, counterexample depth and bad index must always agree.
/// When the sweep found no stuck latches the fold is skipped entirely
/// and the run must be byte-identical (modulo the preanalysis counter
/// block itself); when something folded, the substitution is exact on
/// every reachable behaviour, so depths and reachability iteration
/// counts still must not move.
fn assert_preanalysis_neutral(aig: &Aig, base: &CheckOptions, what: &str) {
    let on = Portfolio::default().check(
        aig,
        &CheckOptions {
            preanalysis: true,
            ..base.clone()
        },
    );
    let off = Portfolio::default().check(
        aig,
        &CheckOptions {
            preanalysis: false,
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
        // A static conclusion may beat an engine that ran out of budget:
        // the constraint-aware sweep proves assumption-implied goals the
        // engines would need real work to settle.
        (Verdict::Proved { .. }, Verdict::ResourceOut { .. })
            if on.stats.preanalysis.vacuous > 0 => {}
        (a, b) => panic!("preanalysis changed the verdict on {what}: on={a:?} vs off={b:?}"),
    }
    if on.stats.preanalysis.vacuous == 0 {
        // The stage did not conclude statically, so the engines ran on
        // both sides and their fixpoint rounds must agree. (When the
        // constraint-aware sweep *does* conclude — assumption-implied
        // goals, contradictory constraints — the on side runs zero
        // engine rounds by design and the counts are incomparable.)
        assert_eq!(
            on.stats.iterations, off.stats.iterations,
            "preanalysis changed the reachability round count on {what}"
        );
    }
    if on.stats.preanalysis.stuck_latches == 0 && on.stats.preanalysis.vacuous == 0 {
        // Nothing folded, nothing concluded statically: identity pass.
        let mut scrubbed = on.stats.clone();
        scrubbed.preanalysis = PreanalysisStats::default();
        assert_eq!(
            on.verdict, off.verdict,
            "identity pass changed the verdict on {what}"
        );
        assert_eq!(
            scrubbed, off.stats,
            "identity pass changed the stats on {what}"
        );
        assert_eq!(
            scrubbed.engines_tried(),
            off.stats.engines_tried(),
            "identity pass changed the event log on {what}"
        );
    }
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

/// A small counter whose bad state may be entangled with a stuck
/// latch, so some instances exercise the fold path and some the
/// identity path.
fn counter_design(bits: u32, bad_at: u64, with_stuck: bool) -> Aig {
    let mut g = Aig::new();
    let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
    let mut carry = veridic::aig::Lit::TRUE;
    for (id, q) in &qs {
        let next = g.xor(*q, carry);
        carry = g.and(*q, carry);
        g.set_next(*id, next);
    }
    let hit: Vec<_> = (0..bits)
        .map(|i| {
            let q = qs[i as usize].1;
            if bad_at >> i & 1 == 1 {
                q
            } else {
                !q
            }
        })
        .collect();
    let mut bad = g.and_many(hit);
    if with_stuck {
        // A hold latch stuck at its init value of 1: the fold rewrites
        // the bad cone but must not change when the counter hits.
        let (l, s) = g.latch("stuck_hi", true);
        g.set_next(l, s);
        bad = g.and(bad, s);
    }
    g.add_bad("count_hit", bad);
    g
}

proptest! {
    // Each case runs the property twice (on/off) under full default
    // budgets — fewer cases than the sibling equivalence suite keeps
    // the doubled work inside the same wall-clock envelope.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Neutrality on the real workload shape, across every engine
    /// selection the portfolio offers.
    #[test]
    fn preanalysis_is_neutral_on_chipgen_properties(
        module_idx in 0usize..32,
        bug_coin in 0u32..2,
        vunit_idx in 0usize..4,
        mode in 0u32..3,
    ) {
        let (aig, what) = chipgen_property(module_idx, bug_coin == 1, vunit_idx);
        let base = match mode {
            0 => CheckOptions::default(),
            1 => CheckOptions::builder().bdd_only(true).build(),
            _ => CheckOptions::builder().sat_only(true).build(),
        };
        assert_preanalysis_neutral(&aig, &base, &format!("{what} mode={mode}"));
    }

    /// Neutrality where the fold actually fires: counters entangled
    /// with a stuck-at-init hold latch. Both falsified and proved
    /// instances appear (bad_at within or beyond the counter range).
    #[test]
    fn preanalysis_is_neutral_when_folding(
        bits in 2u32..5,
        bad_at in 0u64..32,
        stuck_coin in 0u32..2,
        mode in 0u32..3,
    ) {
        let with_stuck = stuck_coin == 1;
        let aig = counter_design(bits, bad_at, with_stuck);
        let base = match mode {
            0 => CheckOptions::default(),
            1 => CheckOptions::builder().bdd_only(true).build(),
            _ => CheckOptions::builder().sat_only(true).build(),
        };
        let on = Portfolio::default().check(
            &aig,
            &CheckOptions { preanalysis: true, ..base.clone() },
        );
        if with_stuck {
            prop_assert_eq!(
                on.stats.preanalysis.stuck_latches, 1,
                "the stuck hold latch must be found"
            );
        }
        assert_preanalysis_neutral(
            &aig,
            &base,
            &format!("counter bits={bits} bad_at={bad_at} stuck={with_stuck} mode={mode}"),
        );
    }
}

/// A toggling counter whose bad is gated by a constrained input: the
/// constraint forces `en` high, so with `gate_blocked` the bad carries
/// a `!en` factor and is vacuous *only* under the constraint — the
/// plain ternary sweep cannot see it, the constraint-aware one must.
fn constrained_counter(bits: u32, bad_at: u64, gate_blocked: bool) -> Aig {
    let mut g = Aig::new();
    let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
    let mut carry = veridic::aig::Lit::TRUE;
    for (id, q) in &qs {
        let next = g.xor(*q, carry);
        carry = g.and(*q, carry);
        g.set_next(*id, next);
    }
    let hit: Vec<_> = (0..bits)
        .map(|i| {
            let q = qs[i as usize].1;
            if bad_at >> i & 1 == 1 {
                q
            } else {
                !q
            }
        })
        .collect();
    let hit = g.and_many(hit);
    let en = g.input("en");
    g.add_constraint("en_high", en);
    let bad = if gate_blocked {
        g.and(hit, !en)
    } else {
        g.and(hit, en)
    };
    g.add_bad("gated_hit", bad);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The constraint-aware sweep on gated counters. When the gate is
    /// blocked by the forced literal the stage concludes vacuously and
    /// the engines must agree the property never falsifies; when the
    /// gate is open the sweep concludes nothing and the full identity-
    /// pass neutrality contract applies.
    #[test]
    fn constrained_sweep_is_sound_and_otherwise_neutral(
        bits in 2u32..5,
        bad_at in 0u64..32,
        gate_coin in 0u32..2,
        mode in 0u32..3,
    ) {
        let blocked = gate_coin == 1;
        let aig = constrained_counter(bits, bad_at, blocked);
        let base = match mode {
            0 => CheckOptions::default(),
            1 => CheckOptions::builder().bdd_only(true).build(),
            _ => CheckOptions::builder().sat_only(true).build(),
        };
        if blocked {
            let on = Portfolio::default()
                .check(&aig, &CheckOptions { preanalysis: true, ..base.clone() });
            prop_assert!(on.verdict.is_proved(), "{:?}", on.verdict);
            prop_assert_eq!(on.stats.preanalysis.vacuous, 1, "constrained vacuity missed");
            prop_assert_eq!(on.stats.iterations, 0, "no engine may run");
            // The engines agree with the static conclusion: under the
            // constraint the gated bad can never fire.
            let off = Portfolio::default()
                .check(&aig, &CheckOptions { preanalysis: false, ..base });
            prop_assert!(
                !off.verdict.is_falsified(),
                "engines falsified a constraint-vacuous bad: {:?}", off.verdict
            );
        } else {
            assert_preanalysis_neutral(
                &aig,
                &base,
                &format!("constrained counter bits={bits} bad_at={bad_at} mode={mode}"),
            );
        }
    }
}

/// Contradictory constraints: no constrained path exists at all, so
/// every property over the design is vacuous — concluded statically,
/// with zero engine invocations.
#[test]
fn contradictory_constraints_conclude_vacuously() {
    let mut g = Aig::new();
    let a = g.input("a");
    g.add_constraint("a_high", a);
    g.add_constraint("a_low", !a);
    let (l, q) = g.latch("t", false);
    g.set_next(l, !q);
    g.add_bad("toggles", q);

    let result = check(&g, &CheckOptions::default());
    assert!(result.verdict.is_proved(), "{:?}", result.verdict);
    assert_eq!(result.stats.preanalysis.vacuous, 1);
    assert_eq!(result.stats.events.len(), 1, "no engine may log an event");
    assert_eq!(result.stats.events[0].engine, EngineId::Custom(PREANALYSIS));
    assert_eq!(result.stats.iterations, 0);
}

/// The vacuity short-circuit end-to-end: a bad that is statically
/// false concludes through the facade with **zero** engine
/// invocations — the event log holds exactly one `preanalysis` entry
/// with zero rounds, and the stats carry the vacuous verdict and the
/// folded-latch count.
#[test]
fn vacuous_bad_concludes_with_zero_engine_invocations() {
    let mut g = Aig::new();
    // stuck-at-0 latch AND a free input: statically false bad.
    let (l, s) = g.latch("stuck_lo", false);
    g.set_next(l, s);
    let a = g.input("a");
    let bad = g.and(s, a);
    g.add_bad("never", bad);

    let result = check(&g, &CheckOptions::default());
    // The multi-bad driver aggregates proofs as "portfolio"; the
    // per-bad event log attributes this one to the preanalysis stage.
    assert!(result.verdict.is_proved(), "{:?}", result.verdict);
    assert_eq!(result.stats.events.len(), 1, "no engine may log an event");
    let event = &result.stats.events[0];
    assert_eq!(event.engine, EngineId::Custom(PREANALYSIS));
    assert_eq!(event.resources.rounds, 0, "zero engine rounds");
    assert_eq!(event.resources.sat_conflicts, 0);
    assert_eq!(event.resources.bdd_allocated, 0);
    assert_eq!(
        result.stats.engines_tried(),
        vec!["never/preanalysis: proved"]
    );
    assert_eq!(result.stats.preanalysis.vacuous, 1);
    assert_eq!(result.stats.preanalysis.stuck_latches, 1);
    assert_eq!(result.stats.preanalysis.bads_analyzed, 1);
    // And no engine resources were spent at all.
    assert_eq!(result.stats.sat_conflicts, 0);
    assert_eq!(result.stats.bdd_allocated, 0);
    assert_eq!(result.stats.iterations, 0);
}

/// The trivially-falsified twin: a statically-true bad yields a
/// depth-0 counterexample that replays, again with zero engine work.
#[test]
fn trivially_true_bad_falsifies_at_depth_zero_without_engines() {
    let mut g = Aig::new();
    let (l, s) = g.latch("stuck_hi", true);
    g.set_next(l, s);
    let _ = g.input("a");
    g.add_bad("always", s);

    let result = check(&g, &CheckOptions::default());
    let trace = match &result.verdict {
        Verdict::Falsified(t) => t,
        other => panic!("expected a static falsification, got {other:?}"),
    };
    assert_eq!(trace.len(), 1, "depth-0 counterexample");
    assert!(
        trace.replays_on(&g),
        "the static counterexample must replay"
    );
    assert_eq!(result.stats.events.len(), 1);
    assert_eq!(
        result.stats.engines_tried(),
        vec!["always/preanalysis: bad at depth 0"]
    );
    assert_eq!(result.stats.preanalysis.vacuous, 1);
}

/// Campaign-level equivalence on the buggy small chip: with the stage
/// on (default) or off, every record's verdict and statistics — and
/// the rendered Table 2 — are byte-identical, and the report-level
/// aggregates see no vacuous properties (chipgen never generates
/// them).
#[test]
fn campaign_is_byte_identical_with_preanalysis_on_or_off() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let on_opts = CheckOptions {
        preanalysis: true,
        ..CheckOptions::tiny_budget()
    };
    let off_opts = CheckOptions {
        preanalysis: false,
        ..CheckOptions::tiny_budget()
    };
    let on = run_campaign(
        &chip,
        &CampaignConfig {
            check: on_opts,
            workers: 0,
        },
    );
    let off = run_campaign(
        &chip,
        &CampaignConfig {
            check: off_opts,
            workers: 0,
        },
    );

    assert_eq!(on.errors, off.errors);
    assert_eq!(on.records.len(), off.records.len());
    let mut statically_settled = 0usize;
    for (a, b) in on.records.iter().zip(&off.records) {
        let what = format!("{}/{}", a.module, a.label);
        if a.stats.preanalysis.vacuous > 0 {
            // The constraint-aware sweep settled this property without
            // the engines (assumption-implied goal): the verdict kind
            // must still agree — the engines may never contradict a
            // static proof — but engine attribution and work stats are
            // incomparable by construction.
            statically_settled += 1;
            assert!(
                a.verdict.is_proved(),
                "static conclusion not a proof at {what}"
            );
            assert!(
                !b.verdict.is_falsified(),
                "engines falsified a statically-vacuous property at {what}"
            );
            continue;
        }
        assert_eq!(a.verdict, b.verdict, "verdict diverged at {what}");
        let mut scrubbed = a.stats.clone();
        scrubbed.preanalysis = PreanalysisStats::default();
        assert_eq!(scrubbed, b.stats, "stats diverged at {what}");
    }
    // Chipgen's stereotype generators do emit assumption-implied goals
    // (the constraint cone forces the asserted literal), so the
    // constraint-aware sweep must settle at least one property — and
    // the report-level aggregate must agree with the per-record count.
    assert!(
        statically_settled > 0,
        "constraint-aware vacuity never fired on the chip"
    );
    assert_eq!(on.vacuous_count(), statically_settled);
    let totals = on.preanalysis_totals();
    assert_eq!(totals.bads_analyzed, on.records.len(), "every cone swept");
}
