//! The portfolio safety net: `Portfolio::default()` must be
//! deterministic run-to-run, and its SAT-only and BDD-only halves must
//! agree with the full cascade on every verdict and counterexample
//! depth. (The byte-for-byte diff against the pre-redesign
//! cascade retired with `veridic::mc::legacy` after PR 6 — the
//! properties it pinned live on here as self-consistency contracts.)
//!
//! Three layers:
//! * a proptest over random small sequential designs,
//! * proptest-drawn random chipgen leaf-module properties (the real
//!   workload shape: stereotype vunits, assumes, multi-bad AIGs),
//!   checked on two threads,
//! * the full small-chip campaign, record by record, Table-2 rendering
//!   included.

use proptest::prelude::*;
use proptest::TestRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use veridic::prelude::*;

/// Self-consistency on one AIG:
/// * repeat runs are identical down to every statistic,
/// * the SAT-only and BDD-only halves agree with the full cascade on
///   verdict and counterexample depth (a half may resource out —
///   fewer engines — but may not conclude differently).
fn assert_self_consistent(aig: &Aig, opts: &CheckOptions, what: &str) {
    let first = Portfolio::default().check(aig, opts);
    let again = Portfolio::default().check(aig, opts);
    assert_eq!(
        first.verdict, again.verdict,
        "verdict drifted between runs on {what}"
    );
    assert_eq!(
        first.stats, again.stats,
        "stats drifted between runs on {what}"
    );
    assert_eq!(
        first.stats.engines_tried(),
        again.stats.engines_tried(),
        "engine-log rendering drifted on {what}"
    );

    if !(opts.bdd_only || opts.sat_only) {
        for restricted in [
            CheckOptions {
                bdd_only: true,
                ..opts.clone()
            },
            CheckOptions {
                sat_only: true,
                ..opts.clone()
            },
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
        Design::ShiftXor {
            bits,
            taps,
            bad_mask,
        } => {
            let bits = *bits as usize;
            let qs: Vec<_> = (0..bits)
                .map(|i| g.latch(format!("s{i}"), i == 0))
                .collect();
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
        (3u32..6, 0u64..32, 0u64..64).prop_map(|(bits, taps, bad_mask)| Design::ShiftXor {
            bits,
            taps,
            bad_mask
        }),
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
}

/// The same contract on the real workload shape: a random chipgen leaf
/// module (from the clean or the bug-seeded chip), one of its
/// stereotype vunits, every assert of that vunit.
///
/// The 32 cases are the ones `proptest!` draws for this test name,
/// checked on two threads. Four of them dominate: under the natural
/// variable order the BDD-only half of `mod_e03`'s first vunit runs
/// into the node quota after one to two minutes (three draws, about
/// 2 GB of BDD tables), and that of `mod_e02`'s first vunit, the last
/// draw, proves its eight asserts in about five minutes (about 1 GB).
/// One after another they took more than eleven minutes. The threads
/// take the cases from the back, so the `mod_e02` case runs next to
/// all the others instead of after them, and at most two of the heavy
/// cases are in memory at once.
#[test]
fn portfolio_is_self_consistent_on_chipgen_properties() {
    const NAME: &str = "portfolio_is_self_consistent_on_chipgen_properties";
    let strategy = (0usize..32, 0u32..2, 0usize..4);
    let mut cases: Vec<_> = (0..32)
        .map(|case| strategy.new_value(&mut TestRng::for_case(NAME, case)))
        .collect();
    cases.reverse();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(&(module_idx, bug_coin, vunit_idx)) =
                    cases.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    assert_chipgen_case_self_consistent(module_idx, bug_coin == 1, vunit_idx);
                }
            });
        }
    });
}

fn assert_chipgen_case_self_consistent(module_idx: usize, with_bugs: bool, vunit_idx: usize) {
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
    assert_self_consistent(
        &aig,
        &CheckOptions::default(),
        &format!("{}:{} with_bugs={with_bugs}", mi.name(), vunit_idx),
    );
}

// ---------------------------------------------------------------------
// The full campaign.
// ---------------------------------------------------------------------

/// FNV-1a (64-bit) over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The campaign over the full (buggy) small chip is deterministic
/// record-for-record — verdicts, stats, engine-log rendering and the
/// rendered Table 2.
///
/// It also pins the search itself at campaign scale: the SAT solver
/// and the BDD engines must keep every conflict and allocation count
/// (the sums of perfbench's `records.ndjson`), and each record's
/// conflict count and engine log (the digest), so a speed-up that
/// changes the search fails here and not only in the benchmark.
#[test]
fn full_campaign_is_deterministic() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let opts = CheckOptions::default();
    let report = run_campaign(
        &chip,
        &CampaignConfig {
            check: opts.clone(),
            workers: 0,
        },
    );
    let replay = run_campaign(
        &chip,
        &CampaignConfig {
            check: opts,
            workers: 0,
        },
    );

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

    let conflicts: u64 = report.records.iter().map(|r| r.stats.sat_conflicts).sum();
    let allocated: u64 = report.records.iter().map(|r| r.stats.bdd_allocated).sum();
    let digest = report.records.iter().fold(FNV_OFFSET, |h, r| {
        let line = format!(
            "{}/{} {} {}\n",
            r.module,
            r.label,
            r.stats.sat_conflicts,
            r.stats.engines_tried().join("; ")
        );
        fnv1a(h, line.as_bytes())
    });
    assert_eq!(
        (report.records.len(), conflicts, allocated, digest),
        (158, 179_773, 15_561, 0x1710_19dd_dbe7_cc3b),
        "the search moved: (records, Σ sat_conflicts, Σ bdd_allocated, digest)"
    );
}

/// The campaign service's slice loop (16-round slices, every
/// suspension resumed from its checkpoint) re-encodes earlier BMC
/// frames into a fresh solver on each resume, so its conflict counts
/// differ from a whole run's. This pins them on `mod_a00`: the sum is
/// that module's share of perfbench's `service_records.ndjson`.
#[test]
fn sliced_module_conflicts_are_pinned() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let opts = CheckOptions::default();
    let module = chip
        .modules()
        .iter()
        .find(|mi| mi.name() == "mod_a00")
        .expect("the Small chip has mod_a00");
    let (props, _) = veridic::core::flow::module_properties(&chip, module);
    let portfolio = Portfolio::default();
    let slice = || Budget::rounds(16);
    let mut conflicts = 0;
    for prop in &props {
        let mut outcome =
            portfolio.check_bad_with_budget(&prop.aig, prop.bad_index, &opts, &mut slice());
        let result = loop {
            match outcome {
                PortfolioOutcome::Done(result) => break result,
                PortfolioOutcome::Suspended(ck) => {
                    outcome = portfolio
                        .resume_bad_with_budget(&prop.aig, &opts, ck, &mut slice())
                        .expect("the run's own checkpoint fits");
                }
            }
        };
        conflicts += result.stats.sat_conflicts;
    }
    assert_eq!(
        (props.len(), conflicts),
        (15, 7_319),
        "(properties, Σ sat_conflicts)"
    );
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
    let hit: Vec<_> = (0..6)
        .map(|i| if 44 >> i & 1 == 1 { qs[i].1 } else { !qs[i].1 })
        .collect();
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
    let opts = CheckOptions::builder()
        .bdd_only(true)
        .pobdd_window_vars(0)
        .build();
    let portfolio = Portfolio::default();
    let uninterrupted = portfolio.check(&g, &opts);

    let checkpoint = match portfolio.check_bad_with_budget(&g, 0, &opts, &mut Budget::rounds(15)) {
        PortfolioOutcome::Suspended(ck) => ck,
        PortfolioOutcome::Done(r) => panic!("15 rounds cannot reach depth 44: {:?}", r.verdict),
    };
    let resumed =
        match portfolio.resume_bad_with_budget(&g, &opts, checkpoint, &mut Budget::unlimited()) {
            Ok(PortfolioOutcome::Done(r)) => r,
            Ok(PortfolioOutcome::Suspended(_)) => panic!("unbudgeted resume concludes"),
            Err(misfit) => panic!("checkpoint refused: {misfit}"),
        };
    assert_eq!(resumed.verdict, uninterrupted.verdict);
    match (&resumed.verdict, &uninterrupted.verdict) {
        (Verdict::Falsified(a), Verdict::Falsified(b)) => assert_eq!(a.len(), b.len()),
        other => panic!("expected falsifications, got {other:?}"),
    }
    assert_eq!(resumed.stats.iterations, uninterrupted.stats.iterations);
}

// ---------------------------------------------------------------------
// An induction proof stands on the base case BMC cleared.
// ---------------------------------------------------------------------

/// `mod_a00` `pIntegrityO_2` of the buggy Small chip, which the default
/// cascade falsifies with a 2-cycle trace.
fn mod_a00_integrity_o2() -> veridic::core::flow::PreparedProperty {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let module = chip
        .modules()
        .iter()
        .find(|mi| mi.name() == "mod_a00")
        .expect("the Small chip has mod_a00");
    let (props, _) = veridic::core::flow::module_properties(&chip, module);
    props
        .into_iter()
        .find(|p| p.label == "pIntegrityO_2")
        .expect("mod_a00 has pIntegrityO_2")
}

/// Checks `prop` with `portfolio` under `opts`; returns the verdict and
/// the rendered event log.
fn check_logged(
    portfolio: &Portfolio,
    prop: &veridic::core::flow::PreparedProperty,
    opts: &CheckOptions,
) -> (Verdict, Vec<String>) {
    let mut stats = CheckStats::default();
    let verdict = portfolio.check_bad(&prop.aig, prop.bad_index, opts, &mut stats);
    (verdict, stats.engines_tried())
}

/// With BMC cleared only to depth 0, induction may try k = 1 alone: a
/// step case at k needs no bad at depths 0..k from the initial states.
/// It stays inconclusive, and BDD-UMC finds the 2-cycle trace — what
/// the cascade gives with `induction_depth` 1, where no deeper k was
/// ever tried.
#[test]
fn induction_keeps_to_the_depth_bmc_cleared() {
    let prop = mod_a00_integrity_o2();
    let portfolio = Portfolio::default();
    let shallow = CheckOptions::builder().bmc_depth(0).build();
    let (verdict, log) = check_logged(&portfolio, &prop, &shallow);
    match &verdict {
        Verdict::Falsified(t) => assert_eq!(t.len(), 2, "the 2-cycle trace"),
        other => panic!("expected a falsification, got {other:?}"),
    }
    assert_eq!(
        log,
        [
            "bmc: clean to depth 0",
            "induction: inconclusive",
            "bdd-umc: bad reachable at depth 1",
        ]
        .map(|e| format!("pIntegrityO_2/{e}"))
    );
    let one_k = CheckOptions::builder()
        .bmc_depth(0)
        .induction_depth(1)
        .build();
    assert_eq!(check_logged(&portfolio, &prop, &one_k), (verdict, log));
}

/// With no BMC ahead of it, induction has no base case and proves
/// nothing.
#[test]
fn induction_alone_proves_nothing() {
    let prop = mod_a00_integrity_o2();
    let alone = Portfolio::empty().with(Box::new(veridic::mc::InductionEngine));
    let (verdict, log) = check_logged(&alone, &prop, &CheckOptions::default());
    assert!(
        matches!(verdict, Verdict::ResourceOut { .. }),
        "expected resource-out, got {verdict:?}"
    );
    assert_eq!(log, ["pIntegrityO_2/induction: inconclusive"]);
}
