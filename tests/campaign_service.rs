//! Campaign-service contracts at the facade level: the checkpoint
//! codec round-trips arbitrary run state (including BDD exports whose
//! level order diverged from the source manager), every corruption
//! mode fails with a typed error — never a panic or a silent wrong
//! resume — and checking a property in budget slices preserves the
//! default portfolio cascade exactly.

use proptest::prelude::*;

use veridic::bdd::ExportedBdd;
use veridic::campaign::codec::{decode_record, encode_record};
use veridic::campaign::{CheckpointFile, CodecError};
use veridic::mc::{EngineCheckpoint, ReachCheckpoint, RunCheckpoint};
use veridic::prelude::*;

// ---------------------------------------------------------------------
// Generators (the vendored proptest shim: map-based, no flat_map)
// ---------------------------------------------------------------------

/// Folds an unconstrained raw value into a slot reference valid over
/// `limit` earlier slots: a terminal (`0`/`1`) or `((j+1)<<1)|c` for a
/// slot `j < limit`.
fn fold_ref(raw: u32, limit: usize) -> u32 {
    let space = 2 + 2 * u32::try_from(limit).expect("tiny test sizes");
    let v = raw % space;
    if v < 2 {
        v
    } else {
        let (j, c) = ((v - 2) / 2, (v - 2) % 2);
        ((j + 1) << 1) | c
    }
}

type RawNodes = Vec<(u32, u32, u32)>;

/// Raw material for one export: unconstrained node triples,
/// unconstrained roots, and an arbitrary **diverged** level order (not
/// required to be an identity permutation — matching a checkpoint
/// taken from a manager with an adopted variable order).
fn arb_export_parts() -> BoxedStrategy<(RawNodes, Vec<u32>, Vec<u32>)> {
    (
        collection::vec((0u32..64, 0u32..1_000_000, 0u32..1_000_000), 0..10),
        collection::vec(0u32..1_000_000, 0..5),
        collection::vec(0u32..64, 0..12),
    )
        .boxed()
}

fn build_exported(parts: (RawNodes, Vec<u32>, Vec<u32>)) -> ExportedBdd {
    let (raw, roots, order) = parts;
    let nodes: RawNodes = raw
        .iter()
        .enumerate()
        .map(|(k, (var, lo, hi))| (*var, fold_ref(*lo, k), fold_ref(*hi, k)))
        .collect();
    let roots = roots.iter().map(|r| fold_ref(*r, nodes.len())).collect();
    ExportedBdd::from_raw_parts(nodes, roots, order).expect("folded refs are always valid")
}

fn arb_exported() -> BoxedStrategy<ExportedBdd> {
    arb_export_parts().prop_map(build_exported)
}

fn arb_run_checkpoint() -> BoxedStrategy<RunCheckpoint> {
    (
        (0usize..8, 0usize..4, arb_exported(), 0usize..40),
        (
            0usize..50,
            0u32..8,
            collection::vec(collection::vec(97u8..123, 0..8), 0..3),
        ),
    )
        .prop_map(
            |((bad_index, slot, sets, cleared), (depth, window_vars, reasons))| RunCheckpoint {
                bad_index,
                slot,
                state: EngineCheckpoint::Reach(ReachCheckpoint {
                    depth,
                    sets,
                    window_vars,
                }),
                stats: CheckStats::default(),
                reasons: reasons
                    .into_iter()
                    .map(|b| String::from_utf8(b).expect("ascii bytes"))
                    .collect(),
                cleared_depth: cleared.checked_sub(1),
            },
        )
        .boxed()
}

fn file_of(state: RunCheckpoint) -> CheckpointFile {
    CheckpointFile {
        aig_fingerprint: 0x1234,
        options_fingerprint: 0x5678,
        state,
    }
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize ∘ deserialize is the identity on arbitrary run
    /// checkpoints — proved by re-encoding (the encoder is
    /// deterministic, so byte equality is structural equality).
    #[test]
    fn checkpoint_round_trips(ck in arb_run_checkpoint()) {
        let file = file_of(ck);
        let bytes = file.encode();
        let decoded = match CheckpointFile::decode(&bytes, Some((0x1234, 0x5678))) {
            Ok(f) => f,
            Err(e) => return Err(format!("valid checkpoint failed to decode: {e}")),
        };
        prop_assert_eq!(bytes, decoded.encode());
    }

    /// Exported BDDs with diverged level orders survive the trip with
    /// their raw structure intact.
    #[test]
    fn exported_bdd_structure_survives(bdd in arb_exported()) {
        let ck = RunCheckpoint {
            bad_index: 0,
            slot: 2,
            state: EngineCheckpoint::Reach(ReachCheckpoint {
                depth: 1,
                sets: bdd.clone(),
                window_vars: 0,
            }),
            stats: CheckStats::default(),
            reasons: vec![],
            cleared_depth: Some(30),
        };
        let bytes = file_of(ck).encode();
        let decoded = match CheckpointFile::decode(&bytes, None) {
            Ok(f) => f,
            Err(e) => return Err(format!("decode failed: {e}")),
        };
        let EngineCheckpoint::Reach(reach) = decoded.state.state else {
            return Err("wrong engine checkpoint".to_string());
        };
        let out = &reach.sets;
        prop_assert_eq!(out.source_order(), bdd.source_order());
        prop_assert_eq!(
            out.raw_roots().collect::<Vec<_>>(),
            bdd.raw_roots().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            out.raw_nodes().collect::<Vec<_>>(),
            bdd.raw_nodes().collect::<Vec<_>>()
        );
    }

    /// Truncating an encoded checkpoint at *any* byte boundary yields a
    /// typed error — never a panic, never a successful decode.
    #[test]
    fn any_truncation_fails_loud(ck in arb_run_checkpoint(), cut_raw in 0usize..100_000) {
        let bytes = file_of(ck).encode();
        let cut = cut_raw % bytes.len();
        prop_assert!(CheckpointFile::decode(&bytes[..cut], None).is_err());
    }

    /// Flipping any single byte is caught (checksum, magic, version or
    /// a downstream structural check) — typed error, never a panic.
    #[test]
    fn any_flipped_byte_fails_loud(
        ck in arb_run_checkpoint(),
        pos_raw in 0usize..100_000,
        flip_raw in 0u32..255,
    ) {
        let mut bytes = file_of(ck).encode();
        let pos = pos_raw % bytes.len();
        #[allow(clippy::cast_possible_truncation)]
        let flip = (flip_raw + 1) as u8;
        bytes[pos] ^= flip;
        prop_assert!(CheckpointFile::decode(&bytes, None).is_err());
    }
}

// ---------------------------------------------------------------------
// Fingerprint binding
// ---------------------------------------------------------------------

#[test]
fn wrong_fingerprints_are_typed_refusals() {
    let ck = RunCheckpoint {
        bad_index: 0,
        slot: 0,
        state: EngineCheckpoint::Bmc { next_depth: 3 },
        stats: CheckStats::default(),
        reasons: vec![],
        cleared_depth: Some(2),
    };
    let bytes = file_of(ck).encode();
    // Same bytes, resumed against a different chip: refused by name.
    match CheckpointFile::decode(&bytes, Some((0xdead, 0x5678))) {
        Err(CodecError::AigFingerprint {
            expected: 0xdead,
            found: 0x1234,
        }) => {}
        other => panic!("expected AigFingerprint error, got {other:?}"),
    }
    // Same chip, different options: the *other* typed error.
    match CheckpointFile::decode(&bytes, Some((0x1234, 0xbeef))) {
        Err(CodecError::OptionsFingerprint {
            expected: 0xbeef,
            found: 0x5678,
        }) => {}
        other => panic!("expected OptionsFingerprint error, got {other:?}"),
    }
    // Unbound inspection still works on the same bytes.
    assert!(CheckpointFile::decode(&bytes, None).is_ok());
}

#[test]
fn journal_records_round_trip_and_reject_damage() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: false,
    });
    let mi = &chip.modules()[0];
    let (props, errors) = veridic::core::flow::module_properties(&chip, mi);
    assert!(errors.is_empty(), "module preparation failed: {errors:?}");
    let prop = &props[0];
    let mut stats = CheckStats::default();
    let verdict = Portfolio::default().check_bad(
        &prop.aig,
        prop.bad_index,
        &CheckOptions::default(),
        &mut stats,
    );
    let record = veridic::core::flow::record_from_result(
        prop,
        veridic::mc::CheckResult { verdict, stats },
        std::time::Duration::from_millis(7),
    );
    let bytes = encode_record(&record);
    let decoded = decode_record(&bytes).expect("healthy record must decode");
    assert_eq!(
        bytes,
        encode_record(&decoded),
        "re-encode must be byte-identical"
    );
    let mut damaged = bytes.clone();
    damaged[bytes.len() / 2] ^= 0x40;
    assert!(
        decode_record(&damaged).is_err(),
        "flipped byte must be caught"
    );
    assert!(
        decode_record(&bytes[..bytes.len() - 3]).is_err(),
        "truncation must be caught"
    );
}

// ---------------------------------------------------------------------
// Default-order preservation under slicing
// ---------------------------------------------------------------------

/// Runs one property through the daemon's slice loop (fixed 1-round
/// slices, suspend/resume at every boundary).
fn run_sliced(prop: &veridic::core::flow::PreparedProperty, opts: &CheckOptions) -> CheckResult {
    let portfolio = Portfolio::default();
    let mut outcome =
        portfolio.check_bad_with_budget(&prop.aig, prop.bad_index, opts, &mut Budget::rounds(1));
    loop {
        match outcome {
            PortfolioOutcome::Done(result) => break result,
            PortfolioOutcome::Suspended(ck) => {
                outcome = portfolio
                    .resume_bad_with_budget(&prop.aig, opts, ck, &mut Budget::rounds(1))
                    .expect("the run's own checkpoint fits");
            }
        }
    }
}

/// The daemon's slice loop drives `Portfolio::default()` through
/// suspend/resume — the verdict and the
/// engine *order* (bmc → induction → bdd-umc → pobdd-umc, by first
/// event) must match a plain uninterrupted check of the same property,
/// and two sliced runs must agree event-for-event (the determinism
/// Table-2 byte equality rests on). Slicing may only add per-slice
/// `Suspended` progress events; it must never reorder the cascade.
#[test]
fn slicing_preserves_the_default_cascade() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let opts = CheckOptions::default();
    let mut compared = 0;
    for mi in chip.modules().iter().take(3) {
        let (props, _) = veridic::core::flow::module_properties(&chip, mi);
        for prop in props.iter().take(2) {
            let mut ref_stats = CheckStats::default();
            let ref_verdict =
                Portfolio::default().check_bad(&prop.aig, prop.bad_index, &opts, &mut ref_stats);
            let sliced = run_sliced(prop, &opts);
            assert_eq!(
                sliced.verdict, ref_verdict,
                "{}/{}",
                prop.module, prop.label
            );
            let cascade = |stats: &CheckStats| {
                let mut engines: Vec<&str> =
                    stats.events.iter().map(|e| e.engine.as_str()).collect();
                engines.dedup();
                engines
            };
            assert_eq!(
                cascade(&sliced.stats),
                cascade(&ref_stats),
                "engine cascade order must be preserved for {}/{}",
                prop.module,
                prop.label
            );
            let again = run_sliced(prop, &opts);
            assert_eq!(again.verdict, sliced.verdict);
            assert_eq!(
                again.stats.events, sliced.stats.events,
                "sliced runs must be deterministic for {}/{}",
                prop.module, prop.label
            );
            compared += 1;
        }
    }
    assert!(compared >= 4, "too few properties compared: {compared}");
}

/// The one property of the service workload whose BDD-UMC run
/// suspends and resumes (`mod_d00` `pIntegrityO_3` of the buggy Small
/// chip), driven through the service's 16-round slices with every
/// checkpoint passed through the on-disk codec before it resumes. The
/// record equals its line in perfbench's `service_records.ndjson`.
#[test]
fn service_bdd_suspension_resumes_through_the_codec() {
    let spec = CampaignSpec {
        with_bugs: true,
        ..Default::default()
    };
    let chip = Chip::generate(&spec.chip_config());
    let module = chip
        .modules()
        .iter()
        .find(|mi| mi.name() == "mod_d00")
        .expect("the Small chip has mod_d00");
    let (props, _) = veridic::core::flow::module_properties(&chip, module);
    let prop = props
        .iter()
        .find(|p| p.label == "pIntegrityO_3")
        .expect("mod_d00 has pIntegrityO_3");
    let portfolio = Portfolio::default();
    let slice = || Budget::rounds(spec.slice_rounds);
    let mut outcome =
        portfolio.check_bad_with_budget(&prop.aig, prop.bad_index, &spec.check, &mut slice());
    let mut bdd_checkpoints = 0;
    let result = loop {
        match outcome {
            PortfolioOutcome::Done(result) => break result,
            PortfolioOutcome::Suspended(state) => {
                if matches!(state.state, EngineCheckpoint::Reach(_)) {
                    bdd_checkpoints += 1;
                }
                let bytes = file_of(state).encode();
                let file = CheckpointFile::decode(&bytes, Some((0x1234, 0x5678)))
                    .expect("a written checkpoint decodes");
                outcome = portfolio
                    .resume_bad_with_budget(&prop.aig, &spec.check, file.state, &mut slice())
                    .expect("the run's own checkpoint fits");
            }
        }
    };
    assert_eq!(bdd_checkpoints, 1, "one BDD-UMC suspension");
    assert_eq!(result.verdict, Verdict::Proved { engine: "bdd-umc" });
    assert_eq!(
        result.stats.engines_tried(),
        [
            "bmc: suspended",
            "bmc: clean to depth 30",
            "induction: suspended",
            "induction: inconclusive",
            "bdd-umc: suspended",
            "bdd-umc: proved",
        ]
        .map(|e| format!("pIntegrityO_3/{e}"))
    );
    let s = &result.stats;
    assert_eq!(
        (s.bdd_allocated, s.bdd_nodes, s.iterations, s.sat_conflicts),
        (14_322, 7_776, 15, 9_759),
        "(bdd_allocated, bdd_nodes, iterations, sat_conflicts)"
    );
}
