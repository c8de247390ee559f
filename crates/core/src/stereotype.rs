//! The three stereotype properties (paper §3, Figures 2–4) plus the
//! "other" (P3) legal-state properties — generated as PSL source text
//! from a module's checkpoint inventory, then parsed and compiled with
//! the ordinary `veridic-psl` pipeline. Designers never write PSL by
//! hand; that is the productivity claim of the methodology.

use crate::checkpoint::Inventory;
use crate::verifiable::{VerifiableModule, EC_PORT, ED_PORT};
use std::fmt::Write as _;
use veridic_chipgen::PropertyType;
use veridic_psl::{compile_vunit, parse_psl, CompiledVUnit, PslCompileError, PslParseError, VUnit};

/// A generated vunit with its classification.
#[derive(Clone, Debug)]
pub struct GeneratedVUnit {
    /// The property type every directive in this vunit belongs to.
    pub ptype: PropertyType,
    /// PSL source text.
    pub source: String,
    /// Parsed form.
    pub unit: VUnit,
}

/// Generation + compilation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StereotypeError {
    /// The generated text failed to parse (generator bug).
    Parse(PslParseError),
    /// The parsed vunit failed to compile against the module.
    Compile(PslCompileError),
}

impl std::fmt::Display for StereotypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StereotypeError::Parse(e) => write!(f, "{e}"),
            StereotypeError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StereotypeError {}

impl From<PslParseError> for StereotypeError {
    fn from(e: PslParseError) -> Self {
        StereotypeError::Parse(e)
    }
}

impl From<PslCompileError> for StereotypeError {
    fn from(e: PslCompileError) -> Self {
        StereotypeError::Compile(e)
    }
}

fn he_ref(inv: &Inventory, bit: u32) -> String {
    if inv.he_width == 1 {
        "HE".to_string()
    } else {
        format!("HE[{bit}]")
    }
}

fn ec_ref(n: usize, i: usize) -> String {
    if n == 1 {
        EC_PORT.to_string()
    } else {
        format!("{EC_PORT}[{i}]")
    }
}

fn ed_parity_ref(ed_width: u32, w: u32) -> String {
    if w == ed_width {
        format!("^{ED_PORT}")
    } else {
        format!("^{ED_PORT}[{}:0]", w - 1)
    }
}

/// Generates the error-detection-ability vunit (Figure 2): one `pCheck1`
/// per injectable entity and one `pCheck2` per parity-protected input
/// group.
pub fn edetect_vunit(vm: &VerifiableModule) -> String {
    let inv = &vm.inventory;
    let n = inv.entities.len();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "vunit {}_edetect ({}) {{ // check error detection ability",
        inv.module, inv.module
    );
    for (i, ent) in inv.entities.iter().enumerate() {
        let _ = writeln!(
            s,
            "    property pCheck1_{i} = always (({} & ~({})) -> next {});",
            ec_ref(n, i),
            ed_parity_ref(vm.ed_width, ent.width),
            he_ref(inv, ent.he_bit),
        );
        let _ = writeln!(
            s,
            "    assert   pCheck1_{i}; // {} should be odd parity",
            ent.name
        );
    }
    for (g, group) in inv.input_groups.iter().enumerate() {
        match &group.guard {
            None => {
                let _ = writeln!(
                    s,
                    "    property pCheck2_{g} = always ( ~(^{}) -> next {});",
                    group.name,
                    he_ref(inv, group.he_bit),
                );
            }
            Some(guard) => {
                // Validity-guarded group (macro warm-up contract).
                let _ = writeln!(
                    s,
                    "    property pCheck2_{g} = always (({guard} & ~(^{})) -> next {});",
                    group.name,
                    he_ref(inv, group.he_bit),
                );
            }
        }
        let _ = writeln!(
            s,
            "    assert   pCheck2_{g}; // {} should be odd parity",
            group.name
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// Generates the soundness vunit (Figure 3): assuming clean inputs and no
/// injection, `HE` never fires (one assertion per HE bit).
pub fn soundness_vunit(vm: &VerifiableModule) -> String {
    let inv = &vm.inventory;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "vunit {}_soundness ({}) {{ // soundness check",
        inv.module, inv.module
    );
    write_assumptions(&mut s, vm);
    for j in 0..inv.he_width {
        let _ = writeln!(
            s,
            "    property pNoError_{j} = never ( {} );",
            he_ref(inv, j)
        );
        let _ = writeln!(s, "    assert   pNoError_{j}; // then no error is reported");
    }
    let _ = writeln!(s, "}}");
    s
}

/// Generates the output-data-integrity vunit (Figure 4): assuming clean
/// inputs and no injection, every output group keeps odd parity.
pub fn integrity_vunit(vm: &VerifiableModule) -> String {
    let inv = &vm.inventory;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "vunit {}_integrity ({}) {{ // integrity check",
        inv.module, inv.module
    );
    write_assumptions(&mut s, vm);
    for (j, group) in inv.output_groups.iter().enumerate() {
        let _ = writeln!(
            s,
            "    property pIntegrityO_{j} = always ( ^{} );",
            group.name
        );
        let _ = writeln!(
            s,
            "    assert   pIntegrityO_{j}; // then integrity of {} holds",
            group.name
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// Generates the "other properties" (P3) vunit: legal-state checks for
/// FSMs with a declared legal range. Returns `None` when the module has
/// no P3 checkpoints.
pub fn other_vunit(vm: &VerifiableModule) -> Option<String> {
    let inv = &vm.inventory;
    let legal: Vec<_> = inv
        .entities
        .iter()
        .filter(|e| e.legal_max.is_some())
        .collect();
    if legal.is_empty() {
        return None;
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "vunit {}_other ({}) {{ // legal state checks",
        inv.module, inv.module
    );
    let _ = writeln!(
        s,
        "    property pNoErrInjection = always ( ~(|{EC_PORT}) );"
    );
    let _ = writeln!(s, "    assume   pNoErrInjection;");
    for (k, ent) in legal.iter().enumerate() {
        let max = ent.legal_max.expect("filtered on legal_max"); // lint: allow
        let data_w = ent.width - 1;
        // Illegal values: max+1 ..= 2^data_w - 1, enumerated as equality
        // disjuncts (the boolean layer has no magnitude comparison).
        let mut disjuncts = Vec::new();
        for v in (max + 1)..(1 << data_w) {
            disjuncts.push(format!(
                "({}[{}:0] == {}'b{:0width$b})",
                ent.name,
                data_w - 1,
                data_w,
                v,
                width = data_w as usize
            ));
        }
        let body = disjuncts.join(" | ");
        let _ = writeln!(s, "    property pLegal_{k} = never ( {body} );");
        let _ = writeln!(
            s,
            "    assert   pLegal_{k}; // {} stays in 0..={max}",
            ent.name
        );
    }
    let _ = writeln!(s, "}}");
    Some(s)
}

fn write_assumptions(s: &mut String, vm: &VerifiableModule) {
    let inv = &vm.inventory;
    for (g, group) in inv.input_groups.iter().enumerate() {
        let _ = writeln!(
            s,
            "    property pIntegrityI_{g} = always ( ^{} );",
            group.name
        );
        let _ = writeln!(
            s,
            "    assume   pIntegrityI_{g}; // assumption for {}",
            group.name
        );
    }
    let _ = writeln!(
        s,
        "    property pNoErrInjection = always ( ~(|{EC_PORT}) );"
    );
    let _ = writeln!(
        s,
        "    assume   pNoErrInjection; // error injection is disabled"
    );
}

/// Generates, parses and compiles all stereotype vunits of a transformed
/// module. Order: P0 (edetect), P1 (soundness), P2 (integrity), P3
/// (other, when present).
///
/// # Errors
///
/// Returns [`StereotypeError`] if generated text fails to parse or
/// compile — both indicate generator bugs, but are surfaced as errors so
/// the flow can report the offending module.
pub fn generate_all(
    vm: &VerifiableModule,
) -> Result<Vec<(GeneratedVUnit, CompiledVUnit)>, StereotypeError> {
    let mut sources = vec![
        (PropertyType::ErrorDetection, edetect_vunit(vm)),
        (PropertyType::Soundness, soundness_vunit(vm)),
        (PropertyType::OutputIntegrity, integrity_vunit(vm)),
    ];
    if let Some(other) = other_vunit(vm) {
        sources.push((PropertyType::Other, other));
    }
    let mut out = Vec::new();
    for (ptype, source) in sources {
        let units = parse_psl(&source)?;
        assert_eq!(units.len(), 1, "one vunit per stereotype");
        let unit = units.into_iter().next().expect("one unit"); // lint: allow
        let compiled = compile_vunit(&unit, &vm.module)?;
        out.push((
            GeneratedVUnit {
                ptype,
                source,
                unit,
            },
            compiled,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifiable::make_verifiable;
    use veridic_chipgen::{build_leaf, build_plans, Scale, SpecialKind};

    fn vm_for(special: SpecialKind) -> VerifiableModule {
        let plan = build_plans(Scale::Small)
            .into_iter()
            .find(|p| p.special == special)
            .unwrap();
        make_verifiable(&build_leaf(&plan, None)).unwrap()
    }

    #[test]
    fn all_vunits_parse_and_compile_for_all_modules() {
        for plan in build_plans(Scale::Small) {
            let vm = make_verifiable(&build_leaf(&plan, None)).unwrap();
            let all = generate_all(&vm).unwrap_or_else(|e| panic!("{}: {e}", plan.name));
            // Census: assertion counts match the plan.
            let count = |t: PropertyType| -> usize {
                all.iter()
                    .filter(|(g, _)| g.ptype == t)
                    .map(|(_, c)| c.asserts.len())
                    .sum()
            };
            assert_eq!(
                count(PropertyType::ErrorDetection),
                plan.p0(),
                "{} P0",
                plan.name
            );
            assert_eq!(
                count(PropertyType::Soundness),
                plan.p1(),
                "{} P1",
                plan.name
            );
            assert_eq!(
                count(PropertyType::OutputIntegrity),
                plan.p2(),
                "{} P2",
                plan.name
            );
            assert_eq!(count(PropertyType::Other), plan.p3, "{} P3", plan.name);
        }
    }

    #[test]
    fn figure2_shape() {
        let vm = vm_for(SpecialKind::Generic);
        let src = edetect_vunit(&vm);
        assert!(src.contains("_edetect ("), "{src}");
        assert!(src.contains("-> next HE"), "{src}");
        assert!(src.contains(&format!("~(^{ED_PORT}",)), "{src}");
        assert!(src.contains("assert   pCheck1_0;"), "{src}");
    }

    #[test]
    fn figure3_shape() {
        let vm = vm_for(SpecialKind::Generic);
        let src = soundness_vunit(&vm);
        assert!(src.contains("_soundness ("), "{src}");
        assert!(src.contains("assume   pIntegrityI_0;"), "{src}");
        assert!(
            src.contains("pNoErrInjection = always ( ~(|I_ERR_INJ_C) );"),
            "{src}"
        );
        assert!(src.contains("never ( HE"), "{src}");
    }

    #[test]
    fn figure4_shape() {
        let vm = vm_for(SpecialKind::Generic);
        let src = integrity_vunit(&vm);
        assert!(src.contains("_integrity ("), "{src}");
        assert!(src.contains("always ( ^O0 )"), "{src}");
    }

    #[test]
    fn macro_guard_appears_in_edetect() {
        let vm = vm_for(SpecialKind::MacroInterface);
        let src = edetect_vunit(&vm);
        assert!(src.contains("warm_done & ~(^MACRO_SIG)"), "{src}");
    }

    #[test]
    fn p3_vunit_enumerates_illegal_states() {
        let plan = build_plans(Scale::Small)
            .into_iter()
            .find(|p| p.p3 > 0)
            .unwrap();
        let vm = make_verifiable(&build_leaf(&plan, None)).unwrap();
        let src = other_vunit(&vm).expect("P3 module yields an other-vunit");
        assert!(src.contains("3'b101"), "{src}");
        assert!(src.contains("3'b110"), "{src}");
        assert!(src.contains("3'b111"), "{src}");
        assert!(src.contains("pLegal_0"), "{src}");
    }
}
