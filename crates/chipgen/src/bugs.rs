//! The seven seeded logic bugs of Table 3.
//!
//! Each bug is injected into one specific module of the generated chip;
//! the table below mirrors the paper's classification (which property
//! type finds the bug formally, and whether realistic simulation finds it
//! easily).

use crate::plan::{Category, LeafPlan, SpecialKind};
use std::fmt;

/// Bug identifiers B0..B6, matching Table 3 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugId {
    /// FSM parity not recomputed on a common transition (soundness; easy).
    B0,
    /// Reserved-field CSR write corrupts stored parity (soundness; hard —
    /// spec-compliant tests write zeros to reserved fields).
    B1,
    /// Counter parity wrong on wrap (soundness; easy).
    B2,
    /// Macro-interface checker gated by the macro's VALID pin, whose
    /// simulation model is wrong (error-detection ability; impossible in
    /// simulation).
    B3,
    /// Output mux path drops the parity correction (output integrity;
    /// easy — the path is commonly selected).
    B4,
    /// Address decoder: 1 of 91 decode cases computes parity without one
    /// data bit (output integrity; hard — needs the rare case and a data
    /// pattern).
    B5,
    /// The second bad decode case (output integrity; hard).
    B6,
}

impl BugId {
    /// All bugs in Table 3 order.
    pub const ALL: [BugId; 7] = [
        BugId::B0,
        BugId::B1,
        BugId::B2,
        BugId::B3,
        BugId::B4,
        BugId::B5,
        BugId::B6,
    ];

    /// The property type that detects this bug formally (paper Table 3).
    pub fn property_type(self) -> PropertyType {
        match self {
            BugId::B0 | BugId::B1 | BugId::B2 => PropertyType::Soundness,
            BugId::B3 => PropertyType::ErrorDetection,
            BugId::B4 | BugId::B5 | BugId::B6 => PropertyType::OutputIntegrity,
        }
    }

    /// Paper Table 3: can logic simulation find it easily?
    pub fn easy_in_simulation(self) -> bool {
        matches!(self, BugId::B0 | BugId::B2 | BugId::B4)
    }
}

impl fmt::Display for BugId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The three stereotype property types plus "other" (paper §3 & Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PropertyType {
    /// P0: ability of error detection.
    ErrorDetection,
    /// P1: soundness of internal states.
    Soundness,
    /// P2: output data integrity.
    OutputIntegrity,
    /// P3: other properties (legal-state checks).
    Other,
}

impl fmt::Display for PropertyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PropertyType::ErrorDetection => "Ability of Error Detection",
            PropertyType::Soundness => "Soundness of Internal States",
            PropertyType::OutputIntegrity => "Output Data Integrity",
            PropertyType::Other => "Other Properties",
        };
        write!(f, "{s}")
    }
}

/// Determines which bug (if any) a module hosts in the buggy chip build.
///
/// Placement reproduces Table 2's bug column: category A hosts three
/// (B0 in the first generic module, B1 in the CSR file, B3 in the macro
/// interface), C one (B2, first module), D one (B4, first module) and E
/// two (B5+B6 — the paper found two independent decoder cases; we build
/// the decoder with both bad cases active via [`BugId::B5`] placement and
/// count both, see `crate::Chip::bugs`).
pub fn bug_for_module(plan: &LeafPlan, index_in_category: usize) -> Option<BugId> {
    match (plan.category, plan.special, index_in_category) {
        (Category::A, SpecialKind::Generic, 0) => Some(BugId::B0),
        (Category::A, SpecialKind::CsrFile, _) => Some(BugId::B1),
        (Category::A, SpecialKind::MacroInterface, _) => Some(BugId::B3),
        (Category::C, SpecialKind::Generic, 0) => Some(BugId::B2),
        (Category::D, SpecialKind::Generic, 0) => Some(BugId::B4),
        // The decoder hosts both B5 and B6; build_leaf handles them as two
        // independent bad cases when given either id (see chip assembly).
        (Category::E, SpecialKind::AddressDecoder, _) => Some(BugId::B5),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plans, Scale};

    #[test]
    fn table3_classification() {
        assert_eq!(BugId::B0.property_type(), PropertyType::Soundness);
        assert_eq!(BugId::B3.property_type(), PropertyType::ErrorDetection);
        assert_eq!(BugId::B5.property_type(), PropertyType::OutputIntegrity);
        let easy: Vec<BugId> = BugId::ALL
            .iter()
            .copied()
            .filter(|b| b.easy_in_simulation())
            .collect();
        assert_eq!(easy, vec![BugId::B0, BugId::B2, BugId::B4]);
    }

    #[test]
    fn bug_placement_matches_table2_census() {
        // Full scale: A=3 bugs, B=0, C=1, D=1, E=2 (B5+B6 in the decoder).
        let plans = build_plans(Scale::Full);
        let mut per_cat: std::collections::BTreeMap<Category, usize> = Default::default();
        let mut cat_index: std::collections::BTreeMap<Category, usize> = Default::default();
        for p in &plans {
            let i = *cat_index.entry(p.category).or_insert(0);
            if let Some(bug) = bug_for_module(p, i) {
                let n = if bug == BugId::B5 { 2 } else { 1 }; // decoder hosts B5+B6
                *per_cat.entry(p.category).or_insert(0) += n;
            }
            *cat_index.get_mut(&p.category).unwrap() += 1;
        }
        assert_eq!(per_cat.get(&Category::A), Some(&3));
        assert_eq!(per_cat.get(&Category::B), None);
        assert_eq!(per_cat.get(&Category::C), Some(&1));
        assert_eq!(per_cat.get(&Category::D), Some(&1));
        assert_eq!(per_cat.get(&Category::E), Some(&2));
    }
}
