//! Data-integrity checkpoints: the paper's unit of verification scope.
//!
//! A checkpoint is a place where parity protects data: an injectable
//! state *entity* (FSM / counter / datapath register), a parity-protected
//! *input group*, or a parity-protected *output group*. The extractor
//! reads the `checkpoint.*` attributes that design generators (or
//! designers) attach to nets; the stereotype property generator and the
//! Verifiable-RTL transform both work from the resulting [`Inventory`].

use std::error::Error;
use std::fmt;
use veridic_netlist::{Module, NetId};

/// Extraction failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtractError {
    /// Module name.
    pub module: String,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint extraction failed in {}: {}",
            self.module, self.message
        )
    }
}

impl Error for ExtractError {}

/// An injectable state entity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entity {
    /// The register net.
    pub net: NetId,
    /// Net name.
    pub name: String,
    /// Width (including the parity bit).
    pub width: u32,
    /// Declared entity kind (`fsm`, `counter`, `datapath`, ...).
    pub entity_kind: String,
    /// Which HE bit reports this entity's checker.
    pub he_bit: u32,
    /// For legal-state FSMs: the maximum legal data value (P3 property).
    pub legal_max: Option<u64>,
}

/// A parity-protected input group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputGroup {
    /// The port net.
    pub net: NetId,
    /// Port name.
    pub name: String,
    /// Width (including parity).
    pub width: u32,
    /// Which HE bit reports this group's checker.
    pub he_bit: u32,
    /// Optional validity guard net name (macro warm-up contracts).
    pub guard: Option<String>,
}

/// A parity-protected output group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputGroup {
    /// The port net.
    pub net: NetId,
    /// Port name.
    pub name: String,
    /// Width (including parity).
    pub width: u32,
}

/// The complete checkpoint inventory of one leaf module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inventory {
    /// Module name.
    pub module: String,
    /// Injectable entities, ordered by `checkpoint.index`.
    pub entities: Vec<Entity>,
    /// Input groups, ordered by index.
    pub input_groups: Vec<InputGroup>,
    /// Output groups, ordered by index.
    pub output_groups: Vec<OutputGroup>,
    /// The HE report port.
    pub he_net: NetId,
    /// HE width.
    pub he_width: u32,
}

impl Inventory {
    /// Number of P0 (error-detection) properties this inventory yields.
    pub fn p0_count(&self) -> usize {
        self.entities.len() + self.input_groups.len()
    }

    /// Number of P1 (soundness) properties.
    pub fn p1_count(&self) -> usize {
        self.he_width as usize
    }

    /// Number of P2 (output-integrity) properties.
    pub fn p2_count(&self) -> usize {
        self.output_groups.len()
    }

    /// Number of P3 (legal-state) properties.
    pub fn p3_count(&self) -> usize {
        self.entities
            .iter()
            .filter(|e| e.legal_max.is_some())
            .count()
    }

    /// Widest entity (the shared `I_ERR_INJ_D` bus width).
    pub fn max_entity_width(&self) -> u32 {
        self.entities.iter().map(|e| e.width).max().unwrap_or(0)
    }

    /// True if the module has nothing to verify (the paper's exclusion
    /// rule: "a leaf module can be excluded if it has no internal state
    /// and no data paths with parity protection").
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty() && self.input_groups.is_empty() && self.output_groups.is_empty()
    }
}

/// Extracts the checkpoint inventory of a module from its
/// `checkpoint.*` net attributes.
///
/// # Errors
///
/// Returns [`ExtractError`] if indices are malformed, the HE port is
/// missing while checkers exist, or an entity lacks a register.
pub fn extract(m: &Module) -> Result<Inventory, ExtractError> {
    let err = |msg: String| ExtractError {
        module: m.name.clone(),
        message: msg,
    };
    let mut entities = Vec::new();
    let mut input_groups = Vec::new();
    let mut output_groups = Vec::new();
    let mut he = None;
    for (i, net) in m.nets.iter().enumerate() {
        let id = NetId(i as u32);
        let Some(kind) = net.attrs.get("checkpoint.kind") else {
            continue;
        };
        let index = net
            .attrs
            .get("checkpoint.index")
            .map(|s| s.parse::<u32>())
            .transpose()
            .map_err(|e| err(format!("bad checkpoint.index on {}: {e}", net.name)))?;
        let he_bit = net
            .attrs
            .get("checkpoint.he_bit")
            .map(|s| s.parse::<u32>())
            .transpose()
            .map_err(|e| err(format!("bad checkpoint.he_bit on {}: {e}", net.name)))?;
        match kind.as_str() {
            "entity" => {
                if m.reg_for(id).is_none() {
                    return Err(err(format!("entity {} has no register", net.name)));
                }
                let legal_max = net
                    .attrs
                    .get("checkpoint.legal_max")
                    .map(|s| s.parse::<u64>())
                    .transpose()
                    .map_err(|e| err(format!("bad legal_max on {}: {e}", net.name)))?;
                entities.push((
                    index.unwrap_or(entities.len() as u32),
                    Entity {
                        net: id,
                        name: net.name.clone(),
                        width: net.width,
                        entity_kind: net
                            .attrs
                            .get("checkpoint.entity_kind")
                            .cloned()
                            .unwrap_or_else(|| "entity".to_string()),
                        he_bit: he_bit.unwrap_or(0),
                        legal_max,
                    },
                ));
            }
            "input_group" => {
                input_groups.push((
                    index.unwrap_or(input_groups.len() as u32),
                    InputGroup {
                        net: id,
                        name: net.name.clone(),
                        width: net.width,
                        he_bit: he_bit.unwrap_or(0),
                        guard: net.attrs.get("checkpoint.guard").cloned(),
                    },
                ));
            }
            "output_group" => {
                output_groups.push((
                    index.unwrap_or(output_groups.len() as u32),
                    OutputGroup {
                        net: id,
                        name: net.name.clone(),
                        width: net.width,
                    },
                ));
            }
            "he" => he = Some((id, net.width)),
            "control" => {}
            other => {
                return Err(err(format!(
                    "unknown checkpoint.kind '{other}' on {}",
                    net.name
                )))
            }
        }
    }
    entities.sort_by_key(|(i, _)| *i);
    input_groups.sort_by_key(|(i, _)| *i);
    output_groups.sort_by_key(|(i, _)| *i);
    let (he_net, he_width) = he.ok_or_else(|| {
        err("module has checkpoints but no net with checkpoint.kind=he".to_string())
    })?;
    Ok(Inventory {
        module: m.name.clone(),
        entities: entities.into_iter().map(|(_, e)| e).collect(),
        input_groups: input_groups.into_iter().map(|(_, g)| g).collect(),
        output_groups: output_groups.into_iter().map(|(_, g)| g).collect(),
        he_net,
        he_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_chipgen::{build_leaf, build_plans, Scale, SpecialKind};

    #[test]
    fn extraction_matches_plan_counts() {
        for plan in build_plans(Scale::Small) {
            let m = build_leaf(&plan, None);
            let inv = extract(&m).unwrap();
            assert_eq!(inv.p0_count(), plan.p0(), "{} P0", plan.name);
            assert_eq!(inv.p1_count(), plan.p1(), "{} P1", plan.name);
            assert_eq!(inv.p2_count(), plan.p2(), "{} P2", plan.name);
            assert_eq!(inv.p3_count(), plan.p3, "{} P3", plan.name);
        }
    }

    #[test]
    fn macro_group_carries_guard() {
        let plan = build_plans(Scale::Small)
            .into_iter()
            .find(|p| p.special == SpecialKind::MacroInterface)
            .unwrap();
        let m = build_leaf(&plan, None);
        let inv = extract(&m).unwrap();
        let macro_group = inv
            .input_groups
            .iter()
            .find(|g| g.name == "MACRO_SIG")
            .unwrap();
        assert_eq!(macro_group.guard.as_deref(), Some("warm_done"));
    }

    #[test]
    fn decoder_has_wide_entity() {
        let plan = build_plans(Scale::Small)
            .into_iter()
            .find(|p| p.special == SpecialKind::AddressDecoder)
            .unwrap();
        let m = build_leaf(&plan, None);
        let inv = extract(&m).unwrap();
        assert_eq!(inv.max_entity_width(), 8);
        assert!(inv.entities.iter().any(|e| e.entity_kind == "decoder_out"));
    }

    #[test]
    fn plain_module_has_no_checkpoints() {
        let m = veridic_netlist::Module::new("plain");
        let err = extract(&m).unwrap_err();
        assert!(err.message.contains("checkpoint.kind=he"));
    }
}
