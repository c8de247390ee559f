//! The Verifiable-RTL transform (paper §4.1, Figure 6).
//!
//! "RTL can be Verifiable by adding one line of code per such entity":
//! each injectable entity gets a selector in front of its register —
//! `if (I_ERR_INJ_C[i]) state <= I_ERR_INJ_D;` — with the error-injection
//! control bus `I_ERR_INJ_C` one-hot per entity (independent control, a
//! stated requirement) and the injection data bus `I_ERR_INJ_D` shared.
//! Parent modules tie both ports to zero, so real silicon behaviour is
//! unchanged (the selectors remain as spare gates — the paper's happy ECO
//! side effect).

use crate::checkpoint::{extract, ExtractError, Inventory};
use std::error::Error;
use std::fmt;
use veridic_netlist::{Conn, Design, Expr, Module, NetId, PortDir};

/// Port name of the injection control bus (Figure 6).
pub const EC_PORT: &str = "I_ERR_INJ_C";
/// Port name of the shared injection data bus (Figure 6).
pub const ED_PORT: &str = "I_ERR_INJ_D";

/// Transform failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformError {
    /// Checkpoint extraction failed.
    Extract(ExtractError),
    /// The module already has injection ports.
    AlreadyTransformed(String),
    /// The module has no injectable entities.
    NoEntities(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Extract(e) => write!(f, "{e}"),
            TransformError::AlreadyTransformed(m) => {
                write!(f, "module {m} already has {EC_PORT}/{ED_PORT} ports")
            }
            TransformError::NoEntities(m) => write!(f, "module {m} has no injectable entities"),
        }
    }
}

impl Error for TransformError {}

impl From<ExtractError> for TransformError {
    fn from(e: ExtractError) -> Self {
        TransformError::Extract(e)
    }
}

/// Result of making one module verifiable.
#[derive(Clone, Debug)]
pub struct VerifiableModule {
    /// The transformed module.
    pub module: Module,
    /// The checkpoint inventory (recomputed on the transformed module).
    pub inventory: Inventory,
    /// `I_ERR_INJ_C` net.
    pub ec_net: NetId,
    /// `I_ERR_INJ_D` net.
    pub ed_net: NetId,
    /// Number of independently controllable entities (EC width).
    pub entity_count: usize,
    /// ED bus width (widest entity).
    pub ed_width: u32,
}

/// Applies the Verifiable-RTL transform to a leaf module.
///
/// # Errors
///
/// Returns [`TransformError`] if the module has no checkpoint inventory,
/// no entities, or was already transformed.
pub fn make_verifiable(m: &Module) -> Result<VerifiableModule, TransformError> {
    if m.find_net(EC_PORT).is_some() || m.find_net(ED_PORT).is_some() {
        return Err(TransformError::AlreadyTransformed(m.name.clone()));
    }
    let inv = extract(m)?;
    if inv.entities.is_empty() {
        return Err(TransformError::NoEntities(m.name.clone()));
    }
    let mut out = m.clone();
    let n = inv.entities.len();
    let ed_width = inv.max_entity_width();
    let ec = out.add_port(EC_PORT, PortDir::Input, n as u32);
    let ed = out.add_port(ED_PORT, PortDir::Input, ed_width);
    out.net_mut(ec)
        .attrs
        .insert("checkpoint.kind".into(), "control".into());
    out.net_mut(ec)
        .attrs
        .insert("inject.role".into(), "ec".into());
    out.net_mut(ed)
        .attrs
        .insert("checkpoint.kind".into(), "control".into());
    out.net_mut(ed)
        .attrs
        .insert("inject.role".into(), "ed".into());
    for (i, ent) in inv.entities.iter().enumerate() {
        let w = ent.width;
        let reg_idx = out
            .regs
            .iter()
            .position(|r| r.q == ent.net)
            .expect("entity register exists (validated by extract)"); // lint: allow
        let old_next = out.regs[reg_idx].next;
        // A 1-bit control bus is referenced as a scalar (Figure 6 style).
        let ec_bit = if n == 1 {
            out.sig(ec)
        } else {
            out.sig_bit(ec, i as u32)
        };
        let ed_sig = out.sig(ed);
        let ed_slice = if w == ed_width {
            ed_sig
        } else {
            out.arena.add(Expr::Slice(ed_sig, w - 1, 0))
        };
        // The one line per entity: `if (EC[i]) q <= ED;`
        let injected = out.arena.add(Expr::Mux {
            cond: ec_bit,
            then_: ed_slice,
            else_: old_next,
        });
        out.regs[reg_idx].next = injected;
        out.net_mut(ent.net)
            .attrs
            .insert("inject.index".into(), i.to_string());
    }
    out.attrs.insert("verifiable".into(), "true".to_string());
    let inventory = extract(&out)?;
    Ok(VerifiableModule {
        module: out,
        inventory,
        ec_net: ec,
        ed_net: ed,
        entity_count: n,
        ed_width,
    })
}

/// Ties off the injection ports of a transformed child inside a parent
/// module (the wrapper-side half of Figure 6: `.I_ERR_INJ_C(2'b00)`).
pub fn tie_off_in_parent(parent: &mut Module, instance_name: &str, ec_width: u32, ed_width: u32) {
    let zero_ec = parent.lit(ec_width, 0);
    let zero_ed = parent.lit(ed_width, 0);
    let inst = parent
        .instances
        .iter_mut()
        .find(|i| i.name == instance_name)
        .unwrap_or_else(|| panic!("no instance {instance_name} in {}", parent.name));
    inst.conns.insert(EC_PORT.to_string(), Conn::In(zero_ec));
    inst.conns.insert(ED_PORT.to_string(), Conn::In(zero_ed));
}

/// Transforms every named leaf of a design and ties the new ports off in
/// all instantiating parents. Returns the per-leaf transform results.
///
/// # Errors
///
/// Returns the first [`TransformError`] encountered.
pub fn transform_design(
    design: &mut Design,
    leaf_names: &[String],
) -> Result<Vec<VerifiableModule>, TransformError> {
    let mut results = Vec::new();
    for name in leaf_names {
        let m = design
            .module(name)
            .unwrap_or_else(|| panic!("design has no module {name}"))
            .clone();
        let vm = make_verifiable(&m)?;
        design.add_module(vm.module.clone());
        results.push(vm);
    }
    // Tie off in every parent instance.
    let parents: Vec<String> = design
        .modules()
        .filter(|m| m.instances.iter().any(|i| leaf_names.contains(&i.module)))
        .map(|m| m.name.clone())
        .collect();
    for pname in parents {
        let mut parent = design.module(&pname).expect("parent exists").clone(); // lint: allow
        let fixes: Vec<(String, u32, u32)> = parent
            .instances
            .iter()
            .filter(|i| leaf_names.contains(&i.module))
            .map(|i| {
                let vm = results
                    .iter()
                    .find(|vm| vm.module.name == i.module)
                    .expect("transform result recorded"); // lint: allow
                (i.name.clone(), vm.entity_count as u32, vm.ed_width)
            })
            .collect();
        for (iname, ecw, edw) in fixes {
            tie_off_in_parent(&mut parent, &iname, ecw, edw);
        }
        design.add_module(parent);
    }
    Ok(results)
}

/// A verifiability lint finding (paper §4.1 requirements).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Module name.
    pub module: String,
    /// Requirement violated.
    pub message: String,
}

/// Checks the Verifiable-RTL requirements on a transformed module:
/// a well-defined injection method per entity, controlled independently
/// per entity (one EC bit each), with the shared ED bus wide enough.
pub fn lint_verifiable(vm: &VerifiableModule) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let m = &vm.module;
    let mut seen = std::collections::BTreeSet::new();
    for ent in &vm.inventory.entities {
        match m.net(ent.net).attrs.get("inject.index") {
            None => findings.push(LintFinding {
                module: m.name.clone(),
                message: format!("entity {} has no injection method", ent.name),
            }),
            Some(i) => {
                if !seen.insert(i.clone()) {
                    findings.push(LintFinding {
                        module: m.name.clone(),
                        message: format!(
                            "entity {} shares EC bit {i} — injection must be independent per entity",
                            ent.name
                        ),
                    });
                }
            }
        }
        if ent.width > vm.ed_width {
            findings.push(LintFinding {
                module: m.name.clone(),
                message: format!("ED bus narrower than entity {}", ent.name),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_chipgen::{build_leaf, build_plans, Chip, ChipConfig, Scale};

    fn small_plan() -> veridic_chipgen::LeafPlan {
        build_plans(Scale::Small).into_iter().next().unwrap()
    }

    #[test]
    fn transform_adds_ports_and_selectors() {
        let m = build_leaf(&small_plan(), None);
        let base_regs = m.regs.len();
        let vm = make_verifiable(&m).unwrap();
        assert!(vm.module.find_port(EC_PORT).is_some());
        assert!(vm.module.find_port(ED_PORT).is_some());
        assert_eq!(
            vm.module.regs.len(),
            base_regs,
            "no new state, just selectors"
        );
        assert_eq!(vm.entity_count, vm.inventory.entities.len());
        assert!(vm.module.validate().is_ok());
        assert!(lint_verifiable(&vm).is_empty());
    }

    #[test]
    fn double_transform_rejected() {
        let m = build_leaf(&small_plan(), None);
        let vm = make_verifiable(&m).unwrap();
        assert!(matches!(
            make_verifiable(&vm.module),
            Err(TransformError::AlreadyTransformed(_))
        ));
    }

    #[test]
    fn injection_actually_injects() {
        use veridic_netlist::Value;
        use veridic_sim::Simulator;
        let m = build_leaf(&small_plan(), None);
        let vm = make_verifiable(&m).unwrap();
        let tm = &vm.module;
        let mut sim = Simulator::new(tm).unwrap();
        // Drive clean inputs; inject an even-parity (illegal) value into
        // entity 0 and watch HE rise the next cycle.
        for p in tm
            .inputs()
            .map(|p| (p.net, p.name.clone()))
            .collect::<Vec<_>>()
        {
            let w = tm.net_width(p.0);
            let kind = tm
                .net(p.0)
                .attrs
                .get("checkpoint.kind")
                .cloned()
                .unwrap_or_default();
            let v = if kind == "input_group" {
                let mut v = Value::zero(w);
                v.set_bit(0, true); // odd parity
                v
            } else {
                Value::zero(w)
            };
            sim.poke_net(p.0, v).unwrap();
        }
        sim.settle();
        assert!(sim.peek("HE").unwrap().is_zero(), "clean before injection");
        // Pulse EC[0] with an even-parity ED.
        let ecw = tm.net_width(vm.ec_net);
        sim.poke(EC_PORT, Value::from_u64(ecw, 1)).unwrap();
        sim.poke(ED_PORT, Value::from_u64(vm.ed_width, 0b0011))
            .unwrap();
        sim.step();
        sim.poke(EC_PORT, Value::zero(ecw)).unwrap();
        sim.settle();
        assert!(
            !sim.peek("HE").unwrap().is_zero(),
            "illegal injected value must be detected the next cycle"
        );
    }

    #[test]
    fn chip_transform_ties_off_parents() {
        let mut chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: false,
        });
        let names: Vec<String> = chip
            .modules()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        let results = transform_design(chip.design_mut(), &names).unwrap();
        assert_eq!(results.len(), names.len());
        let top = chip.design().module("chip_top").unwrap();
        for inst in &top.instances {
            assert!(inst.conns.contains_key(EC_PORT), "{} tied off", inst.name);
            assert!(inst.conns.contains_key(ED_PORT), "{} tied off", inst.name);
        }
        // Flattened silicon behaviour: with EC tied to zero the chip
        // validates and flattens fine.
        let flat = chip.design().flatten().unwrap();
        assert!(flat.validate().is_ok());
    }

    #[test]
    fn figure6_shape_in_emitted_verilog() {
        // The emitted Verilog of a transformed module contains the
        // Figure-6 idiom: a selector on the injection control bit.
        let m = build_leaf(&small_plan(), None);
        let vm = make_verifiable(&m).unwrap();
        let src = veridic_verilog::emit_module(&vm.module, None);
        assert!(src.contains(EC_PORT), "{src}");
        assert!(src.contains(ED_PORT));
        assert!(src.contains(&format!("{EC_PORT}[0]")));
    }
}
