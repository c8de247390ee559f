//! # veridic-chipgen
//!
//! Deterministic generator for the synthetic "component chip for server
//! platforms" that the paper's methodology is evaluated on: 95 leaf
//! modules in five categories (A–E), every data path / FSM / counter
//! parity-protected, with a checkpoint census that reproduces Table 2
//! exactly (1306 P0 + 200 P1 + 520 P2 + 21 P3 = 2047 properties) and the
//! seven seeded logic bugs of Table 3.
//!
//! ```
//! use veridic_chipgen::{Chip, ChipConfig, Scale};
//!
//! let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs: false });
//! assert!(chip.modules().len() >= 10);
//! assert!(chip.design().module(chip.modules()[0].name()).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bugs;
mod leaf;
mod order;
mod plan;
mod scenario;

pub use bugs::{bug_for_module, BugId, PropertyType};
pub use order::build_order_stress;

pub use leaf::{
    build_leaf, valid_addresses, EntityKind, B5_CASE, B6_CASE, DECODER_WIDTH, GROUP_WIDTH,
    START_CMD,
};
pub use plan::{
    build_plans, distribute, Category, CategoryTotals, LeafPlan, Scale, SpecialKind, FULL_TOTALS,
    SMALL_TOTALS,
};
pub use scenario::{observe_symptom, SpecCompliant};

use std::collections::BTreeMap;
use veridic_netlist::{Conn, Design, Instance, Module, PortDir};

/// Chip generation options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChipConfig {
    /// Full (paper census) or small (test) scale.
    pub scale: Scale,
    /// Seed the seven Table-3 bugs.
    pub with_bugs: bool,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            scale: Scale::Full,
            with_bugs: false,
        }
    }
}

/// Metadata for one generated leaf module.
#[derive(Clone, Debug)]
pub struct ModuleInfo {
    plan: LeafPlan,
    bug: Option<BugId>,
}

impl ModuleInfo {
    /// The module's name in the design.
    pub fn name(&self) -> &str {
        &self.plan.name
    }

    /// The build plan (checkpoint counts).
    pub fn plan(&self) -> &LeafPlan {
        &self.plan
    }

    /// The bug seeded into this module, if any. The address decoder
    /// reports [`BugId::B5`] but hosts both B5 and B6 (two independent
    /// bad decode cases).
    pub fn bug(&self) -> Option<BugId> {
        self.bug
    }
}

/// A generated chip: the design plus per-module metadata.
#[derive(Clone, Debug)]
pub struct Chip {
    design: Design,
    modules: Vec<ModuleInfo>,
    config: ChipConfig,
}

impl Chip {
    /// Generates the chip deterministically from the configuration.
    pub fn generate(config: &ChipConfig) -> Chip {
        let plans = build_plans(config.scale);
        let mut design = Design::new("chip_top");
        let mut modules = Vec::new();
        let mut cat_index: BTreeMap<Category, usize> = BTreeMap::new();
        for p in &plans {
            let i = *cat_index.entry(p.category).or_insert(0);
            *cat_index.get_mut(&p.category).unwrap() += 1;
            let bug = if config.with_bugs {
                bug_for_module(p, i)
            } else {
                None
            };
            let m = build_leaf(p, bug);
            design.add_module(m);
            modules.push(ModuleInfo {
                plan: p.clone(),
                bug,
            });
        }
        design.add_module(Self::build_top(&design, &plans));
        Chip {
            design,
            modules,
            config: *config,
        }
    }

    /// Builds a chip-level wrapper instantiating every leaf: leaf inputs
    /// become top-level inputs (prefixed with the module name) and the
    /// per-leaf HE reports are OR-reduced into one chip-level `CHIP_HE`.
    fn build_top(design: &Design, plans: &[LeafPlan]) -> Module {
        let mut top = Module::new("chip_top");
        let mut he_bits = Vec::new();
        for p in plans {
            let leaf = design.module(&p.name).expect("leaf exists");
            let mut conns = BTreeMap::new();
            for port in &leaf.ports {
                let w = leaf.net_width(port.net);
                match port.dir {
                    PortDir::Input => {
                        let top_net =
                            top.add_port(format!("{}_{}", p.name, port.name), PortDir::Input, w);
                        let e = top.sig(top_net);
                        conns.insert(port.name.clone(), Conn::In(e));
                    }
                    PortDir::Output => {
                        let top_net = top.add_net(format!("{}_{}", p.name, port.name), w);
                        conns.insert(port.name.clone(), Conn::Out(top_net));
                        if port.name == "HE" {
                            he_bits.push(top_net);
                        } else {
                            top.expose(top_net, PortDir::Output);
                        }
                    }
                }
            }
            top.add_instance(Instance {
                module: p.name.clone(),
                name: format!("u_{}", p.name),
                conns,
            });
        }
        let chip_he = top.add_port("CHIP_HE", PortDir::Output, 1);
        let mut acc = None;
        for net in he_bits {
            let s = top.sig(net);
            let r = top.arena.add(veridic_netlist::Expr::RedOr(s));
            acc = Some(match acc {
                None => r,
                Some(a) => top.arena.add(veridic_netlist::Expr::Or(a, r)),
            });
        }
        let e = acc.expect("at least one leaf");
        top.assign(chip_he, e);
        top
    }

    /// The design (leaves + `chip_top`).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Mutable access (the Verifiable-RTL transform rewrites modules).
    pub fn design_mut(&mut self) -> &mut Design {
        &mut self.design
    }

    /// Per-module metadata, in generation order.
    pub fn modules(&self) -> &[ModuleInfo] {
        &self.modules
    }

    /// The generation configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// All bugs present in this chip (the decoder contributes both B5 and
    /// B6).
    pub fn bugs(&self) -> Vec<(String, BugId)> {
        let mut out = Vec::new();
        for mi in &self.modules {
            match mi.bug {
                Some(BugId::B5) => {
                    out.push((mi.plan.name.clone(), BugId::B5));
                    out.push((mi.plan.name.clone(), BugId::B6));
                }
                Some(b) => out.push((mi.plan.name.clone(), b)),
                None => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_chip_generates_and_validates() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: true,
        });
        for mi in chip.modules() {
            let m = chip.design().module(mi.name()).unwrap();
            assert!(m.validate().is_ok(), "{}", mi.name());
        }
        assert_eq!(chip.bugs().len(), 7, "all seven Table-3 bugs present");
    }

    #[test]
    fn clean_chip_has_no_bugs() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: false,
        });
        assert!(chip.bugs().is_empty());
    }

    #[test]
    fn top_wrapper_flattens() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: false,
        });
        let flat = chip.design().flatten().unwrap();
        assert!(flat.validate().is_ok());
        assert!(
            flat.regs.len() > 50,
            "chip has substantial state: {}",
            flat.regs.len()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: true,
        });
        let b = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: true,
        });
        for (ma, mb) in a.modules().iter().zip(b.modules()) {
            let da = a.design().module(ma.name()).unwrap();
            let db = b.design().module(mb.name()).unwrap();
            assert_eq!(da.nets.len(), db.nets.len());
            assert_eq!(da.regs.len(), db.regs.len());
            assert_eq!(da.assigns.len(), db.assigns.len());
        }
    }

    #[test]
    fn full_chip_module_count_matches_table2() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Full,
            with_bugs: false,
        });
        assert_eq!(chip.modules().len(), 95);
        let total_p: usize = chip
            .modules()
            .iter()
            .map(|m| m.plan().p0() + m.plan().p1() + m.plan().p2() + m.plan().p3)
            .sum();
        assert_eq!(total_p, 2047);
    }

    #[test]
    fn exported_verilog_reparses() {
        // The generated chip survives a Verilog emit → parse → elaborate
        // round trip (leaf level).
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: false,
        });
        let name = chip.modules()[0].name();
        let m = chip.design().module(name).unwrap();
        let src = veridic_verilog::emit_module(m, Some(chip.design()));
        let ast = veridic_verilog::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let d2 = veridic_verilog::elaborate(&ast, name).unwrap();
        let m2 = d2.module(name).unwrap();
        assert_eq!(m.regs.len(), m2.regs.len());
        assert_eq!(m.ports.len(), m2.ports.len());
    }
}
