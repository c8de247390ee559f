//! Design-impact model (paper §6.3): area increase from the error
//! injection feature (Table 4), selector timing penalty, and the ECO
//! spare-gate side effect.
//!
//! The model is a gate-level cost estimate over the word-level netlist:
//! each expression node costs standard-cell area units (NAND2-equivalent
//! gates) proportional to its width, and hash-consing in the expression
//! arena models logic sharing. Absolute numbers depend on the synthetic
//! chip's calibration; the *ratios* (selector overhead vs. module area)
//! are the reproduced quantity.

use crate::verifiable::make_verifiable;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use veridic_aig::hash::FxHashSet;
use veridic_chipgen::{Category, Chip};
use veridic_netlist::{Expr, ExprId, Module};

/// Area costs in NAND2-equivalent units per bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellCosts {
    /// Inverter.
    pub not: f64,
    /// 2-input AND/OR.
    pub and_or: f64,
    /// 2-input XOR.
    pub xor: f64,
    /// 2:1 mux.
    pub mux2: f64,
    /// D flip-flop with async reset.
    pub dff: f64,
    /// Full-adder cell.
    pub fa: f64,
}

impl Default for CellCosts {
    fn default() -> Self {
        // Typical relative cell areas for a 0.11 µm ASIC library.
        CellCosts {
            not: 0.5,
            and_or: 1.5,
            xor: 3.0,
            mux2: 3.5,
            dff: 6.0,
            fa: 10.5,
        }
    }
}

/// Gate-area estimate of a module (all logic reachable from assigns and
/// register next-states, plus the flops themselves).
pub fn module_area(m: &Module, costs: &CellCosts) -> f64 {
    let mut seen: FxHashSet<ExprId> = FxHashSet::default();
    let mut area = 0.0;
    let mut stack: Vec<ExprId> = Vec::new();
    for (_, e) in &m.assigns {
        stack.push(*e);
    }
    for r in &m.regs {
        stack.push(r.next);
        area += costs.dff * m.net_width(r.q) as f64;
    }
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let w = m.arena.width(id) as f64;
        match m.arena.node(id) {
            Expr::Const(_) | Expr::Net(_) => {}
            Expr::Not(a) => {
                area += costs.not * w;
                stack.push(*a);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                area += costs.and_or * w;
                stack.push(*a);
                stack.push(*b);
            }
            Expr::Xor(a, b) => {
                area += costs.xor * w;
                stack.push(*a);
                stack.push(*b);
            }
            Expr::RedAnd(a) | Expr::RedOr(a) => {
                let aw = m.arena.width(*a) as f64;
                area += costs.and_or * (aw - 1.0).max(0.0);
                stack.push(*a);
            }
            Expr::RedXor(a) => {
                let aw = m.arena.width(*a) as f64;
                area += costs.xor * (aw - 1.0).max(0.0);
                stack.push(*a);
            }
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                area += costs.fa * w;
                stack.push(*a);
                stack.push(*b);
            }
            Expr::Mul(a, b) => {
                area += costs.fa * w * w / 2.0;
                stack.push(*a);
                stack.push(*b);
            }
            Expr::Eq(a, b) | Expr::Ne(a, b) => {
                let aw = m.arena.width(*a) as f64;
                area += costs.xor * aw + costs.and_or * (aw - 1.0).max(0.0);
                stack.push(*a);
                stack.push(*b);
            }
            Expr::Ult(a, b) | Expr::Ule(a, b) => {
                let aw = m.arena.width(*a) as f64;
                area += 3.0 * costs.and_or * aw;
                stack.push(*a);
                stack.push(*b);
            }
            Expr::Shl(a, _) | Expr::Shr(a, _) | Expr::Repeat(_, a) | Expr::Slice(a, _, _) => {
                stack.push(*a); // wiring only
            }
            Expr::Mux { cond, then_, else_ } => {
                area += costs.mux2 * w;
                stack.push(*cond);
                stack.push(*then_);
                stack.push(*else_);
            }
            Expr::Concat(parts) => stack.extend(parts.iter().copied()),
        }
    }
    area
}

/// Table-4 style area comparison for one module: base vs. Verifiable.
#[derive(Clone, Debug)]
pub struct AreaRow {
    /// Module name.
    pub module: String,
    /// Category.
    pub category: Category,
    /// Base area (units).
    pub base: f64,
    /// Area after the Verifiable-RTL transform.
    pub verifiable: f64,
}

impl AreaRow {
    /// Percentage increase caused by the injection feature.
    pub fn increase_percent(&self) -> f64 {
        (self.verifiable - self.base) / self.base * 100.0
    }
}

/// Computes area rows for every leaf module of a chip.
///
/// # Panics
///
/// Panics if a chip module cannot be transformed (generated chips always
/// can).
pub fn area_report(chip: &Chip, costs: &CellCosts) -> Vec<AreaRow> {
    chip.modules()
        .iter()
        .map(|mi| {
            let m = chip.design().module(mi.name()).expect("module exists"); // lint: allow
            let vm = make_verifiable(m).expect("chip modules transform"); // lint: allow
            AreaRow {
                module: mi.name().to_string(),
                category: mi.plan().category,
                base: module_area(m, costs),
                verifiable: module_area(&vm.module, costs),
            }
        })
        .collect()
}

/// Per-category mean increase, as printed in Table 4.
pub fn category_increase(rows: &[AreaRow]) -> BTreeMap<Category, f64> {
    let mut sums: BTreeMap<Category, (f64, f64)> = BTreeMap::new();
    for r in rows {
        let e = sums.entry(r.category).or_insert((0.0, 0.0));
        e.0 += r.base;
        e.1 += r.verifiable;
    }
    sums.into_iter()
        .map(|(c, (b, v))| (c, (v - b) / b * 100.0))
        .collect()
}

/// Renders Table 4.
pub fn render_table4(rows: &[AreaRow]) -> String {
    let per_cat = category_increase(rows);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 4. Area increase caused by the error injection feature"
    );
    let _ = writeln!(s, "{:<12} {:>14}", "Module Name", "Area Increase");
    for (c, pct) in &per_cat {
        let _ = writeln!(s, "{:<12} {:>13.1}%", c.to_string(), pct);
    }
    s
}

/// Timing impact of the injection selector (paper §6.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingReport {
    /// Selector (2:1 mux) delay in picoseconds.
    pub selector_ps: f64,
    /// Clock period at the chip's 250 MHz target, in picoseconds.
    pub period_ps: f64,
}

impl TimingReport {
    /// The model's 0.11 µm-class numbers: a 200 ps selector on a 4 ns
    /// clock (the paper reports "about 200 ps ... about 4 % of total
    /// delay when frequency is 250 MHz").
    pub fn model() -> TimingReport {
        TimingReport {
            selector_ps: 200.0,
            period_ps: 4000.0,
        }
    }

    /// Selector delay as a percentage of the cycle budget.
    pub fn percent_of_period(&self) -> f64 {
        self.selector_ps / self.period_ps * 100.0
    }
}

/// An engineering change order event in the post-route fix replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcoEvent {
    /// ECO sequence number (1-based).
    pub index: usize,
    /// What kind of fix it was.
    pub kind: EcoKind,
    /// Whether leftover injection selectors could serve as spare gates.
    pub used_injection_spares: bool,
}

/// ECO fix categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcoKind {
    /// Combinational logic fix: a 2:1 mux is a universal cell, so the
    /// tied-off injection selectors can implement it.
    LogicFix,
    /// Timing/buffering fix: needs drive strength, not logic — spare
    /// selectors do not help.
    TimingFix,
}

/// Replays the paper's six post-route ECOs: two were logic fixes served
/// from the leftover injection gates ("we performed ECO six times and we
/// used these remaining gates twice").
pub fn eco_replay() -> Vec<EcoEvent> {
    // Deterministic reconstruction of the paper's account.
    let kinds = [
        EcoKind::TimingFix,
        EcoKind::LogicFix,
        EcoKind::TimingFix,
        EcoKind::TimingFix,
        EcoKind::LogicFix,
        EcoKind::TimingFix,
    ];
    kinds
        .iter()
        .enumerate()
        .map(|(i, k)| EcoEvent {
            index: i + 1,
            kind: *k,
            used_injection_spares: *k == EcoKind::LogicFix,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_chipgen::{ChipConfig, Scale};

    #[test]
    fn area_model_counts_shared_logic_once() {
        use veridic_netlist::{Module, PortDir};
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 4);
        let y1 = m.add_port("y1", PortDir::Output, 1);
        let y2 = m.add_port("y2", PortDir::Output, 1);
        let sa = m.sig(a);
        let p = m.arena.add(Expr::RedXor(sa)); // shared
        m.assign(y1, p);
        let np = m.arena.add(Expr::Not(p));
        m.assign(y2, np);
        let costs = CellCosts::default();
        // RedXor(4) = 3 xor cells = 9.0; Not = 0.5.
        assert!((module_area(&m, &costs) - 9.5).abs() < 1e-9);
    }

    #[test]
    fn transform_increases_area_modestly() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Small,
            with_bugs: false,
        });
        let rows = area_report(&chip, &CellCosts::default());
        for r in &rows {
            assert!(r.verifiable > r.base, "{}: transform adds gates", r.module);
            assert!(
                r.increase_percent() < 30.0,
                "{}: increase {:.1}% implausibly high",
                r.module,
                r.increase_percent()
            );
        }
    }

    #[test]
    fn timing_model_matches_paper_scale() {
        let t = TimingReport::model();
        assert_eq!(t.selector_ps, 200.0);
        let pct = t.percent_of_period();
        assert!(
            (4.0..=6.0).contains(&pct),
            "selector ~4-5% of the cycle: {pct}"
        );
    }

    /// The full-scale census, promoted into tier-1: generation plus the
    /// gate-area model run well under a second — only the *rendering* of
    /// the full table stays behind the `table4` binary.
    #[test]
    fn table4_percentages_match_paper() {
        let chip = Chip::generate(&ChipConfig {
            scale: Scale::Full,
            with_bugs: false,
        });
        let rows = area_report(&chip, &CellCosts::default());
        let per_cat = category_increase(&rows);
        let a = per_cat[&Category::A];
        let b = per_cat[&Category::B];
        let d = per_cat[&Category::D];
        assert!((a - 1.4).abs() < 0.3, "A: {a:.2}% vs paper 1.4%");
        assert!((b - 0.4).abs() < 0.2, "B: {b:.2}% vs paper 0.4%");
        assert!((d - 0.2).abs() < 0.15, "D: {d:.2}% vs paper 0.2%");
    }

    #[test]
    fn eco_replay_matches_paper_account() {
        let events = eco_replay();
        assert_eq!(events.len(), 6);
        let reused = events.iter().filter(|e| e.used_injection_spares).count();
        assert_eq!(reused, 2);
    }
}
