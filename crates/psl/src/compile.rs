//! Compilation of PSL safety properties into monitor circuits.
//!
//! Every directive becomes a 1-bit *fail* net added to an instrumented
//! copy of the bound module: the net pulses high in exactly the cycles
//! where the property is violated. Model checking then reduces to
//! `never fail_assert` under the invariant constraints `!fail_assume` —
//! one uniform representation shared by the BDD, POBDD and SAT engines.
//!
//! The compilation scheme flattens each bounded-future formula into
//! *obligations* `(guards, delay, obligation)`; guards are piped through
//! shift registers so that an obligation fired `d` cycles after its
//! instance started is checked against guards observed at the right
//! times. `until` obligations get a one-bit pending automaton.

use crate::ast::*;
use std::error::Error;
use std::fmt;
use veridic_netlist::{Expr, ExprId, Module, NetId, Value};

/// PSL compilation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PslCompileError {
    /// The vunit being compiled.
    pub vunit: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for PslCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PSL compile error in vunit {}: {}",
            self.vunit, self.message
        )
    }
}

impl Error for PslCompileError {}

/// A compiled vunit: the instrumented module plus the fail nets.
#[derive(Clone, Debug)]
pub struct CompiledVUnit {
    /// Copy of the bound module extended with monitor logic.
    pub module: Module,
    /// `(label, fail_net)` for each assert directive: the property is
    /// `never fail_net`.
    pub asserts: Vec<(String, NetId)>,
    /// `(label, fail_net)` for each assume/restrict directive: paths where
    /// a fail net rises are excluded from the analysis.
    pub assumes: Vec<(String, NetId)>,
}

/// Compiles a vunit against its bound module.
///
/// # Errors
///
/// Returns a [`PslCompileError`] for unresolvable names, non-boolean
/// operands, unsupported liveness shapes, or a vunit bound to a different
/// module name.
pub fn compile_vunit(unit: &VUnit, module: &Module) -> Result<CompiledVUnit, PslCompileError> {
    Compiler {
        unit,
        m: module.clone(),
        gensym: 0,
    }
    .run()
}

struct Compiler<'a> {
    unit: &'a VUnit,
    m: Module,
    gensym: usize,
}

/// One flattened obligation of a formula.
#[derive(Clone, Debug)]
struct Obligation {
    /// `(delay, guard)` pairs: the guard must have held `total_delay -
    /// delay` cycles before the check.
    guards: Vec<(u32, ExprId)>,
    /// Delay (relative to instance start) at which the check happens.
    delay: u32,
    /// What must hold at `delay`.
    kind: ObKind,
    /// Abort conditions with the delays at which they begin to apply.
    aborts: Vec<ExprId>,
}

#[derive(Clone, Debug)]
enum ObKind {
    /// A boolean must be true.
    Bool(ExprId),
    /// `b1 until b2` starting at `delay`.
    Until(ExprId, ExprId),
}

impl<'a> Compiler<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, PslCompileError> {
        Err(PslCompileError {
            vunit: self.unit.name.clone(),
            message: m.into(),
        })
    }

    fn run(mut self) -> Result<CompiledVUnit, PslCompileError> {
        if self.unit.module != self.m.name {
            return self.err(format!(
                "vunit binds module '{}' but was compiled against '{}'",
                self.unit.module, self.m.name
            ));
        }
        let mut asserts = Vec::new();
        let mut assumes = Vec::new();
        for d in &self.unit.directives {
            let fail = self.compile_prop(&d.prop, &d.label)?;
            match d.kind {
                DirectiveKind::Assert => asserts.push((d.label.clone(), fail)),
                DirectiveKind::Assume | DirectiveKind::Restrict => {
                    assumes.push((d.label.clone(), fail))
                }
            }
        }
        Ok(CompiledVUnit {
            module: self.m,
            asserts,
            assumes,
        })
    }

    /// Compiles a top-level property to its fail net.
    fn compile_prop(&mut self, p: &Prop, label: &str) -> Result<NetId, PslCompileError> {
        let p = self.resolve(p)?;
        // Normalise the top: always(φ) and never(b) check instances every
        // cycle (never b ≡ always ¬b per the PSL LRM); anything else
        // checks the single instance starting at cycle 0.
        let (body, every_cycle) = match p {
            Prop::Always(inner) => (*inner, true),
            never @ Prop::Never(_) => (never, true),
            other => (other, false),
        };
        let mut obs = Vec::new();
        self.flatten(&body, Vec::new(), 0, Vec::new(), &mut obs)?;
        // fail = OR over obligations.
        let mut fails = Vec::new();
        for ob in &obs {
            fails.push(self.compile_obligation(ob, every_cycle)?);
        }
        let fail_expr = self.or_all(&fails);
        let name = format!("psl_fail_{}_{}", self.unit.name, label);
        let net = self.m.add_net(name, 1);
        self.m
            .net_mut(net)
            .attrs
            .insert("psl.monitor".into(), label.to_string());
        self.m.assign(net, fail_expr);
        Ok(net)
    }

    /// Resolves `Ref` nodes: named property if declared, else boolean net.
    fn resolve(&self, p: &Prop) -> Result<Prop, PslCompileError> {
        Ok(match p {
            Prop::Ref(name) => {
                if let Some((_, decl)) = self.unit.properties.iter().find(|(n, _)| n == name) {
                    self.resolve(decl)?
                } else if self.m.find_net(name).is_some() {
                    Prop::Bool(BExpr::Ident(name.clone()))
                } else {
                    return self.err(format!(
                        "'{name}' is neither a declared property nor a net of {}",
                        self.m.name
                    ));
                }
            }
            Prop::Always(i) => Prop::Always(Box::new(self.resolve(i)?)),
            Prop::Never(i) => Prop::Never(Box::new(self.resolve(i)?)),
            Prop::Next(k, i) => Prop::Next(*k, Box::new(self.resolve(i)?)),
            Prop::Implies(b, i) => Prop::Implies(b.clone(), Box::new(self.resolve(i)?)),
            Prop::Abort(i, b) => Prop::Abort(Box::new(self.resolve(i)?), b.clone()),
            Prop::And(a, b) => Prop::And(Box::new(self.resolve(a)?), Box::new(self.resolve(b)?)),
            other => other.clone(),
        })
    }

    /// Flattens a bounded-future formula into obligations.
    fn flatten(
        &mut self,
        p: &Prop,
        guards: Vec<(u32, ExprId)>,
        delay: u32,
        aborts: Vec<ExprId>,
        out: &mut Vec<Obligation>,
    ) -> Result<(), PslCompileError> {
        match p {
            Prop::Bool(b) => {
                let e = self.bexpr_bool(b)?;
                out.push(Obligation {
                    guards,
                    delay,
                    kind: ObKind::Bool(e),
                    aborts,
                });
                Ok(())
            }
            Prop::Never(inner) => {
                // never b == always !b at this position; treat as !b now.
                match &**inner {
                    Prop::Bool(b) => {
                        let e = self.bexpr_bool(b)?;
                        let ne = self.m.arena.add(Expr::Not(e));
                        out.push(Obligation {
                            guards,
                            delay,
                            kind: ObKind::Bool(ne),
                            aborts,
                        });
                        Ok(())
                    }
                    _ => self.err("'never' takes a boolean"),
                }
            }
            Prop::Implies(b, rest) => {
                let e = self.bexpr_bool(b)?;
                let mut g = guards;
                g.push((delay, e));
                self.flatten(rest, g, delay, aborts, out)
            }
            Prop::Next(k, rest) => self.flatten(rest, guards, delay + k, aborts, out),
            Prop::And(a, b) => {
                self.flatten(a, guards.clone(), delay, aborts.clone(), out)?;
                self.flatten(b, guards, delay, aborts, out)
            }
            Prop::Until(b1, b2) => {
                let e1 = self.bexpr_bool(b1)?;
                let e2 = self.bexpr_bool(b2)?;
                out.push(Obligation {
                    guards,
                    delay,
                    kind: ObKind::Until(e1, e2),
                    aborts,
                });
                Ok(())
            }
            Prop::Abort(inner, b) => {
                let e = self.bexpr_bool(b)?;
                let mut a = aborts;
                a.push(e);
                self.flatten(inner, guards, delay, a, out)
            }
            Prop::Always(_) => {
                self.err("nested 'always' is not supported (hoist it to the top level)")
            }
            Prop::Ref(_) => unreachable!("refs resolved before flattening"),
        }
    }

    /// Builds the fail net of one obligation.
    fn compile_obligation(
        &mut self,
        ob: &Obligation,
        every_cycle: bool,
    ) -> Result<ExprId, PslCompileError> {
        let d_o = ob.delay;
        // start(t): all guards held at their offsets, and (for single-
        // instance properties) the instance is the one that began at 0.
        let mut conj: Vec<ExprId> = Vec::new();
        for (d_i, g) in &ob.guards {
            debug_assert!(*d_i <= d_o);
            let delayed = self.delayed(*g, d_o - d_i);
            conj.push(delayed);
        }
        if !every_cycle {
            let at = self.at_time(d_o);
            conj.push(at);
        }
        // Abort: obligation cancelled if the abort signal held at any point
        // since the instance started. Conservative safety approximation:
        // cancel when the abort signal holds now or held in the window.
        for a in &ob.aborts {
            let mut any = *a;
            for k in 1..=d_o {
                let past = self.delayed(*a, k);
                any = self.m.arena.add(Expr::Or(any, past));
            }
            let not_aborted = self.m.arena.add(Expr::Not(any));
            conj.push(not_aborted);
        }
        let armed = self.and_all(&conj);
        match &ob.kind {
            ObKind::Bool(b) => {
                let nb = self.m.arena.add(Expr::Not(*b));
                Ok(self.m.arena.add(Expr::And(armed, nb)))
            }
            ObKind::Until(b1, b2) => {
                // pending automaton: alive = armed | carry;
                // carry' = alive & !b2; fail = alive & !b1 & !b2.
                let carry = self.fresh_reg("psl_until");
                let carry_sig = self.m.sig(carry);
                let alive = self.m.arena.add(Expr::Or(armed, carry_sig));
                let nb2 = self.m.arena.add(Expr::Not(*b2));
                let carry_next = self.m.arena.add(Expr::And(alive, nb2));
                let reg_net = carry;
                // Overwrite the placeholder next-state.
                let idx = self
                    .m
                    .regs
                    .iter()
                    .position(|r| r.q == reg_net)
                    .expect("register just added");
                self.m.regs[idx].next = carry_next;
                let nb1 = self.m.arena.add(Expr::Not(*b1));
                let viol = self.m.arena.add(Expr::And(nb1, nb2));
                Ok(self.m.arena.add(Expr::And(alive, viol)))
            }
        }
    }

    /// `x` delayed by `k` cycles through a fresh register chain (zeros
    /// before time `k`).
    fn delayed(&mut self, x: ExprId, k: u32) -> ExprId {
        let mut cur = x;
        for _ in 0..k {
            let q = self.fresh_reg("psl_dly");
            self.m.add_reg(q, cur, Value::zero(1));
            cur = self.m.sig(q);
        }
        cur
    }

    /// A net that is 1 exactly in cycle `k` (0-based from reset).
    fn at_time(&mut self, k: u32) -> ExprId {
        // r0: init 1, next 0. r_{i}: init 0, next r_{i-1}.
        let q0 = self.fresh_reg("psl_t0");
        let zero = self.m.arena.add(Expr::Const(Value::zero(1)));
        self.m.add_reg(q0, zero, Value::from_u64(1, 1));
        let mut cur = self.m.sig(q0);
        for _ in 0..k {
            let q = self.fresh_reg("psl_t");
            self.m.add_reg(q, cur, Value::zero(1));
            cur = self.m.sig(q);
        }
        cur
    }

    /// Allocates a fresh 1-bit net for a monitor register; next-state is
    /// set by the caller (via `add_reg` or patching).
    fn fresh_reg(&mut self, prefix: &str) -> NetId {
        let name = format!("{prefix}_{}_{}", self.unit.name, self.gensym);
        self.gensym += 1;
        let q = self.m.add_net(name, 1);
        if prefix == "psl_until" {
            // Placeholder register patched by the caller.
            let zero = self.m.arena.add(Expr::Const(Value::zero(1)));
            self.m.add_reg(q, zero, Value::zero(1));
        }
        q
    }

    fn and_all(&mut self, xs: &[ExprId]) -> ExprId {
        match xs.len() {
            0 => self.m.arena.add(Expr::Const(Value::from_u64(1, 1))),
            _ => {
                let mut acc = xs[0];
                for x in &xs[1..] {
                    acc = self.m.arena.add(Expr::And(acc, *x));
                }
                acc
            }
        }
    }

    fn or_all(&mut self, xs: &[ExprId]) -> ExprId {
        match xs.len() {
            0 => self.m.arena.add(Expr::Const(Value::zero(1))),
            _ => {
                let mut acc = xs[0];
                for x in &xs[1..] {
                    acc = self.m.arena.add(Expr::Or(acc, *x));
                }
                acc
            }
        }
    }

    /// Elaborates a boolean-layer expression to a 1-bit netlist expr.
    fn bexpr_bool(&mut self, b: &BExpr) -> Result<ExprId, PslCompileError> {
        let e = self.bexpr(b)?;
        Ok(if self.m.arena.width(e) == 1 {
            e
        } else {
            self.m.arena.add(Expr::RedOr(e))
        })
    }

    /// Elaborates a boolean-layer expression (any width).
    fn bexpr(&mut self, b: &BExpr) -> Result<ExprId, PslCompileError> {
        Ok(match b {
            BExpr::Ident(name) => {
                let net = self.net(name)?;
                self.m.sig(net)
            }
            BExpr::Index(name, i) => {
                let net = self.net(name)?;
                let w = self.m.net_width(net);
                if *i >= w {
                    return self.err(format!("bit {i} out of range for '{name}' (width {w})"));
                }
                self.m.sig_bit(net, *i)
            }
            BExpr::Range(name, hi, lo) => {
                let net = self.net(name)?;
                let w = self.m.net_width(net);
                if *hi >= w || lo > hi {
                    return self.err(format!("[{hi}:{lo}] out of range for '{name}' (width {w})"));
                }
                let s = self.m.sig(net);
                self.m.arena.add(Expr::Slice(s, *hi, *lo))
            }
            BExpr::Const(w, v) => self.m.arena.add(Expr::Const(Value::from_u64(*w, *v))),
            BExpr::Not(inner) => {
                let e = self.bexpr(inner)?;
                if self.m.arena.width(e) == 1 {
                    self.m.arena.add(Expr::Not(e))
                } else {
                    // Logical not of a wide value.
                    let r = self.m.arena.add(Expr::RedOr(e));
                    self.m.arena.add(Expr::Not(r))
                }
            }
            BExpr::RedXor(inner) => {
                let e = self.bexpr(inner)?;
                self.m.arena.add(Expr::RedXor(e))
            }
            BExpr::RedAnd(inner) => {
                let e = self.bexpr(inner)?;
                self.m.arena.add(Expr::RedAnd(e))
            }
            BExpr::RedOr(inner) => {
                let e = self.bexpr(inner)?;
                self.m.arena.add(Expr::RedOr(e))
            }
            BExpr::And(a, b) => self.bin(a, b, Expr::And)?,
            BExpr::Or(a, b) => self.bin(a, b, Expr::Or)?,
            BExpr::Xor(a, b) => self.bin(a, b, Expr::Xor)?,
            BExpr::Eq(a, b) => self.bin(a, b, Expr::Eq)?,
            BExpr::Ne(a, b) => self.bin(a, b, Expr::Ne)?,
        })
    }

    fn bin(
        &mut self,
        a: &BExpr,
        b: &BExpr,
        mk: fn(ExprId, ExprId) -> Expr,
    ) -> Result<ExprId, PslCompileError> {
        let ea = self.bexpr(a)?;
        let eb = self.bexpr(b)?;
        let (wa, wb) = (self.m.arena.width(ea), self.m.arena.width(eb));
        let (ea, eb) = if wa == wb {
            (ea, eb)
        } else if wa == 1 {
            let rb = self.m.arena.add(Expr::RedOr(eb));
            (ea, rb)
        } else if wb == 1 {
            let ra = self.m.arena.add(Expr::RedOr(ea));
            (ra, eb)
        } else {
            return self.err(format!("width mismatch in PSL expression: {wa} vs {wb}"));
        };
        Ok(self.m.arena.add(mk(ea, eb)))
    }

    fn net(&self, name: &str) -> Result<NetId, PslCompileError> {
        self.m.find_net(name).ok_or_else(|| PslCompileError {
            vunit: self.unit.name.clone(),
            message: format!("module {} has no net '{name}'", self.m.name),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_psl;
    use std::collections::BTreeMap;
    use veridic_netlist::PortDir;

    /// A module matching Figure 1's abstraction: FSM state A with odd
    /// parity, EC/ED injection, HE report, parity-protected input I and
    /// output O.
    fn leaf_module() -> Module {
        let mut m = Module::new("M");
        let i = m.add_port("I", PortDir::Input, 4); // odd-parity input
        let ec = m.add_port("EC", PortDir::Input, 1);
        let ed = m.add_port("ED", PortDir::Input, 4);
        let he = m.add_port("HE", PortDir::Output, 1);
        let o = m.add_port("O", PortDir::Output, 4);
        // state A: 4 bits incl. parity, reset 0b1000 (odd).
        let a = m.add_net("A", 4);
        let si = m.sig(i);
        let sec = m.sig(ec);
        let sed = m.sig(ed);
        let sa = m.sig(a);
        // next A: if EC inject ED else rotate-ish update that keeps parity:
        // xor with input parity-neutral function; simplest: A stays.
        let next_a = m.arena.add(Expr::Mux {
            cond: sec,
            then_: sed,
            else_: sa,
        });
        m.add_reg(a, next_a, Value::from_u64(4, 0b1000));
        // Check1 (combinational on state A): fires the cycle after an
        // injection corrupted A. Check2 (registered input check): fires the
        // cycle after an even-parity I. HE = Check1 | Check2_q.
        let pa = m.arena.add(Expr::RedXor(sa));
        let bad_a = m.arena.add(Expr::Not(pa));
        let pi = m.arena.add(Expr::RedXor(si));
        let bad_i = m.arena.add(Expr::Not(pi));
        let he_q = m.add_net("HE_q", 1);
        m.add_reg(he_q, bad_i, Value::zero(1));
        let she = m.sig(he_q);
        let he_all = m.arena.add(Expr::Or(bad_a, she));
        m.assign(he, he_all);
        // O: pass A through (keeps odd parity in normal operation).
        let sa2 = m.sig(a);
        m.assign(o, sa2);
        m.validate().unwrap();
        m
    }

    const FIG2: &str = r#"
vunit M_edetect (M) {
    property pCheck1 = always ((EC & ~(^ED)) -> next HE);
    assert pCheck1;
    property pCheck2 = always ( ~(^I) -> next HE);
    assert pCheck2;
}
"#;

    const FIG3: &str = r#"
vunit M_soundness (M) {
    property pIntegrityI = always ( ^I );
    assume pIntegrityI;
    property pNoErrInjection = always ( ~EC );
    assume pNoErrInjection;
    property pNoError = never ( HE );
    assert pNoError;
}
"#;

    fn run_monitor(
        cv: &CompiledVUnit,
        inputs: &[(&str, u64)],
        cycles: usize,
    ) -> Vec<BTreeMap<String, bool>> {
        // Simulate the instrumented module via its AIG.
        let lowered = cv.module.to_aig().unwrap();
        let mut input_seq = Vec::new();
        for _ in 0..cycles {
            let mut frame = vec![false; lowered.aig.num_inputs()];
            for (name, val) in inputs {
                let net = cv.module.find_net(name).unwrap();
                let w = cv.module.net_width(net);
                for b in 0..w {
                    if let Some(var) = lowered.input_vars.get(&(net, b)) {
                        let idx = lowered.aig.input_index(*var).unwrap();
                        frame[idx] = val >> b & 1 == 1;
                    }
                }
            }
            input_seq.push(frame);
        }
        // Track fail nets by adding them as outputs.
        let mut aig = lowered.aig.clone();
        let mut fail_names = Vec::new();
        for (label, net) in cv.asserts.iter().chain(&cv.assumes) {
            let lit = lowered.bit(*net, 0);
            aig.add_output(format!("fail_{label}"), lit);
            fail_names.push(format!("fail_{label}"));
        }
        let base_outputs = lowered.aig.outputs().len();
        aig.simulate(&input_seq)
            .into_iter()
            .map(|rep| {
                fail_names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), rep.outputs[base_outputs + i]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn figure2_monitors_fire_correctly() {
        let m = leaf_module();
        let units = parse_psl(FIG2).unwrap();
        let cv = compile_vunit(&units[0], &m).unwrap();
        assert_eq!(cv.asserts.len(), 2);
        // Clean run (odd-parity I, no injection): no fails.
        let reports = run_monitor(&cv, &[("I", 0b0001), ("EC", 0), ("ED", 0)], 6);
        for rep in &reports {
            assert!(rep.values().all(|v| !v), "spurious failure: {rep:?}");
        }
        // Inject an even-parity (illegal) value: HE rises next cycle, so
        // pCheck1 must NOT fail; the design is correct.
        let reports = run_monitor(&cv, &[("I", 0b0001), ("EC", 1), ("ED", 0b0011)], 6);
        for rep in &reports {
            assert!(!rep["fail_pCheck1"], "pCheck1 must hold on correct design");
        }
        // Drive an even-parity input: pCheck2 holds too (HE reports it).
        let reports = run_monitor(&cv, &[("I", 0b0011), ("EC", 0), ("ED", 0)], 6);
        for rep in &reports {
            assert!(!rep["fail_pCheck2"], "pCheck2 must hold on correct design");
        }
    }

    #[test]
    fn broken_design_fails_check1() {
        // Break the design: HE only reflects the input check, the state
        // check is dropped (detection-ability bug).
        let mut m = leaf_module();
        let he = m.find_port("HE").unwrap().net;
        let he_q = m.find_net("HE_q").unwrap();
        let idx = m.assigns.iter().position(|(n, _)| *n == he).unwrap();
        let she = m.sig(he_q);
        m.assigns[idx].1 = she;
        let units = parse_psl(FIG2).unwrap();
        let cv = compile_vunit(&units[0], &m).unwrap();
        let reports = run_monitor(&cv, &[("I", 0b0001), ("EC", 1), ("ED", 0b0011)], 4);
        // EC=1 with even-parity ED from cycle 0: fail at cycle 1.
        assert!(
            reports[1]["fail_pCheck1"],
            "broken design must fail pCheck1"
        );
    }

    #[test]
    fn figure3_soundness_monitors() {
        let m = leaf_module();
        let units = parse_psl(FIG3).unwrap();
        let cv = compile_vunit(&units[0], &m).unwrap();
        assert_eq!(cv.asserts.len(), 1);
        assert_eq!(cv.assumes.len(), 2);
        // Clean inputs: no assume violations, no assert violations.
        let reports = run_monitor(&cv, &[("I", 0b0001), ("EC", 0)], 5);
        for rep in &reports {
            assert!(rep.values().all(|v| !v), "unexpected failure: {rep:?}");
        }
        // Even-parity input violates the assumption pIntegrityI.
        let reports = run_monitor(&cv, &[("I", 0b0011), ("EC", 0)], 3);
        assert!(reports[0]["fail_pIntegrityI"]);
    }

    #[test]
    fn next_k_delays_check() {
        let mut m = Module::new("M");
        let a = m.add_port("a", PortDir::Input, 1);
        let y = m.add_port("y", PortDir::Output, 1);
        let sa = m.sig(a);
        // y = a delayed by 2 registers.
        let q1 = m.add_net("q1", 1);
        m.add_reg(q1, sa, Value::zero(1));
        let s1 = m.sig(q1);
        let q2 = m.add_net("q2", 1);
        m.add_reg(q2, s1, Value::zero(1));
        let s2 = m.sig(q2);
        m.assign(y, s2);
        let units = parse_psl("vunit v (M) { assert always (a -> next[2] y); }").unwrap();
        let cv = compile_vunit(&units[0], &m).unwrap();
        // Correct design: never fails.
        let reports = run_monitor(&cv, &[("a", 1)], 6);
        for rep in &reports {
            assert!(rep.values().all(|v| !v));
        }
        // Wrong spec: next[1] must fail.
        let units = parse_psl("vunit v (M) { assert always (a -> next y); }").unwrap();
        let cv = compile_vunit(&units[0], &m).unwrap();
        let reports = run_monitor(&cv, &[("a", 1)], 4);
        assert!(
            reports[1].values().any(|v| *v),
            "late y must fail next[1] check"
        );
    }

    #[test]
    fn until_monitor() {
        // busy until done: busy stays high until done arrives.
        let mut m = Module::new("M");
        let req = m.add_port("req", PortDir::Input, 1);
        let busy = m.add_port("busy", PortDir::Input, 1);
        let done = m.add_port("done", PortDir::Input, 1);
        let y = m.add_port("y", PortDir::Output, 1);
        let sreq = m.sig(req);
        m.assign(y, sreq);
        let _ = (busy, done);
        let units =
            parse_psl("vunit v (M) { assert always (req -> next (busy until done)); }").unwrap();
        let cv = compile_vunit(&units[0], &m).unwrap();
        // Good trace: req at 0; busy 1..2; done at 3.
        let lowered_inputs =
            |reqv: &[u64], busyv: &[u64], donev: &[u64]| -> Vec<Vec<(&str, u64)>> {
                (0..reqv.len())
                    .map(|k| vec![("req", reqv[k]), ("busy", busyv[k]), ("done", donev[k])])
                    .collect()
            };
        let run = |frames: Vec<Vec<(&str, u64)>>| -> Vec<bool> {
            let lowered = cv.module.to_aig().unwrap();
            let mut aig = lowered.aig.clone();
            let lit = lowered.bit(cv.asserts[0].1, 0);
            aig.add_output("fail", lit);
            let base = lowered.aig.outputs().len();
            let seq: Vec<Vec<bool>> = frames
                .iter()
                .map(|frame| {
                    let mut f = vec![false; aig.num_inputs()];
                    for (name, val) in frame {
                        let net = cv.module.find_net(name).unwrap();
                        if let Some(var) = lowered.input_vars.get(&(net, 0)) {
                            f[aig.input_index(*var).unwrap()] = *val == 1;
                        }
                    }
                    f
                })
                .collect();
            aig.simulate(&seq)
                .into_iter()
                .map(|r| r.outputs[base])
                .collect()
        };
        let good = run(lowered_inputs(
            &[1, 0, 0, 0, 0],
            &[0, 1, 1, 0, 0],
            &[0, 0, 0, 1, 0],
        ));
        assert!(
            good.iter().all(|f| !f),
            "good trace must not fail: {good:?}"
        );
        // Bad trace: busy drops at cycle 2 without done.
        let bad = run(lowered_inputs(
            &[1, 0, 0, 0, 0],
            &[0, 1, 0, 0, 0],
            &[0, 0, 0, 0, 0],
        ));
        assert!(bad[2], "busy dropped without done must fail: {bad:?}");
    }

    #[test]
    fn never_checks_every_cycle_not_just_cycle_zero() {
        // Regression: `never b` must fail when b first rises at cycle
        // k > 0 (it compiles to always ¬b, not a time-zero check).
        let mut m = Module::new("M");
        let y = m.add_port("y", PortDir::Output, 1);
        // q rises at cycle 2: chain of two registers seeded by constant 1.
        let one = m.arena.add(Expr::Const(Value::from_u64(1, 1)));
        let q1 = m.add_net("q1", 1);
        m.add_reg(q1, one, Value::zero(1));
        let s1 = m.sig(q1);
        let q2 = m.add_net("q2", 1);
        m.add_reg(q2, s1, Value::zero(1));
        let s2 = m.sig(q2);
        m.assign(y, s2);
        let units = parse_psl("vunit v (M) { assert never (y); }").unwrap();
        let cv = compile_vunit(&units[0], &m).unwrap();
        let reports = run_monitor(&cv, &[], 4);
        assert!(!reports[0].values().any(|v| *v), "clean at cycle 0");
        assert!(!reports[1].values().any(|v| *v), "clean at cycle 1");
        assert!(
            reports[2].values().any(|v| *v),
            "never(y) must fail when y rises at cycle 2: {reports:?}"
        );
    }

    #[test]
    fn unknown_net_is_error() {
        let m = leaf_module();
        let units = parse_psl("vunit v (M) { assert always (NO_SUCH_NET); }").unwrap();
        let err = compile_vunit(&units[0], &m).unwrap_err();
        assert!(err.message.contains("NO_SUCH_NET"));
    }

    #[test]
    fn wrong_module_binding_is_error() {
        let m = leaf_module();
        let units = parse_psl("vunit v (OTHER) { assert always (HE); }").unwrap();
        assert!(compile_vunit(&units[0], &m).is_err());
    }
}
