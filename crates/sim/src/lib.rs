//! # veridic-sim
//!
//! A cycle-based two-state logic simulator over flattened netlist
//! modules — the "conventional logic simulation" baseline the paper
//! compares formal verification against.
//!
//! The simulator evaluates continuous assignments in dependency order,
//! advances registers on each [`Simulator::step`], and exposes `poke`/
//! `peek` by net name. [`Stimulus`] implementations drive testbenches;
//! [`VcdWriter`] dumps waveforms.
//!
//! ```
//! use veridic_netlist::{Module, PortDir, Expr, Value};
//! use veridic_sim::Simulator;
//!
//! let mut m = Module::new("inv");
//! let a = m.add_port("a", PortDir::Input, 4);
//! let y = m.add_port("y", PortDir::Output, 4);
//! let sa = m.sig(a);
//! let na = m.arena.add(Expr::Not(sa));
//! m.assign(y, na);
//!
//! let mut sim = Simulator::new(&m)?;
//! sim.poke("a", Value::from_u64(4, 0b1010))?;
//! sim.settle();
//! assert_eq!(sim.peek("y")?.to_u64(), 0b0101);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stimulus;
mod vcd;

pub use stimulus::{detection_latency, Stimulus, UniformRandom};
pub use vcd::VcdWriter;

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use veridic_netlist::{Module, NetId, ValidateError, Value};

/// Simulation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The module failed structural validation.
    Invalid(ValidateError),
    /// An unknown net name was poked or peeked.
    UnknownNet(String),
    /// Poked a net that is not a primary input.
    NotAnInput(String),
    /// Poked with a wrong-width value.
    WidthMismatch {
        /// Net name.
        net: String,
        /// Net width.
        expected: u32,
        /// Value width.
        got: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Invalid(e) => write!(f, "module invalid: {e}"),
            SimError::UnknownNet(n) => write!(f, "unknown net '{n}'"),
            SimError::NotAnInput(n) => write!(f, "net '{n}' is not a primary input"),
            SimError::WidthMismatch { net, expected, got } => {
                write!(
                    f,
                    "poke of '{net}': value width {got}, net width {expected}"
                )
            }
        }
    }
}

impl Error for SimError {}

impl From<ValidateError> for SimError {
    fn from(e: ValidateError) -> Self {
        SimError::Invalid(e)
    }
}

/// A cycle-based simulator instance bound to a flattened module.
///
/// Semantics per cycle: drive inputs ([`Simulator::poke`]), settle
/// combinational logic ([`Simulator::settle`]), observe
/// ([`Simulator::peek`]), advance registers ([`Simulator::step`]).
/// [`Simulator::step`] implies a settle before the clock edge.
#[derive(Clone, Debug)]
pub struct Simulator<'m> {
    m: &'m Module,
    schedule: Vec<usize>,
    values: Vec<Value>,
    cycle: u64,
    dirty: bool,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator and applies reset (registers at their reset
    /// values, inputs all zero, combinational logic settled).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invalid`] if the module has instances, multiple
    /// drivers or combinational cycles.
    pub fn new(m: &'m Module) -> Result<Self, SimError> {
        if !m.is_leaf() {
            return Err(SimError::Invalid(ValidateError::Undriven {
                net: format!("module {} still has instances; flatten first", m.name),
            }));
        }
        m.validate()?;
        let schedule = m.comb_schedule()?;
        let values = m.nets.iter().map(|n| Value::zero(n.width)).collect();
        let mut sim = Simulator {
            m,
            schedule,
            values,
            cycle: 0,
            dirty: true,
        };
        sim.reset();
        Ok(sim)
    }

    /// Applies reset: registers to reset values, cycle counter to zero.
    /// Inputs keep their current values.
    pub fn reset(&mut self) {
        for r in &self.m.regs {
            self.values[r.q.0 as usize] = r.reset_value.clone();
        }
        self.cycle = 0;
        self.dirty = true;
        self.settle();
    }

    /// Current cycle number (increments on [`Simulator::step`]).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The module under simulation.
    pub fn module(&self) -> &Module {
        self.m
    }

    /// Drives a primary input.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nets, non-input nets, or width
    /// mismatches.
    pub fn poke(&mut self, name: &str, v: Value) -> Result<(), SimError> {
        let net = self
            .m
            .find_net(name)
            .ok_or_else(|| SimError::UnknownNet(name.to_string()))?;
        self.poke_net(net, v)
    }

    /// Drives a primary input by id.
    ///
    /// # Errors
    ///
    /// See [`Simulator::poke`].
    pub fn poke_net(&mut self, net: NetId, v: Value) -> Result<(), SimError> {
        let is_input = self.m.inputs().any(|p| p.net == net);
        if !is_input {
            return Err(SimError::NotAnInput(self.m.net(net).name.clone()));
        }
        let w = self.m.net_width(net);
        if v.width() != w {
            return Err(SimError::WidthMismatch {
                net: self.m.net(net).name.clone(),
                expected: w,
                got: v.width(),
            });
        }
        self.values[net.0 as usize] = v;
        self.dirty = true;
        Ok(())
    }

    /// Reads a net's settled value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn peek(&self, name: &str) -> Result<Value, SimError> {
        let net = self
            .m
            .find_net(name)
            .ok_or_else(|| SimError::UnknownNet(name.to_string()))?;
        Ok(self.peek_net(net))
    }

    /// Reads a net's settled value by id.
    pub fn peek_net(&self, net: NetId) -> Value {
        self.values[net.0 as usize].clone()
    }

    /// Re-evaluates combinational logic (idempotent).
    pub fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        for &i in &self.schedule {
            let (net, expr) = self.m.assigns[i];
            let v = {
                let values = &self.values;
                self.m.arena.eval(expr, &|n| values[n.0 as usize].clone())
            };
            self.values[net.0 as usize] = v;
        }
        self.dirty = false;
    }

    /// One clock cycle: settle, compute register next-states from the
    /// settled values, advance all registers simultaneously, re-settle.
    pub fn step(&mut self) {
        self.settle();
        let nexts: Vec<(NetId, Value)> = self
            .m
            .regs
            .iter()
            .map(|r| {
                let values = &self.values;
                (
                    r.q,
                    self.m.arena.eval(r.next, &|n| values[n.0 as usize].clone()),
                )
            })
            .collect();
        for (q, v) in nexts {
            self.values[q.0 as usize] = v;
        }
        self.cycle += 1;
        self.dirty = true;
        self.settle();
    }

    /// Runs `cycles` steps driving inputs from `stim` each cycle; calls
    /// `observe` after settling each cycle (before the clock edge).
    /// Returns the cycle at which `observe` returned `Some`, with its
    /// payload.
    ///
    /// # Errors
    ///
    /// Propagates poke errors from the stimulus.
    pub fn run_with<S: Stimulus, T>(
        &mut self,
        stim: &mut S,
        cycles: u64,
        mut observe: impl FnMut(&Simulator<'_>) -> Option<T>,
    ) -> Result<Option<(u64, T)>, SimError> {
        for _ in 0..cycles {
            for (net, v) in stim.drive(self.m, self.cycle) {
                self.poke_net(net, v)?;
            }
            self.settle();
            if let Some(t) = observe(self) {
                return Ok(Some((self.cycle, t)));
            }
            self.step();
        }
        Ok(None)
    }

    /// Snapshot of all net values by name (diagnostics).
    pub fn snapshot(&self) -> BTreeMap<String, Value> {
        self.m
            .nets
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), self.values[i].clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_netlist::{Expr, Module, PortDir};

    /// 4-bit counter with enable.
    fn counter() -> Module {
        let mut m = Module::new("ctr");
        let en = m.add_port("en", PortDir::Input, 1);
        let q = m.add_net("q", 4);
        let y = m.add_port("y", PortDir::Output, 4);
        let sq = m.sig(q);
        let one = m.lit(4, 1);
        let inc = m.arena.add(Expr::Add(sq, one));
        let sen = m.sig(en);
        let nxt = m.arena.add(Expr::Mux {
            cond: sen,
            then_: inc,
            else_: sq,
        });
        m.add_reg(q, nxt, Value::from_u64(4, 0));
        let sq2 = m.sig(q);
        m.assign(y, sq2);
        m
    }

    #[test]
    fn counter_counts_when_enabled() {
        let m = counter();
        let mut sim = Simulator::new(&m).unwrap();
        sim.poke("en", Value::from_u64(1, 1)).unwrap();
        for expect in 0..20u64 {
            sim.settle();
            assert_eq!(sim.peek("y").unwrap().to_u64(), expect % 16);
            sim.step();
        }
    }

    #[test]
    fn counter_holds_when_disabled() {
        let m = counter();
        let mut sim = Simulator::new(&m).unwrap();
        sim.poke("en", Value::from_u64(1, 1)).unwrap();
        sim.step();
        sim.step();
        sim.poke("en", Value::from_u64(1, 0)).unwrap();
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.peek("y").unwrap().to_u64(), 2);
    }

    #[test]
    fn reset_restores_initial_state() {
        let m = counter();
        let mut sim = Simulator::new(&m).unwrap();
        sim.poke("en", Value::from_u64(1, 1)).unwrap();
        for _ in 0..7 {
            sim.step();
        }
        assert_eq!(sim.cycle(), 7);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.peek("y").unwrap().to_u64(), 0);
    }

    #[test]
    fn poke_validation() {
        let m = counter();
        let mut sim = Simulator::new(&m).unwrap();
        assert!(matches!(
            sim.poke("nonexistent", Value::zero(1)),
            Err(SimError::UnknownNet(_))
        ));
        assert!(matches!(
            sim.poke("y", Value::zero(4)),
            Err(SimError::NotAnInput(_))
        ));
        assert!(matches!(
            sim.poke("en", Value::zero(2)),
            Err(SimError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn simulator_agrees_with_aig_semantics() {
        // Cross-check the word-level simulator against the bit-blasted AIG
        // on a module with arithmetic, mux and parity.
        let mut m = Module::new("mix");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let y = m.add_port("y", PortDir::Output, 8);
        let p = m.add_port("p", PortDir::Output, 1);
        let q = m.add_net("acc", 8);
        let sa = m.sig(a);
        let sb = m.sig(b);
        let sq = m.sig(q);
        let sum = m.arena.add(Expr::Add(sq, sa));
        let gt = m.arena.add(Expr::Ult(sb, sa));
        let nxt = m.arena.add(Expr::Mux {
            cond: gt,
            then_: sum,
            else_: sb,
        });
        m.add_reg(q, nxt, Value::from_u64(8, 0));
        let sq2 = m.sig(q);
        m.assign(y, sq2);
        let par = m.arena.add(Expr::RedXor(sq2));
        m.assign(p, par);

        let lowered = m.to_aig().unwrap();
        let mut sim = Simulator::new(&m).unwrap();
        // Deterministic pseudo-random inputs.
        let mut state = 0xABCDu64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut aig_inputs = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..50 {
            let av = rnd() & 0xFF;
            let bv = rnd() & 0xFF;
            sim.poke("a", Value::from_u64(8, av)).unwrap();
            sim.poke("b", Value::from_u64(8, bv)).unwrap();
            sim.settle();
            expected.push((
                sim.peek("y").unwrap().to_u64(),
                sim.peek("p").unwrap().to_u64(),
            ));
            sim.step();
            let mut frame = vec![false; lowered.aig.num_inputs()];
            let a_net = m.find_net("a").unwrap();
            let b_net = m.find_net("b").unwrap();
            for bit in 0..8 {
                frame[lowered
                    .aig
                    .input_index(lowered.input_vars[&(a_net, bit)])
                    .unwrap()] = av >> bit & 1 == 1;
                frame[lowered
                    .aig
                    .input_index(lowered.input_vars[&(b_net, bit)])
                    .unwrap()] = bv >> bit & 1 == 1;
            }
            aig_inputs.push(frame);
        }
        let reports = lowered.aig.simulate(&aig_inputs);
        for (k, rep) in reports.iter().enumerate() {
            // Outputs: y[0..8] then p[0].
            let y: u64 = rep.outputs[..8]
                .iter()
                .enumerate()
                .map(|(i, b)| (*b as u64) << i)
                .sum();
            let p = rep.outputs[8] as u64;
            assert_eq!((y, p), expected[k], "cycle {k}");
        }
    }
}
