//! Structural validation and combinational scheduling.
//!
//! [`Module::validate`] checks the single-driver rule and the absence of
//! combinational cycles; [`Module::comb_schedule`] returns the topological
//! evaluation order used by the simulator and the bit-blaster.

use crate::expr::NetId;
use crate::module::{Conn, Module};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Structural rule violations found by [`Module::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A net has more than one driver.
    MultipleDrivers {
        /// The multiply-driven net's name.
        net: String,
    },
    /// A non-input net is read but never driven.
    Undriven {
        /// The floating net's name.
        net: String,
    },
    /// An input port is driven inside the module.
    DrivenInput {
        /// The port name.
        net: String,
    },
    /// Combinational assignments form a cycle.
    CombinationalCycle {
        /// Names of the nets on the cycle.
        nets: Vec<String>,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::MultipleDrivers { net } => write!(f, "net {net} has multiple drivers"),
            ValidateError::Undriven { net } => write!(f, "net {net} is read but never driven"),
            ValidateError::DrivenInput { net } => {
                write!(f, "input port {net} is driven internally")
            }
            ValidateError::CombinationalCycle { nets } => {
                write!(f, "combinational cycle through: {}", nets.join(" -> "))
            }
        }
    }
}

impl Error for ValidateError {}

/// Non-fatal findings from [`Module::validate_all`]: worth reporting to
/// the user, but never grounds for rejecting the module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateWarning {
    /// A driven, non-output net that nothing reads — dead logic a
    /// frontend probably meant to hook up (or prune).
    UnreadNet {
        /// The unread net's name.
        net: String,
    },
}

impl fmt::Display for ValidateWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateWarning::UnreadNet { net } => {
                write!(f, "net {net} is driven but never read")
            }
        }
    }
}

/// Complete diagnostics from one [`Module::validate_all`] pass: every
/// structural violation plus the non-fatal warnings, so frontends can
/// report everything wrong with a module at once instead of fixing one
/// error per compile cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidateReport {
    /// All structural rule violations, in discovery order (drivers,
    /// then reads, then cycles).
    pub errors: Vec<ValidateError>,
    /// Non-fatal findings; a module with only warnings is still valid.
    pub warnings: Vec<ValidateWarning>,
}

impl ValidateReport {
    /// True when no *errors* were found (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Renders every error and warning, one per line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in &self.errors {
            s.push_str("error: ");
            s.push_str(&e.to_string());
            s.push('\n');
        }
        for w in &self.warnings {
            s.push_str("warning: ");
            s.push_str(&w.to_string());
            s.push('\n');
        }
        s
    }
}

/// How a net is driven, as discovered by validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Module input port.
    Input,
    /// Continuous assignment (index into `assigns`).
    Assign(usize),
    /// Register output (index into `regs`).
    Reg(usize),
    /// Child instance output (index into `instances`).
    InstanceOut(usize),
}

impl Module {
    /// Computes the driver of every net.
    ///
    /// # Errors
    ///
    /// Returns an error if a net has multiple drivers or an input port is
    /// internally driven.
    pub fn drivers(&self) -> Result<BTreeMap<NetId, Driver>, ValidateError> {
        let mut map: BTreeMap<NetId, Driver> = BTreeMap::new();
        let set = |net: NetId, d: Driver, m: &mut BTreeMap<NetId, Driver>| {
            if m.insert(net, d).is_some() {
                return Err(ValidateError::MultipleDrivers {
                    net: self.net(net).name.clone(),
                });
            }
            Ok(())
        };
        for p in self.inputs() {
            set(p.net, Driver::Input, &mut map)?;
        }
        for (i, (net, _)) in self.assigns.iter().enumerate() {
            set(*net, Driver::Assign(i), &mut map)?;
        }
        for (i, r) in self.regs.iter().enumerate() {
            set(r.q, Driver::Reg(i), &mut map)?;
        }
        for (i, inst) in self.instances.iter().enumerate() {
            for conn in inst.conns.values() {
                if let Conn::Out(n) = conn {
                    set(*n, Driver::InstanceOut(i), &mut map)?;
                }
            }
        }
        for p in self.inputs() {
            if !matches!(map.get(&p.net), Some(Driver::Input)) {
                return Err(ValidateError::DrivenInput {
                    net: p.name.clone(),
                });
            }
        }
        Ok(map)
    }

    /// Validates structure: single drivers, no floating reads, no
    /// combinational cycles.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let drivers = self.drivers()?;
        // Every net that is *read* must be driven. Reads come from assign
        // rhs, reg next-state, instance input expressions, output ports.
        let mut read: BTreeSet<NetId> = BTreeSet::new();
        for (_, e) in &self.assigns {
            read.extend(self.arena.support(*e));
        }
        for r in &self.regs {
            read.extend(self.arena.support(r.next));
        }
        for inst in &self.instances {
            for conn in inst.conns.values() {
                if let Conn::In(e) = conn {
                    read.extend(self.arena.support(*e));
                }
            }
        }
        for p in self.outputs() {
            read.insert(p.net);
        }
        for n in read {
            if !drivers.contains_key(&n) {
                return Err(ValidateError::Undriven {
                    net: self.net(n).name.clone(),
                });
            }
        }
        self.comb_schedule().map(|_| ())
    }

    /// Validates structure like [`Module::validate`], but collects
    /// **every** violation instead of stopping at the first, and adds
    /// non-fatal warnings ([`ValidateWarning::UnreadNet`]) — one pass,
    /// complete diagnostics.
    ///
    /// Unlike [`Module::drivers`], a second driver on an input port is
    /// classified as the more precise [`ValidateError::DrivenInput`]
    /// here rather than `MultipleDrivers`.
    pub fn validate_all(&self) -> ValidateReport {
        let mut report = ValidateReport::default();
        // Drivers, collecting every conflict while keeping the first
        // driver of each net so downstream checks still run.
        let mut map: BTreeMap<NetId, Driver> = BTreeMap::new();
        let mut set = |net: NetId, d: Driver, report: &mut ValidateReport| {
            if let Some(prev) = map.get(&net) {
                let name = self.net(net).name.clone();
                report.errors.push(if *prev == Driver::Input {
                    ValidateError::DrivenInput { net: name }
                } else {
                    ValidateError::MultipleDrivers { net: name }
                });
            } else {
                map.insert(net, d);
            }
        };
        for p in self.inputs() {
            set(p.net, Driver::Input, &mut report);
        }
        for (i, (net, _)) in self.assigns.iter().enumerate() {
            set(*net, Driver::Assign(i), &mut report);
        }
        for (i, r) in self.regs.iter().enumerate() {
            set(r.q, Driver::Reg(i), &mut report);
        }
        for (i, inst) in self.instances.iter().enumerate() {
            for conn in inst.conns.values() {
                if let Conn::Out(n) = conn {
                    set(*n, Driver::InstanceOut(i), &mut report);
                }
            }
        }
        // Reads: every read net must be driven; every driven non-output
        // net should be read somewhere.
        let mut read: BTreeSet<NetId> = BTreeSet::new();
        for (_, e) in &self.assigns {
            read.extend(self.arena.support(*e));
        }
        for r in &self.regs {
            read.extend(self.arena.support(r.next));
        }
        for inst in &self.instances {
            for conn in inst.conns.values() {
                if let Conn::In(e) = conn {
                    read.extend(self.arena.support(*e));
                }
            }
        }
        for p in self.outputs() {
            read.insert(p.net);
        }
        for n in &read {
            if !map.contains_key(n) {
                report.errors.push(ValidateError::Undriven {
                    net: self.net(*n).name.clone(),
                });
            }
        }
        for (n, d) in &map {
            // Input ports are stimulus, not logic — an unused input is
            // an interface question, not dead internal logic.
            if *d != Driver::Input && !read.contains(n) {
                report.warnings.push(ValidateWarning::UnreadNet {
                    net: self.net(*n).name.clone(),
                });
            }
        }
        if let Err(e) = self.comb_schedule() {
            report.errors.push(e);
        }
        report
    }

    /// Enumerates **every** combinational loop among the continuous
    /// assignments: the strongly-connected components of the assign
    /// dependency graph with more than one member, plus self-dependent
    /// assignments. Registers and inputs break loops, exactly as in
    /// [`Module::comb_schedule`] — but unlike the schedule, which
    /// rejects the module at the first cycle it meets, this never
    /// fails, so lint tooling can report all loops of a module that
    /// deliberately skips [`Module::validate`]. Each loop is the
    /// sorted, deduplicated list of driven-net names on it; loops are
    /// ordered by their first name.
    pub fn comb_loops(&self) -> Vec<Vec<String>> {
        let mut driver_of: BTreeMap<NetId, usize> = BTreeMap::new();
        for (i, (net, _)) in self.assigns.iter().enumerate() {
            driver_of.insert(*net, i);
        }
        let succs: Vec<Vec<u32>> = self
            .assigns
            .iter()
            .map(|(_, e)| {
                let mut s: Vec<u32> = self
                    .arena
                    .support(*e)
                    .into_iter()
                    .filter_map(|n| driver_of.get(&n).map(|&j| j as u32))
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let sccs = veridic_aig::structure::tarjan_sccs(self.assigns.len(), |v| &succs[v]);
        let mut loops: Vec<Vec<String>> = sccs
            .into_iter()
            .filter(|scc| scc.len() > 1 || succs[scc[0] as usize].contains(&scc[0]))
            .map(|scc| {
                let mut names: Vec<String> = scc
                    .iter()
                    .map(|&i| self.net(self.assigns[i as usize].0).name.clone())
                    .collect();
                names.sort();
                names.dedup();
                names
            })
            .collect();
        loops.sort();
        loops
    }

    /// Returns the indices of `assigns` in dependency order: an assignment
    /// appears after every assignment whose target it reads. Register
    /// outputs and inputs are sources and impose no ordering.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError::CombinationalCycle`] if the assignments are
    /// cyclic.
    pub fn comb_schedule(&self) -> Result<Vec<usize>, ValidateError> {
        // net -> assign index driving it
        let mut driver_of: BTreeMap<NetId, usize> = BTreeMap::new();
        for (i, (net, _)) in self.assigns.iter().enumerate() {
            driver_of.insert(*net, i);
        }
        // DFS with colouring.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.assigns.len()];
        let mut order = Vec::with_capacity(self.assigns.len());
        // Iterative DFS to avoid stack overflow on deep chains.
        for start in 0..self.assigns.len() {
            if colour[start] != Colour::White {
                continue;
            }
            let mut stack: Vec<(usize, bool)> = vec![(start, false)];
            while let Some((i, expanded)) = stack.pop() {
                if expanded {
                    colour[i] = Colour::Black;
                    order.push(i);
                    continue;
                }
                if colour[i] == Colour::Black {
                    continue;
                }
                if colour[i] == Colour::Grey {
                    continue;
                }
                colour[i] = Colour::Grey;
                stack.push((i, true));
                for dep_net in self.arena.support(self.assigns[i].1) {
                    if let Some(&j) = driver_of.get(&dep_net) {
                        match colour[j] {
                            Colour::White => stack.push((j, false)),
                            Colour::Grey => {
                                let nets = vec![
                                    self.net(self.assigns[j].0).name.clone(),
                                    self.net(self.assigns[i].0).name.clone(),
                                ];
                                return Err(ValidateError::CombinationalCycle { nets });
                            }
                            Colour::Black => {}
                        }
                    }
                }
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::module::PortDir;
    use crate::value::Value;

    #[test]
    fn clean_module_validates() {
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 4);
        let y = m.add_port("y", PortDir::Output, 4);
        let w = m.add_net("w", 4);
        let ea = m.sig(a);
        let na = m.arena.add(Expr::Not(ea));
        m.assign(w, na);
        let ew = m.sig(w);
        m.assign(y, ew);
        assert!(m.validate().is_ok());
        let sched = m.comb_schedule().unwrap();
        // w's assign (index 0) must come before y's (index 1).
        assert_eq!(sched, vec![0, 1]);
    }

    #[test]
    fn double_drive_detected() {
        let mut m = Module::new("m");
        let y = m.add_port("y", PortDir::Output, 1);
        let t = m.lit(1, 0);
        let u = m.lit(1, 1);
        m.assign(y, t);
        m.assign(y, u);
        assert!(matches!(
            m.validate(),
            Err(ValidateError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn undriven_read_detected() {
        let mut m = Module::new("m");
        let y = m.add_port("y", PortDir::Output, 1);
        let ghost = m.add_net("ghost", 1);
        let eg = m.sig(ghost);
        m.assign(y, eg);
        match m.validate() {
            Err(ValidateError::Undriven { net }) => assert_eq!(net, "ghost"),
            other => panic!("expected Undriven, got {other:?}"),
        }
    }

    #[test]
    fn comb_cycle_detected() {
        let mut m = Module::new("m");
        let a = m.add_net("a", 1);
        let b = m.add_net("b", 1);
        let ea = m.sig(a);
        let eb = m.sig(b);
        let na = m.arena.add(Expr::Not(ea));
        let nb = m.arena.add(Expr::Not(eb));
        m.assign(b, na);
        m.assign(a, nb);
        assert!(matches!(
            m.comb_schedule(),
            Err(ValidateError::CombinationalCycle { .. })
        ));
    }

    /// The lint walk: every loop is enumerated (the schedule stops at
    /// one), self-loops count, registers still break cycles, and a
    /// clean module reports nothing.
    #[test]
    fn comb_loops_enumerates_every_cycle() {
        // Two disjoint loops plus a self-loop plus acyclic logic.
        let mut m = Module::new("m");
        let mk = |m: &mut Module, name: &str| m.add_net(name, 1);
        let a = mk(&mut m, "a");
        let b = mk(&mut m, "b");
        let c = mk(&mut m, "c");
        let d = mk(&mut m, "d");
        let s = mk(&mut m, "s");
        let (ea, eb, ec, ed, es) = (m.sig(a), m.sig(b), m.sig(c), m.sig(d), m.sig(s));
        let na = m.arena.add(Expr::Not(ea));
        let nb = m.arena.add(Expr::Not(eb));
        m.assign(b, na); // a -> b
        m.assign(a, nb); // b -> a   (loop 1: {a, b})
        let nc = m.arena.add(Expr::Not(ec));
        let nd = m.arena.add(Expr::Not(ed));
        m.assign(d, nc); // c -> d
        m.assign(c, nd); // d -> c   (loop 2: {c, d})
        let ns = m.arena.add(Expr::Not(es));
        m.assign(s, ns); // self-loop {s}
        let y = m.add_port("y", PortDir::Output, 1);
        let ea2 = m.sig(a);
        m.assign(y, ea2); // acyclic reader, not on any loop
        let loops = m.comb_loops();
        assert_eq!(
            loops,
            vec![
                vec!["a".to_string(), "b".to_string()],
                vec!["c".to_string(), "d".to_string()],
                vec!["s".to_string()],
            ]
        );
        // The one-shot schedule still rejects the same module.
        assert!(matches!(
            m.comb_schedule(),
            Err(ValidateError::CombinationalCycle { .. })
        ));

        // A registered feedback path is sequential, not a comb loop.
        let mut m2 = Module::new("m2");
        let q = m2.add_net("q", 1);
        let eq_ = m2.sig(q);
        let nq = m2.arena.add(Expr::Not(eq_));
        m2.add_reg(q, nq, Value::from_u64(1, 0));
        assert!(m2.comb_loops().is_empty());
    }

    #[test]
    fn register_breaks_cycle() {
        // q -> next(q) is fine: the register is a sequential element.
        let mut m = Module::new("m");
        let q = m.add_net("q", 4);
        let one = m.lit(4, 1);
        let eq_ = m.sig(q);
        let nxt = m.arena.add(Expr::Add(eq_, one));
        m.add_reg(q, nxt, Value::from_u64(4, 0));
        let y = m.add_port("y", PortDir::Output, 4);
        let eq2 = m.sig(q);
        m.assign(y, eq2);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn driven_input_detected() {
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 1);
        let t = m.lit(1, 0);
        m.assign(a, t);
        assert!(matches!(
            m.validate(),
            Err(ValidateError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn validate_all_collects_every_violation() {
        // One module, three distinct problems: a double-driven output,
        // an internally-driven input, and an undriven read — plus an
        // unread net for the warning channel. `validate()` stops at the
        // first; `validate_all()` must report them all.
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 1);
        let y = m.add_port("y", PortDir::Output, 1);
        let t = m.lit(1, 0);
        let u = m.lit(1, 1);
        m.assign(y, t);
        m.assign(y, u); // MultipleDrivers(y)
        let v = m.lit(1, 0);
        m.assign(a, v); // DrivenInput(a)
        let ghost = m.add_net("ghost", 1);
        let unread = m.add_net("unread", 1);
        let eg = m.sig(ghost);
        m.assign(unread, eg); // Undriven(ghost) + UnreadNet(unread)
        let report = m.validate_all();
        assert!(!report.is_clean());
        assert!(report
            .errors
            .contains(&ValidateError::MultipleDrivers { net: "y".into() }));
        assert!(report
            .errors
            .contains(&ValidateError::DrivenInput { net: "a".into() }));
        assert!(report.errors.contains(&ValidateError::Undriven {
            net: "ghost".into()
        }));
        assert_eq!(report.errors.len(), 3, "{:?}", report.errors);
        assert_eq!(
            report.warnings,
            vec![ValidateWarning::UnreadNet {
                net: "unread".into()
            }]
        );
        // validate() still reports only the first failure.
        assert!(matches!(
            m.validate(),
            Err(ValidateError::MultipleDrivers { .. })
        ));
        // The rendering carries both severities.
        let text = report.render();
        assert!(text.contains("error: net y has multiple drivers"));
        assert!(text.contains("warning: net unread is driven but never read"));
    }

    #[test]
    fn validate_all_warnings_are_non_fatal() {
        // A module whose only finding is an unread register: clean.
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 1);
        let y = m.add_port("y", PortDir::Output, 1);
        let ea = m.sig(a);
        m.assign(y, ea);
        let q = m.add_net("q", 1);
        let ea2 = m.sig(a);
        m.add_reg(q, ea2, Value::from_u64(1, 0));
        let report = m.validate_all();
        assert!(report.is_clean());
        assert_eq!(
            report.warnings,
            vec![ValidateWarning::UnreadNet { net: "q".into() }]
        );
        assert!(m.validate().is_ok(), "warnings must not fail validate()");
    }

    #[test]
    fn validate_all_clean_module_is_empty() {
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 4);
        let y = m.add_port("y", PortDir::Output, 4);
        let ea = m.sig(a);
        m.assign(y, ea);
        let report = m.validate_all();
        assert_eq!(report, ValidateReport::default());
        assert!(report.is_clean());
    }

    #[test]
    fn validate_all_reports_cycles_alongside_other_errors() {
        let mut m = Module::new("m");
        let a = m.add_net("a", 1);
        let b = m.add_net("b", 1);
        let ea = m.sig(a);
        let eb = m.sig(b);
        let na = m.arena.add(Expr::Not(ea));
        let nb = m.arena.add(Expr::Not(eb));
        m.assign(b, na);
        m.assign(a, nb);
        let report = m.validate_all();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ValidateError::CombinationalCycle { .. })));
    }

    #[test]
    fn instance_output_is_a_driver() {
        use crate::module::Instance;
        use std::collections::BTreeMap;
        let mut m = Module::new("m");
        let y = m.add_port("y", PortDir::Output, 1);
        let mut conns = BTreeMap::new();
        conns.insert("o".to_string(), Conn::Out(y));
        m.add_instance(Instance {
            module: "sub".into(),
            name: "u".into(),
            conns,
        });
        let drivers = m.drivers().unwrap();
        assert_eq!(drivers.get(&y), Some(&Driver::InstanceOut(0)));
    }
}
