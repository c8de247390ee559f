//! Modules: the structural unit of the RTL IR.
//!
//! A [`Module`] owns its nets, registers, continuous assignments, submodule
//! instances and an [`ExprArena`]. The IR models a single synchronous clock
//! domain with an optional asynchronous reset, which matches the paper's
//! target design (one `CK`, one `RESET`, all state parity-protected).

use crate::expr::{Expr, ExprArena, ExprId, NetId};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Direction of a module port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

/// A named wire of fixed width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Net {
    /// Name unique within the module.
    pub name: String,
    /// Bit width (>= 1).
    pub width: u32,
    /// Free-form annotations. The methodology layer uses these to mark
    /// integrity checkpoints (e.g. `parity.group`, `checkpoint.kind`).
    pub attrs: BTreeMap<String, String>,
}

/// A module port, referring to one of the module's nets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Port {
    /// Port name (same as the net name).
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Backing net.
    pub net: NetId,
}

/// A D-type register with asynchronous reset.
///
/// Semantics: on every clock edge `q <= next`; while `RESET` is asserted
/// `q = reset_value`. For formal analysis the initial state is
/// `reset_value` and the reset net is tied inactive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reg {
    /// The net holding the register output `q`.
    pub q: NetId,
    /// Next-state expression (width of `q`).
    pub next: ExprId,
    /// Value loaded by reset; also the formal initial state.
    pub reset_value: Value,
}

/// A connection of one instance port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Conn {
    /// An input port of the child, driven by a parent expression.
    In(ExprId),
    /// An output port of the child, driving a parent net.
    Out(NetId),
}

/// An instantiation of a child module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Name of the instantiated module (resolved through the `Design`).
    pub module: String,
    /// Instance name, unique within the parent.
    pub name: String,
    /// Port-name → connection map.
    pub conns: BTreeMap<String, Conn>,
}

/// A hardware module: nets, registers, assignments and child instances.
///
/// # Examples
///
/// ```
/// use veridic_netlist::{Module, PortDir, Expr};
///
/// let mut m = Module::new("leaf");
/// let a = m.add_port("a", PortDir::Input, 4);
/// let y = m.add_port("y", PortDir::Output, 1);
/// let ea = m.arena.net(a, 4);
/// let parity = m.arena.add(Expr::RedXor(ea));
/// m.assign(y, parity);
/// assert!(m.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name, unique within a `Design`.
    pub name: String,
    /// Expression arena for all expressions in this module.
    pub arena: ExprArena,
    /// All nets (indexed by `NetId`).
    pub nets: Vec<Net>,
    /// Ports, in declaration order.
    pub ports: Vec<Port>,
    /// Continuous assignments `net = expr`.
    pub assigns: Vec<(NetId, ExprId)>,
    /// Registers.
    pub regs: Vec<Reg>,
    /// Child instances.
    pub instances: Vec<Instance>,
    /// Module-level annotations.
    pub attrs: BTreeMap<String, String>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            arena: ExprArena::new(),
            nets: Vec::new(),
            ports: Vec::new(),
            assigns: Vec::new(),
            regs: Vec::new(),
            instances: Vec::new(),
            attrs: BTreeMap::new(),
        }
    }

    /// Declares a new net.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or the name is already taken.
    pub fn add_net(&mut self, name: impl Into<String>, width: u32) -> NetId {
        let name = name.into();
        assert!(width > 0, "net {name} must have width >= 1");
        assert!(
            self.find_net(&name).is_none(),
            "duplicate net name {name} in module {}",
            self.name
        );
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name,
            width,
            attrs: BTreeMap::new(),
        });
        id
    }

    /// Declares a net and exposes it as a port.
    pub fn add_port(&mut self, name: impl Into<String>, dir: PortDir, width: u32) -> NetId {
        let name = name.into();
        let net = self.add_net(name.clone(), width);
        self.ports.push(Port { name, dir, net });
        net
    }

    /// Promotes an existing net to a port.
    ///
    /// # Panics
    ///
    /// Panics if the net is already a port.
    pub fn expose(&mut self, net: NetId, dir: PortDir) {
        assert!(
            self.ports.iter().all(|p| p.net != net),
            "net {net:?} is already a port"
        );
        let name = self.nets[net.0 as usize].name.clone();
        self.ports.push(Port { name, dir, net });
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Looks up a port by name.
    pub fn find_port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Returns the net record for an id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Returns a mutable net record (e.g. to add attributes).
    pub fn net_mut(&mut self, id: NetId) -> &mut Net {
        &mut self.nets[id.0 as usize]
    }

    /// Width of a net.
    pub fn net_width(&self, id: NetId) -> u32 {
        self.nets[id.0 as usize].width
    }

    /// Adds a continuous assignment `net = expr`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn assign(&mut self, net: NetId, expr: ExprId) {
        assert_eq!(
            self.net_width(net),
            self.arena.width(expr),
            "assignment width mismatch on net {}",
            self.net(net).name
        );
        self.assigns.push((net, expr));
    }

    /// Adds a register driving `q` with next-state `next`.
    ///
    /// # Panics
    ///
    /// Panics if widths of `q`, `next` and `reset_value` differ.
    pub fn add_reg(&mut self, q: NetId, next: ExprId, reset_value: Value) {
        let w = self.net_width(q);
        assert_eq!(
            w,
            self.arena.width(next),
            "register next-state width mismatch"
        );
        assert_eq!(
            w,
            reset_value.width(),
            "register reset value width mismatch"
        );
        self.regs.push(Reg {
            q,
            next,
            reset_value,
        });
    }

    /// Adds a child instance.
    pub fn add_instance(&mut self, inst: Instance) {
        assert!(
            self.instances.iter().all(|i| i.name != inst.name),
            "duplicate instance name {} in module {}",
            inst.name,
            self.name
        );
        self.instances.push(inst);
    }

    /// Iterates over input ports.
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Iterates over output ports.
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }

    /// True if the module instantiates no children (a *leaf module* in the
    /// paper's sense).
    pub fn is_leaf(&self) -> bool {
        self.instances.is_empty()
    }

    /// Returns the register driving `q`, if any.
    pub fn reg_for(&self, q: NetId) -> Option<&Reg> {
        self.regs.iter().find(|r| r.q == q)
    }

    /// Total number of state bits (sum of register widths).
    pub fn state_bits(&self) -> u32 {
        self.regs.iter().map(|r| self.net_width(r.q)).sum()
    }

    /// Convenience: a constant expression.
    pub fn lit(&mut self, width: u32, bits: u64) -> ExprId {
        self.arena.add(Expr::Const(Value::from_u64(width, bits)))
    }

    /// Convenience: a reference to `net`.
    pub fn sig(&mut self, net: NetId) -> ExprId {
        let w = self.net_width(net);
        self.arena.net(net, w)
    }

    /// Convenience: single-bit select `net[bit]`.
    pub fn sig_bit(&mut self, net: NetId, bit: u32) -> ExprId {
        let s = self.sig(net);
        self.arena.add(Expr::Slice(s, bit, bit))
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "module {} ({} ports, {} nets, {} regs, {} assigns, {} instances)",
            self.name,
            self.ports.len(),
            self.nets.len(),
            self.regs.len(),
            self.assigns.len(),
            self.instances.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_and_nets() {
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 8);
        let y = m.add_port("y", PortDir::Output, 8);
        assert_eq!(m.find_net("a"), Some(a));
        assert_eq!(m.find_port("y").unwrap().net, y);
        assert_eq!(m.inputs().count(), 1);
        assert_eq!(m.outputs().count(), 1);
        assert!(m.is_leaf());
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_net_rejected() {
        let mut m = Module::new("m");
        m.add_net("x", 1);
        m.add_net("x", 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn assign_width_checked() {
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 8);
        let y = m.add_port("y", PortDir::Output, 4);
        let ea = m.sig(a);
        m.assign(y, ea);
    }

    #[test]
    fn register_reset_width_checked() {
        let mut m = Module::new("m");
        let q = m.add_net("q", 4);
        let nxt = m.lit(4, 0);
        m.add_reg(q, nxt, Value::from_u64(4, 0b1000));
        assert_eq!(m.state_bits(), 4);
        assert!(m.reg_for(q).is_some());
    }

    #[test]
    fn attrs_are_settable() {
        let mut m = Module::new("m");
        let q = m.add_net("state", 4);
        m.net_mut(q)
            .attrs
            .insert("checkpoint.kind".into(), "fsm".into());
        assert_eq!(m.net(q).attrs.get("checkpoint.kind").unwrap(), "fsm");
    }
}
