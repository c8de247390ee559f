//! Designs: module collections with hierarchy flattening.

use crate::expr::{Expr, ExprArena, ExprId, NetId};
use crate::module::{Conn, Module, PortDir};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors produced while elaborating or flattening a design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DesignError {
    /// The named top module is not in the design.
    UnknownModule(String),
    /// An instance refers to a module not in the design.
    UnknownChild {
        /// Parent module name.
        parent: String,
        /// Instance name.
        instance: String,
        /// Missing child module name.
        child: String,
    },
    /// An instance connects a port that the child does not declare.
    UnknownPort {
        /// Child module name.
        child: String,
        /// Offending port name.
        port: String,
    },
    /// An instance connection has the wrong direction or width.
    BadConnection {
        /// Child module name.
        child: String,
        /// Port name.
        port: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A child input port is left unconnected.
    UnconnectedInput {
        /// Child module name.
        child: String,
        /// Port name.
        port: String,
    },
    /// The hierarchy contains an instantiation cycle.
    RecursiveHierarchy(String),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::UnknownModule(m) => write!(f, "unknown module {m}"),
            DesignError::UnknownChild {
                parent,
                instance,
                child,
            } => {
                write!(
                    f,
                    "instance {instance} in {parent} refers to unknown module {child}"
                )
            }
            DesignError::UnknownPort { child, port } => {
                write!(f, "module {child} has no port {port}")
            }
            DesignError::BadConnection {
                child,
                port,
                reason,
            } => {
                write!(f, "bad connection to {child}.{port}: {reason}")
            }
            DesignError::UnconnectedInput { child, port } => {
                write!(f, "input {child}.{port} is unconnected")
            }
            DesignError::RecursiveHierarchy(m) => {
                write!(f, "module {m} instantiates itself (possibly indirectly)")
            }
        }
    }
}

impl Error for DesignError {}

/// A collection of modules with a designated top.
///
/// # Examples
///
/// ```
/// use veridic_netlist::{Design, Module};
///
/// let mut d = Design::new("top");
/// d.add_module(Module::new("top"));
/// assert!(d.module("top").is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Design {
    modules: Vec<Module>,
    by_name: BTreeMap<String, usize>,
    top: String,
}

impl Design {
    /// Creates an empty design whose top module will be `top`.
    pub fn new(top: impl Into<String>) -> Self {
        Design {
            modules: Vec::new(),
            by_name: BTreeMap::new(),
            top: top.into(),
        }
    }

    /// Adds (or replaces) a module.
    pub fn add_module(&mut self, m: Module) {
        if let Some(&i) = self.by_name.get(&m.name) {
            self.modules[i] = m;
        } else {
            self.by_name.insert(m.name.clone(), self.modules.len());
            self.modules.push(m);
        }
    }

    /// The designated top module name.
    pub fn top_name(&self) -> &str {
        &self.top
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.by_name.get(name).map(|&i| &self.modules[i])
    }

    /// Mutable module lookup.
    pub fn module_mut(&mut self, name: &str) -> Option<&mut Module> {
        let i = *self.by_name.get(name)?;
        Some(&mut self.modules[i])
    }

    /// Iterates over all modules.
    pub fn modules(&self) -> impl Iterator<Item = &Module> {
        self.modules.iter()
    }

    /// Returns the names of all *leaf* modules (no child instances), the
    /// unit of verification in the paper's methodology.
    pub fn leaf_names(&self) -> Vec<&str> {
        self.modules
            .iter()
            .filter(|m| m.is_leaf())
            .map(|m| m.name.as_str())
            .collect()
    }

    /// Flattens the hierarchy below `top` into a single instance-free
    /// module. Net names become hierarchical (`u0.u1.net`).
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] for unknown modules/ports, direction or
    /// width mismatches, unconnected child inputs, or recursive hierarchies.
    pub fn flatten(&self) -> Result<Module, DesignError> {
        self.flatten_from(&self.top)
    }

    /// Flattens the hierarchy below an arbitrary module.
    ///
    /// # Errors
    ///
    /// See [`Design::flatten`].
    pub fn flatten_from(&self, top: &str) -> Result<Module, DesignError> {
        let top_mod = self
            .module(top)
            .ok_or_else(|| DesignError::UnknownModule(top.to_string()))?;
        let mut flat = Module::new(format!("{}_flat", top));
        flat.attrs = top_mod.attrs.clone();
        let mut stack = vec![top.to_string()];
        // Map top ports 1:1.
        let mut net_map: BTreeMap<NetId, NetId> = BTreeMap::new();
        for net in 0..top_mod.nets.len() {
            let src = NetId(net as u32);
            let n = top_mod.net(src);
            let dst = flat.add_net(n.name.clone(), n.width);
            flat.net_mut(dst).attrs = n.attrs.clone();
            net_map.insert(src, dst);
        }
        for p in &top_mod.ports {
            flat.expose(net_map[&p.net], p.dir);
        }
        self.inline_module(top_mod, "", &net_map, &mut flat, &mut stack)?;
        Ok(flat)
    }

    /// Copies `src`'s assigns/regs into `flat` (net ids already mapped via
    /// `net_map`), then recursively inlines its instances.
    fn inline_module(
        &self,
        src: &Module,
        prefix: &str,
        net_map: &BTreeMap<NetId, NetId>,
        flat: &mut Module,
        stack: &mut Vec<String>,
    ) -> Result<(), DesignError> {
        let mut expr_map: BTreeMap<ExprId, ExprId> = BTreeMap::new();
        for (net, expr) in &src.assigns {
            let e = clone_expr(&src.arena, *expr, net_map, &mut flat.arena, &mut expr_map);
            flat.assign(net_map[net], e);
        }
        for r in &src.regs {
            let e = clone_expr(&src.arena, r.next, net_map, &mut flat.arena, &mut expr_map);
            flat.add_reg(net_map[&r.q], e, r.reset_value.clone());
        }
        for inst in &src.instances {
            let child = self
                .module(&inst.module)
                .ok_or_else(|| DesignError::UnknownChild {
                    parent: src.name.clone(),
                    instance: inst.name.clone(),
                    child: inst.module.clone(),
                })?;
            if stack.contains(&inst.module) {
                return Err(DesignError::RecursiveHierarchy(inst.module.clone()));
            }
            let child_prefix = if prefix.is_empty() {
                format!("{}.", inst.name)
            } else {
                format!("{prefix}{}.", inst.name)
            };
            // Create nets for every child net under the hierarchical name.
            let mut child_net_map: BTreeMap<NetId, NetId> = BTreeMap::new();
            for i in 0..child.nets.len() {
                let src_id = NetId(i as u32);
                let n = child.net(src_id);
                let dst = flat.add_net(format!("{child_prefix}{}", n.name), n.width);
                flat.net_mut(dst).attrs = n.attrs.clone();
                child_net_map.insert(src_id, dst);
            }
            // Wire connections.
            for p in &child.ports {
                match inst.conns.get(&p.name) {
                    Some(Conn::In(e)) => {
                        if p.dir != PortDir::Input {
                            return Err(DesignError::BadConnection {
                                child: child.name.clone(),
                                port: p.name.clone(),
                                reason: "expression connected to an output port".into(),
                            });
                        }
                        let ew = src.arena.width(*e);
                        if ew != child.net_width(p.net) {
                            return Err(DesignError::BadConnection {
                                child: child.name.clone(),
                                port: p.name.clone(),
                                reason: format!(
                                    "width mismatch: port is {} bits, expression is {} bits",
                                    child.net_width(p.net),
                                    ew
                                ),
                            });
                        }
                        let e2 =
                            clone_expr(&src.arena, *e, net_map, &mut flat.arena, &mut expr_map);
                        flat.assign(child_net_map[&p.net], e2);
                    }
                    Some(Conn::Out(n)) => {
                        if p.dir != PortDir::Output {
                            return Err(DesignError::BadConnection {
                                child: child.name.clone(),
                                port: p.name.clone(),
                                reason: "net sink connected to an input port".into(),
                            });
                        }
                        if src.net_width(*n) != child.net_width(p.net) {
                            return Err(DesignError::BadConnection {
                                child: child.name.clone(),
                                port: p.name.clone(),
                                reason: "output width mismatch".into(),
                            });
                        }
                        let w = child.net_width(p.net);
                        let port_ref = flat.arena.net(child_net_map[&p.net], w);
                        flat.assign(net_map[n], port_ref);
                    }
                    None => {
                        if p.dir == PortDir::Input {
                            return Err(DesignError::UnconnectedInput {
                                child: child.name.clone(),
                                port: p.name.clone(),
                            });
                        }
                        // Unconnected outputs simply dangle.
                    }
                }
            }
            // Check for connections to nonexistent ports.
            for name in inst.conns.keys() {
                if child.find_port(name).is_none() {
                    return Err(DesignError::UnknownPort {
                        child: child.name.clone(),
                        port: name.clone(),
                    });
                }
            }
            stack.push(inst.module.clone());
            self.inline_module(child, &child_prefix, &child_net_map, flat, stack)?;
            stack.pop();
        }
        Ok(())
    }
}

/// Deep-copies an expression from one arena into another, remapping nets.
pub(crate) fn clone_expr(
    src: &ExprArena,
    id: ExprId,
    net_map: &BTreeMap<NetId, NetId>,
    dst: &mut ExprArena,
    memo: &mut BTreeMap<ExprId, ExprId>,
) -> ExprId {
    if let Some(&m) = memo.get(&id) {
        return m;
    }
    let out = match src.node(id).clone() {
        Expr::Const(v) => dst.add(Expr::Const(v)),
        Expr::Net(n) => dst.net(net_map[&n], src.width(id)),
        Expr::Not(a) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::Not(a))
        }
        Expr::And(a, b) => bin(src, dst, net_map, memo, a, b, Expr::And),
        Expr::Or(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Or),
        Expr::Xor(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Xor),
        Expr::Add(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Add),
        Expr::Sub(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Sub),
        Expr::Mul(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Mul),
        Expr::Eq(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Eq),
        Expr::Ne(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Ne),
        Expr::Ult(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Ult),
        Expr::Ule(a, b) => bin(src, dst, net_map, memo, a, b, Expr::Ule),
        Expr::RedAnd(a) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::RedAnd(a))
        }
        Expr::RedOr(a) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::RedOr(a))
        }
        Expr::RedXor(a) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::RedXor(a))
        }
        Expr::Shl(a, n) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::Shl(a, n))
        }
        Expr::Shr(a, n) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::Shr(a, n))
        }
        Expr::Mux { cond, then_, else_ } => {
            let cond = clone_expr(src, cond, net_map, dst, memo);
            let then_ = clone_expr(src, then_, net_map, dst, memo);
            let else_ = clone_expr(src, else_, net_map, dst, memo);
            dst.add(Expr::Mux { cond, then_, else_ })
        }
        Expr::Concat(parts) => {
            let parts = parts
                .into_iter()
                .map(|p| clone_expr(src, p, net_map, dst, memo))
                .collect();
            dst.add(Expr::Concat(parts))
        }
        Expr::Repeat(n, a) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::Repeat(n, a))
        }
        Expr::Slice(a, hi, lo) => {
            let a = clone_expr(src, a, net_map, dst, memo);
            dst.add(Expr::Slice(a, hi, lo))
        }
    };
    memo.insert(id, out);
    out
}

fn bin(
    src: &ExprArena,
    dst: &mut ExprArena,
    net_map: &BTreeMap<NetId, NetId>,
    memo: &mut BTreeMap<ExprId, ExprId>,
    a: ExprId,
    b: ExprId,
    mk: fn(ExprId, ExprId) -> Expr,
) -> ExprId {
    let a = clone_expr(src, a, net_map, dst, memo);
    let b = clone_expr(src, b, net_map, dst, memo);
    dst.add(mk(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Instance;
    use crate::value::Value;

    /// child: y = a ^ b (4-bit)
    fn child() -> Module {
        let mut m = Module::new("child");
        let a = m.add_port("a", PortDir::Input, 4);
        let b = m.add_port("b", PortDir::Input, 4);
        let y = m.add_port("y", PortDir::Output, 4);
        let ea = m.sig(a);
        let eb = m.sig(b);
        let x = m.arena.add(Expr::Xor(ea, eb));
        m.assign(y, x);
        m
    }

    fn top_with_child() -> Design {
        let mut top = Module::new("top");
        let p = top.add_port("p", PortDir::Input, 4);
        let q = top.add_port("q", PortDir::Input, 4);
        let r = top.add_port("r", PortDir::Output, 4);
        let ep = top.sig(p);
        let eq_ = top.sig(q);
        let mut conns = BTreeMap::new();
        conns.insert("a".to_string(), Conn::In(ep));
        conns.insert("b".to_string(), Conn::In(eq_));
        conns.insert("y".to_string(), Conn::Out(r));
        top.add_instance(Instance {
            module: "child".into(),
            name: "u0".into(),
            conns,
        });
        let mut d = Design::new("top");
        d.add_module(child());
        d.add_module(top);
        d
    }

    #[test]
    fn flatten_single_level() {
        let d = top_with_child();
        let flat = d.flatten().unwrap();
        assert!(flat.is_leaf());
        assert!(flat.find_net("u0.a").is_some());
        assert!(flat.find_net("u0.y").is_some());
        // Behaviour check: r = p ^ q.
        let r = flat.find_port("r").unwrap().net;
        let vals = |n: NetId| -> Value {
            let name = flat.net(n).name.clone();
            match name.as_str() {
                "p" => Value::from_u64(4, 0b1100),
                "q" => Value::from_u64(4, 0b1010),
                _ => panic!("unexpected source net {name}"),
            }
        };
        // Evaluate by following assigns transitively.
        let v = eval_net(&flat, r, &vals);
        assert_eq!(v.to_u64(), 0b0110);
    }

    /// Tiny reference evaluator for tests: follows assigns recursively.
    fn eval_net(m: &Module, net: NetId, inputs: &dyn Fn(NetId) -> Value) -> Value {
        if let Some((_, e)) = m.assigns.iter().find(|(n, _)| *n == net) {
            m.arena.eval(*e, &|n| eval_net(m, n, inputs))
        } else {
            inputs(net)
        }
    }

    #[test]
    fn flatten_two_levels_prefixes_names() {
        let mut mid = Module::new("mid");
        let a = mid.add_port("a", PortDir::Input, 4);
        let y = mid.add_port("y", PortDir::Output, 4);
        let ea = mid.sig(a);
        let eb = mid.lit(4, 0xF);
        let mut conns = BTreeMap::new();
        conns.insert("a".into(), Conn::In(ea));
        conns.insert("b".into(), Conn::In(eb));
        conns.insert("y".into(), Conn::Out(y));
        mid.add_instance(Instance {
            module: "child".into(),
            name: "inner".into(),
            conns,
        });

        let mut top = Module::new("top");
        let p = top.add_port("p", PortDir::Input, 4);
        let r = top.add_port("r", PortDir::Output, 4);
        let ep = top.sig(p);
        let mut conns = BTreeMap::new();
        conns.insert("a".into(), Conn::In(ep));
        conns.insert("y".into(), Conn::Out(r));
        top.add_instance(Instance {
            module: "mid".into(),
            name: "m0".into(),
            conns,
        });

        let mut d = Design::new("top");
        d.add_module(child());
        d.add_module(mid);
        d.add_module(top);
        let flat = d.flatten().unwrap();
        assert!(
            flat.find_net("m0.inner.y").is_some(),
            "nested names prefixed"
        );
        let r = flat.find_port("r").unwrap().net;
        let v = eval_net(&flat, r, &|n| {
            assert_eq!(flat.net(n).name, "p");
            Value::from_u64(4, 0b0001)
        });
        assert_eq!(v.to_u64(), 0b1110);
    }

    #[test]
    fn unconnected_input_is_error() {
        let mut top = Module::new("top");
        let r = top.add_port("r", PortDir::Output, 4);
        let mut conns = BTreeMap::new();
        conns.insert("y".into(), Conn::Out(r));
        top.add_instance(Instance {
            module: "child".into(),
            name: "u0".into(),
            conns,
        });
        let mut d = Design::new("top");
        d.add_module(child());
        d.add_module(top);
        match d.flatten() {
            Err(DesignError::UnconnectedInput { port, .. }) => assert_eq!(port, "a"),
            other => panic!("expected UnconnectedInput, got {other:?}"),
        }
    }

    #[test]
    fn unknown_port_is_error() {
        let mut top = Module::new("top");
        let r = top.add_port("r", PortDir::Output, 4);
        let z = top.lit(4, 0);
        let mut conns = BTreeMap::new();
        conns.insert("a".into(), Conn::In(z));
        conns.insert("b".into(), Conn::In(z));
        conns.insert("nonexistent".into(), Conn::In(z));
        conns.insert("y".into(), Conn::Out(r));
        top.add_instance(Instance {
            module: "child".into(),
            name: "u0".into(),
            conns,
        });
        let mut d = Design::new("top");
        d.add_module(child());
        d.add_module(top);
        assert!(matches!(d.flatten(), Err(DesignError::UnknownPort { .. })));
    }

    #[test]
    fn width_mismatch_is_error() {
        let mut top = Module::new("top");
        let r = top.add_port("r", PortDir::Output, 4);
        let z = top.lit(8, 0); // wrong width
        let z4 = top.lit(4, 0);
        let mut conns = BTreeMap::new();
        conns.insert("a".into(), Conn::In(z));
        conns.insert("b".into(), Conn::In(z4));
        conns.insert("y".into(), Conn::Out(r));
        top.add_instance(Instance {
            module: "child".into(),
            name: "u0".into(),
            conns,
        });
        let mut d = Design::new("top");
        d.add_module(child());
        d.add_module(top);
        assert!(matches!(
            d.flatten(),
            Err(DesignError::BadConnection { .. })
        ));
    }

    #[test]
    fn leaf_names_reports_leaves_only() {
        let d = top_with_child();
        assert_eq!(d.leaf_names(), vec!["child"]);
    }

    #[test]
    fn registers_survive_flattening() {
        let mut leaf = Module::new("leaf");
        let q = leaf.add_net("q", 4);
        let y = leaf.add_port("y", PortDir::Output, 4);
        let one = leaf.lit(4, 1);
        let eq_ = leaf.sig(q);
        let nxt = leaf.arena.add(Expr::Add(eq_, one));
        leaf.add_reg(q, nxt, Value::from_u64(4, 0b1000));
        let eq2 = leaf.sig(q);
        leaf.assign(y, eq2);

        let mut top = Module::new("top");
        let r = top.add_port("r", PortDir::Output, 4);
        let mut conns = BTreeMap::new();
        conns.insert("y".into(), Conn::Out(r));
        top.add_instance(Instance {
            module: "leaf".into(),
            name: "u".into(),
            conns,
        });
        let mut d = Design::new("top");
        d.add_module(leaf);
        d.add_module(top);
        let flat = d.flatten().unwrap();
        assert_eq!(flat.regs.len(), 1);
        assert_eq!(flat.net(flat.regs[0].q).name, "u.q");
        assert_eq!(flat.regs[0].reset_value, Value::from_u64(4, 0b1000));
    }
}
