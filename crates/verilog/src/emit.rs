//! Verilog emission: netlist IR → synthesizable Verilog source.
//!
//! Used to export generated chips, to produce the paper's Figure-6
//! "Verifiable RTL" listing, and for parse→elaborate→emit round-trip
//! testing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use veridic_netlist::{Conn, Design, Expr, ExprId, Module, NetId, PortDir};

/// Emits a whole design, top module last (children first, so the output
/// file is self-contained and parses in one pass).
pub fn emit_design(design: &Design) -> String {
    let mut names: Vec<&str> = design.modules().map(|m| m.name.as_str()).collect();
    // Children before parents: leaves first by repeated filtering.
    names.sort(); // deterministic base order
    let mut emitted: Vec<&str> = Vec::new();
    while emitted.len() < names.len() {
        let mut progressed = false;
        for &n in &names {
            if emitted.contains(&n) {
                continue;
            }
            let m = design.module(n).expect("listed module exists");
            let ready = m.instances.iter().all(|i| {
                emitted.contains(&i.module.as_str()) || design.module(&i.module).is_none()
            });
            if ready {
                emitted.push(n);
                progressed = true;
            }
        }
        assert!(progressed, "recursive hierarchy in emit_design");
    }
    let mut out = String::new();
    for n in emitted {
        out.push_str(&emit_module(design.module(n).unwrap(), Some(design)));
        out.push('\n');
    }
    out
}

/// Emits one module. `design` (if given) is consulted for child clock and
/// reset ports when printing instances.
pub fn emit_module(m: &Module, design: Option<&Design>) -> String {
    Emitter::new(m, design).run()
}

struct Emitter<'a> {
    m: &'a Module,
    design: Option<&'a Design>,
    aux: Vec<String>,
    aux_count: usize,
    rendered: BTreeMap<ExprId, String>,
}

impl<'a> Emitter<'a> {
    fn new(m: &'a Module, design: Option<&'a Design>) -> Self {
        Emitter {
            m,
            design,
            aux: Vec::new(),
            aux_count: 0,
            rendered: BTreeMap::new(),
        }
    }

    fn clock_name(&self) -> String {
        self.m
            .attrs
            .get("clock")
            .cloned()
            .unwrap_or_else(|| "CK".to_string())
    }

    fn reset_name(&self) -> String {
        self.m
            .attrs
            .get("reset")
            .cloned()
            .unwrap_or_else(|| "RESET".to_string())
    }

    fn needs_clock(&self) -> bool {
        if !self.m.regs.is_empty() {
            return true;
        }
        if let Some(d) = self.design {
            self.m.instances.iter().any(|i| {
                d.module(&i.module)
                    .map(|c| !c.regs.is_empty() || module_needs_clock_rec(c, d))
                    .unwrap_or(false)
            })
        } else {
            false
        }
    }

    fn run(mut self) -> String {
        let mut body = String::new();
        // Internal net declarations (ports are declared in the header).
        let port_nets: Vec<NetId> = self.m.ports.iter().map(|p| p.net).collect();
        let reg_nets: Vec<NetId> = self.m.regs.iter().map(|r| r.q).collect();
        for (i, net) in self.m.nets.iter().enumerate() {
            let id = NetId(i as u32);
            if port_nets.contains(&id) {
                continue;
            }
            let kw = if reg_nets.contains(&id) {
                "reg "
            } else {
                "wire"
            };
            let range = range_str(net.width);
            let _ = writeln!(body, "  {kw} {range}{};", net.name);
        }
        // Continuous assigns.
        let mut assigns = String::new();
        for (net, expr) in &self.m.assigns {
            if reg_nets.contains(net) {
                continue; // register next-state handled in always blocks
            }
            let rhs = self.render(*expr);
            let _ = writeln!(assigns, "  assign {} = {};", self.m.net(*net).name, rhs);
        }
        // Always blocks, one per register.
        let ck = self.clock_name();
        let rst = self.reset_name();
        let mut always = String::new();
        for r in &self.m.regs {
            let name = self.m.net(r.q).name.clone();
            let next = self.render(r.next);
            let _ = writeln!(always, "  always @(posedge {ck} or posedge {rst})");
            let _ = writeln!(always, "    if ({rst}) {name} <= {};", r.reset_value);
            let _ = writeln!(always, "    else {name} <= {next};");
        }
        // Instances.
        let mut insts = String::new();
        for inst in &self.m.instances {
            let _ = writeln!(insts, "  {} {} (", inst.module, inst.name);
            let mut lines = Vec::new();
            // Child clock/reset wiring.
            if let Some(d) = self.design {
                if let Some(child) = d.module(&inst.module) {
                    if !child.regs.is_empty() || module_needs_clock_rec(child, d) {
                        let cck = child
                            .attrs
                            .get("clock")
                            .cloned()
                            .unwrap_or_else(|| "CK".into());
                        let crst = child
                            .attrs
                            .get("reset")
                            .cloned()
                            .unwrap_or_else(|| "RESET".into());
                        lines.push(format!("    .{cck}({ck})"));
                        lines.push(format!("    .{crst}({rst})"));
                    }
                }
            }
            for (port, conn) in &inst.conns {
                let rhs = match conn {
                    Conn::In(e) => self.render(*e),
                    Conn::Out(n) => self.m.net(*n).name.clone(),
                };
                lines.push(format!("    .{port}({rhs})"));
            }
            let _ = writeln!(insts, "{}", lines.join(",\n"));
            let _ = writeln!(insts, "  );");
        }
        // Header.
        let mut head = String::new();
        let _ = writeln!(head, "module {} (", self.m.name);
        let mut port_lines = Vec::new();
        if self.needs_clock() {
            port_lines.push(format!("  input  {ck}"));
            port_lines.push(format!("  input  {rst}"));
        }
        for p in &self.m.ports {
            let dir = match p.dir {
                PortDir::Input => "input ",
                PortDir::Output => "output",
            };
            let range = range_str(self.m.net_width(p.net));
            port_lines.push(format!("  {dir} {range}{}", p.name));
        }
        let _ = writeln!(head, "{}", port_lines.join(",\n"));
        let _ = writeln!(head, ");");

        let mut out = head;
        out.push_str(&body);
        for a in &self.aux {
            out.push_str(a);
        }
        out.push_str(&assigns);
        out.push_str(&always);
        out.push_str(&insts);
        out.push_str("endmodule\n");
        out
    }

    /// Renders an expression, introducing auxiliary wires where Verilog
    /// syntax requires an identifier (slices of computed values).
    fn render(&mut self, e: ExprId) -> String {
        if let Some(s) = self.rendered.get(&e) {
            return s.clone();
        }
        let arena = &self.m.arena;
        let s = match arena.node(e).clone() {
            Expr::Const(v) => format!("{v}"),
            Expr::Net(n) => self.m.net(n).name.clone(),
            Expr::Not(a) => format!("~{}", self.paren(a)),
            Expr::And(a, b) => format!("({} & {})", self.render(a), self.render(b)),
            Expr::Or(a, b) => format!("({} | {})", self.render(a), self.render(b)),
            Expr::Xor(a, b) => format!("({} ^ {})", self.render(a), self.render(b)),
            Expr::RedAnd(a) => format!("&{}", self.paren(a)),
            Expr::RedOr(a) => format!("|{}", self.paren(a)),
            Expr::RedXor(a) => format!("^{}", self.paren(a)),
            Expr::Add(a, b) => format!("({} + {})", self.render(a), self.render(b)),
            Expr::Sub(a, b) => format!("({} - {})", self.render(a), self.render(b)),
            Expr::Mul(a, b) => format!("({} * {})", self.render(a), self.render(b)),
            Expr::Eq(a, b) => format!("({} == {})", self.render(a), self.render(b)),
            Expr::Ne(a, b) => format!("({} != {})", self.render(a), self.render(b)),
            Expr::Ult(a, b) => format!("({} < {})", self.render(a), self.render(b)),
            Expr::Ule(a, b) => format!("({} <= {})", self.render(a), self.render(b)),
            Expr::Shl(a, n) => format!("({} << {n})", self.render(a)),
            Expr::Shr(a, n) => format!("({} >> {n})", self.render(a)),
            Expr::Mux { cond, then_, else_ } => format!(
                "({} ? {} : {})",
                self.render(cond),
                self.render(then_),
                self.render(else_)
            ),
            Expr::Concat(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| self.render(*p)).collect();
                format!("{{{}}}", inner.join(", "))
            }
            Expr::Repeat(n, a) => format!("{{{}{{{}}}}}", n, self.render(a)),
            Expr::Slice(a, hi, lo) => {
                let base = match arena.node(a) {
                    Expr::Net(n) => self.m.net(*n).name.clone(),
                    _ => {
                        // Verilog cannot select from an expression: create
                        // an auxiliary wire.
                        let w = arena.width(a);
                        let name = format!("_veridic_t{}", self.aux_count);
                        self.aux_count += 1;
                        let rhs = self.render(a);
                        self.aux.push(format!(
                            "  wire {}{name};\n  assign {name} = {rhs};\n",
                            range_str(w)
                        ));
                        name
                    }
                };
                if hi == lo {
                    format!("{base}[{hi}]")
                } else {
                    format!("{base}[{hi}:{lo}]")
                }
            }
        };
        self.rendered.insert(e, s.clone());
        s
    }

    /// Renders with parens for unary operand positions.
    fn paren(&mut self, e: ExprId) -> String {
        let s = self.render(e);
        if s.starts_with('(')
            || s.starts_with('{')
            || !s.contains(|c: char| " +-*&|^<>?~!".contains(c))
        {
            s
        } else {
            format!("({s})")
        }
    }
}

fn module_needs_clock_rec(m: &Module, d: &Design) -> bool {
    if !m.regs.is_empty() {
        return true;
    }
    m.instances.iter().any(|i| {
        d.module(&i.module)
            .map(|c| module_needs_clock_rec(c, d))
            .unwrap_or(false)
    })
}

fn range_str(width: u32) -> String {
    if width == 1 {
        String::new()
    } else {
        format!("[{}:0] ", width - 1)
    }
}
