//! Elaboration: Verilog AST → `veridic-netlist` IR.
//!
//! The elaborator performs constant folding of parameters, width inference
//! for unsized literals, symbolic execution of always blocks (producing
//! mux trees for `if`/`case`), asynchronous-reset extraction in the
//! paper's Figure-6 idiom, and hierarchy resolution to a
//! [`veridic_netlist::Design`].
//!
//! Restrictions of the supported subset (checked, not silently
//! mis-compiled): declared ranges must end at bit 0 (`[w-1:0]`), shift
//! amounts and part-select bounds must be constants, clocked blocks use
//! non-blocking assignments only, and combinational blocks must fully
//! assign their targets on every path.

use crate::ast::*;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use veridic_netlist::{Conn, Design, Expr, ExprId, Instance, Module, NetId, PortDir, Value};

/// Elaboration errors, with the offending module for context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElabError {
    /// Module being elaborated.
    pub module: String,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "elaboration error in module {}: {}",
            self.module, self.message
        )
    }
}

impl Error for ElabError {}

/// Elaborates a parsed source file into a [`Design`] rooted at `top`.
///
/// # Errors
///
/// Returns an [`ElabError`] on width mismatches, unsupported constructs,
/// undeclared names, incomplete combinational assignment, or non-constant
/// reset values.
pub fn elaborate(sf: &SourceFile, top: &str) -> Result<Design, ElabError> {
    let mut design = Design::new(top);
    // Port widths are needed before bodies (for instance connections), so
    // compute them in a first pass.
    // Clock/reset names are design-global (single clock domain): any port
    // with one of these names is implicit in the IR, including on wrapper
    // modules that merely pass CK/RESET through to children.
    let mut clocks = std::collections::BTreeSet::new();
    let mut resets = std::collections::BTreeSet::new();
    for md in &sf.modules {
        for ab in &md.always {
            if let AlwaysKind::Clocked { clock, reset } = &ab.kind {
                clocks.insert(clock.clone());
                if let Some(r) = reset {
                    resets.insert(r.clone());
                }
            }
        }
    }
    let globals = Globals { clocks, resets };
    let mut headers: BTreeMap<String, Header> = BTreeMap::new();
    for md in &sf.modules {
        headers.insert(md.name.clone(), module_header(md, &globals)?);
    }
    for md in &sf.modules {
        let m = ModuleElab::new(md, &headers, &globals)?.run()?;
        design.add_module(m);
    }
    Ok(design)
}

/// Design-wide clock and reset signal names.
#[derive(Clone, Debug, Default)]
struct Globals {
    clocks: std::collections::BTreeSet<String>,
    resets: std::collections::BTreeSet<String>,
}

impl Globals {
    fn is_implicit(&self, name: &str) -> bool {
        self.clocks.contains(name) || self.resets.contains(name)
    }
}

/// Pre-computed interface of a module: ports plus implicit clock/reset.
#[derive(Clone, Debug)]
struct Header {
    ports: Vec<(String, PortDir, u32)>,
    clock: Option<String>,
    reset: Option<String>,
}

/// Computes the port list and implicit clock/reset of a module declaration.
fn module_header(md: &ModuleDecl, globals: &Globals) -> Result<Header, ElabError> {
    let err = |m: &str| ElabError {
        module: md.name.clone(),
        message: m.to_string(),
    };
    let params = fold_params(md)?;
    let mut clock = None;
    let mut reset = None;
    for ab in &md.always {
        if let AlwaysKind::Clocked { clock: c, reset: r } = &ab.kind {
            clock.get_or_insert_with(|| c.clone());
            if let Some(r) = r {
                reset.get_or_insert_with(|| r.clone());
            }
        }
    }
    let mut out = Vec::new();
    for p in &md.ports {
        if globals.is_implicit(&p.name) {
            continue;
        }
        let (dir, width) = match p.dir {
            Some(d) => {
                let w = match &p.range {
                    None => 1,
                    Some((msb, lsb)) => range_width(md, &params, msb, lsb)?,
                };
                (conv_dir(d), w)
            }
            None => {
                // Non-ANSI: find the body declaration.
                let mut found = None;
                for nd in &md.nets {
                    if let NetKind::PortDir(d) = nd.kind {
                        if nd.names.contains(&p.name) {
                            let w = match &nd.range {
                                None => 1,
                                Some((msb, lsb)) => range_width(md, &params, msb, lsb)?,
                            };
                            found = Some((conv_dir(d), w));
                        }
                    }
                }
                found
                    .ok_or_else(|| err(&format!("port {} has no direction declaration", p.name)))?
            }
        };
        out.push((p.name.clone(), dir, width));
    }
    Ok(Header {
        ports: out,
        clock,
        reset,
    })
}

fn conv_dir(d: Dir) -> PortDir {
    match d {
        Dir::Input => PortDir::Input,
        Dir::Output => PortDir::Output,
    }
}

/// Evaluates the module's parameters to constants.
fn fold_params(md: &ModuleDecl) -> Result<BTreeMap<String, u64>, ElabError> {
    let mut params = BTreeMap::new();
    for (name, e) in &md.params {
        let v = const_eval(md, &params, e)?;
        params.insert(name.clone(), v);
    }
    Ok(params)
}

fn range_width(
    md: &ModuleDecl,
    params: &BTreeMap<String, u64>,
    msb: &AstExpr,
    lsb: &AstExpr,
) -> Result<u32, ElabError> {
    let err = |m: String| ElabError {
        module: md.name.clone(),
        message: m,
    };
    let msb = const_eval(md, params, msb)?;
    let lsb = const_eval(md, params, lsb)?;
    if lsb != 0 {
        return Err(err(format!(
            "range [{}:{}]: only [w-1:0] ranges are supported",
            msb, lsb
        )));
    }
    Ok((msb + 1) as u32)
}

/// Constant expression evaluation (parameters and integer arithmetic).
fn const_eval(
    md: &ModuleDecl,
    params: &BTreeMap<String, u64>,
    e: &AstExpr,
) -> Result<u64, ElabError> {
    let err = |m: String| ElabError {
        module: md.name.clone(),
        message: m,
    };
    Ok(match e {
        AstExpr::Number(n) => *n,
        AstExpr::Sized(_, v) => *v,
        AstExpr::Ident(name) => *params
            .get(name)
            .ok_or_else(|| err(format!("'{name}' is not a constant parameter")))?,
        AstExpr::Unary("~", a) => !const_eval(md, params, a)?,
        AstExpr::Binary(op, a, b) => {
            let a = const_eval(md, params, a)?;
            let b = const_eval(md, params, b)?;
            match *op {
                "+" => a.wrapping_add(b),
                "-" => a.wrapping_sub(b),
                "*" => a.wrapping_mul(b),
                "/" => a
                    .checked_div(b)
                    .ok_or_else(|| err("division by zero".into()))?,
                "<<" => a << b,
                ">>" => a >> b,
                _ => return Err(err(format!("operator '{op}' not allowed in constants"))),
            }
        }
        other => return Err(err(format!("expression {other:?} is not constant"))),
    })
}

struct ModuleElab<'a> {
    md: &'a ModuleDecl,
    headers: &'a BTreeMap<String, Header>,
    globals: &'a Globals,
    params: BTreeMap<String, u64>,
    m: Module,
    nets: BTreeMap<String, NetId>,
    clock: Option<String>,
    reset: Option<String>,
}

/// Symbolic-execution environment: target name → current expression.
type Env = BTreeMap<String, ExprId>;

impl<'a> ModuleElab<'a> {
    fn new(
        md: &'a ModuleDecl,
        headers: &'a BTreeMap<String, Header>,
        globals: &'a Globals,
    ) -> Result<Self, ElabError> {
        let params = fold_params(md)?;
        Ok(ModuleElab {
            md,
            headers,
            globals,
            params,
            m: Module::new(md.name.clone()),
            nets: BTreeMap::new(),
            clock: None,
            reset: None,
        })
    }

    fn err<T>(&self, m: impl Into<String>) -> Result<T, ElabError> {
        Err(ElabError {
            module: self.md.name.clone(),
            message: m.into(),
        })
    }

    fn run(mut self) -> Result<Module, ElabError> {
        // Identify clock/reset names first: they become implicit.
        for ab in &self.md.always {
            if let AlwaysKind::Clocked { clock, reset } = &ab.kind {
                match &self.clock {
                    None => self.clock = Some(clock.clone()),
                    Some(c) if c == clock => {}
                    Some(c) => {
                        return self.err(format!(
                            "multiple clocks: {c} and {clock} (single clock domain only)"
                        ))
                    }
                }
                if let Some(r) = reset {
                    match &self.reset {
                        None => self.reset = Some(r.clone()),
                        Some(r0) if r0 == r => {}
                        Some(r0) => return self.err(format!("multiple resets: {r0} and {r}")),
                    }
                }
            }
        }
        if let Some(c) = self
            .clock
            .clone()
            .or_else(|| self.globals.clocks.iter().next().cloned())
        {
            self.m.attrs.insert("clock".into(), c);
        }
        if let Some(r) = self
            .reset
            .clone()
            .or_else(|| self.globals.resets.iter().next().cloned())
        {
            self.m.attrs.insert("reset".into(), r);
        }
        // Declare ports (clock/reset are implicit in the IR and were
        // already removed from the header).
        let header = self.headers[&self.md.name].clone();
        for (name, dir, width) in &header.ports {
            let id = self.m.add_port(name.clone(), *dir, *width);
            self.nets.insert(name.clone(), id);
        }
        // Declare internal nets.
        for nd in &self.md.nets {
            if matches!(nd.kind, NetKind::PortDir(_)) {
                continue; // already declared via header
            }
            let width = match &nd.range {
                None => 1,
                Some((msb, lsb)) => range_width(self.md, &self.params, msb, lsb)?,
            };
            for name in &nd.names {
                if self.is_clock_or_reset(name) || self.nets.contains_key(name) {
                    continue;
                }
                let id = self.m.add_net(name.clone(), width);
                self.nets.insert(name.clone(), id);
            }
        }
        // Continuous assignments.
        let assigns = self.md.assigns.clone();
        for (t, e) in &assigns {
            let (net, width) = self.whole_target(t)?;
            let expr = self.expr(e, Some(width), &Env::new())?;
            if self.m.arena.width(expr) != width {
                return self.err(format!(
                    "assign to {}: width {} vs {}",
                    self.m.net(net).name,
                    width,
                    self.m.arena.width(expr)
                ));
            }
            self.m.assign(net, expr);
        }
        // Always blocks.
        let always = self.md.always.clone();
        for ab in &always {
            match &ab.kind {
                AlwaysKind::Clocked { .. } => self.clocked_block(&ab.body)?,
                AlwaysKind::Comb => self.comb_block(&ab.body)?,
            }
        }
        // Instances.
        let instances = self.md.instances.clone();
        for inst in &instances {
            self.instance(inst)?;
        }
        Ok(self.m)
    }

    fn is_clock_or_reset(&self, name: &str) -> bool {
        self.clock.as_deref() == Some(name)
            || self.reset.as_deref() == Some(name)
            || self.globals.is_implicit(name)
    }

    fn net_of(&self, name: &str) -> Result<NetId, ElabError> {
        self.nets.get(name).copied().ok_or_else(|| ElabError {
            module: self.md.name.clone(),
            message: format!("undeclared identifier '{name}'"),
        })
    }

    fn whole_target(&mut self, t: &Target) -> Result<(NetId, u32), ElabError> {
        match t {
            Target::Ident(name) => {
                let net = self.net_of(name)?;
                Ok((net, self.m.net_width(net)))
            }
            _ => self.err("continuous assignment targets must be whole nets"),
        }
    }

    /// Elaborates a clocked always block. Expected (Figure 6) shape:
    /// optional leading `if (RESET) <constant assigns> else <logic>`, and
    /// non-blocking assignments throughout.
    fn clocked_block(&mut self, body: &Stmt) -> Result<(), ElabError> {
        // Split the reset arm if the top is `if (RESET) ...`.
        let (reset_stmt, logic_stmt): (Option<&Stmt>, &Stmt) = match body {
            Stmt::If(AstExpr::Ident(c), t, Some(e)) if self.reset.as_deref() == Some(c) => {
                (Some(t), e)
            }
            Stmt::If(AstExpr::Ident(c), _, None) if self.reset.as_deref() == Some(c) => {
                return self.err("reset-only always block has no next-state logic");
            }
            other => (None, other),
        };
        // Targets assigned by the logic.
        let mut targets = Vec::new();
        collect_targets(logic_stmt, &mut targets);
        if let Some(r) = reset_stmt {
            let mut rt = Vec::new();
            collect_targets(r, &mut rt);
            for t in &rt {
                if !targets.contains(t) {
                    targets.push(t.clone());
                }
            }
        }
        // Initial env: every reg holds its own value.
        let mut env = Env::new();
        for name in &targets {
            let net = self.net_of(name)?;
            let e = self.m.sig(net);
            env.insert(name.clone(), e);
        }
        let env = self.exec(logic_stmt, env, /*blocking=*/ false)?;
        // Reset values.
        let mut reset_vals: BTreeMap<String, Value> = BTreeMap::new();
        if let Some(rs) = reset_stmt {
            let mut renv = Env::new();
            let renv_out = self.exec(rs, std::mem::take(&mut renv), false)?;
            for (name, expr) in renv_out {
                match self.m.arena.node(expr) {
                    Expr::Const(v) => {
                        reset_vals.insert(name, v.clone());
                    }
                    _ => return self.err(format!("reset value of '{name}' is not a constant")),
                }
            }
        }
        for name in &targets {
            let net = self.net_of(name)?;
            let w = self.m.net_width(net);
            let next = env[name];
            let rv = reset_vals
                .get(name)
                .cloned()
                .unwrap_or_else(|| Value::zero(w));
            if rv.width() != w {
                return self.err(format!(
                    "reset value width mismatch on '{name}': {} vs {}",
                    rv.width(),
                    w
                ));
            }
            self.m.add_reg(net, next, rv);
        }
        Ok(())
    }

    /// Elaborates a combinational always block into continuous assigns.
    fn comb_block(&mut self, body: &Stmt) -> Result<(), ElabError> {
        let env = self.exec(body, Env::new(), /*blocking=*/ true)?;
        for (name, expr) in env {
            let net = self.net_of(&name)?;
            self.m.assign(net, expr);
        }
        Ok(())
    }

    /// Symbolic execution of a statement. `env` maps names already
    /// assigned in this block to their current expression.
    fn exec(&mut self, s: &Stmt, mut env: Env, blocking: bool) -> Result<Env, ElabError> {
        match s {
            Stmt::Block(stmts) => {
                for st in stmts {
                    env = self.exec(st, env, blocking)?;
                }
                Ok(env)
            }
            Stmt::NonBlocking(t, e) | Stmt::Blocking(t, e) => {
                let ok = matches!(s, Stmt::NonBlocking(..)) != blocking;
                if !ok {
                    return self.err(if blocking {
                        "combinational blocks must use blocking assignments (=)"
                    } else {
                        "clocked blocks must use non-blocking assignments (<=)"
                    });
                }
                self.exec_assign(t, e, &mut env, blocking)?;
                Ok(env)
            }
            Stmt::If(c, t, e) => {
                // Non-blocking semantics: conditions read the pre-block
                // (register) values, not the accumulated next-state.
                let read = if blocking { env.clone() } else { Env::new() };
                let cond = self.expr_bool(c, &read)?;
                let env_t = self.exec(t, env.clone(), blocking)?;
                let env_e = match e {
                    Some(e) => self.exec(e, env.clone(), blocking)?,
                    None => env.clone(),
                };
                self.merge(cond, env_t, env_e, &env)
            }
            Stmt::Case {
                sel,
                items,
                default,
            } => {
                // Lower to an if-else chain, last item innermost.
                let read = if blocking { env.clone() } else { Env::new() };
                let base_env = match default {
                    Some(d) => self.exec(d, env.clone(), blocking)?,
                    None => env.clone(),
                };
                let mut acc = base_env;
                for (labels, body) in items.iter().rev() {
                    let sel_e = self.expr(sel, None, &read)?;
                    let sel_w = self.m.arena.width(sel_e);
                    let mut cond = None;
                    for l in labels {
                        let lv = self.expr(l, Some(sel_w), &read)?;
                        let eq = self.m.arena.add(Expr::Eq(sel_e, lv));
                        cond = Some(match cond {
                            None => eq,
                            Some(c) => self.m.arena.add(Expr::Or(c, eq)),
                        });
                    }
                    let cond = cond.ok_or_else(|| ElabError {
                        module: self.md.name.clone(),
                        message: "case item with no labels".into(),
                    })?;
                    let env_t = self.exec(body, env.clone(), blocking)?;
                    acc = self.merge(cond, env_t, acc, &env)?;
                }
                Ok(acc)
            }
        }
    }

    fn exec_assign(
        &mut self,
        t: &Target,
        e: &AstExpr,
        env: &mut Env,
        blocking: bool,
    ) -> Result<(), ElabError> {
        match t {
            Target::Ident(name) => {
                let net = self.net_of(name)?;
                let w = self.m.net_width(net);
                let read = if blocking { env.clone() } else { Env::new() };
                let val = self.expr(e, Some(w), &read)?;
                if self.m.arena.width(val) != w {
                    return self.err(format!(
                        "assignment to '{name}': width {} vs {}",
                        w,
                        self.m.arena.width(val)
                    ));
                }
                env.insert(name.clone(), val);
                Ok(())
            }
            Target::Slice(name, msb, lsb) => {
                // Read-modify-write on the current value.
                let net = self.net_of(name)?;
                let w = self.m.net_width(net);
                let msb = const_eval(self.md, &self.params, msb)? as u32;
                let lsb = const_eval(self.md, &self.params, lsb)? as u32;
                if msb >= w || lsb > msb {
                    return self.err(format!("slice [{msb}:{lsb}] out of range for '{name}'"));
                }
                let cur = match env.get(name) {
                    Some(e) => *e,
                    None => {
                        if blocking {
                            return self.err(format!(
                                "partial assignment to '{name}' before any full assignment"
                            ));
                        }
                        self.m.sig(net)
                    }
                };
                let read = if blocking { env.clone() } else { Env::new() };
                let val = self.expr(e, Some(msb - lsb + 1), &read)?;
                let mut parts: Vec<ExprId> = Vec::new(); // MSB first
                if msb + 1 < w {
                    parts.push(self.m.arena.add(Expr::Slice(cur, w - 1, msb + 1)));
                }
                parts.push(val);
                if lsb > 0 {
                    parts.push(self.m.arena.add(Expr::Slice(cur, lsb - 1, 0)));
                }
                let merged = if parts.len() == 1 {
                    parts[0]
                } else {
                    self.m.arena.add(Expr::Concat(parts))
                };
                env.insert(name.clone(), merged);
                Ok(())
            }
            Target::Concat(parts) => {
                // {a, b} <= e  →  split e by the part widths, MSB first.
                let widths: Vec<u32> = parts
                    .iter()
                    .map(|p| match p {
                        Target::Ident(n) => {
                            let net = self.net_of(n)?;
                            Ok(self.m.net_width(net))
                        }
                        _ => self.err("nested selects in concat targets are not supported"),
                    })
                    .collect::<Result<_, _>>()?;
                let total: u32 = widths.iter().sum();
                let read = if blocking { env.clone() } else { Env::new() };
                let val = self.expr(e, Some(total), &read)?;
                if self.m.arena.width(val) != total {
                    return self.err(format!(
                        "concat target width {total} vs expression {}",
                        self.m.arena.width(val)
                    ));
                }
                let mut hi = total;
                for (p, w) in parts.iter().zip(&widths) {
                    let slice = self.m.arena.add(Expr::Slice(val, hi - 1, hi - w));
                    self.exec_assign_simple(p, slice, env)?;
                    hi -= w;
                }
                Ok(())
            }
        }
    }

    fn exec_assign_simple(
        &mut self,
        t: &Target,
        val: ExprId,
        env: &mut Env,
    ) -> Result<(), ElabError> {
        match t {
            Target::Ident(name) => {
                env.insert(name.clone(), val);
                Ok(())
            }
            _ => self.err("unsupported nested target"),
        }
    }

    /// Merges two branch environments under `cond` (mux per differing key).
    fn merge(
        &mut self,
        cond: ExprId,
        env_t: Env,
        env_e: Env,
        base: &Env,
    ) -> Result<Env, ElabError> {
        let mut out = Env::new();
        let keys: std::collections::BTreeSet<&String> = env_t.keys().chain(env_e.keys()).collect();
        for k in keys {
            let t = env_t.get(k).or_else(|| base.get(k));
            let e = env_e.get(k).or_else(|| base.get(k));
            let v = match (t, e) {
                (Some(&t), Some(&e)) => {
                    if t == e {
                        t
                    } else {
                        self.m.arena.add(Expr::Mux {
                            cond,
                            then_: t,
                            else_: e,
                        })
                    }
                }
                _ => {
                    return self.err(format!(
                        "'{k}' is not assigned on all paths (would infer a latch)"
                    ))
                }
            };
            out.insert(k.clone(), v);
        }
        Ok(out)
    }

    fn instance(&mut self, inst: &InstanceDecl) -> Result<(), ElabError> {
        let header = self
            .headers
            .get(&inst.module)
            .ok_or_else(|| ElabError {
                module: self.md.name.clone(),
                message: format!("unknown module '{}'", inst.module),
            })?
            .clone();
        let mut conns = BTreeMap::new();
        for (port, expr) in &inst.conns {
            let Some((_, dir, width)) = header.ports.iter().find(|(n, _, _)| n == port) else {
                // Clock/reset ports of the child are implicit in the IR:
                // connections to them are dropped.
                if header.clock.as_deref() == Some(port)
                    || header.reset.as_deref() == Some(port)
                    || self.globals.is_implicit(port)
                {
                    continue;
                }
                return self.err(format!("module {} has no port '{port}'", inst.module));
            };
            let Some(expr) = expr else {
                if *dir == PortDir::Input {
                    return self.err(format!("input port '{port}' left unconnected"));
                }
                continue;
            };
            match dir {
                PortDir::Input => {
                    let e = self.expr(expr, Some(*width), &Env::new())?;
                    conns.insert(port.clone(), Conn::In(e));
                }
                PortDir::Output => match expr {
                    AstExpr::Ident(name) => {
                        let net = self.net_of(name)?;
                        conns.insert(port.clone(), Conn::Out(net));
                    }
                    _ => {
                        return self
                            .err(format!("output port '{port}' must connect to a plain net"))
                    }
                },
            }
        }
        self.m.add_instance(Instance {
            module: inst.module.clone(),
            name: inst.name.clone(),
            conns,
        });
        Ok(())
    }

    /// Elaborates an expression to a 1-bit condition.
    fn expr_bool(&mut self, e: &AstExpr, env: &Env) -> Result<ExprId, ElabError> {
        let x = self.expr(e, None, env)?;
        Ok(if self.m.arena.width(x) == 1 {
            x
        } else {
            self.m.arena.add(Expr::RedOr(x))
        })
    }

    /// Elaborates an expression. `ctx` is the width imposed by the
    /// surrounding context, used to size unsized literals.
    fn expr(&mut self, e: &AstExpr, ctx: Option<u32>, env: &Env) -> Result<ExprId, ElabError> {
        Ok(match e {
            AstExpr::Ident(name) => {
                if let Some(v) = env.get(name) {
                    *v
                } else if let Some(&c) = self.params.get(name) {
                    let w = ctx.unwrap_or(32);
                    self.m.arena.add(Expr::Const(Value::from_u64(w, c)))
                } else {
                    let net = self.net_of(name)?;
                    self.m.sig(net)
                }
            }
            AstExpr::Number(n) => {
                let w = ctx.ok_or_else(|| ElabError {
                    module: self.md.name.clone(),
                    message: format!("cannot infer width of unsized literal {n}"),
                })?;
                if w < 64 && n >> w != 0 {
                    return self.err(format!("literal {n} does not fit in {w} bits"));
                }
                self.m.arena.add(Expr::Const(Value::from_u64(w, *n)))
            }
            AstExpr::Sized(w, v) => self.m.arena.add(Expr::Const(Value::from_u64(*w, *v))),
            AstExpr::Unary(op, a) => match *op {
                "~" => {
                    let x = self.expr(a, ctx, env)?;
                    self.m.arena.add(Expr::Not(x))
                }
                "!" => {
                    let x = self.expr(a, None, env)?;
                    let r = self.m.arena.add(Expr::RedOr(x));
                    self.m.arena.add(Expr::Not(r))
                }
                "&" => {
                    let x = self.expr(a, None, env)?;
                    self.m.arena.add(Expr::RedAnd(x))
                }
                "|" => {
                    let x = self.expr(a, None, env)?;
                    self.m.arena.add(Expr::RedOr(x))
                }
                "^" => {
                    let x = self.expr(a, None, env)?;
                    self.m.arena.add(Expr::RedXor(x))
                }
                "-" => {
                    let x = self.expr(a, ctx, env)?;
                    let w = self.m.arena.width(x);
                    let z = self.m.arena.add(Expr::Const(Value::zero(w)));
                    self.m.arena.add(Expr::Sub(z, x))
                }
                other => return self.err(format!("unsupported unary operator '{other}'")),
            },
            AstExpr::Binary(op, a, b) => self.binary(op, a, b, ctx, env)?,
            AstExpr::Ternary(c, t, f) => {
                let cond = self.expr_bool(c, env)?;
                let (t, f) = self.same_width_pair(t, f, ctx, env)?;
                self.m.arena.add(Expr::Mux {
                    cond,
                    then_: t,
                    else_: f,
                })
            }
            AstExpr::Concat(parts) => {
                let ps: Vec<ExprId> = parts
                    .iter()
                    .map(|p| self.expr(p, None, env))
                    .collect::<Result<_, _>>()?;
                self.m.arena.add(Expr::Concat(ps))
            }
            AstExpr::Repeat(n, inner) => {
                let n = const_eval(self.md, &self.params, n)? as u32;
                let x = self.expr(inner, None, env)?;
                self.m.arena.add(Expr::Repeat(n, x))
            }
            AstExpr::Index(base, idx) => {
                let x = self.expr(base, None, env)?;
                let i = const_eval(self.md, &self.params, idx)? as u32;
                let w = self.m.arena.width(x);
                if i >= w {
                    return self.err(format!("bit index {i} out of range (width {w})"));
                }
                self.m.arena.add(Expr::Slice(x, i, i))
            }
            AstExpr::Range(base, msb, lsb) => {
                let x = self.expr(base, None, env)?;
                let msb = const_eval(self.md, &self.params, msb)? as u32;
                let lsb = const_eval(self.md, &self.params, lsb)? as u32;
                let w = self.m.arena.width(x);
                if msb >= w || lsb > msb {
                    return self.err(format!(
                        "part select [{msb}:{lsb}] out of range (width {w})"
                    ));
                }
                self.m.arena.add(Expr::Slice(x, msb, lsb))
            }
        })
    }

    /// Elaborates two operands to a common width (sizes the unsized one
    /// from the sized one, or from `ctx`).
    fn same_width_pair(
        &mut self,
        a: &AstExpr,
        b: &AstExpr,
        ctx: Option<u32>,
        env: &Env,
    ) -> Result<(ExprId, ExprId), ElabError> {
        let a_unsized = matches!(a, AstExpr::Number(_));
        let b_unsized = matches!(b, AstExpr::Number(_));
        match (a_unsized, b_unsized) {
            (false, false) | (true, true) => {
                let ea = self.expr(a, ctx, env)?;
                let eb = self.expr(b, ctx.or(Some(self.m.arena.width(ea))), env)?;
                Ok((ea, eb))
            }
            (false, true) => {
                let ea = self.expr(a, ctx, env)?;
                let w = self.m.arena.width(ea);
                let eb = self.expr(b, Some(w), env)?;
                Ok((ea, eb))
            }
            (true, false) => {
                let eb = self.expr(b, ctx, env)?;
                let w = self.m.arena.width(eb);
                let ea = self.expr(a, Some(w), env)?;
                Ok((ea, eb))
            }
        }
    }

    fn binary(
        &mut self,
        op: &str,
        a: &AstExpr,
        b: &AstExpr,
        ctx: Option<u32>,
        env: &Env,
    ) -> Result<ExprId, ElabError> {
        match op {
            "&&" | "||" => {
                let ea = self.expr_bool(a, env)?;
                let eb = self.expr_bool(b, env)?;
                Ok(self.m.arena.add(if op == "&&" {
                    Expr::And(ea, eb)
                } else {
                    Expr::Or(ea, eb)
                }))
            }
            "<<" | ">>" => {
                let ea = self.expr(a, ctx, env)?;
                let n = const_eval(self.md, &self.params, b)? as u32;
                Ok(self.m.arena.add(if op == "<<" {
                    Expr::Shl(ea, n)
                } else {
                    Expr::Shr(ea, n)
                }))
            }
            "==" | "!=" | "<" | "<=" | ">" | ">=" => {
                let (ea, eb) = self.same_width_pair(a, b, None, env)?;
                Ok(self.m.arena.add(match op {
                    "==" => Expr::Eq(ea, eb),
                    "!=" => Expr::Ne(ea, eb),
                    "<" => Expr::Ult(ea, eb),
                    "<=" => Expr::Ule(ea, eb),
                    ">" => Expr::Ult(eb, ea),
                    ">=" => Expr::Ule(eb, ea),
                    _ => unreachable!(),
                }))
            }
            "&" | "|" | "^" | "+" | "-" | "*" => {
                let (ea, eb) = self.same_width_pair(a, b, ctx, env)?;
                Ok(self.m.arena.add(match op {
                    "&" => Expr::And(ea, eb),
                    "|" => Expr::Or(ea, eb),
                    "^" => Expr::Xor(ea, eb),
                    "+" => Expr::Add(ea, eb),
                    "-" => Expr::Sub(ea, eb),
                    "*" => Expr::Mul(ea, eb),
                    _ => unreachable!(),
                }))
            }
            other => self.err(format!("unsupported binary operator '{other}'")),
        }
    }
}

fn collect_targets(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block(ss) => ss.iter().for_each(|s| collect_targets(s, out)),
        Stmt::If(_, t, e) => {
            collect_targets(t, out);
            if let Some(e) = e {
                collect_targets(e, out);
            }
        }
        Stmt::Case { items, default, .. } => {
            for (_, b) in items {
                collect_targets(b, out);
            }
            if let Some(d) = default {
                collect_targets(d, out);
            }
        }
        Stmt::NonBlocking(t, _) | Stmt::Blocking(t, _) => collect_target(t, out),
    }
}

fn collect_target(t: &Target, out: &mut Vec<String>) {
    match t {
        Target::Ident(n) | Target::Slice(n, _, _) => {
            if !out.contains(n) {
                out.push(n.clone());
            }
        }
        Target::Concat(parts) => parts.iter().for_each(|p| collect_target(p, out)),
    }
}
