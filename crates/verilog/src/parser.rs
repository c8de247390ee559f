//! Recursive-descent parser for the supported Verilog subset.

use crate::ast::*;
use crate::token::{lex, LexError, Tok, Token};
use std::error::Error;
use std::fmt;

/// Parser errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Parses a Verilog source file.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on any lexical or syntactic
/// problem.
pub fn parse(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    Ok(SourceFile { modules })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Punct(q) if *q == p => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected '{p}', found '{other}'")),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected '{kw}', found '{other}'")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found '{other}'")),
        }
    }

    fn module(&mut self) -> Result<ModuleDecl, ParseError> {
        self.expect_kw("module")?;
        let name = self.ident()?;
        let mut m = ModuleDecl {
            name,
            ports: Vec::new(),
            nets: Vec::new(),
            params: Vec::new(),
            assigns: Vec::new(),
            always: Vec::new(),
            instances: Vec::new(),
        };
        if self.eat_punct("(") && !self.eat_punct(")") {
            let mut last_dir: Option<Dir> = None;
            let mut last_range: Option<(AstExpr, AstExpr)> = None;
            loop {
                let dir = if self.eat_kw("input") {
                    Some(Dir::Input)
                } else if self.eat_kw("output") {
                    Some(Dir::Output)
                } else {
                    None
                };
                if dir.is_some() {
                    let _ = self.eat_kw("wire") || self.eat_kw("reg");
                    last_dir = dir;
                    last_range = if matches!(self.peek(), Tok::Punct("[")) {
                        Some(self.range()?)
                    } else {
                        None
                    };
                }
                let pname = self.ident()?;
                m.ports.push(PortDecl {
                    name: pname,
                    dir: last_dir,
                    range: if last_dir.is_some() {
                        last_range.clone()
                    } else {
                        None
                    },
                });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;
        // Body items.
        loop {
            if self.eat_kw("endmodule") {
                break;
            }
            if self.at_eof() {
                return self.err("unexpected end of input inside module");
            }
            self.item(&mut m)?;
        }
        Ok(m)
    }

    fn range(&mut self) -> Result<(AstExpr, AstExpr), ParseError> {
        self.expect_punct("[")?;
        let msb = self.expr()?;
        self.expect_punct(":")?;
        let lsb = self.expr()?;
        self.expect_punct("]")?;
        Ok((msb, lsb))
    }

    fn item(&mut self, m: &mut ModuleDecl) -> Result<(), ParseError> {
        if self.eat_kw("input") {
            self.net_decl(m, NetKind::PortDir(Dir::Input))
        } else if self.eat_kw("output") {
            self.net_decl(m, NetKind::PortDir(Dir::Output))
        } else if self.eat_kw("wire") {
            self.net_decl(m, NetKind::Wire)
        } else if self.eat_kw("reg") {
            self.net_decl(m, NetKind::Reg)
        } else if self.eat_kw("parameter") || self.eat_kw("localparam") {
            loop {
                let name = self.ident()?;
                self.expect_punct("=")?;
                let e = self.expr()?;
                m.params.push((name, e));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            Ok(())
        } else if self.eat_kw("assign") {
            let t = self.target()?;
            self.expect_punct("=")?;
            let e = self.expr()?;
            self.expect_punct(";")?;
            m.assigns.push((t, e));
            Ok(())
        } else if self.eat_kw("always") {
            let line = self.line();
            self.expect_punct("@")?;
            self.expect_punct("(")?;
            let kind = if self.eat_kw("posedge") {
                let clock = self.ident()?;
                let mut reset = None;
                if self.eat_kw("or") {
                    self.expect_kw("posedge")?;
                    reset = Some(self.ident()?);
                }
                AlwaysKind::Clocked { clock, reset }
            } else if self.eat_punct("*") {
                AlwaysKind::Comb
            } else {
                // Explicit sensitivity list — treated as combinational.
                loop {
                    let _ = self.ident()?;
                    if !self.eat_kw("or") && !self.eat_punct(",") {
                        break;
                    }
                }
                AlwaysKind::Comb
            };
            self.expect_punct(")")?;
            let body = self.stmt()?;
            m.always.push(AlwaysBlock { kind, body, line });
            Ok(())
        } else {
            // Module instantiation: `Name inst ( .p(e), ... );`
            let module = self.ident()?;
            let name = self.ident()?;
            self.expect_punct("(")?;
            let mut conns = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    self.expect_punct(".")?;
                    let port = self.ident()?;
                    self.expect_punct("(")?;
                    let e = if matches!(self.peek(), Tok::Punct(")")) {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect_punct(")")?;
                    conns.push((port, e));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")")?;
            }
            self.expect_punct(";")?;
            m.instances.push(InstanceDecl {
                module,
                name,
                conns,
            });
            Ok(())
        }
    }

    fn net_decl(&mut self, m: &mut ModuleDecl, kind: NetKind) -> Result<(), ParseError> {
        // Optional `reg` after input/output body decls, e.g. `output reg [3:0] x;`
        if matches!(kind, NetKind::PortDir(_)) {
            let _ = self.eat_kw("wire") || self.eat_kw("reg");
        }
        let range = if matches!(self.peek(), Tok::Punct("[")) {
            Some(self.range()?)
        } else {
            None
        };
        let mut names = Vec::new();
        loop {
            names.push(self.ident()?);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        m.nets.push(NetDecl { kind, range, names });
        Ok(())
    }

    fn target(&mut self) -> Result<Target, ParseError> {
        if self.eat_punct("{") {
            let mut parts = Vec::new();
            loop {
                parts.push(self.target()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("}")?;
            return Ok(Target::Concat(parts));
        }
        let name = self.ident()?;
        if self.eat_punct("[") {
            let a = self.expr()?;
            if self.eat_punct(":") {
                let b = self.expr()?;
                self.expect_punct("]")?;
                Ok(Target::Slice(name, a, b))
            } else {
                self.expect_punct("]")?;
                Ok(Target::Slice(name, a.clone(), a))
            }
        } else {
            Ok(Target::Ident(name))
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("begin") {
            let mut body = Vec::new();
            while !self.eat_kw("end") {
                if self.at_eof() {
                    return self.err("unexpected end of input inside begin/end");
                }
                body.push(self.stmt()?);
            }
            return Ok(Stmt::Block(body));
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let c = self.expr()?;
            self.expect_punct(")")?;
            let t = Box::new(self.stmt()?);
            let e = if self.eat_kw("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If(c, t, e));
        }
        if self.eat_kw("case") || self.eat_kw("casez") {
            self.expect_punct("(")?;
            let sel = self.expr()?;
            self.expect_punct(")")?;
            let mut items = Vec::new();
            let mut default = None;
            loop {
                if self.eat_kw("endcase") {
                    break;
                }
                if self.eat_kw("default") {
                    let _ = self.eat_punct(":");
                    default = Some(Box::new(self.stmt()?));
                    continue;
                }
                let mut labels = vec![self.expr()?];
                while self.eat_punct(",") {
                    labels.push(self.expr()?);
                }
                self.expect_punct(":")?;
                let body = self.stmt()?;
                items.push((labels, body));
            }
            return Ok(Stmt::Case {
                sel,
                items,
                default,
            });
        }
        // Assignment.
        let t = self.target()?;
        if self.eat_punct("<=") {
            let e = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::NonBlocking(t, e))
        } else if self.eat_punct("=") {
            let e = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::Blocking(t, e))
        } else {
            self.err("expected '<=' or '=' in assignment")
        }
    }

    /// Expression entry: ternary (lowest precedence).
    pub(crate) fn expr(&mut self) -> Result<AstExpr, ParseError> {
        let c = self.binary(0)?;
        if self.eat_punct("?") {
            let t = self.expr()?;
            self.expect_punct(":")?;
            let e = self.expr()?;
            Ok(AstExpr::Ternary(Box::new(c), Box::new(t), Box::new(e)))
        } else {
            Ok(c)
        }
    }

    /// Binary operator levels, loosest first.
    const LEVELS: &'static [&'static [&'static str]] = &[
        &["||"],
        &["&&"],
        &["|"],
        &["^"],
        &["&"],
        &["==", "!="],
        &["<", "<=", ">", ">="],
        &["<<", ">>"],
        &["+", "-"],
        &["*", "/", "%"],
    ];

    fn binary(&mut self, level: usize) -> Result<AstExpr, ParseError> {
        if level >= Self::LEVELS.len() {
            return self.unary();
        }
        let mut lhs = self.binary(level + 1)?;
        loop {
            let op = match self.peek() {
                Tok::Punct(p) => Self::LEVELS[level].iter().find(|q| *q == p).copied(),
                _ => None,
            };
            match op {
                Some(op) => {
                    self.bump();
                    let rhs = self.binary(level + 1)?;
                    lhs = AstExpr::Binary(op, Box::new(lhs), Box::new(rhs));
                }
                None => return Ok(lhs),
            }
        }
    }

    fn unary(&mut self) -> Result<AstExpr, ParseError> {
        for op in ["~", "!", "&", "|", "^", "-"] {
            if matches!(self.peek(), Tok::Punct(p) if *p == op) {
                self.bump();
                let e = self.unary()?;
                return Ok(AstExpr::Unary(
                    match op {
                        "~" => "~",
                        "!" => "!",
                        "&" => "&",
                        "|" => "|",
                        "^" => "^",
                        "-" => "-",
                        _ => unreachable!(),
                    },
                    Box::new(e),
                ));
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<AstExpr, ParseError> {
        let mut e = self.primary()?;
        while self.eat_punct("[") {
            let a = self.expr()?;
            if self.eat_punct(":") {
                let b = self.expr()?;
                self.expect_punct("]")?;
                e = AstExpr::Range(Box::new(e), Box::new(a), Box::new(b));
            } else {
                self.expect_punct("]")?;
                e = AstExpr::Index(Box::new(e), Box::new(a));
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<AstExpr, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(AstExpr::Ident(s))
            }
            Tok::Number(n) => {
                self.bump();
                Ok(AstExpr::Number(n))
            }
            Tok::Sized(w, v) => {
                self.bump();
                Ok(AstExpr::Sized(w, v))
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("{") => {
                self.bump();
                let first = self.expr()?;
                // Replication `{n{e}}`?
                if self.eat_punct("{") {
                    let inner = self.expr()?;
                    self.expect_punct("}")?;
                    self.expect_punct("}")?;
                    return Ok(AstExpr::Repeat(Box::new(first), Box::new(inner)));
                }
                let mut parts = vec![first];
                while self.eat_punct(",") {
                    parts.push(self.expr()?);
                }
                self.expect_punct("}")?;
                Ok(AstExpr::Concat(parts))
            }
            other => self.err(format!("expected expression, found '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_module() {
        let sf = parse("module m; endmodule").unwrap();
        assert_eq!(sf.modules.len(), 1);
        assert_eq!(sf.modules[0].name, "m");
    }

    #[test]
    fn ansi_ports() {
        let sf = parse("module m (input [3:0] a, b, output reg [1:0] y); endmodule").unwrap();
        let m = &sf.modules[0];
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.ports[0].dir, Some(Dir::Input));
        assert_eq!(m.ports[1].dir, Some(Dir::Input), "dir inherited");
        assert!(m.ports[1].range.is_some(), "range inherited");
        assert_eq!(m.ports[2].dir, Some(Dir::Output));
    }

    #[test]
    fn non_ansi_ports() {
        let src = "module m (a, y); input [3:0] a; output y; wire w; endmodule";
        let m = &parse(src).unwrap().modules[0];
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.ports[0].dir, None);
        assert_eq!(m.nets.len(), 3);
        assert_eq!(m.nets[0].kind, NetKind::PortDir(Dir::Input));
    }

    #[test]
    fn assign_and_expr_precedence() {
        let src = "module m (input a, b, c, output y); assign y = a | b & c; endmodule";
        let m = &parse(src).unwrap().modules[0];
        // & binds tighter than |
        match &m.assigns[0].1 {
            AstExpr::Binary("|", _, rhs) => {
                assert!(matches!(**rhs, AstExpr::Binary("&", _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clocked_always_figure6_style() {
        let src = r#"
module B (input CK, input RESET, input [1:0] I_ERR_INJ_C, input [3:0] I_ERR_INJ_D);
  reg [3:0] cs, ns;
  always @(posedge CK or posedge RESET)
    if (RESET) cs <= 4'b1_000;
    else if (I_ERR_INJ_C[0]) cs <= I_ERR_INJ_D;
    else cs <= ns;
endmodule
"#;
        let m = &parse(src).unwrap().modules[0];
        assert_eq!(m.always.len(), 1);
        match &m.always[0].kind {
            AlwaysKind::Clocked { clock, reset } => {
                assert_eq!(clock, "CK");
                assert_eq!(reset.as_deref(), Some("RESET"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_statement() {
        let src = r#"
module m (input [1:0] s, output reg [3:0] y);
  always @(*)
    case (s)
      2'b00: y = 4'd1;
      2'b01, 2'b10: y = 4'd2;
      default: y = 4'd0;
    endcase
endmodule
"#;
        let m = &parse(src).unwrap().modules[0];
        match &m.always[0].body {
            Stmt::Case { items, default, .. } => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1].0.len(), 2);
                assert!(default.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn instance_with_tied_ports() {
        let src = r#"
module A (input CK);
  B u0 ( .CK(CK), .I_ERR_INJ_C(2'b00), .I_ERR_INJ_D(4'b0000), .unused() );
endmodule
"#;
        let m = &parse(src).unwrap().modules[0];
        assert_eq!(m.instances.len(), 1);
        let inst = &m.instances[0];
        assert_eq!(inst.module, "B");
        assert_eq!(inst.conns.len(), 4);
        assert!(inst.conns[3].1.is_none());
    }

    #[test]
    fn concat_and_replication() {
        let src = "module m (input [1:0] a, output [3:0] y); assign y = {a, {2{a[0]}}}; endmodule";
        let m = &parse(src).unwrap().modules[0];
        match &m.assigns[0].1 {
            AstExpr::Concat(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], AstExpr::Repeat(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse("module m;\n  assign ; \nendmodule").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn ternary_parses() {
        let src =
            "module m (input c, input [3:0] a, b, output [3:0] y); assign y = c ? a : b; endmodule";
        let m = &parse(src).unwrap().modules[0];
        assert!(matches!(m.assigns[0].1, AstExpr::Ternary(_, _, _)));
    }

    #[test]
    fn localparam_parses() {
        let src = "module m; localparam W = 4, D = 16; endmodule";
        let m = &parse(src).unwrap().modules[0];
        assert_eq!(m.params.len(), 2);
    }
}
