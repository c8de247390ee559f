//! PSL parser (reuses the Verilog lexer for the boolean layer's tokens).

use crate::ast::*;
use std::error::Error;
use std::fmt;
use veridic_verilog::{lex, Tok, Token};

/// PSL parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PslParseError {
    /// Description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for PslParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PSL parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for PslParseError {}

/// Parses PSL source containing one or more vunits.
///
/// # Errors
///
/// Returns a [`PslParseError`] with line information on malformed input.
pub fn parse_psl(src: &str) -> Result<Vec<VUnit>, PslParseError> {
    let tokens = lex(src).map_err(|e| PslParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = P {
        toks: tokens,
        pos: 0,
    };
    let mut units = Vec::new();
    while !p.at_eof() {
        units.push(p.vunit()?);
    }
    Ok(units)
}

struct P {
    toks: Vec<Token>,
    pos: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, m: impl Into<String>) -> Result<T, PslParseError> {
        Err(PslParseError {
            message: m.into(),
            line: self.line(),
        })
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), PslParseError> {
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

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, PslParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found '{other}'")),
        }
    }

    fn number(&mut self) -> Result<u64, PslParseError> {
        match self.peek().clone() {
            Tok::Number(n) => {
                self.bump();
                Ok(n)
            }
            other => self.err(format!("expected number, found '{other}'")),
        }
    }

    fn vunit(&mut self) -> Result<VUnit, PslParseError> {
        if !self.eat_kw("vunit") {
            return self.err("expected 'vunit'");
        }
        let name = self.ident()?;
        self.expect_punct("(")?;
        let module = self.ident()?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let mut unit = VUnit {
            name,
            module,
            properties: Vec::new(),
            directives: Vec::new(),
        };
        let mut anon = 0usize;
        loop {
            if self.eat_punct("}") {
                break;
            }
            if self.at_eof() {
                return self.err("unexpected end of input inside vunit");
            }
            if self.eat_kw("property") {
                let pname = self.ident()?;
                self.expect_punct("=")?;
                let prop = self.prop()?;
                self.expect_punct(";")?;
                unit.properties.push((pname, prop));
            } else if self.eat_kw("default") {
                // `default clock = (posedge CK);` — accepted and ignored:
                // the IR has a single implicit clock.
                while !self.eat_punct(";") {
                    if self.at_eof() {
                        return self.err("unterminated default clock declaration");
                    }
                    self.bump();
                }
            } else {
                let kind = if self.eat_kw("assert") {
                    DirectiveKind::Assert
                } else if self.eat_kw("assume") {
                    DirectiveKind::Assume
                } else if self.eat_kw("restrict") {
                    DirectiveKind::Restrict
                } else {
                    return self.err(format!(
                        "expected 'property', 'assert', 'assume' or 'restrict', found '{}'",
                        self.peek()
                    ));
                };
                let prop = self.prop()?;
                self.expect_punct(";")?;
                let label = match &prop {
                    Prop::Ref(n) => n.clone(),
                    _ => {
                        anon += 1;
                        format!("{}_{}", kind_str(kind), anon)
                    }
                };
                unit.directives.push(Directive { kind, prop, label });
            }
        }
        Ok(unit)
    }

    /// Property grammar with `->` right-associative and lowest precedence.
    fn prop(&mut self) -> Result<Prop, PslParseError> {
        let lhs = self.prop_term()?;
        if self.eat_punct("->") {
            let b = match lhs {
                Prop::Bool(b) => b,
                _ => return self.err("left side of '->' must be a boolean expression"),
            };
            let rhs = self.prop()?;
            return Ok(Prop::Implies(b, Box::new(rhs)));
        }
        if self.eat_kw("until") {
            let b1 = match lhs {
                Prop::Bool(b) => b,
                _ => return self.err("left side of 'until' must be a boolean expression"),
            };
            let b2 = self.bexpr_level(0)?;
            return self.maybe_abort(Prop::Until(b1, b2));
        }
        self.maybe_abort(lhs)
    }

    fn maybe_abort(&mut self, p: Prop) -> Result<Prop, PslParseError> {
        if self.eat_kw("abort") {
            let b = self.bexpr_level(0)?;
            Ok(Prop::Abort(Box::new(p), b))
        } else {
            Ok(p)
        }
    }

    fn prop_term(&mut self) -> Result<Prop, PslParseError> {
        if self.eat_kw("always") {
            let p = self.prop_term()?;
            // allow `always (b) -> ...`? No: always takes the full rest.
            let p = if self.eat_punct("->") {
                let b = match p {
                    Prop::Bool(b) => b,
                    _ => return self.err("left side of '->' must be boolean"),
                };
                Prop::Implies(b, Box::new(self.prop()?))
            } else if self.eat_kw("until") {
                let b1 = match p {
                    Prop::Bool(b) => b,
                    _ => return self.err("left side of 'until' must be boolean"),
                };
                Prop::Until(b1, self.bexpr_level(0)?)
            } else {
                p
            };
            return Ok(Prop::Always(Box::new(p)));
        }
        if self.eat_kw("never") {
            let p = self.prop_term()?;
            if !matches!(p, Prop::Bool(_) | Prop::Ref(_)) {
                return self.err("'never' takes a boolean expression");
            }
            return Ok(Prop::Never(Box::new(p)));
        }
        if self.eat_kw("next") {
            let k = if self.eat_punct("[") {
                let n = self.number()? as u32;
                self.expect_punct("]")?;
                n
            } else {
                1
            };
            let p = self.prop_term()?;
            return Ok(Prop::Next(k, Box::new(p)));
        }
        if self.eat_kw("eventually") {
            return self
                .err("liveness operator 'eventually!' is outside the supported safety subset");
        }
        // `(` could open a property or a boolean expression: try property
        // first (backtracking on pure-boolean results that continue as
        // boolean operators).
        if matches!(self.peek(), Tok::Punct("(")) {
            let save = self.pos;
            self.bump();
            let inner = self.prop()?;
            self.expect_punct(")")?;
            match inner {
                Prop::Bool(_) => {
                    // Might continue as a boolean expression, e.g. `(a) & b`.
                    if self.is_bool_continuation() {
                        self.pos = save;
                        let b = self.bexpr_level(0)?;
                        return Ok(Prop::Bool(b));
                    }
                    Ok(inner)
                }
                p => Ok(p),
            }
        } else {
            // Boolean atom or property reference.
            let save = self.pos;
            if let Tok::Ident(name) = self.peek().clone() {
                // A bare identifier followed by ; or ) is a property
                // reference if it is not obviously boolean — resolved at
                // compile time; the parser emits Ref for bare identifiers
                // in directive position and Bool elsewhere. We cannot know
                // here, so: bare ident followed by `;` or `)` parses as
                // Ref (compilation falls back to a net lookup).
                self.bump();
                if matches!(self.peek(), Tok::Punct(";") | Tok::Punct(")")) {
                    return Ok(Prop::Ref(name));
                }
                self.pos = save;
            }
            let b = self.bexpr_level(0)?;
            Ok(Prop::Bool(b))
        }
    }

    fn is_bool_continuation(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Punct("&")
                | Tok::Punct("|")
                | Tok::Punct("^")
                | Tok::Punct("==")
                | Tok::Punct("!=")
        )
    }

    /// Boolean-layer expression, precedence climbing:
    /// level 0: `|`, 1: `^`, 2: `&`, 3: `==`/`!=`, 4: unary.
    fn bexpr_level(&mut self, level: u32) -> Result<BExpr, PslParseError> {
        if level == 4 {
            return self.bexpr_unary();
        }
        let ops: &[&str] = match level {
            0 => &["|", "||"],
            1 => &["^"],
            2 => &["&", "&&"],
            3 => &["==", "!="],
            _ => unreachable!(),
        };
        let mut lhs = self.bexpr_level(level + 1)?;
        loop {
            let hit = match self.peek() {
                Tok::Punct(p) => ops.contains(p).then_some(*p),
                _ => None,
            };
            match hit {
                Some(op) => {
                    self.bump();
                    let rhs = self.bexpr_level(level + 1)?;
                    lhs = match op {
                        "|" | "||" => BExpr::Or(Box::new(lhs), Box::new(rhs)),
                        "^" => BExpr::Xor(Box::new(lhs), Box::new(rhs)),
                        "&" | "&&" => BExpr::And(Box::new(lhs), Box::new(rhs)),
                        "==" => BExpr::Eq(Box::new(lhs), Box::new(rhs)),
                        "!=" => BExpr::Ne(Box::new(lhs), Box::new(rhs)),
                        _ => unreachable!(),
                    };
                }
                None => return Ok(lhs),
            }
        }
    }

    fn bexpr_unary(&mut self) -> Result<BExpr, PslParseError> {
        if self.eat_punct("~") || self.eat_punct("!") {
            return Ok(BExpr::Not(Box::new(self.bexpr_unary()?)));
        }
        if self.eat_punct("^") {
            return Ok(BExpr::RedXor(Box::new(self.bexpr_unary()?)));
        }
        if self.eat_punct("&") {
            return Ok(BExpr::RedAnd(Box::new(self.bexpr_unary()?)));
        }
        if self.eat_punct("|") {
            return Ok(BExpr::RedOr(Box::new(self.bexpr_unary()?)));
        }
        self.bexpr_primary()
    }

    fn bexpr_primary(&mut self) -> Result<BExpr, PslParseError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                if self.eat_punct("[") {
                    let hi = self.number()? as u32;
                    if self.eat_punct(":") {
                        let lo = self.number()? as u32;
                        self.expect_punct("]")?;
                        Ok(BExpr::Range(name, hi, lo))
                    } else {
                        self.expect_punct("]")?;
                        Ok(BExpr::Index(name, hi))
                    }
                } else {
                    Ok(BExpr::Ident(name))
                }
            }
            Tok::Sized(w, v) => {
                self.bump();
                Ok(BExpr::Const(w, v))
            }
            Tok::Number(n) => {
                self.bump();
                // Unsized numbers in the boolean layer: 0 and 1 are 1-bit.
                if n > 1 {
                    return self
                        .err("unsized literals other than 0/1 are not allowed in PSL expressions");
                }
                Ok(BExpr::Const(1, n))
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.bexpr_level(0)?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => self.err(format!("expected boolean expression, found '{other}'")),
        }
    }
}

fn kind_str(k: DirectiveKind) -> &'static str {
    match k {
        DirectiveKind::Assert => "assert",
        DirectiveKind::Assume => "assume",
        DirectiveKind::Restrict => "restrict",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 2 of the paper (error-detection ability).
    const FIG2: &str = r#"
vunit M_edetect (M) { // check error detection ability
    property pCheck1 = always ((EC & ~(^ED)) -> next HE);
    assert pCheck1;
    property pCheck2 = always ( ~(^I) -> next HE);
    assert pCheck2;
}
"#;

    /// Figure 3 (soundness of internal states).
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

    /// Figure 4 (output data integrity).
    const FIG4: &str = r#"
vunit M_integrity (M) {
    property pIntegrityI = always ( ^I );
    assume pIntegrityI;
    property pNoErrInjection = always ( ~EC );
    assume pNoErrInjection;
    property pIntegrityO = always ( ^O );
    assert pIntegrityO;
}
"#;

    #[test]
    fn figure2_parses() {
        let units = parse_psl(FIG2).unwrap();
        assert_eq!(units.len(), 1);
        let u = &units[0];
        assert_eq!(u.name, "M_edetect");
        assert_eq!(u.module, "M");
        assert_eq!(u.properties.len(), 2);
        assert_eq!(u.directives.len(), 2);
        // pCheck1: always ((EC & ~(^ED)) -> next HE)
        match &u.properties[0].1 {
            Prop::Always(inner) => match &**inner {
                Prop::Implies(_, next) => match &**next {
                    // Bare `HE` parses as a reference resolved at compile time.
                    Prop::Next(1, b) => assert!(matches!(**b, Prop::Bool(_) | Prop::Ref(_))),
                    other => panic!("expected next, got {other:?}"),
                },
                other => panic!("expected implication, got {other:?}"),
            },
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn figure3_parses() {
        let units = parse_psl(FIG3).unwrap();
        let u = &units[0];
        assert_eq!(u.directives.len(), 3);
        assert_eq!(u.directives[0].kind, DirectiveKind::Assume);
        assert_eq!(u.directives[2].kind, DirectiveKind::Assert);
        assert_eq!(u.directives[2].label, "pNoError");
        assert!(matches!(u.properties[2].1, Prop::Never(_)));
    }

    #[test]
    fn figure4_parses() {
        let units = parse_psl(FIG4).unwrap();
        assert_eq!(units[0].properties.len(), 3);
        // pIntegrityO = always (^O)
        match &units[0].properties[2].1 {
            Prop::Always(b) => assert!(matches!(**b, Prop::Bool(BExpr::RedXor(_)))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn next_with_count() {
        let src = "vunit v (M) { assert always (a -> next[3] b); }";
        let u = &parse_psl(src).unwrap()[0];
        match &u.directives[0].prop {
            Prop::Always(p) => match &**p {
                Prop::Implies(_, n) => assert!(matches!(**n, Prop::Next(3, _))),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn until_parses() {
        let src = "vunit v (M) { assert always (req -> next (busy until done)); }";
        let u = &parse_psl(src).unwrap()[0];
        match &u.directives[0].prop {
            Prop::Always(p) => match &**p {
                Prop::Implies(_, n) => match &**n {
                    Prop::Next(1, inner) => assert!(matches!(**inner, Prop::Until(_, _))),
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn abort_parses() {
        let src = "vunit v (M) { assert always ((req -> next ack) abort rst); }";
        let u = &parse_psl(src).unwrap()[0];
        match &u.directives[0].prop {
            Prop::Always(p) => assert!(matches!(**p, Prop::Abort(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn default_clock_ignored() {
        let src = "vunit v (M) { default clock = posedge CK ; assert always (a); }";
        let u = &parse_psl(src).unwrap()[0];
        assert_eq!(u.directives.len(), 1);
    }

    #[test]
    fn eventually_rejected() {
        let src = "vunit v (M) { assert eventually (a); }";
        let err = parse_psl(src).unwrap_err();
        assert!(err.message.contains("safety subset"));
    }

    #[test]
    fn bexpr_precedence() {
        let src = "vunit v (M) { assert always (a | b & c); }";
        let u = &parse_psl(src).unwrap()[0];
        match &u.directives[0].prop {
            Prop::Always(p) => match &**p {
                Prop::Bool(BExpr::Or(_, rhs)) => {
                    assert!(matches!(**rhs, BExpr::And(_, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn directive_on_inline_property() {
        let src = "vunit v (M) { assume always (~EC); }";
        let u = &parse_psl(src).unwrap()[0];
        assert_eq!(u.directives[0].label, "assume_1");
    }

    #[test]
    fn index_and_slice_atoms() {
        let src = "vunit v (M) { assert always (EC[0] -> next (^D[7:4])); }";
        let u = &parse_psl(src).unwrap()[0];
        match &u.directives[0].prop {
            Prop::Always(p) => match &**p {
                Prop::Implies(BExpr::Index(n, 0), _) => assert_eq!(n, "EC"),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
