//! Lexer for the synthesizable Verilog subset.

use std::error::Error;
use std::fmt;

/// A lexical token with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (keywords are recognised by the parser).
    Ident(String),
    /// Unsized decimal number.
    Number(u64),
    /// Sized literal `4'b1010` → (width, bits).
    Sized(u32, u64),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Number(n) => write!(f, "{n}"),
            Tok::Sized(w, v) => write!(f, "{w}'d{v}"),
            Tok::Punct(p) => write!(f, "{p}"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// Lexer errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// 1-based line number.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl Error for LexError {}

/// Multi-character operators, longest first.
const PUNCTS: &[&str] = &[
    "<<<", ">>>", "===", "!==", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "->", "(", ")",
    "[", "]", "{", "}", ",", ";", ":", ".", "#", "@", "=", "<", ">", "+", "-", "*", "/", "%", "&",
    "|", "^", "~", "!", "?",
];

/// Tokenises Verilog source.
///
/// # Errors
///
/// Returns a [`LexError`] on malformed literals or unexpected characters.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Vec::new();
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            match bytes[i + 1] as char {
                '/' => {
                    while i < bytes.len() && bytes[i] as char != '\n' {
                        i += 1;
                    }
                    continue;
                }
                '*' => {
                    i += 2;
                    while i + 1 < bytes.len() {
                        if bytes[i] as char == '\n' {
                            line += 1;
                        }
                        if bytes[i] as char == '*' && bytes[i + 1] as char == '/' {
                            i += 2;
                            continue 'outer;
                        }
                        i += 1;
                    }
                    return Err(LexError {
                        message: "unterminated block comment".into(),
                        line,
                    });
                }
                _ => {}
            }
        }
        // Identifiers / keywords (also escaped identifiers `\foo `).
        if c.is_ascii_alphabetic() || c == '_' || c == '\\' {
            let start = if c == '\\' { i + 1 } else { i };
            i = start;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == '$' {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(Token {
                kind: Tok::Ident(src[start..i].to_string()),
                line,
            });
            continue;
        }
        // Numbers: `123`, `4'b1010`, `8'hff`, `'b0` (32-bit default).
        if c.is_ascii_digit() || c == '\'' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_digit() || bytes[i] as char == '_')
            {
                i += 1;
            }
            let head: String = src[start..i].chars().filter(|c| *c != '_').collect();
            if i < bytes.len() && bytes[i] as char == '\'' {
                // Sized literal.
                let width: u32 = if head.is_empty() {
                    32
                } else {
                    head.parse().map_err(|_| LexError {
                        message: format!("bad literal width {head}"),
                        line,
                    })?
                };
                i += 1;
                if i >= bytes.len() {
                    return Err(LexError {
                        message: "truncated sized literal".into(),
                        line,
                    });
                }
                let base = (bytes[i] as char).to_ascii_lowercase();
                i += 1;
                let radix = match base {
                    'b' => 2,
                    'o' => 8,
                    'd' => 10,
                    'h' => 16,
                    _ => {
                        return Err(LexError {
                            message: format!("bad literal base '{base}'"),
                            line,
                        })
                    }
                };
                let dstart = i;
                while i < bytes.len() {
                    let ch = (bytes[i] as char).to_ascii_lowercase();
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let digits: String = src[dstart..i].chars().filter(|c| *c != '_').collect();
                if digits.is_empty() {
                    return Err(LexError {
                        message: "sized literal missing digits".into(),
                        line,
                    });
                }
                let value = u64::from_str_radix(&digits, radix).map_err(|_| LexError {
                    message: format!("bad digits '{digits}' for base {radix}"),
                    line,
                })?;
                if width < 64 && value >> width != 0 {
                    return Err(LexError {
                        message: format!("literal {value} does not fit in {width} bits"),
                        line,
                    });
                }
                out.push(Token {
                    kind: Tok::Sized(width, value),
                    line,
                });
            } else {
                let value: u64 = head.parse().map_err(|_| LexError {
                    message: format!("bad number {head}"),
                    line,
                })?;
                out.push(Token {
                    kind: Tok::Number(value),
                    line,
                });
            }
            continue;
        }
        // Punctuation.
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push(Token {
                    kind: Tok::Punct(p),
                    line,
                });
                i += p.len();
                continue 'outer;
            }
        }
        return Err(LexError {
            message: format!("unexpected character '{c}'"),
            line,
        });
    }
    out.push(Token {
        kind: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn identifiers_and_numbers() {
        assert_eq!(
            kinds("module foo_1 42"),
            vec![
                Tok::Ident("module".into()),
                Tok::Ident("foo_1".into()),
                Tok::Number(42),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn sized_literals() {
        assert_eq!(kinds("4'b1_000")[0], Tok::Sized(4, 0b1000));
        assert_eq!(kinds("8'hFF")[0], Tok::Sized(8, 255));
        assert_eq!(kinds("2'b00")[0], Tok::Sized(2, 0));
        assert_eq!(kinds("10'd512")[0], Tok::Sized(10, 512));
    }

    #[test]
    fn oversized_literal_rejected() {
        assert!(lex("3'b1010").is_err());
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a // comment\n b /* multi\n line */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn multichar_punct_priority() {
        assert_eq!(
            kinds("a <= b << 2"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<="),
                Tok::Ident("b".into()),
                Tok::Punct("<<"),
                Tok::Number(2),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn unexpected_char_is_error() {
        let e = lex("a $ b").unwrap_err();
        assert!(e.message.contains("unexpected"));
    }
}
