//! Tokenizer for MSL.
//!
//! Notable points:
//! * `:-` is a single token distinct from `:`;
//! * identifiers beginning with an uppercase letter are variables (the
//!   paper's convention), everything else is a plain identifier;
//! * `$N` produces a parameter token;
//! * comments run from `//` to end of line.

use crate::diag::Span;
use crate::error::{MslError, Pos, Result};
use oem::Value;

/// One MSL token with its source position (line/column for error messages,
/// byte-offset span for diagnostics).
#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Line/column position for error messages.
    pub pos: Pos,
    /// Byte-offset span for diagnostics.
    pub span: Span,
}

/// Token kinds.
#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `:-`
    Implies,
    /// `:`
    Colon,
    /// `|`
    Pipe,
    /// `,`
    Comma,
    /// `@`
    At,
    /// `*`
    Star,
    /// a lowercase-initial (or quoted-free) identifier, e.g. `person`
    Ident(String),
    /// an uppercase-initial identifier — a variable, e.g. `Rest1`
    Var(String),
    /// `$`-prefixed parameter, e.g. `$R`
    Param(String),
    /// `'...'` string literal
    Str(String),
    /// integer literal
    Int(i64),
    /// real literal
    Real(f64),
    /// keyword `AND` (case-insensitive)
    And,
    /// keyword `by` (in external declarations)
    By,
    /// keyword `true`/`false`
    Bool(bool),
}

impl TokenKind {
    /// Render for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Lt => "'<'".into(),
            TokenKind::Gt => "'>'".into(),
            TokenKind::LBrace => "'{'".into(),
            TokenKind::RBrace => "'}'".into(),
            TokenKind::LParen => "'('".into(),
            TokenKind::RParen => "')'".into(),
            TokenKind::Implies => "':-'".into(),
            TokenKind::Colon => "':'".into(),
            TokenKind::Pipe => "'|'".into(),
            TokenKind::Comma => "','".into(),
            TokenKind::At => "'@'".into(),
            TokenKind::Star => "'*'".into(),
            TokenKind::Ident(s) => format!("identifier '{s}'"),
            TokenKind::Var(s) => format!("variable '{s}'"),
            TokenKind::Param(s) => format!("parameter '${s}'"),
            TokenKind::Str(s) => format!("string '{s}'"),
            TokenKind::Int(i) => format!("integer {i}"),
            TokenKind::Real(x) => format!("real {x}"),
            TokenKind::And => "'AND'".into(),
            TokenKind::By => "'by'".into(),
            TokenKind::Bool(b) => format!("boolean {b}"),
        }
    }

    /// Convert a literal token to its OEM value, if it is one.
    pub fn to_value(&self) -> Option<Value> {
        Some(match self {
            TokenKind::Str(s) => Value::str(s),
            TokenKind::Int(i) => Value::Int(*i),
            TokenKind::Real(x) => Value::real(*x),
            TokenKind::Bool(b) => Value::Bool(*b),
            _ => return None,
        })
    }
}

/// Tokenize an MSL source string.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let chars: Vec<char> = input.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 1usize;
    let mut byte = 0usize;

    macro_rules! bump {
        () => {{
            let c = chars[i];
            i += 1;
            byte += c.len_utf8();
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            c
        }};
    }

    while i < chars.len() {
        let pos = Pos { line, col };
        let start = byte;
        let c = chars[i];
        match c {
            _ if c.is_whitespace() => {
                bump!();
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    bump!();
                }
            }
            '<' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::Lt,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '>' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::Gt,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '{' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::LBrace,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '}' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::RBrace,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '(' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::LParen,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            ')' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::RParen,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '|' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::Pipe,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            ',' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::Comma,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '@' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::At,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '*' => {
                bump!();
                out.push(Token {
                    kind: TokenKind::Star,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            ':' => {
                bump!();
                if chars.get(i) == Some(&'-') {
                    bump!();
                    out.push(Token {
                        kind: TokenKind::Implies,
                        pos,
                        span: Span { start, end: byte },
                    });
                } else {
                    out.push(Token {
                        kind: TokenKind::Colon,
                        pos,
                        span: Span { start, end: byte },
                    });
                }
            }
            '$' => {
                bump!();
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    s.push(bump!());
                }
                if s.is_empty() {
                    return Err(MslError::lex("'$' must be followed by a name", pos));
                }
                out.push(Token {
                    kind: TokenKind::Param(s),
                    pos,
                    span: Span { start, end: byte },
                });
            }
            '\'' => {
                bump!();
                let mut s = String::new();
                loop {
                    if i >= chars.len() {
                        return Err(MslError::lex("unterminated string literal", pos));
                    }
                    let c = bump!();
                    match c {
                        '\'' => break,
                        '\\' => {
                            if i >= chars.len() {
                                return Err(MslError::lex("unterminated escape", pos));
                            }
                            match bump!() {
                                '\'' => s.push('\''),
                                '\\' => s.push('\\'),
                                'n' => s.push('\n'),
                                't' => s.push('\t'),
                                other => {
                                    return Err(MslError::lex(
                                        format!("unknown escape '\\{other}'"),
                                        pos,
                                    ))
                                }
                            }
                        }
                        other => s.push(other),
                    }
                }
                out.push(Token {
                    kind: TokenKind::Str(s),
                    pos,
                    span: Span { start, end: byte },
                });
            }
            _ if c.is_ascii_digit()
                || (c == '-' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let mut s = String::new();
                if c == '-' {
                    s.push(bump!());
                }
                let mut is_real = false;
                while i < chars.len() {
                    let d = chars[i];
                    if d.is_ascii_digit() {
                        s.push(bump!());
                    } else if d == '.'
                        && !is_real
                        && chars.get(i + 1).is_some_and(|x| x.is_ascii_digit())
                    {
                        is_real = true;
                        s.push(bump!());
                    } else if (d == 'e' || d == 'E')
                        && chars
                            .get(i + 1)
                            .is_some_and(|x| x.is_ascii_digit() || *x == '-' || *x == '+')
                    {
                        is_real = true;
                        s.push(bump!());
                        if matches!(chars.get(i), Some('-') | Some('+')) {
                            s.push(bump!());
                        }
                    } else {
                        break;
                    }
                }
                let kind = if is_real {
                    TokenKind::Real(
                        s.parse::<f64>()
                            .ok()
                            .filter(|x| x.is_finite())
                            .ok_or_else(|| MslError::lex(format!("bad real '{s}'"), pos))?,
                    )
                } else {
                    TokenKind::Int(
                        s.parse()
                            .map_err(|_| MslError::lex(format!("bad integer '{s}'"), pos))?,
                    )
                };
                out.push(Token {
                    kind,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    s.push(bump!());
                }
                let kind = if s.eq_ignore_ascii_case("and") {
                    TokenKind::And
                } else if s == "by" {
                    TokenKind::By
                } else if s == "true" {
                    TokenKind::Bool(true)
                } else if s == "false" {
                    TokenKind::Bool(false)
                } else if s.chars().next().unwrap().is_uppercase() {
                    TokenKind::Var(s)
                } else {
                    TokenKind::Ident(s)
                };
                out.push(Token {
                    kind,
                    pos,
                    span: Span { start, end: byte },
                });
            }
            other => {
                return Err(MslError::lex(
                    format!("unexpected character '{other}'"),
                    pos,
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_pattern_tokens() {
        assert_eq!(
            kinds("<name N>"),
            vec![
                TokenKind::Lt,
                TokenKind::Ident("name".into()),
                TokenKind::Var("N".into()),
                TokenKind::Gt
            ]
        );
    }

    #[test]
    fn implies_vs_colon() {
        assert_eq!(
            kinds("JC :- JC:<x 1>"),
            vec![
                TokenKind::Var("JC".into()),
                TokenKind::Implies,
                TokenKind::Var("JC".into()),
                TokenKind::Colon,
                TokenKind::Lt,
                TokenKind::Ident("x".into()),
                TokenKind::Int(1),
                TokenKind::Gt
            ]
        );
    }

    #[test]
    fn source_annotation_and_rest() {
        assert_eq!(
            kinds("{<dept 'CS'> | Rest1}>@whois"),
            vec![
                TokenKind::LBrace,
                TokenKind::Lt,
                TokenKind::Ident("dept".into()),
                TokenKind::Str("CS".into()),
                TokenKind::Gt,
                TokenKind::Pipe,
                TokenKind::Var("Rest1".into()),
                TokenKind::RBrace,
                TokenKind::Gt,
                TokenKind::At,
                TokenKind::Ident("whois".into()),
            ]
        );
    }

    #[test]
    fn params_and_keywords() {
        assert_eq!(
            kinds("$R AND and by"),
            vec![
                TokenKind::Param("R".into()),
                TokenKind::And,
                TokenKind::And,
                TokenKind::By
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("3 -7 2.5 1e3"),
            vec![
                TokenKind::Int(3),
                TokenKind::Int(-7),
                TokenKind::Real(2.5),
                TokenKind::Real(1000.0)
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r"'O\'Neil'"), vec![TokenKind::Str("O'Neil".into())]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("// hi\nperson"),
            vec![TokenKind::Ident("person".into())]
        );
    }

    #[test]
    fn booleans() {
        assert_eq!(
            kinds("true false"),
            vec![TokenKind::Bool(true), TokenKind::Bool(false)]
        );
    }

    #[test]
    fn error_position() {
        let err = tokenize("ok\n  #").unwrap_err();
        match err {
            MslError::Lex { pos, .. } => {
                assert_eq!(pos.line, 2);
                assert_eq!(pos.col, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'abc").is_err());
    }

    #[test]
    fn non_finite_real_is_a_bad_real() {
        let err = tokenize("<year 1e999>").unwrap_err();
        assert!(err.to_string().contains("bad real '1e999'"), "{err}");
        assert!(tokenize("<year 1e300>").is_ok());
    }

    #[test]
    fn underscore_identifiers() {
        assert_eq!(
            kinds("first_name Rest_1 _x"),
            vec![
                TokenKind::Ident("first_name".into()),
                TokenKind::Var("Rest_1".into()),
                TokenKind::Ident("_x".into()),
            ]
        );
    }
}
