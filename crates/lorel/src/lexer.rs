//! LOREL tokenizer.

use crate::{LorelError, Result};

/// One token with its byte offset.
#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    pub kind: Tok,
    pub pos: usize,
}

/// Token kinds. Keywords are case-insensitive.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok {
    Select,
    From,
    Where,
    And,
    Star,
    Comma,
    Dot,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Ident(String),
    Str(String),
    Int(i64),
    Real(f64),
    Bool(bool),
}

/// Tokenize LOREL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes: Vec<char> = input.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        let pos = i;
        match c {
            _ if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&'-') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '*' => {
                out.push(Token {
                    kind: Tok::Star,
                    pos,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    kind: Tok::Comma,
                    pos,
                });
                i += 1;
            }
            '.' => {
                out.push(Token {
                    kind: Tok::Dot,
                    pos,
                });
                i += 1;
            }
            '=' => {
                out.push(Token { kind: Tok::Eq, pos });
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&'=') => {
                out.push(Token {
                    kind: Tok::Neq,
                    pos,
                });
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token { kind: Tok::Le, pos });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&'>') {
                    out.push(Token {
                        kind: Tok::Neq,
                        pos,
                    });
                    i += 2;
                } else {
                    out.push(Token { kind: Tok::Lt, pos });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token { kind: Tok::Ge, pos });
                    i += 2;
                } else {
                    out.push(Token { kind: Tok::Gt, pos });
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(LorelError::Lex {
                                msg: "unterminated string literal".into(),
                                pos,
                            })
                        }
                        Some(&ch) if ch == quote => {
                            i += 1;
                            break;
                        }
                        Some('\\') => {
                            i += 1;
                            match bytes.get(i) {
                                Some(&e) => {
                                    s.push(match e {
                                        'n' => '\n',
                                        't' => '\t',
                                        other => other,
                                    });
                                    i += 1;
                                }
                                None => {
                                    return Err(LorelError::Lex {
                                        msg: "unterminated escape".into(),
                                        pos,
                                    })
                                }
                            }
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                    }
                }
                out.push(Token {
                    kind: Tok::Str(s),
                    pos,
                });
            }
            _ if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let mut s = String::new();
                if c == '-' {
                    s.push('-');
                    i += 1;
                }
                let mut real = false;
                while let Some(&d) = bytes.get(i) {
                    if d.is_ascii_digit() {
                        s.push(d);
                        i += 1;
                    } else if d == '.'
                        && !real
                        && bytes.get(i + 1).is_some_and(|x| x.is_ascii_digit())
                    {
                        real = true;
                        s.push('.');
                        i += 1;
                    } else {
                        break;
                    }
                }
                let bad = |what: &str| LorelError::Lex {
                    msg: format!("bad {what} '{s}'"),
                    pos,
                };
                let kind = if real {
                    match s.parse::<f64>() {
                        Ok(x) if x.is_finite() => Tok::Real(x),
                        _ => return Err(bad("real")),
                    }
                } else {
                    Tok::Int(s.parse().map_err(|_| bad("integer"))?)
                };
                out.push(Token { kind, pos });
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = bytes.get(i) {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        i += 1;
                    } else {
                        break;
                    }
                }
                let kind = match s.to_ascii_lowercase().as_str() {
                    "select" => Tok::Select,
                    "from" => Tok::From,
                    "where" => Tok::Where,
                    "and" => Tok::And,
                    "true" => Tok::Bool(true),
                    "false" => Tok::Bool(false),
                    _ => Tok::Ident(s),
                };
                out.push(Token { kind, pos });
            }
            other => {
                return Err(LorelError::Lex {
                    msg: format!("unexpected character '{other}'"),
                    pos,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("SELECT from Where AND"),
            vec![Tok::Select, Tok::From, Tok::Where, Tok::And]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= != < <= > >= <>"),
            vec![
                Tok::Eq,
                Tok::Neq,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Neq
            ]
        );
    }

    #[test]
    fn paths_and_literals() {
        assert_eq!(
            kinds("P.name 'Joe' \"Ann\" 3 -7 2.5 true"),
            vec![
                Tok::Ident("P".into()),
                Tok::Dot,
                Tok::Ident("name".into()),
                Tok::Str("Joe".into()),
                Tok::Str("Ann".into()),
                Tok::Int(3),
                Tok::Int(-7),
                Tok::Real(2.5),
                Tok::Bool(true),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("select -- hi\nP"),
            vec![Tok::Select, Tok::Ident("P".into())]
        );
    }

    #[test]
    fn lex_errors() {
        assert!(tokenize("select 'open").is_err());
        assert!(tokenize("select #").is_err());
    }

    #[test]
    fn non_finite_real_is_a_bad_real() {
        // LOREL has no exponent, so a real past f64's range is all digits.
        let huge = format!("1{}.0", "0".repeat(400));
        let err = tokenize(&format!("P.year = {huge}")).unwrap_err();
        assert!(err.to_string().contains("bad real"), "{err}");
        assert!(tokenize(&format!("P.year = {}", &huge[100..])).is_ok());
    }
}
