//! Lexer for the XSQL surface syntax.
//!
//! Notable conventions, all taken from the paper's own notation:
//! strings are single-quoted (`'newyork'`, doubled quote escapes);
//! method variables are prefixed with a double-quote (`"Y`, §3.1);
//! class variables with `#` (the paper's `§`, which we also accept);
//! `--` starts a line comment. Keywords are matched case-insensitively
//! by the parser, the lexer only produces `Ident`.

use crate::error::XsqlError;
use crate::token::{Token, TokenKind};

/// Lexes a complete source string into tokens (with a trailing `Eof`).
pub fn lex(src: &str) -> Result<Vec<Token>, XsqlError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(XsqlError::lex(start, "unterminated string literal"));
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            // Strings may contain arbitrary UTF-8.
                            let ch = src[i..].chars().next().unwrap();
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                toks.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                    end: i,
                });
            }
            b'"' => {
                let start = i;
                i += 1;
                let (name, j) = take_ident(src, i)
                    .ok_or_else(|| XsqlError::lex(start, "expected identifier after `\"`"))?;
                i = j;
                toks.push(Token {
                    kind: TokenKind::MethodVar(name),
                    offset: start,
                    end: i,
                });
            }
            b'#' => {
                let start = i;
                i += 1;
                let (name, j) = take_ident(src, i)
                    .ok_or_else(|| XsqlError::lex(start, "expected identifier after `#`"))?;
                i = j;
                toks.push(Token {
                    kind: TokenKind::ClassVar(name),
                    offset: start,
                    end: i,
                });
            }
            b'?' => {
                let start = i;
                i += 1;
                let ds = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if ds == i {
                    return Err(XsqlError::lex(
                        start,
                        "expected parameter number after `?` (e.g. `?1`)",
                    ));
                }
                let n: u32 = src[ds..i]
                    .parse()
                    .map_err(|_| XsqlError::lex(start, "parameter number out of range"))?;
                if n == 0 {
                    return Err(XsqlError::lex(start, "parameters are numbered from ?1"));
                }
                toks.push(Token {
                    kind: TokenKind::Param(n),
                    offset: start,
                    end: i,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let is_real =
                    i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit();
                if is_real {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v: f64 = src[start..i]
                        .parse()
                        .map_err(|_| XsqlError::lex(start, "malformed real literal"))?;
                    toks.push(Token {
                        kind: TokenKind::Real(v),
                        offset: start,
                        end: i,
                    });
                } else {
                    let v: i64 = src[start..i]
                        .parse()
                        .map_err(|_| XsqlError::lex(start, "integer literal out of range"))?;
                    toks.push(Token {
                        kind: TokenKind::Int(v),
                        offset: start,
                        end: i,
                    });
                }
            }
            _ => {
                // Multi-char operators first.
                let start = i;
                let rest = &src[i..];
                let two = |t: TokenKind, toks: &mut Vec<Token>, i: &mut usize, n: usize| {
                    toks.push(Token {
                        kind: t,
                        offset: start,
                        end: start + n,
                    });
                    *i += n;
                };
                if rest.starts_with("=>>") || rest.starts_with("==>") {
                    two(TokenKind::SetArrow, &mut toks, &mut i, 3);
                } else if rest.starts_with("=>") {
                    two(TokenKind::Arrow, &mut toks, &mut i, 2);
                } else if rest.starts_with("!=") || rest.starts_with("<>") {
                    two(TokenKind::Ne, &mut toks, &mut i, 2);
                } else if rest.starts_with("<=") {
                    two(TokenKind::Le, &mut toks, &mut i, 2);
                } else if rest.starts_with(">=") {
                    two(TokenKind::Ge, &mut toks, &mut i, 2);
                } else if rest.starts_with('§') {
                    // The paper's class-variable sigil.
                    let n = '§'.len_utf8();
                    let (name, j) = take_ident(src, i + n)
                        .ok_or_else(|| XsqlError::lex(start, "expected identifier after `§`"))?;
                    i = j;
                    toks.push(Token {
                        kind: TokenKind::ClassVar(name),
                        offset: start,
                        end: i,
                    });
                } else if let Some((name, j)) = take_ident(src, i) {
                    i = j;
                    toks.push(Token {
                        kind: TokenKind::Ident(name),
                        offset: start,
                        end: i,
                    });
                } else {
                    let kind = match c {
                        b'.' => TokenKind::Dot,
                        b',' => TokenKind::Comma,
                        b';' => TokenKind::Semi,
                        b':' => TokenKind::Colon,
                        b'(' => TokenKind::LParen,
                        b')' => TokenKind::RParen,
                        b'[' => TokenKind::LBracket,
                        b']' => TokenKind::RBracket,
                        b'{' => TokenKind::LBrace,
                        b'}' => TokenKind::RBrace,
                        b'@' => TokenKind::At,
                        b'=' => TokenKind::Eq,
                        b'<' => TokenKind::Lt,
                        b'>' => TokenKind::Gt,
                        b'+' => TokenKind::Plus,
                        b'-' => TokenKind::Minus,
                        b'*' => TokenKind::Star,
                        b'/' => TokenKind::Slash,
                        _ => {
                            return Err(XsqlError::lex(
                                i,
                                &format!(
                                    "unexpected character `{}`",
                                    &src[i..].chars().next().unwrap()
                                ),
                            ))
                        }
                    };
                    toks.push(Token {
                        kind,
                        offset: i,
                        end: i + 1,
                    });
                    i += 1;
                }
            }
        }
    }
    toks.push(Token {
        kind: TokenKind::Eof,
        offset: src.len(),
        end: src.len(),
    });
    Ok(toks)
}

/// Reads an identifier `[A-Za-z_][A-Za-z0-9_]*` starting at byte `i`.
fn take_ident(src: &str, i: usize) -> Option<(String, usize)> {
    let bytes = src.as_bytes();
    let c = *bytes.get(i)?;
    if !(c.is_ascii_alphabetic() || c == b'_') {
        return None;
    }
    let mut j = i + 1;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    Some((src[i..j].to_string(), j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_paper_query_1() {
        let k = kinds("mary123.Residence.City");
        assert_eq!(
            k,
            vec![
                T::Ident("mary123".into()),
                T::Dot,
                T::Ident("Residence".into()),
                T::Dot,
                T::Ident("City".into()),
                T::Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_and_selectors() {
        let k = kinds("X.Residence[Y].City['newyork']");
        assert!(k.contains(&T::Str("newyork".into())));
        assert!(k.contains(&T::LBracket));
    }

    #[test]
    fn string_escape() {
        let k = kinds("'it''s'");
        assert_eq!(k[0], T::Str("it's".into()));
    }

    #[test]
    fn method_and_class_vars() {
        assert_eq!(kinds("X.\"Y.City")[2], T::MethodVar("Y".into()));
        assert_eq!(kinds("#X")[0], T::ClassVar("X".into()));
        assert_eq!(kinds("§X")[0], T::ClassVar("X".into()));
    }

    #[test]
    fn arrows_and_comparators() {
        assert_eq!(kinds("=>")[0], T::Arrow);
        assert_eq!(kinds("=>>")[0], T::SetArrow);
        assert_eq!(kinds("==>")[0], T::SetArrow);
        assert_eq!(kinds("!=")[0], T::Ne);
        assert_eq!(kinds("<>")[0], T::Ne);
        assert_eq!(kinds("<=")[0], T::Le);
        assert_eq!(kinds(">=")[0], T::Ge);
        assert_eq!(kinds("=")[0], T::Eq);
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("35000")[0], T::Int(35000));
        assert_eq!(kinds("3.5")[0], T::Real(3.5));
        // A dot not followed by a digit is a path dot, not a decimal.
        let k = kinds("20.Age");
        assert_eq!(k[0], T::Int(20));
        assert_eq!(k[1], T::Dot);
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("SELECT X -- the answer\nFROM Person X");
        assert_eq!(k[0], T::Ident("SELECT".into()));
        assert!(!k.iter().any(|t| matches!(t, T::Ident(s) if s == "answer")));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("'abc").is_err());
    }

    #[test]
    fn params() {
        assert_eq!(kinds("?1")[0], T::Param(1));
        assert_eq!(kinds("?42")[0], T::Param(42));
        assert!(lex("?").is_err());
        assert!(lex("?0").is_err());
    }

    #[test]
    fn method_expression_tokens() {
        let k = kinds("X.(MngrSalary @ Y)[W]");
        assert!(k.contains(&T::At));
        assert!(k.contains(&T::LParen));
    }
}
