//! Tokens of the XSQL surface syntax.

use std::fmt;

/// A lexical token with its source position (byte offset), used for
/// error reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// Byte offset of the token start in the source.
    pub offset: usize,
    /// Byte offset one past the token end (`src[offset..end]` is the
    /// token as written).
    pub end: usize,
}

/// Token kinds. Keywords are recognized case-insensitively by the lexer;
/// identifiers keep their spelling (OID case matters: `Person` and
/// `person` are different symbols).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword candidate (`Person`, `X`, `mary123`).
    Ident(String),
    /// Method-variable token `"Y` (§3.1: method variables are prefixed
    /// with a double-quote).
    MethodVar(String),
    /// Class-variable token `#X` (the paper's `§X`).
    ClassVar(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal `'newyork'`.
    Str(String),
    /// Positional parameter `?1` in a prepared statement body
    /// (1-based; `?0` is rejected by the lexer).
    Param(u32),
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `@`
    At,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=>` (scalar arrow in signatures)
    Arrow,
    /// `=>>` or `==>` (set arrow in signatures)
    SetArrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::MethodVar(s) => write!(f, "`\"{s}`"),
            TokenKind::ClassVar(s) => write!(f, "`#{s}`"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Real(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Param(n) => write!(f, "`?{n}`"),
            TokenKind::Dot => f.write_str("`.`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::LBracket => f.write_str("`[`"),
            TokenKind::RBracket => f.write_str("`]`"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::At => f.write_str("`@`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Ne => f.write_str("`!=`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Arrow => f.write_str("`=>`"),
            TokenKind::SetArrow => f.write_str("`=>>`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}
