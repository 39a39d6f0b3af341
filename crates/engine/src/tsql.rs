//! A T-SQL-flavoured lexer and parser covering the dialect the paper's
//! examples use: `DECLARE`/`SET` with `@variables`, `SELECT` lists with
//! aliases and `@var = expr` assignment items, `TOP n`, schema-qualified
//! function calls (`FloatArray.Item_1`), `FROM ... WITH (NOLOCK)`,
//! `WHERE`, and `GROUP BY`.

use crate::expr::{AggFunc, BinOp, Expr};
use crate::value::{EngineError, Result, Value};

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

/// One statement of the supported dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `DECLARE @name [TYPE] [= expr]` (the type annotation is parsed and
    /// ignored — storage is dynamically typed here).
    Declare {
        /// Variable name (without `@`).
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `SET @name = expr`.
    Set {
        /// Variable name (without `@`).
        name: String,
        /// Value expression.
        expr: Expr,
    },
    /// A `SELECT`.
    Select(SelectStmt),
    /// An `UPDATE ... SET ... [WHERE ...]`.
    Update(UpdateStmt),
    /// A `DELETE FROM ... [WHERE ...]`.
    Delete(DeleteStmt),
}

/// A parsed `UPDATE`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET col = expr` assignments, in statement order.
    pub sets: Vec<(String, Expr)>,
    /// `WHERE` predicate; `None` updates every row.
    pub where_clause: Option<Expr>,
}

/// A parsed `DELETE`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// `WHERE` predicate; `None` deletes every row.
    pub where_clause: Option<Expr>,
}

/// A parsed `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `TOP n` row cap.
    pub top: Option<usize>,
    /// Select-list items.
    pub items: Vec<SelectItem>,
    /// Source table (single-table dialect).
    pub from: Option<String>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
}

/// One select-list item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// `AS alias`.
    pub alias: Option<String>,
    /// `@var = expr` assignment target.
    pub assign: Option<String>,
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Var(String),
    Int(i64),
    Float(f64),
    Str(String),
    Hex(Vec<u8>),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Semi,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> EngineError {
        EngineError::Parse {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn tokens(mut self) -> Result<Vec<(usize, Tok)>> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let start = self.pos;
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'-' if self.peek(1) == Some(b'-') => {
                    // Line comment.
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'(' => {
                    self.pos += 1;
                    out.push((start, Tok::LParen));
                }
                b')' => {
                    self.pos += 1;
                    out.push((start, Tok::RParen));
                }
                b',' => {
                    self.pos += 1;
                    out.push((start, Tok::Comma));
                }
                b'.' if !self.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false) => {
                    self.pos += 1;
                    out.push((start, Tok::Dot));
                }
                b'*' => {
                    self.pos += 1;
                    out.push((start, Tok::Star));
                }
                b'+' => {
                    self.pos += 1;
                    out.push((start, Tok::Plus));
                }
                b'-' => {
                    self.pos += 1;
                    out.push((start, Tok::Minus));
                }
                b'/' => {
                    self.pos += 1;
                    out.push((start, Tok::Slash));
                }
                b'%' => {
                    self.pos += 1;
                    out.push((start, Tok::Percent));
                }
                b';' => {
                    self.pos += 1;
                    out.push((start, Tok::Semi));
                }
                b'=' => {
                    self.pos += 1;
                    out.push((start, Tok::Eq));
                }
                b'<' => {
                    self.pos += 1;
                    match self.src.get(self.pos) {
                        Some(b'=') => {
                            self.pos += 1;
                            out.push((start, Tok::Le));
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            out.push((start, Tok::Ne));
                        }
                        _ => out.push((start, Tok::Lt)),
                    }
                }
                b'>' => {
                    self.pos += 1;
                    if self.src.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        out.push((start, Tok::Ge));
                    } else {
                        out.push((start, Tok::Gt));
                    }
                }
                b'!' if self.peek(1) == Some(b'=') => {
                    self.pos += 2;
                    out.push((start, Tok::Ne));
                }
                b'\'' => {
                    self.pos += 1;
                    let mut s = String::new();
                    loop {
                        match self.src.get(self.pos) {
                            Some(b'\'') if self.peek(1) == Some(b'\'') => {
                                s.push('\'');
                                self.pos += 2;
                            }
                            Some(b'\'') => {
                                self.pos += 1;
                                break;
                            }
                            Some(&b) => {
                                s.push(b as char);
                                self.pos += 1;
                            }
                            None => return Err(self.error("unterminated string")),
                        }
                    }
                    out.push((start, Tok::Str(s)));
                }
                b'@' => {
                    self.pos += 1;
                    let name = self.take_ident_chars();
                    if name.is_empty() {
                        return Err(self.error("expected variable name after `@`"));
                    }
                    out.push((start, Tok::Var(name)));
                }
                b'0' if matches!(self.peek(1), Some(b'x') | Some(b'X')) => {
                    self.pos += 2;
                    let mut bytes = Vec::new();
                    let mut digits = String::new();
                    while let Some(&b) = self.src.get(self.pos) {
                        if b.is_ascii_hexdigit() {
                            digits.push(b as char);
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    if digits.len() % 2 != 0 {
                        digits.insert(0, '0');
                    }
                    fn nibble(b: u8) -> u8 {
                        match b {
                            b'0'..=b'9' => b - b'0',
                            b'a'..=b'f' => b - b'a' + 10,
                            _ => b - b'A' + 10,
                        }
                    }
                    for pair in digits.as_bytes().chunks(2) {
                        bytes.push((nibble(pair[0]) << 4) | nibble(pair[1]));
                    }
                    out.push((start, Tok::Hex(bytes)));
                }
                b'0'..=b'9' | b'.' => {
                    let mut text = String::new();
                    let mut is_float = false;
                    while let Some(&b) = self.src.get(self.pos) {
                        match b {
                            b'0'..=b'9' => {
                                text.push(b as char);
                                self.pos += 1;
                            }
                            b'.' if !is_float => {
                                is_float = true;
                                text.push('.');
                                self.pos += 1;
                            }
                            b'e' | b'E' => {
                                is_float = true;
                                text.push('e');
                                self.pos += 1;
                                if matches!(self.src.get(self.pos), Some(b'+') | Some(b'-')) {
                                    text.push(self.src[self.pos] as char);
                                    self.pos += 1;
                                }
                            }
                            _ => break,
                        }
                    }
                    if is_float {
                        let v: f64 = text
                            .parse()
                            .map_err(|_| self.error(&format!("bad number `{text}`")))?;
                        out.push((start, Tok::Float(v)));
                    } else {
                        let v: i64 = text
                            .parse()
                            .map_err(|_| self.error(&format!("bad number `{text}`")))?;
                        out.push((start, Tok::Int(v)));
                    }
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'[' => {
                    if c == b'[' {
                        // Bracket-quoted identifier.
                        self.pos += 1;
                        let mut name = String::new();
                        while let Some(&b) = self.src.get(self.pos) {
                            if b == b']' {
                                break;
                            }
                            name.push(b as char);
                            self.pos += 1;
                        }
                        if self.src.get(self.pos) != Some(&b']') {
                            return Err(self.error("unterminated `[identifier]`"));
                        }
                        self.pos += 1;
                        out.push((start, Tok::Ident(name)));
                    } else {
                        let name = self.take_ident_chars();
                        out.push((start, Tok::Ident(name)));
                    }
                }
                other => {
                    return Err(self.error(&format!("unexpected character `{}`", other as char)))
                }
            }
        }
        Ok(out)
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn take_ident_chars(&mut self) -> String {
        let start = self.pos;
        while let Some(&b) = self.src.get(self.pos) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

/// Parses a batch of statements.
pub fn parse(src: &str) -> Result<Vec<Stmt>> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        if p.eat(&Tok::Semi) {
            continue;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn error(&self, msg: &str) -> EngineError {
        let pos = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|(p, _)| *p)
            .unwrap_or(0);
        EngineError::Parse {
            pos,
            msg: msg.to_string(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {what}")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn statement(&mut self) -> Result<Stmt> {
        if self.eat_keyword("DECLARE") {
            let name = self.var_name()?;
            // Optional type annotation: one identifier, optionally with a
            // parenthesized size like VARBINARY(MAX) or VARBINARY(8000).
            if let Some(Tok::Ident(_)) = self.peek() {
                self.pos += 1;
                if self.eat(&Tok::LParen) {
                    // MAX or a number.
                    match self.next() {
                        Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("MAX") => {}
                        Some(Tok::Int(_)) => {}
                        _ => return Err(self.error("expected size or MAX")),
                    }
                    self.expect(&Tok::RParen, "`)`")?;
                }
            }
            let init = if self.eat(&Tok::Eq) {
                Some(self.expr()?)
            } else {
                None
            };
            Ok(Stmt::Declare { name, init })
        } else if self.eat_keyword("SET") {
            let name = self.var_name()?;
            self.expect(&Tok::Eq, "`=`")?;
            let expr = self.expr()?;
            Ok(Stmt::Set { name, expr })
        } else if self.peek_keyword("SELECT") {
            self.pos += 1;
            Ok(Stmt::Select(self.select_body()?))
        } else if self.eat_keyword("UPDATE") {
            let table = match self.next() {
                Some(Tok::Ident(t)) => t,
                _ => return Err(self.error("expected table name after UPDATE")),
            };
            if !self.eat_keyword("SET") {
                return Err(self.error("expected SET after UPDATE <table>"));
            }
            let mut sets = Vec::new();
            loop {
                let col = match self.next() {
                    Some(Tok::Ident(c)) => c,
                    _ => return Err(self.error("expected column name in SET list")),
                };
                self.expect(&Tok::Eq, "`=` in SET assignment")?;
                sets.push((col, self.expr()?));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            let where_clause = if self.eat_keyword("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            Ok(Stmt::Update(UpdateStmt {
                table,
                sets,
                where_clause,
            }))
        } else if self.eat_keyword("DELETE") {
            if !self.eat_keyword("FROM") {
                return Err(self.error("expected FROM after DELETE"));
            }
            let table = match self.next() {
                Some(Tok::Ident(t)) => t,
                _ => return Err(self.error("expected table name after DELETE FROM")),
            };
            let where_clause = if self.eat_keyword("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            Ok(Stmt::Delete(DeleteStmt {
                table,
                where_clause,
            }))
        } else {
            Err(self.error("expected DECLARE, SET, SELECT, UPDATE or DELETE"))
        }
    }

    fn var_name(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Var(name)) => Ok(name),
            _ => Err(self.error("expected @variable")),
        }
    }

    fn select_body(&mut self) -> Result<SelectStmt> {
        let top = if self.eat_keyword("TOP") {
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as usize),
                _ => return Err(self.error("expected row count after TOP")),
            }
        } else {
            None
        };

        let mut items = vec![self.select_item()?];
        while self.eat(&Tok::Comma) {
            items.push(self.select_item()?);
        }

        let mut from = None;
        let mut where_clause = None;
        let mut group_by = Vec::new();
        if self.eat_keyword("FROM") {
            let table = match self.next() {
                Some(Tok::Ident(t)) => t,
                _ => return Err(self.error("expected table name after FROM")),
            };
            from = Some(table);
            // WITH (NOLOCK) — parsed and ignored, like the real hint on a
            // read-only scan.
            if self.eat_keyword("WITH") {
                self.expect(&Tok::LParen, "`(` after WITH")?;
                if !self.eat_keyword("NOLOCK") {
                    return Err(self.error("only the NOLOCK hint is supported"));
                }
                self.expect(&Tok::RParen, "`)`")?;
            }
            if self.eat_keyword("WHERE") {
                where_clause = Some(self.expr()?);
            }
            if self.eat_keyword("GROUP") {
                if !self.eat_keyword("BY") {
                    return Err(self.error("expected BY after GROUP"));
                }
                group_by.push(self.expr()?);
                while self.eat(&Tok::Comma) {
                    group_by.push(self.expr()?);
                }
            }
        }
        Ok(SelectStmt {
            top,
            items,
            from,
            where_clause,
            group_by,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        // `@var = expr` assignment item.
        if let Some(Tok::Var(name)) = self.peek().cloned() {
            if self.toks.get(self.pos + 1).map(|(_, t)| t) == Some(&Tok::Eq) {
                self.pos += 2;
                let expr = self.expr()?;
                return Ok(SelectItem {
                    expr,
                    alias: None,
                    assign: Some(name),
                });
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            match self.next() {
                Some(Tok::Ident(a)) => Some(a),
                _ => return Err(self.error("expected alias after AS")),
            }
        } else {
            None
        };
        Ok(SelectItem {
            expr,
            alias,
            assign: None,
        })
    }

    // --- expressions, precedence climbing -----------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Bin {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::Bin {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(BinOp::Eq),
            Some(Tok::Ne) => Some(BinOp::Ne),
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            Ok(Expr::Bin {
                op,
                left: Box::new(left),
                right: Box::new(right),
            })
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Bin {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Bin {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Minus) {
            Ok(Expr::Neg(Box::new(self.unary_expr()?)))
        } else if self.eat(&Tok::Plus) {
            self.unary_expr()
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Lit(Value::I64(v))),
            Some(Tok::Float(v)) => Ok(Expr::Lit(Value::F64(v))),
            Some(Tok::Str(s)) => Ok(Expr::Lit(Value::Str(s))),
            Some(Tok::Hex(b)) => Ok(Expr::Lit(Value::Bytes(b))),
            Some(Tok::Var(name)) => Ok(Expr::Var(name)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(first)) => {
                if first.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Lit(Value::Null));
                }
                const RESERVED: &[&str] = &[
                    "SELECT", "FROM", "WHERE", "GROUP", "BY", "TOP", "AS", "WITH", "NOLOCK",
                    "DECLARE", "SET", "ORDER", "UPDATE", "DELETE",
                ];
                if RESERVED.iter().any(|k| first.eq_ignore_ascii_case(k)) {
                    self.pos -= 1;
                    return Err(self.error(&format!("unexpected keyword `{first}`")));
                }
                // Qualified name: ident (. ident)*
                let mut name = first;
                while self.eat(&Tok::Dot) {
                    match self.next() {
                        Some(Tok::Ident(part)) => {
                            name.push('.');
                            name.push_str(&part);
                        }
                        _ => return Err(self.error("expected identifier after `.`")),
                    }
                }
                if self.eat(&Tok::LParen) {
                    // Built-in aggregate?
                    let agg = match name.to_ascii_uppercase().as_str() {
                        "COUNT" => Some(AggFunc::Count),
                        "SUM" => Some(AggFunc::Sum),
                        "AVG" => Some(AggFunc::Avg),
                        "MIN" => Some(AggFunc::Min),
                        "MAX" => Some(AggFunc::Max),
                        _ => None,
                    };
                    if let Some(func) = agg {
                        if func == AggFunc::Count && self.eat(&Tok::Star) {
                            self.expect(&Tok::RParen, "`)`")?;
                            return Ok(Expr::Agg {
                                func: AggFunc::CountStar,
                                arg: None,
                            });
                        }
                        let arg = self.expr()?;
                        self.expect(&Tok::RParen, "`)`")?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                        });
                    }
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        args.push(self.expr()?);
                        while self.eat(&Tok::Comma) {
                            args.push(self.expr()?);
                        }
                        self.expect(&Tok::RParen, "`)`")?;
                    }
                    Ok(Expr::Func { name, args })
                } else {
                    Ok(Expr::Col(name))
                }
            }
            _ => Err(self.error("expected expression")),
        }
    }
}

#[cfg(test)]
/// Parses a single expression: the tests' way to build one.
pub(crate) fn parse_expr(src: &str) -> Result<Expr> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.expr()?;
    if !p.at_end() {
        return Err(p.error("trailing tokens after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_and_parse_paper_query4() {
        let stmts =
            parse("SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)").unwrap();
        assert_eq!(stmts.len(), 1);
        let Stmt::Select(s) = &stmts[0] else {
            panic!("expected SELECT");
        };
        assert_eq!(s.from.as_deref(), Some("Tvector"));
        let Expr::Agg { func, arg } = &s.items[0].expr else {
            panic!("expected aggregate");
        };
        assert_eq!(*func, AggFunc::Sum);
        let Expr::Func { name, args } = arg.as_deref().unwrap() else {
            panic!("expected function call");
        };
        assert_eq!(name, "floatarray.Item_1");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn count_star() {
        let stmts = parse("SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)").unwrap();
        let Stmt::Select(s) = &stmts[0] else { panic!() };
        assert_eq!(
            s.items[0].expr,
            Expr::Agg {
                func: AggFunc::CountStar,
                arg: None
            }
        );
    }

    #[test]
    fn declare_with_type_and_init() {
        let stmts = parse(
            "DECLARE @a VARBINARY(MAX) = FloatArray.Vector_2(1.0, 2.0); \
             DECLARE @b VARBINARY(100); \
             SET @b = @a",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(&stmts[0], Stmt::Declare { name, init: Some(_) } if name == "a"));
        assert!(matches!(&stmts[1], Stmt::Declare { name, init: None } if name == "b"));
        assert!(matches!(&stmts[2], Stmt::Set { name, .. } if name == "b"));
    }

    #[test]
    fn select_assignment_item() {
        let stmts = parse("SELECT @a = FloatArrayMax.Concat(@l, ix, v) FROM tbl").unwrap();
        let Stmt::Select(s) = &stmts[0] else { panic!() };
        assert_eq!(s.items[0].assign.as_deref(), Some("a"));
        assert!(
            matches!(&s.items[0].expr, Expr::Func { name, .. } if name == "FloatArrayMax.Concat")
        );
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3 < 10 AND NOT 0").unwrap();
        // ((1 + (2*3)) < 10) AND (NOT 0)
        let Expr::Bin {
            op: BinOp::And,
            left,
            ..
        } = e
        else {
            panic!()
        };
        let Expr::Bin {
            op: BinOp::Lt,
            left: add,
            ..
        } = *left
        else {
            panic!()
        };
        let Expr::Bin { op: BinOp::Add, .. } = *add else {
            panic!()
        };
    }

    #[test]
    fn where_group_by_top_alias() {
        let stmts =
            parse("SELECT TOP 5 id AS ident, SUM(x) FROM t WHERE id % 2 = 0 GROUP BY id % 10")
                .unwrap();
        let Stmt::Select(s) = &stmts[0] else { panic!() };
        assert_eq!(s.top, Some(5));
        assert_eq!(s.items[0].alias.as_deref(), Some("ident"));
        assert!(s.where_clause.is_some());
        assert_eq!(s.group_by.len(), 1);
    }

    #[test]
    fn literals() {
        assert_eq!(parse_expr("NULL").unwrap(), Expr::Lit(Value::Null));
        assert_eq!(
            parse_expr("0x0AFF").unwrap(),
            Expr::Lit(Value::Bytes(vec![0x0A, 0xFF]))
        );
        assert_eq!(
            parse_expr("'it''s'").unwrap(),
            Expr::Lit(Value::Str("it's".into()))
        );
        assert_eq!(parse_expr("1.5e2").unwrap(), Expr::Lit(Value::F64(150.0)));
        assert_eq!(
            parse_expr("-3").unwrap(),
            Expr::Neg(Box::new(Expr::Lit(Value::I64(3))))
        );
    }

    #[test]
    fn comments_are_skipped() {
        let stmts = parse("SELECT 1 -- the answer\n").unwrap();
        assert_eq!(stmts.len(), 1);
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("SELECT FROM").unwrap_err();
        assert!(matches!(err, EngineError::Parse { .. }));
        let err = parse_expr("1 +").unwrap_err();
        assert!(matches!(err, EngineError::Parse { .. }));
        assert!(parse("FROB x").is_err());
        assert!(parse("SELECT 'unterminated").is_err());
    }

    #[test]
    fn update_and_delete_statements() {
        let stmts = parse(
            "UPDATE Tvector SET v = FloatArray.Vector_2(1.0, 2.0), id = id + 1 WHERE id > 3;\
             DELETE FROM Tvector WHERE id = 0;\
             DELETE FROM Tvector",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        let Stmt::Update(u) = &stmts[0] else {
            panic!("expected UPDATE")
        };
        assert_eq!(u.table, "Tvector");
        assert_eq!(u.sets.len(), 2);
        assert_eq!(u.sets[0].0, "v");
        assert_eq!(u.sets[1].0, "id");
        assert!(u.where_clause.is_some());
        let Stmt::Delete(d) = &stmts[1] else {
            panic!("expected DELETE")
        };
        assert_eq!(d.table, "Tvector");
        assert!(d.where_clause.is_some());
        let Stmt::Delete(d2) = &stmts[2] else {
            panic!("expected DELETE")
        };
        assert!(d2.where_clause.is_none());
    }

    #[test]
    fn update_delete_syntax_errors() {
        assert!(parse("UPDATE SET x = 1").is_err()); // SET is reserved: no table
        assert!(parse("UPDATE t x = 1").is_err());
        assert!(parse("UPDATE t SET = 1").is_err());
        assert!(parse("UPDATE t SET x 1").is_err());
        assert!(parse("DELETE t WHERE x = 1").is_err());
        assert!(parse("DELETE FROM WHERE x = 1").is_err());
    }

    #[test]
    fn bracket_quoted_identifiers() {
        let e = parse_expr("[weird name]").unwrap();
        assert_eq!(e, Expr::Col("weird name".into()));
    }
}
