//! Recursive-descent parser for mini-C.

use crate::ast::{BinOp, Expr, Function, Item, Stmt, UnOp};
use crate::lexer::{Token, TokenKind};
use crate::CcError;

/// Parses a token stream into top-level items.
///
/// # Errors
///
/// Returns [`CcError::Parse`] with the offending line on malformed input.
pub(crate) fn parse(tokens: &[Token]) -> Result<Vec<Item>, CcError> {
    let mut parser = Parser { tokens, pos: 0 };
    let mut items = Vec::new();
    while !parser.at_eof() {
        items.push(Item::Function(parser.function()?));
    }
    Ok(items)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> &TokenKind {
        let kind = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CcError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(CcError::parse(
                self.line(),
                format!("expected `{p}`, found {:?}", self.peek()),
            ))
        }
    }

    fn eat_keyword(&mut self, k: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(q) if *q == k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: &str) -> Result<(), CcError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(CcError::parse(
                self.line(),
                format!("expected `{k}`, found {:?}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, CcError> {
        let line = self.line();
        match self.bump() {
            TokenKind::Ident(name) => Ok(name.clone()),
            other => Err(CcError::parse(
                line,
                format!("expected an identifier, found {other:?}"),
            )),
        }
    }

    fn function(&mut self) -> Result<Function, CcError> {
        self.expect_keyword("fn")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.ident()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(Function { name, params, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CcError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(CcError::parse(
                    self.line(),
                    "unterminated block".to_string(),
                ));
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt, CcError> {
        if self.eat_keyword("var") {
            let name = self.ident()?;
            self.expect_punct("=")?;
            let value = self.expression()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Var(name, value));
        }
        if self.eat_keyword("if") {
            self.expect_punct("(")?;
            let cond = self.expression()?;
            self.expect_punct(")")?;
            let then_body = self.block()?;
            let else_body = if self.eat_keyword("else") {
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(cond, then_body, else_body));
        }
        if self.eat_keyword("while") {
            self.expect_punct("(")?;
            let cond = self.expression()?;
            self.expect_punct(")")?;
            let body = self.block()?;
            return Ok(Stmt::While(cond, body));
        }
        if self.eat_keyword("return") {
            let value = self.expression()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(value));
        }
        if self.eat_keyword("out") {
            self.expect_punct("(")?;
            let value = self.expression()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::Out(value));
        }
        // Expression-led statements: assignment, store or bare expression.
        let line = self.line();
        let expr = self.expression()?;
        if self.eat_punct("=") {
            let value = self.expression()?;
            self.expect_punct(";")?;
            return match expr {
                Expr::Ident(name) => Ok(Stmt::Assign(name, value)),
                Expr::Index(base, index) => Ok(Stmt::Store(*base, *index, value)),
                _ => Err(CcError::parse(
                    line,
                    "only variables and array elements can be assigned".to_string(),
                )),
            };
        }
        self.expect_punct(";")?;
        Ok(Stmt::Expr(expr))
    }

    fn expression(&mut self) -> Result<Expr, CcError> {
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, CcError> {
        let mut left = self.bitwise()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("<") => BinOp::Lt,
                TokenKind::Punct("<=") => BinOp::Le,
                TokenKind::Punct(">") => BinOp::Gt,
                TokenKind::Punct(">=") => BinOp::Ge,
                TokenKind::Punct("==") => BinOp::Eq,
                TokenKind::Punct("!=") => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let right = self.bitwise()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn bitwise(&mut self) -> Result<Expr, CcError> {
        let mut left = self.shift()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("&") => BinOp::And,
                TokenKind::Punct("|") => BinOp::Or,
                TokenKind::Punct("^") => BinOp::Xor,
                _ => break,
            };
            self.bump();
            let right = self.shift()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn shift(&mut self) -> Result<Expr, CcError> {
        let mut left = self.additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("<<") => BinOp::Shl,
                TokenKind::Punct(">>") => BinOp::Shr,
                _ => break,
            };
            self.bump();
            let right = self.additive()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, CcError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("+") => BinOp::Add,
                TokenKind::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, CcError> {
        let mut left = self.unary()?;
        while matches!(self.peek(), TokenKind::Punct("*")) {
            self.bump();
            let right = self.unary()?;
            left = Expr::Bin(BinOp::Mul, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, CcError> {
        if self.eat_punct("-") {
            return Ok(Expr::Un(UnOp::Neg, Box::new(self.unary()?)));
        }
        if self.eat_punct("!") {
            return Ok(Expr::Un(UnOp::Not, Box::new(self.unary()?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, CcError> {
        let mut expr = self.primary()?;
        loop {
            if self.eat_punct("[") {
                let index = self.expression()?;
                self.expect_punct("]")?;
                expr = Expr::Index(Box::new(expr), Box::new(index));
            } else if matches!(self.peek(), TokenKind::Punct("(")) {
                // Calls are only allowed on plain identifiers.
                let name = match &expr {
                    Expr::Ident(name) => name.clone(),
                    _ => {
                        return Err(CcError::parse(
                            self.line(),
                            "only named functions can be called".to_string(),
                        ))
                    }
                };
                self.bump();
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.expression()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                expr = Expr::Call(name, args);
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, CcError> {
        let line = self.line();
        match self.bump().clone() {
            TokenKind::Number(value) => Ok(Expr::Number(value)),
            TokenKind::Ident(name) => Ok(Expr::Ident(name)),
            TokenKind::Punct("(") => {
                let inner = self.expression()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            other => Err(CcError::parse(
                line,
                format!("expected an expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<Item> {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_a_function_with_params_and_return() {
        let items = parse_src("fn add(a, b) { return a + b; }");
        let f = items[0].as_function();
        assert_eq!(f.name, "add");
        assert_eq!(f.params, vec!["a", "b"]);
        assert_eq!(
            f.body,
            vec![Stmt::Return(Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Ident("a".into())),
                Box::new(Expr::Ident("b".into()))
            ))]
        );
    }

    #[test]
    fn precedence_mul_before_add_before_compare() {
        let items = parse_src("fn f(a, b, c) { return a + b * c < 10; }");
        match &items[0].as_function().body[0] {
            Stmt::Return(Expr::Bin(BinOp::Lt, left, right)) => {
                assert!(matches!(**right, Expr::Number(10)));
                match &**left {
                    Expr::Bin(BinOp::Add, _, mul) => {
                        assert!(matches!(**mul, Expr::Bin(BinOp::Mul, _, _)))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow_and_arrays() {
        let items = parse_src(
            "fn main() {
                var i = 0;
                while (i < 10) {
                    if (t[i] > 5) { out(t[i]); } else { t[i] = 0; }
                    i = i + 1;
                }
             }",
        );
        let body = &items[0].as_function().body;
        assert!(matches!(body[0], Stmt::Var(..)));
        match &body[1] {
            Stmt::While(_, inner) => {
                assert!(matches!(inner[0], Stmt::If(..)));
                assert!(matches!(inner[1], Stmt::Assign(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_calls_and_nested_indexing() {
        let items = parse_src("fn main() { out(f(a[i], g(1) + 2)); }");
        match &items[0].as_function().body[0] {
            Stmt::Out(Expr::Call(name, args)) => {
                assert_eq!(name, "f");
                assert_eq!(args.len(), 2);
                assert!(matches!(args[0], Expr::Index(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_statement() {
        let items = parse_src("fn main() { t[i + 1] = 3 * j; }");
        assert!(matches!(items[0].as_function().body[0], Stmt::Store(..)));
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse(&lex("fn f( { }").unwrap()).unwrap_err();
        assert!(matches!(err, CcError::Parse { line: 1, .. }));
        let err = parse(&lex("fn f() {\n return 1 +;\n}").unwrap()).unwrap_err();
        assert!(matches!(err, CcError::Parse { line: 2, .. }));
        let err = parse(&lex("fn f() { 1 = 2; }").unwrap()).unwrap_err();
        assert!(matches!(err, CcError::Parse { .. }));
    }
}
