//! Abstract syntax of mini-C.

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum UnOp {
    Neg,
    Not,
}

/// Expressions. All values are 64-bit words; comparisons are signed and
/// yield 0 or 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Expr {
    /// Integer literal.
    Number(i64),
    /// Variable, parameter or data-array reference (the latter evaluates to
    /// the array's address).
    Ident(String),
    /// `base[index]` — loads the 64-bit word at `base + 8·index`.
    Index(Box<Expr>, Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Stmt {
    /// `var x = expr;` — declares a local.
    Var(String, Expr),
    /// `x = expr;` — assigns a local or parameter.
    Assign(String, Expr),
    /// `base[index] = expr;` — stores a 64-bit word.
    Store(Expr, Expr, Expr),
    /// `if (cond) { … } else { … }` (else optional).
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { … }`.
    While(Expr, Vec<Stmt>),
    /// `return expr;`
    Return(Expr),
    /// `out(expr);` — emit a value on the observation channel.
    Out(Expr),
    /// An expression evaluated for its side effects (typically a call).
    Expr(Expr),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Function {
    /// Function name.
    pub name: String,
    /// Parameter names (at most six).
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Item {
    /// A function definition.
    Function(Function),
}

impl Item {
    /// The function, if this item is one.
    pub(crate) fn as_function(&self) -> &Function {
        match self {
            Item::Function(f) => f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_nodes_are_constructible_and_comparable() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Number(1)),
            Box::new(Expr::Ident("x".into())),
        );
        assert_eq!(e, e.clone());
        let f = Function {
            name: "f".into(),
            params: vec!["x".into()],
            body: vec![Stmt::Return(e)],
        };
        let item = Item::Function(f.clone());
        assert_eq!(item.as_function(), &f);
    }
}
