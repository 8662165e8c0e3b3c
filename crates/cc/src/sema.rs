//! Semantic checks.

use std::collections::{HashMap, HashSet};

use crate::ast::{Expr, Function, Item, Stmt};
use crate::codegen::CompileOptions;
use crate::CcError;

/// Checks a parsed program: a zero-argument `main` exists, function names
/// are unique, calls match arities, and every identifier refers to a
/// parameter, a declared local, or a data array supplied by the
/// [`CompileOptions`].
///
/// # Errors
///
/// Returns [`CcError::Sema`] describing the first problem found.
pub(crate) fn check(items: &[Item], options: &CompileOptions) -> Result<(), CcError> {
    let mut arities: HashMap<&str, usize> = HashMap::new();
    for item in items {
        let f = item.as_function();
        if arities.insert(&f.name, f.params.len()).is_some() {
            return Err(CcError::sema(format!(
                "function `{}` is defined twice",
                f.name
            )));
        }
        if f.params.len() > 6 {
            return Err(CcError::sema(format!(
                "function `{}` has {} parameters; at most 6 are supported",
                f.name,
                f.params.len()
            )));
        }
        let mut seen = HashSet::new();
        for p in &f.params {
            if !seen.insert(p) {
                return Err(CcError::sema(format!(
                    "parameter `{p}` of `{}` is duplicated",
                    f.name
                )));
            }
        }
    }
    match arities.get("main") {
        None => return Err(CcError::sema("no `main` function".to_string())),
        Some(0) => {}
        Some(n) => {
            return Err(CcError::sema(format!(
                "`main` must take no parameters, it takes {n}"
            )))
        }
    }

    let data_symbols: HashSet<&str> = options.data.iter().map(|(name, _)| name.as_str()).collect();
    for item in items {
        check_function(item.as_function(), &arities, &data_symbols)?;
    }
    Ok(())
}

fn check_function(
    f: &Function,
    arities: &HashMap<&str, usize>,
    data: &HashSet<&str>,
) -> Result<(), CcError> {
    let mut names: HashSet<String> = f.params.iter().cloned().collect();
    collect_locals(&f.body, &mut names, f)?;
    check_stmts(&f.body, &names, arities, data, f)
}

fn collect_locals(
    stmts: &[Stmt],
    names: &mut HashSet<String>,
    f: &Function,
) -> Result<(), CcError> {
    for stmt in stmts {
        match stmt {
            Stmt::Var(name, _) if !names.insert(name.clone()) => {
                return Err(CcError::sema(format!(
                    "variable `{name}` is declared twice in `{}`",
                    f.name
                )));
            }
            Stmt::Var(..) => {}
            Stmt::If(_, a, b) => {
                collect_locals(a, names, f)?;
                collect_locals(b, names, f)?;
            }
            Stmt::While(_, body) => collect_locals(body, names, f)?,
            _ => {}
        }
    }
    Ok(())
}

fn check_stmts(
    stmts: &[Stmt],
    names: &HashSet<String>,
    arities: &HashMap<&str, usize>,
    data: &HashSet<&str>,
    f: &Function,
) -> Result<(), CcError> {
    for stmt in stmts {
        match stmt {
            Stmt::Var(_, e) | Stmt::Return(e) | Stmt::Out(e) | Stmt::Expr(e) => {
                check_expr(e, names, arities, data, f)?;
            }
            Stmt::Assign(name, e) => {
                if !names.contains(name) {
                    return Err(CcError::sema(format!(
                        "assignment to undeclared variable `{name}` in `{}`",
                        f.name
                    )));
                }
                check_expr(e, names, arities, data, f)?;
            }
            Stmt::Store(base, index, value) => {
                check_expr(base, names, arities, data, f)?;
                check_expr(index, names, arities, data, f)?;
                check_expr(value, names, arities, data, f)?;
            }
            Stmt::If(c, a, b) => {
                check_expr(c, names, arities, data, f)?;
                check_stmts(a, names, arities, data, f)?;
                check_stmts(b, names, arities, data, f)?;
            }
            Stmt::While(c, body) => {
                check_expr(c, names, arities, data, f)?;
                check_stmts(body, names, arities, data, f)?;
            }
        }
    }
    Ok(())
}

fn check_expr(
    expr: &Expr,
    names: &HashSet<String>,
    arities: &HashMap<&str, usize>,
    data: &HashSet<&str>,
    f: &Function,
) -> Result<(), CcError> {
    match expr {
        Expr::Number(_) => Ok(()),
        Expr::Ident(name) => {
            if names.contains(name) || data.contains(name.as_str()) {
                Ok(())
            } else {
                Err(CcError::sema(format!(
                    "unknown identifier `{name}` in `{}`",
                    f.name
                )))
            }
        }
        Expr::Index(base, index) => {
            check_expr(base, names, arities, data, f)?;
            check_expr(index, names, arities, data, f)
        }
        Expr::Call(name, args) => {
            let arity = arities.get(name.as_str()).ok_or_else(|| {
                CcError::sema(format!("call to unknown function `{name}` in `{}`", f.name))
            })?;
            if *arity != args.len() {
                return Err(CcError::sema(format!(
                    "`{name}` takes {arity} argument(s), {} supplied in `{}`",
                    args.len(),
                    f.name
                )));
            }
            for a in args {
                check_expr(a, names, arities, data, f)?;
            }
            Ok(())
        }
        Expr::Bin(_, l, r) => {
            check_expr(l, names, arities, data, f)?;
            check_expr(r, names, arities, data, f)
        }
        Expr::Un(_, e) => check_expr(e, names, arities, data, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::Backend;
    use crate::{lexer, parser};

    fn check_src(src: &str, data: &[&str]) -> Result<(), CcError> {
        let items = parser::parse(&lexer::lex(src).unwrap()).unwrap();
        let mut options = CompileOptions::new(Backend::Calls);
        for name in data {
            options = options.with_data(*name, vec![0]);
        }
        check(&items, &options)
    }

    #[test]
    fn accepts_a_well_formed_program() {
        assert!(check_src(
            "fn helper(a, b) { return a + b; }
             fn main() { var x = helper(1, 2); out(x); }",
            &[]
        )
        .is_ok());
    }

    #[test]
    fn requires_main_without_parameters() {
        assert!(check_src("fn f() { return 0; }", &[]).is_err());
        assert!(check_src("fn main(x) { return x; }", &[]).is_err());
    }

    #[test]
    fn rejects_unknown_identifiers_and_functions() {
        let err = check_src("fn main() { out(x); }", &[]).unwrap_err();
        assert!(err.to_string().contains("unknown identifier"));
        let err = check_src("fn main() { out(f(1)); }", &[]).unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }

    #[test]
    fn data_arrays_are_visible() {
        assert!(check_src("fn main() { out(t[0]); }", &["t"]).is_ok());
        assert!(check_src("fn main() { out(t[0]); }", &[]).is_err());
    }

    #[test]
    fn rejects_arity_mismatch_and_duplicates() {
        let err = check_src(
            "fn f(a) { return a; }
             fn main() { out(f(1, 2)); }",
            &[],
        )
        .unwrap_err();
        assert!(err.to_string().contains("argument"));
        let err = check_src(
            "fn f(a, a) { return a; }
             fn main() { out(0); }",
            &[],
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicated"));
        let err = check_src("fn main() { var x = 1; var x = 2; }", &[]).unwrap_err();
        assert!(err.to_string().contains("declared twice"));
        let err = check_src(
            "fn f() { return 0; } fn f() { return 1; } fn main() { out(0); }",
            &[],
        )
        .unwrap_err();
        assert!(err.to_string().contains("defined twice"));
    }

    #[test]
    fn rejects_assignment_to_undeclared_variable() {
        let err = check_src("fn main() { y = 3; }", &[]).unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }
}
