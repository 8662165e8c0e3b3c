//! Code generation: mini-C → parsecs ISA.
//!
//! The generator is deliberately simple (an accumulator/stack scheme with
//! all locals in the stack frame): the point of the reproduction is not
//! compiler optimisation but the paper's *execution model*, and keeping
//! every local in memory makes the call→fork rewrite trivially sound —
//! values that must cross a fork travel either in the fork-copied
//! registers (`%rbp`, `%rsp`, the argument registers) or through memory,
//! both of which the sectioned hardware renames.

use std::collections::HashMap;

use parsecs_isa::{AluOp, Cond, MemRef, Operand, Program, ProgramBuilder, Reg, UnaryOp};

use crate::ast::{BinOp, Expr, Function, Item, Stmt, UnOp};
use crate::CcError;

/// Which control-transfer instructions the backend emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Conventional `call`/`ret` code (the paper's Figure 2 shape).
    #[default]
    Calls,
    /// The paper's transformation: every call site becomes a `fork`, every
    /// function return an `endfork` (the Figure 5 shape). The run is then
    /// split into sections by the many-core hardware model.
    Forks,
}

/// Compilation options: backend selection and the data arrays visible to
/// the program as global symbols.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Code generation backend.
    pub backend: Backend,
    /// Named 64-bit-word arrays placed in the data segment; a mini-C
    /// identifier with the same name evaluates to the array's address.
    pub data: Vec<(String, Vec<u64>)>,
}

impl CompileOptions {
    /// Options for the given backend with no data arrays.
    pub fn new(backend: Backend) -> CompileOptions {
        CompileOptions {
            backend,
            data: Vec::new(),
        }
    }

    /// Adds a named data array (builder style).
    pub fn with_data(mut self, name: impl Into<String>, words: Vec<u64>) -> CompileOptions {
        self.data.push((name.into(), words));
        self
    }
}

/// Generates a program from checked items.
///
/// # Errors
///
/// Returns [`CcError::Codegen`] if the emitted program fails ISA
/// validation (a generator bug surfaced as an error).
pub fn generate(items: &[Item], options: &CompileOptions) -> Result<Program, CcError> {
    let mut builder = ProgramBuilder::new();
    for (name, words) in &options.data {
        builder.global_data(name, words);
    }
    for item in items {
        let mut ctx = FunctionContext::new(item.as_function(), options.backend);
        ctx.emit(&mut builder);
    }
    builder.build().map_err(CcError::from)
}

struct FunctionContext<'a> {
    function: &'a Function,
    backend: Backend,
    slots: HashMap<String, i64>,
}

impl<'a> FunctionContext<'a> {
    fn new(function: &'a Function, backend: Backend) -> FunctionContext<'a> {
        let mut slots = HashMap::new();
        for (i, p) in function.params.iter().enumerate() {
            slots.insert(p.clone(), -8 * (i as i64 + 1));
        }
        collect_locals(&function.body, &mut slots);
        FunctionContext {
            function,
            backend,
            slots,
        }
    }

    fn is_main(&self) -> bool {
        self.function.name == "main"
    }

    fn slot(&self, name: &str) -> Option<MemRef> {
        self.slots
            .get(name)
            .map(|off| MemRef::base_disp(Reg::Rbp, *off))
    }

    fn emit(&mut self, b: &mut ProgramBuilder) {
        b.label(self.function.name.clone());
        b.pushq(Reg::Rbp);
        b.movq(Reg::Rsp, Reg::Rbp);
        let frame = 8 * self.slots.len() as i64;
        if frame > 0 {
            b.subq(Operand::imm(frame), Reg::Rsp);
        }
        for (i, p) in self.function.params.iter().enumerate() {
            let slot = self.slot(p).expect("parameter has a slot");
            b.movq(Reg::ARG_REGS[i], slot);
        }
        self.stmts(&self.function.body, b);
        // Fall-through return of 0.
        b.movq(Operand::imm(0), Reg::Rax);
        self.epilogue(b);
    }

    fn epilogue(&self, b: &mut ProgramBuilder) {
        if self.is_main() {
            b.halt();
            return;
        }
        b.movq(Reg::Rbp, Reg::Rsp);
        b.popq(Reg::Rbp);
        match self.backend {
            Backend::Calls => b.ret(),
            Backend::Forks => b.endfork(),
        };
    }

    fn stmts(&self, stmts: &[Stmt], b: &mut ProgramBuilder) {
        for stmt in stmts {
            self.stmt(stmt, b);
        }
    }

    fn stmt(&self, stmt: &Stmt, b: &mut ProgramBuilder) {
        match stmt {
            Stmt::Var(name, value) | Stmt::Assign(name, value) => {
                self.expr(value, b);
                let slot = self.slot(name).expect("checked by sema");
                b.movq(Reg::Rax, slot);
            }
            Stmt::Store(base, index, value) => {
                self.expr(base, b);
                b.pushq(Reg::Rax);
                self.expr(index, b);
                b.pushq(Reg::Rax);
                self.expr(value, b);
                b.popq(Reg::Rcx);
                b.popq(Reg::Rbx);
                b.movq(Reg::Rax, Operand::mem_scaled(Reg::Rbx, Reg::Rcx, 8, 0));
            }
            Stmt::If(cond, then_body, else_body) => {
                let else_label = b.fresh_label("else");
                let end_label = b.fresh_label("endif");
                self.expr(cond, b);
                b.cmpq(Operand::imm(0), Reg::Rax);
                b.jcc(Cond::E, else_label.clone());
                self.stmts(then_body, b);
                b.jmp(end_label.clone());
                b.label(else_label);
                self.stmts(else_body, b);
                b.label(end_label);
            }
            Stmt::While(cond, body) => {
                let loop_label = b.fresh_label("loop");
                let end_label = b.fresh_label("endloop");
                b.label(loop_label.clone());
                self.expr(cond, b);
                b.cmpq(Operand::imm(0), Reg::Rax);
                b.jcc(Cond::E, end_label.clone());
                self.stmts(body, b);
                b.jmp(loop_label);
                b.label(end_label);
            }
            Stmt::Return(value) => {
                self.expr(value, b);
                self.epilogue(b);
            }
            Stmt::Out(value) => {
                self.expr(value, b);
                b.out(Reg::Rax);
            }
            Stmt::Expr(value) => {
                self.expr(value, b);
            }
        }
    }

    /// Evaluates an expression into `%rax`.
    fn expr(&self, expr: &Expr, b: &mut ProgramBuilder) {
        match expr {
            Expr::Number(value) => {
                b.movq(Operand::imm(*value), Reg::Rax);
            }
            Expr::Ident(name) => match self.slot(name) {
                Some(slot) => {
                    b.movq(slot, Reg::Rax);
                }
                None => {
                    // A data array: its address.
                    b.movq(Operand::sym(name.clone()), Reg::Rax);
                }
            },
            Expr::Index(base, index) => {
                self.expr(base, b);
                b.pushq(Reg::Rax);
                self.expr(index, b);
                b.movq(Reg::Rax, Reg::Rcx);
                b.popq(Reg::Rax);
                b.movq(Operand::mem_scaled(Reg::Rax, Reg::Rcx, 8, 0), Reg::Rax);
            }
            Expr::Call(name, args) => {
                for arg in args {
                    self.expr(arg, b);
                    b.pushq(Reg::Rax);
                }
                for i in (0..args.len()).rev() {
                    b.popq(Reg::ARG_REGS[i]);
                }
                match self.backend {
                    Backend::Calls => b.call(name.clone()),
                    Backend::Forks => b.fork(name.clone()),
                };
            }
            Expr::Bin(op, left, right) => {
                self.expr(left, b);
                b.pushq(Reg::Rax);
                self.expr(right, b);
                b.movq(Reg::Rax, Reg::Rcx);
                b.popq(Reg::Rax);
                self.binary(*op, b);
            }
            Expr::Un(op, inner) => {
                self.expr(inner, b);
                match op {
                    UnOp::Neg => {
                        b.unary(UnaryOp::Neg, Reg::Rax);
                    }
                    UnOp::Not => {
                        self.boolean_from_flags(
                            Cond::E,
                            |b| {
                                b.cmpq(Operand::imm(0), Reg::Rax);
                            },
                            b,
                        );
                    }
                }
            }
        }
    }

    /// Emits the operation `%rax = %rax op %rcx`.
    fn binary(&self, op: BinOp, b: &mut ProgramBuilder) {
        let alu = |b: &mut ProgramBuilder, op: AluOp| {
            b.alu(op, Reg::Rcx, Reg::Rax);
        };
        match op {
            BinOp::Add => alu(b, AluOp::Add),
            BinOp::Sub => alu(b, AluOp::Sub),
            BinOp::Mul => alu(b, AluOp::Imul),
            BinOp::And => alu(b, AluOp::And),
            BinOp::Or => alu(b, AluOp::Or),
            BinOp::Xor => alu(b, AluOp::Xor),
            BinOp::Shl => alu(b, AluOp::Shl),
            BinOp::Shr => alu(b, AluOp::Shr),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                let cond = match op {
                    BinOp::Lt => Cond::L,
                    BinOp::Le => Cond::Le,
                    BinOp::Gt => Cond::G,
                    BinOp::Ge => Cond::Ge,
                    BinOp::Eq => Cond::E,
                    _ => Cond::Ne,
                };
                self.boolean_from_flags(
                    cond,
                    |b| {
                        b.cmpq(Reg::Rcx, Reg::Rax);
                    },
                    b,
                );
            }
        }
    }

    /// Emits `compare`, then sets `%rax` to 1 if `cond` holds and 0
    /// otherwise (the ISA has no `setcc`, so a short branch is used —
    /// `mov` does not clobber the flags).
    fn boolean_from_flags(
        &self,
        cond: Cond,
        compare: impl FnOnce(&mut ProgramBuilder),
        b: &mut ProgramBuilder,
    ) {
        let done = b.fresh_label("setcc");
        compare(b);
        b.movq(Operand::imm(1), Reg::Rax);
        b.jcc(cond, done.clone());
        b.movq(Operand::imm(0), Reg::Rax);
        b.label(done);
    }
}

fn collect_locals(stmts: &[Stmt], slots: &mut HashMap<String, i64>) {
    for stmt in stmts {
        match stmt {
            Stmt::Var(name, _) if !slots.contains_key(name) => {
                let offset = -8 * (slots.len() as i64 + 1);
                slots.insert(name.clone(), offset);
            }
            Stmt::Var(..) => {}
            Stmt::If(_, a, b) => {
                collect_locals(a, slots);
                collect_locals(b, slots);
            }
            Stmt::While(_, body) => collect_locals(body, slots),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use parsecs_machine::{Machine, TraceKind, TraceSink, TraceStep};
    use proptest::prelude::*;

    fn run(source: &str, options: &CompileOptions) -> Vec<u64> {
        let program = compile(source, options).expect("compiles");
        let mut machine = Machine::load(&program).expect("loads");
        machine.run(10_000_000).expect("halts").outputs
    }

    fn run_calls(source: &str) -> Vec<u64> {
        run(source, &CompileOptions::new(Backend::Calls))
    }

    #[test]
    fn arithmetic_and_locals() {
        let outputs = run_calls(
            "fn main() {
                var a = 6;
                var b = 7;
                var c = a * b + 1 - 2;
                out(c);
                out(c >> 2);
                out(c & 15);
                out(1 << 10);
             }",
        );
        assert_eq!(outputs, vec![41, 10, 9, 1024]);
    }

    #[test]
    fn comparisons_yield_zero_or_one() {
        let outputs = run_calls(
            "fn main() {
                out(3 < 5); out(5 < 3); out(3 <= 3);
                out(4 > 9); out(4 >= 4); out(7 == 7); out(7 != 7);
                out(0 - 1 < 1); out(!0); out(!42); out(-(5));
             }",
        );
        assert_eq!(outputs, vec![1, 0, 1, 0, 1, 1, 0, 1, 1, 0, (-5i64) as u64]);
    }

    #[test]
    fn control_flow() {
        let outputs = run_calls(
            "fn main() {
                var i = 0;
                var acc = 0;
                while (i < 10) {
                    if (i & 1) { acc = acc + i; } else { }
                    i = i + 1;
                }
                out(acc);
             }",
        );
        assert_eq!(outputs, vec![25]);
    }

    #[test]
    fn functions_and_recursion() {
        let outputs = run_calls(
            "fn fib(n) {
                if (n < 2) { return n; } else { }
                return fib(n - 1) + fib(n - 2);
             }
             fn main() { out(fib(15)); }",
        );
        assert_eq!(outputs, vec![610]);
    }

    #[test]
    fn data_arrays_and_stores() {
        let options = CompileOptions::new(Backend::Calls)
            .with_data("t", vec![5, 10, 15, 20])
            .with_data("scratch", vec![0; 4]);
        let outputs = run(
            "fn main() {
                var i = 0;
                while (i < 4) {
                    scratch[i] = t[i] * 2;
                    i = i + 1;
                }
                out(scratch[0] + scratch[1] + scratch[2] + scratch[3]);
             }",
            &options,
        );
        assert_eq!(outputs, vec![100]);
    }

    #[test]
    fn fork_backend_matches_call_backend_on_recursive_sum() {
        let source = "
            fn sum(t, n) {
                if (n == 1) { return t[0]; } else { }
                if (n == 2) { return t[0] + t[1]; } else { }
                var half = n >> 1;
                return sum(t, half) + sum(t + 8 * half, n - half);
            }
            fn main() { out(sum(data, 13)); }
        ";
        let data: Vec<u64> = (1..=13).collect();
        let expected: u64 = data.iter().sum();
        let calls = CompileOptions::new(Backend::Calls).with_data("data", data.clone());
        let forks = CompileOptions::new(Backend::Forks).with_data("data", data);
        assert_eq!(run(source, &calls), vec![expected]);
        assert_eq!(run(source, &forks), vec![expected]);
    }

    #[test]
    fn fork_backend_creates_many_sections() {
        let source = "
            fn sum(t, n) {
                if (n == 1) { return t[0]; } else { }
                if (n == 2) { return t[0] + t[1]; } else { }
                var half = n >> 1;
                return sum(t, half) + sum(t + 8 * half, n - half);
            }
            fn main() { out(sum(data, 16)); }
        ";
        let data: Vec<u64> = (1..=16).collect();
        let options = CompileOptions::new(Backend::Forks).with_data("data", data);
        let program = compile(source, &options).unwrap();
        let trace = parsecs_core_like_section_count(&program);
        assert!(trace > 10, "expected many sections, found {trace}");
    }

    /// Counts fork instructions executed — a lower bound on the number of
    /// sections the many-core model will create (parsecs-core depends on
    /// this crate, so the full section splitter cannot be used here).
    fn parsecs_core_like_section_count(program: &parsecs_isa::Program) -> usize {
        struct Forks(usize);
        impl TraceSink for Forks {
            fn record(&mut self, step: &TraceStep<'_>) {
                self.0 += usize::from(step.kind == TraceKind::Fork);
            }
        }
        let mut forks = Forks(0);
        let mut machine = Machine::load(program).unwrap();
        machine.run_with_sink(10_000_000, &mut forks).unwrap();
        forks.0
    }

    #[test]
    fn nested_calls_across_expressions() {
        let outputs = run_calls(
            "fn double(x) { return x + x; }
             fn inc(x) { return x + 1; }
             fn main() { out(double(inc(3)) + inc(double(5))); }",
        );
        assert_eq!(outputs, vec![19]);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let err = compile("fn main() { out(missing); }", &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CcError::Sema { .. }));
        let err = compile("fn main() { out(1 +; }", &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CcError::Parse { .. }));
    }

    proptest! {
        #[test]
        fn expression_evaluation_matches_rust(a in -1000i64..1000, b in -1000i64..1000, c in 1i64..63) {
            let source = format!(
                "fn main() {{
                    out({a} + {b} * 3);
                    out(({a} - {b}) * ({a} + {b}));
                    out(({a} < {b}) + ({a} == {a}) * 10);
                    out(({b} ^ {a}) & 255);
                    out(1 << {c});
                 }}"
            );
            let outputs = run_calls(&source);
            prop_assert_eq!(outputs[0], a.wrapping_add(b.wrapping_mul(3)) as u64);
            prop_assert_eq!(outputs[1], (a.wrapping_sub(b)).wrapping_mul(a.wrapping_add(b)) as u64);
            prop_assert_eq!(outputs[2], (a < b) as u64 + 10);
            prop_assert_eq!(outputs[3], ((b ^ a) & 255) as u64);
            prop_assert_eq!(outputs[4], 1u64 << c);
        }

        #[test]
        fn fork_and_call_backends_agree_on_generated_reductions(len in 1usize..40, seed in 0u64..1000) {
            let data: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(2654435761).wrapping_add(seed) % 1000).collect();
            let source = format!(
                "fn reduce(t, n) {{
                    if (n == 1) {{ return t[0]; }} else {{ }}
                    var half = n >> 1;
                    return reduce(t, half) + reduce(t + 8 * half, n - half);
                 }}
                 fn main() {{ out(reduce(data, {len})); }}"
            );
            let expected: u64 = data.iter().sum();
            let calls = CompileOptions::new(Backend::Calls).with_data("data", data.clone());
            let forks = CompileOptions::new(Backend::Forks).with_data("data", data);
            prop_assert_eq!(run(&source, &calls), vec![expected]);
            prop_assert_eq!(run(&source, &forks), vec![expected]);
        }
    }
}
