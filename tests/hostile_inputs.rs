//! Hostile assembler text never panics the pipeline.
//!
//! Random token strings — mnemonics, registers, immediates, memory
//! operands, labels, directives and stray punctuation — go through the
//! whole pipeline: `parsecs_asm::assemble`, then
//! `TraceArena::from_program` under a small fuel, then a validated
//! `ManyCoreSim::simulate_arena`. Each step must return `Ok` or its typed
//! error; none may panic. Most strings are refused by the assembler, so
//! half of the generated lines follow the instruction shape (an optional
//! label, a mnemonic, up to two operands) and half of the texts end in a
//! `halt`, to carry some of them through to the simulator.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parsecs::core::{ManyCoreSim, SimConfig};
use parsecs::trace::TraceArena;
use proptest::prelude::*;

/// Fuel of the functional pre-execution: small, so that a looping
/// program is refused quickly.
const FUEL: u64 = 2_000;

/// Source texts drawn per proptest case.
const SOURCES_PER_CASE: usize = 256;

const MNEMONICS: &[&str] = &[
    "movq", "leaq", "addq", "subq", "andq", "orq", "xorq", "shlq", "shrq", "sarq", "imulq", "negq",
    "notq", "incq", "decq", "cmpq", "testq", "pushq", "popq", "jmp", "je", "jne", "ja", "jbe",
    "jl", "jge", "js", "call", "ret", "fork", "endfork", "out", "nop", "halt", "mov", "jxx",
    "forkq",
];

const REGISTERS: &[&str] = &[
    "%rax", "%rbx", "%rcx", "%rdx", "%rsi", "%rdi", "%rbp", "%rsp", "%r8", "%r15", "%r16", "%zz",
    "%",
];

const IMMEDIATES: &[&str] = &[
    "$0",
    "$1",
    "$-8",
    "$0xff",
    "$9223372036854775807",
    "$-9223372036854775808",
    "$18446744073709551616",
    "$t",
    "$",
    "8",
    "-1",
];

const MEMORY: &[&str] = &[
    "(%rdi)",
    "8(%rsp)",
    "0(%rsp)",
    "(%rdi,%rsi,8)",
    "16(%rax,%rbx,3)",
    "(%rsp,%rsp,1)",
    "-8(%rbp)",
    "(,%rsi,8)",
    "(%rdi",
    "t(%rip)",
];

const LABELS: &[&str] = &["main", "a", "b", ".L1", "t", "sum", "9x", ""];

const DIRECTIVES: &[&str] = &[
    ".quad",
    ".quad 1, 2, 3",
    ".zero 4",
    ".zero",
    ".text",
    ".quad x",
];

const PUNCTUATION: &[&str] = &[",", ":", "(", ")", "$", "%", "#", ";", "\t", "::", "\u{e9}"];

/// One entry of `list`.
fn pick(list: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..list.len()).prop_map(move |i| list[i].to_string())
}

/// One token drawn from one of the lists.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(MNEMONICS),
        pick(REGISTERS),
        pick(IMMEDIATES),
        pick(MEMORY),
        pick(LABELS),
        pick(DIRECTIVES),
        pick(PUNCTUATION),
    ]
}

/// An operand: a register, an immediate, a memory reference or a label.
fn operand() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(REGISTERS),
        pick(IMMEDIATES),
        pick(MEMORY),
        pick(LABELS)
    ]
}

/// A line shaped like an instruction: a label definition (on one line in
/// four), a mnemonic and zero to two operands.
fn instruction_line() -> impl Strategy<Value = String> {
    (
        0..LABELS.len() * 4,
        0..MNEMONICS.len(),
        proptest::collection::vec(operand(), 0..3),
    )
        .prop_map(|(label, mnemonic, operands)| {
            let label = LABELS
                .get(label)
                .map_or(String::new(), |l| format!("{l}: "));
            format!("{label}{} {}", MNEMONICS[mnemonic], operands.join(", "))
        })
}

/// A line of random tokens joined by random separators.
fn token_line() -> impl Strategy<Value = String> {
    proptest::collection::vec((token(), 0..3usize), 0..6).prop_map(|tokens| {
        tokens
            .into_iter()
            .map(|(t, sep)| format!("{t}{}", [" ", ", ", ""][sep]))
            .collect()
    })
}

/// A whole source text of up to twelve lines, half of them ending in a
/// `halt` (a program that runs off its end is refused before the
/// simulator).
fn source() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(prop_oneof![instruction_line(), token_line()], 0..12),
        any::<bool>(),
    )
        .prop_map(|(lines, halts)| {
            let text = lines.join("\n");
            if halts {
                text + "\nhalt"
            } else {
                text
            }
        })
}

/// How far one source text got through the pipeline.
#[derive(Debug, Default)]
struct Reach {
    assembled: usize,
    pre_executed: usize,
    simulated: usize,
}

/// Runs `src` through the pipeline as far as it goes; a panic in any
/// step fails the test with the offending text.
fn run(src: &str, reach: &mut Reach) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(program) = parsecs::asm::assemble(src) else {
            return (false, false, false);
        };
        let Ok(arena) = TraceArena::from_program(&program, FUEL) else {
            return (true, false, false);
        };
        let simulated = ManyCoreSim::new(SimConfig::with_cores(4).validated())
            .simulate_arena(&arena)
            .is_ok();
        (true, true, simulated)
    }));
    let (assembled, pre_executed, simulated) =
        outcome.unwrap_or_else(|_| panic!("the pipeline panicked on this source:\n{src}"));
    reach.assembled += assembled as usize;
    reach.pre_executed += pre_executed as usize;
    reach.simulated += simulated as usize;
}

proptest! {
    #[test]
    fn hostile_assembler_text_never_panics(
        sources in proptest::collection::vec(source(), SOURCES_PER_CASE..SOURCES_PER_CASE + 1),
    ) {
        let mut reach = Reach::default();
        for src in &sources {
            run(src, &mut reach);
        }
        // About one text in twenty reaches the simulator: every batch must
        // cover all three steps, or the property says nothing about them.
        prop_assert!(reach.assembled > 0, "{reach:?}");
        prop_assert!(reach.pre_executed > 0, "{reach:?}");
        prop_assert!(reach.simulated > 0, "{reach:?}");
    }
}
