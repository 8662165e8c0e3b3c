//! Hostile assembler text and hostile latencies never panic the
//! pipeline.
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
//!
//! A latency is hostile when it alone could carry a simulated cycle past
//! the engine's cycle domain (2^30 cycles): `SimConfig::validate` refuses
//! it as a configuration error, and a latency just inside the domain runs
//! into the engine's typed capacity refusal instead of overflowing. A
//! long latency well inside the domain is no divergence: the run
//! converges and agrees with the oracle.

mod oracle;

use std::panic::{catch_unwind, AssertUnwindSafe};

use parsecs::core::{ManyCoreSim, SimConfig, SimError};
use parsecs::driver::{DriverError, ExecutionBackend, ManyCoreBackend};
use parsecs::trace::TraceArena;
use parsecs::workloads::sum;
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

/// The engine's cycle domain: every stored cycle lies below it.
const CYCLE_DOMAIN: u64 = 1 << 30;

/// Sets one latency field of a config.
type SetLatency = fn(&mut SimConfig, u64);

/// The config fields that set a latency, each with the first value that
/// reaches the domain on an 8-core crossbar (diameter 1) whose other
/// latencies are the defaults: the NoC's longest transit is
/// `base_latency + per_hop_latency`, 1 + 1 by default.
const LATENCIES: [(&str, SetLatency, u64); 4] = [
    ("dmh_latency", |c, v| c.dmh_latency = v, CYCLE_DOMAIN),
    (
        "per_section_hop",
        |c, v| c.per_section_hop = v,
        CYCLE_DOMAIN,
    ),
    (
        "base_latency",
        |c, v| c.noc.base_latency = v,
        CYCLE_DOMAIN - 1,
    ),
    (
        "per_hop_latency",
        |c, v| c.noc.per_hop_latency = v,
        CYCLE_DOMAIN - 1,
    ),
];

fn with_latency(set: SetLatency, value: u64) -> SimConfig {
    let mut config = SimConfig::with_cores(8);
    set(&mut config, value);
    config
}

#[test]
fn latencies_past_the_cycle_domain_are_config_errors() {
    let program = sum::fork_program(&[4, 2, 6, 4, 5]);
    let arena = TraceArena::from_program(&program, FUEL).expect("runs");
    for (field, set, first_refused) in LATENCIES {
        for value in [first_refused, u64::MAX] {
            let config = with_latency(set, value);
            let err = config.validate().expect_err(field);
            assert!(err.contains("cycle domain"), "{field} = {value}: {err}");
            assert_eq!(
                ManyCoreSim::new(config.clone()).simulate_arena(&arena),
                Err(SimError::Config(err.clone())),
                "{field} = {value}"
            );
            assert_eq!(
                ManyCoreBackend::new(config).execute_fueled(&program, FUEL),
                Err(DriverError::Sim(SimError::Config(err))),
                "{field} = {value}"
            );
        }
        assert_eq!(with_latency(set, first_refused - 1).validate(), Ok(()));
    }
}

/// A long but valid latency is not a divergence: the convergence guard
/// allows each instruction the config's longest single charge on top of
/// its 200 cycles, and the run agrees with the oracle.
#[test]
fn a_long_noc_latency_converges_and_agrees_with_the_oracle() {
    let program = sum::fork_program(&[4, 2, 6, 4, 5]);
    let arena = TraceArena::from_program(&program, FUEL).expect("runs");
    let config = with_latency(|c, v| c.noc.base_latency = v, 20_000);
    for config in [config.clone(), config.stats_only()] {
        let result = ManyCoreSim::new(config.clone())
            .simulate_arena(&arena)
            .expect("a valid config converges");
        let budget = 200 * arena.len() as u64 + 10_000;
        assert!(
            result.stats.total_cycles > budget,
            "{} cycles fit the latency-blind guard of {budget}",
            result.stats.total_cycles
        );
        oracle::agree(&arena, &config, &result, "noc.base_latency = 20000");
    }
}

#[test]
fn a_latency_just_inside_the_domain_reaches_the_cycle_refusal() {
    let program = sum::fork_program(&[4, 2, 6, 4, 5]);
    let refused = Err(DriverError::Sim(SimError::CapacityExceeded {
        resource: "cycles",
        limit: CYCLE_DOMAIN,
    }));
    // The first load from the loaded data waits out the DMH latency; the
    // first fork's creation message crosses the NoC.
    for config in [
        with_latency(|c, v| c.dmh_latency = v, CYCLE_DOMAIN - 1),
        with_latency(|c, v| c.noc.base_latency = v, CYCLE_DOMAIN - 2),
    ] {
        for config in [
            config.clone(),
            config.clone().stats_only(),
            config.validated(),
        ] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                ManyCoreBackend::new(config.clone()).execute_fueled(&program, FUEL)
            }))
            .unwrap_or_else(|_| panic!("the engine panicked under {config:?}"));
            assert_eq!(outcome, refused, "{config:?}");
        }
    }
}
