//! Differential tests of the streaming trace pipeline.
//!
//! The streaming sectioner (`parsecs::trace::StreamingSectioner`, fed by
//! `Machine::run_with_sink`) must produce **record-for-record** the same
//! sectioned, dependence-annotated trace as the two-pass sequential
//! analysis kept here as its oracle ([`two_pass_arena`] over the run a
//! [`Recorded`] sink materialises) — same sections, same provenance for every
//! source, same load and store flags, same outputs. A proptest drives
//! random fork programs (random arithmetic, scratch-array memory traffic,
//! forward conditional jumps, nested forks) through both front-ends and
//! asserts column-for-column equality of the two arenas. Another holds
//! the location check to observing only: building through it changes
//! neither the arena nor the run.
//!
//! A second set of tests takes the pipeline to chip scale: at 256 cores
//! the engine must agree with the naive timing oracle in `tests/oracle`
//! on an arena-backed run, and the driver's backends must agree with the
//! sequential machine on what the program computes.

mod oracle;

use std::collections::HashMap;

use parsecs::check::LocationCheck;
use parsecs::core::{ManyCoreSim, SimConfig};
use parsecs::driver::{ExecutionBackend, ManyCoreBackend, SequentialBackend};
use parsecs::isa::Program;
use parsecs::machine::{Location, Machine, TraceKind, TraceSink, TraceStep};
use parsecs::trace::{
    SectionId, SectionSpan, SourceDep, SourceKind, StreamingSectioner, TraceArena,
};
use parsecs::workloads::data::{self, Rng};
use parsecs::workloads::{scale, sum};
use proptest::prelude::*;

/// Expands one proptest-drawn seed into a whole random program, over the
/// workspace's shared deterministic generator ([`data::rng`]).
struct Gen {
    rng: Rng,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: data::rng(seed),
        }
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound.max(1))
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }
}

/// Emits one straight-line operation. The generated programs only jump
/// forward, never touch `%rdi` (the data pointer) and address memory
/// through the data or scratch arrays, so every program halts.
fn push_op(out: &mut String, gen: &mut Gen) {
    let reg = ["%rax", "%rbx", "%rcx", "%rsi"];
    match gen.below(8) {
        0 => {
            let k = gen.below(100);
            let r = gen.pick(&reg);
            out.push_str(&format!("        movq ${k}, {r}\n"));
        }
        1 => {
            let k = gen.below(50);
            let r = gen.pick(&reg);
            out.push_str(&format!("        addq ${k}, {r}\n"));
        }
        2 => {
            let a = gen.pick(&reg);
            let b = gen.pick(&reg);
            out.push_str(&format!("        imulq {a}, {b}\n"));
        }
        3 => {
            let off = gen.below(3) * 8;
            let r = gen.pick(&reg);
            out.push_str(&format!("        movq {off}(%rdi), {r}\n"));
        }
        4 => {
            // Store into the scratch array: cross-section memory renaming.
            let off = gen.below(4) * 8;
            let r = gen.pick(&["%rax", "%rbx", "%rsi"]);
            out.push_str("        movq $scratch, %rcx\n");
            out.push_str(&format!("        movq {r}, {off}(%rcx)\n"));
        }
        5 => {
            // Load back from the scratch array.
            let off = gen.below(4) * 8;
            let r = gen.pick(&["%rax", "%rbx", "%rsi"]);
            out.push_str("        movq $scratch, %rcx\n");
            out.push_str(&format!("        movq {off}(%rcx), {r}\n"));
        }
        6 => {
            out.push_str("        pushq %rax\n        popq %rbx\n");
        }
        _ => {
            let r = gen.pick(&["%rbx", "%rsi"]);
            out.push_str(&format!("        shrq {r}\n"));
        }
    }
}

/// One random task body: blocks of ops, forward conditional jumps over
/// random suffixes of a block, and 0–2 forks of the next-deeper task.
fn push_task(out: &mut String, gen: &mut Gen, task: usize, depth: usize) {
    out.push_str(&format!("task{task}:\n"));
    let blocks = 1 + gen.below(3);
    let mut label = 0usize;
    let mut forks_left = if task + 1 < depth {
        1 + gen.below(2)
    } else {
        0
    };
    for block in 0..blocks {
        let ops = 1 + gen.below(4);
        for _ in 0..ops {
            push_op(out, gen);
        }
        if gen.below(2) == 0 {
            let cond = gen.pick(&["jne", "je", "ja", "jbe", "jge", "jl"]);
            let r = gen.pick(&["%rax", "%rbx", "%rsi"]);
            let k = gen.below(64);
            out.push_str(&format!("        cmpq ${k}, {r}\n"));
            // Flag-free moves may separate the compare from its jump, and
            // a fork may too: the jump then opens the fork's continuation
            // section and reads its flags from another section.
            for _ in 0..gen.below(3) {
                let k = gen.below(100);
                let dst = gen.pick(&["%rax", "%rbx", "%rcx", "%rsi"]);
                out.push_str(&format!("        movq ${k}, {dst}\n"));
            }
            if forks_left > 0 && gen.below(3) == 0 {
                out.push_str(&format!("        fork task{}\n", task + 1));
                forks_left -= 1;
            }
            out.push_str(&format!("        {cond} .t{task}_{label}\n"));
            for _ in 0..1 + gen.below(2) {
                push_op(out, gen);
            }
            out.push_str(&format!(".t{task}_{label}:\n"));
            label += 1;
        }
        if forks_left > 0 && (gen.below(2) == 0 || block + 1 == blocks) {
            out.push_str(&format!("        fork task{}\n", task + 1));
            forks_left -= 1;
        }
    }
    out.push_str("        endfork\n");
}

fn random_program(seed: u64) -> parsecs::isa::Program {
    let mut gen = Gen::new(seed);
    let len = 4 + gen.below(8);
    let data: Vec<String> = (0..len).map(|_| gen.below(1000).to_string()).collect();
    let depth = 1 + gen.below(3) as usize;
    let mut src = format!(
        "t:      .quad {}\nscratch: .quad 0, 0, 0, 0\nmain:   movq $t, %rdi\n        movq ${len}, %rsi\n        fork task0\n        out  %rax\n        halt\n",
        data.join(", ")
    );
    for task in 0..depth {
        push_task(&mut src, &mut gen, task, depth);
    }
    parsecs::asm::assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"))
}

/// One executed instruction, owned: what the two-pass oracle reads of
/// each step.
struct RecordedStep {
    ip: usize,
    mnemonic: &'static str,
    reads: Vec<Location>,
    writes: Vec<Location>,
    is_control: bool,
    kind: TraceKind,
}

/// A sink that keeps a copy of every step: the materialised run the
/// two-pass oracle sections.
#[derive(Default)]
struct Recorded(Vec<RecordedStep>);

impl TraceSink for Recorded {
    fn record(&mut self, step: &TraceStep<'_>) {
        self.0.push(RecordedStep {
            ip: step.ip,
            mnemonic: step.mnemonic,
            reads: step.reads.to_vec(),
            writes: step.writes.to_vec(),
            is_control: step.is_control,
            kind: step.kind,
        });
    }
}

/// Runs `program` into a [`Recorded`] sink and sections the recording
/// with [`two_pass_arena`].
fn recorded_arena(program: &Program, fuel: u64) -> TraceArena {
    let mut recorded = Recorded::default();
    let outcome = Machine::load(program)
        .expect("loads")
        .run_with_sink(fuel, &mut recorded)
        .expect("halts");
    two_pass_arena(&recorded.0, outcome.outputs)
}

/// The two-pass sequential sectioner, the streaming sectioner's oracle:
/// pass 1 splits the materialised run into sections, pass 2 resolves
/// every source to its closest preceding producer with a last-writer
/// map, and the resolved records are pushed into a [`TraceArena`].
fn two_pass_arena(events: &[RecordedStep], outputs: Vec<u64>) -> TraceArena {
    let mut sections: Vec<SectionSpan> = Vec::new();
    let mut arena = TraceArena::new();

    // --- pass 1: section boundaries -------------------------------
    // The reference machine's depth-first order visits sections exactly
    // in their total order, each as one contiguous range.
    let mut pending: Vec<(SectionId, usize)> = Vec::new();
    let mut current_start = 0usize;
    let mut current_creator: Option<(SectionId, usize)> = None;
    let mut section_of: Vec<SectionId> = vec![SectionId(0); events.len()];

    for (i, event) in events.iter().enumerate() {
        let current_id = SectionId(sections.len());
        section_of[i] = current_id;
        match event.kind {
            TraceKind::Fork => {
                pending.push((current_id, i));
            }
            TraceKind::EndFork | TraceKind::Halt => {
                sections.push(SectionSpan {
                    id: current_id,
                    start: current_start,
                    end: i + 1,
                    creator: current_creator,
                    start_ip: events[current_start].ip,
                });
                current_start = i + 1;
                current_creator = match event.kind {
                    TraceKind::EndFork => pending.pop(),
                    _ => None,
                };
                if current_creator.is_none() && event.kind == TraceKind::Halt {
                    // A halt ends the whole run; anything still pending
                    // was functionally executed before the halt.
                    break;
                }
            }
            _ => {}
        }
    }
    // Close a trailing section if the trace ended without a terminator
    // (does not happen for halting programs, kept for robustness).
    if current_start < events.len() && sections.last().map(|s| s.end).unwrap_or(0) < events.len() {
        sections.push(SectionSpan {
            id: SectionId(sections.len()),
            start: current_start,
            end: events.len(),
            creator: current_creator,
            start_ip: events[current_start].ip,
        });
    }

    // --- pass 2: dependence resolution -----------------------------
    let creator_fork_of = |id: SectionId| -> Option<usize> {
        sections
            .get(id.0)
            .and_then(|s| s.creator.map(|(_, seq)| seq))
    };
    let mut last_writer: HashMap<Location, usize> = HashMap::new();

    for (i, event) in events.iter().enumerate() {
        if i >= sections.last().map(|s| s.end).unwrap_or(0) {
            break;
        }
        let section = section_of[i];
        let mut reg_sources = Vec::new();
        let mut mem_sources = Vec::new();
        for loc in &event.reads {
            let kind = match last_writer.get(loc) {
                Some(&producer) => {
                    let producer_section = section_of[producer];
                    if producer_section == section {
                        SourceKind::Local { producer }
                    } else {
                        // The stack pointer and the paper's non-volatile
                        // registers are copied into the section-creation
                        // message, so a forked section reads them from
                        // its own register file — no renaming request is
                        // sent, and the value is the fork-time value
                        // (which is also what the reference machine's
                        // depth-first semantics restores at `endfork`).
                        let copied = match loc {
                            Location::Reg(r) => r.is_fork_copied(),
                            _ => false,
                        };
                        if copied && creator_fork_of(section).is_some() {
                            SourceKind::ForkCopy
                        } else {
                            SourceKind::Remote { producer }
                        }
                    }
                }
                None => match loc {
                    Location::Mem(_) => SourceKind::InitialMemory,
                    _ => SourceKind::InitialRegister,
                },
            };
            let dep = SourceDep {
                location: *loc,
                kind,
            };
            if loc.is_mem() {
                mem_sources.push(dep);
            } else {
                reg_sources.push(dep);
            }
        }
        arena.push_record(
            event.ip,
            event.mnemonic,
            section,
            event.kind,
            event.is_control,
            &reg_sources,
            &mem_sources,
            &event.writes,
        );
        for loc in &event.writes {
            last_writer.insert(*loc, i);
        }
    }

    for span in sections {
        arena.push_section(span);
    }
    arena.set_outputs(outputs);
    arena.shrink_to_fit();
    arena
}

proptest! {
    /// The tentpole contract of the pipeline: streaming sectioning is
    /// indistinguishable, record for record, from materialising the
    /// trace and post-processing it.
    #[test]
    fn streaming_sectioner_matches_the_sequential_analysis(seed in proptest::strategy::any::<u64>()) {
        let program = random_program(seed);
        let fuel = 1_000_000;

        // Two-pass: materialise every step, then section the recording.
        let oracle = recorded_arena(&program, fuel);

        // Streaming: the machine pushes into the sectioner, no trace.
        let arena = TraceArena::from_program(&program, fuel).expect("halts");

        // Column-for-column equality: provenance, flags, sections,
        // outputs.
        prop_assert_eq!(&oracle, &arena, "seed {}", seed);
    }
}

proptest! {
    /// Arena-backed simulation equals record-backed simulation: the
    /// oracle's arena, assembled record by record, and the streamed arena
    /// must produce the same `SimResult`, the engine must agree with the
    /// naive timing oracle on the arena path, and a stats-only run must
    /// reproduce the recorded aggregates exactly.
    #[test]
    fn arena_and_record_backed_simulation_agree(seed in proptest::strategy::any::<u64>()) {
        let program = random_program(seed.rotate_left(11));
        let arena = TraceArena::from_program(&program, 1_000_000).expect("halts");
        let records = recorded_arena(&program, 1_000_000);
        let mut gen = Gen::new(seed);
        let cores = [1usize, 3, 8, 64][gen.below(4) as usize];
        let sim = ManyCoreSim::new(SimConfig::with_cores(cores));
        let via_arena = sim.simulate_arena(&arena).expect("simulates");
        let via_records = sim.simulate_arena(&records).expect("simulates");
        prop_assert_eq!(&via_arena, &via_records, "seed {} at {} cores", seed, cores);
        oracle::agree(&arena, sim.config(), &via_arena, &format!("seed {seed} at {cores} cores"));

        // The stats axis: streaming aggregates == post-hoc aggregates.
        let stats_sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only());
        let stats = stats_sim.simulate_arena(&arena).expect("simulates");
        prop_assert_eq!(&stats.stats, &via_arena.stats, "seed {} at {} cores", seed, cores);
        prop_assert!(stats.timings().is_empty(), "seed {}", seed);
        prop_assert_eq!(stats.stats.forced_stall_releases, 0, "seed {}", seed);
    }
}

proptest! {
    /// The location check observes and never steers: building through it
    /// gives the arena `TraceArena::from_program` builds, record for
    /// record, with a clean verdict, and a validated `execute_fueled`
    /// run reports what an unvalidated one does, but for its check
    /// report (and the backend label that names it).
    #[test]
    fn the_location_check_observes_and_never_steers(seed in proptest::strategy::any::<u64>()) {
        let program = random_program(seed.rotate_left(23));
        let (checked, report) = LocationCheck::from_program(&program, 1_000_000).expect("halts");
        prop_assert!(report.is_clean(), "seed {}: {}", seed, report);
        let arena = TraceArena::from_program(&program, 1_000_000).expect("halts");
        prop_assert_eq!(&checked, &arena, "seed {}", seed);

        let cores = [1usize, 3, 8, 64][Gen::new(seed).below(4) as usize];
        let run = |config: SimConfig| {
            ManyCoreBackend::new(config)
                .execute_fueled(&program, 1_000_000)
                .expect("simulates")
        };
        let validated = run(SimConfig::with_cores(cores).validated());
        let mut plain = run(SimConfig::with_cores(cores));
        let check = &validated.sim().expect("many-core report").check;
        prop_assert!(check.as_ref().is_some_and(|c| c.is_clean()), "seed {}", seed);
        let parsecs::driver::ReportDetail::Sim(result) = &mut plain.detail else {
            unreachable!("a many-core run");
        };
        result.check.clone_from(check);
        plain.backend.clone_from(&validated.backend);
        prop_assert_eq!(&plain, &validated, "seed {} at {} cores", seed, cores);
    }
}

#[test]
fn generated_programs_exercise_forks_and_memory() {
    let mut sections = 0usize;
    let mut deps = 0usize;
    for seed in 0..32u64 {
        let arena =
            TraceArena::from_program(&random_program(seed * 6151 + 3), 1_000_000).expect("halts");
        sections += arena.sections().len();
        deps += (0..arena.len())
            .map(|i| arena.sources(i).len())
            .sum::<usize>();
    }
    assert!(sections >= 64, "only {sections} sections over 32 programs");
    assert!(deps > 1_000, "only {deps} dependences over 32 programs");
}

/// `program`'s arena from a bare sectioner, whose columns start empty
/// and grow on demand.
fn grown_arena(program: &Program, fuel: u64) -> TraceArena {
    let mut sink = StreamingSectioner::new();
    let outcome = Machine::load(program)
        .expect("loads")
        .run_with_sink(fuel, &mut sink)
        .expect("halts");
    sink.finish(outcome.outputs).expect("fits")
}

/// The pipeline's up-front reservation is a capacity hint only: the
/// finished arena equals, column for column and in footprint, the one a
/// sectioner builds by growing its columns on demand — and a fuel far
/// past the run, whose reservation the allocator may refuse, is never
/// an error.
#[test]
fn reserving_the_arena_never_changes_it() {
    let paper = sum::fork_program(&[4, 2, 6, 4, 5]);
    let shapes = [
        (paper.clone(), 1_000),
        (
            scale::fan_chain_program(16, 9, 2),
            scale::fan_chain_fuel(16, 9),
        ),
        (
            scale::synth_histogram_program(500, 16, 1),
            scale::synth_histogram_fuel(500, 16),
        ),
    ];
    for (program, fuel) in &shapes {
        let reserved = TraceArena::from_program(program, *fuel).expect("halts");
        let grown = grown_arena(program, *fuel);
        assert!(reserved == grown, "the arenas differ");
        assert_eq!(reserved.memory_bytes(), grown.memory_bytes());
    }

    let grown = grown_arena(&paper, 1_000);
    let exact = grown.len() as u64;
    assert!(TraceArena::from_program(&paper, exact - 1).is_err());
    for fuel in [exact, 100_000_000, u64::MAX] {
        let reserved = TraceArena::from_program(&paper, fuel).expect("halts");
        assert!(reserved == grown, "fuel {fuel}: the arenas differ");
        assert_eq!(reserved.memory_bytes(), grown.memory_bytes());
    }
}

/// The scale satellite: at 256 cores the engine agrees with the naive
/// timing oracle on an arena-backed synthetic-histogram run, the outputs
/// match the Rust oracle, and the deadlock detector stays silent.
#[test]
fn the_engine_agrees_with_the_timing_oracle_at_256_cores() {
    let (keys, buckets, seed) = (12_000, 256, 11);
    let arena = TraceArena::from_program(
        &scale::synth_histogram_program(keys, buckets, seed),
        scale::synth_histogram_fuel(keys, buckets),
    )
    .expect("halts");
    assert!(
        arena.len() > 150_000,
        "scale cell too small: {}",
        arena.len()
    );
    let sim = ManyCoreSim::new(SimConfig::with_cores(256));
    let event = sim.simulate_arena(&arena).expect("simulates");
    oracle::agree(&arena, sim.config(), &event, "256 cores");
    assert_eq!(
        event.outputs,
        scale::synth_histogram_expected(keys, buckets, seed)
    );
    assert_eq!(event.stats.forced_stall_releases, 0);
    assert!(
        event.stats.cores_used > 64,
        "a 256-core run must spread past 64 cores"
    );
}

/// Backend agreement at 256 cores through the driver: the many-core
/// backend computes what the sequential machine computes, and the
/// arena's memory accounting rides along on the report.
#[test]
fn driver_backends_agree_at_256_cores() {
    let (chains, links, seed) = (256, 12, 5);
    let program = scale::fan_chain_program(chains, links, seed);
    let fuel = scale::fan_chain_fuel(chains, links);
    let sequential = SequentialBackend.execute_fueled(&program, fuel).unwrap();
    let manycore = ManyCoreBackend::with_cores(256)
        .execute_fueled(&program, fuel)
        .unwrap();
    assert_eq!(
        sequential.outputs,
        scale::fan_chain_expected(chains, links, seed)
    );
    assert_eq!(sequential.outputs, manycore.outputs);
    let stats = &manycore.sim().unwrap().stats;
    assert_eq!(stats.forced_stall_releases, 0);
    let per_insn = stats.trace_bytes_per_instruction();
    assert!(
        per_insn > 0.0 && per_insn <= 120.0,
        "{per_insn:.1} B/insn exceeds the arena budget"
    );
    // 256 chains genuinely occupy a 256-core chip.
    assert!(stats.cores_used > 128);
}
