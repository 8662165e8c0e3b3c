//! Mutation corpus for the `parsecs::check` static analysis.
//!
//! Every workload generator's arena must come back clean, bounded
//! (`total_cycles ≥ lb ≥ critical_path` on every chip size) and within
//! its footprint bars. And the checks must actually *detect* broken
//! invariants. The arena validator's corpus rebuilds real arenas
//! record-by-record through the public column builder and injects one
//! targeted corruption — a swapped dependence edge, a local producer in
//! another section, an overlapping section span, a truncated dependence
//! slice, a bogus creator link, an unclosed record. The location check's
//! corpus replays a real run's logged steps with one doctored dependence
//! — a stale writer, a wrong provenance, a missed initial read, a
//! provenance that does not fit its location. Each asserts the report
//! names the matching [`InvariantViolation`] variant, and proptests
//! sweep both corpora across random seeds and all five generators.

mod locations;
mod oracle;

use parsecs::check::{check_arena, InvariantViolation, LocationCheck, Progress};
use parsecs::core::{ManyCoreSim, SimConfig};
use parsecs::isa::Program;
use parsecs::trace::{
    PackedDep, SectionId, SectionSpan, SourceKind, StreamingSectioner, TraceArena,
};
use parsecs::workloads::scale;
use proptest::prelude::*;

use locations::Logged;

/// Instance sizes for the five `workloads::scale` generators.
struct Sizes {
    /// `histogram` keys and buckets.
    histogram: (usize, usize),
    /// `tree_sum` elements.
    tree_sum: usize,
    /// `chain_sum` elements.
    chain_sum: usize,
    /// `synth_histogram` keys and buckets.
    synth_histogram: (usize, usize),
    /// `fan_chain` chains and links.
    fan_chain: (usize, usize),
}

/// The miniature instances the mutation corpus edits.
const MINIATURE: Sizes = Sizes {
    histogram: (48, 8),
    tree_sum: 32,
    chain_sum: 24,
    synth_histogram: (64, 16),
    fan_chain: (4, 4),
};

/// Instances of 20k–300k instructions in 256–2,048 sections, large
/// enough that per-instruction footprints are the columns' and not the
/// fixed overheads'.
const SCALE: Sizes = Sizes {
    histogram: (2_000, 64),
    tree_sum: 4_000,
    chain_sum: 2_000,
    synth_histogram: (20_000, 256),
    fan_chain: (64, 20),
};

/// One instance of each `workloads::scale` generator: its name, program
/// and fuel.
fn scale_program(which: usize, sizes: &Sizes, seed: u64) -> (&'static str, Program, u64) {
    match which % 5 {
        0 => {
            let (keys, buckets) = sizes.histogram;
            (
                "histogram",
                scale::histogram_program(keys, buckets, seed),
                scale::histogram_fuel(keys, buckets),
            )
        }
        1 => (
            "tree_sum",
            scale::tree_sum_program(sizes.tree_sum, seed),
            scale::tree_sum_fuel(sizes.tree_sum),
        ),
        2 => (
            "chain_sum",
            scale::chain_sum_program(sizes.chain_sum, seed),
            scale::chain_sum_fuel(sizes.chain_sum),
        ),
        3 => {
            let (keys, buckets) = sizes.synth_histogram;
            (
                "synth_histogram",
                scale::synth_histogram_program(keys, buckets, seed),
                scale::synth_histogram_fuel(keys, buckets),
            )
        }
        _ => {
            let (chains, links) = sizes.fan_chain;
            (
                "fan_chain",
                scale::fan_chain_program(chains, links, seed),
                scale::fan_chain_fuel(chains, links),
            )
        }
    }
}

/// The arena of a [`MINIATURE`] instance.
fn base_arena(which: usize, seed: u64) -> (&'static str, TraceArena) {
    let (name, program, fuel) = scale_program(which, &MINIATURE, seed);
    let arena = TraceArena::from_program(&program, fuel).expect("workload halts within fuel");
    (name, arena)
}

/// Rebuilds `src` through the public column builder, mapping each column
/// through the given hooks (identity hooks reproduce `src` exactly).
fn rebuild(
    src: &TraceArena,
    mut map_section_col: impl FnMut(usize, SectionId) -> SectionId,
    mut map_dep: impl FnMut(usize, usize, PackedDep) -> PackedDep,
    mut map_reg_count: impl FnMut(usize, usize) -> usize,
    mut map_span: impl FnMut(usize, SectionSpan) -> SectionSpan,
) -> TraceArena {
    let mut out = TraceArena::new();
    let raw = src.raw();
    for seq in 0..src.len() {
        let id = out.intern_mnemonic(src.mnemonic(seq));
        out.begin_record(
            src.ip(seq),
            id,
            map_section_col(seq, src.section(seq)),
            src.kind(seq),
            src.is_control(seq),
            src.is_load(seq),
            src.is_store(seq),
        );
        for (j, &dep) in src.sources(seq).iter().enumerate() {
            out.push_dep(map_dep(seq, j, dep));
        }
        out.end_record(map_reg_count(seq, raw.reg_deps[seq] as usize));
    }
    for (i, span) in src.sections().iter().enumerate() {
        out.push_section(map_span(i, span.clone()));
    }
    out.set_outputs(src.outputs().to_vec());
    out
}

/// First dependence `(seq, dep, packed)` satisfying the predicate.
fn find_dep(
    src: &TraceArena,
    pred: impl Fn(usize, usize, PackedDep) -> bool,
) -> Option<(usize, usize, PackedDep)> {
    (0..src.len()).find_map(|seq| {
        let (j, &dep) = src
            .sources(seq)
            .iter()
            .enumerate()
            .find(|&(j, &dep)| pred(seq, j, dep))?;
        Some((seq, j, dep))
    })
}

/// The arena corpus: each entry corrupts one invariant and names the
/// variant the validator must report. Returns `None` when `src` has no
/// site for the mutation (e.g. a single-section trace cannot overlap
/// spans).
fn mutate(src: &TraceArena, mutation: usize) -> Option<(TraceArena, &'static str)> {
    let identity = |src: &TraceArena,
                    sec: Option<(usize, SectionId)>,
                    dep: Option<(usize, usize, PackedDep)>,
                    reg: Option<(usize, usize)>,
                    span: Option<(usize, SectionSpan)>| {
        rebuild(
            src,
            |seq, s| sec.as_ref().filter(|m| m.0 == seq).map_or(s, |m| m.1),
            |seq, j, d| dep.filter(|m| (m.0, m.1) == (seq, j)).map_or(d, |m| m.2),
            |seq, r| reg.filter(|m| m.0 == seq).map_or(r, |m| m.1),
            |i, s| span.clone().filter(|m| m.0 == i).map_or(s, |m| m.1),
        )
    };
    match mutation % ARENA_MUTATIONS {
        // Swapped dependence edge: a producer at/after its consumer.
        0 => {
            let (seq, j, dep) = find_dep(src, |_, _, d| {
                matches!(
                    d.kind(),
                    SourceKind::Local { .. } | SourceKind::Remote { .. }
                )
            })?;
            let kind = match dep.kind() {
                SourceKind::Local { .. } => SourceKind::Local { producer: seq },
                _ => SourceKind::Remote { producer: seq },
            };
            Some((
                identity(src, None, Some((seq, j, PackedDep::new(kind))), None, None),
                "DependenceCycle",
            ))
        }
        // A producer in an earlier section tagged local.
        1 => {
            let (seq, j, dep) =
                find_dep(src, |_, _, d| matches!(d.kind(), SourceKind::Remote { .. }))?;
            let SourceKind::Remote { producer } = dep.kind() else {
                unreachable!("just matched a remote dependence");
            };
            let local = PackedDep::new(SourceKind::Local { producer });
            Some((
                identity(src, None, Some((seq, j, local)), None, None),
                "DepPackingBroken",
            ))
        }
        // Truncated dependence slice: the register prefix claims more
        // sources than the slice holds.
        2 => {
            let raw = src.raw();
            let seq = 0;
            let len = (raw.dep_off[1] - raw.dep_off[0]) as usize;
            Some((
                identity(src, None, None, Some((seq, len + 1)), None),
                "DepSliceBroken",
            ))
        }
        // Overlapping sections: the first span ends one record early, so
        // the second no longer starts where the tiling demands.
        3 => {
            if src.sections().len() < 2 || src.sections()[0].is_empty() {
                return None;
            }
            let span = SectionSpan {
                end: src.sections()[0].end - 1,
                ..src.sections()[0].clone()
            };
            Some((
                identity(src, None, None, None, Some((0, span))),
                "SectionSpanBroken",
            ))
        }
        // A record's section column disagreeing with the span tiling.
        4 => {
            let seq = src.sections().get(1)?.start;
            Some((
                identity(src, Some((seq, SectionId(0))), None, None, None),
                "SectionColumnMismatch",
            ))
        }
        // Bogus creator link: the fork claimed at the section's own start.
        5 => {
            let (i, span) = src
                .sections()
                .iter()
                .enumerate()
                .find(|(_, s)| s.creator.is_some())?;
            let (creator, _) = span.creator.expect("just matched");
            let broken = SectionSpan {
                creator: Some((creator, span.start)),
                ..span.clone()
            };
            Some((
                identity(src, None, None, None, Some((i, broken))),
                "CreatorBroken",
            ))
        }
        // Unclosed record: `begin_record` with no matching `end_record`
        // desynchronises every fixed-width column.
        _ => {
            let mut out = identity(src, None, None, None, None);
            let id = out.intern_mnemonic("dangling");
            out.begin_record(0, id, SectionId(0), src.kind(0), false, false, false);
            Some((out, "ColumnBroken"))
        }
    }
}

/// The stream corpus: each entry doctors one dependence of a real run,
/// as [`replay`] feeds it to the location check, and names the variant
/// the check must report. Returns the doctored `(seq, dep, word)` and the
/// variant, or `None` when the run has no site for the doctoring.
fn doctor(
    arena: &TraceArena,
    doctoring: usize,
) -> Option<((usize, usize, PackedDep), &'static str)> {
    let reg_class = |seq: usize, j: usize| j < arena.reg_sources(seq).len();
    let site = |pred: &dyn Fn(usize, usize, SourceKind) -> bool| {
        find_dep(arena, |seq, j, d| pred(seq, j, d.kind()))
    };
    let doctored = |(seq, j, _), kind| Some(((seq, j, PackedDep::new(kind)), "WriterDiscipline"));
    let misfit = |(seq, j, _), kind| Some(((seq, j, PackedDep::new(kind)), "DepPackingBroken"));
    match doctoring % STREAM_DOCTORINGS {
        // Stale writer: a local dependence re-pointed at a later record,
        // which cannot have written the location (it would be the
        // closest preceding writer).
        0 => {
            let found = site(
                &|seq, _, k| matches!(k, SourceKind::Local { producer } if producer + 1 < seq),
            )?;
            let SourceKind::Local { producer } = found.2.kind() else {
                unreachable!("just matched a local dependence");
            };
            doctored(
                found,
                SourceKind::Local {
                    producer: producer + 1,
                },
            )
        }
        // Wrong provenance: the right producer, tagged remote in its own
        // section.
        1 => {
            let found = site(&|_, _, k| matches!(k, SourceKind::Local { .. }))?;
            let SourceKind::Local { producer } = found.2.kind() else {
                unreachable!("just matched a local dependence");
            };
            doctored(found, SourceKind::Remote { producer })
        }
        // Missed initial read: a never-written location given the first
        // record as its producer.
        2 => {
            let found = site(&|seq, _, k| {
                seq > 0 && matches!(k, SourceKind::InitialRegister | SourceKind::InitialMemory)
            })?;
            doctored(found, SourceKind::Local { producer: 0 })
        }
        // Missed producer: a renamed location read as never written.
        3 => {
            let found =
                site(&|_, _, k| matches!(k, SourceKind::Local { .. } | SourceKind::Remote { .. }))?;
            let initial = if reg_class(found.0, found.1) {
                SourceKind::InitialRegister
            } else {
                SourceKind::InitialMemory
            };
            doctored(found, initial)
        }
        // A fork copy of a memory word.
        4 => misfit(site(&|seq, j, _| !reg_class(seq, j))?, SourceKind::ForkCopy),
        // An initial register read from memory.
        5 => misfit(
            site(&|seq, j, _| !reg_class(seq, j))?,
            SourceKind::InitialRegister,
        ),
        // An initial memory word read from a register.
        _ => misfit(
            site(&|seq, j, _| reg_class(seq, j))?,
            SourceKind::InitialMemory,
        ),
    }
}

/// Entries of the arena corpus ([`mutate`]).
const ARENA_MUTATIONS: usize = 7;

/// Entries of the stream corpus ([`doctor`]).
const STREAM_DOCTORINGS: usize = 7;

/// A [`MINIATURE`] instance's arena and the logged step of each record.
fn base_run(which: usize, seed: u64) -> (&'static str, TraceArena, Vec<Logged>) {
    let (name, program, fuel) = scale_program(which, &MINIATURE, seed);
    let (arena, steps) = locations::logged_arena(&program, fuel);
    (name, arena, steps)
}

/// The location check's report on the logged `steps`, each fed with its
/// record's dependences in `arena`, with `doctored` (`(seq, dep, word)`)
/// in place if given.
fn replay(
    arena: &TraceArena,
    steps: &[Logged],
    doctored: Option<(usize, usize, PackedDep)>,
) -> parsecs::check::CheckReport {
    let mut check = LocationCheck::new(StreamingSectioner::new());
    for (seq, logged) in steps.iter().enumerate() {
        let mut deps = arena.sources(seq).to_vec();
        if let Some((_, j, word)) = doctored.filter(|d| d.0 == seq) {
            deps[j] = word;
        }
        check.check(&logged.step(), &deps, arena.reg_sources(seq).len());
    }
    check.finish(vec![]).expect("fits").1
}

fn is_variant(violation: &InvariantViolation, name: &str) -> bool {
    match violation {
        InvariantViolation::SectionSpanBroken { .. } => name == "SectionSpanBroken",
        InvariantViolation::SectionColumnMismatch { .. } => name == "SectionColumnMismatch",
        InvariantViolation::CreatorBroken { .. } => name == "CreatorBroken",
        InvariantViolation::ColumnBroken { .. } => name == "ColumnBroken",
        InvariantViolation::DepSliceBroken { .. } => name == "DepSliceBroken",
        InvariantViolation::DepPackingBroken { .. } => name == "DepPackingBroken",
        InvariantViolation::DependenceCycle { .. } => name == "DependenceCycle",
        InvariantViolation::WriterDiscipline { .. } => name == "WriterDiscipline",
        _ => false,
    }
}

/// Runs one mutation against one base arena and asserts the validator
/// reports the matching variant (and withholds the bounds).
fn assert_mutation_detected(name: &str, src: &TraceArena, mutation: usize) {
    let Some((mutated, expected)) = mutate(src, mutation) else {
        panic!("{name}: no mutation site for corpus entry {mutation}");
    };
    let report = check_arena(&mutated);
    assert!(
        !report.is_clean(),
        "{name}: mutation {mutation} went undetected"
    );
    assert!(
        report.violations.iter().any(|v| is_variant(v, expected)),
        "{name}: mutation {mutation} should report {expected}, got: {report}"
    );
    assert!(
        report.bounds.is_none(),
        "{name}: corrupt arenas have no bounds"
    );
    assert!(
        report.schedule.is_none(),
        "{name}: corrupt arenas must not carry schedule bounds"
    );
}

/// Replays one doctored run through the location check and asserts it
/// reports the matching variant at the doctored dependence.
fn assert_doctoring_detected(name: &str, arena: &TraceArena, steps: &[Logged], doctoring: usize) {
    let Some((site, expected)) = doctor(arena, doctoring) else {
        panic!("{name}: no site for stream doctoring {doctoring}");
    };
    let report = replay(arena, steps, Some(site));
    let (seq, dep, _) = site;
    assert!(
        report.violations.iter().any(|v| is_variant(v, expected)
            && matches!(
                v,
                InvariantViolation::WriterDiscipline { seq: s, dep: d, .. }
                | InvariantViolation::DepPackingBroken { seq: s, dep: d, .. }
                    if (*s, *d) == (seq, dep)
            )),
        "{name}: doctoring {doctoring} at record {seq} dep {dep} should report {expected}, \
         got: {report}"
    );
}

/// The identity rebuild is bit-identical to the source and stays clean,
/// and the undoctored replay passes the location check — neither corpus
/// harness introduces a corruption of its own.
#[test]
fn identity_rebuild_is_faithful_and_clean() {
    for which in 0..5 {
        let (name, src, steps) = base_run(which, 11);
        let rebuilt = rebuild(&src, |_, s| s, |_, _, d| d, |_, r| r, |_, s| s);
        assert_eq!(rebuilt, src, "{name}: identity rebuild diverged");
        let report = check_arena(&rebuilt);
        assert!(report.is_clean(), "{name}: {report}");
        let report = replay(&src, &steps, None);
        assert!(report.is_clean(), "{name}: {report}");
    }
}

/// Every corpus entry is demonstrably triggered on the fork-heavy
/// histogram run — all eight `InvariantViolation` variants fire: seven
/// from the arena validator, and `WriterDiscipline` (with the location
/// half of `DepPackingBroken`) from the location check.
#[test]
fn every_violation_variant_is_detected() {
    let (name, src, steps) = base_run(0, 11);
    for mutation in 0..ARENA_MUTATIONS {
        assert_mutation_detected(name, &src, mutation);
    }
    for doctoring in 0..STREAM_DOCTORINGS {
        assert_doctoring_detected(name, &src, &steps, doctoring);
    }
}

/// Bytes a finished arena holds: the struct plus each column's length
/// times its element size, read off the arena's public columns. The
/// streaming sectioner trims every column to its payload, so this must
/// equal [`TraceArena::memory_bytes`] exactly.
fn column_bytes(arena: &TraceArena) -> usize {
    use std::mem::{size_of, size_of_val};
    let raw = arena.raw();
    size_of::<TraceArena>()
        + size_of_val(raw.ip)
        + size_of_val(raw.mnemonic_id)
        + size_of_val(raw.section)
        + size_of_val(raw.kind_flags)
        + size_of_val(raw.dep_off)
        + size_of_val(raw.reg_deps)
        + size_of_val(raw.deps)
        + size_of_val(raw.mnemonics)
        + size_of_val(arena.sections())
        + size_of_val(arena.outputs())
}

/// Arena footprint bar, in bytes per instruction: about 10 % above the
/// largest the generators measure (31.6, the `chain_sum` miniature; 21–31
/// across both sizes).
const ARENA_BYTES_PER_INSN: f64 = 35.0;

/// Total footprint bar of a stats-only run over the arena (arena plus
/// simulator state), in bytes per instruction: about 10 % above the
/// largest the generators measure (46.4, the `chain_sum` miniature;
/// 26–46 across both sizes and every chip size).
const STATS_ONLY_BYTES_PER_INSN: f64 = 51.0;

/// Every `workloads::scale` generator, at [`MINIATURE`] and [`SCALE`]
/// sizes, passes the location check and is clean; its arena's footprint
/// is exactly the columns' payload; and at 64, 256 and 1024 cores the
/// engine retires at or above the static critical path and the
/// certified schedule bound, with a progress verdict attached. The
/// engine refuses a deadlocked run as `Diverged`, so every cell that
/// simulates made progress. The arena stays within
/// [`ARENA_BYTES_PER_INSN`], and a stats-only unvalidated run over it,
/// which must retire in the same cycles, within
/// [`STATS_ONLY_BYTES_PER_INSN`].
#[test]
fn scale_generators_are_certified_and_bounded_across_chip_sizes() {
    for (sizes, seed) in [(&MINIATURE, 23), (&SCALE, 7)] {
        for which in 0..5 {
            let (name, program, fuel) = scale_program(which, sizes, seed);
            let (arena, located) =
                LocationCheck::from_program(&program, fuel).expect("workload halts");
            assert!(located.is_clean(), "{name}: {located}");
            assert_eq!(
                arena.memory_bytes(),
                column_bytes(&arena),
                "{name}: memory_bytes is not the columns' payload"
            );
            assert!(
                arena.bytes_per_instruction() <= ARENA_BYTES_PER_INSN,
                "{name}: arena {:.1} B/insn exceeds {ARENA_BYTES_PER_INSN}",
                arena.bytes_per_instruction()
            );
            let report = check_arena(&arena);
            assert!(report.is_clean(), "{name}: {report}");
            let bounds = report.bounds.as_ref().expect("clean arenas are bounded");
            for cores in [64, 256, 1024] {
                let result =
                    ManyCoreSim::new(SimConfig::with_cores(cores).stats_only().validated())
                        .simulate_arena(&arena)
                        .expect("validated simulation succeeds");
                let attached = result
                    .check
                    .as_ref()
                    .expect("validated run attaches a report");
                // The `.expect` above already refuses `SimError::Diverged`
                // on every cell, a deadlock included: stronger than
                // "`Proven` implies no deadlock".
                assert!(
                    attached.progress.is_some(),
                    "{name} at {cores} cores: no progress verdict attached"
                );
                assert!(
                    result.stats.total_cycles >= bounds.critical_path,
                    "{name} at {cores} cores: {} cycles undercut the critical path {}",
                    result.stats.total_cycles,
                    bounds.critical_path
                );
                // The config-aware pass sandwiches between the
                // config-independent critical path and the measurement on
                // every chip size.
                let schedule = attached
                    .schedule
                    .as_ref()
                    .expect("validated runs attach schedule bounds");
                assert!(
                    bounds.critical_path <= schedule.lb && schedule.lb <= result.stats.total_cycles,
                    "{name} at {cores} cores: lb sandwich broken \
                     ({} / {} / {}, {} binding)",
                    bounds.critical_path,
                    schedule.lb,
                    result.stats.total_cycles,
                    schedule.binding
                );
                let stats_only = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only())
                    .simulate_arena(&arena)
                    .expect("stats-only simulation succeeds");
                assert_eq!(
                    stats_only.stats.total_cycles, result.stats.total_cycles,
                    "{name} at {cores} cores: validation changed the cycles"
                );
                assert!(
                    stats_only.total_bytes_per_instruction() <= STATS_ONLY_BYTES_PER_INSN,
                    "{name} at {cores} cores: stats-only total {:.1} B/insn exceeds \
                     {STATS_ONLY_BYTES_PER_INSN}",
                    stats_only.total_bytes_per_instruction()
                );
            }
        }
    }
}

proptest! {
    /// Capacity-starved placements of a dependent chain: more sections
    /// than core slots (`sections > cores × max_sections_per_core`) with
    /// producer edges linking every section to its predecessor. The
    /// progress prover must flag `Progress::PotentialCycle` with a
    /// closed concrete witness, the run's timing must agree with the
    /// naive oracle in `tests/oracle` under the starved capacity, and
    /// the run must complete. (The park/handoff runtime relaxes capacity
    /// and completes these runs — `PotentialCycle` on a completed run is
    /// the expected, consistent outcome; the prover's hold-slot model is
    /// strictly stricter.)
    #[test]
    fn capacity_starved_chains_are_flagged_and_consistent_with_the_detector(
        seed in proptest::strategy::any::<u64>(),
        elements in 265usize..300,
    ) {
        let program = scale::chain_sum_program(elements, seed);
        let arena = TraceArena::from_program(&program, scale::chain_sum_fuel(elements))
            .expect("workload halts within fuel");
        let sections = arena.sections().len();
        prop_assert!(
            sections > 256,
            "a {}-element chain made only {} sections", elements, sections
        );
        for cores in [64usize, 256] {
            let mut config = SimConfig::with_cores(cores).stats_only().validated();
            config.max_sections_per_core = 1;
            let sim = ManyCoreSim::new(config);
            // The `.expect` refuses `SimError::Diverged`, a deadlock
            // included, on every cell: stronger than "`Proven` implies
            // no deadlock".
            let event = sim.simulate_arena(&arena).expect("event engine simulates");
            oracle::agree(&arena, sim.config(), &event, &format!("{elements} elements on {cores} cores"));
            let report = event.check.as_ref().expect("validated run attaches a report");
            let progress = report
                .progress
                .as_ref()
                .expect("validated runs attach the progress verdict");
            prop_assert!(
                !progress.is_proven(),
                "{} sections on {} single-slot cores must not be proven: {:?}",
                sections, cores, progress
            );
            let Progress::PotentialCycle { witness } = progress else {
                unreachable!("not proven, so a potential cycle");
            };
            prop_assert!(!witness.is_empty());
            for pair in witness.windows(2) {
                prop_assert_eq!(pair[0].to_section, pair[1].from_section, "witness chains");
            }
            prop_assert_eq!(
                witness.last().expect("non-empty").to_section,
                witness[0].from_section,
                "witness must close on its first section"
            );
        }
        // The same chain with the default per-core capacity is proven,
        // and the run completes (the `.expect` refuses a deadlock).
        let roomy = ManyCoreSim::new(SimConfig::with_cores(64).stats_only().validated())
            .simulate_arena(&arena)
            .expect("roomy chip simulates");
        let progress = roomy
            .check
            .as_ref()
            .expect("validated run attaches a report")
            .progress
            .as_ref()
            .expect("attached")
            .clone();
        prop_assert!(
            progress.is_proven(),
            "default capacity must prove progress, got {:?}", progress
        );
        // The chain's serial structure shows up in the certificate: the
        // longest producer-edge chain spans at least the link sections.
        prop_assert!(progress.longest_wait_chain().expect("proven") >= sections / 2);
    }

    /// Every raw dependence word decodes, so a corrupt word is never a
    /// bad tag: it names a producer, or none. Any word, spliced into an
    /// arena, decodes and validates without panicking, and the `deps`
    /// pass flags it exactly when its producer lies past the trace.
    #[test]
    fn a_raw_dep_word_past_the_trace_is_reported(
        word in prop_oneof![
            proptest::strategy::any::<u32>(),
            0u32..512,
            (1u32 << 31)..(1 << 31) + 512,
            (u32::MAX - 4)..u32::MAX,
            Just(u32::MAX),
        ],
    ) {
        let (name, src) = base_arena(0, 11);
        let dep = PackedDep::from_bits(word);
        let past_the_trace = match dep.kind() {
            SourceKind::Local { producer } | SourceKind::Remote { producer } => {
                producer >= src.len()
            }
            SourceKind::ForkCopy | SourceKind::InitialRegister | SourceKind::InitialMemory => false,
        };
        let (seq, j, _) = find_dep(&src, |_, _, _| true).expect("has dependences");
        let mutated = rebuild(
            &src,
            |_, s| s,
            |s, i, d| if (s, i) == (seq, j) { dep } else { d },
            |_, r| r,
            |_, s| s,
        );
        let report = check_arena(&mutated);
        let flagged = report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::DepPackingBroken {
                seq: s,
                dep: d,
                detail: "producer index out of range",
            } if (*s, *d) == (seq, j)
        ));
        prop_assert_eq!(
            flagged, past_the_trace,
            "{}: word {:#x} ({:?}) against {} records: {}",
            name, word, dep.kind(), src.len(), report
        );
    }

    /// The arena corpus swept across random seeds and all five
    /// generators: whenever a mutation site exists, the matching variant
    /// is reported.
    #[test]
    fn mutated_arenas_never_pass_validation(
        seed in proptest::strategy::any::<u64>(),
        which in 0usize..5,
        mutation in 0usize..ARENA_MUTATIONS,
    ) {
        let (name, src) = base_arena(which, seed);
        prop_assert!(check_arena(&src).is_clean(), "{}: base arena dirty", name);
        if let Some((mutated, expected)) = mutate(&src, mutation) {
            let report = check_arena(&mutated);
            prop_assert!(!report.is_clean(), "{}: mutation {} undetected", name, mutation);
            prop_assert!(
                report.violations.iter().any(|v| is_variant(v, expected)),
                "{}: mutation {} should report {}, got: {}",
                name, mutation, expected, report
            );
        }
    }

    /// The stream corpus swept the same way: the undoctored replay of
    /// every run is clean, and whenever a doctoring site exists, the
    /// location check reports the matching variant.
    #[test]
    fn doctored_streams_never_pass_the_location_check(
        seed in proptest::strategy::any::<u64>(),
        which in 0usize..5,
        doctoring in 0usize..STREAM_DOCTORINGS,
    ) {
        let (name, src, steps) = base_run(which, seed);
        let report = replay(&src, &steps, None);
        prop_assert!(report.is_clean(), "{}: undoctored replay dirty: {}", name, report);
        if doctor(&src, doctoring).is_some() {
            assert_doctoring_detected(name, &src, &steps, doctoring);
        }
    }
}
