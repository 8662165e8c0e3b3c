//! Mutation corpus for the `parsecs::check` static analysis.
//!
//! Every workload generator's arena must come back clean, bounded
//! (`total_cycles ≥ lb ≥ critical_path` on every chip size) and within
//! its footprint bars. And the validator must actually *detect* broken
//! invariants: these tests rebuild real arenas record-by-record through
//! the public column builder, inject one targeted corruption — a swapped
//! dependence edge, an overlapping section span, a stale writer claim, a
//! truncated dependence slice, an invalid location packing, a bogus
//! creator link, an unclosed record — and assert the report names the
//! matching [`InvariantViolation`] variant. A proptest then sweeps the
//! same mutations across random seeds and all five generators, and lean
//! arenas (which store no locations) must still report every mutation
//! that needs none.

mod oracle;

use parsecs::check::{check_arena, InvariantViolation, Progress};
use parsecs::core::{ManyCoreSim, SimConfig};
use parsecs::isa::Program;
use parsecs::trace::{PackedDep, RawColumns, SectionId, SectionSpan, TraceArena};
use parsecs::workloads::scale;
use proptest::prelude::*;

/// Mirrors of the arena's packed provenance tags (pinned inside
/// `parsecs-check` against the arena's encoder).
const KIND_LOCAL: u32 = 0;
const KIND_REMOTE: u32 = 1;

/// One dependence as the corpus edits it: the packed provenance word and
/// the packed location it reads (`RawColumns::dep_locs` encoding).
type Dep = (PackedDep, u64);

/// Entry `k` of the shared dependence slice (location 0 on a lean arena).
fn dep_at(raw: &RawColumns<'_>, k: usize) -> Dep {
    (
        raw.deps[k],
        raw.dep_locs.get(k).copied().unwrap_or_default(),
    )
}

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

/// The full arena of a [`MINIATURE`] instance.
fn base_arena(which: usize, seed: u64) -> (&'static str, TraceArena) {
    let (name, program, fuel) = scale_program(which, &MINIATURE, seed);
    let arena = TraceArena::from_program(&program, fuel).expect("workload halts within fuel");
    (name, arena)
}

/// The lean arena of a [`MINIATURE`] instance: no locations stored.
fn base_lean_arena(which: usize, seed: u64) -> (&'static str, TraceArena) {
    let (name, program, fuel) = scale_program(which, &MINIATURE, seed);
    let arena = TraceArena::from_program_lean(&program, fuel).expect("workload halts within fuel");
    (name, arena)
}

/// Rebuilds `src` through the public column builder, mapping each column
/// through the given hooks (identity hooks reproduce `src` exactly, lean
/// or full). A lean `src` has no locations, so its hooks see location 0
/// and the lean rebuild drops whatever they return.
fn rebuild(
    src: &TraceArena,
    mut map_section_col: impl FnMut(usize, SectionId) -> SectionId,
    mut map_dep: impl FnMut(usize, usize, Dep) -> Dep,
    mut map_reg_count: impl FnMut(usize, usize) -> usize,
    mut map_span: impl FnMut(usize, SectionSpan) -> SectionSpan,
) -> TraceArena {
    let mut out = if src.records_locations() {
        TraceArena::new()
    } else {
        TraceArena::new_lean()
    };
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
        let deps = raw.dep_off[seq] as usize..raw.dep_off[seq + 1] as usize;
        for (j, k) in deps.enumerate() {
            let (dep, loc) = map_dep(seq, j, dep_at(&raw, k));
            out.push_dep_raw(dep, loc);
        }
        for loc in src.written(seq) {
            out.push_write(loc);
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
    pred: impl Fn(usize, usize, Dep) -> bool,
) -> Option<(usize, usize, Dep)> {
    let raw = src.raw();
    for seq in 0..src.len() {
        let deps = raw.dep_off[seq] as usize..raw.dep_off[seq + 1] as usize;
        for (j, k) in deps.enumerate() {
            let dep = dep_at(&raw, k);
            if pred(seq, j, dep) {
                return Some((seq, j, dep));
            }
        }
    }
    None
}

/// The corpus: each entry corrupts one invariant and names the variant
/// the validator must report. Returns `None` when `src` has no site for
/// the mutation (e.g. a single-section trace cannot overlap spans).
fn mutate(src: &TraceArena, mutation: usize) -> Option<(TraceArena, &'static str)> {
    let identity = |src: &TraceArena,
                    sec: Option<(usize, SectionId)>,
                    dep: Option<(usize, usize, Dep)>,
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
    match mutation % 8 {
        // Swapped dependence edge: a producer at/after its consumer.
        0 => {
            let (seq, j, (dep, loc)) = find_dep(src, |_, _, (d, _)| {
                matches!(d.raw_parts().1 & 7, KIND_LOCAL | KIND_REMOTE)
            })?;
            let (_, section_kind) = dep.raw_parts();
            let cyclic = (PackedDep::from_raw_parts(seq as u32, section_kind), loc);
            Some((
                identity(src, None, Some((seq, j, cyclic)), None, None),
                "DependenceCycle",
            ))
        }
        // Invalid location packing: a bogus location tag in the register
        // prefix.
        1 => {
            let raw = src.raw();
            let (seq, j, (dep, loc)) = find_dep(src, |seq, j, _| j < raw.reg_deps[seq] as usize)?;
            let broken = (dep, (loc & !7) | 5);
            Some((
                identity(src, None, Some((seq, j, broken)), None, None),
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
        // Stale writer: a local dependence re-pointed at a same-section
        // record that is not the closest preceding writer.
        3 => {
            let spans = src.sections();
            let (seq, j, (dep, loc)) = find_dep(src, |seq, _, (d, _)| {
                let (producer, section_kind) = d.raw_parts();
                section_kind & 7 == KIND_LOCAL
                    && seq - spans[src.section(seq).0].start >= 2
                    && producer as usize + 1 < seq
            })?;
            let (producer, section_kind) = dep.raw_parts();
            let stale = (PackedDep::from_raw_parts(producer + 1, section_kind), loc);
            Some((
                identity(src, None, Some((seq, j, stale)), None, None),
                "WriterDiscipline",
            ))
        }
        // Overlapping sections: the first span ends one record early, so
        // the second no longer starts where the tiling demands.
        4 => {
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
        5 => {
            let seq = src.sections().get(1)?.start;
            Some((
                identity(src, Some((seq, SectionId(0))), None, None, None),
                "SectionColumnMismatch",
            ))
        }
        // Bogus creator link: the fork claimed at the section's own start.
        6 => {
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
fn assert_detected(which: usize, seed: u64, mutation: usize) {
    let (name, src) = base_arena(which, seed);
    assert_mutation_detected(name, &src, mutation);
}

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

/// The identity rebuild is bit-identical to the source and stays clean —
/// the corpus harness itself introduces no corruption.
#[test]
fn identity_rebuild_is_faithful_and_clean() {
    for which in 0..5 {
        let (name, src) = base_arena(which, 11);
        let rebuilt = rebuild(&src, |_, s| s, |_, _, d| d, |_, r| r, |_, s| s);
        assert_eq!(rebuilt, src, "{name}: identity rebuild diverged");
        let report = check_arena(&rebuilt);
        assert!(report.is_clean(), "{name}: {report}");
    }
}

/// Every corpus entry is demonstrably triggered on the fork-heavy
/// histogram arena — all eight `InvariantViolation` variants fire.
#[test]
fn every_violation_variant_is_detected() {
    for mutation in 0..8 {
        assert_detected(0, 11, mutation);
    }
}

/// A lean arena stores no locations, so the location-tag mutation (1)
/// and the writer replay (3) have nothing to check; every other corpus
/// entry is still reported, and the lean identity rebuild is faithful
/// and clean.
#[test]
fn lean_arenas_report_every_location_free_mutation() {
    for which in 0..5 {
        let (name, src) = base_lean_arena(which, 11);
        let rebuilt = rebuild(&src, |_, s| s, |_, _, d| d, |_, r| r, |_, s| s);
        assert_eq!(rebuilt, src, "{name}: lean identity rebuild diverged");
        assert!(check_arena(&rebuilt).is_clean(), "{name}");
    }
    let (name, src) = base_lean_arena(0, 11);
    for mutation in [0, 2, 4, 5, 6, 7] {
        assert_mutation_detected(name, &src, mutation);
    }
}

/// A corrupt provenance tag needs no location to be caught: a lean
/// arena with one is still reported.
#[test]
fn lean_arenas_report_a_corrupt_provenance_tag() {
    let (name, src) = base_lean_arena(0, 11);
    let (seq, j, (dep, loc)) = find_dep(&src, |_, _, _| true).expect("has dependences");
    let (producer, section_kind) = dep.raw_parts();
    let broken = (
        PackedDep::from_raw_parts(producer, (section_kind & !7) | 7),
        loc,
    );
    let mutated = rebuild(
        &src,
        |_, s| s,
        |s, i, d| if (s, i) == (seq, j) { broken } else { d },
        |_, r| r,
        |_, s| s,
    );
    let report = check_arena(&mutated);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::DepPackingBroken {
                detail: "invalid provenance tag",
                ..
            }
        )),
        "{name}: a corrupt provenance tag went unreported: {report}"
    );
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
        + size_of_val(raw.write_off)
        + size_of_val(raw.deps)
        + size_of_val(raw.dep_locs)
        + size_of_val(raw.writes)
        + size_of_val(raw.mnemonics)
        + size_of_val(arena.sections())
        + size_of_val(arena.outputs())
}

/// Arena footprint bar, in bytes per instruction (full and lean arenas
/// alike).
const ARENA_BYTES_PER_INSN: f64 = 120.0;

/// Total footprint bar of a stats-only run over a lean arena (arena plus
/// simulator state), in bytes per instruction.
const STATS_ONLY_BYTES_PER_INSN: f64 = 80.0;

/// Every `workloads::scale` generator, at [`MINIATURE`] and [`SCALE`]
/// sizes, is clean; its arenas' footprint is exactly the columns'
/// payload; and at 64, 256 and 1024 cores the engine retires at or
/// above the static critical path and the certified schedule bound,
/// with a progress verdict attached. The engine refuses a deadlocked
/// run as `Diverged`, so every cell that simulates made progress. The
/// arenas stay within
/// [`ARENA_BYTES_PER_INSN`], and a stats-only run over the lean arena,
/// which must retire in the same cycles, within
/// [`STATS_ONLY_BYTES_PER_INSN`].
#[test]
fn scale_generators_are_certified_and_bounded_across_chip_sizes() {
    for (sizes, seed) in [(&MINIATURE, 23), (&SCALE, 7)] {
        for which in 0..5 {
            let (name, program, fuel) = scale_program(which, sizes, seed);
            let arena = TraceArena::from_program(&program, fuel).expect("workload halts");
            let lean = TraceArena::from_program_lean(&program, fuel).expect("workload halts");
            for built in [&arena, &lean] {
                assert_eq!(
                    built.memory_bytes(),
                    column_bytes(built),
                    "{name} (lean {}): memory_bytes is not the columns' payload",
                    !built.records_locations()
                );
                assert!(
                    built.bytes_per_instruction() <= ARENA_BYTES_PER_INSN,
                    "{name} (lean {}): arena {:.1} B/insn exceeds {ARENA_BYTES_PER_INSN}",
                    !built.records_locations(),
                    built.bytes_per_instruction()
                );
            }
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
                let progress = attached
                    .progress
                    .as_ref()
                    .expect("validated runs attach the progress verdict");
                assert!(
                    result.stats.forced_stall_releases == 0 || !progress.is_proven(),
                    "{name} at {cores} cores: deadlocked on a placement proven to progress"
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
                    .simulate_arena(&lean)
                    .expect("stats-only simulation succeeds");
                assert_eq!(
                    stats_only.stats.total_cycles, result.stats.total_cycles,
                    "{name} at {cores} cores: the lean arena retires differently"
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
    /// the verdict must stay consistent with the runtime deadlock
    /// detector in the one direction the model promises: a run the
    /// detector flags is never `Proven`. (The
    /// park/handoff runtime relaxes capacity and completes these runs —
    /// `PotentialCycle` with a quiet detector is the expected,
    /// consistent outcome; the prover's hold-slot model is strictly
    /// stricter.)
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
            // One-directional consistency with the runtime detector: a
            // deadlocked run must never carry a proof.
            prop_assert!(event.stats.forced_stall_releases == 0 || !progress.is_proven());
        }
        // The same chain with the default per-core capacity is proven —
        // and the proof is consistent with the detector staying quiet.
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
        prop_assert_eq!(roomy.stats.forced_stall_releases, 0);
    }

    /// The corpus swept across random seeds and all five generators:
    /// whenever a mutation site exists, the matching variant is reported.
    #[test]
    fn mutated_arenas_never_pass_validation(
        seed in proptest::strategy::any::<u64>(),
        which in 0usize..5,
        mutation in 0usize..8,
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
}
