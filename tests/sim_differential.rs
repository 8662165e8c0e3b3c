//! Property-based differential test of the simulator against the naive
//! oracle in `tests/oracle`.
//!
//! The event-driven engine ([`ManyCoreSim::simulate_arena`]) must agree
//! with the oracle, which shares none of its code, on every stage row
//! and every statistic, attribution and NoC counters included, on every
//! program and every configuration. This test generates random small
//! fork programs (random arithmetic, memory traffic through a scratch
//! array, forward conditional jumps over random blocks, nested forks)
//! and random chip configurations (core count, placement policy,
//! topology, NoC timing, ejection bandwidth, section capacity,
//! renaming-walk and DMH charges, fetch-stall mode) and asserts full
//! agreement. A recording probe must steer nothing and see the same
//! event sequence and the same per-cycle gauges in a stats-only run.

mod digest;
mod oracle;

use digest::{EventDigest, TickDigest};
use parsecs::core::{ManyCoreSim, Placement, SimConfig};
use parsecs::noc::{NocConfig, Topology};
use parsecs::trace::TraceArena;
use parsecs::workloads::sum;
use proptest::prelude::*;

/// A tiny deterministic generator used to expand one proptest-drawn seed
/// into a whole random program (splitmix64).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }
}

/// Emits one straight-line operation. The generated programs only jump
/// forward, never touch `%rdi` (the data pointer) and address memory
/// through the data array or the scratch array, so every program halts.
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
            let a = gen.pick(&reg);
            let b = gen.pick(&reg);
            if a != b {
                out.push_str(&format!("        subq {a}, {b}\n"));
            } else {
                out.push_str("        addq $1, %rax\n");
            }
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
        // A forward conditional jump over the next couple of ops. The
        // comparison may read a value loaded from memory, exercising the
        // fetch stage's control-stall machinery.
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

fn random_config(gen: &mut Gen) -> SimConfig {
    // 65 and 130 cores need more than one 64-bit word per core set, the
    // last one partly filled.
    let cores = [1usize, 2, 3, 4, 6, 8, 16, 64, 65, 130][gen.below(10) as usize];
    let mut config = SimConfig::with_cores(cores);
    config = match gen.below(4) {
        0 => config.with_placement(Placement::RoundRobin),
        1 => config.with_placement(Placement::LeastLoaded),
        2 => config.with_placement(Placement::LoadAware),
        _ => config.with_placement(Placement::ChainAffine),
    };
    config.noc = NocConfig {
        base_latency: gen.below(4),
        per_hop_latency: gen.below(4),
        link_bandwidth: match gen.below(3) {
            0 => None,
            1 => Some(1),
            _ => Some(2),
        },
    };
    if cores == 4 && gen.below(2) == 0 {
        config.topology = Some(Topology::mesh(2, 2));
    }
    if cores == 16 && gen.below(2) == 0 {
        config.topology = Some(Topology::mesh(4, 4));
    }
    config.max_sections_per_core = [1usize, 2, 8][gen.below(3) as usize];
    config.dmh_latency = 1 + gen.below(7);
    config.per_section_hop = gen.below(3);
    config.fetch_stalls_on_unresolved_control = gen.below(4) != 0;
    config
}

/// The program's sectioned trace, through the streaming pipeline.
fn arena_of(program: &parsecs::isa::Program) -> TraceArena {
    TraceArena::from_program(program, SimConfig::default().fuel).expect("halts")
}

proptest! {
    #[test]
    fn random_programs_times_random_chips_match_the_oracle(seed in proptest::strategy::any::<u64>()) {
        let program = random_program(seed);
        let arena = arena_of(&program);
        let mut gen = Gen::new(seed.rotate_left(17) ^ 0xabcd);
        // Several configurations per generated program, each run in full
        // mode against the oracle and stats-only, with the streaming
        // aggregates held bit-identical to the recorded ones. Every run
        // is validated: the static analysis must pass on every generated
        // trace, and the engine must retire at or above the analyzer's
        // configuration-independent critical path.
        for _ in 0..3 {
            let config = random_config(&mut gen).validated();
            let sim = ManyCoreSim::new(config);
            let what = format!("seed {seed} under {:?}", sim.config());
            let event = sim.simulate_arena(&arena).expect("event-driven engine simulates");
            oracle::agree(&arena, sim.config(), &event, &what);
            // The probe axis: an observing probe must not steer the
            // engine, and a stats-only run fires the same hooks in the
            // same order with the same arguments.
            let mut probe = EventDigest::default();
            let probed = sim
                .simulate_arena_probed(&arena, &mut probe)
                .expect("simulates");
            prop_assert_eq!(&probed, &event, "{}: the probe steered the run", what);
            prop_assert!(probe.events > 0, "{}: the probe observed nothing", what);
            let mut stats_probe = EventDigest::default();
            let stats_sim = ManyCoreSim::new(sim.config().clone().stats_only());
            let stats = stats_sim
                .simulate_arena_probed(&arena, &mut stats_probe)
                .expect("stats-only simulates");
            prop_assert_eq!(
                stats_probe,
                probe,
                "{}: stats-only events diverge from full mode",
                what
            );
            // So does the engine's schedule: both modes process the same
            // cycles with the same gauges.
            let mut ticks = TickDigest::default();
            let ticked = sim
                .simulate_arena_probed(&arena, &mut ticks)
                .expect("simulates");
            prop_assert_eq!(&ticked, &event, "{}: the gauge probe steered the run", what);
            let mut stats_ticks = TickDigest::default();
            stats_sim
                .simulate_arena_probed(&arena, &mut stats_ticks)
                .expect("stats-only simulates");
            prop_assert_eq!(
                stats_ticks,
                ticks,
                "{}: stats-only gauges diverge from full mode",
                what
            );
            // The always-on attribution table covers every configured core
            // and tiles the whole cycle budget additively.
            prop_assert_eq!(event.stats.attribution.len(), sim.config().cores);
            for (core, breakdown) in event.stats.attribution.iter().enumerate() {
                prop_assert_eq!(
                    breakdown.total(),
                    event.stats.total_cycles,
                    "seed {} under {:?}: core {}'s attribution buckets do not sum \
                     to total_cycles",
                    seed,
                    sim.config(),
                    core
                );
            }
            let report = event.check.as_ref().expect("validated run attaches a report");
            prop_assert!(report.is_clean(), "seed {}: {}", seed, report);
            // The validated run's `.expect` already refuses
            // `SimError::Diverged`, a deadlock included, on every cell of
            // the random grid: stronger than "`Proven` implies no
            // deadlock".
            prop_assert!(
                report.progress.is_some(),
                "seed {}: validated runs attach a progress verdict",
                seed
            );
            let bounds = report.bounds.as_ref().expect("clean arenas are bounded");
            prop_assert!(
                event.stats.total_cycles >= bounds.critical_path,
                "seed {} under {:?}: {} cycles undercut the static critical path {}",
                seed,
                sim.config(),
                event.stats.total_cycles,
                bounds.critical_path
            );
            // The schedule-bound sandwich, on every random cell: the
            // config-aware certified bound dominates the
            // config-independent critical path and never overshoots the
            // measured cycle count.
            let schedule = report
                .schedule
                .as_ref()
                .expect("validated runs attach schedule bounds");
            prop_assert!(
                schedule.lb >= bounds.critical_path,
                "seed {} under {:?}: schedule lb {} undercuts the critical path {}",
                seed,
                sim.config(),
                schedule.lb,
                bounds.critical_path
            );
            prop_assert!(
                event.stats.total_cycles >= schedule.lb,
                "seed {} under {:?}: {} cycles undercut the certified schedule bound {} \
                 ({} binding)",
                seed,
                sim.config(),
                event.stats.total_cycles,
                schedule.lb,
                schedule.binding
            );
            // Every stall has a modeled release event under the handoff
            // model, so the deadlock detector must never fire on a
            // well-formed trace, whatever the chip looks like.
            prop_assert_eq!(
                event.stats.forced_stall_releases,
                0,
                "seed {} under {:?}: detector fired",
                seed,
                sim.config()
            );
            prop_assert_eq!(
                &stats.stats,
                &event.stats,
                "seed {} under {:?}: stats-only aggregates diverge from full mode",
                seed,
                stats_sim.config()
            );
            prop_assert_eq!(&stats.outputs, &event.outputs, "seed {}", seed);
            prop_assert!(
                stats.timings().is_empty(),
                "seed {}: stats-only run materialised a stage table",
                seed
            );
        }
    }
}

/// One random histogram-family program: `tasks` forked leaves walk random
/// key streams and bump shared bucket counters through a
/// load–conditional–store sequence whose (functionally redundant)
/// conditional depends on the *loaded* counter — the fork-heavy pattern
/// whose cross-section writer chains made the retired force-release
/// heuristic fire ~1× per key. Bucket count, leaf count, keys per leaf,
/// the key stream, the gap between each compare and its jump and which
/// leaves open on the previous leaf's flags all vary with the seed.
fn histogram_family_program(seed: u64) -> parsecs::isa::Program {
    let mut gen = Gen::new(seed ^ 0x5ca1_ab1e);
    let buckets = 2 + gen.below(6);
    let leaves = 2 + gen.below(4);
    let mut src = format!(
        "table:  .quad {}\nmain:   movq $0, %rax\n",
        vec!["0"; buckets as usize].join(", ")
    );
    for leaf in 0..leaves {
        src.push_str(&format!("        fork leaf{leaf}\n"));
    }
    // After the fork subtree, fold the table into a checksum.
    src.push_str(&format!(
        "        movq $table, %rdi
        movq ${buckets}, %rcx
        movq $0, %rax
        movq $1, %rbx
chk:    movq (%rdi), %rdx
        imulq %rbx, %rdx
        addq %rdx, %rax
        addq $8, %rdi
        addq $1, %rbx
        subq $1, %rcx
        jne chk
        out  %rax
        halt
"
    ));
    let mut label = 0usize;
    for leaf in 0..leaves {
        src.push_str(&format!("leaf{leaf}:\n"));
        let keys = 2 + gen.below(6);
        for key in 0..keys {
            let bucket = gen.below(buckets) * 8;
            src.push_str(&format!(
                "        movq $table, %rcx
        movq {bucket}(%rcx), %rax\n"
            ));
            // A leaf's first jump may skip its compare and read the flags
            // the previous leaf left, from another section; flag-free
            // moves may separate a compare from its jump.
            if key > 0 || leaf == 0 || gen.below(3) != 0 {
                src.push_str("        cmpq $0, %rax\n");
            }
            for _ in 0..gen.below(3) {
                src.push_str(&format!("        movq ${}, %rdx\n", gen.below(100)));
            }
            src.push_str(&format!(
                "        je .l{label}
.l{label}: addq $1, %rax
        movq %rax, {bucket}(%rcx)\n"
            ));
            label += 1;
        }
        src.push_str("        endfork\n");
    }
    parsecs::asm::assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"))
}

proptest! {
    /// The fork-heavy differential: random histogram-family programs ×
    /// random chips. These runs used to lean on the forced-release
    /// heuristic (~1 release per key); under the handoff model the
    /// engine must agree with the oracle *and* never force a release.
    #[test]
    fn fork_heavy_writer_chains_never_force_releases(seed in proptest::strategy::any::<u64>()) {
        let program = histogram_family_program(seed);
        let arena = arena_of(&program);
        let mut gen = Gen::new(seed.rotate_left(29) ^ 0x1234);
        for _ in 0..2 {
            let config = random_config(&mut gen).validated();
            let sim = ManyCoreSim::new(config);
            let what = format!("seed {seed} under {:?}", sim.config());
            let event = sim.simulate_arena(&arena).expect("event-driven engine simulates");
            oracle::agree(&arena, sim.config(), &event, &what);
            prop_assert_eq!(
                event.stats.forced_stall_releases,
                0,
                "{}: detector fired on a well-formed fork-heavy run",
                what
            );
            // The stats axis: the fork-heavy contended chains must yield
            // the same aggregates (and a silent detector) stats-only.
            let stats_sim = ManyCoreSim::new(sim.config().clone().stats_only());
            let stats = stats_sim.simulate_arena(&arena).expect("stats-only simulates");
            prop_assert_eq!(
                &stats.stats,
                &event.stats,
                "{}: stats-only aggregates diverge",
                what
            );
        }
    }
}

#[test]
fn histogram_family_programs_chain_writers_across_sections() {
    // The generator must produce the contended cross-section writer
    // chains it exists for: multiple sections, remote operands, and a
    // deterministic checksum.
    let mut forked = 0usize;
    let mut remote = 0u64;
    for seed in 0..24u64 {
        let program = histogram_family_program(seed * 6151 + 7);
        let arena = arena_of(&program);
        let sim = ManyCoreSim::new(SimConfig::with_cores(4));
        let result = sim.simulate_arena(&arena).expect("simulates");
        forked += result.stats.sections;
        remote += result.stats.remote_register_requests + result.stats.remote_memory_requests;
        assert_eq!(result.stats.forced_stall_releases, 0);
    }
    assert!(forked >= 24 * 3, "only {forked} sections over 24 programs");
    assert!(remote > 0, "no remote operands — chains never cross cores");
}

#[test]
fn attribution_buckets_tile_total_cycles_exactly() {
    // Deterministic spot check of the always-on cycle attribution: every
    // configured core's busy/stalled/parked/idle buckets sum to the
    // run's total_cycles, the chip-wide occupancy is a proper fraction,
    // and cores the placement never used still account their cycles
    // (all idle), keeping the denominator consistent.
    for seed in [3u64, 11, 42] {
        let program = random_program(seed * 7919 + 13);
        let arena = arena_of(&program);
        let sim = ManyCoreSim::new(SimConfig::with_cores(8));
        let result = sim.simulate_arena(&arena).expect("simulates");
        assert_eq!(result.stats.attribution.len(), 8);
        for breakdown in &result.stats.attribution {
            assert_eq!(breakdown.total(), result.stats.total_cycles, "seed {seed}");
        }
        let occupancy = result.stats.occupancy();
        assert!(
            occupancy > 0.0 && occupancy <= 1.0,
            "seed {seed}: {occupancy}"
        );
        let busy: u64 = result.stats.attribution.iter().map(|b| b.busy).sum();
        assert!(busy > 0, "seed {seed}: no fetch cycles attributed");
    }
}

/// Two hub sections, each executing a run of `fork` instructions whose
/// fall-throughs are 1-instruction sections — a two-senders,
/// many-producers star. With every tiny section pinned on one consumer
/// core and a per-cycle ejection budget of 1, the 14 creation messages
/// serialise through that core's ejection port and the contention term
/// is the binding lower bound.
#[test]
fn ejection_contention_binds_a_many_producers_one_consumer_cell() {
    use parsecs::check::BindingTerm;
    use parsecs::core::bound_schedule;

    // `fork` is call-style: control continues into the target while the
    // fall-through code becomes a new section, so a run of forks through
    // 1-instruction bodies puts all the fork instructions — and all the
    // spawned continuations — in ONE hub section. The root hub chains
    // through `a1..a7`; its first continuation (the code after
    // `fork a1`) is hub B chaining through `b1..b7`; continuations pop
    // LIFO, so hub B's first continuation runs last and carries `halt`.
    let mut src =
        String::from("main:   fork a1\n        fork b1\n        out %rax\n        halt\n");
    for k in 1..7 {
        src.push_str(&format!("b{k}:     fork b{}\n        endfork\n", k + 1));
    }
    src.push_str("b7:     endfork\n");
    for k in 1..7 {
        src.push_str(&format!("a{k}:     fork a{}\n        endfork\n", k + 1));
    }
    src.push_str("a7:     endfork\n");
    let program = parsecs::asm::assemble(&src).expect("assembles");
    let arena = TraceArena::from_program(&program, 10_000).expect("runs");

    // Root hub on core 0, hub B on core 2, every spawned leaf on the
    // consumer core 1.
    let core_of: Vec<usize> = arena
        .sections()
        .iter()
        .map(|span| {
            if span.creator.is_none() {
                0
            } else if span.len() > 2 {
                2
            } else {
                1
            }
        })
        .collect();
    assert_eq!(
        core_of.iter().filter(|&&c| c == 1).count(),
        13,
        "the two hubs must spawn 13 leaf sections for the consumer core"
    );

    let mut config = SimConfig::with_cores(4);
    config.noc = NocConfig {
        base_latency: 1,
        per_hop_latency: 1,
        link_bandwidth: Some(1),
    };
    let bounds = bound_schedule(&arena, &core_of, &config.chip_model());
    assert_eq!(
        bounds.binding,
        BindingTerm::Ejection,
        "path {} work {} ejection {}",
        bounds.path_bound,
        bounds.work_bound,
        bounds.ejection_bound
    );
    // 13 messages through a budget-1 port, cheapest transit 2, then the
    // last section's single fetch and its retirement.
    assert_eq!(bounds.ejection_bound, 13 + 2 + 1 + 1);
    assert!(bounds.ejection_bound > bounds.path_bound);
    assert!(bounds.ejection_bound > bounds.work_bound);

    // The engine's own (policy-chosen) placement on the same chip still
    // satisfies the sandwich.
    let result = ManyCoreSim::new(config.validated())
        .simulate_arena(&arena)
        .expect("simulates");
    let schedule = result
        .check
        .as_ref()
        .and_then(|r| r.schedule.as_ref())
        .expect("validated run attaches schedule bounds");
    assert!(result.stats.total_cycles >= schedule.lb);
}

/// On a 1-core chip a wide dependence-free program is bound by fetch
/// work, not by any dependence path: the engine's own placement is the
/// trivial one, so the attached report must name the work term.
#[test]
fn per_core_work_binds_a_one_core_cell() {
    use parsecs::check::BindingTerm;

    // Control runs into each forked body (`a`, then `b` from `a`'s
    // continuation); the final continuation carries the halt. Three
    // sections, two of them wide and dependence-free.
    let mut src = String::from("main:   fork a\n        fork b\n        out %rax\n        halt\n");
    src.push_str("a:    ");
    for k in 0..8 {
        src.push_str(&format!("  movq ${k}, %rax\n      "));
    }
    src.push_str("  endfork\nb:    ");
    for k in 0..8 {
        src.push_str(&format!("  movq ${k}, %rbx\n      "));
    }
    src.push_str("  endfork\n");
    let program = parsecs::asm::assemble(&src).expect("assembles");
    let arena = arena_of(&program);

    let result = ManyCoreSim::new(SimConfig::with_cores(1).validated())
        .simulate_arena(&arena)
        .expect("simulates");
    let report = result.check.as_ref().expect("validated run");
    let schedule = report.schedule.as_ref().expect("schedule bounds attached");
    assert_eq!(
        schedule.binding,
        BindingTerm::Work,
        "path {} work {} ejection {}",
        schedule.path_bound,
        schedule.work_bound,
        schedule.ejection_bound
    );
    assert_eq!(
        schedule.work_bound,
        result.stats.instructions + 1,
        "one core must fetch every instruction plus the final retirement"
    );
    let critical_path = report.bounds.as_ref().expect("bounded").critical_path;
    assert!(critical_path <= schedule.lb && schedule.lb <= result.stats.total_cycles);
}

#[test]
fn generated_programs_are_nontrivial() {
    let mut total_sections = 0usize;
    let mut max_sections = 0usize;
    let mut total_insns = 0u64;
    for seed in 0..40u64 {
        let program = random_program(seed * 7919 + 13);
        let arena = arena_of(&program);
        let sim = ManyCoreSim::new(SimConfig::with_cores(8));
        let result = sim.simulate_arena(&arena).expect("simulates");
        total_sections += result.stats.sections;
        max_sections = max_sections.max(result.stats.sections);
        total_insns += result.stats.instructions;
    }
    // The generator must regularly emit forking, branching programs, not
    // degenerate straight lines.
    assert!(max_sections >= 4, "max sections only {max_sections}");
    assert!(total_sections >= 80, "total sections only {total_sections}");
    assert!(
        total_insns >= 1_000,
        "total instructions only {total_insns}"
    );
}

/// The paper's sum example over 40 elements on chips of 1 to 64 cores
/// under three placements, and over 24 elements under hostile NoC,
/// capacity, renaming-walk and DMH settings: the engine agrees with the
/// oracle on every stage row and statistic.
#[test]
fn sum_runs_match_the_oracle_on_every_chip() {
    let mut cells = Vec::new();
    for cores in [1, 2, 3, 8, 64] {
        for placement in [
            Placement::RoundRobin,
            Placement::LeastLoaded,
            Placement::LoadAware,
        ] {
            cells.push((40, SimConfig::with_cores(cores).with_placement(placement)));
        }
    }
    let mut bandwidth = SimConfig::with_cores(4);
    bandwidth.noc.link_bandwidth = Some(1);
    let mut slow_noc = SimConfig::with_cores(6);
    slow_noc.noc.base_latency = 3;
    slow_noc.noc.per_hop_latency = 7;
    slow_noc.topology = Some(Topology::mesh(2, 3));
    let mut tight = SimConfig::with_cores(3);
    tight.max_sections_per_core = 1;
    tight.per_section_hop = 4;
    let mut no_stall = SimConfig::with_cores(8);
    no_stall.fetch_stalls_on_unresolved_control = false;
    no_stall.dmh_latency = 9;
    cells.extend([bandwidth, slow_noc, tight, no_stall].map(|config| (24, config)));
    for (elements, config) in cells {
        let data: Vec<u64> = (1..=elements).collect();
        let arena = TraceArena::from_program(&sum::fork_program(&data), 100_000).expect("halts");
        let sim = ManyCoreSim::new(config);
        let result = sim.simulate_arena(&arena).expect("simulates");
        assert_eq!(result.outputs, sum::expected(&data));
        oracle::agree(
            &arena,
            sim.config(),
            &result,
            &format!("sum of {elements} under {:?}", sim.config()),
        );
    }
}

/// The scenario that used to drive the retired force-release
/// heuristic: forked leaves bump shared counters through a
/// load–conditional–store whose conditional depends on the *loaded*
/// value, so a leaf's fetch stage waits on the previous writer of the
/// same word — wherever on the chip (or how deep in a core's queue)
/// that writer is. Under the handoff model the stalled section parks,
/// the core keeps fetching the producers, and an explicit requeue
/// event resumes it: the detector stays silent on every chip shape.
#[test]
fn contended_writer_chains_park_and_resume_without_forced_releases() {
    let program = parsecs::asm::assemble(
        "w:     .quad 0, 0
main:   fork t0
        fork t1
        fork t2
        fork t3
        movq $w, %rcx
        movq 0(%rcx), %rax
        addq 8(%rcx), %rax
        out  %rax
        halt
t0:     movq $w, %rcx
        movq 0(%rcx), %rax
        cmpq $0, %rax
        je .a0
.a0:    addq $1, %rax
        movq %rax, 0(%rcx)
        movq 8(%rcx), %rbx
        cmpq $0, %rbx
        je .b0
.b0:    addq $3, %rbx
        movq %rbx, 8(%rcx)
        endfork
t1:     movq $w, %rcx
        movq 8(%rcx), %rax
        cmpq $0, %rax
        je .a1
.a1:    addq $1, %rax
        movq %rax, 8(%rcx)
        endfork
t2:     movq $w, %rcx
        movq 0(%rcx), %rax
        cmpq $0, %rax
        je .a2
.a2:    addq $5, %rax
        movq %rax, 0(%rcx)
        endfork
t3:     movq $w, %rcx
        movq 8(%rcx), %rax
        cmpq $0, %rax
        je .a3
.a3:    addq $7, %rax
        movq %rax, 8(%rcx)
        endfork",
    )
    .expect("assembles");
    let arena = arena_of(&program);
    let mut configs = vec![
        SimConfig::with_cores(1),
        SimConfig::with_cores(2),
        SimConfig::with_cores(5),
    ];
    let mut tight = SimConfig::with_cores(2);
    tight.max_sections_per_core = 1;
    tight.noc.link_bandwidth = Some(1);
    configs.push(tight);
    let mut slow = SimConfig::with_cores(4);
    slow.topology = Some(Topology::mesh(2, 2));
    slow.noc.base_latency = 9;
    slow.noc.per_hop_latency = 5;
    configs.push(slow);
    for config in configs {
        let sim = ManyCoreSim::new(config);
        let event = sim.simulate_arena(&arena).expect("simulates");
        oracle::agree(&arena, sim.config(), &event, &format!("{:?}", sim.config()));
        // 0+1+5 = 6 and 0+3+1+7 = 11.
        assert_eq!(event.outputs, vec![17], "{:?}", sim.config());
        assert_eq!(
            event.stats.forced_stall_releases,
            0,
            "the detector fired under {:?}",
            sim.config()
        );
    }
}
