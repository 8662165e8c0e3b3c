//! The config-aware schedule analyzer: NoC/placement-weighted lower
//! bounds.
//!
//! [`StaticBounds`](crate::StaticBounds) is configuration-independent:
//! its critical path charges every NoC latency at its universal minimum,
//! so it cannot discriminate between chip configurations. This pass
//! takes the missing inputs — a concrete placement (`core_of`) and a
//! [`ChipModel`] (topology, NoC timing, DMH latency, per-section hop
//! charge) — and computes a **certified lower bound**
//! ([`ScheduleBounds::lb`]) per (arena × placement × chip) cell: the
//! maximum of three independently sound terms.
//!
//! * *Weighted critical path*: the same forward recurrences as the
//!   config-independent analyzer, but with every cross-core edge
//!   re-weighted by the concrete chip's costs. A forked section's
//!   first fetch is charged the creation message's transit latency
//!   plus the dequeue cycle; a `Remote` register or memory source is
//!   charged the renaming round trip (`hop` out, `hop` back, with
//!   the per-intermediate-section walk charge), exactly as the
//!   resolver prices it; memory instructions reaching the DMH are
//!   charged [`ChipModel::dmh_latency`]. Every term underestimates
//!   the engine's actual charge, so the recurrence is a pointwise
//!   lower bound on real completion cycles.
//! * *Per-core work* (Graham bound): a core fetches at most one
//!   instruction per cycle starting no earlier than cycle 1, and the
//!   last fetch on a core still needs a retirement cycle, so a core
//!   hosting `w ≥ 1` instructions forces `w + 1` cycles.
//! * *Ejection-port contention*: with a finite per-receiving-core
//!   ejection budget `b`, the `m` section-creation messages
//!   terminating at one core occupy at least `⌈m/b⌉` distinct
//!   arrival cycles, the first no earlier than `1 + min transit
//!   latency from the actual creator cores`; the last-delivered
//!   section still needs a dequeue cycle, its fetches and a
//!   retirement — `max(⌈m/b⌉ + min_lat, 2) + min_len + 1` cycles.
//!
//! Every weighted term dominates its config-independent counterpart
//! (latencies are ≥ 0 and the fork edge weight is ≥ 2), so `lb ≥
//! StaticBounds::critical_path` holds structurally, and the engine
//! checks the full sandwich `critical_path ≤ lb ≤ total_cycles` on every
//! validated run.
//!
//! ## Vacuous cells
//!
//! On a single-section program the placement and the NoC are irrelevant
//! — no creation message is ever sent and no source is `Remote` — so
//! the weighted path degenerates to the local chain and `lb` collapses
//! onto `StaticBounds::critical_path` (the work bound of the one
//! hosting core may still add a cycle). The bound is *correct* but
//! cannot discriminate configurations there; the same holds for any
//! cell whose sections all land on one core. This is inherent, not a
//! bug: a config-aware bound is only as sharp as the configuration
//! surface the program actually touches.

use parsecs_noc::{CoreId, NocModel};
use parsecs_trace::{SourceKind, TraceArena};

use std::fmt;

/// The static description of a chip configuration the schedule analyzer
/// prices against: the subset of the simulator's configuration that
/// affects timing bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipModel {
    /// Number of cores on the chip (placement targets `0..cores`).
    pub cores: usize,
    /// The NoC cost view: per-message transit latency and ejection
    /// budget.
    pub noc: NocModel,
    /// Cycles to reach the data memory hierarchy when a memory renaming
    /// request finds no producer.
    pub dmh_latency: u64,
    /// Extra cycles charged per intermediate section visited by a
    /// renaming request.
    pub per_section_hop: u64,
}

impl ChipModel {
    /// Latency of one leg of a renaming exchange between a consumer on
    /// `consumer_core` (section `consumer_section`) and a producer on
    /// `producer_core` (section `producer_section`) — the static twin
    /// of the resolver's request pricing.
    fn request_latency(
        &self,
        consumer_core: usize,
        producer_core: usize,
        consumer_section: usize,
        producer_section: usize,
    ) -> u64 {
        let gap = consumer_section
            .saturating_sub(producer_section)
            .saturating_sub(1) as u64;
        self.noc
            .hop_latency(CoreId(consumer_core), CoreId(producer_core))
            + self.per_section_hop * gap
    }
}

/// Which of the three lower-bound terms is the largest (ties resolve in
/// the order listed: a path-bound tie reports `Path`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BindingTerm {
    /// The NoC-weighted dependence-DAG critical path binds.
    Path,
    /// A single core's fetch work binds.
    Work,
    /// A single core's ejection-port budget binds.
    Ejection,
}

impl fmt::Display for BindingTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingTerm::Path => write!(f, "path"),
            BindingTerm::Work => write!(f, "work"),
            BindingTerm::Ejection => write!(f, "ejection"),
        }
    }
}

/// The schedule analyzer's verdict for one (arena × placement × chip)
/// cell (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ScheduleBounds {
    /// The certified lower bound on `SimStats::total_cycles`: the
    /// maximum of the three terms below. Satisfies `lb ≥
    /// StaticBounds::critical_path` structurally.
    pub lb: u64,
    /// The NoC/placement-weighted critical-path term.
    pub path_bound: u64,
    /// The largest per-core Graham work term (`0` for an empty arena).
    pub work_bound: u64,
    /// The largest per-core ejection-contention term (`0` when the
    /// ejection budget is unlimited or no core receives a creation
    /// message).
    pub ejection_bound: u64,
    /// Which term is the maximum.
    pub binding: BindingTerm,
}

impl ScheduleBounds {
    /// How tight the certified bound is against a measured cycle count:
    /// `cycles / lb` (≥ 1.0 on any sound run; 1.0 means the bound is
    /// exact). Returns `f64::NAN` when `lb` is zero (empty arena).
    pub fn tightness(&self, cycles: u64) -> f64 {
        if self.lb == 0 {
            f64::NAN
        } else {
            cycles as f64 / self.lb as f64
        }
    }
}

/// Computes the config-aware schedule bounds of a structurally valid
/// arena under a concrete placement (`core_of[section] = host core`)
/// and chip model.
///
/// # Panics
///
/// Panics when `core_of` does not map every section, targets a core
/// outside `0..model.cores`, or `model.cores` exceeds the topology.
pub fn bound_schedule(arena: &TraceArena, core_of: &[usize], model: &ChipModel) -> ScheduleBounds {
    let spans = arena.sections();
    assert_eq!(
        core_of.len(),
        spans.len(),
        "placement must map every section to a core"
    );
    assert!(
        model.cores <= model.noc.topology().num_cores(),
        "chip model claims more cores than its topology has"
    );
    for &core in core_of {
        assert!(
            core < model.cores,
            "placement targets core {core} on a {}-core chip",
            model.cores
        );
    }

    let n = arena.len();
    let mut fetch_lb = vec![0u64; n];
    let mut completion_lb = vec![0u64; n];
    let mut work = vec![0u64; model.cores];
    let mut path_bound = 0u64;
    for (sid, span) in spans.iter().enumerate() {
        let my_core = core_of[sid];
        work[my_core] += span.len() as u64;
        let mut retire_last = 0u64;
        for seq in span.start..span.end {
            fetch_lb[seq] = if seq == span.start {
                match span.creator {
                    Some((creator, fork_seq)) => {
                        // Creation message transit (at least the cycle
                        // boundary between send and delivery), plus the
                        // dequeue cycle.
                        let lat = model
                            .noc
                            .hop_latency(CoreId(core_of[creator.0]), CoreId(my_core));
                        fetch_lb[fork_seq] + lat.max(1) + 1
                    }
                    None => 1,
                }
            } else {
                fetch_lb[seq - 1] + 1
            };
            completion_lb[seq] = weighted_completion(
                arena,
                seq,
                sid,
                my_core,
                core_of,
                model,
                fetch_lb[seq],
                &completion_lb,
            );
            retire_last = completion_lb[seq].max(retire_last) + 1;
        }
        path_bound = path_bound.max(retire_last);
    }

    let work_bound = work
        .iter()
        .map(|&w| if w == 0 { 0 } else { w + 1 })
        .max()
        .unwrap_or(0);
    let ejection_bound = ejection_bound(spans, core_of, model);

    let lb = path_bound.max(work_bound).max(ejection_bound);
    let binding = if lb == path_bound {
        BindingTerm::Path
    } else if lb == work_bound {
        BindingTerm::Work
    } else {
        BindingTerm::Ejection
    };

    ScheduleBounds {
        lb,
        path_bound,
        work_bound,
        ejection_bound,
        binding,
    }
}

/// The weighted completion recurrence of the lower-bound pass: a lower
/// bound on `seq`'s completion cycle given a lower bound `fetch` on its
/// fetch cycle and pointwise lower bounds `completion` on every earlier
/// record's completion cycle.
///
/// Each term under-approximates the resolver's actual charge
/// (`Resolver::resolve` in the engine): a remote register source forces
/// the execute stage to wait out the round trip (`fetch + 2 + 2·hop`, and
/// the producer's value cannot return before `c_p + hop`, plus the
/// execute cycle); a memory instruction adds the execute → address →
/// memory pipeline (`+4` minimum, `+3 + dmh` via the DMH, `+3 + 2·hop`
/// for a remote memory producer).
#[allow(clippy::too_many_arguments)]
fn weighted_completion(
    arena: &TraceArena,
    seq: usize,
    my_section: usize,
    my_core: usize,
    core_of: &[usize],
    model: &ChipModel,
    fetch: u64,
    completion: &[u64],
) -> u64 {
    let is_mem = arena.is_load(seq) || arena.is_store(seq);
    let mut c = fetch + if is_mem { 4 } else { 0 };
    for dep in arena.reg_sources(seq) {
        match dep.kind() {
            SourceKind::Local { producer } => c = c.max(completion[producer]),
            SourceKind::Remote { producer } => {
                let producer_section = arena.section(producer).0;
                let hop = model.request_latency(
                    my_core,
                    core_of[producer_section],
                    my_section,
                    producer_section,
                );
                let term = if is_mem {
                    (completion[producer] + hop + 3).max(fetch + 4 + 2 * hop)
                } else {
                    (completion[producer] + hop + 1).max(fetch + 2 + 2 * hop)
                };
                c = c.max(term);
            }
            SourceKind::ForkCopy | SourceKind::InitialRegister | SourceKind::InitialMemory => {}
        }
    }
    if is_mem {
        for dep in arena.mem_sources(seq) {
            match dep.kind() {
                SourceKind::InitialMemory => c = c.max(fetch + 3 + model.dmh_latency),
                SourceKind::Local { producer } => c = c.max(completion[producer]),
                SourceKind::Remote { producer } => {
                    let producer_section = arena.section(producer).0;
                    let hop = model.request_latency(
                        my_core,
                        core_of[producer_section],
                        my_section,
                        producer_section,
                    );
                    c = c.max((completion[producer] + hop).max(fetch + 3 + 2 * hop));
                }
                SourceKind::ForkCopy | SourceKind::InitialRegister => {}
            }
        }
    }
    c
}

/// The per-core ejection-contention term (see the module docs). Only
/// cores that receive at least one section-creation message under a
/// finite ejection budget contribute; a core hosting an empty forked
/// section is skipped (nothing retires after its delivery, so the term
/// would not be grounded in a retirement).
fn ejection_bound(
    spans: &[parsecs_trace::SectionSpan],
    core_of: &[usize],
    model: &ChipModel,
) -> u64 {
    let Some(budget) = model.noc.ejection_budget() else {
        return 0;
    };
    let mut messages = vec![0u64; model.cores];
    let mut min_lat = vec![u64::MAX; model.cores];
    let mut min_len = vec![u64::MAX; model.cores];
    for (sid, span) in spans.iter().enumerate() {
        if let Some((creator, _)) = span.creator {
            let dst = core_of[sid];
            let lat = model
                .noc
                .hop_latency(CoreId(core_of[creator.0]), CoreId(dst));
            messages[dst] += 1;
            min_lat[dst] = min_lat[dst].min(lat);
            min_len[dst] = min_len[dst].min(span.len() as u64);
        }
    }
    let mut bound = 0u64;
    for core in 0..model.cores {
        if messages[core] == 0 || min_len[core] == 0 {
            continue;
        }
        // The last of ⌈m/b⌉ distinct arrival cycles, the first of which
        // is no earlier than send (≥ 1) + the cheapest incoming transit;
        // delivery always happens strictly after the sending fetch.
        let last_delivery = (messages[core].div_ceil(budget as u64) + min_lat[core]).max(2);
        bound = bound.max(last_delivery + min_len[core] + 1);
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_noc::{NocConfig, Topology};

    fn fork_arena() -> TraceArena {
        let program = parsecs_asm::assemble(
            "t:   .quad 4, 2, 6
             main: movq $t, %rdi
                   fork leaf
                   out  %rax
                   halt
             leaf: movq (%rdi), %rax
                   addq 8(%rdi), %rax
                   addq 16(%rdi), %rax
                   endfork",
        )
        .expect("assembles");
        TraceArena::from_program(&program, 10_000).expect("runs")
    }

    fn model(cores: usize, noc: NocConfig) -> ChipModel {
        ChipModel {
            cores,
            noc: NocModel::new(Topology::crossbar(cores), noc),
            dmh_latency: 3,
            per_section_hop: 0,
        }
    }

    fn round_robin(sections: usize, cores: usize) -> Vec<usize> {
        (0..sections).map(|s| s % cores).collect()
    }

    #[test]
    fn weighted_lb_dominates_the_config_independent_critical_path() {
        let arena = fork_arena();
        let critical_path = crate::check_arena(&arena)
            .bounds
            .expect("clean")
            .critical_path;
        for cores in [1, 2, 4] {
            for base in [0, 1, 5] {
                let m = model(
                    cores,
                    NocConfig {
                        base_latency: base,
                        per_hop_latency: 1,
                        link_bandwidth: None,
                    },
                );
                let core_of = round_robin(arena.sections().len(), cores);
                let bounds = bound_schedule(&arena, &core_of, &m);
                assert!(
                    bounds.lb >= critical_path,
                    "lb {} < critical path {critical_path} at {cores} cores base {base}",
                    bounds.lb
                );
                assert_eq!(
                    bounds.lb,
                    bounds
                        .path_bound
                        .max(bounds.work_bound)
                        .max(bounds.ejection_bound)
                );
            }
        }
    }

    #[test]
    fn higher_latencies_never_lower_the_bound() {
        let arena = fork_arena();
        let core_of = round_robin(arena.sections().len(), 2);
        let mut prev = 0;
        for base in [1, 2, 4, 8] {
            let m = model(
                2,
                NocConfig {
                    base_latency: base,
                    per_hop_latency: 1,
                    link_bandwidth: None,
                },
            );
            let bounds = bound_schedule(&arena, &core_of, &m);
            assert!(
                bounds.lb >= prev,
                "raising base latency to {base} lowered the bound"
            );
            prev = bounds.lb;
        }
        let cheap = bound_schedule(&arena, &core_of, &model(2, NocConfig::default()));
        assert_eq!(
            cheap,
            bound_schedule(&arena, &core_of, &model(2, NocConfig::default()))
        );
        assert!(
            prev > cheap.lb,
            "an 8-cycle base latency must raise the bound"
        );
    }

    #[test]
    fn one_core_placements_are_work_bound() {
        // Two wide, dependence-free children squeezed onto one core: the
        // weighted path is short (each chain is independent) but the
        // core must still fetch every instruction one per cycle.
        let program = parsecs_asm::assemble(
            "main: fork a
                   fork b
                   halt
             a:    movq $1, %rax
                   movq $2, %rax
                   movq $3, %rax
                   movq $4, %rax
                   movq $5, %rax
                   movq $6, %rax
                   movq $7, %rax
                   movq $8, %rax
                   endfork
             b:    movq $1, %rbx
                   movq $2, %rbx
                   movq $3, %rbx
                   movq $4, %rbx
                   movq $5, %rbx
                   movq $6, %rbx
                   movq $7, %rbx
                   movq $8, %rbx
                   endfork",
        )
        .expect("assembles");
        let arena = TraceArena::from_program(&program, 10_000).expect("runs");
        let core_of = vec![0; arena.sections().len()];
        let m = model(1, NocConfig::default());
        let bounds = bound_schedule(&arena, &core_of, &m);
        assert_eq!(bounds.work_bound, arena.len() as u64 + 1);
        assert!(
            bounds.work_bound > bounds.path_bound,
            "work {} vs path {}",
            bounds.work_bound,
            bounds.path_bound
        );
        assert_eq!(bounds.binding, BindingTerm::Work);
        assert_eq!(bounds.lb, bounds.work_bound);
    }

    #[test]
    fn ejection_budget_contributes_only_when_finite() {
        let arena = fork_arena();
        let core_of = round_robin(arena.sections().len(), 2);
        let unlimited = bound_schedule(&arena, &core_of, &model(2, NocConfig::default()));
        assert_eq!(unlimited.ejection_bound, 0);
        let limited = bound_schedule(
            &arena,
            &core_of,
            &model(
                2,
                NocConfig {
                    link_bandwidth: Some(1),
                    ..NocConfig::default()
                },
            ),
        );
        // One creation message to core 1 for the forked continuation
        // (`out`, `halt`): ⌈1/1⌉ + lat 2 arrival, + 2 instructions, +
        // the retirement cycle.
        assert_eq!(limited.ejection_bound, 3 + 2 + 1);
        assert!(limited.lb >= unlimited.lb);
    }

    #[test]
    fn empty_arenas_bound_to_zero() {
        let arena = TraceArena::new();
        let bounds = bound_schedule(&arena, &[], &model(2, NocConfig::default()));
        assert_eq!(bounds.lb, 0);
        assert_eq!(bounds.binding, BindingTerm::Path);
        assert!(bounds.tightness(10).is_nan());
    }

    #[test]
    #[should_panic(expected = "placement must map every section")]
    fn short_placements_panic() {
        let arena = fork_arena();
        bound_schedule(&arena, &[0], &model(2, NocConfig::default()));
    }

    #[test]
    #[should_panic(expected = "targets core")]
    fn out_of_chip_placements_panic() {
        let arena = fork_arena();
        let core_of = vec![5; arena.sections().len()];
        bound_schedule(&arena, &core_of, &model(2, NocConfig::default()));
    }
}
