//! Section-to-core placement.
//!
//! The paper leaves the hosting-core choice out of scope ("we assume the 5
//! sections can be hosted in 5 different cores"), so the simulator offers
//! a closed set of policies, [`Placement`]: the round-robin placement the
//! paper's example implies, a least-loaded heuristic, and two policies in
//! the spirit of the AMTHA task-to-processor assignment algorithm (De
//! Giusti et al.). Those two share one estimator: each section goes to the
//! core where it is estimated to *finish* earliest, accounting for the NoC
//! latency between the creator's core and the candidate core and, for
//! [`Placement::ChainAffine`], for the renaming round trips to its
//! producers' cores.

use std::collections::HashMap;

use parsecs_noc::{CoreId, NocModel};
use parsecs_trace::{SectionId, SectionSpan, SourceKind};

/// A static description of the chip a placement decides over.
#[derive(Debug, Clone)]
pub struct ChipView {
    /// Number of cores available for hosting.
    pub cores: usize,
    /// Soft per-core section capacity (`max_section` in the paper).
    /// Policies prefer cores below this limit but exceed it when every
    /// core is full, so that runs always complete.
    pub max_sections_per_core: usize,
    /// The interconnect's cost model: topology and timing.
    pub noc: NocModel,
}

/// The cross-section dependence summary of a run, as a placement sees
/// it: for every consumer section, which earlier sections produce its
/// remote operands and with what weight (number of renaming requests the
/// timing model will charge between the pair).
///
/// Renaming always matches a consumer with the closest *preceding*
/// producer, so every edge points backward in the section total order —
/// when a policy walks sections in order, each edge's producer is already
/// placed.
#[derive(Debug, Clone, Default)]
pub(crate) struct SectionDeps {
    /// Per consumer section: `(producer section, request count)`, sorted
    /// by producer id.
    producers: Vec<Vec<(SectionId, u32)>>,
}

impl SectionDeps {
    /// Builds the summary from an arena-backed trace, counting one edge
    /// weight per remote register or memory source.
    pub(crate) fn from_arena(sections: usize, arena: &parsecs_trace::TraceArena) -> SectionDeps {
        let mut weights: Vec<HashMap<usize, u32>> = vec![HashMap::new(); sections];
        for seq in 0..arena.len() {
            for dep in arena.sources(seq) {
                if let SourceKind::Remote { producer } = dep.kind() {
                    *weights[arena.section(seq).0]
                        .entry(arena.section(producer).0)
                        .or_insert(0) += 1;
                }
            }
        }
        SectionDeps::from_weights(weights)
    }

    fn from_weights(weights: Vec<HashMap<usize, u32>>) -> SectionDeps {
        let producers = weights
            .into_iter()
            .map(|map| {
                let mut edges: Vec<(SectionId, u32)> = map
                    .into_iter()
                    .map(|(section, weight)| (SectionId(section), weight))
                    .collect();
                edges.sort_unstable();
                edges
            })
            .collect();
        SectionDeps { producers }
    }

    /// The remote-operand producers of `section`, with request counts
    /// (none for a section the summary does not cover).
    pub(crate) fn producers(&self, section: SectionId) -> &[(SectionId, u32)] {
        self.producers.get(section.0).map_or(&[], Vec::as_slice)
    }
}

/// The placement policies: which core hosts each section of a run.
///
/// A policy sees the full totally-ordered section list up front (the
/// simulator replays a functional pre-execution, so the section structure
/// is known before timing starts) and returns one [`CoreId`] below
/// `chip.cores` per section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Sections are assigned to cores in creation order, round robin:
    /// the `k`-th section goes to core `k % cores`. Every core reaches
    /// `max_sections_per_core` in the same round, so no core with room
    /// is ever passed over, and past that round the limit is relaxed on
    /// every core alike. This is the policy implied by the paper's
    /// example ("we assume the 5 sections can be hosted in 5 different
    /// cores").
    #[default]
    RoundRobin,
    /// Each new section goes to the core with the fewest instructions
    /// currently assigned (a simple load-balancing heuristic).
    LeastLoaded,
    /// An AMTHA-inspired, load- and communication-aware policy: each
    /// section is placed on the core where its estimated *finish time* is
    /// earliest.
    ///
    /// The estimate models what the timing simulator charges: a section
    /// cannot start before its creator's fork has run and the
    /// section-creation message has crossed the NoC from the creator's
    /// core, and a core runs the sections queued on it one after another
    /// (one instruction per cycle). Ties go to the lowest core id, which
    /// keeps small runs compact and deterministic.
    LoadAware,
    /// A chained-writer co-location policy: each section is placed to
    /// minimise its [`Placement::LoadAware`] finish estimate *plus* the
    /// renaming round trips it will pay to the cores hosting its
    /// remote-operand producers.
    ///
    /// This targets the workload class where writers of the same datum
    /// are chained across sections (the histogram's bucket counters, the
    /// chain sum's accumulator): the consumer of a chained value stalls
    /// its fetch stage until the producer's value crosses the NoC, so
    /// shortening the consumer→producer path shortens the handoff
    /// critical path directly. The load term keeps chains from collapsing
    /// onto a single overloaded core. Without dependences
    /// ([`Placement::assign`]) it places exactly as `LoadAware` does.
    ChainAffine,
}

impl Placement {
    /// A short, stable, human-readable policy name (used in reports and
    /// backend labels).
    pub fn name(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
            Placement::LoadAware => "load-aware",
            Placement::ChainAffine => "chain-affine",
        }
    }

    /// Assigns a hosting core to every section, without the run's
    /// cross-section dependences.
    pub fn assign(&self, sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        self.assign_with_deps(sections, chip, &SectionDeps::default())
    }

    /// Assigns a hosting core to every section, with the run's
    /// cross-section dependences available; only
    /// [`Placement::ChainAffine`] reads them.
    pub(crate) fn assign_with_deps(
        &self,
        sections: &[SectionSpan],
        chip: &ChipView,
        deps: &SectionDeps,
    ) -> Vec<CoreId> {
        match self {
            Placement::RoundRobin => round_robin(sections, chip),
            Placement::LeastLoaded => least_loaded(sections, chip),
            Placement::LoadAware => earliest_finish(sections, chip, &SectionDeps::default()),
            Placement::ChainAffine => earliest_finish(sections, chip, deps),
        }
    }
}

fn round_robin(sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
    (0..sections.len())
        .map(|k| CoreId(k % chip.cores))
        .collect()
}

fn least_loaded(sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
    let capacity = chip.max_sections_per_core;
    let mut load = vec![0usize; chip.cores];
    let mut hosted = vec![0usize; chip.cores];
    sections
        .iter()
        .map(|s| {
            let core = lowest_with_room(&hosted, capacity, |c| load[c]);
            load[core] += s.len();
            hosted[core] += 1;
            CoreId(core)
        })
        .collect()
}

/// The core with the lowest `key` (ties to the lowest id) among those
/// hosting fewer than `capacity` sections; once every core is full, the
/// limit is relaxed to all cores, so runs always complete (round robin
/// reaches the same relaxation, on every core at once).
fn lowest_with_room<K: Ord>(hosted: &[usize], capacity: usize, key: impl Fn(usize) -> K) -> usize {
    (0..hosted.len())
        .filter(|c| hosted[*c] < capacity)
        .min_by_key(|c| (key(*c), *c))
        .or_else(|| (0..hosted.len()).min_by_key(|c| (key(*c), *c)))
        .expect("at least one core")
}

/// The finish-time estimator of [`Placement::LoadAware`] (empty `deps`)
/// and [`Placement::ChainAffine`]: each section goes to the core, below
/// capacity while any is, minimising its estimated fetch start, plus
/// the renaming round trips to its producers' cores, plus its length.
fn earliest_finish(sections: &[SectionSpan], chip: &ChipView, deps: &SectionDeps) -> Vec<CoreId> {
    let capacity = chip.max_sections_per_core;
    // Per-core time at which the core becomes free, per-core hosted
    // count, and per-section estimated fetch-start time.
    let mut free_at = vec![0u64; chip.cores];
    let mut hosted = vec![0usize; chip.cores];
    let mut start_at: Vec<u64> = Vec::with_capacity(sections.len());
    let mut core_of: Vec<CoreId> = Vec::with_capacity(sections.len());

    for span in sections {
        let producers = deps.producers(span.id);
        // A section becomes available once its creator has fetched the
        // fork (sections run concurrently with their creator from that
        // point on) and the section-creation message has crossed the NoC
        // to the candidate core; it starts once the core's queue drains.
        let start_on = |c: usize| -> u64 {
            let ready = match span.creator {
                Some((SectionId(creator), fork_seq)) => {
                    let fork_offset = fork_seq.saturating_sub(sections[creator].start) as u64 + 1;
                    start_at[creator]
                        + fork_offset
                        + chip.noc.hop_latency(core_of[creator], CoreId(c))
                }
                None => 0,
            };
            ready.max(free_at[c])
        };
        let finish = |c: usize| -> u64 {
            let comm: u64 = producers
                .iter()
                .map(|&(p, w)| 2 * w as u64 * chip.noc.hop_latency(core_of[p.0], CoreId(c)))
                .sum();
            start_on(c) + comm + span.len() as u64
        };
        let chosen = lowest_with_room(&hosted, capacity, finish);
        // The queueing estimate excludes the communication charge: the
        // core is busy for the section's fetch span only.
        let begun = start_on(chosen);
        free_at[chosen] = begun + span.len() as u64;
        hosted[chosen] += 1;
        start_at.push(begun);
        core_of.push(CoreId(chosen));
    }
    core_of
}

#[cfg(test)]
mod tests {
    use parsecs_noc::{NocConfig, Topology};
    use proptest::prelude::*;

    use super::*;

    fn chip(cores: usize) -> ChipView {
        chip_with(cores, Topology::Crossbar { size: cores }, 1)
    }

    /// A chip of `cores` cores over `topology`, whose links cost `latency`
    /// base cycles plus `latency` per hop.
    fn chip_with(cores: usize, topology: Topology, latency: u64) -> ChipView {
        ChipView {
            cores,
            max_sections_per_core: 8,
            noc: NocModel::new(
                topology,
                NocConfig {
                    base_latency: latency,
                    per_hop_latency: latency,
                    link_bandwidth: None,
                },
            ),
        }
    }

    fn spans(sizes: &[usize]) -> Vec<SectionSpan> {
        let mut start = 0;
        sizes
            .iter()
            .enumerate()
            .map(|(i, len)| {
                let span = SectionSpan {
                    id: SectionId(i),
                    start,
                    end: start + len,
                    creator: if i == 0 {
                        None
                    } else {
                        Some((SectionId(0), 0))
                    },
                    start_ip: 0,
                };
                start += len;
                span
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_over_cores() {
        let assigned = Placement::RoundRobin.assign(&spans(&[4, 4, 4, 4]), &chip(2));
        assert_eq!(assigned, vec![CoreId(0), CoreId(1), CoreId(0), CoreId(1)]);
    }

    #[test]
    fn round_robin_respects_capacity_until_full() {
        let mut c = chip(2);
        c.max_sections_per_core = 1;
        let assigned = Placement::RoundRobin.assign(&spans(&[1, 1, 1]), &c);
        // Two sections fit; the third relaxes the limit at its turn's
        // core rather than failing.
        assert_eq!(assigned, vec![CoreId(0), CoreId(1), CoreId(0)]);
    }

    #[test]
    fn least_loaded_balances_instruction_counts() {
        let assigned = Placement::LeastLoaded.assign(&spans(&[10, 1, 1, 1]), &chip(2));
        // The big first section claims core 0, the small rest pile on 1.
        assert_eq!(assigned[0], CoreId(0));
        assert!(assigned[1..].iter().all(|c| *c == CoreId(1)));
    }

    #[test]
    fn least_loaded_prefers_under_capacity_cores() {
        // Core 0 carries one huge section; with a capacity of 2 the small
        // sections must move to core 0 once core 1 is full, even though
        // core 1 has much less instruction load.
        let mut c = chip(2);
        c.max_sections_per_core = 2;
        let assigned = Placement::LeastLoaded.assign(&spans(&[10, 1, 1, 1]), &c);
        assert_eq!(
            assigned,
            vec![CoreId(0), CoreId(1), CoreId(1), CoreId(0)],
            "the fourth section must respect core 1's capacity"
        );
    }

    #[test]
    fn least_loaded_relaxes_capacity_only_when_the_chip_is_full() {
        let mut c = chip(2);
        c.max_sections_per_core = 1;
        let assigned = Placement::LeastLoaded.assign(&spans(&[4, 2, 2]), &c);
        // Two sections fit under the limit; the third relaxes it and goes
        // back to the least-loaded core.
        assert_eq!(assigned, vec![CoreId(0), CoreId(1), CoreId(1)]);
        let mut per_core = [0usize; 2];
        for core in &assigned {
            per_core[core.0] += 1;
        }
        assert_eq!(per_core.iter().sum::<usize>(), 3, "every section is placed");
    }

    #[test]
    fn load_aware_spreads_across_idle_cores() {
        let assigned = Placement::LoadAware.assign(&spans(&[8, 8, 8, 8]), &chip(4));
        let mut distinct: Vec<CoreId> = assigned.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            4,
            "equal sections on an idle chip spread out: {assigned:?}"
        );
    }

    #[test]
    fn load_aware_avoids_the_busy_creator_core() {
        // One very long section forks short ones early: the short ones
        // should pay the NoC hop to the idle core rather than queue for
        // ~100 cycles behind their creator.
        let assigned = Placement::LoadAware.assign(&spans(&[100, 2, 2, 2]), &chip(2));
        assert_eq!(assigned[0], CoreId(0));
        assert!(
            assigned[1..].iter().all(|c| *c == CoreId(1)),
            "{assigned:?}"
        );
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(Placement::RoundRobin.name(), "round-robin");
        assert_eq!(Placement::LeastLoaded.name(), "least-loaded");
        assert_eq!(Placement::LoadAware.name(), "load-aware");
        assert_eq!(Placement::ChainAffine.name(), "chain-affine");
    }

    use parsecs_trace::SourceDep;

    /// An arena of one record per `(section, remote reg sources)` entry —
    /// all `from_arena` reads. A remote source's section is its
    /// producer record's.
    fn deps_arena(records: &[(usize, Vec<SourceDep>)]) -> parsecs_trace::TraceArena {
        let mut arena = parsecs_trace::TraceArena::new();
        for (seq, (section, reg_sources)) in records.iter().enumerate() {
            arena.push_record(
                seq,
                "movq",
                SectionId(*section),
                parsecs_machine::TraceKind::Other,
                false,
                reg_sources,
                &[],
                &[],
            );
        }
        arena
    }

    fn remote_dep(producer: usize) -> SourceDep {
        SourceDep {
            location: parsecs_machine::Location::Flags,
            kind: SourceKind::Remote { producer },
        }
    }

    #[test]
    fn section_deps_count_remote_edges_per_producer() {
        let arena = deps_arena(&[
            (0, vec![]),
            (1, vec![remote_dep(0), remote_dep(0)]),
            (2, vec![remote_dep(1), remote_dep(0)]),
        ]);
        let deps = SectionDeps::from_arena(3, &arena);
        assert!(deps.producers(SectionId(0)).is_empty());
        assert_eq!(deps.producers(SectionId(1)), &[(SectionId(0), 2)]);
        assert_eq!(
            deps.producers(SectionId(2)),
            &[(SectionId(0), 1), (SectionId(1), 1)]
        );
    }

    #[test]
    fn chain_affine_co_locates_a_chained_consumer_under_an_expensive_noc() {
        // Section 2 reads section 1's value heavily; with a costly link,
        // the round trips dominate the load estimate, so the consumer
        // must land on its producer's core.
        let c = chip_with(4, Topology::Crossbar { size: 4 }, 50);
        let sections = spans(&[4, 4, 4]);
        let arena = deps_arena(&[
            (0, vec![]),
            (1, vec![]),
            (2, (0..4).map(|_| remote_dep(1)).collect()),
        ]);
        let deps = SectionDeps::from_arena(3, &arena);
        let assigned = Placement::ChainAffine.assign_with_deps(&sections, &c, &deps);
        assert_eq!(
            assigned[2], assigned[1],
            "the chained consumer shares its producer's core: {assigned:?}"
        );
    }

    #[test]
    fn chain_affine_without_deps_degrades_to_load_aware() {
        let sections = spans(&[100, 2, 2, 2]);
        assert_eq!(
            Placement::ChainAffine.assign(&sections, &chip(2)),
            Placement::LoadAware.assign(&sections, &chip(2))
        );
    }

    #[test]
    fn section_deps_cover_no_producers_past_their_sections() {
        assert!(SectionDeps::default().producers(SectionId(3)).is_empty());
    }

    /// `count` sections of lengths 1–15; every section but the first is
    /// forked by a random earlier one at a random point of its span.
    /// Draws come from `seed` by splitmix64.
    fn random_spans(count: usize, seed: u64) -> Vec<SectionSpan> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let mut sections: Vec<SectionSpan> = Vec::with_capacity(count);
        let mut start = 0;
        for i in 0..count {
            let len = 1 + next() % 15;
            let creator = (i > 0).then(|| {
                let creator = &sections[next() % i];
                (creator.id, creator.start + next() % creator.len())
            });
            sections.push(SectionSpan {
                id: SectionId(i),
                start,
                end: start + len,
                creator,
                start_ip: 0,
            });
            start += len;
        }
        sections
    }

    /// Up to three weighted producers per section, each an earlier one.
    fn random_deps(sections: &[SectionSpan], seed: u64) -> SectionDeps {
        let weights = sections
            .iter()
            .map(|s| {
                (0..s.id.0.min(3))
                    .map(|k| {
                        let draw = seed.rotate_left((s.id.0 * 3 + k) as u32 % 64) as usize;
                        (draw % s.id.0, 1 + (draw >> 8) as u32 % 4)
                    })
                    .collect()
            })
            .collect();
        SectionDeps::from_weights(weights)
    }

    const ALL: [Placement; 4] = [
        Placement::RoundRobin,
        Placement::LeastLoaded,
        Placement::LoadAware,
        Placement::ChainAffine,
    ];

    proptest! {
        /// Every policy places each section exactly once, on a core of
        /// the chip, and over capacity only once every core is full; the
        /// two estimator policies agree without dependences.
        #[test]
        fn every_policy_places_each_section_on_the_chip(
            cores in 1usize..65,
            capacity in 1usize..9,
            count in 0usize..160,
            seed in any::<u64>(),
            mesh in any::<bool>(),
        ) {
            // The 8x8 mesh has more cores than most drawn chips use.
            let topology = if mesh {
                Topology::mesh(8, 8)
            } else {
                Topology::Crossbar { size: cores }
            };
            let mut chip = chip_with(cores, topology, 1 + seed % 3);
            chip.max_sections_per_core = capacity;
            let sections = random_spans(count, seed);
            let deps = random_deps(&sections, seed);
            for placement in ALL {
                let core_of = placement.assign_with_deps(&sections, &chip, &deps);
                prop_assert_eq!(core_of.len(), sections.len(), "{}", placement.name());
                let mut hosted = vec![0usize; cores];
                for core in &core_of {
                    prop_assert!(core.0 < cores, "{} chose {core}", placement.name());
                    prop_assert!(
                        hosted[core.0] < capacity || hosted.iter().all(|h| *h >= capacity),
                        "{} overfilled {core} on a chip with room",
                        placement.name()
                    );
                    hosted[core.0] += 1;
                }
            }
            prop_assert_eq!(
                Placement::LoadAware.assign_with_deps(&sections, &chip, &deps),
                Placement::ChainAffine.assign(&sections, &chip)
            );
        }
    }
}
