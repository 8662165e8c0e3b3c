//! The many-core timing simulator (orchestrator).
//!
//! The simulator models the paper's execution as two coupled layers:
//!
//! 1. a *functional* layer — [`TraceArena::from_program`] runs the
//!    program through the streaming sectioner, which splits it into
//!    sections and resolves every producer/consumer pair; and
//! 2. a *timing* layer — this crate places sections on cores and advances
//!    the chip: every core fetches one instruction per cycle along its
//!    current section (computing control in the fetch stage rather than
//!    predicting it), section-creation messages travel over the NoC,
//!    remote operands are obtained through renaming requests charged with
//!    the NoC latency, memory instructions go through the address-rename
//!    and memory-access stages, and each section retires in order.
//!
//! The engine's entry points take the arena: [`ManyCoreSim::simulate_arena`]
//! and [`ManyCoreSim::simulate_arena_probed`].
//!
//! The timing layer is split into focused modules:
//!
//! * [`crate::chip`] — chip-wide per-core state as struct-of-arrays
//!   columns, the intrusive ready queues and the stall-handoff table;
//! * [`crate::schedule`] — the acting-core bitset, the wake-up heap and
//!   the fetch-decode walk over the set bits, which applies its effects
//!   in place;
//! * [`crate::drain`] — the batched completion drain;
//! * this module — the orchestrator: the event loop that advances the
//!   clock, delivers NoC messages and stall requeues, runs the walk and
//!   the drain, and assembles the [`SimResult`].
//!
//! The engine is **event-driven** and sequential: instead of stepping the
//! chip one cycle at a time and rescanning every core, it keeps the
//! acting cores as one bit each and a heap of per-core wake-up events
//! (the root's first fetch, a section dequeue, a stall release) plus the
//! NoC's next message arrival ([`parsecs_noc::Network::next_arrival`])
//! and the pending stall-handoff requeue events. While any core acts the
//! clock steps one cycle; otherwise it jumps straight to the earliest
//! event.
//! Dependence resolution parks a consumer in its producer's wait cell,
//! so a queued instruction is touched only when one of its inputs
//! completes.
//!
//! Fetch stalls follow the **in-order handoff model**
//! ([`crate::chip::StallTable`]): a control
//! instruction whose sources are not full stalls the fetch stage. If the
//! stall's release cycle is already known, the section keeps the fetch
//! slot and resumes right after that cycle. If the release is *unknown*,
//! the section **parks** and hands the core back to its queued sections;
//! when the completion is discovered, an explicit requeue event puts the
//! parked section back on its core's ready queue at the modeled release
//! cycle. Every stall therefore has a modeled release event and
//! well-formed traces never deadlock; a run that does (nothing acts and
//! no event is pending) is refused as [`SimError::Diverged`].
//!
//! The workspace's tests hold the engine to a naive cycle-stepped oracle
//! (`tests/oracle`) that shares none of this crate's code: every stage
//! row and every statistic must match exactly.
//!
//! The output is a per-instruction, per-stage cycle table (Figure 10 of the
//! paper) plus aggregate fetch/retire IPC (§5).

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::BuildHasherDefault;

use parsecs_check::{bound_schedule, prove_progress, CheckReport};
use parsecs_noc::{CoreId, Network, NocStats};
use parsecs_obs::{CoreBreakdown, CycleAttribution, NoopProbe, SimProbe, StallCause, TickGauges};
use parsecs_trace::{AddrHasher, SectionId, SectionSpan, SourceKind, TraceArena};

use crate::chip::{ChipState, StallTable, NO_SECTION, NO_STALL};
use crate::drain::{in_domain, Resolver, CYCLE_LIMIT};
use crate::schedule::{walk, Schedule, Walk};
use crate::timing::StageColumns;
use crate::{InstTiming, Placement, SectionDeps, SimConfig, SimError, SimStats, StageTable};

/// The result of one many-core simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Values emitted by `out` instructions during the run.
    pub outputs: Vec<u64>,
    /// The stage table's columns, served as rows by
    /// [`SimResult::timings`]. Empty when the run was stats-only.
    stages: StageColumns,
    /// Whether the stage table ([`SimResult::timings`]) was recorded.
    /// `false` for stats-only runs — which an empty table alone cannot
    /// signal, because an empty *program* also has no rows.
    pub timings_recorded: bool,
    /// The sections of the run, in total order.
    pub sections: Vec<SectionSpan>,
    /// The core hosting each section (indexed by section id).
    pub core_of: Vec<CoreId>,
    /// Aggregate statistics.
    pub stats: SimStats,
    /// The pre-simulation static analysis report (invariants,
    /// critical-path bounds, the placement-aware progress proof and
    /// schedule bounds) when the run was validated
    /// ([`SimConfig::validate`]); `None` otherwise.
    pub check: Option<Box<CheckReport>>,
    /// Always `None`, as its type proves: no run falls back from
    /// anything, because the engine is sequential. Kept only because
    /// the benchmark (`crates/bench/src/bin/benchmark/`) still reads it;
    /// it goes together with [`SimConfig::threads`].
    pub fork_fallback: Option<Infallible>,
}

impl SimResult {
    /// Per-instruction stage timings, in sequential order: the paper's
    /// Figure 10 rows, built on demand from the stored columns. **Empty
    /// when the run was stats-only** ([`SimConfig::record_timings`] off):
    /// aggregate statistics are then accumulated streaming during the
    /// simulation and no stage column is kept.
    pub fn timings(&self) -> StageTable<'_> {
        StageTable {
            columns: &self.stages,
            sections: &self.sections,
            core_of: &self.core_of,
        }
    }

    /// The timings of one section, in fetch order: the rows of the
    /// section's span of the table (sections tile trace order, so this
    /// is a range, not a scan). Empty when the run was stats-only or the
    /// id names no section of this run.
    pub fn section_timings(&self, id: SectionId) -> impl Iterator<Item = InstTiming> + '_ {
        let table = self.timings();
        self.sections
            .get(id.0)
            .into_iter()
            .flat_map(move |span| table.section_rows(span))
    }

    /// Modeled resident bytes of the simulator's own per-run state — the
    /// resolver columns, the per-section cursors (retirement, stall
    /// resume, fork map, placement) and the result views (stage table,
    /// section spans, outputs). The number that, added to
    /// [`SimStats::trace_arena_bytes`] (21–28 bytes per instruction on
    /// the benchmark programs, validated or not: there is one arena
    /// kind), caps how many instructions a chip-scale run can hold
    /// resident; a stats-only run keeps no stage
    /// columns, cutting this from ~24 to ~5 bytes per instruction on
    /// `synth_histogram` (~31 to ~12 on `fan_chain`, whose many sections
    /// add per-section cursors). The stats-only resolver term is
    /// `n * 4`: the tagged `u32` completion column. Derived from logical
    /// sizes (transient
    /// scratch like the wake queue, the wait pool and per-core state is
    /// excluded), so it is deterministic.
    pub fn sim_state_bytes(&self) -> u64 {
        use std::mem::size_of;
        let n = self.stats.instructions;
        let sections = self.sections.len() as u64;
        // The tagged `u32` completion column, which a recording run moves
        // into the stage table (counted there with the fd/ew/ret columns).
        let resolver = if self.timings_recorded { 0 } else { n * 4 };
        // Retirement cursors (u32 + u64), stall resume point, one
        // fork→created-section map entry, placement.
        let per_section = sections * (12 + 8 + 24 + 8);
        let views = self.stages.memory_bytes()
            + sections * size_of::<SectionSpan>() as u64
            + self.core_of.len() as u64 * size_of::<CoreId>() as u64
            + self.outputs.len() as u64 * 8;
        resolver + per_section + views
    }

    /// Total resident footprint of the run — trace arena plus simulator
    /// state ([`SimResult::sim_state_bytes`]) — per simulated
    /// instruction.
    pub fn total_bytes_per_instruction(&self) -> f64 {
        if self.stats.instructions == 0 {
            0.0
        } else {
            (self.stats.trace_arena_bytes + self.sim_state_bytes()) as f64
                / self.stats.instructions as f64
        }
    }
}

/// The many-core simulator of the sectioned execution model.
#[derive(Debug, Clone)]
pub struct ManyCoreSim {
    config: SimConfig,
}

/// The section each dynamic fork creates, keyed by the fork's trace
/// index. Looked up on every fetched fork, so it hashes with the cheap
/// [`AddrHasher`] instead of SipHash.
pub(crate) type ForkMap = HashMap<u64, SectionId, BuildHasherDefault<AddrHasher>>;

/// Classifies what a stalled control instruction is waiting on, for the
/// [`StallCause`] telemetry axis. `known` says whether the release cycle
/// was already resolved when the stall fired: a stall with an unknown
/// release parks its section and is woken by an explicit NoC-side
/// completion event, so an otherwise-local wait classifies as
/// [`StallCause::NocEjection`]. Register sources win over memory ones
/// (the fetch stage checks them first); [`StallCause::ForkCopy`] is
/// reserved — fork-copied sources are full at fetch by construction, so
/// today's traces never stall on one.
fn stall_cause(arena: &TraceArena, seq: usize, known: bool) -> StallCause {
    let remote_reg = arena
        .reg_sources(seq)
        .iter()
        .any(|dep| matches!(dep.kind(), SourceKind::Remote { .. }));
    if remote_reg {
        StallCause::RemoteRegister
    } else if arena.is_load(seq) || arena.is_store(seq) {
        StallCause::RemoteMemory
    } else if !known {
        StallCause::NocEjection
    } else {
        StallCause::Local
    }
}

impl ManyCoreSim {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> ManyCoreSim {
        ManyCoreSim { config }
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates an arena-backed trace with the event-driven engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for an invalid configuration.
    pub fn simulate_arena(&self, arena: &TraceArena) -> Result<SimResult, SimError> {
        self.simulate_arena_probed(arena, &mut NoopProbe)
    }

    /// Like [`ManyCoreSim::simulate_arena`], with a telemetry probe
    /// observing the run.
    ///
    /// Probe hooks are monomorphized into the engine and compiled out
    /// entirely for [`NoopProbe`] (`P::ENABLED == false`), so the default
    /// path pays nothing. A probed run produces a [`SimResult`]
    /// bit-identical to the unprobed one — probes observe, they never
    /// steer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for an invalid configuration.
    pub fn simulate_arena_probed<P: SimProbe>(
        &self,
        arena: &TraceArena,
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        self.config.validate().map_err(SimError::Config)?;
        let mut check = self.precheck(arena)?;
        let core_of = self.place(arena);
        self.attach_verdicts(arena, check.as_deref_mut(), &core_of);
        let mut network: Network<SectionId> =
            Network::new(self.config.effective_topology(), self.config.noc);
        // Which section does each dynamic fork create?
        let created_by: ForkMap = arena
            .sections()
            .iter()
            .filter_map(|s| s.creator.map(|(_, fork_seq)| (fork_seq as u64, s.id)))
            .collect();
        let sections = arena.sections();
        let n = arena.len();
        let mut resolver = Resolver::new(&self.config, arena, n);

        let mut chip = ChipState::new(self.config.cores, sections.len());
        let mut stalls = StallTable::new(sections.len());
        let mut schedule = Schedule::new(self.config.cores);
        let mut completions: Vec<(usize, u64)> = Vec::new();
        let mut delivered = Vec::new();
        // Always-on cycle attribution: fed from the same deterministic
        // section/stall events as the probe, so a probe never changes it.
        let mut attr = CycleAttribution::new(self.config.cores);

        // The initial section is live from cycle 0 on its core; its first
        // fetch happens at cycle 1.
        if !sections.is_empty() {
            let root_core = core_of[0].0;
            chip.current[root_core] = 0;
            chip.next_seq[root_core] = sections[0].start as u32;
            chip.sections_hosted[root_core] = 1;
            schedule.wake(&mut chip, root_core, 1);
            attr.begin_root(root_core);
            if P::ENABLED {
                probe.on_section_begin(root_core, 0, 0, false);
            }
        }

        let mut cycle: u64 = 0;
        // The convergence guard, capped at the cycle domain: a clock that
        // reaches the domain is refused as a capacity limit, not as a
        // divergence.
        let safety = (200 * n as u64 + 10_000).min(CYCLE_LIMIT);

        while resolver.fetched < n || resolver.resolved < n {
            // --- pick the next cycle with an event -----------------------
            let target = if schedule.acting.is_empty() {
                // Nothing acts, so jump to the earliest wake-up, NoC
                // arrival or requeue. With none pending, the run cannot
                // progress: every stall of the handoff model has a modeled
                // release event, so only a malformed trace gets here.
                let Some(at) = schedule
                    .next_wake()
                    .into_iter()
                    .chain(network.next_arrival())
                    .chain(stalls.next_requeue())
                    .min()
                else {
                    return Err(SimError::Diverged {
                        reason: "deadlocked with no pending event",
                        cycle,
                        resolved: resolver.resolved as u64,
                        instructions: n as u64,
                    });
                };
                at.max(cycle + 1)
            } else {
                // At least one core acts on the very next cycle (pending
                // events are never earlier).
                cycle + 1
            };
            cycle = target;
            if cycle >= safety {
                in_domain(cycle, CYCLE_LIMIT, "cycles")?;
                return Err(SimError::Diverged {
                    reason: "did not converge",
                    cycle,
                    resolved: resolver.resolved as u64,
                    instructions: n as u64,
                });
            }

            // --- requeue phase: parked sections whose stall released -----
            while let Some((idx, sid)) = stalls.pop_due(cycle) {
                chip.queue_push(idx, sid.0 as u32);
                attr.requeue(idx, cycle);
                if P::ENABLED {
                    probe.on_section_requeue(idx, sid.0 as u32, cycle);
                }
                if chip.current[idx] == NO_SECTION && !schedule.acting.contains(idx) {
                    // An idle core dequeues the resumed section this cycle.
                    schedule.wake(&mut chip, idx, cycle);
                }
            }

            // --- deliver phase: section-creation messages ----------------
            network.deliver_into(cycle, &mut delivered);
            for envelope in delivered.drain(..) {
                let idx = envelope.dst.0;
                chip.queue_push(idx, envelope.payload.0 as u32);
                chip.sections_hosted[idx] += 1;
                if P::ENABLED {
                    probe.on_noc_deliver(idx, envelope.payload.0 as u32, cycle);
                }
                if chip.current[idx] == NO_SECTION && !schedule.acting.contains(idx) {
                    // An idle core dequeues the message this very cycle.
                    schedule.wake(&mut chip, idx, cycle);
                }
            }

            // --- fetch-decode phase: the walk ----------------------------
            // The walk steps the acting cores in ascending order and
            // applies each step's effects on the resolver, the NoC, the
            // stall table and the attribution table as it goes (see
            // `crate::schedule`).
            if P::ENABLED {
                let acting = schedule.acting.len();
                probe.on_tick(TickGauges {
                    cycle,
                    running: acting as u64,
                    calendar_depth: schedule.pending() as u64,
                    noc_in_flight: network.in_flight() as u64,
                    parked: stalls.parked() as u64,
                });
                probe.on_walk(cycle, acting);
            }
            walk(
                &mut schedule,
                Walk {
                    cycle,
                    arena,
                    chip: &mut chip,
                    stalls: &mut stalls,
                    resolver: &mut resolver,
                    network: &mut network,
                    attr: &mut attr,
                    probe,
                    created_by: &created_by,
                    core_of: &core_of,
                    fetch_stalls: self.config.fetch_stalls_on_unresolved_control,
                },
            );

            // --- dependence resolution -----------------------------------
            completions.clear();
            resolver.drain(&network, &core_of, &mut completions, cycle, probe)?;

            // A completion that a parked section stalls on is its modeled
            // release event: requeue the section on the first cycle after
            // both the completion is known and its cycle is past.
            // Sections park only on control instructions (the walk stalls on
            // nothing else), so no other completion probes the park table.
            if stalls.parked() > 0 {
                for &(seq, completion) in &completions {
                    if !arena.is_control(seq) {
                        continue;
                    }
                    if let Some(idx) = stalls.unpark(seq) {
                        stalls.push_requeue(
                            (cycle + 1).max(completion + 1),
                            idx,
                            arena.section(seq),
                        );
                    }
                }
            }
            // Dispatch the stalls created this cycle (all still acting): a
            // known completion (possibly resolved within this very cycle's
            // drain) stalls in place until just past it; an unknown one
            // hands the core off to its queued sections and parks.
            if !schedule.newly_stalled.is_empty() {
                let mut stalled = std::mem::take(&mut schedule.newly_stalled);
                for &idx in &stalled {
                    let idx = idx as usize;
                    if chip.stall_on[idx] == NO_STALL {
                        continue;
                    }
                    let seq = chip.stall_on[idx] as usize;
                    match resolver.completion(seq) {
                        Some(c) => {
                            let wake = (cycle + 1).max(c + 1);
                            attr.stall(idx, cycle, c, stall_cause(arena, seq, true));
                            if P::ENABLED {
                                probe.on_fetch_stall(
                                    idx,
                                    seq,
                                    stall_cause(arena, seq, true),
                                    cycle,
                                    wake,
                                );
                            }
                            if wake > cycle + 1 {
                                schedule.sleep(&mut chip, idx, wake);
                            }
                        }
                        None => {
                            // `park` clears the core's current section, so
                            // read the section id for the probe first.
                            let sid = chip.current[idx];
                            attr.park(idx, cycle);
                            if P::ENABLED {
                                probe.on_section_park(
                                    idx,
                                    sid,
                                    seq,
                                    cycle,
                                    stall_cause(arena, seq, false),
                                );
                            }
                            debug_assert!(
                                arena.is_control(seq),
                                "only a control instruction parks"
                            );
                            stalls.park(idx, &mut chip, seq);
                            if chip.queue_head[idx] == NO_SECTION {
                                schedule.acting.remove(idx);
                            }
                        }
                    }
                }
                stalled.clear();
                schedule.newly_stalled = stalled;
            }
        }

        let hosted: Vec<usize> = chip.sections_hosted.iter().map(|&h| h as usize).collect();
        let attribution = attr.finish(resolver.max_ret);
        self.finish(
            arena,
            resolver,
            core_of,
            &hosted,
            network.stats(),
            check,
            attribution,
        )
    }

    /// Attaches the configuration-aware verdicts to a validated run's
    /// report, once the placement is known: the progress proof for this
    /// (placement × chip) cell and the NoC/placement-weighted schedule
    /// bounds.
    fn attach_verdicts(
        &self,
        arena: &TraceArena,
        check: Option<&mut CheckReport>,
        core_of: &[CoreId],
    ) {
        if let Some(report) = check {
            let hosts: Vec<usize> = core_of.iter().map(|c| c.0).collect();
            report.progress = Some(prove_progress(
                arena,
                &hosts,
                self.config.cores,
                self.config.max_sections_per_core,
            ));
            report.schedule = Some(bound_schedule(arena, &hosts, &self.config.chip_model()));
        }
    }

    /// Runs the static analysis of `parsecs-check` over the arena when
    /// [`SimConfig::validate`] is on: a structurally invalid arena is
    /// rejected as [`SimError::Invariant`]; a clean report is returned
    /// for attachment to [`SimResult::check`]. A single branch (and no
    /// work at all) when validation is off.
    fn precheck(&self, arena: &TraceArena) -> Result<Option<Box<CheckReport>>, SimError> {
        if !self.config.validate {
            return Ok(None);
        }
        let report = parsecs_check::check_arena(arena);
        if !report.is_clean() {
            return Err(SimError::Invariant(Box::new(report)));
        }
        Ok(Some(Box::new(report)))
    }

    /// Assembles the [`SimResult`] from a finished resolver. The
    /// aggregate cycle counts come from the resolver's streaming
    /// accumulators — identical in both stats modes (and zero for an
    /// empty program) — so only the per-row stage table depends on
    /// [`SimConfig::record_timings`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Diverged`] when an instruction comes out of
    /// the resolver with sentinel cycles — the stall/wake model broke
    /// down, and sentinels must never leak into reported timings (a hard
    /// check, release builds included: one scan over the stage columns
    /// the recording run moves out of the resolver) — when a consumer is
    /// still parked in a wait cell (one comparison), when a core's
    /// cycle attribution does not tile the run (see
    /// [`untiled_attribution`]), or when a validated run breaks a
    /// contract of its attached report (see [`broken_contract`]).
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        arena: &TraceArena,
        resolver: Resolver<'_>,
        core_of: Vec<CoreId>,
        sections_hosted: &[usize],
        noc: NocStats,
        check: Option<Box<CheckReport>>,
        attribution: Vec<CoreBreakdown>,
    ) -> Result<SimResult, SimError> {
        let instructions = arena.len() as u64;
        let fetch_cycles = resolver.max_fd;
        let total_cycles = resolver.max_ret;
        let mut used: Vec<CoreId> = core_of.clone();
        used.sort();
        used.dedup();
        let stats = SimStats {
            instructions,
            sections: arena.sections().len(),
            cores_used: used.len(),
            fetch_cycles,
            total_cycles,
            fetch_ipc: if fetch_cycles == 0 {
                0.0
            } else {
                instructions as f64 / fetch_cycles as f64
            },
            retire_ipc: if total_cycles == 0 {
                0.0
            } else {
                instructions as f64 / total_cycles as f64
            },
            remote_register_requests: resolver.remote_register_requests,
            remote_memory_requests: resolver.remote_memory_requests,
            fork_copied_sources: resolver.fork_copied_sources,
            dmh_accesses: resolver.dmh_accesses,
            forced_stall_releases: 0,
            peak_sections_per_core: sections_hosted.iter().copied().max().unwrap_or(0),
            trace_arena_bytes: arena.memory_bytes() as u64,
            noc,
            attribution,
        };
        let resolved = resolver.resolved as u64;
        if resolver.has_waiters() {
            return Err(SimError::Diverged {
                reason: "left a consumer waiting",
                cycle: total_cycles,
                resolved,
                instructions,
            });
        }

        let stages = if self.config.record_timings {
            StageColumns::record(arena, resolver.into_stage_columns()).ok_or(
                SimError::Diverged {
                    reason: "left an instruction unresolved",
                    cycle: total_cycles,
                    resolved,
                    instructions,
                },
            )?
        } else {
            StageColumns::default()
        };

        let broken = untiled_attribution(&stats).or_else(|| {
            check
                .as_deref()
                .and_then(|report| broken_contract(report, &stats))
        });
        if let Some(reason) = broken {
            return Err(SimError::Diverged {
                reason,
                cycle: stats.total_cycles,
                resolved,
                instructions,
            });
        }

        Ok(SimResult {
            outputs: arena.outputs().to_vec(),
            stages,
            timings_recorded: self.config.record_timings,
            sections: arena.sections().to_vec(),
            core_of,
            stats,
            check,
            fork_fallback: None,
        })
    }

    /// Assigns every section a hosting core under the configured
    /// [`Placement`]; only [`Placement::ChainAffine`] gets the trace's
    /// cross-section dependences.
    fn place(&self, arena: &TraceArena) -> Vec<CoreId> {
        let sections = arena.sections();
        let chip = self.config.chip_view();
        match self.config.placement {
            Placement::ChainAffine => {
                let deps = SectionDeps::from_arena(sections.len(), arena);
                Placement::ChainAffine.assign_with_deps(sections, &chip, &deps)
            }
            placement => placement.assign(sections, &chip),
        }
    }
}
/// The attribution contract every run must meet, checked in release
/// builds too (one sum per core): each core's buckets tile the run,
/// summing to `total_cycles`. Returns the broken contract, worded as
/// [`SimError::Diverged`]'s `reason`.
fn untiled_attribution(stats: &SimStats) -> Option<&'static str> {
    stats
        .attribution
        .iter()
        .any(|b| b.total() != stats.total_cycles)
        .then_some("split a core's cycles into buckets that do not sum to total_cycles")
}

/// The contracts a validated run's [`CheckReport`] must meet, checked
/// in release builds too (a few comparisons per run): `critical_path ≤
/// lb ≤ total_cycles`. An engine undercutting a certified bound has an
/// optimistic-timing bug. Returns the first broken contract, worded as
/// [`SimError::Diverged`]'s `reason`.
fn broken_contract(report: &CheckReport, stats: &SimStats) -> Option<&'static str> {
    let critical_path = report.bounds.as_ref().map_or(0, |b| b.critical_path);
    if stats.total_cycles < critical_path {
        return Some("undercut the static critical path");
    }
    if let Some(schedule) = &report.schedule {
        if schedule.lb < critical_path {
            return Some("bounded the schedule below the static critical path");
        }
        if stats.total_cycles < schedule.lb {
            return Some("undercut the certified schedule bound");
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_figure10;
    use parsecs_isa::Program;
    use parsecs_machine::{Location, TraceKind};

    /// The paper's running example: Figure 5 preceded by a tiny `main`.
    fn sum_fork_program(data: &[u64]) -> Program {
        let quads: Vec<String> = data.iter().map(u64::to_string).collect();
        let src = format!(
            "t:   .quad {}
             main: movq $t, %rdi
                   movq ${}, %rsi
                   fork sum
                   out  %rax
                   halt
             sum:  cmpq $2, %rsi
                   ja .L2
                   movq (%rdi), %rax
                   jne .L1
                   addq 8(%rdi), %rax
             .L1:  endfork
             .L2:  movq %rsi, %rbx
                   shrq %rsi
                   fork sum
                   subq $8, %rsp
                   movq %rax, 0(%rsp)
                   leaq (%rdi,%rsi,8), %rdi
                   subq %rsi, %rbx
                   movq %rbx, %rsi
                   fork sum
                   addq 0(%rsp), %rax
                   addq $8, %rsp
                   endfork",
            quads.join(", "),
            data.len(),
        );
        parsecs_asm::assemble(&src).expect("sum program assembles")
    }

    /// The program's sectioned trace, through the streaming pipeline.
    fn arena_of(program: &Program) -> TraceArena {
        TraceArena::from_program(program, 1_000_000).expect("runs")
    }

    fn sim_sum(data: &[u64], config: SimConfig) -> SimResult {
        let arena = arena_of(&sum_fork_program(data));
        ManyCoreSim::new(config)
            .simulate_arena(&arena)
            .expect("simulates")
    }

    #[test]
    fn sum_of_five_reproduces_the_papers_shape() {
        let result = sim_sum(&[4, 2, 6, 4, 5], SimConfig::with_cores(8));
        assert_eq!(result.outputs, vec![21]);
        assert_eq!(result.stats.sections, 6);
        assert_eq!(result.stats.instructions, 50);
        // The paper's Figure 10 fetches the 45 sum instructions in 30
        // cycles and retires them by cycle 43; our run adds a 5-instruction
        // main wrapper, so allow a modest band around those values.
        assert!(
            (25..=45).contains(&result.stats.fetch_cycles),
            "fetch span {} outside the expected band",
            result.stats.fetch_cycles
        );
        assert!(
            (35..=90).contains(&result.stats.total_cycles),
            "retire span {} outside the expected band",
            result.stats.total_cycles
        );
        assert!(result.stats.fetch_ipc > 1.0);
        // The first instruction is fetched at cycle 1 on the root core.
        assert_eq!(result.timings().get(0).map(|t| t.fd), Some(1));
    }

    #[test]
    fn validated_runs_attach_a_clean_report_and_change_nothing_else() {
        let program = sum_fork_program(&[4, 2, 6, 4, 5]);
        let arena = arena_of(&program);
        let sim = ManyCoreSim::new(SimConfig::with_cores(8).validated());
        let validated = sim.simulate_arena(&arena).expect("simulates");
        let report = validated.check.as_ref().expect("validated run");
        assert!(report.is_clean());
        let bounds = report.bounds.as_ref().expect("clean arenas are bounded");
        assert!(
            validated.stats.total_cycles >= bounds.critical_path,
            "{} < {}",
            validated.stats.total_cycles,
            bounds.critical_path
        );
        // The unvalidated run is identical except for the attachment.
        let mut plain = ManyCoreSim::new(SimConfig::with_cores(8))
            .simulate_arena(&arena)
            .expect("simulates");
        assert!(plain.check.is_none());
        plain.check = validated.check.clone();
        assert_eq!(plain, validated);
    }

    #[test]
    fn broken_report_contracts_are_named() {
        let arena = arena_of(&sum_fork_program(&[4, 2, 6, 4, 5]));
        let result = ManyCoreSim::new(SimConfig::with_cores(8).validated())
            .simulate_arena(&arena)
            .expect("simulates");
        let report = result.check.as_deref().expect("validated run");
        let stats = &result.stats;
        assert_eq!(broken_contract(report, stats), None);
        assert!(report.progress.as_ref().is_some_and(|p| p.is_proven()));

        let mut broken = report.clone();
        broken.bounds.as_mut().expect("bounded").critical_path = stats.total_cycles + 1;
        assert_eq!(
            broken_contract(&broken, stats),
            Some("undercut the static critical path")
        );
        let mut broken = report.clone();
        broken.schedule.as_mut().expect("attached").lb = 0;
        assert_eq!(
            broken_contract(&broken, stats),
            Some("bounded the schedule below the static critical path")
        );
        let mut broken = report.clone();
        broken.schedule.as_mut().expect("attached").lb = stats.total_cycles + 1;
        assert_eq!(
            broken_contract(&broken, stats),
            Some("undercut the certified schedule bound")
        );
    }

    #[test]
    fn untiled_attribution_is_named() {
        let arena = arena_of(&sum_fork_program(&[4, 2, 6, 4, 5]));
        let result = ManyCoreSim::new(SimConfig::with_cores(8))
            .simulate_arena(&arena)
            .expect("simulates");
        assert_eq!(untiled_attribution(&result.stats), None);
        let reason = Some("split a core's cycles into buckets that do not sum to total_cycles");
        for tamper in [
            |b: &mut CoreBreakdown| b.idle += 1,
            |b: &mut CoreBreakdown| b.busy -= 1,
        ] {
            let mut stats = result.stats.clone();
            tamper(&mut stats.attribution[0]);
            assert_eq!(untiled_attribution(&stats), reason);
        }
    }

    #[test]
    fn validation_rejects_corrupt_arenas_with_a_typed_report() {
        use parsecs_trace::PackedDep;
        // A record claiming a producer at or past itself: a dependence
        // cycle the validator must catch before the engine runs.
        let mut arena = TraceArena::new();
        let id = arena.intern_mnemonic("bogus");
        arena.begin_record(0, id, SectionId(0), TraceKind::Other, false, false, false);
        arena.push_dep(PackedDep::new(SourceKind::Local { producer: 0 }));
        arena.end_record(1);
        arena.push_section(SectionSpan {
            id: SectionId(0),
            start: 0,
            end: 1,
            creator: None,
            start_ip: 0,
        });
        let sim = ManyCoreSim::new(SimConfig::with_cores(2).validated());
        let err = sim.simulate_arena(&arena).expect_err("must be rejected");
        match err {
            SimError::Invariant(report) => {
                assert!(!report.is_clean());
                assert!(matches!(
                    report.first_violation(),
                    Some(parsecs_check::InvariantViolation::DependenceCycle { .. })
                ));
            }
            other => panic!("expected an invariant error, got {other}"),
        }
    }

    /// The release-build sentinel check: a recording run that leaves an
    /// instruction unresolved must be refused, never reported with
    /// sentinel cycles in its stage table.
    #[test]
    fn finish_refuses_a_recording_run_with_an_unresolved_row() {
        let mut arena = TraceArena::new();
        let id = arena.intern_mnemonic("nop");
        arena.begin_record(0, id, SectionId(0), TraceKind::Other, false, false, false);
        arena.end_record(1);
        arena.push_section(SectionSpan {
            id: SectionId(0),
            start: 0,
            end: 1,
            creator: None,
            start_ip: 0,
        });
        let sim = ManyCoreSim::new(SimConfig::with_cores(2));
        assert!(sim.config().record_timings);
        // Fresh: nothing fetched, every cycle still a sentinel.
        let resolver = Resolver::new(sim.config(), &arena, arena.len());
        let err = sim
            .finish(
                &arena,
                resolver,
                vec![CoreId(0)],
                &[1],
                NocStats::default(),
                None,
                vec![CoreBreakdown::default(); 2],
            )
            .expect_err("an unresolved row must be refused");
        match err {
            SimError::Diverged {
                reason,
                resolved,
                instructions,
                ..
            } => {
                assert_eq!(reason, "left an instruction unresolved");
                assert_eq!((resolved, instructions), (0, 1));
            }
            other => panic!("expected a divergence, got {other}"),
        }
    }

    /// The release-build wait-pool check: a stats-only run that ends
    /// with a consumer still parked in a wait cell must be refused.
    #[test]
    fn finish_refuses_a_run_that_left_a_consumer_waiting() {
        use crate::drain::tests::{arena_of, Harness};
        let arena = arena_of(&[&[], &[0]]);
        let sim = ManyCoreSim::new(SimConfig::with_cores(2).stats_only());
        let mut h = Harness::new(sim.config(), &arena);
        // The consumer is fetched and parks on the never-fetched producer.
        assert!(h.cycle(1, &[1]).is_empty());
        let err = sim
            .finish(
                &arena,
                h.resolver,
                h.core_of,
                &[1, 1],
                NocStats::default(),
                None,
                vec![CoreBreakdown::default(); 2],
            )
            .expect_err("a parked consumer must be refused");
        match err {
            SimError::Diverged {
                reason,
                resolved,
                instructions,
                ..
            } => {
                assert_eq!(reason, "left a consumer waiting");
                assert_eq!((resolved, instructions), (0, 2));
            }
            other => panic!("expected a divergence, got {other}"),
        }
    }

    /// A deadlock is refused, never escaped. A control `jne` reads the
    /// flags written by the instruction after it in its own section:
    /// fetch stalls on the `jne`, whose producer can only be fetched
    /// behind it, so nothing acts and no event is pending. Only an
    /// unvalidated run reaches the engine; a validated one is refused
    /// earlier by the structural checks.
    #[test]
    fn a_deadlocked_run_is_refused() {
        use parsecs_trace::SourceDep;
        let mut arena = TraceArena::new();
        let flags = SourceDep {
            location: Location::Flags,
            kind: SourceKind::Local { producer: 1 },
        };
        let section = SectionId(0);
        arena.push_record(
            0,
            "jne",
            section,
            TraceKind::Other,
            true,
            &[flags],
            &[],
            &[],
        );
        arena.push_record(
            1,
            "cmpq",
            section,
            TraceKind::Other,
            false,
            &[],
            &[],
            &[Location::Flags],
        );
        arena.push_section(SectionSpan {
            id: section,
            start: 0,
            end: 2,
            creator: None,
            start_ip: 0,
        });
        for config in [
            SimConfig::with_cores(2),
            SimConfig::with_cores(2).stats_only(),
        ] {
            let err = ManyCoreSim::new(config)
                .simulate_arena(&arena)
                .expect_err("a deadlock must be refused");
            match err {
                SimError::Diverged {
                    reason,
                    resolved,
                    instructions,
                    ..
                } => {
                    assert_eq!(reason, "deadlocked with no pending event");
                    assert_eq!((resolved, instructions), (0, 2));
                }
                other => panic!("expected a divergence, got {other}"),
            }
        }
        let validated = ManyCoreSim::new(SimConfig::with_cores(2).validated());
        assert!(matches!(
            validated.simulate_arena(&arena),
            Err(SimError::Invariant(_))
        ));
    }

    /// The footprint accounting of the stage table: a recording run holds
    /// exactly the table's documented 19 B/instruction beyond a
    /// stats-only one (12 B of moved `u32` stage columns, 7 B copied from
    /// the arena), plus the mnemonic table.
    #[test]
    fn the_stage_table_costs_19_bytes_per_instruction() {
        let data: Vec<u64> = (1..=64).collect();
        let arena = arena_of(&sum_fork_program(&data));
        let full = ManyCoreSim::new(SimConfig::with_cores(16))
            .simulate_arena(&arena)
            .expect("simulates");
        let stats = ManyCoreSim::new(SimConfig::with_cores(16).stats_only())
            .simulate_arena(&arena)
            .expect("simulates");
        let n = full.stats.instructions;
        assert!(n > 500, "want a golden-sized program, got {n} instructions");
        let extra = full.sim_state_bytes() - stats.sim_state_bytes();
        let mnemonics = std::mem::size_of_val(arena.raw().mnemonics);
        assert_eq!(extra, 19 * n + mnemonics as u64);
        assert_eq!(extra / n, 19);
    }

    /// Rows are derived, not stored: the section, position and core come
    /// from the result's sections and placement, the rest from copied
    /// arena columns. They must match the arena's own records, and
    /// `get` must agree with `iter`.
    #[test]
    fn stage_rows_match_the_arena_records() {
        let data: Vec<u64> = (1..=24).collect();
        let arena = arena_of(&sum_fork_program(&data));
        let result = ManyCoreSim::new(SimConfig::with_cores(4))
            .simulate_arena(&arena)
            .expect("simulates");
        let table = result.timings();
        assert_eq!(table.len(), arena.len());
        let mut rows = 0;
        for (seq, t) in table.iter().enumerate() {
            assert_eq!(t.seq, seq);
            assert_eq!(t.section, arena.section(seq));
            assert_eq!(t.index_in_section, arena.index_in_section(seq));
            assert_eq!(t.ip, arena.ip(seq));
            assert_eq!(t.mnemonic, arena.mnemonic(seq));
            assert_eq!(t.core, result.core_of[t.section.0]);
            assert_eq!(t.ma.is_some(), arena.is_load(seq) || arena.is_store(seq));
            assert_eq!(table.get(seq).as_ref(), Some(&t));
            rows += 1;
        }
        assert_eq!(rows, arena.len());
        assert_eq!(table.get(arena.len()), None);
    }

    #[test]
    fn stage_cycles_are_monotone_within_an_instruction() {
        let result = sim_sum(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3], SimConfig::with_cores(16));
        for t in result.timings().iter() {
            assert!(t.rr > t.fd, "{}: rr after fd", t.name());
            assert!(t.ew >= t.fd, "{}: ew at or after fd", t.name());
            if let (Some(a), Some(m)) = (t.ar, t.ma) {
                assert!(a > t.ew, "{}: ar after ew", t.name());
                assert!(m > a, "{}: ma after ar", t.name());
            }
            assert!(t.ret > t.ew, "{}: retire after execute", t.name());
        }
    }

    #[test]
    fn fetch_is_one_instruction_per_core_per_cycle() {
        let result = sim_sum(&[4, 2, 6, 4, 5], SimConfig::with_cores(8));
        let mut per_core_cycle: HashMap<(CoreId, u64), u64> = HashMap::new();
        for t in result.timings().iter() {
            *per_core_cycle.entry((t.core, t.fd)).or_insert(0) += 1;
        }
        assert!(per_core_cycle.values().all(|c| *c == 1));
    }

    /// Regression for the old O(total instructions) filter scan:
    /// `section_timings` must hand back the section's contiguous span of
    /// the sequential table, covering every row exactly once even on a
    /// many-section trace.
    #[test]
    fn section_timings_slices_the_contiguous_span() {
        let data: Vec<u64> = (1..=40).collect();
        let result = sim_sum(&data, SimConfig::with_cores(16));
        assert!(
            result.sections.len() > 30,
            "want a many-section trace, got {}",
            result.sections.len()
        );
        let mut covered = 0usize;
        for span in &result.sections {
            let timings: Vec<InstTiming> = result.section_timings(span.id).collect();
            assert_eq!(timings.len(), span.len(), "{}", span.id);
            assert!(timings.iter().all(|t| t.section == span.id));
            assert_eq!(timings.first().map(|t| t.seq), Some(span.start));
            covered += timings.len();
        }
        assert_eq!(covered, result.timings().len());
        // A stats-only run has no rows to slice — empty view, no panic.
        let stats = sim_sum(&data, SimConfig::with_cores(16).stats_only());
        assert_eq!(stats.section_timings(SectionId(0)).count(), 0);
        // An id past the run's sections yields an empty view (the old
        // filter scan's behaviour), not a panic.
        assert_eq!(
            result
                .section_timings(SectionId(result.sections.len()))
                .count(),
            0
        );
    }

    /// The tentpole contract of stats-only mode: every aggregate in
    /// `SimStats` is accumulated streaming and comes out bit-identical to
    /// the recording run, with no stage table built.
    #[test]
    fn stats_only_matches_full_mode_statistics_bit_for_bit() {
        let data: Vec<u64> = (1..=24).collect();
        let program = sum_fork_program(&data);
        let arena = arena_of(&program);
        for cores in [1, 4, 16] {
            let full_sim = ManyCoreSim::new(SimConfig::with_cores(cores));
            let stats_sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only());
            let full = full_sim
                .simulate_arena(&arena)
                .expect("full-mode simulates");
            let stats = stats_sim
                .simulate_arena(&arena)
                .expect("stats-only simulates");
            assert_eq!(
                stats.stats, full.stats,
                "aggregates diverge at {cores} cores"
            );
            assert_eq!(stats.outputs, full.outputs);
            assert_eq!(stats.sections, full.sections);
            assert_eq!(stats.core_of, full.core_of);
            assert!(stats.timings().is_empty() && !stats.timings_recorded);
            assert!(full.timings_recorded);
            assert!(stats.sim_state_bytes() < full.sim_state_bytes());
        }
    }

    /// Both stats modes, zero instructions: the streaming accumulators
    /// and the post-hoc table derivation must agree that everything is
    /// zero (the old `unwrap_or(0)` fallback path).
    #[test]
    fn empty_traces_simulate_to_zeroed_stats_everywhere() {
        let empty = crate::StreamingSectioner::new()
            .finish(vec![])
            .expect("fits");
        let full_sim = ManyCoreSim::new(SimConfig::with_cores(4));
        let stats_sim = ManyCoreSim::new(SimConfig::with_cores(4).stats_only());
        let full = full_sim.simulate_arena(&empty).expect("simulates");
        let stats = stats_sim.simulate_arena(&empty).expect("simulates");
        assert_eq!(full.stats, stats.stats);
        assert_eq!(full.stats.instructions, 0);
        assert_eq!(full.stats.fetch_cycles, 0);
        assert_eq!(full.stats.total_cycles, 0);
        assert_eq!(full.stats.fetch_ipc, 0.0);
        assert_eq!(full.stats.retire_ipc, 0.0);
        assert_eq!(full.stats.forced_stall_releases, 0);
        assert!(full.timings().is_empty() && full.timings_recorded);
        assert!(full.outputs.is_empty());
        assert_eq!(full.total_bytes_per_instruction(), 0.0);
    }

    #[test]
    fn retirement_is_in_order_within_a_section() {
        let result = sim_sum(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], SimConfig::with_cores(16));
        for span in &result.sections {
            let timings: Vec<InstTiming> = result.section_timings(span.id).collect();
            for pair in timings.windows(2) {
                assert!(
                    pair[1].ret > pair[0].ret,
                    "retirement must be in order within {}",
                    span.id
                );
                assert!(
                    pair[1].fd > pair[0].fd,
                    "fetch must be in order within {}",
                    span.id
                );
            }
        }
    }

    #[test]
    fn remote_operands_are_charged_noc_latency() {
        let result = sim_sum(&[4, 2, 6, 4, 5], SimConfig::with_cores(8));
        assert!(
            result.stats.remote_register_requests >= 2,
            "each resume waits for %rax"
        );
        assert!(
            result.stats.remote_memory_requests >= 1,
            "the final sum reads a remote stack word"
        );
        assert!(result.stats.fork_copied_sources > 0);
        assert_eq!(
            result.stats.dmh_accesses, 5,
            "five array elements come from the loader"
        );
    }

    #[test]
    fn more_cores_do_not_slow_the_run_down() {
        let data: Vec<u64> = (1..=40).collect();
        let few = sim_sum(&data, SimConfig::with_cores(2));
        let many = sim_sum(&data, SimConfig::with_cores(64));
        assert_eq!(few.outputs, many.outputs);
        assert!(many.stats.fetch_cycles <= few.stats.fetch_cycles);
        assert!(many.stats.fetch_ipc >= few.stats.fetch_ipc);
    }

    #[test]
    fn single_core_still_works_and_is_slower() {
        let data: Vec<u64> = (1..=20).collect();
        let one = sim_sum(&data, SimConfig::with_cores(1));
        let many = sim_sum(&data, SimConfig::with_cores(32));
        assert_eq!(one.outputs, vec![210]);
        assert!(one.stats.fetch_cycles >= many.stats.fetch_cycles);
        assert_eq!(one.stats.cores_used, 1);
    }

    #[test]
    fn least_loaded_placement_balances_instructions() {
        let data: Vec<u64> = (1..=40).collect();
        let config = SimConfig::with_cores(4).with_placement(crate::Placement::LeastLoaded);
        let result = sim_sum(&data, config);
        let mut per_core = vec![0usize; 4];
        for (sid, core) in result.core_of.iter().enumerate() {
            per_core[core.0] += result.sections[sid].len();
        }
        let max = *per_core.iter().max().unwrap();
        let min = *per_core.iter().filter(|c| **c > 0).min().unwrap();
        assert!(max <= min * 3, "placement should spread work: {per_core:?}");
    }

    #[test]
    fn call_based_program_runs_on_one_section() {
        let program = parsecs_asm::assemble(
            "main: movq $6, %rdi
                   call fact
                   out  %rax
                   halt
             fact: movq $1, %rax
                   movq %rdi, %rcx
             loop: imulq %rcx, %rax
                   subq $1, %rcx
                   jne loop
                   ret",
        )
        .unwrap();
        let result = ManyCoreSim::new(SimConfig::with_cores(4))
            .simulate_arena(&arena_of(&program))
            .unwrap();
        assert_eq!(result.outputs, vec![720]);
        assert_eq!(result.stats.sections, 1);
        assert_eq!(result.stats.cores_used, 1);
        assert!(
            result.stats.fetch_ipc <= 1.0,
            "a single section fetches at most 1 IPC"
        );
    }

    #[test]
    fn invalid_configuration_is_reported() {
        let program = sum_fork_program(&[1, 2, 3]);
        let arena = arena_of(&program);
        let err = ManyCoreSim::new(SimConfig::with_cores(0))
            .simulate_arena(&arena)
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn figure10_table_lists_every_instruction_grouped_by_core() {
        let result = sim_sum(&[4, 2, 6, 4, 5], SimConfig::with_cores(8));
        let table = format_figure10(&result);
        assert!(table.contains("core0 pipeline"));
        assert!(table.contains("fork"));
        assert!(table.contains("endfork"));
        let instruction_rows = table
            .lines()
            .filter(|l| {
                l.trim_start()
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit())
            })
            .count();
        assert_eq!(instruction_rows, result.timings().len());
    }

    #[test]
    fn per_section_hop_penalty_increases_latency() {
        let data: Vec<u64> = (1..=20).collect();
        let base = sim_sum(&data, SimConfig::with_cores(8));
        let mut slow_cfg = SimConfig::with_cores(8);
        slow_cfg.per_section_hop = 10;
        let slow = sim_sum(&data, slow_cfg);
        assert_eq!(base.outputs, slow.outputs);
        assert!(slow.stats.total_cycles >= base.stats.total_cycles);
    }

    #[test]
    fn disabling_fetch_stalls_never_slows_fetch() {
        let data: Vec<u64> = (1..=20).collect();
        let mut cfg = SimConfig::with_cores(8);
        cfg.fetch_stalls_on_unresolved_control = false;
        let ideal = sim_sum(&data, cfg);
        let real = sim_sum(&data, SimConfig::with_cores(8));
        assert!(ideal.stats.fetch_cycles <= real.stats.fetch_cycles);
    }

    #[test]
    fn well_formed_runs_never_need_forced_stall_releases() {
        let result = sim_sum(&[4, 2, 6, 4, 5], SimConfig::with_cores(8));
        assert_eq!(result.stats.forced_stall_releases, 0);
    }

    /// The bridge the benchmark relies on: `threads` is ignored, so a run
    /// asking for two threads is the one-thread run, field for field, in
    /// both stats modes, and carries no fallback.
    #[test]
    fn the_ignored_thread_count_never_changes_a_run() {
        let data: Vec<u64> = (1..=200).collect();
        let arena = arena_of(&sum_fork_program(&data));
        for record_timings in [true, false] {
            let one = SimConfig {
                record_timings,
                ..SimConfig::with_cores(64)
            };
            let two = ManyCoreSim::new(SimConfig {
                threads: 2,
                ..one.clone()
            });
            let one = ManyCoreSim::new(one);
            let run = two.simulate_arena(&arena).expect("simulates");
            assert_eq!(
                run,
                one.simulate_arena(&arena).expect("simulates"),
                "record_timings = {record_timings}"
            );
            assert_eq!(run.fork_fallback, None);
        }
    }
}
