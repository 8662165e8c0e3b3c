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
//! and [`ManyCoreSim::simulate_arena_probed`] run the event-driven engine,
//! [`ManyCoreSim::simulate_reference`] the cycle-stepping reference.
//!
//! The timing layer is split into focused modules:
//!
//! * [`crate::chip`] — chip-wide per-core state as struct-of-arrays
//!   columns, the intrusive ready queues and the stall-handoff table;
//! * [`crate::cluster`] — the calendar queue, the run list and the
//!   fetch-decode walk over the chip columns;
//! * [`crate::drain`] — the batched completion drain;
//! * this module — the orchestrator: the event loop that advances the
//!   clock, delivers NoC messages and stall requeues, runs the walk and
//!   the drain, and assembles the [`SimResult`].
//!
//! The engine is **event-driven** and sequential: instead of stepping the
//! chip one cycle at a time and rescanning every core, it keeps a
//! two-level calendar queue of per-core wake-up events (next fetch,
//! section dequeue, stall release) plus the NoC's next message arrival
//! ([`parsecs_noc::Network::next_arrival`]) and the pending stall-handoff
//! requeue events, and the clock jumps straight to the earliest event.
//! Dependence resolution uses producer→consumer wake-up lists, so a
//! queued instruction is touched only when one of its inputs completes.
//!
//! Fetch stalls follow the **in-order handoff model** (shared with the
//! reference loop through [`crate::chip::StallTable`]): a control
//! instruction whose sources are not full stalls the fetch stage. If the
//! stall's release cycle is already known, the section keeps the fetch
//! slot and resumes right after that cycle. If the release is *unknown*,
//! the section **parks** and hands the core back to its queued sections;
//! when the completion is discovered, an explicit requeue event puts the
//! parked section back on its core's ready queue at the modeled release
//! cycle. Every stall therefore has a modeled release event and
//! well-formed traces never deadlock; [`SimStats::forced_stall_releases`]
//! remains only as a deadlock *detector*.
//!
//! The original cycle-stepping loop is retained in
//! [`ManyCoreSim::simulate_reference`] and the two implementations are
//! held bit-identical by differential tests (every [`SimResult`] field,
//! including the per-instruction stage table and all statistics, must
//! match exactly).
//!
//! The output is a per-instruction, per-stage cycle table (Figure 10 of the
//! paper) plus aggregate fetch/retire IPC (§5).

use std::collections::HashMap;
use std::convert::Infallible;

use parsecs_check::{bound_schedule, prove_progress, CheckReport};
use parsecs_noc::{CoreId, Network, NocStats};
use parsecs_obs::{CoreBreakdown, CycleAttribution, NoopProbe, SimProbe, StallCause, TickGauges};
use parsecs_trace::{SourceKind, TraceArena};

use crate::chip::{ChipState, NO_SECTION, NO_STALL};
use crate::cluster::{schedule, walk_cluster, Cluster, WalkCtx};
use crate::drain::{Resolver, INCOMPLETE, UNKNOWN};
use crate::{InstTiming, SectionId, SectionSpan, SimConfig, SimError, SimStats};

pub(crate) use crate::chip::StallTable;

/// The result of one many-core simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Values emitted by `out` instructions during the run.
    pub outputs: Vec<u64>,
    /// Per-instruction stage timings, in sequential order. **Empty when
    /// the run was stats-only** ([`SimConfig::record_timings`] off):
    /// aggregate statistics are then accumulated streaming during the
    /// simulation and the stage table is never materialised.
    pub timings: Vec<InstTiming>,
    /// Whether [`SimResult::timings`] was recorded. `false` for
    /// stats-only runs — which an empty `timings` alone cannot signal,
    /// because an empty *program* also has no rows.
    pub timings_recorded: bool,
    /// The sections of the run, in total order.
    pub sections: Vec<SectionSpan>,
    /// The core hosting each section (indexed by section id).
    pub core_of: Vec<CoreId>,
    /// Aggregate statistics.
    pub stats: SimStats,
    /// The pre-simulation static analysis report (invariants, drain
    /// certificate, critical-path bounds, the placement-aware progress
    /// proof and schedule bounds) when the run was validated
    /// ([`SimConfig::validate`]); `None` otherwise. Both engines attach
    /// the identical report, so differential bit-identity covers it.
    pub check: Option<Box<CheckReport>>,
    /// Always `None`, as its type proves: no run falls back from
    /// anything, because both engines are sequential. Kept only because
    /// the benchmark (`crates/bench/src/bin/benchmark/`) still reads it;
    /// it goes together with [`SimConfig::threads`].
    pub fork_fallback: Option<Infallible>,
}

impl SimResult {
    /// The timings of one section, in fetch order: the contiguous
    /// `timings` rows of the section's span (timings are stored in
    /// sequential order and sections tile that order, so this is an O(1)
    /// subslice, not a scan). Empty when the run was stats-only or the
    /// id names no section of this run (matching the old filter scan,
    /// which also produced nothing for an unknown id).
    pub fn section_timings(&self, id: SectionId) -> &[InstTiming] {
        if !self.timings_recorded {
            return &[];
        }
        match self.sections.get(id.0) {
            Some(span) => &self.timings[span.start..span.end],
            None => &[],
        }
    }

    /// Modeled resident bytes of the simulator's own per-run state — the
    /// resolver columns, the per-section cursors (retirement, stall
    /// resume, fork map, placement) and the result views (stage table,
    /// section spans, outputs). The number that, added to
    /// [`SimStats::trace_arena_bytes`], caps how many instructions a
    /// chip-scale run can hold resident; a stats-only run drops the stage
    /// table and three resolver columns, cutting this from ~150 to ~17
    /// bytes per instruction. Derived from logical sizes (transient
    /// scratch like the wake queue and per-core state is excluded), so it
    /// is deterministic across engines.
    pub fn sim_state_bytes(&self) -> u64 {
        use std::mem::size_of;
        let n = self.stats.instructions;
        let sections = self.sections.len() as u64;
        // Tagged completion column + two wake-list links always; the
        // fd/ew/ret stage columns only when timings are recorded.
        let resolver = n * 16 + if self.timings_recorded { n * 24 } else { 0 };
        // Retirement cursors (u32 + u64), stall resume point, one
        // fork→created-section map entry, placement.
        let per_section = sections * (12 + 8 + 24 + 8);
        let views = self.timings.len() as u64 * size_of::<InstTiming>() as u64
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

/// Everything both engines derive from the configuration and the arena
/// before timing starts ([`ManyCoreSim::setup`]): the section placement,
/// the freshly created NoC, the fork-site → created-section map and the
/// validated run's check report.
pub(crate) struct Setup {
    pub(crate) core_of: Vec<CoreId>,
    pub(crate) network: Network<SectionId>,
    pub(crate) created_by: HashMap<usize, SectionId>,
    pub(crate) check: Option<Box<CheckReport>>,
}

/// Classifies what a stalled control instruction is waiting on, for the
/// [`StallCause`] telemetry axis. `known` says whether the release cycle
/// was already resolved when the stall fired: a stall with an unknown
/// release parks its section and is woken by an explicit NoC-side
/// completion event, so an otherwise-local wait classifies as
/// [`StallCause::NocEjection`]. Register sources win over memory ones
/// (the fetch stage checks them first); [`StallCause::ForkCopy`] is
/// reserved — fork-copied sources are full at fetch by construction, so
/// today's traces never stall on one.
pub(crate) fn stall_cause(arena: &TraceArena, seq: usize, known: bool) -> StallCause {
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

    /// Simulates an arena-backed trace with the retained cycle-stepping
    /// reference loop instead of the event-driven engine. The two produce
    /// bit-identical [`SimResult`]s; the reference exists as the oracle
    /// for differential tests and benchmarks. The probe observes the run
    /// as in [`ManyCoreSim::simulate_arena_probed`] (pass [`NoopProbe`]
    /// for none).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for an invalid configuration.
    pub fn simulate_reference<P: SimProbe>(
        &self,
        arena: &TraceArena,
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        crate::reference::simulate(self, arena, probe)
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
    /// steer. Per-core event streams are identical across engines; only
    /// engine-specific gauges ([`SimProbe::on_tick`],
    /// [`SimProbe::on_walk`], [`SimProbe::on_drain_round`]) may differ
    /// between the event-driven and reference engines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for an invalid configuration.
    pub fn simulate_arena_probed<P: SimProbe>(
        &self,
        arena: &TraceArena,
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        let setup = self.setup(arena)?;
        self.run_event(arena, setup, probe)
    }

    /// The engine setup both engines run once before timing starts:
    /// validate the configuration, run the static analysis when
    /// [`SimConfig::validate`] is on, place the sections and build the
    /// NoC, and attach the configuration-aware verdicts to the check
    /// report.
    pub(crate) fn setup(&self, arena: &TraceArena) -> Result<Setup, SimError> {
        self.config.validate().map_err(SimError::Config)?;
        let mut check = self.precheck(arena)?;
        let core_of = self.place(arena)?;
        let network = Network::new(self.config.effective_topology(), self.config.noc);
        // Which section does each dynamic fork create?
        let created_by: HashMap<usize, SectionId> = arena
            .sections()
            .iter()
            .filter_map(|s| s.creator.map(|(_, fork_seq)| (fork_seq, s.id)))
            .collect();
        self.attach_verdicts(arena, check.as_deref_mut(), &core_of);
        Ok(Setup {
            core_of,
            network,
            created_by,
            check,
        })
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

    /// The event-driven engine.
    fn run_event<P: SimProbe>(
        &self,
        arena: &TraceArena,
        setup: Setup,
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        let sections = arena.sections();
        let n = arena.len();

        let Setup {
            core_of,
            mut network,
            created_by,
            check,
        } = setup;
        let mut resolver = Resolver::new(&self.config, arena, n);

        let mut chip = ChipState::new(self.config.cores, sections.len());
        let mut stalls = StallTable::new(sections.len());
        let mut cluster = Cluster::new(self.config.cores);
        let mut completions: Vec<(usize, u64)> = Vec::new();
        let mut delivered = Vec::new();
        let mut forced_stall_releases = 0u64;
        // Always-on cycle attribution: fed from the same deterministic
        // section/stall events as the probe, so it is bit-identical across
        // engines and probes.
        let mut attr = CycleAttribution::new(self.config.cores);

        // The initial section is live from cycle 0 on its core; its first
        // fetch happens at cycle 1.
        if !sections.is_empty() {
            let root_core = core_of[0].0;
            chip.current[root_core] = 0;
            chip.next_seq[root_core] = sections[0].start as u32;
            chip.sections_hosted[root_core] = 1;
            schedule(&mut chip, &mut cluster, root_core, 1);
            attr.begin_root(root_core);
            if P::ENABLED {
                probe.on_section_begin(root_core, 0, 0, false);
            }
        }

        let mut fetched = 0usize;
        let mut cycle: u64 = 0;
        let safety = 200 * n as u64 + 10_000;

        while fetched < n || resolver.resolved < n {
            // --- pick the next cycle with an event -----------------------
            let target = if cluster.running.is_empty() {
                let candidate = cluster
                    .wakes
                    .next_at()
                    .into_iter()
                    .chain(network.next_arrival())
                    .chain(stalls.next_requeue())
                    .min();
                match candidate {
                    Some(at) => at.max(cycle + 1),
                    None => {
                        // Nothing is scheduled, nothing is in flight and no
                        // requeue is pending. Under the handoff model every
                        // stall has a modeled release event, so this is a
                        // genuine deadlock (a malformed trace): the detector
                        // escapes by abandoning the parked stalls — counted,
                        // and surfaced as an error by the driver layer.
                        if !(fetched < n && stalls.parked() > 0) {
                            return Err(SimError::Diverged {
                                reason: "deadlocked with no pending event",
                                cycle,
                                resolved: resolver.resolved as u64,
                                instructions: n as u64,
                            });
                        }
                        cycle += 1;
                        if cycle >= safety {
                            return Err(SimError::Diverged {
                                reason: "did not converge",
                                cycle,
                                resolved: resolver.resolved as u64,
                                instructions: n as u64,
                            });
                        }
                        forced_stall_releases += stalls.force_release(cycle + 1, arena);
                        continue;
                    }
                }
            } else {
                // The run-list fast path: at least one core acts on the
                // very next cycle (queued events are never earlier).
                cycle + 1
            };
            cycle = target;
            if cycle >= safety {
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
                if chip.current[idx] == NO_SECTION && !chip.running[idx] {
                    // An idle core dequeues the resumed section this cycle.
                    schedule(&mut chip, &mut cluster, idx, cycle);
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
                if chip.current[idx] == NO_SECTION && !chip.running[idx] {
                    // An idle core dequeues the message this very cycle.
                    schedule(&mut chip, &mut cluster, idx, cycle);
                }
            }

            // --- fetch-decode phase: the walk ----------------------------
            // The walk steps the acting cores in ascending order and
            // buffers its effects on the resolver, the NoC, the stall
            // table and the attribution table; they are committed below
            // in the same order (see `crate::cluster`).
            if P::ENABLED {
                probe.on_tick(TickGauges {
                    cycle,
                    running: cluster.running.len as u64,
                    calendar_depth: cluster.wakes.len() as u64,
                    noc_in_flight: network.in_flight() as u64,
                    parked: stalls.parked() as u64,
                });
                probe.on_walk(cycle, cluster.running.len);
            }
            // The walk borrows the columns directly — no per-cycle
            // allocation on the hot loop.
            let (mut view, queue_next) = chip.view_all();
            let ctx = WalkCtx {
                arena,
                sections,
                created_by: &created_by,
                complete: &resolver.complete,
                resume_at: stalls.resume_points(),
                queue_next,
                fetch_stalls: self.config.fetch_stalls_on_unresolved_control,
                cycle,
            };
            walk_cluster(&mut cluster, &mut view, &ctx);
            // Commit the buffered effects in ascending core order:
            // fetches into the resolver, fork messages onto the NoC,
            // consumed resume points cleared, section lifetime events
            // into the attribution table and the probe.
            fetched += cluster.fetched.len();
            for &seq in &cluster.fetched {
                resolver.fetch(seq as usize, cycle);
            }
            cluster.fetched.clear();
            for &(src, child) in &cluster.sends {
                let child = SectionId(child as usize);
                let dst = core_of[child.0];
                network.send(CoreId(src as usize), dst, child, cycle);
                if P::ENABLED {
                    probe.on_noc_send(src as usize, dst.0, child.0 as u32, cycle);
                }
            }
            cluster.sends.clear();
            for &(core, sid, resumed) in &cluster.began {
                if resumed {
                    stalls.clear_resume(sid as usize);
                }
                attr.begin(core as usize, cycle);
                if P::ENABLED {
                    probe.on_section_begin(core as usize, sid, cycle, resumed);
                }
            }
            cluster.began.clear();
            for &(core, sid, with_fetch) in &cluster.ended {
                let core = core as usize;
                if with_fetch {
                    attr.end_fetch(core, cycle);
                } else {
                    attr.end_nofetch(core, cycle);
                }
                if P::ENABLED {
                    probe.on_section_end(core, sid, cycle, with_fetch);
                }
            }
            cluster.ended.clear();

            // --- dependence resolution -----------------------------------
            completions.clear();
            resolver.drain(&network, &core_of, &mut completions, cycle, probe);

            // A completion that a parked section stalls on is its modeled
            // release event: requeue the section on the first cycle after
            // both the completion is known and its cycle is past.
            if stalls.parked() > 0 {
                for &(seq, completion) in &completions {
                    if let Some(idx) = stalls.unpark(seq) {
                        stalls.push_requeue(
                            (cycle + 1).max(completion + 1),
                            idx,
                            arena.section(seq),
                        );
                    }
                }
            }
            // Dispatch the stalls created this cycle (all still in their
            // run lists): a known completion (possibly resolved within
            // this very cycle's drain) stalls in place until just past
            // it; an unknown one hands the core off to its queued
            // sections and parks.
            if !cluster.newly_stalled.is_empty() {
                let mut stalled = std::mem::take(&mut cluster.newly_stalled);
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
                                cluster.running.remove(&mut chip.running, idx);
                                chip.wake_at[idx] = wake;
                                cluster.wakes.push(wake, idx);
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
                            stalls.park(idx, &mut chip, seq);
                            if chip.queue_head[idx] == NO_SECTION {
                                cluster.running.remove(&mut chip.running, idx);
                            }
                        }
                    }
                }
                stalled.clear();
                cluster.newly_stalled = stalled;
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
            forced_stall_releases,
            check,
            attribution,
        )
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
    /// check, release builds included; the one-branch-per-instruction
    /// cost is negligible next to building the row).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        &self,
        arena: &TraceArena,
        resolver: Resolver<'_>,
        core_of: Vec<CoreId>,
        sections_hosted: &[usize],
        noc: NocStats,
        forced_stall_releases: u64,
        check: Option<Box<CheckReport>>,
        attribution: Vec<CoreBreakdown>,
    ) -> Result<SimResult, SimError> {
        let timings: Vec<InstTiming> = if self.config.record_timings {
            (0..arena.len())
                .map(|seq| {
                    let section = arena.section(seq);
                    let fd = resolver.fd[seq];
                    let ew = resolver.ew[seq];
                    let complete = resolver.complete[seq];
                    let ret = resolver.ret[seq];
                    if fd == UNKNOWN || ew == UNKNOWN || ret == UNKNOWN || complete >= INCOMPLETE {
                        return Err(SimError::Diverged {
                            reason: "left an instruction unresolved",
                            cycle: resolver.max_ret,
                            resolved: resolver.resolved as u64,
                            instructions: arena.len() as u64,
                        });
                    }
                    // `rr`/`ar`/`ma` are derived, not stored: renaming is
                    // the cycle after fetch, address-rename the cycle
                    // after execute, and the memory access completes the
                    // value.
                    let is_mem = arena.is_load(seq) || arena.is_store(seq);
                    Ok(InstTiming {
                        seq,
                        index_in_section: arena.index_in_section(seq),
                        ip: arena.ip(seq),
                        mnemonic: arena.mnemonic(seq),
                        section,
                        core: core_of[section.0],
                        fd,
                        rr: fd + 1,
                        ew,
                        ar: is_mem.then(|| ew + 1),
                        ma: is_mem.then_some(complete),
                        ret,
                    })
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };

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
            forced_stall_releases,
            peak_sections_per_core: sections_hosted.iter().copied().max().unwrap_or(0),
            trace_arena_bytes: arena.memory_bytes() as u64,
            noc,
            attribution,
        };

        debug_assert!(
            stats
                .attribution
                .iter()
                .all(|b| b.total() == stats.total_cycles),
            "a core's attribution buckets do not sum to total_cycles"
        );
        if let Some(bounds) = check.as_ref().and_then(|report| report.bounds.as_ref()) {
            // The static analyzer's critical path is a configuration-
            // independent lower bound on the retirement span; an engine
            // undercutting it has an optimistic-timing bug.
            debug_assert!(
                stats.total_cycles >= bounds.critical_path,
                "total_cycles {} undercuts the static critical path {}",
                stats.total_cycles,
                bounds.critical_path
            );
        }
        if let Some(schedule) = check.as_ref().and_then(|report| report.schedule.as_ref()) {
            // The lb sandwich: the config-aware bound must dominate the
            // config-independent one (it re-weights the same recurrences
            // with latencies ≥ the universal minimum) and the simulated
            // run must never undercut a certified bound.
            if let Some(bounds) = check.as_ref().and_then(|report| report.bounds.as_ref()) {
                debug_assert!(
                    schedule.lb >= bounds.critical_path,
                    "schedule lb {} undercuts the config-independent critical path {}",
                    schedule.lb,
                    bounds.critical_path
                );
            }
            debug_assert!(
                stats.total_cycles >= schedule.lb,
                "total_cycles {} undercuts the certified schedule bound {} ({} bound)",
                stats.total_cycles,
                schedule.lb,
                schedule.binding
            );
        }
        if let Some(progress) = check.as_ref().and_then(|report| report.progress.as_ref()) {
            // The no-false-proofs contract: the runtime deadlock detector
            // firing on a run the prover declared `Proven` means the
            // prover (or the placement it was fed) is lying.
            debug_assert!(
                !(stats.forced_stall_releases > 0 && progress.is_proven()),
                "the deadlock detector fired {} time(s) on a run proven to progress",
                stats.forced_stall_releases
            );
        }

        Ok(SimResult {
            outputs: arena.outputs().to_vec(),
            timings,
            timings_recorded: self.config.record_timings,
            sections: arena.sections().to_vec(),
            core_of,
            stats,
            check,
            fork_fallback: None,
        })
    }

    /// Delegates the section-to-core assignment to the configured
    /// [`crate::PlacementPolicy`] and validates its output. Policies that
    /// ask for them get the trace's cross-section dependences.
    fn place(&self, arena: &TraceArena) -> Result<Vec<CoreId>, SimError> {
        let sections = arena.sections();
        let chip = self.config.chip_view();
        let core_of = if self.config.placement.wants_dependences() {
            let deps = crate::SectionDeps::from_arena(sections.len(), arena);
            self.config
                .placement
                .assign_with_deps(sections, &chip, &deps)
        } else {
            self.config.placement.assign(sections, &chip)
        };
        if core_of.len() != sections.len() {
            return Err(SimError::Config(format!(
                "placement policy '{}' assigned {} cores for {} sections",
                self.config.placement.name(),
                core_of.len(),
                sections.len()
            )));
        }
        if let Some(bad) = core_of.iter().find(|c| c.0 >= self.config.cores) {
            return Err(SimError::Config(format!(
                "placement policy '{}' chose {bad} on a {}-core chip",
                self.config.placement.name(),
                self.config.cores
            )));
        }
        Ok(core_of)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_figure10;
    use parsecs_isa::Program;
    use parsecs_machine::TraceKind;

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
        assert_eq!(result.timings[0].fd, 1);
    }

    #[test]
    fn validated_runs_attach_identical_reports_on_both_engines() {
        let program = sum_fork_program(&[4, 2, 6, 4, 5]);
        let arena = arena_of(&program);
        let sim = ManyCoreSim::new(SimConfig::with_cores(8).validated());
        let validated = sim.simulate_arena(&arena).expect("simulates");
        let reference = sim
            .simulate_reference(&arena, &mut NoopProbe)
            .expect("simulates");
        assert_eq!(validated, reference);
        let report = validated.check.as_ref().expect("validated run");
        assert!(report.is_clean());
        assert!(report.drain.is_certified());
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
    fn validation_rejects_corrupt_arenas_with_a_typed_report() {
        use parsecs_trace::PackedDep;
        // A record claiming a producer at or past itself: a dependence
        // cycle the validator must catch before the engines run.
        let mut arena = TraceArena::new();
        let id = arena.intern_mnemonic("bogus");
        arena.begin_record(0, id, SectionId(0), TraceKind::Other, false, false, false);
        arena.push_dep(PackedDep::from_raw_parts(1, 0, 0));
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

    #[test]
    fn stage_cycles_are_monotone_within_an_instruction() {
        let result = sim_sum(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3], SimConfig::with_cores(16));
        for t in &result.timings {
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
        for t in &result.timings {
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
            let timings = result.section_timings(span.id);
            assert_eq!(timings.len(), span.len(), "{}", span.id);
            assert!(timings.iter().all(|t| t.section == span.id));
            assert_eq!(timings.first().map(|t| t.seq), Some(span.start));
            covered += timings.len();
        }
        assert_eq!(covered, result.timings.len());
        // A stats-only run has no rows to slice — empty view, no panic.
        let stats = sim_sum(&data, SimConfig::with_cores(16).stats_only());
        assert!(stats.section_timings(SectionId(0)).is_empty());
        // An id past the run's sections yields an empty view (the old
        // filter scan's behaviour), not a panic.
        assert!(result
            .section_timings(SectionId(result.sections.len()))
            .is_empty());
    }

    /// The tentpole contract of stats-only mode: every aggregate in
    /// `SimStats` is accumulated streaming and comes out bit-identical to
    /// the recording run, on both engines, with no stage table built.
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
            let stats_reference = stats_sim
                .simulate_reference(&arena, &mut NoopProbe)
                .expect("stats-only reference simulates");
            assert_eq!(stats, stats_reference, "engines diverge stats-only");
            assert_eq!(
                stats.stats, full.stats,
                "aggregates diverge at {cores} cores"
            );
            assert_eq!(stats.outputs, full.outputs);
            assert_eq!(stats.sections, full.sections);
            assert_eq!(stats.core_of, full.core_of);
            assert!(stats.timings.is_empty() && !stats.timings_recorded);
            assert!(full.timings_recorded);
            assert!(stats.sim_state_bytes() < full.sim_state_bytes());
        }
    }

    /// Both engines, both stats modes, zero instructions: the streaming
    /// accumulators and the post-hoc table derivation must agree that
    /// everything is zero (the old `unwrap_or(0)` fallback path).
    #[test]
    fn empty_traces_simulate_to_zeroed_stats_everywhere() {
        let empty = crate::StreamingSectioner::new()
            .finish(vec![])
            .expect("fits");
        let full_sim = ManyCoreSim::new(SimConfig::with_cores(4));
        let stats_sim = ManyCoreSim::new(SimConfig::with_cores(4).stats_only());
        let full = full_sim.simulate_arena(&empty).expect("simulates");
        assert_eq!(
            full,
            full_sim
                .simulate_reference(&empty, &mut NoopProbe)
                .expect("simulates")
        );
        let stats = stats_sim.simulate_arena(&empty).expect("simulates");
        assert_eq!(
            stats,
            stats_sim
                .simulate_reference(&empty, &mut NoopProbe)
                .expect("simulates")
        );
        assert_eq!(full.stats, stats.stats);
        assert_eq!(full.stats.instructions, 0);
        assert_eq!(full.stats.fetch_cycles, 0);
        assert_eq!(full.stats.total_cycles, 0);
        assert_eq!(full.stats.fetch_ipc, 0.0);
        assert_eq!(full.stats.retire_ipc, 0.0);
        assert_eq!(full.stats.forced_stall_releases, 0);
        assert!(full.timings.is_empty() && full.timings_recorded);
        assert!(full.outputs.is_empty());
        assert_eq!(full.total_bytes_per_instruction(), 0.0);
    }

    #[test]
    fn retirement_is_in_order_within_a_section() {
        let result = sim_sum(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], SimConfig::with_cores(16));
        for span in &result.sections {
            let timings = result.section_timings(span.id);
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
        assert_eq!(instruction_rows, result.timings.len());
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
        let program = parsecs_asm::assemble(
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
        slow.topology = Some(parsecs_noc::Topology::mesh(2, 2));
        slow.noc.base_latency = 9;
        slow.noc.per_hop_latency = 5;
        configs.push(slow);
        for config in configs {
            let sim = ManyCoreSim::new(config);
            let event = sim.simulate_arena(&arena).expect("simulates");
            let reference = sim
                .simulate_reference(&arena, &mut NoopProbe)
                .expect("reference simulates");
            assert_eq!(event, reference, "{:?}", sim.config());
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

    /// The tentpole contract: the event-driven engine and the retained
    /// cycle-stepping reference produce bit-identical results — the same
    /// per-instruction stage table, the same statistics, the same NoC
    /// counters — across workloads, chip sizes and configurations.
    #[test]
    fn event_driven_engine_matches_the_reference_bit_for_bit() {
        let data: Vec<u64> = (1..=40).collect();
        let program = sum_fork_program(&data);
        let arena = arena_of(&program);
        for cores in [1, 2, 3, 8, 64] {
            for placement_config in [
                SimConfig::with_cores(cores),
                SimConfig::with_cores(cores).with_placement(crate::Placement::LeastLoaded),
                SimConfig::with_cores(cores).with_placement(crate::LoadAware),
            ] {
                let sim = ManyCoreSim::new(placement_config);
                let event = sim.simulate_arena(&arena).expect("event-driven simulates");
                let reference = sim
                    .simulate_reference(&arena, &mut NoopProbe)
                    .expect("reference simulates");
                assert_eq!(
                    event,
                    reference,
                    "engines diverge at {cores} cores with {}",
                    sim.config().placement.name()
                );
            }
        }
    }

    #[test]
    fn engines_agree_under_hostile_configurations() {
        let data: Vec<u64> = (1..=24).collect();
        let program = sum_fork_program(&data);
        let arena = arena_of(&program);
        let mut configs = Vec::new();
        let mut bandwidth = SimConfig::with_cores(4);
        bandwidth.noc.link_bandwidth = Some(1);
        configs.push(bandwidth);
        let mut slow_noc = SimConfig::with_cores(6);
        slow_noc.noc.base_latency = 3;
        slow_noc.noc.per_hop_latency = 7;
        slow_noc.topology = Some(parsecs_noc::Topology::mesh(2, 3));
        configs.push(slow_noc);
        let mut tight = SimConfig::with_cores(3);
        tight.max_sections_per_core = 1;
        tight.per_section_hop = 4;
        configs.push(tight);
        let mut no_stall = SimConfig::with_cores(8);
        no_stall.fetch_stalls_on_unresolved_control = false;
        no_stall.dmh_latency = 9;
        configs.push(no_stall);
        for config in configs {
            let sim = ManyCoreSim::new(config);
            let event = sim.simulate_arena(&arena).expect("event-driven simulates");
            let reference = sim
                .simulate_reference(&arena, &mut NoopProbe)
                .expect("reference simulates");
            assert_eq!(event, reference, "{:?}", sim.config());
        }
    }

    /// The bridge the benchmark relies on: `threads` is ignored, so a run
    /// asking for two threads is the one-thread run, field for field, on
    /// both engines and in both stats modes, and carries no fallback.
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
            let event = two.simulate_arena(&arena).expect("simulates");
            assert_eq!(
                event,
                one.simulate_arena(&arena).expect("simulates"),
                "event engine, record_timings = {record_timings}"
            );
            let reference = two
                .simulate_reference(&arena, &mut NoopProbe)
                .expect("simulates");
            assert_eq!(
                reference,
                one.simulate_reference(&arena, &mut NoopProbe)
                    .expect("simulates"),
                "reference engine, record_timings = {record_timings}"
            );
            assert_eq!(event.fork_fallback, None);
            assert_eq!(reference.fork_fallback, None);
        }
    }
}
