//! The retained cycle-stepping reference simulator.
//!
//! This is the original timing loop of [`crate::ManyCoreSim`]: the chip
//! advances one cycle at a time and every core is visited every cycle —
//! apply due stall-handoff requeues, deliver section-creation messages,
//! fetch one instruction per active core, resolve dependences, and park
//! the fetch stalls whose release cycle is still unknown.
//!
//! The fetch-stall semantics are the in-order handoff model shared with
//! the event-driven engine through [`crate::chip::StallTable`]: a stall
//! with a known completion waits in place and releases just past it; a
//! stall with an unknown completion parks its section and hands the core
//! to its queued sections, to be requeued by an explicit event when the
//! completion is discovered. A forced release can only happen through the
//! deadlock *detector* (a malformed trace); it is counted in
//! [`crate::SimStats::forced_stall_releases`] and surfaced as an error by
//! the driver layer.
//!
//! The event-driven engine in [`crate::sim`] replaces this loop on the hot
//! path, but the loop is kept (over the shared [`crate::chip::ChipState`]
//! columns, [`crate::drain::Resolver`] and the same [`TraceArena`]) as the
//! oracle: differential tests and the `repro_perf` benchmark assert that
//! both engines produce bit-identical [`crate::SimResult`]s.

use parsecs_machine::TraceKind;
use parsecs_noc::CoreId;
use parsecs_obs::{CycleAttribution, SimProbe, TickGauges};
use parsecs_trace::TraceArena;

use crate::chip::{ChipState, StallTable, NO_SECTION, NO_STALL};
use crate::drain::{fetch_computable, Resolver};
use crate::sim::{stall_cause, Setup};
use crate::{ManyCoreSim, SimError, SimResult};

/// Simulates an arena-backed trace by stepping the chip one cycle at a
/// time (see the module docs). The probe sees the same event sequence as
/// the event engine's; only the per-cycle tick and walk gauges are
/// engine-specific views.
pub(crate) fn simulate<P: SimProbe>(
    sim: &ManyCoreSim,
    arena: &TraceArena,
    probe: &mut P,
) -> Result<SimResult, SimError> {
    let config = sim.config();
    // The same setup as the event engine, so [`SimResult`]s stay
    // bit-identical — including the attached progress and schedule
    // verdicts.
    let Setup {
        core_of,
        mut network,
        created_by,
        check,
    } = sim.setup(arena)?;
    let sections = arena.sections();
    let n = arena.len();
    let mut resolver = Resolver::new(config, arena, n);
    let mut chip = ChipState::new(config.cores, sections.len());
    let mut stalls = StallTable::new(sections.len());
    let mut completions: Vec<(usize, u64)> = Vec::new();
    let mut newly_stalled: Vec<usize> = Vec::new();
    let mut forced_stall_releases = 0u64;
    // Always-on cycle attribution, fed from the same deterministic
    // section/stall events as the event engine's (see `crate::sim`).
    let mut attr = CycleAttribution::new(config.cores);

    // The initial section is live from cycle 0 on its core.
    if !sections.is_empty() {
        let root_core = core_of[0].0;
        chip.current[root_core] = 0;
        chip.next_seq[root_core] = sections[0].start as u32;
        chip.sections_hosted[root_core] = 1;
        attr.begin_root(root_core);
        if P::ENABLED {
            probe.on_section_begin(root_core, 0, 0, false);
        }
    }

    let mut cycle: u64 = 0;
    let safety = 200 * n as u64 + 10_000;

    while resolver.fetched < n || resolver.resolved < n {
        cycle += 1;
        if cycle >= safety {
            return Err(SimError::Diverged {
                reason: "did not converge",
                cycle,
                resolved: resolver.resolved as u64,
                instructions: n as u64,
            });
        }
        let progress_before = resolver.fetched + resolver.resolved;

        // Parked sections whose stall released rejoin their ready queue.
        while let Some((idx, sid)) = stalls.pop_due(cycle) {
            chip.queue_push(idx, sid.0 as u32);
            attr.requeue(idx, cycle);
            if P::ENABLED {
                probe.on_section_requeue(idx, sid.0 as u32, cycle);
            }
        }

        // Section-creation messages arriving this cycle.
        for envelope in network.deliver(cycle) {
            chip.queue_push(envelope.dst.0, envelope.payload.0 as u32);
            chip.sections_hosted[envelope.dst.0] += 1;
            if P::ENABLED {
                probe.on_noc_deliver(envelope.dst.0, envelope.payload.0 as u32, cycle);
            }
        }

        if P::ENABLED {
            // The reference's per-cycle gauges: it walks every core every
            // cycle with no calendar queue, so `running` counts the cores
            // holding a section and `calendar_depth` is zero — the gauges
            // are engine-specific views, unlike the section/stall events.
            let running = (0..config.cores)
                .filter(|&c| chip.current[c] != NO_SECTION)
                .count();
            probe.on_tick(TickGauges {
                cycle,
                running: running as u64,
                calendar_depth: 0,
                noc_in_flight: network.in_flight() as u64,
                parked: stalls.parked() as u64,
            });
            probe.on_walk(cycle, running);
        }

        // Fetch-decode: one instruction per core per cycle.
        for core_index in 0..config.cores {
            if chip.current[core_index] == NO_SECTION {
                // Dequeuing the next ready section consumes this cycle;
                // fetch starts on the next one.
                if let Some(next) = chip.queue_pop(core_index) {
                    let resumed = stalls.resume_points()[next as usize] != usize::MAX;
                    stalls.begin_section(&mut chip, core_index, sections, next);
                    attr.begin(core_index, cycle);
                    if P::ENABLED {
                        probe.on_section_begin(core_index, next, cycle, resumed);
                    }
                }
                continue;
            }
            if chip.stall_on[core_index] != NO_STALL {
                match resolver.completion(chip.stall_on[core_index] as usize) {
                    Some(c) if c < cycle => chip.stall_on[core_index] = NO_STALL,
                    Some(_) => continue,
                    // A stall with an unknown completion parks at the end
                    // of its stall cycle; it never holds the fetch slot
                    // across cycles.
                    None => unreachable!("an in-place stall has a known completion"),
                }
            }
            let sid = chip.current[core_index] as usize;
            let span = &sections[sid];
            if chip.next_seq[core_index] as usize >= span.end {
                chip.current[core_index] = NO_SECTION;
                attr.end_nofetch(core_index, cycle);
                if P::ENABLED {
                    probe.on_section_end(core_index, sid as u32, cycle, false);
                }
                continue;
            }
            let seq = chip.next_seq[core_index] as usize;
            let kind = arena.kind(seq);
            resolver.fetch(seq, cycle);
            chip.next_seq[core_index] += 1;

            // A fork sends a section-creation message to the host core
            // of the created section.
            if kind == TraceKind::Fork {
                if let Some(&child) = created_by.get(&(seq as u64)) {
                    let dst = core_of[child.0];
                    network.send(CoreId(core_index), dst, child, cycle);
                    if P::ENABLED {
                        probe.on_noc_send(core_index, dst.0, child.0 as u32, cycle);
                    }
                }
            }

            let ends_section = kind == TraceKind::EndFork
                || kind == TraceKind::Halt
                || chip.next_seq[core_index] as usize >= span.end;
            if ends_section {
                chip.current[core_index] = NO_SECTION;
                attr.end_fetch(core_index, cycle);
                if P::ENABLED {
                    probe.on_section_end(core_index, sid as u32, cycle, true);
                }
            } else if config.fetch_stalls_on_unresolved_control
                && arena.is_control(seq)
                && !fetch_computable(arena, seq, &resolver.complete, cycle)
            {
                // The fetch stage could not compute this control
                // instruction (empty sources): the IP stays empty until
                // the instruction executes.
                chip.stall_on[core_index] = seq as u32;
                newly_stalled.push(core_index);
            }
        }

        // Dependence resolution (the engine shared with the event-driven
        // simulator; the reference never forks it).
        completions.clear();
        resolver.drain(&network, &core_of, &mut completions, cycle, probe);

        // A completion that a parked section stalls on is its modeled
        // release event: requeue the section on the first cycle after both
        // the completion is known and its cycle is past.
        // Sections park only on control instructions (the walk stalls on
        // nothing else), so no other completion probes the park table.
        if stalls.parked() > 0 {
            for &(seq, completion) in &completions {
                if !arena.is_control(seq) {
                    continue;
                }
                if let Some(idx) = stalls.unpark(seq) {
                    stalls.push_requeue((cycle + 1).max(completion + 1), idx, arena.section(seq));
                }
            }
        }
        // Dispatch the stalls created this cycle: a known completion
        // (possibly resolved within this very cycle's drain) stalls in
        // place — the per-cycle check above releases it once its cycle is
        // past — while an unknown one hands the core off to its queued
        // sections and parks.
        for idx in newly_stalled.drain(..) {
            if chip.stall_on[idx] == NO_STALL {
                continue;
            }
            let seq = chip.stall_on[idx] as usize;
            match resolver.completion(seq) {
                Some(c) => {
                    // Waits in place; the per-cycle check above releases
                    // it — and resumes the fetch — just past `c`.
                    attr.stall(idx, cycle, c, stall_cause(arena, seq, true));
                    if P::ENABLED {
                        probe.on_fetch_stall(
                            idx,
                            seq,
                            stall_cause(arena, seq, true),
                            cycle,
                            (cycle + 1).max(c + 1),
                        );
                    }
                }
                None => {
                    // `park` clears the core's current section, so read
                    // the section id for the probe first.
                    let sid = chip.current[idx];
                    attr.park(idx, cycle);
                    if P::ENABLED {
                        probe.on_section_park(idx, sid, seq, cycle, stall_cause(arena, seq, false));
                    }
                    debug_assert!(arena.is_control(seq), "only a control instruction parks");
                    stalls.park(idx, &mut chip, seq);
                }
            }
        }

        // Deadlock detector. Under the handoff model every stall has a
        // modeled release event, so a cycle can only make no progress with
        // nothing in flight, nothing queued and no requeue pending if the
        // trace is malformed. The detector escapes by abandoning the
        // parked stalls (the branches resolve out of order in the execute
        // stage) and counts the firing; the driver layer surfaces any
        // non-zero count as an error.
        if resolver.fetched + resolver.resolved == progress_before
            && stalls.parked() > 0
            && resolver.fetched < n
            && network.in_flight() == 0
            && !stalls.pending_requeues()
            && (0..config.cores)
                .all(|c| chip.current[c] == NO_SECTION && chip.queue_head[c] == NO_SECTION)
        {
            forced_stall_releases += stalls.force_release(cycle + 1, arena);
        }
    }

    let hosted: Vec<usize> = chip.sections_hosted.iter().map(|&h| h as usize).collect();
    let attribution = attr.finish(resolver.max_ret);
    sim.finish(
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
