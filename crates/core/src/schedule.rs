//! Event scheduling and the fetch-decode walk of the event engine.
//!
//! In the paper's chip each core either fetches one instruction in a
//! cycle or waits, so the cores that act in a cycle are one bit per core.
//! A [`Schedule`] keeps that set ([`CoreSet`], one `u64` word per 64
//! cores) and one binary heap of wake-ups, and [`walk`] steps the set's
//! cores each simulated cycle in ascending core order. Each step applies
//! its effects where they happen: the fetch goes into the resolver, a
//! fork's section-creation message onto the NoC, a dequeue through
//! [`ChipState::queue_pop`] and [`StallTable::begin_section`], and
//! section begins and ends into the attribution table and the probe. A
//! step flips only its own core's bit, and the walk reads each word once
//! before it steps that word's cores, so a core that leaves still
//! finishes this cycle's walk and is gone from the next one.
//!
//! A fetch writes the tagged `complete[seq] = INCOMPLETE | cycle` at
//! once. No other core's same-cycle predicate
//! ([`Resolver::completion`], `fetch_computable`) can tell it from the
//! `UNKNOWN` it replaces: both sit at or above `INCOMPLETE`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parsecs_machine::TraceKind;
use parsecs_noc::{CoreId, Network};
use parsecs_obs::{CycleAttribution, SimProbe};
use parsecs_trace::TraceArena;

use crate::chip::{ChipState, StallTable, NO_SECTION, NO_STALL, NO_WAKE};
use crate::drain::{fetch_computable, Resolver};
use crate::sim::ForkMap;
use crate::SectionId;

/// A set of cores, one bit per core in `u64` words (16 words on 1024
/// cores).
pub(crate) struct CoreSet {
    words: Vec<u64>,
}

impl CoreSet {
    fn new(cores: usize) -> CoreSet {
        CoreSet {
            words: vec![0; cores.div_ceil(64)],
        }
    }

    pub(crate) fn contains(&self, idx: usize) -> bool {
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    fn insert(&mut self, idx: usize) {
        self.words[idx / 64] |= 1 << (idx % 64);
    }

    pub(crate) fn remove(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1 << (idx % 64));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    pub(crate) fn len(&self) -> usize {
        self.words
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }
}

/// The event engine's schedule over the whole chip: the cores that act
/// and the wake-ups of those that wait.
pub(crate) struct Schedule {
    /// Cores that act on every cycle until they leave: fetching,
    /// dequeuing, or releasing a next-cycle stall. A core joins when its
    /// wake-up falls due and leaves when it goes idle or waits on a
    /// later event, so a core fetching straight-line code costs no
    /// scheduling work.
    pub(crate) acting: CoreSet,
    /// Pending `(cycle, core)` wake-ups, earliest first. An entry is
    /// *stale* when the core's `wake_at` no longer matches it (a sooner
    /// wake-up replaced it); it is dropped when it falls due.
    wakes: BinaryHeap<Reverse<(u64, usize)>>,
    /// Cores that entered a fetch stall this cycle; the post-drain
    /// dispatch parks or reschedules them.
    pub(crate) newly_stalled: Vec<u32>,
}

impl Schedule {
    pub(crate) fn new(cores: usize) -> Schedule {
        Schedule {
            acting: CoreSet::new(cores),
            wakes: BinaryHeap::new(),
            newly_stalled: Vec::new(),
        }
    }

    /// Registers `at` as core `idx`'s next wake-up cycle (keeping the
    /// earlier one when the core already has a sooner event).
    pub(crate) fn wake(&mut self, chip: &mut ChipState, idx: usize, at: u64) {
        let existing = chip.wake_at[idx];
        if existing == NO_WAKE || existing > at {
            chip.wake_at[idx] = at;
            self.wakes.push(Reverse((at, idx)));
        }
    }

    /// Takes core `idx` out of the acting set until cycle `at`.
    pub(crate) fn sleep(&mut self, chip: &mut ChipState, idx: usize, at: u64) {
        self.acting.remove(idx);
        chip.wake_at[idx] = at;
        self.wakes.push(Reverse((at, idx)));
    }

    /// Number of pending wake-ups, stale ones included.
    pub(crate) fn pending(&self) -> usize {
        self.wakes.len()
    }

    /// The earliest pending wake-up cycle (possibly a stale one: visiting
    /// it only drops the entry).
    pub(crate) fn next_wake(&self) -> Option<u64> {
        self.wakes.peek().map(|&Reverse((at, _))| at)
    }
}

/// One cycle's walk: the chip columns it steps and the state its effects
/// go to, borrowed from the event loop.
pub(crate) struct Walk<'w, 'a, P> {
    pub(crate) cycle: u64,
    pub(crate) arena: &'a TraceArena,
    pub(crate) chip: &'w mut ChipState,
    pub(crate) stalls: &'w mut StallTable,
    pub(crate) resolver: &'w mut Resolver<'a>,
    pub(crate) network: &'w mut Network<SectionId>,
    pub(crate) attr: &'w mut CycleAttribution,
    pub(crate) probe: &'w mut P,
    pub(crate) created_by: &'w ForkMap,
    pub(crate) core_of: &'w [CoreId],
    pub(crate) fetch_stalls: bool,
}

impl<P: SimProbe> Walk<'_, '_, P> {
    /// Steps core `idx` for this cycle and applies its effects. Returns
    /// whether the core acts again next cycle; a core waiting on a later
    /// stall release is put to sleep until it instead.
    #[inline(always)]
    fn step(&mut self, idx: usize, schedule: &mut Schedule) -> bool {
        let (cycle, arena) = (self.cycle, self.arena);
        let chip = &mut *self.chip;
        if chip.current[idx] == NO_SECTION {
            // Dequeuing the next ready section consumes this cycle;
            // fetch starts on the next one.
            let Some(sid) = chip.queue_pop(idx) else {
                return false;
            };
            let resumed = self.stalls.resume_points()[sid as usize] != usize::MAX;
            self.stalls.begin_section(chip, idx, arena.sections(), sid);
            self.attr.begin(idx, cycle);
            if P::ENABLED {
                self.probe.on_section_begin(idx, sid, cycle, resumed);
            }
            return true;
        }
        if chip.stall_on[idx] != NO_STALL {
            // The stall releases once the control instruction's
            // completion is past.
            match self.resolver.completion(chip.stall_on[idx] as usize) {
                Some(c) if c < cycle => chip.stall_on[idx] = NO_STALL,
                Some(c) if c == cycle => return true,
                Some(c) => {
                    schedule.sleep(chip, idx, c + 1);
                    return false;
                }
                // A stall with an unknown completion parks at the end of
                // its stall cycle; it never holds the fetch slot across
                // cycles.
                None => unreachable!("an in-place stall has a known completion"),
            }
        }
        let sid = chip.current[idx];
        let end = arena.sections()[sid as usize].end;
        if chip.next_seq[idx] as usize >= end {
            chip.current[idx] = NO_SECTION;
            self.attr.end_nofetch(idx, cycle);
            if P::ENABLED {
                self.probe.on_section_end(idx, sid, cycle, false);
            }
            return chip.queue_head[idx] != NO_SECTION;
        }
        let seq = chip.next_seq[idx] as usize;
        let kind = arena.kind(seq);
        self.resolver.fetch(seq, cycle);
        chip.next_seq[idx] += 1;

        // A fork sends a section-creation message to the host core of the
        // created section.
        if kind == TraceKind::Fork {
            if let Some(&child) = self.created_by.get(&(seq as u64)) {
                let dst = self.core_of[child.0];
                self.network.send(CoreId(idx), dst, child, cycle);
                if P::ENABLED {
                    self.probe.on_noc_send(idx, dst.0, child.0 as u32, cycle);
                }
            }
        }

        if kind == TraceKind::EndFork || kind == TraceKind::Halt || seq + 1 >= end {
            chip.current[idx] = NO_SECTION;
            self.attr.end_fetch(idx, cycle);
            if P::ENABLED {
                self.probe.on_section_end(idx, sid, cycle, true);
            }
            return chip.queue_head[idx] != NO_SECTION;
        }
        if self.fetch_stalls
            && arena.is_control(seq)
            && !fetch_computable(arena, seq, &self.resolver.complete, cycle)
        {
            // The fetch stage could not compute this control instruction
            // (empty sources): the IP stays empty until the instruction
            // executes. The core keeps acting for now; the post-drain
            // dispatch parks or reschedules it if the stall spans cycles.
            chip.stall_on[idx] = seq as u32;
            schedule.newly_stalled.push(idx as u32);
        }
        true
    }
}

/// The fetch-decode phase for one cycle: the wake-ups due now join the
/// acting set, then every acting core steps in ascending order, applying
/// its effects in place. A core that stops acting leaves the set.
pub(crate) fn walk<P: SimProbe>(schedule: &mut Schedule, mut w: Walk<'_, '_, P>) {
    let cycle = w.cycle;
    while let Some(&Reverse((at, idx))) = schedule.wakes.peek() {
        if at > cycle {
            break;
        }
        schedule.wakes.pop();
        if w.chip.wake_at[idx] == cycle {
            w.chip.wake_at[idx] = NO_WAKE;
            schedule.acting.insert(idx);
        }
    }
    for slot in 0..schedule.acting.words.len() {
        // A copy: a step that clears its core's bit in the set leaves
        // this cycle's walk as it was.
        let mut word = schedule.acting.words[slot];
        while word != 0 {
            let idx = slot * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if !w.step(idx, schedule) {
                schedule.acting.remove(idx);
            }
        }
    }
}
