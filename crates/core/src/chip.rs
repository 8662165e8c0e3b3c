//! Chip-wide per-core state in struct-of-arrays layout.
//!
//! [`ChipState`] stores each per-core field as one column indexed by core
//! id, and the per-core ready queue is an intrusive linked list threaded
//! through a per-*section* `queue_next` column (a section sits in at most
//! one core's queue at a time, so one link per section suffices — no
//! allocation, no `VecDeque`). Which cores act in a cycle is not a column
//! here: the schedule keeps it as a bitset.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use parsecs_trace::{AddrHasher, SectionId, SectionSpan};

/// Sentinel section id for "none" in the `u32` columns (`current`,
/// `stall_on`, the queue links). Valid ids stay below it: the arena's
/// column builder caps instruction (and therefore section) counts at
/// `u32` range.
pub(crate) const NO_SECTION: u32 = u32::MAX;

/// Sentinel for an empty `stall_on` slot (no in-place fetch stall).
pub(crate) const NO_STALL: u32 = u32::MAX;

/// Sentinel for "no outstanding wake-up event" in the `wake_at` column.
/// Simulated cycles are capped by the convergence guard far below it, so
/// it never collides with a real cycle.
pub(crate) const NO_WAKE: u64 = u64::MAX;

/// Per-core simulator state, one dense column per field (see the module
/// docs).
pub(crate) struct ChipState {
    /// Section currently owning each core's fetch stage (`NO_SECTION` =
    /// idle).
    pub(crate) current: Vec<u32>,
    /// Next trace index each core's fetch stage will fetch from
    /// `current`.
    pub(crate) next_seq: Vec<u32>,
    /// Trace index of the control instruction each core is stalled on in
    /// place (`NO_STALL` = not stalled).
    pub(crate) stall_on: Vec<u32>,
    /// Cycle of each core's outstanding wake-up event (`NO_WAKE` =
    /// none); the wake-up heap holds exactly one entry for it.
    pub(crate) wake_at: Vec<u64>,
    /// Total sections ever hosted (delivered) per core.
    pub(crate) sections_hosted: Vec<u32>,
    /// Head of each core's ready queue of delivered/requeued sections
    /// (`NO_SECTION` = empty).
    pub(crate) queue_head: Vec<u32>,
    /// Tail of each core's ready queue.
    pub(crate) queue_tail: Vec<u32>,
    /// Next link of the intrusive ready queues, indexed by *section* id:
    /// a section is in at most one queue at a time.
    pub(crate) queue_next: Vec<u32>,
}

impl ChipState {
    pub(crate) fn new(cores: usize, sections: usize) -> ChipState {
        ChipState {
            current: vec![NO_SECTION; cores],
            next_seq: vec![0; cores],
            stall_on: vec![NO_STALL; cores],
            wake_at: vec![NO_WAKE; cores],
            sections_hosted: vec![0; cores],
            queue_head: vec![NO_SECTION; cores],
            queue_tail: vec![NO_SECTION; cores],
            queue_next: vec![NO_SECTION; sections],
        }
    }

    /// Appends section `sid` to core `idx`'s ready queue.
    pub(crate) fn queue_push(&mut self, idx: usize, sid: u32) {
        self.queue_next[sid as usize] = NO_SECTION;
        if self.queue_tail[idx] == NO_SECTION {
            self.queue_head[idx] = sid;
        } else {
            self.queue_next[self.queue_tail[idx] as usize] = sid;
        }
        self.queue_tail[idx] = sid;
    }

    /// Pops the next ready section of core `idx`, if any.
    pub(crate) fn queue_pop(&mut self, idx: usize) -> Option<u32> {
        let head = self.queue_head[idx];
        if head == NO_SECTION {
            return None;
        }
        self.queue_head[idx] = self.queue_next[head as usize];
        if self.queue_head[idx] == NO_SECTION {
            self.queue_tail[idx] = NO_SECTION;
        }
        Some(head)
    }
}

/// The in-order fetch-stall handoff state.
///
/// A fetch stall whose control instruction has a *known* completion cycle
/// waits in place (the release event is already modeled). A stall whose
/// completion is still unknown **parks**: the section leaves the fetch
/// slot, registers here keyed on the stalled instruction, and the core
/// goes on to its queued sections. When the completion is discovered, a
/// requeue event — ordered by `(cycle, core, section)`, so the replay is
/// deterministic — returns the section to its core's ready queue
/// at the modeled release cycle (strictly after the completion, so the
/// resumed fetch never re-stalls on the same instruction).
pub(crate) struct StallTable {
    /// Core parked on each stalled trace index. A sparse map, not a
    /// per-instruction column: at most one section per core is parked at
    /// any moment, so the table holds at most `cores` entries — where the
    /// old `Vec<usize>` indexed by trace position cost 8 bytes per
    /// instruction (800 MB of a 100M-instruction run, almost all of it
    /// sentinels).
    parked_core: HashMap<u64, u32, BuildHasherDefault<AddrHasher>>,
    /// Per-section fetch resume point (`usize::MAX` = section start).
    resume_at: Vec<usize>,
    /// Pending `(cycle, core, section)` requeue events, earliest first.
    requeue: BinaryHeap<Reverse<(u64, usize, usize)>>,
}

impl StallTable {
    pub(crate) fn new(sections: usize) -> StallTable {
        StallTable {
            parked_core: HashMap::default(),
            resume_at: vec![usize::MAX; sections],
            requeue: BinaryHeap::new(),
        }
    }

    /// Number of currently parked sections.
    pub(crate) fn parked(&self) -> usize {
        self.parked_core.len()
    }

    /// The per-section resume points (`usize::MAX` = section start), so
    /// a dequeue can report whether [`StallTable::begin_section`] resumes.
    pub(crate) fn resume_points(&self) -> &[usize] {
        &self.resume_at
    }

    /// Makes `sid` the core's current section, resuming a parked section
    /// at its saved fetch point and a fresh one at its start (every
    /// dequeue of the walk).
    pub(crate) fn begin_section(
        &mut self,
        chip: &mut ChipState,
        idx: usize,
        sections: &[SectionSpan],
        sid: u32,
    ) {
        chip.current[idx] = sid;
        chip.next_seq[idx] = match std::mem::replace(&mut self.resume_at[sid as usize], usize::MAX)
        {
            usize::MAX => sections[sid as usize].start as u32,
            resume => resume as u32,
        };
    }

    /// Parks the core's current section on its stalled control
    /// instruction `seq`: the section leaves the fetch slot and will be
    /// requeued when `seq`'s completion is discovered.
    pub(crate) fn park(&mut self, idx: usize, chip: &mut ChipState, seq: usize) {
        let sid = chip.current[idx];
        debug_assert_ne!(sid, NO_SECTION, "a stalled core runs a section");
        chip.current[idx] = NO_SECTION;
        debug_assert_eq!(chip.stall_on[idx], seq as u32);
        debug_assert_eq!(chip.next_seq[idx] as usize, seq + 1);
        chip.stall_on[idx] = NO_STALL;
        self.resume_at[sid as usize] = chip.next_seq[idx] as usize;
        let previous = self.parked_core.insert(seq as u64, idx as u32);
        debug_assert!(previous.is_none(), "one section parks per instruction");
    }

    /// If a section is parked on `seq`, removes it from the park list and
    /// returns its core.
    pub(crate) fn unpark(&mut self, seq: usize) -> Option<usize> {
        self.parked_core
            .remove(&(seq as u64))
            .map(|idx| idx as usize)
    }

    /// Schedules section `sid` to rejoin core `idx`'s ready queue at
    /// cycle `at`.
    pub(crate) fn push_requeue(&mut self, at: u64, idx: usize, sid: SectionId) {
        self.requeue.push(Reverse((at, idx, sid.0)));
    }

    /// The earliest pending requeue cycle.
    pub(crate) fn next_requeue(&self) -> Option<u64> {
        self.requeue.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Pops the next requeue event due at or before `cycle`.
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<(usize, SectionId)> {
        match self.requeue.peek() {
            Some(&Reverse((at, idx, sid))) if at <= cycle => {
                debug_assert_eq!(at, cycle, "requeue events are never skipped");
                self.requeue.pop();
                Some((idx, SectionId(sid)))
            }
            _ => None,
        }
    }
}
