//! Event scheduling and the fetch-decode walk of the event engine.
//!
//! A [`Cluster`] holds the chip's two-level calendar queue
//! ([`WakeQueue`]) and intrusive run list ([`RunList`]), and
//! [`walk_cluster`] steps the acting cores each simulated cycle through
//! a [`CoreView`] of the chip columns. The walk's effects outside those
//! columns — instruction fetches into the resolver, NoC section-creation
//! sends, resume-point clears, section begins and ends — are *buffered*
//! during the walk and committed by the orchestrator right after it, in
//! the walk's ascending core order:
//!
//! * a fetch's only same-cycle side effect on other cores is the tagged
//!   `complete[seq] = INCOMPLETE | cycle` write, and both `UNKNOWN` and
//!   that encoding sit at or above `INCOMPLETE`, so every same-cycle
//!   predicate (`completion()`, `fetch_computable`) reads them
//!   identically — deferring the write is invisible;
//! * NoC sends are committed in the walk's core order, preserving the
//!   link-bandwidth accounting order.

use std::collections::HashMap;

use parsecs_machine::TraceKind;
use parsecs_trace::TraceArena;

use crate::chip::{ChipState, CoreView, NO_SECTION, NO_STALL, NO_WAKE};
use crate::drain::{completion_of, fetch_computable};
use crate::{SectionId, SectionSpan};

/// Near-term window of the event scheduler's calendar queue, in cycles.
/// Almost every wake-up is `cycle + 1` (the fetch continuation each
/// instruction schedules) or `cycle + 2`; those land in a ring of vectors
/// instead of paying a binary-heap push per fetched instruction.
const NEAR_WINDOW: u64 = 8;

/// Two-level per-core wake-up queue: a calendar ring for events within
/// [`NEAR_WINDOW`] cycles of the clock and a binary heap for the far
/// future. Entries are `(cycle, core)`; an entry is *stale* when
/// the core's `wake_at` no longer matches (a sooner wake-up replaced it)
/// and is dropped when its cycle is visited. The clock never jumps past a
/// queued entry, so each ring slot only ever holds entries for the single
/// in-window cycle it maps to.
pub(crate) struct WakeQueue {
    near: [Vec<(u64, usize)>; NEAR_WINDOW as usize],
    far: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Number of entries across the `near` ring, so the common empty-ring
    /// case skips the slot scan.
    near_entries: usize,
    /// Current clock; all queued entries are at cycles `>= horizon`.
    horizon: u64,
}

impl WakeQueue {
    fn new() -> WakeQueue {
        WakeQueue {
            near: std::array::from_fn(|_| Vec::new()),
            far: std::collections::BinaryHeap::new(),
            near_entries: 0,
            horizon: 0,
        }
    }

    pub(crate) fn push(&mut self, at: u64, idx: usize) {
        debug_assert!(at >= self.horizon);
        if at < self.horizon + NEAR_WINDOW {
            self.near[(at % NEAR_WINDOW) as usize].push((at, idx));
            self.near_entries += 1;
        } else {
            self.far.push(std::cmp::Reverse((at, idx)));
        }
    }

    /// Number of queued entries (stale ones included) — the calendar
    /// depth gauge the probe layer samples.
    pub(crate) fn len(&self) -> usize {
        self.near_entries + self.far.len()
    }

    /// The earliest cycle holding a queued entry (possibly a stale one —
    /// visiting a stale cycle is a no-op that discards it).
    pub(crate) fn next_at(&self) -> Option<u64> {
        let mut best = self.far.peek().map(|&std::cmp::Reverse((at, _))| at);
        if self.near_entries > 0 {
            for cycle in self.horizon..self.horizon + NEAR_WINDOW {
                if !self.near[(cycle % NEAR_WINDOW) as usize].is_empty() {
                    best = Some(best.map_or(cycle, |b| b.min(cycle)));
                    break;
                }
            }
        }
        best
    }

    /// Advances the clock to `cycle`; subsequent pushes map into the ring
    /// relative to it.
    fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.horizon);
        self.horizon = cycle;
    }

    /// Drains every entry due at `cycle` into `due` (unsorted core
    /// indices; stale entries — whose core no longer wakes at `cycle` —
    /// are filtered by the caller's `wake_at` check).
    fn drain_due(&mut self, cycle: u64, due: &mut Vec<usize>) {
        if self.near_entries > 0 {
            let slot = &mut self.near[(cycle % NEAR_WINDOW) as usize];
            debug_assert!(slot.iter().all(|&(at, _)| at == cycle));
            self.near_entries -= slot.len();
            due.extend(slot.drain(..).map(|(_, idx)| idx));
        }
        while let Some(&std::cmp::Reverse((at, idx))) = self.far.peek() {
            if at > cycle {
                break;
            }
            self.far.pop();
            due.push(idx);
        }
    }
}

/// The sorted set of the cores that act on every cycle (fetching,
/// dequeuing, or releasing a next-cycle stall), kept as an intrusive
/// doubly-linked list over core indices so that the overwhelmingly
/// common case — a core fetching straight-line code — costs *zero*
/// scheduling work per cycle: the core simply stays in the list. Cores
/// join when a calendar wake-up makes them act and leave when they go
/// idle or wait on a far event.
pub(crate) struct RunList {
    head: usize,
    next: Vec<usize>,
    prev: Vec<usize>,
    pub(crate) len: usize,
    /// Whether `head`/`next`/`prev` reflect the membership flags. Dense
    /// cycles scan the core columns and skip link maintenance entirely
    /// (membership is just the per-core flag plus `len`); the links are
    /// rebuilt in one pass when a sparse cycle needs to walk them again.
    links_valid: bool,
}

pub(crate) const NO_CORE: usize = usize::MAX;

impl RunList {
    fn new(cores: usize) -> RunList {
        RunList {
            head: NO_CORE,
            next: vec![NO_CORE; cores],
            prev: vec![NO_CORE; cores],
            len: 0,
            links_valid: true,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops link maintenance until [`RunList::ensure_links`] (a dense
    /// cycle is about to mutate membership through the flags alone).
    fn invalidate_links(&mut self) {
        self.links_valid = false;
    }

    /// Rebuilds the links from the membership flags if needed.
    fn ensure_links(&mut self, running: &[bool]) {
        if self.links_valid {
            return;
        }
        self.head = NO_CORE;
        let mut last = NO_CORE;
        for (idx, &member) in running.iter().enumerate() {
            if member {
                self.prev[idx] = last;
                self.next[idx] = NO_CORE;
                if last == NO_CORE {
                    self.head = idx;
                } else {
                    self.next[last] = idx;
                }
                last = idx;
            }
        }
        self.links_valid = true;
    }

    /// Applies one walk's membership changes (`true` = join), given in
    /// strictly ascending core order, in a single forward pass: `after`
    /// (the last member known to precede the next change) only moves
    /// forward, so the batch costs O(changes + members passed over).
    fn apply(&mut self, running: &mut [bool], changes: &[(usize, bool)]) {
        debug_assert!(changes.windows(2).all(|w| w[0].0 < w[1].0));
        let mut after = NO_CORE;
        for &(idx, join) in changes {
            if !join {
                // A leave is O(1) and hands its predecessor to the cursor.
                if self.links_valid {
                    after = self.prev[idx];
                }
                self.remove(running, idx);
                continue;
            }
            debug_assert!(!running[idx]);
            running[idx] = true;
            self.len += 1;
            if !self.links_valid {
                continue;
            }
            let mut cursor = if after == NO_CORE {
                self.head
            } else {
                self.next[after]
            };
            while cursor != NO_CORE && cursor < idx {
                after = cursor;
                cursor = self.next[cursor];
            }
            self.next[idx] = cursor;
            self.prev[idx] = after;
            if cursor != NO_CORE {
                self.prev[cursor] = idx;
            }
            if after == NO_CORE {
                self.head = idx;
            } else {
                self.next[after] = idx;
            }
            after = idx;
        }
    }

    pub(crate) fn remove(&mut self, running: &mut [bool], idx: usize) {
        debug_assert!(running[idx]);
        running[idx] = false;
        self.len -= 1;
        if !self.links_valid {
            return;
        }
        let (p, n) = (self.prev[idx], self.next[idx]);
        if p == NO_CORE {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n != NO_CORE {
            self.prev[n] = p;
        }
    }
}

/// The event engine's schedule over the whole chip: its calendar queue,
/// run list, and per-cycle effect buffers.
pub(crate) struct Cluster {
    pub(crate) len: usize,
    pub(crate) wakes: WakeQueue,
    pub(crate) running: RunList,
    /// Calendar wake-ups due this cycle (drained at the top of the walk).
    due: Vec<usize>,
    /// Run-list membership changes deferred by the walk (`true` = join).
    membership: Vec<(usize, bool)>,
    /// Trace indices fetched this cycle, in walk (ascending core) order.
    pub(crate) fetched: Vec<u32>,
    /// `(source core, created section)` fork messages, in walk order —
    /// committed to the NoC in this order so the link-bandwidth
    /// accounting matches the reference engine's.
    pub(crate) sends: Vec<(u32, u32)>,
    /// `(core, section, resumed)` fetch-slot entries of this cycle, in
    /// walk order — every dequeue, fresh or resumed. A resumed entry's
    /// saved resume point was consumed by the walk (the deferred
    /// `StallTable::clear_resume`); the commit phase also feeds all
    /// entries to the cycle-attribution accumulator and the probe.
    pub(crate) began: Vec<(u32, u32, bool)>,
    /// `(core, section, fetched)` fetch-slot exits of this cycle, in walk
    /// order (`fetched` = the ending instruction was fetched this cycle;
    /// false only for the empty-section defensive path). Consumed by the
    /// commit phase for attribution and the probe.
    pub(crate) ended: Vec<(u32, u32, bool)>,
    /// Cores that entered a fetch stall this cycle; the post-drain
    /// dispatch parks or reschedules them.
    pub(crate) newly_stalled: Vec<u32>,
}

impl Cluster {
    pub(crate) fn new(cores: usize) -> Cluster {
        Cluster {
            len: cores,
            wakes: WakeQueue::new(),
            running: RunList::new(cores),
            due: Vec::new(),
            membership: Vec::new(),
            fetched: Vec::new(),
            sends: Vec::new(),
            began: Vec::new(),
            ended: Vec::new(),
            newly_stalled: Vec::new(),
        }
    }
}

/// Registers `at` as core `idx`'s next wake-up cycle (keeping the earlier
/// one when the core already has a sooner event).
pub(crate) fn schedule(chip: &mut ChipState, cluster: &mut Cluster, idx: usize, at: u64) {
    let existing = chip.wake_at[idx];
    if existing == NO_WAKE || existing > at {
        chip.wake_at[idx] = at;
        cluster.wakes.push(at, idx);
    }
}

/// The read-only inputs of one cycle's walk.
pub(crate) struct WalkCtx<'a> {
    pub(crate) arena: &'a TraceArena,
    pub(crate) sections: &'a [SectionSpan],
    pub(crate) created_by: &'a HashMap<usize, SectionId>,
    /// The resolver's tagged completion column (read-only this phase).
    pub(crate) complete: &'a [u64],
    /// The stall table's per-section resume points (clears deferred
    /// through the `begun` buffer).
    pub(crate) resume_at: &'a [usize],
    /// The intrusive ready-queue links (pops only read them).
    pub(crate) queue_next: &'a [u32],
    pub(crate) fetch_stalls: bool,
    pub(crate) cycle: u64,
}

/// The fetch-decode phase for one cycle: drains the due calendar
/// wake-ups, steps every acting core in ascending order (dense scan or
/// sparse run-list merge), buffers the effects outside the chip columns,
/// and applies the deferred run-list membership changes.
pub(crate) fn walk_cluster(cluster: &mut Cluster, view: &mut CoreView<'_>, ctx: &WalkCtx<'_>) {
    let cycle = ctx.cycle;
    cluster.wakes.advance_to(cycle);
    let mut due = std::mem::take(&mut cluster.due);
    due.clear();
    cluster.wakes.drain_due(cycle, &mut due);

    macro_rules! step_core {
        ($local:expr, $is_member:expr) => {{
            let local: usize = $local;
            let is_member: bool = $is_member;

            if view.current[local] == NO_SECTION {
                // Dequeuing the next ready section consumes this cycle;
                // fetch starts on the next one.
                let head = view.queue_head[local];
                if head != NO_SECTION {
                    view.queue_head[local] = ctx.queue_next[head as usize];
                    if view.queue_head[local] == NO_SECTION {
                        view.queue_tail[local] = NO_SECTION;
                    }
                    view.current[local] = head;
                    let resume = ctx.resume_at[head as usize];
                    view.next_seq[local] = if resume == usize::MAX {
                        cluster.began.push((local as u32, head, false));
                        ctx.sections[head as usize].start as u32
                    } else {
                        cluster.began.push((local as u32, head, true));
                        resume as u32
                    };
                    if !is_member {
                        cluster.membership.push((local, true));
                    }
                } else if is_member {
                    cluster.membership.push((local, false));
                }
                continue;
            }
            if view.stall_on[local] != NO_STALL {
                let stalled_on = view.stall_on[local] as usize;
                match completion_of(ctx.complete, stalled_on) {
                    Some(c) if c < cycle => {
                        view.stall_on[local] = NO_STALL;
                    }
                    Some(c) => {
                        // The stall releases once the control
                        // instruction's completion is past.
                        if c + 1 == cycle + 1 {
                            if !is_member {
                                cluster.membership.push((local, true));
                            }
                        } else {
                            if is_member {
                                cluster.membership.push((local, false));
                            }
                            view.wake_at[local] = c + 1;
                            cluster.wakes.push(c + 1, local);
                        }
                        continue;
                    }
                    // A stall with an unknown completion parks at the end
                    // of its stall cycle; it never holds the fetch slot
                    // across cycles.
                    None => unreachable!("an in-place stall has a known completion"),
                }
            }
            let sid = view.current[local] as usize;
            let span = &ctx.sections[sid];
            if view.next_seq[local] as usize >= span.end {
                view.current[local] = NO_SECTION;
                cluster.ended.push((local as u32, sid as u32, false));
                if view.queue_head[local] == NO_SECTION {
                    if is_member {
                        cluster.membership.push((local, false));
                    }
                } else if !is_member {
                    cluster.membership.push((local, true));
                }
                continue;
            }
            let seq = view.next_seq[local] as usize;
            let kind = ctx.arena.kind(seq);
            cluster.fetched.push(seq as u32);
            view.next_seq[local] += 1;

            // A fork sends a section-creation message to the host core of
            // the created section.
            if kind == TraceKind::Fork {
                if let Some(&child) = ctx.created_by.get(&seq) {
                    cluster.sends.push((local as u32, child.0 as u32));
                }
            }

            let ends_section = kind == TraceKind::EndFork
                || kind == TraceKind::Halt
                || view.next_seq[local] as usize >= span.end;
            if ends_section {
                view.current[local] = NO_SECTION;
                cluster.ended.push((local as u32, sid as u32, true));
                if view.queue_head[local] == NO_SECTION {
                    if is_member {
                        cluster.membership.push((local, false));
                    }
                } else if !is_member {
                    cluster.membership.push((local, true));
                }
            } else if ctx.fetch_stalls
                && ctx.arena.is_control(seq)
                && !fetch_computable(ctx.arena, seq, ctx.complete, cycle)
            {
                // The fetch stage could not compute this control
                // instruction (empty sources): the IP stays empty until
                // the instruction executes. Tentatively keep the core
                // running; the post-drain dispatch parks or reschedules
                // it if the stall spans cycles.
                view.stall_on[local] = seq as u32;
                cluster.newly_stalled.push(local as u32);
                if !is_member {
                    cluster.membership.push((local, true));
                }
            } else if !is_member {
                // Fetch continuation: members stay in the run list at
                // zero cost, joiners enter it.
                cluster.membership.push((local, true));
            }
        }};
    }

    if 2 * cluster.running.len >= cluster.len {
        // Dense path: most cores act every cycle, so a linear scan of the
        // columns (the reference loop's shape, minus the idle-core queue
        // probes) beats walking the list. Calendar wake-ups due now are
        // exactly the non-members whose `wake_at` matches, so the scan
        // covers them in index order and the drained entries are dropped.
        // Membership updates go through the flags alone; the links are
        // rebuilt when a sparse cycle next needs them.
        cluster.running.invalidate_links();
        for local in 0..cluster.len {
            let is_member = view.running[local];
            if !is_member {
                if view.wake_at[local] != cycle {
                    continue;
                }
                view.wake_at[local] = NO_WAKE;
            }
            step_core!(local, is_member);
        }
    } else {
        // Sparse path: walk the run-list members, merging in the calendar
        // wake-ups (rare) by a two-pointer pass.
        cluster.running.ensure_links(view.running);
        due.sort_unstable();
        let mut di = 0usize;
        let mut cursor = cluster.running.head;
        loop {
            // Pick the smaller of the next due core and the next member;
            // a due entry for a member is stale (skipped).
            let (local, is_member) = match (due.get(di), cursor) {
                (Some(&d), cur) if cur == NO_CORE || d <= cur => {
                    di += 1;
                    if view.wake_at[d] != cycle {
                        continue; // stale entry
                    }
                    view.wake_at[d] = NO_WAKE;
                    (d, false)
                }
                (_, cur) if cur != NO_CORE => {
                    cursor = cluster.running.next[cur];
                    (cur, true)
                }
                _ => break,
            };
            step_core!(local, is_member);
        }
    }
    due.clear();
    cluster.due = due;

    // Apply the walk's membership changes before anything after the walk
    // consults or edits the run list. Both walks emit them in ascending
    // core order.
    cluster.running.apply(view.running, &cluster.membership);
    cluster.membership.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(head, [(member, prev, next)])`: the links restricted to the
    /// members (a non-member's links are stale by design).
    fn member_links(list: &RunList, running: &[bool]) -> (usize, Vec<(usize, usize, usize)>) {
        let members = (0..running.len())
            .filter(|&idx| running[idx])
            .map(|idx| (idx, list.prev[idx], list.next[idx]))
            .collect();
        (list.head, members)
    }

    /// Applies `changes` and checks the links against a rebuild from the
    /// membership flags.
    fn apply_and_check(list: &mut RunList, running: &mut [bool], changes: &[(usize, bool)]) {
        list.apply(running, changes);
        let mut rebuilt = RunList::new(running.len());
        rebuilt.invalidate_links();
        rebuilt.ensure_links(running);
        assert_eq!(
            member_links(list, running),
            member_links(&rebuilt, running),
            "after {changes:?}"
        );
        assert_eq!(list.len, running.iter().filter(|&&m| m).count());
    }

    #[test]
    fn batched_apply_keeps_the_links_equal_to_a_rebuild() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for cores in [1usize, 2, 5, 16, 64] {
            let mut running = vec![false; cores];
            let mut list = RunList::new(cores);
            for _ in 0..400 {
                // Each core changes with probability 1/4, 1/2 or 3/4.
                let rate = 1 + below(3);
                let changes: Vec<(usize, bool)> = (0..cores)
                    .filter(|_| below(4) < rate)
                    .map(|idx| (idx, !running[idx]))
                    .collect();
                apply_and_check(&mut list, &mut running, &changes);
            }
        }
    }

    #[test]
    fn joins_around_the_ends_and_beside_leaves() {
        let mut running = vec![false; 10];
        let mut list = RunList::new(10);
        apply_and_check(&mut list, &mut running, &[(4, true), (6, true)]);
        // Before the head and after the tail.
        apply_and_check(&mut list, &mut running, &[(1, true), (9, true)]);
        // A join right before a leave, a leave then a join right after it.
        apply_and_check(
            &mut list,
            &mut running,
            &[(3, true), (4, false), (5, true), (6, false), (7, true)],
        );
        // The head leaves while a new head joins; the tail leaves.
        apply_and_check(
            &mut list,
            &mut running,
            &[(0, true), (1, false), (9, false)],
        );
        // Everyone leaves, then the list refills from empty.
        apply_and_check(
            &mut list,
            &mut running,
            &[(0, false), (3, false), (5, false), (7, false)],
        );
        assert_eq!(list.head, NO_CORE);
        apply_and_check(&mut list, &mut running, &[(2, true), (8, true)]);
    }
}
