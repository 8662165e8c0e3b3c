//! Exact per-core cycle attribution.
//!
//! [`CycleAttribution`] replays the per-core section/stall event stream
//! (begin, end, in-place stall, park, requeue) into an additive per-core
//! breakdown of the whole run: every cycle in `1..=total_cycles` lands in
//! exactly one bucket — fetching (`busy`), waiting in place on a known
//! completion (`stalled`, split by [`StallCause`]), hosting only a parked
//! section (`parked`), or `idle`. The accumulator costs O(events), not
//! O(cycles): between events a core's state is constant, so the gap is
//! attributed in one subtraction.
//!
//! Bucket precedence for gap cycles is busy > parked > idle: a core
//! fetching one section while another of its sections is parked counts as
//! busy.
//!
//! The event stream is deterministic, so attribution is computed *always
//! on* — it is part of `SimStats`, rather than being probe-gated, and the
//! workspace's timing oracle tallies the same buckets one cycle at a
//! time.

use crate::probe::StallCause;

/// Additive breakdown of one core's cycles over a whole run.
///
/// `busy + stalled.iter().sum() + parked + idle == total_cycles` on every
/// well-formed run (asserted by the differential tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreBreakdown {
    /// Cycles with an instruction fetch (or a section dequeue) occupying
    /// the fetch slot.
    pub busy: u64,
    /// Cycles waiting in place on a known completion, by [`StallCause`]
    /// (indexed by [`StallCause::index`]).
    pub stalled: [u64; StallCause::COUNT],
    /// Cycles with no section in the fetch slot but at least one section
    /// parked on this core awaiting its stall's completion.
    pub parked: u64,
    /// Cycles with no section in the fetch slot and nothing parked.
    pub idle: u64,
}

impl CoreBreakdown {
    /// Total cycles waiting in place across all causes.
    pub fn stalled_total(&self) -> u64 {
        self.stalled.iter().sum()
    }

    /// Sum of all buckets (equals the run's `total_cycles`).
    pub fn total(&self) -> u64 {
        self.busy + self.stalled_total() + self.parked + self.idle
    }
}

/// Per-core accumulator state between events.
#[derive(Debug, Clone, Copy)]
struct CoreCursor {
    /// The next cycle not yet attributed. Cycles are `1..=total_cycles`.
    next: u64,
    /// Whether a section occupies the fetch slot (gap cycles are busy).
    fetching: bool,
    /// Number of sections parked on this core (gap cycles are parked
    /// when non-zero and not fetching).
    parked_depth: u32,
}

/// Streams per-core section/stall events into [`CoreBreakdown`]s.
///
/// Event cycles must be non-decreasing per core (they are: the
/// requeue/deliver/walk/dispatch phases of a cycle touch a core in
/// program order). Cross-core interleaving is irrelevant — the
/// accumulator is per-core.
#[derive(Debug, Clone)]
pub struct CycleAttribution {
    cores: Vec<CoreCursor>,
    acc: Vec<CoreBreakdown>,
}

impl CycleAttribution {
    /// A fresh accumulator for `cores` cores, at cycle 1, all idle.
    pub fn new(cores: usize) -> Self {
        CycleAttribution {
            cores: vec![
                CoreCursor {
                    next: 1,
                    fetching: false,
                    parked_depth: 0,
                };
                cores
            ],
            acc: vec![CoreBreakdown::default(); cores],
        }
    }

    /// Number of cores tracked (the attribution denominator).
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Attributes `[next, to)` to the core's current gap bucket.
    fn advance(&mut self, core: usize, to: u64) {
        let state = &mut self.cores[core];
        if to <= state.next {
            return;
        }
        let gap = to - state.next;
        state.next = to;
        let acc = &mut self.acc[core];
        if state.fetching {
            acc.busy += gap;
        } else if state.parked_depth > 0 {
            acc.parked += gap;
        } else {
            acc.idle += gap;
        }
    }

    /// The root section enters its core's fetch slot before cycle 1
    /// without consuming a dequeue cycle.
    pub fn begin_root(&mut self, core: usize) {
        self.cores[core].fetching = true;
    }

    /// A section was dequeued into the fetch slot at `cycle` (the
    /// dequeue consumes the cycle; fetch starts next cycle).
    pub fn begin(&mut self, core: usize, cycle: u64) {
        self.advance(core, cycle);
        self.acc[core].busy += 1;
        let state = &mut self.cores[core];
        state.next = cycle + 1;
        state.fetching = true;
    }

    /// The section left the fetch slot at `cycle` with its ending
    /// instruction fetched this cycle.
    pub fn end_fetch(&mut self, core: usize, cycle: u64) {
        self.advance(core, cycle);
        self.acc[core].busy += 1;
        let state = &mut self.cores[core];
        state.next = cycle + 1;
        state.fetching = false;
    }

    /// The section left the fetch slot at `cycle` without a fetch (the
    /// empty-section defensive path; consumes no cycle).
    pub fn end_nofetch(&mut self, core: usize, cycle: u64) {
        self.advance(core, cycle);
        self.cores[core].fetching = false;
    }

    /// The instruction fetched at `cycle` stalled in place on a known
    /// completion `completes`; fetch resumes at `max(cycle, completes) + 1`.
    pub fn stall(&mut self, core: usize, cycle: u64, completes: u64, cause: StallCause) {
        self.advance(core, cycle);
        let acc = &mut self.acc[core];
        acc.busy += 1;
        acc.stalled[cause.index()] += completes.saturating_sub(cycle);
        // The fetch slot stays occupied through the wait and fetching
        // resumes right after it, so `fetching` stays true.
        self.cores[core].next = cycle.max(completes) + 1;
    }

    /// The section parked at `cycle` on an unknown completion; the fetch
    /// slot is handed to the core's queued sections.
    pub fn park(&mut self, core: usize, cycle: u64) {
        self.advance(core, cycle);
        self.acc[core].busy += 1;
        let state = &mut self.cores[core];
        state.next = cycle + 1;
        state.fetching = false;
        state.parked_depth += 1;
    }

    /// A parked section rejoined the core's ready queue at `cycle`.
    pub fn requeue(&mut self, core: usize, cycle: u64) {
        self.advance(core, cycle);
        let state = &mut self.cores[core];
        debug_assert!(state.parked_depth > 0, "requeue pairs with a park");
        state.parked_depth = state.parked_depth.saturating_sub(1);
    }

    /// Attributes every core's tail gap through `total_cycles` and
    /// returns the per-core breakdowns.
    pub fn finish(mut self, total_cycles: u64) -> Vec<CoreBreakdown> {
        for core in 0..self.cores.len() {
            self.advance(core, total_cycles + 1);
        }
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_core_attributes_everything_idle() {
        let attr = CycleAttribution::new(2);
        let breakdown = attr.finish(10);
        assert_eq!(breakdown[0].idle, 10);
        assert_eq!(breakdown[1].idle, 10);
        assert_eq!(breakdown[0].total(), 10);
    }

    #[test]
    fn begin_fetch_end_splits_busy_and_idle() {
        let mut attr = CycleAttribution::new(1);
        // Dequeue at 3, fetch 4..=7, ending fetch at 7.
        attr.begin(0, 3);
        attr.end_fetch(0, 7);
        let b = attr.finish(10)[0];
        assert_eq!(b.busy, 5, "dequeue cycle 3 + fetches 4..=7");
        assert_eq!(b.idle, 5, "cycles 1,2,8,9,10");
        assert_eq!(b.total(), 10);
    }

    #[test]
    fn in_place_stall_attributes_wait_by_cause() {
        let mut attr = CycleAttribution::new(1);
        attr.begin_root(0);
        // Fetch 1..=3; the cycle-3 fetch stalls until its producer
        // completes at 6; fetch resumes 7..=8 and the section ends at 8.
        attr.stall(0, 3, 6, StallCause::RemoteRegister);
        attr.end_fetch(0, 8);
        let b = attr.finish(8)[0];
        assert_eq!(b.busy, 5, "fetches at 1,2,3,7,8");
        assert_eq!(b.stalled[StallCause::RemoteRegister.index()], 3, "4..=6");
        assert_eq!(b.idle, 0);
        assert_eq!(b.total(), 8);
    }

    #[test]
    fn stall_completing_in_the_past_waits_zero_cycles() {
        let mut attr = CycleAttribution::new(1);
        attr.begin_root(0);
        attr.stall(0, 5, 4, StallCause::Local);
        attr.end_fetch(0, 6);
        let b = attr.finish(6)[0];
        assert_eq!(b.busy, 6);
        assert_eq!(b.stalled_total(), 0);
        assert_eq!(b.total(), 6);
    }

    #[test]
    fn park_and_requeue_attribute_parked_gap() {
        let mut attr = CycleAttribution::new(1);
        attr.begin_root(0);
        // Fetches 1..=2, parks at 2; requeued at 7, dequeued same cycle,
        // fetches 8..=9, ends at 9.
        attr.park(0, 2);
        attr.requeue(0, 7);
        attr.begin(0, 7);
        attr.end_fetch(0, 9);
        let b = attr.finish(10)[0];
        assert_eq!(b.busy, 5, "1,2 then dequeue 7 then 8,9");
        assert_eq!(b.parked, 4, "3..=6");
        assert_eq!(b.idle, 1, "10");
        assert_eq!(b.total(), 10);
    }

    #[test]
    fn busy_takes_precedence_over_parked() {
        let mut attr = CycleAttribution::new(1);
        attr.begin_root(0);
        // Section A parks at 2; section B dequeues at 3 and runs to 6;
        // A requeues at 9.
        attr.park(0, 2);
        attr.begin(0, 3);
        attr.end_fetch(0, 6);
        attr.requeue(0, 9);
        let b = attr.finish(10)[0];
        assert_eq!(b.busy, 6, "1,2 + dequeue 3 + 4..=6");
        assert_eq!(b.parked, 2, "7,8 waiting on the parked section");
        assert_eq!(b.idle, 2, "9 (queued, not dequeued here) and 10");
        assert_eq!(b.total(), 10);
    }

    #[test]
    fn two_parked_sections_stay_parked_until_the_last_requeue() {
        let mut attr = CycleAttribution::new(1);
        attr.begin_root(0);
        attr.park(0, 1);
        attr.begin(0, 2);
        attr.park(0, 3);
        attr.requeue(0, 5);
        attr.requeue(0, 8);
        let b = attr.finish(10)[0];
        assert_eq!(b.busy, 3, "1, dequeue 2, fetch-and-park 3");
        assert_eq!(b.parked, 4, "4, then 5..=7 with one section still parked");
        assert_eq!(b.idle, 3, "8,9,10");
        assert_eq!(b.total(), 10);
    }
}
