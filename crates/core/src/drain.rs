//! The completion drain: the engine's dependence resolution.
//!
//! Stage timestamps are pure functions of the fetch cycles and the
//! producers' completion cycles, so resolution runs ahead of the clock:
//! [`Resolver::drain`] computes every timestamp that has become
//! computable and parks the rest in producer→consumer wait cells — no
//! instruction is ever rescanned while its inputs are still unknown.
//!
//! The drain is **batched**: each round takes the whole pending set — the
//! cycle's fetches first, then the consumers woken by the previous
//! round's completions — sorts it, and resolves each instruction in
//! ascending trace order with one in-place sweep of its packed dep slice
//! ([`Resolver::resolve`]).
//!
//! Every per-instruction cycle the resolver stores is a `u32` inside the
//! **cycle domain** `0..CYCLE_LIMIT` (2^30), and every wait-cell index
//! lies in `0..CELL_LIMIT` (one less): both share the low 30 bits of a
//! `complete` entry with its two tag bits. Arithmetic stays in `u64`;
//! each stored value is checked with one comparison ([`in_domain`]), and
//! a run that would leave the domain is refused as
//! [`SimError::CapacityExceeded`]. The benchmark's longest run ends at
//! 143,027 cycles, under 2^18.

use parsecs_noc::{CoreId, Network};
use parsecs_obs::SimProbe;
use parsecs_trace::{SectionId, SourceKind, TraceArena};

use crate::{SimConfig, SimError};

/// The exclusive bound of the cycle domain (see the module docs): every
/// cycle the resolver stores lies below it.
pub(crate) const CYCLE_LIMIT: u64 = 1 << 30;

/// The exclusive bound of a wait-cell index: one below [`CYCLE_LIMIT`],
/// because the entry of cell `2^30 − 1`, `INCOMPLETE | WAITED | PAYLOAD`,
/// is [`UNKNOWN`].
const CELL_LIMIT: u64 = CYCLE_LIMIT - 1;

/// Sentinel for a cycle that has not been computed yet (the resolver's
/// columns are flat `u32`s instead of `Option<u64>`s, and the timing
/// columns `rr`/`ar`/`ma` are derived rather than stored).
pub(crate) const UNKNOWN: u32 = u32::MAX;

/// Tag bit of the resolver's `complete` column: an entry at or above this
/// value is *not yet complete*. A fetched-but-unresolved instruction
/// stores `INCOMPLETE | fetch_cycle`, so the column doubles as the fetch
/// record and the resolver needs no separate per-instruction `fd` column
/// in stats-only runs (every stored cycle lies in the cycle domain, below
/// 2^30, so bits 30 and 31 are free for the tags). `UNKNOWN` (all ones)
/// also has the bit set: a never-fetched instruction is "not complete"
/// under the same test.
pub(crate) const INCOMPLETE: u32 = 1 << 31;

/// Second tag bit of an incomplete `complete` entry: some consumer waits
/// on this producer, and the entry is `INCOMPLETE | WAITED | cell`, where
/// `cell` (the low 30 bits, [`PAYLOAD`]) indexes the producer's
/// [`WaitCell`], which holds its fetch cycle. `UNKNOWN` has the bit set
/// too, so only an entry other than `UNKNOWN` names a cell.
const WAITED: u32 = 1 << 30;

/// The low 30 bits of an incomplete entry: a fetch cycle, or a cell.
const PAYLOAD: u32 = WAITED - 1;

/// `value` as a stored `u32` payload when it lies below `limit`
/// ([`CYCLE_LIMIT`] for a cycle, [`CELL_LIMIT`] for a wait cell);
/// otherwise the refusal [`SimError::CapacityExceeded`], naming
/// `resource` (`"cycles"` or `"wait cells"`) and `limit`.
#[inline(always)]
pub(crate) fn in_domain(value: u64, limit: u64, resource: &'static str) -> Result<u32, SimError> {
    if value < limit {
        Ok(value as u32)
    } else {
        Err(out_of_domain(limit, resource))
    }
}

#[cold]
fn out_of_domain(limit: u64, resource: &'static str) -> SimError {
    SimError::CapacityExceeded { resource, limit }
}

/// Empty waiter list, and the end of a free list.
const NIL: u32 = u32::MAX;

/// The wait state of one incomplete producer that a consumer waits on.
struct WaitCell {
    /// The producer's fetch cycle, `UNKNOWN` until it is fetched.
    fetch: u32,
    /// The first link of its waiters (`NIL` = none); the next free cell
    /// while the cell is free.
    head: u32,
}

/// One parked consumer in its producer's waiter list.
struct WaitLink {
    waiter: u32,
    /// The next link of the same list; the next free link while free.
    next: u32,
}

/// The consumers parked on incomplete producers, held only while they
/// wait. A consumer waits on at most one producer at a time, so the pool
/// holds one link per waiting consumer and one cell per producer waited
/// on; both are recycled through free lists, so the pool's size follows
/// the instructions in flight, not the length of the run.
struct WaitPool {
    cells: Vec<WaitCell>,
    links: Vec<WaitLink>,
    free_cell: u32,
    free_link: u32,
    /// Cells in use.
    live: usize,
}

impl WaitPool {
    fn new() -> WaitPool {
        WaitPool {
            cells: Vec::new(),
            links: Vec::new(),
            free_cell: NIL,
            free_link: NIL,
            live: 0,
        }
    }

    /// The cell an incomplete `complete` entry names, if any.
    #[inline]
    fn cell_of(entry: u32) -> Option<usize> {
        (entry & WAITED != 0 && entry != UNKNOWN).then_some((entry & PAYLOAD) as usize)
    }

    /// Parks `waiter` on the producer whose incomplete `complete` entry is
    /// `entry`, opening the producer's cell on its first waiter. Returns
    /// the producer's new entry, or the refusal of a cell index past the
    /// cycle domain.
    fn park(&mut self, entry: u32, waiter: u32) -> Result<u32, SimError> {
        let cell = match WaitPool::cell_of(entry) {
            Some(cell) => cell,
            None => self.open(if entry == UNKNOWN {
                UNKNOWN
            } else {
                entry & PAYLOAD
            })?,
        };
        let link = WaitLink {
            waiter,
            next: self.cells[cell].head,
        };
        let index = if self.free_link == NIL {
            self.links.push(link);
            self.links.len() - 1
        } else {
            let index = self.free_link as usize;
            self.free_link = self.links[index].next;
            self.links[index] = link;
            index
        };
        self.cells[cell].head = index as u32;
        Ok(INCOMPLETE | WAITED | cell as u32)
    }

    /// A fresh cell with no waiters. Only a cell past the pool's end is
    /// checked against the domain: a recycled one already passed.
    fn open(&mut self, fetch: u32) -> Result<usize, SimError> {
        let cell = WaitCell { fetch, head: NIL };
        let index = if self.free_cell == NIL {
            in_domain(self.cells.len() as u64, CELL_LIMIT, "wait cells")?;
            self.cells.push(cell);
            self.cells.len() - 1
        } else {
            let index = self.free_cell as usize;
            self.free_cell = self.cells[index].head;
            self.cells[index] = cell;
            index
        };
        self.live += 1;
        Ok(index)
    }

    /// Queues every waiter of `cell` and frees the cell and its links.
    fn release(&mut self, cell: usize, queue: &mut Vec<u32>) {
        let mut link = self.cells[cell].head;
        while link != NIL {
            let index = link as usize;
            queue.push(self.links[index].waiter);
            link = std::mem::replace(&mut self.links[index].next, self.free_link);
            self.free_link = index as u32;
        }
        self.cells[cell].head = self.free_cell;
        self.free_cell = cell as u32;
        self.live -= 1;
    }
}

/// The engine's dependence resolution.
///
/// The always-resident per-instruction state is **one** tagged `u32`
/// column (4 B/instruction): the `complete` column holds
/// `INCOMPLETE | fetch_cycle` between fetch and resolution and the
/// completion cycle after, `rr` is always `fd + 1`, `ar` always `ew + 1`,
/// and `ma` always the completion cycle of a memory instruction. A
/// producer that consumers wait on holds `INCOMPLETE | WAITED | cell`
/// instead, and its wait cell keeps the fetch cycle beside the waiters
/// ([`WaitPool`], sized by the waits in flight). The `fd`/`ew`/`ret`
/// stage columns (another 12 B/instruction) are only kept when the run
/// records the per-row stage table, which takes them over with
/// `complete` when the run finishes ([`Resolver::into_stage_columns`]);
/// stats-only runs skip them and accumulate `max_fd`/`max_ret`
/// streaming. Retirement is in order within a section, so it needs no
/// per-instruction bookkeeping either: a per-*section* cursor
/// (`retire_next`, `retire_last`) cascades over the completed prefix of
/// the section.
pub(crate) struct Resolver<'a> {
    config: &'a SimConfig,
    arena: &'a TraceArena,
    /// Whether the per-instruction stage columns (`fd`/`ew`/`ret`) are
    /// kept for the reported timing table.
    record: bool,
    fd: Vec<u32>,
    ew: Vec<u32>,
    ret: Vec<u32>,
    pub(crate) complete: Vec<u32>,
    /// The consumers waiting on incomplete producers.
    waits: WaitPool,
    /// Per-section retirement cursor: the next trace index to retire.
    retire_next: Vec<u32>,
    /// Per-section retirement cursor: the previous retirement cycle.
    retire_last: Vec<u64>,
    /// Instructions ready for a resolution attempt (newly fetched, or
    /// woken by a completion discovered in the current drain round).
    queue: Vec<u32>,
    /// Scratch for the drain's batched rounds.
    batch: Vec<u32>,
    /// Instructions fetched so far.
    pub(crate) fetched: usize,
    /// Latest fetch cycle seen (streaming `SimStats::fetch_cycles`).
    pub(crate) max_fd: u64,
    /// Latest retirement cycle seen (streaming `SimStats::total_cycles`).
    pub(crate) max_ret: u64,
    pub(crate) resolved: usize,
    pub(crate) remote_register_requests: u64,
    pub(crate) remote_memory_requests: u64,
    pub(crate) fork_copied_sources: u64,
    pub(crate) dmh_accesses: u64,
}

impl<'a> Resolver<'a> {
    pub(crate) fn new(config: &'a SimConfig, arena: &'a TraceArena, n: usize) -> Resolver<'a> {
        let record = config.record_timings;
        let sections = arena.sections();
        Resolver {
            config,
            arena,
            record,
            fd: if record { vec![UNKNOWN; n] } else { Vec::new() },
            ew: if record { vec![UNKNOWN; n] } else { Vec::new() },
            ret: if record { vec![UNKNOWN; n] } else { Vec::new() },
            complete: vec![UNKNOWN; n],
            waits: WaitPool::new(),
            retire_next: sections.iter().map(|s| s.start as u32).collect(),
            retire_last: vec![0; sections.len()],
            queue: Vec::new(),
            batch: Vec::new(),
            fetched: 0,
            max_fd: 0,
            max_ret: 0,
            resolved: 0,
            remote_register_requests: 0,
            remote_memory_requests: 0,
            fork_copied_sources: 0,
            dmh_accesses: 0,
        }
    }

    /// Hands the `[fd, ew, ret, complete]` columns over to the stage
    /// table, dropping the rest of the resolver state (the `fd`/`ew`/`ret`
    /// columns are empty unless the run records timings).
    pub(crate) fn into_stage_columns(self) -> [Vec<u32>; 4] {
        [self.fd, self.ew, self.ret, self.complete]
    }

    /// Whether a consumer is still parked on an incomplete producer.
    pub(crate) fn has_waiters(&self) -> bool {
        self.waits.live > 0
    }

    /// Records the fetch of `seq` at `cycle` and queues it for resolution.
    /// A producer that consumers already wait on keeps its entry, and
    /// its cell takes the cycle. The event loop's clock guard keeps
    /// `cycle` inside the cycle domain, so the fetch needs no check of
    /// its own.
    pub(crate) fn fetch(&mut self, seq: usize, cycle: u64) {
        debug_assert!(cycle < CYCLE_LIMIT, "the clock guard bounds fetch cycles");
        let stored = cycle as u32;
        let entry = self.complete[seq];
        match WaitPool::cell_of(entry) {
            Some(cell) => {
                debug_assert_eq!(self.waits.cells[cell].fetch, UNKNOWN, "fetched once");
                self.waits.cells[cell].fetch = stored;
            }
            None => {
                debug_assert_eq!(entry, UNKNOWN, "fetched once");
                self.complete[seq] = INCOMPLETE | stored;
            }
        }
        if self.record {
            self.fd[seq] = stored;
        }
        if cycle > self.max_fd {
            self.max_fd = cycle;
        }
        self.fetched += 1;
        self.queue.push(seq as u32);
    }

    /// The completion cycle of `seq`, if already resolved.
    #[inline]
    pub(crate) fn completion(&self, seq: usize) -> Option<u64> {
        match self.complete[seq] {
            cycle if cycle < INCOMPLETE => Some(u64::from(cycle)),
            _ => None,
        }
    }

    /// Latency of one leg (request or response) of a renaming exchange
    /// between the consumer's and the producer's cores, including the
    /// optional per-intermediate-section charge for the backward walk.
    fn request_latency(
        &self,
        network: &Network<SectionId>,
        consumer: CoreId,
        producer: CoreId,
        consumer_section: SectionId,
        producer_section: SectionId,
    ) -> u64 {
        let gap = consumer_section
            .0
            .saturating_sub(producer_section.0)
            .saturating_sub(1) as u64;
        network.latency(consumer, producer) + self.config.per_section_hop * gap
    }

    /// Resolves everything that has become computable, in two decoupled
    /// steps.
    ///
    /// Step 1 (value completion): an instruction's result becomes
    /// available as soon as its own sources are — it does *not* wait for
    /// older instructions of its section to retire. This is the
    /// out-of-order execute/memory behaviour of the paper's core.
    ///
    /// Step 2 (retirement): retirement is in order within a section, so
    /// the retire cycle additionally waits for the previous instruction's
    /// retire cycle; a per-section cursor cascades over the completed
    /// prefix ([`Resolver::advance_retirement`]).
    ///
    /// Every newly computed completion is appended to `completions` as
    /// `(seq, completion_cycle)` so the event-driven scheduler can wake
    /// fetch stages stalled on that value.
    ///
    /// `cycle` is the simulated cycle being drained and `probe` observes
    /// each round's width plus section retirements.
    ///
    /// Returns [`SimError::CapacityExceeded`] when a completion or a
    /// retirement cycle, or a new wait cell, would leave the cycle domain.
    pub(crate) fn drain<P: SimProbe>(
        &mut self,
        network: &Network<SectionId>,
        core_of: &[CoreId],
        completions: &mut Vec<(usize, u64)>,
        cycle: u64,
        probe: &mut P,
    ) -> Result<(), SimError> {
        let mut round_index = 0usize;
        while !self.queue.is_empty() {
            let mut batch = std::mem::take(&mut self.batch);
            std::mem::swap(&mut self.queue, &mut batch);
            batch.sort_unstable();
            if P::ENABLED {
                probe.on_drain_round(cycle, round_index, batch.len());
            }
            for &seq in &batch {
                self.resolve(seq as usize, network, core_of, completions, probe)?;
            }
            round_index += 1;
            batch.clear();
            self.batch = batch;
        }
        Ok(())
    }

    /// Parks `seq` on the incomplete producer `dep`, whose `complete`
    /// entry is `entry`.
    #[inline]
    fn register_waiter(&mut self, seq: usize, dep: usize, entry: u32) -> Result<(), SimError> {
        self.complete[dep] = self.waits.park(entry, seq as u32)?;
        Ok(())
    }

    /// One resolution attempt: a single forward sweep over `seq`'s packed
    /// dep slice. At the first incomplete producer it parks `seq` in that
    /// producer's wait cell and changes nothing else — the renaming
    /// counters are tallied in locals, so a retry never double-counts.
    /// Otherwise it writes the stage cycles, the counters and the
    /// completion in place, queues the woken consumers for the next
    /// round (breadth-first, not depth-first) and runs the retirement
    /// cascade.
    fn resolve<P: SimProbe>(
        &mut self,
        seq: usize,
        network: &Network<SectionId>,
        core_of: &[CoreId],
        completions: &mut Vec<(usize, u64)>,
        probe: &mut P,
    ) -> Result<(), SimError> {
        let arena = self.arena;
        let tagged = self.complete[seq];
        debug_assert!(
            tagged >= INCOMPLETE && tagged != UNKNOWN,
            "queued instructions are fetched and unresolved"
        );
        let my_fd = u64::from(if tagged & WAITED != 0 {
            self.waits.cells[(tagged & PAYLOAD) as usize].fetch
        } else {
            tagged & PAYLOAD
        });
        let my_section = arena.section(seq);
        let my_rr = my_fd + 1;
        let my_core = core_of[my_section.0];

        let mut remote_reg = 0u32;
        let mut fork_copied = 0u32;
        let mut reg_ready = 0u64;
        let mut available_at_fetch = true;
        for dep in arena.reg_sources(seq) {
            let t = match dep.kind() {
                SourceKind::ForkCopy => {
                    fork_copied += 1;
                    0
                }
                SourceKind::InitialRegister | SourceKind::InitialMemory => 0,
                SourceKind::Local { producer } => match self.complete[producer] {
                    c if c >= INCOMPLETE => return self.register_waiter(seq, producer, c),
                    c => {
                        let c = u64::from(c);
                        if c > my_fd {
                            available_at_fetch = false;
                        }
                        c
                    }
                },
                SourceKind::Remote { producer } => {
                    available_at_fetch = false;
                    let c = match self.complete[producer] {
                        c if c >= INCOMPLETE => return self.register_waiter(seq, producer, c),
                        c => u64::from(c),
                    };
                    remote_reg += 1;
                    let producer_section = arena.section(producer);
                    let hop = self.request_latency(
                        network,
                        my_core,
                        core_of[producer_section.0],
                        my_section,
                        producer_section,
                    );
                    c.max(my_rr + hop) + hop
                }
            };
            reg_ready = reg_ready.max(t);
        }

        let is_mem = arena.is_load(seq) || arena.is_store(seq);
        let my_ew = if !is_mem && available_at_fetch && reg_ready <= my_fd {
            // Computed directly in the fetch-decode stage.
            my_fd
        } else {
            reg_ready.max(my_rr) + 1
        };

        let mut remote_mem = 0u32;
        let mut dmh = 0u32;
        let completion = if is_mem {
            let a = my_ew + 1;
            let mut mem_ready = a + 1;
            for dep in arena.mem_sources(seq) {
                let t = match dep.kind() {
                    SourceKind::InitialMemory => {
                        dmh += 1;
                        a + self.config.dmh_latency
                    }
                    SourceKind::Local { producer } => match self.complete[producer] {
                        c if c >= INCOMPLETE => return self.register_waiter(seq, producer, c),
                        c => u64::from(c).max(a + 1),
                    },
                    SourceKind::Remote { producer } => {
                        let c = match self.complete[producer] {
                            c if c >= INCOMPLETE => return self.register_waiter(seq, producer, c),
                            c => u64::from(c),
                        };
                        remote_mem += 1;
                        let producer_section = arena.section(producer);
                        let hop = self.request_latency(
                            network,
                            my_core,
                            core_of[producer_section.0],
                            my_section,
                            producer_section,
                        );
                        c.max(a + hop) + hop
                    }
                    SourceKind::ForkCopy | SourceKind::InitialRegister => a + 1,
                };
                mem_ready = mem_ready.max(t);
            }
            // `ar`/`ma` are derived at reporting time: `ar` is `ew + 1`
            // and `ma` is this completion cycle.
            mem_ready
        } else {
            my_ew
        };

        // `ew` never exceeds the completion, so one check covers both.
        let stored = in_domain(completion, CYCLE_LIMIT, "cycles")?;
        if self.record {
            self.ew[seq] = my_ew as u32;
        }
        self.complete[seq] = stored;
        self.remote_register_requests += u64::from(remote_reg);
        self.remote_memory_requests += u64::from(remote_mem);
        self.fork_copied_sources += u64::from(fork_copied);
        self.dmh_accesses += u64::from(dmh);
        completions.push((seq, completion));
        if tagged & WAITED != 0 {
            self.waits
                .release((tagged & PAYLOAD) as usize, &mut self.queue);
        }
        self.advance_retirement(seq, probe)
    }

    /// Step 2 of dependence resolution: in-order retirement within a
    /// section. When `seq` is its section's next-to-retire, retires it
    /// and cascades over the already-complete successors — each retired
    /// instruction's cycle is `max(completion, previous retirement) + 1`.
    /// The cascade replaces per-instruction successor bookkeeping with a
    /// per-section cursor and feeds the streaming `max_ret` accumulator.
    /// Retirement cycles grow along the cascade, so checking its last
    /// one against the cycle domain covers every one it stored.
    fn advance_retirement<P: SimProbe>(
        &mut self,
        seq: usize,
        probe: &mut P,
    ) -> Result<(), SimError> {
        let sid = self.arena.section(seq).0;
        if self.retire_next[sid] as usize != seq {
            return Ok(());
        }
        let end = self.arena.sections()[sid].end;
        let mut cursor = seq;
        let mut last = self.retire_last[sid];
        while cursor < end {
            let completion = self.complete[cursor];
            if completion >= INCOMPLETE {
                break;
            }
            last = u64::from(completion).max(last) + 1;
            if self.record {
                self.ret[cursor] = last as u32;
            }
            self.resolved += 1;
            cursor += 1;
        }
        in_domain(last, CYCLE_LIMIT, "cycles")?;
        self.retire_next[sid] = cursor as u32;
        self.retire_last[sid] = last;
        if last > self.max_ret {
            self.max_ret = last;
        }
        // The cascade crosses a section's end at most once (later calls
        // early-return on the cursor), so this fires exactly once per
        // non-empty section, at its last instruction's retirement cycle.
        if P::ENABLED && cursor == end {
            probe.on_section_retire(sid as u32, last);
        }
        Ok(())
    }
}

/// Whether a control instruction can be computed by the fetch-decode stage
/// at fetch time: all of its register/flags sources are already full in the
/// local register file (fork-copied, initial, or produced locally and
/// complete no later than the fetch cycle). The `complete` column's
/// incomplete encodings (`UNKNOWN`, `INCOMPLETE | fd`,
/// `INCOMPLETE | WAITED | cell`) all sit at or above 2^31, past every
/// fetch cycle of the cycle domain, so the one comparison below covers
/// them without unpacking.
pub(crate) fn fetch_computable(
    arena: &TraceArena,
    seq: usize,
    complete: &[u32],
    fetch_cycle: u64,
) -> bool {
    if arena.is_load(seq) || arena.is_store(seq) {
        return false;
    }
    arena.reg_sources(seq).iter().all(|dep| match dep.kind() {
        SourceKind::ForkCopy | SourceKind::InitialRegister | SourceKind::InitialMemory => true,
        SourceKind::Local { producer } => u64::from(complete[producer]) <= fetch_cycle,
        SourceKind::Remote { .. } => false,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use parsecs_machine::{Location, TraceKind};
    use parsecs_obs::NoopProbe;
    use parsecs_trace::{SectionSpan, SourceDep};

    /// One single-instruction section per entry, each reading the
    /// outputs of the listed earlier instructions as remote registers.
    pub(crate) fn arena_of(producers: &[&[usize]]) -> TraceArena {
        let mut arena = TraceArena::new();
        for (seq, deps) in producers.iter().enumerate() {
            let sources: Vec<SourceDep> = deps
                .iter()
                .map(|&producer| SourceDep {
                    location: Location::Flags,
                    kind: SourceKind::Remote { producer },
                })
                .collect();
            let id = SectionId(seq);
            arena.push_record(seq, "nop", id, TraceKind::Other, false, &sources, &[], &[]);
            arena.push_section(SectionSpan {
                id,
                start: seq,
                end: seq + 1,
                creator: None,
                start_ip: seq,
            });
        }
        arena
    }

    /// Drives a resolver over `arena` on a chip with one core per
    /// section.
    pub(crate) struct Harness<'a> {
        pub(crate) resolver: Resolver<'a>,
        network: Network<SectionId>,
        pub(crate) core_of: Vec<CoreId>,
    }

    impl<'a> Harness<'a> {
        pub(crate) fn new(config: &'a SimConfig, arena: &'a TraceArena) -> Harness<'a> {
            Harness {
                resolver: Resolver::new(config, arena, arena.len()),
                network: Network::new(config.effective_topology(), config.noc),
                core_of: (0..arena.sections().len()).map(CoreId).collect(),
            }
        }

        /// Fetches `seqs` at `cycle`, drains, and returns the trace
        /// indices completed by the drain, in completion order.
        pub(crate) fn cycle(&mut self, cycle: u64, seqs: &[usize]) -> Vec<usize> {
            for &seq in seqs {
                self.resolver.fetch(seq, cycle);
            }
            let mut completions = Vec::new();
            self.resolver
                .drain(
                    &self.network,
                    &self.core_of,
                    &mut completions,
                    cycle,
                    &mut NoopProbe,
                )
                .expect("inside the cycle domain");
            completions.into_iter().map(|(seq, _)| seq).collect()
        }

        /// The consumers parked on `producer`, newest first.
        fn waiters(&self, producer: usize) -> Vec<u32> {
            let pool = &self.resolver.waits;
            let Some(cell) = WaitPool::cell_of(self.resolver.complete[producer]) else {
                return Vec::new();
            };
            let mut waiters = Vec::new();
            let mut link = pool.cells[cell].head;
            while link != NIL {
                waiters.push(pool.links[link as usize].waiter);
                link = pool.links[link as usize].next;
            }
            waiters
        }

        fn cell_fetch(&self, producer: usize) -> u32 {
            let cell = WaitPool::cell_of(self.resolver.complete[producer]).expect("waited on");
            self.resolver.waits.cells[cell].fetch
        }
    }

    fn config() -> SimConfig {
        SimConfig::with_cores(8)
    }

    #[test]
    fn complete_entries_round_trip_at_both_ends_of_the_domain() {
        for cycle in [0, CYCLE_LIMIT - 1] {
            let stored = in_domain(cycle, CYCLE_LIMIT, "cycles").expect("inside the domain");
            assert_eq!(u64::from(stored), cycle);
            // A completion cycle is complete and names no cell.
            assert!(stored < INCOMPLETE);
            assert_eq!(WaitPool::cell_of(stored), None);
            // A fetched, unresolved instruction keeps its fetch cycle.
            let fetched = INCOMPLETE | stored;
            assert!(fetched >= INCOMPLETE && fetched != UNKNOWN);
            assert_eq!(WaitPool::cell_of(fetched), None);
            assert_eq!(u64::from(fetched & PAYLOAD), cycle);
        }
        for cell in [0, CELL_LIMIT - 1] {
            let stored = in_domain(cell, CELL_LIMIT, "wait cells").expect("inside the domain");
            // A producer that consumers wait on names its cell.
            let waited = INCOMPLETE | WAITED | stored;
            assert!(waited >= INCOMPLETE && waited != UNKNOWN);
            assert_eq!(WaitPool::cell_of(waited), Some(cell as usize));
        }
        // Never fetched: incomplete, and no cell. It is the entry the
        // first index past the cell domain would make.
        assert_eq!(
            Resolver::new(&config(), &arena_of(&[&[]]), 1).completion(0),
            None
        );
        assert_eq!(WaitPool::cell_of(UNKNOWN), None);
        assert_eq!(INCOMPLETE | WAITED | CELL_LIMIT as u32, UNKNOWN);
    }

    #[test]
    fn values_past_the_domain_are_refused_by_name() {
        for (limit, resource) in [(CYCLE_LIMIT, "cycles"), (CELL_LIMIT, "wait cells")] {
            assert_eq!(in_domain(limit - 1, limit, resource), Ok(limit as u32 - 1));
            for value in [limit, limit + 1, u64::MAX] {
                assert_eq!(
                    in_domain(value, limit, resource),
                    Err(SimError::CapacityExceeded { resource, limit })
                );
            }
        }
    }

    #[test]
    fn a_retirement_past_the_domain_refuses_the_drain() {
        let arena = arena_of(&[&[]]);
        let config = config();
        // A source-free instruction completes in its fetch cycle and
        // retires one cycle later.
        let mut h = Harness::new(&config, &arena);
        assert_eq!(h.cycle(CYCLE_LIMIT - 2, &[0]), [0]);
        assert_eq!(h.resolver.ret[0], PAYLOAD);
        let mut h = Harness::new(&config, &arena);
        h.resolver.fetch(0, CYCLE_LIMIT - 1);
        let refused = h.resolver.drain(
            &h.network,
            &h.core_of,
            &mut Vec::new(),
            CYCLE_LIMIT - 1,
            &mut NoopProbe,
        );
        assert_eq!(
            refused,
            Err(SimError::CapacityExceeded {
                resource: "cycles",
                limit: CYCLE_LIMIT
            })
        );
    }

    #[test]
    fn a_cell_carries_a_later_fetch_cycle_into_its_producer() {
        let arena = arena_of(&[&[], &[0]]);
        let config = config();
        let mut h = Harness::new(&config, &arena);
        assert!(h.cycle(1, &[1]).is_empty());
        assert!(h.resolver.has_waiters());
        assert_eq!(h.waiters(0), [1]);
        assert_eq!(h.cell_fetch(0), UNKNOWN, "the producer is not fetched yet");
        assert_eq!(h.cycle(4, &[0]), [0, 1]);
        // A producer with no sources executes in its fetch stage, so its
        // `ew` is the fetch cycle its cell held.
        assert_eq!(h.resolver.ew[0], 4);
        assert_eq!(h.resolver.completion(0), Some(4));
        assert!(h.resolver.completion(1).is_some());
        assert!(!h.resolver.has_waiters());
        assert_eq!(h.resolver.resolved, 2);
    }

    #[test]
    fn a_consumer_parks_on_a_fetched_but_incomplete_producer() {
        let arena = arena_of(&[&[], &[0], &[1]]);
        let config = config();
        let mut h = Harness::new(&config, &arena);
        assert!(h.cycle(1, &[1]).is_empty());
        assert!(h.cycle(2, &[2]).is_empty());
        // 1 is fetched but waits on 0, so 2 opens a cell on 1 that holds
        // 1's fetch cycle.
        assert_eq!(h.cell_fetch(1), 1);
        assert_eq!((h.waiters(0), h.waiters(1)), (vec![1], vec![2]));
        assert_eq!(h.cycle(3, &[0]), [0, 1, 2]);
        assert!(!h.resolver.has_waiters());

        // Parking changes no timing: the same fetch cycles resolved in
        // one drain, producers first, give the same stage columns.
        let mut direct = Harness::new(&config, &arena);
        direct.resolver.fetch(1, 1);
        direct.resolver.fetch(2, 2);
        assert_eq!(direct.cycle(3, &[0]), [0, 1, 2]);
        assert_eq!(
            h.resolver.into_stage_columns(),
            direct.resolver.into_stage_columns()
        );
    }

    #[test]
    fn three_consumers_on_one_producer_each_wake_exactly_once() {
        let arena = arena_of(&[&[], &[0], &[0], &[0]]);
        let config = config();
        let mut h = Harness::new(&config, &arena);
        assert!(h.cycle(1, &[1, 2, 3]).is_empty());
        assert_eq!(h.waiters(0), [3, 2, 1]);
        assert_eq!(h.resolver.waits.cells.len(), 1);
        assert_eq!(h.cycle(2, &[0]), [0, 1, 2, 3]);
        assert!(!h.resolver.has_waiters());
        assert_eq!(h.resolver.resolved, 4);
    }

    #[test]
    fn a_freed_cell_and_its_links_are_reused_with_no_leftover_waiter() {
        let arena = arena_of(&[&[], &[], &[0], &[1], &[], &[4]]);
        let config = config();
        let mut h = Harness::new(&config, &arena);
        assert!(h.cycle(1, &[2, 3]).is_empty());
        assert_eq!((h.waiters(0), h.waiters(1)), (vec![2], vec![3]));
        // Both cells and both links go back to their free lists.
        assert_eq!(h.cycle(2, &[0, 1]), [0, 1, 2, 3]);
        assert!(!h.resolver.has_waiters());
        assert!(h.cycle(3, &[5]).is_empty());
        let pool = &h.resolver.waits;
        assert_eq!((pool.cells.len(), pool.links.len()), (2, 2), "reused");
        assert_eq!(h.waiters(4), [5], "no waiter of the cell's last use");
        assert_eq!(h.cycle(4, &[4]), [4, 5]);
        assert!(!h.resolver.has_waiters());
        assert_eq!(h.resolver.resolved, 6);
    }
}
