//! The completion drain: dependence resolution shared by both engines.
//!
//! Stage timestamps are pure functions of the fetch cycles and the
//! producers' completion cycles, so resolution runs ahead of the clock:
//! [`Resolver::drain`] computes every timestamp that has become
//! computable and parks the rest on producer→consumer wake-up lists — no
//! instruction is ever rescanned while its inputs are still unknown.
//!
//! The drain is **batched**: each round takes the whole pending set — the
//! cycle's fetches first, then the consumers woken by the previous
//! round's completions — sorts it, and sweeps each instruction's packed
//! dep slice in ascending trace order. Each attempt is a pure, read-only
//! [`Resolver::compute_one`] followed by a mutating commit.

use parsecs_noc::{CoreId, Network};
use parsecs_obs::SimProbe;
use parsecs_trace::TraceArena;

use crate::{SectionId, SimConfig, SourceKind};

/// Sentinel for a cycle that has not been computed yet (the resolver's
/// columns are flat `u64`s instead of `Option<u64>`s — half the memory,
/// and the timing columns `rr`/`ar`/`ma` are derived rather than stored).
pub(crate) const UNKNOWN: u64 = u64::MAX;

/// Tag bit of the resolver's `complete` column: an entry at or above this
/// value is *not yet complete*. A fetched-but-unresolved instruction
/// stores `INCOMPLETE | fetch_cycle`, so the column doubles as the fetch
/// record and the resolver needs no separate per-instruction `fd` column
/// in stats-only runs (simulated cycle counts stay far below 2^63 — the
/// convergence guard caps them at ~200× the instruction count). `UNKNOWN`
/// (all ones) also has the bit set: a never-fetched instruction is
/// "not complete" under the same test.
pub(crate) const INCOMPLETE: u64 = 1 << 63;

/// Empty wake-list link.
const NO_WAITER: u32 = u32::MAX;

/// The completion cycle recorded in a tagged `complete` column entry, if
/// already resolved.
#[inline]
pub(crate) fn completion_of(complete: &[u64], seq: usize) -> Option<u64> {
    match complete[seq] {
        cycle if cycle < INCOMPLETE => Some(cycle),
        _ => None,
    }
}

/// The pure result of one resolution attempt (no resolver state touched).
enum Outcome {
    Resolved(Resolved),
    /// Blocked on this producer's completion.
    Waiting(u32),
}

/// Everything a successful resolution commits: the computed stage cycles
/// plus this instruction's renaming-counter increments.
#[derive(Clone, Copy)]
struct Resolved {
    ew: u64,
    completion: u64,
    remote_reg: u32,
    remote_mem: u32,
    fork_copied: u32,
    dmh: u32,
}

/// The dependence-resolution engine shared by the event-driven and the
/// reference simulators.
///
/// The always-resident per-instruction state is **one** tagged `u64`
/// column plus two `u32` wake-list links (16 B/instruction): the
/// `complete` column holds `INCOMPLETE | fetch_cycle` between fetch and
/// resolution and the completion cycle after, `rr` is always `fd + 1`,
/// `ar` always `ew + 1`, and `ma` always the completion cycle of a memory
/// instruction. The `fd`/`ew`/`ret` stage columns (another
/// 24 B/instruction) are only kept when the run records the per-row stage
/// table; stats-only runs skip them and accumulate `max_fd`/`max_ret`
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
    pub(crate) fd: Vec<u64>,
    pub(crate) ew: Vec<u64>,
    pub(crate) ret: Vec<u64>,
    pub(crate) complete: Vec<u64>,
    /// Head of the per-producer list of consumers waiting for its
    /// completion (`u32::MAX` = empty). An instruction waits on at most
    /// one producer at a time, so one `waiter_next` link per instruction
    /// threads every list — no per-wait allocation.
    waiter_head: Vec<u32>,
    /// Next consumer in the same producer's waiting list.
    waiter_next: Vec<u32>,
    /// Per-section retirement cursor: the next trace index to retire.
    retire_next: Vec<u32>,
    /// Per-section retirement cursor: the previous retirement cycle.
    retire_last: Vec<u64>,
    /// Instructions ready for a resolution attempt (newly fetched, or
    /// woken by a completion discovered in the current drain round).
    queue: Vec<u32>,
    /// Scratch for the drain's batched rounds.
    batch: Vec<u32>,
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
            waiter_head: vec![NO_WAITER; n],
            waiter_next: vec![NO_WAITER; n],
            retire_next: sections.iter().map(|s| s.start as u32).collect(),
            retire_last: vec![0; sections.len()],
            queue: Vec::new(),
            batch: Vec::new(),
            max_fd: 0,
            max_ret: 0,
            resolved: 0,
            remote_register_requests: 0,
            remote_memory_requests: 0,
            fork_copied_sources: 0,
            dmh_accesses: 0,
        }
    }

    /// Records the fetch of `seq` at `cycle` and queues it for resolution.
    pub(crate) fn fetch(&mut self, seq: usize, cycle: u64) {
        debug_assert_eq!(self.complete[seq], UNKNOWN, "fetched once");
        self.complete[seq] = INCOMPLETE | cycle;
        if self.record {
            self.fd[seq] = cycle;
        }
        if cycle > self.max_fd {
            self.max_fd = cycle;
        }
        self.queue.push(seq as u32);
    }

    /// The completion cycle of `seq`, if already resolved.
    #[inline]
    pub(crate) fn completion(&self, seq: usize) -> Option<u64> {
        completion_of(&self.complete, seq)
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
    pub(crate) fn drain<P: SimProbe>(
        &mut self,
        network: &Network<SectionId>,
        core_of: &[CoreId],
        completions: &mut Vec<(usize, u64)>,
        cycle: u64,
        probe: &mut P,
    ) {
        let mut round_index = 0usize;
        while !self.queue.is_empty() {
            let mut batch = std::mem::take(&mut self.batch);
            std::mem::swap(&mut self.queue, &mut batch);
            batch.sort_unstable();
            if P::ENABLED {
                probe.on_drain_round(cycle, round_index, batch.len());
            }
            self.round(&batch, network, core_of, completions, probe);
            round_index += 1;
            batch.clear();
            self.batch = batch;
        }
    }

    /// One drain round over the sorted `batch`.
    fn round<P: SimProbe>(
        &mut self,
        batch: &[u32],
        network: &Network<SectionId>,
        core_of: &[CoreId],
        completions: &mut Vec<(usize, u64)>,
        probe: &mut P,
    ) {
        for &seq in batch {
            let seq = seq as usize;
            match self.compute_one(seq, network, core_of) {
                Outcome::Resolved(r) => self.commit_resolved(seq, r, completions, probe),
                Outcome::Waiting(dep) => self.register_waiter(seq, dep as usize),
            }
        }
    }

    /// Parks `seq` on `dep`'s completion wake list.
    #[inline]
    fn register_waiter(&mut self, seq: usize, dep: usize) {
        self.waiter_next[seq] = self.waiter_head[dep];
        self.waiter_head[dep] = seq as u32;
    }

    /// One **pure** resolution attempt: a single forward sweep over
    /// `seq`'s packed dep slice, touching no resolver state. Returns
    /// `Waiting` at the first incomplete producer; on success returns the
    /// computed cycles and counter increments for
    /// [`Resolver::commit_resolved`].
    fn compute_one(&self, seq: usize, network: &Network<SectionId>, core_of: &[CoreId]) -> Outcome {
        let arena = self.arena;
        let tagged = self.complete[seq];
        debug_assert!(
            tagged >= INCOMPLETE && tagged != UNKNOWN,
            "queued instructions are fetched and unresolved"
        );
        let my_fd = tagged & !INCOMPLETE;
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
                    c if c >= INCOMPLETE => return Outcome::Waiting(producer as u32),
                    c => {
                        if c > my_fd {
                            available_at_fetch = false;
                        }
                        c
                    }
                },
                SourceKind::Remote {
                    producer,
                    producer_section,
                } => {
                    available_at_fetch = false;
                    let c = match self.complete[producer] {
                        c if c >= INCOMPLETE => return Outcome::Waiting(producer as u32),
                        c => c,
                    };
                    remote_reg += 1;
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
                        c if c >= INCOMPLETE => return Outcome::Waiting(producer as u32),
                        c => c.max(a + 1),
                    },
                    SourceKind::Remote {
                        producer,
                        producer_section,
                    } => {
                        let c = match self.complete[producer] {
                            c if c >= INCOMPLETE => return Outcome::Waiting(producer as u32),
                            c => c,
                        };
                        remote_mem += 1;
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

        Outcome::Resolved(Resolved {
            ew: my_ew,
            completion,
            remote_reg,
            remote_mem,
            fork_copied,
            dmh,
        })
    }

    /// Commits a successful resolution: stage cycles, counters, the
    /// completion event, the woken consumers (they join the next round's
    /// batch instead of being resolved depth-first) and the retirement
    /// cascade.
    fn commit_resolved<P: SimProbe>(
        &mut self,
        seq: usize,
        r: Resolved,
        completions: &mut Vec<(usize, u64)>,
        probe: &mut P,
    ) {
        if self.record {
            self.ew[seq] = r.ew;
        }
        self.complete[seq] = r.completion;
        self.remote_register_requests += u64::from(r.remote_reg);
        self.remote_memory_requests += u64::from(r.remote_mem);
        self.fork_copied_sources += u64::from(r.fork_copied);
        self.dmh_accesses += u64::from(r.dmh);
        completions.push((seq, r.completion));
        let mut waiter = std::mem::replace(&mut self.waiter_head[seq], NO_WAITER);
        while waiter != NO_WAITER {
            self.queue.push(waiter);
            waiter = std::mem::replace(&mut self.waiter_next[waiter as usize], NO_WAITER);
        }
        self.advance_retirement(seq, probe);
    }

    /// Step 2 of dependence resolution: in-order retirement within a
    /// section. When `seq` is its section's next-to-retire, retires it
    /// and cascades over the already-complete successors — each retired
    /// instruction's cycle is `max(completion, previous retirement) + 1`.
    /// The cascade replaces per-instruction successor bookkeeping with a
    /// per-section cursor and feeds the streaming `max_ret` accumulator.
    fn advance_retirement<P: SimProbe>(&mut self, seq: usize, probe: &mut P) {
        let sid = self.arena.section(seq).0;
        if self.retire_next[sid] as usize != seq {
            return;
        }
        let end = self.arena.sections()[sid].end;
        let mut cursor = seq;
        let mut last = self.retire_last[sid];
        while cursor < end {
            let completion = self.complete[cursor];
            if completion >= INCOMPLETE {
                break;
            }
            last = completion.max(last) + 1;
            if self.record {
                self.ret[cursor] = last;
            }
            self.resolved += 1;
            cursor += 1;
        }
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
    }
}

/// Whether a control instruction can be computed by the fetch-decode stage
/// at fetch time: all of its register/flags sources are already full in the
/// local register file (fork-copied, initial, or produced locally and
/// complete no later than the fetch cycle). The `complete` column's
/// incomplete encodings (`UNKNOWN`, `INCOMPLETE | fd`) both sit at or
/// above 2^63 — far past any reachable fetch cycle — so the one
/// comparison below covers them without unpacking.
pub(crate) fn fetch_computable(
    arena: &TraceArena,
    seq: usize,
    complete: &[u64],
    fetch_cycle: u64,
) -> bool {
    if arena.is_load(seq) || arena.is_store(seq) {
        return false;
    }
    arena.reg_sources(seq).iter().all(|dep| match dep.kind() {
        SourceKind::ForkCopy | SourceKind::InitialRegister | SourceKind::InitialMemory => true,
        SourceKind::Local { producer } => complete[producer] <= fetch_cycle,
        SourceKind::Remote { .. } => false,
    })
}
