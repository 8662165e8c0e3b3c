//! A naive, cycle-stepped oracle of the many-core timing model.
//!
//! The engine in `parsecs-core` jumps its clock from event to event,
//! wakes consumers through producer lists and keeps its chip state in
//! shared columns. This model shares none of that code. It restates the
//! paper's rules over plain data and steps every core on every cycle:
//!
//! * each core fetches one instruction per cycle from the section in its
//!   fetch slot; taking the next section off its ready queue costs a
//!   cycle;
//! * a fork sends a section-creation message over the NoC to the core
//!   that hosts the new section;
//! * an operand is ready at its producer's completion: at once for a
//!   local producer, after a renaming round trip over the NoC for a
//!   remote one, after the DMH latency for the loader's memory, and at
//!   fetch for a fork-copied register;
//! * a control instruction whose sources are not full stalls the fetch
//!   stage: in place when its completion is known, and otherwise its
//!   section parks, the core runs its queued sections, and the section
//!   is requeued just after the completion once it is found;
//! * each section retires in order: `ret = max(completion, previous
//!   ret) + 1`.
//!
//! It reads only the public `TraceArena` accessors, a
//! [`parsecs::noc::Network`] and the public `SimConfig` fields. It places
//! sections itself under round robin and least loaded. Under the two
//! earliest-finish policies it takes the placement from the result it
//! checks.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use parsecs::core::{Placement, SimConfig, SimResult, SimStats};
use parsecs::machine::TraceKind;
use parsecs::noc::{CoreId, Network, Topology};
use parsecs::obs::{CoreBreakdown, StallCause};
use parsecs::trace::{SourceKind, TraceArena};

/// Checks `result`, the engine's run of `arena` under `config`, against
/// the oracle: the placement, every stage row when the run recorded its
/// table, and every statistic. Panics at the first difference, naming
/// `what`. Returns the oracle's statistics.
pub fn agree(arena: &TraceArena, config: &SimConfig, result: &SimResult, what: &str) -> SimStats {
    let core_of = place(arena, config).unwrap_or_else(|| {
        let sections = arena.sections().len();
        assert_eq!(
            result.core_of.len(),
            sections,
            "{what}: one core per section"
        );
        assert!(
            result.core_of.iter().all(|core| core.0 < config.cores),
            "{what}: a section placed off the chip"
        );
        result.core_of.clone()
    });
    assert_eq!(result.core_of, core_of, "{what}: placement differs");
    assert_eq!(result.outputs, arena.outputs(), "{what}: outputs differ");
    assert_eq!(result.sections, arena.sections(), "{what}: sections differ");

    let mut oracle = Oracle::new(arena, config, &core_of);
    let cycles = oracle.run();
    let ret = oracle.retire();
    let table = result.timings();
    if !table.is_empty() {
        assert_eq!(table.len(), arena.len(), "{what}: stage table length");
        for (seq, row) in table.iter().enumerate() {
            let fd = oracle.fd[seq].expect("fetched");
            let (ew, done) = (oracle.ew[seq], oracle.complete[seq].expect("completed"));
            let mem = arena.is_load(seq) || arena.is_store(seq);
            let core = core_of[arena.section(seq).0];
            let expected = (
                fd,
                fd + 1,
                ew,
                mem.then_some(ew + 1),
                mem.then_some(done),
                ret[seq],
                core,
            );
            let got = (row.fd, row.rr, row.ew, row.ar, row.ma, row.ret, row.core);
            assert_eq!(
                got,
                expected,
                "{what}: row {} (fd, rr, ew, ar, ma, ret, core) differs",
                row.name()
            );
        }
    }
    let stats = oracle.stats(cycles, &ret);
    assert_eq!(result.stats, stats, "{what}: statistics differ");
    stats
}

/// The core of every section under round robin or least loaded; `None`
/// under the earliest-finish policies. Round robin puts the `k`-th
/// section on core `k % cores`; least loaded prefers a core below
/// `max_sections_per_core` while the chip has one.
fn place(arena: &TraceArena, config: &SimConfig) -> Option<Vec<CoreId>> {
    let cores = config.cores;
    let capacity = config.max_sections_per_core;
    let mut hosted = vec![0usize; cores];
    let mut load = vec![0usize; cores];
    let mut core_of = Vec::new();
    for (k, span) in arena.sections().iter().enumerate() {
        let has_room = |core: usize| hosted[core] < capacity;
        let chip_full = !(0..cores).any(has_room);
        let core = match config.placement {
            // The section's turn in creation order.
            Placement::RoundRobin => k % cores,
            // The fewest instructions so far, lowest id first.
            Placement::LeastLoaded => (0..cores)
                .filter(|&core| chip_full || has_room(core))
                .min_by_key(|&core| (load[core], core))
                .expect("a core"),
            Placement::LoadAware | Placement::ChainAffine => return None,
        };
        hosted[core] += 1;
        load[core] += span.len();
        core_of.push(CoreId(core));
    }
    Some(core_of)
}

/// A section in a fetch slot or on a ready queue: the section and the
/// next trace index it fetches.
#[derive(Debug, Clone, Copy)]
struct Slot {
    section: usize,
    next: usize,
    /// The control instruction the fetch stage waits on.
    stall: Option<usize>,
}

/// One core of the chip.
#[derive(Debug, Default)]
struct Core {
    slot: Option<Slot>,
    ready: VecDeque<Slot>,
    /// Sections of this core parked on a stall.
    parked: usize,
    /// Sections delivered to this core, the root section included.
    hosted: usize,
    cycles: CoreBreakdown,
}

impl Core {
    /// How a cycle without a section in the fetch slot counts.
    fn empty(&self) -> Use {
        if self.parked > 0 {
            Use::Parked
        } else {
            Use::Idle
        }
    }
}

/// What a core's fetch stage did with one cycle.
enum Use {
    /// Fetched an instruction or took a section off the ready queue.
    Busy,
    /// Waited in place on a control instruction's known completion.
    Stalled(StallCause),
    /// Held no section while a section of the core was parked.
    Parked,
    /// Held no section, with none parked.
    Idle,
}

/// The chip's whole state, stepped one cycle at a time by [`Oracle::run`].
struct Oracle<'a> {
    arena: &'a TraceArena,
    config: &'a SimConfig,
    core_of: &'a [CoreId],
    network: Network<usize>,
    cores: Vec<Core>,
    /// The section each fork creates, by the fork's trace index.
    creates: Vec<Option<usize>>,
    fd: Vec<Option<u64>>,
    ew: Vec<u64>,
    complete: Vec<Option<u64>>,
    /// Instructions fetched this cycle.
    fetched_now: Vec<usize>,
    /// Instructions whose completion is known.
    completed: usize,
    /// Fetched instructions waiting on a producer whose completion is
    /// not known yet, by that producer.
    waiting: BTreeMap<usize, Vec<usize>>,
    /// Cores whose fetch stage stalled this cycle.
    stalled: Vec<usize>,
    /// Parked sections by the control instruction they wait on, with
    /// their core.
    parked: BTreeMap<usize, (usize, Slot)>,
    /// Parked sections due back on a ready queue: `(cycle, core,
    /// section, resume point)`.
    requeues: BTreeSet<(u64, usize, usize, usize)>,
    remote_register_requests: u64,
    remote_memory_requests: u64,
    fork_copied_sources: u64,
    dmh_accesses: u64,
}

impl<'a> Oracle<'a> {
    fn new(arena: &'a TraceArena, config: &'a SimConfig, core_of: &'a [CoreId]) -> Oracle<'a> {
        let n = arena.len();
        let topology = config
            .topology
            .unwrap_or(Topology::Crossbar { size: config.cores });
        let mut creates = vec![None; n];
        for span in arena.sections() {
            if let Some((_, fork)) = span.creator {
                creates[fork] = Some(span.id.0);
            }
        }
        let mut cores: Vec<Core> = (0..config.cores).map(|_| Core::default()).collect();
        if let Some(root) = arena.sections().first() {
            // The root section holds its core's fetch slot from cycle 0.
            let core = &mut cores[core_of[0].0];
            core.hosted = 1;
            core.slot = Some(Slot {
                section: 0,
                next: root.start,
                stall: None,
            });
        }
        Oracle {
            arena,
            config,
            core_of,
            network: Network::new(topology, config.noc),
            cores,
            creates,
            fd: vec![None; n],
            ew: vec![0; n],
            complete: vec![None; n],
            fetched_now: Vec::new(),
            completed: 0,
            waiting: BTreeMap::new(),
            stalled: Vec::new(),
            parked: BTreeMap::new(),
            requeues: BTreeSet::new(),
            remote_register_requests: 0,
            remote_memory_requests: 0,
            fork_copied_sources: 0,
            dmh_accesses: 0,
        }
    }

    /// Steps the chip until every instruction is fetched and completed;
    /// returns the last cycle stepped.
    fn run(&mut self) -> u64 {
        let n = self.arena.len();
        let bound = 200 * n as u64 + 10_000;
        let mut cycle = 0;
        while self.completed < n {
            cycle += 1;
            assert!(cycle < bound, "the oracle did not converge");
            self.requeue(cycle);
            self.deliver(cycle);
            for core in 0..self.cores.len() {
                let used = self.fetch(core, cycle);
                let cycles = &mut self.cores[core].cycles;
                match used {
                    Use::Busy => cycles.busy += 1,
                    Use::Stalled(cause) => cycles.stalled[cause.index()] += 1,
                    Use::Parked => cycles.parked += 1,
                    Use::Idle => cycles.idle += 1,
                }
            }
            self.resolve(cycle);
            self.dispatch();
        }
        cycle
    }

    /// Parked sections whose release is due rejoin their ready queue.
    fn requeue(&mut self, cycle: u64) {
        while let Some(&(at, core, section, next)) = self.requeues.first() {
            if at > cycle {
                break;
            }
            assert_eq!(at, cycle, "a requeue is never late");
            self.requeues.pop_first();
            let core = &mut self.cores[core];
            core.parked -= 1;
            core.ready.push_back(Slot {
                section,
                next,
                stall: None,
            });
        }
    }

    /// Section-creation messages arriving this cycle join the ready queue
    /// of their core.
    fn deliver(&mut self, cycle: u64) {
        for envelope in self.network.deliver(cycle) {
            let section = envelope.payload;
            let core = &mut self.cores[envelope.dst.0];
            core.hosted += 1;
            core.ready.push_back(Slot {
                section,
                next: self.arena.sections()[section].start,
                stall: None,
            });
        }
    }

    /// One core's fetch-decode stage for one cycle.
    fn fetch(&mut self, core: usize, cycle: u64) -> Use {
        let arena = self.arena;
        let state = &mut self.cores[core];
        let Some(mut slot) = state.slot else {
            let Some(next) = state.ready.pop_front() else {
                return state.empty();
            };
            state.slot = Some(next);
            return Use::Busy;
        };
        if let Some(control) = slot.stall {
            let done = self.complete[control].expect("an in-place stall has a known completion");
            if cycle <= done {
                return Use::Stalled(cause(arena, control));
            }
            slot.stall = None;
        }
        let end = arena.sections()[slot.section].end;
        if slot.next >= end {
            self.cores[core].slot = None;
            return self.cores[core].empty();
        }
        let seq = slot.next;
        slot.next += 1;
        self.fd[seq] = Some(cycle);
        self.fetched_now.push(seq);
        if let Some(child) = self.creates[seq] {
            let host = self.core_of[child];
            self.network.send(CoreId(core), host, child, cycle);
        }
        let ends = matches!(arena.kind(seq), TraceKind::EndFork | TraceKind::Halt);
        if ends || slot.next == end {
            self.cores[core].slot = None;
            return Use::Busy;
        }
        if self.config.fetch_stalls_on_unresolved_control
            && arena.is_control(seq)
            && !self.full_at_fetch(seq, cycle)
        {
            slot.stall = Some(seq);
            self.stalled.push(core);
        }
        self.cores[core].slot = Some(slot);
        Use::Busy
    }

    /// Whether the fetch stage can compute `seq` at `cycle`: it touches
    /// no memory and every register source is already full on this core.
    fn full_at_fetch(&self, seq: usize, cycle: u64) -> bool {
        let arena = self.arena;
        !(arena.is_load(seq) || arena.is_store(seq))
            && arena.reg_sources(seq).iter().all(|dep| match dep.kind() {
                SourceKind::Local { producer } => {
                    self.complete[producer].is_some_and(|done| done <= cycle)
                }
                SourceKind::Remote { .. } => false,
                SourceKind::ForkCopy | SourceKind::InitialRegister | SourceKind::InitialMemory => {
                    true
                }
            })
    }

    /// Completes everything this cycle's fetches made computable, in one
    /// ascending sweep: this cycle's fetches, and the waiting consumers
    /// of each instruction completed on the way. A consumer follows its
    /// producers in trace order, so the sweep never has to turn back.
    /// Completing a parked section's control instruction schedules the
    /// section's requeue.
    fn resolve(&mut self, cycle: u64) {
        let mut sweep: BTreeSet<usize> = self.fetched_now.drain(..).collect();
        while let Some(seq) = sweep.pop_first() {
            if let Some(producer) = self.unknown_producer(seq) {
                self.waiting.entry(producer).or_default().push(seq);
                continue;
            }
            let done = self.complete(seq);
            // A section parked on this instruction is due back the cycle
            // after both this cycle and the completion.
            if let Some((core, slot)) = self.parked.remove(&seq) {
                let at = (cycle + 1).max(done + 1);
                self.requeues.insert((at, core, slot.section, slot.next));
            }
            sweep.extend(self.waiting.remove(&seq).unwrap_or_default());
        }
    }

    /// A producer of `seq` whose completion is not known yet.
    fn unknown_producer(&self, seq: usize) -> Option<usize> {
        let arena = self.arena;
        let mem = arena.is_load(seq) || arena.is_store(seq);
        let memory: &[_] = if mem { arena.mem_sources(seq) } else { &[] };
        arena
            .reg_sources(seq)
            .iter()
            .chain(memory)
            .filter_map(|dep| match dep.kind() {
                SourceKind::Local { producer } | SourceKind::Remote { producer, .. } => {
                    assert!(producer < seq, "a producer precedes its consumer");
                    Some(producer)
                }
                _ => None,
            })
            .find(|&producer| self.complete[producer].is_none())
    }

    /// Computes the stage cycles of `seq`, whose producers have all
    /// completed, and returns its completion.
    fn complete(&mut self, seq: usize) -> u64 {
        let arena = self.arena;
        let mem = arena.is_load(seq) || arena.is_store(seq);
        let fd = self.fd[seq].expect("fetched");
        let rr = fd + 1;
        // An instruction with every register source full at fetch, and
        // no memory access, is computed in the fetch stage.
        let mut at_fetch = !mem;
        let mut registers = 0;
        for dep in arena.reg_sources(seq) {
            let ready = match dep.kind() {
                SourceKind::ForkCopy => {
                    self.fork_copied_sources += 1;
                    0
                }
                SourceKind::InitialRegister | SourceKind::InitialMemory => 0,
                SourceKind::Local { producer } => {
                    let done = self.complete[producer].expect("known");
                    at_fetch &= done <= fd;
                    done
                }
                SourceKind::Remote {
                    producer,
                    producer_section,
                } => {
                    at_fetch = false;
                    self.remote_register_requests += 1;
                    let trip = self.request_leg(seq, producer_section.0);
                    self.complete[producer].expect("known").max(rr + trip) + trip
                }
            };
            registers = registers.max(ready);
        }
        let ew = if at_fetch { fd } else { registers.max(rr) + 1 };
        let completion = if mem {
            let ar = ew + 1;
            let mut ma = ar + 1;
            for dep in arena.mem_sources(seq) {
                let ready = match dep.kind() {
                    SourceKind::InitialMemory => {
                        self.dmh_accesses += 1;
                        ar + self.config.dmh_latency
                    }
                    SourceKind::Local { producer } => {
                        self.complete[producer].expect("known").max(ar + 1)
                    }
                    SourceKind::Remote {
                        producer,
                        producer_section,
                    } => {
                        self.remote_memory_requests += 1;
                        let trip = self.request_leg(seq, producer_section.0);
                        self.complete[producer].expect("known").max(ar + trip) + trip
                    }
                    SourceKind::ForkCopy | SourceKind::InitialRegister => ar + 1,
                };
                ma = ma.max(ready);
            }
            ma
        } else {
            ew
        };
        self.ew[seq] = ew;
        self.complete[seq] = Some(completion);
        self.completed += 1;
        completion
    }

    /// Cycles for one leg of a renaming request from `seq`'s core to the
    /// core of `producer_section`: the NoC latency plus the per-section
    /// charge for every section the backward walk passes between them.
    fn request_leg(&self, seq: usize, producer_section: usize) -> u64 {
        let section = self.arena.section(seq).0;
        let between = section.saturating_sub(producer_section + 1) as u64;
        let (from, to) = (self.core_of[section], self.core_of[producer_section]);
        self.network.latency(from, to) + self.config.per_section_hop * between
    }

    /// This cycle's new stalls: a known completion waits in place, an
    /// unknown one parks its section and frees the fetch slot.
    fn dispatch(&mut self) {
        for core in std::mem::take(&mut self.stalled) {
            let slot = self.cores[core]
                .slot
                .expect("a stalled core holds its section");
            let control = slot.stall.expect("stalled");
            if self.complete[control].is_none() {
                self.cores[core].slot = None;
                self.cores[core].parked += 1;
                self.parked.insert(
                    control,
                    (
                        core,
                        Slot {
                            stall: None,
                            ..slot
                        },
                    ),
                );
            }
        }
    }

    /// The retirement cycle of every instruction: in order within its
    /// section, one cycle after both its completion and its predecessor.
    fn retire(&self) -> Vec<u64> {
        // Sections tile trace order, so this visits every instruction in
        // turn.
        let mut ret = Vec::with_capacity(self.arena.len());
        for span in self.arena.sections() {
            let mut previous = 0;
            for done in &self.complete[span.start..span.end] {
                previous = done.expect("completed").max(previous) + 1;
                ret.push(previous);
            }
        }
        ret
    }

    /// The run's statistics, once `cycles` cycles were stepped.
    fn stats(mut self, cycles: u64, ret: &[u64]) -> SimStats {
        let instructions = self.arena.len() as u64;
        let fetch_cycles = self.fd.iter().flatten().copied().max().unwrap_or(0);
        let total_cycles = ret.iter().copied().max().unwrap_or(0);
        assert!(total_cycles >= cycles, "the last retirement ends the run");
        // Every section has ended by the last cycle stepped, so each core
        // idles through the remaining retirements.
        for core in &mut self.cores {
            core.cycles.idle += total_cycles - cycles;
        }
        let ipc = |cycles: u64| {
            if cycles == 0 {
                0.0
            } else {
                instructions as f64 / cycles as f64
            }
        };
        let used: BTreeSet<CoreId> = self.core_of.iter().copied().collect();
        SimStats {
            instructions,
            sections: self.arena.sections().len(),
            cores_used: used.len(),
            fetch_cycles,
            total_cycles,
            fetch_ipc: ipc(fetch_cycles),
            retire_ipc: ipc(total_cycles),
            remote_register_requests: self.remote_register_requests,
            remote_memory_requests: self.remote_memory_requests,
            fork_copied_sources: self.fork_copied_sources,
            dmh_accesses: self.dmh_accesses,
            forced_stall_releases: 0,
            peak_sections_per_core: self.cores.iter().map(|c| c.hosted).max().unwrap_or(0),
            trace_arena_bytes: self.arena.memory_bytes() as u64,
            noc: self.network.stats(),
            attribution: self.cores.iter().map(|c| c.cycles).collect(),
        }
    }
}

/// Why a fetch stage waits in place on `seq`: a remote register source
/// first, then a memory access, else a local producer.
fn cause(arena: &TraceArena, seq: usize) -> StallCause {
    let remote = arena
        .reg_sources(seq)
        .iter()
        .any(|dep| matches!(dep.kind(), SourceKind::Remote { .. }));
    if remote {
        StallCause::RemoteRegister
    } else if arena.is_load(seq) || arena.is_store(seq) {
        StallCause::RemoteMemory
    } else {
        StallCause::Local
    }
}
