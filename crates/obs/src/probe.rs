//! The [`SimProbe`] trait and its built-in implementations.

/// Why a fetch stage could not advance past an instruction.
///
/// The cause is classified statically from the stalled instruction's
/// dependence sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum StallCause {
    /// A source register is produced on another core and travels the NoC
    /// through the remote renaming path.
    RemoteRegister,
    /// The instruction waits on a memory value produced by a load/store
    /// on another core (the distributed-memory-hierarchy path).
    RemoteMemory,
    /// A source travels with the fork-time register copy. Under the
    /// current fetch semantics fork-copied sources are always available
    /// at fetch, so this cause is reserved for future core models and
    /// never fires today.
    ForkCopy,
    /// The section was ejected from the fetch slot entirely — its stall
    /// completion was unknown at dispatch (typically waiting on a
    /// section-creation handoff still crossing the NoC), so the core was
    /// handed to its queued sections and the section parked.
    NocEjection,
    /// A same-core dependence that was simply not yet executed at fetch.
    Local,
}

impl StallCause {
    /// Number of distinct causes (the attribution bucket arity).
    pub const COUNT: usize = 5;

    /// All causes, in `repr` order (matching the attribution buckets).
    pub const ALL: [StallCause; Self::COUNT] = [
        StallCause::RemoteRegister,
        StallCause::RemoteMemory,
        StallCause::ForkCopy,
        StallCause::NocEjection,
        StallCause::Local,
    ];

    /// Stable snake_case name (used as the JSON field name).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::RemoteRegister => "remote_register",
            StallCause::RemoteMemory => "remote_memory",
            StallCause::ForkCopy => "fork_copy",
            StallCause::NocEjection => "noc_ejection",
            StallCause::Local => "local",
        }
    }

    /// Bucket index of this cause (its `repr` discriminant).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-cycle engine gauges sampled by [`SimProbe::on_tick`].
///
/// Gauges describe the *engine's* view of the chip at the start of a
/// simulated cycle. The event-driven engine skips cycles in which nothing
/// happens, so tick streams sample its own schedule, not every cycle of
/// the execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickGauges {
    /// The simulated cycle being processed.
    pub cycle: u64,
    /// Cores in the engine's acting set before this cycle's due
    /// wake-ups join it: cores fetching, about to dequeue or releasing
    /// a next-cycle stall. A core that holds a section but sleeps until a
    /// later stall release is not counted.
    pub running: u64,
    /// Pending entries in the engine's wake-up heap, stale ones included.
    pub calendar_depth: u64,
    /// Section-creation messages in flight on the NoC.
    pub noc_in_flight: u64,
    /// Sections parked on an unknown-completion stall.
    pub parked: u64,
}

/// Hooks at the simulator's hot seams.
///
/// All hooks default to empty bodies and every call site is guarded by
/// `if P::ENABLED`, so a probe type with [`SimProbe::ENABLED`]` = false`
/// (the [`NoopProbe`]) monomorphizes to the uninstrumented loop — the
/// hook arguments are never even computed.
///
/// Hooks fire in a deterministic order. Every hook except
/// [`SimProbe::on_tick`] and [`SimProbe::on_walk`] fires in the same
/// order with the same arguments in both stats modes; those two are
/// per-cycle gauges of the engine's own schedule, which skips quiet
/// cycles.
pub trait SimProbe {
    /// Whether hook call sites are compiled in. Leave at the default
    /// `true` for every observing probe; only [`NoopProbe`] sets `false`.
    const ENABLED: bool = true;

    /// A simulated cycle is being processed (fires once per processed
    /// cycle, before the fetch walk).
    fn on_tick(&mut self, _gauges: TickGauges) {}

    /// Core `core` moved section `sid` into its fetch slot at `cycle`
    /// (`resumed` when the section re-enters at a parked resume point;
    /// the root section reports `cycle` 0).
    fn on_section_begin(&mut self, _core: usize, _sid: u32, _cycle: u64, _resumed: bool) {}

    /// Core `core` retired section `sid` from its fetch slot at `cycle`
    /// (`fetched` when the ending instruction was fetched this cycle;
    /// false for the empty-section defensive path).
    fn on_section_end(&mut self, _core: usize, _sid: u32, _cycle: u64, _fetched: bool) {}

    /// Core `core` parked section `sid` at `cycle` on instruction `seq`
    /// whose completion is unknown (see [`StallCause`] for `cause`).
    fn on_section_park(
        &mut self,
        _core: usize,
        _sid: u32,
        _seq: usize,
        _cycle: u64,
        _cause: StallCause,
    ) {
    }

    /// Section `sid` rejoined core `core`'s ready queue at `cycle` after
    /// its parking stall released.
    fn on_section_requeue(&mut self, _core: usize, _sid: u32, _cycle: u64) {}

    /// The last instruction of section `sid` retired at `cycle`.
    fn on_section_retire(&mut self, _sid: u32, _cycle: u64) {}

    /// Core `core` stalled in place on instruction `seq` at `cycle`; the
    /// completion is known and fetch resumes at `resumes`.
    fn on_fetch_stall(
        &mut self,
        _core: usize,
        _seq: usize,
        _cause: StallCause,
        _cycle: u64,
        _resumes: u64,
    ) {
    }

    /// A section-creation message for `sid` left core `from` toward core
    /// `to` at `cycle` (a fork handoff).
    fn on_noc_send(&mut self, _from: usize, _to: usize, _sid: u32, _cycle: u64) {}

    /// The section-creation message for `sid` arrived at core `to` at
    /// `cycle`.
    fn on_noc_deliver(&mut self, _to: usize, _sid: u32, _cycle: u64) {}

    /// The resolver ran completion-drain round `round` of width `width`
    /// while processing `cycle`.
    fn on_drain_round(&mut self, _cycle: u64, _round: usize, _width: usize) {}

    /// The fetch walk ran at `cycle` with `active` cores acting before
    /// the cycle's due wake-ups joined (the same count as
    /// [`TickGauges::running`]).
    fn on_walk(&mut self, _cycle: u64, _active: usize) {}
}

/// The default probe: observes nothing, costs nothing.
///
/// `ENABLED = false` compiles every hook call site (and its argument
/// computation) out of the monomorphized engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoopProbe;

impl SimProbe for NoopProbe {
    const ENABLED: bool = false;
}

/// A probe that counts every hook firing — the differential tests' way
/// of asserting an *observing* probe leaves the simulation bit-identical
/// while actually exercising every call site.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingProbe {
    /// Cycles processed.
    pub ticks: u64,
    /// Section begins.
    pub begins: u64,
    /// Section ends.
    pub ends: u64,
    /// Section parks.
    pub parks: u64,
    /// Section requeues.
    pub requeues: u64,
    /// Section retirements.
    pub retires: u64,
    /// In-place fetch stalls.
    pub stalls: u64,
    /// NoC sends.
    pub noc_sends: u64,
    /// NoC deliveries.
    pub noc_delivers: u64,
    /// Completion-drain rounds.
    pub drain_rounds: u64,
    /// Fetch walks.
    pub walks: u64,
}

impl CountingProbe {
    /// Sum of all event counters (ignores the per-cycle tick/walk
    /// gauges, which sample the engine's own schedule).
    pub fn events(&self) -> u64 {
        self.begins
            + self.ends
            + self.parks
            + self.requeues
            + self.retires
            + self.stalls
            + self.noc_sends
            + self.noc_delivers
    }
}

impl SimProbe for CountingProbe {
    fn on_tick(&mut self, _gauges: TickGauges) {
        self.ticks += 1;
    }
    fn on_section_begin(&mut self, _core: usize, _sid: u32, _cycle: u64, _resumed: bool) {
        self.begins += 1;
    }
    fn on_section_end(&mut self, _core: usize, _sid: u32, _cycle: u64, _fetched: bool) {
        self.ends += 1;
    }
    fn on_section_park(
        &mut self,
        _core: usize,
        _sid: u32,
        _seq: usize,
        _cycle: u64,
        _cause: StallCause,
    ) {
        self.parks += 1;
    }
    fn on_section_requeue(&mut self, _core: usize, _sid: u32, _cycle: u64) {
        self.requeues += 1;
    }
    fn on_section_retire(&mut self, _sid: u32, _cycle: u64) {
        self.retires += 1;
    }
    fn on_fetch_stall(
        &mut self,
        _core: usize,
        _seq: usize,
        _cause: StallCause,
        _cycle: u64,
        _resumes: u64,
    ) {
        self.stalls += 1;
    }
    fn on_noc_send(&mut self, _from: usize, _to: usize, _sid: u32, _cycle: u64) {
        self.noc_sends += 1;
    }
    fn on_noc_deliver(&mut self, _to: usize, _sid: u32, _cycle: u64) {
        self.noc_delivers += 1;
    }
    fn on_drain_round(&mut self, _cycle: u64, _round: usize, _width: usize) {
        self.drain_rounds += 1;
    }
    fn on_walk(&mut self, _cycle: u64, _active: usize) {
        self.walks += 1;
    }
}
