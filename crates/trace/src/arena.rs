//! The struct-of-arrays trace arena.
//!
//! [`TraceArena`] holds a sectioned, dependence-annotated dynamic trace in
//! flat columns instead of one heap object per instruction: every
//! per-record field is one `Vec` indexed by trace position, and the
//! variable-length part — each record's source dependences — is
//! flattened into **one shared slice**, indexed by `(offset, len)`
//! ranges. Nothing in the arena is pointer-chased and
//! nothing allocates per instruction, which is what lets 10M+-instruction
//! runs fit: the arena costs 17–24 bytes per instruction on the
//! benchmark programs where the record-per-instruction representation
//! costs ~250–350.
//!
//! A record stores only what the run decides: its static instruction
//! index (`ip`), its section and its dependence offset, 12 bytes, plus 4
//! per dependence. What the program fixes — the mnemonic, the
//! [`TraceKind`], the control/load/store flags and how many of the
//! dependences are register-class — is the same on every execution of a
//! static instruction, so it is stored once per static instruction, in a
//! table of 4-byte [`InsnEntry`]s that the `ip` column indexes.
//!
//! A [`PackedDep`] squeezes a source dependence's producer and provenance
//! into 4 bytes: the producer's trace index, its top bit set when the
//! producer lies in an earlier section, and the three highest words for
//! the producer-less provenances. The producer's section is not stored
//! twice: it is the `section` column's entry for the producer.
//!
//! The arena stores no architectural location, neither the one a
//! dependence reads nor the ones a record writes. The timing simulators
//! never read them: store-ness is a flag bit and every consumer reaches
//! its producer through its dependence. The renaming the dependences
//! encode is checked while the trace streams, by `parsecs-check`'s
//! `LocationCheck` sink beside the sectioner, not replayed from stored
//! columns afterwards.

use parsecs_machine::{Location, TraceKind, TraceStep};

use crate::{SectionId, SectionSpan, SourceDep, SourceKind, TraceError};

/// Dependence words from here up name a [`SourceKind::Remote`] producer
/// (the word minus this tag); the words below it a
/// [`SourceKind::Local`] one.
const REMOTE: u32 = 1 << 31;
/// The three highest dependence words: the producer-less provenances.
const FORK_COPY: u32 = u32::MAX - 2;
const INITIAL_REG: u32 = u32::MAX - 1;
const INITIAL_MEM: u32 = u32::MAX;

/// Records the arena can hold: every producer, tagged remote, must stay
/// below the producer-less words.
pub(crate) const MAX_RECORDS: u64 = (FORK_COPY - REMOTE) as u64;

/// Sections the `u32` section column can name, below the simulator's
/// `u32::MAX` no-section sentinel.
const MAX_SECTIONS: u64 = u32::MAX as u64 - 1;

/// Entries the shared dependence slice can hold (`u32` offsets).
const MAX_DEPS: u64 = u32::MAX as u64;

/// Checks prospective column totals against the arena's packed-index
/// capacities. A free function over plain counts so the overflow
/// behaviour is unit-testable without materialising billions of records.
pub(crate) fn check_capacity(records: u64, deps: u64, sections: u64) -> Result<(), TraceError> {
    if records > MAX_RECORDS {
        return Err(TraceError::CapacityExceeded {
            resource: "instructions",
            limit: MAX_RECORDS,
        });
    }
    if sections > MAX_SECTIONS {
        return Err(TraceError::CapacityExceeded {
            resource: "sections",
            limit: MAX_SECTIONS,
        });
    }
    if deps > MAX_DEPS {
        return Err(TraceError::CapacityExceeded {
            resource: "dependences",
            limit: MAX_DEPS,
        });
    }
    Ok(())
}

/// One source dependence in 4 bytes: the producer's trace index, with
/// the top bit set for a producer in an earlier section, or one of the
/// three highest words for a dependence without producer (see the module
/// docs). The location it reads is not stored: the order of a record's
/// dependences is the order of its step's reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedDep(u32);

impl PackedDep {
    /// Packs a dependence's provenance.
    ///
    /// Producers past the arena's record capacity (just under 2^31)
    /// cannot be packed; the streaming sectioner rejects such traces with
    /// a typed [`TraceError::CapacityExceeded`] before this point, so
    /// overflow here is a caller bug (debug-asserted, and detectable after
    /// the fact by `parsecs-check`'s producer range check).
    pub fn new(kind: SourceKind) -> PackedDep {
        let producer_word = |producer: usize| {
            debug_assert!(
                (producer as u64) < MAX_RECORDS,
                "trace arena supports at most {MAX_RECORDS} instructions"
            );
            producer as u32
        };
        PackedDep(match kind {
            SourceKind::Local { producer } => producer_word(producer),
            SourceKind::Remote { producer } => REMOTE | producer_word(producer),
            SourceKind::ForkCopy => FORK_COPY,
            SourceKind::InitialRegister => INITIAL_REG,
            SourceKind::InitialMemory => INITIAL_MEM,
        })
    }

    /// A dependence from a raw word, stored verbatim. Every word decodes,
    /// but its producer may lie past the trace or in the wrong section:
    /// this exists for validator corpora that build such deliberately
    /// corrupt dependences. Normal producers go through
    /// [`PackedDep::new`].
    pub fn from_bits(word: u32) -> PackedDep {
        PackedDep(word)
    }

    /// Where the value comes from.
    #[inline]
    pub fn kind(&self) -> SourceKind {
        match self.0 {
            word if word < REMOTE => SourceKind::Local {
                producer: word as usize,
            },
            FORK_COPY => SourceKind::ForkCopy,
            INITIAL_REG => SourceKind::InitialRegister,
            INITIAL_MEM => SourceKind::InitialMemory,
            word => SourceKind::Remote {
                producer: (word - REMOTE) as usize,
            },
        }
    }
}

/// Read-only views of every packed column of a [`TraceArena`], in one
/// borrow. The accessor methods ([`TraceArena::sources`],
/// [`TraceArena::section`], …) index the columns *assuming* the offsets
/// are well-formed; a validator cannot, so [`TraceArena::raw`] hands out
/// the flat slices for bounds-checked inspection.
///
/// Layout contract (what `parsecs-check` verifies): `ip` and `section`
/// have one entry per record; `dep_off` has one per record plus a
/// trailing sentinel equal to the shared slice's length; every record's
/// `ip` names a set entry of `insns`, whose mnemonic id names an entry of
/// `mnemonics`; record `i`'s dependences are
/// `deps[dep_off[i]..dep_off[i + 1]]`, the first
/// `insns[ip[i]].reg_deps()` of them register-class.
#[derive(Debug, Clone, Copy)]
pub struct RawColumns<'a> {
    /// Static instruction index per record.
    pub ip: &'a [u32],
    /// Section id per record.
    pub section: &'a [u32],
    /// Offsets into `deps` (one per record, plus a trailing sentinel).
    pub dep_off: &'a [u32],
    /// The shared dependence slice.
    pub deps: &'a [PackedDep],
    /// The entry of each static instruction index, [`InsnEntry::UNSET`]
    /// for one no record executes.
    pub insns: &'a [InsnEntry],
    /// The interned mnemonic table.
    pub mnemonics: &'a [&'static str],
}

/// `flags` layout of an [`InsnEntry`]: low three bits [`TraceKind`], then
/// the control/load/store flags.
const FLAG_CONTROL: u8 = 1 << 3;
const FLAG_LOAD: u8 = 1 << 4;
const FLAG_STORE: u8 = 1 << 5;

/// The mnemonic id of [`InsnEntry::UNSET`]; [`TraceArena::intern_mnemonic`]
/// never hands it out.
const NO_MNEMONIC: u16 = u16::MAX;

#[inline]
fn pack_kind(kind: TraceKind) -> u8 {
    match kind {
        TraceKind::Other => 0,
        TraceKind::Call => 1,
        TraceKind::Ret => 2,
        TraceKind::Fork => 3,
        TraceKind::EndFork => 4,
        TraceKind::Halt => 5,
    }
}

#[inline]
fn unpack_kind(packed: u8) -> TraceKind {
    match packed & 7 {
        0 => TraceKind::Other,
        1 => TraceKind::Call,
        2 => TraceKind::Ret,
        3 => TraceKind::Fork,
        4 => TraceKind::EndFork,
        _ => TraceKind::Halt,
    }
}

/// What a static instruction fixes for every record that executes it, in
/// 4 bytes: its mnemonic's id in the arena's mnemonic table, its
/// [`TraceKind`], whether it is a control-flow instruction, loads or
/// stores data memory, and how many of its reads are register-class
/// (registers and the flags; the rest are memory words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsnEntry {
    mnemonic_id: u16,
    flags: u8,
    reg_deps: u8,
}

impl InsnEntry {
    /// The entry of a static instruction no record executes.
    pub const UNSET: InsnEntry = InsnEntry {
        mnemonic_id: NO_MNEMONIC,
        flags: 0,
        reg_deps: 0,
    };

    /// Packs one static instruction's facts.
    ///
    /// # Panics
    ///
    /// Panics when the instruction reads 256 or more register-class
    /// locations (no instruction of the ISA reads more than a handful).
    pub fn new(
        mnemonic_id: u16,
        kind: TraceKind,
        is_control: bool,
        is_load: bool,
        is_store: bool,
        reg_deps: usize,
    ) -> InsnEntry {
        let mut flags = pack_kind(kind);
        if is_control {
            flags |= FLAG_CONTROL;
        }
        if is_load {
            flags |= FLAG_LOAD;
        }
        if is_store {
            flags |= FLAG_STORE;
        }
        InsnEntry {
            mnemonic_id,
            flags,
            reg_deps: u8::try_from(reg_deps).expect("fewer than 256 register-class sources"),
        }
    }

    /// The entry of the static instruction `step` executes, its mnemonic
    /// interned as `mnemonic_id`: a memory-word read makes it a load and
    /// a written memory word a store.
    pub fn of_step(step: &TraceStep<'_>, mnemonic_id: u16) -> InsnEntry {
        InsnEntry::new(
            mnemonic_id,
            step.kind,
            step.is_control,
            step.reads.iter().any(Location::is_mem),
            step.writes.iter().any(Location::is_mem),
            step.reads.iter().filter(|loc| !loc.is_mem()).count(),
        )
    }

    /// The mnemonic's id in the arena's mnemonic table.
    #[inline]
    pub fn mnemonic_id(&self) -> u16 {
        self.mnemonic_id
    }

    /// Classification.
    #[inline]
    pub fn kind(&self) -> TraceKind {
        unpack_kind(self.flags)
    }

    /// Whether the instruction changes control flow.
    #[inline]
    pub fn is_control(&self) -> bool {
        self.flags & FLAG_CONTROL != 0
    }

    /// Whether the instruction loads from data memory.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.flags & FLAG_LOAD != 0
    }

    /// Whether the instruction stores to data memory.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.flags & FLAG_STORE != 0
    }

    /// How many of a record's dependences, the first ones, are
    /// register-class.
    #[inline]
    pub fn reg_deps(&self) -> usize {
        self.reg_deps as usize
    }
}

/// The sectioned, dependence-annotated trace of one program run, stored
/// as flat columns (see the module docs).
///
/// Records are indexed by their sequential trace position (`seq`), which
/// is also their position in the concatenated section order. Use
/// [`crate::StreamingSectioner`] (or [`TraceArena::from_program`]) to
/// build one while the program executes, or the `push_*` builder methods
/// to assemble one from already-resolved records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArena {
    ip: Vec<u32>,
    section: Vec<u32>,
    /// `deps` range of record `i` is `dep_off[i]..dep_off[i + 1]`; the
    /// first `insns[ip[i]].reg_deps()` entries are the register/flags
    /// sources, the rest the memory sources.
    dep_off: Vec<u32>,
    deps: Vec<PackedDep>,
    /// One entry per static instruction index up to the largest a record
    /// executes.
    insns: Vec<InsnEntry>,
    mnemonics: Vec<&'static str>,
    sections: Vec<SectionSpan>,
    outputs: Vec<u64>,
}

impl Default for TraceArena {
    /// An empty arena, the same as [`TraceArena::new`].
    fn default() -> TraceArena {
        TraceArena::new()
    }
}

impl TraceArena {
    /// An empty arena: no records, and the offset columns hold only
    /// their trailing sentinels.
    pub fn new() -> TraceArena {
        TraceArena {
            ip: Vec::new(),
            section: Vec::new(),
            dep_off: vec![0],
            deps: Vec::new(),
            insns: Vec::new(),
            mnemonics: Vec::new(),
            sections: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Reserves every per-record column once for a run of at most `fuel`
    /// records, the shared slice for `max_reads` dependences per
    /// record — each clamped to the packed-index capacities — and the
    /// instruction table for `insns` entries. A capacity hint only: a refused
    /// reservation is ignored and that column then grows on demand, so
    /// the arena's contents never depend on it. Untouched reserved space
    /// is address space, not resident memory, and
    /// [`TraceArena::shrink_to_fit`] releases it in place.
    pub(crate) fn reserve_for_run(&mut self, fuel: u64, max_reads: usize, insns: usize) {
        fn reserve<T>(column: &mut Vec<T>, additional: u64) {
            // `additional` is clamped to a `u32` capacity, so it fits.
            let _ = column.try_reserve_exact(additional as usize);
        }
        let records = fuel.min(MAX_RECORDS);
        reserve(&mut self.ip, records);
        reserve(&mut self.section, records);
        reserve(&mut self.dep_off, records);
        let deps = records.saturating_mul(max_reads as u64).min(MAX_DEPS);
        reserve(&mut self.deps, deps);
        reserve(&mut self.insns, insns as u64);
    }

    /// Checks that one more record with `new_deps` dependences fits the
    /// packed columns.
    pub(crate) fn capacity_for(&self, new_deps: usize) -> Result<(), TraceError> {
        check_capacity(
            self.ip.len() as u64 + 1,
            self.deps.len() as u64 + new_deps as u64,
            // `sections.len()` is the id of the section currently being
            // recorded; it must itself fit the section column.
            self.sections.len() as u64 + 1,
        )
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.ip.len()
    }

    /// Whether the arena holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.ip.is_empty()
    }

    /// The sections, in total order.
    pub fn sections(&self) -> &[SectionSpan] {
        &self.sections
    }

    /// The values emitted by `out` during the functional run.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Static instruction index of record `seq`.
    #[inline]
    pub fn ip(&self, seq: usize) -> usize {
        self.ip[seq] as usize
    }

    /// The [`InsnEntry`] of record `seq`'s static instruction.
    #[inline]
    fn entry(&self, seq: usize) -> InsnEntry {
        self.insns[self.ip[seq] as usize]
    }

    /// Whether static instruction `ip` has a set entry.
    #[inline]
    pub(crate) fn has_insn(&self, ip: usize) -> bool {
        self.insns.get(ip).is_some_and(|e| *e != InsnEntry::UNSET)
    }

    /// Mnemonic of record `seq`.
    #[inline]
    pub fn mnemonic(&self, seq: usize) -> &'static str {
        self.mnemonics[self.entry(seq).mnemonic_id as usize]
    }

    /// Section of record `seq`.
    #[inline]
    pub fn section(&self, seq: usize) -> SectionId {
        SectionId(self.section[seq] as usize)
    }

    /// Position of record `seq` within its section (0-based; derived from
    /// the section span rather than stored).
    #[inline]
    pub fn index_in_section(&self, seq: usize) -> usize {
        seq - self.sections[self.section[seq] as usize].start
    }

    /// Classification of record `seq`.
    #[inline]
    pub fn kind(&self, seq: usize) -> TraceKind {
        self.entry(seq).kind()
    }

    /// Whether record `seq` is a control-flow instruction.
    #[inline]
    pub fn is_control(&self, seq: usize) -> bool {
        self.entry(seq).is_control()
    }

    /// Whether record `seq` loads from data memory.
    #[inline]
    pub fn is_load(&self, seq: usize) -> bool {
        self.entry(seq).is_load()
    }

    /// Whether record `seq` stores to data memory.
    #[inline]
    pub fn is_store(&self, seq: usize) -> bool {
        self.entry(seq).is_store()
    }

    /// The register and flags sources of record `seq`.
    #[inline]
    pub fn reg_sources(&self, seq: usize) -> &[PackedDep] {
        let start = self.dep_off[seq] as usize;
        &self.deps[start..start + self.entry(seq).reg_deps()]
    }

    /// The memory-word sources of record `seq`.
    #[inline]
    pub fn mem_sources(&self, seq: usize) -> &[PackedDep] {
        let start = self.dep_off[seq] as usize + self.entry(seq).reg_deps();
        &self.deps[start..self.dep_off[seq + 1] as usize]
    }

    /// All sources of record `seq` (registers and flags first, then
    /// memory words).
    #[inline]
    pub fn sources(&self, seq: usize) -> &[PackedDep] {
        &self.deps[self.dep_off[seq] as usize..self.dep_off[seq + 1] as usize]
    }

    /// The paper's `s-i` name of record `seq` (1-based), e.g. `"2-13"`.
    pub fn name(&self, seq: usize) -> String {
        format!(
            "{}-{}",
            self.section[seq] as usize + 1,
            self.index_in_section(seq) + 1
        )
    }

    /// The number of instructions of each section, in total order.
    pub fn section_sizes(&self) -> Vec<usize> {
        self.sections.iter().map(SectionSpan::len).collect()
    }

    /// Size of the largest section.
    pub fn longest_section(&self) -> usize {
        self.section_sizes().into_iter().max().unwrap_or(0)
    }

    /// Bytes of memory held by the arena: the allocated capacity of every
    /// column, shared slice and table. Only a finished arena's value is
    /// its footprint — [`crate::StreamingSectioner::finish`] trims every
    /// column to its payload. While a run is being recorded, capacity
    /// also counts the reservation made up front for the whole run,
    /// which is address space that has not been touched yet.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<TraceArena>()
            + self.ip.capacity() * size_of::<u32>()
            + self.section.capacity() * size_of::<u32>()
            + self.dep_off.capacity() * size_of::<u32>()
            + self.deps.capacity() * size_of::<PackedDep>()
            + self.insns.capacity() * size_of::<InsnEntry>()
            + self.mnemonics.capacity() * size_of::<&'static str>()
            + self.sections.capacity() * size_of::<SectionSpan>()
            + self.outputs.capacity() * size_of::<u64>()
    }

    /// Releases every column's capacity beyond its payload: the
    /// untouched tail of a run's up-front reservation, which the
    /// allocator shrinks in place, or the growth slack of a column that
    /// grew on demand, which may cost one copy of that column.
    pub fn shrink_to_fit(&mut self) {
        self.ip.shrink_to_fit();
        self.section.shrink_to_fit();
        self.dep_off.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.insns.shrink_to_fit();
        self.mnemonics.shrink_to_fit();
        self.sections.shrink_to_fit();
        self.outputs.shrink_to_fit();
    }

    /// Read-only views of every packed column (see [`RawColumns`]), for
    /// validators that must not trust the offset columns before checking
    /// them.
    pub fn raw(&self) -> RawColumns<'_> {
        RawColumns {
            ip: &self.ip,
            section: &self.section,
            dep_off: &self.dep_off,
            deps: &self.deps,
            insns: &self.insns,
            mnemonics: &self.mnemonics,
        }
    }

    /// [`TraceArena::memory_bytes`] per instruction.
    pub fn bytes_per_instruction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.memory_bytes() as f64 / self.len() as f64
        }
    }

    // ------------------------------------------------------------------
    // Builder surface (the streaming sectioner writes the columns
    // directly; these are for assembling an arena from already-resolved
    // records, e.g. the two-pass oracle sectioner of the workspace's
    // differential tests).
    // ------------------------------------------------------------------

    /// Interns a mnemonic, returning its table id. The table stays tiny
    /// (one entry per distinct mnemonic), so the scan is cheap; it runs
    /// once per static instruction, when its entry is set.
    pub fn intern_mnemonic(&mut self, mnemonic: &'static str) -> u16 {
        if let Some(found) = self
            .mnemonics
            .iter()
            .position(|&m| std::ptr::eq(m.as_ptr(), mnemonic.as_ptr()) || m == mnemonic)
        {
            return found as u16;
        }
        let id = u16::try_from(self.mnemonics.len())
            .ok()
            .filter(|&id| id != NO_MNEMONIC)
            .expect("fewer than 65535 mnemonics");
        self.mnemonics.push(mnemonic);
        id
    }

    /// Appends one resolved record. Records must be pushed in sequential
    /// trace order; `is_load`/`is_store` are derived (a memory source
    /// means a load, a written memory location means a store), exactly as
    /// the sequential analysis derives them. Of the locations only those
    /// two flags are kept: each source's [`SourceDep::location`] and the
    /// `writes` themselves are not stored.
    ///
    /// The first record of static instruction `ip` sets its
    /// [`InsnEntry`]; every later one must agree with it.
    ///
    /// # Panics
    ///
    /// Panics when the record's mnemonic, kind, flags or register-class
    /// source count differ from an earlier record of the same `ip`.
    #[allow(clippy::too_many_arguments)]
    pub fn push_record(
        &mut self,
        ip: usize,
        mnemonic: &'static str,
        section: SectionId,
        kind: TraceKind,
        is_control: bool,
        reg_sources: &[SourceDep],
        mem_sources: &[SourceDep],
        writes: &[Location],
    ) {
        let entry = InsnEntry::new(
            self.intern_mnemonic(mnemonic),
            kind,
            is_control,
            !mem_sources.is_empty(),
            writes.iter().any(Location::is_mem),
            reg_sources.len(),
        );
        if self.has_insn(ip) {
            let set = self.insns[ip];
            assert!(
                set == entry,
                "record {} disagrees with the entry of static instruction {ip}: {entry:?}, \
                 set as {set:?}",
                self.len()
            );
        } else {
            self.set_insn(ip, entry);
        }
        self.begin_record(ip, section);
        for dep in reg_sources.iter().chain(mem_sources) {
            self.push_dep(PackedDep::new(dep.kind));
        }
        self.end_record();
    }

    /// Appends the next section span. Spans must arrive in total order
    /// and tile the record range.
    pub fn push_section(&mut self, span: SectionSpan) {
        debug_assert_eq!(span.id.0, self.sections.len());
        self.sections.push(span);
    }

    /// Sets the functional outputs of the run.
    pub fn set_outputs(&mut self, outputs: Vec<u64>) {
        self.outputs = outputs;
    }

    // Column-level builder steps (used by the streaming sectioner, and
    // public so external corpora — notably the `parsecs-check` mutation
    // tests — can assemble arenas the record-level surface refuses to).

    /// Sets (or replaces) the entry of static instruction `ip`, growing
    /// the table with [`InsnEntry::UNSET`] entries as needed. Every record
    /// of `ip`, earlier and later, reads its static facts from it.
    pub fn set_insn(&mut self, ip: usize, entry: InsnEntry) {
        if ip >= self.insns.len() {
            self.insns.resize(ip + 1, InsnEntry::UNSET);
        }
        self.insns[ip] = entry;
    }

    /// Opens one record at the column level: pushes the fixed-width
    /// per-record columns and nothing else. Pair with
    /// [`TraceArena::end_record`]; push the record's dependences in
    /// between, register-class ones first, and set `ip`'s entry with
    /// [`TraceArena::set_insn`]. The record-level
    /// [`TraceArena::push_record`] is the convenient surface; this one
    /// exists for streaming producers that already hold packed deps, and
    /// performs **no** checks (callers check
    /// [`crate::TraceError::CapacityExceeded`] conditions up front, as
    /// the streaming sectioner does) — an unclosed or overflowed record,
    /// or one whose `ip` has no entry, is caught by `parsecs-check`, not
    /// here.
    pub fn begin_record(&mut self, ip: usize, section: SectionId) {
        debug_assert!(
            (self.ip.len() as u64) < MAX_RECORDS,
            "trace arena supports at most {MAX_RECORDS} instructions"
        );
        debug_assert!(
            section.0 as u64 <= MAX_SECTIONS,
            "trace arena supports at most {MAX_SECTIONS} sections"
        );
        self.ip
            .push(u32::try_from(ip).expect("static index fits u32"));
        self.section.push(section.0 as u32);
    }

    /// Appends one dependence of the record being built, stored verbatim
    /// (register-class deps first, then memory deps; the record's
    /// [`InsnEntry`] fixes the split).
    #[inline]
    pub fn push_dep(&mut self, dep: PackedDep) {
        self.deps.push(dep);
    }

    /// Closes the record opened by `begin_record`.
    #[inline]
    pub fn end_record(&mut self) {
        self.dep_off
            .push(u32::try_from(self.deps.len()).expect("dep slice fits u32 offsets"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capacity check is a pure function of the prospective column
    /// totals, so the overflow paths are testable without materialising
    /// four billion records.
    #[test]
    fn capacity_limits_are_reported_as_typed_errors() {
        assert_eq!(check_capacity(1_000_000, 3_000_000, 65_536), Ok(()));
        assert_eq!(check_capacity(MAX_RECORDS, MAX_DEPS, MAX_SECTIONS), Ok(()));
        // The record cap is where a remote producer's word would reach
        // the producer-less words: one record more is refused.
        assert_eq!(u64::from(REMOTE) + MAX_RECORDS, u64::from(FORK_COPY));
        assert_eq!(
            check_capacity(MAX_RECORDS + 1, 0, 1),
            Err(TraceError::CapacityExceeded {
                resource: "instructions",
                limit: MAX_RECORDS,
            })
        );
        assert_eq!(
            check_capacity(1, MAX_DEPS + 1, 1),
            Err(TraceError::CapacityExceeded {
                resource: "dependences",
                limit: MAX_DEPS,
            })
        );
        assert_eq!(
            check_capacity(1, 0, MAX_SECTIONS + 1),
            Err(TraceError::CapacityExceeded {
                resource: "sections",
                limit: MAX_SECTIONS,
            })
        );
    }

    /// The record-level builder keeps the flags the locations imply and
    /// nothing else of them: a memory source makes a load, a written
    /// memory word a store.
    #[test]
    fn push_record_keeps_load_and_store_flags_but_no_locations() {
        let mut arena = TraceArena::new();
        let dep = SourceDep {
            location: Location::Mem(0x1000),
            kind: SourceKind::InitialMemory,
        };
        arena.push_record(
            0,
            "movq",
            SectionId(0),
            TraceKind::Other,
            false,
            &[],
            &[dep],
            &[Location::Mem(0x1008)],
        );
        assert!(arena.is_load(0) && arena.is_store(0));
        assert_eq!(arena.mem_sources(0), &[PackedDep::new(dep.kind)]);
        assert!(arena.reg_sources(0).is_empty());
    }

    /// A static instruction's facts are stored once: a second record of
    /// the same `ip` reads them from the entry the first one set, and
    /// one that disagrees with it is refused.
    #[test]
    #[should_panic(expected = "record 1 disagrees with the entry of static instruction 3")]
    fn push_record_refuses_a_record_that_disagrees_with_its_entry() {
        let mut arena = TraceArena::new();
        let flags = SourceDep {
            location: Location::Flags,
            kind: SourceKind::InitialRegister,
        };
        let jne = |arena: &mut TraceArena, reads: &[SourceDep]| {
            arena.push_record(
                3,
                "jne",
                SectionId(0),
                TraceKind::Other,
                true,
                reads,
                &[],
                &[],
            );
        };
        jne(&mut arena, &[flags]);
        assert_eq!(arena.raw().insns.len(), 4);
        assert_eq!(arena.raw().insns[..3], [InsnEntry::UNSET; 3]);
        assert!(arena.is_control(0) && !arena.is_load(0));
        assert_eq!(arena.reg_sources(0).len(), 1);
        jne(&mut arena, &[]);
    }

    #[test]
    fn an_entry_packs_into_four_bytes_and_round_trips() {
        assert_eq!(std::mem::size_of::<InsnEntry>(), 4);
        let kinds = [
            TraceKind::Other,
            TraceKind::Call,
            TraceKind::Ret,
            TraceKind::Fork,
            TraceKind::EndFork,
            TraceKind::Halt,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let bits = |b: usize| i & b != 0;
            let entry = InsnEntry::new(i as u16, kind, bits(1), bits(2), bits(4), 255 - i);
            assert_eq!(
                (
                    entry.mnemonic_id(),
                    entry.kind(),
                    entry.is_control(),
                    entry.is_load(),
                    entry.is_store(),
                    entry.reg_deps()
                ),
                (i as u16, kind, bits(1), bits(2), bits(4), 255 - i)
            );
            assert_ne!(entry, InsnEntry::UNSET);
        }
    }
}
