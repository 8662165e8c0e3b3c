//! Per-instruction stage timings and aggregate statistics.

use std::fmt::Write as _;
use std::mem::size_of_val;

use parsecs_noc::{CoreId, NocStats};
use parsecs_obs::CoreBreakdown;
use parsecs_trace::{SectionId, SectionSpan, TraceArena};

use crate::drain::{INCOMPLETE, UNKNOWN};
use crate::SimResult;

/// The cycle at which one dynamic instruction is handled by each pipeline
/// stage — one row of the paper's Figure 10 tables.
///
/// The six columns follow the paper's naming: `fd` (fetch-decode), `rr`
/// (register-rename), `ew` (execute-write-back), `ar` (address-rename),
/// `ma` (memory-access) and `ret` (retire). `ar`/`ma` are `None` for
/// instructions that do not access data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstTiming {
    /// Position in the sequential trace.
    pub seq: usize,
    /// Position within the section (0-based; the paper writes `s-i` with
    /// `i` 1-based — see [`InstTiming::name`]).
    pub index_in_section: usize,
    /// Static instruction index.
    pub ip: usize,
    /// Mnemonic.
    pub mnemonic: &'static str,
    /// Section of the instruction.
    pub section: SectionId,
    /// Core hosting that section.
    pub core: CoreId,
    /// Fetch-decode cycle.
    pub fd: u64,
    /// Register-rename cycle.
    pub rr: u64,
    /// Execute / write-back cycle (equals `fd` when the instruction is
    /// computed in the fetch stage, as the paper's design does for simple
    /// in-order-computable instructions).
    pub ew: u64,
    /// Address-rename cycle (memory instructions only).
    pub ar: Option<u64>,
    /// Memory-access cycle (memory instructions only).
    pub ma: Option<u64>,
    /// Retirement cycle.
    pub ret: u64,
}

impl InstTiming {
    /// The paper's `s-i` name of the instruction (1-based), e.g. `"2-13"`.
    /// Derived on demand — a simulation of millions of instructions does
    /// not pay for millions of row-label allocations.
    pub fn name(&self) -> String {
        format!("{}-{}", self.section.0 + 1, self.index_in_section + 1)
    }

    /// The cycle at which the instruction's result is available to
    /// consumers.
    pub fn completion(&self) -> u64 {
        self.ma.unwrap_or(self.ew)
    }
}

/// The storage behind a recording run's Figure 10 table, one entry per
/// instruction in every column, indexed by trace position.
///
/// The four cycle columns are the resolver's own `u32`s, moved in when
/// the run finishes: `fd`, `ew`, `ret` (12 B/instruction, kept only by a
/// recording run) and the tagged `complete` column every run keeps. Every
/// cycle in them lies in the resolver's cycle domain (below 2^30), and a
/// row widens it to the `u64` of [`InstTiming`]. The rest is copied from
/// the arena because the result does not hold it: the static instruction
/// index (4 B), the interned mnemonic id (2 B) and whether the
/// instruction accesses data memory (1 B). A recording run therefore
/// holds 19 B/instruction more than a stats-only one, plus the tiny
/// mnemonic table. `rr`, `ar` and `ma` are derived, and
/// `section`, `index_in_section` and `core` come from the result's
/// sections and placement (see [`StageTable`]). Empty for a stats-only
/// run.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct StageColumns {
    fd: Vec<u32>,
    ew: Vec<u32>,
    ret: Vec<u32>,
    complete: Vec<u32>,
    ip: Vec<u32>,
    mnemonic_id: Vec<u16>,
    mnemonics: Vec<&'static str>,
    mem: Vec<bool>,
}

impl StageColumns {
    /// Takes over the resolver's `[fd, ew, ret, complete]` columns and
    /// copies the per-record facts a row needs from `arena`. `None` when
    /// any cycle is still a sentinel: the run left an instruction
    /// unresolved, and sentinels must never reach a reported row.
    pub(crate) fn record(
        arena: &TraceArena,
        [fd, ew, ret, complete]: [Vec<u32>; 4],
    ) -> Option<StageColumns> {
        let unresolved =
            fd.iter()
                .zip(&ew)
                .zip(&ret)
                .zip(&complete)
                .any(|(((&fd, &ew), &ret), &complete)| {
                    fd == UNKNOWN || ew == UNKNOWN || ret == UNKNOWN || complete >= INCOMPLETE
                });
        if unresolved {
            return None;
        }
        let raw = arena.raw();
        Some(StageColumns {
            fd,
            ew,
            ret,
            complete,
            ip: raw.ip.to_vec(),
            mnemonic_id: raw.mnemonic_id.to_vec(),
            mnemonics: raw.mnemonics.to_vec(),
            mem: (0..arena.len())
                .map(|seq| arena.is_load(seq) || arena.is_store(seq))
                .collect(),
        })
    }

    /// Bytes held by the columns (logical lengths, not capacities, so
    /// the figure is deterministic).
    pub(crate) fn memory_bytes(&self) -> u64 {
        (size_of_val(self.fd.as_slice())
            + size_of_val(self.ew.as_slice())
            + size_of_val(self.ret.as_slice())
            + size_of_val(self.complete.as_slice())
            + size_of_val(self.ip.as_slice())
            + size_of_val(self.mnemonic_id.as_slice())
            + size_of_val(self.mnemonics.as_slice())
            + size_of_val(self.mem.as_slice())) as u64
    }
}

/// A run's per-instruction stage table, the paper's Figure 10 rows
/// ([`SimResult::timings`]). Rows are [`InstTiming`]s built on demand
/// from the stored columns: `rr = fd + 1`, and for a memory instruction
/// `ar = ew + 1` and `ma` is its completion cycle. Empty when the run
/// was stats-only.
#[derive(Debug, Clone, Copy)]
pub struct StageTable<'a> {
    pub(crate) columns: &'a StageColumns,
    pub(crate) sections: &'a [SectionSpan],
    pub(crate) core_of: &'a [CoreId],
}

impl<'a> StageTable<'a> {
    /// Number of rows: the run's instruction count, or 0 for a
    /// stats-only run.
    pub fn len(&self) -> usize {
        self.columns.fd.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row of trace position `seq`, or `None` past the end.
    pub fn get(&self, seq: usize) -> Option<InstTiming> {
        if seq >= self.len() {
            return None;
        }
        // Sections tile trace order, so the first one ending past `seq`
        // holds it.
        let span = &self.sections[self.sections.partition_point(|s| s.end <= seq)];
        Some(self.row(span, seq))
    }

    /// Every row, in trace order.
    pub fn iter(&self) -> impl Iterator<Item = InstTiming> + 'a {
        let table = *self;
        self.sections
            .iter()
            .flat_map(move |span| table.section_rows(span))
    }

    /// The rows of one section, in fetch order (the section's span of
    /// the table; empty for a stats-only run).
    pub(crate) fn section_rows(
        self,
        span: &'a SectionSpan,
    ) -> impl Iterator<Item = InstTiming> + 'a {
        let rows = if self.is_empty() {
            0..0
        } else {
            span.start..span.end
        };
        rows.map(move |seq| self.row(span, seq))
    }

    fn row(&self, span: &SectionSpan, seq: usize) -> InstTiming {
        let columns = self.columns;
        let (fd, ew) = (u64::from(columns.fd[seq]), u64::from(columns.ew[seq]));
        let mem = columns.mem[seq];
        InstTiming {
            seq,
            index_in_section: seq - span.start,
            ip: columns.ip[seq] as usize,
            mnemonic: columns.mnemonics[columns.mnemonic_id[seq] as usize],
            section: span.id,
            core: self.core_of[span.id.0],
            fd,
            rr: fd + 1,
            ew,
            ar: mem.then(|| ew + 1),
            ma: mem.then_some(u64::from(columns.complete[seq])),
            ret: u64::from(columns.ret[seq]),
        }
    }
}

/// Aggregate statistics of one many-core simulation.
///
/// Every field is accumulated **streaming** during the simulation (the
/// resolver's `max_fd`/`max_ret` accumulators, the renaming counters,
/// the NoC's own counters), never derived from the per-instruction stage
/// table — so a stats-only run ([`crate::SimConfig::record_timings`]
/// off) reports statistics bit-identical to a recording run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Number of dynamic instructions simulated.
    pub instructions: u64,
    /// Number of sections.
    pub sections: usize,
    /// Number of distinct cores that hosted at least one section.
    ///
    /// This counts *hosting* cores only; the per-core
    /// [`SimStats::attribution`] table covers **every** core of the
    /// configured chip (its length is the chip's core count), so cores
    /// that never host a section still contribute their all-idle rows to
    /// [`SimStats::occupancy`] — chip-wide occupancy stays well-defined
    /// at 1024 cores instead of silently renormalizing to the used
    /// subset.
    pub cores_used: usize,
    /// Cycle at which the last instruction was fetched.
    pub fetch_cycles: u64,
    /// Cycle at which the last instruction retired.
    pub total_cycles: u64,
    /// `instructions / fetch_cycles` — the paper's headline fetch
    /// parallelism metric (§5).
    pub fetch_ipc: f64,
    /// `instructions / total_cycles`.
    pub retire_ipc: f64,
    /// Renaming requests served by a remote section (register sources).
    pub remote_register_requests: u64,
    /// Renaming requests served by a remote section (memory sources).
    pub remote_memory_requests: u64,
    /// Register sources satisfied by the fork-copied registers.
    pub fork_copied_sources: u64,
    /// Memory sources served by the loader / data memory hierarchy.
    pub dmh_accesses: u64,
    /// Always 0: the engine never releases a stall out of order. A run
    /// in which no core acts and no event is pending is refused as
    /// [`crate::SimError::Diverged`] (`"deadlocked with no pending
    /// event"`) instead. The field stays only because the benchmark
    /// (`crates/bench/src/bin/benchmark/`) asserts it and the workspace's
    /// golden digests fold it.
    pub forced_stall_releases: u64,
    /// Largest number of sections hosted by a single core.
    pub peak_sections_per_core: usize,
    /// Bytes held by the [`parsecs_trace::TraceArena`] the run was
    /// simulated from (allocated capacity of every column — the
    /// functional front-end's resident footprint).
    pub trace_arena_bytes: u64,
    /// Statistics of the underlying NoC model.
    pub noc: NocStats,
    /// Exact per-core cycle attribution: one additive busy /
    /// stalled-by-cause / parked / idle breakdown per *configured* core
    /// (not just hosting cores), each summing to
    /// [`SimStats::total_cycles`]. Accumulated always-on from the
    /// deterministic section/stall event stream (see
    /// [`parsecs_obs::CycleAttribution`]); the tests hold it to the timing
    /// oracle's own per-cycle tally.
    pub attribution: Vec<CoreBreakdown>,
}

impl SimStats {
    /// [`SimStats::trace_arena_bytes`] per simulated instruction.
    pub fn trace_bytes_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.trace_arena_bytes as f64 / self.instructions as f64
        }
    }

    /// Chip-wide fetch-slot occupancy in `[0, 1]`: the busy fraction of
    /// the whole chip's cycle budget, `Σ busy / (cores × total_cycles)`,
    /// over **all** configured cores ([`SimStats::attribution`] is the
    /// denominator, not [`SimStats::cores_used`]). 0.0 on an empty run.
    pub fn occupancy(&self) -> f64 {
        let budget = self.attribution.len() as u64 * self.total_cycles;
        if budget == 0 {
            return 0.0;
        }
        let busy: u64 = self.attribution.iter().map(|b| b.busy).sum();
        busy as f64 / budget as f64
    }
}

/// Formats the per-core timing tables in the layout of the paper's
/// Figure 10: one table per core, one row per instruction, the six stage
/// columns `fd rr ew ar ma ret`. A stats-only run has no stage rows, so
/// its table is empty.
pub fn format_figure10(result: &SimResult) -> String {
    let mut out = String::new();
    let table = result.timings();
    if table.is_empty() {
        return out;
    }
    // Sections tile trace order, so listing the non-empty sections by
    // (core, id) visits each core's rows in trace order: one pass builds
    // every row once.
    let mut spans: Vec<&SectionSpan> = result.sections.iter().filter(|s| !s.is_empty()).collect();
    spans.sort_unstable_by_key(|s| (result.core_of[s.id.0], s.id));
    let mut current = None;
    for span in spans {
        let core = result.core_of[span.id.0];
        if current != Some(core) {
            if current.is_some() {
                let _ = writeln!(out);
            }
            current = Some(core);
            let _ = writeln!(out, "{core} pipeline");
            let _ = writeln!(
                out,
                "{:>6} {:>22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
                "insn", "mnemonic", "fd", "rr", "ew", "ar", "ma", "ret"
            );
        }
        for t in table.section_rows(span) {
            let ar = t.ar.map(|c| c.to_string()).unwrap_or_default();
            let ma = t.ma.map(|c| c.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{:>6} {:>22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
                t.name(),
                t.mnemonic,
                t.fd,
                t.rr,
                t.ew,
                ar,
                ma,
                t.ret
            );
        }
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_prefers_memory_access() {
        let mut t = InstTiming {
            seq: 0,
            index_in_section: 0,
            ip: 0,
            mnemonic: "movq",
            section: SectionId(0),
            core: CoreId(0),
            fd: 1,
            rr: 2,
            ew: 3,
            ar: None,
            ma: None,
            ret: 4,
        };
        assert_eq!(t.completion(), 3);
        assert_eq!(t.name(), "1-1");
        t.ar = Some(4);
        t.ma = Some(7);
        assert_eq!(t.completion(), 7);
    }
}
