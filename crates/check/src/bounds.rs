//! The static bounds analyzer: dependence-DAG critical path and ILP
//! width.
//!
//! The analyzer computes a **configuration-independent lower bound** on
//! the engine's retirement span from the trace structure alone, using
//! only recurrences every configuration satisfies (all NoC and DMH
//! latencies are ≥ 0, cores fetch at most one instruction per cycle, and
//! stalls only ever delay):
//!
//! * *Fetch*: the root section's first fetch happens no earlier than
//!   cycle 1; fetch within a section is strictly one per cycle; a forked
//!   section's first fetch happens no earlier than two cycles after its
//!   fork (the creation message is delivered the following cycle at the
//!   earliest, and dequeuing it consumes a cycle).
//! * *Completion*: completion never precedes the fetch cycle, never
//!   precedes any producer's completion, is at least fetch + 2 for a
//!   non-memory instruction with a remote register source (the
//!   execute-writeback path), and at least fetch + 4 for a memory
//!   instruction (execute, address, then the two-cycle minimum memory
//!   round trip).
//! * *Retirement*: in-order per section, `max(completion, previous
//!   retirement) + 1`.
//!
//! `total_cycles ≥ critical_path` therefore holds for **every** chip
//! configuration; the differential tests assert it against the engine,
//! catching optimistic-timing bugs without modelling any one chip.

use parsecs_trace::{SourceKind, TraceArena};

/// Whole-program static bounds (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StaticBounds {
    /// Configuration-independent lower bound on the retirement span
    /// (`SimStats::total_cycles`) of any engine run over this arena.
    pub critical_path: u64,
    /// Depth of the dependence DAG in levels (producer-to-consumer
    /// edges only; 0 for an empty trace).
    pub dag_depth: usize,
    /// Number of records analyzed.
    pub instructions: usize,
    /// Per-section bounds, in total order.
    pub per_section: Vec<SectionBounds>,
}

impl StaticBounds {
    /// Average instruction-level parallelism the dependence DAG admits:
    /// instructions per DAG level (the paper's ILP-limit vocabulary).
    pub(crate) fn ilp_width(&self) -> f64 {
        if self.dag_depth == 0 {
            0.0
        } else {
            self.instructions as f64 / self.dag_depth as f64
        }
    }
}

/// Static bounds of one section.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SectionBounds {
    /// The section's position in total order.
    pub section: usize,
    /// Instructions in the section.
    pub len: usize,
    /// Depth of the section's *local* dependence chains (levels over
    /// `SourceKind::Local` edges only; 0 for an empty section).
    pub local_depth: usize,
}

/// Computes the bounds of a structurally valid arena (the caller — see
/// [`crate::check_arena`] — runs the invariant validator first; the
/// forward sweeps below index producers unchecked).
pub(crate) fn analyze(arena: &TraceArena) -> StaticBounds {
    let n = arena.len();
    let spans = arena.sections();
    let mut fetch_lb = vec![0u64; n];
    let mut completion_lb = vec![0u64; n];
    let mut level = vec![0u32; n];
    let mut local_level = vec![0u32; n];
    let mut critical_path = 0u64;
    let mut per_section = Vec::with_capacity(spans.len());
    for (sid, span) in spans.iter().enumerate() {
        let mut retire_last = 0u64;
        let mut local_depth = 0u32;
        for seq in span.start..span.end {
            fetch_lb[seq] = if seq == span.start {
                match span.creator {
                    Some((_, fork_seq)) => fetch_lb[fork_seq] + 2,
                    None => 1,
                }
            } else {
                fetch_lb[seq - 1] + 1
            };
            let is_mem = arena.is_load(seq) || arena.is_store(seq);
            let mut completion = fetch_lb[seq] + if is_mem { 4 } else { 0 };
            let reg = arena.reg_sources(seq).len();
            let mut remote_reg = false;
            for (j, dep) in arena.sources(seq).iter().enumerate() {
                match dep.kind() {
                    SourceKind::Local { producer } => {
                        completion = completion.max(completion_lb[producer]);
                        level[seq] = level[seq].max(level[producer] + 1);
                        local_level[seq] = local_level[seq].max(local_level[producer] + 1);
                    }
                    SourceKind::Remote { producer } => {
                        completion = completion.max(completion_lb[producer]);
                        level[seq] = level[seq].max(level[producer] + 1);
                        remote_reg |= j < reg;
                    }
                    SourceKind::ForkCopy
                    | SourceKind::InitialRegister
                    | SourceKind::InitialMemory => {}
                }
            }
            if !is_mem && remote_reg {
                completion = completion.max(fetch_lb[seq] + 2);
            }
            completion_lb[seq] = completion;
            local_depth = local_depth.max(local_level[seq] + 1);
            retire_last = completion.max(retire_last) + 1;
        }
        critical_path = critical_path.max(retire_last);
        per_section.push(SectionBounds {
            section: sid,
            len: span.len(),
            local_depth: local_depth as usize,
        });
    }
    let dag_depth = level.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    StaticBounds {
        critical_path,
        dag_depth,
        instructions: n,
        per_section,
    }
}
