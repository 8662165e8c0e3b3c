//! # parsecs-check — static analysis over sectioned trace arenas
//!
//! The execution model rests on structural invariants of the sectioned
//! trace — section spans tiling the record range, one writer per
//! location version, producers strictly preceding consumers — that the
//! engines historically enforced only with scattered `assert!`s. This
//! crate makes them a first-class analysis with four layers:
//!
//! 1. **Invariant validator** ([`check_arena`], [`InvariantViolation`]):
//!    pure passes over the raw columns checking section well-formedness,
//!    dep-slice bounds and packing integrity, the single-writer
//!    renaming discipline, dependence acyclicity and lean-arena column
//!    consistency — returning typed per-violation diagnostics instead of
//!    aborting.
//! 2. **Static bounds analyzer** ([`StaticBounds`]): per-section and
//!    whole-program dependence-DAG critical path and ILP width;
//!    `total_cycles ≥ critical_path` holds for every configuration and
//!    is cross-checked against the engine in the differential tests.
//! 3. **Progress prover** ([`Progress`], [`prove_progress`]): given one
//!    concrete (placement × chip) configuration, proves the section
//!    wait-for graph (producer deps ∪ capacity edges of over-subscribed
//!    cores) admits no cycle, or returns a concrete witness cycle. A
//!    run the engine refuses as deadlocked (`SimError::Diverged`,
//!    "deadlocked with no pending event") must never have been
//!    [`Progress::Proven`]. The engine refuses every deadlock whatever
//!    the verdict, and nothing reads the verdict at run time.
//! 4. **Schedule analyzer** ([`ScheduleBounds`], [`bound_schedule`]):
//!    given a concrete (placement × chip) configuration, a **certified**
//!    NoC/placement-weighted lower bound on the cycle count (critical
//!    path re-weighted with per-hop latencies, maxed against per-core
//!    work and ejection-port contention); the engine checks
//!    `critical_path ≤ lb ≤ cycles` on every validated run.
//!
//! The engine runs the whole analysis before simulating when
//! `SimConfig::validate` is set; the workspace's
//! `tests/check_invariants.rs` runs it over every workload generator at
//! 64, 256 and 1024 cores.
//!
//! ## Example
//!
//! ```
//! use parsecs_check::check_arena;
//! use parsecs_trace::TraceArena;
//!
//! let program = parsecs_asm::assemble(
//!     "t:   .quad 4, 2
//!      main: movq $t, %rdi
//!            fork leaf
//!            out  %rax
//!            halt
//!      leaf: movq (%rdi), %rax
//!            addq 8(%rdi), %rax
//!            endfork",
//! ).expect("assembles");
//! let arena = TraceArena::from_program(&program, 1_000).expect("runs");
//! let report = check_arena(&arena);
//! assert!(report.is_clean());
//! let bounds = report.bounds.expect("clean arenas are analyzed");
//! assert!(bounds.critical_path > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod progress;
mod schedule;
mod validate;
mod violation;

use std::fmt;

use parsecs_trace::TraceArena;

pub use bounds::{SectionBounds, StaticBounds};
pub use progress::{prove_progress, Progress, WaitEdge, WaitKind};
pub use schedule::{bound_schedule, BindingTerm, ChipModel, ScheduleBounds};
pub use violation::InvariantViolation;

/// Diagnostics stored per report before further ones are only counted
/// (a systematically corrupt chip-scale arena must not make the report
/// itself unbounded).
pub(crate) const MAX_VIOLATIONS: usize = 256;

/// The result of the full static analysis of one arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Invariant violations found, in pass order (capped at
    /// 256; see [`CheckReport::truncated`]).
    pub violations: Vec<InvariantViolation>,
    /// Whether violations past the cap were dropped from the list.
    pub truncated: bool,
    /// Static timing bounds (`None` when the validator found violations;
    /// bounds over a lying arena would ground nothing).
    pub bounds: Option<StaticBounds>,
    /// The configuration-aware progress proof (`None` until an engine
    /// attaches it: unlike the passes above it needs a concrete
    /// placement and chip, which [`check_arena`] does not have).
    pub progress: Option<Progress>,
    /// The configuration-aware schedule bounds (`None` until an engine
    /// attaches them — like [`CheckReport::progress`], the pass needs
    /// the concrete placement and chip model).
    pub schedule: Option<ScheduleBounds>,
    /// Records in the analyzed arena.
    pub instructions: usize,
    /// Sections in the analyzed arena.
    pub sections: usize,
    /// Whether the single-writer renaming replay ran (`false` for lean
    /// arenas, which drop the write columns it needs, and when the
    /// structural passes already failed).
    pub writer_discipline_checked: bool,
}

impl CheckReport {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }

    /// The first violation found, if any.
    pub fn first_violation(&self) -> Option<&InvariantViolation> {
        self.violations.first()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(first) = self.first_violation() {
            let extra = if self.truncated { "+" } else { "" };
            write!(
                f,
                "{} violation(s){extra} across {} instruction(s); first: {first}",
                self.violations.len(),
                self.instructions
            )
        } else {
            let Some(bounds) = &self.bounds else {
                return write!(
                    f,
                    "clean: {} instruction(s), {} section(s)",
                    self.instructions, self.sections
                );
            };
            write!(
                f,
                "clean: {} instruction(s), {} section(s), critical path ≥ {}, \
                 ILP width {:.2}",
                self.instructions,
                self.sections,
                bounds.critical_path,
                bounds.ilp_width()
            )?;
            match &self.progress {
                Some(Progress::Proven { longest_wait_chain }) => {
                    write!(f, ", progress proven (wait chain {longest_wait_chain})")?;
                }
                Some(Progress::PotentialCycle { witness }) => {
                    write!(f, ", potential wait cycle ({} edge(s))", witness.len())?;
                }
                None => {}
            }
            if let Some(schedule) = &self.schedule {
                write!(
                    f,
                    ", schedule lb ≥ {} ({} bound)",
                    schedule.lb, schedule.binding
                )?;
            }
            Ok(())
        }
    }
}

/// Runs the full static analysis: the invariant validator always; the
/// bounds analyzer only once the validator comes back clean (it indexes
/// the columns through the offsets the validator vouches for).
pub fn check_arena(arena: &TraceArena) -> CheckReport {
    let mut col = validate::Collector::new(MAX_VIOLATIONS);
    let shape_ok = validate::column_shape(arena, &mut col);
    if shape_ok {
        validate::sections(arena, &mut col);
        validate::deps(arena, &mut col);
    }
    let mut writer_discipline_checked = false;
    if shape_ok && col.out.is_empty() && arena.records_locations() {
        validate::writer_discipline(arena, &mut col);
        writer_discipline_checked = true;
    }
    let clean = col.out.is_empty() && !col.truncated;
    CheckReport {
        violations: col.out,
        truncated: col.truncated,
        bounds: clean.then(|| bounds::analyze(arena)),
        progress: None,
        schedule: None,
        instructions: arena.len(),
        sections: arena.sections().len(),
        writer_discipline_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_arena() -> TraceArena {
        let program = parsecs_asm::assemble(
            "t:   .quad 4, 2, 6
             main: movq $t, %rdi
                   fork leaf
                   out  %rax
                   halt
             leaf: movq (%rdi), %rax
                   addq 8(%rdi), %rax
                   addq 16(%rdi), %rax
                   endfork",
        )
        .expect("assembles");
        TraceArena::from_program(&program, 10_000).expect("runs")
    }

    #[test]
    fn clean_arenas_certify_and_bound() {
        let report = check_arena(&sum_arena());
        assert!(report.is_clean(), "{report}");
        assert!(report.writer_discipline_checked);
        let bounds = report.bounds.as_ref().expect("bounds");
        // The three-instruction add chain in `leaf` forces at least four
        // dependence levels (movq feeds addq feeds addq, plus main's
        // movq $t).
        assert!(bounds.dag_depth >= 4, "depth {}", bounds.dag_depth);
        assert!(bounds.critical_path as usize >= bounds.dag_depth);
        assert!(bounds.ilp_width() > 0.0);
        assert_eq!(bounds.per_section.len(), report.sections);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn lean_arenas_skip_only_the_writer_replay() {
        let program = parsecs_asm::assemble(
            "main: movq $7, %rax
                   out %rax
                   halt",
        )
        .expect("assembles");
        let arena = parsecs_trace::TraceArena::from_program_lean(&program, 1_000).expect("runs");
        let report = check_arena(&arena);
        assert!(report.is_clean(), "{report}");
        assert!(!report.writer_discipline_checked);
        assert!(report.bounds.is_some());
    }

    #[test]
    fn display_renders_attached_schedule_bounds() {
        use parsecs_noc::{NocConfig, NocModel, Topology};

        let arena = sum_arena();
        let mut report = check_arena(&arena);
        assert!(
            !report.to_string().contains("schedule lb"),
            "no schedule clause before an engine attaches one"
        );
        let model = ChipModel {
            cores: 2,
            noc: NocModel::new(Topology::crossbar(2), NocConfig::default()),
            dmh_latency: 3,
            per_section_hop: 0,
        };
        let core_of: Vec<usize> = (0..report.sections).map(|s| s % 2).collect();
        let schedule = bound_schedule(&arena, &core_of, &model);
        report.schedule = Some(schedule.clone());
        let text = report.to_string();
        assert!(
            text.contains(&format!(
                "schedule lb ≥ {} ({} bound)",
                schedule.lb, schedule.binding
            )),
            "diagnostics must render the schedule verdict: {text}"
        );
        // The one-line diagnostic stays bounded whatever the cell size.
        assert!(text.len() < 400, "diagnostic ballooned: {text}");
    }

    #[test]
    fn empty_arenas_are_clean() {
        let report = check_arena(&TraceArena::new());
        assert!(report.is_clean());
        assert_eq!(report.instructions, 0);
        assert_eq!(
            report.bounds.expect("bounds").critical_path,
            0,
            "an empty trace retires nothing"
        );
    }
}
