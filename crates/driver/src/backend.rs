//! The [`ExecutionBackend`] trait and its three engine implementations.

use parsecs_check::{CheckReport, LocationCheck};
use parsecs_core::{ManyCoreSim, SimConfig, SimError};
use parsecs_ilp::{IlpModel, IlpScheduler};
use parsecs_isa::Program;
use parsecs_machine::Machine;
use parsecs_trace::{TraceArena, TraceError};

use crate::{DriverError, ReportDetail, RunReport};

/// A uniform way to execute one [`Program`] on one of the three engines
/// (sequential reference machine, trace-based ILP analyzer, many-core
/// sectioned simulator) and get back a comparable [`RunReport`].
///
/// Backends are stateless with respect to programs: `execute_fueled`
/// borrows the backend immutably, so one backend can serve many
/// programs.
pub trait ExecutionBackend {
    /// A short, stable name identifying the backend and its configuration
    /// (used in reports and golden-table rows).
    fn name(&self) -> String;

    /// Executes `program` with an explicit fuel (maximum dynamic
    /// instruction count for the functional execution).
    ///
    /// # Errors
    ///
    /// Returns a [`DriverError`] when the program fails to load, does not
    /// halt within `fuel` instructions, faults, or the backend is
    /// misconfigured.
    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError>;
}

/// The sequential reference machine as a backend: one instruction per
/// cycle. The run is not traced, so it costs no more than the bare
/// machine, and the report carries no detail
/// ([`ReportDetail::Sequential`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialBackend;

impl ExecutionBackend for SequentialBackend {
    fn name(&self) -> String {
        "sequential".into()
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        let outcome = Machine::load(program)?.run(fuel)?;
        Ok(RunReport {
            backend: self.name(),
            outputs: outcome.outputs,
            instructions: outcome.instructions,
            // The reference machine models a scalar in-order core: one
            // instruction fetched and retired per cycle.
            cycles: outcome.instructions,
            fetch_ipc: 1.0,
            retire_ipc: 1.0,
            detail: ReportDetail::Sequential,
        })
    }
}

/// The ILP limit analyzer as a backend: the reference machine streams the
/// program's run into an [`IlpScheduler`] under one [`IlpModel`], so no
/// trace is materialised; `cycles` is the dataflow schedule length and
/// both IPC fields report the achieved ILP.
#[derive(Debug, Clone)]
pub struct IlpBackend {
    label: String,
    model: IlpModel,
}

impl IlpBackend {
    /// An analyzer backend under an explicit model, labelled for reports.
    pub fn new(label: impl Into<String>, model: IlpModel) -> IlpBackend {
        IlpBackend {
            label: label.into(),
            model,
        }
    }

    /// The paper's *parallel ideal* model (every destination renamed,
    /// control computed, stack-pointer dependences excluded).
    pub fn parallel_ideal() -> IlpBackend {
        IlpBackend::new("parallel-ideal", IlpModel::parallel_ideal())
    }

    /// The paper's *sequential oracle* model (unlimited register renaming
    /// and perfect prediction, but no memory renaming).
    pub fn sequential_oracle() -> IlpBackend {
        IlpBackend::new("sequential-oracle", IlpModel::sequential_oracle())
    }
}

impl ExecutionBackend for IlpBackend {
    fn name(&self) -> String {
        format!("ilp:{}", self.label)
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        let mut scheduler = IlpScheduler::new([self.model.clone()]);
        let outcome = Machine::load(program)?.run_with_sink(fuel, &mut scheduler)?;
        let result = scheduler.finish().remove(0);
        Ok(RunReport {
            backend: self.name(),
            outputs: outcome.outputs,
            instructions: result.instructions,
            cycles: result.cycles,
            fetch_ipc: result.ilp,
            retire_ipc: result.ilp,
            detail: ReportDetail::Ilp(result),
        })
    }
}

/// The many-core sectioned simulator as a backend: `cycles` is the last
/// retirement cycle and the full [`parsecs_core::SimResult`] rides along
/// as detail.
#[derive(Debug, Clone)]
pub struct ManyCoreBackend {
    config: SimConfig,
}

impl ManyCoreBackend {
    /// A simulator backend over an explicit configuration.
    pub fn new(config: SimConfig) -> ManyCoreBackend {
        ManyCoreBackend { config }
    }

    /// A simulator backend with `cores` cores and default parameters.
    pub fn with_cores(cores: usize) -> ManyCoreBackend {
        ManyCoreBackend::new(SimConfig::with_cores(cores))
    }
}

/// The backend label of a many-core configuration: a `manycore:…` prefix
/// with the core count and placement policy, then one `:suffix` per
/// setting that differs from [`SimConfig::default`] — the single place
/// every label suffix is assembled, so no two distinct configurations
/// can share a label and no call site can disagree on suffix order.
pub(crate) fn manycore_label(config: &SimConfig) -> String {
    let defaults = SimConfig::default();
    let mut name = format!("manycore:{}c:{}", config.cores, config.placement.name());
    if config.noc.base_latency != defaults.noc.base_latency
        || config.noc.per_hop_latency != defaults.noc.per_hop_latency
    {
        name.push_str(&format!(
            ":noc{}+{}",
            config.noc.base_latency, config.noc.per_hop_latency
        ));
    }
    if let Some(bandwidth) = config.noc.link_bandwidth {
        name.push_str(&format!(":bw{bandwidth}"));
    }
    if let Some(topology) = config.topology {
        name.push_str(&format!(":{}", topology.to_string().replace(' ', "-")));
    }
    if config.max_sections_per_core != defaults.max_sections_per_core {
        name.push_str(&format!(":cap{}", config.max_sections_per_core));
    }
    if config.dmh_latency != defaults.dmh_latency {
        name.push_str(&format!(":dmh{}", config.dmh_latency));
    }
    if config.per_section_hop != defaults.per_section_hop {
        name.push_str(&format!(":walk{}", config.per_section_hop));
    }
    if !config.fetch_stalls_on_unresolved_control {
        name.push_str(":nostall");
    }
    if !config.record_timings {
        name.push_str(":stats");
    }
    if config.validate {
        name.push_str(":validate");
    }
    name
}

impl ExecutionBackend for ManyCoreBackend {
    /// Encodes the configuration through the crate's single
    /// `manycore_label` assembler — core count, placement policy, and
    /// every other setting that differs from [`SimConfig::default`] — so
    /// that no two distinct configurations share a label.
    fn name(&self) -> String {
        manycore_label(&self.config)
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        // A bad configuration fails before the pre-execution runs.
        self.config.validate().map_err(SimError::Config)?;
        // A validated run checks the renaming while its arena streams;
        // `simulate_arena` then checks the finished arena's structure.
        let arena = if self.config.validate {
            refuse_renaming_errors(LocationCheck::from_program(program, fuel))?
        } else {
            TraceArena::from_program(program, fuel).map_err(SimError::from)?
        };
        let result = ManyCoreSim::new(self.config.clone()).simulate_arena(&arena)?;
        Ok(RunReport {
            backend: self.name(),
            outputs: result.outputs.clone(),
            instructions: result.stats.instructions,
            cycles: result.stats.total_cycles,
            fetch_ipc: result.stats.fetch_ipc,
            retire_ipc: result.stats.retire_ipc,
            detail: ReportDetail::Sim(Box::new(result)),
        })
    }
}

/// The arena a validated run built through its [`LocationCheck`], or
/// [`SimError::Invariant`] carrying the check's report when a dependence
/// names the wrong producer or provenance.
fn refuse_renaming_errors(
    built: Result<(TraceArena, CheckReport), TraceError>,
) -> Result<TraceArena, SimError> {
    let (arena, report) = built?;
    if report.is_clean() {
        Ok(arena)
    } else {
        Err(SimError::Invariant(Box::new(report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_machine::MachineError;
    use parsecs_workloads::sum;

    const FUEL: u64 = 100_000;

    #[test]
    fn sequential_backend_reports_one_ipc_and_no_detail() {
        let program = sum::call_program(&[4, 2, 6, 4, 5]);
        let report = SequentialBackend.execute_fueled(&program, FUEL).unwrap();
        assert_eq!(report.outputs, vec![21]);
        assert_eq!(report.cycles, report.instructions);
        assert_eq!(report.fetch_ipc, 1.0);
        assert_eq!(report.detail, ReportDetail::Sequential);
        assert_eq!(report.fetch_cycles(), report.instructions);
        assert!(report.to_string().contains("sequential"));
    }

    #[test]
    fn ilp_backend_schedules_shorter_than_sequential() {
        let program = sum::call_program(&[4, 2, 6, 4, 5]);
        let parallel = IlpBackend::parallel_ideal()
            .execute_fueled(&program, FUEL)
            .unwrap();
        let oracle = IlpBackend::sequential_oracle()
            .execute_fueled(&program, FUEL)
            .unwrap();
        assert_eq!(parallel.outputs, vec![21]);
        assert!(parallel.cycles <= oracle.cycles);
        assert!(parallel.fetch_ipc >= oracle.fetch_ipc);
        assert!(parallel.ilp().is_some());
        assert_eq!(parallel.backend, "ilp:parallel-ideal");
    }

    #[test]
    fn manycore_backend_beats_one_fetch_ipc_on_forked_sum() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let report = ManyCoreBackend::with_cores(8)
            .execute_fueled(&program, FUEL)
            .unwrap();
        assert_eq!(report.outputs, vec![21]);
        assert!(report.fetch_ipc > 1.0);
        assert!(report.fetch_cycles() <= report.cycles);
        let stats = &report.sim().unwrap().stats;
        assert_eq!(stats.sections, 6);
        assert_eq!(report.backend, "manycore:8c:round-robin");
        // The functional front-end's memory accounting rides along.
        assert!(stats.trace_arena_bytes > 0);
        let per_insn = stats.trace_bytes_per_instruction();
        assert!(
            per_insn > 0.0 && per_insn < 250.0,
            "{per_insn:.1} B/insn out of range"
        );
        let sequential = SequentialBackend.execute_fueled(&program, FUEL).unwrap();
        assert!(sequential.sim().is_none());
    }

    /// A validated run checks its renaming in a sink beside the
    /// sectioner and stores no more than an unvalidated one: the two
    /// runs hold the same arena and report the same result, but for the
    /// attached check report.
    #[test]
    fn validated_and_unvalidated_runs_hold_the_same_arena() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let validated = ManyCoreBackend::new(SimConfig::with_cores(8).validated())
            .execute_fueled(&program, FUEL)
            .unwrap();
        let plain = ManyCoreBackend::with_cores(8)
            .execute_fueled(&program, FUEL)
            .unwrap();
        let (validated, plain) = (validated.sim().unwrap(), plain.sim().unwrap());
        assert!(validated.check.as_ref().is_some_and(|c| c.is_clean()));
        assert_eq!(
            plain.stats.trace_arena_bytes,
            TraceArena::from_program(&program, FUEL)
                .unwrap()
                .memory_bytes() as u64
        );
        let mut plain = plain.clone();
        plain.check.clone_from(&validated.check);
        assert_eq!(&plain, validated);
    }

    /// Doctored `(step, deps)` streams, one per shape of renaming error,
    /// go through the location check and the refusal `execute_fueled`
    /// applies to it: each is refused as `SimError::Invariant` naming
    /// the writer-discipline violation. (A program cannot make the
    /// sectioner emit a wrong dependence, so the streams are fed to the
    /// check directly.)
    #[test]
    fn validated_runs_refuse_every_shape_of_renaming_error() {
        use parsecs_check::InvariantViolation;
        use parsecs_machine::{Location, TraceKind, TraceStep};
        use parsecs_trace::{InsnEntry, PackedDep, SourceKind, StreamingSectioner};

        let rax = [Location::Reg(parsecs_isa::Reg::Rax)];
        let rbx = [Location::Reg(parsecs_isa::Reg::Rbx)];
        let step = |reads, writes| TraceStep {
            seq: 0,
            ip: 0,
            mnemonic: "movq",
            reads,
            writes,
            is_control: false,
            updates_stack_pointer: false,
            kind: TraceKind::Other,
            out_value: None,
        };
        let local = |producer| PackedDep::new(SourceKind::Local { producer });
        // (stream, claimed producer, closest preceding writer)
        let shapes = [
            // A wrong producer: record 2 names record 0, but record 1
            // wrote %rax since.
            (
                vec![
                    (step(&[], &rax), vec![]),
                    (step(&[], &rax), vec![]),
                    (step(&rax, &[]), vec![local(0)]),
                ],
                Some(0),
                Some(1),
            ),
            // A wrong provenance: the right producer, tagged remote in
            // its own section.
            (
                vec![
                    (step(&[], &rax), vec![]),
                    (
                        step(&rax, &[]),
                        vec![PackedDep::new(SourceKind::Remote { producer: 0 })],
                    ),
                ],
                Some(0),
                Some(0),
            ),
            // A missed initial read: %rbx was never written.
            (
                vec![(step(&[], &rax), vec![]), (step(&rbx, &[]), vec![local(0)])],
                Some(0),
                None,
            ),
        ];
        for (stream, claimed, actual) in shapes {
            let mut check = LocationCheck::new(StreamingSectioner::new());
            for (step, deps) in &stream {
                check.check(step, deps, InsnEntry::of_step(step, 0), step.mnemonic);
            }
            let Err(SimError::Invariant(report)) = refuse_renaming_errors(check.finish(vec![]))
            else {
                panic!("a renaming error must refuse the run");
            };
            let seq = stream.len() - 1;
            assert_eq!(
                report.violations,
                [InvariantViolation::WriterDiscipline {
                    seq,
                    dep: 0,
                    claimed,
                    actual,
                }]
            );
        }
    }

    #[test]
    fn fuel_is_respected() {
        let program = sum::call_program(&[1, 2, 3, 4]);
        let err = SequentialBackend.execute_fueled(&program, 3).unwrap_err();
        assert_eq!(
            err,
            DriverError::Machine(MachineError::OutOfFuel { steps: 3 })
        );
        let err = ManyCoreBackend::with_cores(4)
            .execute_fueled(&program, 3)
            .unwrap_err();
        assert!(matches!(err, DriverError::Sim(_)));
    }

    #[test]
    fn stats_only_reports_exact_stats_without_a_stage_table() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let full = ManyCoreBackend::with_cores(8)
            .execute_fueled(&program, FUEL)
            .unwrap();
        let stats = ManyCoreBackend::new(SimConfig::with_cores(8).stats_only())
            .execute_fueled(&program, FUEL)
            .unwrap();
        assert_eq!(stats.backend, "manycore:8c:round-robin:stats");
        // Aggregates are bit-identical across the two modes...
        assert_eq!(stats.outputs, full.outputs);
        assert_eq!(stats.cycles, full.cycles);
        assert_eq!(stats.fetch_ipc, full.fetch_ipc);
        let (full, stats) = (full.sim().unwrap(), stats.sim().unwrap());
        assert_eq!(stats.stats, full.stats);
        // ...but only the recording run carries the stage table.
        assert!(full.timings_recorded);
        assert_eq!(full.timings().len() as u64, full.stats.instructions);
        assert!(!stats.timings_recorded);
        assert!(stats.timings().is_empty());
        // The footprint accounting reflects the dropped columns: the
        // stage table's 16 B per instruction, plus its instruction and
        // mnemonic tables.
        let (full_state, stats_state) = (full.sim_state_bytes(), stats.sim_state_bytes());
        assert!(
            stats_state + 16 * full.stats.instructions <= full_state,
            "stats-only state {stats_state} should be the table's bytes below full {full_state}"
        );
        assert!(stats.total_bytes_per_instruction() > 0.0);
    }

    #[test]
    fn validated_config_attaches_a_clean_report() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let plain = ManyCoreBackend::with_cores(8);
        let validated = ManyCoreBackend::new(SimConfig::with_cores(8).validated());
        assert_eq!(validated.name(), "manycore:8c:round-robin:validate");
        let report = validated.execute_fueled(&program, FUEL).unwrap();
        let check = report.sim().unwrap().check.as_deref();
        let check = check.expect("validated run carries a report");
        assert!(check.is_clean());
        assert!(check.bounds.as_ref().unwrap().critical_path <= report.cycles);
        // Aside from the attachment and the label, the validated run is
        // identical.
        let baseline = plain.execute_fueled(&program, FUEL).unwrap();
        assert_eq!(baseline.cycles, report.cycles);
        assert_eq!(baseline.outputs, report.outputs);
        assert_eq!(baseline.sim().unwrap().check, None);
    }

    #[test]
    fn attribution_tiles_the_cycle_budget_of_every_core() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let report = ManyCoreBackend::with_cores(8)
            .execute_fueled(&program, FUEL)
            .unwrap();
        // The always-on attribution table covers every configured core
        // and tiles the whole cycle budget.
        let stats = &report.sim().unwrap().stats;
        assert_eq!(stats.attribution.len(), 8);
        assert!(stats.attribution.iter().all(|b| b.total() == report.cycles));
        let occupancy = stats.occupancy();
        assert!(occupancy > 0.0 && occupancy <= 1.0);
    }

    #[test]
    fn manycore_names_distinguish_every_ablation_axis() {
        let mut config = SimConfig::with_cores(16);
        config.noc.link_bandwidth = Some(2);
        config.dmh_latency = 7;
        config.max_sections_per_core = 2;
        config.per_section_hop = 4;
        config.fetch_stalls_on_unresolved_control = false;
        let name = ManyCoreBackend::new(config).name();
        assert_eq!(name, "manycore:16c:round-robin:bw2:cap2:dmh7:walk4:nostall");
        assert_ne!(
            ManyCoreBackend::with_cores(16).name(),
            ManyCoreBackend::new(
                SimConfig::with_cores(16).with_placement(parsecs_core::Placement::LoadAware)
            )
            .name()
        );
    }

    #[test]
    fn manycore_label_assembles_every_suffix_in_one_place() {
        // Suffixes stack in the helper's fixed order: `:stats` before
        // `:validate`.
        let config = SimConfig::with_cores(8).stats_only().validated();
        let stacked = ManyCoreBackend::new(config.clone());
        assert_eq!(stacked.name(), "manycore:8c:round-robin:stats:validate");
        // The backend's public name and the helper agree by construction.
        assert_eq!(stacked.name(), manycore_label(&config));
    }
}
