//! The [`ExecutionBackend`] trait and its three engine implementations.

use parsecs_core::{ManyCoreSim, NoopProbe, SimConfig, SimError, SimProbe, TraceArena};
use parsecs_ilp::{analyze, IlpModel};
use parsecs_isa::Program;
use parsecs_machine::Machine;

use crate::{DriverError, ReportDetail, RunReport};

/// Fuel used when the caller does not specify one: matches the many-core
/// simulator's default functional pre-execution budget.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// A uniform way to execute one [`Program`] on one of the three engines
/// (sequential reference machine, trace-based ILP analyzer, many-core
/// sectioned simulator) and get back a comparable [`RunReport`].
///
/// Backends are stateless with respect to programs — `execute` borrows the
/// backend immutably — and `Send + Sync`, so one backend can serve many
/// programs from many threads (the property [`crate::Sweep`] relies on).
pub trait ExecutionBackend: Send + Sync {
    /// A short, stable name identifying the backend and its configuration
    /// (used in reports and sweep labels).
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

    /// Executes `program` with [`DEFAULT_FUEL`].
    ///
    /// # Errors
    ///
    /// Same as [`ExecutionBackend::execute_fueled`].
    fn execute(&self, program: &Program) -> Result<RunReport, DriverError> {
        self.execute_fueled(program, DEFAULT_FUEL)
    }
}

/// Boxed backends execute by delegation, so `Runner`/`Sweep` can hold
/// heterogeneous backend lists.
impl ExecutionBackend for Box<dyn ExecutionBackend> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        self.as_ref().execute_fueled(program, fuel)
    }
}

/// The sequential reference machine as a backend: one instruction per
/// cycle, and the dynamic [`parsecs_machine::Trace`] as detail.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialBackend;

impl ExecutionBackend for SequentialBackend {
    fn name(&self) -> String {
        "sequential".into()
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        let mut machine = Machine::load(program)?;
        let (outcome, trace) = machine.run_traced(fuel)?;
        Ok(RunReport {
            backend: self.name(),
            outputs: outcome.outputs,
            instructions: outcome.instructions,
            // The reference machine models a scalar in-order core: one
            // instruction fetched and retired per cycle.
            cycles: outcome.instructions,
            fetch_ipc: 1.0,
            retire_ipc: 1.0,
            detail: ReportDetail::Trace(trace),
        })
    }
}

/// The trace-based ILP limit analyzer as a backend: the program is traced
/// on the reference machine and scheduled under an [`IlpModel`]; `cycles`
/// is the dataflow schedule length and both IPC fields report the
/// achieved ILP.
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

    /// The dependence model this backend schedules under.
    pub fn model(&self) -> &IlpModel {
        &self.model
    }
}

impl ExecutionBackend for IlpBackend {
    fn name(&self) -> String {
        format!("ilp:{}", self.label)
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        let mut machine = Machine::load(program)?;
        let (outcome, trace) = machine.run_traced(fuel)?;
        let result = analyze(&trace, &self.model);
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

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Turns on the pre-simulation static analysis (builder style): the
    /// run is rejected with a typed report when the trace arena violates
    /// the sectioned-trace invariants, and a clean
    /// [`parsecs_core::CheckReport`] rides along on [`RunReport::check`].
    pub fn validated(mut self) -> ManyCoreBackend {
        self.config.validate = true;
        self
    }

    /// Sets the event engine's worker-thread count (builder style) — see
    /// [`SimConfig::threads`]: above one, the run forks its fetch walk
    /// and drain rounds, bit-identically to the sequential path and only
    /// under a `Certified` static drain verdict.
    pub fn threaded(mut self, threads: usize) -> ManyCoreBackend {
        self.config.threads = threads;
        self
    }

    /// Like [`ExecutionBackend::execute`], with a telemetry probe
    /// observing the timing run (see
    /// [`parsecs_core::ManyCoreSim::simulate_arena_probed`]). Probes are
    /// monomorphized into the engine — [`parsecs_core::SimProbe`] is not
    /// object-safe — so this lives on the concrete backend rather than
    /// the trait; the produced [`RunReport`] is bit-identical to the
    /// unprobed one.
    ///
    /// # Errors
    ///
    /// Same as [`ExecutionBackend::execute`].
    pub fn execute_probed<P: SimProbe>(
        &self,
        program: &Program,
        probe: &mut P,
    ) -> Result<RunReport, DriverError> {
        self.execute_probed_fueled(program, self.config.fuel, probe)
    }

    /// [`ManyCoreBackend::execute_probed`] with an explicit fuel
    /// overriding the configuration's.
    ///
    /// # Errors
    ///
    /// Same as [`ExecutionBackend::execute_fueled`].
    pub fn execute_probed_fueled<P: SimProbe>(
        &self,
        program: &Program,
        fuel: u64,
        probe: &mut P,
    ) -> Result<RunReport, DriverError> {
        // A bad configuration fails before the pre-execution runs.
        self.config.validate().map_err(SimError::Config)?;
        let arena = TraceArena::from_program(program, fuel).map_err(SimError::from)?;
        let result = ManyCoreSim::new(self.config.clone()).simulate_arena_probed(&arena, probe)?;
        // A forced stall release means the stall/wake model broke down:
        // refuse the untrustworthy timings instead of reporting them.
        if result.stats.forced_stall_releases > 0 {
            return Err(DriverError::Deadlock {
                forced_stall_releases: result.stats.forced_stall_releases,
            });
        }
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

/// The backend label of a many-core configuration: a `manycore:…` prefix
/// with the core count and placement policy, then one `:suffix` per
/// setting that differs from [`SimConfig::default`] — the single place
/// every label suffix is assembled, so no two distinct sweep
/// configurations can share a label and no call site can disagree on
/// suffix order. Defaults follow the environment (`PARSECS_VALIDATE`,
/// `PARSECS_THREADS`), so forcing validation or threading on for a whole
/// suite leaves every label unchanged.
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
    if config.threads != defaults.threads {
        name.push_str(&format!(":t{}", config.threads));
    }
    if config.validate != defaults.validate {
        name.push_str(if config.validate {
            ":validate"
        } else {
            ":novalidate"
        });
    }
    name
}

impl ExecutionBackend for ManyCoreBackend {
    /// Encodes the configuration through the crate's single
    /// `manycore_label` assembler — core count, placement policy, and
    /// every other setting that differs from [`SimConfig::default`] — so
    /// that no two distinct sweep configurations share a label.
    fn name(&self) -> String {
        manycore_label(&self.config)
    }

    /// Runs with the *configuration's* own fuel budget (unlike the trait
    /// default, which would substitute [`DEFAULT_FUEL`]).
    fn execute(&self, program: &Program) -> Result<RunReport, DriverError> {
        self.execute_fueled(program, self.config.fuel)
    }

    /// The explicit `fuel` overrides the configuration's `fuel` field.
    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        self.execute_probed_fueled(program, fuel, &mut NoopProbe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_machine::MachineError;
    use parsecs_workloads::sum;

    #[test]
    fn sequential_backend_reports_one_ipc_and_a_trace() {
        let program = sum::call_program(&[4, 2, 6, 4, 5]);
        let report = SequentialBackend.execute(&program).unwrap();
        assert_eq!(report.outputs, vec![21]);
        assert_eq!(report.cycles, report.instructions);
        assert_eq!(report.fetch_ipc, 1.0);
        assert_eq!(report.trace().unwrap().len() as u64, report.instructions);
        assert!(report.to_string().contains("sequential"));
    }

    #[test]
    fn ilp_backend_schedules_shorter_than_sequential() {
        let program = sum::call_program(&[4, 2, 6, 4, 5]);
        let parallel = IlpBackend::parallel_ideal().execute(&program).unwrap();
        let oracle = IlpBackend::sequential_oracle().execute(&program).unwrap();
        assert_eq!(parallel.outputs, vec![21]);
        assert!(parallel.cycles <= oracle.cycles);
        assert!(parallel.fetch_ipc >= oracle.fetch_ipc);
        assert!(parallel.ilp().is_some());
        assert_eq!(parallel.backend, "ilp:parallel-ideal");
    }

    #[test]
    fn manycore_backend_beats_one_fetch_ipc_on_forked_sum() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let report = ManyCoreBackend::with_cores(8).execute(&program).unwrap();
        assert_eq!(report.outputs, vec![21]);
        assert!(report.fetch_ipc > 1.0);
        assert!(report.fetch_cycles() <= report.cycles);
        assert_eq!(report.sim().unwrap().stats.sections, 6);
        assert_eq!(report.backend, "manycore:8c:round-robin");
        // The functional front-end's memory accounting rides along.
        let bytes = report
            .trace_arena_bytes()
            .expect("manycore builds an arena");
        assert!(bytes > 0);
        let per_insn = report.trace_bytes_per_instruction().unwrap();
        assert!(
            per_insn > 0.0 && per_insn < 250.0,
            "{per_insn:.1} B/insn out of range"
        );
        let sequential = SequentialBackend.execute(&program).unwrap();
        assert_eq!(sequential.trace_arena_bytes(), None);
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
    fn manycore_execute_respects_the_configs_own_fuel() {
        let program = sum::call_program(&[1, 2, 3, 4]);
        let mut starved = SimConfig::with_cores(4);
        starved.fuel = 3;
        // execute() uses the config's budget, not DEFAULT_FUEL...
        let err = ManyCoreBackend::new(starved.clone())
            .execute(&program)
            .unwrap_err();
        assert!(matches!(err, DriverError::Sim(_)));
        // ...while an explicit fuel overrides it.
        let report = ManyCoreBackend::new(starved)
            .execute_fueled(&program, 100_000)
            .unwrap();
        assert_eq!(report.outputs, vec![10]);
    }

    #[test]
    fn stats_only_reports_exact_stats_without_a_stage_table() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let full = ManyCoreBackend::with_cores(8).execute(&program).unwrap();
        let stats = ManyCoreBackend::new(SimConfig::with_cores(8).stats_only())
            .execute(&program)
            .unwrap();
        assert_eq!(stats.backend, "manycore:8c:round-robin:stats");
        // Aggregates are bit-identical across the two modes...
        assert_eq!(stats.outputs, full.outputs);
        assert_eq!(stats.cycles, full.cycles);
        assert_eq!(stats.fetch_ipc, full.fetch_ipc);
        assert_eq!(stats.sim().unwrap().stats, full.sim().unwrap().stats);
        // ...but only the recording run carries the stage table.
        assert_eq!(full.timings().unwrap().len() as u64, full.instructions);
        assert_eq!(stats.timings(), None);
        assert!(stats.sim().unwrap().timings.is_empty());
        // The footprint accounting reflects the dropped columns.
        let full_state = full.sim_state_bytes().unwrap();
        let stats_state = stats.sim_state_bytes().unwrap();
        assert!(
            stats_state < full_state / 3,
            "stats-only state {stats_state} should be far below full {full_state}"
        );
        assert!(stats.total_bytes_per_instruction().unwrap() > 0.0);
        assert_eq!(SequentialBackend.execute(&program).unwrap().timings(), None);
    }

    #[test]
    fn validated_backend_attaches_a_clean_report() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let plain = ManyCoreBackend::with_cores(8);
        let validated = ManyCoreBackend::with_cores(8).validated();
        // The label only changes relative to the session default, so a
        // PARSECS_VALIDATE=1 environment keeps every name stable.
        if !SimConfig::default().validate {
            assert_eq!(validated.name(), "manycore:8c:round-robin:validate");
        }
        let report = validated.execute(&program).unwrap();
        let check = report.check().expect("validated run carries a report");
        assert!(check.is_clean());
        assert_eq!(report.drain_certified(), Some(true));
        assert!(check.bounds.as_ref().unwrap().critical_path <= report.cycles);
        // Aside from the attachment (and possibly the label), the
        // validated run is identical.
        let baseline = plain.execute(&program).unwrap();
        assert_eq!(baseline.cycles, report.cycles);
        assert_eq!(baseline.outputs, report.outputs);
        if !SimConfig::default().validate {
            assert_eq!(baseline.check(), None);
            assert_eq!(baseline.drain_certified(), None);
        }
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
            ManyCoreBackend::new(SimConfig::with_cores(16).with_placement(parsecs_core::LoadAware))
                .name()
        );
    }

    #[test]
    fn manycore_label_assembles_every_suffix_in_one_place() {
        // Threading gets its own suffix, stacked in the helper's fixed
        // order after `:stats` — only relative to the (env-following)
        // default, so a PARSECS_THREADS environment keeps names stable.
        let default_threads = SimConfig::default().threads;
        let threaded = ManyCoreBackend::with_cores(8).threaded(default_threads + 3);
        assert_eq!(
            threaded.name(),
            format!("manycore:8c:round-robin:t{}", default_threads + 3)
        );
        assert_eq!(
            ManyCoreBackend::with_cores(8)
                .threaded(default_threads)
                .name(),
            "manycore:8c:round-robin"
        );
        let stacked = ManyCoreBackend::new(
            SimConfig::with_cores(8)
                .stats_only()
                .with_threads(default_threads + 1),
        );
        assert_eq!(
            stacked.name(),
            format!("manycore:8c:round-robin:stats:t{}", default_threads + 1)
        );
        // The backend's public name and the helper agree by construction.
        assert_eq!(stacked.name(), manycore_label(stacked.config()));
    }
}
