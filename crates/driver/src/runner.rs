//! The builder-style entry point for running one program.

use parsecs_core::SimProbe;
use parsecs_isa::Program;

use crate::{DriverError, ExecutionBackend, ManyCoreBackend, RunReport};

/// Runs one program on one or more backends, builder style:
///
/// ```
/// use parsecs_driver::{ManyCoreBackend, Runner, SequentialBackend};
/// use parsecs_workloads::sum;
///
/// let program = sum::fork_program(&[4, 2, 6, 4, 5]);
/// let report = Runner::new(&program)
///     .fuel(100_000)
///     .on(ManyCoreBackend::with_cores(8))
///     .run()?;
/// assert_eq!(report.outputs, vec![21]);
///
/// let reports = Runner::new(&program)
///     .on(SequentialBackend)
///     .on(ManyCoreBackend::with_cores(8))
///     .run_all()?;
/// assert_eq!(reports[0].outputs, reports[1].outputs);
/// # Ok::<(), parsecs_driver::DriverError>(())
/// ```
pub struct Runner<'p> {
    program: &'p Program,
    fuel: Option<u64>,
    backends: Vec<Box<dyn ExecutionBackend>>,
}

impl<'p> Runner<'p> {
    /// A runner over `program` with no backend yet. Until [`Runner::fuel`]
    /// is called, each backend runs with its own default budget
    /// ([`crate::DEFAULT_FUEL`], or the configuration's `fuel` for a
    /// [`crate::ManyCoreBackend`]).
    pub fn new(program: &'p Program) -> Runner<'p> {
        Runner {
            program,
            fuel: None,
            backends: Vec::new(),
        }
    }

    /// Sets an explicit fuel (maximum dynamic instruction count) for
    /// every backend, overriding backend defaults.
    pub fn fuel(mut self, fuel: u64) -> Runner<'p> {
        self.fuel = Some(fuel);
        self
    }

    fn execute(&self, backend: &dyn ExecutionBackend) -> Result<RunReport, DriverError> {
        match self.fuel {
            Some(fuel) => backend.execute_fueled(self.program, fuel),
            None => backend.execute(self.program),
        }
    }

    /// Adds a backend to run on.
    pub fn on(mut self, backend: impl ExecutionBackend + 'static) -> Runner<'p> {
        self.backends.push(Box::new(backend));
        self
    }

    /// Runs on the single configured backend.
    ///
    /// # Errors
    ///
    /// [`DriverError::Config`] unless exactly one backend was added;
    /// otherwise whatever the backend reports.
    pub fn run(self) -> Result<RunReport, DriverError> {
        match self.backends.len() {
            1 => self.execute(self.backends[0].as_ref()),
            0 => Err(DriverError::Config(
                "Runner::run needs a backend; add one with .on(...)".into(),
            )),
            n => Err(DriverError::Config(format!(
                "Runner::run is for a single backend but {n} were added; use .run_all()"
            ))),
        }
    }

    /// Runs on the many-core simulator with a telemetry probe observing
    /// the run — e.g. a [`parsecs_core::ChromeTraceWriter`] streaming
    /// section-lifetime spans, or a [`parsecs_core::CountingProbe`].
    /// Probes are monomorphized into the engine
    /// ([`parsecs_core::SimProbe`] is not object-safe), so this terminal
    /// takes the concrete backend directly instead of going through
    /// `.on(...)`; the produced [`RunReport`] is bit-identical to an
    /// unprobed run of the same backend.
    ///
    /// # Errors
    ///
    /// [`DriverError::Config`] when other backends were added with
    /// `.on(...)` (this terminal runs exactly the one it is given);
    /// otherwise whatever the backend reports.
    pub fn with_probe<P: SimProbe>(
        self,
        backend: &ManyCoreBackend,
        probe: &mut P,
    ) -> Result<RunReport, DriverError> {
        if !self.backends.is_empty() {
            return Err(DriverError::Config(format!(
                "Runner::with_probe runs exactly the backend it is given, \
                 but {} other backend(s) were added with .on(...)",
                self.backends.len()
            )));
        }
        match self.fuel {
            Some(fuel) => backend.execute_probed_fueled(self.program, fuel, probe),
            None => backend.execute_probed(self.program, probe),
        }
    }

    /// Runs on every configured backend, in order, failing fast.
    ///
    /// # Errors
    ///
    /// [`DriverError::Config`] when no backend was added, or the first
    /// backend error.
    pub fn run_all(self) -> Result<Vec<RunReport>, DriverError> {
        if self.backends.is_empty() {
            return Err(DriverError::Config(
                "Runner::run_all needs at least one backend; add one with .on(...)".into(),
            ));
        }
        self.backends
            .iter()
            .map(|backend| self.execute(backend.as_ref()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IlpBackend, ManyCoreBackend, SequentialBackend};
    use parsecs_workloads::sum;

    #[test]
    fn single_backend_run() {
        let program = sum::call_program(&[1, 2, 3]);
        let report = Runner::new(&program).on(SequentialBackend).run().unwrap();
        assert_eq!(report.outputs, vec![6]);
    }

    #[test]
    fn run_all_preserves_backend_order_and_agrees_on_outputs() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let reports = Runner::new(&program)
            .fuel(100_000)
            .on(SequentialBackend)
            .on(IlpBackend::parallel_ideal())
            .on(ManyCoreBackend::with_cores(8))
            .run_all()
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].backend, "sequential");
        assert_eq!(reports[1].backend, "ilp:parallel-ideal");
        assert_eq!(reports[2].backend, "manycore:8c:round-robin");
        assert!(reports.iter().all(|r| r.outputs == vec![21]));
    }

    #[test]
    fn missing_and_ambiguous_backends_are_config_errors() {
        let program = sum::call_program(&[1]);
        assert!(matches!(
            Runner::new(&program).run(),
            Err(DriverError::Config(_))
        ));
        assert!(matches!(
            Runner::new(&program)
                .on(SequentialBackend)
                .on(SequentialBackend)
                .run(),
            Err(DriverError::Config(_))
        ));
        assert!(matches!(
            Runner::new(&program).run_all(),
            Err(DriverError::Config(_))
        ));
    }

    #[test]
    fn with_probe_matches_the_unprobed_report_bit_for_bit() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let backend = ManyCoreBackend::with_cores(8);
        let mut counting = parsecs_core::CountingProbe::default();
        let probed = Runner::new(&program)
            .fuel(100_000)
            .with_probe(&backend, &mut counting)
            .unwrap();
        let plain = Runner::new(&program)
            .fuel(100_000)
            .on(backend)
            .run()
            .unwrap();
        assert_eq!(probed, plain, "an observing probe must not steer");
        assert!(counting.events() > 0, "the probe observed nothing");
        // The always-on attribution table covers every configured core
        // and tiles the whole cycle budget.
        let attribution = probed.attribution().expect("many-core runs attribute");
        assert_eq!(attribution.len(), 8);
        assert!(attribution.iter().all(|b| b.total() == probed.cycles));
        let occupancy = probed.occupancy().unwrap();
        assert!(occupancy > 0.0 && occupancy <= 1.0);
    }

    #[test]
    fn with_probe_refuses_extra_backends() {
        let program = sum::call_program(&[1]);
        let err = Runner::new(&program)
            .on(SequentialBackend)
            .with_probe(
                &ManyCoreBackend::with_cores(4),
                &mut parsecs_core::NoopProbe,
            )
            .unwrap_err();
        assert!(matches!(err, DriverError::Config(_)));
    }

    #[test]
    fn fuel_propagates_to_backends() {
        let program = sum::call_program(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let err = Runner::new(&program)
            .fuel(2)
            .on(SequentialBackend)
            .run()
            .unwrap_err();
        assert!(matches!(err, DriverError::Machine(_)));
    }
}
