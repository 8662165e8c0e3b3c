//! Design-space sweeps: run programs across backend configurations,
//! one cell after another, in grid order.

use parsecs_isa::Program;

use crate::{DriverError, ExecutionBackend, ManyCoreBackend, RunReport};

/// One cell of a sweep: a `(program, backend)` pair and its outcome.
#[derive(Debug)]
pub struct SweepPoint {
    /// Label of the program swept.
    pub program: String,
    /// Name of the backend configuration.
    pub backend: String,
    /// The run's report, or the error that stopped it.
    pub outcome: Result<RunReport, DriverError>,
}

impl SweepPoint {
    /// The report, when the run succeeded.
    pub fn report(&self) -> Option<&RunReport> {
        self.outcome.as_ref().ok()
    }
}

/// Runs a list of labelled programs across a list of backend
/// configurations with one fuel budget, and returns one [`SweepPoint`]
/// per `(program, backend)` cell in grid order (programs outermost).
///
/// ```
/// use parsecs_driver::Sweep;
/// use parsecs_workloads::sum;
///
/// let points = Sweep::new(100_000)
///     .program("sum-5", sum::fork_program(&[4, 2, 6, 4, 5]))
///     .manycore_cores(&[1, 4])
///     .run();
/// assert_eq!(points.len(), 2);
/// assert!(points.iter().all(|p| p.report().unwrap().outputs == vec![21]));
/// ```
pub struct Sweep {
    fuel: u64,
    programs: Vec<(String, Program)>,
    backends: Vec<Box<dyn ExecutionBackend>>,
}

impl Sweep {
    /// An empty sweep whose cells each run with `fuel` (maximum dynamic
    /// instruction count for the functional execution).
    pub fn new(fuel: u64) -> Sweep {
        Sweep {
            fuel,
            programs: Vec::new(),
            backends: Vec::new(),
        }
    }

    /// Adds one labelled program (call repeatedly for a workload ×
    /// dataset-size grid).
    pub fn program(mut self, label: impl Into<String>, program: Program) -> Sweep {
        self.programs.push((label.into(), program));
        self
    }

    /// Adds one backend configuration.
    pub fn backend(mut self, backend: impl ExecutionBackend + 'static) -> Sweep {
        self.backends.push(Box::new(backend));
        self
    }

    /// Adds one default-configured [`ManyCoreBackend`] per core count —
    /// the chip-size axis of the paper's design space.
    pub fn manycore_cores(mut self, counts: &[usize]) -> Sweep {
        for &cores in counts {
            self.backends
                .push(Box::new(ManyCoreBackend::with_cores(cores)));
        }
        self
    }

    /// Number of cells the sweep will run.
    pub fn len(&self) -> usize {
        self.programs.len() * self.backends.len()
    }

    /// Whether the sweep has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell and returns the points in grid order.
    pub fn run(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        self.run_with(|point| points.push(point));
        points
    }

    /// Runs every cell on the calling thread, in grid order, handing
    /// each finished [`SweepPoint`] to `on_point`. Unlike [`Sweep::run`],
    /// nothing is retained after the callback returns, so a large grid
    /// holds one report at a time: a `RunReport` of the many-core
    /// backend carries the full per-instruction stage table.
    ///
    /// Returns the number of cells run.
    pub fn run_with(&self, mut on_point: impl FnMut(SweepPoint)) -> usize {
        for (label, program) in &self.programs {
            for backend in &self.backends {
                on_point(SweepPoint {
                    program: label.clone(),
                    backend: backend.name(),
                    outcome: backend.execute_fueled(program, self.fuel),
                });
            }
        }
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IlpBackend, SequentialBackend};
    use parsecs_workloads::sum;

    #[test]
    fn grid_order_is_programs_outermost() {
        let points = Sweep::new(100_000)
            .program("a", sum::fork_program(&[1, 2]))
            .program("b", sum::fork_program(&[3, 4]))
            .backend(SequentialBackend)
            .manycore_cores(&[4])
            .run();
        let labels: Vec<(String, String)> = points
            .iter()
            .map(|p| (p.program.clone(), p.backend.clone()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("a".into(), "sequential".into()),
                ("a".into(), "manycore:4c:round-robin".into()),
                ("b".into(), "sequential".into()),
                ("b".into(), "manycore:4c:round-robin".into()),
            ]
        );
        assert_eq!(points[0].report().unwrap().outputs, vec![3]);
        assert_eq!(points[2].report().unwrap().outputs, vec![7]);
    }

    #[test]
    fn all_three_engines_sweep_and_agree() {
        let data: Vec<u64> = (1..=16).collect();
        let points = Sweep::new(1_000_000)
            .program("sum-16", sum::fork_program(&data))
            .backend(SequentialBackend)
            .backend(IlpBackend::parallel_ideal())
            .manycore_cores(&[1, 2, 8])
            .run();
        assert_eq!(points.len(), 5);
        for point in &points {
            assert_eq!(
                point.report().unwrap().outputs,
                vec![136],
                "{}",
                point.backend
            );
        }
    }

    #[test]
    fn failing_cells_report_errors_without_poisoning_the_rest() {
        let points = Sweep::new(4)
            .program(
                "starved",
                sum::call_program(&(1..=64).collect::<Vec<u64>>()),
            )
            .backend(SequentialBackend)
            .run();
        assert_eq!(points.len(), 1);
        assert!(matches!(points[0].outcome, Err(DriverError::Machine(_))));
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(Sweep::new(1).is_empty());
        assert!(Sweep::new(1).run().is_empty());
        assert_eq!(Sweep::new(1).run_with(|_| panic!("no cells")), 0);
    }

    #[test]
    fn run_with_streams_points_in_grid_order() {
        let sweep = Sweep::new(100_000)
            .program("a", sum::fork_program(&[1, 2]))
            .program("b", sum::fork_program(&[3, 4]))
            .backend(SequentialBackend)
            .manycore_cores(&[2, 4]);
        let mut seen = Vec::new();
        let cells = sweep.run_with(|point| {
            seen.push((point.program.clone(), point.backend.clone()));
        });
        assert_eq!(cells, 6);
        assert_eq!(seen.len(), 6);
        // Grid order: programs outermost, backends in registration order.
        assert_eq!(
            seen,
            vec![
                ("a".into(), "sequential".into()),
                ("a".into(), "manycore:2c:round-robin".into()),
                ("a".into(), "manycore:4c:round-robin".into()),
                ("b".into(), "sequential".into()),
                ("b".into(), "manycore:2c:round-robin".into()),
                ("b".into(), "manycore:4c:round-robin".into()),
            ]
        );
    }
}
