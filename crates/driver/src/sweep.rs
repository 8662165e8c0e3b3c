//! Design-space sweeps: fan programs across backend configurations on a
//! bounded thread pool, streaming results out in grid order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

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

/// Fans a list of labelled programs across a list of backend
/// configurations, executing the cells concurrently on scoped OS threads
/// with one fuel budget, and returns one [`SweepPoint`] per
/// `(program, backend)` cell in grid order (programs outermost).
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

    /// Runs every cell on a bounded worker pool (at most
    /// `available_parallelism` threads) and hands each finished [`SweepPoint`] to
    /// `on_point` **in grid order, as soon as it is ready**. Unlike
    /// [`Sweep::run`], nothing is retained after the callback returns,
    /// and workers do not claim cells more than a small window ahead of
    /// the emission front, so a large grid's memory footprint is bounded
    /// by that window instead of the whole result set — a `RunReport` of
    /// the many-core backend carries the full per-instruction stage
    /// table, so this matters.
    ///
    /// Returns the number of cells run.
    pub fn run_with(&self, mut on_point: impl FnMut(SweepPoint)) -> usize {
        let cells = self.len();
        if cells == 0 {
            return 0;
        }
        let workers = thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(cells);
        // At most this many finished-but-unemitted points exist at once:
        // a worker does not claim a cell further than the window ahead of
        // the emission front. The worker on the front cell itself is
        // never gated (its cell index equals the front), so the pipeline
        // cannot stall.
        let window = 2 * workers;

        let next = AtomicUsize::new(0);
        let next = &next;
        let emitted = AtomicUsize::new(0);
        let emitted = &emitted;
        let (tx, rx) = mpsc::sync_channel::<(usize, SweepPoint)>(workers);
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let cell = next.fetch_add(1, Ordering::Relaxed);
                    if cell >= cells {
                        break;
                    }
                    // Backpressure: wait for the emission front before
                    // running far-ahead cells, so a slow front cell (or a
                    // slow consumer) cannot make the reorder buffer grow
                    // toward the whole grid.
                    while cell > emitted.load(Ordering::Acquire) + window {
                        thread::park_timeout(std::time::Duration::from_millis(1));
                    }
                    let (label, program) = &self.programs[cell / self.backends.len()];
                    let backend = &self.backends[cell % self.backends.len()];
                    let point = SweepPoint {
                        program: label.clone(),
                        backend: backend.name(),
                        outcome: backend.execute_fueled(program, self.fuel),
                    };
                    if tx.send((cell, point)).is_err() {
                        break; // receiver gone: the scope is unwinding
                    }
                });
            }
            drop(tx);

            // Reorder buffer: emit points in grid order as soon as the
            // next expected cell has arrived.
            let mut pending: BTreeMap<usize, SweepPoint> = BTreeMap::new();
            let mut next_emit = 0usize;
            for (cell, point) in rx {
                pending.insert(cell, point);
                while let Some(point) = pending.remove(&next_emit) {
                    on_point(point);
                    next_emit += 1;
                    emitted.store(next_emit, Ordering::Release);
                }
            }
            debug_assert!(pending.is_empty());
        });
        cells
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
    fn all_three_engines_sweep_concurrently_and_agree() {
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
