//! # parsecs-workloads — the paper's workloads
//!
//! Two families of workloads drive the reproduction:
//!
//! * [`sum`] — the paper's running example: the recursive vector sum of
//!   Figure 1, in its `call`/`ret` form (Figure 2) and its `fork`/`endfork`
//!   form (Figure 5), as assembly programs parameterised by the dataset.
//! * [`scale`] — large fork workloads for the simulator's performance
//!   trajectory: a fork-parallel bucket histogram and a leaf-grained
//!   tree sum, sized to ≥1M dynamic instructions at benchmark scale.
//! * [`pbbs`] — analogues of the ten PBBS benchmarks of Table 1
//!   (breadth-first search, comparison sort, convex hull, dictionary,
//!   integer sort, maximal independent set, maximal matching, minimum
//!   spanning tree, nearest neighbours, remove duplicates), written in
//!   mini-C, compiled with [`parsecs_cc`], and paired with seeded dataset
//!   generators and Rust oracles. These feed the Figure 7 ILP study.
//!
//! The PBBS C++ sources and the paper's gigascale datasets are not
//! available; the analogues implement the same algorithmic kernels at
//! laptop scale.
//!
//! ## Example
//!
//! ```
//! use parsecs_workloads::pbbs::{Benchmark, Catalog};
//! use parsecs_cc::Backend;
//! use parsecs_machine::Machine;
//!
//! let bench = Benchmark::ComparisonSort;
//! let program = bench.program(64, 1, Backend::Calls).expect("compiles");
//! let mut machine = Machine::load(&program).unwrap();
//! let outcome = machine.run(50_000_000).unwrap();
//! assert_eq!(outcome.outputs, bench.expected(64, 1));
//! assert_eq!(Catalog::table1().len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod pbbs;
pub mod scale;
pub mod sum;
