//! The closed-form performance model of §5 of the paper.
//!
//! Section 5 analyses the `sum` running example by hand and gives closed
//! forms for an array of `5 · 2ⁿ` elements:
//!
//! * number of (sum) instructions: `45·2ⁿ + 14·(2ⁿ − 1)`;
//! * fetch time: `30 + 12·n` cycles;
//! * retirement time: `43 + 15·n` cycles.
//!
//! For 1280 elements (n = 8) this gives 15 090 instructions fetched in 126
//! cycles (≈ 120 instructions per cycle) and retired in 163 cycles (≈ 92
//! instructions per cycle) — the paper's headline claim that parallel,
//! computed fetch outperforms any speculative fetcher even at modest data
//! sizes. This module provides those formulas so the benches can print the
//! analytic rows next to the simulated ones.

/// The analytic figures for `sum` over an array of `5 · 2ⁿ` elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumModel {
    /// The doubling exponent `n`.
    pub n: u32,
    /// Array length `5 · 2ⁿ`.
    pub elements: u64,
    /// Dynamic instructions of the `sum` computation (excluding any
    /// `main`/output wrapper).
    pub instructions: u64,
    /// Cycles needed to fetch the whole run (§5: `30 + 12n`).
    pub fetch_cycles: u64,
    /// Cycles needed to retire the whole run (§5: `43 + 15n`).
    pub retire_cycles: u64,
}

impl SumModel {
    /// Fetch throughput in instructions per cycle.
    pub fn fetch_ipc(&self) -> f64 {
        self.instructions as f64 / self.fetch_cycles as f64
    }
}

/// Evaluates the §5 closed forms for a given doubling exponent `n`
/// (array of `5 · 2ⁿ` elements).
///
/// # Example
///
/// ```
/// let m = parsecs_core::analytic::sum_model(0);
/// assert_eq!(m.elements, 5);
/// assert_eq!(m.instructions, 45);
/// assert_eq!(m.fetch_cycles, 30);
/// assert_eq!(m.retire_cycles, 43);
/// ```
pub fn sum_model(n: u32) -> SumModel {
    let pow = 1u64 << n;
    SumModel {
        n,
        elements: 5 * pow,
        instructions: 45 * pow + 14 * (pow - 1),
        fetch_cycles: 30 + 12 * n as u64,
        retire_cycles: 43 + 15 * n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number of dynamic instructions of the *call* version of `sum`
    /// for an array of `5 · 2ⁿ` elements (Figure 3 counts 59 for five
    /// elements): the recurrence `f(5·2ⁿ) = 2·f(5·2ⁿ⁻¹) + 25` with
    /// `f(5) = 59`, in closed form.
    fn sum_call_instructions(n: u32) -> u64 {
        let pow = 1u64 << n;
        59 * pow + 25 * (pow - 1)
    }

    #[test]
    fn matches_the_papers_quoted_numbers() {
        // §5 quotes 45 instructions for sum(t,5) and 104 for sum(t,10).
        assert_eq!(sum_model(0).instructions, 45);
        assert_eq!(sum_model(1).instructions, 104);
        assert_eq!(sum_model(1).fetch_cycles, 42);
        // For 1280 elements: 15090 instructions, 126 fetch cycles,
        // 163 retirement cycles, ≈120 / ≈92 IPC.
        let m = sum_model(8);
        assert_eq!(m.elements, 1280);
        assert_eq!(m.instructions, 15_090);
        assert_eq!(m.fetch_cycles, 126);
        assert_eq!(m.retire_cycles, 163);
        assert!((m.fetch_ipc() - 119.76).abs() < 0.1);
        let retire_ipc = m.instructions as f64 / m.retire_cycles as f64;
        assert!((retire_ipc - 92.58).abs() < 0.1);
    }

    #[test]
    fn call_version_matches_figure3() {
        assert_eq!(sum_call_instructions(0), 59);
        // Recurrence check: f(2k) = 2 f(k) + 25.
        for n in 1..6 {
            assert_eq!(
                sum_call_instructions(n),
                2 * sum_call_instructions(n - 1) + 25
            );
        }
    }

    #[test]
    fn fork_version_executes_fewer_instructions_than_call_version() {
        for n in 0..10 {
            assert!(sum_model(n).instructions < sum_call_instructions(n));
        }
    }
}
