//! Seeded dataset generators.
//!
//! All generators are deterministic in `(size, seed)` so that a program,
//! its Rust oracle and any benchmark harness observe the same data. The
//! generator is a local splitmix64 (the workspace builds offline, without
//! the `rand` crate); its exact output stream is part of no contract
//! beyond determinism.

/// A deterministic random number generator for a workload instance.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The next 64 uniformly random bits (splitmix64).
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly random value below `bound` (which must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A deterministic random number generator for a workload instance.
pub fn rng(seed: u64) -> Rng {
    // Scramble the seed so that nearby seeds give unrelated streams.
    Rng {
        state: seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5851_f42d_4c95_7f2d,
    }
}

/// `n` uniformly random 64-bit values below `bound`.
pub(crate) fn values(n: usize, bound: u64, seed: u64) -> Vec<u64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.below(bound)).collect()
}

/// A random directed graph with `n` nodes of constant out-degree `degree`,
/// stored as a flat adjacency array of length `n · degree`
/// (`edges[u·degree + j]` is the j-th neighbour of `u`).
pub(crate) fn graph(n: usize, degree: usize, seed: u64) -> Vec<u64> {
    let mut r = rng(seed);
    (0..n * degree).map(|_| r.below(n as u64)).collect()
}

/// `n` random 2-D points with coordinates in `[0, 2^16)`, returned as
/// separate x and y arrays (the representation the mini-C kernels use).
pub(crate) fn points(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut r = rng(seed);
    let xs = (0..n).map(|_| r.below(1 << 16)).collect();
    let ys = (0..n).map(|_| r.below(1 << 16)).collect();
    (xs, ys)
}

/// `m` random weighted edges over `n` nodes, returned as `(src, dst,
/// weight)` arrays with weights below `2^20`.
pub(crate) fn weighted_edges(n: usize, m: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut r = rng(seed);
    let src = (0..m).map(|_| r.below(n as u64)).collect();
    let dst = (0..m).map(|_| r.below(n as u64)).collect();
    let weight = (0..m).map(|_| r.below(1 << 20)).collect();
    (src, dst, weight)
}

/// The smallest power of two that is at least `n` and at least 2.
pub(crate) fn next_power_of_two(n: usize) -> usize {
    n.max(2).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        assert_eq!(values(16, 100, 7), values(16, 100, 7));
        assert_ne!(values(16, 100, 7), values(16, 100, 8));
        assert_eq!(graph(8, 4, 3), graph(8, 4, 3));
        assert_eq!(points(8, 3), points(8, 3));
        assert_eq!(weighted_edges(8, 20, 3), weighted_edges(8, 20, 3));
    }

    #[test]
    fn shapes_and_bounds() {
        let v = values(100, 50, 1);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|x| *x < 50));
        let g = graph(10, 4, 1);
        assert_eq!(g.len(), 40);
        assert!(g.iter().all(|x| *x < 10));
        let (xs, ys) = points(5, 1);
        assert_eq!((xs.len(), ys.len()), (5, 5));
        let (s, d, w) = weighted_edges(6, 12, 1);
        assert_eq!((s.len(), d.len(), w.len()), (12, 12, 12));
        assert!(w.iter().all(|x| *x < (1 << 20)));
    }

    #[test]
    fn power_of_two_helper() {
        assert_eq!(next_power_of_two(0), 2);
        assert_eq!(next_power_of_two(2), 2);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(1000), 1024);
    }
}
