//! The deterministic PRNG behind generation.

/// A splitmix64 generator. Every property gets a seed derived from its
/// name, so runs are reproducible and independent of test order.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from `salt` (typically the property name).
    pub fn deterministic(salt: &str) -> TestRng {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for b in salt.bytes() {
            seed = seed.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
        }
        TestRng { state: seed }
    }

    /// The next 64 uniformly random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly random index below `bound` (which must be non-zero).
    pub fn index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_salted() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn index_is_bounded() {
        let mut r = TestRng::deterministic("idx");
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }
}
