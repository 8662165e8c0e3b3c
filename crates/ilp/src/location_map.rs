//! The hash map the analyses key by architectural location.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use parsecs_machine::Location;

/// A map keyed by [`Location`]. The keys are register numbers and
/// aligned data addresses, so the default SipHash's collision resistance
/// buys nothing, and its per-lookup cost dominated the scheduler's
/// profile.
pub(crate) type LocationMap<V> = HashMap<Location, V, BuildHasherDefault<LocationHasher>>;

/// Folds each word in with a multiply and finishes with splitmix64's
/// mixer, so the low bits the table indexes by depend on every key bit
/// (an aligned address's low bits are all zero).
#[derive(Default)]
pub(crate) struct LocationHasher(u64);

impl Hasher for LocationHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}
