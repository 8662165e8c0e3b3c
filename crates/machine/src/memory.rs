//! Sparse 64-bit data memory.

use std::collections::HashMap;

/// A sparse, word-granular data memory.
///
/// The parsecs machine only performs 64-bit, 8-byte-aligned accesses (as do
/// the paper's listings), so memory is stored as a map from aligned byte
/// addresses to 64-bit words. Unwritten locations read as zero, mirroring a
/// zero-initialised address space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Memory {
    words: HashMap<u64, u64>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub(crate) fn new() -> Memory {
        Memory::default()
    }

    /// Whether `addr` is 8-byte aligned.
    pub(crate) fn is_aligned(addr: u64) -> bool {
        addr.is_multiple_of(8)
    }

    /// Reads the 64-bit word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is unaligned; callers validate
    /// alignment and report [`crate::MachineError::UnalignedAccess`].
    pub(crate) fn read(&self, addr: u64) -> u64 {
        debug_assert!(Self::is_aligned(addr), "unaligned read at {addr:#x}");
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the 64-bit word at `addr`.
    pub(crate) fn write(&mut self, addr: u64, value: u64) {
        debug_assert!(Self::is_aligned(addr), "unaligned write at {addr:#x}");
        if value == 0 {
            // Keep the map sparse: a zero store is indistinguishable from an
            // untouched location when reading.
            self.words.remove(&addr);
        } else {
            self.words.insert(addr, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0x1000), 0);
        assert_eq!(m.words.len(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = Memory::new();
        m.write(0x2000, 42);
        m.write(0x2008, u64::MAX);
        assert_eq!(m.read(0x2000), 42);
        assert_eq!(m.read(0x2008), u64::MAX);
        assert_eq!(m.read(0x2010), 0);
        assert_eq!(m.words.len(), 2);
    }

    #[test]
    fn zero_store_keeps_memory_sparse() {
        let mut m = Memory::new();
        m.write(0x2000, 7);
        m.write(0x2000, 0);
        assert_eq!(m.read(0x2000), 0);
        assert_eq!(m.words.len(), 0);
    }

    #[test]
    fn alignment_predicate() {
        assert!(Memory::is_aligned(0));
        assert!(Memory::is_aligned(0x1008));
        assert!(!Memory::is_aligned(0x1001));
        assert!(!Memory::is_aligned(0x1004));
    }

    proptest! {
        #[test]
        fn last_write_wins(values in proptest::collection::vec((0u64..64, any::<u64>()), 1..100)) {
            let mut m = Memory::new();
            let mut model: std::collections::HashMap<u64, u64> = Default::default();
            for (slot, v) in values {
                let addr = 0x4000 + slot * 8;
                m.write(addr, v);
                model.insert(addr, v);
            }
            for (addr, v) in model {
                prop_assert_eq!(m.read(addr), v);
            }
        }
    }
}
