//! Dependence-distance analysis.
//!
//! Austin & Sohi (ISCA '92) — cited by the paper — showed that ILP is
//! *arbitrarily distant* from the instruction pointer: many producer →
//! consumer pairs are separated by a large number of dynamic instructions,
//! which is exactly why the paper argues for multiple instruction pointers
//! (sections) instead of one deep speculative window. This module measures
//! that distribution on the instruction stream.

use parsecs_machine::{TraceSink, TraceStep};

use crate::location_map::LocationMap;

/// A histogram of producer→consumer distances (in dynamic instructions),
/// bucketed by powers of two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// `buckets[k]` counts dependences with distance in `[2^k, 2^(k+1))`.
    buckets: Vec<u64>,
    /// Total number of RAW dependences observed.
    total: u64,
    /// Largest observed distance.
    max_distance: u64,
}

impl DistanceHistogram {
    /// The bucket counts; `buckets()[k]` counts distances in
    /// `[2^k, 2^(k+1))`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of true dependences observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest observed producer→consumer distance.
    pub fn max_distance(&self) -> u64 {
        self.max_distance
    }

    /// Fraction of dependences with distance at least `threshold`
    /// ("distant ILP" in the paper's terminology).
    pub fn fraction_at_least(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let distant: u64 = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(k, _)| (1u64 << *k) >= threshold)
            .map(|(_, c)| *c)
            .sum();
        distant as f64 / self.total as f64
    }

    fn record(&mut self, distance: u64) {
        let bucket = 64 - distance.max(1).leading_zeros() as usize - 1;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.total += 1;
        self.max_distance = self.max_distance.max(distance);
    }
}

/// Measures, as a [`TraceSink`], the distance (in dynamic instructions)
/// between every value producer and its consumers.
///
/// Only true (read-after-write) dependences are counted; stack-pointer
/// dependences can be excluded to match the paper's parallel model.
///
/// # Example
///
/// ```
/// use parsecs_ilp::DependenceDistances;
///
/// let h = DependenceDistances::new(true).finish();
/// assert_eq!(h.total(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DependenceDistances {
    ignore_stack_pointer: bool,
    last_writer: LocationMap<u64>,
    histogram: DistanceHistogram,
}

impl DependenceDistances {
    /// A sink counting every true dependence, or every one not carried by
    /// the stack pointer when `ignore_stack_pointer` is set.
    pub fn new(ignore_stack_pointer: bool) -> DependenceDistances {
        DependenceDistances {
            ignore_stack_pointer,
            ..DependenceDistances::default()
        }
    }

    /// The histogram of every distance seen.
    pub fn finish(self) -> DistanceHistogram {
        self.histogram
    }
}

impl TraceSink for DependenceDistances {
    fn record(&mut self, event: &TraceStep<'_>) {
        for loc in event.reads {
            if self.ignore_stack_pointer && loc.is_stack_pointer() {
                continue;
            }
            if let Some(producer) = self.last_writer.get(loc) {
                self.histogram.record(event.seq - producer);
            }
        }
        for loc in event.writes {
            self.last_writer.insert(*loc, event.seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_isa::Reg;
    use parsecs_machine::{Location, TraceKind};

    /// Streams one step per `(reads, writes)` pair, numbered from 0.
    fn distances(events: &[(Vec<Location>, Vec<Location>)], ignore_sp: bool) -> DistanceHistogram {
        let mut sink = DependenceDistances::new(ignore_sp);
        for (seq, (reads, writes)) in events.iter().enumerate() {
            sink.record(&TraceStep {
                seq: seq as u64,
                ip: seq,
                mnemonic: "t",
                reads,
                writes,
                is_control: false,
                updates_stack_pointer: false,
                kind: TraceKind::Other,
                out_value: None,
            });
        }
        sink.finish()
    }

    #[test]
    fn adjacent_dependence_has_distance_one() {
        let t = [
            (vec![], vec![Location::Reg(Reg::Rax)]),
            (vec![Location::Reg(Reg::Rax)], vec![]),
        ];
        let h = distances(&t, false);
        assert_eq!(h.total(), 1);
        assert_eq!(h.max_distance(), 1);
        assert_eq!(h.buckets()[0], 1);
    }

    #[test]
    fn distant_dependences_fall_in_higher_buckets() {
        let mut t = vec![(vec![], vec![Location::Mem(0x10)])];
        for _ in 1..100u64 {
            t.push((vec![], vec![Location::Reg(Reg::Rbx)]));
        }
        t.push((vec![Location::Mem(0x10)], vec![]));
        let h = distances(&t, false);
        assert_eq!(h.max_distance(), 100);
        // 100 lies in [64, 128) = bucket 6.
        assert_eq!(h.buckets()[6], 1);
        assert!(h.fraction_at_least(64) > 0.0);
        assert_eq!(h.fraction_at_least(256), 0.0);
    }

    #[test]
    fn stack_pointer_reads_can_be_excluded() {
        let t = [
            (vec![], vec![Location::Reg(Reg::Rsp)]),
            (vec![Location::Reg(Reg::Rsp)], vec![]),
        ];
        assert_eq!(distances(&t, false).total(), 1);
        assert_eq!(distances(&t, true).total(), 0);
    }

    #[test]
    fn unwritten_sources_are_not_dependences() {
        let t = [(vec![Location::Reg(Reg::Rax)], vec![])];
        assert_eq!(distances(&t, false).total(), 0);
    }
}
