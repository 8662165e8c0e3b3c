//! The parallel-drain race certifier.
//!
//! The resolver's batched drain (see `parsecs-core`'s `Resolver`)
//! processes completion in **rounds**: it swaps the wake queue out,
//! sorts it, resolves each entry, and wakes that entry's waiters into
//! the *next* round's queue. Resolving a round's entries concurrently
//! would be sound iff they write pairwise-disjoint targets. This pass replays that round structure symbolically — a
//! record's round is its dependence-DAG level, the latest round any of
//! its producers can complete in, plus one — and certifies the
//! precondition statically:
//!
//! 1. **Distinct per-record targets.** A resolving record writes its own
//!    rows of the `complete`/`ew` columns and its own wait link
//!    (`waiter_next[seq]`); a record occupies at most one waiter list at
//!    a time, so it is woken at most once per round, and two entries of
//!    one round always carry distinct `seq` — disjoint rows.
//! 2. **Disjoint dependence slices.** Resolution reads
//!    `deps[dep_off[seq]..dep_off[seq + 1]]`; the certificate requires
//!    the slices of *all* records to be pairwise disjoint (monotone
//!    offsets), which is stronger than the per-round obligation and is
//!    what the offset representation promises.
//! 3. **Commutative stats.** The per-record `SimStats` contributions are
//!    saturating/wrapping-free `u64` counter increments, mergeable in
//!    any order; there is nothing per-arena to check, so the certificate
//!    covers it by construction.
//!
//! The result is either [`DrainSafety::Certified`] or the first
//! conflicting index pair. Both engines drain sequentially, so no engine
//! consumes the verdict.

use parsecs_trace::{PackedDep, TraceArena};

use crate::validate::{KIND_LOCAL, KIND_REMOTE};

/// Outcome of the parallel-drain certification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DrainSafety {
    /// Every completion round's concurrent resolutions write
    /// pairwise-disjoint targets; the drain may be forked.
    Certified {
        /// Number of symbolic completion rounds (the dependence-DAG
        /// depth).
        rounds: usize,
        /// Entries in the widest round — the fork's maximum available
        /// parallelism.
        max_round_width: usize,
    },
    /// Two records whose resolve-time footprints overlap: the first
    /// conflicting index pair, in trace order.
    Conflict {
        /// Symbolic round of the later record of the pair.
        round: usize,
        /// Trace index of the earlier conflicting record.
        first: usize,
        /// Trace index of the later conflicting record.
        second: usize,
    },
    /// Certification was not attempted because the invariant validator
    /// found structural violations first.
    Unchecked,
}

impl DrainSafety {
    /// Whether the drain may be forked.
    pub fn is_certified(&self) -> bool {
        matches!(self, DrainSafety::Certified { .. })
    }
}

/// Certifies an arena the invariant validator has already passed.
pub(crate) fn certify(arena: &TraceArena) -> DrainSafety {
    let raw = arena.raw();
    certify_columns(raw.dep_off, raw.deps, arena.len())
}

/// The certifier's core, over raw offset/dependence columns (exposed so
/// corrupt columns — unreachable through [`TraceArena`]'s builder, whose
/// `end_record` derives the offsets — can still be exercised). `dep_off`
/// must hold `n + 1` entries; `n` is the record count.
pub fn certify_columns(dep_off: &[u32], deps: &[PackedDep], n: usize) -> DrainSafety {
    assert_eq!(dep_off.len(), n + 1, "one offset per record plus sentinel");
    // Symbolic rounds: level 0 resolves records with no producers (they
    // complete without ever waiting); a consumer resolves in the round
    // after its latest producer.
    let mut round = vec![0u32; n];
    for seq in 0..n {
        let (start, end) = (dep_off[seq] as usize, dep_off[seq + 1] as usize);
        if start > end || end > deps.len() {
            continue; // the overlap scan below reports it
        }
        for packed in &deps[start..end] {
            let (_, producer, section_kind) = packed.raw_parts();
            let kind = section_kind & 7;
            let p = producer as usize;
            if (kind == KIND_LOCAL || kind == KIND_REMOTE) && p < seq {
                round[seq] = round[seq].max(round[p] + 1);
            }
        }
    }
    // Overlap scan: walk the slices in trace order carrying the furthest
    // end seen; a slice starting below it aliases an earlier record's.
    // (With adjacent offset-indexed slices any aliasing shows up as an
    // inverted slice at the first offset decrease; the pair reported is
    // that record and the one whose slice it rewinds into.)
    let mut frontier = 0usize;
    let mut frontier_record = 0usize;
    for seq in 0..n {
        let (start, end) = (dep_off[seq] as usize, dep_off[seq + 1] as usize);
        if start > end || end > deps.len() || (start < frontier && start < end) {
            return DrainSafety::Conflict {
                round: round[seq] as usize,
                first: frontier_record,
                second: seq,
            };
        }
        if end > frontier {
            frontier = end;
            frontier_record = seq;
        }
    }
    let rounds = round.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
    let mut width = vec![0usize; rounds];
    for &r in &round {
        width[r as usize] += 1;
    }
    DrainSafety::Certified {
        rounds,
        max_round_width: width.into_iter().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use parsecs_machine::Location;
    use parsecs_trace::{SourceDep, SourceKind};

    use super::*;

    fn local(producer: usize) -> PackedDep {
        PackedDep::new(&SourceDep {
            location: Location::Mem(8),
            kind: SourceKind::Local { producer },
        })
    }

    #[test]
    fn disjoint_slices_certify_with_dag_rounds() {
        // 0 and 1 independent; 2 consumes both; 3 consumes 2.
        let deps = [local(0), local(1), local(2)];
        let safety = certify_columns(&[0, 0, 0, 2, 3], &deps, 4);
        assert_eq!(
            safety,
            DrainSafety::Certified {
                rounds: 3,
                max_round_width: 2,
            }
        );
        assert!(safety.is_certified());
    }

    #[test]
    fn overlapping_slices_report_the_first_conflicting_pair() {
        let deps = [local(0), local(0), local(1)];
        assert_eq!(
            certify_columns(&[0, 1, 3, 3, 3], &[deps[0], deps[1], deps[2]], 4),
            DrainSafety::Certified {
                rounds: 2,
                max_round_width: 3,
            }
        );
        // Record 2's slice rewinds into record 1's [1, 3).
        let conflict = certify_columns(&[0, 1, 3, 2, 3], &deps, 4);
        match conflict {
            DrainSafety::Conflict { first, second, .. } => {
                assert_eq!((first, second), (1, 2));
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn inverted_slices_conflict_and_empty_traces_certify() {
        assert!(matches!(
            certify_columns(&[0, 2, 1], &[local(0), local(0)], 2),
            DrainSafety::Conflict { second: 1, .. }
        ));
        assert_eq!(
            certify_columns(&[0], &[], 0),
            DrainSafety::Certified {
                rounds: 0,
                max_round_width: 0,
            }
        );
    }
}
