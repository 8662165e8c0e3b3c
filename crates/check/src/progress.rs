//! The config-aware progress prover.
//!
//! The engine refuses a deadlock only *mid-simulation* (as
//! `SimError::Diverged`, "deadlocked with no pending event"); this pass
//! turns the hazard into a pre-simulation verdict. Given the arena's
//! dependence columns plus one concrete chip configuration — a placement
//! assignment, the chip's core count and `max_sections_per_core` — it
//! builds the **section-level wait-for graph** and either proves that
//! every admission order makes progress or returns a concrete wait
//! cycle.
//!
//! The model is deliberately stricter than the engine's park/handoff
//! runtime (which frees a stalled section's fetch slot and relaxes
//! capacity when every core is full): the prover assumes the paper's
//! *hold-slot* semantics — a section occupies one of its core's
//! `max_sections_per_core` slots from admission to completion — under an
//! **adversarial admission order**. Two kinds of edges arise:
//!
//! * **Producer edges**: a section waits for every earlier section that
//!   produced one of its remote source values, and for the section that
//!   forked it (it cannot even be admitted before the fork executes).
//! * **Capacity edges**: on an over-subscribed core (more hosted
//!   sections than slots), *any* hosted section may be holding the slot
//!   another hosted section needs, so the core's sections are mutually
//!   wait-connected.
//!
//! Capacity connectivity is handled by condensation: the hosted sections
//! of each over-subscribed core collapse into one component (a
//! union-find pass), and the cycle search runs on the condensed graph of
//! components and singleton sections linked by producer edges. A cycle
//! there — including one that leaves a component through singletons and
//! returns — is a wait cycle some admission order can realize:
//! [`Progress::PotentialCycle`] with the concrete section cycle as
//! witness. If the condensed graph is acyclic, no admission order can
//! wait forever: [`Progress::Proven`], with the longest producer-edge
//! chain as the certificate's depth.
//!
//! The verdict is conservative in exactly one direction, which is the
//! direction the engine checks: a run the runtime detector flags as
//! deadlocked must never have been `Proven`. The converse does not hold —
//! `PotentialCycle` only says the *hold-slot* abstraction admits a
//! cycle; the engine's park model routinely completes such runs.

use parsecs_trace::{SourceKind, TraceArena};

/// Why one section waits on another in the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WaitKind {
    /// The waiting section consumes a value (or its own creation) from
    /// the section it waits on.
    Producer,
    /// Both sections are hosted on the same over-subscribed core: the
    /// waiting section needs a slot the other may be holding.
    Capacity {
        /// The over-subscribed core.
        core: usize,
    },
}

/// One edge of a wait cycle: `from_section` cannot finish until
/// `to_section` does (producer edge) or releases its slot (capacity
/// edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct WaitEdge {
    /// The waiting section (total-order index).
    pub from_section: usize,
    /// The section being waited on (total-order index).
    pub to_section: usize,
    /// Why the wait exists.
    pub kind: WaitKind,
}

/// Outcome of the progress proof for one (arena × placement × chip)
/// cell.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Progress {
    /// The condensed wait-for graph is acyclic: every admission order
    /// makes progress, even under hold-slot semantics.
    Proven {
        /// Producer edges on the longest wait chain (0 when no section
        /// ever waits across a section boundary).
        longest_wait_chain: usize,
    },
    /// A wait cycle exists under some adversarial admission order: the
    /// concrete section cycle, alternating producer and capacity edges,
    /// closing back on its first section.
    PotentialCycle {
        /// The cycle's edges in order; `witness.last().to_section ==
        /// witness[0].from_section`.
        witness: Vec<WaitEdge>,
    },
}

impl Progress {
    /// Whether progress is proven for this configuration.
    pub fn is_proven(&self) -> bool {
        matches!(self, Progress::Proven { .. })
    }

    /// Producer edges on the longest wait chain (`None` for a potential
    /// cycle, where no finite chain bounds the wait).
    pub fn longest_wait_chain(&self) -> Option<usize> {
        match self {
            Progress::Proven { longest_wait_chain } => Some(*longest_wait_chain),
            Progress::PotentialCycle { .. } => None,
        }
    }
}

/// Proves or refutes progress for one placement of a structurally valid
/// arena (the caller — see [`crate::check_arena`] for the validator —
/// vouches for the columns; section indices are trusted).
///
/// `core_of[s]` is the core hosting section `s` (one entry per section,
/// every entry `< cores`); `max_sections_per_core` is the chip's
/// admission capacity per core.
pub fn prove_progress(
    arena: &TraceArena,
    core_of: &[usize],
    cores: usize,
    max_sections_per_core: usize,
) -> Progress {
    let spans = arena.sections();
    assert_eq!(
        core_of.len(),
        spans.len(),
        "one hosting core per section required"
    );
    // Section-level producer edges, consumer -> producer. Fork-creation
    // edges first (a section waits for its creator's fork), then remote
    // value deps; sorted + deduped below for determinism.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for span in spans {
        if let Some((creator, _)) = span.creator {
            edges.push((span.id.0, creator.0));
        }
    }
    for seq in 0..arena.len() {
        let s = arena.section(seq).0;
        for dep in arena.sources(seq) {
            if let SourceKind::Remote {
                producer_section, ..
            } = dep.kind()
            {
                if producer_section.0 != s {
                    edges.push((s, producer_section.0));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    prove_from_edges(spans.len(), &edges, core_of, cores, max_sections_per_core)
}

/// The prover's graph core, over an explicit producer-edge list.
fn prove_from_edges(
    sections: usize,
    edges: &[(usize, usize)],
    core_of: &[usize],
    cores: usize,
    max_sections_per_core: usize,
) -> Progress {
    // Capacity condensation: the hosted sections of every over-subscribed
    // core union into one component.
    let mut uf = UnionFind::new(sections);
    let mut hosted = vec![0usize; cores];
    for &core in core_of {
        assert!(
            core < cores,
            "placement host {core} outside chip of {cores}"
        );
        hosted[core] += 1;
    }
    let mut first_on_core: Vec<Option<usize>> = vec![None; cores];
    for (s, &core) in core_of.iter().enumerate() {
        if hosted[core] > max_sections_per_core {
            match first_on_core[core] {
                Some(first) => uf.union(first, s),
                None => first_on_core[core] = Some(s),
            }
        }
    }
    // A producer edge inside one component closes a two-edge cycle on
    // its own: the consumer holds a slot while it waits, and the
    // producer may need exactly that slot.
    for &(u, v) in edges {
        if uf.find(u) == uf.find(v) {
            return Progress::PotentialCycle {
                witness: vec![
                    WaitEdge {
                        from_section: u,
                        to_section: v,
                        kind: WaitKind::Producer,
                    },
                    WaitEdge {
                        from_section: v,
                        to_section: u,
                        kind: WaitKind::Capacity { core: core_of[v] },
                    },
                ],
            };
        }
    }
    // Condensed edges in CSR form, deduped per (component, component)
    // pair keeping the lexicographically first representative sections —
    // the whole pass stays deterministic.
    let mut cedges: Vec<(usize, usize, usize, usize)> = edges
        .iter()
        .map(|&(u, v)| (uf.find(u), uf.find(v), u, v))
        .collect();
    cedges.sort_unstable();
    cedges.dedup_by_key(|e| (e.0, e.1));
    let mut lo = vec![0usize; sections + 1];
    {
        let mut at = 0usize;
        for (node, slot) in lo.iter_mut().enumerate().take(sections) {
            *slot = at;
            while at < cedges.len() && cedges[at].0 == node {
                at += 1;
            }
        }
        lo[sections] = cedges.len();
    }
    // Iterative DFS over component roots: gray-hit = cycle (reconstruct
    // the witness from the stack), otherwise memoize the longest
    // producer-edge chain on finish.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; sections];
    let mut depth = vec![0usize; sections];
    let mut longest = 0usize;
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..sections {
        if color[start] != WHITE || uf.find(start) != start {
            continue;
        }
        color[start] = GRAY;
        stack.push((start, lo[start]));
        while let Some(&(node, idx)) = stack.last() {
            if idx < lo[node + 1] {
                stack.last_mut().expect("frame just read").1 += 1;
                let (_, next, _, _) = cedges[idx];
                match color[next] {
                    WHITE => {
                        color[next] = GRAY;
                        stack.push((next, lo[next]));
                    }
                    GRAY => {
                        return Progress::PotentialCycle {
                            witness: witness_from_stack(&stack, next, &cedges, core_of),
                        };
                    }
                    _ => depth[node] = depth[node].max(depth[next] + 1),
                }
            } else {
                color[node] = BLACK;
                longest = longest.max(depth[node]);
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    depth[parent] = depth[parent].max(depth[node] + 1);
                }
            }
        }
    }
    Progress::Proven {
        longest_wait_chain: longest,
    }
}

/// Rebuilds the concrete section cycle from the DFS stack once a gray
/// component is re-entered. The stack holds the component path; each
/// entry's cursor points one past the edge it followed, so the
/// representative producer edge of every hop is recoverable, and
/// capacity edges are inserted wherever a hop arrives at and departs
/// from different sections of one (over-subscribed-core) component.
fn witness_from_stack(
    stack: &[(usize, usize)],
    reentered: usize,
    cedges: &[(usize, usize, usize, usize)],
    core_of: &[usize],
) -> Vec<WaitEdge> {
    let pos = stack
        .iter()
        .position(|&(node, _)| node == reentered)
        .expect("re-entered component is gray, hence on the stack");
    // Representative (from_section, to_section) of each hop around the
    // component cycle stack[pos] -> ... -> stack[last] -> stack[pos].
    let mut hops: Vec<(usize, usize)> = Vec::with_capacity(stack.len() - pos);
    for window in stack[pos..].windows(2) {
        let (_, cursor) = window[0];
        let (_, _, u, v) = cedges[cursor - 1];
        debug_assert_eq!(cedges[cursor - 1].1, window[1].0);
        hops.push((u, v));
    }
    let (_, closing_cursor) = stack[stack.len() - 1];
    let (_, _, u, v) = cedges[closing_cursor - 1];
    debug_assert_eq!(cedges[closing_cursor - 1].1, reentered);
    hops.push((u, v));
    let mut witness = Vec::with_capacity(hops.len() * 2);
    for (i, &(u, v)) in hops.iter().enumerate() {
        witness.push(WaitEdge {
            from_section: u,
            to_section: v,
            kind: WaitKind::Producer,
        });
        let next_from = hops[(i + 1) % hops.len()].0;
        if v != next_from {
            witness.push(WaitEdge {
                from_section: v,
                to_section: next_from,
                kind: WaitKind::Capacity { core: core_of[v] },
            });
        }
    }
    witness
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Union by smaller root so component representatives are stable
    /// (the lowest member), keeping witnesses deterministic.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_edges(sections: usize) -> Vec<(usize, usize)> {
        (1..sections).map(|s| (s, s - 1)).collect()
    }

    fn round_robin(sections: usize, cores: usize) -> Vec<usize> {
        (0..sections).map(|s| s % cores).collect()
    }

    fn assert_closed(witness: &[WaitEdge]) {
        assert!(!witness.is_empty());
        for pair in witness.windows(2) {
            assert_eq!(pair[0].to_section, pair[1].from_section);
        }
        assert_eq!(
            witness.last().unwrap().to_section,
            witness[0].from_section,
            "witness must close on its first section"
        );
    }

    #[test]
    fn under_capacity_chains_are_proven_with_their_length() {
        // 8 chained sections on 64 cores: no over-subscription, the
        // longest wait chain is the 7 producer edges of the chain.
        let progress = prove_from_edges(8, &chain_edges(8), &round_robin(8, 64), 64, 1);
        assert_eq!(
            progress,
            Progress::Proven {
                longest_wait_chain: 7
            }
        );
        assert!(progress.is_proven());
        assert_eq!(progress.longest_wait_chain(), Some(7));
    }

    #[test]
    fn independent_sections_wait_zero() {
        let progress = prove_from_edges(16, &[], &round_robin(16, 4), 4, 8);
        assert_eq!(
            progress,
            Progress::Proven {
                longest_wait_chain: 0
            }
        );
    }

    #[test]
    fn colocated_producer_and_consumer_close_a_two_edge_cycle() {
        // Sections 0 and 1 both on core 0 with one slot; 1 consumes 0.
        let progress = prove_from_edges(2, &[(1, 0)], &[0, 0], 1, 1);
        let Progress::PotentialCycle { witness } = progress else {
            panic!("over-subscribed dependent pair must cycle");
        };
        assert_closed(&witness);
        assert_eq!(witness.len(), 2);
        assert_eq!(witness[0].kind, WaitKind::Producer);
        assert_eq!(witness[1].kind, WaitKind::Capacity { core: 0 });
    }

    #[test]
    fn capacity_starved_round_robin_chain_cycles_through_singletons() {
        // 70 chained sections round-robin on 64 single-slot cores: cores
        // 0..6 host two sections each. The cycle leaves an
        // over-subscribed component, descends the chain through
        // singleton sections and returns.
        let progress = prove_from_edges(70, &chain_edges(70), &round_robin(70, 64), 64, 1);
        let Progress::PotentialCycle { witness } = progress else {
            panic!("capacity-starved chain must cycle");
        };
        assert_closed(&witness);
        assert!(
            witness
                .iter()
                .any(|e| matches!(e.kind, WaitKind::Capacity { .. })),
            "a capacity hop must appear in {witness:?}"
        );
        assert!(
            witness.iter().any(|e| e.kind == WaitKind::Producer),
            "a producer hop must appear in {witness:?}"
        );
    }

    #[test]
    fn exactly_at_capacity_stays_proven() {
        // 128 chained sections on 64 cores with two slots each: full but
        // not over-subscribed.
        let progress = prove_from_edges(128, &chain_edges(128), &round_robin(128, 64), 64, 2);
        assert_eq!(
            progress,
            Progress::Proven {
                longest_wait_chain: 127
            }
        );
    }

    #[test]
    fn over_subscription_without_cross_deps_is_harmless() {
        // 70 independent sections on 64 single-slot cores: capacity
        // components exist but no producer edge ever enters one.
        let progress = prove_from_edges(70, &[], &round_robin(70, 64), 64, 1);
        assert_eq!(
            progress,
            Progress::Proven {
                longest_wait_chain: 0
            }
        );
    }

    #[test]
    fn witnesses_are_deterministic() {
        let a = prove_from_edges(70, &chain_edges(70), &round_robin(70, 64), 64, 1);
        let b = prove_from_edges(70, &chain_edges(70), &round_robin(70, 64), 64, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn arena_proof_covers_fork_and_remote_edges() {
        let program = parsecs_asm::assemble(
            "t:   .quad 4, 2, 6
             main: movq $t, %rdi
                   fork leaf
                   out  %rax
                   halt
             leaf: movq (%rdi), %rax
                   addq 8(%rdi), %rax
                   addq 16(%rdi), %rax
                   endfork",
        )
        .expect("assembles");
        let arena = parsecs_trace::TraceArena::from_program(&program, 10_000).expect("runs");
        let sections = arena.sections().len();
        assert!(sections >= 2, "fork must split the trace");
        // Spread placement with ample capacity: proven, and the
        // fork/remote chain spans at least one producer edge.
        let spread = round_robin(sections, sections);
        let proven = prove_progress(&arena, &spread, sections, 8);
        match proven {
            Progress::Proven { longest_wait_chain } => {
                assert!(longest_wait_chain >= 1, "chain {longest_wait_chain}")
            }
            other => panic!("ample capacity must prove progress, got {other:?}"),
        }
        // Everything piled on one single-slot core: the fork/consume
        // edges close a cycle with the capacity component.
        let piled = vec![0usize; sections];
        let starved = prove_progress(&arena, &piled, 1, 1);
        let Progress::PotentialCycle { witness } = starved else {
            panic!("piled placement must cycle");
        };
        assert_closed(&witness);
    }
}
