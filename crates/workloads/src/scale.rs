//! Large-scale fork workloads for the simulator's performance trajectory.
//!
//! The paper's evaluation workloads (the Figure 5 `sum` and the Table 1
//! PBBS analogues) stay small enough that a cycle-stepping simulator can
//! replay them; this module provides PBBS-style workloads that are sized
//! for the *event-driven* simulator — ≥1M dynamic instructions at their
//! benchmark sizes — and that deliberately exercise the machinery a
//! cycle stepper pays for dearly:
//!
//! * [`histogram_program`] — a fork-parallel bucket histogram (the
//!   counting phase of PBBS `integerSort/blockRadixSort`): leaves update
//!   shared bucket counters through memory renaming, and each update's
//!   control flow depends on the *loaded* counter, so fetch stages spend
//!   long stretches stalled on remote producer chains;
//! * [`tree_sum_program`] — the paper's recursive `sum` generalised with a
//!   sequential leaf loop (the reduce phase of PBBS-style tree
//!   algorithms), giving wide fork trees with configurable leaf grain;
//! * [`chain_sum_program`] — the serial worst case of the tree sum: a
//!   linked chain of tiny sections, each accumulating one element into a
//!   memory cell and forking its successor. Every link costs a NoC round
//!   trip plus a section-creation message, so the run is latency-bound:
//!   almost every cycle, every core is idle or stalled on a *known* future
//!   event — the pattern an event-driven scheduler skips over and a
//!   cycle stepper scans core by core.
//!
//! Two further generators target the 256–1024-core, ≥10M-instruction
//! regime, where embedding the dataset as a `.quad` list would drag a
//! multi-megabyte source through the assembler; they synthesise their
//! keys/values *in program* with an LCG instead:
//!
//! * [`synth_histogram_program`] — the bucket histogram with
//!   LCG-generated keys and a coarser leaf (`SYNTH_LEAF`), so a ~10M
//!   instruction instance forks tens of thousands of sections over a
//!   kilobyte-scale data segment;
//! * [`fan_chain_program`] — `chains` independent serial accumulator
//!   chains of `links` links each: the chain sum's latency-bound handoff
//!   pattern, widened until it fills a 1024-core chip.
//!
//! All come with Rust oracles so functional outputs are checked exactly,
//! and all are parameterised by a seed for dataset generation. Every
//! generator also derives a functional pre-execution fuel cap from its
//! problem size ([`histogram_fuel`], [`fan_chain_fuel`], …), replacing
//! the hard-coded caps that silently starved large instances.

use parsecs_asm::assemble;
use parsecs_isa::Program;

use crate::data;

/// Number of elements a histogram leaf processes sequentially before the
/// recursion stops forking.
pub(crate) const HISTOGRAM_LEAF: usize = 16;

/// Number of keys a synthetic-histogram leaf generates and applies
/// sequentially (coarser than [`HISTOGRAM_LEAF`]: the 256–1024-core runs
/// want tens of thousands of sections, not millions).
pub(crate) const SYNTH_LEAF: usize = 32;

/// Knuth's MMIX LCG multiplier — the in-program key generator of
/// [`synth_histogram_program`] and [`fan_chain_program`] (both fit in an
/// `i64` immediate, which is why splitmix's constants are not used here).
pub(crate) const LCG_MUL: u64 = 6364136223846793005;

/// Knuth's MMIX LCG increment.
pub(crate) const LCG_ADD: u64 = 1442695040888963407;

/// Folds an arbitrary seed into a value that fits comfortably in an
/// assembler immediate.
fn seed_imm(seed: u64) -> u64 {
    (seed ^ (seed >> 32)) & 0xffff_ffff
}

/// Number of elements a tree-sum leaf accumulates sequentially.
pub(crate) const TREE_SUM_LEAF: usize = 16;

// ---------------------------------------------------------------------
// Fuel derivation.
//
// Functional pre-execution takes a fuel cap; hard-coding one (the old
// `1_000_000` habit) silently starves any instance sized past it. Each
// generator therefore derives a cap from the requested problem size: a
// safe over-estimate of the dynamic instruction count (loop bodies plus
// fork-tree overhead, roughly doubled), plus slack for the fixed
// prologue — so a 10M-instruction instance gets a 10M-plus budget
// automatically and an infinite loop is still caught.
// ---------------------------------------------------------------------

/// Fuel sufficient for [`histogram_program`]`(keys, buckets, _)`.
pub fn histogram_fuel(keys: usize, buckets: usize) -> u64 {
    32 * keys as u64 + 16 * buckets as u64 + 10_000
}

/// Fuel sufficient for [`tree_sum_program`]`(elements, _)`.
pub fn tree_sum_fuel(elements: usize) -> u64 {
    24 * elements as u64 + 10_000
}

/// Fuel sufficient for [`chain_sum_program`]`(elements, _)`.
pub fn chain_sum_fuel(elements: usize) -> u64 {
    24 * elements as u64 + 10_000
}

/// Fuel sufficient for [`synth_histogram_program`]`(keys, buckets, _)`.
pub fn synth_histogram_fuel(keys: usize, buckets: usize) -> u64 {
    40 * keys as u64 + 16 * buckets as u64 + 10_000
}

/// Fuel sufficient for [`fan_chain_program`]`(chains, links, _)`.
pub fn fan_chain_fuel(chains: usize, links: usize) -> u64 {
    32 * (chains as u64) * (links as u64) + 32 * chains as u64 + 10_000
}

/// The key stream of a histogram instance: `keys` uniform values below
/// `buckets`.
pub(crate) fn histogram_keys(keys: usize, buckets: usize, seed: u64) -> Vec<u64> {
    data::values(keys, buckets.max(1) as u64, seed)
}

/// The fork-parallel bucket histogram over `keys` keys and `buckets`
/// buckets.
///
/// The recursion halves the key range until at most `HISTOGRAM_LEAF`
/// keys remain; a leaf walks its keys and increments `table[key]` through
/// a load/modify/store sequence whose (functionally redundant) conditional
/// depends on the loaded counter — forcing the fetch stage to wait for the
/// previous writer of that bucket, wherever on the chip it ran. After the
/// fork subtree completes, `main` folds the table into the checksum
/// `Σ table[i]·(i+1)` and emits it.
///
/// # Panics
///
/// Panics if `keys` is zero or `buckets` is zero.
pub fn histogram_program(keys: usize, buckets: usize, seed: u64) -> Program {
    assert!(keys > 0, "the histogram needs at least one key");
    assert!(buckets > 0, "the histogram needs at least one bucket");
    let quads: Vec<String> = histogram_keys(keys, buckets, seed)
        .iter()
        .map(u64::to_string)
        .collect();
    let zeros = vec!["0"; buckets];
    let source = format!(
        "keys:   .quad {keys_list}
table:  .quad {table_list}
main:   movq $keys, %rdi
        movq ${keys}, %rsi
        fork hist
        movq $table, %rdi
        movq ${buckets}, %rcx
        movq $0, %rax
        movq $1, %rbx
chk:    movq (%rdi), %rdx
        imulq %rbx, %rdx
        addq %rdx, %rax
        addq $8, %rdi
        addq $1, %rbx
        subq $1, %rcx
        jne chk
        out  %rax
        halt
hist:   cmpq ${leaf}, %rsi
        ja .split
.loop:  movq (%rdi), %rbx
        movq $table, %rcx
        leaq (%rcx,%rbx,8), %rcx
        movq (%rcx), %rax
        cmpq $0, %rax
        je .bump
.bump:  addq $1, %rax
        movq %rax, (%rcx)
        addq $8, %rdi
        subq $1, %rsi
        jne .loop
        endfork
.split: movq %rsi, %rbx
        shrq %rsi
        fork hist
        leaq (%rdi,%rsi,8), %rdi
        subq %rsi, %rbx
        movq %rbx, %rsi
        fork hist
        endfork",
        keys_list = quads.join(", "),
        table_list = zeros.join(", "),
        leaf = HISTOGRAM_LEAF,
    );
    assemble(&source).expect("the histogram listing always assembles")
}

/// The expected output of [`histogram_program`]: the checksum
/// `Σ count[i]·(i+1)` over the final bucket counts.
pub fn histogram_expected(keys: usize, buckets: usize, seed: u64) -> Vec<u64> {
    let mut table = vec![0u64; buckets];
    for key in histogram_keys(keys, buckets, seed) {
        table[key as usize] += 1;
    }
    let checksum = table.iter().enumerate().fold(0u64, |acc, (i, count)| {
        acc.wrapping_add(count.wrapping_mul(i as u64 + 1))
    });
    vec![checksum]
}

/// The dataset of a tree-sum instance: `elements` values below `2^20`.
pub(crate) fn tree_sum_data(elements: usize, seed: u64) -> Vec<u64> {
    data::values(elements, 1 << 20, seed)
}

/// The paper's recursive fork `sum` generalised with a sequential leaf:
/// the recursion halves the range until at most `TREE_SUM_LEAF` elements
/// remain, and a leaf accumulates them with a tight load-add loop. Parent
/// sections combine the two half-sums through a stack temporary, exactly
/// like Figure 5.
///
/// # Panics
///
/// Panics if `elements` is zero.
pub fn tree_sum_program(elements: usize, seed: u64) -> Program {
    assert!(elements > 0, "the tree sum needs at least one element");
    let quads: Vec<String> = tree_sum_data(elements, seed)
        .iter()
        .map(u64::to_string)
        .collect();
    let source = format!(
        "t:      .quad {data_list}
main:   movq $t, %rdi
        movq ${elements}, %rsi
        fork tsum
        out  %rax
        halt
tsum:   cmpq ${leaf}, %rsi
        ja .split
        movq $0, %rax
.acc:   addq (%rdi), %rax
        addq $8, %rdi
        subq $1, %rsi
        jne .acc
        endfork
.split: movq %rsi, %rbx
        shrq %rsi
        fork tsum
        subq $8, %rsp
        movq %rax, 0(%rsp)
        leaq (%rdi,%rsi,8), %rdi
        subq %rsi, %rbx
        movq %rbx, %rsi
        fork tsum
        addq 0(%rsp), %rax
        addq $8, %rsp
        endfork",
        data_list = quads.join(", "),
        leaf = TREE_SUM_LEAF,
    );
    assemble(&source).expect("the tree-sum listing always assembles")
}

/// The expected output of [`tree_sum_program`]: the wrapping sum of the
/// dataset.
pub fn tree_sum_expected(elements: usize, seed: u64) -> Vec<u64> {
    vec![tree_sum_data(elements, seed)
        .iter()
        .copied()
        .fold(0u64, u64::wrapping_add)]
}

/// The serial chain sum over `elements` values: `main` forks one `link`
/// per element, and every fork's continuation — the next loop iteration —
/// becomes a new section on another core (the sectioning rule splits the
/// creator at the fork, so the chain forms one section per element). Each
/// link loads the running total from the shared `acc` word (a renaming
/// request to the previous link's store, hosted on another core), adds
/// its element and stores the total back. The (functionally redundant)
/// conditional between the load and the add makes the fetch stage wait
/// for the loaded value, so every link costs a full NoC round trip during
/// which the whole chip has nothing to fetch — the latency-bound regime
/// of the paper's model.
///
/// Unlike the histogram's random bucket contention, the producer of each
/// load is always already fetched (it sits in the chain's immediate
/// predecessor), so the head-of-chain stall always has a known release
/// cycle and the stall waits in place instead of parking its section.
///
/// # Panics
///
/// Panics if `elements` is zero.
pub fn chain_sum_program(elements: usize, seed: u64) -> Program {
    assert!(elements > 0, "the chain sum needs at least one element");
    let quads: Vec<String> = tree_sum_data(elements, seed)
        .iter()
        .map(u64::to_string)
        .collect();
    let source = format!(
        "t:      .quad {data_list}
acc:    .quad 0
main:   movq $t, %rdi
        movq ${elements}, %rsi
loop:   fork link
        addq $8, %rdi
        subq $1, %rsi
        jne loop
        movq $acc, %rcx
        movq (%rcx), %rax
        out  %rax
        halt
link:   movq $acc, %rcx
        movq (%rcx), %rax
        cmpq $0, %rax
        je .add
.add:   addq (%rdi), %rax
        movq %rax, (%rcx)
        endfork",
        data_list = quads.join(", "),
    );
    assemble(&source).expect("the chain-sum listing always assembles")
}

/// The expected output of [`chain_sum_program`]: the wrapping sum of the
/// dataset (same dataset as [`tree_sum_program`] at the same size/seed).
pub fn chain_sum_expected(elements: usize, seed: u64) -> Vec<u64> {
    tree_sum_expected(elements, seed)
}

// ---------------------------------------------------------------------
// 256–1024-core scale workloads.
//
// The generators above embed their dataset as a `.quad` list, so a
// 10M-instruction instance would drag a multi-megabyte source through
// the assembler before the first instruction runs. The two generators
// below synthesise their data *in program* with Knuth's MMIX LCG
// ([`LCG_MUL`]/[`LCG_ADD`]) — the data segment stays a few kilobytes at
// any instruction count, and the Rust oracles replay the same generator.
// ---------------------------------------------------------------------

/// A fork-parallel bucket histogram over `keys` LCG-generated keys and
/// `buckets` (a power of two) buckets — [`histogram_program`] rebuilt for
/// the 256–1024-core, ≥10M-instruction regime.
///
/// The recursion halves the key-index range until at most `SYNTH_LEAF`
/// keys remain; a leaf seeds a per-leaf LCG from its start index and, per
/// key, draws the next state, maps its high bits onto a bucket and bumps
/// `table[key]` through the same load–conditional–store sequence as
/// [`histogram_program`] (the conditional depends on the *loaded*
/// counter, so fetch stages wait on cross-section writer chains). `main`
/// then folds the table into the checksum `Σ table[i]·(i+1)`.
///
/// # Panics
///
/// Panics if `keys` is zero or `buckets` is not a power of two.
pub fn synth_histogram_program(keys: usize, buckets: usize, seed: u64) -> Program {
    assert!(keys > 0, "the histogram needs at least one key");
    assert!(
        buckets.is_power_of_two(),
        "synthetic histogram buckets must be a power of two (got {buckets})"
    );
    let zeros = vec!["0"; buckets];
    let source = format!(
        "table:  .quad {table_list}
main:   movq $0, %rdi
        movq ${keys}, %rsi
        fork hist
        movq $table, %rdi
        movq ${buckets}, %rcx
        movq $0, %rax
        movq $1, %rbx
chk:    movq (%rdi), %rdx
        imulq %rbx, %rdx
        addq %rdx, %rax
        addq $8, %rdi
        addq $1, %rbx
        subq $1, %rcx
        jne chk
        out  %rax
        halt
hist:   cmpq ${leaf}, %rsi
        ja .split
        movq %rdi, %rdx
        addq ${seed_c}, %rdx
        imulq ${mul}, %rdx
.loop:  imulq ${mul}, %rdx
        addq ${add}, %rdx
        movq %rdx, %rbx
        shrq $33, %rbx
        andq ${mask}, %rbx
        movq $table, %rcx
        leaq (%rcx,%rbx,8), %rcx
        movq (%rcx), %rax
        cmpq $0, %rax
        je .bump
.bump:  addq $1, %rax
        movq %rax, (%rcx)
        subq $1, %rsi
        jne .loop
        endfork
.split: movq %rsi, %rbx
        shrq %rsi
        fork hist
        addq %rsi, %rdi
        subq %rsi, %rbx
        movq %rbx, %rsi
        fork hist
        endfork",
        table_list = zeros.join(", "),
        leaf = SYNTH_LEAF,
        seed_c = seed_imm(seed),
        mul = LCG_MUL,
        add = LCG_ADD,
        mask = buckets - 1,
    );
    assemble(&source).expect("the synthetic histogram listing always assembles")
}

/// The bucket counts [`synth_histogram_program`] produces, replayed by
/// the same split recursion and per-leaf LCG in Rust.
fn synth_histogram_counts(keys: usize, buckets: usize, seed: u64) -> Vec<u64> {
    let mask = buckets as u64 - 1;
    let mut table = vec![0u64; buckets];
    // The same halving recursion as the program, iteratively.
    let mut ranges = vec![(0u64, keys as u64)];
    while let Some((start, count)) = ranges.pop() {
        if count > SYNTH_LEAF as u64 {
            let half = count >> 1;
            ranges.push((start + half, count - half));
            ranges.push((start, half));
        } else {
            let mut state = start.wrapping_add(seed_imm(seed)).wrapping_mul(LCG_MUL);
            for _ in 0..count {
                state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                table[((state >> 33) & mask) as usize] += 1;
            }
        }
    }
    table
}

/// The expected output of [`synth_histogram_program`]: the checksum
/// `Σ count[i]·(i+1)` over the final bucket counts.
pub fn synth_histogram_expected(keys: usize, buckets: usize, seed: u64) -> Vec<u64> {
    let checksum = synth_histogram_counts(keys, buckets, seed)
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, count)| {
            acc.wrapping_add(count.wrapping_mul(i as u64 + 1))
        });
    vec![checksum]
}

/// `chains` independent serial accumulator chains of `links` links each —
/// the chain sum's latency-bound handoff pattern, widened until it fills
/// a 256–1024-core chip.
///
/// `main` forks one driver per chain; each driver iterates `links` times,
/// forking one `link` per iteration (the sectioning rule splits the
/// driver at every fork, so each iteration is its own section) and
/// advancing a per-chain LCG whose state rides to the link in a
/// fork-copied register. A link loads its chain's accumulator (a
/// renaming request to the previous link's store), passes it through a
/// conditional that depends on the *loaded* value — so the fetch stage
/// waits out the full NoC round trip — and stores back the sum. `main`
/// finally folds every accumulator into one output.
///
/// # Panics
///
/// Panics if `chains` or `links` is zero.
pub fn fan_chain_program(chains: usize, links: usize, seed: u64) -> Program {
    assert!(chains > 0, "the fan chain needs at least one chain");
    assert!(links > 0, "the fan chain needs at least one link");
    let zeros = vec!["0"; chains];
    let source = format!(
        "accs:   .quad {accs_list}
main:   movq $0, %rdi
mloop:  fork drv
        addq $1, %rdi
        cmpq ${chains}, %rdi
        jne mloop
        movq $accs, %rdi
        movq ${chains}, %rcx
        movq $0, %rax
fold:   addq (%rdi), %rax
        addq $8, %rdi
        subq $1, %rcx
        jne fold
        out  %rax
        halt
drv:    movq %rdi, %r8
        movq ${links}, %r9
        movq %rdi, %rdx
        addq ${seed_c}, %rdx
        imulq ${mul}, %rdx
.dloop: fork link
        imulq ${mul}, %rdx
        addq ${add}, %rdx
        subq $1, %r9
        jne .dloop
        endfork
link:   movq $accs, %rcx
        leaq (%rcx,%r8,8), %rcx
        movq %rdx, %rbx
        shrq $33, %rbx
        movq (%rcx), %rax
        cmpq $0, %rax
        je .add
.add:   addq %rbx, %rax
        movq %rax, (%rcx)
        endfork",
        accs_list = zeros.join(", "),
        seed_c = seed_imm(seed),
        mul = LCG_MUL,
        add = LCG_ADD,
    );
    assemble(&source).expect("the fan-chain listing always assembles")
}

/// The expected output of [`fan_chain_program`]: the wrapping sum, over
/// every chain, of the per-link LCG draws.
pub fn fan_chain_expected(chains: usize, links: usize, seed: u64) -> Vec<u64> {
    let mut total = 0u64;
    for chain in 0..chains as u64 {
        let mut state = chain.wrapping_add(seed_imm(seed)).wrapping_mul(LCG_MUL);
        for _ in 0..links {
            total = total.wrapping_add(state >> 33);
            state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        }
    }
    vec![total]
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_machine::Machine;

    /// Runs with the workload's own derived fuel cap, so the caps
    /// themselves are exercised (a starved cap fails here).
    fn run(program: &Program, fuel: u64) -> (Vec<u64>, u64) {
        let mut machine = Machine::load(program).expect("loads");
        let outcome = machine.run(fuel).expect("halts within its derived fuel");
        (outcome.outputs, outcome.instructions)
    }

    #[test]
    fn histogram_matches_its_oracle() {
        for (keys, buckets, seed) in [(40, 8, 1), (130, 16, 2), (257, 5, 3)] {
            let (outputs, _) = run(
                &histogram_program(keys, buckets, seed),
                histogram_fuel(keys, buckets),
            );
            assert_eq!(
                outputs,
                histogram_expected(keys, buckets, seed),
                "histogram({keys}, {buckets}, {seed})"
            );
        }
    }

    #[test]
    fn tree_sum_matches_its_oracle() {
        for (elements, seed) in [(1, 1), (16, 2), (40, 3), (333, 4)] {
            let (outputs, _) = run(&tree_sum_program(elements, seed), tree_sum_fuel(elements));
            assert_eq!(
                outputs,
                tree_sum_expected(elements, seed),
                "tree_sum({elements}, {seed})"
            );
        }
    }

    #[test]
    fn chain_sum_matches_its_oracle() {
        for (elements, seed) in [(1, 1), (2, 9), (100, 3)] {
            let (outputs, _) = run(&chain_sum_program(elements, seed), chain_sum_fuel(elements));
            assert_eq!(
                outputs,
                chain_sum_expected(elements, seed),
                "chain_sum({elements}, {seed})"
            );
        }
    }

    #[test]
    fn synth_histogram_matches_its_oracle() {
        for (keys, buckets, seed) in [(1, 1, 0), (40, 8, 1), (200, 16, 2), (1000, 64, 3)] {
            let (outputs, _) = run(
                &synth_histogram_program(keys, buckets, seed),
                synth_histogram_fuel(keys, buckets),
            );
            assert_eq!(
                outputs,
                synth_histogram_expected(keys, buckets, seed),
                "synth_histogram({keys}, {buckets}, {seed})"
            );
        }
    }

    #[test]
    fn synth_histogram_spreads_keys_over_buckets() {
        let counts = synth_histogram_counts(4096, 64, 9);
        assert_eq!(counts.iter().sum::<u64>(), 4096);
        let hit = counts.iter().filter(|c| **c > 0).count();
        assert!(hit > 48, "only {hit}/64 buckets hit — LCG keys too skewed");
    }

    #[test]
    fn fan_chain_matches_its_oracle() {
        for (chains, links, seed) in [(1, 1, 0), (3, 5, 1), (16, 9, 2), (64, 4, 3)] {
            let (outputs, _) = run(
                &fan_chain_program(chains, links, seed),
                fan_chain_fuel(chains, links),
            );
            assert_eq!(
                outputs,
                fan_chain_expected(chains, links, seed),
                "fan_chain({chains}, {links}, {seed})"
            );
        }
    }

    #[test]
    fn fan_chain_sections_scale_with_chains_times_links() {
        let (chains, links) = (8, 6);
        let arena = parsecs_trace::TraceArena::from_program(
            &fan_chain_program(chains, links, 5),
            fan_chain_fuel(chains, links),
        )
        .expect("runs");
        // Every fork creates exactly one section: `chains` driver forks
        // from main plus `chains × links` link forks, plus the initial
        // section.
        assert_eq!(arena.sections().len(), 1 + chains + chains * links);
        // The chains stay fine-grained: the longest section is main's
        // final fold over the accumulators, not anything per-link.
        assert!(arena.longest_section() <= 32 + 4 * chains);
    }

    #[test]
    fn chain_sum_is_one_section_per_element_plus_the_ends() {
        let arena =
            parsecs_trace::TraceArena::from_program(&chain_sum_program(50, 5), chain_sum_fuel(50))
                .expect("runs");
        // One section per element (each fork splits the loop at the fork
        // site) plus the final continuation carrying `out`/`halt`.
        assert_eq!(arena.sections().len(), 51);
        // The chain is serial: every interior section is small.
        assert!(arena.longest_section() <= 16);
    }

    #[test]
    fn benchmark_sizes_reach_a_million_instructions() {
        // The perf trajectory's headline cell: ~100k keys must cross the
        // 1M-dynamic-instruction line (checked here at 1/10 scale to keep
        // the test fast — the instruction count is linear in the keys).
        let (_, instructions) = run(
            &histogram_program(10_000, 64, 7),
            histogram_fuel(10_000, 64),
        );
        assert!(
            instructions >= 100_000,
            "histogram at 10k keys runs {instructions} instructions; \
             100k keys would miss the 1M line"
        );
    }

    #[test]
    fn derived_fuel_caps_scale_with_the_instance() {
        // The old hard-coded 1M cap starves a 10M-instruction instance;
        // the derived caps must not. Estimate the per-key / per-link cost
        // from a small run and extrapolate to the scale sizes.
        let (_, small) = run(
            &synth_histogram_program(2_000, 64, 1),
            synth_histogram_fuel(2_000, 64),
        );
        let projected_10m_keys = 10_000_000 / (small / 2_000).max(1);
        assert!(
            synth_histogram_fuel(projected_10m_keys as usize, 4096) > 10_000_000,
            "a ~10M-instruction synth histogram would exhaust its derived fuel"
        );
        let (_, small) = run(&fan_chain_program(32, 16, 1), fan_chain_fuel(32, 16));
        let per_link = (small / (32 * 16)).max(1);
        let projected_links = 10_000_000 / (1024 * per_link);
        assert!(
            fan_chain_fuel(1024, projected_links as usize) > 10_000_000,
            "a ~10M-instruction fan chain would exhaust its derived fuel"
        );
    }

    #[test]
    fn histogram_forks_enough_sections_to_spread() {
        let arena = parsecs_trace::TraceArena::from_program(
            &histogram_program(200, 8, 5),
            histogram_fuel(200, 8),
        )
        .expect("runs");
        assert!(
            arena.sections().len() > 16,
            "only {} sections",
            arena.sections().len()
        );
    }
}
