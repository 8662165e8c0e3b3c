//! The paper's running example: the recursive vector sum.
//!
//! [`call_program`] reproduces Figure 2 (the gcc-style `call`/`ret` code)
//! and [`fork_program`] reproduces Figure 5 (the `fork`/`endfork` rewrite),
//! each prefixed by a three-instruction `main` that loads the array address
//! and length, invokes `sum`, prints the result and halts. The paper's
//! instruction counts therefore apply to the trace minus that five
//! instruction wrapper (3 before the first `sum` instruction, `out` and
//! `halt` after).

use parsecs_asm::assemble;
use parsecs_isa::Program;

/// The Figure 2 body of `sum` (call version), without `main`.
pub const SUM_CALL_BODY: &str = "
sum:    cmpq    $2, %rsi        # n > 2 ?
        ja      .L2
        movq    (%rdi), %rax    # rax = t[0]
        jne     .L1             # n != 2 ?
        addq    8(%rdi), %rax   # rax += t[1]
.L1:    ret
.L2:    pushq   %rbx
        pushq   %rdi
        pushq   %rsi
        shrq    %rsi            # rsi = n/2
        call    sum             # sum(t, n/2)
        popq    %rbx            # rbx = n
        pushq   %rbx
        subq    $8, %rsp        # allocate temp
        movq    %rax, 0(%rsp)   # temp = sum(t, n/2)
        leaq    (%rdi,%rsi,8), %rdi
        subq    %rsi, %rbx      # rbx = n - n/2
        movq    %rbx, %rsi
        call    sum             # sum(&t[n/2], n - n/2)
        addq    0(%rsp), %rax   # rax += temp
        addq    $8, %rsp
        popq    %rsi
        popq    %rdi
        popq    %rbx
        ret
";

/// The Figure 5 body of `sum` (fork version), without `main`.
pub const SUM_FORK_BODY: &str = "
sum:    cmpq    $2, %rsi        # n > 2 ?
        ja      .L2
        movq    (%rdi), %rax    # rax = t[0]
        jne     .L1             # n != 2 ?
        addq    8(%rdi), %rax   # rax += t[1]
.L1:    endfork
.L2:    movq    %rsi, %rbx      # rbx = n
        shrq    %rsi            # rsi = n/2
        fork    sum             # sum(t, n/2)
        subq    $8, %rsp        # allocate temp
        movq    %rax, 0(%rsp)   # temp = sum(t, n/2)
        leaq    (%rdi,%rsi,8), %rdi
        subq    %rsi, %rbx      # rbx = n - n/2
        movq    %rbx, %rsi
        fork    sum             # sum(&t[n/2], n - n/2)
        addq    0(%rsp), %rax   # rax += temp
        addq    $8, %rsp
        endfork
";

fn wrap(body: &str, invoke: &str, data: &[u64]) -> Program {
    let quads: Vec<String> = data.iter().map(u64::to_string).collect();
    let source = format!(
        "t:    .quad {}
main:   movq $t, %rdi
        movq ${}, %rsi
        {invoke} sum
        out  %rax
        halt
{body}",
        quads.join(", "),
        data.len(),
    );
    assemble(&source).expect("the sum listing always assembles")
}

/// The Figure 2 program (call version) summing `data`.
///
/// # Panics
///
/// Panics if `data` is empty — the paper's listing assumes `n ≥ 1`.
pub fn call_program(data: &[u64]) -> Program {
    assert!(
        !data.is_empty(),
        "the sum example needs at least one element"
    );
    wrap(SUM_CALL_BODY, "call", data)
}

/// The Figure 5 program (fork version) summing `data`.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn fork_program(data: &[u64]) -> Program {
    assert!(
        !data.is_empty(),
        "the sum example needs at least one element"
    );
    wrap(SUM_FORK_BODY, "fork", data)
}

/// The paper's example dataset size `5 · 2ⁿ`, filled with small
/// pseudo-random values.
pub fn dataset(n: u32, seed: u64) -> Vec<u64> {
    crate::data::values(5 * (1usize << n), 100, seed)
}

/// The expected output of both programs: the sum of the data.
pub fn expected(data: &[u64]) -> Vec<u64> {
    vec![data.iter().copied().fold(0u64, u64::wrapping_add)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_machine::Machine;

    #[test]
    fn both_versions_compute_the_sum() {
        let data = [4u64, 2, 6, 4, 5];
        for program in [call_program(&data), fork_program(&data)] {
            let mut machine = Machine::load(&program).unwrap();
            assert_eq!(machine.run(100_000).unwrap().outputs, expected(&data));
        }
    }

    #[test]
    fn figure3_trace_has_59_sum_instructions() {
        // Figure 3: the call-version run of sum(t,5) is a 59-instruction
        // trace; our wrapper adds movq/movq/call before and out/halt after.
        let data = [4u64, 2, 6, 4, 5];
        let mut machine = Machine::load(&call_program(&data)).unwrap();
        let outcome = machine.run(100_000).unwrap();
        assert_eq!(outcome.instructions, 59 + 5);
    }

    #[test]
    fn figure6_trace_has_45_sum_instructions() {
        let data = [4u64, 2, 6, 4, 5];
        let mut machine = Machine::load(&fork_program(&data)).unwrap();
        let outcome = machine.run(100_000).unwrap();
        assert_eq!(outcome.instructions, 45 + 5);
    }

    #[test]
    fn call_and_fork_agree_on_every_dataset_size() {
        for n in 0..5u32 {
            let data = dataset(n, 42);
            let mut call = Machine::load(&call_program(&data)).unwrap();
            let mut fork = Machine::load(&fork_program(&data)).unwrap();
            let a = call.run(10_000_000).unwrap().outputs;
            let b = fork.run(10_000_000).unwrap().outputs;
            assert_eq!(a, b);
            assert_eq!(a, expected(&data));
        }
    }

    #[test]
    fn dataset_is_seeded() {
        assert_eq!(dataset(2, 7), dataset(2, 7));
        assert_ne!(dataset(2, 7), dataset(2, 8));
        assert_eq!(dataset(3, 7).len(), 40);
    }
}
