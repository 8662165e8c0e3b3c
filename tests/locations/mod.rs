//! What the arena does not store: the locations each record reads and
//! writes, logged by a test-side sink beside the sectioner.

use parsecs::isa::Program;
use parsecs::machine::{Location, Machine, TraceKind, TraceSink, TraceStep};
use parsecs::trace::{StreamingSectioner, TraceArena};

/// One record's step, owned.
pub struct Logged {
    ip: usize,
    mnemonic: &'static str,
    reads: Vec<Location>,
    writes: Vec<Location>,
    is_control: bool,
    kind: TraceKind,
}

impl Logged {
    /// The step as the machine streamed it (`seq`, the stack-pointer
    /// flag and the `out` value are not kept).
    pub fn step(&self) -> TraceStep<'_> {
        TraceStep {
            seq: 0,
            ip: self.ip,
            mnemonic: self.mnemonic,
            reads: &self.reads,
            writes: &self.writes,
            is_control: self.is_control,
            updates_stack_pointer: false,
            kind: self.kind,
            out_value: None,
        }
    }
}

/// A sectioner that logs each step it is fed.
struct LocationLog {
    sectioner: StreamingSectioner,
    steps: Vec<Logged>,
}

impl TraceSink for LocationLog {
    fn record(&mut self, step: &TraceStep<'_>) {
        self.sectioner.record(step);
        self.steps.push(Logged {
            ip: step.ip,
            mnemonic: step.mnemonic,
            reads: step.reads.to_vec(),
            writes: step.writes.to_vec(),
            is_control: step.is_control,
            kind: step.kind,
        });
    }
}

/// `program`'s arena and the logged step of each of its records: record
/// `seq`'s dependences are in the order of `steps[seq].step().reads`.
pub fn logged_arena(program: &Program, fuel: u64) -> (TraceArena, Vec<Logged>) {
    let mut log = LocationLog {
        sectioner: StreamingSectioner::new(),
        steps: Vec::new(),
    };
    let outcome = Machine::load(program)
        .expect("loads")
        .run_with_sink(fuel, &mut log)
        .expect("halts within fuel");
    let arena = log.sectioner.finish(outcome.outputs).expect("fits");
    // The machine stops at the halt, which ends the last section.
    assert_eq!(arena.len(), log.steps.len(), "one step per record");
    (arena, log.steps)
}
