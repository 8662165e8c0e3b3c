//! The dataflow scheduler.

use std::collections::VecDeque;

use parsecs_machine::{Location, TraceSink, TraceStep};

use crate::location_map::LocationMap;
use crate::IlpModel;

/// The outcome of scheduling an instruction stream under a dependence
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpResult {
    /// Number of dynamic instructions scheduled.
    pub instructions: u64,
    /// Number of cycles of the schedule (the critical path under the
    /// chosen model, including resource constraints).
    pub cycles: u64,
    /// `instructions / cycles`.
    pub ilp: f64,
    /// Largest number of instructions scheduled in a single cycle.
    pub peak_parallelism: u64,
}

impl IlpResult {
    fn new(instructions: u64, cycles: u64, peak_parallelism: u64) -> IlpResult {
        let ilp = if cycles == 0 {
            0.0
        } else {
            instructions as f64 / cycles as f64
        };
        IlpResult {
            instructions,
            cycles,
            ilp,
            peak_parallelism,
        }
    }
}

/// The dataflow scheduler as a [`TraceSink`]: it schedules every
/// instruction it is given under each of its [`IlpModel`]s, at the
/// earliest cycle that model permits, in one pass over the instruction
/// stream.
///
/// Cycle numbering starts at 1; an instruction with no constraining
/// dependence issues at cycle 1 and, like every instruction (the paper's
/// unit latency), completes in its issue cycle.
///
/// # Example
///
/// ```
/// use parsecs_ilp::{IlpModel, IlpScheduler};
///
/// let scheduler = IlpScheduler::new([IlpModel::parallel_ideal()]);
/// let result = &scheduler.finish()[0];
/// assert_eq!(result.instructions, 0);
/// assert_eq!(result.cycles, 0);
/// ```
#[derive(Debug, Clone)]
pub struct IlpScheduler {
    models: Vec<ModelSchedule>,
    instructions: u64,
}

/// One model's schedule so far.
#[derive(Debug, Clone)]
struct ModelSchedule {
    model: IlpModel,
    last_write: LocationMap<u64>,
    last_read: LocationMap<u64>,
    last_control_complete: u64,
    /// The completion cycles of the last `window` instructions, oldest
    /// first; always empty for a model without a window.
    completions: VecDeque<u64>,
    /// Instructions issued in each cycle, indexed by cycle.
    issued_per_cycle: Vec<u64>,
    per_cycle_peak: u64,
    max_completion: u64,
}

impl IlpScheduler {
    /// A scheduler running every model of `models` over the same stream;
    /// [`IlpScheduler::finish`] reports them in this order.
    pub fn new(models: impl IntoIterator<Item = IlpModel>) -> IlpScheduler {
        let models = models
            .into_iter()
            .map(|model| ModelSchedule {
                model,
                last_write: LocationMap::default(),
                last_read: LocationMap::default(),
                last_control_complete: 0,
                completions: VecDeque::new(),
                issued_per_cycle: Vec::new(),
                per_cycle_peak: 0,
                max_completion: 0,
            })
            .collect();
        IlpScheduler {
            models,
            instructions: 0,
        }
    }

    /// The achieved ILP under each model, in the order they were given.
    pub fn finish(self) -> Vec<IlpResult> {
        self.models
            .into_iter()
            .map(|m| IlpResult::new(self.instructions, m.max_completion, m.per_cycle_peak))
            .collect()
    }
}

impl TraceSink for IlpScheduler {
    fn record(&mut self, step: &TraceStep<'_>) {
        for schedule in &mut self.models {
            schedule.record(step);
        }
        self.instructions += 1;
    }
}

impl ModelSchedule {
    fn record(&mut self, event: &TraceStep<'_>) {
        let model = &self.model;
        let relevant =
            |loc: &Location| -> bool { !(model.ignore_stack_pointer && loc.is_stack_pointer()) };

        // Earliest cycle at which all dependences are satisfied.
        let mut ready: u64 = 0;

        // True (producer → consumer) dependences.
        for loc in event.reads.iter().filter(|l| relevant(l)) {
            if let Some(c) = self.last_write.get(loc) {
                ready = ready.max(*c);
            }
        }

        // False dependences, kept only when renaming is disabled.
        for loc in event.writes.iter().filter(|l| relevant(l)) {
            let rename = if loc.is_mem() {
                model.rename_memory
            } else {
                model.rename_registers
            };
            if !rename {
                if let Some(c) = self.last_write.get(loc) {
                    ready = ready.max(*c);
                }
                if let Some(c) = self.last_read.get(loc) {
                    ready = ready.max(*c);
                }
            }
        }

        // Control dependences, kept only without perfect prediction.
        if !model.perfect_branch_prediction {
            ready = ready.max(self.last_control_complete);
        }

        // Finite window: instruction i waits for instruction i - W to
        // complete before it can even enter the window.
        if model.window == Some(self.completions.len()) {
            ready = ready.max(self.completions.front().copied().unwrap_or(0));
        }

        // Issue at the cycle after every dependence has completed.
        let mut issue = ready + 1;

        // Finite issue width: move to the next cycle with a free slot.
        if let Some(width) = model.issue_width {
            let width = width.max(1) as u64;
            loop {
                let used = self
                    .issued_per_cycle
                    .get(issue as usize)
                    .copied()
                    .unwrap_or(0);
                if used < width {
                    break;
                }
                issue += 1;
            }
        }
        let issue_slot = issue as usize;
        if issue_slot >= self.issued_per_cycle.len() {
            self.issued_per_cycle.resize(issue_slot + 1, 0);
        }
        let slot = &mut self.issued_per_cycle[issue_slot];
        *slot += 1;
        self.per_cycle_peak = self.per_cycle_peak.max(*slot);

        // Unit latency: an instruction completes in its issue cycle.
        let complete = issue;
        if let Some(window) = model.window {
            self.completions.push_back(complete);
            if self.completions.len() > window {
                self.completions.pop_front();
            }
        }
        self.max_completion = self.max_completion.max(complete);

        // Update the location tables.
        for loc in event.reads {
            let entry = self.last_read.entry(*loc).or_insert(0);
            *entry = (*entry).max(complete);
        }
        for loc in event.writes {
            self.last_write.insert(*loc, complete);
        }
        if event.is_control {
            self.last_control_complete = self.last_control_complete.max(complete);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsecs_isa::Reg;
    use parsecs_machine::TraceKind;
    use proptest::prelude::*;

    fn reg(r: Reg) -> Location {
        Location::Reg(r)
    }

    /// One instruction's locations, owned, to be streamed as a step.
    #[derive(Debug, Clone)]
    struct Event {
        reads: Vec<Location>,
        writes: Vec<Location>,
        is_control: bool,
    }

    fn event(reads: Vec<Location>, writes: Vec<Location>) -> Event {
        Event {
            reads,
            writes,
            is_control: false,
        }
    }

    /// Streams `events` into one scheduler over every model of `models`,
    /// as the machine would.
    fn schedule(events: &[Event], models: &[IlpModel]) -> Vec<IlpResult> {
        let mut scheduler = IlpScheduler::new(models.iter().cloned());
        for (seq, e) in events.iter().enumerate() {
            scheduler.record(&TraceStep {
                seq: seq as u64,
                ip: seq,
                mnemonic: "test",
                reads: &e.reads,
                writes: &e.writes,
                is_control: e.is_control,
                updates_stack_pointer: false,
                kind: TraceKind::Other,
                out_value: None,
            });
        }
        scheduler.finish()
    }

    fn analyze(events: &[Event], model: &IlpModel) -> IlpResult {
        schedule(events, std::slice::from_ref(model)).remove(0)
    }

    #[test]
    fn independent_instructions_all_issue_in_cycle_one() {
        let regs = [Reg::Rax, Reg::Rbx, Reg::Rcx, Reg::Rdx];
        let t: Vec<Event> = regs.iter().map(|&r| event(vec![], vec![reg(r)])).collect();
        let r = analyze(&t, &IlpModel::parallel_ideal());
        assert_eq!(r.cycles, 1);
        assert_eq!(r.instructions, 4);
        assert_eq!(r.ilp, 4.0);
        assert_eq!(r.peak_parallelism, 4);
    }

    #[test]
    fn dependence_chain_has_ilp_one() {
        // Each instruction reads and writes %rax: a pure RAW chain.
        let t = vec![event(vec![reg(Reg::Rax)], vec![reg(Reg::Rax)]); 8];
        let r = analyze(&t, &IlpModel::parallel_ideal());
        assert_eq!(r.cycles, 8);
        assert!((r.ilp - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn register_renaming_removes_war_and_waw() {
        // i0 writes rax; i1 reads rax (RAW); i2 writes rax again (WAW with
        // i0, WAR with i1).
        let t = vec![
            event(vec![], vec![reg(Reg::Rax)]),
            event(vec![reg(Reg::Rax)], vec![reg(Reg::Rbx)]),
            event(vec![], vec![reg(Reg::Rax)]),
        ];
        let renamed = analyze(&t, &IlpModel::parallel_ideal());
        assert_eq!(renamed.cycles, 2, "WAW/WAR disappear with renaming");
        let mut no_rename = IlpModel::parallel_ideal();
        no_rename.rename_registers = false;
        let kept = analyze(&t, &no_rename);
        assert_eq!(kept.cycles, 3, "i2 must wait for the read of i1");
    }

    #[test]
    fn memory_renaming_removes_memory_false_dependences() {
        // store [a]; load [a]; store [a] — the second store has WAW+WAR.
        let a = Location::Mem(0x1000);
        let t = vec![
            event(vec![], vec![a]),
            event(vec![a], vec![reg(Reg::Rax)]),
            event(vec![], vec![a]),
        ];
        let seq = analyze(&t, &IlpModel::sequential_oracle());
        assert_eq!(seq.cycles, 3);
        let par = analyze(&t, &IlpModel::parallel_ideal());
        assert_eq!(par.cycles, 2);
    }

    #[test]
    fn control_dependences_serialize_without_prediction() {
        let mut branch = event(vec![], vec![]);
        branch.is_control = true;
        let t = vec![
            event(vec![], vec![reg(Reg::Rax)]),
            branch,
            event(vec![], vec![reg(Reg::Rbx)]),
        ];
        let predicted = analyze(&t, &IlpModel::parallel_ideal());
        assert_eq!(predicted.cycles, 1);
        let in_order = analyze(&t, &IlpModel::in_order());
        assert_eq!(
            in_order.cycles, 2,
            "the instruction after the branch waits for it"
        );
    }

    #[test]
    fn stack_pointer_dependences_can_be_ignored() {
        // A chain of push-like instructions: read+write %rsp each time.
        let t: Vec<Event> = (0..6u64)
            .map(|i| {
                event(
                    vec![reg(Reg::Rsp)],
                    vec![reg(Reg::Rsp), Location::Mem(0x100 + 8 * i)],
                )
            })
            .collect();
        let seq = analyze(&t, &IlpModel::sequential_oracle());
        assert_eq!(seq.cycles, 6, "the rsp chain serialises the pushes");
        let par = analyze(&t, &IlpModel::parallel_ideal());
        assert_eq!(
            par.cycles, 1,
            "dropping rsp dependences exposes the parallelism"
        );
    }

    #[test]
    fn finite_window_limits_ilp() {
        // 16 independent instructions; a window of 4 forces them to trickle.
        let t: Vec<Event> = (0..16u64)
            .map(|i| event(vec![], vec![Location::Mem(8 * i)]))
            .collect();
        let unlimited = analyze(&t, &IlpModel::parallel_ideal());
        assert_eq!(unlimited.cycles, 1);
        let windowed = analyze(
            &t,
            &IlpModel {
                window: Some(4),
                ..IlpModel::parallel_ideal()
            },
        );
        assert_eq!(windowed.cycles, 4);
        assert!(windowed.ilp <= 4.0 + f64::EPSILON);
    }

    #[test]
    fn only_a_windowed_model_keeps_completions_and_only_the_window() {
        let mut scheduler = IlpScheduler::new([
            IlpModel::parallel_ideal(),
            IlpModel {
                window: Some(4),
                ..IlpModel::parallel_ideal()
            },
        ]);
        for seq in 0..100u64 {
            let writes = [Location::Mem(8 * seq)];
            scheduler.record(&TraceStep {
                seq,
                ip: 0,
                mnemonic: "test",
                reads: &[],
                writes: &writes,
                is_control: false,
                updates_stack_pointer: false,
                kind: TraceKind::Other,
                out_value: None,
            });
        }
        assert!(scheduler.models[0].completions.is_empty());
        assert_eq!(scheduler.models[1].completions.len(), 4);
    }

    #[test]
    fn issue_width_limits_throughput() {
        let t: Vec<Event> = (0..12u64)
            .map(|i| event(vec![], vec![Location::Mem(8 * i)]))
            .collect();
        let r = analyze(
            &t,
            &IlpModel {
                issue_width: Some(3),
                ..IlpModel::parallel_ideal()
            },
        );
        assert_eq!(r.cycles, 4);
        assert_eq!(r.peak_parallelism, 3);
    }

    #[test]
    fn empty_trace() {
        let r = analyze(&[], &IlpModel::parallel_ideal());
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.ilp, 0.0);
    }

    #[test]
    fn end_to_end_sum_trace_parallel_beats_sequential() {
        let program = parsecs_asm::assemble(
            "t:   .quad 1, 2, 3, 4, 5, 6, 7, 8
             main: movq $t, %rdi
                   movq $8, %rsi
                   call sum
                   out  %rax
                   halt
             sum:  cmpq $2, %rsi
                   ja .L2
                   movq (%rdi), %rax
                   jne .L1
                   addq 8(%rdi), %rax
             .L1:  ret
             .L2:  pushq %rbx
                   pushq %rdi
                   pushq %rsi
                   shrq %rsi
                   call sum
                   popq %rbx
                   pushq %rbx
                   subq $8, %rsp
                   movq %rax, 0(%rsp)
                   leaq (%rdi,%rsi,8), %rdi
                   subq %rsi, %rbx
                   movq %rbx, %rsi
                   call sum
                   addq 0(%rsp), %rax
                   addq $8, %rsp
                   popq %rsi
                   popq %rdi
                   popq %rbx
                   ret",
        )
        .unwrap();
        let mut machine = parsecs_machine::Machine::load(&program).unwrap();
        let mut scheduler =
            IlpScheduler::new([IlpModel::parallel_ideal(), IlpModel::sequential_oracle()]);
        let outcome = machine.run_with_sink(100_000, &mut scheduler).unwrap();
        assert_eq!(outcome.outputs, vec![36]);
        let [par, seq] = <[IlpResult; 2]>::try_from(scheduler.finish()).unwrap();
        assert_eq!(par.instructions, outcome.instructions);
        assert!(
            par.ilp > seq.ilp,
            "parallel {par:?} must beat sequential {seq:?}"
        );
        assert!(par.ilp > 1.5);
    }

    proptest! {
        /// Structural invariants on random traces: ILP is at least 1, the
        /// schedule never exceeds the instruction count, and removing
        /// constraints (parallel model) never hurts. Scheduling every
        /// model in one pass gives each the result it gets alone.
        #[test]
        fn invariants_on_random_traces(spec in proptest::collection::vec(
            (0u8..16, 0u8..16, 0u8..8, 0u8..8, any::<bool>()), 1..200))
        {
            let events: Vec<Event> = spec.iter().map(|(r1, w1, ma, mb, ctl)| {
                let mut e = event(
                    vec![reg(Reg::from_index(*r1 as usize).unwrap()), Location::Mem(8 * *ma as u64)],
                    vec![reg(Reg::from_index(*w1 as usize).unwrap()), Location::Mem(8 * *mb as u64)],
                );
                e.is_control = *ctl;
                e
            }).collect();
            let models = [
                IlpModel::parallel_ideal(),
                IlpModel::sequential_oracle(),
                IlpModel::in_order(),
                IlpModel {
                    window: Some(3),
                    issue_width: Some(2),
                    ..IlpModel::speculative_core()
                },
            ];
            let together = schedule(&events, &models);
            for (model, result) in models.iter().zip(&together) {
                prop_assert_eq!(&analyze(&events, model), result);
            }
            let (par, seq, ino) = (&together[0], &together[1], &together[2]);
            prop_assert!(par.cycles >= 1 && par.cycles <= events.len() as u64);
            prop_assert!(seq.cycles >= par.cycles);
            prop_assert!(ino.cycles >= seq.cycles);
            prop_assert!(par.ilp >= 1.0 - f64::EPSILON);
            prop_assert!(par.ilp >= seq.ilp - f64::EPSILON);
        }
    }
}
