//! Dependence models for the limit study.

/// Which dependences constrain the dataflow schedule.
///
/// Every switch removes (when `true`) or keeps (when `false`) one family of
/// ordering constraints, following §3 of the paper. The two presets used by
/// the Figure 7 reproduction are [`IlpModel::sequential_oracle`] and
/// [`IlpModel::parallel_ideal`]; [`IlpModel::speculative_core`] adds the
/// finite-window model of Wall's "good" configuration as an ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpModel {
    /// Unlimited register renaming: register (and flags) WAR/WAW
    /// dependences are ignored.
    pub rename_registers: bool,
    /// Memory renaming: memory WAR/WAW dependences are ignored.
    pub rename_memory: bool,
    /// Perfect branch prediction: instructions do not wait for older
    /// control instructions.
    pub perfect_branch_prediction: bool,
    /// Ignore every dependence carried by the stack pointer register
    /// (`%rsp`), as the paper's parallel runs do.
    pub ignore_stack_pointer: bool,
    /// Optional finite instruction window: instruction *i* cannot issue
    /// before instruction *i − window* has completed.
    pub window: Option<usize>,
    /// Optional maximum number of instructions issued per cycle.
    pub issue_width: Option<usize>,
}

impl IlpModel {
    /// The paper's *sequential run* model: unlimited register renaming,
    /// perfect branch prediction, **no** memory renaming, stack-pointer
    /// dependences kept.
    pub fn sequential_oracle() -> IlpModel {
        IlpModel {
            rename_registers: true,
            rename_memory: false,
            perfect_branch_prediction: true,
            ignore_stack_pointer: false,
            window: None,
            issue_width: None,
        }
    }

    /// The paper's *parallel run* model: everything renamed, control
    /// computed, stack-pointer dependences excluded; only
    /// producer→consumer dependences remain.
    pub fn parallel_ideal() -> IlpModel {
        IlpModel {
            rename_registers: true,
            rename_memory: true,
            perfect_branch_prediction: true,
            ignore_stack_pointer: true,
            window: None,
            issue_width: None,
        }
    }

    /// A finite speculative core in the spirit of Wall's "good" model
    /// (2 K-instruction window, 64-wide issue), used as an ablation point
    /// between the two extremes.
    pub fn speculative_core() -> IlpModel {
        IlpModel {
            window: Some(2048),
            issue_width: Some(64),
            ..IlpModel::sequential_oracle()
        }
    }

    /// A strictly in-order, no-renaming model (every dependence kept),
    /// useful as a lower bound in tests and ablations.
    pub fn in_order() -> IlpModel {
        IlpModel {
            rename_registers: false,
            rename_memory: false,
            perfect_branch_prediction: false,
            ignore_stack_pointer: false,
            window: None,
            issue_width: None,
        }
    }
}

impl Default for IlpModel {
    fn default() -> IlpModel {
        IlpModel::parallel_ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_the_paper_says_they_do() {
        let seq = IlpModel::sequential_oracle();
        let par = IlpModel::parallel_ideal();
        assert!(seq.rename_registers && par.rename_registers);
        assert!(!seq.rename_memory && par.rename_memory);
        assert!(!seq.ignore_stack_pointer && par.ignore_stack_pointer);
        assert!(seq.perfect_branch_prediction && par.perfect_branch_prediction);
    }

    #[test]
    fn speculative_core_is_windowed() {
        let m = IlpModel::speculative_core();
        assert_eq!(m.window, Some(2048));
        assert_eq!(m.issue_width, Some(64));
        assert!(!m.rename_memory);
    }
}
