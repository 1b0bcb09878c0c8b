//! Tuning knobs of the reasoner.

/// Options controlling an [`InferrayReasoner`](crate::InferrayReasoner) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferrayOptions {
    /// Run the per-rule executors on dedicated threads (the paper's design;
    /// §4.3 "each rule is executed on a dedicated thread"). Disable for
    /// deterministic single-threaded profiling.
    pub parallel: bool,
    /// Skip the dedicated up-front transitive-closure stage — and the schema
    /// stratum's pass after it — and rely solely on the in-loop executors.
    /// Used by the ablation benchmark that quantifies the benefit of the
    /// dedicated stage (Table 4 discussion) and as a reference run.
    pub skip_closure_stage: bool,
    /// Schedule rules by the §4.3 dependency graph: from iteration 2 on,
    /// fire only the rules whose input tables received new pairs in the
    /// previous iteration; close the schema stratum before the loop and
    /// leave out the firings proven redundant while it stays closed. The
    /// result is byte-identical to firing every rule (a rule with unchanged
    /// inputs can only re-derive duplicates); disable as an escape hatch for
    /// debugging or to measure the saving.
    pub schedule_rules: bool,
}

impl Default for InferrayOptions {
    fn default() -> Self {
        InferrayOptions {
            parallel: true,
            skip_closure_stage: false,
            schedule_rules: true,
        }
    }
}

impl InferrayOptions {
    /// The default, parallel configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-threaded configuration (used by tests and profiling runs).
    pub fn sequential() -> Self {
        InferrayOptions {
            parallel: false,
            ..Self::default()
        }
    }

    /// Configuration for the closure-stage ablation.
    pub fn without_closure_stage() -> Self {
        InferrayOptions {
            skip_closure_stage: true,
            ..Self::default()
        }
    }

    /// Configuration with delta-driven rule scheduling disabled: every rule
    /// of the ruleset fires on every iteration (the pre-scheduler behaviour,
    /// kept as the reference for the equivalence suites).
    pub fn unscheduled() -> Self {
        InferrayOptions {
            schedule_rules: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let opts = InferrayOptions::default();
        assert!(opts.parallel);
        assert!(!opts.skip_closure_stage);
        assert!(opts.schedule_rules);
    }

    #[test]
    fn presets() {
        assert!(!InferrayOptions::sequential().parallel);
        assert!(InferrayOptions::without_closure_stage().skip_closure_stage);
        assert!(!InferrayOptions::unscheduled().schedule_rules);
        assert!(InferrayOptions::unscheduled().parallel);
        assert_eq!(InferrayOptions::new(), InferrayOptions::default());
    }
}
