//! Per-iteration timing breakdown of the fixed-point loop.
//!
//! The paper's performance story lives inside one iteration: rule firing
//! (§4.3, parallel) followed by the per-property table update (Figure 5:
//! sort, dedup, merge). [`IterationProfile`] records both phases for every
//! iteration of the most recent run — and, inside the firing phase, one
//! [`RuleSample`] per rule, inside the update one [`TableSample`] per
//! table — so the `benchmark/` package's traced run, and
//! anyone debugging a slow materialization, can see where the time goes,
//! which rule it goes to, and how the delta shrinks towards the fixed point.

use inferray_rules::RuleRef;
use inferray_store::OsBuilds;
use std::time::Duration;

/// What one rule did in one iteration, measured by the task that ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSample {
    /// The rule.
    pub rule: RuleRef,
    /// Raw pairs the rule emitted (duplicates included).
    pub raw_pairs: usize,
    /// Wall-clock time of the rule's task, cache builds included.
    pub fire: Duration,
    /// The part of `fire` spent sorting ⟨o,s⟩ caches no earlier reader had
    /// built (§4.2: "computed lazily upon need" — this rule was the need),
    /// and how many pairs that was.
    pub os_cache: OsBuilds,
}

/// What the update stage did with one property table in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSample {
    /// The property.
    pub property: u64,
    /// Raw pairs the rules emitted into the table (duplicates included).
    pub raw_pairs: usize,
    /// Pairs the table did not hold before.
    pub new_pairs: usize,
    /// Pool lanes the update ran on: more than one when the table
    /// dominated the iteration and was split by subject range.
    pub lanes: usize,
    /// Wall-clock time of the table's update.
    pub time: Duration,
}

/// Timing and volume counters of one fixed-point iteration.
///
/// `fire` and `update` are disjoint wall times and add up to the
/// iteration; `os_cache` is a busy time inside `fire`, summed over lanes.
#[derive(Debug, Clone, Default)]
pub struct IterationSample {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Time the rule tasks of this iteration spent building the ⟨o,s⟩
    /// caches they read (§4.2), summed over the tasks: tasks that build at
    /// once on several lanes each count, so it can exceed `fire`. The
    /// builds happen inside the firing phase, on demand; nothing is
    /// pre-built.
    pub os_cache: Duration,
    /// Wall-clock time of the rule-firing phase (line 5 of Algorithm 1),
    /// the cache builds included.
    pub fire: Duration,
    /// Wall-clock time of the table-update phase (lines 6-7, Figure 5).
    pub update: Duration,
    /// Raw pairs produced by the rule executors this iteration.
    pub raw_pairs: usize,
    /// Genuinely new pairs after both deduplication layers.
    pub new_pairs: usize,
    /// Property tables that received inferred pairs.
    pub properties_touched: usize,
    /// Rules actually fired this iteration (the §4.3 dependency schedule).
    pub rules_fired: usize,
    /// Rules of the ruleset left out: none of their input tables received
    /// new pairs in the previous iteration, or (iteration 1) the closure
    /// stage had just done their work.
    pub rules_skipped: usize,
    /// One row per fired rule, in firing (Table 5) order.
    pub rules: Vec<RuleSample>,
    /// One row per updated table, in ascending property order.
    pub tables: Vec<TableSample>,
}

/// The iteration-by-iteration profile of one materialization run.
#[derive(Debug, Clone, Default)]
pub struct IterationProfile {
    /// One sample per executed iteration, in order.
    pub samples: Vec<IterationSample>,
}

impl IterationProfile {
    /// Total time spent firing rules.
    pub fn total_fire(&self) -> Duration {
        self.samples.iter().map(|s| s.fire).sum()
    }

    /// Total time spent in the table-update stage.
    pub fn total_update(&self) -> Duration {
        self.samples.iter().map(|s| s.update).sum()
    }

    /// Total time spent building ⟨o,s⟩ caches for the rules that read them,
    /// summed over lanes (see [`IterationSample::os_cache`]).
    pub fn total_os_cache(&self) -> Duration {
        self.samples.iter().map(|s| s.os_cache).sum()
    }

    /// Total rule firings across the run.
    pub fn total_rules_fired(&self) -> usize {
        self.samples.iter().map(|s| s.rules_fired).sum()
    }

    /// Total rule firings the dependency scheduler avoided.
    pub fn total_rules_skipped(&self) -> usize {
        self.samples.iter().map(|s| s.rules_skipped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let profile = IterationProfile {
            samples: vec![
                IterationSample {
                    iteration: 1,
                    os_cache: Duration::from_millis(3),
                    fire: Duration::from_millis(4),
                    update: Duration::from_millis(2),
                    raw_pairs: 100,
                    new_pairs: 40,
                    properties_touched: 3,
                    rules_fired: 10,
                    rules_skipped: 0,
                    rules: vec![RuleSample {
                        rule: RuleRef::Builtin(inferray_rules::RuleId::CaxSco),
                        raw_pairs: 100,
                        fire: Duration::from_millis(6),
                        os_cache: OsBuilds {
                            time: Duration::from_millis(3),
                            pairs: 40,
                        },
                    }],
                    tables: vec![TableSample {
                        property: 1,
                        raw_pairs: 100,
                        new_pairs: 40,
                        lanes: 2,
                        time: Duration::from_millis(2),
                    }],
                },
                IterationSample {
                    iteration: 2,
                    os_cache: Duration::from_millis(1),
                    fire: Duration::from_millis(1),
                    update: Duration::from_millis(1),
                    raw_pairs: 10,
                    new_pairs: 0,
                    properties_touched: 1,
                    rules_fired: 4,
                    rules_skipped: 6,
                    rules: Vec::new(),
                    tables: Vec::new(),
                },
            ],
        };
        assert_eq!(profile.total_fire(), Duration::from_millis(5));
        assert_eq!(profile.total_update(), Duration::from_millis(3));
        assert_eq!(profile.total_os_cache(), Duration::from_millis(4));
        assert_eq!(profile.total_rules_fired(), 14);
        assert_eq!(profile.total_rules_skipped(), 6);
    }
}
