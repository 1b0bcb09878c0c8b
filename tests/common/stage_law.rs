//! The one law of a stage record ([`inferray::Stages`]), and readers of its
//! two renderings: the top-level stages run one after another inside the
//! run, so they sum to at most its wall time, and the details of a stage
//! run inside it, so they sum to at most it — those that run one after
//! another, that is: `DICT` decodes on a lane of its own beside `BASE` and
//! `MATL`, so it and they are each held to `image` on their own.

#![allow(dead_code)]

use inferray::{Stage, Stages};
use std::time::Duration;

/// Panics unless `stages` keeps the law within `wall`.
pub fn assert_stage_law(stages: &Stages, wall: Duration) {
    assert!(
        stages.total() <= wall,
        "{:?} of stages in {wall:?}: {stages}",
        stages.total()
    );
    let own_lane = |stage: Stage| stage == Stage::Dict;
    for (stage, _) in stages.iter() {
        if let Some(parent) = stage.parent() {
            let lane: Duration = stages
                .iter()
                .filter(|&(s, _)| s.parent() == Some(parent) && own_lane(s) == own_lane(stage))
                .map(|(_, time)| time)
                .sum();
            assert!(
                Some(lane) <= stages.get(parent),
                "{stage:?} and the details in sequence with it are not inside {parent:?}: \
                 {stages}"
            );
        }
    }
}

fn stage_named(name: &str) -> Stage {
    Stage::ALL
        .iter()
        .copied()
        .find(|stage| stage.name() == name)
        .unwrap_or_else(|| panic!("no stage is named {name:?}"))
}

/// The record a JSON object's `<name>_us` members render (`total_us`
/// aside).
pub fn from_json(object: &str) -> Stages {
    let mut stages = Stages::default();
    for member in object.trim_matches(|c| c == '{' || c == '}').split(',') {
        let (key, value) = member.split_once(':').expect("a member");
        let Some(name) = key.trim_matches('"').strip_suffix("_us") else {
            continue;
        };
        if name != "total" {
            let us = value.parse().expect("µs");
            stages.add(stage_named(name), Duration::from_micros(us));
        }
    }
    stages
}

/// The record a text line renders (`ingest 1.2 ms, image 3.0 ms (DICT
/// 1.1 ms, …), …`), to the 0.1 ms it prints. Each print is within
/// 0.05 ms of its time, so details in sequence could print a sum above
/// their parent's print; a detail therefore reads 0.1 ms below what it
/// prints (zero at the least), which no rounding can push past the parent.
pub fn from_text(line: &str) -> Stages {
    let mut stages = Stages::default();
    for item in line.split([',', '(', ')']).map(str::trim) {
        if item.is_empty() {
            continue;
        }
        let (name, ms) = item
            .strip_suffix(" ms")
            .and_then(|item| item.rsplit_once(' '))
            .unwrap_or_else(|| panic!("{item:?} is not `<name> <ms> ms`"));
        let (stage, ms) = (stage_named(name), ms.parse::<f64>().expect("ms"));
        let ms = if stage.parent().is_some() {
            (ms - 0.1).max(0.0)
        } else {
            ms
        };
        stages.add(stage, Duration::from_secs_f64(ms / 1e3));
    }
    stages
}
