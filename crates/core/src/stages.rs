//! One record of where a run's time went.
//!
//! The batch run (ingest, the closure stage, the schema stratum, rule
//! firing, the table update, the N-Triples writer), the write pipeline with
//! delete–rederive inside it, and a cold start all time their stages into
//! one [`Stages`] record. Every surface prints through its two renderers:
//! the text line in ms ([`fmt::Display`]: the batch CLI's and `snapshot`'s
//! `stages:` line, `recover`'s, the serve log's `recovered …` line) and the
//! JSON members in µs ([`Stages::json_into`]: `GET /status`'s
//! `last_write`). [`Stage`] is the only list of stage names.
//!
//! The law every record keeps: the top-level stages are wall-clock and run
//! one after another, so they sum ([`Stages::total`]) to at most the wall
//! time of the run; the details of a stage ([`Stage::parent`]) run inside
//! it, so those that run one after another sum to at most it (`DICT`
//! decodes on a lane of its own beside `BASE` and `MATL`).

use std::fmt;
use std::time::{Duration, Instant};

/// Declares [`Stage`] from one list: each stage's doc, variant, name and,
/// for a detail, its parent.
macro_rules! stages {
    (@parent) => { None };
    (@parent $parent:ident) => { Some(Stage::$parent) };
    ($($(#[doc = $doc:literal])* $stage:ident $name:literal $(in $parent:ident)?,)*) => {
        /// A stage, in the order the renderers print them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stage {
            $($(#[doc = $doc])* $stage,)*
        }

        impl Stage {
            /// Every stage, in order.
            pub const ALL: &[Stage] = &[$(Stage::$stage),*];

            /// The name both renderers print (the JSON key adds `_us`).
            pub fn name(self) -> &'static str {
                match self {
                    $(Stage::$stage => $name,)*
                }
            }

            /// The stage this one is a detail of, if it is one.
            pub fn parent(self) -> Option<Stage> {
                match self {
                    $(Stage::$stage => stages!(@parent $($parent)?),)*
                }
            }
        }
    };
}

stages! {
    /// Reading and interning the document (batch).
    Ingest "ingest",
    /// The transitive-closure stage (§4.1).
    Closure "closure",
    /// The schema stratum's pass to its own fixed point.
    Stratum "stratum",
    /// The fixed point's rule-firing phases (§4.3), each its wall time with
    /// the ⟨o,s⟩ caches its rules built, over every iteration.
    Fire "fire",
    /// The fixed point's table-update phases (Figure 5), over every
    /// iteration.
    Update "update",
    /// Writing the materialization as N-Triples (batch).
    Write "write",
    /// A write: encoding the delta, compiling a rule program and patching
    /// promoted identifiers.
    Encode "encode",
    /// A write: the delta's closure, or delete–rederive.
    Reason "reason",
    /// A write: the shape gate.
    Gate "gate",
    /// A write: WAL append and fsync when durable.
    Log "log",
    /// A write: installing the base, preparing the store and publishing it
    /// with its dictionary.
    Publish "publish",
    /// A durable write that crosses the checkpoint threshold: sealing the
    /// log, capturing the state and starting the image's thread. Zero on
    /// every other write.
    Checkpoint "checkpoint",
    /// Delete–rederive phase 1: the over-deletion cone.
    OverDelete "over_delete" in Reason,
    /// Delete–rederive phase 2: the support probes.
    Probe "probe" in Reason,
    /// Delete–rederive phase 3: the net change leaving the store.
    NetDelete "net_delete" in Reason,
    /// Delete–rederive phase 4: the rederivation fixed point.
    Cascade "cascade" in Reason,
    /// A cold start: reading the image (and a delta's base), from the first
    /// header byte to the last section decoded.
    Image "image",
    /// The image's `DICT` section decoded: the dictionary rebuilt.
    Dict "DICT" in Image,
    /// The image's `BASE` section decoded: the explicit store.
    Base "BASE" in Image,
    /// The image's `MATL` section decoded: the materialized store.
    Matl "MATL" in Image,
    /// A cold start: building the first epoch's ⟨o,s⟩ caches.
    OsCaches "os_caches",
    /// A cold start: reading the log, replaying its records past the image
    /// in place, and publishing the first epoch.
    Replay "replay",
}

/// The time of each stage a run recorded; a stage it did not record is
/// absent, which is not the same as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stages {
    times: [Option<Duration>; Stage::ALL.len()],
}

impl Stages {
    /// Adds `time` to `stage`, which is present from now on.
    pub fn add(&mut self, stage: Stage, time: Duration) {
        let slot = &mut self.times[stage as usize];
        *slot = Some(slot.unwrap_or_default() + time);
    }

    /// Adds the time since `clock` to `stage` and restarts `clock`: one
    /// clock read ends a stage and begins the next.
    pub fn lap(&mut self, stage: Stage, clock: &mut Instant) {
        let now = Instant::now();
        self.add(stage, now - *clock);
        *clock = now;
    }

    /// The time of `stage`, if it was recorded.
    pub fn get(&self, stage: Stage) -> Option<Duration> {
        self.times[stage as usize]
    }

    /// The recorded stages with their times, in order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Duration)> + '_ {
        Stage::ALL.iter().filter_map(|&s| Some((s, self.get(s)?)))
    }

    /// The sum of the top-level stages present.
    pub fn total(&self) -> Duration {
        let top_level = |(stage, time): (Stage, _)| stage.parent().is_none().then_some(time);
        self.iter().filter_map(top_level).sum()
    }

    /// Appends `"total_us":…` and then `"<name>_us":…` for each stage
    /// present, in order: the members of a JSON object, without its braces.
    pub fn json_into(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(out, "\"total_us\":{}", self.total().as_micros());
        for (stage, time) in self.iter() {
            let _ = write!(out, ",\"{}_us\":{}", stage.name(), time.as_micros());
        }
    }
}

impl std::ops::AddAssign for Stages {
    /// Adds every stage `other` recorded.
    fn add_assign(&mut self, other: Stages) {
        for (stage, time) in other.iter() {
            self.add(stage, time);
        }
    }
}

impl fmt::Display for Stages {
    /// `image 31.2 ms (DICT 22.0 ms, BASE 7.1 ms, MATL 20.3 ms), os_caches
    /// 12.8 ms, replay 40.1 ms`: each stage in order, its details in
    /// brackets after it (a detail recorded without its parent stands on
    /// its own).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |time: Duration| time.as_secs_f64() * 1e3;
        let mut separator = "";
        for (stage, time) in self.iter() {
            if stage.parent().and_then(|parent| self.get(parent)).is_some() {
                continue;
            }
            write!(f, "{separator}{} {:.1} ms", stage.name(), ms(time))?;
            separator = ", ";
            let mut bracket = " (";
            for (detail, time) in self.iter().filter(|(d, _)| d.parent() == Some(stage)) {
                write!(f, "{bracket}{} {:.1} ms", detail.name(), ms(time))?;
                bracket = ", ";
            }
            if bracket == ", " {
                f.write_str(")")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn the_enum_order_is_the_list() {
        for (at, &stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage as usize, at);
            if let Some(parent) = stage.parent() {
                assert!(parent.parent().is_none(), "{stage:?}");
            }
        }
    }

    #[test]
    fn no_name_contains_what_the_batch_summary_is_cut_at() {
        // The batch CLI's first stderr line is read up to its first
        // " written"; no stage line may be mistaken for it.
        for stage in Stage::ALL {
            assert!(!stage.name().contains("written"), "{stage:?}");
        }
    }

    #[test]
    fn total_adds_the_top_level_stages_only() {
        let mut stages = Stages::default();
        stages.add(Stage::Image, ms(10));
        stages.add(Stage::Dict, ms(6));
        stages.add(Stage::Base, ms(3));
        stages.add(Stage::Replay, ms(2));
        stages.add(Stage::Replay, ms(1));
        assert_eq!(stages.total(), ms(13));
        assert_eq!(stages.get(Stage::Replay), Some(ms(3)));
        assert_eq!(stages.get(Stage::Matl), None);
    }

    #[test]
    fn renders_text_and_json() {
        let mut stages = Stages::default();
        stages.add(Stage::Reason, Duration::from_micros(1_260));
        stages.add(Stage::Cascade, Duration::ZERO);
        stages.add(Stage::Encode, Duration::from_micros(40));
        stages.add(Stage::OverDelete, Duration::from_micros(300));
        stages.add(Stage::Checkpoint, Duration::ZERO);
        assert_eq!(
            stages.to_string(),
            "encode 0.0 ms, reason 1.3 ms (over_delete 0.3 ms, cascade 0.0 ms), checkpoint 0.0 ms"
        );
        let mut json = String::new();
        stages.json_into(&mut json);
        assert_eq!(
            json,
            "\"total_us\":1300,\"encode_us\":40,\"reason_us\":1260,\"checkpoint_us\":0,\
             \"over_delete_us\":300,\"cascade_us\":0"
        );

        // Details recorded without their parent stand on their own.
        let mut phases = Stages::default();
        phases.add(Stage::Probe, ms(2));
        phases += stages;
        assert_eq!(phases.get(Stage::Probe), Some(ms(2)));
        let mut alone = Stages::default();
        alone.add(Stage::Probe, ms(2));
        alone.add(Stage::NetDelete, ms(1));
        assert_eq!(alone.to_string(), "probe 2.0 ms, net_delete 1.0 ms");
        assert_eq!(Stages::default().to_string(), "");
    }
}
