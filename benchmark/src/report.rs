//! What a run reports: the machine fingerprint, the named detail rows a
//! person reads, and the one result line the driver reads.

use crate::json::push_str_literal;

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: CLI runs, requests, restarts, checks.
    pub attempted: u64,
    /// Operations that were refused, failed or answered wrongly.
    pub failed: u64,
    /// The first few failures, spelled out.
    pub failures: Vec<String>,
    /// The contract metrics: every end-to-end metric of `BENCHMARK.json`
    /// (`--trace 0`) or every per-layer metric (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Secondary rows under the issue's names (`query_per_s`,
    /// `update_p95_ms`, per-class latencies, sample counts, input sizes).
    pub detail: Vec<Metric>,
    /// The generated dataset as a JSON object: generator, sizes, bytes.
    pub dataset: String,
}

impl Outcome {
    /// Counts one operation; `Err` counts it as failed too.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push(Metric::new(name, value, unit));
    }

    /// A run is correct when nothing failed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. Values keep every digit `f64` prints.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(&mut out, &m.name);
        out.push_str(&format!(": {{\"value\": {}, \"unit\": ", number(m.value)));
        push_str_literal(&mut out, m.unit);
        out.push('}');
    }
    out.push('}');
    out
}

/// Where and on what the numbers were taken; part of every record.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub pool_lanes: usize,
    pub profile: &'static str,
    pub git_rev: String,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
}

impl Fingerprint {
    pub fn take(seed: u64, seconds: u64, quick: bool) -> Fingerprint {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // The caller of a pool batch drains the queue too: workers + 1.
            pool_lanes: inferray_parallel::global().threads() + 1,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev,
            seed,
            seconds,
            quick,
        }
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"nproc\": {}, \"pool_lanes\": {}, \"profile\": \"{}\", \"git_rev\": ",
            self.nproc, self.pool_lanes, self.profile
        );
        push_str_literal(&mut out, &self.git_rev);
        out.push_str(&format!(
            ", \"seed\": {}, \"seconds\": {}, \"quick\": {}}}",
            self.seed, self.seconds, self.quick
        ));
        out
    }
}

/// One run as one JSON line: what `--out` appends and `--compare` reads.
pub fn record_line(
    workload: &str,
    trace: bool,
    fingerprint: &Fingerprint,
    outcome: &Outcome,
) -> String {
    let mut out = String::from("{\"workload\": ");
    push_str_literal(&mut out, workload);
    out.push_str(&format!(
        ", \"trace\": {}, \"claim\": null, \"fingerprint\": {}, \"dataset\": {}, \
         \"detail\": {}, \"result\": {}}}",
        u8::from(trace),
        fingerprint.json(),
        if outcome.dataset.is_empty() {
            "null"
        } else {
            &outcome.dataset
        },
        metrics_json(&outcome.detail),
        outcome.result_line()
    ));
    out
}

/// The human-readable part of a run, printed before the result line.
pub fn print_report(workload: &str, trace: bool, fingerprint: &Fingerprint, outcome: &Outcome) {
    println!(
        "== {workload} ({}{}) ==",
        if trace {
            "traced, per-layer"
        } else {
            "end to end"
        },
        if fingerprint.quick {
            ", QUICK smoke scale: not a measurement"
        } else {
            ""
        },
    );
    println!("fingerprint: {}", fingerprint.json());
    println!("dataset: {}", outcome.dataset);
    let width = outcome
        .metrics
        .iter()
        .chain(&outcome.detail)
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in &outcome.metrics {
        println!("  {:<width$}  {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !outcome.detail.is_empty() {
        println!("  -- detail --");
        for m in &outcome.detail {
            println!("  {:<width$}  {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "  failed_ops / attempted_ops: {} / {}",
        outcome.failed, outcome.attempted
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.check(Ok(()));
        outcome.check(Ok(()));
        outcome.metric("latency_p50_ms", 1.203_456_789, "ms");
        outcome.metric("setup_s", 0.8127, "s");
        let parsed = Json::parse(&outcome.result_line()).unwrap();
        let Json::Obj(map) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(2));
        let p50 = parsed
            .get("metrics")
            .unwrap()
            .get("latency_p50_ms")
            .unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.203_456_789));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn a_failed_op_or_a_missing_number_makes_the_run_incorrect() {
        let mut failed = Outcome::default();
        failed.check(Ok(()));
        failed.check(Err("wrong answer".to_owned()));
        failed.metric("setup_s", 1.0, "s");
        assert!(!failed.correct());
        assert_eq!((failed.attempted, failed.failed), (2, 1));

        let mut nan = Outcome::default();
        nan.check(Ok(()));
        nan.metric("setup_s", f64::NAN, "s");
        assert!(!nan.correct());
        assert!(nan.result_line().contains("\"value\": null"));
    }
}
