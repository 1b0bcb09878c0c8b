//! `benchmark --compare A B`: two sets of recorded runs (the JSON lines
//! `--out` appends), judged per workload × end-to-end metric against the
//! bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// One end-to-end metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let json = Json::parse(benchmark_json)?;
    json.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("end_to_end entry without {key}"))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// Workload → metric → one value per recorded end-to-end run.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn runs_from(records: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in records
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if record.get("trace").and_then(Json::as_u64) != Some(0) {
            continue; // per-layer runs have no bounds
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no result.metrics", i + 1));
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    WorseThanBound,
    /// The run-to-run spread is wider than the bound (or unknown): the
    /// comparison cannot tell unchanged from changed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::WorseThanBound => "worse-than-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// By how much of A's median B is worse (negative: better).
fn worse_by(bound: &Bound, a: f64, b: f64) -> f64 {
    if bound.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (median_a, median_b) = (median(a), median(b));
    if !(median_a.is_finite() && median_b.is_finite()) {
        return Verdict::Unresolved;
    }
    if worse_by(bound, median_a, median_b) > bound.bound {
        return Verdict::WorseThanBound;
    }
    // Set-up time is gated on its median only, as the driver does.
    if bound.name == "setup_s" {
        return Verdict::Ok;
    }
    match (spread(a), spread(b)) {
        (Some(sa), Some(sb)) if sa.max(sb) <= bound.bound => Verdict::Ok,
        _ => Verdict::Unresolved,
    }
}

pub fn compare(bounds: &[Bound], a: &Runs, b: &Runs) -> Vec<Row> {
    let empty = BTreeMap::new();
    let mut rows = Vec::new();
    for (workload, metrics_a) in a {
        let metrics_b = b.get(workload).unwrap_or(&empty);
        for bound in bounds {
            let none = Vec::new();
            let values_a = metrics_a.get(&bound.name).unwrap_or(&none);
            let values_b = metrics_b.get(&bound.name).unwrap_or(&none);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                unit: bound.unit.clone(),
                a: median(values_a),
                b: median(values_b),
                spread_a: spread(values_a),
                spread_b: spread(values_b),
                bound: bound.bound,
                verdict: judge(bound, values_a, values_b),
            });
        }
    }
    rows
}

/// Prints the table; `true` when no row is worse than its bound.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>16} {:>9} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A (base A)",
        "spread A",
        "spread B",
        "bound"
    );
    let percent = |s: Option<f64>| s.map_or("n/a".to_owned(), |s| format!("{:.1}%", s * 100.0));
    for row in rows {
        println!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>16} {:>9} {:>9} {:>5.0}%  {}",
            row.workload,
            format!("{} [{}]", row.metric, row.unit),
            row.a,
            row.b,
            format!("{:.4} of {:.4}", row.b / row.a, row.a),
            percent(row.spread_a),
            percent(row.spread_b),
            row.bound * 100.0,
            row.verdict.label()
        );
    }
    rows.iter().all(|r| r.verdict != Verdict::WorseThanBound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_owned(),
            unit: "x".to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = bound("latency_p50_ms", false, 0.10);
        let throughput = bound("throughput_per_s", true, 0.10);
        let tight = around(100.0, 0.2);
        // Within the bound either way.
        assert_eq!(judge(&latency, &tight, &around(105.0, 0.2)), Verdict::Ok);
        assert_eq!(judge(&throughput, &tight, &around(95.0, 0.2)), Verdict::Ok);
        // Worse than the bound, in the metric's own direction.
        assert_eq!(
            judge(&latency, &tight, &around(111.0, 0.2)),
            Verdict::WorseThanBound
        );
        assert_eq!(
            judge(&throughput, &tight, &around(89.0, 0.2)),
            Verdict::WorseThanBound
        );
        // Better by any margin is never a regression.
        assert_eq!(judge(&latency, &tight, &around(50.0, 0.2)), Verdict::Ok);
        assert_eq!(judge(&throughput, &tight, &around(200.0, 0.2)), Verdict::Ok);
        // A spread wider than the bound cannot resolve "unchanged".
        assert_eq!(
            judge(&latency, &around(100.0, 5.0), &tight),
            Verdict::Unresolved
        );
        // …but a regression beyond the bound is still called one.
        assert_eq!(
            judge(&latency, &around(100.0, 5.0), &around(140.0, 5.0)),
            Verdict::WorseThanBound
        );
        // One run per side has no spread.
        assert_eq!(judge(&latency, &[100.0], &[101.0]), Verdict::Unresolved);
        assert_eq!(judge(&latency, &[], &tight), Verdict::Unresolved);
        // Set-up time: median only.
        let setup = bound("setup_s", false, 0.25);
        assert_eq!(
            judge(&setup, &around(1.0, 0.2), &around(1.1, 0.2)),
            Verdict::Ok
        );
        assert_eq!(judge(&setup, &[1.0], &[1.3]), Verdict::WorseThanBound);
    }

    #[test]
    fn reads_bounds_and_records_and_builds_rows() {
        let bounds = bounds_from(
            r#"{"end_to_end": [
                {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[1].higher_is_better && !bounds[0].higher_is_better);

        let record = |workload: &str, trace: u8, p50: f64, rate: f64| {
            format!(
                "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"result\": {{\"correct\": true, \
                 \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"latency_p50_ms\": {{\"value\": {p50}, \
                 \"unit\": \"ms\"}}, \"throughput_per_s\": {{\"value\": {rate}, \"unit\": \"1/s\"}}}}}}}}\n"
            )
        };
        let mut a = String::new();
        let mut b = String::new();
        for i in 0..10 {
            let wobble = f64::from(i) * 0.01;
            a.push_str(&record("serve.read", 0, 2.0 + wobble, 400.0 + wobble));
            b.push_str(&record("serve.read", 0, 2.6 + wobble, 405.0 + wobble));
            a.push_str(&record("serve.read", 1, 99.0, 99.0)); // traced: ignored
        }
        let (a, b) = (runs_from(&a).unwrap(), runs_from(&b).unwrap());
        assert_eq!(a["serve.read"]["latency_p50_ms"].len(), 10);
        let rows = compare(&bounds, &a, &b);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::WorseThanBound);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(!print(&rows));
        assert!(print(&rows[1..]));
        assert!(runs_from("{\"trace\": 0}\n").is_err());
    }
}
