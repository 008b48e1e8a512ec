//! Result files and their comparison (`perf agree`).
//!
//! A result set is one JSON file: a header that says where the numbers
//! come from, and one record per run of a workload.

use crate::catalog::{self, Better, END_TO_END};
use crate::stats::{median, quartiles};
use serde::object;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::path::Path;

/// One metric value of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Catalog name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Catalog unit.
    pub unit: &'static str,
}

/// One run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics).
    pub traced: bool,
    /// Operations started, warm-up included.
    pub attempted: u64,
    /// Errors, refusals and wrong answers.
    pub failed: u64,
    /// Correct operations inside the window: the sample every timing and
    /// percentile is over.
    pub samples: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// Per-layer metrics whose layer does not run on this workload.
    pub not_applicable: BTreeSet<&'static str>,
    /// The metrics, in catalog order.
    pub metrics: Vec<Measured>,
}

impl Record {
    /// Whether every operation returned the reference answer, and at
    /// least one completed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.samples > 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        let v = object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted.max(1) as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", self.metrics_value()),
        ]);
        serde_json::to_string(&v).expect("a value tree serializes")
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let pair = object([
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]);
                    (m.name.to_string(), pair)
                })
                .collect(),
        )
    }

    /// The record as a result file holds it.
    pub fn to_value(&self) -> Value {
        let text = |s: &str| Value::Str(s.to_string());
        object([
            ("workload", text(&self.workload)),
            ("seed", Value::Int(self.seed as i64)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("samples", Value::Int(self.samples as i64)),
            (
                "first_failure",
                self.first_failure.as_deref().map_or(Value::Null, text),
            ),
            (
                "not_applicable",
                Value::Array(self.not_applicable.iter().map(|n| text(n)).collect()),
            ),
            ("metrics", self.metrics_value()),
        ])
    }

    /// The table a person reads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} seed {} ({}): {} attempted, {} failed, {} samples in the window",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.samples
        );
        if let Some(why) = &self.first_failure {
            let _ = writeln!(out, "  first failure: {why}");
        }
        for m in &self.metrics {
            if self.not_applicable.contains(m.name) {
                let _ = writeln!(out, "  {:<34} {:>14} {}", m.name, "n/a", m.unit);
            } else {
                let _ = writeln!(out, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
        out
    }
}

/// Where a result set comes from.
pub struct Header {
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Processors available to the run.
    pub nproc: usize,
    /// First seed.
    pub seed: u64,
    /// Warm-up, seconds.
    pub warmup_s: f64,
    /// Measurement window, seconds.
    pub window_s: f64,
}

/// Write a result set: the header and one record ([`Record::to_value`])
/// per run.
pub fn write_results(path: &Path, header: &Header, runs: Vec<Value>) -> Result<(), String> {
    let samples = runs
        .iter()
        .map(|r| {
            let text = |key| r.get(key).and_then(Value::as_str).unwrap_or("");
            let int = |key| r.get(key).and_then(Value::as_i64).unwrap_or(0);
            let mode = if r.get("traced") == Some(&Value::Bool(true)) {
                "traced"
            } else {
                "untraced"
            };
            let key = format!("{} seed {} {mode}", text("workload"), int("seed"));
            (key, Value::Int(int("samples")))
        })
        .collect();
    let v = object([
        (
            "header",
            object([
                ("commit", Value::Str(header.commit.clone())),
                ("rustc", Value::Str(header.rustc.clone())),
                ("nproc", Value::Int(header.nproc as i64)),
                ("seed", Value::Int(header.seed as i64)),
                ("warmup_s", Value::Float(header.warmup_s)),
                ("window_s", Value::Float(header.window_s)),
                ("samples", Value::Object(samples)),
            ]),
        ),
        ("runs", Value::Array(runs)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&v).expect("a value tree serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced runs of a result file: per workload, per end-to-end
/// metric, the values of every run; and the failures per workload.
struct ResultSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, i64>,
}

fn read_results(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = v
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no `runs` array", path.display()))?;
    let mut set = ResultSet {
        values: BTreeMap::new(),
        failed: BTreeMap::new(),
    };
    for run in runs {
        if run.get("traced").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: a run without `workload`", path.display()))?;
        *set.failed.entry(workload.to_string()).or_default() +=
            run.get("failed").and_then(Value::as_i64).unwrap_or(0);
        let metrics = run.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                set.values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Distance between the quartiles as a share of the median; `None` below
/// four runs, where quartiles say little.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The share by which `b` is worse than `a`; negative when it is better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `perf agree A B`: compare two result sets, end-to-end metric by metric
/// and workload by workload, against the catalog's bounds. Returns the
/// table and whether any pairing is a violation. Where either side's own
/// runs spread wider than the bound, the pairing is unresolved instead.
pub fn agree(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (ra, rb) = (read_results(a)?, read_results(b)?);
    let mut out = String::new();
    let mut violated = false;
    let _ = writeln!(
        out,
        "{:<13} {:<15} {:>12} {:>12} {:>7} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound", "spread A", "spread B"
    );
    for w in catalog::WORKLOADS {
        let (Some(va), Some(vb)) = (ra.values.get(w.name), rb.values.get(w.name)) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(xa), Some(xb)) = (va.get(m.name), vb.get(m.name)) else {
                continue;
            };
            let (ma, mb) = (median(xa), median(xb));
            let bound = m.bound.unwrap_or(0.0);
            let (sa, sb) = (spread(xa), spread(xb));
            // The set-up time is allowed to spread: only its medians count.
            let noisy = m.name != "setup_s" && [sa, sb].iter().flatten().any(|&s| s > bound);
            let verdict = if worse_by(m.better, ma, mb) <= bound {
                "ok"
            } else if noisy {
                "unresolved"
            } else {
                violated = true;
                "VIOLATION"
            };
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let _ = writeln!(
                out,
                "{:<13} {:<15} {:>12.4} {:>12.4} {:>7.3} {:>6.2} {:>8} {:>8}  {verdict}",
                w.name,
                m.name,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { 0.0 },
                bound,
                pct(sa),
                pct(sb)
            );
        }
        for (side, set) in [("A", &ra), ("B", &rb)] {
            let failed = set.failed.get(w.name).copied().unwrap_or(0);
            if failed > 0 {
                violated = true;
                let _ = writeln!(
                    out,
                    "{:<13} {failed} failed operations in {side}  VIOLATION",
                    w.name
                );
            }
        }
    }
    Ok((out, violated))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, p50: f64, qps: f64, failed: u64) -> Record {
        let measured = |name, value| {
            let m = catalog::end_to_end(name).unwrap();
            Measured {
                name: m.name,
                value,
                unit: m.unit,
            }
        };
        Record {
            workload: workload.to_string(),
            seed,
            attempted: 100,
            failed,
            samples: 100 - failed,
            metrics: vec![
                measured("query_p50_ms", p50),
                measured("queries_per_s", qps),
            ],
            ..Record::default()
        }
    }

    fn header() -> Header {
        Header {
            commit: "abc".into(),
            rustc: "rustc".into(),
            nproc: 2,
            seed: 1,
            warmup_s: 1.0,
            window_s: 12.0,
        }
    }

    fn file(name: &str, records: &[Record]) -> std::path::PathBuf {
        let path = crate::scratch_root().join(format!("test-{}-{name}.json", std::process::id()));
        write_results(
            &path,
            &header(),
            records.iter().map(Record::to_value).collect(),
        )
        .unwrap();
        path
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = record("point_cold", 1, 12.5, 80.0, 0);
        let v: Value = serde_json::from_str(&r.driver_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let p50 = v.get("metrics").unwrap().get("query_p50_ms").unwrap();
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(12.5));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(!r.driver_line().contains('\n'));
        let bad = record("point_cold", 1, 12.5, 80.0, 3);
        assert!(bad.driver_line().contains("\"correct\":false"));
    }

    #[test]
    fn agree_passes_within_bounds_and_flags_regressions_both_ways() {
        let bound = catalog::end_to_end("query_p50_ms").unwrap().bound.unwrap();
        let a = file("a", &[record("point_cold", 1, 10.0, 100.0, 0)]);
        let just_inside = 1.0 + bound - 0.01;
        let just_outside = 1.0 + bound + 0.01;
        let same = file(
            "same",
            &[record(
                "point_cold",
                1,
                10.0 * just_inside,
                100.0 / just_inside,
                0,
            )],
        );
        let slower = file(
            "slower",
            &[record("point_cold", 1, 10.0 * just_outside, 100.0, 0)],
        );
        let fewer = file(
            "fewer",
            &[record(
                "point_cold",
                1,
                10.0,
                100.0 * (1.0 - bound - 0.01),
                0,
            )],
        );
        let faster = file("faster", &[record("point_cold", 1, 5.0, 200.0, 0)]);
        let wrong = file("wrong", &[record("point_cold", 1, 10.0, 100.0, 1)]);
        let (table, violated) = agree(&a, &same).unwrap();
        assert!(!violated, "{table}");
        assert!(table.contains("query_p50_ms") && table.contains("ok"));
        assert!(agree(&a, &slower).unwrap().1, "p50 worse than the bound");
        assert!(
            agree(&a, &fewer).unwrap().1,
            "throughput worse than the bound"
        );
        assert!(
            !agree(&a, &faster).unwrap().1,
            "better is never a violation"
        );
        assert!(agree(&a, &wrong).unwrap().1, "failed operations");
        for p in [a, same, slower, fewer, faster, wrong] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn agree_reports_unresolved_where_runs_spread_wider_than_the_bound() {
        let noisy: Vec<Record> = [6.0, 8.0, 10.0, 12.0, 14.0]
            .iter()
            .enumerate()
            .map(|(i, &p50)| record("scan_join", i as u64, p50, 100.0, 0))
            .collect();
        let steady: Vec<Record> = (0..5)
            .map(|i| record("scan_join", i, 13.0, 100.0, 0))
            .collect();
        let (a, b) = (file("noisy", &noisy), file("steady", &steady));
        let (table, violated) = agree(&a, &b).unwrap();
        assert!(!violated, "{table}");
        assert!(table.contains("unresolved"), "{table}");
        for p in [a, b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }
}
