//! Result records: printing, the result-file format, and `compare`.

use crate::catalog::{self, Better};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit (from the catalogue).
    pub unit: &'static str,
    /// Quartile spread expected of the value between repeated runs
    /// ([`crate::stats::median_spread`]); 0 for exact counts and single
    /// measurements.
    pub spread: f64,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Global transactions submitted.
    pub attempted: u64,
    /// Of those, not committed when their run returned.
    pub failed: u64,
    /// Output-check failures; the run is correct iff this is empty.
    pub failures: Vec<String>,
    /// Metrics by catalogue name.
    pub metrics: BTreeMap<String, Metric>,
}

impl WorkloadResult {
    /// Record a metric under its catalogue name. A name missing from the
    /// catalogue is a bug in the benchmark, reported as a failed check
    /// rather than a panic so the run still prints what it measured.
    pub fn put(&mut self, name: &str, value: f64, spread: f64) {
        match catalog::find(name) {
            Some(def) => {
                self.metrics.insert(
                    name.to_string(),
                    Metric {
                        value,
                        unit: def.unit,
                        spread,
                    },
                );
            }
            None => self
                .failures
                .push(format!("metric {name} is not catalogued")),
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Every metric by name with its unit, one per line, then failures.
    pub fn human(&self) -> String {
        let mut s = format!(
            "workload {}: attempted {} failed {} correct {}\n",
            self.workload,
            self.attempted,
            self.failed,
            self.correct()
        );
        for (name, m) in &self.metrics {
            let _ = writeln!(
                s,
                "  {name} = {} {} (spread {:.4})",
                m.value, m.unit, m.spread
            );
        }
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        s
    }

    fn json(&self, with_spread: bool) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let mut fields = vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                if with_spread {
                    fields.push(("spread".to_string(), Value::F64(m.spread)));
                }
                (name.clone(), Value::Obj(fields))
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
    }

    /// The one-line JSON object the benchmark driver reads: exactly
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        // The vendored writer cannot fail on a `Value`.
        serde_json::to_string(&self.json(false)).unwrap_or_default()
    }
}

/// The result file of `run` / `trace`: one record per workload.
pub fn result_file(mode: &str, seed: u64, results: &[WorkloadResult]) -> String {
    let workloads = results
        .iter()
        .map(|r| (r.workload.to_string(), r.json(true)))
        .collect();
    let doc = Value::Obj(vec![
        ("mode".to_string(), Value::Str(mode.to_string())),
        ("seed".to_string(), Value::U64(seed)),
        (
            "calib_ref_ms".to_string(),
            Value::F64(crate::stats::CALIB_REF_MS),
        ),
        ("workloads".to_string(), Value::Obj(workloads)),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// `compare`'s verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Within,
    /// Worse than the base by more than the bound.
    Worse,
    /// Better than the base by more than the bound.
    Better,
    /// One side's expected run-to-run spread exceeds the bound, so a
    /// change of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base`. `bound` is the share of the base by which
/// the metric may worsen; per-layer metrics (no bound) are judged against
/// [`catalog::THROUGHPUT_BOUND`] for information only.
pub fn judge(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if base == new {
        return Verdict::Within;
    }
    if spread > bound {
        return Verdict::Unresolved;
    }
    if base == 0.0 {
        let improved = (new > 0.0) == (better == Better::Higher);
        return if improved {
            Verdict::Better
        } else {
            Verdict::Worse
        };
    }
    // Positive = worse, as a share of the base.
    let worse_by = match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compare two result files. Returns the table and whether any
/// end-to-end metric came out `worse`.
pub fn compare(base_text: &str, new_text: &str) -> Result<(String, bool), String> {
    let parse = |text: &str| serde_json::from_str_value(text).map_err(|e| e.to_string());
    let (base, new) = (parse(base_text)?, parse(new_text)?);
    let workloads = |doc: &Value| match doc.get("workloads") {
        Some(Value::Obj(pairs)) => Ok(pairs.clone()),
        _ => Err("result file has no \"workloads\" object".to_string()),
    };
    let mut table = format!(
        "{:<14} {:<40} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut any_worse = false;
    for (workload, base_rec) in workloads(&base)? {
        let Some(new_rec) = new.get("workloads").and_then(|w| w.get(&workload)) else {
            let _ = writeln!(table, "{workload:<14} missing from the second file");
            any_worse = true;
            continue;
        };
        let Some(Value::Obj(metrics)) = base_rec.get("metrics") else {
            return Err(format!("{workload}: no metrics object"));
        };
        for (name, base_m) in metrics {
            let new_m = new_rec.get("metrics").and_then(|m| m.get(name));
            let (Some(b), Some(n)) = (
                number(base_m.get("value")),
                number(new_m.and_then(|m| m.get("value"))),
            ) else {
                let _ = writeln!(table, "{workload:<14} {name:<40} missing on one side");
                any_worse = true;
                continue;
            };
            let Some(def) = catalog::find(name) else {
                return Err(format!("{name} is not a catalogued metric"));
            };
            let spread = number(base_m.get("spread"))
                .unwrap_or(0.0)
                .max(number(new_m.and_then(|m| m.get("spread"))).unwrap_or(0.0));
            let bound = def.bound.unwrap_or(catalog::THROUGHPUT_BOUND);
            let verdict = judge(b, n, def.better, bound, spread);
            // Only bounded (end-to-end) metrics can fail a comparison.
            any_worse |= verdict == Verdict::Worse && def.bound.is_some();
            let ratio = if b == 0.0 { f64::NAN } else { n / b };
            let _ = writeln!(
                table,
                "{workload:<14} {name:<40} {b:>14.6} {n:>14.6} {ratio:>8.4} {:>6}  {}",
                if def.bound.is_some() {
                    format!("{bound:.2}")
                } else {
                    "-".to_string()
                },
                verdict.word()
            );
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_covers_each_verdict_in_both_directions() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 100.0, Higher, 0.1, 0.5), Verdict::Within);
        assert_eq!(judge(100.0, 95.0, Higher, 0.1, 0.02), Verdict::Within);
        assert_eq!(judge(100.0, 85.0, Higher, 0.1, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, Higher, 0.1, 0.02), Verdict::Better);
        assert_eq!(judge(100.0, 85.0, Higher, 0.1, 0.2), Verdict::Unresolved);
        assert_eq!(judge(2.0, 2.1, Lower, 0.1, 0.0), Verdict::Within);
        assert_eq!(judge(2.0, 2.5, Lower, 0.1, 0.0), Verdict::Worse);
        assert_eq!(judge(2.0, 1.5, Lower, 0.1, 0.0), Verdict::Better);
        assert_eq!(judge(0.0, 1.0, Lower, 0.1, 0.0), Verdict::Worse);
        assert_eq!(judge(0.0, 1.0, Higher, 0.1, 0.0), Verdict::Better);
    }

    fn result(value: f64) -> WorkloadResult {
        let mut r = WorkloadResult {
            workload: "sched_burst",
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
        };
        r.put("s0_txn_per_s", value, 0.01);
        r.put("gtm2.s0.peak_wait", 7.0, 0.0);
        r
    }

    #[test]
    fn compare_flags_a_regression_and_passes_a_repeat() {
        let base = result_file("run", 1, &[result(1000.0)]);
        let same = result_file("run", 1, &[result(1010.0)]);
        let slow = result_file("run", 1, &[result(700.0)]);
        let (table, worse) = compare(&base, &same).expect("well-formed files");
        assert!(!worse, "{table}");
        assert!(table.contains("within"));
        let (table, worse) = compare(&base, &slow).expect("well-formed files");
        assert!(worse, "{table}");
        assert!(table.contains("worse"));
        assert!(compare("{}", &base).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = result(12.5);
        let line = r.driver_line();
        let v = serde_json::from_str_value(&line).expect("one JSON object");
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("s0_txn_per_s"))
            .expect("metric");
        assert_eq!(m.get("value"), Some(&Value::F64(12.5)));
        assert_eq!(m.get("unit"), Some(&Value::Str("1/s".into())));
        assert!(m.get("spread").is_none());
        r.put("no.such.metric", 1.0, 0.0);
        assert!(!r.correct());
        assert!(r.driver_line().contains("\"correct\":false"));
    }
}
