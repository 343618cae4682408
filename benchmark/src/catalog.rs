//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repository root is this catalogue printed by
//! `-- manifest`; a test keeps the two identical.

use crate::inputs::WorkloadId;
use serde::Value;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Reported name.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Regression bound of the four throughput metrics. Ten runs on ten
/// seeds spread 1–7 % (interquartile, of the median) on the reference
/// container, and a bound has to be three times the spread to be safe.
pub const THROUGHPUT_BOUND: f64 = 0.25;

/// Regression bound of `setup_s` (the largest allowed: set-up samples are
/// short).
pub const SETUP_BOUND: f64 = 0.25;

/// The end-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = (0..4)
        .map(|k| MetricDef {
            bound: Some(THROUGHPUT_BOUND),
            ..def(format!("s{k}_txn_per_s"), "1/s", Better::Higher)
        })
        .collect();
    defs.push(MetricDef {
        bound: Some(SETUP_BOUND),
        ..def("setup_s", "s", Better::Lower)
    });
    defs
}

/// The per-layer metrics, reported by the traced run. A workload that does
/// not exercise a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut d = vec![
        def("run.abort_share", "ratio", Lower),
        def("workload.generate_us_per_txn", "us", Lower),
        def("gtm1.self_us_per_txn", "us", Lower),
        def("gtm1.calls_per_txn", "count", Lower),
        def("gtm1.effects_per_call", "count", Lower),
    ];
    for k in 0..4 {
        d.extend([
            def(format!("gtm2.s{k}.self_us_per_txn"), "us", Lower),
            def(format!("gtm2.s{k}.pump_p99_us"), "us", Lower),
            def(format!("gtm2.s{k}.ack_fin_share"), "ratio", Lower),
            def(format!("gtm2.s{k}.steps_cond_per_txn"), "count", Lower),
            def(format!("gtm2.s{k}.steps_act_per_txn"), "count", Lower),
            def(format!("gtm2.s{k}.waits_per_txn"), "count", Lower),
            def(format!("gtm2.s{k}.wake_scanned_per_txn"), "count", Lower),
            def(format!("gtm2.s{k}.peak_wait"), "count", Lower),
        ]);
    }
    d.extend([
        def("sharded.handoffs_per_txn", "count", Lower),
        def("sharded.lock_contended_per_ktxn", "count", Lower),
        def("sharded.lock_parks_per_ktxn", "count", Lower),
        def("sharded.s0_overhead_ratio", "ratio", Lower),
        def("sharded.s1_overhead_ratio", "ratio", Lower),
        def("parallel.s0_speedup", "ratio", Higher),
        def("parallel.s1_speedup", "ratio", Higher),
        def("localdb.self_us_per_txn", "us", Lower),
        def("localdb.calls_per_txn", "count", Lower),
        def("localdb.blocked_share", "ratio", Lower),
        def("localdb.abort_share", "ratio", Lower),
        def("localdb.2pl.us_per_op", "us", Lower),
        def("localdb.2pl-wd.us_per_op", "us", Lower),
        def("localdb.2pl-ww.us_per_op", "us", Lower),
        def("localdb.to.us_per_op", "us", Lower),
        def("localdb.sgt.us_per_op", "us", Lower),
        def("localdb.occ.us_per_op", "us", Lower),
        def("schedule.audit_us_per_txn", "us", Lower),
        def("schedule.ser_log_check_us_per_txn", "us", Lower),
        def("schedule.audit_share", "ratio", Lower),
        def("des.events_per_txn", "count", Lower),
        def("des.wall_us_per_event", "us", Lower),
        def("des.timeouts_per_ktxn", "count", Lower),
        def("des.local_abort_share", "ratio", Lower),
    ]);
    for k in 0..4 {
        d.push(def(format!("des.s{k}_sim_txn_per_s"), "1/s", Higher));
    }
    for k in 0..4 {
        d.push(def(format!("des.s{k}_sim_p99_ms"), "ms", Lower));
    }
    d.extend([
        def("threaded.batch_p90_ms", "ms", Lower),
        def("threaded.live_minus_inline_us_per_txn", "us", Lower),
        def("threaded.send_dropped", "count", Lower),
        def("pool.parks_per_ktxn", "count", Lower),
        def("pool.steals_per_ktxn", "count", Lower),
        def("pool.wakes_per_txn", "count", Lower),
        def("pool.wake_roundtrip_p50_us", "us", Lower),
        def("pool.wake_roundtrip_p99_us", "us", Lower),
        def("trace.overhead_share", "ratio", Lower),
        def("trace.accounted_share", "ratio", Higher),
        def("calib.spin_ms_p50", "ms", Lower),
        def("calib.spin_ms_spread", "ratio", Lower),
    ]);
    d
}

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<MetricDef> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .find(|d| d.name == name)
}

/// One sentence per workload: why it is in the benchmark.
pub fn why(id: WorkloadId) -> &'static str {
    match id {
        WorkloadId::LiveSpread => {
            "live threaded runtime, 4 strict-2PL sites, 1000-txn batches, 32 clients, almost no conflicts: transport, pool, GTM1, site engines and the audit do the work; kernels should not matter"
        }
        WorkloadId::DesContended => {
            "deterministic simulator, heterogeneous 2PL/TO/SGT/OCC sites, hot items, local transactions, 16 clients: the paper's setting, the only workload where the schemes differ in concurrency"
        }
        WorkloadId::SchedBurst => {
            "GTM2 replay with nearly all 1000 transactions active at once: graph size about n, so scheme-kernel work and wake storms are all of the time"
        }
        WorkloadId::SchedStream => {
            "GTM2 replay of 10000 transactions through a 64-transaction window: small live graphs and a long history, so per-operation constants and history growth dominate"
        }
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", text(&d.name)),
            ("unit", text(d.unit)),
            ("better", text(d.better.word())),
        ];
        if let Some(b) = d.bound {
            pairs.push(("bound", Value::F64(b)));
        }
        obj(pairs)
    };
    obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WorkloadId::ALL
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name())), ("why", text(why(*w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert_eq!(layers.len(), 81);
        let mut seen = BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(name_ok(&d.name), "{}", d.name);
            assert!(seen.insert(d.name.clone()), "{} used twice", d.name);
            assert!(d.unit.len() <= 16);
        }
        for d in &e2e {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(layers.iter().all(|d| d.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for w in WorkloadId::ALL {
            assert!(name_ok(w.name()));
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
    }

    #[test]
    fn benchmark_json_is_the_printed_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let parsed = serde_json::from_str_value(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(parsed, manifest(), "regenerate with `-- manifest`");
        assert!(on_disk.len() <= 64 * 1024);
    }
}
