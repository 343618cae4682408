//! The traced run: per-layer metrics of one workload.
//!
//! Three sources feed the catalogue's per-layer names:
//! - *(trace)* spans recorded by the inline coordinator or the traced
//!   replay loop, reduced to self times per layer;
//! - *(report)* counters read from the reports of untraced runs of the
//!   real drivers (the same measurement the end-to-end run makes);
//! - *(probe)* direct timing loops on one layer's public API.
//!
//! A layer the workload does not exercise reports 0 for its metrics.

use crate::catalog;
use crate::inline::{run_inline, InlineReport};
use crate::inputs::{self, Plan, WorkloadId};
use crate::measure::{self, Measured, Verdict, SCHEMES};
use crate::probes;
use crate::replay_trace::{replay_traced, ReplayTrace};
use crate::report::WorkloadResult;
use crate::span::{self, Span};
use crate::stats::{self, Calib};
use mdbs_common::step::StepCounter;
use mdbs_core::gtm2::Gtm2Stats;
use mdbs_localdb::protocol::LocalProtocolKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Rounds the traced part covers in a `--seconds 20` run.
fn traced_rounds(id: WorkloadId, plan: Plan) -> usize {
    // The simulator inputs' audit and the 10 000-transaction scripts make
    // a traced round four times as long as the other two workloads'.
    let base = match id {
        WorkloadId::DesContended | WorkloadId::SchedStream => 4,
        WorkloadId::LiveSpread | WorkloadId::SchedBurst => 8,
    };
    base.min(plan.rounds)
}

/// Round trips of the pool wake probe.
const POOL_TRIPS: usize = 10_000;

/// GTM2 totals of one scheme over the traced rounds.
#[derive(Default)]
struct Gtm2Totals {
    txns: f64,
    self_us: f64,
    ack_fin_us: f64,
    pump_us: Vec<f64>,
    steps: StepCounter,
    waits: u64,
    wake_scanned: u64,
    peak_wait: u64,
}

/// Everything the traced rounds add up.
#[derive(Default)]
struct Totals {
    /// Transactions over all traced runs (rounds × schemes).
    txns: f64,
    /// Normalised microseconds of the traced runs' root spans.
    root_us: f64,
    /// Normalised seconds of traced and span-less runs on the same inputs.
    traced_s: f64,
    untraced_s: f64,
    /// Normalised self microseconds by layer.
    layer_us: BTreeMap<&'static str, f64>,
    /// Normalised self microseconds and calls by span name.
    name_us: BTreeMap<&'static str, (f64, u64)>,
    gtm1_effects: u64,
    db_submits: u64,
    db_blocked: u64,
    db_begins: u64,
    db_aborts: u64,
    gtm2: [Gtm2Totals; 4],
    /// Per (round, scheme) normalised seconds of the span-less inline run.
    inline_s: Vec<f64>,
    /// Per-round normalised generation microseconds per transaction.
    generate_us_per_txn: Vec<f64>,
    /// Round 0 `(sharded ÷ single, single ÷ parallel)` for Schemes 0, 1.
    engine_ratios: [(f64, f64); 2],
}

impl Totals {
    /// Fold one traced run's spans in. `scale` turns nanoseconds of this
    /// run into normalised microseconds.
    fn fold_spans(&mut self, k: usize, spans: &[Span], scale: f64) {
        let own = span::self_times(spans);
        for (s, own_ns) in spans.iter().zip(own) {
            let us = own_ns as f64 * scale;
            *self.layer_us.entry(s.layer()).or_default() += us;
            let by_name = self.name_us.entry(s.name).or_default();
            by_name.0 += us;
            by_name.1 += 1;
            if s.parent == span::NO_PARENT {
                self.root_us += s.dur_ns() as f64 * scale;
            }
            if s.layer() == "gtm2" {
                let g = &mut self.gtm2[k];
                g.self_us += us;
                g.pump_us.push(s.dur_ns() as f64 * scale);
                if matches!(s.name, "gtm2.ack" | "gtm2.fin") {
                    g.ack_fin_us += us;
                }
            }
        }
    }

    fn fold_gtm2(
        &mut self,
        k: usize,
        txns: usize,
        stats: Gtm2Stats,
        steps: StepCounter,
        scanned: u64,
    ) {
        let g = &mut self.gtm2[k];
        g.txns += txns as f64;
        g.steps.merge(&steps);
        g.waits += stats.waited;
        g.wake_scanned += scanned;
        g.peak_wait = g.peak_wait.max(stats.peak_wait);
        self.txns += txns as f64;
    }

    fn layer(&self, name: &str) -> f64 {
        self.layer_us.get(name).copied().unwrap_or(0.0)
    }

    fn name(&self, name: &str) -> (f64, u64) {
        self.name_us.get(name).copied().unwrap_or((0.0, 0))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn check_inline(r: &InlineReport, n: usize) -> Option<String> {
    if let Some(why) = &r.wedged {
        return Some(why.clone());
    }
    Verdict {
        expected: n as u64,
        finished: r.commits + r.aborts,
        serializable: r.serializable,
        ser_s_ok: r.ser_s_ok,
        protocol_violations: r.protocol_violations,
        send_dropped: 0,
    }
    .failure()
}

fn check_replay(r: &ReplayTrace, n: usize) -> Option<String> {
    if r.leftover > 0 {
        return Some(format!("{} operations left in QUEUE/WAIT", r.leftover));
    }
    Verdict {
        expected: n as u64,
        finished: r.completed,
        serializable: true,
        ser_s_ok: r.ser_s_ok,
        protocol_violations: r.protocol_violations,
        send_dropped: 0,
    }
    .failure()
}

/// Nanoseconds → normalised microseconds for a run bracketed by `calib`:
/// the run's normalised seconds over its wall seconds, per nanosecond.
fn span_scale(norm_s: f64, wall_s: f64) -> f64 {
    ratio(norm_s, wall_s) / 1e3
}

/// The traced rounds of a program-driven workload on the inline
/// coordinator. Returns the raw spans of round 0, one list per scheme.
fn trace_programs(
    id: WorkloadId,
    seed: u64,
    plan: Plan,
    calib: &mut Calib,
    totals: &mut Totals,
    failures: &mut Vec<String>,
) -> Vec<Vec<Span>> {
    let mut round0 = Vec::new();
    for r in 0..traced_rounds(id, plan) {
        let globals = inputs::programs(id, plan.txns, inputs::round_seed(seed, id, r)).globals;
        let n = globals.len();
        for (k, scheme) in SCHEMES.into_iter().enumerate() {
            let run = |g, spans: bool| run_inline(&id.protocols(), scheme, id.mpl(), g, spans);
            let (plain_s, plain) =
                calib.timed(Duration::ZERO, || globals.clone(), |g| run(g, false));
            let (traced_s, traced) =
                calib.timed(Duration::ZERO, || globals.clone(), |g| run(g, true));
            for (what, report) in [("inline", &plain), ("traced inline", &traced)] {
                if let Some(why) = check_inline(report, n) {
                    failures.push(format!("round {r} scheme {k} {what}: {why}"));
                }
            }
            if (plain.commits, plain.aborts, plain.steps)
                != (traced.commits, traced.aborts, traced.steps)
            {
                failures.push(format!("round {r} scheme {k}: tracing changed the run"));
            }
            // `timed` measures the closure's wall; the report's own wall
            // is the same interval minus the call overhead.
            totals.fold_spans(k, &traced.spans, span_scale(traced_s, traced.wall_s));
            totals.fold_gtm2(k, n, traced.gtm2, traced.steps, traced.wake_scanned);
            totals.traced_s += traced_s;
            totals.untraced_s += plain_s;
            totals.inline_s.push(plain_s);
            totals.gtm1_effects += traced.gtm1_effects;
            totals.db_submits += traced.db_submits;
            totals.db_blocked += traced.db_blocked;
            totals.db_begins += traced.db_begins;
            totals.db_aborts += traced.db_aborts;
            if r == 0 {
                round0.push(traced.spans);
            }
        }
    }
    round0
}

/// The traced rounds of a replay workload. Also times input generation
/// (the program-driven workloads take that from their untraced rounds).
fn trace_scripts(
    id: WorkloadId,
    seed: u64,
    plan: Plan,
    calib: &mut Calib,
    totals: &mut Totals,
    failures: &mut Vec<String>,
) -> Vec<Vec<Span>> {
    let mut round0 = Vec::new();
    for r in 0..traced_rounds(id, plan) {
        let round_seed = inputs::round_seed(seed, id, r);
        let (setup_s, script) = calib.timed(
            Duration::from_millis(20),
            || (),
            |()| inputs::script(id, plan.txns, round_seed),
        );
        let n = script.txn_count();
        totals.generate_us_per_txn.push(setup_s * 1e6 / n as f64);
        for (k, scheme) in SCHEMES.into_iter().enumerate() {
            let (plain_s, plain) = calib.timed(
                Duration::ZERO,
                || (),
                |()| replay_traced(scheme, &script, false),
            );
            let (traced_s, traced) = calib.timed(
                Duration::ZERO,
                || (),
                |()| replay_traced(scheme, &script, true),
            );
            for (what, report) in [("replay", &plain), ("traced replay", &traced)] {
                if let Some(why) = check_replay(report, n) {
                    failures.push(format!("round {r} scheme {k} {what}: {why}"));
                }
            }
            totals.fold_spans(k, &traced.spans, span_scale(traced_s, traced.wall_s));
            totals.fold_gtm2(k, n, traced.gtm2, traced.steps, traced.wake_scanned);
            totals.traced_s += traced_s;
            totals.untraced_s += plain_s;
            if r == 0 {
                round0.push(traced.spans);
            }
        }
        if r == 0 {
            for (k, scheme) in SCHEMES.into_iter().enumerate().take(2) {
                match probes::engine_ratios(scheme, &script, 10) {
                    Ok(pair) => totals.engine_ratios[k] = pair,
                    Err(why) => failures.push(format!("engine ratio scheme {k}: {why}")),
                }
            }
        }
    }
    round0
}

/// Write round 0's raw spans: one compact JSON array per scheme.
fn write_spans(dir: &Path, id: WorkloadId, round0: &[Vec<Span>]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut text = String::from("{");
    for (k, spans) in round0.iter().enumerate() {
        if k > 0 {
            text.push(',');
        }
        text.push_str(&format!("\n\"scheme{k}\": {}", span::spans_json(spans)));
    }
    text.push_str("}\n");
    let path = dir.join(format!("trace-{}.json", id.name()));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run: every per-layer metric of one workload.
pub fn traced(id: WorkloadId, seed: u64, plan: Plan, out_dir: &Path) -> WorkloadResult {
    let mut calib = Calib::start();
    let mut totals = Totals::default();
    let mut failures = Vec::new();
    // Untraced rounds of the real driver, for the (report) metrics. The
    // replay workloads report nothing of their own, so they skip this.
    let measured = if id.uses_programs() {
        measure::measure(id, seed, plan, &mut calib)
    } else {
        Measured::default()
    };
    let round0 = if id.uses_programs() {
        trace_programs(id, seed, plan, &mut calib, &mut totals, &mut failures)
    } else {
        trace_scripts(id, seed, plan, &mut calib, &mut totals, &mut failures)
    };
    if let Err(why) = write_spans(out_dir, id, &round0) {
        failures.push(why);
    }

    // Operations attempted are those submitted to the program itself; the
    // inline coordinator is the benchmark's instrument, and what it
    // aborts shows in `localdb.abort_share`, not in `failed`.
    let mut result = WorkloadResult {
        workload: id.name(),
        attempted: if id.uses_programs() {
            measured.attempted
        } else {
            totals.txns as u64
        },
        failed: measured.failed,
        failures: measured.failures.clone(),
        metrics: BTreeMap::new(),
    };
    let mut values: Vec<(String, f64)> = catalog::per_layer()
        .into_iter()
        .map(|def| (def.name, 0.0))
        .collect();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));

    // trace / calib / workload ------------------------------------------
    let accounted: f64 = ["gtm1", "gtm2", "localdb", "schedule"]
        .iter()
        .map(|l| totals.layer(l))
        .sum();
    put("trace.accounted_share", ratio(accounted, totals.root_us));
    put(
        "trace.overhead_share",
        ratio(totals.traced_s, totals.untraced_s) - 1.0,
    );
    let spins = stats::sorted(calib.spins());
    put("calib.spin_ms_p50", stats::percentile_sorted(&spins, 50.0));
    put(
        "calib.spin_ms_spread",
        ratio(
            stats::percentile_sorted(&spins, 90.0),
            stats::percentile_sorted(&spins, 10.0),
        ),
    );
    let generate: Vec<f64> = if id.uses_programs() {
        measured
            .rounds
            .iter()
            .map(|r| r.setup_s * 1e6 / r.txns as f64)
            .collect()
    } else {
        totals.generate_us_per_txn.clone()
    };
    put("workload.generate_us_per_txn", stats::median(&generate));
    put("run.abort_share", measured.abort_share());

    // gtm2 (trace), every workload --------------------------------------
    for (k, g) in totals.gtm2.iter().enumerate() {
        let name = |suffix: &str| format!("gtm2.s{k}.{suffix}");
        put(&name("self_us_per_txn"), ratio(g.self_us, g.txns));
        put(&name("pump_p99_us"), stats::percentile(&g.pump_us, 99.0));
        put(&name("ack_fin_share"), ratio(g.ack_fin_us, g.self_us));
        put(
            &name("steps_cond_per_txn"),
            ratio(g.steps.cond as f64, g.txns),
        );
        put(
            &name("steps_act_per_txn"),
            ratio(g.steps.act as f64, g.txns),
        );
        put(&name("waits_per_txn"), ratio(g.waits as f64, g.txns));
        put(
            &name("wake_scanned_per_txn"),
            ratio(g.wake_scanned as f64, g.txns),
        );
        put(&name("peak_wait"), g.peak_wait as f64);
    }

    // schedule (trace): the audit ----------------------------------------
    put(
        "schedule.audit_us_per_txn",
        ratio(totals.name("schedule.check_global").0, totals.txns),
    );
    put(
        "schedule.ser_log_check_us_per_txn",
        ratio(totals.name("schedule.ser_log_check").0, totals.txns),
    );
    put(
        "schedule.audit_share",
        ratio(totals.layer("schedule"), totals.root_us),
    );

    if id.uses_programs() {
        // gtm1 and localdb (trace) ---------------------------------------
        let (gtm1_us, gtm1_calls) = totals.name("gtm1.handle");
        put("gtm1.self_us_per_txn", ratio(gtm1_us, totals.txns));
        put("gtm1.calls_per_txn", ratio(gtm1_calls as f64, totals.txns));
        put(
            "gtm1.effects_per_call",
            ratio(totals.gtm1_effects as f64, gtm1_calls as f64),
        );
        let db_calls: u64 = totals
            .name_us
            .iter()
            .filter(|(name, _)| name.starts_with("localdb."))
            .map(|(_, (_, calls))| calls)
            .sum();
        put(
            "localdb.self_us_per_txn",
            ratio(totals.layer("localdb"), totals.txns),
        );
        put("localdb.calls_per_txn", ratio(db_calls as f64, totals.txns));
        put(
            "localdb.blocked_share",
            ratio(totals.db_blocked as f64, totals.db_submits as f64),
        );
        put(
            "localdb.abort_share",
            ratio(totals.db_aborts as f64, totals.db_begins as f64),
        );
        // localdb (probe) -------------------------------------------------
        for kind in LocalProtocolKind::ALL {
            match probes::localdb_us_per_op(kind, &mut calib) {
                Ok(us) => put(
                    &format!("localdb.{}.us_per_op", kind.name().to_lowercase()),
                    us,
                ),
                Err(why) => failures.push(why),
            }
        }
    } else {
        put("sharded.s0_overhead_ratio", totals.engine_ratios[0].0);
        put("sharded.s1_overhead_ratio", totals.engine_ratios[1].0);
        put("parallel.s0_speedup", totals.engine_ratios[0].1);
        put("parallel.s1_speedup", totals.engine_ratios[1].1);
    }

    let sampled = measured.sampled_txns();
    if id == WorkloadId::DesContended {
        let events = measured.report_total("events");
        let wall_us: f64 = measured
            .rounds
            .iter()
            .flat_map(|r| &r.samples)
            .map(|s| s.norm_s * 1e6)
            .sum();
        put("des.events_per_txn", ratio(events, sampled));
        put("des.wall_us_per_event", ratio(wall_us, events));
        put(
            "des.timeouts_per_ktxn",
            ratio(measured.report_total("timeouts") * 1e3, sampled),
        );
        let local_aborts = measured.report_total("local_aborts");
        put(
            "des.local_abort_share",
            ratio(
                local_aborts,
                local_aborts + measured.report_total("local_commits"),
            ),
        );
        for k in 0..SCHEMES.len() {
            put(
                &format!("des.s{k}_sim_txn_per_s"),
                stats::median(&measured.report_values(k, "sim_txn_per_s")),
            );
            put(
                &format!("des.s{k}_sim_p99_ms"),
                stats::median(&measured.report_values(k, "sim_p99_us")) / 1e3,
            );
        }
    }
    if id == WorkloadId::LiveSpread {
        put(
            "sharded.handoffs_per_txn",
            ratio(measured.report_total("handoffs"), sampled),
        );
        put(
            "sharded.lock_contended_per_ktxn",
            ratio(measured.report_total("lock_contended") * 1e3, sampled),
        );
        put(
            "sharded.lock_parks_per_ktxn",
            ratio(measured.report_total("lock_parks") * 1e3, sampled),
        );
        put(
            "pool.parks_per_ktxn",
            ratio(measured.report_total("pool_parks") * 1e3, sampled),
        );
        put(
            "pool.steals_per_ktxn",
            ratio(measured.report_total("pool_steals") * 1e3, sampled),
        );
        put(
            "pool.wakes_per_txn",
            ratio(measured.report_total("pool_wakes"), sampled),
        );
        put(
            "threaded.send_dropped",
            measured.report_total("send_dropped"),
        );
        let batches: Vec<f64> = measured
            .rounds
            .iter()
            .flat_map(|r| &r.samples)
            .map(|s| s.norm_s * 1e3)
            .collect();
        put("threaded.batch_p90_ms", stats::percentile(&batches, 90.0));
        // Live minus inline on the same programs: the traced rounds are
        // the first rounds of the untraced measurement.
        let live: Vec<f64> = measured
            .rounds
            .iter()
            .take(traced_rounds(id, plan))
            .flat_map(|r| r.samples.iter().map(|s| s.norm_s * 1e6 / r.txns as f64))
            .collect();
        let inline: Vec<f64> = totals
            .inline_s
            .iter()
            .map(|s| s * 1e6 / plan.txns as f64)
            .collect();
        put(
            "threaded.live_minus_inline_us_per_txn",
            stats::median(&live) - stats::median(&inline),
        );
        match probes::pool_wake_roundtrip(POOL_TRIPS) {
            Ok((p50, p99)) => {
                put("pool.wake_roundtrip_p50_us", p50);
                put("pool.wake_roundtrip_p99_us", p99);
            }
            Err(why) => failures.push(why),
        }
    }
    result.failures.extend(failures);
    for (name, value) in values {
        result.put(&name, value, 0.0);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the package's ignored `out/`.
    fn test_dir(tag: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{tag}-{}", std::process::id()))
    }

    fn value(r: &WorkloadResult, name: &str) -> f64 {
        r.metrics.get(name).map_or(f64::NAN, |m| m.value)
    }

    #[test]
    fn traced_program_workload_reports_every_layer() {
        let dir = test_dir("programs");
        let plan = Plan {
            rounds: 2,
            txns: 50,
        };
        let r = traced(WorkloadId::DesContended, 9, plan, &dir);
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(r.metrics.len(), catalog::per_layer().len());
        assert!(r.metrics.values().all(|m| m.value.is_finite()));
        for name in [
            "gtm1.self_us_per_txn",
            "gtm2.s3.self_us_per_txn",
            "localdb.self_us_per_txn",
            "schedule.audit_us_per_txn",
            "des.events_per_txn",
            "des.s0_sim_p99_ms",
            "localdb.sgt.us_per_op",
            "trace.accounted_share",
        ] {
            assert!(value(&r, name) > 0.0, "{name} = {}", value(&r, name));
        }
        // Layers this workload does not run report 0.
        assert_eq!(value(&r, "pool.wakes_per_txn"), 0.0);
        assert_eq!(value(&r, "parallel.s0_speedup"), 0.0);
        let spans =
            std::fs::read_to_string(dir.join("trace-des_contended.json")).expect("spans written");
        assert!(
            serde_json::from_str_value(&spans).is_ok(),
            "span file is JSON"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_replay_workload_has_no_gtm1_or_localdb() {
        let dir = test_dir("replay");
        let plan = Plan {
            rounds: 2,
            txns: 80,
        };
        let r = traced(WorkloadId::SchedBurst, 9, plan, &dir);
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(value(&r, "gtm1.self_us_per_txn"), 0.0);
        assert_eq!(value(&r, "localdb.self_us_per_txn"), 0.0);
        assert_eq!(value(&r, "schedule.audit_us_per_txn"), 0.0);
        assert!(value(&r, "schedule.ser_log_check_us_per_txn") > 0.0);
        assert!(value(&r, "gtm2.s1.steps_cond_per_txn") > 0.0);
        assert!(value(&r, "sharded.s0_overhead_ratio") > 0.0);
        assert!(value(&r, "parallel.s1_speedup") > 0.0);
        assert!(value(&r, "workload.generate_us_per_txn") > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
