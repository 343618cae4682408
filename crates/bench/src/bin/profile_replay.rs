//! One-cell replay runner for profiling: replays a single (scheme, size)
//! cell on the kernel [`SchemeKind::build`] returns, in a loop, so a
//! profiler sees only the scheduler under test.
//!
//! Each rep line prints the wall time, then `audit_ms`: the time of one
//! `ser(S)` audit (`engine.ser_log().check()`) run again on the finished
//! engine. The replay's wall time includes one such audit, so the Figure 3
//! loop took about the wall time less `audit_ms`. Then come the step
//! charges and the engine's work counters: `gtm2.elim_calls` /
//! `gtm2.elim_states` / `gtm2.elim_scans_elided` / `gtm2.elim_delta` /
//! `gtm2.elim_recs` (Scheme 2's `Eliminate_Cycles` calls, states entered, column scans
//! elided, Δ dependencies added, and edge-table records laid out at insert
//! or re-laid on growth; 0 for the other schemes), states, Δ and records
//! also per `init`, so a time split taken with a profiler or with timers
//! in a copy of the tree divides by them, and `gtm2.edge_searches`
//! (Scheme 2's searches of a transaction's edge row, one per `cond(ser)`,
//! `act(ser)` and `act(ack)`; 0 for the other schemes), in all and per
//! transaction. It also prints
//! `gtm2.wake_elided` next to `wake_scan_sum`: of the WAIT entries the wake
//! passes scanned, those charged in closed form instead of re-tested
//! (Schemes 1 and 3; 0 elsewhere), and `gtm2.retests_ser` /
//! `gtm2.retests_fin`, the `cond` re-tests the wake loop ran on waiting
//! `ser`s and `fin`s, in all and per transaction. `gtm2.ser_bef_targets` /
//! `gtm2.ser_bef_ors_elided` / `gtm2.ser_bef_ors_widened` are Scheme 3's
//! `act(ser)` targets (Set2 members charged `|Set1|`), those of them
//! already ordered after the serialized transaction, whose OR was skipped,
//! and those whose row gained a bit besides the serialized transaction's
//! own, the only targets whose OR ran (0 for the other schemes). A sampling profiler at its default rate takes too few
//! samples to split one 200 ms cell: raise REPS.
//!
//! ```text
//! profile_replay [SCHEME] [SIZE] [REPS]
//! ```
//!
//! Defaults: `Scheme2 large 1`. SCHEME is `Scheme0..Scheme3`. SIZE is
//! `small` or `medium` (the scripts `step_cells_golden` pins), `large`
//! (the shape of the benchmark's `sched_burst` script — 1000
//! transactions, 10 sites, d_av 2.5, nearly all open at once) or `stream`
//! (the shape of its `sched_stream` script — 10 000 transactions, 10
//! sites, d_av 2.5, at most 64 open, [`Script::windowed`]). Every size
//! is seed 42, where the benchmark draws a fresh script per round from
//! its own seed; `regression_scripts.rs` pins the decisions of `large`
//! and `stream`. REPS is a positive integer.

use mdbs_common::instrument::Registry;
use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay_with, Script};
use mdbs_core::scheme::SchemeKind;
use std::time::Instant;

/// A SIZE's name and the seed-42 script it replays.
type Size = (&'static str, fn() -> Script);

/// Every SIZE.
const SIZES: [Size; 4] = [
    ("small", || Script::random(50, 4, 2.0, 42)),
    ("medium", || Script::random(150, 6, 2.5, 42)),
    ("large", || Script::random(1000, 10, 2.5, 42)),
    ("stream", || Script::windowed(10_000, 10, 2.5, 64, 42)),
];

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scheme_name = args.first().map(String::as_str).unwrap_or("Scheme2");
    let size_name = args.get(1).map(String::as_str).unwrap_or("large");
    let reps_arg = args.get(2).map(String::as_str).unwrap_or("1");
    let reps = match reps_arg.parse::<usize>() {
        Ok(reps) if reps > 0 => reps,
        _ => {
            eprintln!("profile_replay: REPS must be a positive integer, got `{reps_arg}`");
            return std::process::ExitCode::from(2);
        }
    };
    let Some(scheme) = SchemeKind::CONSERVATIVE
        .into_iter()
        .find(|s| format!("{s:?}") == scheme_name)
    else {
        eprintln!("profile_replay: unknown scheme `{scheme_name}` (try Scheme0..Scheme3)");
        return std::process::ExitCode::from(2);
    };
    let Some(&(_, script)) = SIZES.iter().find(|(s, _)| *s == size_name) else {
        let names: Vec<&str> = SIZES.iter().map(|(s, _)| *s).collect();
        eprintln!(
            "profile_replay: unknown size `{size_name}` (try {})",
            names.join("/")
        );
        return std::process::ExitCode::from(2);
    };
    let script = script();
    let n = script.txn_count();
    for rep in 0..reps {
        let mut engine = Gtm2::new(scheme.build());
        let start = Instant::now();
        let outcome = replay_with(&mut engine, &script);
        let wall = start.elapsed();
        assert_eq!(outcome.completed, n, "replay must complete every txn");
        let audit_start = Instant::now();
        let verdict = engine.ser_log().check();
        let audit = audit_start.elapsed();
        assert!(
            verdict.is_ok(),
            "a conservative scheme's ser(S) is serializable"
        );
        let mut metrics = Registry::new();
        engine.export_metrics(&mut metrics);
        let calls = metrics.counter("gtm2.elim_calls");
        let states = metrics.counter("gtm2.elim_states");
        let delta = metrics.counter("gtm2.elim_delta");
        let recs = metrics.counter("gtm2.elim_recs");
        let inits = outcome.stats.inits.max(1) as f64;
        let retests_ser = metrics.counter("gtm2.retests_ser");
        let retests_fin = metrics.counter("gtm2.retests_fin");
        let searches = metrics.counter("gtm2.edge_searches");
        eprintln!(
            "rep {rep}: {scheme_name}/{size_name} {n} txns in {:.2} ms audit_ms={:.2} \
             (cond={} act={} elim_calls={calls} elim_states={states} elim_scans_elided={} \
             elim_delta={delta} elim_recs={recs} states_per_init={:.1} delta_per_init={:.1} \
             recs_per_init={:.1} edge_searches={searches} edge_searches_per_txn={:.1} \
             waited={} wake_scan_sum={} wake_elided={} retests_ser={retests_ser} \
             retests_fin={retests_fin} retests_ser_per_txn={:.1} retests_fin_per_txn={:.1} \
             ser_bef_targets={} ser_bef_ors_elided={} ser_bef_ors_widened={} \
             protocol_violations={})",
            wall.as_secs_f64() * 1e3,
            audit.as_secs_f64() * 1e3,
            outcome.steps.cond,
            outcome.steps.act,
            metrics.counter("gtm2.elim_scans_elided"),
            states as f64 / inits,
            delta as f64 / inits,
            recs as f64 / inits,
            searches as f64 / n as f64,
            outcome.stats.waited,
            outcome.wake_scan_sum,
            metrics.counter("gtm2.wake_elided"),
            retests_ser as f64 / n as f64,
            retests_fin as f64 / n as f64,
            metrics.counter("gtm2.ser_bef_targets"),
            metrics.counter("gtm2.ser_bef_ors_elided"),
            metrics.counter("gtm2.ser_bef_ors_widened"),
            outcome.protocol_violations,
        );
    }
    std::process::ExitCode::SUCCESS
}
