//! One-cell replay runner for profiling: replays a single
//! (scheme, kernel, size) cell in a loop so a profiler sees only the
//! scheduler under test.
//!
//! On a 2-vCPU VM `gprofng collect app -p hi` records only about 20
//! samples per second of run, too few to split a 200 ms cell. The Scheme 2
//! time splits quoted in ROADMAP item 6 came instead from `Instant` timers
//! around `cond`, `act` and `Eliminate_Cycles`, added to a throwaway copy
//! of the tree and never committed; their overhead is in the numbers.
//! Counts need no such copy: each rep line prints the step charges and the
//! engine's `gtm2.elim_states` / `gtm2.elim_scans_elided` (Scheme 2's
//! `Eliminate_Cycles` states entered and column scans elided; 0 for the
//! other schemes and under `btree`), so a time split divides by them. It
//! also prints `gtm2.wake_elided` next to `wake_scan_sum`: of the WAIT
//! entries the wake passes scanned, those charged in closed form instead
//! of re-tested (Schemes 1 and 3 under `dense`; 0 elsewhere), so
//! `wake_scan_sum − wake_elided` bounds the re-tests that ran.
//!
//! ```text
//! profile_replay [SCHEME] [KERNEL] [SIZE] [REPS]
//! ```
//!
//! Defaults: `Scheme2 dense large 1`. SCHEME is `Scheme0..Scheme3`,
//! KERNEL is a [`KernelKind`] name (`btree`, `dense`),
//! SIZE is `small` or `medium` (`step_gate`'s scripts) or `large` (the
//! shape of the benchmark's `sched_burst` script — 1000 transactions, 10
//! sites, d_av 2.5 — but always seed 42, where the benchmark draws a fresh
//! script per round from its own seed; `regression_scripts.rs` pins this
//! cell's decisions). REPS is a positive integer.

use mdbs_common::instrument::Registry;
use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay_with, Script};
use mdbs_core::scheme::{KernelKind, SchemeKind};
use std::time::Instant;

/// Mirror of `step_gate`'s sizes, plus `large` (label, txns, sites, avg sites).
const SIZES: [(&str, usize, usize, f64); 3] = [
    ("small", 50, 4, 2.0),
    ("medium", 150, 6, 2.5),
    ("large", 1000, 10, 2.5),
];

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scheme_name = args.first().map(String::as_str).unwrap_or("Scheme2");
    let kernel_name = args.get(1).map(String::as_str).unwrap_or("dense");
    let size_name = args.get(2).map(String::as_str).unwrap_or("large");
    let reps_arg = args.get(3).map(String::as_str).unwrap_or("1");
    let reps = match reps_arg.parse::<usize>() {
        Ok(reps) if reps > 0 => reps,
        _ => {
            eprintln!("profile_replay: REPS must be a positive integer, got `{reps_arg}`");
            return std::process::ExitCode::from(2);
        }
    };
    let Some(scheme) = [
        SchemeKind::Scheme0,
        SchemeKind::Scheme1,
        SchemeKind::Scheme2,
        SchemeKind::Scheme3,
    ]
    .into_iter()
    .find(|s| format!("{s:?}") == scheme_name) else {
        eprintln!("profile_replay: unknown scheme `{scheme_name}` (try Scheme0..Scheme3)");
        return std::process::ExitCode::from(2);
    };
    let Some(kernel) = [KernelKind::BTree, KernelKind::Dense]
        .into_iter()
        .find(|k| k.name() == kernel_name)
    else {
        eprintln!("profile_replay: unknown kernel `{kernel_name}` (try btree/dense)");
        return std::process::ExitCode::from(2);
    };
    let Some(&(_, n, m, dav)) = SIZES.iter().find(|(s, ..)| *s == size_name) else {
        eprintln!("profile_replay: unknown size `{size_name}` (try small/medium/large)");
        return std::process::ExitCode::from(2);
    };
    let script = Script::random(n, m, dav, 42);
    for rep in 0..reps {
        let mut engine = Gtm2::new(scheme.build_kernel(kernel));
        let start = Instant::now();
        let outcome = replay_with(&mut engine, &script);
        let wall = start.elapsed();
        assert_eq!(outcome.completed, n, "replay must complete every txn");
        let mut metrics = Registry::new();
        engine.export_metrics(&mut metrics);
        eprintln!(
            "rep {rep}: {scheme_name}/{kernel_name}/{size_name} {n} txns in {:.2} ms \
             (cond={} act={} elim_states={} elim_scans_elided={} waited={} wake_scan_sum={} \
             wake_elided={} protocol_violations={})",
            wall.as_secs_f64() * 1e3,
            outcome.steps.cond,
            outcome.steps.act,
            metrics.counter("gtm2.elim_states"),
            metrics.counter("gtm2.elim_scans_elided"),
            outcome.stats.waited,
            outcome.wake_scan_sum,
            metrics.counter("gtm2.wake_elided"),
            outcome.protocol_violations,
        );
    }
    std::process::ExitCode::SUCCESS
}
