//! Perf smoke run: a fixed matrix of the four conservative schemes ×
//! {replay, sharded replay, full DES} × workload tiers × scheme kernels,
//! written as an `mdbs-bench-smoke-v5` snapshot and (optionally)
//! appended to the bench results database.
//!
//! Since v4 every cell is a *distribution*, not one noisy number: the
//! cell is measured `--samples` times (per-tier defaults: 5 for `small`
//! and `medium`, 1 for `large`, which is a recorded datum, not a gate
//! input) and the report carries every sample plus min/median/max. The
//! legacy `wall_ms` column remains (it is the median) so eyeball diffs
//! against BENCH_PR1…PR6 still work.
//!
//! ```text
//! perf_smoke [--out PATH] [--samples N] [--db PATH] [--commit LABEL]
//! ```
//!
//! `--out PATH` (or the `BENCH_OUT` env var) picks the snapshot path; the
//! default is `perf-smoke.json` (gitignored). The committed
//! `BENCH_PR*.json` files are historical snapshots that `bench_gate
//! --ingest` files under their PR label — never write a run over one.
//! `--samples N` forces N repetitions for *every* tier. With `--db` the
//! run is also appended to the bench results database under `--commit`
//! (default: `MDBS_COMMIT`, then `local`) as gate-eligible history — that
//! is what `bench_gate` later compares against; see
//! `crates/bench/src/gate.rs`.
//!
//! Replay cells measure pure scheduler cost: throughput is transactions
//! per *wall* second and the response percentiles are `null` (replay has
//! no clock). `replay-sharded` cells run the same script through
//! [`ShardedGtm2`] with one shard per site. Since v5, `replay-parallel`
//! cells run Schemes 0/1 through the work-stealing pool engine
//! ([`replay_parallel`]) at worker counts {1, 2, 4, nproc} (the worker
//! count is stored in the `shards` column); `small` is excluded so the
//! numbers measure the scheduler, not thread spawn.
//!
//! [`replay_parallel`]: mdbs_core::parallel::replay_parallel DES cells run the full
//! simulator: throughput and response percentiles are in *simulated*
//! time and deterministic — only their wall-clock varies across samples.
//!
//! The `kernel` column names the scheme-state implementation: `btree`
//! (reference) or `dense` (slot-interned bitset kernels, the default).
//! Both kernels charge byte-identical `steps_cond`/`steps_act` —
//! `step_gate` enforces that — so within a (scheme, mode, tier) pair only
//! wall-clock may differ. Kernel/tier inclusion rules live in
//! [`mdbs_bench::smoke::kernel_included`].
//!
//! [`ShardedGtm2`]: mdbs_core::sharded::ShardedGtm2

use mdbs_bench::smoke::{self, DES_TIERS};
use mdbs_bench::store::{BenchDb, SampleRecord};
use mdbs_core::scheme::SchemeKind;

struct Args {
    out: String,
    samples: Option<usize>,
    db: Option<String>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut out = None;
    let mut samples = None;
    let mut db = None;
    let mut commit = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a path")?),
            "--samples" => {
                let n: usize = it
                    .next()
                    .ok_or("--samples needs a count")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?;
                if n == 0 {
                    return Err("--samples must be >= 1".to_string());
                }
                samples = Some(n);
            }
            "--db" => db = Some(it.next().ok_or("--db needs a path")?),
            "--commit" => commit = Some(it.next().ok_or("--commit needs a label")?),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (try --out/--samples/--db/--commit)"
                ))
            }
        }
    }
    Ok(Args {
        out: out
            .or_else(|| std::env::var("BENCH_OUT").ok())
            .unwrap_or_else(|| "perf-smoke.json".to_string()),
        samples,
        db,
        commit: commit
            .or_else(|| std::env::var("MDBS_COMMIT").ok())
            .unwrap_or_else(|| "local".to_string()),
    })
}

/// Per-tier default repetitions: enough for a distribution on the cheap
/// tiers, one shot on the expensive trend-datum tier.
fn default_samples(tier: &str) -> usize {
    match tier {
        "large" => 1,
        _ => 5,
    }
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_smoke: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let calib = smoke::calibration_ms(5);
    eprintln!("calibration: {calib:.3} ms");
    let tiers: Vec<&str> = smoke::REPLAY_TIERS.iter().map(|t| t.name).collect();
    let mut records: Vec<SampleRecord> = Vec::new();
    for spec in smoke::replay_matrix(&tiers) {
        let n = args
            .samples
            .unwrap_or_else(|| default_samples(spec.tier.name));
        records.push(smoke::sample_replay(&spec, n, 1.0));
    }
    for spec in smoke::parallel_matrix(&tiers) {
        let n = args
            .samples
            .unwrap_or_else(|| default_samples(spec.tier.name));
        records.push(smoke::sample_parallel(&spec, n, 1.0));
    }
    for scheme in SchemeKind::CONSERVATIVE {
        for tier in DES_TIERS {
            let n = args.samples.unwrap_or_else(|| default_samples(tier.name));
            records.push(smoke::sample_des(scheme, tier, n, 1.0));
        }
    }
    for rec in &mut records {
        rec.commit = args.commit.clone();
        rec.source = "perf_smoke".to_string();
        rec.calib_ms = Some(calib);
    }

    let report = smoke::SmokeReport::from_records(&args.commit, &records);
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perf_smoke: serializing report: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("perf_smoke: writing {}: {e}", args.out);
        return std::process::ExitCode::from(2);
    }
    eprintln!("wrote {} ({} cells)", args.out, report.cells.len());
    for c in &report.cells {
        eprintln!(
            "  {:<8} {:<14} {:<6} {:<10} {:>5} txns  {:>9.2} ms (×{})  {:>12.0} txn/s  waits={}",
            c.scheme,
            c.mode,
            c.size,
            c.kernel,
            c.txns,
            c.wall_ms_median,
            c.samples.len(),
            c.throughput_txn_per_sec,
            c.waits
        );
    }

    if let Some(db_path) = &args.db {
        let mut db = match BenchDb::open(db_path) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("perf_smoke: opening db {db_path}: {e}");
                return std::process::ExitCode::from(2);
            }
        };
        for rec in records {
            db.append(rec);
        }
        if let Err(e) = db.save() {
            eprintln!("perf_smoke: saving db {db_path}: {e}");
            return std::process::ExitCode::from(2);
        }
        eprintln!(
            "appended {} records to {db_path} as commit {}",
            report.cells.len(),
            args.commit
        );
    }
    std::process::ExitCode::SUCCESS
}
