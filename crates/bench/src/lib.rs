//! # mdbs-bench
//!
//! The experiment harness: every table in `EXPERIMENTS.md` is regenerated
//! by `cargo run -p mdbs-bench --bin experiments --release [exp-id ...]`.
//!
//! The paper (SIGMOD 1992) has no measured evaluation — its "results" are
//! Theorems 1–9 and the qualitative claims of Sections 3–7. Each experiment
//! here makes one of those claims measurable; `EXPERIMENTS.md` records the
//! expected shape next to the measured numbers. A family that judges a
//! claim adds an `EXP-…: verdicts` table, one `HOLDS` / `VIOLATED` row per
//! claim with the numbers it was judged on.
//!
//! `results/experiments.json` is the one committed record of every table.
//! `tests/committed_results.rs` re-runs each family, requires its tables to
//! equal the committed ones cell for cell (apart from EXP-NP's two
//! wall-clock columns) and every verdict to read `HOLDS`. A change meant
//! to move the numbers regenerates the file with
//! `cargo run --release -p mdbs-bench --bin experiments -- --json results/experiments.json`.
//!
//! The deterministic `cond`/`act` step counts — the paper's actual cost
//! model — are pinned by the `step_cells_golden` soak test in
//! `crates/core/tests/regression_scripts.rs`. Nothing here judges
//! wall-clock: the standalone `benchmark/` package is the one
//! harness whose wall times are recorded and compared.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod tables;

pub use tables::Table;
