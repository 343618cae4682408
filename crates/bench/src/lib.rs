//! # mdbs-bench
//!
//! The experiment harness: every table in `EXPERIMENTS.md` is regenerated
//! by `cargo run -p mdbs-bench --bin experiments --release [exp-id ...]`.
//!
//! The paper (SIGMOD 1992) has no measured evaluation — its "results" are
//! Theorems 1–9 and the qualitative claims of Sections 3–7. Each experiment
//! here makes one of those claims measurable; `EXPERIMENTS.md` records the
//! expected shape next to the measured numbers.
//!
//! `step_gate` pins the deterministic `cond`/`act` step counts — the
//! paper's actual cost model — against `STEP_GOLDEN.json`. Nothing here
//! judges wall-clock: the standalone `benchmark/` package is the one
//! harness whose wall times are recorded and compared.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod tables;

pub use tables::Table;
