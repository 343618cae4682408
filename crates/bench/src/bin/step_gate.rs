//! Step-accounting regression gate.
//!
//! The paper's complexity results are *step counts*, not wall-clock: every
//! scheme charges `cond`/`act` units per Figure 3 op, and the whole point
//! of the dense kernels is that they change machine cost **without moving
//! a single counted step**. This gate pins that invariant in CI.
//!
//! It replays two fixed scripts (`small` and `medium`, seed 42) through
//! every conservative scheme under **both** kernels — the btree oracle
//! and dense — and diffs `steps_cond`/`steps_act` against
//! the checked-in `STEP_GOLDEN.json` at the repo root. Any drift — a kernel rewrite that forgot a charge, a
//! wake-path change that re-tests a different set — fails the build with
//! a per-cell diff.
//!
//! Usage:
//!
//! ```text
//! step_gate [--golden PATH]          # verify (CI mode); exit 1 on drift
//! step_gate --write [--golden PATH]  # regenerate the golden file
//! ```
//!
//! Regenerating is a *deliberate* act: only `--write` after a reviewed
//! semantic change to the paper-step accounting (e.g. a new scheme or a
//! corrected charge) should ever touch `STEP_GOLDEN.json`.

use mdbs_core::replay::{replay_kernel, Script};
use mdbs_core::scheme::{KernelKind, SchemeKind};
use serde::{Deserialize, Serialize};

/// (size label, txns, sites, avg sites per txn) — the cells of
/// `STEP_GOLDEN.json`.
const GATE_SIZES: [(&str, usize, usize, f64); 2] = [("small", 50, 4, 2.0), ("medium", 150, 6, 2.5)];

#[derive(Serialize, Deserialize, PartialEq, Eq, Clone, Debug)]
struct StepCell {
    scheme: String,
    size: String,
    kernel: String,
    steps_cond: u64,
    steps_act: u64,
}

#[derive(Serialize, Deserialize, PartialEq, Eq, Debug)]
struct StepGolden {
    schema: String,
    cells: Vec<StepCell>,
}

fn compute() -> StepGolden {
    let mut cells = Vec::new();
    for scheme in SchemeKind::CONSERVATIVE {
        for (size, n, m, dav) in GATE_SIZES {
            let script = Script::random(n, m, dav, 42);
            for kernel in [KernelKind::BTree, KernelKind::Dense] {
                let outcome = replay_kernel(scheme, kernel, &script);
                assert_eq!(
                    outcome.completed, n,
                    "{scheme:?}/{size}/{kernel}: replay must complete every txn"
                );
                cells.push(StepCell {
                    scheme: format!("{scheme:?}"),
                    size: size.to_string(),
                    kernel: kernel.name().to_string(),
                    steps_cond: outcome.steps.cond,
                    steps_act: outcome.steps.act,
                });
            }
        }
    }
    StepGolden {
        schema: "mdbs-step-golden-v1".to_string(),
        cells,
    }
}

struct Args {
    write: bool,
    golden: String,
}

fn parse_args() -> Result<Args, String> {
    let mut write = false;
    let mut golden = "STEP_GOLDEN.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write" => write = true,
            "--golden" => {
                golden = it
                    .next()
                    .ok_or_else(|| "--golden needs a path".to_string())?;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (try --write / --golden)"
                ))
            }
        }
    }
    Ok(Args { write, golden })
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("step_gate: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let actual = compute();
    if args.write {
        let json = match serde_json::to_string_pretty(&actual) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("step_gate: serializing golden: {e}");
                return std::process::ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&args.golden, json + "\n") {
            eprintln!("step_gate: writing {}: {e}", args.golden);
            return std::process::ExitCode::from(2);
        }
        eprintln!("wrote {} ({} cells)", args.golden, actual.cells.len());
        return std::process::ExitCode::SUCCESS;
    }
    let text = match std::fs::read_to_string(&args.golden) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "step_gate: reading {}: {e} (run with --write to create it)",
                args.golden
            );
            return std::process::ExitCode::from(2);
        }
    };
    let golden: StepGolden = match serde_json::from_str(&text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("step_gate: parsing {}: {e}", args.golden);
            return std::process::ExitCode::from(2);
        }
    };
    if golden.schema != actual.schema {
        eprintln!(
            "step_gate: schema mismatch: golden `{}` vs computed `{}`",
            golden.schema, actual.schema
        );
        return std::process::ExitCode::FAILURE;
    }
    let mut drift = 0usize;
    let key = |c: &StepCell| (c.scheme.clone(), c.size.clone(), c.kernel.clone());
    let golden_map: std::collections::BTreeMap<_, _> =
        golden.cells.iter().map(|c| (key(c), c.clone())).collect();
    let actual_map: std::collections::BTreeMap<_, _> =
        actual.cells.iter().map(|c| (key(c), c.clone())).collect();
    for (k, a) in &actual_map {
        match golden_map.get(k) {
            None => {
                drift += 1;
                eprintln!(
                    "step_gate: NEW cell {:?}: cond={} act={} (regenerate with --write)",
                    k, a.steps_cond, a.steps_act
                );
            }
            Some(g) if g != a => {
                drift += 1;
                eprintln!(
                    "step_gate: DRIFT {:?}: cond {} -> {} act {} -> {}",
                    k, g.steps_cond, a.steps_cond, g.steps_act, a.steps_act
                );
            }
            Some(_) => {}
        }
    }
    for k in golden_map.keys() {
        if !actual_map.contains_key(k) {
            drift += 1;
            eprintln!("step_gate: MISSING cell {k:?} (present in golden, not replayed)");
        }
    }
    if drift > 0 {
        eprintln!(
            "step_gate: {drift} cell(s) drifted from {} — paper-step accounting moved",
            args.golden
        );
        return std::process::ExitCode::FAILURE;
    }
    eprintln!(
        "step_gate: {} cells match {} — paper-step accounting unchanged",
        actual.cells.len(),
        args.golden
    );
    std::process::ExitCode::SUCCESS
}
