//! `results/experiments.json` is what the experiments compute, and every
//! claim they judge holds.
//!
//! One test per family of `experiments::all()`, so that the families run
//! in parallel: each re-runs its family, compares every table with the
//! family's committed entry cell for cell, and requires each row of its
//! `EXP-…: verdicts` table to read `HOLDS`. EXP-NP's `EC us` and
//! `exact us` are wall-clock, so only those two columns are masked.

use mdbs_bench::{experiments, Table};
use serde_json::Value;

const COMMITTED: &str = include_str!("../../../results/experiments.json");
const REGENERATE: &str =
    "cargo run --release -p mdbs-bench --bin experiments -- --json results/experiments.json";
const WALL_CLOCK: [&str; 2] = ["EC us", "exact us"];

/// A table as lines of cells: its title alone, its headers, then its rows.
type Grid = Vec<Vec<String>>;

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Arr(items) => items,
        _ => &[],
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        _ => format!("{v:?}"),
    }
}

/// `table[key]`, or `null`.
fn field<'a>(table: &'a Value, key: &str) -> &'a Value {
    table.get(key).unwrap_or(&Value::Null)
}

/// A `{title, headers, rows}` table's grid, EXP-NP's wall-clock cells blanked.
fn grid(table: &Value) -> Grid {
    let cells = |v: &Value| items(v).iter().map(text).collect::<Vec<_>>();
    let mut grid = vec![
        vec![text(field(table, "title"))],
        cells(field(table, "headers")),
    ];
    grid.extend(items(field(table, "rows")).iter().map(cells));
    if grid[0][0].starts_with("EXP-NP") {
        let headers = &grid[1];
        let wall: Vec<usize> = (0..headers.len())
            .filter(|&i| WALL_CLOCK.contains(&headers[i].as_str()))
            .collect();
        for row in &mut grid[2..] {
            wall.iter().for_each(|&i| row[i].clear());
        }
    }
    grid
}

/// `family`'s tables in the committed document, in order.
fn committed(family: &str) -> Vec<Grid> {
    let doc = serde_json::from_str_value(COMMITTED).expect("results/experiments.json parses");
    let entry = items(&doc)
        .iter()
        .map(items)
        .find(|entry| entry.first().map(text).as_deref() == Some(family));
    let tables = entry.and_then(|entry| entry.get(1)).unwrap_or(&Value::Null);
    items(tables).iter().map(grid).collect()
}

/// Every table of `fresh` that differs from `committed`, and every verdict
/// of `fresh` that does not hold, one line each naming the family and the
/// table.
fn problems(family: &str, fresh: &[Grid], committed: &[Grid]) -> Vec<String> {
    let mut out = Vec::new();
    if fresh.len() != committed.len() {
        out.push(format!(
            "{family}: {} tables, {} committed",
            fresh.len(),
            committed.len()
        ));
    }
    for (i, table) in fresh.iter().enumerate() {
        let title = &table[0][0];
        if committed.get(i) != Some(table) {
            out.push(format!(
                "{family}: table `{title}` differs from the committed one"
            ));
        }
        if title.ends_with(": verdicts") {
            for row in table[2..].iter().filter(|row| row[1] != "HOLDS") {
                let (claim, result, witness) = (&row[0], &row[1], &row[2]);
                out.push(format!(
                    "{family}: `{title}`: {claim}: {result} ({witness})"
                ));
            }
        }
    }
    out
}

/// Run `family` and hold it to its committed entry. `TESTED` has one test
/// per entry, each running a family of `all()`, so equal lengths mean that
/// every family is tested.
fn check(family: &str) {
    assert_eq!(
        TESTED.len(),
        experiments::all().len(),
        "a family has no test"
    );
    let (_, run) = experiments::all()
        .into_iter()
        .find(|(id, _)| *id == family)
        .expect("family");
    let fresh: Vec<Grid> = run().iter().map(|t| grid(&t.to_value())).collect();
    let problems = problems(family, &fresh, &committed(family));
    assert!(
        problems.is_empty(),
        "{problems:#?}\nIf the change is meant to move these numbers, regenerate with\n  {REGENERATE}"
    );
}

macro_rules! families {
    ($($family:ident),* $(,)?) => {
        $(#[test] fn $family() { check(&stringify!($family).replace('_', "-")); })*
        const TESTED: &[&str] = &[$(stringify!($family)),*];
    };
}

families!(
    exp_gs, exp_ind, exp_c0, exp_c1, exp_c2, exp_c3, exp_np, exp_doc, exp_all, exp_opt, exp_ab,
    exp_amrt, exp_e2e, exp_2pc, exp_crash, exp_wait, exp_sg, exp_tkt,
);

/// A tampered cell is reported by family and table, a verdict that does
/// not hold is reported even when committed that way, and a wall-clock
/// cell is not compared.
#[test]
fn seeded_drift_is_reported_by_name() {
    let doc = committed("exp-doc");
    let mut tampered = doc.clone();
    tampered[0][6][2] = "998".into(); // Scheme 3's total waits
    let drifted = format!(
        "exp-doc: table `{}` differs from the committed one",
        doc[0][0][0]
    );
    assert_eq!(problems("exp-doc", &doc, &tampered), [drifted]);

    let mut violated = doc.clone();
    violated[1][4][1] = "VIOLATED".into(); // the 5 % inversion bound
    let (claim, witness) = (&violated[1][4][0], &violated[1][4][2]);
    let unheld = format!("exp-doc: `EXP-DOC: verdicts`: {claim}: VIOLATED ({witness})");
    assert_eq!(problems("exp-doc", &violated, &violated), [unheld]);

    let np = |delta: &str, us: &str| {
        let mut table = Table::new("EXP-NP: demo", &["|Δ| EC", "EC us", "exact us"]);
        table.row(vec![delta.into(), us.into(), us.into()]);
        vec![grid(&table.to_value())]
    };
    assert!(problems("exp-np", &np("4", "12"), &np("4", "99")).is_empty());
    assert_eq!(problems("exp-np", &np("4", "12"), &np("5", "12")).len(), 1);
}
