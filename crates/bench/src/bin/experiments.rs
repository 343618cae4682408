//! Regenerates every table of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run -p mdbs-bench --bin experiments --release              # everything
//! cargo run -p mdbs-bench --bin experiments --release exp-np       # one family
//! cargo run -p mdbs-bench --bin experiments --release -- --json out.json
//! ```
//!
//! `--json results/experiments.json` rewrites the committed record that
//! `crates/bench/tests/committed_results.rs` holds every family to.

use mdbs_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Optional provenance output: --json <path> writes every generated
    // table as JSON alongside the printed text.
    let json_path = args.iter().position(|a| a == "--json").map(|pos| {
        args.remove(pos);
        if pos == args.len() {
            eprintln!("--json requires a path");
            std::process::exit(2);
        }
        args.remove(pos)
    });
    let all = experiments::all();
    let ids: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
    let unknown: Vec<&String> = args.iter().filter(|a| !ids.contains(&a.as_str())).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s): {unknown:?}");
        eprintln!("available: {}", ids.join(" "));
        std::process::exit(2);
    }
    let selected = all
        .iter()
        .filter(|(id, _)| args.is_empty() || args.iter().any(|a| a == id));

    println!("MDBS reproduction — experiment harness");
    println!("paper: Mehrotra et al., SIGMOD 1992 (multidatabase concurrency control)\n");
    let mut all_tables: Vec<(String, Vec<mdbs_bench::Table>)> = Vec::new();
    for (id, f) in selected {
        let start = std::time::Instant::now();
        let tables = f();
        for t in &tables {
            println!("{}", t.render());
        }
        println!("[{id} completed in {:.2?}]\n", start.elapsed());
        all_tables.push((id.to_string(), tables));
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&mdbs_bench::tables::provenance(&all_tables))
            .expect("tables print");
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("[provenance written to {path}]");
    }
}
