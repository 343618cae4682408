//! Regenerates every table of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run -p mdbs-bench --bin experiments --release              # everything
//! cargo run -p mdbs-bench --bin experiments --release exp-np       # one family
//! cargo run -p mdbs-bench --bin experiments --release -- --json out.json
//! ```

use mdbs_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Optional provenance output: --json <path> writes every generated
    // table as JSON alongside the printed text.
    let mut json_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        args.remove(pos);
        if pos < args.len() {
            json_path = Some(args.remove(pos));
        } else {
            eprintln!("--json requires a path");
            std::process::exit(2);
        }
    }
    let all = experiments::all();
    let selected: Vec<_> = if args.is_empty() {
        all
    } else {
        let ids: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
        let chosen: Vec<_> = all
            .into_iter()
            .filter(|(id, _)| args.iter().any(|a| a == id))
            .collect();
        if chosen.is_empty() {
            eprintln!("unknown experiment id(s): {args:?}");
            eprintln!("available: {}", ids.join(" "));
            std::process::exit(2);
        }
        chosen
    };

    println!("MDBS reproduction — experiment harness");
    println!("paper: Mehrotra et al., SIGMOD 1992 (multidatabase concurrency control)\n");
    let mut all_tables: Vec<(String, Vec<mdbs_bench::Table>)> = Vec::new();
    for (id, f) in selected {
        let start = std::time::Instant::now();
        let tables = f();
        for t in &tables {
            t.print();
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
