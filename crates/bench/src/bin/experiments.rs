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
//!
//! A reader that closes stdout early (`experiments | head`) ends the
//! printing, not the run: the `--json` file is still written and the exit
//! status is 0. Any other write error exits 1 and names the error.

use mdbs_bench::experiments;
use std::io::{self, Write};

/// Writes `text` and a newline to `out` while `open`. A `BrokenPipe` (the
/// reader has gone) clears `open`, so later calls write nothing and the
/// run goes on; any other write error is returned.
fn say(out: &mut impl Write, open: &mut bool, text: &str) -> io::Result<()> {
    if !*open {
        return Ok(());
    }
    match writeln!(out, "{text}") {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            *open = false;
            Ok(())
        }
        written => written,
    }
}

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

    let (mut stdout, mut open) = (io::stdout().lock(), true);
    let mut print = |text: &str| {
        say(&mut stdout, &mut open, text).unwrap_or_else(|e| {
            eprintln!("failed to write stdout: {e}");
            std::process::exit(1);
        });
    };
    print("MDBS reproduction — experiment harness");
    print("paper: Mehrotra et al., SIGMOD 1992 (multidatabase concurrency control)\n");
    let mut all_tables: Vec<(String, Vec<mdbs_bench::Table>)> = Vec::new();
    for (id, f) in selected {
        let start = std::time::Instant::now();
        let tables = f();
        for t in &tables {
            print(&t.render());
        }
        print(&format!("[{id} completed in {:.2?}]\n", start.elapsed()));
        all_tables.push((id.to_string(), tables));
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&mdbs_bench::tables::provenance(&all_tables))
            .expect("tables print");
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        print(&format!("[provenance written to {path}]"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose reader has gone, counting the writes tried.
    struct ClosedPipe(usize);

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_stops_the_printing_cleanly() {
        let (mut out, mut open) = (ClosedPipe(0), true);
        assert!(say(&mut out, &mut open, "first").is_ok());
        assert!(say(&mut out, &mut open, "second").is_ok());
        assert!(!open);
        assert_eq!(out.0, 1, "nothing is written after the pipe closed");
    }

    #[test]
    fn other_write_errors_are_returned() {
        let mut out: &mut [u8] = &mut [];
        let mut open = true;
        let err = say(&mut out, &mut open, "no room").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(open);
    }
}
