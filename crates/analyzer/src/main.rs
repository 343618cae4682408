//! `mdbs-lint` CLI.
//!
//! ```text
//! cargo run -p mdbs-analyzer -- --workspace [--json PATH] [--sarif PATH]
//!     [--emit-graphs DIR]
//! cargo run -p mdbs-analyzer -- FILE.rs [FILE.rs ...]
//! ```
//!
//! Exit codes: 0 no finding, 1 any finding, 2 usage or I/O error.

use mdbs_analyzer::rules::{all_rules, SourceFile};
use mdbs_analyzer::{find_workspace_root, run_sources, run_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json_path: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut graphs_dir: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("mdbs-lint: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--sarif" => match args.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("mdbs-lint: --sarif needs a path");
                    return ExitCode::from(2);
                }
            },
            "--emit-graphs" => match args.next() {
                Some(p) => graphs_dir = Some(PathBuf::from(p)),
                None => {
                    eprintln!("mdbs-lint: --emit-graphs needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "mdbs-lint: static analysis for the mdbs workspace\n\n\
                     USAGE:\n  mdbs-lint --workspace [--json PATH] [--sarif PATH] \
                     [--emit-graphs DIR]\n  \
                     mdbs-lint FILE.rs [FILE.rs ...]\n\n\
                     Scans workspace sources for the {} rules documented in the\n\
                     README's \"Static analysis\" section and prints the findings.\n\
                     --json/--sarif also write the JSON report / SARIF 2.1.0 log to\n\
                     files. --emit-graphs writes channel_topology.dot into DIR\n\
                     (created if missing).\n\n\
                     Exit codes: 0 no finding, 1 any finding, 2 usage or I/O error.",
                    all_rules().len()
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("mdbs-lint: unknown flag `{arg}` (try --help)");
                return ExitCode::from(2);
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }

    let report = if workspace {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("mdbs-lint: cannot read cwd: {e}");
                return ExitCode::from(2);
            }
        };
        let Some(root) = find_workspace_root(&cwd) else {
            eprintln!("mdbs-lint: no workspace root above {}", cwd.display());
            return ExitCode::from(2);
        };
        match run_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mdbs-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else if files.is_empty() {
        eprintln!("mdbs-lint: pass --workspace or explicit files (try --help)");
        return ExitCode::from(2);
    } else {
        let mut sources = Vec::new();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(source) => sources.push(SourceFile {
                    path: f.to_string_lossy().replace('\\', "/"),
                    source,
                }),
                Err(e) => {
                    eprintln!("mdbs-lint: {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            }
        }
        run_sources(&sources, None)
    };

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("mdbs-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &sarif_path {
        if let Err(e) = std::fs::write(path, report.to_sarif()) {
            eprintln!("mdbs-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(dir) = &graphs_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("mdbs-lint: creating {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        let chan = dir.join("channel_topology.dot");
        if let Err(e) = std::fs::write(&chan, report.graphs.channel_dot(None)) {
            eprintln!("mdbs-lint: writing {}: {e}", chan.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
