//! `mdbs-lint` CLI.
//!
//! ```text
//! cargo run -p mdbs-analyzer -- --workspace [--json PATH] [--sarif PATH]
//!     [--format human|json|sarif] [--emit-graphs DIR] [--quiet]
//!     [--fail-on error|warning|note]
//! cargo run -p mdbs-analyzer -- FILE.rs [FILE.rs ...]
//! ```
//!
//! Exit codes: 0 gate passed, 1 gate failed, 2 usage or I/O error.
//! The gate fails on any finding at or above the `--fail-on` threshold
//! (default `note`, i.e. every finding).

use mdbs_analyzer::rules::{all_rules, parse_level, Level, SourceFile};
use mdbs_analyzer::{find_workspace_root, run_sources, run_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut quiet = false;
    let mut format = Format::Human;
    let mut json_path: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut graphs_dir: Option<PathBuf> = None;
    let mut fail_on = Level::Note;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--quiet" | "-q" => quiet = true,
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    eprintln!("mdbs-lint: unknown format `{other}` (human|json|sarif)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("mdbs-lint: --format needs a value (human|json|sarif)");
                    return ExitCode::from(2);
                }
            },
            "--fail-on" => match args.next().as_deref().and_then(parse_level) {
                Some(level) => fail_on = level,
                None => {
                    eprintln!("mdbs-lint: --fail-on needs a value (error|warning|note)");
                    return ExitCode::from(2);
                }
            },
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
                     [--format human|json|sarif]\n      [--emit-graphs DIR] [--quiet] \
                     [--fail-on error|warning|note]\n  \
                     mdbs-lint FILE.rs [FILE.rs ...]\n\n\
                     Scans workspace sources for the {} rules documented in the\n\
                     README's \"Static analysis\" section.\n\
                     --format selects the stdout rendering; --json/--sarif additionally\n\
                     write the JSON report / SARIF 2.1.0 log to files.\n\
                     --fail-on sets the severity threshold for exit code 1 (default\n\
                     note = any finding).\n\
                     --emit-graphs writes channel_topology.dot into DIR (created if\n\
                     missing).\n\n\
                     Exit codes: 0 gate passed, 1 findings at/above --fail-on, 2 usage or\n\
                     I/O error.",
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
    match format {
        Format::Human => {
            if !quiet {
                print!("{}", report.render_human());
            }
        }
        Format::Json => print!("{}", report.to_json()),
        Format::Sarif => print!("{}", report.to_sarif()),
    }
    if report.fails(fail_on) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
