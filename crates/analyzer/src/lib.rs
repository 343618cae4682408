//! `mdbs-lint` — static analysis for the mdbs workspace.
//!
//! The paper's Section 3 argument — a multidatabase scheduler must be
//! *conservative* because aborting a global transaction is prohibitively
//! expensive — translates into code discipline: the GTM2 pump, the
//! scheme `cond`/`act` implementations and the site servers must never
//! panic or silently drop protocol messages. PR 1 converted panics into
//! [`SchemeEffect::ProtocolViolation`] effects; this crate is the gate
//! that keeps it that way.
//!
//! One pipeline: collect files → read each → the pure per-file
//! front-end ([`rules::frontend`]: lex → token trees → facts), file by
//! file in path order → a deterministic aggregation stage
//! ([`rules::aggregate`]) that replays allow directives, metric
//! registrations and the interprocedural graph pass over the artifacts
//! → [`report::Report`].
//!
//! See [`rules`] for the rule catalog (six workspace invariants plus
//! three meta-rules — nine rule ids, [`rules::all_rules`]),
//! [`report`] for the JSON and SARIF schemas,
//! [`parser`]/[`facts`]/[`graph`] for the analysis stages, and the
//! repository README's "Static analysis" section for the allow-comment
//! escape hatch.
//!
//! Run it as a tool:
//!
//! ```text
//! cargo run -p mdbs-analyzer -- --workspace
//! ```
//!
//! [`SchemeEffect::ProtocolViolation`]: ../mdbs_core/scheme/enum.SchemeEffect.html

pub mod facts;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use report::Report;
use rules::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: vendored deps, build output, test code
/// (exempt from every rule) and the analyzer's own deliberately-violating
/// fixtures.
const SKIP_DIRS: [&str; 7] = [
    "vendor", "target", ".git", "tests", "benches", "fixtures", "results",
];

/// Walk upward from `start` to the nearest directory whose `Cargo.toml`
/// has a `[workspace]` table with a `members` key. A member-less
/// `[workspace]` (a standalone package opting out of its parent, like
/// `benchmark/`) is not a root: linting from inside it must still sweep
/// the whole repository.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if let Ok(text) = fs::read_to_string(dir.join("Cargo.toml")) {
            if declares_workspace_members(&text) {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// True iff the manifest text has a `members` key inside its
/// `[workspace]` table (comments and other tables do not count).
fn declares_workspace_members(manifest: &str) -> bool {
    let mut in_workspace = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_workspace = line.split('#').next().map(str::trim) == Some("[workspace]");
        } else if in_workspace
            && line
                .split_once('=')
                .is_some_and(|(k, _)| k.trim() == "members")
        {
            return true;
        }
    }
    false
}

/// Collect every lintable `.rs` file under `root` as workspace-relative
/// `/`-joined paths, sorted bytewise.
///
/// Sorting the *string* form (not `PathBuf`, whose ordering is
/// component-wise over platform `OsStr`) pins one global file order on
/// every filesystem and OS. That order is load-bearing: metric
/// first-registration wins and call-graph node numbering (hence the
/// reported call paths) follow it, so JSON/SARIF/DOT goldens stay stable
/// across machines.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `target/` and `vendor/` are explicitly skipped (build
            // output and vendored deps are not ours to lint), along with
            // the rest of SKIP_DIRS and any dot-directory.
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(
                    rel.components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/"),
                );
            }
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root` (including `README.md` for
/// the `metric-docs-sync` rule).
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    let mut sources = Vec::new();
    for path in collect_files(root)? {
        let source = fs::read_to_string(root.join(&path))?;
        sources.push(SourceFile { path, source });
    }
    let readme = fs::read_to_string(root.join("README.md")).ok();
    Ok(run_sources(&sources, readme.as_deref()))
}

/// Lint an in-memory set of sources — the entry point fixture tests use.
pub fn run_sources(sources: &[SourceFile], readme: Option<&str>) -> Report {
    let analysis = rules::analyze(sources, readme);
    Report {
        files_scanned: sources.len(),
        violations: analysis.violations,
        graphs: analysis.graphs,
    }
}
