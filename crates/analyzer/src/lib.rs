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
//! The engine is split into a pure per-file front-end
//! ([`rules::frontend`]: lex → token trees → facts) whose output is
//! content-addressed by a file fingerprint and persisted to an on-disk
//! fact database ([`cache`]), and a deterministic aggregation stage
//! ([`rules::aggregate`]) that replays allow directives, metric
//! registrations and the interprocedural graph pass over the artifacts.
//! Unchanged files load their facts instead of re-analyzing; dirty files
//! fan out across a scoped-thread worker pool.
//!
//! See [`rules`] for the eleven invariants, [`report`] for the JSON and
//! SARIF schemas, [`parser`]/[`facts`]/[`cfg`]/[`dataflow`]/[`graph`]
//! for the analysis stages, and the repository README's "Static
//! analysis" section for the allow-comment escape hatch.
//!
//! Run it as a tool:
//!
//! ```text
//! cargo run -p mdbs-analyzer -- --workspace
//! ```
//!
//! [`SchemeEffect::ProtocolViolation`]: ../mdbs_core/scheme/enum.SchemeEffect.html

pub mod cache;
pub mod cfg;
pub mod dataflow;
pub mod facts;
pub mod graph;
pub mod jsonv;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use report::{CacheStats, Report};
use rules::{FileArtifacts, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Instant, UNIX_EPOCH};

/// Directory names never scanned: vendored deps, build output, test code
/// (exempt from every rule) and the analyzer's own deliberately-violating
/// fixtures.
const SKIP_DIRS: [&str; 7] = [
    "vendor", "target", ".git", "tests", "benches", "fixtures", "results",
];

/// Options for a workspace run — the incremental and parallel knobs the
/// CLI exposes.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Fact-database directory (`--cache-dir`); `None` runs cold.
    pub cache_dir: Option<PathBuf>,
    /// Front-end worker threads (`--jobs`); 0 means one per core.
    pub jobs: usize,
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collect every lintable `.rs` file under `root` as workspace-relative
/// `/`-joined paths, sorted bytewise.
///
/// Sorting the *string* form (not `PathBuf`, whose ordering is
/// component-wise over platform `OsStr`) pins one global file order on
/// every filesystem and OS. That order is load-bearing: metric
/// first-registration wins, graph node numbering, lock-edge first-sight
/// dedup and the fact-database layout all follow it, so JSON/SARIF/DOT
/// goldens and cache fingerprints stay stable across machines and
/// worker counts.
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
    run_workspace_with(root, RunOptions::default())
}

/// [`run_workspace`] with explicit options. Times the full sweep so the
/// report carries its own perf budget.
///
/// With `cache_dir` set, front-end artifacts are looked up by content
/// fingerprint (hits skip lex/parse/facts entirely; files whose size
/// and mtime match the stored stat record are not even read) and the
/// interprocedural pass replays per-function results whose dependency
/// digest is unchanged; the refreshed database is written back after
/// analysis. Persisting is best-effort — an unwritable cache directory
/// degrades to a cold run with a note on stderr, never a failed lint.
pub fn run_workspace_with(root: &Path, opts: RunOptions) -> io::Result<Report> {
    let start = Instant::now();
    let trace = std::env::var_os("MDBS_LINT_TRACE").is_some();
    let mut mark = Instant::now();
    let mut lap = |label: &str, trace: bool| {
        if trace {
            eprintln!("trace: {label}: {:?}", mark.elapsed());
        }
        mark = Instant::now();
    };
    let rels = collect_files(root)?;
    let files_scanned = rels.len();
    let readme = fs::read_to_string(root.join("README.md")).ok();
    let jobs = effective_jobs(opts.jobs);
    lap("read", trace);

    let (artifacts, blobs, manifest, pruned, stat_fresh, mut stats, mut gctx) = match &opts
        .cache_dir
    {
        None => {
            let mut sources = Vec::with_capacity(rels.len());
            for rel in &rels {
                let source = fs::read_to_string(root.join(rel))?;
                sources.push(SourceFile {
                    path: rel.clone(),
                    source,
                });
            }
            (
                frontend_all(&sources, jobs),
                Vec::new(),
                cache::Manifest::new(),
                false,
                false,
                None,
                None,
            )
        }
        Some(dir) => {
            let mut db = cache::load(dir);
            lap("load", trace);
            let mut stats = CacheStats::default();
            let mut slots: Vec<Option<FileArtifacts>> = Vec::with_capacity(rels.len());
            let mut blobs: Vec<Option<Vec<u8>>> = Vec::with_capacity(rels.len());
            let mut manifest = cache::Manifest::new();
            let mut pending: Vec<(usize, SourceFile)> = Vec::new();
            let mut stat_fresh = true;
            for (idx, rel) in rels.iter().enumerate() {
                let full = root.join(rel);
                let meta = fs::metadata(&full)?;
                let size = meta.len();
                let mtime = mtime_ns(&meta);
                // Stat fast path: an unchanged size + mtime vouches for
                // the stored fingerprint and the file is not even read.
                // The content fingerprint below stays the authority
                // whenever the stat differs (a `touch` re-reads and
                // still hits on content).
                if let Some(m) = db.manifest.get(rel) {
                    if m.size == size && m.mtime_ns == mtime && mtime != 0 {
                        if let Some((a, blob)) = db.files.remove(rel) {
                            if a.fingerprint == m.fingerprint {
                                stats.file_hits += 1;
                                manifest.insert(rel.clone(), *m);
                                slots.push(Some(a));
                                blobs.push(Some(blob));
                                continue;
                            }
                            db.files.insert(rel.clone(), (a, blob));
                        }
                    }
                }
                stat_fresh = false;
                let source = fs::read_to_string(&full)?;
                let fp = cache::fingerprint(&source);
                manifest.insert(
                    rel.clone(),
                    cache::StatEntry {
                        size,
                        mtime_ns: mtime,
                        fingerprint: fp,
                    },
                );
                match db.files.remove(rel) {
                    Some((a, blob)) if a.fingerprint == fp => {
                        stats.file_hits += 1;
                        slots.push(Some(a));
                        blobs.push(Some(blob));
                    }
                    _ => {
                        stats.file_misses += 1;
                        slots.push(None);
                        blobs.push(None);
                        pending.push((
                            idx,
                            SourceFile {
                                path: rel.clone(),
                                source,
                            },
                        ));
                    }
                }
            }
            // Whatever is left in the loaded map belongs to files no
            // longer in the workspace — the rewrite prunes them.
            let pruned = !db.files.is_empty();
            let work: Vec<(usize, &SourceFile)> = pending.iter().map(|(i, s)| (*i, s)).collect();
            for (idx, art) in frontend_indexed(&work, jobs) {
                slots[idx] = Some(art);
            }
            let artifacts: Vec<FileArtifacts> =
                slots.into_iter().map(|a| a.expect("slot filled")).collect();
            let fps = artifacts
                .iter()
                .map(|a| (a.path.clone(), a.fingerprint))
                .collect();
            (
                artifacts,
                blobs,
                manifest,
                pruned,
                stat_fresh,
                Some(stats),
                Some(graph::GraphCacheCtx::new(db.graph, fps)),
            )
        }
    };

    lap("frontend", trace);
    let analysis = rules::aggregate(&artifacts, readme.as_deref(), gctx.as_mut());
    lap("aggregate", trace);
    if let Some(g) = &gctx {
        if let Some(s) = stats.as_mut() {
            s.fn_hits = g.hits;
            s.fn_misses = g.misses;
        }
    }
    if let (Some(dir), Some(g)) = (&opts.cache_dir, &gctx) {
        // A fully-warm run (every file vouched for by its stat record,
        // every function replayed, nothing pruned) leaves the database
        // byte-identical — skip the rewrite. A run that merely had to
        // *read* a file (stat changed, content did not) still rewrites,
        // refreshing the manifest so the next run takes the fast path.
        let unchanged = stat_fresh
            && stats.as_ref().is_some_and(|s| s.file_misses == 0)
            && !pruned
            && g.misses == 0
            && g.old.is_empty();
        if !unchanged {
            let blob_refs: Vec<Option<&[u8]>> = blobs.iter().map(|b| b.as_deref()).collect();
            if let Err(e) = cache::save(dir, &artifacts, &blob_refs, &g.fresh, &manifest) {
                eprintln!(
                    "mdbs-lint: warning: could not persist fact database to {}: {e}",
                    dir.display()
                );
            }
        }
    }
    lap("save", trace);
    Ok(Report {
        files_scanned,
        violations: analysis.violations,
        graphs: analysis.graphs,
        wall_ms: Some(start.elapsed().as_millis() as u64),
        cache: stats,
        baseline: None,
    })
}

/// Lint an in-memory set of sources — the entry point fixture tests use.
pub fn run_sources(sources: &[SourceFile], readme: Option<&str>) -> Report {
    let analysis = rules::analyze(sources, readme);
    Report {
        files_scanned: sources.len(),
        violations: analysis.violations,
        graphs: analysis.graphs,
        wall_ms: None,
        cache: None,
        baseline: None,
    }
}

/// Modification time as nanoseconds since the Unix epoch; 0 — which
/// disables the stat fast path for that file — when the platform or
/// filesystem cannot provide one.
fn mtime_ns(meta: &fs::Metadata) -> u64 {
    meta.modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Resolve the requested worker count: 0 means one per core.
fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run the front-end over every source, in order.
fn frontend_all(sources: &[SourceFile], jobs: usize) -> Vec<FileArtifacts> {
    let indexed: Vec<(usize, &SourceFile)> = sources.iter().enumerate().collect();
    let mut arts = frontend_indexed(&indexed, jobs);
    arts.sort_by_key(|(i, _)| *i);
    arts.into_iter().map(|(_, a)| a).collect()
}

/// Fan the pure per-file front-end out over a scoped-thread pool.
///
/// Work-stealing by atomic index: each worker claims the next file until
/// the list is drained. Results carry their original index so callers
/// can restore the deterministic workspace order regardless of which
/// worker finished first — the artifacts are identical to a serial run
/// because [`rules::frontend`] reads nothing but the file itself.
fn frontend_indexed(work: &[(usize, &SourceFile)], jobs: usize) -> Vec<(usize, FileArtifacts)> {
    if work.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.min(work.len()).max(1);
    if jobs == 1 {
        return work
            .iter()
            .map(|(i, src)| (*i, rules::frontend(src)))
            .collect();
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                sc.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((idx, src)) = work.get(k) else { break };
                        out.push((*idx, rules::frontend(src)));
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::with_capacity(work.len());
        for h in handles {
            match h.join() {
                Ok(batch) => all.extend(batch),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        all
    })
}
