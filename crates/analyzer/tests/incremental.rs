//! Integration tests for the fact database: warm runs must be
//! byte-identical to cold ones across edit sequences, corrupt caches
//! must degrade to cold starts, fully-warm runs must not rewrite the
//! database, and the baseline diff gate must classify findings
//! end-to-end. Each test builds a throwaway workspace under the OS
//! temp dir and drives [`run_workspace_with`] against a `--no-cache`
//! oracle.

use mdbs_analyzer::report::{baseline_from_json, Report};
use mdbs_analyzer::rules::{self, Level};
use mdbs_analyzer::{cache, jsonv, run_workspace_with, RunOptions};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A send under a live guard: fires `no-lock-across-send`.
const VIOLATION: &str = "\
pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {
    let guard = state.lock().unwrap();
    tx.send(*guard).ok();
}
";

/// The same send with the guard already dropped: clean.
const CLEAN: &str = "\
pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {
    let guard = state.lock().unwrap();
    drop(guard);
    tx.send(1).ok();
}
";

/// A directive suppressing a real finding: clean, allow is used.
const ALLOW_USED: &str = "\
pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {
    let guard = state.lock().unwrap();
    // mdbs-lint: allow(no-lock-across-send) — fixture: the send is non-blocking here.
    tx.send(*guard).ok();
}
";

/// The same directive with the guard dropped first: fires `stale-allow`.
const ALLOW_STALE: &str = "\
pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {
    let guard = state.lock().unwrap();
    drop(guard);
    // mdbs-lint: allow(no-lock-across-send) — stale: the guard is already dropped.
    tx.send(1).ok();
}
";

const HELPER: &str = "\
pub fn helper(state: &std::sync::Mutex<u64>) -> u64 {
    let g = state.lock().unwrap();
    *g
}

pub fn call_helper(state: &std::sync::Mutex<u64>) -> u64 {
    helper(state)
}
";

static NEXT: AtomicUsize = AtomicUsize::new(0);

/// A unique throwaway directory per call (pid + counter, so parallel
/// test binaries and repeated runs never collide).
fn temp_root(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mdbs-lint-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_file(root: &Path, rel: &str, source: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, source).unwrap();
}

fn cold(root: &Path) -> Report {
    run_workspace_with(root, RunOptions::default()).unwrap()
}

fn warm(root: &Path, cache_dir: &Path) -> Report {
    run_workspace_with(
        root,
        RunOptions {
            cache_dir: Some(cache_dir.to_path_buf()),
            jobs: 1,
        },
    )
    .unwrap()
}

/// Canonical findings JSON: everything except run-local fields
/// (`wall_clock_ms`, `cache`), which legitimately differ cold vs warm.
fn stripped(mut report: Report) -> String {
    report.wall_ms = None;
    report.cache = None;
    report.to_json()
}

fn assert_warm_matches_cold(root: &Path, cache_dir: &Path, label: &str) -> Report {
    let w = warm(root, cache_dir);
    let c = cold(root);
    assert_eq!(
        stripped(w),
        stripped(c.clone()),
        "warm and cold reports diverged: {label}"
    );
    c
}

#[test]
fn warm_equals_cold_across_edit_sequence() {
    let root = temp_root("editseq");
    let cache_dir = root.join(".lint-cache");
    write_file(&root, "crates/sim/src/a.rs", CLEAN);
    write_file(&root, "crates/sim/src/b.rs", HELPER);
    write_file(&root, "crates/sim/src/c.rs", ALLOW_USED);

    // Cold populate, then a fully-warm replay.
    let r = assert_warm_matches_cold(&root, &cache_dir, "populate");
    assert!(r.is_clean(), "{}", r.render_human());
    assert_warm_matches_cold(&root, &cache_dir, "fully warm");

    // Introduce a violation, revert it, then dirty a different file.
    write_file(&root, "crates/sim/src/a.rs", VIOLATION);
    let r = assert_warm_matches_cold(&root, &cache_dir, "edit a.rs");
    assert_eq!(r.violations.len(), 1);
    assert_eq!(r.violations[0].rule, rules::NO_LOCK_ACROSS_SEND);

    write_file(&root, "crates/sim/src/a.rs", CLEAN);
    let r = assert_warm_matches_cold(&root, &cache_dir, "revert a.rs");
    assert!(r.is_clean(), "{}", r.render_human());

    write_file(&root, "crates/sim/src/b.rs", VIOLATION);
    let r = assert_warm_matches_cold(&root, &cache_dir, "edit b.rs");
    assert_eq!(r.violations.len(), 1);
    assert_eq!(r.violations[0].file, "crates/sim/src/b.rs");

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn warm_edit_reuses_unchanged_files() {
    let root = temp_root("reuse");
    let cache_dir = root.join(".lint-cache");
    write_file(&root, "crates/sim/src/a.rs", CLEAN);
    write_file(&root, "crates/sim/src/b.rs", HELPER);
    write_file(&root, "crates/sim/src/c.rs", ALLOW_USED);
    warm(&root, &cache_dir);

    write_file(&root, "crates/sim/src/a.rs", VIOLATION);
    let r = warm(&root, &cache_dir);
    let stats = r.cache.expect("cache stats on a cached run");
    assert_eq!(
        (stats.file_hits, stats.file_misses),
        (2, 1),
        "only the edited file re-runs the front end"
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stale_allow_on_cached_then_dirtied_file() {
    // A used allow goes into the cache; an edit that makes it stale must
    // surface `stale-allow` on the warm path exactly as a cold run would.
    let root = temp_root("staleallow");
    let cache_dir = root.join(".lint-cache");
    write_file(&root, "crates/sim/src/a.rs", ALLOW_USED);
    write_file(&root, "crates/sim/src/b.rs", HELPER);
    let r = assert_warm_matches_cold(&root, &cache_dir, "allow used");
    assert!(r.is_clean(), "{}", r.render_human());

    write_file(&root, "crates/sim/src/a.rs", ALLOW_STALE);
    let r = assert_warm_matches_cold(&root, &cache_dir, "allow dirtied stale");
    let fired: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
    assert_eq!(fired, [rules::STALE_ALLOW]);
    assert_eq!(r.violations[0].line, 4, "points at the directive");

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn fully_warm_run_does_not_rewrite_the_database() {
    let root = temp_root("skipsave");
    let cache_dir = root.join(".lint-cache");
    write_file(&root, "crates/sim/src/a.rs", CLEAN);
    write_file(&root, "crates/sim/src/b.rs", HELPER);
    warm(&root, &cache_dir);

    let db_dir = cache_dir.join(format!("{:016x}", cache::schema_hash()));
    let mtime = |name: &str| fs::metadata(db_dir.join(name)).unwrap().modified().unwrap();
    let before = (
        mtime("facts.bin"),
        mtime("graph.bin"),
        mtime("manifest.bin"),
    );

    let r = warm(&root, &cache_dir);
    let stats = r.cache.expect("cache stats");
    assert_eq!((stats.file_hits, stats.file_misses), (2, 0));
    assert_eq!(stats.fn_misses, 0);
    let after = (
        mtime("facts.bin"),
        mtime("graph.bin"),
        mtime("manifest.bin"),
    );
    assert_eq!(before, after, "fully-warm run must skip the rewrite");

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_cache_degrades_to_cold() {
    let root = temp_root("corrupt");
    let cache_dir = root.join(".lint-cache");
    write_file(&root, "crates/sim/src/a.rs", VIOLATION);
    write_file(&root, "crates/sim/src/b.rs", HELPER);
    warm(&root, &cache_dir);

    let db_dir = cache_dir.join(format!("{:016x}", cache::schema_hash()));
    for name in ["facts.bin", "graph.bin", "manifest.bin"] {
        fs::write(db_dir.join(name), b"definitely not a fact database").unwrap();
    }
    let r = assert_warm_matches_cold(&root, &cache_dir, "corrupt db");
    assert_eq!(r.violations.len(), 1);
    let stats = warm(&root, &cache_dir).cache.expect("cache stats");
    assert_eq!(
        (stats.file_hits, stats.file_misses),
        (2, 0),
        "the run after the corrupt one rebuilt a usable database"
    );

    let _ = fs::remove_dir_all(&root);
}

/// `status` values of the violations array, via the public JSON.
fn statuses(report: &Report) -> Vec<String> {
    let json = jsonv::parse(&report.to_json()).unwrap();
    json.get("violations")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|v| {
            v.get("status")
                .and_then(|s| s.as_str())
                .unwrap_or("(none)")
                .to_string()
        })
        .collect()
}

#[test]
fn baseline_diff_classifies_new_fixed_and_preexisting() {
    let root = temp_root("baseline");
    write_file(&root, "crates/sim/src/a.rs", VIOLATION);
    write_file(&root, "crates/sim/src/b.rs", CLEAN);
    let baseline_text = cold(&root).to_json();

    // Same old finding in a.rs plus a brand-new one in b.rs.
    write_file(&root, "crates/sim/src/b.rs", VIOLATION);
    let mut r = cold(&root);
    r.apply_baseline("old.json", baseline_from_json(&baseline_text).unwrap());
    assert_eq!(statuses(&r), ["pre-existing", "new"]);
    assert!(r.fails(Level::Error), "a new error finding gates");
    assert!(
        r.baseline.as_ref().unwrap().fixed.is_empty(),
        "nothing was fixed"
    );

    // The old finding fixed, only the new one left: still gates.
    write_file(&root, "crates/sim/src/a.rs", CLEAN);
    let mut r = cold(&root);
    r.apply_baseline("old.json", baseline_from_json(&baseline_text).unwrap());
    assert_eq!(statuses(&r), ["new"]);
    assert!(r.fails(Level::Error));
    let fixed = &r.baseline.as_ref().unwrap().fixed;
    assert_eq!(fixed.len(), 1);
    assert_eq!(fixed[0].file, "crates/sim/src/a.rs");

    // Only pre-existing findings left: the gate passes.
    write_file(&root, "crates/sim/src/a.rs", VIOLATION);
    write_file(&root, "crates/sim/src/b.rs", CLEAN);
    let mut r = cold(&root);
    r.apply_baseline("old.json", baseline_from_json(&baseline_text).unwrap());
    assert_eq!(statuses(&r), ["pre-existing"]);
    assert!(!r.fails(Level::Note), "pre-existing findings do not gate");

    let _ = fs::remove_dir_all(&root);
}
