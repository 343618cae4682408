//! Property test for the incremental engine: under arbitrary edit
//! sequences over a small workspace, a warm run against a persistent
//! fact database must stay byte-identical to a cold `--no-cache` run —
//! the oracle the whole cache design is judged against. Catches stale
//! invalidation, digest collisions in practice, and dirty-region
//! under-propagation.

use mdbs_analyzer::report::Report;
use mdbs_analyzer::{run_workspace_with, RunOptions};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Source templates an edit can swap in. Deliberately distinct lengths:
/// the stat manifest treats same-size-same-mtime as unchanged (the
/// classic make racy-clean caveat), and two writes can land in one
/// filesystem timestamp tick during a fast test.
const TEMPLATES: [&str; 6] = [
    // clean leaf
    "pub fn add(a: u64, b: u64) -> u64 {\n    a + b\n}\n",
    // no-lock-across-send violation
    "pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {\n    \
     let guard = state.lock().unwrap();\n    tx.send(*guard).ok();\n}\n",
    // clean: guard dropped before the send
    "pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {\n    \
     let guard = state.lock().unwrap();\n    drop(guard);\n    tx.send(1).ok();\n}\n",
    // used allow directive
    "pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {\n    \
     let guard = state.lock().unwrap();\n    // mdbs-lint: allow(no-lock-across-send) — fixture: non-blocking send.\n    \
     tx.send(*guard).ok();\n}\n",
    // stale allow directive
    "pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {\n    \
     let guard = state.lock().unwrap();\n    drop(guard);\n    \
     // mdbs-lint: allow(no-lock-across-send) — stale: guard already dropped.\n    tx.send(1).ok();\n}\n",
    // cross-function call, exercises the interprocedural dirty region
    "pub fn helper(state: &std::sync::Mutex<u64>) -> u64 {\n    let g = state.lock().unwrap();\n    \
     *g\n}\n\npub fn call_helper(state: &std::sync::Mutex<u64>) -> u64 {\n    helper(state)\n}\n",
];

const FILES: [&str; 3] = [
    "crates/sim/src/a.rs",
    "crates/sim/src/b.rs",
    "crates/sim/src/c.rs",
];

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn temp_root() -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mdbs-lint-prop-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn stripped(mut report: Report) -> String {
    report.wall_ms = None;
    report.cache = None;
    report.to_json()
}

fn warm_vs_cold(root: &Path, cache_dir: &Path) -> (String, String) {
    let warm = run_workspace_with(
        root,
        RunOptions {
            cache_dir: Some(cache_dir.to_path_buf()),
            jobs: 1,
        },
    )
    .unwrap();
    let cold = run_workspace_with(root, RunOptions::default()).unwrap();
    (stripped(warm), stripped(cold))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn warm_report_is_byte_identical_to_cold_oracle(
        init in prop::collection::vec(0usize..TEMPLATES.len(), FILES.len()),
        edits in prop::collection::vec((0usize..FILES.len(), 0usize..TEMPLATES.len()), 1..6),
    ) {
        let root = temp_root();
        let cache_dir = root.join(".lint-cache");
        for (rel, &t) in FILES.iter().zip(&init) {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, TEMPLATES[t]).unwrap();
        }
        let (warm, cold) = warm_vs_cold(&root, &cache_dir);
        prop_assert_eq!(warm, cold, "initial populate diverged");

        for (step, &(f, t)) in edits.iter().enumerate() {
            fs::write(root.join(FILES[f]), TEMPLATES[t]).unwrap();
            let (warm, cold) = warm_vs_cold(&root, &cache_dir);
            prop_assert_eq!(warm, cold, "diverged at edit {} ({} -> template {})", step, FILES[f], t);
        }
        let _ = fs::remove_dir_all(&root);
    }
}
