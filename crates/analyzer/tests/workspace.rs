//! What a `--workspace` run observably does on disk, against throwaway
//! workspaces under the test target's scratch directory: which manifest
//! counts as the root, which files are scanned and in what order, and
//! that a run is a pure function of the tree.

use mdbs_analyzer::{collect_files, find_workspace_root, run_workspace};
use std::fs;
use std::path::{Path, PathBuf};

/// A send under a live guard: fires `no-lock-across-send`.
const VIOLATION: &str = "\
pub fn publish(state: &std::sync::Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {
    let guard = state.lock().unwrap();
    tx.send(*guard).ok();
}
";

/// A fresh directory per test (tests run on parallel threads).
fn temp_root(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("mdbs-lint-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_file(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, contents).unwrap();
}

#[test]
fn sweep_skips_dirs_orders_bytewise_and_is_reproducible() {
    let root = temp_root("sweep");
    // `-` < `/` < `_` bytewise; component-wise `Path` ordering would put
    // `a/` first.
    write_file(&root, "crates/a/src/lib.rs", VIOLATION);
    write_file(&root, "crates/a-b/src/lib.rs", "pub fn f() {}\n");
    write_file(&root, "crates/a_b/src/lib.rs", "pub fn g() {}\n");
    write_file(&root, "crates/a/notes.txt", "not rust\n");
    for skipped in [
        "vendor/dep/src/lib.rs",
        "target/debug/build.rs",
        "crates/a/tests/it.rs",
        "crates/a/benches/b.rs",
        "crates/a/src/fixtures/bad.rs",
        "results/gen.rs",
        ".hidden/x.rs",
    ] {
        write_file(&root, skipped, VIOLATION);
    }

    assert_eq!(
        collect_files(&root).unwrap(),
        [
            "crates/a-b/src/lib.rs",
            "crates/a/src/lib.rs",
            "crates/a_b/src/lib.rs",
        ]
    );
    let first = run_workspace(&root).unwrap();
    assert_eq!(first.files_scanned, 3);
    let files: Vec<&str> = first.violations.iter().map(|v| v.file.as_str()).collect();
    assert_eq!(files, ["crates/a/src/lib.rs"], "{}", first.render_human());
    let second = run_workspace(&root).unwrap();
    assert_eq!(first.to_json(), second.to_json());

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn memberless_nested_workspace_is_not_the_root() {
    let root = temp_root("nested");
    write_file(
        &root,
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
    );
    // A standalone package that opts out of the parent workspace, the
    // way `benchmark/Cargo.toml` does.
    write_file(
        &root,
        "bench/Cargo.toml",
        "[package]\nname = \"bench\"\n\n[workspace]\n",
    );
    // A manifest that only *mentions* a workspace.
    write_file(
        &root,
        "bench/inner/Cargo.toml",
        "# not a [workspace]\n[package]\nname = \"inner\"\nmembers = \"decoy\"\n",
    );
    fs::create_dir_all(root.join("bench/inner/src")).unwrap();

    for start in ["", "bench", "bench/inner/src"] {
        assert_eq!(
            find_workspace_root(&root.join(start)).as_deref(),
            Some(root.as_path()),
            "from `{start}`"
        );
    }

    let _ = fs::remove_dir_all(&root);
}
