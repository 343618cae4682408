//! What a `--workspace` run observably does on disk, against throwaway
//! workspaces under the test target's scratch directory: which manifest
//! counts as the root, which files are scanned and in what order, and
//! that a run is a pure function of the tree. And, against the real
//! tree, the mutation check: every rule the analyzer keeps catches a
//! seeded one-line regression of code that exists.

use mdbs_analyzer::rules::{self, SourceFile};
use mdbs_analyzer::{collect_files, find_workspace_root, run_sources, run_workspace};
use std::fs;
use std::path::{Path, PathBuf};

/// A discarded send result: fires `no-silent-send-drop`.
const VIOLATION: &str = "\
pub fn publish(tx: &std::sync::mpsc::Sender<u64>) {
    let _ = tx.send(1);
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

/// One seeded regression: in `file`, the first `find` after the first
/// `after` becomes `replace`, and exactly `rule` must fire, in `file`.
struct Mutation {
    rule: &'static str,
    file: &'static str,
    after: &'static str,
    find: &'static str,
    replace: &'static str,
}

const GTM2: &str = "crates/core/src/gtm2.rs";
const KERNEL_DENSE: &str = "crates/core/src/kernel_dense.rs";
const THREADED: &str = "crates/sim/src/threaded.rs";

const MUTATIONS: [Mutation; 7] = [
    // A sleep in the GTM2 pump.
    Mutation {
        rule: rules::BLOCKING_IN_PUMP,
        file: GTM2,
        after: "impl Gtm2 {",
        find: "    pub fn pump(&mut self) -> Vec<SchemeEffect> {\n",
        replace: "    pub fn pump(&mut self) -> Vec<SchemeEffect> {\n        \
                  std::thread::sleep(std::time::Duration::from_millis(1));\n",
    },
    // An unwrap in the GTM2 pump.
    Mutation {
        rule: rules::NO_PANIC,
        file: GTM2,
        after: "    pub fn pump(&mut self) -> Vec<SchemeEffect> {\n",
        find: "        out.effects\n",
        replace: "        Some(out.effects).unwrap()\n",
    },
    // A wildcard arm in Scheme 2's `cond`.
    Mutation {
        rule: rules::EXHAUSTIVE_SCHEME_MATCH,
        file: KERNEL_DENSE,
        after: "impl Gtm2Scheme for Scheme2Dense {",
        find: "            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,\n",
        replace: "            _ => true,\n",
    },
    // A channel the live runtime sends into and nobody drains.
    Mutation {
        rule: rules::CHANNEL_TOPOLOGY,
        file: THREADED,
        after: "    pub fn run(&self, programs: Vec<GlobalTransaction>) -> ThreadedRunReport {\n",
        find: "        let (to_coord, from_sites) = bounded::<FromSite>(1024);\n",
        replace: "        let (to_coord, from_sites) = bounded::<FromSite>(1024);\n        \
                  let (orphan_tx, _orphan_rx) = bounded::<u8>(1);\n        \
                  if orphan_tx.send(0).is_err() {\n            return Default::default();\n        }\n",
    },
    // The shutdown send, its failure no longer counted.
    Mutation {
        rule: rules::NO_SILENT_SEND_DROP,
        file: THREADED,
        after: "        // Shut down sites and collect histories.\n",
        find: "            if tx.send(ToSite::Shutdown).is_err() {\n                \
               send_dropped += 1;\n            }\n",
        replace: "            tx.send(ToSite::Shutdown).ok();\n",
    },
    // The site worker's counting helper, no longer counting.
    Mutation {
        rule: rules::NO_SILENT_SEND_DROP,
        file: THREADED,
        after: "    fn send_counted(&mut self, msg: FromSite) {\n",
        find: "        if self.tx.send(msg).is_err() {\n            \
               self.send_dropped += 1;\n        }\n",
        replace: "        _ = self.tx.send(msg);\n",
    },
    // A metric the README does not document.
    Mutation {
        rule: rules::METRIC_DOCS_SYNC,
        file: THREADED,
        after: "        pool.export_metrics(&mut registry);\n",
        find: "        registry.inc(\"threaded.send_dropped\", send_dropped);\n",
        replace: "        registry.inc(\"threaded.send_dropped\", send_dropped);\n        \
                  registry.inc(\"threaded.never_documented\", 1);\n",
    },
];

/// ROADMAP item 9's decision procedure, kept as a test: a rule stays in
/// the analyzer only while a one-line edit of the real tree trips it.
/// The clean tree reports nothing; each edit makes exactly its rule
/// fire, in the edited file. An edit whose anchor text has drifted away
/// fails the test rather than passing vacuously.
#[test]
fn every_surviving_rule_catches_a_seeded_mutation_of_the_real_tree() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analyzer crate");
    let sources: Vec<SourceFile> = collect_files(&root)
        .unwrap()
        .into_iter()
        .map(|path| SourceFile {
            source: fs::read_to_string(root.join(&path)).unwrap(),
            path,
        })
        .collect();
    let readme = fs::read_to_string(root.join("README.md")).unwrap();
    let clean = run_sources(&sources, Some(&readme));
    assert!(clean.is_clean(), "{}", clean.render_human());

    for m in &MUTATIONS {
        let mut mutated = sources.clone();
        let target = mutated
            .iter_mut()
            .find(|f| f.path == m.file)
            .unwrap_or_else(|| panic!("{} is no longer in the workspace", m.file));
        let scope = target
            .source
            .find(m.after)
            .unwrap_or_else(|| panic!("{}: anchor {:?} not found", m.file, m.after));
        let at = scope
            + target.source[scope..]
                .find(m.find)
                .unwrap_or_else(|| panic!("{}: text {:?} not found", m.file, m.find));
        target
            .source
            .replace_range(at..at + m.find.len(), m.replace);

        let report = run_sources(&mutated, Some(&readme));
        let fired: Vec<(&str, &str)> = report
            .violations
            .iter()
            .map(|v| (v.rule, v.file.as_str()))
            .collect();
        assert!(
            !fired.is_empty() && fired.iter().all(|&f| f == (m.rule, m.file)),
            "seeding {:?} into {} should trip exactly {}:\n{}",
            m.replace,
            m.file,
            m.rule,
            report.render_human()
        );
    }

    // All six suppressible rules are covered, so none survives untested.
    for rule in rules::RULES {
        assert!(
            MUTATIONS.iter().any(|m| m.rule == rule),
            "no mutation for {rule}"
        );
    }
}
