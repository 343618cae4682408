//! Fixture-driven tests: every rule is demonstrated by at least one
//! triggering and one non-triggering snippet, the combined JSON report is
//! pinned to a golden file, and the workspace itself must lint clean.

use mdbs_analyzer::rules::{self, SourceFile};
use mdbs_analyzer::{find_workspace_root, run_sources, run_workspace};
use serde_json::Value;
use std::path::Path;

/// A fixture README providing the Observability table the
/// `metric-docs-sync` fixtures are checked against.
const FIXTURE_README: &str = "\
# fixture

## Observability

| metric | kind | meaning |
|--------|------|---------|
| `quux.documented` | counter | a documented counter |
| `quux.<id>.events` | counter | pattern rows are exempt |

## Next section
";

fn fixture(virtual_path: &str, source: &str) -> SourceFile {
    SourceFile {
        path: virtual_path.to_string(),
        source: source.to_string(),
    }
}

/// Run one fixture through the engine and return the rule names that
/// fired. The README is omitted so only the metric-specific tests (which
/// pass [`FIXTURE_README`] themselves) exercise the bidirectional
/// docs-sync diff.
fn rules_fired(virtual_path: &str, source: &str) -> Vec<String> {
    rules_fired_with(virtual_path, source, None)
}

fn rules_fired_with(virtual_path: &str, source: &str, readme: Option<&str>) -> Vec<String> {
    let report = run_sources(&[fixture(virtual_path, source)], readme);
    let mut names: Vec<String> = report
        .violations
        .iter()
        .map(|v| v.rule.to_string())
        .collect();
    names.dedup();
    names
}

#[test]
fn silent_send_drop_bad_fires() {
    let report = run_sources(
        &[fixture(
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/silent_send_drop_bad.rs"),
        )],
        None,
    );
    // `let _ = ..send(..)`, `_ = ..send(..)` and `..send(..).ok();`, each
    // reported at the start of its statement.
    let fired: Vec<(&str, u32, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.line, v.col))
        .collect();
    assert_eq!(
        fired,
        [
            (rules::NO_SILENT_SEND_DROP, 6, 5),
            (rules::NO_SILENT_SEND_DROP, 17, 9),
            (rules::NO_SILENT_SEND_DROP, 21, 9),
        ]
    );
}

#[test]
fn silent_send_drop_good_is_quiet() {
    let fired = rules_fired(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/silent_send_drop_good.rs"),
    );
    assert!(fired.is_empty(), "unexpected: {fired:?}");
}

#[test]
fn metric_docs_bad_fires() {
    let report = run_sources(
        &[
            fixture(
                "crates/sim/src/fixture.rs",
                include_str!("fixtures/metric_docs_bad.rs"),
            ),
            // Registers `quux.documented` so the README row is not stale.
            fixture(
                "crates/sim/src/fixture_good.rs",
                include_str!("fixtures/metric_docs_good.rs"),
            ),
        ],
        Some(FIXTURE_README),
    );
    let fired: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert!(!fired.is_empty());
    assert!(
        fired.iter().all(|r| *r == rules::METRIC_DOCS_SYNC),
        "{fired:?}"
    );
}

#[test]
fn metric_docs_good_is_quiet() {
    let fired = rules_fired_with(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/metric_docs_good.rs"),
        Some(FIXTURE_README),
    );
    assert!(fired.is_empty(), "unexpected: {fired:?}");
}

#[test]
fn metric_docs_flags_stale_readme_rows() {
    // A documented metric that no code registers is also a violation.
    let report = run_sources(
        &[fixture("crates/sim/src/fixture.rs", "pub fn noop() {}\n")],
        Some(FIXTURE_README),
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, rules::METRIC_DOCS_SYNC);
    assert!(report.violations[0].message.contains("quux.documented"));
}

#[test]
fn bad_allow_fires() {
    let report = run_sources(
        &[fixture(
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/bad_allow.rs"),
        )],
        None,
    );
    let fired: Vec<(&str, u32)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    // Unknown rule, no justification, and each of two arguments after the
    // rule id (the item scope is no longer one either).
    assert_eq!(
        fired,
        [
            (rules::BAD_ALLOW, 6),
            (rules::BAD_ALLOW, 8),
            (rules::BAD_ALLOW, 13),
            (rules::BAD_ALLOW, 15),
        ]
    );
}

#[test]
fn channel_topology_bad_fires() {
    let report = run_sources(
        &[fixture(
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/channel_topology_bad.rs"),
        )],
        None,
    );
    let fired: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(fired, [rules::CHANNEL_TOPOLOGY]);
    assert_eq!(report.graphs.channels.len(), 1);
    assert!(report.graphs.channels[0].receivers.is_empty());
}

#[test]
fn channel_topology_good_is_quiet() {
    let report = run_sources(
        &[fixture(
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/channel_topology_good.rs"),
        )],
        None,
    );
    assert!(report.is_clean(), "{}", report.render_human());
    // Both channels resolved with a sender and a receiver, through the
    // struct-field wiring.
    assert_eq!(report.graphs.channels.len(), 2);
    for ch in &report.graphs.channels {
        assert!(!ch.senders.is_empty(), "channel {} has no sender", ch.tx);
        assert!(
            !ch.receivers.is_empty(),
            "channel {} has no receiver",
            ch.tx
        );
    }
}

#[test]
fn blocking_in_pump_bad_fires() {
    let report = run_sources(
        &[fixture(
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/blocking_in_pump_bad.rs"),
        )],
        None,
    );
    let fired: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    // Two findings: the unbounded `recv` directly in pump, and the
    // `sleep` one call level down.
    assert_eq!(fired, [rules::BLOCKING_IN_PUMP, rules::BLOCKING_IN_PUMP]);
    assert!(report
        .violations
        .iter()
        .any(|v| v.message.contains("sleep") && v.message.contains("idle")));
}

#[test]
fn blocking_in_pump_sees_a_lock_through_a_helper() {
    let src = "\
pub struct SiteWorker { stats: std::sync::Mutex<u64> }
impl SiteWorker {
    pub fn run(&mut self) { self.note(); }
    fn note(&self) { *self.stats.lock().unwrap() += 1; }
}
";
    let report = run_sources(&[fixture("crates/sim/src/fixture.rs", src)], None);
    let fired: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(fired, [rules::BLOCKING_IN_PUMP]);
    let msg = &report.violations[0].message;
    assert!(
        msg.contains("`.lock()` on `stats`")
            && msg.contains("`SiteWorker::run` -> `SiteWorker::note`"),
        "{msg}"
    );
}

#[test]
fn blocking_in_pump_good_is_quiet() {
    // try_recv in the pump is fine; the unbounded recv in `Harvest` is
    // unreachable from any entry point.
    let fired = rules_fired(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/blocking_in_pump_good.rs"),
    );
    assert!(fired.is_empty(), "unexpected: {fired:?}");
}

#[test]
fn stale_allow_fires_and_names_the_rule() {
    // The allow suppresses nothing: the send result is counted, so
    // `no-silent-send-drop` never trips inside its scope.
    let src = "\
pub fn publish(tx: &std::sync::mpsc::Sender<u64>, dropped: &mut u64) {
    // mdbs-lint: allow(no-silent-send-drop) — stale: the failure is counted below.
    if tx.send(1).is_err() {
        *dropped += 1;
    }
}
";
    let report = run_sources(&[fixture("crates/sim/src/fixture.rs", src)], None);
    let fired: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(fired, [rules::STALE_ALLOW]);
    assert_eq!(report.violations[0].line, 2, "points at the directive");
    assert!(
        report.violations[0]
            .message
            .contains("allow(no-silent-send-drop)"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn useful_allow_is_not_stale() {
    // The same directive actually suppressing a violation stays silent.
    let src = "\
pub fn publish(tx: &std::sync::mpsc::Sender<u64>) {
    // mdbs-lint: allow(no-silent-send-drop) — fixture: the receiver outlives every sender.
    let _ = tx.send(1);
}
";
    let fired = rules_fired("crates/sim/src/fixture.rs", src);
    assert!(fired.is_empty(), "unexpected: {fired:?}");
}

#[test]
fn unbalanced_delimiters_degrade_to_parse_error() {
    let report = run_sources(
        &[fixture(
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/parse_unbalanced.rs"),
        )],
        None,
    );
    let fired: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert!(!fired.is_empty());
    assert!(fired.iter().all(|r| *r == rules::PARSE_ERROR), "{fired:?}");
}

/// Every triggering fixture, combined — the input pinned by both the
/// JSON and the SARIF golden.
fn golden_sources() -> Vec<SourceFile> {
    vec![
        fixture(
            "crates/sim/src/bad_allow.rs",
            include_str!("fixtures/bad_allow.rs"),
        ),
        fixture(
            "crates/sim/src/metric_docs_bad.rs",
            include_str!("fixtures/metric_docs_bad.rs"),
        ),
        // Keeps the README's `quux.documented` row non-stale so the golden
        // report only contains deliberate violations.
        fixture(
            "crates/sim/src/metric_docs_good.rs",
            include_str!("fixtures/metric_docs_good.rs"),
        ),
        fixture(
            "crates/sim/src/silent_send_drop_bad.rs",
            include_str!("fixtures/silent_send_drop_bad.rs"),
        ),
        fixture(
            "crates/sim/src/channel_topology_bad.rs",
            include_str!("fixtures/channel_topology_bad.rs"),
        ),
        fixture(
            "crates/sim/src/blocking_in_pump_bad.rs",
            include_str!("fixtures/blocking_in_pump_bad.rs"),
        ),
        fixture(
            "crates/sim/src/parse_unbalanced.rs",
            include_str!("fixtures/parse_unbalanced.rs"),
        ),
    ]
}

/// Compare `got` against a pinned golden file; regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p mdbs-analyzer`.
fn assert_golden(got: &str, rel_path: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let text = if got.ends_with('\n') {
            got.to_string()
        } else {
            format!("{got}\n")
        };
        std::fs::write(&golden_path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(got.trim_end(), want.trim_end(), "golden {rel_path} drifted");
}

/// The combined report over every triggering fixture, pinned as a golden
/// JSON file.
#[test]
fn golden_report() {
    let report = run_sources(&golden_sources(), Some(FIXTURE_README));
    assert_golden(&report.to_json(), "tests/fixtures/golden.json");
}

/// The same combined report as SARIF 2.1.0 — what CI uploads to code
/// scanning.
#[test]
fn golden_sarif_report() {
    let report = run_sources(&golden_sources(), Some(FIXTURE_README));
    let sarif = report.to_sarif();
    // Minimal schema sanity independent of the pinned text.
    assert!(sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert_golden(&sarif, "tests/fixtures/golden.sarif");
}

/// The repository itself must lint clean — this is the same check CI runs
/// via `cargo run -p mdbs-analyzer -- --workspace`.
#[test]
fn workspace_self_check() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analyzer crate");
    let report = run_workspace(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "mdbs-lint found violations:\n{}",
        report.render_human()
    );
    assert!(report.files_scanned > 20);
}

/// The channel topology the analyzer recovers from the real threaded
/// harness, pinned as a golden DOT graph — CI uploads the same artifact.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test -p mdbs-analyzer`.
#[test]
fn threaded_channel_topology_matches_golden_dot() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analyzer crate");
    let report = run_workspace(&root).expect("workspace scan");
    let got = report
        .graphs
        .channel_dot(Some("crates/sim/src/threaded.rs"));
    // Both harness channels must resolve with live endpoints on each side.
    let threaded: Vec<_> = report
        .graphs
        .channels
        .iter()
        .filter(|c| c.file == "crates/sim/src/threaded.rs")
        .collect();
    assert_eq!(threaded.len(), 2, "expected both harness channels");
    for ch in &threaded {
        assert!(!ch.senders.is_empty(), "channel {} has no sender", ch.tx);
        assert!(
            !ch.receivers.is_empty(),
            "channel {} has no receiver",
            ch.tx
        );
    }
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/threaded_channels.dot");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(got.trim_end(), want.trim_end(), "channel topology drifted");
}

/// The three rule catalogs that users see — the README's rule table,
/// the SARIF driver's `rules` array, and the registered rule ids —
/// must agree exactly, in the same order. Adding a rule without
/// documenting it (or documenting one that no longer exists) fails here.
#[test]
fn rule_docs_sync() {
    let registered = rules::all_rules();

    // README: every `| `rule` | ... |` row of the Rules table, in order.
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analyzer crate");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let mut lines = readme.lines();
    lines
        .find(|l| l.starts_with("| rule | scope |"))
        .expect("README rule table header");
    let mut documented = Vec::new();
    for line in lines {
        let Some(rest) = line.strip_prefix("| `") else {
            if line.starts_with("|---") || line.starts_with("| ---") {
                continue; // header separator
            }
            break; // table ended
        };
        let name = rest.split('`').next().expect("closing backtick");
        documented.push(name.to_string());
    }
    assert_eq!(
        documented, registered,
        "README rule table out of sync with rules::all_rules()"
    );

    // SARIF: the driver catalog declares the same ids at the same indices.
    let sarif = run_sources(&[], None).to_sarif();
    let log = serde_json::from_str_value(&sarif).expect("SARIF parses");
    let Some(Value::Arr(runs)) = log.get("runs") else {
        panic!("runs array");
    };
    let Some(Value::Arr(rules)) = runs
        .first()
        .and_then(|r| r.get("tool"))
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
    else {
        panic!("driver rules array");
    };
    let catalog: Vec<&str> = rules
        .iter()
        .map(|r| match r.get("id") {
            Some(Value::Str(id)) => id.as_str(),
            other => panic!("rule id, got {other:?}"),
        })
        .collect();
    assert_eq!(
        catalog, registered,
        "SARIF driver catalog out of sync with rules::all_rules()"
    );
}
