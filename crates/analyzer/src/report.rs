//! Machine-readable and human-readable lint reports.
//!
//! The JSON schema (stable; CI parses it):
//!
//! ```json
//! {
//!   "tool": "mdbs-lint",
//!   "version": "0.1.0",
//!   "files_scanned": 61,
//!   "total_violations": 2,
//!   "by_rule": { "no-silent-send-drop": 2 },
//!   "graphs": {
//!     "channel_topology": { "channels": [
//!       { "tx": "...", "rx": "...", "file": "...", "line": 1,
//!         "created_in": "...", "senders": [...], "receivers": [...] } ] }
//!   },
//!   "violations": [
//!     { "rule": "no-silent-send-drop", "file": "crates/sim/src/threaded.rs",
//!       "line": 337, "col": 40, "level": "error", "message": "..." }
//!   ]
//! }
//! ```
//!
//! [`Report::to_sarif`] emits the same findings as SARIF 2.1.0 for GitHub
//! code scanning.
//!
//! Hand-written emission — the analyzer is dependency-free by design, so
//! it can never be the crate that drags a vendored tree into the build.

use crate::graph::Graphs;
use crate::rules::{rule_description, rule_level, Violation};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tool version stamped into every report.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The outcome of one analysis run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by file/line/col/rule.
    pub violations: Vec<Violation>,
    /// The channel-topology graph from the interprocedural pass.
    pub graphs: Graphs,
}

impl Report {
    /// True iff the run found nothing.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts keyed by rule name.
    pub fn by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Serialize to the stable JSON schema.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"tool\": \"mdbs-lint\",");
        let _ = writeln!(s, "  \"version\": {},", json_str(VERSION));
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"total_violations\": {},", self.violations.len());
        s.push_str("  \"by_rule\": {");
        let by_rule = self.by_rule();
        for (i, (rule, n)) in by_rule.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(s, "    {}: {n}", json_str(rule));
        }
        if !by_rule.is_empty() {
            s.push('\n');
            s.push_str("  ");
        }
        s.push_str("},\n");
        let _ = writeln!(s, "  \"graphs\": {},", self.graphs.to_json());
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(
                s,
                "    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"level\": {}, \"message\": {} }}",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                v.col,
                json_str(rule_level(v.rule)),
                json_str(&v.message)
            );
        }
        if !self.violations.is_empty() {
            s.push('\n');
            s.push_str("  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Serialize as a SARIF 2.1.0 log for GitHub code scanning. The
    /// `rules` array always carries the full rule set (suppressible plus
    /// meta-rules) so `ruleIndex` stays stable across runs.
    pub fn to_sarif(&self) -> String {
        let all_rules = crate::rules::all_rules();
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(
            s,
            "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\","
        );
        let _ = writeln!(s, "  \"version\": \"2.1.0\",");
        s.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
        let _ = writeln!(s, "          \"name\": \"mdbs-lint\",");
        let _ = writeln!(s, "          \"version\": {},", json_str(VERSION));
        s.push_str("          \"rules\": [");
        for (i, rule) in all_rules.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(
                s,
                "            {{ \"id\": {}, \"shortDescription\": {{ \"text\": {} }}, \
                 \"defaultConfiguration\": {{ \"level\": {} }} }}",
                json_str(rule),
                json_str(rule_description(rule)),
                json_str(rule_level(rule))
            );
        }
        s.push_str("\n          ]\n        }\n      },\n");
        s.push_str("      \"results\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let rule_index = all_rules
                .iter()
                .position(|r| *r == v.rule)
                .unwrap_or(all_rules.len() - 1);
            let _ = write!(
                s,
                "        {{\n          \"ruleId\": {},\n          \"ruleIndex\": {},\n          \
                 \"level\": {},\n          \"message\": {{ \"text\": {} }},\n          \
                 \"locations\": [\n            {{ \"physicalLocation\": {{\n              \
                 \"artifactLocation\": {{ \"uri\": {}, \"uriBaseId\": \"%SRCROOT%\" }},\n              \
                 \"region\": {{ \"startLine\": {}, \"startColumn\": {} }}\n            }} }}\n          \
                 ]\n        }}",
                json_str(v.rule),
                rule_index,
                json_str(rule_level(v.rule)),
                json_str(&v.message),
                json_str(&v.file),
                v.line.max(1),
                v.col.max(1)
            );
        }
        if !self.violations.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    }\n  ]\n}\n");
        s
    }

    /// Render compiler-style human diagnostics.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            let _ = writeln!(
                s,
                "{}[{}]: {}\n  --> {}:{}:{}",
                rule_level(v.rule),
                v.rule,
                v.message,
                v.file,
                v.line,
                v.col
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(
                s,
                "mdbs-lint: {} files scanned, no violations",
                self.files_scanned
            );
        } else {
            let _ = writeln!(
                s,
                "mdbs-lint: {} violation(s) across {} file(s) scanned",
                self.violations.len(),
                self.files_scanned
            );
        }
        s
    }
}

/// Escape a string per RFC 8259.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(files_scanned: usize, violations: Vec<Violation>) -> Report {
        Report {
            files_scanned,
            violations,
            graphs: Graphs::default(),
        }
    }

    fn vio(rule: &'static str, file: &str, line: u32, message: &str) -> Violation {
        Violation {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message: message.to_string(),
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("em—dash"), "\"em—dash\"");
        // Whatever it emits, a JSON parser reads the original back.
        let nasty = "tab\t quote\" back\\ nl\n ctrl\u{0001} em—dash";
        let doc = format!("{{ \"k\": {} }}", json_str(nasty));
        let v = serde_json::from_str_value(&doc).expect("parse");
        assert_eq!(v.get("k"), Some(&serde_json::Value::Str(nasty.to_string())));
    }

    #[test]
    fn empty_report_shape() {
        let r = bare(3, vec![]);
        let j = r.to_json();
        assert!(j.contains("\"total_violations\": 0"));
        assert!(j.contains("\"by_rule\": {}"));
        assert!(j.contains("\"graphs\": {"));
        assert!(j.contains("\"channels\""));
        assert!(j.contains("\"violations\": []"));
        assert!(r.is_clean());
    }

    #[test]
    fn levels_in_json_and_sarif() {
        let r = bare(
            1,
            vec![
                vio(
                    crate::rules::NO_SILENT_SEND_DROP,
                    "crates/sim/src/threaded.rs",
                    7,
                    "m",
                ),
                vio(
                    crate::rules::STALE_ALLOW,
                    "crates/sim/src/threaded.rs",
                    9,
                    "s",
                ),
            ],
        );
        let j = r.to_json();
        assert!(j.contains("\"level\": \"error\""));
        assert!(j.contains("\"level\": \"warning\""));
        let s = r.to_sarif();
        assert!(s.contains("\"level\": \"error\""));
        assert!(s.contains("\"level\": \"warning\""));
    }

    #[test]
    fn sarif_shape() {
        let r = bare(
            1,
            vec![Violation {
                rule: crate::rules::NO_SILENT_SEND_DROP,
                file: "crates/sim/src/threaded.rs".to_string(),
                line: 7,
                col: 3,
                message: "a \"quoted\" message".to_string(),
            }],
        );
        let s = r.to_sarif();
        assert!(s.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"mdbs-lint\""));
        assert!(s.contains("\"ruleId\": \"no-silent-send-drop\""));
        assert!(s.contains("\"ruleIndex\": 0"));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("a \\\"quoted\\\" message"));
        // Every suppressible rule plus the meta-rules is declared.
        for rule in crate::rules::RULES {
            assert!(s.contains(&format!("\"id\": \"{rule}\"")), "{rule}");
        }
        assert!(s.contains("\"id\": \"stale-allow\""));
    }
}
