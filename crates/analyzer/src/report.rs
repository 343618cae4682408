//! Machine-readable and human-readable lint reports.
//!
//! The JSON schema (stable; CI parses it):
//!
//! ```json
//! {
//!   "tool": "mdbs-lint",
//!   "version": "0.1.0",
//!   "files_scanned": 61,
//!   "wall_clock_ms": 412,
//!   "cache": { "file_hits": 60, "file_misses": 1, "fn_hits": 240, "fn_misses": 9 },
//!   "total_violations": 2,
//!   "by_rule": { "no-panic-in-scheduler": 2 },
//!   "baseline": {
//!     "path": "baseline.json", "new": 1, "pre_existing": 1, "fixed": 0,
//!     "fixed_findings": []
//!   },
//!   "graphs": {
//!     "lock_order": { "nodes": [...], "edges": [...], "cycles": [...] },
//!     "channel_topology": { "channels": [
//!       { "tx": "...", "rx": "...", "file": "...", "line": 1,
//!         "created_in": "...", "senders": [...], "receivers": [...] } ] },
//!     "cfgs": [ { "fn": "Gtm2::pump", "file": "...", "line": 1,
//!                 "blocks": 9, "edges": 11 } ]
//!   },
//!   "violations": [
//!     { "rule": "no-panic-in-scheduler", "file": "crates/core/src/gtm1.rs",
//!       "line": 337, "col": 40, "level": "error", "status": "new",
//!       "message": "..." }
//!   ]
//! }
//! ```
//!
//! `wall_clock_ms` appears only on timed workspace runs — CI enforces the
//! lint self-performance budget against it. `cache` appears only when a
//! fact database was consulted (`--cache-dir`), `baseline` and per-finding
//! `status` only under `--baseline`. [`Report::to_sarif`] emits the same
//! findings as SARIF 2.1.0 for GitHub code scanning, mapping the baseline
//! classification onto SARIF `baselineState`.
//!
//! Hand-written emission — the analyzer is dependency-free by design, so
//! it can never be the crate that drags a vendored tree into the build.

use crate::graph::Graphs;
use crate::jsonv::Json;
use crate::rules::{level_name, rule_description, rule_level, Level, Violation};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tool version stamped into every report.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Fact-database reuse counters for one run (present only when
/// `--cache-dir` was given).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Files whose front-end artifacts were loaded by fingerprint.
    pub file_hits: usize,
    /// Files re-analyzed from source.
    pub file_misses: usize,
    /// Per-function interprocedural results replayed from the cache.
    pub fn_hits: usize,
    /// Per-function interprocedural results recomputed.
    pub fn_misses: usize,
}

/// One finding loaded from a `--baseline` report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineFinding {
    /// Rule id as recorded in the baseline.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line in the baseline run.
    pub line: u32,
    /// Full diagnostic message.
    pub message: String,
}

/// Classification of a current finding against the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingStatus {
    /// Not present in the baseline — the only kind that gates.
    New,
    /// Matched a baseline finding.
    PreExisting,
}

/// Result of diffing this run against a `--baseline` report.
#[derive(Clone, Debug)]
pub struct BaselineDiff {
    /// Path the baseline was loaded from (echoed in output).
    pub path: String,
    /// Per-violation status, parallel to `Report::violations`.
    pub statuses: Vec<FindingStatus>,
    /// Baseline findings absent from this run.
    pub fixed: Vec<BaselineFinding>,
}

/// The outcome of one analysis run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by file/line/col/rule.
    pub violations: Vec<Violation>,
    /// Lock-order and channel-topology graphs from the interprocedural pass.
    pub graphs: Graphs,
    /// Wall clock of the full sweep in milliseconds; `Some` only for
    /// timed workspace runs (the CI perf budget reads it).
    pub wall_ms: Option<u64>,
    /// Fact-database reuse counters; `Some` only when `--cache-dir` ran.
    pub cache: Option<CacheStats>,
    /// Baseline diff; `Some` only after [`Report::apply_baseline`].
    pub baseline: Option<BaselineDiff>,
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

    /// Classify every current violation against `baseline` findings.
    ///
    /// Matching is a two-pass multiset intersection: first on exact
    /// `(rule, file, message)`, then — because messages embed line
    /// numbers that drift when unrelated lines are inserted — on
    /// `(rule, file)` for whatever is left. Each baseline finding
    /// matches at most one current violation; unmatched baseline
    /// entries are reported as fixed.
    pub fn apply_baseline(&mut self, path: &str, baseline: Vec<BaselineFinding>) {
        let mut taken = vec![false; baseline.len()];
        let mut statuses = vec![FindingStatus::New; self.violations.len()];
        for (vi, v) in self.violations.iter().enumerate() {
            if let Some(bi) = baseline.iter().enumerate().position(|(i, b)| {
                !taken[i] && b.rule == v.rule && b.file == v.file && b.message == v.message
            }) {
                taken[bi] = true;
                statuses[vi] = FindingStatus::PreExisting;
            }
        }
        for (vi, v) in self.violations.iter().enumerate() {
            if statuses[vi] == FindingStatus::New {
                if let Some(bi) = baseline
                    .iter()
                    .enumerate()
                    .position(|(i, b)| !taken[i] && b.rule == v.rule && b.file == v.file)
                {
                    taken[bi] = true;
                    statuses[vi] = FindingStatus::PreExisting;
                }
            }
        }
        let fixed = baseline
            .into_iter()
            .zip(taken)
            .filter(|(_, t)| !*t)
            .map(|(b, _)| b)
            .collect();
        self.baseline = Some(BaselineDiff {
            path: path.to_string(),
            statuses,
            fixed,
        });
    }

    /// Whether this run should fail the build at `threshold` severity.
    ///
    /// Without a baseline, any finding at or above the threshold fails.
    /// With one, only *new* findings at or above the threshold fail —
    /// pre-existing debt never gates, fixed findings never rescue.
    pub fn fails(&self, threshold: Level) -> bool {
        match &self.baseline {
            Some(b) => self
                .violations
                .iter()
                .zip(&b.statuses)
                .any(|(v, s)| *s == FindingStatus::New && rule_level(v.rule) >= threshold),
            None => self
                .violations
                .iter()
                .any(|v| rule_level(v.rule) >= threshold),
        }
    }

    /// Counts of (new, pre-existing) findings under the baseline diff.
    fn baseline_counts(diff: &BaselineDiff) -> (usize, usize) {
        let new = diff
            .statuses
            .iter()
            .filter(|s| **s == FindingStatus::New)
            .count();
        (new, diff.statuses.len() - new)
    }

    /// Serialize to the stable JSON schema.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"tool\": \"mdbs-lint\",");
        let _ = writeln!(s, "  \"version\": {},", json_str(VERSION));
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        if let Some(ms) = self.wall_ms {
            let _ = writeln!(s, "  \"wall_clock_ms\": {ms},");
        }
        if let Some(c) = &self.cache {
            let _ = writeln!(
                s,
                "  \"cache\": {{ \"file_hits\": {}, \"file_misses\": {}, \"fn_hits\": {}, \"fn_misses\": {} }},",
                c.file_hits, c.file_misses, c.fn_hits, c.fn_misses
            );
        }
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
        if let Some(b) = &self.baseline {
            let (new, pre) = Self::baseline_counts(b);
            let _ = writeln!(s, "  \"baseline\": {{");
            let _ = writeln!(s, "    \"path\": {},", json_str(&b.path));
            let _ = writeln!(s, "    \"new\": {new},");
            let _ = writeln!(s, "    \"pre_existing\": {pre},");
            let _ = writeln!(s, "    \"fixed\": {},", b.fixed.len());
            s.push_str("    \"fixed_findings\": [");
            for (i, f) in b.fixed.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('\n');
                let _ = write!(
                    s,
                    "      {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {} }}",
                    json_str(&f.rule),
                    json_str(&f.file),
                    f.line,
                    json_str(&f.message)
                );
            }
            if !b.fixed.is_empty() {
                s.push_str("\n    ");
            }
            s.push_str("]\n  },\n");
        }
        let _ = writeln!(s, "  \"graphs\": {},", self.graphs.to_json());
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let status = self
                .baseline
                .as_ref()
                .and_then(|b| b.statuses.get(i))
                .map(|st| match st {
                    FindingStatus::New => ", \"status\": \"new\"".to_string(),
                    FindingStatus::PreExisting => ", \"status\": \"pre-existing\"".to_string(),
                })
                .unwrap_or_default();
            let _ = write!(
                s,
                "    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"level\": {}{status}, \"message\": {} }}",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                v.col,
                json_str(level_name(rule_level(v.rule))),
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
    /// meta-rules) so `ruleIndex` stays stable across runs. Under
    /// `--baseline`, each result carries a SARIF `baselineState`.
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
                json_str(level_name(rule_level(rule)))
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
            let baseline_state = self
                .baseline
                .as_ref()
                .and_then(|b| b.statuses.get(i))
                .map(|st| match st {
                    FindingStatus::New => "\n          \"baselineState\": \"new\",".to_string(),
                    FindingStatus::PreExisting => {
                        "\n          \"baselineState\": \"unchanged\",".to_string()
                    }
                })
                .unwrap_or_default();
            let _ = write!(
                s,
                "        {{\n          \"ruleId\": {},\n          \"ruleIndex\": {},{baseline_state}\n          \
                 \"level\": {},\n          \"message\": {{ \"text\": {} }},\n          \
                 \"locations\": [\n            {{ \"physicalLocation\": {{\n              \
                 \"artifactLocation\": {{ \"uri\": {}, \"uriBaseId\": \"%SRCROOT%\" }},\n              \
                 \"region\": {{ \"startLine\": {}, \"startColumn\": {} }}\n            }} }}\n          \
                 ]\n        }}",
                json_str(v.rule),
                rule_index,
                json_str(level_name(rule_level(v.rule))),
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
        for (i, v) in self.violations.iter().enumerate() {
            let status = self
                .baseline
                .as_ref()
                .and_then(|b| b.statuses.get(i))
                .map(|st| match st {
                    FindingStatus::New => " (new)",
                    FindingStatus::PreExisting => " (pre-existing)",
                })
                .unwrap_or("");
            let _ = writeln!(
                s,
                "{}[{}]: {}{status}\n  --> {}:{}:{}",
                level_name(rule_level(v.rule)),
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
        if let Some(b) = &self.baseline {
            let (new, pre) = Self::baseline_counts(b);
            let _ = writeln!(
                s,
                "mdbs-lint: baseline {}: {} new, {} pre-existing, {} fixed",
                b.path,
                new,
                pre,
                b.fixed.len()
            );
        }
        if let Some(c) = &self.cache {
            let _ = writeln!(
                s,
                "mdbs-lint: cache: {}/{} files reused, {}/{} fns replayed",
                c.file_hits,
                c.file_hits + c.file_misses,
                c.fn_hits,
                c.fn_hits + c.fn_misses
            );
        }
        s
    }
}

/// Load baseline findings from a prior `--json` report.
pub fn baseline_from_json(text: &str) -> Result<Vec<BaselineFinding>, String> {
    let doc = crate::jsonv::parse(text).map_err(|e| format!("invalid baseline JSON: {e}"))?;
    let arr = doc
        .get("violations")
        .and_then(Json::as_arr)
        .ok_or_else(|| "baseline report has no \"violations\" array".to_string())?;
    arr.iter()
        .map(|o| {
            Ok(BaselineFinding {
                rule: o
                    .get("rule")
                    .and_then(Json::as_str)
                    .ok_or("baseline violation missing \"rule\"")?
                    .to_string(),
                file: o
                    .get("file")
                    .and_then(Json::as_str)
                    .ok_or("baseline violation missing \"file\"")?
                    .to_string(),
                line: o.get("line").and_then(Json::as_u32).unwrap_or(0),
                message: o
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("baseline violation missing \"message\"")?
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(|e| e.to_string())
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
            wall_ms: None,
            cache: None,
            baseline: None,
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
    }

    #[test]
    fn empty_report_shape() {
        let r = bare(3, vec![]);
        let j = r.to_json();
        assert!(j.contains("\"total_violations\": 0"));
        assert!(j.contains("\"by_rule\": {}"));
        assert!(j.contains("\"graphs\": {"));
        assert!(j.contains("\"lock_order\""));
        assert!(j.contains("\"channels\""));
        assert!(j.contains("\"cfgs\""));
        assert!(j.contains("\"violations\": []"));
        assert!(!j.contains("wall_clock_ms"));
        assert!(!j.contains("\"cache\""));
        assert!(!j.contains("\"baseline\""));
        assert!(r.is_clean());
    }

    #[test]
    fn wall_clock_emitted_when_timed() {
        let mut r = bare(3, vec![]);
        r.wall_ms = Some(412);
        assert!(r.to_json().contains("\"wall_clock_ms\": 412,"));
    }

    #[test]
    fn cache_stats_emitted_when_present() {
        let mut r = bare(3, vec![]);
        r.cache = Some(CacheStats {
            file_hits: 2,
            file_misses: 1,
            fn_hits: 9,
            fn_misses: 4,
        });
        let j = r.to_json();
        assert!(j.contains(
            "\"cache\": { \"file_hits\": 2, \"file_misses\": 1, \"fn_hits\": 9, \"fn_misses\": 4 }"
        ));
    }

    #[test]
    fn levels_in_json_and_sarif() {
        let r = bare(
            1,
            vec![
                vio(crate::rules::NO_PANIC, "crates/core/src/gtm1.rs", 7, "m"),
                vio(crate::rules::STALE_ALLOW, "crates/core/src/gtm1.rs", 9, "s"),
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
                rule: crate::rules::NO_PANIC,
                file: "crates/core/src/gtm1.rs".to_string(),
                line: 7,
                col: 3,
                message: "a \"quoted\" message".to_string(),
            }],
        );
        let s = r.to_sarif();
        assert!(s.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"mdbs-lint\""));
        assert!(s.contains("\"ruleId\": \"no-panic-in-scheduler\""));
        assert!(s.contains("\"ruleIndex\": 0"));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("a \\\"quoted\\\" message"));
        // Every suppressible rule plus the meta-rules is declared.
        for rule in crate::rules::RULES {
            assert!(s.contains(&format!("\"id\": \"{rule}\"")), "{rule}");
        }
        assert!(s.contains("\"id\": \"stale-allow\""));
        // No baseline applied, no baselineState.
        assert!(!s.contains("baselineState"));
    }

    #[test]
    fn baseline_classification() {
        let mut r = bare(
            2,
            vec![
                vio(crate::rules::NO_PANIC, "a.rs", 3, "panic at 3"),
                vio(crate::rules::NO_PANIC, "a.rs", 9, "panic at 9"),
                vio(crate::rules::NO_SILENT_SEND_DROP, "b.rs", 1, "dropped send"),
            ],
        );
        let baseline = vec![
            // Exact match for the first finding.
            BaselineFinding {
                rule: "no-panic-in-scheduler".to_string(),
                file: "a.rs".to_string(),
                line: 3,
                message: "panic at 3".to_string(),
            },
            // Fixed: nothing in the current run matches.
            BaselineFinding {
                rule: "lock-order".to_string(),
                file: "c.rs".to_string(),
                line: 5,
                message: "gone".to_string(),
            },
        ];
        r.apply_baseline("base.json", baseline);
        let b = r.baseline.as_ref().expect("baseline set");
        assert_eq!(
            b.statuses,
            vec![
                FindingStatus::PreExisting,
                FindingStatus::New,
                FindingStatus::New,
            ]
        );
        assert_eq!(b.fixed.len(), 1);
        assert_eq!(b.fixed[0].rule, "lock-order");
        // Gate logic: new errors fail, pre-existing alone would not.
        assert!(r.fails(Level::Error));
        let j = r.to_json();
        assert!(j.contains("\"status\": \"pre-existing\""));
        assert!(j.contains("\"status\": \"new\""));
        assert!(j.contains("\"fixed\": 1"));
        let s = r.to_sarif();
        assert!(s.contains("\"baselineState\": \"unchanged\""));
        assert!(s.contains("\"baselineState\": \"new\""));
    }

    #[test]
    fn baseline_line_drift_still_matches() {
        // Message embeds a line number that moved; (rule, file) fallback
        // should still classify it as pre-existing.
        let mut r = bare(
            1,
            vec![vio(crate::rules::NO_PANIC, "a.rs", 14, "panic at 14")],
        );
        r.apply_baseline(
            "base.json",
            vec![BaselineFinding {
                rule: "no-panic-in-scheduler".to_string(),
                file: "a.rs".to_string(),
                line: 3,
                message: "panic at 3".to_string(),
            }],
        );
        let b = r.baseline.as_ref().expect("baseline set");
        assert_eq!(b.statuses, vec![FindingStatus::PreExisting]);
        assert!(b.fixed.is_empty());
        assert!(!r.fails(Level::Note));
    }

    #[test]
    fn fails_respects_threshold() {
        let warn_only = bare(1, vec![vio(crate::rules::STALE_ALLOW, "a.rs", 1, "stale")]);
        assert!(warn_only.fails(Level::Note));
        assert!(warn_only.fails(Level::Warning));
        assert!(!warn_only.fails(Level::Error));
        let err = bare(1, vec![vio(crate::rules::NO_PANIC, "a.rs", 1, "p")]);
        assert!(err.fails(Level::Error));
        assert!(!bare(0, vec![]).fails(Level::Note));
    }

    #[test]
    fn baseline_from_json_reads_own_output() {
        let r = bare(
            1,
            vec![vio(
                crate::rules::NO_PANIC,
                "a.rs",
                3,
                "a \"quoted\" message",
            )],
        );
        let loaded = baseline_from_json(&r.to_json()).expect("parse own output");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].rule, "no-panic-in-scheduler");
        assert_eq!(loaded[0].message, "a \"quoted\" message");
        assert!(baseline_from_json("{}").is_err());
        assert!(baseline_from_json("not json").is_err());
    }
}
