//! The `mdbs-lint` rule engine.
//!
//! Six workspace invariants, each motivated by the paper's conservatism
//! argument (Section 3: aborting a global transaction is prohibitively
//! expensive, so the scheduler must not fail where it can refuse):
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `no-panic-in-scheduler` | `crates/core/src`, `crates/localdb/src` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`/indexing in protocol paths |
//! | `no-silent-send-drop` | workspace | a send result discarded unseen (`let _ = ...send(...)`, `_ = ...send(...)`, `...send(...).ok();`) is forbidden — count the drop instead |
//! | `metric-docs-sync` | workspace + README.md | every literal metric name registered on the instrument `Registry` is unique per kind and documented |
//! | `exhaustive-scheme-match` | `crates/core/src` | no `_ =>` arm in a `match` whose patterns name `SchemeEffect`/`QueueOp` |
//! | `channel-topology` | workspace | every channel someone sends into has a draining receiver |
//! | `blocking-in-pump` | workspace | no blocking call (`recv`, `join`, `wait`, `sleep`, `lock`) reachable from `Gtm2::pump` or the site-server loop |
//!
//! The first four are per-file (token-level); the last two run on the
//! interprocedural call graph built by [`crate::parser`] →
//! [`crate::facts`] → [`crate::graph`].
//!
//! Escape hatch: `// mdbs-lint: allow(<rule>) — <justification>` on the
//! same line or the line above suppresses one rule there; a directive
//! without a justification is itself reported (rule `bad-allow`).
//! `// mdbs-lint: allow(<rule>, scope=item) — <justification>` widens
//! the suppression to the whole item (fn/impl/struct) that starts after
//! the directive — for code whose *shape* trips a rule pervasively under
//! one shared invariant (e.g. the slot-indexed dense kernels), where a
//! per-line directive on every site would bury the real signal. The
//! justification must state the invariant; an item-scoped allow with no
//! following item is reported as `bad-allow`. A well-formed allow that
//! suppresses *zero* findings in the default-engine run is reported as
//! `stale-allow` (the `#[expect]` semantics): dead directives hide real
//! regressions behind the suppression they no longer need. Delimiter-
//! unbalanced files get a non-suppressible `parse-error` diagnostic
//! instead of a panic.
//!
//! Test code (`#[test]` / `#[cfg(test)]` items, files under `tests/`)
//! is exempt from every rule.

use crate::graph::Graphs;
use crate::lexer::{lex, Comment, TokKind, Token};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Rule: panics forbidden in scheduler/protocol paths.
pub const NO_PANIC: &str = "no-panic-in-scheduler";
/// Rule: no send result discarded unseen.
pub const NO_SILENT_SEND_DROP: &str = "no-silent-send-drop";
/// Rule: Registry metric names unique and documented in README.md.
pub const METRIC_DOCS_SYNC: &str = "metric-docs-sync";
/// Rule: no wildcard arms over `SchemeEffect`/`QueueOp` in crates/core.
pub const EXHAUSTIVE_SCHEME_MATCH: &str = "exhaustive-scheme-match";
/// Rule: every channel someone sends into must have a draining receiver.
pub const CHANNEL_TOPOLOGY: &str = "channel-topology";
/// Rule: no blocking call reachable from the scheduler pump loops.
pub const BLOCKING_IN_PUMP: &str = "blocking-in-pump";
/// Meta-rule: malformed or unjustified allow directives.
pub const BAD_ALLOW: &str = "bad-allow";
/// Meta-rule: a well-formed allow directive that suppressed nothing in
/// the final run (not suppressible — delete the directive).
pub const STALE_ALLOW: &str = "stale-allow";
/// Meta-rule: delimiter imbalance kept the token-tree parser from
/// recovering full structure (not suppressible — fix the file).
pub const PARSE_ERROR: &str = "parse-error";

/// All suppressible rules (BAD_ALLOW, STALE_ALLOW and PARSE_ERROR cannot
/// be allowed away).
pub const RULES: [&str; 6] = [
    NO_PANIC,
    NO_SILENT_SEND_DROP,
    METRIC_DOCS_SYNC,
    EXHAUSTIVE_SCHEME_MATCH,
    CHANNEL_TOPOLOGY,
    BLOCKING_IN_PUMP,
];

/// Every rule id the analyzer can emit: the suppressible set plus the
/// three meta-rules. Order matches the SARIF driver catalog.
pub fn all_rules() -> Vec<&'static str> {
    RULES
        .iter()
        .copied()
        .chain([BAD_ALLOW, STALE_ALLOW, PARSE_ERROR])
        .collect()
}

/// Diagnostic severity. `stale-allow` is hygiene (the code is clean, a
/// directive outlived its reason); everything else is a hard invariant.
/// Ordering is by severity, so `--fail-on` thresholds compare directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Informational.
    Note,
    /// Hygiene problem; the invariant itself still holds.
    Warning,
    /// Invariant violation.
    Error,
}

/// The severity of one rule's findings.
pub fn rule_level(rule: &str) -> Level {
    if rule == STALE_ALLOW {
        Level::Warning
    } else {
        Level::Error
    }
}

/// Lowercase level name, as emitted in JSON/SARIF and parsed by
/// `--fail-on`.
pub fn level_name(level: Level) -> &'static str {
    match level {
        Level::Note => "note",
        Level::Warning => "warning",
        Level::Error => "error",
    }
}

/// Parse a `--fail-on` threshold.
pub fn parse_level(s: &str) -> Option<Level> {
    match s {
        "note" => Some(Level::Note),
        "warning" => Some(Level::Warning),
        "error" => Some(Level::Error),
        _ => None,
    }
}

/// One-line rule description, emitted into the SARIF `rules` array.
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        NO_PANIC => "No panicking construct in scheduler/protocol paths.",
        NO_SILENT_SEND_DROP => "No silently discarded send result.",
        METRIC_DOCS_SYNC => "Registered metric names are unique per kind and README-documented.",
        EXHAUSTIVE_SCHEME_MATCH => "No wildcard arm in matches over protocol enums.",
        CHANNEL_TOPOLOGY => "Every channel someone sends into has a draining receiver.",
        BLOCKING_IN_PUMP => "No blocking call reachable from the scheduler pump loops.",
        BAD_ALLOW => "Allow directives must be well-formed and justified.",
        STALE_ALLOW => "Allow directives must suppress at least one finding.",
        PARSE_ERROR => "Files must parse to a balanced token tree.",
        _ => "mdbs-lint diagnostic.",
    }
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of the `pub const` names above).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// A source file handed to the analyzer: workspace-relative path
/// (`/`-separated) plus contents.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Full file contents.
    pub source: String,
}

/// Everything one analysis run produces: the surviving violations plus
/// the exportable graph artifacts.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// All surviving (non-suppressed) violations, sorted by file, line,
    /// column, rule.
    pub violations: Vec<Violation>,
    /// The channel-topology graph.
    pub graphs: Graphs,
}

/// Analyze a set of sources plus the README (for `metric-docs-sync`):
/// run the pure per-file front end on every source, in order, then
/// [`aggregate`]. The one pipeline behind both library entry points.
pub fn analyze(files: &[SourceFile], readme: Option<&str>) -> Analysis {
    let artifacts: Vec<FileArtifacts> = files.iter().map(frontend).collect();
    aggregate(&artifacts, readme)
}

/// An allow directive's effect, stripped of its hit counter: the rule it
/// suppresses and the (inclusive) line span it covers. Pure front-end
/// output — hit counting happens at aggregation, where the final set of
/// violations exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowSpan {
    /// Suppressed rule id.
    pub rule: String,
    /// Directive line (first covered line).
    pub first: u32,
    /// Last covered line.
    pub last: u32,
}

/// One literal metric registration site. Cross-file uniqueness and the
/// README check replay these at aggregation in file order, so per-file
/// results stay position-independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricReg {
    /// Metric name literal.
    pub name: String,
    /// Implied kind (`counter`/`gauge`/`histogram`).
    pub kind: String,
    /// 1-based registration line.
    pub line: u32,
    /// 1-based registration column.
    pub col: u32,
}

/// Everything the per-file front end produces for one source file — a
/// pure function of `(path, contents)`.
#[derive(Clone, Debug)]
pub struct FileArtifacts {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Per-file violations *before* allow filtering (includes
    /// `bad-allow` and `parse-error`, which filtering never removes).
    pub raw: Vec<Violation>,
    /// Allow-directive spans, in directive order.
    pub allows: Vec<AllowSpan>,
    /// Literal metric registration sites, in token order.
    pub metrics: Vec<MetricReg>,
    /// Extracted function/struct facts for the interprocedural pass.
    pub facts: crate::facts::FileFacts,
}

/// The pure per-file front end: lex → strip test items → allow
/// directives → token rules → token-tree parse → fact extraction.
/// Depends on nothing but the one file.
pub fn frontend(file: &SourceFile) -> FileArtifacts {
    let lexed = lex(&file.source);
    let tokens = strip_test_items(&lexed.tokens);
    let mut raw = Vec::new();
    let allows = parse_allow_spans(&file.path, &lexed.comments, &tokens, &mut raw);

    if in_scheduler_scope(&file.path) {
        rule_no_panic(&file.path, &tokens, &mut raw);
    }
    rule_silent_send_drop(&file.path, &tokens, &mut raw);
    let metrics = collect_metric_regs(&tokens);
    if file.path.starts_with("crates/core/src/") {
        rule_exhaustive_match(&file.path, &tokens, &mut raw);
    }

    // Token-tree parse + fact extraction for the graph pass. Delimiter
    // imbalance degrades to a diagnostic, never a panic.
    let parsed = crate::parser::parse(&tokens);
    let facts = crate::facts::extract(&file.path, &parsed.trees, parsed.errors);
    for e in &facts.parse_errors {
        raw.push(Violation {
            rule: PARSE_ERROR,
            file: file.path.clone(),
            line: e.line.max(1),
            col: e.col.max(1),
            message: format!(
                "delimiter imbalance: {} — graph analyses may be incomplete for this file",
                e.message
            ),
        });
    }

    FileArtifacts {
        path: file.path.clone(),
        raw,
        allows,
        metrics,
        facts,
    }
}

/// The aggregation stage: allow filtering (with fresh hit counters),
/// cross-file metric replay + README check, the interprocedural graph
/// pass, graph-rule suppression and stale-allow detection. Deterministic
/// in the artifacts' order and content only.
pub fn aggregate(files: &[FileArtifacts], readme: Option<&str>) -> Analysis {
    let mut violations = Vec::new();
    let allows: Vec<AllowDirectives> = files
        .iter()
        .map(|a| AllowDirectives::from_spans(&a.allows))
        .collect();
    for (art, allow) in files.iter().zip(&allows) {
        for v in &art.raw {
            // The meta-rules bypass suppression: a bad directive or a
            // parse failure cannot be allowed away.
            if v.rule == BAD_ALLOW || v.rule == PARSE_ERROR || !allow.suppresses(v.rule, v.line) {
                violations.push(v.clone());
            }
        }
    }
    let mut metrics = MetricTable::default();
    for art in files {
        metrics.replay(&art.path, &art.metrics);
    }
    if let Some(text) = readme {
        metrics.check_against_readme(text, &mut violations);
    }
    let fact_refs: Vec<&crate::facts::FileFacts> = files.iter().map(|a| &a.facts).collect();
    let graph = crate::graph::analyze_graph(&fact_refs);
    for v in graph.violations {
        let suppressed = files
            .iter()
            .zip(&allows)
            .any(|(art, a)| art.path == v.file && a.suppresses(v.rule, v.line));
        if !suppressed {
            violations.push(v);
        }
    }
    for (art, a) in files.iter().zip(&allows) {
        for e in &a.entries {
            if e.hits.get() == 0 {
                violations.push(Violation {
                    rule: STALE_ALLOW,
                    file: art.path.clone(),
                    line: e.first,
                    col: 1,
                    message: format!(
                        "mdbs-lint allow({}) suppresses nothing — the code it covered no \
                         longer trips the rule; delete the directive so future violations \
                         surface",
                        e.rule
                    ),
                });
            }
        }
    }
    violations
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Analysis {
        violations,
        graphs: graph.graphs,
    }
}

/// `no-panic-in-scheduler` applies to the protocol paths only.
fn in_scheduler_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/localdb/src/")
}

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

/// One well-formed, justified allow directive with a suppression-hit
/// counter (interior mutability: `suppresses` is called through shared
/// references during filtering, but stale-allow needs the tally).
struct AllowEntry {
    rule: String,
    /// Directive line. A line-scoped directive covers `first..=first+1`;
    /// an item-scoped one covers the whole item that starts after it.
    first: u32,
    last: u32,
    hits: Cell<u32>,
}

struct AllowDirectives {
    entries: Vec<AllowEntry>,
}

impl AllowDirectives {
    /// Rehydrate a directive table (hit counters at zero) from the
    /// front end's pure spans.
    fn from_spans(spans: &[AllowSpan]) -> Self {
        AllowDirectives {
            entries: spans
                .iter()
                .map(|s| AllowEntry {
                    rule: s.rule.clone(),
                    first: s.first,
                    last: s.last,
                    hits: Cell::new(0),
                })
                .collect(),
        }
    }

    /// A line-scoped directive on line N covers violations on lines N
    /// and N+1; an item-scoped one covers its whole recorded span. Every
    /// match bumps the entry's hit counter for stale-allow detection.
    fn suppresses(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for e in &self.entries {
            if e.rule == rule && e.first <= line && line <= e.last {
                e.hits.set(e.hits.get() + 1);
                hit = true;
            }
        }
        hit
    }
}

/// Parse allow directives out of a file's comments: well-formed,
/// justified ones become [`AllowSpan`]s; malformed ones push `bad-allow`
/// into `out`.
fn parse_allow_spans(
    path: &str,
    comments: &[Comment],
    tokens: &[Token],
    out: &mut Vec<Violation>,
) -> Vec<AllowSpan> {
    let mut entries = Vec::new();
    {
        for c in comments {
            let Some(pos) = c.text.find("mdbs-lint:") else {
                continue;
            };
            let rest = c.text[pos + "mdbs-lint:".len()..].trim_start();
            let Some(inner) = rest.strip_prefix("allow(") else {
                out.push(Violation {
                    rule: BAD_ALLOW,
                    file: path.to_string(),
                    line: c.line,
                    col: 1,
                    message: format!(
                        "malformed mdbs-lint directive (expected `mdbs-lint: allow(<rule>) — \
                         <justification>`): `{}`",
                        c.text.trim()
                    ),
                });
                continue;
            };
            let Some(close) = inner.find(')') else {
                out.push(Violation {
                    rule: BAD_ALLOW,
                    file: path.to_string(),
                    line: c.line,
                    col: 1,
                    message: "unterminated mdbs-lint allow directive".to_string(),
                });
                continue;
            };
            let spec = inner[..close].trim();
            let (rule, scope_arg) = match spec.split_once(',') {
                Some((r, arg)) => (r.trim(), Some(arg.trim())),
                None => (spec, None),
            };
            // Prose that *describes* the syntax (`allow(<rule>)`,
            // `allow(...)`) is not a directive: only rule-shaped names
            // are interpreted, so typos still get flagged below.
            if !rule
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-' || c == '_')
                || rule.is_empty()
            {
                continue;
            }
            let item_scoped = match scope_arg {
                None => false,
                Some("scope=item") => true,
                Some(other) => {
                    out.push(Violation {
                        rule: BAD_ALLOW,
                        file: path.to_string(),
                        line: c.line,
                        col: 1,
                        message: format!(
                            "unknown mdbs-lint allow argument `{other}` (supported: scope=item)"
                        ),
                    });
                    continue;
                }
            };
            let justification = inner[close + 1..]
                .trim_start_matches(|ch: char| {
                    ch.is_whitespace() || ch == '—' || ch == '–' || ch == '-' || ch == ':'
                })
                .trim();
            if !RULES.contains(&rule) {
                out.push(Violation {
                    rule: BAD_ALLOW,
                    file: path.to_string(),
                    line: c.line,
                    col: 1,
                    message: format!("mdbs-lint allow names unknown rule `{rule}`"),
                });
            } else if justification.is_empty() {
                out.push(Violation {
                    rule: BAD_ALLOW,
                    file: path.to_string(),
                    line: c.line,
                    col: 1,
                    message: format!(
                        "mdbs-lint allow({rule}) has no justification — write \
                         `mdbs-lint: allow({rule}) — <why this cannot fire>`"
                    ),
                });
            } else if item_scoped {
                // The directive covers the next item: from the first
                // token strictly below the comment through the item's
                // closing `}` or `;`.
                let Some(start) = tokens.iter().position(|t| t.line > c.line) else {
                    out.push(Violation {
                        rule: BAD_ALLOW,
                        file: path.to_string(),
                        line: c.line,
                        col: 1,
                        message: format!(
                            "mdbs-lint allow({rule}, scope=item) has no following item to cover"
                        ),
                    });
                    continue;
                };
                let end = skip_item(tokens, start);
                let last_line = tokens[start..end]
                    .last()
                    .map_or(c.line + 1, |t| t.line)
                    .max(c.line + 1);
                entries.push(AllowSpan {
                    rule: rule.to_string(),
                    first: c.line,
                    last: last_line,
                });
            } else {
                entries.push(AllowSpan {
                    rule: rule.to_string(),
                    first: c.line,
                    last: c.line + 1,
                });
            }
        }
    }
    entries
}

// ---------------------------------------------------------------------------
// Test-item stripping
// ---------------------------------------------------------------------------

/// Remove items annotated with an attribute containing the ident `test`
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`) — the following
/// item (through its `;` or matching `}`) is dropped. Items are balanced,
/// so the surviving stream keeps consistent brace depth.
fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = match matching(tokens, i + 1, "[", "]") {
                Some(j) => j,
                None => {
                    out.push(tokens[i].clone());
                    i += 1;
                    continue;
                }
            };
            let has_test = tokens[i + 2..close].iter().any(|t| t.is_ident("test"));
            if !has_test {
                out.extend(tokens[i..=close].iter().cloned());
                i = close + 1;
                continue;
            }
            i = close + 1;
            // Further attributes on the same item are part of it.
            while i < tokens.len()
                && tokens[i].is_punct("#")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
            {
                match matching(tokens, i + 1, "[", "]") {
                    Some(j) => i = j + 1,
                    None => break,
                }
            }
            i = skip_item(tokens, i);
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

/// Find the index of the token matching the opener at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skip one item starting at `i`: through the first `;` at bracket depth
/// zero, or through the matching `}` of the first body brace.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => {
                    return match matching(tokens, i, "{", "}") {
                        Some(j) => j + 1,
                        None => tokens.len(),
                    };
                }
                ";" if paren == 0 && bracket == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Rule 1: no-panic-in-scheduler
// ---------------------------------------------------------------------------

/// Identifiers that may legitimately precede `[` without forming an index
/// expression (`return [a, b]`, `match [x] {...}`).
const NON_INDEX_KEYWORDS: [&str; 22] = [
    "in", "return", "break", "if", "else", "match", "loop", "while", "move", "mut", "ref", "as",
    "where", "unsafe", "dyn", "impl", "for", "let", "const", "static", "use", "type",
];

fn rule_no_panic(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let method_call = i > 0
                    && tokens[i - 1].is_punct(".")
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
                if method_call {
                    out.push(Violation {
                        rule: NO_PANIC,
                        file: path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "`.{}()` can panic the scheduler — route the failure through \
                             `SchemeEffect::ProtocolViolation` or a `Result`",
                            t.text
                        ),
                    });
                }
            }
            TokKind::Ident
                if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                out.push(Violation {
                    rule: NO_PANIC,
                    file: path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}!` aborts the scheduler — protocol paths must degrade to \
                         `ProtocolViolation` effects instead",
                        t.text
                    ),
                });
            }
            TokKind::Punct if t.text == "[" => {
                let prev_is_place = i > 0
                    && match tokens[i - 1].kind {
                        TokKind::Ident => {
                            !NON_INDEX_KEYWORDS.contains(&tokens[i - 1].text.as_str())
                        }
                        TokKind::Punct => tokens[i - 1].text == ")" || tokens[i - 1].text == "]",
                        _ => false,
                    };
                if prev_is_place {
                    // `x[0]` with a literal constant index is a deliberate
                    // fixed-layout access (e.g. `waited_kind[1]`), not a
                    // data-dependent panic path.
                    if let Some(close) = matching(tokens, i, "[", "]") {
                        let inner = &tokens[i + 1..close];
                        let literal_only = inner.len() == 1
                            && inner[0].kind == TokKind::Literal
                            && inner[0].text.starts_with(|c: char| c.is_ascii_digit());
                        // `x[..]` (full-range slice) cannot go out of
                        // bounds; any bounded range still can.
                        let full_range =
                            inner.len() == 2 && inner[0].is_punct(".") && inner[1].is_punct(".");
                        if !literal_only && !full_range && !inner.is_empty() {
                            out.push(Violation {
                                rule: NO_PANIC,
                                file: path.to_string(),
                                line: t.line,
                                col: t.col,
                                message: "index expression can panic on out-of-bounds — use \
                                          `.get()` and handle the miss"
                                    .to_string(),
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: no-silent-send-drop
// ---------------------------------------------------------------------------

/// Index just past the `;` that ends the statement starting at `start`,
/// or None when the enclosing block closes first (a tail expression, not
/// a statement).
fn statement_end(tokens: &[Token], start: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace < 0 {
                    return None;
                }
            }
            ";" if paren == 0 && bracket == 0 && brace == 0 => return Some(k + 1),
            _ => {}
        }
    }
    None
}

/// True iff `tokens[k]` is the method name of a `.send(` / `.try_send(`
/// call.
fn is_send_call(tokens: &[Token], k: usize) -> bool {
    (tokens[k].is_ident("send") || tokens[k].is_ident("try_send"))
        && k > 0
        && tokens[k - 1].is_punct(".")
        && tokens.get(k + 1).is_some_and(|n| n.is_punct("("))
}

/// True iff a statement can start at `i`: the previous token closes a
/// statement or opens/closes a block.
fn at_statement_start(tokens: &[Token], i: usize) -> bool {
    i == 0 || matches!(tokens[i - 1].text.as_str(), ";" | "{" | "}")
}

/// Walk back over the receiver chain of the method call whose name is
/// `tokens[k]` (`a.b[i].c()?.name`); returns the chain's first token
/// index iff the chain is a whole statement's beginning — nothing binds,
/// returns or passes on the call's value (a keyword such as `return` or
/// `let`, an `=` or an enclosing `(` ends the walk with None).
fn receiver_statement_start(tokens: &[Token], k: usize) -> Option<usize> {
    let mut j = k;
    while !at_statement_start(tokens, j) {
        let prev = &tokens[j - 1];
        match prev.kind {
            TokKind::Ident if !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()) => j -= 1,
            TokKind::Punct => match prev.text.as_str() {
                "." | "?" | ":" | "&" | "*" => j -= 1,
                close @ (")" | "]") => {
                    let open = if close == ")" { "(" } else { "[" };
                    let mut depth = 0usize;
                    j = (0..j).rev().find(|&m| {
                        if tokens[m].is_punct(close) {
                            depth += 1;
                        } else if tokens[m].is_punct(open) {
                            depth -= 1;
                        }
                        depth == 0
                    })?;
                }
                _ => return None,
            },
            _ => return None,
        }
    }
    Some(j)
}

/// Three spellings of one mistake, each compiling warning-free:
/// `let _ = ...send(...);`, `_ = ...send(...);` and `...send(...).ok();`
/// as a statement of its own.
fn rule_silent_send_drop(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    let mut flag = |at: &Token| {
        out.push(Violation {
            rule: NO_SILENT_SEND_DROP,
            file: path.to_string(),
            line: at.line,
            col: at.col,
            message: "`let _ = ...send(...)` silently drops a protocol message — \
                      route it through a counting helper (e.g. one that increments \
                      `threaded.send_dropped`)"
                .to_string(),
        });
    };
    let mut i = 0;
    while i < tokens.len() {
        // `let _ = ...;` anywhere, `_ = ...;` in statement position (a
        // match arm's `_ =>` also follows a `{`).
        let eq = if tokens[i].is_ident("let") && tokens.get(i + 1).is_some_and(|t| t.is_ident("_"))
        {
            i + 2
        } else if tokens[i].is_ident("_") && at_statement_start(tokens, i) {
            i + 1
        } else {
            tokens.len()
        };
        let discards = tokens.get(eq).is_some_and(|t| t.is_punct("="))
            && !tokens.get(eq + 1).is_some_and(|t| t.is_punct(">"));
        if let Some(end) = discards.then(|| statement_end(tokens, i)).flatten() {
            if (i..end).any(|k| is_send_call(tokens, k)) {
                flag(&tokens[i]);
            }
            i = end;
            continue;
        }
        // `recv.send(...).ok();` with nothing in front of the receiver.
        if is_send_call(tokens, i) {
            if let Some(close) = matching(tokens, i + 1, "(", ")") {
                let tail = tokens.get(close + 1..close + 6).unwrap_or(&[]);
                let ends_ok = matches!(tail, [dot, ok, open, shut, semi]
                    if dot.is_punct(".") && ok.is_ident("ok") && open.is_punct("(")
                        && shut.is_punct(")") && semi.is_punct(";"));
                if ends_ok {
                    if let Some(start) = receiver_statement_start(tokens, i) {
                        flag(&tokens[start]);
                    }
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Rule 3: metric-docs-sync
// ---------------------------------------------------------------------------

/// Registry registration methods and the metric kind they imply.
const METRIC_METHODS: [(&str, &str); 5] = [
    ("inc", "counter"),
    ("set_gauge", "gauge"),
    ("max_gauge", "gauge"),
    ("observe", "histogram"),
    ("merge_histogram", "histogram"),
];

#[derive(Default)]
struct MetricTable {
    /// name -> (kind, first registration site).
    registered: BTreeMap<String, (String, String, u32)>,
    conflicts: Vec<Violation>,
}

/// Scan one file's tokens for literal metric registrations. The
/// instrument crate's internal plumbing (`self.inc(name, v)`) and unit
/// tests use placeholder names; only *literal* names registered by
/// product code are required to be documented — so this collects
/// literal sites only, and is a pure function of the token stream.
fn collect_metric_regs(tokens: &[Token]) -> Vec<MetricReg> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some((_, kind)) = METRIC_METHODS.iter().find(|(m, _)| *m == t.text) else {
            continue;
        };
        if i == 0 || !tokens[i - 1].is_punct(".") {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let Some(arg) = tokens.get(i + 2) else {
            continue;
        };
        if arg.kind != TokKind::Literal || !arg.text.starts_with('"') {
            continue; // dynamic name (format!/variable) — pattern-documented
        }
        out.push(MetricReg {
            name: arg.text.trim_matches('"').to_string(),
            kind: kind.to_string(),
            line: t.line,
            col: t.col,
        });
    }
    out
}

impl MetricTable {
    /// Replay one file's registration sites into the cross-file table.
    /// Files replay in workspace order, so "first registration wins"
    /// and kind-conflict attribution are identical to a single-pass
    /// scan.
    fn replay(&mut self, path: &str, regs: &[MetricReg]) {
        for r in regs {
            match self.registered.get(&r.name) {
                Some((prev_kind, prev_file, prev_line)) if *prev_kind != r.kind => {
                    self.conflicts.push(Violation {
                        rule: METRIC_DOCS_SYNC,
                        file: path.to_string(),
                        line: r.line,
                        col: r.col,
                        message: format!(
                            "metric `{}` registered as {} here but as {prev_kind} at \
                             {prev_file}:{prev_line} — one name, one kind",
                            r.name, r.kind
                        ),
                    });
                }
                Some(_) => {}
                None => {
                    self.registered
                        .insert(r.name.clone(), (r.kind.clone(), path.to_string(), r.line));
                }
            }
        }
    }

    fn check_against_readme(self, readme: &str, out: &mut Vec<Violation>) {
        out.extend(self.conflicts);
        let mut documented: BTreeMap<String, (String, u32)> = BTreeMap::new();
        let mut in_section = false;
        let mut found_section = false;
        for (idx, line) in readme.lines().enumerate() {
            let lineno = idx as u32 + 1;
            if line.starts_with("## ") {
                in_section = line.trim() == "## Observability";
                found_section |= in_section;
                continue;
            }
            if !in_section || !line.trim_start().starts_with('|') {
                continue;
            }
            let cells: Vec<&str> = line.trim().trim_matches('|').split('|').collect();
            if cells.len() < 2 {
                continue;
            }
            let first = cells[0].trim();
            // Rows look like: | `gtm2.waited` | counter | ... |
            let Some(name) = first.strip_prefix('`').and_then(|s| s.strip_suffix('`')) else {
                continue; // header or separator row
            };
            let kind = cells[1].trim().to_string();
            documented.insert(name.to_string(), (kind, lineno));
        }
        if !found_section {
            if !self.registered.is_empty() {
                out.push(Violation {
                    rule: METRIC_DOCS_SYNC,
                    file: "README.md".to_string(),
                    line: 1,
                    col: 1,
                    message: "README.md has no `## Observability` section documenting the \
                              registered metrics"
                        .to_string(),
                });
            }
            return;
        }
        for (name, (kind, file, line)) in &self.registered {
            match documented.get(name) {
                None => out.push(Violation {
                    rule: METRIC_DOCS_SYNC,
                    file: file.clone(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "metric `{name}` ({kind}) is not documented in README.md's \
                         Observability metric table"
                    ),
                }),
                Some((doc_kind, doc_line)) if doc_kind != kind => out.push(Violation {
                    rule: METRIC_DOCS_SYNC,
                    file: "README.md".to_string(),
                    line: *doc_line,
                    col: 1,
                    message: format!(
                        "metric `{name}` documented as {doc_kind} but registered as {kind} at \
                         {file}:{line}"
                    ),
                }),
                Some(_) => {}
            }
        }
        for (name, (_, doc_line)) in &documented {
            // Rows with `<...>` placeholders document dynamically-named
            // families (`site.<id>.commits`) that registration-site
            // scanning cannot see.
            if name.contains('<') {
                continue;
            }
            if !self.registered.contains_key(name) {
                out.push(Violation {
                    rule: METRIC_DOCS_SYNC,
                    file: "README.md".to_string(),
                    line: *doc_line,
                    col: 1,
                    message: format!(
                        "README.md documents metric `{name}` but no code registers it — \
                         remove the row or restore the metric"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: exhaustive-scheme-match
// ---------------------------------------------------------------------------

const PROTOCOL_ENUMS: [&str; 2] = ["SchemeEffect", "QueueOp"];

fn rule_exhaustive_match(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("match") {
            continue;
        }
        // The match body is the first `{` after the scrutinee at paren/
        // bracket depth zero (struct literals are not legal in scrutinee
        // position without parentheses).
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut body_open = None;
        for (j, u) in tokens.iter().enumerate().skip(i + 1) {
            if u.kind != TokKind::Punct {
                continue;
            }
            match u.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" if paren == 0 && bracket == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if paren == 0 && bracket == 0 => break, // not a match expr
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };
        let Some(close) = matching(tokens, open, "{", "}") else {
            continue;
        };
        check_match_arms(path, &tokens[open + 1..close], out);
    }
}

/// Inspect the arms of one match body (tokens strictly inside the braces).
fn check_match_arms(path: &str, body: &[Token], out: &mut Vec<Violation>) {
    let mut i = 0;
    let mut names_protocol_enum = false;
    let mut wildcard_arm: Option<&Token> = None;
    while i < body.len() {
        // Pattern: up to `=>` at depth zero.
        let start = i;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        let mut arrow = None;
        while i < body.len() {
            let t = &body[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "{" => brace += 1,
                    "}" => brace -= 1,
                    "=" if paren == 0
                        && bracket == 0
                        && brace == 0
                        && body.get(i + 1).is_some_and(|n| {
                            n.is_punct(">") && n.line == t.line && n.col == t.col + 1
                        }) =>
                    {
                        arrow = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        let Some(arrow) = arrow else { break };
        let pattern = &body[start..arrow];
        for (k, p) in pattern.iter().enumerate() {
            if p.kind == TokKind::Ident
                && PROTOCOL_ENUMS.contains(&p.text.as_str())
                && pattern.get(k + 1).is_some_and(|n| n.is_punct(":"))
            {
                names_protocol_enum = true;
            }
        }
        if let Some(first) = pattern.first() {
            let bare = first.is_ident("_")
                && (pattern.len() == 1 || pattern.get(1).is_some_and(|t| t.is_ident("if")));
            if bare {
                wildcard_arm = wildcard_arm.or(Some(first));
            }
        }
        // Arm body: a block, or an expression up to `,` at depth zero.
        i = arrow + 2;
        if body.get(i).is_some_and(|t| t.is_punct("{")) {
            match matching(body, i, "{", "}") {
                Some(j) => i = j + 1,
                None => break,
            }
            if body.get(i).is_some_and(|t| t.is_punct(",")) {
                i += 1;
            }
        } else {
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut brace = 0i32;
            while i < body.len() {
                let t = &body[i];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        "{" => brace += 1,
                        "}" => brace -= 1,
                        "," if paren == 0 && bracket == 0 && brace == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                i += 1;
            }
        }
    }
    if names_protocol_enum {
        if let Some(w) = wildcard_arm {
            out.push(Violation {
                rule: EXHAUSTIVE_SCHEME_MATCH,
                file: path.to_string(),
                line: w.line,
                col: w.col,
                message: "wildcard `_` arm in a match over SchemeEffect/QueueOp — name every \
                          variant so new protocol operations fail the build, not the protocol"
                    .to_string(),
            });
        }
    }
}

// Note: `pattern.get(k + 1).is_some_and(|n| n.is_punct(\":\"))` checks only
// the first `:` of `::`; the lexer emits `::` as two adjacent `:` puncts,
// and a struct-field `name: pat` inside a pattern never has an uppercase
// protocol-enum ident directly before the colon, so the single-colon check
// is sufficient and cheap.
