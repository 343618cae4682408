//! Stage 3 of the graph analyzer: the interprocedural pass.
//!
//! Assembles a call graph from the per-function facts ([`crate::facts`])
//! and runs the graph-level analyses on top of it:
//!
//! * **`channel-topology`** — unify channel creation sites with their
//!   send/recv endpoints (through local aliases, `container.push(tx)` and
//!   struct-literal fields) and flag channels someone sends into but no
//!   one ever drains. The full topology is exported as DOT + JSON.
//! * **`blocking-in-pump`** — flag blocking calls (unbounded `recv`,
//!   `join`, condvar `wait`, `sleep`, blocking `lock`) reachable from the
//!   scheduler entry points in [`PUMP_ENTRY_POINTS`].
//!
//! Call resolution is name-based with two precision aids: struct-field
//! types resolve `self.field.method()` to the field type's impls, and
//! bare-name fallback is filtered by the workspace crate-dependency
//! order, so a `crates/core` function never "calls into" `crates/sim`.
//! Unresolvable calls degrade to *external* (no edge), keeping the
//! analyses conservative about what they claim rather than what they
//! assume.

use crate::facts::{Base, CallTarget, FileFacts, FnFact, Step, StructFact};
use crate::report::json_str;
use crate::rules::{Violation, BLOCKING_IN_PUMP, CHANNEL_TOPOLOGY};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// Scheduler loops that must never block: the GTM2 pump and the threaded
/// site-server loop. Matching is on the qualified name, so a free `fn
/// pump` elsewhere is not an entry point.
pub const PUMP_ENTRY_POINTS: [&str; 2] = ["Gtm2::pump", "SiteWorker::run"];

/// Methods so ubiquitous on std types that a name-based fallback edge
/// would be noise (`batch.len()` is never `SharedSink::len`). Applies
/// only to the *fallback* path — `self.x()` and typed `self.field.x()`
/// calls still resolve through impls, whatever the name.
const UBIQUITOUS_METHODS: [&str; 48] = [
    "len",
    "is_empty",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "get",
    "get_mut",
    "entry",
    "keys",
    "values",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clear",
    "drain",
    "extend",
    "contains",
    "contains_key",
    "clone",
    "cloned",
    "collect",
    "map",
    "filter",
    "filter_map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "take",
    "replace",
    "to_string",
    "to_owned",
    "into",
    "as_ref",
    "as_str",
    "min",
    "max",
    "ok",
    "err",
    "expect",
    "unwrap",
];

/// Workspace crate dependency rank: a function in crate with rank `r`
/// may (via name fallback) only call into crates of rank `<= r`. The
/// analyzer itself and unknown paths rank last — nothing falls back into
/// them.
fn crate_rank(path: &str) -> u32 {
    let name = path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    match name {
        "common" => 0,
        "schedule" => 1,
        "localdb" => 2,
        "core" => 3,
        "workload" => 4,
        "sim" => 5,
        "bench" => 6,
        _ => u32::MAX,
    }
}

// ---------------------------------------------------------------------------
// Graph artifacts
// ---------------------------------------------------------------------------

/// A send/recv site attributed to a function.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Endpoint {
    /// Qualified function name.
    pub func: String,
    /// File of the call site.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One channel creation site with its resolved endpoints.
#[derive(Clone, Debug)]
pub struct ChannelNode {
    /// Sender binding at the creation site.
    pub tx: String,
    /// Receiver binding at the creation site.
    pub rx: String,
    /// File of the `let (tx, rx) = ...` statement.
    pub file: String,
    /// 1-based line of the creation.
    pub line: u32,
    /// Qualified name of the creating function.
    pub created_in: String,
    /// Resolved send sites.
    pub senders: Vec<Endpoint>,
    /// Resolved recv sites (any flavor — a `try_recv` loop still drains).
    pub receivers: Vec<Endpoint>,
}

/// The graph artifact exported in the JSON report and as a DOT file.
#[derive(Clone, Debug, Default)]
pub struct Graphs {
    /// Channel topology, sorted by (file, line).
    pub channels: Vec<ChannelNode>,
}

impl Graphs {
    /// Serialize as the report's `graphs` object. The returned string is
    /// a JSON object indented for splicing at the report's top level.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n    \"channel_topology\": {\n      \"channels\": [");
        for (i, ch) in self.channels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(
                s,
                "        {{ \"tx\": {}, \"rx\": {}, \"file\": {}, \"line\": {}, \
                 \"created_in\": {},\n          \"senders\": [{}],\n          \
                 \"receivers\": [{}] }}",
                json_str(&ch.tx),
                json_str(&ch.rx),
                json_str(&ch.file),
                ch.line,
                json_str(&ch.created_in),
                endpoints_json(&ch.senders),
                endpoints_json(&ch.receivers)
            );
        }
        if !self.channels.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    }\n  }");
        s
    }

    /// The channel topology as DOT. With `file_filter`, only channels
    /// *created* in that file are emitted (the per-file golden artifact).
    pub fn channel_dot(&self, file_filter: Option<&str>) -> String {
        let mut s = String::from("digraph channel_topology {\n  rankdir=LR;\n");
        for ch in &self.channels {
            if file_filter.is_some_and(|f| f != ch.file) {
                continue;
            }
            let id = format!("chan@{}:{}", ch.file, ch.line);
            let _ = writeln!(
                s,
                "  \"{id}\" [shape=box, label=\"({}, {})\\n{}:{}\"];",
                ch.tx, ch.rx, ch.file, ch.line
            );
            for func in dedup_funcs(&ch.senders) {
                let _ = writeln!(s, "  \"{func}\" -> \"{id}\" [label=\"send\"];");
            }
            for func in dedup_funcs(&ch.receivers) {
                let _ = writeln!(s, "  \"{id}\" -> \"{func}\" [label=\"recv\"];");
            }
        }
        s.push_str("}\n");
        s
    }
}

fn endpoints_json(eps: &[Endpoint]) -> String {
    let parts: Vec<String> = eps
        .iter()
        .map(|e| {
            format!(
                "{{ \"fn\": {}, \"file\": {}, \"line\": {}, \"col\": {} }}",
                json_str(&e.func),
                json_str(&e.file),
                e.line,
                e.col
            )
        })
        .collect();
    parts.join(", ")
}

fn dedup_funcs(eps: &[Endpoint]) -> Vec<&str> {
    let set: BTreeSet<&str> = eps.iter().map(|e| e.func.as_str()).collect();
    set.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Analysis driver
// ---------------------------------------------------------------------------

/// The interprocedural pass output.
pub struct GraphAnalysis {
    /// Raw violations (allow filtering happens in the caller, which holds
    /// the per-file directive tables).
    pub violations: Vec<Violation>,
    /// Exportable graph artifacts.
    pub graphs: Graphs,
}

/// Run the graph-level analyses over all extracted file facts: call
/// graph, pump-reachability, then the two whole-graph passes.
pub fn analyze_graph(files: &[&FileFacts]) -> GraphAnalysis {
    let db = Db::build(files);
    let adj = db.call_edges();
    let reachable = db.pump_reachable(&adj);
    let mut violations = Vec::new();
    let channels = db.channel_pass(&mut violations);
    db.blocking_pass(&reachable, &mut violations);
    GraphAnalysis {
        violations,
        graphs: Graphs { channels },
    }
}

struct Db<'a> {
    fns: Vec<&'a FnFact>,
    quals: Vec<String>,
    rank: Vec<u32>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    structs: BTreeMap<&'a str, &'a StructFact>,
}

impl<'a> Db<'a> {
    fn build(files: &[&'a FileFacts]) -> Self {
        let mut fns = Vec::new();
        let mut structs: BTreeMap<&str, &StructFact> = BTreeMap::new();
        for file in files {
            fns.extend(file.fns.iter());
            for s in &file.structs {
                structs.entry(s.name.as_str()).or_insert(s);
            }
        }
        let quals: Vec<String> = fns.iter().map(|f| f.qual()).collect();
        let rank: Vec<u32> = fns.iter().map(|f| crate_rank(&f.file)).collect();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        Db {
            fns,
            quals,
            rank,
            by_name,
            structs,
        }
    }

    /// Functions named `name` implemented on / for the type or trait
    /// `ty`, into a cleared caller buffer.
    fn typed_into(&self, ty: &str, name: &str, out: &mut Vec<usize>) {
        out.clear();
        self.typed_append(ty, name, out);
    }

    /// The same type/trait filter, appended (for multi-type unions).
    fn typed_append(&self, ty: &str, name: &str, out: &mut Vec<usize>) {
        if let Some(c) = self.by_name.get(name) {
            out.extend(c.iter().copied().filter(|&i| {
                self.fns[i].self_type.as_deref() == Some(ty)
                    || self.fns[i].trait_name.as_deref() == Some(ty)
            }));
        }
    }

    /// Name fallback for receivers we cannot type: every same-named
    /// function in a crate the caller's crate may depend on. Ubiquitous
    /// std-collection names are excluded — they would only add noise.
    fn fallback_into(&self, caller: usize, name: &str, out: &mut Vec<usize>) {
        if UBIQUITOUS_METHODS.contains(&name) {
            return;
        }
        if let Some(c) = self.by_name.get(name) {
            out.extend(
                c.iter()
                    .copied()
                    .filter(|&i| self.rank[i] <= self.rank[caller]),
            );
        }
    }

    /// Resolve one call target to workspace function indices, into a
    /// caller-owned buffer (cleared first) so the adjacency construction
    /// does not allocate per call site. Empty means external: the call
    /// leaves the analyzed code.
    fn resolve_into(&self, caller: usize, target: &CallTarget, out: &mut Vec<usize>) {
        out.clear();
        match target {
            CallTarget::Qualified { ty, name } => {
                let ty = if ty == "Self" {
                    match self.fns[caller].self_type.as_deref() {
                        Some(t) => t,
                        None => return,
                    }
                } else {
                    ty.as_str()
                };
                self.typed_into(ty, name, out);
            }
            CallTarget::Bare { name } => {
                if let Some(c) = self.by_name.get(name.as_str()) {
                    out.extend(c.iter().copied().filter(|&i| {
                        self.fns[i].self_type.is_none() && self.rank[i] <= self.rank[caller]
                    }));
                }
            }
            CallTarget::Method { name, base } => match base {
                Base::SelfOnly => {
                    if let Some(t) = self.fns[caller].self_type.as_deref() {
                        self.typed_into(t, name, out);
                    }
                }
                Base::SelfField(field) => {
                    if let Some(t) = self.fns[caller].self_type.as_deref() {
                        if let Some(s) = self.structs.get(t) {
                            if let Some((_, idents)) = s.fields.iter().find(|(f, _)| f == field) {
                                // Known struct, known field: resolve only
                                // through the field's type idents. Empty
                                // is a *definitive* external.
                                for id in idents {
                                    self.typed_append(id, name, out);
                                }
                                out.sort_unstable();
                                out.dedup();
                                return;
                            }
                        }
                    }
                    self.fallback_into(caller, name, out);
                }
                Base::Local(_) | Base::Complex => self.fallback_into(caller, name, out),
            },
        }
    }

    /// Resolved, per-callee-deduplicated adjacency (first call site wins).
    fn call_edges(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        let mut buf = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            for step in &f.steps {
                if let Step::Call { target, .. } = step {
                    self.resolve_into(i, target, &mut buf);
                    for &callee in &buf {
                        if !adj[i].contains(&callee) {
                            adj[i].push(callee);
                        }
                    }
                }
            }
        }
        adj
    }

    /// Build the channel topology and flag channels with senders but no
    /// draining receiver.
    fn channel_pass(&self, out: &mut Vec<Violation>) -> Vec<ChannelNode> {
        // Creation sites, ordered by (file, line, tx).
        let mut channels: Vec<ChannelNode> = Vec::new();
        let mut index: BTreeMap<(String, u32, String), usize> = BTreeMap::new();
        let mut per_fn: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (i, f) in self.fns.iter().enumerate() {
            for c in &f.creates {
                let key = (f.file.clone(), c.line, c.tx.clone());
                let idx = *index.entry(key).or_insert_with(|| {
                    channels.push(ChannelNode {
                        tx: c.tx.clone(),
                        rx: c.rx.clone(),
                        file: f.file.clone(),
                        line: c.line,
                        created_in: self.quals[i].clone(),
                        senders: Vec::new(),
                        receivers: Vec::new(),
                    });
                    channels.len() - 1
                });
                per_fn[i].push(idx);
            }
        }
        // Endpoint attribution.
        for (i, f) in self.fns.iter().enumerate() {
            for step in &f.steps {
                let (base, line, col, is_send) = match step {
                    Step::Send {
                        base, line, col, ..
                    } => (base, *line, *col, true),
                    Step::Recv {
                        base, line, col, ..
                    } => (base, *line, *col, false),
                    _ => continue,
                };
                let Some(ch) = self.resolve_endpoint(i, base, is_send, &per_fn) else {
                    continue;
                };
                let ep = Endpoint {
                    func: self.quals[i].clone(),
                    file: f.file.clone(),
                    line,
                    col,
                };
                if is_send {
                    channels[ch].senders.push(ep);
                } else {
                    channels[ch].receivers.push(ep);
                }
            }
        }
        for ch in &mut channels {
            ch.senders.sort();
            ch.senders.dedup();
            ch.receivers.sort();
            ch.receivers.dedup();
        }
        channels.sort_by(|a, b| (&a.file, a.line, &a.tx).cmp(&(&b.file, b.line, &b.tx)));
        for ch in &channels {
            if !ch.senders.is_empty() && ch.receivers.is_empty() {
                let first = &ch.senders[0];
                out.push(Violation {
                    rule: CHANNEL_TOPOLOGY,
                    file: first.file.clone(),
                    line: first.line,
                    col: first.col,
                    message: format!(
                        "send into channel `({}, {})` created at {}:{} ({}) — no receiver \
                         anywhere drains it; once the buffer fills every sender blocks forever",
                        ch.tx, ch.rx, ch.file, ch.line, ch.created_in
                    ),
                });
            }
        }
        channels
    }

    /// Resolve a send/recv receiver base to one of the known channels.
    fn resolve_endpoint(
        &self,
        i: usize,
        base: &Base,
        want_tx: bool,
        per_fn: &[Vec<usize>],
    ) -> Option<usize> {
        match base {
            Base::Local(name) => self.chan_in_fn(i, name, want_tx, per_fn),
            Base::SelfField(field) => {
                let ty = self.fns[i].self_type.as_deref()?;
                for (j, g) in self.fns.iter().enumerate() {
                    for fa in &g.field_aliases {
                        if fa.struct_name == ty && &fa.field == field {
                            if let Some(ch) = self.chan_in_fn(j, &fa.source, want_tx, per_fn) {
                                return Some(ch);
                            }
                        }
                    }
                }
                None
            }
            Base::SelfOnly | Base::Complex => None,
        }
    }

    /// Match `name` (through the function's local aliases) against the
    /// channels the function creates.
    fn chan_in_fn(
        &self,
        i: usize,
        name: &str,
        want_tx: bool,
        per_fn: &[Vec<usize>],
    ) -> Option<usize> {
        if per_fn[i].is_empty() {
            return None;
        }
        // Alias closure: every source reachable from `name`.
        let mut names: BTreeSet<&str> = BTreeSet::new();
        names.insert(name);
        loop {
            let mut grew = false;
            for (alias, source) in &self.fns[i].local_aliases {
                if names.contains(alias.as_str()) && names.insert(source.as_str()) {
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let mut chan = None;
        for (ci, c) in self.fns[i].creates.iter().enumerate() {
            let end = if want_tx { &c.tx } else { &c.rx };
            if names.contains(end.as_str()) {
                chan = Some(per_fn[i][ci]);
            }
        }
        chan
    }

    /// BFS from the pump entry points: fn index -> (entry qual, call
    /// path).
    fn pump_reachable(&self, adj: &[Vec<usize>]) -> BTreeMap<usize, (String, Vec<usize>)> {
        let mut visited: BTreeMap<usize, (String, Vec<usize>)> = BTreeMap::new();
        for entry_name in PUMP_ENTRY_POINTS {
            for (i, q) in self.quals.iter().enumerate() {
                if q != entry_name || visited.contains_key(&i) {
                    continue;
                }
                let mut queue = VecDeque::from([i]);
                visited.insert(i, (q.clone(), vec![i]));
                while let Some(cur) = queue.pop_front() {
                    let path = visited[&cur].1.clone();
                    for &callee in &adj[cur] {
                        if visited.contains_key(&callee) {
                            continue;
                        }
                        let mut p = path.clone();
                        p.push(callee);
                        visited.insert(callee, (q.clone(), p));
                        queue.push_back(callee);
                    }
                }
            }
        }
        visited
    }

    /// Flag every blocking step in a function reachable from a pump
    /// entry point, with the call path in the message.
    fn blocking_pass(
        &self,
        visited: &BTreeMap<usize, (String, Vec<usize>)>,
        out: &mut Vec<Violation>,
    ) {
        for (&i, (entry, path)) in visited {
            let f = self.fns[i];
            let path_str = path
                .iter()
                .map(|&j| format!("`{}`", self.quals[j]))
                .collect::<Vec<_>>()
                .join(" -> ");
            for step in &f.steps {
                let (desc, line, col) = match step {
                    Step::Blocking { what, line, col } => (format!("`{what}`"), *line, *col),
                    Step::Recv {
                        method,
                        bounded: false,
                        line,
                        col,
                        ..
                    } => (format!("`.{method}()`"), *line, *col),
                    Step::Acquire {
                        lock, line, col, ..
                    } => (format!("blocking `.lock()` on `{lock}`"), *line, *col),
                    _ => continue,
                };
                out.push(Violation {
                    rule: BLOCKING_IN_PUMP,
                    file: f.file.clone(),
                    line,
                    col,
                    message: format!(
                        "{desc} is reachable from `{entry}` (call path: {path_str}) — the \
                         scheduler pump must never block; use try_/timeout variants or move \
                         the work off the pump thread"
                    ),
                });
            }
        }
    }
}
