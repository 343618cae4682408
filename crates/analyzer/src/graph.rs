//! Stage 3 of the graph analyzer: the interprocedural pass.
//!
//! Assembles a call graph from the per-function facts ([`crate::facts`])
//! and runs the graph-level analyses on top of it:
//!
//! * **`lock-order-cycle`** — build the global lock-acquisition-order
//!   graph (edge `A -> B` when `B` is acquired while `A` is held, in the
//!   same function or through a callee) and report every cycle as a
//!   potential deadlock.
//! * **`channel-topology`** — unify channel creation sites with their
//!   send/recv endpoints (through local aliases, `container.push(tx)` and
//!   struct-literal fields) and flag channels someone sends into but no
//!   one ever drains. The full topology is exported as DOT + JSON.
//! * **`blocking-in-pump`** — flag blocking calls (unbounded `recv`,
//!   `join`, condvar `wait`, `sleep`, blocking `lock`) reachable from the
//!   scheduler entry points in [`PUMP_ENTRY_POINTS`].
//! * **`no-lock-across-send`** — guard liveness as a *may*-dataflow over
//!   each function's CFG ([`crate::cfg`]/[`crate::dataflow`]): a guard
//!   released on every path before the channel call no longer fires, a
//!   guard dropped on only one `match` arm still does (the branch-merge
//!   soundness fix), and a send hidden inside a callee is caught through
//!   the call graph.
//! * **`guard-across-suspend`** — any lock guard live at a suspension
//!   point (`.await`, `block_timeout`, park/yield) on some CFG path,
//!   interprocedurally via may-suspend summaries.
//! * **`double-lock-path`** — re-acquisition of a held lock along any
//!   CFG path (including through a directly-called method on the same
//!   type), previously only caught when it formed a global cycle.
//! * **`lost-wakeup`** — inside pump/worker loops, a state check that
//!   precedes waker registration on some path into a suspension point.
//!
//! Call resolution is name-based with two precision aids: struct-field
//! types resolve `self.field.method()` to the field type's impls, and
//! bare-name fallback is filtered by the workspace crate-dependency
//! order, so a `crates/core` function never "calls into" `crates/sim`.
//! Unresolvable calls degrade to *external* (no edge), keeping the
//! analyses conservative about what they claim rather than what they
//! assume.

use crate::cfg::Cfg;
use crate::dataflow::{solve, BitSet, Merge};
use crate::facts::{is_suspension, Base, CallTarget, FileFacts, FnFact, Step, StructFact};
use crate::report::json_str;
use crate::rules::{
    Violation, BLOCKING_IN_PUMP, CHANNEL_TOPOLOGY, DOUBLE_LOCK_PATH, GUARD_ACROSS_SUSPEND,
    LOCK_ORDER_CYCLE, LOST_WAKEUP, NO_LOCK_ACROSS_SEND,
};
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

/// One lock-order edge: `to` acquired while `from` is held.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Held lock.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// Site of the inner acquisition (or of the call that reaches it).
    pub file: String,
    /// 1-based line of that site.
    pub line: u32,
    /// Callee whose transitive acquisition closes the edge, for
    /// interprocedural edges; `None` when both locks are taken in the
    /// same function.
    pub via: Option<String>,
}

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

/// One exported per-function CFG (the pump entry points only — the
/// functions whose shape the reactor migration cares about).
#[derive(Clone, Debug)]
pub struct FnCfg {
    /// Qualified function name.
    pub func: String,
    /// Defining file.
    pub file: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// Block count (including entry/exit).
    pub blocks: usize,
    /// Edge count.
    pub edges: usize,
    /// Full DOT rendering, written by `--emit-graphs`.
    pub dot: String,
}

/// The graph artifacts exported in the JSON report and as DOT files.
#[derive(Clone, Debug, Default)]
pub struct Graphs {
    /// Lock names, sorted.
    pub lock_nodes: Vec<String>,
    /// Lock-order edges, sorted by (from, to).
    pub lock_edges: Vec<LockEdge>,
    /// Detected cycles as node sequences (first node repeated implicitly).
    pub lock_cycles: Vec<Vec<String>>,
    /// Channel topology, sorted by (file, line).
    pub channels: Vec<ChannelNode>,
    /// Per-function CFGs for [`PUMP_ENTRY_POINTS`], sorted by name. The
    /// JSON report carries block/edge counts; the DOT text goes to
    /// `--emit-graphs` files only.
    pub cfgs: Vec<FnCfg>,
}

impl Graphs {
    /// Serialize as the report's `graphs` object. The returned string is
    /// a JSON object indented for splicing at the report's top level.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n    \"lock_order\": {\n");
        let nodes: Vec<String> = self.lock_nodes.iter().map(|n| json_str(n)).collect();
        let _ = writeln!(s, "      \"nodes\": [{}],", nodes.join(", "));
        s.push_str("      \"edges\": [");
        for (i, e) in self.lock_edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let via = match &e.via {
                Some(v) => json_str(v),
                None => "null".to_string(),
            };
            let _ = write!(
                s,
                "        {{ \"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"via\": {} }}",
                json_str(&e.from),
                json_str(&e.to),
                json_str(&e.file),
                e.line,
                via
            );
        }
        if !self.lock_edges.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("],\n");
        s.push_str("      \"cycles\": [");
        for (i, c) in self.lock_cycles.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let nodes: Vec<String> = c.iter().map(|n| json_str(n)).collect();
            let _ = write!(s, "[{}]", nodes.join(", "));
        }
        s.push_str("]\n    },\n");
        s.push_str("    \"channel_topology\": {\n      \"channels\": [");
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
        s.push_str("]\n    },\n");
        s.push_str("    \"cfgs\": [");
        for (i, c) in self.cfgs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            let _ = write!(
                s,
                "      {{ \"fn\": {}, \"file\": {}, \"line\": {}, \"blocks\": {}, \"edges\": {} }}",
                json_str(&c.func),
                json_str(&c.file),
                c.line,
                c.blocks,
                c.edges
            );
        }
        if !self.cfgs.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("]\n  }");
        s
    }

    /// The lock-order graph as DOT.
    pub fn lock_dot(&self) -> String {
        let mut s = String::from("digraph lock_order {\n");
        for n in &self.lock_nodes {
            let _ = writeln!(s, "  \"{n}\";");
        }
        for e in &self.lock_edges {
            let via = match &e.via {
                Some(v) => format!(" via {v}"),
                None => String::new(),
            };
            let _ = writeln!(
                s,
                "  \"{}\" -> \"{}\" [label=\"{}:{}{}\"];",
                e.from, e.to, e.file, e.line, via
            );
        }
        s.push_str("}\n");
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

/// Run the graph-level analyses over all extracted file facts: the
/// global prep (call graph, transitive summaries, pump-reachability),
/// then the per-function CFG passes in file order, then the whole-graph
/// passes.
pub fn analyze_graph(files: &[&FileFacts]) -> GraphAnalysis {
    let db = Db::build(files);
    let adj = db.call_edges();
    let trans_locks = db.transitive_locks(&adj);
    let trans_chan = db.transitive_channel_ops(&adj);
    let reachable = db.pump_reachable(&adj);
    let mut violations = Vec::new();
    let trans_suspend = db.transitive_suspends(&adj);
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for f in &db.fns {
        for step in &f.steps {
            if let Step::Acquire { lock, .. } = step {
                nodes.insert(lock.clone());
            }
        }
    }
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut lost: Vec<Violation> = Vec::new();
    for (i, f) in db.fns.iter().enumerate() {
        db.lock_pass_one(
            i,
            &trans_locks,
            &trans_chan,
            &trans_suspend,
            &mut violations,
            &mut edges,
        );
        if let Some((entry, _)) = reachable.get(&i) {
            if f.steps.iter().any(is_register_step) {
                db.lost_wakeup_one(i, entry, &mut lost);
            }
        }
    }
    violations.extend(lost);
    let lock_nodes: Vec<String> = nodes.into_iter().collect();
    let lock_edges: Vec<LockEdge> = edges.into_values().collect();
    let lock_cycles = cycle_pass(&lock_nodes, &lock_edges, &mut violations);
    let channels = db.channel_pass(&mut violations);
    db.blocking_pass(&reachable, &mut violations);
    GraphAnalysis {
        violations,
        graphs: Graphs {
            lock_nodes,
            lock_edges,
            lock_cycles,
            channels,
            cfgs: db.cfg_exports(),
        },
    }
}

/// A resolved call edge (deduplicated per callee; first site wins).
#[derive(Clone)]
struct CallEdge {
    callee: usize,
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

    /// Resolve one call target to workspace function indices. Empty means
    /// external: the call leaves the analyzed code.
    fn resolve(&self, caller: usize, target: &CallTarget) -> Vec<usize> {
        let mut out = Vec::new();
        self.resolve_into(caller, target, &mut out);
        out
    }

    /// [`Db::resolve`] into a caller-owned buffer (cleared first), so the
    /// adjacency construction — one resolution per call site, every run —
    /// does not allocate per site.
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
    fn call_edges(&self) -> Vec<Vec<CallEdge>> {
        let mut adj: Vec<Vec<CallEdge>> = vec![Vec::new(); self.fns.len()];
        let mut buf = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            for step in &f.steps {
                if let Step::Call { target, .. } = step {
                    self.resolve_into(i, target, &mut buf);
                    for &callee in &buf {
                        if !adj[i].iter().any(|e| e.callee == callee) {
                            adj[i].push(CallEdge { callee });
                        }
                    }
                }
            }
        }
        adj
    }

    /// Fixpoint: lock names each function acquires, directly or through
    /// any callee.
    fn transitive_locks(&self, adj: &[Vec<CallEdge>]) -> Vec<BTreeSet<String>> {
        let mut locks: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|f| {
                f.steps
                    .iter()
                    .filter_map(|s| match s {
                        Step::Acquire { lock, .. } => Some(lock.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                for e in &adj[i] {
                    let extra: Vec<String> = locks[e.callee]
                        .iter()
                        .filter(|l| !locks[i].contains(*l))
                        .cloned()
                        .collect();
                    if !extra.is_empty() {
                        locks[i].extend(extra);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        locks
    }

    /// Fixpoint: does the function perform any channel operation (send or
    /// recv), directly or through any callee?
    fn transitive_channel_ops(&self, adj: &[Vec<CallEdge>]) -> Vec<bool> {
        let mut chan: Vec<bool> = self
            .fns
            .iter()
            .map(|f| {
                f.steps
                    .iter()
                    .any(|s| matches!(s, Step::Send { .. } | Step::Recv { .. }))
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if chan[i] {
                    continue;
                }
                if adj[i].iter().any(|e| chan[e.callee]) {
                    chan[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        chan
    }

    /// Fixpoint: does the function hit a non-channel suspension point
    /// (`.await`, `block_timeout`, park/yield), directly or through any
    /// callee? Channel receives are deliberately excluded — a call that
    /// does channel ops under a guard is already `no-lock-across-send`.
    fn transitive_suspends(&self, adj: &[Vec<CallEdge>]) -> Vec<bool> {
        let mut susp: Vec<bool> = self
            .fns
            .iter()
            .map(|f| f.steps.iter().any(is_non_channel_suspension))
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if susp[i] {
                    continue;
                }
                if adj[i].iter().any(|e| susp[e.callee]) {
                    susp[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        susp
    }

    /// CFG-based guard-liveness pass for ONE function: solve a
    /// *may*-dataflow (one fact per acquire site) over its CFG, then
    /// re-walk every block from its fixpoint in-state to emit lock-order
    /// edges and the `no-lock-across-send` / `guard-across-suspend` /
    /// `double-lock-path` violations. May-join means a guard dropped on
    /// only one branch is still live after the merge. The first edge seen
    /// per `(from, to)` pair — in function order, then walk order — is
    /// the one `edges` keeps.
    fn lock_pass_one(
        &self,
        i: usize,
        trans_locks: &[BTreeSet<String>],
        trans_chan: &[bool],
        trans_suspend: &[bool],
        out: &mut Vec<Violation>,
        edges: &mut BTreeMap<(String, String), LockEdge>,
    ) {
        let f = self.fns[i];
        // One dataflow fact per acquire site in this function.
        let acquires: Vec<usize> = f
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Step::Acquire { .. }))
            .map(|(idx, _)| idx)
            .collect();
        if acquires.is_empty() {
            return;
        }
        let nfacts = acquires.len();
        let acq_fields = |si: usize| -> (&str, &str, u32) {
            match &f.steps[si] {
                Step::Acquire {
                    lock,
                    binding,
                    line,
                    ..
                } => (lock.as_str(), binding.as_str(), *line),
                _ => unreachable!("acquires holds Acquire indices only"),
            }
        };
        let apply = |state: &mut BitSet, step_idx: usize| match &f.steps[step_idx] {
            Step::Acquire { .. } => {
                let bit = acquires
                    .iter()
                    .position(|&si| si == step_idx)
                    .expect("every Acquire step is an acquire site");
                state.set(bit);
            }
            Step::Release { binding } => {
                for (bit, &si) in acquires.iter().enumerate() {
                    if acq_fields(si).1 == binding {
                        state.clear(bit);
                    }
                }
            }
            _ => {}
        };
        let cfg = Cfg::build(f);
        let ins = solve(
            cfg.blocks.len(),
            &cfg.succs,
            cfg.entry,
            nfacts,
            Merge::May,
            &BitSet::empty(nfacts),
            &mut |b, state| {
                for &step_idx in &cfg.blocks[b] {
                    apply(state, step_idx);
                }
            },
        );
        // Innermost live guard: the latest acquire site still live.
        let innermost =
            |state: &BitSet| -> Option<usize> { state.iter_ones().map(|bit| acquires[bit]).max() };
        for (b, block) in cfg.blocks.iter().enumerate() {
            let mut state = ins[b].clone();
            for &step_idx in block {
                match &f.steps[step_idx] {
                    Step::Acquire {
                        lock, line, col, ..
                    } => {
                        if let Some(held_bit) = state
                            .iter_ones()
                            .find(|&bit| acq_fields(acquires[bit]).0 == lock)
                        {
                            let (_, hbind, hline) = acq_fields(acquires[held_bit]);
                            out.push(Violation {
                                rule: DOUBLE_LOCK_PATH,
                                file: f.file.clone(),
                                line: *line,
                                col: *col,
                                message: format!(
                                    "lock `{lock}` re-acquired while guard `{}` (bound line \
                                     {hline}) still holds it on some path — self-deadlock \
                                     on a non-reentrant mutex",
                                    guard_label(hbind, lock)
                                ),
                            });
                        }
                        for bit in state.iter_ones() {
                            let held = acq_fields(acquires[bit]).0;
                            // Same-lock re-acquisition is double-lock-path's
                            // finding; a self-edge here would re-report it
                            // as a one-node lock-order cycle.
                            if held == lock {
                                continue;
                            }
                            add_edge(
                                edges,
                                LockEdge {
                                    from: held.to_string(),
                                    to: lock.clone(),
                                    file: f.file.clone(),
                                    line: *line,
                                    via: None,
                                },
                            );
                        }
                    }
                    Step::Send {
                        method, line, col, ..
                    }
                    | Step::Recv {
                        method, line, col, ..
                    } => {
                        if let Some(si) = innermost(&state) {
                            let (lock, binding, gline) = acq_fields(si);
                            out.push(Violation {
                                rule: NO_LOCK_ACROSS_SEND,
                                file: f.file.clone(),
                                line: *line,
                                col: *col,
                                message: format!(
                                    "`.{method}()` while lock guard `{}` (bound line {gline}) \
                                     is live — a blocked channel with a held lock deadlocks \
                                     the site pump; drop the guard first",
                                    guard_label(binding, lock)
                                ),
                            });
                        }
                    }
                    step @ (Step::Suspend { .. } | Step::Blocking { .. }) => {
                        // Channel suspensions (recv_timeout) are
                        // no-lock-across-send's Recv case, not ours.
                        if !is_suspension(step) {
                            // Non-park Blocking: blocking-in-pump's.
                        } else if let Some(si) = innermost(&state) {
                            let (lock, binding, gline) = acq_fields(si);
                            let (what, line, col) = match step {
                                Step::Suspend { what, line, col } => (what, *line, *col),
                                Step::Blocking { what, line, col } => (what, *line, *col),
                                _ => unreachable!(),
                            };
                            out.push(Violation {
                                rule: GUARD_ACROSS_SUSPEND,
                                file: f.file.clone(),
                                line,
                                col,
                                message: format!(
                                    "suspension point `{what}` while lock guard `{}` (bound \
                                     line {gline}) is live on some path — a suspended task \
                                     holding a lock starves every task that needs it; drop \
                                     the guard before suspending",
                                    guard_label(binding, lock)
                                ),
                            });
                        }
                    }
                    Step::Call { target, line, col } => {
                        if !state.any() {
                            continue;
                        }
                        for callee in self.resolve(i, target) {
                            // Interprocedural lock-order edges;
                            // same-name edges are dropped because the
                            // name heuristic cannot distinguish two
                            // `lock` fields of different objects from
                            // a genuine re-entry.
                            for inner in &trans_locks[callee] {
                                for bit in state.iter_ones() {
                                    let held = acq_fields(acquires[bit]).0;
                                    if held != inner {
                                        add_edge(
                                            edges,
                                            LockEdge {
                                                from: held.to_string(),
                                                to: inner.clone(),
                                                file: f.file.clone(),
                                                line: *line,
                                                via: Some(self.quals[callee].clone()),
                                            },
                                        );
                                    }
                                }
                            }
                            if trans_chan[callee] {
                                let si = innermost(&state).expect("state non-empty");
                                let (lock, binding, gline) = acq_fields(si);
                                out.push(Violation {
                                    rule: NO_LOCK_ACROSS_SEND,
                                    file: f.file.clone(),
                                    line: *line,
                                    col: *col,
                                    message: format!(
                                        "call to `{}` performs channel operations while lock \
                                         guard `{}` (bound line {gline}) is live — drop the \
                                         guard before calling",
                                        self.quals[callee],
                                        guard_label(binding, lock)
                                    ),
                                });
                            } else if trans_suspend[callee] && confidently_typed(target) {
                                // May-suspend summaries only travel
                                // through calls whose target is typed
                                // (or a rank-filtered free fn) — a
                                // complex-receiver name fallback that
                                // happens to share a name with a
                                // spinning method is not evidence the
                                // guard crosses a suspension.
                                let si = innermost(&state).expect("state non-empty");
                                let (lock, binding, gline) = acq_fields(si);
                                out.push(Violation {
                                    rule: GUARD_ACROSS_SUSPEND,
                                    file: f.file.clone(),
                                    line: *line,
                                    col: *col,
                                    message: format!(
                                        "call to `{}` may suspend while lock guard `{}` \
                                         (bound line {gline}) is live — drop the guard \
                                         before calling",
                                        self.quals[callee],
                                        guard_label(binding, lock)
                                    ),
                                });
                            }
                            // Depth-1 interprocedural re-entry: a
                            // method on the *same type* directly
                            // re-acquiring a lock we hold. Typed
                            // receivers only — name fallback is too
                            // weak to claim same-object re-entry.
                            let same_object = matches!(
                                target,
                                CallTarget::Method {
                                    base: Base::SelfOnly | Base::SelfField(_),
                                    ..
                                }
                            ) && self.fns[callee].self_type
                                == self.fns[i].self_type;
                            if !same_object {
                                continue;
                            }
                            for cstep in &self.fns[callee].steps {
                                let Step::Acquire { lock: clock, .. } = cstep else {
                                    continue;
                                };
                                if let Some(bit) = state
                                    .iter_ones()
                                    .find(|&bit| acq_fields(acquires[bit]).0 == clock)
                                {
                                    let (_, hbind, hline) = acq_fields(acquires[bit]);
                                    out.push(Violation {
                                        rule: DOUBLE_LOCK_PATH,
                                        file: f.file.clone(),
                                        line: *line,
                                        col: *col,
                                        message: format!(
                                            "call to `{}` re-acquires lock `{clock}` while \
                                             guard `{}` (bound line {hline}) still holds it \
                                             — self-deadlock on a non-reentrant mutex",
                                            self.quals[callee],
                                            guard_label(hbind, clock)
                                        ),
                                    });
                                    break;
                                }
                            }
                        }
                    }
                    Step::Release { .. } => {}
                }
                apply(&mut state, step_idx);
            }
        }
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
    /// path). Shared by `blocking_pass` and `lost_wakeup_pass`.
    fn pump_reachable(&self, adj: &[Vec<CallEdge>]) -> BTreeMap<usize, (String, Vec<usize>)> {
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
                    for e in &adj[cur] {
                        if visited.contains_key(&e.callee) {
                            continue;
                        }
                        let mut p = path.clone();
                        p.push(e.callee);
                        visited.insert(e.callee, (q.clone(), p));
                        queue.push_back(e.callee);
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

    /// `lost-wakeup` for ONE function: in pump/worker loops, a state
    /// check that precedes waker registration on some path into a
    /// suspension point. Between the check and the registration a
    /// producer can enqueue and notify; the notification hits no
    /// registered waker and the consumer parks on stale state. Two-bit
    /// may-dataflow: C = "a state check has happened", S = "the most
    /// recent check precedes the most recent registration" (stale). The
    /// driver calls this only for functions reachable from
    /// [`PUMP_ENTRY_POINTS`] (`entry` is the reaching entry point) that
    /// register a waker; only suspension points inside loops flag.
    fn lost_wakeup_one(&self, i: usize, entry: &str, out: &mut Vec<Violation>) {
        const C: usize = 0; // a state check has happened
        const S: usize = 1; // that check is stale (register came after)
        let f = self.fns[i];
        let cfg = Cfg::build(f);
        let apply = |state: &mut BitSet, step: &Step| {
            if is_check_step(step) {
                state.set(C);
                state.clear(S);
            } else if is_register_step(step) && state.get(C) {
                state.set(S);
            }
        };
        let ins = solve(
            cfg.blocks.len(),
            &cfg.succs,
            cfg.entry,
            2,
            Merge::May,
            &BitSet::empty(2),
            &mut |b, state| {
                for &si in &cfg.blocks[b] {
                    apply(state, &f.steps[si]);
                }
            },
        );
        for (b, block) in cfg.blocks.iter().enumerate() {
            let mut state = ins[b].clone();
            for &si in block {
                let step = &f.steps[si];
                if cfg.in_loop[b] && is_suspension(step) && state.get(S) {
                    let (what, line, col) = suspension_site(step);
                    out.push(Violation {
                        rule: LOST_WAKEUP,
                        file: f.file.clone(),
                        line,
                        col,
                        message: format!(
                            "suspension point `{what}` in a loop reachable from `{entry}` \
                             can miss a wakeup: on some path the state check happens before \
                             the waker is registered, so a notification between them is \
                             lost — register first, re-check, then suspend"
                        ),
                    });
                }
                apply(&mut state, step);
            }
        }
    }

    /// Per-function CFG exports for the pump entry points.
    fn cfg_exports(&self) -> Vec<FnCfg> {
        let mut out: Vec<FnCfg> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(i, _)| PUMP_ENTRY_POINTS.contains(&self.quals[*i].as_str()))
            .map(|(i, f)| {
                let cfg = Cfg::build(f);
                FnCfg {
                    func: self.quals[i].clone(),
                    file: f.file.clone(),
                    line: f.line,
                    blocks: cfg.blocks.len(),
                    edges: cfg.edge_count(),
                    dot: cfg.to_dot(f),
                }
            })
            .collect();
        out.sort_by(|a, b| (&a.func, &a.file).cmp(&(&b.func, &b.file)));
        out
    }
}

/// Non-channel suspension: `.await`, `block_timeout`, park/yield — the
/// facts a may-suspend summary propagates. Channel receives are excluded
/// (they are `no-lock-across-send`'s concern under a guard).
fn is_non_channel_suspension(step: &Step) -> bool {
    matches!(step, Step::Suspend { .. })
        || matches!(step, Step::Blocking { what, .. } if what.contains("park"))
}

/// Call targets precise enough to carry a may-suspend summary: typed
/// receivers and qualified paths resolve through impls, bare names only
/// to rank-filtered free fns. Method calls on local/complex receivers
/// fall back to any same-named function — too weak for this rule.
fn confidently_typed(target: &CallTarget) -> bool {
    match target {
        CallTarget::Qualified { .. } | CallTarget::Bare { .. } => true,
        CallTarget::Method { base, .. } => matches!(base, Base::SelfOnly | Base::SelfField(_)),
    }
}

/// State-check calls whose result guards a suspension decision.
const CHECK_METHODS: [&str; 4] = ["try_recv", "is_empty", "peek", "is_ready"];

/// Waker/handoff-hint registration calls.
const REGISTER_METHODS: [&str; 5] = [
    "register",
    "register_waker",
    "subscribe",
    "add_waker",
    "set_waker",
];

fn is_check_step(step: &Step) -> bool {
    match step {
        Step::Recv { method, .. } => method == "try_recv",
        Step::Call { target, .. } => CHECK_METHODS.contains(&target.name()),
        _ => false,
    }
}

fn is_register_step(step: &Step) -> bool {
    matches!(step, Step::Call { target, .. } if REGISTER_METHODS.contains(&target.name()))
}

/// Location of a suspension step (callers guarantee `is_suspension`).
fn suspension_site(step: &Step) -> (String, u32, u32) {
    match step {
        Step::Suspend { what, line, col } => (what.clone(), *line, *col),
        Step::Blocking { what, line, col } => (what.clone(), *line, *col),
        Step::Recv {
            method, line, col, ..
        } => (format!(".{method}()"), *line, *col),
        _ => (String::new(), 1, 1),
    }
}

/// Record a lock-order edge unless its `(from, to)` pair already has one.
fn add_edge(edges: &mut BTreeMap<(String, String), LockEdge>, e: LockEdge) {
    edges.entry((e.from.clone(), e.to.clone())).or_insert(e);
}

/// Display name for a guard in diagnostics: statement temporaries get
/// described by their lock instead of the synthetic binding.
fn guard_label(binding: &str, lock: &str) -> String {
    if binding.starts_with("#t") {
        format!("<temporary {lock} guard>")
    } else {
        binding.to_string()
    }
}

// ---------------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------------

/// Find cycles in the lock-order graph; one violation per strongly
/// connected component that contains a cycle.
fn cycle_pass(nodes: &[String], edges: &[LockEdge], out: &mut Vec<Violation>) -> Vec<Vec<String>> {
    let idx: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let n = nodes.len();
    let mut reach = vec![vec![false; n]; n];
    for e in edges {
        reach[idx[e.from.as_str()]][idx[e.to.as_str()]] = true;
    }
    // Floyd–Warshall closure (lock graphs are tiny; cloning row k keeps
    // the inner loop a simple zip without split-borrow gymnastics).
    for k in 0..n {
        let row_k = reach[k].clone();
        for row in reach.iter_mut() {
            if !row[k] {
                continue;
            }
            for (dst, &src) in row.iter_mut().zip(row_k.iter()) {
                *dst |= src;
            }
        }
    }
    let edge_at = |from: usize, to: usize| -> Option<&LockEdge> {
        edges
            .iter()
            .find(|e| idx[e.from.as_str()] == from && idx[e.to.as_str()] == to)
    };
    let mut seen = vec![false; n];
    let mut cycles = Vec::new();
    for start in 0..n {
        if seen[start] || !reach[start][start] {
            continue;
        }
        // The SCC of `start` among cyclic nodes.
        let scc: Vec<usize> = (0..n)
            .filter(|&m| reach[start][m] && reach[m][start])
            .collect();
        for &m in &scc {
            seen[m] = true;
        }
        // Shortest explicit cycle through `start`, by BFS inside the SCC.
        let path = match shortest_cycle(start, &scc, edges, &idx) {
            Some(p) => p,
            None => continue,
        };
        let mut desc = Vec::new();
        for w in path.windows(2) {
            if let Some(e) = edge_at(w[0], w[1]) {
                let via = match &e.via {
                    Some(v) => format!(" via `{v}`"),
                    None => String::new(),
                };
                desc.push(format!(
                    "`{}` -> `{}` at {}:{}{via}",
                    e.from, e.to, e.file, e.line
                ));
            }
        }
        let first = edge_at(path[0], path[1]);
        let cycle_nodes: Vec<String> = path[..path.len() - 1]
            .iter()
            .map(|&m| nodes[m].clone())
            .collect();
        out.push(Violation {
            rule: LOCK_ORDER_CYCLE,
            file: first.map(|e| e.file.clone()).unwrap_or_default(),
            line: first.map(|e| e.line).unwrap_or(1),
            col: 1,
            message: format!(
                "lock-acquisition-order cycle: {} — two threads taking these locks in \
                 opposite orders can deadlock; pick one global order",
                desc.join(", ")
            ),
        });
        cycles.push(cycle_nodes);
    }
    cycles
}

/// BFS for the shortest edge path `start -> ... -> start` (length >= 1)
/// inside one SCC. Returns node indices including the final `start`.
fn shortest_cycle(
    start: usize,
    scc: &[usize],
    edges: &[LockEdge],
    idx: &BTreeMap<&str, usize>,
) -> Option<Vec<usize>> {
    let in_scc = |m: usize| scc.contains(&m);
    let succs = |m: usize| -> Vec<usize> {
        edges
            .iter()
            .filter(|e| idx[e.from.as_str()] == m)
            .map(|e| idx[e.to.as_str()])
            .filter(|&t| in_scc(t))
            .collect()
    };
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    while let Some(cur) = queue.pop_front() {
        for t in succs(cur) {
            if t == start {
                // Walk the parent chain cur -> ... -> start, then close
                // the cycle with the edge cur -> start just found.
                let mut chain = vec![cur];
                let mut at = cur;
                while at != start {
                    let p = *parent.get(&at)?;
                    chain.push(p);
                    at = p;
                }
                chain.reverse();
                chain.push(start);
                return Some(chain);
            }
            if !parent.contains_key(&t) && t != start {
                parent.insert(t, cur);
                queue.push_back(t);
            }
        }
    }
    None
}
