//! Stage 2 of the graph analyzer: per-function fact extraction.
//!
//! Walks the token trees from [`crate::parser`] and produces, for every
//! `fn` item, a source-ordered list of [`Step`]s: `.lock()` calls,
//! channel `send`/`recv` endpoints, other blocking calls (`join`, condvar
//! `wait`, `thread::sleep`, `park`) and call expressions. It also records
//! channel creation sites (`let (tx, rx) = bounded(..)`), simple aliases
//! (`let a = b;`, `container.push(tx)`, struct-literal fields) and struct
//! field types — everything [`crate::graph`] needs to assemble the call
//! graph and the channel topology.
//!
//! The model is deliberately approximate (names, not types), but sound
//! in the direction a lint wants: unknown receivers degrade to
//! name-based call resolution, and unresolvable channel endpoints are
//! reported as external rather than flagged.

use crate::lexer::TokKind;
use crate::parser::{Group, ParseError, Tree};

/// How a method call's receiver expression begins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Base {
    /// `self.method(..)`.
    SelfOnly,
    /// `self.field.method(..)` (first field segment).
    SelfField(String),
    /// `name.method(..)` or `name[i].method(..)` — a local path.
    Local(String),
    /// Anything more complicated (`f().g.method(..)`, `(*p).method(..)`).
    Complex,
}

/// A resolved-enough call target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// `recv.name(..)`.
    Method { name: String, base: Base },
    /// `Type::name(..)` (`Self` is rewritten to the impl type).
    Qualified { ty: String, name: String },
    /// `name(..)`.
    Bare { name: String },
}

impl CallTarget {
    /// The called function's unqualified name.
    pub fn name(&self) -> &str {
        match self {
            CallTarget::Method { name, .. } => name,
            CallTarget::Qualified { name, .. } => name,
            CallTarget::Bare { name } => name,
        }
    }
}

/// One event inside a function body, in source order.
#[derive(Clone, Debug)]
pub enum Step {
    /// A `.lock(..)` call on the receiver named `lock`.
    Acquire { lock: String, line: u32, col: u32 },
    /// `.send(..)` / `.try_send(..)`.
    Send {
        base: Base,
        method: String,
        line: u32,
        col: u32,
    },
    /// `.recv(..)` family. `bounded` is true for `try_recv`/`recv_timeout`.
    Recv {
        base: Base,
        method: String,
        bounded: bool,
        line: u32,
        col: u32,
    },
    /// A non-channel blocking call: `.join(..)`, condvar `.wait(..)`,
    /// `thread::sleep(..)`, `thread::park(..)`.
    Blocking { what: String, line: u32, col: u32 },
    /// A call that may resolve to a workspace function.
    Call {
        target: CallTarget,
        line: u32,
        col: u32,
    },
}

/// `let (tx, rx) = bounded(..) / channel(..) / unbounded(..)`.
#[derive(Clone, Debug)]
pub struct ChannelCreate {
    /// Sender binding name.
    pub tx: String,
    /// Receiver binding name.
    pub rx: String,
    /// 1-based line of the `let`.
    pub line: u32,
}

/// A struct-literal field assignment `Type { field: source, .. }` seen
/// inside a function body — lets `self.field` endpoints in the struct's
/// methods resolve back to the constructing function's locals.
#[derive(Clone, Debug)]
pub struct FieldAlias {
    /// The struct being built.
    pub struct_name: String,
    /// Field name.
    pub field: String,
    /// Source local in the constructing function (shorthand fields alias
    /// themselves).
    pub source: String,
}

/// Everything extracted from one `fn`.
#[derive(Clone, Debug)]
pub struct FnFact {
    /// Unqualified name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub self_type: Option<String>,
    /// Trait being implemented (`impl Trait for Type`), or the trait
    /// itself for default methods.
    pub trait_name: Option<String>,
    /// Workspace-relative file.
    pub file: String,
    /// Ordered body events.
    pub steps: Vec<Step>,
    /// Channels created here.
    pub creates: Vec<ChannelCreate>,
    /// `alias -> source` local aliases (`let a = b;`, `c.push(b)`).
    pub local_aliases: Vec<(String, String)>,
    /// Struct-literal field assignments made here.
    pub field_aliases: Vec<FieldAlias>,
}

impl FnFact {
    /// `Type::name`, or just `name` for free functions.
    pub fn qual(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A struct definition's field types, by field name.
#[derive(Clone, Debug)]
pub struct StructFact {
    /// Struct name.
    pub name: String,
    /// `(field, idents appearing in its type)`.
    pub fields: Vec<(String, Vec<String>)>,
}

/// All facts extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub path: String,
    /// Function facts, in source order.
    pub fns: Vec<FnFact>,
    /// Struct definitions.
    pub structs: Vec<StructFact>,
    /// Delimiter diagnostics from the tree parser.
    pub parse_errors: Vec<ParseError>,
}

/// Extract facts from one file's parsed trees.
pub fn extract(path: &str, trees: &[Tree], parse_errors: Vec<ParseError>) -> FileFacts {
    let mut out = FileFacts {
        path: path.to_string(),
        parse_errors,
        ..Default::default()
    };
    scan_items(path, trees, None, None, &mut out);
    out
}

const KEYWORDS: [&str; 27] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "mut",
    "ref", "move", "in", "as", "fn", "impl", "trait", "struct", "enum", "mod", "use", "pub",
    "where", "unsafe", "dyn", "const",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

// ---------------------------------------------------------------------------
// Item scanning
// ---------------------------------------------------------------------------

fn scan_items(
    path: &str,
    trees: &[Tree],
    self_type: Option<&str>,
    trait_name: Option<&str>,
    out: &mut FileFacts,
) {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].is_ident("fn") {
            i = scan_fn(path, trees, i, self_type, trait_name, out);
        } else if trees[i].is_ident("impl") {
            i = scan_impl(path, trees, i, out);
        } else if trees[i].is_ident("trait") {
            i = scan_trait_or_mod(path, trees, i, true, out);
        } else if trees[i].is_ident("mod") {
            i = scan_trait_or_mod(path, trees, i, false, out);
        } else if trees[i].is_ident("struct") {
            i = scan_struct(trees, i, out);
        } else {
            i += 1;
        }
    }
}

/// Parse a `fn` item starting at the `fn` keyword; returns the index to
/// resume scanning from.
fn scan_fn(
    path: &str,
    trees: &[Tree],
    at: usize,
    self_type: Option<&str>,
    trait_name: Option<&str>,
    out: &mut FileFacts,
) -> usize {
    let Some(name) = trees.get(at + 1).and_then(|t| t.ident()) else {
        return at + 1;
    };
    // Parameters: the first `(` group after the name (generics stay flat).
    let mut j = at + 2;
    while j < trees.len() && !trees[j].is_group('(') {
        if trees[j].is_punct(";") || trees[j].is_group('{') {
            break;
        }
        j += 1;
    }
    // Body: the first `{` group before a `;`.
    let mut k = j;
    let body = loop {
        match trees.get(k) {
            None => break None,
            Some(t) if t.is_punct(";") => break None,
            Some(t) if t.is_group('{') => break t.group(),
            Some(_) => k += 1,
        }
    };
    let Some(body) = body else {
        // Declaration only (trait method signature).
        return k.min(trees.len()) + 1;
    };
    let mut fact = FnFact {
        name: name.to_string(),
        self_type: self_type.map(str::to_string),
        trait_name: trait_name.map(str::to_string),
        file: path.to_string(),
        steps: Vec::new(),
        creates: Vec::new(),
        local_aliases: Vec::new(),
        field_aliases: Vec::new(),
    };
    walk_block(&mut fact, &body.trees);
    out.fns.push(fact);
    k + 1
}

/// Parse an `impl` header and recurse into its body.
fn scan_impl(path: &str, trees: &[Tree], at: usize, out: &mut FileFacts) -> usize {
    // Header leaves up to the body `{` group.
    let mut j = at + 1;
    let mut header: Vec<&Tree> = Vec::new();
    let body = loop {
        match trees.get(j) {
            None => break None,
            Some(t) if t.is_group('{') => break t.group(),
            Some(t) if t.is_punct(";") => break None,
            Some(t) => {
                header.push(t);
                j += 1;
            }
        }
    };
    let Some(body) = body else {
        return j.min(trees.len()) + 1;
    };
    // Skip leading generic params `<...>` (angle leaves).
    let mut h = 0;
    if header.first().is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while h < header.len() {
            if header[h].is_punct("<") {
                depth += 1;
            } else if header[h].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    h += 1;
                    break;
                }
            }
            h += 1;
        }
    }
    let rest = &header[h..];
    let for_pos = rest.iter().position(|t| t.is_ident("for"));
    let (trait_part, type_part) = match for_pos {
        Some(p) => (&rest[..p], &rest[p + 1..]),
        None => (&rest[..0], rest),
    };
    let type_name = last_path_segment(type_part);
    let trait_nm = last_path_segment(trait_part);
    scan_items(
        path,
        &body.trees,
        type_name.as_deref(),
        trait_nm.as_deref(),
        out,
    );
    j + 1
}

/// The final path segment before any generic arguments: `a::b::C<T>` → `C`.
fn last_path_segment(trees: &[&Tree]) -> Option<String> {
    let mut last = None;
    for t in trees {
        if t.is_punct("<") {
            break;
        }
        if t.is_ident("where") {
            break;
        }
        if let Some(id) = t.ident() {
            last = Some(id.to_string());
        }
    }
    last
}

fn scan_trait_or_mod(
    path: &str,
    trees: &[Tree],
    at: usize,
    is_trait: bool,
    out: &mut FileFacts,
) -> usize {
    let name = trees.get(at + 1).and_then(|t| t.ident());
    let mut j = at + 1;
    while j < trees.len() && !trees[j].is_group('{') {
        if trees[j].is_punct(";") {
            return j + 1;
        }
        j += 1;
    }
    let Some(body) = trees.get(j).and_then(|t| t.group()) else {
        return j + 1;
    };
    if is_trait {
        scan_items(path, &body.trees, name, name, out);
    } else {
        scan_items(path, &body.trees, None, None, out);
    }
    j + 1
}

fn scan_struct(trees: &[Tree], at: usize, out: &mut FileFacts) -> usize {
    let Some(name) = trees.get(at + 1).and_then(|t| t.ident()) else {
        return at + 1;
    };
    let mut j = at + 2;
    while j < trees.len() {
        match &trees[j] {
            t if t.is_punct(";") => return j + 1, // unit or tuple struct
            t if t.is_group('(') => {
                j += 1; // tuple struct fields — no named fields to record
            }
            t if t.is_group('{') => {
                let body = match t.group() {
                    Some(g) => g,
                    None => return j + 1,
                };
                let fields = parse_fields(&body.trees);
                out.structs.push(StructFact {
                    name: name.to_string(),
                    fields,
                });
                return j + 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Parse `field: Type, ...` inside a struct body.
fn parse_fields(trees: &[Tree]) -> Vec<(String, Vec<String>)> {
    let mut fields = Vec::new();
    for part in split_on_comma(trees) {
        // Skip attributes and visibility.
        let mut i = 0;
        while i < part.len() {
            if part[i].is_punct("#") && part.get(i + 1).is_some_and(|t| t.is_group('[')) {
                i += 2;
            } else if part[i].is_ident("pub") {
                i += 1;
                if part.get(i).is_some_and(|t| t.is_group('(')) {
                    i += 1;
                }
            } else {
                break;
            }
        }
        let Some(name) = part.get(i).and_then(|t| t.ident()) else {
            continue;
        };
        if !part.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            continue;
        }
        let mut idents = Vec::new();
        collect_idents(&part[i + 2..], &mut idents);
        fields.push((name.to_string(), idents));
    }
    fields
}

fn collect_idents(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                if tok.kind == TokKind::Ident && !is_keyword(&tok.text) {
                    out.push(tok.text.clone());
                }
            }
            Tree::Group(g) => collect_idents(&g.trees, out),
        }
    }
}

fn split_on_comma(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut parts = Vec::new();
    let mut start = 0;
    for (i, t) in trees.iter().enumerate() {
        if t.is_punct(",") {
            parts.push(&trees[start..i]);
            start = i + 1;
        }
    }
    if start < trees.len() {
        parts.push(&trees[start..]);
    }
    parts
}

// ---------------------------------------------------------------------------
// Function-body walking
// ---------------------------------------------------------------------------

/// Walk a `{}` block statement by statement, so `let` shapes (channel
/// creation, aliases) are seen whole.
fn walk_block(fact: &mut FnFact, trees: &[Tree]) {
    let mut i = 0;
    while i < trees.len() {
        // Statement: up to a top-level `;`, or up to (but not including)
        // a top-level `let` that starts the next statement.
        let mut end = i;
        while end < trees.len() {
            if trees[end].is_punct(";") {
                break;
            }
            if end > i
                && trees[end].is_ident("let")
                && !trees[end - 1].is_ident("if")
                && !trees[end - 1].is_ident("while")
                && !trees[end - 1].is_punct("=")
            {
                break;
            }
            end += 1;
        }
        let stmt = &trees[i..end];
        if !stmt.is_empty() {
            handle_stmt(fact, stmt);
        }
        i = if end < trees.len() && trees[end].is_punct(";") {
            end + 1
        } else {
            end.max(i + 1)
        };
    }
}

/// One statement: detect `let` shapes (channel creation, aliases), then
/// walk the whole statement for steps.
fn handle_stmt(fact: &mut FnFact, stmt: &[Tree]) {
    if stmt[0].is_ident("let") {
        let mut p = 1;
        if stmt.get(p).is_some_and(|t| t.is_ident("mut")) {
            p += 1;
        }
        let eq = stmt.iter().position(|t| t.is_punct("="));
        // Tuple pattern: channel creation.
        if let (Some(pat), Some(eq)) = (stmt.get(p).and_then(|t| t.group()), eq) {
            if pat.delim == '(' {
                let names: Vec<&str> = pat.trees.iter().filter_map(|t| t.ident()).collect();
                let init = &stmt[eq + 1..];
                if names.len() == 2 && init_creates_channel(init) {
                    let (line, _) = stmt[0].pos();
                    fact.creates.push(ChannelCreate {
                        tx: names[0].to_string(),
                        rx: names[1].to_string(),
                        line,
                    });
                }
            }
        } else if let (Some(binding), Some(eq)) = (stmt.get(p).and_then(|t| t.ident()), eq) {
            // Plain alias: `let a = b;` / `let a = b.clone();`.
            if let Some(src) = alias_source(&stmt[eq + 1..]) {
                fact.local_aliases
                    .push((binding.to_string(), src.to_string()));
            }
        }
    }
    walk_exprs(fact, stmt);
}

/// True iff the init expression calls `bounded` / `unbounded` / `channel`.
fn init_creates_channel(init: &[Tree]) -> bool {
    for (i, t) in init.iter().enumerate() {
        if let Some(id) = t.ident() {
            if matches!(id, "bounded" | "unbounded" | "channel") {
                // Followed (possibly via turbofish leaves) by a call group.
                if init[i + 1..].iter().any(|n| n.is_group('(')) {
                    return true;
                }
            }
        }
    }
    false
}

/// `b`, `b.clone()`, `b?` — expressions that alias an existing local.
fn alias_source(init: &[Tree]) -> Option<&str> {
    let first = init.first()?.ident()?;
    if is_keyword(first) || init.first()?.leaf()?.kind != TokKind::Ident {
        return None;
    }
    let ok = match init.len() {
        1 => true,
        2 => init[1].is_punct("?"),
        4 => init[1].is_punct(".") && init[2].is_ident("clone") && init[3].is_group('('),
        _ => false,
    };
    ok.then_some(first)
}

/// Walk one statement's trees in source order, emitting steps. Control
/// flow is not modelled: a step inside a branch or loop is a step.
fn walk_exprs(fact: &mut FnFact, trees: &[Tree]) {
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(tok) if tok.kind == TokKind::Ident => {
                let name = tok.text.as_str();
                // Macro invocation: `name!(...)` — walk the args, but the
                // macro itself is not a call.
                if trees.get(i + 1).is_some_and(|t| t.is_punct("!")) {
                    i += 2;
                    continue;
                }
                let called = trees.get(i + 1).is_some_and(|t| t.is_group('('));
                if called && !is_keyword(name) {
                    if i > 0 && trees[i - 1].is_punct(".") {
                        handle_method_call(fact, trees, i, name, tok.line, tok.col);
                    } else {
                        handle_plain_call(fact, trees, i, name, tok.line, tok.col);
                    }
                }
                // Struct literal: `Upper { field: src, .. }`.
                if name.chars().next().is_some_and(char::is_uppercase)
                    && trees.get(i + 1).is_some_and(|t| t.is_group('{'))
                    && !called
                {
                    if let Some(g) = trees[i + 1].group() {
                        harvest_field_aliases(fact, name, g);
                    }
                }
            }
            Tree::Group(g) if g.delim == '{' => walk_block(fact, &g.trees),
            Tree::Group(g) => walk_exprs(fact, &g.trees),
            Tree::Leaf(_) => {}
        }
        i += 1;
    }
}

const BOUNDED_RECV: [&str; 2] = ["try_recv", "recv_timeout"];

fn handle_method_call(
    fact: &mut FnFact,
    trees: &[Tree],
    i: usize,
    name: &str,
    line: u32,
    col: u32,
) {
    let base = receiver_base(trees, i);
    match name {
        "lock" => fact.steps.push(Step::Acquire {
            lock: lock_name_of(&base, trees, i),
            line,
            col,
        }),
        "send" | "try_send" => fact.steps.push(Step::Send {
            base,
            method: name.to_string(),
            line,
            col,
        }),
        "recv" | "try_recv" | "recv_timeout" => fact.steps.push(Step::Recv {
            base,
            method: name.to_string(),
            bounded: BOUNDED_RECV.contains(&name),
            line,
            col,
        }),
        "join" | "wait" => fact.steps.push(Step::Blocking {
            what: format!(".{name}()"),
            line,
            col,
        }),
        _ => {
            if name.chars().next().is_some_and(char::is_uppercase) {
                return; // enum-variant / tuple-struct pattern or literal
            }
            if name == "push" {
                // `container.push(endpoint)` — alias the container to the
                // endpoint so `container[i].send(..)` resolves.
                if let (Base::Local(container) | Base::SelfField(container), Some(arg)) =
                    (&base, trees.get(i + 1).and_then(|t| t.group()))
                {
                    if let [only] = arg.trees.as_slice() {
                        if let Some(endpoint) = only.ident() {
                            fact.local_aliases
                                .push((container.clone(), endpoint.to_string()));
                        }
                    }
                }
            }
            fact.steps.push(Step::Call {
                target: CallTarget::Method {
                    name: name.to_string(),
                    base,
                },
                line,
                col,
            });
        }
    }
}

fn handle_plain_call(fact: &mut FnFact, trees: &[Tree], i: usize, name: &str, line: u32, col: u32) {
    if matches!(name, "sleep" | "park") {
        fact.steps.push(Step::Blocking {
            what: format!("{name}()"),
            line,
            col,
        });
        return;
    }
    if name.chars().next().is_some_and(char::is_uppercase) {
        return; // tuple-struct or enum-variant constructor
    }
    // Qualified path? `Type::name(` — two `:` puncts then an ident.
    let qualifier = if i >= 3
        && trees[i - 1].is_punct(":")
        && trees[i - 2].is_punct(":")
        && trees[i - 3]
            .leaf()
            .is_some_and(|t| t.kind == TokKind::Ident)
    {
        trees[i - 3].ident().map(str::to_string)
    } else {
        None
    };
    let target = match qualifier {
        Some(ty) => CallTarget::Qualified {
            ty,
            name: name.to_string(),
        },
        None => CallTarget::Bare {
            name: name.to_string(),
        },
    };
    fact.steps.push(Step::Call { target, line, col });
}

/// Classify the receiver chain ending at the `.` before `trees[i]`.
fn receiver_base(trees: &[Tree], i: usize) -> Base {
    if i < 2 || !trees[i - 1].is_punct(".") {
        return Base::Complex;
    }
    // Walk back over the postfix chain.
    let mut j = i - 1; // at the `.`
    let mut has_call = false;
    while j > 0 {
        let t = &trees[j - 1];
        let cont = match t {
            Tree::Leaf(tok) => match tok.kind {
                // A keyword (`match`, `return`, `if`, ...) ends the chain;
                // `self` and `await` are the two that occur inside one.
                TokKind::Ident => {
                    !is_keyword(&tok.text) || tok.text == "self" || tok.text == "await"
                }
                TokKind::Punct => matches!(tok.text.as_str(), "." | "?"),
                _ => false,
            },
            Tree::Group(g) => {
                if g.delim == '(' {
                    has_call = true;
                }
                g.delim == '(' || g.delim == '['
            }
        };
        if !cont {
            break;
        }
        j -= 1;
    }
    // `trees[j..i-1]` is the receiver chain.
    let chain = &trees[j..i - 1];
    let Some(first) = chain.first().and_then(|t| t.ident()) else {
        return Base::Complex;
    };
    if has_call {
        return Base::Complex;
    }
    if first == "self" {
        match chain.len() {
            1 => Base::SelfOnly,
            _ => match chain.get(2).and_then(|t| t.ident()) {
                Some(f) => Base::SelfField(f.to_string()),
                None => Base::Complex,
            },
        }
    } else if is_keyword(first) {
        Base::Complex
    } else {
        // `name`, `name[i]`, `name.field` — keep the head local.
        Base::Local(first.to_string())
    }
}

/// A human-readable lock identity for the receiver of `.lock()`: the last
/// path segment of the receiver (`self.events.lock()` → `events`,
/// `state.lock()` → `state`).
fn lock_name_of(base: &Base, trees: &[Tree], i: usize) -> String {
    // Prefer the ident immediately before the `.lock`.
    if i >= 2 {
        if let Some(id) = trees[i - 2].ident() {
            if id != "self" {
                return id.to_string();
            }
        }
    }
    match base {
        Base::SelfField(f) => f.clone(),
        Base::Local(n) => n.clone(),
        Base::SelfOnly => "self".to_string(),
        Base::Complex => "<expr>".to_string(),
    }
}

/// Record `Struct { field: source }` aliases (shorthand fields alias
/// themselves).
fn harvest_field_aliases(fact: &mut FnFact, struct_name: &str, body: &Group) {
    for part in split_on_comma(&body.trees) {
        match part {
            [f] => {
                if let Some(field) = f.ident() {
                    fact.field_aliases.push(FieldAlias {
                        struct_name: struct_name.to_string(),
                        field: field.to_string(),
                        source: field.to_string(),
                    });
                }
            }
            [f, colon, rest @ ..] if colon.is_punct(":") => {
                let (Some(field), Some(src)) = (f.ident(), rest.first().and_then(|t| t.ident()))
                else {
                    continue;
                };
                if is_keyword(src) {
                    continue;
                }
                fact.field_aliases.push(FieldAlias {
                    struct_name: struct_name.to_string(),
                    field: field.to_string(),
                    source: src.to_string(),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn facts(src: &str) -> FileFacts {
        let parsed = parse(&lex(src).tokens);
        extract("crates/test/src/f.rs", &parsed.trees, parsed.errors)
    }

    #[test]
    fn fn_boundaries_and_quals() {
        let f = facts(
            "fn free() {}\n\
             impl Foo { fn method(&self) {} }\n\
             impl Bar for Baz { fn tmethod(&self) {} }\n\
             trait Qux { fn with_default(&self) { self.with_default(); } fn sig(&self); }",
        );
        let quals: Vec<String> = f.fns.iter().map(|f| f.qual()).collect();
        assert_eq!(
            quals,
            ["free", "Foo::method", "Baz::tmethod", "Qux::with_default"]
        );
        assert_eq!(f.fns[2].trait_name.as_deref(), Some("Bar"));
    }

    #[test]
    fn steps_keep_source_order_through_control_flow() {
        let f = facts(
            "fn g(m: &Mutex<u32>, rx: &Receiver<u32>) {\n\
               let guard = m.lock().unwrap();\n\
               if c { helper(); } else { thread::sleep(d); }\n\
               for x in rx.try_recv() { match x { A => m.lock().unwrap().touch(), B => {} } }\n\
             }",
        );
        let names: Vec<String> = f.fns[0]
            .steps
            .iter()
            .map(|s| match s {
                Step::Acquire { lock, .. } => format!("acq:{lock}"),
                Step::Call { target, .. } => format!("call:{}", target.name()),
                Step::Blocking { what, .. } => format!("block:{what}"),
                Step::Recv { method, .. } => format!("recv:{method}"),
                Step::Send { method, .. } => format!("send:{method}"),
            })
            .collect();
        // `.unwrap()` shows up as an (unresolvable, stoplisted) call.
        assert_eq!(
            names,
            [
                "acq:m",
                "call:unwrap",
                "call:helper",
                "block:sleep()",
                "recv:try_recv",
                "acq:m",
                "call:unwrap",
                "call:touch"
            ]
        );
    }

    #[test]
    fn channel_create_and_aliases() {
        let f = facts(
            "fn h() {\n\
               let (to_coord, from_sites) = bounded::<u32>(16);\n\
               let mut v = Vec::new();\n\
               v.push(to_coord);\n\
               let w = from_sites;\n\
               W { tx: to_coord, rx }\n\
             }",
        );
        let fact = &f.fns[0];
        assert_eq!(fact.creates.len(), 1);
        assert_eq!(fact.creates[0].tx, "to_coord");
        assert_eq!(fact.creates[0].rx, "from_sites");
        assert!(fact
            .local_aliases
            .iter()
            .any(|(a, s)| a == "v" && s == "to_coord"));
        assert!(fact
            .local_aliases
            .iter()
            .any(|(a, s)| a == "w" && s == "from_sites"));
        assert!(fact
            .field_aliases
            .iter()
            .any(|a| a.struct_name == "W" && a.field == "tx" && a.source == "to_coord"));
        assert!(fact
            .field_aliases
            .iter()
            .any(|a| a.struct_name == "W" && a.field == "rx" && a.source == "rx"));
    }

    #[test]
    fn send_recv_and_blocking_steps() {
        let f = facts(
            "impl W { fn go(&mut self) {\n\
               self.tx.send(1).ok();\n\
               let _ = self.rx.recv_timeout(d);\n\
               handle.join();\n\
               thread::sleep(d);\n\
             } }",
        );
        let steps = &f.fns[0].steps;
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::Send { base: Base::SelfField(f), .. } if f == "tx")));
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::Recv { bounded: true, .. })));
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::Blocking { what, .. } if what == ".join()")));
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::Blocking { what, .. } if what == "sleep()")));
    }

    #[test]
    fn struct_fields_collected() {
        let f = facts(
            "struct S { pub a: Box<dyn Scheme + Send>, b: VecDeque<Op>, }\n\
             struct T(u32);",
        );
        assert_eq!(f.structs.len(), 1);
        let s = &f.structs[0];
        assert_eq!(s.name, "S");
        assert!(s.fields[0].1.contains(&"Scheme".to_string()));
        assert!(s.fields[1].1.contains(&"VecDeque".to_string()));
    }
}
