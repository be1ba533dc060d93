//! Interprocedural per-function summaries over the [`FileModel`] call
//! graph: which ranked locks a function may acquire (directly or
//! transitively), whether it may block on backend I/O, dispatch onto a
//! shard run queue, or panic — the inputs of the lock-graph pass
//! ([`crate::lockgraph`]).
//!
//! The call graph is name-based like the panic-hygiene rule's, with two
//! refinements that keep std-alike method names (`get`, `remove`, `insert`,
//! …) from wiring every `HashMap` access to the workspace functions of the
//! same name:
//!
//! * **receiver modules** — a call whose receiver token names a known
//!   component (`dmsh.get(..)`) binds only to functions defined in that
//!   component's file;
//! * **self binding** — `self.foo(..)` prefers functions defined in the
//!   same file before falling back to the global name table.
//!
//! Everything else goes through a stoplist of ubiquitous names; severed
//! edges are the accepted cost of a non-parser, and the dynamic
//! cross-check (`mm-lint crosscheck` against `mm_scope
//! --emit-lock-edges`) is the net that catches a severed edge that
//! mattered.

use std::collections::{BTreeMap, HashMap};

use crate::model::{FileModel, FnItem};

/// `(file index, fn index)` — identity of one function in the workspace.
pub type FnRef = (usize, usize);

/// How long a direct lock acquisition is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqScope {
    /// Guard bound to a local: held to the end of the enclosing block.
    Block,
    /// Chained temporary guard: released at the end of the statement.
    Transient,
    /// Held until byte offset `end` — a scoped-helper call
    /// (`with_apply_lock(node, id, || ..)`) whose closure body is
    /// textually in the caller.
    Span(usize),
}

/// One direct lock acquisition inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct DirectAcq {
    pub rank: u8,
    pub name: &'static str,
    pub scope: AcqScope,
    pub pos: usize,
    /// From a `lockorder::acquired(LockRank::X)` annotation rather than a
    /// lock expression: a re-statement of an acquisition the simulation
    /// usually already saw (skipped when the same rank is already held at
    /// the same depth).
    pub annotation: bool,
}

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    pub name: String,
    pub pos: usize,
    /// Workspace functions this name may bind to (empty for std/stoplist).
    pub targets: Vec<FnRef>,
    /// The callee name itself is a backend-I/O primitive.
    pub io_intrinsic: bool,
    /// The callee name itself is a shard run-queue dispatch.
    pub dispatch_intrinsic: bool,
}

/// Transitive facts about one function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// rank -> (rank name, via-chain of call names; empty for direct).
    pub acquires: BTreeMap<u8, (String, String)>,
    /// May block on backend I/O (gate/read/write/journal); via-chain.
    pub io: Option<String>,
    /// May dispatch onto a shard run queue; via-chain.
    pub dispatch: Option<String>,
    /// May panic (unwrap/expect/panic! in some reachable body); via-chain.
    pub panics: Option<String>,
}

/// The full workspace summary table.
pub struct Summaries {
    /// Direct lock events per function, sorted by position.
    pub direct: HashMap<FnRef, Vec<DirectAcq>>,
    /// Resolved calls per function, sorted by position.
    pub calls: HashMap<FnRef, Vec<ResolvedCall>>,
    /// Fixpoint summaries per function.
    pub fns: HashMap<FnRef, FnSummary>,
    /// Functions participating in the graph, in deterministic order.
    pub order: Vec<FnRef>,
}

/// The declared lock ranks (mirrors `megammap_telemetry::LockRank`; the
/// lint crate is dependency-free on purpose).
pub const RANKS: &[(u8, &str)] = &[
    (10, "VecState"),
    (30, "RtMeta"),
    (40, "ApplyShard"),
    (45, "ApplyVictim"),
    (48, "DirShard"),
    (50, "DmshMeta"),
    (70, "Mailbox"),
    (80, "Resource"),
];

/// Ranks whose guards must never be held across backend I/O or a shard
/// dispatch: the apply shards and the DMSH lock (the exact shape of the
/// PR 7 lost-dirty-flag race).
pub const IO_SENSITIVE_RANKS: &[u8] = &[40, 45, 50];

/// Guard-returning helper methods that acquire a ranked lock internally.
/// `(pattern, path filter, rank, name)`; patterns ending in `(` take
/// arguments (the transient check then looks past the matching paren).
const GUARD_HELPERS: &[(&str, &str, u8, &str)] = &[
    (".lock_state()", "", 10, "VecState"),
    (".lock_meta()", "", 50, "DmshMeta"),
    (".lock_meta_at(", "", 50, "DmshMeta"),
    (".probe(", "crates/core/src/runtime/directory.rs", 48, "DirShard"),
];

/// Scoped-helper calls that run their closure argument under a ranked
/// lock: the acquisition spans the call's parenthesized extent, so the
/// closure body (textually in the caller) is analyzed with the lock held
/// — matching how the runtime's `LockOrderToken` nests dynamically.
const SPAN_HELPERS: &[(&str, u8, &str)] =
    &[(".with_apply_lock(", 40, "ApplyShard"), (".try_with_apply_lock(", 45, "ApplyVictim")];

/// Callee names that *are* backend I/O, wherever they resolve: the fault
/// plan gate, the format-layer positional I/O, and the WAL append.
const IO_INTRINSICS: &[&str] = &["backend_gate", "read_at", "write_at", "journal_write"];

/// Callee names that enqueue onto a shard run queue.
const DISPATCH_INTRINSICS: &[&str] = &["dispatch_batch"];

/// A call whose receiver token is a key here binds only to functions
/// defined in the named file — the precise escape hatch for component
/// methods whose names collide with std containers (`dmsh.get(..)`).
const RECV_MODULES: &[(&str, &str)] = &[("dmsh", "crates/tiered/src/dmsh.rs")];

/// Ubiquitous names excluded from global (name-only) binding. Superset of
/// the panic-hygiene stoplist: summaries additionally cut container verbs
/// whose workspace homonyms (`Dmsh::get`/`put`/`remove`/`contains`,
/// `MmVec::open`, …) would otherwise attribute lock acquisitions to every
/// `HashMap` access. Those components are reached via the receiver rules
/// above instead.
const SUMMARY_STOPLIST: &[&str] = &[
    "new",
    "len",
    "is_empty",
    "clone",
    "default",
    "fmt",
    "from",
    "into",
    "eq",
    "cmp",
    "hash",
    "drop",
    "next",
    "iter",
    "min",
    "max",
    "name",
    "now",
    "split",
    "lock",
    "load",
    "store",
    "append", // std collisions shared with the panic-hygiene stoplist
    "get",
    "put",
    "remove",
    "insert",
    "contains",
    "push",
    "pop",
    "open",
    "send",
    "recv",
    "take",
    "extend",
    "retain",
    "entry",
    "truncate",
    "flush",
    "record",
    "mark",
    "set",
    "clear",
    "reset",
    "get_mut",
    "with",
    "wait",
    "abs",
    "end",
    // std-iterator adapters and ubiquitous getters that workspace types
    // also define (`Rdd::filter/collect/reduce` ride the TCP collectives;
    // `Device::used`, `TxGuard::begin`, `CommModel::charge`): a chained
    // `.filter(..)` on a plain Vec must not inherit their summaries.
    "filter",
    "map",
    "collect",
    "reduce",
    "sum",
    "fold",
    "count",
    "any",
    "all",
    "find",
    "position",
    "chain",
    "rev",
    "zip",
    "enumerate",
    "skip",
    "last",
    "first",
    "sort",
    "dedup",
    "join",
    "used",
    "charge",
    "begin",
    "advance",
    "spec",
    "kind",
    "size",
    "drain",
];

/// Extract `(receiver, name, pos)` for every call token in `span`:
/// `recv.name(..)` (receiver = the identifier right before the dot, empty
/// for `foo().name(..)` / `arr[i].name(..)`) and free `name(..)` calls
/// (receiver empty; `::`-qualified path segments are skipped like
/// [`crate::model::calls_in`]).
pub fn calls_with_recv(
    scrubbed: &str,
    span: std::ops::Range<usize>,
) -> Vec<(String, String, usize)> {
    let b = scrubbed.as_bytes();
    let mut out = Vec::new();
    let mut i = span.start;
    while i < span.end.min(b.len()) {
        if b[i].is_ascii_alphabetic() || b[i] == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            if i + 1 < b.len() && b[i] == b':' && b[i + 1] == b':' {
                continue; // path segment, not a call of this ident
            }
            let mut j = i;
            while j < b.len() && b[j] == b' ' {
                j += 1;
            }
            if j < b.len() && b[j] == b'(' {
                let mut recv = String::new();
                if start > 0 && b[start - 1] == b'.' {
                    let mut k = start - 1;
                    while k > 0 && (b[k - 1].is_ascii_alphanumeric() || b[k - 1] == b'_') {
                        k -= 1;
                    }
                    recv = scrubbed[k..start - 1].to_string();
                }
                out.push((recv, scrubbed[start..i].to_string(), start));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Byte offset just past the `)` matching the `(` at `open`.
pub fn match_paren(b: &[u8], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Whether the guard expression whose call ends at `after` is a chained
/// temporary (released at the end of the statement). The chain's `.` may
/// sit on the next line (`self.lock_meta_at(now).0\n    .blobs.get(&id)`),
/// so skip whitespace first — scrubbing is length-preserving, comments
/// between the call and the `.` are already spaces.
fn is_transient(scrubbed: &str, after: usize) -> bool {
    let b = scrubbed.as_bytes();
    let mut i = after;
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    b.get(i) == Some(&b'.')
}

/// Whether the guard at `pos` is dereferenced straight into a copy or a
/// store (`let n = *self.next.lock();`, `*self.next.lock() = n;`): the
/// guard is a temporary dropped at the end of the statement, not a named
/// binding held to the block's end.
fn is_deref_temporary(scrubbed: &str, pos: usize) -> bool {
    let stmt_start = scrubbed[..pos].rfind([';', '{', '}']).map_or(0, |i| i + 1);
    let stmt = scrubbed[stmt_start..pos].trim_start();
    if stmt.starts_with('*') {
        return true;
    }
    stmt.find('=').is_some_and(|eq| stmt[eq + 1..].trim_start().starts_with('*'))
}

fn rank_name(rank: u8) -> &'static str {
    RANKS.iter().find(|(r, _)| *r == rank).map_or("?", |(_, n)| n)
}

/// Direct lock events of one function, sorted by position.
fn direct_acqs(m: &FileModel, f: &FnItem) -> Vec<DirectAcq> {
    let mut out = Vec::new();
    let in_body = |pos: usize| f.body.contains(&pos) && !m.in_test(pos);
    // Plain `.lock()` with a ranked keyword in the receiver statement.
    for pos in m.occurrences(".lock()").collect::<Vec<_>>() {
        if !in_body(pos) {
            continue;
        }
        if let Some((rank, name)) = crate::rules::rank_of_lock(m, pos) {
            let scope = if is_transient(&m.scrubbed, pos + ".lock()".len())
                || is_deref_temporary(&m.scrubbed, pos)
            {
                AcqScope::Transient
            } else {
                AcqScope::Block
            };
            out.push(DirectAcq { rank, name, scope, pos, annotation: false });
        }
    }
    // Guard-returning helpers.
    for (pat, path, rank, name) in GUARD_HELPERS {
        if !path.is_empty() && !m.path.contains(path) {
            continue;
        }
        for pos in m.occurrences(pat).collect::<Vec<_>>() {
            if !in_body(pos) {
                continue;
            }
            let after = if pat.ends_with("()") {
                pos + pat.len()
            } else {
                match_paren(m.scrubbed.as_bytes(), pos + pat.len() - 1)
            };
            let scope = if is_transient(&m.scrubbed, after) {
                AcqScope::Transient
            } else {
                AcqScope::Block
            };
            out.push(DirectAcq { rank: *rank, name, scope, pos, annotation: false });
        }
    }
    // Scoped-helper calls: the lock spans the call's parenthesized extent.
    for (pat, rank, name) in SPAN_HELPERS {
        for pos in m.occurrences(pat).collect::<Vec<_>>() {
            if !in_body(pos) {
                continue;
            }
            let end = match_paren(m.scrubbed.as_bytes(), pos + pat.len() - 1);
            out.push(DirectAcq {
                rank: *rank,
                name,
                scope: AcqScope::Span(end),
                pos,
                annotation: false,
            });
        }
    }
    // `lockorder::acquired(LockRank::X)` annotations.
    for pos in m.occurrences("acquired(LockRank::").collect::<Vec<_>>() {
        if !in_body(pos) {
            continue;
        }
        let start = pos + "acquired(LockRank::".len();
        let rest = &m.scrubbed[start..];
        let end = rest.find(')').unwrap_or(0);
        let rank_ident = rest[..end].trim();
        if let Some(&(rank, name)) = RANKS.iter().find(|(_, n)| *n == rank_ident) {
            out.push(DirectAcq { rank, name, scope: AcqScope::Block, pos, annotation: true });
        }
    }
    out.sort_by_key(|a| a.pos);
    out
}

/// Resolve one call to its workspace targets.
fn resolve(
    recv: &str,
    name: &str,
    fi: usize,
    files: &[FileModel],
    by_name: &HashMap<&str, Vec<FnRef>>,
    by_file_name: &HashMap<(usize, &str), Vec<FnRef>>,
) -> Vec<FnRef> {
    if let Some((_, path)) = RECV_MODULES.iter().find(|(r, _)| *r == recv) {
        return by_name
            .get(name)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&(tfi, _)| files[tfi].path.ends_with(path))
            .collect();
    }
    if recv == "self" {
        if let Some(v) = by_file_name.get(&(fi, name)) {
            return v.clone();
        }
    }
    if SUMMARY_STOPLIST.contains(&name) {
        return Vec::new();
    }
    by_name.get(name).into_iter().flatten().copied().collect()
}

/// Compute direct facts and run the transitive fixpoint.
pub fn compute(files: &[FileModel]) -> Summaries {
    // Name tables over non-test functions with bodies.
    let mut by_name: HashMap<&str, Vec<FnRef>> = HashMap::new();
    let mut by_file_name: HashMap<(usize, &str), Vec<FnRef>> = HashMap::new();
    let mut order: Vec<FnRef> = Vec::new();
    for (fi, m) in files.iter().enumerate() {
        for (gi, f) in m.fns.iter().enumerate() {
            if f.body.is_empty() || m.in_test(f.body.start) {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            by_file_name.entry((fi, f.name.as_str())).or_default().push((fi, gi));
            order.push((fi, gi));
        }
    }

    let mut direct: HashMap<FnRef, Vec<DirectAcq>> = HashMap::new();
    let mut calls: HashMap<FnRef, Vec<ResolvedCall>> = HashMap::new();
    let mut fns: HashMap<FnRef, FnSummary> = HashMap::new();
    for &(fi, gi) in &order {
        let m = &files[fi];
        let f = &m.fns[gi];
        let da = direct_acqs(m, f);
        let mut summary = FnSummary::default();
        for a in &da {
            summary.acquires.entry(a.rank).or_insert_with(|| (a.name.to_string(), String::new()));
        }
        let mut rc = Vec::new();
        for (recv, name, pos) in calls_with_recv(&m.scrubbed, f.body.clone()) {
            if m.in_test(pos) {
                continue;
            }
            // Only the innermost fn owns the call (nested fns are their
            // own nodes).
            if m.enclosing_fn(pos).map(|g| g.body.start) != Some(f.body.start) {
                continue;
            }
            let io_intrinsic = IO_INTRINSICS.contains(&name.as_str());
            let dispatch_intrinsic = DISPATCH_INTRINSICS.contains(&name.as_str());
            let mut targets = resolve(&recv, &name, fi, files, &by_name, &by_file_name);
            targets.retain(|&t| t != (fi, gi)); // ignore self-recursion
            if targets.is_empty() && !io_intrinsic && !dispatch_intrinsic {
                continue;
            }
            if io_intrinsic {
                summary.io.get_or_insert_with(|| name.clone());
            }
            if dispatch_intrinsic {
                summary.dispatch.get_or_insert_with(|| name.clone());
            }
            rc.push(ResolvedCall { name, pos, targets, io_intrinsic, dispatch_intrinsic });
        }
        // Direct panic tokens.
        for tok in crate::rules::PANIC_TOKENS {
            let mut from = f.body.start;
            while let Some(rel) = m.scrubbed[from..f.body.end].find(tok) {
                let pos = from + rel;
                from = pos + tok.len();
                if !m.in_test(pos) {
                    summary.panics.get_or_insert_with(|| {
                        tok.trim_matches(|c| matches!(c, '.' | '(' | ')' | '!')).to_string()
                    });
                }
            }
        }
        direct.insert((fi, gi), da);
        calls.insert((fi, gi), rc);
        fns.insert((fi, gi), summary);
    }

    // Fixpoint: propagate callee facts into callers until stable. The
    // iteration order is deterministic (files sorted by path, fns by
    // position), so the first-discovered via-chains are stable too.
    loop {
        let mut changed = false;
        for &node in &order {
            let callsites = &calls[&node];
            let mut add_acq: Vec<(u8, String, String)> = Vec::new();
            let mut add_io: Option<String> = None;
            let mut add_dispatch: Option<String> = None;
            let mut add_panics: Option<String> = None;
            {
                let me = &fns[&node];
                for c in callsites {
                    for &t in &c.targets {
                        let callee = &fns[&t];
                        for (&rank, (rname, via)) in &callee.acquires {
                            if !me.acquires.contains_key(&rank)
                                && !add_acq.iter().any(|(r, _, _)| *r == rank)
                            {
                                let chain = if via.is_empty() {
                                    c.name.clone()
                                } else {
                                    format!("{} -> {}", c.name, via)
                                };
                                add_acq.push((rank, rname.clone(), chain));
                            }
                        }
                        if me.io.is_none() && add_io.is_none() {
                            if let Some(v) = &callee.io {
                                add_io = Some(format!("{} -> {}", c.name, v));
                            }
                        }
                        if me.dispatch.is_none() && add_dispatch.is_none() {
                            if let Some(v) = &callee.dispatch {
                                add_dispatch = Some(format!("{} -> {}", c.name, v));
                            }
                        }
                        if me.panics.is_none() && add_panics.is_none() {
                            if let Some(v) = &callee.panics {
                                add_panics = Some(format!("{} -> {}", c.name, v));
                            }
                        }
                    }
                }
            }
            if !add_acq.is_empty()
                || add_io.is_some()
                || add_dispatch.is_some()
                || add_panics.is_some()
            {
                let me = fns.get_mut(&node).expect("summary exists");
                for (rank, rname, via) in add_acq {
                    me.acquires.entry(rank).or_insert((rname, via));
                    changed = true;
                }
                if me.io.is_none() && add_io.is_some() {
                    me.io = add_io;
                    changed = true;
                }
                if me.dispatch.is_none() && add_dispatch.is_some() {
                    me.dispatch = add_dispatch;
                    changed = true;
                }
                if me.panics.is_none() && add_panics.is_some() {
                    me.panics = add_panics;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    Summaries { direct, calls, fns, order }
}

impl Summaries {
    /// The summary of a function (empty default for unknown refs).
    pub fn of(&self, node: FnRef) -> &FnSummary {
        static EMPTY: std::sync::OnceLock<FnSummary> = std::sync::OnceLock::new();
        self.fns.get(&node).unwrap_or_else(|| EMPTY.get_or_init(FnSummary::default))
    }
}

/// Human name of a rank (public for the graph/report modules).
pub fn name_of_rank(rank: u8) -> &'static str {
    rank_name(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> FileModel {
        FileModel::parse(path, src)
    }

    #[test]
    fn direct_block_and_transient_scopes() {
        let m = file(
            "crates/tiered/src/dmsh.rs",
            "fn a(&self) { let g = self.meta.lock(); }\n\
             fn b(&self) { self.meta.lock().get(&id); }",
        );
        let s = compute(std::slice::from_ref(&m));
        let a = s.direct[&(0, 0)].clone();
        assert_eq!((a[0].rank, a[0].scope), (50, AcqScope::Block));
        let b = s.direct[&(0, 1)].clone();
        assert_eq!((b[0].rank, b[0].scope), (50, AcqScope::Transient));
    }

    #[test]
    fn span_helper_extends_to_closing_paren() {
        let src =
            "fn f(&self, rt: &Rt) { rt.with_apply_lock(0, id, || {\n    inner();\n}); after(); }";
        let m = file("crates/core/src/runtime/stager.rs", src);
        let s = compute(std::slice::from_ref(&m));
        let d = s.direct[&(0, 0)].clone();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rank, 40);
        let AcqScope::Span(end) = d[0].scope else { panic!("expected span") };
        // The span covers `inner()` but not `after()`.
        assert!(end > src.find("inner").unwrap());
        assert!(end < src.find("after").unwrap());
    }

    #[test]
    fn transitive_acquire_via_call_chain() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn low(&self) { let g = self.vectors.lock(); }\n\
             fn mid(&self) { self.low(); }\n\
             fn top(&self) { self.mid(); }",
        );
        let s = compute(std::slice::from_ref(&m));
        let top = s.of((0, 2));
        let (name, via) = top.acquires.get(&30).expect("RtMeta propagated");
        assert_eq!(name, "RtMeta");
        assert_eq!(via, "mid -> low");
    }

    #[test]
    fn io_and_dispatch_intrinsics_propagate() {
        let m = file(
            "crates/core/src/runtime/stager.rs",
            "fn leaf(&self) { backend_gate(rt, t, meta, n, ctx); }\n\
             fn caller(&self) { self.leaf(); self.dispatch_batch(0, id, 1, 1, t, r, ctx); }",
        );
        let s = compute(std::slice::from_ref(&m));
        assert_eq!(s.of((0, 0)).io.as_deref(), Some("backend_gate"));
        assert_eq!(s.of((0, 1)).io.as_deref(), Some("leaf -> backend_gate"));
        assert_eq!(s.of((0, 1)).dispatch.as_deref(), Some("dispatch_batch"));
    }

    #[test]
    fn stoplisted_names_do_not_bind_globally() {
        let a =
            file("crates/tiered/src/dmsh.rs", "pub fn get(&self) { let g = self.meta.lock(); }");
        let b = file("crates/core/src/pcache.rs", "fn probe_cache(&self, m: &Map) { m.get(&k); }");
        let s = compute(&[a, b]);
        // pcache's `m.get(..)` must NOT inherit Dmsh::get's DmshMeta.
        assert!(s.of((1, 0)).acquires.is_empty(), "{:?}", s.of((1, 0)));
    }

    #[test]
    fn dmsh_receiver_binds_through_the_stoplist() {
        let a =
            file("crates/tiered/src/dmsh.rs", "pub fn get(&self) { let g = self.meta.lock(); }");
        let b = file(
            "crates/core/src/runtime/stager.rs",
            "fn drain(&self, dmsh: &Dmsh) { dmsh.get(now, id); }",
        );
        let s = compute(&[a, b]);
        assert!(s.of((1, 0)).acquires.contains_key(&50), "{:?}", s.of((1, 0)));
    }

    #[test]
    fn self_binding_prefers_same_file() {
        let a = file(
            "crates/core/src/runtime/mod.rs",
            "fn dispatch(&self) { let g = self.vectors.lock(); }\n\
             fn caller(&self) { self.dispatch(); }",
        );
        let s = compute(std::slice::from_ref(&a));
        assert!(s.of((0, 1)).acquires.contains_key(&30));
    }

    #[test]
    fn annotations_are_recognized() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) { let _lo = lockorder::acquired(LockRank::ApplyVictim); }",
        );
        let s = compute(std::slice::from_ref(&m));
        let d = s.direct[&(0, 0)].clone();
        assert_eq!(d.len(), 1);
        assert!(d[0].annotation);
        assert_eq!((d[0].rank, d[0].name), (45, "ApplyVictim"));
    }

    #[test]
    fn panic_fact_propagates() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn leaf(&self) { self.x.unwrap(); }\nfn root(&self) { self.leaf(); }",
        );
        let s = compute(std::slice::from_ref(&m));
        assert_eq!(s.of((0, 1)).panics.as_deref(), Some("leaf -> unwrap"));
    }
}
