//! The five workspace invariant rules.
//!
//! Each rule takes the parsed [`FileModel`]s and emits [`Finding`]s; the
//! caller filters them through the allowlist and reports the rest. Rules
//! are deny-by-default: anything matched is an error unless a
//! `lint-allow.toml` entry with a reason covers the exact line.

use std::collections::{HashMap, HashSet};

use crate::model::{calls_in, FileModel};

/// One rule violation, attributed to a source line.
#[derive(Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub msg: String,
    /// The offending source line (trimmed) — what allowlist patterns match.
    pub line_text: String,
}

fn finding(rule: &'static str, m: &FileModel, pos: usize, msg: String) -> Finding {
    Finding {
        rule,
        path: m.path.clone(),
        line: m.line(pos),
        msg,
        line_text: m.line_text(pos).to_string(),
    }
}

/// Run every rule.
pub fn run_all(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(tx_pairing(files));
    out.extend(zero_copy(files));
    out.extend(trace_propagation(files));
    out.extend(lock_order(files));
    out.extend(panic_hygiene(files));
    out.extend(result_hygiene(files));
    out.extend(ownership_release(files));
    out.extend(simd_fallback(files));
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

// ---- rule 1: tx-pairing ---------------------------------------------------

/// Files allowed to use the raw begin/end transaction API: the vector
/// implementation itself and the RAII guard built on it.
const TX_EXEMPT: &[&str] = &["crates/core/src/vector.rs", "crates/core/src/txguard.rs"];

const TX_BEGIN: &[&str] =
    &[".tx_begin(", ".try_tx_begin(", ".tx_begin_collective(", ".try_tx_begin_collective("];
const TX_END: &[&str] = &[".tx_end(", ".try_tx_end("];

/// Raw `tx_begin`/`tx_end` calls are forbidden outside the RAII guard
/// module; where they may still appear (test code), every begin must be
/// matched by an end in the same function.
pub fn tx_pairing(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if TX_EXEMPT.iter().any(|e| m.path.ends_with(e)) {
            continue;
        }
        let mut per_fn: HashMap<usize, (usize, i64)> = HashMap::new();
        for (pats, delta) in [(TX_BEGIN, 1i64), (TX_END, -1i64)] {
            for pat in pats {
                for pos in m.occurrences(pat).collect::<Vec<_>>() {
                    if !m.in_test(pos) {
                        out.push(finding(
                            "tx-pairing",
                            m,
                            pos,
                            format!(
                                "raw `{}` outside the RAII guard module — use `MmVec::tx()` / `TxScope`",
                                pat.trim_start_matches('.').trim_end_matches('(')
                            ),
                        ));
                    }
                    if let Some(f) = m.enclosing_fn(pos) {
                        let e = per_fn.entry(f.body.start).or_insert((pos, 0));
                        e.1 += delta;
                    }
                }
            }
        }
        for (body_start, (first_pos, balance)) in per_fn {
            if balance != 0 {
                let name = m
                    .enclosing_fn(body_start)
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| "?".into());
                out.push(finding(
                    "tx-pairing",
                    m,
                    first_pos,
                    format!(
                        "fn `{name}` has unbalanced raw tx calls ({:+} begins vs ends)",
                        balance
                    ),
                ));
            }
        }
    }
    out
}

// ---- rule 2: zero-copy ----------------------------------------------------

/// Modules on the demand-fault / commit hot path where byte copies must be
/// explicit, audited, and counted.
const HOT_MODULES: &[&str] = &[
    "crates/core/src/pcache.rs",
    "crates/core/src/runtime/",
    "crates/tiered/src/dmsh.rs",
    "crates/cluster/src/comm.rs",
];

const COPY_PATTERNS: &[&str] = &[".to_vec()", "Vec::from(", "copy_from_slice(", ".promote()"];

/// Copying constructs are banned in hot-path modules except allowlisted
/// sites with a reason (typically: the copy is counted in
/// `runtime.bytes_copied`).
pub fn zero_copy(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !HOT_MODULES.iter().any(|h| m.path.contains(h)) {
            continue;
        }
        for pat in COPY_PATTERNS {
            for pos in m.occurrences(pat).collect::<Vec<_>>() {
                if m.in_test(pos) {
                    continue;
                }
                out.push(finding(
                    "zero-copy",
                    m,
                    pos,
                    format!(
                        "`{pat}` in hot-path module — copies here must be allowlisted with a reason"
                    ),
                ));
            }
        }
    }
    out
}

// ---- rule 3: trace-propagation --------------------------------------------

/// Name fragments identifying fault/commit/flush-path entry points.
const TRACED_NAMES: &[&str] =
    &["fault", "commit", "flush", "read_page", "get_range", "put_range", "stage_"];

/// Crates whose public fault-path API must thread a `TraceCtx`.
const TRACED_CRATES: &[&str] = &["crates/core/", "crates/tiered/", "crates/cluster/"];

/// The multi-tenant serving crate: fault paths entered from here must
/// carry tenant attribution on top of trace context.
const TENANT_CRATE: &str = "crates/serve/";

/// Public fault/commit/flush-path functions must accept a `TraceCtx`
/// parameter, and `TraceCtx::NONE` (which severs the causal chain) may
/// only appear at allowlisted sites. In `crates/serve/` the same name
/// classes must additionally carry a `TenantId` (an unattributed fault in
/// the serving runtime charges nobody's budget), and every
/// `VecOptions::new()` builder chain must attach a `.tenant(..)`.
pub fn trace_propagation(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if m.path.contains("/tests/") || m.path.contains("/benches/") {
            continue;
        }
        let core_scope = TRACED_CRATES.iter().any(|c| m.path.contains(c));
        let serve_scope = m.path.contains(TENANT_CRATE);
        if !core_scope && !serve_scope {
            continue;
        }
        for f in &m.fns {
            if !f.is_pub || f.body.is_empty() || m.in_test(f.body.start) {
                continue;
            }
            let on_path = TRACED_NAMES.iter().any(|n| f.name.contains(n));
            if core_scope && on_path && !f.params.contains("TraceCtx") {
                out.push(Finding {
                    rule: "trace-propagation",
                    path: m.path.clone(),
                    line: f.line,
                    msg: format!(
                        "pub fn `{}` matches a fault/commit/flush-path name but takes no TraceCtx",
                        f.name
                    ),
                    line_text: format!("fn {}", f.name),
                });
            }
            if serve_scope && on_path && !f.params.contains("TenantId") {
                out.push(Finding {
                    rule: "trace-propagation",
                    path: m.path.clone(),
                    line: f.line,
                    msg: format!(
                        "pub fn `{}` enters the fault path from mm-serve but takes no TenantId \
                         — unattributed faults charge nobody's budget",
                        f.name
                    ),
                    line_text: format!("fn {}", f.name),
                });
            }
        }
        if core_scope {
            for pos in m.occurrences("TraceCtx::NONE").collect::<Vec<_>>() {
                if m.in_test(pos) {
                    continue;
                }
                out.push(finding(
                    "trace-propagation",
                    m,
                    pos,
                    "`TraceCtx::NONE` severs the causal chain — allowlist-only".to_string(),
                ));
            }
        }
        if serve_scope {
            for pos in m.occurrences("VecOptions::new()").collect::<Vec<_>>() {
                if m.in_test(pos) {
                    continue;
                }
                // The builder chain runs to the end of the statement; a
                // tenant-less open in the serving crate is unaccounted.
                let rest = &m.scrubbed[pos..];
                let stmt = &rest[..rest.find(';').map_or(rest.len(), |i| i + 1)];
                if !stmt.contains(".tenant(") {
                    out.push(finding(
                        "trace-propagation",
                        m,
                        pos,
                        "`VecOptions::new()` in mm-serve without `.tenant(..)` — every serving \
                         vector must be attributed to a registered tenant"
                            .to_string(),
                    ));
                }
            }
        }
    }
    out
}

// ---- rule 4: lock-order ---------------------------------------------------

/// The declared partial order over workspace locks (mirrors
/// `megammap_telemetry::LockRank`). Receivers are matched by the last
/// keyword on the line before `.lock()`.
const LOCK_RANKS: &[(&str, &str, u8, &str)] = &[
    ("crates/core/src/vector.rs", "state", 10, "VecState"),
    ("crates/core/src/runtime/", "vectors", 30, "RtMeta"),
    ("crates/core/src/runtime/", "apply_lock", 40, "ApplyShard"),
    ("crates/core/src/runtime/directory.rs", "shards", 48, "DirShard"),
    ("crates/tiered/src/dmsh.rs", "meta", 50, "DmshMeta"),
    ("crates/cluster/src/mailbox.rs", "queue", 70, "Mailbox"),
    ("crates/sim/src/resource.rs", "reservations", 80, "Resource"),
];

/// Guard-returning helpers that acquire a ranked lock internally.
const LOCK_HELPERS: &[(&str, u8, &str)] =
    &[(".lock_state()", 10, "VecState"), (".lock_meta()", 50, "DmshMeta")];

/// Rank of the `.lock()` at `pos`, from the last ranked keyword between
/// the start of the *statement* and the call. Scanning back only to the
/// line start would miss multi-line chained receivers
/// (`self.shards[i]\n  .apply_lock\n  .lock()`), silently exempting the call.
pub(crate) fn rank_of_lock(m: &FileModel, pos: usize) -> Option<(u8, &'static str)> {
    let stmt_start = m.scrubbed[..pos].rfind([';', '{', '}']).map_or(0, |i| i + 1);
    let recv = &m.scrubbed[stmt_start..pos];
    let mut best: Option<(usize, u8, &'static str)> = None;
    for (path, kw, rank, name) in LOCK_RANKS {
        if !path.is_empty() && !m.path.contains(path) {
            continue;
        }
        if let Some(at) = recv.rfind(kw) {
            if best.is_none_or(|(b, _, _)| at > b) {
                best = Some((at, *rank, name));
            }
        }
    }
    best.map(|(_, r, n)| (r, n))
}

#[derive(Clone, Copy)]
enum LockEv {
    /// rank, rank name, transient (a chained temporary guard, released at
    /// the end of the statement).
    Acquire(u8, &'static str, bool),
    /// An explicit `drop(x)`: releases the most recent held guard.
    Drop,
}

/// Statically check that ranked locks nest in ascending rank order within
/// each function body (brace-depth scoping). Cross-function nesting is
/// covered by the runtime assertion layer in
/// `megammap_telemetry::lockorder`.
pub fn lock_order(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        let mut events: Vec<(usize, LockEv)> = Vec::new();
        for pos in m.occurrences(".lock()").collect::<Vec<_>>() {
            if m.in_test(pos) {
                continue;
            }
            if let Some((rank, name)) = rank_of_lock(m, pos) {
                let after = pos + ".lock()".len();
                let transient = m.scrubbed.as_bytes().get(after) == Some(&b'.');
                events.push((pos, LockEv::Acquire(rank, name, transient)));
            }
        }
        for (pat, rank, name) in LOCK_HELPERS {
            for pos in m.occurrences(pat).collect::<Vec<_>>() {
                if !m.in_test(pos) {
                    events.push((pos, LockEv::Acquire(*rank, name, false)));
                }
            }
        }
        for pos in m.occurrences("drop(").collect::<Vec<_>>() {
            if !m.in_test(pos) {
                events.push((pos, LockEv::Drop));
            }
        }
        events.sort_by_key(|(p, _)| *p);
        if events.is_empty() {
            continue;
        }
        for f in &m.fns {
            let evs: Vec<_> = events
                .iter()
                .filter(|(p, _)| {
                    f.body.contains(p)
                        && m.enclosing_fn(*p).map(|g| g.body.start) == Some(f.body.start)
                })
                .collect();
            if evs.is_empty() {
                continue;
            }
            let b = m.scrubbed.as_bytes();
            let mut depth = 0i32;
            let mut held: Vec<(i32, u8, &'static str)> = Vec::new();
            let mut ei = 0usize;
            for i in f.body.clone() {
                while ei < evs.len() && evs[ei].0 == i {
                    match evs[ei].1 {
                        LockEv::Acquire(rank, name, transient) => {
                            if let Some(&(_, _, topname)) =
                                held.iter().rev().find(|(_, r, _)| *r >= rank)
                            {
                                out.push(finding(
                                    "lock-order",
                                    m,
                                    i,
                                    format!(
                                        "acquiring {name} (rank {rank}) while {topname} is held — ranks must strictly ascend"
                                    ),
                                ));
                            }
                            if !transient {
                                held.push((depth, rank, name));
                            }
                        }
                        LockEv::Drop => {
                            held.pop();
                        }
                    }
                    ei += 1;
                }
                match b.get(i) {
                    Some(b'{') => depth += 1,
                    Some(b'}') => {
                        depth -= 1;
                        held.retain(|(d, _, _)| *d < depth);
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

// ---- rule 5: panic-hygiene ------------------------------------------------

/// Entry points of the demand-fault / commit path.
const FAULT_ROOTS: &[&str] = &[
    "page_for_read",
    "page_for_write",
    "try_load",
    "try_store",
    "try_read_into",
    "try_write_slice",
    "try_append",
    "commit_dirty",
    "evict_page",
    "make_room",
    "read_page_fast",
    "read_pages",
    "commit_page",
    "get_range",
    "put_ranges",
];

/// Ubiquitous method names excluded from call-graph edges: a name-based
/// graph would otherwise connect everything to everything through
/// std-alike helpers.
const EDGE_STOPLIST: &[&str] = &[
    "new", "len", "is_empty", "clone", "default", "fmt", "from", "into", "eq", "cmp", "hash",
    "drop", "next", "iter", "min", "max", "name", "now",
    // These collide with std methods used everywhere (str::split, Mutex
    // lock, atomic load/store, Vec::append); the workspace fns of the same
    // name are public wrappers that are not themselves on the fault path.
    "split", "lock", "load", "store", "append",
];

pub(crate) const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Crates whose functions participate in the fault-path call graph.
const PANIC_CRATES: &[&str] = &[
    "crates/sim/src/",
    "crates/cluster/src/",
    "crates/tiered/src/",
    "crates/core/src/",
    "crates/telemetry/src/",
];

/// No `unwrap`/`expect`/`panic!` may be reachable from the demand-fault
/// path: a panic mid-fault poisons pcache locks and kills the worker. The
/// call graph is name-based and conservative; false positives get
/// allowlisted with the reason they cannot fire.
pub fn panic_hygiene(files: &[FileModel]) -> Vec<Finding> {
    // fn name -> list of (file idx, fn idx)
    let mut by_name: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, m) in files.iter().enumerate() {
        if !PANIC_CRATES.iter().any(|c| m.path.contains(c)) {
            continue;
        }
        for (gi, f) in m.fns.iter().enumerate() {
            if f.body.is_empty() || m.in_test(f.body.start) {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push((fi, gi));
        }
    }
    // BFS from roots over name edges.
    let mut reach: HashSet<(usize, usize)> = HashSet::new();
    let mut via: HashMap<(usize, usize), String> = HashMap::new();
    let mut queue: Vec<(usize, usize)> = Vec::new();
    for root in FAULT_ROOTS {
        for &node in by_name.get(root).into_iter().flatten() {
            if reach.insert(node) {
                via.insert(node, (*root).to_string());
                queue.push(node);
            }
        }
    }
    while let Some((fi, gi)) = queue.pop() {
        let m = &files[fi];
        let f = &m.fns[gi];
        let chain = via.get(&(fi, gi)).cloned().unwrap_or_default();
        for (callee, _) in calls_in(&m.scrubbed, f.body.clone()) {
            if EDGE_STOPLIST.contains(&callee.as_str()) || callee == f.name {
                continue;
            }
            for &node in by_name.get(callee.as_str()).into_iter().flatten() {
                if reach.insert(node) {
                    via.insert(node, format!("{chain} -> {callee}"));
                    queue.push(node);
                }
            }
        }
    }
    // Scan reachable bodies for panic tokens.
    let mut out = Vec::new();
    for &(fi, gi) in &reach {
        let m = &files[fi];
        let f = &m.fns[gi];
        for tok in PANIC_TOKENS {
            let mut from = f.body.start;
            while let Some(rel) = m.scrubbed[from..f.body.end].find(tok) {
                let pos = from + rel;
                from = pos + tok.len();
                if m.in_test(pos) {
                    continue;
                }
                out.push(finding(
                    "panic-hygiene",
                    m,
                    pos,
                    format!(
                        "`{}` reachable from the demand-fault path (via {})",
                        tok.trim_start_matches('.').trim_end_matches('('),
                        via.get(&(fi, gi)).map(String::as_str).unwrap_or("?"),
                    ),
                ));
            }
        }
    }
    out
}

// ---- rule 6: result-hygiene -----------------------------------------------

/// Recovery/fault-path modules where a silently discarded `Result` hides a
/// swallowed failure: the chaos scenarios only prove recovery works if
/// every error either propagates, is handled, or is counted.
const RESULT_MODULES: &[&str] = &[
    "crates/core/src/runtime/",
    "crates/tiered/src/dmsh.rs",
    "crates/sim/src/fault.rs",
    "crates/sim/src/net.rs",
    "crates/cluster/src/dlock.rs",
    "crates/cluster/src/comm.rs",
    "crates/chaos/src/",
];

/// `let _ =` is banned in recovery/fault-path modules (outside tests): it
/// silently discards whatever the call returned — including the `Result`
/// of a retry, replay, or re-homing step. Bind the error (`if let
/// Err(_e)`) and count it, propagate it, or use an explicit, allowlisted
/// `.ok()` with a reason.
pub fn result_hygiene(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !RESULT_MODULES.iter().any(|h| m.path.contains(h)) {
            continue;
        }
        for pos in m.occurrences("let _ = ").collect::<Vec<_>>() {
            if m.in_test(pos) {
                continue;
            }
            out.push(finding(
                "result-hygiene",
                m,
                pos,
                "silent `let _ =` discard in a recovery/fault-path module — propagate the \
                 error, handle it with `if let Err(_e)` + a counter, or allowlist an \
                 explicit `.ok()` with a reason"
                    .to_string(),
            ));
        }
    }
    out
}

// ---- rule 7: ownership-release --------------------------------------------

/// Modules holding the shard handoff / ownership-transfer protocol. An
/// early return between `claim_owner` and the matching release leaves a
/// page's owner epoch claimed forever: every later fault on it takes the
/// slow transfer path and the standing owner's fast path never re-arms.
const OWNERSHIP_MODULES: &[&str] =
    &["crates/core/src/runtime/shard.rs", "crates/core/src/runtime/directory.rs"];

/// Function-name keywords marking fns that move an owner epoch.
const OWNERSHIP_FN_KEYWORDS: &[&str] = &["claim", "owner", "release", "transfer", "handoff"];

/// Bare `?` is banned in ownership-transfer fns in the shard handoff
/// modules (outside tests): the early return skips the release/transfer
/// on the error path and leaks the owned epoch. Keep these fns total
/// (return enum outcomes), or match the error and release before
/// propagating.
pub fn ownership_release(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !OWNERSHIP_MODULES.iter().any(|h| m.path.ends_with(h)) {
            continue;
        }
        for pos in m.occurrences("?").collect::<Vec<_>>() {
            if m.in_test(pos) {
                continue;
            }
            let Some(f) = m.enclosing_fn(pos) else { continue };
            if !OWNERSHIP_FN_KEYWORDS.iter().any(|k| f.name.contains(k)) {
                continue;
            }
            out.push(finding(
                "ownership-release",
                m,
                pos,
                format!(
                    "bare `?` in ownership-transfer fn `{}` — an early return here leaks \
                     the owned epoch; make the fn total or release ownership on the \
                     error path before propagating",
                    f.name
                ),
            ));
        }
    }
    out
}

// ---- rule 8: simd-fallback ------------------------------------------------

/// Crates where SIMD kernels must carry scalar twins and guarded dispatch.
const SIMD_MODULES: &[&str] = &["crates/ann/"];

/// Every `#[target_feature(enable = "avx2")]` fn must (a) have a
/// same-arithmetic scalar twin named `{base}_scalar` (base strips a
/// trailing `_avx2`) in the same file, and (b) be called from exactly one
/// non-test site, whose enclosing fn gates it with
/// `is_x86_feature_detected!`. An unguarded call is UB on pre-AVX2 hosts;
/// a missing twin means non-x86 builds silently lose the kernel.
pub fn simd_fallback(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in files {
        if !SIMD_MODULES.iter().any(|h| m.path.contains(h)) {
            continue;
        }
        for pos in m.occurrences("#[target_feature(").collect::<Vec<_>>() {
            // The feature name is a string literal, blanked in scrubbed
            // text — read it from the raw source.
            let attr_end = m.src[pos..].find(")]").map_or(m.src.len(), |i| pos + i);
            if !m.src[pos..attr_end].contains("avx2") {
                continue;
            }
            // The fn this attribute annotates: the next parsed fn item.
            let Some(f) = m.fns.iter().filter(|f| f.body.start > pos).min_by_key(|f| f.body.start)
            else {
                continue;
            };
            let base = f.name.strip_suffix("_avx2").unwrap_or(&f.name);
            let sibling = format!("{base}_scalar");
            if !m.fns.iter().any(|s| s.name == sibling) {
                out.push(finding(
                    "simd-fallback",
                    m,
                    pos,
                    format!(
                        "avx2 fn `{}` has no scalar twin `{sibling}` in this file — every \
                         target_feature kernel needs a same-arithmetic fallback",
                        f.name
                    ),
                ));
            }
            // Call sites: `name(` occurrences that are neither the
            // definition nor test code.
            let needle = format!("{}(", f.name);
            let mut call_sites = Vec::new();
            for cpos in m.occurrences(&needle).collect::<Vec<_>>() {
                if cpos > 0 {
                    let c = m.scrubbed.as_bytes()[cpos - 1];
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                        continue; // longer identifier or method call
                    }
                }
                if m.scrubbed[..cpos].trim_end().ends_with("fn") {
                    continue; // the definition itself
                }
                if m.in_test(cpos) {
                    continue;
                }
                call_sites.push(cpos);
            }
            if call_sites.len() != 1 {
                out.push(finding(
                    "simd-fallback",
                    m,
                    call_sites.first().copied().unwrap_or(pos),
                    format!(
                        "avx2 fn `{}` must have exactly one non-test call site (the guarded \
                         dispatcher), found {}",
                        f.name,
                        call_sites.len()
                    ),
                ));
                continue;
            }
            let c = call_sites[0];
            let guarded = m
                .enclosing_fn(c)
                .is_some_and(|g| m.scrubbed[g.body.clone()].contains("is_x86_feature_detected!"));
            if !guarded {
                out.push(finding(
                    "simd-fallback",
                    m,
                    c,
                    format!(
                        "call to avx2 fn `{}` is not inside a fn that checks \
                         `is_x86_feature_detected!` — UB on hosts without AVX2",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> FileModel {
        FileModel::parse(path, src)
    }

    #[test]
    fn seeded_raw_tx_call_is_flagged() {
        let m = file(
            "crates/workloads/src/x.rs",
            "fn f(v: &V, p: &P) { let t = v.tx_begin(p); v.tx_end(p, t); }",
        );
        let f = tx_pairing(&[m]);
        assert_eq!(f.iter().filter(|x| x.msg.contains("raw")).count(), 2);
    }

    #[test]
    fn unbalanced_begin_is_flagged_even_in_tests() {
        let m = file(
            "crates/core/tests/t.rs",
            "fn f(v: &V, p: &P) { let t = v.tx_begin(p); let u = v.tx_begin(p); v.tx_end(p, t); }",
        );
        let f = tx_pairing(&[m]);
        assert!(f.iter().any(|x| x.msg.contains("unbalanced")), "{f:?}");
    }

    #[test]
    fn guard_module_is_exempt() {
        let m = file(
            "crates/core/src/txguard.rs",
            "fn f(v: &V, p: &P) { let h = v.try_tx_begin(p); v.try_tx_end(p, h); }",
        );
        assert!(tx_pairing(&[m]).is_empty());
    }

    #[test]
    fn seeded_to_vec_in_hot_module_is_flagged() {
        let m = file("crates/core/src/pcache.rs", "fn f(b: &[u8]) -> Vec<u8> { b.to_vec() }");
        let f = zero_copy(&[m]);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains(".to_vec()"));
    }

    #[test]
    fn to_vec_outside_hot_modules_is_fine() {
        let m = file("crates/formats/src/x.rs", "fn f(b: &[u8]) -> Vec<u8> { b.to_vec() }");
        assert!(zero_copy(&[m]).is_empty());
    }

    #[test]
    fn seeded_pagebuf_promotion_is_flagged() {
        let m = file("crates/core/src/runtime/mod.rs", "fn f(b: &mut PageBuf) { b.promote(); }");
        assert_eq!(zero_copy(&[m]).len(), 1);
    }

    #[test]
    fn untraced_fault_path_pub_fn_is_flagged() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "pub fn read_page(&self, now: u64) -> Bytes { todo(now) }",
        );
        let f = trace_propagation(&[m]);
        assert!(f.iter().any(|x| x.msg.contains("read_page")), "{f:?}");
    }

    #[test]
    fn traced_fault_path_fn_passes() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "pub fn read_pages(&self, now: u64, ctx: TraceCtx) -> Bytes { go(now, ctx) }",
        );
        assert!(trace_propagation(&[m]).is_empty());
    }

    #[test]
    fn trace_none_is_allowlist_only() {
        let m = file(
            "crates/tiered/src/dmsh.rs",
            "pub fn quiet(&self) { self.get_range(0, id, 0, 9, TraceCtx::NONE); }",
        );
        let f = trace_propagation(&[m]);
        assert!(f.iter().any(|x| x.msg.contains("NONE")));
    }

    #[test]
    fn serve_fault_path_without_tenant_is_flagged() {
        let m = file(
            "crates/serve/src/admission.rs",
            "pub fn fault_probe(&self, ctx: TraceCtx) -> u64 { self.go(ctx) }",
        );
        let f = trace_propagation(&[m]);
        assert!(f.iter().any(|x| x.msg.contains("TenantId")), "{f:?}");
    }

    #[test]
    fn serve_fault_path_with_tenant_passes() {
        let m = file(
            "crates/serve/src/admission.rs",
            "pub fn fault_probe(&self, tenant: TenantId) -> u64 { self.go(tenant) }",
        );
        assert!(trace_propagation(&[m]).is_empty());
    }

    #[test]
    fn serve_vec_open_without_tenant_is_flagged() {
        let m = file(
            "crates/serve/src/scenario.rs",
            "fn open_it(rt: &Runtime) { let o = VecOptions::new().len(8).pcache(4096); go(o); }",
        );
        let f = trace_propagation(&[m]);
        assert!(f.iter().any(|x| x.msg.contains(".tenant(")), "{f:?}");
    }

    #[test]
    fn serve_vec_open_with_tenant_passes() {
        let m = file(
            "crates/serve/src/scenario.rs",
            "fn open_it(rt: &Runtime, id: TenantId) {\n    let o = VecOptions::new()\n        .len(8)\n        .tenant(id);\n    go(o);\n}",
        );
        assert!(trace_propagation(&[m]).is_empty());
    }

    #[test]
    fn vec_open_outside_serve_needs_no_tenant() {
        let m = file(
            "crates/workloads/src/kmeans.rs",
            "fn open_it(rt: &Runtime) { let o = VecOptions::new().len(8); go(o); }",
        );
        assert!(trace_propagation(&[m]).is_empty());
    }

    #[test]
    fn descending_lock_nesting_is_flagged() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) { let s = self.shards[0].apply_lock.lock(); let m = self.vectors.lock(); }",
        );
        let f = lock_order(&[m]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("RtMeta"));
    }

    #[test]
    fn ascending_lock_nesting_passes() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) { let m = self.vectors.lock(); let s = self.shards[0].apply_lock.lock(); }",
        );
        assert!(lock_order(&[m]).is_empty());
    }

    #[test]
    fn scoped_release_resets_the_order() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) { { let s = self.shards[0].apply_lock.lock(); } let m = self.vectors.lock(); }",
        );
        assert!(lock_order(&[m]).is_empty());
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) { let s = self.shards[0].apply_lock.lock(); drop(s); let m = self.vectors.lock(); }",
        );
        assert!(lock_order(&[m]).is_empty());
    }

    #[test]
    fn multi_line_chained_receiver_is_still_ranked() {
        // The ranked keyword sits two lines above the `.lock()` call; the
        // old line-local scan missed it and silently exempted the site.
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) {\n    let s = self.shards[0]\n        .apply_lock\n        .lock();\n    let m = self.vectors.lock();\n}",
        );
        let f = lock_order(&[m]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("RtMeta"));
        assert!(f[0].msg.contains("ApplyShard"));
    }

    #[test]
    fn statement_scan_does_not_cross_statement_boundaries() {
        // `vectors` in the *previous statement* must not rank this `.lock()`.
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) {\n    let x = self.vectors.len();\n    let g = self.foo.lock();\n}",
        );
        assert!(lock_order(&[m]).is_empty());
    }

    #[test]
    fn chained_temporary_guard_is_transient() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(&self) { self.shards[0].apply_lock.lock().insert(id, d); let m = self.vectors.lock(); }",
        );
        assert!(lock_order(&[m]).is_empty());
    }

    #[test]
    fn seeded_unwrap_on_fault_path_is_flagged() {
        let m = file(
            "crates/core/src/vector.rs",
            "fn page_for_read(&self) { self.helper_x(); }\nfn helper_x(&self) { self.inner.unwrap(); }",
        );
        let f = panic_hygiene(&[m]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("via page_for_read -> helper_x"));
    }

    #[test]
    fn unwrap_off_the_fault_path_is_fine() {
        let m =
            file("crates/core/src/config.rs", "pub fn validate(&self) { self.check.unwrap(); }");
        assert!(panic_hygiene(&[m]).is_empty());
    }

    #[test]
    fn test_code_is_exempt_everywhere() {
        let m = file(
            "crates/core/src/pcache.rs",
            "#[cfg(test)]\nmod tests { fn f(b: &[u8]) { b.to_vec(); } }",
        );
        assert!(zero_copy(&[m]).is_empty());
    }

    #[test]
    fn seeded_silent_discard_in_recovery_module_is_flagged() {
        let m = file(
            "crates/core/src/runtime/stager.rs",
            "fn f(rt: &Runtime) { let _ = rt.flush_all(); }",
        );
        let f = result_hygiene(&[m]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("silent"));
    }

    #[test]
    fn silent_discard_outside_recovery_modules_is_fine() {
        let m = file("crates/formats/src/posix.rs", "fn f(x: F) { let _ = x.sync(); }");
        assert!(result_hygiene(&[m]).is_empty());
    }

    #[test]
    fn named_bindings_and_tests_pass_result_hygiene() {
        let m = file(
            "crates/core/src/runtime/mod.rs",
            "fn f(g: &G) { let _lo = g.acquire(); }\n#[cfg(test)]\nmod tests { fn t(x: F) { let _ = x.go(); } }",
        );
        assert!(result_hygiene(&[m]).is_empty());
    }

    #[test]
    fn seeded_try_in_ownership_fn_is_flagged() {
        let m = file(
            "crates/core/src/runtime/shard.rs",
            "fn claim_for_write(d: &Dir) -> Result<OwnerClaim> { let loc = d.get(id)?; Ok(loc) }",
        );
        let f = ownership_release(&[m]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("claim_for_write"));
    }

    #[test]
    fn total_ownership_fn_passes() {
        let m = file(
            "crates/core/src/runtime/shard.rs",
            "fn release_for_drain(d: &Dir, id: BlobId, node: usize) { d.release_owner(id, node); }",
        );
        assert!(ownership_release(&[m]).is_empty());
    }

    #[test]
    fn try_outside_ownership_fns_is_fine() {
        let m = file(
            "crates/core/src/runtime/directory.rs",
            "fn nearest_copy(&self, id: BlobId) -> Option<usize> { let loc = self.get(id)?; Some(loc.home) }",
        );
        assert!(ownership_release(&[m]).is_empty());
    }

    #[test]
    fn ownership_named_fn_outside_handoff_modules_is_fine() {
        let m = file(
            "crates/core/src/vector.rs",
            "fn owner_hint(&self) -> Result<usize> { let n = self.rt.home()?; Ok(n) }",
        );
        assert!(ownership_release(&[m]).is_empty());
    }

    #[test]
    fn ownership_rule_skips_test_code() {
        let m = file(
            "crates/core/src/runtime/shard.rs",
            "#[cfg(test)]\nmod tests { fn claim_it(d: &Dir) -> Result<()> { d.claim(id)?; Ok(()) } }",
        );
        assert!(ownership_release(&[m]).is_empty());
    }

    const SIMD_OK: &str = r#"
#[target_feature(enable = "avx2")]
unsafe fn l2_avx2(a: &[f32], b: &[f32]) -> f32 { go(a, b) }
fn l2_scalar(a: &[f32], b: &[f32]) -> f32 { go(a, b) }
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    if is_x86_feature_detected!("avx2") { return unsafe { l2_avx2(a, b) }; }
    l2_scalar(a, b)
}
"#;

    #[test]
    fn guarded_avx2_kernel_with_scalar_twin_passes() {
        let m = file("crates/ann/src/kernels.rs", SIMD_OK);
        assert!(simd_fallback(&[m]).is_empty());
        // The rule is scoped to the ann crate: the same shape elsewhere,
        // even broken, is out of jurisdiction.
        let elsewhere =
            file("crates/core/src/vector.rs", &SIMD_OK.replace("fn l2_scalar", "fn l2_other"));
        assert!(simd_fallback(&[elsewhere]).is_empty());
    }

    #[test]
    fn avx2_kernel_without_scalar_twin_is_flagged() {
        let m = file(
            "crates/ann/src/kernels.rs",
            &SIMD_OK
                .replace("fn l2_scalar", "fn l2_fallback")
                .replace("l2_scalar(a, b)", "l2_fallback(a, b)"),
        );
        let f = simd_fallback(&[m]);
        assert!(f.iter().any(|x| x.msg.contains("no scalar twin `l2_scalar`")), "{f:?}");
    }

    #[test]
    fn unguarded_or_duplicated_avx2_call_site_is_flagged() {
        // Call site whose enclosing fn never checks the CPU feature.
        let unguarded = file(
            "crates/ann/src/kernels.rs",
            &SIMD_OK.replace(
                "if is_x86_feature_detected!(\"avx2\") { return unsafe { l2_avx2(a, b) }; }",
                "return unsafe { l2_avx2(a, b) };",
            ),
        );
        let f = simd_fallback(&[unguarded]);
        assert!(f.iter().any(|x| x.msg.contains("is_x86_feature_detected!")), "{f:?}");

        // A second non-test call site bypasses the dispatcher.
        let dup = file(
            "crates/ann/src/kernels.rs",
            &format!("{SIMD_OK}\npub fn sneaky(a: &[f32], b: &[f32]) -> f32 {{ unsafe {{ l2_avx2(a, b) }} }}"),
        );
        let f = simd_fallback(&[dup]);
        assert!(f.iter().any(|x| x.msg.contains("exactly one non-test call site")), "{f:?}");
    }
}
