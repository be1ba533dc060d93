//! The interprocedural lock-graph pass.
//!
//! Consumes the per-function summaries of [`crate::summary`] and replays
//! each function body with a held-lock stack (brace-depth scoped, like the
//! intra-function `lock-order` rule, plus span-scoped helper extents).
//! At every acquisition — direct, or transitive through a resolved call —
//! it records a `held-rank -> acquired-rank` edge with provenance and
//! checks three properties:
//!
//! 1. **lock-graph**: ranks must strictly ascend across function
//!    boundaries, not just within one body (the static mirror of the
//!    `lockorder` debug assertion);
//! 2. **hold-across-io**: no apply-shard or DMSH lock
//!    ([`summary::IO_SENSITIVE_RANKS`]) may be live across backend I/O
//!    (`backend_gate`/`read_at`/`write_at`/`journal_write`) or a shard
//!    dispatch — transitively;
//! 3. **cycle freedom**: the workspace edge set must be acyclic. A cycle
//!    is reported with an empty `line_text`, which no allowlist entry can
//!    match (patterns are non-empty substrings): cycles cannot be waived,
//!    only fixed.
//!
//! The resulting graph serializes deterministically (`mm-lock-graph/v1`
//! JSON and DOT) and is the reference set for the dynamic cross-check
//! (`mm-lint crosscheck` against `mm_scope --emit-lock-edges`).

use std::collections::{BTreeMap, BTreeSet};

use crate::model::FileModel;
use crate::rules::Finding;
use crate::summary::{self, AcqScope, Summaries, IO_SENSITIVE_RANKS, RANKS};

/// One occurrence of a nesting edge: `(path, line, via)`. `via` is the
/// acquisition description — empty-prefix for a direct lock expression, a
/// `caller -> callee` chain for a call-transitive one.
pub type Site = (String, usize, String);

/// The workspace lock graph: `(from_rank, to_rank) -> sites`. Self-edges
/// (same-rank nesting) are reported as findings, not stored as edges.
#[derive(Default)]
pub struct LockGraph {
    pub edges: BTreeMap<(u8, u8), BTreeSet<Site>>,
}

impl LockGraph {
    pub fn has(&self, from: u8, to: u8) -> bool {
        self.edges.contains_key(&(from, to))
    }

    /// Deterministic `mm-lock-graph/v1` JSON (sorted maps throughout).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"mm-lock-graph/v1\",\n  \"nodes\": [\n");
        for (i, (rank, name)) in RANKS.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"rank\": {rank}, \"name\": \"{name}\" }}{}\n",
                if i + 1 < RANKS.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"edges\": [");
        if self.edges.is_empty() {
            s.push_str("]\n}\n");
            return s;
        }
        s.push('\n');
        let last = self.edges.len() - 1;
        for (i, ((from, to), sites)) in self.edges.iter().enumerate() {
            s.push_str(&format!(
                "    {{\n      \"from\": \"{}\",\n      \"from_rank\": {from},\n      \"to\": \"{}\",\n      \"to_rank\": {to},\n      \"sites\": [\n",
                summary::name_of_rank(*from),
                summary::name_of_rank(*to),
            ));
            let slast = sites.len() - 1;
            for (j, (path, line, via)) in sites.iter().enumerate() {
                s.push_str(&format!(
                    "        {{ \"path\": \"{}\", \"line\": {line}, \"via\": \"{}\" }}{}\n",
                    esc(path),
                    esc(via),
                    if j < slast { "," } else { "" }
                ));
            }
            s.push_str(&format!("      ]\n    }}{}\n", if i < last { "," } else { "" }));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// GraphViz DOT; rank-inversion edges (from >= to) are drawn dashed
    /// red so an allowlisted inversion stays visible in the picture.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "digraph lock_graph {\n  rankdir=LR;\n  node [shape=box fontname=\"monospace\"];\n",
        );
        for (rank, name) in RANKS {
            s.push_str(&format!("  {name} [label=\"{name} ({rank})\"];\n"));
        }
        for ((from, to), sites) in &self.edges {
            let style = if from >= to { " color=red style=dashed" } else { "" };
            s.push_str(&format!(
                "  {} -> {} [label=\"{}\"{}];\n",
                summary::name_of_rank(*from),
                summary::name_of_rank(*to),
                sites.len(),
                style,
            ));
        }
        s.push_str("}\n");
        s
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A lock live at some point of the replay.
struct Held {
    rank: u8,
    name: String,
    /// Came from a `lockorder::acquired(..)` annotation: the paired lock
    /// expression may materialize just after it and must not re-report.
    annotation: bool,
    /// Brace depth at acquisition (block-scoped entries pop when their
    /// block closes).
    depth: i32,
    /// Byte offset at which a span-scoped entry expires (scoped-helper
    /// closures); span entries ignore brace scoping — the closure's own
    /// braces must not pop them.
    until: Option<usize>,
}

enum Ev<'a> {
    Acq(&'a summary::DirectAcq),
    Call(&'a summary::ResolvedCall),
    Drop,
}

/// Run the pass: build the graph and collect findings.
pub fn analyze(files: &[FileModel]) -> (LockGraph, Vec<Finding>) {
    let sums = summary::compute(files);
    let mut graph = LockGraph::default();
    let mut findings = Vec::new();
    let mut dedupe: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for &node in &sums.order {
        replay(files, &sums, node, &mut graph, &mut findings, &mut dedupe);
    }
    findings.extend(cycle_findings(&graph));
    findings.sort_by(|a, b| (&a.path, a.line, &a.msg).cmp(&(&b.path, b.line, &b.msg)));
    (graph, findings)
}

fn push_finding(
    findings: &mut Vec<Finding>,
    dedupe: &mut BTreeSet<(String, usize, String)>,
    rule: &'static str,
    m: &FileModel,
    pos: usize,
    msg: String,
) {
    if dedupe.insert((m.path.clone(), m.line(pos), msg.clone())) {
        findings.push(Finding {
            rule,
            path: m.path.clone(),
            line: m.line(pos),
            msg,
            line_text: m.line_text(pos).to_string(),
        });
    }
}

fn replay(
    files: &[FileModel],
    sums: &Summaries,
    node: summary::FnRef,
    graph: &mut LockGraph,
    findings: &mut Vec<Finding>,
    dedupe: &mut BTreeSet<(String, usize, String)>,
) {
    let (fi, gi) = node;
    let m = &files[fi];
    let f = &m.fns[gi];
    let direct = &sums.direct[&node];
    let calls = &sums.calls[&node];
    let mut evs: Vec<(usize, Ev)> = Vec::new();
    for a in direct {
        evs.push((a.pos, Ev::Acq(a)));
    }
    for c in calls {
        evs.push((c.pos, Ev::Call(c)));
    }
    for pos in m.occurrences("drop(").collect::<Vec<_>>() {
        if f.body.contains(&pos)
            && !m.in_test(pos)
            && m.enclosing_fn(pos).map(|g| g.body.start) == Some(f.body.start)
        {
            evs.push((pos, Ev::Drop));
        }
    }
    evs.sort_by_key(|(p, _)| *p);
    if evs.is_empty() {
        return;
    }
    // Ranks directly acquired by a helper call at `pos - 1` (the pattern
    // starts at the `.`): the callee summary restates the same
    // acquisition, which must not double-report as same-rank nesting.
    let helper_at: BTreeMap<usize, u8> =
        direct.iter().filter(|a| !a.annotation).map(|a| (a.pos + 1, a.rank)).collect();

    let b = m.scrubbed.as_bytes();
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();
    let mut ei = 0usize;
    for i in f.body.clone() {
        held.retain(|h| h.until.is_none_or(|u| u > i));
        while ei < evs.len() && evs[ei].0 == i {
            match &evs[ei].1 {
                Ev::Acq(a) => {
                    if a.annotation && held.iter().any(|h| h.rank == a.rank) {
                        // A `lockorder::acquired(..)` token next to the
                        // lock expression the replay already saw.
                    } else if !a.annotation && held.iter().any(|h| h.annotation && h.rank == a.rank)
                    {
                        // The lock expression paired with an annotation
                        // the replay saw first (token-before-guard order).
                    } else {
                        record_acquire(
                            graph, findings, dedupe, m, &held, a.pos, a.rank, a.name, "",
                        );
                        match a.scope {
                            AcqScope::Transient => {}
                            AcqScope::Block => held.push(Held {
                                rank: a.rank,
                                name: a.name.to_string(),
                                annotation: a.annotation,
                                depth,
                                until: None,
                            }),
                            AcqScope::Span(end) => held.push(Held {
                                rank: a.rank,
                                name: a.name.to_string(),
                                annotation: a.annotation,
                                depth,
                                until: Some(end),
                            }),
                        }
                    }
                }
                Ev::Call(c) => {
                    let cancelled = helper_at.get(&c.pos).copied();
                    // Union of callee-transitive facts across targets,
                    // keeping the lexically-first via chain per rank.
                    let mut ranks: BTreeMap<u8, (String, String)> = BTreeMap::new();
                    let mut io: Option<String> =
                        if c.io_intrinsic { Some(c.name.clone()) } else { None };
                    let mut dispatch: Option<String> =
                        if c.dispatch_intrinsic { Some(c.name.clone()) } else { None };
                    for &t in &c.targets {
                        let cs = sums.of(t);
                        for (&r, (rname, via)) in &cs.acquires {
                            if Some(r) == cancelled {
                                continue;
                            }
                            let chain = if via.is_empty() {
                                c.name.clone()
                            } else {
                                format!("{} -> {}", c.name, via)
                            };
                            ranks.entry(r).or_insert((rname.clone(), chain));
                        }
                        if io.is_none() {
                            if let Some(v) = &cs.io {
                                io = Some(format!("{} -> {}", c.name, v));
                            }
                        }
                        if dispatch.is_none() {
                            if let Some(v) = &cs.dispatch {
                                dispatch = Some(format!("{} -> {}", c.name, v));
                            }
                        }
                    }
                    for (r, (rname, via)) in &ranks {
                        record_acquire(graph, findings, dedupe, m, &held, c.pos, *r, rname, via);
                    }
                    let sensitive: Vec<&Held> =
                        held.iter().filter(|h| IO_SENSITIVE_RANKS.contains(&h.rank)).collect();
                    if !sensitive.is_empty() {
                        let h = sensitive.last().expect("non-empty");
                        if let Some(v) = &io {
                            push_finding(
                                findings, dedupe, "hold-across-io", m, c.pos,
                                format!(
                                    "{} (rank {}) held across backend I/O via `{v}` — stage I/O outside apply/DMSH critical sections",
                                    h.name, h.rank
                                ),
                            );
                        }
                        if let Some(v) = &dispatch {
                            push_finding(
                                findings, dedupe, "hold-across-io", m, c.pos,
                                format!(
                                    "{} (rank {}) held across shard dispatch via `{v}` — the target shard may need this lock",
                                    h.name, h.rank
                                ),
                            );
                        }
                    }
                }
                Ev::Drop => {
                    if let Some(p) = held.iter().rposition(|h| h.until.is_none()) {
                        held.remove(p);
                    }
                }
            }
            ei += 1;
        }
        match b.get(i) {
            Some(b'{') => depth += 1,
            Some(b'}') => {
                depth -= 1;
                held.retain(|h| h.until.is_some() || h.depth <= depth);
            }
            _ => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn record_acquire(
    graph: &mut LockGraph,
    findings: &mut Vec<Finding>,
    dedupe: &mut BTreeSet<(String, usize, String)>,
    m: &FileModel,
    held: &[Held],
    pos: usize,
    rank: u8,
    name: &str,
    via: &str,
) {
    for h in held {
        if h.rank != rank {
            graph.edges.entry((h.rank, rank)).or_default().insert((
                m.path.clone(),
                m.line(pos),
                via.to_string(),
            ));
        }
    }
    if let Some(h) = held.iter().rev().find(|h| h.rank >= rank) {
        let how = if via.is_empty() { String::new() } else { format!(" via `{via}`") };
        push_finding(
            findings, dedupe, "lock-graph", m, pos,
            format!(
                "acquiring {name} (rank {rank}){how} while {} (rank {}) is held — cross-function ranks must strictly ascend",
                h.name, h.rank
            ),
        );
    }
}

/// Report every rank that sits on a directed cycle. Reachability closure
/// over the rank digraph; cycles carry an empty `line_text`, so
/// no allowlist entry can waive them.
fn cycle_findings(graph: &LockGraph) -> Vec<Finding> {
    let idx = |r: u8| RANKS.iter().position(|(q, _)| *q == r).expect("known rank");
    let n = RANKS.len();
    let mut reach = vec![vec![false; n]; n];
    for &(from, to) in graph.edges.keys() {
        reach[idx(from)][idx(to)] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    let cyclic: Vec<&str> = (0..n).filter(|&i| reach[i][i]).map(|i| RANKS[i].1).collect();
    if cyclic.is_empty() {
        return Vec::new();
    }
    let inversions: Vec<String> = graph
        .edges
        .keys()
        .filter(|(f, t)| f >= t)
        .map(|(f, t)| format!("{} -> {}", summary::name_of_rank(*f), summary::name_of_rank(*t)))
        .collect();
    vec![Finding {
        rule: "lock-graph",
        path: "(workspace)".to_string(),
        line: 0,
        msg: format!(
            "cycle among ranked locks: {{{}}} — inversion edges: {} (cycles cannot be allowlisted; break an edge)",
            cyclic.join(", "),
            inversions.join(", "),
        ),
        line_text: String::new(),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files.iter().map(|(p, s)| FileModel::parse(p, s)).collect()
    }

    #[test]
    fn direct_nesting_builds_edges_and_flags_descent() {
        let fs = models(&[(
            "crates/core/src/runtime/mod.rs",
            "fn ok(&self) { let a = self.vectors.lock(); let b = self.shards[0].apply_lock.lock(); }\n\
             fn bad(&self) { let a = self.shards[0].apply_lock.lock(); let b = self.vectors.lock(); }",
        )]);
        let (g, f) = analyze(&fs);
        assert!(g.has(30, 40));
        assert!(g.has(40, 30));
        let bad: Vec<_> = f.iter().filter(|x| x.rule == "lock-graph").collect();
        assert_eq!(bad.len(), 2, "{bad:?}"); // descent + the resulting cycle
        assert!(bad.iter().any(|x| x.msg.contains("cycle among ranked locks")));
    }

    #[test]
    fn call_edge_violation_is_interprocedural() {
        let fs = models(&[
            (
                "crates/core/src/runtime/mod.rs",
                "fn takes_meta(&self) { let g = self.vectors.lock(); }",
            ),
            (
                "crates/core/src/runtime/stager.rs",
                "fn under_apply(&self, rt: &Rt) { rt.with_apply_lock(0, id, || { rt.takes_meta(); }); }",
            ),
        ]);
        let (g, f) = analyze(&fs);
        assert!(g.has(40, 30), "{:?}", g.edges.keys().collect::<Vec<_>>());
        let v: Vec<_> = f.iter().filter(|x| x.rule == "lock-graph" && x.line > 0).collect();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("via `takes_meta"), "{}", v[0].msg);
    }

    #[test]
    fn hold_across_io_flags_transitive_backend_io() {
        let fs = models(&[(
            "crates/core/src/runtime/stager.rs",
            "fn page_out(&self) { backend_gate(rt, t, m, n, ctx); }\n\
                 fn drain(&self, rt: &Rt) { rt.with_apply_lock(0, id, || { self.page_out(); }); }",
        )]);
        let (_, f) = analyze(&fs);
        let io: Vec<_> = f.iter().filter(|x| x.rule == "hold-across-io").collect();
        assert_eq!(io.len(), 1, "{io:?}");
        assert!(io[0].msg.contains("page_out -> backend_gate"), "{}", io[0].msg);
    }

    #[test]
    fn io_without_sensitive_lock_is_fine() {
        let fs = models(&[(
            "crates/core/src/runtime/mod.rs",
            "fn open_all(&self) { let g = self.vectors.lock(); backend_gate(rt, t, m, n, ctx); }",
        )]);
        let (_, f) = analyze(&fs);
        assert!(f.iter().all(|x| x.rule != "hold-across-io"), "{f:?}");
    }

    #[test]
    fn span_releases_after_closing_paren() {
        let fs = models(&[(
            "crates/core/src/runtime/stager.rs",
            "fn f(&self, rt: &Rt) { rt.with_apply_lock(0, id, || { touch(); }); let g = rt.vectors.lock(); }",
        )]);
        let (g, f) = analyze(&fs);
        // RtMeta taken after the span closed: no 40 -> 30 edge, no finding.
        assert!(!g.has(40, 30), "{:?}", g.edges.keys().collect::<Vec<_>>());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_helper_call_does_not_self_report() {
        let fs = models(&[
            (
                "crates/tiered/src/dmsh.rs",
                "pub fn lock_meta(&self) -> Guard { let g = self.meta.lock(); let _lo = lockorder::acquired(LockRank::DmshMeta); g }",
            ),
            (
                "crates/core/src/pcache.rs",
                "fn reader(&self, dmsh: &Dmsh) { let g = dmsh.lock_meta(); }",
            ),
        ]);
        let (_, f) = analyze(&fs);
        assert!(f.is_empty(), "helper + its own summary must cancel: {f:?}");
    }

    #[test]
    fn annotation_alone_still_counts() {
        let fs = models(&[(
            "crates/core/src/runtime/mod.rs",
            "fn t(&self) { let _lo = lockorder::acquired(LockRank::ApplyVictim); let g = self.vectors.lock(); }",
        )]);
        let (g, f) = analyze(&fs);
        assert!(g.has(45, 30));
        assert_eq!(f.iter().filter(|x| x.rule == "lock-graph" && x.line > 0).count(), 1);
    }

    #[test]
    fn cycle_finding_cannot_be_allowlisted() {
        let fs = models(&[(
            "crates/core/src/runtime/mod.rs",
            "fn a(&self) { let g = self.vectors.lock(); let h = self.shards[0].apply_lock.lock(); }\n\
             fn b(&self) { let h = self.shards[0].apply_lock.lock(); let g = self.vectors.lock(); }",
        )]);
        let (_, f) = analyze(&fs);
        let cyc = f.iter().find(|x| x.msg.contains("cycle")).expect("cycle reported");
        assert!(cyc.line_text.is_empty(), "cycle must not carry matchable line text");
        let allow = crate::allow::Allowlist::parse(
            "[[allow]]\nrule = \"lock-graph\"\npath = \"crates/core/src/runtime/mod.rs\"\npattern = \"vectors\"\nreason = \"testing the gate\"\n",
        )
        .unwrap();
        assert!(!allow.permits(cyc.rule, &cyc.path, &cyc.line_text));
    }

    #[test]
    fn json_and_dot_are_deterministic() {
        let src = "fn a(&self) { let g = self.vectors.lock(); let h = self.shards[0].apply_lock.lock(); }";
        let fs = models(&[("crates/core/src/runtime/mod.rs", src)]);
        let (g1, _) = analyze(&fs);
        let (g2, _) = analyze(&fs);
        assert_eq!(g1.to_json(), g2.to_json());
        assert_eq!(g1.to_dot(), g2.to_dot());
        assert!(g1.to_json().contains("\"schema\": \"mm-lock-graph/v1\""));
        assert!(g1.to_json().contains("\"from\": \"RtMeta\""));
        assert!(g1.to_dot().contains("RtMeta -> ApplyShard"));
    }

    #[test]
    fn empty_graph_serializes_closed_form() {
        let g = LockGraph::default();
        assert!(g.to_json().ends_with("\"edges\": []\n}\n"), "{}", g.to_json());
    }
}
