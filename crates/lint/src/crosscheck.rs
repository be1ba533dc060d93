//! Static ⊇ dynamic cross-check.
//!
//! `mm_scope --emit-lock-edges PATH` dumps every lock-nesting edge the
//! telemetry layer observed at runtime (`mm-lock-edges/v1`). The static
//! lock graph claims to over-approximate real behavior; this module makes
//! that claim falsifiable: every observed edge must already be in the
//! static graph. A missing edge means the summary builder severed a call
//! chain (stoplist too aggressive, an unresolved receiver, a new helper
//! not in the tables) — exactly the soundness bugs a name-based
//! non-parser can develop silently.
//!
//! The converse (static edges never observed) is expected and fine: the
//! static side keeps edges for paths the scenario didn't exercise.

use crate::lockgraph::LockGraph;
use crate::summary::name_of_rank;

/// Parse an `mm-lock-edges/v1` document into `(from_rank, to_rank)`
/// pairs. Hand-rolled scan over the two pinned keys — same dependency-free
/// discipline as the allowlist parser.
pub fn parse_edges(text: &str) -> Result<Vec<(u8, u8)>, String> {
    if !text.contains("\"schema\": \"mm-lock-edges/v1\"") {
        return Err("not an mm-lock-edges/v1 document (schema key missing)".into());
    }
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(f) = rest.find("\"from_rank\":") {
        let from = read_u8(&rest[f + "\"from_rank\":".len()..])?;
        rest = &rest[f + "\"from_rank\":".len()..];
        let Some(t) = rest.find("\"to_rank\":") else {
            return Err("edge with from_rank but no to_rank".into());
        };
        let to = read_u8(&rest[t + "\"to_rank\":".len()..])?;
        rest = &rest[t + "\"to_rank\":".len()..];
        out.push((from, to));
    }
    Ok(out)
}

fn read_u8(s: &str) -> Result<u8, String> {
    let s = s.trim_start();
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse::<u8>().map_err(|_| format!("bad rank number near `{}`", &s[..s.len().min(16)]))
}

/// Observed edges absent from the static graph (empty means the
/// cross-check holds). Self-edges are compared too: the static side never
/// stores them, so an observed same-rank nesting always fails — as it
/// should, since the rank order forbids it outright.
pub fn missing(graph: &LockGraph, observed: &[(u8, u8)]) -> Vec<(u8, u8)> {
    let mut out: Vec<(u8, u8)> =
        observed.iter().copied().filter(|&(f, t)| !graph.has(f, t)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Render a failure report for `mm-lint crosscheck`.
pub fn report(miss: &[(u8, u8)]) -> String {
    let mut s = String::new();
    for (f, t) in miss {
        s.push_str(&format!(
            "observed at runtime but missing from the static lock graph: {} ({f}) -> {} ({t})\n",
            name_of_rank(*f),
            name_of_rank(*t),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    const SAMPLE: &str = r#"{
  "schema": "mm-lock-edges/v1",
  "edges": [
    { "from": "VecState", "from_rank": 10, "to": "DmshMeta", "to_rank": 50 },
    { "from": "DmshMeta", "from_rank": 50, "to": "Resource", "to_rank": 80 }
  ]
}
"#;

    #[test]
    fn parses_the_pinned_schema() {
        assert_eq!(parse_edges(SAMPLE).unwrap(), vec![(10, 50), (50, 80)]);
    }

    #[test]
    fn rejects_other_documents() {
        assert!(parse_edges("{\"schema\": \"mm-lock-graph/v1\"}").is_err());
    }

    #[test]
    fn empty_edge_list_is_valid() {
        let doc = "{\n  \"schema\": \"mm-lock-edges/v1\",\n  \"edges\": []\n}\n";
        assert_eq!(parse_edges(doc).unwrap(), Vec::<(u8, u8)>::new());
    }

    /// The negative test the CI gate relies on: remove an edge from the
    /// static graph and the cross-check must fail.
    #[test]
    fn removed_static_edge_fails_the_check() {
        let m = FileModel::parse(
            "crates/core/src/runtime/mod.rs",
            "fn a(&self) { let g = self.vectors.lock(); let h = self.shards[0].apply_lock.lock(); }",
        );
        let (mut g, _) = crate::lockgraph::analyze(std::slice::from_ref(&m));
        assert!(g.has(30, 40));
        let observed = vec![(30u8, 40u8)];
        assert!(missing(&g, &observed).is_empty(), "edge present: check holds");
        g.edges.remove(&(30, 40));
        let miss = missing(&g, &observed);
        assert_eq!(miss, vec![(30, 40)]);
        assert!(report(&miss).contains("RtMeta (30) -> ApplyShard (40)"));
    }
}
