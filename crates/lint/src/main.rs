//! mm-lint: the MegaMmap workspace invariant checker.
//!
//! ```text
//! mm-lint [--root DIR] [--json]     # all rules + lock-graph (deny-by-default)
//! mm-lint [--root DIR] deny         # license + duplicate-version checks
//! mm-lint [--root DIR] graph        # write results/lock_graph.{json,dot}
//! mm-lint [--root DIR] crosscheck F # observed edges F ⊆ static graph
//! mm-lint [--root DIR] --check-allow # fail on stale lint-allow.toml entries
//! ```
//!
//! Exit code 0 means clean; 1 means findings (or dead allowlist entries);
//! 2 means the checker itself could not run. Every exception to a rule
//! lives in `lint-allow.toml` next to the workspace root, with a reason.

mod allow;
mod crosscheck;
mod deny;
mod lockgraph;
mod model;
mod rules;
mod scrub;
mod summary;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use allow::Allowlist;
use model::FileModel;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut subcmd = "check".to_string();
    let mut json = false;
    let mut check_allow = false;
    let mut edges_file: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("mm-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--check-allow" => check_allow = true,
            "check" | "deny" | "graph" => subcmd = a,
            "crosscheck" => {
                subcmd = a;
                match args.next() {
                    Some(f) => edges_file = Some(PathBuf::from(f)),
                    None => {
                        eprintln!("mm-lint: crosscheck needs an mm-lock-edges/v1 file");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "mm-lint: unknown argument `{other}` (usage: mm-lint [--root DIR] [--json] [--check-allow] [check|deny|graph|crosscheck FILE])"
                );
                return ExitCode::from(2);
            }
        }
    }
    match subcmd.as_str() {
        "deny" => run_deny(&root),
        "graph" => run_graph(&root),
        "crosscheck" => run_crosscheck(&root, &edges_file.expect("parsed above")),
        _ if check_allow => run_check_allow(&root),
        _ => run_check(&root, json),
    }
}

/// Workspace-relative `/`-separated path.
fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
}

/// All `.rs` files under `crates/` (the shims are vendored stand-ins for
/// external crates and are not subject to workspace invariants).
fn collect_sources(root: &Path) -> Result<Vec<FileModel>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                files.push(FileModel::parse(&rel(root, &path), &src));
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Load the allowlist and parsed sources, or explain why not.
fn load(root: &Path) -> Result<(Allowlist, Vec<FileModel>), String> {
    let allowlist = match std::fs::read_to_string(root.join("lint-allow.toml")) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::empty(),
    };
    Ok((allowlist, collect_sources(root)?))
}

/// Every finding across the per-file rules and the interprocedural
/// lock-graph pass. The two families share one deny-by-default gate and
/// one allowlist, so a `lock-graph`/`hold-across-io` waiver that stops
/// matching fails `check` like any other stale entry.
fn all_findings(files: &[FileModel]) -> Vec<rules::Finding> {
    let mut all = rules::run_all(files);
    let (_, lg) = lockgraph::analyze(files);
    all.extend(lg);
    all.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    all
}

/// `mm-lint-findings/v1`: the denied findings as a machine-readable
/// document (what CI annotators and editor integrations consume).
fn findings_json(denied: &[&rules::Finding]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
    }
    let mut s = String::from("{\n  \"schema\": \"mm-lint-findings/v1\",\n  \"findings\": [");
    if denied.is_empty() {
        s.push_str("]\n}\n");
        return s;
    }
    s.push('\n');
    for (i, f) in denied.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"msg\": \"{}\" }}{}\n",
            esc(f.rule),
            esc(&f.path),
            f.line,
            esc(&f.msg),
            if i + 1 < denied.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn run_check(root: &Path, json: bool) -> ExitCode {
    let (allowlist, files) = match load(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let all = all_findings(&files);
    let mut denied: Vec<&rules::Finding> = Vec::new();
    let mut allowed = 0usize;
    for f in &all {
        if allowlist.permits(f.rule, &f.path, &f.line_text) {
            allowed += 1;
            continue;
        }
        denied.push(f);
        eprintln!("mm-lint: [{}] {}:{}: {}", f.rule, f.path, f.line, f.msg);
        eprintln!("    > {}", f.line_text);
    }
    let unused = allowlist.unused();
    for e in &unused {
        eprintln!(
            "mm-lint: [allowlist] lint-allow.toml:{}: entry ({} @ {}) matched nothing — remove it",
            e.line, e.rule, e.path
        );
    }
    if json {
        print!("{}", findings_json(&denied));
    }
    eprintln!(
        "mm-lint: {} file(s), {} finding(s) denied, {} allowlisted",
        files.len(),
        denied.len() + unused.len(),
        allowed
    );
    if denied.is_empty() && unused.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--check-allow`: the allowlist-hygiene gate alone — replay every rule,
/// mark entries used, and fail on the ones nothing matched.
fn run_check_allow(root: &Path) -> ExitCode {
    let (allowlist, files) = match load(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &all_findings(&files) {
        allowlist.permits(f.rule, &f.path, &f.line_text);
    }
    let unused = allowlist.unused();
    for e in &unused {
        eprintln!(
            "mm-lint: [allowlist] lint-allow.toml:{}: entry ({} @ {}) matched nothing — remove it",
            e.line, e.rule, e.path
        );
    }
    eprintln!("mm-lint: {} allowlist entr(ies), {} stale", allowlist.entries.len(), unused.len());
    if unused.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `graph`: write `results/lock_graph.json` + `.dot` (deterministic) and
/// fail on unwaived lock-graph findings — the artifact must never be
/// regenerated from a workspace the gate would reject.
fn run_graph(root: &Path) -> ExitCode {
    let (allowlist, files) = match load(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let (graph, findings) = lockgraph::analyze(&files);
    let mut denied = 0usize;
    for f in &findings {
        if allowlist.permits(f.rule, &f.path, &f.line_text) {
            continue;
        }
        denied += 1;
        eprintln!("mm-lint: [{}] {}:{}: {}", f.rule, f.path, f.line, f.msg);
    }
    let results = root.join("results");
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("mm-lint: create {}: {e}", results.display());
        return ExitCode::from(2);
    }
    for (name, text) in [("lock_graph.json", graph.to_json()), ("lock_graph.dot", graph.to_dot())] {
        if let Err(e) = std::fs::write(results.join(name), text) {
            eprintln!("mm-lint: write results/{name}: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "mm-lint: lock graph: {} edge(s), {} finding(s) denied -> results/lock_graph.{{json,dot}}",
        graph.edges.len(),
        denied
    );
    if denied == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `crosscheck FILE`: every runtime-observed lock-nesting edge must be in
/// the static graph (static ⊇ dynamic).
fn run_crosscheck(root: &Path, edges_file: &Path) -> ExitCode {
    let files = match collect_sources(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("mm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let observed = match std::fs::read_to_string(edges_file)
        .map_err(|e| format!("{}: {e}", edges_file.display()))
        .and_then(|t| crosscheck::parse_edges(&t))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let (graph, _) = lockgraph::analyze(&files);
    let miss = crosscheck::missing(&graph, &observed);
    if miss.is_empty() {
        eprintln!(
            "mm-lint: crosscheck: {} observed edge(s) all present in the static graph ({} static edge(s))",
            observed.len(),
            graph.edges.len()
        );
        ExitCode::SUCCESS
    } else {
        eprint!("{}", crosscheck::report(&miss));
        eprintln!(
            "mm-lint: crosscheck: {} observed edge(s) missing from the static graph",
            miss.len()
        );
        ExitCode::FAILURE
    }
}

fn run_deny(root: &Path) -> ExitCode {
    let policy = match std::fs::read_to_string(root.join("deny.toml"))
        .map_err(|e| format!("deny.toml: {e}"))
        .and_then(|t| deny::DenyPolicy::parse(&t))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut denied = 0usize;
    // Duplicate versions from the lockfile.
    match std::fs::read_to_string(root.join("Cargo.lock")) {
        Ok(lock) => {
            if policy.deny_multiple_versions {
                for (name, versions) in deny::duplicate_versions(&deny::lock_packages(&lock)) {
                    denied += 1;
                    eprintln!(
                        "mm-lint: [deny] duplicate versions of `{name}`: {}",
                        versions.join(", ")
                    );
                }
            }
        }
        Err(e) => {
            eprintln!("mm-lint: Cargo.lock: {e}");
            return ExitCode::from(2);
        }
    }
    // License allowlist over every workspace member manifest (the root
    // manifest doubles as the meta-crate package).
    let mut manifests = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if std::fs::read_to_string(&root_manifest).is_ok_and(|t| t.contains("[package]")) {
        manifests.push(root_manifest);
    }
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let m = entry.path().join("Cargo.toml");
            if m.is_file() {
                manifests.push(m);
            }
        }
    }
    manifests.sort();
    for m in &manifests {
        let text = match std::fs::read_to_string(m) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mm-lint: {}: {e}", m.display());
                return ExitCode::from(2);
            }
        };
        match deny::manifest_license(&text) {
            Some(lic) if policy.licenses_allow.contains(&lic) => {}
            Some(lic) => {
                denied += 1;
                eprintln!(
                    "mm-lint: [deny] {}: license `{lic}` not in deny.toml allow list",
                    rel(root, m)
                );
            }
            None => {
                denied += 1;
                eprintln!("mm-lint: [deny] {}: missing `license` field", rel(root, m));
            }
        }
    }
    eprintln!("mm-lint: deny checked {} manifest(s), {} finding(s)", manifests.len(), denied);
    if denied == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--json` document is a consumer contract: field names, order,
    /// indentation, and the empty-list closed form are all pinned.
    #[test]
    fn findings_json_schema_is_pinned() {
        let f = rules::Finding {
            rule: "lock-graph",
            path: "crates/core/src/runtime/stager.rs".to_string(),
            line: 42,
            msg: "acquiring \"RtMeta\" while ApplyShard is held".to_string(),
            line_text: "ignored in json output".to_string(),
        };
        let got = findings_json(&[&f]);
        let want = "{\n  \"schema\": \"mm-lint-findings/v1\",\n  \"findings\": [\n    { \"rule\": \"lock-graph\", \"path\": \"crates/core/src/runtime/stager.rs\", \"line\": 42, \"msg\": \"acquiring \\\"RtMeta\\\" while ApplyShard is held\" }\n  ]\n}\n";
        assert_eq!(got, want);
    }

    #[test]
    fn findings_json_empty_is_closed_form() {
        assert_eq!(
            findings_json(&[]),
            "{\n  \"schema\": \"mm-lint-findings/v1\",\n  \"findings\": []\n}\n"
        );
    }
}
