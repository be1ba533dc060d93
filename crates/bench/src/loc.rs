//! A `cloc`-like line counter for the Fig. 4 reproduction and the
//! per-crate `code_size` section of the BENCH file.
//!
//! The paper measures application code volume with cloc, "which ignores
//! visual spaces and comments". This counter does the same for Rust
//! sources, and additionally leaves out test code (which the paper's apps
//! do not carry): every item behind a `#[cfg(test)]`-style attribute, and
//! for a whole crate the files of modules declared behind one.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Whether `line` is an attribute that compiles the next item for tests
/// only (`#[cfg(test)]`, `#[cfg(all(test, ...))]`).
fn is_test_attr(line: &str) -> bool {
    line.starts_with("#[cfg(test)]") || line.starts_with("#[cfg(all(test")
}

/// Count the non-blank, non-comment lines of Rust source `text`, excluding
/// doc comments, block comments, and each item behind a test attribute —
/// through its `;` (`mod proptests;`) or its brace-balanced body (a
/// `mod tests { .. }` anywhere in the file, a test-only `fn`).
pub fn count_loc(text: &str) -> usize {
    let mut count = 0usize;
    let mut in_block_comment = false;
    // Inside a test-only item: brace depth so far, and whether its body
    // has opened yet.
    let mut skipping: Option<(usize, bool)> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if in_block_comment {
            if trimmed.contains("*/") {
                in_block_comment = false;
            }
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        if trimmed.starts_with("/*") {
            if !trimmed.contains("*/") {
                in_block_comment = true;
            }
            continue;
        }
        if let Some((depth, opened)) = skipping {
            let depth = depth + trimmed.matches('{').count() - trimmed.matches('}').count();
            let opened = opened || trimmed.contains('{');
            let ended = if opened { depth == 0 } else { trimmed.ends_with(';') };
            skipping = (!ended).then_some((depth, opened));
            continue;
        }
        if is_test_attr(trimmed) {
            skipping = Some((0, false));
            continue;
        }
        count += 1;
    }
    count
}

/// Files of the modules `text` (the source at `path`) declares behind a
/// test attribute: `#[cfg(test)] mod proptests;` in `runtime/mod.rs` names
/// `runtime/proptests.rs`.
fn test_only_files(path: &Path, text: &str) -> Vec<PathBuf> {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = path.parent().unwrap_or(Path::new(""));
    let dir = if matches!(stem, "mod" | "lib" | "main") { dir.into() } else { dir.join(stem) };
    let mut out = Vec::new();
    let mut lines = text.lines().map(str::trim);
    while let Some(line) = lines.next() {
        if !is_test_attr(line) {
            continue;
        }
        let item = lines.find(|l| !l.starts_with("#[")).unwrap_or("");
        let decl = item.split_once("mod ").filter(|_| item.ends_with(';'));
        if let Some((_, name)) = decl {
            out.push(dir.join(format!("{}.rs", name.trim_end_matches(';'))));
        }
    }
    out
}

/// Non-test LoC of the crate whose sources live under `src`: every `.rs`
/// file below it except the files of test-only modules.
pub fn count_crate(src: &Path) -> std::io::Result<usize> {
    let mut files = Vec::new();
    let mut dirs = vec![src.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path)?;
                files.push((path, text));
            }
        }
    }
    let test_only: HashSet<PathBuf> =
        files.iter().flat_map(|(path, text)| test_only_files(path, text)).collect();
    Ok(files.iter().filter(|(p, _)| !test_only.contains(p)).map(|(_, t)| count_loc(t)).sum())
}

/// Count the LoC of a source file on disk.
pub fn count_file(path: &std::path::Path) -> std::io::Result<usize> {
    Ok(count_loc(&std::fs::read_to_string(path)?))
}

/// Sum LoC over several files, skipping missing ones (returns the paths
/// actually counted too).
pub fn count_files(paths: &[&str]) -> (usize, Vec<String>) {
    let mut total = 0;
    let mut counted = Vec::new();
    for p in paths {
        let path = std::path::Path::new(p);
        if let Ok(n) = count_file(path) {
            total += n;
            counted.push(p.to_string());
        }
    }
    (total, counted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_blanks_and_comments() {
        let src = "\n// comment\n/// doc\nfn main() {\n    let x = 1; // trailing kept\n}\n\n";
        assert_eq!(count_loc(src), 3);
    }

    #[test]
    fn skips_only_the_attributed_item() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        assert_eq!(count_loc(src), 1);
        // A test-only module declaration near the top hides one line, not
        // the rest of the file; a test-only fn hides its body.
        let src = "mod a;\n#[cfg(all(test, feature = \"x\"))]\nmod loom;\n#[cfg(test)]\n\
                   #[allow(dead_code)]\nfn twin() {\n    if x {\n    }\n}\nfn real() {\n}\n";
        assert_eq!(count_loc(src), 3);
    }

    #[test]
    fn test_only_modules_name_their_files() {
        let src = "pub mod a;\n#[cfg(test)]\nmod proptests;\n#[cfg(test)]\nmod tests {\n}\n";
        let files = test_only_files(Path::new("src/runtime/mod.rs"), src);
        assert_eq!(files, vec![PathBuf::from("src/runtime/proptests.rs")]);
        let files = test_only_files(Path::new("src/vector.rs"), src);
        assert_eq!(files, vec![PathBuf::from("src/vector/proptests.rs")]);
    }

    #[test]
    fn a_crate_counts_without_its_test_only_files() {
        let src = std::env::temp_dir().join(format!("mm-loc-{}", std::process::id()));
        std::fs::create_dir_all(src.join("sub")).unwrap();
        let write = |f: &str, text: &str| std::fs::write(src.join(f), text).unwrap();
        write("lib.rs", "pub mod a;\n#[cfg(test)]\nmod props;\nfn f() {}\n");
        write("a.rs", "fn g() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        write("props.rs", "fn p() {}\nfn q() {}\n");
        write("sub/mod.rs", "fn h() {}\n");
        let n = count_crate(&src);
        std::fs::remove_dir_all(&src).ok();
        assert_eq!(n.unwrap(), 4);
    }

    #[test]
    fn block_comments_ignored() {
        let src = "/*\nignored\nstill ignored\n*/\nfn real() {}\n/* one-liner */\nfn two() {}\n";
        assert_eq!(count_loc(src), 2);
    }

    #[test]
    fn counts_this_file() {
        // Self-test: this module has real lines of code.
        let n = count_loc(include_str!("loc.rs"));
        assert!(n > 20 && n < 200, "got {n}");
    }
}
