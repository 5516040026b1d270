//! Guard on the workspace's public surface: every `pub fn` and `pub`
//! method under `crates/*/src` must be named somewhere outside its own
//! crate's library source.
//!
//! rustc's `dead_code` lint cannot see through `pub`, so a function that
//! only its own crate calls (or nothing calls) hides from it. This test
//! closes that gap: a function is *used* when its name occurs in the code
//! (comments and string literals excluded) of some `.rs` file outside its
//! crate's `src/` — another crate, `crates/*/{tests,benches}`, a binary
//! under `crates/*/src/bin`, the facade's `src/`, `tests/`, `examples/` or
//! `benchmark/`. Items under `#[cfg(test)]` are exempt. An offender should
//! become `pub(crate)` (and then answer to `dead_code`) or be deleted.
//!
//! The match is by name, so it over-approximates use: a method called
//! `new` elsewhere protects every `pub fn new`. The scan is line-based and
//! relies on rustfmt's layout, which CI enforces.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, skipping build output and hidden dirs.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let (path, name) = (entry.path(), entry.file_name());
        let name = name.to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `src` with line comments and the contents of string and char literals
/// blanked, newlines kept. (The sources have no block comments.)
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut blank = |from: usize, to: usize| {
        for c in &mut out[from..to] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let raw_hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
        i = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
                blank(i, end);
                end
            }
            b'r' if (i == 0 || !is_ident(b[i - 1])) && b.get(i + 1 + raw_hashes) == Some(&b'"') => {
                let close = format!("\"{}", "#".repeat(raw_hashes));
                let start = i + 2 + raw_hashes;
                let end = start + src[start..].find(&close).expect("closed raw string");
                blank(start, end);
                end + close.len()
            }
            b'"' => {
                let mut j = i + 1;
                while b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                blank(i + 1, j);
                j + 1
            }
            b'\'' => {
                // A char literal ('x', 'ν', '\n', '\u{..}') or a lifetime.
                let end = if b.get(i + 1) == Some(&b'\\') {
                    src[i + 2..].find('\'').map(|n| i + 2 + n)
                } else {
                    let c = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                    (b.get(i + 1 + c) == Some(&b'\'')).then_some(i + 1 + c)
                };
                end.map_or(i + 1, |end| {
                    blank(i + 1, end);
                    end + 1
                })
            }
            _ => i + 1,
        };
    }
    String::from_utf8(out).expect("blanking keeps UTF-8 boundaries")
}

/// `(line, name)` of every `pub fn` (qualifiers such as `const` allowed;
/// `pub(crate)` and other restricted forms excluded) outside items under
/// `#[cfg(test)]`.
fn pub_fns(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut lines = code.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        let text = line.trim_start();
        if text == "#[cfg(test)]" {
            // Skip the item: one line, or up to the `}` at its indentation.
            let indent = &line[..line.len() - text.len()];
            let item = lines
                .by_ref()
                .map(|(_, l)| l)
                .find(|l| !l.trim_start().starts_with("#["));
            if item.is_some_and(|l| !l.ends_with([';', ',', '}'])) {
                let closer = format!("{indent}}}");
                lines
                    .by_ref()
                    .find(|(_, l)| l.trim_end_matches(';') == closer);
            }
            continue;
        }
        let mut words = text.split_whitespace();
        if words.next() != Some("pub") {
            continue;
        }
        let mut word = words.next();
        while matches!(
            word,
            Some("const" | "async" | "unsafe" | "extern" | "\" \"")
        ) {
            word = words.next();
        }
        if let (Some("fn"), Some(sig)) = (word, words.next()) {
            let name = sig
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next();
            out.push((n + 1, name.unwrap_or_default().to_string()));
        }
    }
    out
}

/// The crate whose library `rel` belongs to (`crates/<name>/src/...`,
/// binaries under `src/bin` excluded), if any.
fn library_crate(rel: &Path) -> Option<String> {
    let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
    (parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] != "bin")
        .then(|| parts[1].to_string())
}

/// Every scanned `.rs` file: its path relative to the workspace root, its
/// code (see [`code_only`]) and the identifiers that code names.
fn scan(root: &Path) -> Vec<(PathBuf, String, HashSet<String>)> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap().to_path_buf();
            let code = code_only(&fs::read_to_string(path).unwrap());
            let idents = code
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .map(String::from)
                .collect();
            (rel, code, idents)
        })
        .collect()
}

#[test]
fn every_pub_fn_has_a_user_outside_its_crate() {
    let parsed = scan(Path::new(env!("CARGO_MANIFEST_DIR")));
    let mut outside: BTreeMap<String, HashSet<&str>> = BTreeMap::new();
    for krate in parsed.iter().filter_map(|p| library_crate(&p.0)) {
        outside.entry(krate.clone()).or_insert_with(|| {
            parsed
                .iter()
                .filter(|p| library_crate(&p.0).as_ref() != Some(&krate))
                .flat_map(|p| p.2.iter().map(String::as_str))
                .collect()
        });
    }
    let mut offenders = Vec::new();
    for (rel, code, _) in &parsed {
        let Some(krate) = library_crate(rel) else {
            continue;
        };
        for (line, name) in pub_fns(code) {
            if !outside[&krate].contains(name.as_str()) {
                offenders.push(format!("{}:{line} {name}", rel.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "{} pub fn(s) have no user outside their crate; make them pub(crate) \
         (and delete what then turns out dead):\n{}",
        offenders.len(),
        offenders.join("\n")
    );
}

/// Every `lgen-*` dependency of a workspace member is named in the code of
/// that member's own sources (library, binaries, tests, benches,
/// examples; for the facade, `src/`, `tests/` and `examples/`). An entry
/// nothing names only costs build time and hides the real dependency
/// graph.
#[test]
fn every_lgen_dependency_is_named_by_its_crate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let parsed = scan(&root);
    let mut members = vec![(PathBuf::new(), vec!["src", "tests", "examples"])];
    for entry in fs::read_dir(root.join("crates")).unwrap().flatten() {
        let dir = entry.path().strip_prefix(&root).unwrap().to_path_buf();
        members.push((dir, vec![""]));
    }
    let mut offenders = Vec::new();
    for (dir, sources) in &members {
        let named: HashSet<&str> = parsed
            .iter()
            .filter(|p| sources.iter().any(|s| p.0.starts_with(dir.join(s))))
            .flat_map(|p| p.2.iter().map(String::as_str))
            .collect();
        let manifest = fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap();
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            }
            let dep = line.split(['.', '=']).next().unwrap_or_default().trim();
            let dependency = matches!(section, "[dependencies]" | "[dev-dependencies]");
            if dependency && dep.starts_with("lgen-") && !named.contains(&*dep.replace('-', "_")) {
                offenders.push(format!("{}: {dep}", dir.join("Cargo.toml").display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "{} lgen dependenc(ies) named by no source of their crate; drop them:\n{}",
        offenders.len(),
        offenders.join("\n")
    );
}

#[test]
fn the_scanner_skips_comments_strings_and_test_items() {
    let src = r##"
/// pub fn in_doc() {}
pub fn visible<'a>(x: &'a str) -> &'a str { "pub fn in_string" }
pub(crate) fn restricted() {}
pub const fn also_visible() -> char {
    '"'
}
pub const LIMIT: usize = 3;
#[cfg(test)]
mod tests {
    pub fn in_tests() -> &'static str {
        r#"}"#
    }
}
impl X {
    #[cfg(test)]
    #[must_use]
    pub fn test_only(&self) {}
    pub unsafe fn method(&self) {}
}
"##;
    let code = code_only(src);
    let names: Vec<String> = pub_fns(&code).into_iter().map(|(_, n)| n).collect();
    assert_eq!(names, ["visible", "also_visible", "method"]);
    assert!(!code.contains("in_string") && !code.contains("in_doc"));
}
