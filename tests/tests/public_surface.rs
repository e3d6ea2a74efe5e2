//! Every `pub fn` in a library crate has a caller outside its own file.
//!
//! The scan reads the `.rs` files under `crates`, `tests`, `examples` and
//! `benchmark/src`. A `pub fn NAME` in `crates/*/src` counts as reached when
//! NAME appears as a whole word on a line of another file that is neither a
//! comment nor part of a `use` / `pub use` item, and is not itself a
//! definition of NAME. A name that also belongs to common methods (`new`,
//! `len`, `clear`, ...) always looks reached, so the scan only catches
//! distinctive names; those are the ones that pile up unnoticed.
//!
//! An item used only inside its own file or crate should be private or
//! `pub(crate)`, where rustc's `dead_code` lint watches it. The allowlist
//! holds the public items kept on purpose; an entry that gains a caller fails
//! the test, so the list can only shrink.

use std::fs;
use std::path::{Path, PathBuf};

/// `file stem::name` of each public function kept without a caller, and why.
const ALLOWED: &[(&str, &str)] = &[(
    "simplify::simplify_rule",
    "the rule simplifier that distilling learned rules builds on",
)];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `text` that can name a caller: no comments, no `use` items.
fn code_lines(text: &str) -> Vec<&str> {
    let mut lines = Vec::new();
    let mut in_use = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if !in_use && (trimmed.starts_with("use ") || trimmed.starts_with("pub use ")) {
            in_use = true;
        }
        if in_use {
            in_use = !line.contains(';');
        } else if !trimmed.starts_with("//") {
            lines.push(line);
        }
    }
    lines
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `name` occurs in `line` as a whole word, other than as `fn name`.
fn calls(line: &str, name: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        let before = &line[..at];
        let after = &line[at + name.len()..];
        !before.ends_with(is_ident)
            && !after.starts_with(is_ident)
            && !before.trim_end().ends_with("fn")
    })
}

#[test]
fn every_public_function_has_a_caller_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    // the allowlist above names its entries, and is no caller of them
    files.retain(|file| !file.ends_with(file!()));
    let texts: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).unwrap())
        .collect();
    let code: Vec<Vec<&str>> = texts.iter().map(|t| code_lines(t)).collect();

    let mut defined = 0;
    let mut offenders = Vec::new();
    for (index, file) in files.iter().enumerate() {
        let relative = file.strip_prefix(root).unwrap();
        let in_src = relative
            .components()
            .nth(2)
            .is_some_and(|c| c.as_os_str() == "src");
        if !relative.starts_with("crates") || !in_src {
            continue;
        }
        for line in &code[index] {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            defined += 1;
            let reached = code
                .iter()
                .enumerate()
                .any(|(other, lines)| other != index && lines.iter().any(|l| calls(l, &name)));
            if !reached {
                let stem = file.file_stem().unwrap().to_string_lossy();
                offenders.push(format!("{stem}::{name}"));
            }
        }
    }
    offenders.sort();
    println!(
        "{defined} pub fns in crates/*/src, {} without an outside caller",
        offenders.len()
    );

    let mut allowed: Vec<String> = ALLOWED.iter().map(|(name, _)| name.to_string()).collect();
    allowed.sort();
    assert_eq!(
        offenders, allowed,
        "a pub fn without a caller outside its file: delete it or narrow it to pub(crate); \
         an allowlist entry that gained a caller: drop it from ALLOWED"
    );
}
