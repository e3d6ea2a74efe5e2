//! Layering scans over the source tree.
//!
//! * Only `storage.rs` touches the file system. The snapshot and
//!   write-ahead-log codecs (`crates/matching/src/{codec,persist,wal}.rs`)
//!   encode into and decode from memory, and `durable.rs` decides which
//!   files exist but reaches them through the `Storage` trait. So outside
//!   each file's `#[cfg(test)] mod tests`, no code line of
//!   `crates/matching/src` other than `storage.rs` may name `std::fs`,
//!   `File` or `OpenOptions`. Comment lines are skipped, so the docs may
//!   still talk about files.
//! * Faults are injected through a storage value, not a build flag: no
//!   file under `crates`, `tests` or `examples` names the process-global
//!   fault registry or its cargo feature, comments included.
//! * Fan-outs go through `linkdisc_util`'s ordered maps: outside `mod
//!   tests`, no code line of any `crates/*/src` may name `thread::scope` or
//!   `thread::spawn`, except `crates/util/src/lib.rs` (the maps) and
//!   `crates/gp/src/pipeline.rs` (whose evaluators stream through channels
//!   and are not an ordered map). This keeps a hand-rolled parallel path,
//!   like the deleted range-sharded index build or the engine's old scoring
//!   threads, from growing back.

use std::fs;
use std::path::{Path, PathBuf};

const CODECS: &[&str] = &["codec.rs", "persist.rs", "wal.rs"];

const FILE_SYSTEM: &[&str] = &["std::fs", "File", "OpenOptions"];

/// The only sources that may open threads: the ordered maps themselves, and
/// the steady-state pipeline, whose evaluators stream through channels.
const SPAWNERS: &[&str] = &["crates/util/src/lib.rs", "crates/gp/src/pipeline.rs"];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `word` occurs in `line` and does not continue an identifier on either
/// side (an end of `word` that is not an identifier character needs no
/// boundary there, so `std::` matches in `std::fs`).
fn names(line: &str, word: &str) -> bool {
    let open = word.starts_with(is_ident);
    let close = word.ends_with(is_ident);
    line.match_indices(word).any(|(at, _)| {
        let joined_before = open && line[..at].ends_with(is_ident);
        let joined_after = close && line[at + word.len()..].starts_with(is_ident);
        !joined_before && !joined_after
    })
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
}

/// The non-comment lines of a source file outside its `#[cfg(test)] mod
/// tests`, numbered from 1.
fn code_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let code = text.split("#[cfg(test)]\nmod tests").next().unwrap();
    (1..)
        .zip(code.lines())
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if !path.is_dir() {
            out.push(path);
        } else if path.file_name().is_some_and(|name| name != "target") {
            files_under(&path, out);
        }
    }
}

#[test]
fn the_codecs_never_name_the_file_system() {
    let src = root().join("crates/matching/src");
    let mut sources = Vec::new();
    files_under(&src, &mut sources);
    let mut offenders = Vec::new();
    for path in &sources {
        let file = path.file_name().unwrap().to_string_lossy();
        if file == "storage.rs" {
            continue;
        }
        let text = fs::read_to_string(path).unwrap();
        if CODECS.contains(&&*file) {
            assert!(
                code_lines(&text).any(|(_, line)| line.contains("Decoder")),
                "{file} no longer decodes"
            );
        }
        for (number, line) in code_lines(&text) {
            for word in FILE_SYSTEM.iter().filter(|word| names(line, word)) {
                offenders.push(format!("{file}:{number}: `{word}` in {}", line.trim()));
            }
        }
    }
    assert!(sources.len() > CODECS.len(), "the scan found no sources");
    assert!(
        offenders.is_empty(),
        "the file system is named outside storage.rs; reach it through `Storage`:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn no_file_names_the_fault_registry_or_its_feature() {
    // spelled in pieces, so that this file passes its own scan
    let registry = ["fail", "::"].concat();
    let feature = ["fail", "points"].concat();
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        files_under(&root().join(dir), &mut files);
    }
    let mut offenders = Vec::new();
    for path in &files {
        let text = String::from_utf8_lossy(&fs::read(path).unwrap()).into_owned();
        for (number, line) in text.lines().enumerate() {
            for word in [&registry, &feature] {
                if names(line, word) {
                    let file = path.strip_prefix(root()).unwrap().display();
                    offenders.push(format!("{file}:{}: {}", number + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "faults come from a `Storage` value, not a registry or a cargo feature:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn only_util_and_the_pipeline_spawn_threads() {
    let mut sources = Vec::new();
    for entry in fs::read_dir(root().join("crates")).unwrap().flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            files_under(&src, &mut sources);
        }
    }
    let mut offenders = Vec::new();
    for path in &sources {
        let file = path.strip_prefix(root()).unwrap();
        if SPAWNERS.iter().any(|spawner| file == Path::new(spawner)) {
            continue;
        }
        let text = fs::read_to_string(path).unwrap();
        for (number, line) in code_lines(&text) {
            for word in ["thread::scope", "thread::spawn"] {
                if names(line, word) {
                    offenders.push(format!("{}:{number}: {}", file.display(), line.trim()));
                }
            }
        }
    }
    assert!(
        sources
            .iter()
            .any(|path| path.ends_with("matching/src/engine.rs")),
        "the scan found no sources"
    );
    assert!(
        offenders.is_empty(),
        "fan out through linkdisc_util's ordered maps, not raw threads:\n{}",
        offenders.join("\n")
    );
}
