//! The byte codecs never touch a file.
//!
//! The snapshot and write-ahead-log formats encode into and decode from
//! memory (`crates/matching/src/{codec,persist,wal}.rs`); the files, their
//! fsyncs and the fault-injection points that guard them belong to
//! `durable.rs` alone. This scan keeps it that way: outside each codec
//! file's `#[cfg(test)] mod tests`, no code line may name `std::fs`, `File`
//! or `fail::`. Comment lines are skipped, so the docs may still talk about
//! files.

use std::fs;
use std::path::Path;

const CODECS: &[&str] = &["codec.rs", "persist.rs", "wal.rs"];

const FILE_SYSTEM: &[&str] = &["std::fs", "File", "fail::"];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `word` occurs in `line` with no identifier character on either side.
fn names(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[..at].ends_with(is_ident) && !line[at + word.len()..].starts_with(is_ident)
    })
}

#[test]
fn the_codecs_never_name_the_file_system() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .join("crates/matching/src");
    let mut offenders = Vec::new();
    for codec in CODECS {
        let text = fs::read_to_string(src.join(codec)).unwrap();
        let code = text.split("#[cfg(test)]\nmod tests").next().unwrap();
        assert!(code.contains("Decoder"), "{codec} no longer decodes");
        for (number, line) in code.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for word in FILE_SYSTEM.iter().filter(|word| names(line, word)) {
                offenders.push(format!(
                    "{codec}:{}: `{word}` in {}",
                    number + 1,
                    line.trim()
                ));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a codec names the file system; file handling belongs in durable.rs:\n{}",
        offenders.join("\n")
    );
}
