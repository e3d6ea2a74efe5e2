//! Hostile input for the rule DSL parser.
//!
//! Every byte of a small valid rule is replaced by each byte that means
//! something to the grammar (and by bytes that are not UTF-8 on their own),
//! deleted, and preceded by an extra `(`. Each result, decoded through
//! `String::from_utf8_lossy`, must parse to `Ok` or a `DslError`, never
//! panic. A rule that parses must print to text that parses and prints back
//! to the same text.

use std::panic::catch_unwind;

use linkdisc_rule::{parse_rule, print_rule};

/// An escaped quote in a property name, `:w` weights on an aggregation and
/// on comparisons, a `min` nested in a `wmean`, and transformations (one
/// nested in another), in canonical printed form.
const VALID: &[u8] = br#"(wmean :w 2 (min (compare levenshtein 1 :w 3 (lowerCase (property "say \"hi\"")) (property "label")) (compare jaccard 0.5 (tokenize (lowerCase (property "a"))) (tokenize (property "b")))) (compare equality 0 (property "x") (property "y")))"#;

/// Bytes with a meaning in the grammar (delimiters, the weight marker,
/// number characters), an ordinary one, and bytes that are not UTF-8 alone
/// (a NUL, a continuation byte, a lead byte, an invalid byte).
const REPLACEMENTS: &[u8] = b"()\" \\:w0.-e1x\x00\x80\xc3\xff";

/// Parses `bytes` and checks the outcome; returns whether it parsed.
fn check(bytes: &[u8], what: &str) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let parsed = catch_unwind(|| parse_rule(&text))
        .unwrap_or_else(|_| panic!("{what}: parse_rule panicked on {text:?}"));
    let Ok(rule) = parsed else {
        return false;
    };
    let printed = print_rule(&rule);
    let reparsed =
        parse_rule(&printed).unwrap_or_else(|err| panic!("{what}: {err} reparsing {printed:?}"));
    assert_eq!(print_rule(&reparsed), printed, "{what}: {text:?}");
    true
}

#[test]
fn every_byte_mutated_deleted_or_opened_parses_or_fails_typed() {
    assert!(check(VALID, "the valid rule"));
    let valid = parse_rule(std::str::from_utf8(VALID).unwrap()).unwrap();
    assert_eq!(print_rule(&valid).as_bytes(), VALID, "VALID is canonical");
    let mut parsed = 0;
    let mut refused = 0;
    for at in 0..VALID.len() {
        let mut inputs: Vec<(Vec<u8>, String)> = REPLACEMENTS
            .iter()
            .filter(|&&byte| byte != VALID[at])
            .map(|&byte| {
                let mut mutated = VALID.to_vec();
                mutated[at] = byte;
                (mutated, format!("byte {at} set to {byte:#04x}"))
            })
            .collect();
        let mut deleted = VALID.to_vec();
        deleted.remove(at);
        inputs.push((deleted, format!("byte {at} deleted")));
        let mut opened = VALID.to_vec();
        opened.insert(at, b'(');
        inputs.push((opened, format!("`(` inserted before byte {at}")));
        for (bytes, what) in inputs {
            if check(&bytes, &what) {
                parsed += 1;
            } else {
                refused += 1;
            }
        }
    }
    // both outcomes are exercised, so the scan says something about each
    assert!(
        parsed > 100 && refused > 100,
        "{parsed} parsed, {refused} refused"
    );
}
