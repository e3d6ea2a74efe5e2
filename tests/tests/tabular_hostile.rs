//! Hostile input for the tabular decoder.
//!
//! Every byte of a small valid file is replaced by each byte that means
//! something to the format (and by bytes that are not UTF-8 on their own),
//! and deleted. Each result, decoded through `String::from_utf8_lossy`,
//! must parse to `Ok` or a typed `EntityError`, never panic. A source that
//! parses must also be writable: `to_string` either refuses it or writes
//! text that parses back to the same entities.

use std::panic::catch_unwind;

use linkdisc_entity::tabular::{parse_str, to_string};
use linkdisc_entity::{DataSource, EntityError};

/// A header ending in CRLF, a quoted delimiter, a multi-valued cell, an
/// empty cell, a quoted identifier, doubled quotes and a field spanning
/// two lines.
const VALID: &[u8] = b"id,label,point\r\nc1,Berlin,\"52.5, 13.4\"\nc2,Paris|Lutetia,\n\"c,3\",\"say \"\"hi\"\"\",\"two\nlines\"\n";

/// Bytes with a meaning in the format, an ordinary one, and bytes that are
/// not UTF-8 alone (a continuation byte, a lead byte, an invalid byte).
const REPLACEMENTS: &[u8] = b",\"\n\r|\t x\x00\x80\xc3\xff";

fn entities(source: &DataSource) -> Vec<(String, Vec<Vec<String>>)> {
    let width = source.schema().len();
    source
        .entities()
        .iter()
        .map(|entity| {
            let values = (0..width).map(|i| entity.values_at(i).to_vec()).collect();
            (entity.id().to_string(), values)
        })
        .collect()
}

/// Parses `bytes` and checks the outcome; returns whether it parsed.
fn check(bytes: &[u8], what: &str) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let parsed = catch_unwind(|| parse_str("s", &text, ','))
        .unwrap_or_else(|_| panic!("{what}: parse_str panicked on {text:?}"));
    let source = match parsed {
        Ok(source) => source,
        Err(EntityError::Parse { line, .. }) => {
            assert!(line >= 1, "{what}: lines count from 1");
            return false;
        }
        Err(EntityError::DuplicateEntity(_)) => return false,
        Err(other) => panic!("{what}: unexpected error {other} on {text:?}"),
    };
    match to_string(&source, ',') {
        Ok(written) => {
            let back = parse_str("s", &written, ',')
                .unwrap_or_else(|err| panic!("{what}: {err} reparsing {written:?}"));
            assert_eq!(entities(&back), entities(&source), "{what}: {text:?}");
        }
        Err(EntityError::Unwritable(_)) => {}
        Err(other) => panic!("{what}: to_string failed with {other}"),
    }
    true
}

#[test]
fn every_byte_mutated_or_deleted_parses_or_fails_typed() {
    assert!(check(VALID, "the valid file"));
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
