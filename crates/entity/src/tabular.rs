//! A minimal delimited-text loader.
//!
//! The paper's record-linkage datasets (Cora, Restaurant) are distributed as
//! XML/CSV dumps.  This module provides a small, dependency-free loader for
//! delimited text so that users who have the original files can plug them into
//! the learner; the reproduction itself relies on the synthetic generators of
//! the `linkdisc-datasets` crate.
//!
//! Format: the first row names the properties, the first column is the entity
//! identifier, multiple values within a cell are separated by `|`.  Fields may
//! be quoted with `"` to protect embedded delimiters; quotes are doubled to
//! escape themselves.

use crate::error::EntityError;
use crate::schema::Schema;
use crate::source::DataSource;
use crate::value::ValueSet;

/// Splits delimited text into records of fields, honouring double quotes: a
/// quoted field may hold the delimiter, doubled quotes and line breaks, so
/// one record can span several physical lines.  Blank records are skipped;
/// each record comes with the 1-based line it starts on.
fn parse_records(text: &str, delimiter: char) -> Result<Vec<(usize, Vec<String>)>, EntityError> {
    let mut records = Vec::new();
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut blank = true;
    let mut line = 1;
    let mut start = 1;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            line += 1;
        }
        if in_quotes {
            if c != '"' {
                field.push(c);
            } else if chars.peek() == Some(&'"') {
                field.push('"');
                chars.next();
            } else {
                in_quotes = false;
            }
            continue;
        }
        blank &= c.is_whitespace();
        match c {
            '"' => in_quotes = true,
            '\n' => {
                fields.push(std::mem::take(&mut field));
                let record = std::mem::take(&mut fields);
                if !blank {
                    records.push((start, record));
                }
                blank = true;
                start = line;
            }
            '\r' if chars.peek() == Some(&'\n') => {}
            c if c == delimiter => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    if in_quotes {
        return Err(EntityError::Parse {
            line: start,
            message: "unterminated quoted field".to_string(),
        });
    }
    fields.push(field);
    if !blank {
        records.push((start, fields));
    }
    Ok(records)
}

/// Parses delimited text into a [`DataSource`].
///
/// * The first non-blank record is the header; its first column is ignored
///   as the identifier column, the remaining columns become schema
///   properties.
/// * Every following record is one entity; empty cells produce empty value
///   sets and cells containing `|` produce multi-valued properties.  Values
///   and identifiers are trimmed, and empty values are dropped.
/// * Cells are positional, so a header naming a property twice is an error.
/// * An error names the line the offending record starts on.
pub fn parse_str(name: &str, text: &str, delimiter: char) -> Result<DataSource, EntityError> {
    let mut records = parse_records(text, delimiter)?.into_iter();
    let (header_line, header_fields) = records.next().ok_or(EntityError::Parse {
        line: 1,
        message: "missing header row".to_string(),
    })?;
    if header_fields.len() < 2 {
        return Err(EntityError::Parse {
            line: header_line,
            message: "header must contain an id column and at least one property".to_string(),
        });
    }
    let properties: Vec<String> = header_fields[1..].to_vec();
    if let Some(repeated) =
        (1..properties.len()).find(|&i| properties[..i].contains(&properties[i]))
    {
        return Err(EntityError::Parse {
            line: header_line,
            message: format!(
                "property {:?} is named twice in the header",
                properties[repeated]
            ),
        });
    }
    let mut source = DataSource::new(name, Schema::new(properties.clone()));
    for (line, fields) in records {
        if fields.len() != header_fields.len() {
            return Err(EntityError::Parse {
                line,
                message: format!(
                    "expected {} fields but found {}",
                    header_fields.len(),
                    fields.len()
                ),
            });
        }
        let id = fields[0].trim().to_string();
        if id.is_empty() {
            return Err(EntityError::Parse {
                line,
                message: "empty entity identifier".to_string(),
            });
        }
        let values: Vec<ValueSet> = fields[1..]
            .iter()
            .map(|cell| {
                cell.split('|')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect()
            })
            .collect();
        source.add(id, values)?;
    }
    Ok(source)
}

/// Serialises a data source to delimited text that [`parse_str`] reads back
/// with the same identifiers and value sets.
///
/// Fails with [`EntityError::Unwritable`] on what the format cannot carry: a
/// source without properties, an identifier or value that is empty or has
/// leading or trailing whitespace (`parse_str` trims and drops them), and a
/// value containing `|`, the multi-value separator.
pub fn to_string(source: &DataSource, delimiter: char) -> Result<String, EntityError> {
    if source.schema().is_empty() {
        return Err(EntityError::Unwritable(
            "a source without properties".to_string(),
        ));
    }
    let trimmed = |text: &str| !text.is_empty() && text.trim() == text;
    let quote = |cell: &str| -> String {
        if cell.contains([delimiter, '"', '\n', '\r']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let mut out = String::new();
    out.push_str("id");
    for p in source.schema().properties() {
        out.push(delimiter);
        out.push_str(&quote(p));
    }
    out.push('\n');
    for entity in source.entities() {
        let id = entity.id();
        let unwritable = |what: String| EntityError::Unwritable(format!("{what} of entity {id:?}"));
        if !trimmed(id) {
            return Err(unwritable("the identifier".to_string()));
        }
        out.push_str(&quote(id));
        for (i, _) in source.schema().properties().iter().enumerate() {
            let values = entity.values_at(i);
            if let Some(value) = values.iter().find(|v| !trimmed(v) || v.contains('|')) {
                return Err(unwritable(format!("value {value:?}")));
            }
            out.push(delimiter);
            out.push_str(&quote(&values.join("|")));
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "id,label,point\nc1,Berlin,\"52.5, 13.4\"\nc2,Paris|Lutetia,\n";

    #[test]
    fn parses_header_and_rows() {
        let source = parse_str("cities", SAMPLE, ',').unwrap();
        assert_eq!(source.len(), 2);
        assert_eq!(
            source.schema().properties(),
            &["label".to_string(), "point".to_string()]
        );
        assert_eq!(
            source.get("c1").unwrap().first_value("point"),
            Some("52.5, 13.4")
        );
        assert_eq!(source.get("c2").unwrap().values("label").len(), 2);
        assert!(source.get("c2").unwrap().values("point").is_empty());
    }

    #[test]
    fn quoted_quotes_are_unescaped() {
        let text = "id,label\nx,\"say \"\"hi\"\"\"\n";
        let source = parse_str("s", text, ',').unwrap();
        assert_eq!(
            source.get("x").unwrap().first_value("label"),
            Some("say \"hi\"")
        );
    }

    #[test]
    fn field_count_mismatch_is_an_error() {
        let text = "id,label,point\nc1,Berlin\n";
        let err = parse_str("s", text, ',').unwrap_err();
        assert!(matches!(err, EntityError::Parse { line: 2, .. }));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(parse_str("s", "\n\n", ',').is_err());
        assert!(parse_str("s", "id\nx\n", ',').is_err());
    }

    /// Cells are positional, so a repeated header name would shift every
    /// later column onto the wrong property.
    #[test]
    fn repeated_header_names_are_an_error() {
        let err = parse_str("s", "id,a,a,b\nx,1,2,3\n", ',').unwrap_err();
        assert!(matches!(err, EntityError::Parse { line: 1, .. }), "{err}");
        let err = parse_str("s", "\nid\ta\tb\ta\n", '\t').unwrap_err();
        assert!(matches!(err, EntityError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn empty_identifier_is_an_error() {
        let text = "id,label\n ,Berlin\n";
        assert!(parse_str("s", text, ',').is_err());
    }

    #[test]
    fn round_trips_through_to_string() {
        let source = parse_str("cities", SAMPLE, ',').unwrap();
        let text = to_string(&source, ',').unwrap();
        let reparsed = parse_str("cities", &text, ',').unwrap();
        assert_eq!(reparsed.len(), source.len());
        assert_eq!(
            reparsed.get("c1").unwrap().first_value("point"),
            source.get("c1").unwrap().first_value("point")
        );
        assert_eq!(
            reparsed.get("c2").unwrap().values("label"),
            source.get("c2").unwrap().values("label")
        );
    }

    #[test]
    fn quoted_fields_may_span_lines() {
        let mut source = DataSource::new("s", Schema::new(["label", "note"]));
        source
            .add(
                "x",
                vec![vec!["first line\nsecond line".to_string()], vec![]],
            )
            .unwrap();
        let text = to_string(&source, ',').unwrap();
        let reparsed = parse_str("s", &text, ',').unwrap();
        assert_eq!(
            reparsed.get("x").unwrap().values("label"),
            ["first line\nsecond line"]
        );
        // an error names the line its record starts on, after a record
        // spanning two lines
        let text = "id,label,point\nc1,\"a\nb\",c\nc2,d\n";
        let err = parse_str("s", text, ',').unwrap_err();
        assert!(matches!(err, EntityError::Parse { line: 4, .. }), "{err}");
        let err = parse_str("s", "id,label\nx,ok\ny,\"open\nstill open\n", ',').unwrap_err();
        assert!(matches!(err, EntityError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn values_the_format_cannot_carry_are_refused() {
        for (id, value) in [
            ("x", "AT&T | Bell"),
            ("x", " padded"),
            ("x", "padded\n"),
            ("x", ""),
            (" x", "fine"),
        ] {
            let mut source = DataSource::new("s", Schema::new(["label"]));
            source.add(id, vec![vec![value.to_string()]]).unwrap();
            let err = to_string(&source, ',').unwrap_err();
            assert!(matches!(err, EntityError::Unwritable(_)), "{err}");
        }
        let source = DataSource::new("s", Schema::new(Vec::<String>::new()));
        assert!(matches!(
            to_string(&source, ','),
            Err(EntityError::Unwritable(_))
        ));
    }

    /// Over an alphabet holding the delimiter, `"`, `\n`, `|` and spaces,
    /// `to_string` either refuses a source or `parse_str` reads back the
    /// same identifiers and value sets.
    #[test]
    fn to_string_is_inverted_by_parse_str_or_refuses() {
        use proptest::collection::vec;
        use proptest::prelude::*;
        const TEXT: &str = "[abcdefghijklmnop,\"\n| ]{0,4}";
        let rows = vec((TEXT, vec(TEXT, 0..3), vec(TEXT, 0..3)), 0..4);
        let mut rng = TestRng::for_test("tabular_round_trip");
        let (mut written, mut refused) = (0, 0);
        for _ in 0..512 {
            let mut source = DataSource::new("s", Schema::new(["label", "x,y"]));
            for (id, label, note) in rows.sample(&mut rng) {
                // a duplicate identifier is simply not added
                let _ = source.add(id, vec![label, note]);
            }
            let text = match to_string(&source, ',') {
                Ok(text) => text,
                Err(EntityError::Unwritable(_)) => {
                    refused += 1;
                    continue;
                }
                Err(other) => panic!("unexpected error {other}"),
            };
            written += 1;
            let reparsed = parse_str("s", &text, ',').unwrap_or_else(|e| panic!("{e}: {text:?}"));
            assert_eq!(reparsed.schema().properties(), source.schema().properties());
            assert_eq!(reparsed.len(), source.len(), "{text:?}");
            for (back, entity) in reparsed.entities().iter().zip(source.entities()) {
                assert_eq!(
                    (back.id(), back.values_at(0), back.values_at(1)),
                    (entity.id(), entity.values_at(0), entity.values_at(1)),
                    "{text:?}"
                );
            }
        }
        assert!(
            written > 20 && refused > 20,
            "{written} written, {refused} refused"
        );
    }

    #[test]
    fn tab_delimited_files_are_supported() {
        let text = "id\tlabel\nr1\tRoma\n";
        let source = parse_str("s", text, '\t').unwrap();
        assert_eq!(source.get("r1").unwrap().first_value("label"), Some("Roma"));
    }
}
