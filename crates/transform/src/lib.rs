//! Data transformation functions for linkage rules.
//!
//! A transformation operator (Definition 6 of the paper) applies a function
//! `f^t : Σ^n → Σ` to the value sets produced by its child value operators.
//! Transformations normalise heterogeneous value representations prior to
//! comparison — the paper motivates them with inconsistent letter case
//! ("iPod" vs. "IPOD") and with schema heterogeneity (concatenating
//! `foaf:firstName`/`foaf:lastName` before comparing with `dbpedia:name`).
//!
//! Table 1 of the paper lists `lowerCase`, `tokenize`, `stripUriPrefix` and
//! `concatenate`; Figure 6 additionally uses `stem` and Section 6.2 mentions
//! string-replacement transformations.  All of those are provided here.

#![warn(unreachable_pub)]

/// The transformation functions available to linkage rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformFunction {
    /// Converts all values to lower case (Table 1: `lowerCase`).
    LowerCase,
    /// Splits all values into alphanumeric tokens (Table 1: `tokenize`).
    Tokenize,
    /// Strips URI prefixes such as `http://dbpedia.org/resource/` and decodes
    /// `_` to spaces (Table 1: `stripUriPrefix`).
    StripUriPrefix,
    /// Concatenates the values of two (or more) value operators pairwise with
    /// a single space (Table 1: `concatenate`).
    Concatenate,
    /// A light suffix-stripping stemmer (Figure 6 of the paper uses `stem`).
    Stem,
    /// Removes all punctuation characters.
    StripPunctuation,
    /// Removes all whitespace.
    RemoveWhitespace,
    /// Keeps only digits (useful for phone numbers and identifiers such as the
    /// CAS numbers mentioned for DBpediaDrugBank).
    DigitsOnly,
    /// Replaces dashes and underscores by spaces (a simple instance of the
    /// string-replacement transformations of the manually written
    /// DBpediaDrugBank rule).
    NormalizeSeparators,
}

impl TransformFunction {
    /// Every available transformation, in a stable order.
    pub const ALL: [TransformFunction; 9] = [
        TransformFunction::LowerCase,
        TransformFunction::Tokenize,
        TransformFunction::StripUriPrefix,
        TransformFunction::Concatenate,
        TransformFunction::Stem,
        TransformFunction::StripPunctuation,
        TransformFunction::RemoveWhitespace,
        TransformFunction::DigitsOnly,
        TransformFunction::NormalizeSeparators,
    ];

    /// The transformations used in the paper's experiments (Table 1).
    pub const PAPER: [TransformFunction; 4] = [
        TransformFunction::LowerCase,
        TransformFunction::Tokenize,
        TransformFunction::StripUriPrefix,
        TransformFunction::Concatenate,
    ];

    /// The canonical name used by the rule DSL.
    pub fn name(&self) -> &'static str {
        match self {
            TransformFunction::LowerCase => "lowerCase",
            TransformFunction::Tokenize => "tokenize",
            TransformFunction::StripUriPrefix => "stripUriPrefix",
            TransformFunction::Concatenate => "concatenate",
            TransformFunction::Stem => "stem",
            TransformFunction::StripPunctuation => "stripPunctuation",
            TransformFunction::RemoveWhitespace => "removeWhitespace",
            TransformFunction::DigitsOnly => "digitsOnly",
            TransformFunction::NormalizeSeparators => "normalizeSeparators",
        }
    }

    /// Parses a DSL name back into a transformation.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// Returns `true` if this transformation combines the values of *several*
    /// child operators (only `concatenate` does); all other transformations
    /// map each input value independently.
    pub fn is_multi_input(&self) -> bool {
        matches!(self, TransformFunction::Concatenate)
    }

    /// Applies the transformation to the value sets produced by the child
    /// operators.
    pub fn apply(&self, inputs: &[Vec<String>]) -> Vec<String> {
        let slices: Vec<&[String]> = inputs.iter().map(Vec::as_slice).collect();
        self.apply_slices(&slices)
    }

    /// [`TransformFunction::apply`] over borrowed value sets, without
    /// cloning the inputs first.
    pub fn apply_slices(&self, inputs: &[&[String]]) -> Vec<String> {
        let mut output = Vec::new();
        self.apply_into(inputs, &mut output);
        output
    }

    /// [`TransformFunction::apply_slices`] appending to `output`, whose
    /// existing values stay untouched: a bound column's cells are appended
    /// to one buffer, one transformation output per entity.  Each output
    /// value costs one allocation.
    pub fn apply_into(&self, inputs: &[&[String]], output: &mut Vec<String>) {
        match self {
            TransformFunction::Concatenate => concatenate(inputs, output),
            _ => {
                for input in inputs {
                    for value in *input {
                        self.apply_value(value, output);
                    }
                }
            }
        }
    }

    fn apply_value(&self, value: &str, output: &mut Vec<String>) {
        /// The characters of `value` that `keep` accepts, sized up front:
        /// the output is never longer than the input.
        fn filtered(value: &str, keep: fn(&char) -> bool) -> String {
            let mut kept = String::with_capacity(value.len());
            kept.extend(value.chars().filter(keep));
            kept
        }
        match self {
            TransformFunction::LowerCase => output.push(value.to_lowercase()),
            TransformFunction::Tokenize => {
                for token in value.split(|c: char| !c.is_alphanumeric()) {
                    if !token.is_empty() {
                        output.push(token.to_string());
                    }
                }
            }
            TransformFunction::StripUriPrefix => output.push(strip_uri_prefix(value)),
            TransformFunction::Stem => output.push(stem(value)),
            TransformFunction::StripPunctuation => {
                output.push(filtered(value, |c| !c.is_ascii_punctuation()))
            }
            TransformFunction::RemoveWhitespace => {
                output.push(filtered(value, |c| !c.is_whitespace()))
            }
            TransformFunction::DigitsOnly => output.push(filtered(value, char::is_ascii_digit)),
            TransformFunction::NormalizeSeparators => output.push(value.replace(['-', '_'], " ")),
            TransformFunction::Concatenate => unreachable!("handled in apply_into"),
        }
    }
}

impl std::fmt::Display for TransformFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Strips an `http(s)://.../` prefix and replaces `_` by spaces, mirroring the
/// Silk `stripUriPrefix` transformation.
fn strip_uri_prefix(value: &str) -> String {
    let trimmed = value.trim();
    if trimmed.starts_with("http://") || trimmed.starts_with("https://") {
        let local = trimmed.rsplit(['/', '#']).next().unwrap_or(trimmed);
        local.replace('_', " ")
    } else {
        trimmed.to_string()
    }
}

/// A deliberately small suffix-stripping stemmer (not full Porter); enough to
/// conflate plural/singular and simple verb forms in noisy bibliographic data.
fn stem(value: &str) -> String {
    let lower = value.to_lowercase();
    let suffixes = [
        "ization", "ation", "ingly", "edly", "ings", "ing", "ies", "ed", "ly", "s",
    ];
    for suffix in suffixes {
        if let Some(stripped) = lower.strip_suffix(suffix) {
            if stripped.chars().count() >= 3 {
                return stripped.to_string();
            }
        }
    }
    lower
}

/// Pairwise concatenation of the values of several operators with a space.
///
/// The cross product of the input value sets is concatenated, which matches
/// the FOAF example of the paper: `firstName × lastName → "first last"`.
/// Empty inputs are skipped so that a missing middle name does not erase the
/// whole value.  Combinations are appended to `output` with the first input
/// varying slowest, each built in one scratch buffer sized for the longest
/// and copied out once.
fn concatenate(inputs: &[&[String]], output: &mut Vec<String>) {
    /// Appends `joined` extended by every combination of `inputs`' values.
    fn extend(joined: &mut String, first: bool, inputs: &[&[String]], output: &mut Vec<String>) {
        let Some(at) = inputs.iter().position(|input| !input.is_empty()) else {
            if !first {
                output.push(joined.clone());
            }
            return;
        };
        let kept = joined.len();
        for value in inputs[at] {
            if !first {
                joined.push(' ');
            }
            joined.push_str(value);
            extend(joined, false, &inputs[at + 1..], output);
            joined.truncate(kept);
        }
    }
    let longest = inputs
        .iter()
        .map(|input| input.iter().map(String::len).max().unwrap_or(0) + 1)
        .sum();
    extend(&mut String::with_capacity(longest), true, inputs, output);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vs(values: &[&str]) -> Vec<String> {
        values.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_round_trip() {
        for f in TransformFunction::ALL {
            assert_eq!(TransformFunction::from_name(f.name()), Some(f));
        }
        assert_eq!(TransformFunction::from_name("bogus"), None);
    }

    #[test]
    fn lower_case_normalises_ipod() {
        let out = TransformFunction::LowerCase.apply(&[vs(&["iPod", "IPOD"])]);
        assert_eq!(out, vs(&["ipod", "ipod"]));
    }

    #[test]
    fn tokenize_splits_on_non_alphanumerics() {
        let out = TransformFunction::Tokenize.apply(&[vs(&["Data-Integration, 2012"])]);
        assert_eq!(out, vs(&["Data", "Integration", "2012"]));
    }

    #[test]
    fn strip_uri_prefix_extracts_local_name() {
        let out = TransformFunction::StripUriPrefix
            .apply(&[vs(&["http://dbpedia.org/resource/New_York_City"])]);
        assert_eq!(out, vs(&["New York City"]));
        // non-URIs pass through unchanged
        let out = TransformFunction::StripUriPrefix.apply(&[vs(&["plain value"])]);
        assert_eq!(out, vs(&["plain value"]));
        // fragment identifiers are handled too
        let out = TransformFunction::StripUriPrefix.apply(&[vs(&["http://example.org/ns#Berlin"])]);
        assert_eq!(out, vs(&["Berlin"]));
    }

    #[test]
    fn concatenate_builds_cross_product() {
        let out = TransformFunction::Concatenate.apply(&[vs(&["Ada", "A."]), vs(&["Lovelace"])]);
        assert_eq!(out, vs(&["Ada Lovelace", "A. Lovelace"]));
    }

    #[test]
    fn concatenate_skips_empty_inputs() {
        let out = TransformFunction::Concatenate.apply(&[vs(&["Ada"]), vec![], vs(&["Lovelace"])]);
        assert_eq!(out, vs(&["Ada Lovelace"]));
        assert!(TransformFunction::Concatenate
            .apply(&[vec![], vec![]])
            .is_empty());
    }

    #[test]
    fn stem_conflates_simple_suffixes() {
        let out = TransformFunction::Stem.apply(&[vs(&["Matchings", "matched", "match"])]);
        assert_eq!(out, vs(&["match", "match", "match"]));
        // too-short stems are left alone
        assert_eq!(TransformFunction::Stem.apply(&[vs(&["is"])]), vs(&["is"]));
    }

    #[test]
    fn punctuation_and_whitespace_strippers() {
        assert_eq!(
            TransformFunction::StripPunctuation.apply(&[vs(&["a.b,c!"])]),
            vs(&["abc"])
        );
        assert_eq!(
            TransformFunction::RemoveWhitespace.apply(&[vs(&["a b  c"])]),
            vs(&["abc"])
        );
    }

    #[test]
    fn digits_only_extracts_identifiers() {
        assert_eq!(
            TransformFunction::DigitsOnly.apply(&[vs(&["CAS 50-78-2"])]),
            vs(&["50782"])
        );
        assert_eq!(
            TransformFunction::DigitsOnly.apply(&[vs(&["(030) 123-456"])]),
            vs(&["030123456"])
        );
    }

    #[test]
    fn normalize_separators_replaces_dashes_and_underscores() {
        assert_eq!(
            TransformFunction::NormalizeSeparators.apply(&[vs(&["New_York-City"])]),
            vs(&["New York City"])
        );
    }

    #[test]
    fn empty_input_produces_empty_output() {
        for f in TransformFunction::ALL {
            assert!(f.apply(&[]).is_empty(), "{f} on no inputs");
            if !f.is_multi_input() {
                assert!(f.apply(&[vec![]]).is_empty(), "{f} on empty value set");
            }
        }
    }

    #[test]
    fn chaining_lowercase_after_tokenize_matches_paper_normalisation() {
        let tokens =
            TransformFunction::Tokenize.apply(&[vs(&["Learning Expressive Linkage-Rules"])]);
        let lowered = TransformFunction::LowerCase.apply(&[tokens]);
        assert_eq!(lowered, vs(&["learning", "expressive", "linkage", "rules"]));
    }

    /// The body `apply_slices` had before `apply_into` existed, kept as the
    /// oracle `apply_into` is checked against: one growing `String` per
    /// filtered value, and `concatenate` through a second `Vec` per input.
    fn old_apply_slices(function: TransformFunction, inputs: &[&[String]]) -> Vec<String> {
        if function == TransformFunction::Concatenate {
            let non_empty: Vec<&[String]> =
                inputs.iter().copied().filter(|i| !i.is_empty()).collect();
            if non_empty.is_empty() {
                return Vec::new();
            }
            let mut result: Vec<String> = non_empty[0].to_vec();
            for input in &non_empty[1..] {
                let mut next = Vec::with_capacity(result.len() * input.len());
                for prefix in &result {
                    for value in input.iter() {
                        next.push(format!("{prefix} {value}"));
                    }
                }
                result = next;
            }
            return result;
        }
        let mut output = Vec::new();
        for value in inputs.iter().flat_map(|input| input.iter()) {
            match function {
                TransformFunction::LowerCase => output.push(value.to_lowercase()),
                TransformFunction::Tokenize => {
                    for token in value.split(|c: char| !c.is_alphanumeric()) {
                        if !token.is_empty() {
                            output.push(token.to_string());
                        }
                    }
                }
                TransformFunction::StripUriPrefix => output.push(strip_uri_prefix(value)),
                TransformFunction::Stem => output.push(stem(value)),
                TransformFunction::StripPunctuation => output.push(
                    value
                        .chars()
                        .filter(|c| !c.is_ascii_punctuation())
                        .collect(),
                ),
                TransformFunction::RemoveWhitespace => {
                    output.push(value.chars().filter(|c| !c.is_whitespace()).collect())
                }
                TransformFunction::DigitsOnly => {
                    output.push(value.chars().filter(|c| c.is_ascii_digit()).collect())
                }
                TransformFunction::NormalizeSeparators => {
                    output.push(value.replace(['-', '_'], " "))
                }
                TransformFunction::Concatenate => unreachable!("handled above"),
            }
        }
        output
    }

    /// `apply_into` on a buffer already holding `prefix` keeps the prefix and
    /// appends exactly what the old `apply_slices` body returned.  A value is
    /// made a URI where `uri` says so, for `stripUriPrefix`.
    fn assert_apply_into_matches_the_old_body(
        function: TransformFunction,
        mut inputs: Vec<Vec<String>>,
        prefix: Vec<String>,
        uri: usize,
    ) {
        if let Some(value) = inputs.iter_mut().flatten().nth(uri) {
            *value = format!("http://example.org/a_b#{value}");
        }
        let slices: Vec<&[String]> = inputs.iter().map(Vec::as_slice).collect();
        let mut output = prefix.clone();
        function.apply_into(&slices, &mut output);
        assert_eq!(output[..prefix.len()], prefix[..], "{function}: prefix");
        assert_eq!(
            output[prefix.len()..],
            old_apply_slices(function, &slices)[..],
            "{function} on {inputs:?}"
        );
    }

    /// One differential property per transformation: up to three inputs of
    /// up to three values each (empty inputs and empty values included),
    /// drawn from printable ASCII and a few non-ASCII letters.
    macro_rules! apply_into_matches_the_old_body {
        ($($name:ident: $function:expr,)*) => {
            proptest! {
                $(
                    #[test]
                    fn $name(
                        inputs in proptest::collection::vec(
                            proptest::collection::vec(".{0,10}", 0..4),
                            0..4,
                        ),
                        prefix in proptest::collection::vec("[a-z]{0,4}", 1..3),
                        uri in 0usize..4,
                    ) {
                        assert_apply_into_matches_the_old_body($function, inputs, prefix, uri);
                    }
                )*
            }
        };
    }

    apply_into_matches_the_old_body! {
        apply_into_lower_case: TransformFunction::LowerCase,
        apply_into_tokenize: TransformFunction::Tokenize,
        apply_into_strip_uri_prefix: TransformFunction::StripUriPrefix,
        apply_into_concatenate: TransformFunction::Concatenate,
        apply_into_stem: TransformFunction::Stem,
        apply_into_strip_punctuation: TransformFunction::StripPunctuation,
        apply_into_remove_whitespace: TransformFunction::RemoveWhitespace,
        apply_into_digits_only: TransformFunction::DigitsOnly,
        apply_into_normalize_separators: TransformFunction::NormalizeSeparators,
    }

    proptest! {
        #[test]
        fn lowercase_is_idempotent(values in proptest::collection::vec(".{0,12}", 0..5)) {
            let once = TransformFunction::LowerCase.apply(std::slice::from_ref(&values));
            let twice = TransformFunction::LowerCase.apply(std::slice::from_ref(&once));
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn tokenize_output_has_no_separators(values in proptest::collection::vec(".{0,12}", 0..5)) {
            let tokens = TransformFunction::Tokenize.apply(&[values]);
            for t in tokens {
                prop_assert!(!t.is_empty());
                prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
            }
        }

        #[test]
        fn tokenize_is_idempotent(values in proptest::collection::vec("[a-zA-Z0-9 ,.-]{0,16}", 0..5)) {
            let once = TransformFunction::Tokenize.apply(&[values]);
            let twice = TransformFunction::Tokenize.apply(std::slice::from_ref(&once));
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn single_input_transforms_never_panic(values in proptest::collection::vec(".{0,16}", 0..4)) {
            for f in TransformFunction::ALL {
                let _ = f.apply(std::slice::from_ref(&values));
            }
        }

        #[test]
        fn concatenate_output_size_is_product_of_nonempty_inputs(
            a in proptest::collection::vec("[a-z]{1,4}", 0..4),
            b in proptest::collection::vec("[a-z]{1,4}", 0..4),
        ) {
            let out = TransformFunction::Concatenate.apply(&[a.clone(), b.clone()]);
            let expected = match (a.is_empty(), b.is_empty()) {
                (true, true) => 0,
                (true, false) => b.len(),
                (false, true) => a.len(),
                (false, false) => a.len() * b.len(),
            };
            prop_assert_eq!(out.len(), expected);
        }
    }
}
