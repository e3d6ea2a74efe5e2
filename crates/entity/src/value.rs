//! Value sets: the `Σ` of the paper.
//!
//! Every property of an entity holds a *set of string values* (possibly
//! empty).  Transformation functions map value sets to value sets and distance
//! measures compare two value sets.  Values are kept as plain strings — the
//! numeric, date and geographic distance measures parse them on demand, which
//! mirrors how Silk treats RDF literals.

/// A (possibly empty) set of property values.
///
/// The paper's `Σ` denotes a set of values; we use a vector and do not enforce
/// set semantics because duplicated values are harmless for every distance
/// measure and transformation used by the paper, and preserving order keeps
/// concatenation deterministic.
pub type ValueSet = Vec<String>;

/// Lower-cases and tokenizes every value of a value set.
///
/// This is the normalisation step of the paper's Algorithm 2 ("find compatible
/// properties"): values are lower-cased and split into tokens before pairs of
/// properties are probed for similarity.
///
/// Tokens are maximal runs of alphanumeric characters; all punctuation and
/// whitespace acts as a separator.
pub fn normalized_tokens(values: &[String]) -> Vec<String> {
    let mut tokens = Vec::new();
    for value in values {
        let lower = value.to_lowercase();
        for token in lower.split(|c: char| !c.is_alphanumeric()) {
            if !token.is_empty() {
                tokens.push(token.to_string());
            }
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(values: &[&str]) -> ValueSet {
        values.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tokens_are_lowercased_and_split() {
        let values = vs(&["Data Integration", "GENETIC-Programming"]);
        assert_eq!(
            normalized_tokens(&values),
            vec!["data", "integration", "genetic", "programming"]
        );
    }

    #[test]
    fn tokens_of_empty_set_are_empty() {
        assert!(normalized_tokens(&[]).is_empty());
    }

    #[test]
    fn tokens_skip_pure_punctuation() {
        let values = vs(&["---", "a,b"]);
        assert_eq!(normalized_tokens(&values), vec!["a", "b"]);
    }

    #[test]
    fn numbers_are_kept_as_tokens() {
        let values = vs(&["VLDB 2012"]);
        assert_eq!(normalized_tokens(&values), vec!["vldb", "2012"]);
    }
}
