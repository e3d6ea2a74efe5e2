//! Token/set-based distances: Jaccard and Dice.
//!
//! These measures operate on the *value sets* directly.  In the linkage rules
//! of the paper they are typically combined with a preceding `tokenize`
//! transformation, so each value is a single token.
//!
//! All variants bottom out in one core: the intersection/union counts of two
//! **sorted, deduplicated slices**, computed by a linear merge
//! (`sorted_overlap`).  The compiled evaluator lowers each entity's token
//! set once to sorted interned `u32` ids and calls [`jaccard_ids`] /
//! [`dice_ids`] — a branch-light merge with zero per-pair allocation.  The
//! string-slice entry points (`jaccard_distance`, `dice_distance`, the
//! `_values` tokenising variants) are thin wrappers that sort-dedup their
//! inputs and reuse the same core; every variant computes identical counts
//! and evaluates the same final expression, so they agree bit-for-bit with
//! each other and with the `HashSet` oracles of the tests.

use crate::stats;

/// Intersection and union sizes of two sorted, deduplicated slices, by
/// linear merge.
///
/// Returns `(intersection, union)`.  With both inputs strictly increasing
/// the counts equal the set-theoretic sizes, so every distance built on top
/// matches its hash-set counterpart exactly.
fn sorted_overlap<T: Ord>(a: &[T], b: &[T]) -> (usize, usize) {
    let mut intersection = 0usize;
    let mut i = 0usize;
    let mut j = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (intersection, a.len() + b.len() - intersection)
}

/// Jaccard distance `1 − |A ∩ B| / |A ∪ B|` over sorted, deduplicated token
/// ids — the compiled evaluator's kernel.
///
/// Both slices must be strictly increasing (the interned token-id slices
/// cached per entity are).  Empty-set conventions match the string variants:
/// both empty → 0, exactly one empty → 1.
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    stats::count_token_id_merge();
    let (intersection, union) = sorted_overlap(a, b);
    1.0 - intersection as f64 / union as f64
}

/// Dice distance `1 − 2|A ∩ B| / (|A| + |B|)` over sorted, deduplicated
/// token ids (see [`jaccard_ids`]).
pub fn dice_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    stats::count_token_id_merge();
    let (intersection, _) = sorted_overlap(a, b);
    1.0 - 2.0 * intersection as f64 / (a.len() + b.len()) as f64
}

/// Sort-dedup a borrowed token list so the merge core applies.
fn sorted_tokens<'a>(values: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut tokens: Vec<&str> = values.collect();
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

/// Jaccard distance between two value sets: `1 − |A ∩ B| / |A ∪ B|`.
pub fn jaccard_distance(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    stats::count_token_fallback();
    let ta = sorted_tokens(a.iter().map(|s| s.as_str()));
    let tb = sorted_tokens(b.iter().map(|s| s.as_str()));
    let (intersection, union) = sorted_overlap(&ta, &tb);
    1.0 - intersection as f64 / union as f64
}

/// Dice distance between two value sets: `1 − 2|A ∩ B| / (|A| + |B|)`.
pub fn dice_distance(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    stats::count_token_fallback();
    let ta = sorted_tokens(a.iter().map(|s| s.as_str()));
    let tb = sorted_tokens(b.iter().map(|s| s.as_str()));
    let (intersection, _) = sorted_overlap(&ta, &tb);
    1.0 - 2.0 * intersection as f64 / (ta.len() + tb.len()) as f64
}

/// Jaccard distance between two *single* values interpreted as whitespace
/// separated token bags (used when the measure is applied without a previous
/// `tokenize` transformation).
pub fn jaccard_distance_values(a: &str, b: &str) -> f64 {
    let ta = sorted_tokens(a.split_whitespace());
    let tb = sorted_tokens(b.split_whitespace());
    if ta.is_empty() && tb.is_empty() {
        return 0.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 1.0;
    }
    stats::count_token_fallback();
    let (intersection, union) = sorted_overlap(&ta, &tb);
    1.0 - intersection as f64 / union as f64
}

/// Dice distance between two single values interpreted as token bags.
pub fn dice_distance_values(a: &str, b: &str) -> f64 {
    let ta = sorted_tokens(a.split_whitespace());
    let tb = sorted_tokens(b.split_whitespace());
    if ta.is_empty() && tb.is_empty() {
        return 0.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 1.0;
    }
    stats::count_token_fallback();
    let (intersection, _) = sorted_overlap(&ta, &tb);
    1.0 - 2.0 * intersection as f64 / (ta.len() + tb.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Jaccard distance between two value sets by hash lookups: the oracle
    /// the sorted-merge kernels are checked against.
    fn jaccard_distance_sets(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        if a.is_empty() || b.is_empty() {
            return 1.0;
        }
        let intersection = a.iter().filter(|v| b.contains(*v)).count();
        let union = a.len() + b.len() - intersection;
        1.0 - intersection as f64 / union as f64
    }

    /// Dice distance between two value sets by hash lookups (see
    /// [`jaccard_distance_sets`]).
    fn dice_distance_sets(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        if a.is_empty() || b.is_empty() {
            return 1.0;
        }
        let intersection = a.iter().filter(|v| b.contains(*v)).count();
        1.0 - 2.0 * intersection as f64 / (a.len() + b.len()) as f64
    }

    fn vs(values: &[&str]) -> Vec<String> {
        values.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_known_values() {
        assert_eq!(jaccard_distance(&vs(&["a", "b"]), &vs(&["a", "b"])), 0.0);
        assert_eq!(jaccard_distance(&vs(&["a"]), &vs(&["b"])), 1.0);
        // {a,b,c} vs {b,c,d}: intersection 2, union 4
        assert!(
            (jaccard_distance(&vs(&["a", "b", "c"]), &vs(&["b", "c", "d"])) - 0.5).abs() < 1e-12
        );
    }

    #[test]
    fn jaccard_ignores_duplicates() {
        assert_eq!(
            jaccard_distance(&vs(&["a", "a", "b"]), &vs(&["b", "a"])),
            0.0
        );
    }

    #[test]
    fn jaccard_empty_sets() {
        assert_eq!(jaccard_distance(&[], &[]), 0.0);
        assert_eq!(jaccard_distance(&vs(&["a"]), &[]), 1.0);
        assert_eq!(jaccard_distance(&[], &vs(&["a"])), 1.0);
    }

    #[test]
    fn dice_known_values() {
        assert_eq!(dice_distance(&vs(&["a", "b"]), &vs(&["a", "b"])), 0.0);
        assert_eq!(dice_distance(&vs(&["a"]), &vs(&["b"])), 1.0);
        // {a,b,c} vs {b,c,d}: 2*2/(3+3) = 2/3 -> distance 1/3
        assert!(
            (dice_distance(&vs(&["a", "b", "c"]), &vs(&["b", "c", "d"])) - 1.0 / 3.0).abs() < 1e-12
        );
    }

    #[test]
    fn id_kernels_known_values() {
        assert_eq!(jaccard_ids(&[1, 2], &[1, 2]), 0.0);
        assert_eq!(jaccard_ids(&[1], &[2]), 1.0);
        assert!((jaccard_ids(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_ids(&[], &[]), 0.0);
        assert_eq!(jaccard_ids(&[7], &[]), 1.0);
        assert_eq!(dice_ids(&[], &[]), 0.0);
        assert_eq!(dice_ids(&[], &[7]), 1.0);
        assert!((dice_ids(&[1, 2, 3], &[2, 3, 4]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn value_level_variants_tokenize_on_whitespace() {
        assert_eq!(
            jaccard_distance_values("new york times", "times new york"),
            0.0
        );
        assert!(jaccard_distance_values("new york", "los angeles") > 0.99);
        assert_eq!(dice_distance_values("a b", "b a"), 0.0);
    }

    /// Maps distinct tokens to distinct ids with order preserved, mirroring
    /// what an interner produces for these inputs.
    fn as_sorted_ids(tokens: &[String]) -> Vec<u32> {
        let mut seen: Vec<&str> = tokens.iter().map(|s| s.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        (0..seen.len() as u32).collect()
    }

    /// Shared ids across two token lists: intern over the union so equal
    /// tokens on both sides get equal ids.
    fn intern_pair(a: &[String], b: &[String]) -> (Vec<u32>, Vec<u32>) {
        let mut vocab: Vec<&str> = a.iter().chain(b.iter()).map(|s| s.as_str()).collect();
        vocab.sort_unstable();
        vocab.dedup();
        let lookup = |tokens: &[String]| {
            let mut ids: Vec<u32> = tokens
                .iter()
                .map(|t| vocab.binary_search(&t.as_str()).unwrap() as u32)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        (lookup(a), lookup(b))
    }

    proptest! {
        #[test]
        fn jaccard_in_unit_interval_and_symmetric(
            a in proptest::collection::vec("[a-c]{1,2}", 0..6),
            b in proptest::collection::vec("[a-c]{1,2}", 0..6),
        ) {
            let d = jaccard_distance(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d));
            prop_assert!((d - jaccard_distance(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn dice_never_exceeds_jaccard(
            a in proptest::collection::vec("[a-c]{1,2}", 1..6),
            b in proptest::collection::vec("[a-c]{1,2}", 1..6),
        ) {
            // Dice similarity >= Jaccard similarity, hence Dice distance <= Jaccard distance.
            prop_assert!(dice_distance(&a, &b) <= jaccard_distance(&a, &b) + 1e-12);
        }

        #[test]
        fn identical_sets_have_zero_distance(a in proptest::collection::vec("[a-z]{1,3}", 0..6)) {
            prop_assert_eq!(jaccard_distance(&a, &a), 0.0);
            prop_assert_eq!(dice_distance(&a, &a), 0.0);
            let ids = as_sorted_ids(&a);
            prop_assert_eq!(jaccard_ids(&ids, &ids), 0.0);
            prop_assert_eq!(dice_ids(&ids, &ids), 0.0);
        }

        /// The sorted-id kernels agree bit-for-bit with the HashSet and
        /// string-slice variants over random multisets.
        #[test]
        fn id_kernels_match_hashset_variants(
            a in proptest::collection::vec("[a-e]{1,2}", 0..8),
            b in proptest::collection::vec("[a-e]{1,2}", 0..8),
        ) {
            let (ia, ib) = intern_pair(&a, &b);
            let sa: HashSet<String> = a.iter().cloned().collect();
            let sb: HashSet<String> = b.iter().cloned().collect();
            prop_assert_eq!(
                jaccard_ids(&ia, &ib).to_bits(),
                jaccard_distance_sets(&sa, &sb).to_bits()
            );
            prop_assert_eq!(
                dice_ids(&ia, &ib).to_bits(),
                dice_distance_sets(&sa, &sb).to_bits()
            );
            prop_assert_eq!(
                jaccard_ids(&ia, &ib).to_bits(),
                jaccard_distance(&a, &b).to_bits()
            );
            prop_assert_eq!(
                dice_ids(&ia, &ib).to_bits(),
                dice_distance(&a, &b).to_bits()
            );
        }
    }
}
