//! Process-wide token interning for the set-based measures.
//!
//! The compiled evaluator lowers each entity's token set (its value set for
//! a given chain) to a sorted slice of `u32` ids, so Jaccard/Dice become
//! linear merge-intersections with no per-pair hashing or allocation.  For
//! the ids of *two* entities to be comparable they must come from one
//! interner — and the two sides of a pair are memoized in **separate**
//! [`ValueCache`](crate::ValueCache)s with independent lifetimes (streaming
//! chunks vs long-lived indexes), so the interner cannot live inside a
//! cache.  It is process-global instead: one lock-guarded map from token to
//! id.
//!
//! Growth is bounded by the number of *distinct* token strings ever seen,
//! which real workloads already bound (entity stores intern their values).
//! Ids are never recycled, so a cached id slice can never be invalidated by
//! concurrent interning — the id assigned to a token is stable for the
//! lifetime of the process.
//!
//! The interner is only consulted when a value set is first lowered — a
//! value-cache **miss**, or a bound side's ids column being filled (ids are
//! kept per `(entity, chain)` next to the values); the per-pair hot path
//! never takes this lock.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

static INTERNER: OnceLock<Mutex<HashMap<Box<str>, u32>>> = OnceLock::new();

fn interner() -> &'static Mutex<HashMap<Box<str>, u32>> {
    INTERNER.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The stable process-wide id of a token, assigning the next id on first
/// sight.  Equal tokens always map to equal ids, distinct tokens to
/// distinct ids.
pub(crate) fn intern_token(token: &str) -> u32 {
    let mut map = interner().lock().expect("token interner poisoned");
    if let Some(&id) = map.get(token) {
        return id;
    }
    let id = u32::try_from(map.len()).expect("token interner exhausted the u32 id space");
    map.insert(Box::from(token), id);
    id
}

/// Lowers a value set to its sorted, deduplicated token ids — the form the
/// merge kernels (`jaccard_ids`/`dice_ids`) consume.  Interning is
/// bijective, so deduplication by id equals deduplication by string and the
/// set sizes match the `HashSet` semantics exactly.
pub(crate) fn sorted_token_ids(values: &[String]) -> Vec<u32> {
    let mut ids: Vec<u32> = values.iter().map(|v| intern_token(v)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Number of distinct tokens interned so far (diagnostics/tests).
pub fn interned_token_count() -> usize {
    interner().lock().expect("token interner poisoned").len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_injective() {
        let a1 = intern_token("tokens-test-alpha");
        let b = intern_token("tokens-test-beta");
        let a2 = intern_token("tokens-test-alpha");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert!(interned_token_count() >= 2);
    }

    #[test]
    fn sorted_ids_dedup_like_sets() {
        let values: Vec<String> = ["x", "y", "x", "z", "y"]
            .iter()
            .map(|s| format!("tokens-test-{s}"))
            .collect();
        let ids = sorted_token_ids(&values);
        assert_eq!(ids.len(), 3, "duplicates collapse");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }
}
