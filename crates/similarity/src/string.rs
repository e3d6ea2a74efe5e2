//! Character-based string distances: Levenshtein, Jaro and Jaro-Winkler.
//!
//! The public entry points dispatch between two implementations:
//!
//! * an **ASCII fast path** working directly on `&[u8]` — Levenshtein runs
//!   the Myers bit-parallel algorithm (one `u64` word for patterns up to 64
//!   characters, Hyyrö's blocked extension above that), Jaro reuses
//!   per-thread match-flag buffers — with all working memory drawn from the
//!   thread-local [`SimScratch`](crate::scratch::SimScratch) pool, so a
//!   warmed-up worker allocates nothing per call;
//! * the original character-level dynamic programs, retained verbatim as
//!   `*_reference` — they remain the correctness oracle for the property
//!   tests and the fallback for non-ASCII inputs.
//!
//! Both paths return **identical values** (identical distances for
//! Levenshtein, bit-identical `f64` for Jaro: the fast path reproduces the
//! reference's match/transposition counts and evaluates the same final
//! expression), so callers may mix them freely without breaking the
//! compiled-vs-tree-walk parity guarantees.

use crate::scratch::{with_scratch, SimScratch};
use crate::stats;

/// Levenshtein edit distance between two strings, computed over Unicode
/// scalar values.  ASCII inputs run the Myers bit-parallel kernel; anything
/// else falls back to [`levenshtein_reference`].
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        levenshtein_bytes(a.as_bytes(), b.as_bytes(), usize::MAX)
            .expect("every distance is within an unlimited bound")
    } else {
        stats::count_levenshtein_fallback();
        levenshtein_reference(a, b)
    }
}

/// Bounded Levenshtein distance with early exit: returns `Some(d)` iff the
/// edit distance is at most `bound`, and `None` otherwise.
///
/// Comparison operators discard any distance above their threshold `θ`
/// (Definition 7 turns it into similarity `0`), so the evaluator only ever
/// needs distances within `⌊θ⌋`.  ASCII inputs short-circuit on the length
/// difference, drop the common prefix and suffix (an optimal alignment
/// matches them, so the distance is that of the differing middles) and run
/// the bit-parallel kernel on what is left, which gives up as soon as the
/// bound is out of reach; non-ASCII inputs use the banded reference DP.
pub fn levenshtein_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    if a.is_ascii() && b.is_ascii() {
        let x = a.as_bytes();
        let y = b.as_bytes();
        if x.len().abs_diff(y.len()) > bound {
            return None;
        }
        let prefix = x.iter().zip(y).take_while(|(p, q)| p == q).count();
        let (x, y) = (&x[prefix..], &y[prefix..]);
        let suffix = x
            .iter()
            .rev()
            .zip(y.iter().rev())
            .take_while(|(p, q)| p == q)
            .count();
        levenshtein_bytes(&x[..x.len() - suffix], &y[..y.len() - suffix], bound)
    } else {
        stats::count_levenshtein_fallback();
        levenshtein_bounded_reference(a, b, bound)
    }
}

/// Levenshtein distance normalised to `[0, 1]` by the longer string length.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max_len as f64
}

/// ASCII dispatch: pick the shorter side as the Myers pattern (fewer words)
/// and run the single-word or blocked kernel.  `Some(d)` iff `d ≤ bound`.
fn levenshtein_bytes(a: &[u8], b: &[u8], bound: usize) -> Option<usize> {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.is_empty() {
        return (text.len() <= bound).then_some(text.len());
    }
    stats::count_levenshtein_bit_parallel();
    with_scratch(|scratch| {
        if pattern.len() <= 64 {
            myers_64(pattern, text, bound, &mut scratch.peq)
        } else {
            let distance = myers_blocked(pattern, text, scratch);
            (distance <= bound).then_some(distance)
        }
    })
}

/// Myers (1999) bit-parallel edit distance for patterns of 1..=64 bytes, in
/// Hyyrö's formulation.  `Pv`/`Mv` hold the vertical deltas of one DP
/// column packed into single words; each text byte advances the whole
/// column in O(1) word operations.  The `| 1` on the `Ph` shift feeds the
/// `D[0][j] = j` boundary (the top row grows by one every column).
///
/// Returns `Some(d)` iff `d ≤ bound`.  `score` is the bottom-row cell of the
/// current column and falls by at most one per remaining column, so the loop
/// stops once `score − remaining columns` is past the bound.
///
/// `peq` must be all-zero on entry; the touched bytes are cleared before
/// returning — also after an early exit — so the table can live in the
/// shared scratch.
fn myers_64(pattern: &[u8], text: &[u8], bound: usize, peq: &mut [u64; 256]) -> Option<usize> {
    debug_assert!((1..=64).contains(&pattern.len()));
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = pattern.len();
    let high = 1u64 << (pattern.len() - 1);
    let mut remaining = text.len();
    for &c in text {
        let eq = peq[c as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & high != 0 {
            score += 1;
        }
        if mh & high != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | 1;
        pv = (mh << 1) | !(xv | ph);
        mv = ph & xv;
        remaining -= 1;
        if score.saturating_sub(remaining) > bound {
            break;
        }
    }
    for &c in pattern {
        peq[c as usize] = 0;
    }
    // an early exit leaves `score − remaining > bound`; a full pass leaves
    // `remaining == 0` and the exact distance in `score`
    (score.saturating_sub(remaining) <= bound).then_some(score)
}

/// One column step of one 64-row block (Hyyrö 2003).  `hin` is the
/// horizontal delta entering the block's top row (`-1`, `0` or `+1`); the
/// return value is the horizontal delta leaving at `high` (the block's last
/// meaningful row).  Carries propagate strictly upward, so garbage bits
/// above a partial final block never contaminate the tracked rows.
#[inline]
fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32, high: u64) -> i32 {
    let mut eq = eq;
    let xv = eq | *mv;
    if hin < 0 {
        eq |= 1;
    }
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let mut hout = 0;
    if ph & high != 0 {
        hout += 1;
    }
    if mh & high != 0 {
        hout -= 1;
    }
    let mut ph = ph << 1;
    let mut mh = mh << 1;
    if hin > 0 {
        ph |= 1;
    } else if hin < 0 {
        mh |= 1;
    }
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    hout
}

/// Blocked Myers for patterns above 64 bytes: the pattern is split into
/// ⌈m/64⌉ vertical blocks and each text byte advances them bottom-up,
/// chaining the horizontal delta from block to block.  The score is tracked
/// at the pattern's true last row (bit `(m-1) mod 64` of the final block).
fn myers_blocked(pattern: &[u8], text: &[u8], scratch: &mut SimScratch) -> usize {
    let m = pattern.len();
    let blocks = m.div_ceil(64);
    let peq = &mut scratch.peq_blocks;
    if peq.len() < 256 * blocks {
        peq.resize(256 * blocks, 0);
    }
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize * blocks + (i >> 6)] |= 1u64 << (i & 63);
    }
    scratch.pv.clear();
    scratch.pv.resize(blocks, !0u64);
    scratch.mv.clear();
    scratch.mv.resize(blocks, 0u64);
    let last = blocks - 1;
    let rem = m - last * 64; // 1..=64
    let last_high = 1u64 << (rem - 1);
    let mut score = m as isize;
    for &c in text {
        let row = c as usize * blocks;
        // the matrix's top boundary D[0][j] = j enters block 0 as hin = +1
        let mut hin = 1i32;
        for j in 0..blocks {
            let high = if j == last { last_high } else { 1u64 << 63 };
            hin = advance_block(
                &mut scratch.pv[j],
                &mut scratch.mv[j],
                peq[row + j],
                hin,
                high,
            );
        }
        score += hin as isize;
    }
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize * blocks + (i >> 6)] = 0;
    }
    score as usize
}

/// The classic two-row character dynamic program — the seed implementation,
/// kept as the correctness oracle for the bit-parallel kernels and the
/// fallback for non-ASCII inputs.
pub fn levenshtein_reference(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution = prev[j] + usize::from(ca != cb);
            let insertion = current[j] + 1;
            let deletion = prev[j + 1] + 1;
            current[j + 1] = substitution.min(insertion).min(deletion);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Banded character DP with early exit — the seed implementation of
/// [`levenshtein_bounded`], kept as the oracle and the non-ASCII fallback.
/// Fills only the diagonal band of width `2·bound + 1` and abandons a row
/// once every cell exceeds the bound; within the band the values are
/// exactly those of the full matrix.
pub fn levenshtein_bounded_reference(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > bound {
        return None;
    }
    if a.is_empty() {
        return Some(b.len());
    }
    if b.is_empty() {
        return Some(a.len());
    }
    // cells outside the band act as "already above the bound"
    const OUTSIDE: usize = usize::MAX / 2;
    let mut prev = vec![OUTSIDE; b.len() + 1];
    let mut current = vec![OUTSIDE; b.len() + 1];
    for (j, cell) in prev.iter_mut().enumerate().take(b.len().min(bound) + 1) {
        *cell = j;
    }
    for i in 1..=a.len() {
        let low = i.saturating_sub(bound);
        let high = (i + bound).min(b.len());
        let mut row_min = OUTSIDE;
        for j in low..=high {
            let value = if j == 0 {
                i
            } else {
                let substitution = prev[j - 1].saturating_add(usize::from(a[i - 1] != b[j - 1]));
                let insertion = current[j - 1].saturating_add(1);
                let deletion = prev[j].saturating_add(1);
                substitution.min(insertion).min(deletion)
            };
            current[j] = value;
            row_min = row_min.min(value);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut current);
        current.fill(OUTSIDE);
    }
    let distance = prev[b.len()];
    (distance <= bound).then_some(distance)
}

/// Jaro similarity in `[0, 1]` (1 = identical).  Early-exits on empty and
/// identical inputs; ASCII inputs run on bytes with scratch match flags,
/// anything else falls back to [`jaro_similarity_reference`].  All paths
/// agree bit-for-bit.
pub fn jaro_similarity(a: &str, b: &str) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // exact: identical strings score (1 + 1 + 1) / 3 = 1.0 on every path
    if a == b {
        return 1.0;
    }
    if a.is_ascii() && b.is_ascii() {
        stats::count_jaro_fast();
        with_scratch(|scratch| jaro_ascii(a.as_bytes(), b.as_bytes(), scratch))
    } else {
        stats::count_jaro_fallback();
        jaro_similarity_reference(a, b)
    }
}

/// Byte-level Jaro: same match-window scan as the reference, but the match
/// flags come from the scratch pool and transpositions are counted with a
/// two-pointer walk instead of materialising the matched subsequences.  The
/// match and transposition counts — and therefore the result — are exactly
/// the reference's.
fn jaro_ascii(a: &[u8], b: &[u8], scratch: &mut SimScratch) -> f64 {
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    scratch.flags_a.clear();
    scratch.flags_a.resize(a.len(), false);
    scratch.flags_b.clear();
    scratch.flags_b.resize(b.len(), false);
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let start = i.saturating_sub(match_window);
        let end = (i + match_window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(end).skip(start) {
            if !scratch.flags_b[j] && cb == ca {
                scratch.flags_b[j] = true;
                scratch.flags_a[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let mut mismatched = 0usize;
    let mut k = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        if !scratch.flags_a[i] {
            continue;
        }
        while !scratch.flags_b[k] {
            k += 1;
        }
        if b[k] != ca {
            mismatched += 1;
        }
        k += 1;
    }
    let transpositions = mismatched / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// The seed character-level Jaro implementation, kept as the oracle and the
/// non-ASCII fallback.
pub fn jaro_similarity_reference(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_matched = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_match_flags = vec![false; a.len()];
    for (i, ca) in a.iter().enumerate() {
        let start = i.saturating_sub(match_window);
        let end = (i + match_window + 1).min(b.len());
        for j in start..end {
            if !b_matched[j] && b[j] == *ca {
                b_matched[j] = true;
                a_match_flags[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // count transpositions
    let matched_a: Vec<char> = a
        .iter()
        .enumerate()
        .filter(|(i, _)| a_match_flags[*i])
        .map(|(_, c)| *c)
        .collect();
    let matched_b: Vec<char> = b
        .iter()
        .enumerate()
        .filter(|(j, _)| b_matched[*j])
        .map(|(_, c)| *c)
        .collect();
    let transpositions = matched_a
        .iter()
        .zip(matched_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix scale of 0.1 and a maximum
/// prefix length of 4.
pub fn jaro_winkler_similarity(a: &str, b: &str) -> f64 {
    let jaro = jaro_similarity(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    (jaro + prefix * 0.1 * (1.0 - jaro)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("iPod", "IPOD"), 3);
        assert_eq!(levenshtein("Berlin", "berlin"), 1);
    }

    #[test]
    fn levenshtein_handles_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("Universität", "Universitat"), 1);
    }

    #[test]
    fn levenshtein_handles_long_ascii() {
        // patterns above 64 bytes exercise the blocked kernel
        let a = "a".repeat(100);
        let b = format!("{}b", "a".repeat(99));
        assert_eq!(levenshtein(&a, &b), 1);
        let c = "abcdefghij".repeat(13); // 130 chars
        let d = "abcdefghij".repeat(13).replace("ghij", "gxij");
        assert_eq!(levenshtein(&c, &d), levenshtein_reference(&c, &d));
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 0.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 0.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 1.0);
        assert!((normalized_levenshtein("abcd", "abce") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro_similarity("MARTHA", "MARHTA") - 0.944444).abs() < 1e-4);
        assert!((jaro_similarity("DIXON", "DICKSONX") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro_similarity("", ""), 1.0);
        assert_eq!(jaro_similarity("a", ""), 0.0);
        assert_eq!(jaro_similarity("abc", "abc"), 1.0);
        assert_eq!(jaro_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler_similarity("MARTHA", "MARHTA") - 0.961111).abs() < 1e-4);
        assert!((jaro_winkler_similarity("DWAYNE", "DUANE") - 0.84).abs() < 1e-2);
        assert_eq!(jaro_winkler_similarity("same", "same"), 1.0);
    }

    #[test]
    fn bounded_levenshtein_known_values() {
        assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_bounded("same", "same", 0), Some(0));
        assert_eq!(levenshtein_bounded("", "abc", 3), Some(3));
        assert_eq!(levenshtein_bounded("", "abc", 2), None);
        assert_eq!(levenshtein_bounded("abc", "", 5), Some(3));
        assert_eq!(levenshtein_bounded("Berlin", "berlin", 1), Some(1));
        assert_eq!(levenshtein_bounded("a", "b", 0), None);
    }

    #[test]
    fn bounded_levenshtein_length_difference_short_circuits() {
        // strings whose lengths differ by more than the bound cannot match
        assert_eq!(levenshtein_bounded("ab", "abcdefgh", 3), None);
        assert_eq!(levenshtein_bounded("ab", "abcdefgh", 6), Some(6));
    }

    proptest! {
        #[test]
        fn levenshtein_is_symmetric(a in ".{0,20}", b in ".{0,20}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        /// The bit-parallel kernel agrees with the DP oracle on ASCII inputs
        /// (single-word regime).
        #[test]
        fn bit_parallel_matches_oracle_short(a in "[ -~]{0,40}", b in "[ -~]{0,40}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein_reference(&a, &b));
        }

        /// The blocked kernel agrees with the DP oracle above 64 bytes.
        #[test]
        fn bit_parallel_matches_oracle_blocked(a in "[ -~]{60,180}", b in "[ -~]{60,180}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein_reference(&a, &b));
        }

        /// Dispatch (incl. the unicode fallback and empty strings) always
        /// agrees with the oracle.
        #[test]
        fn levenshtein_matches_oracle_any_input(a in ".{0,60}", b in ".{0,60}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein_reference(&a, &b));
        }

        /// Parity with the naive implementation: for every bound, the bounded
        /// version returns exactly the naive distance when it is within the
        /// bound and `None` otherwise.
        #[test]
        fn bounded_levenshtein_matches_naive(a in ".{0,16}", b in ".{0,16}", bound in 0usize..20) {
            let naive = levenshtein_reference(&a, &b);
            let banded = levenshtein_bounded(&a, &b, bound);
            if naive <= bound {
                prop_assert_eq!(banded, Some(naive), "a={:?} b={:?} bound={}", a, b, bound);
            } else {
                prop_assert_eq!(banded, None, "a={:?} b={:?} bound={} naive={}", a, b, bound, naive);
            }
        }

        /// The bounded ASCII path — prefix/suffix strip, early-exit
        /// single-word kernel up to 64 bytes, blocked kernel above — agrees
        /// with the banded DP oracle on near-duplicates (a few edits apart,
        /// so the length filter lets them through) and on unrelated strings,
        /// and an early exit leaves the shared `peq` table all-zero.
        #[test]
        fn bounded_ascii_matches_reference(
            a in "[abc]{0,70}",
            edits in proptest::collection::vec((0usize..3, 0usize..70, 0usize..3), 0..8),
            unrelated in "[abc]{0,70}",
            bound in 0usize..11,
        ) {
            let mut edited = a.clone().into_bytes();
            for (kind, at, letter) in edits {
                let at = at % (edited.len() + 1);
                let letter = b"abc"[letter];
                match kind {
                    0 => edited.insert(at, letter),
                    1 if at < edited.len() => edited[at] = letter,
                    _ if at < edited.len() => { edited.remove(at); }
                    _ => {}
                }
            }
            let edited = String::from_utf8(edited).expect("ascii");
            for b in [&edited, &unrelated] {
                prop_assert_eq!(
                    levenshtein_bounded(&a, b, bound),
                    levenshtein_bounded_reference(&a, b, bound),
                    "a={:?} b={:?} bound={}", a, b, bound
                );
                with_scratch(|scratch| prop_assert!(scratch.peq.iter().all(|&word| word == 0)));
            }
        }

        /// Same parity for the banded reference itself (the seed property).
        #[test]
        fn bounded_reference_matches_naive(a in ".{0,16}", b in ".{0,16}", bound in 0usize..20) {
            let naive = levenshtein_reference(&a, &b);
            let banded = levenshtein_bounded_reference(&a, &b, bound);
            if naive <= bound {
                prop_assert_eq!(banded, Some(naive));
            } else {
                prop_assert_eq!(banded, None);
            }
        }

        #[test]
        fn levenshtein_identity(a in ".{0,20}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn levenshtein_bounded_by_longer_string(a in ".{0,20}", b in ".{0,20}") {
            let d = levenshtein(&a, &b);
            prop_assert!(d <= a.chars().count().max(b.chars().count()));
            let diff = (a.chars().count() as i64 - b.chars().count() as i64).unsigned_abs() as usize;
            prop_assert!(d >= diff);
        }

        #[test]
        fn levenshtein_triangle_inequality(a in ".{0,12}", b in ".{0,12}", c in ".{0,12}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn jaro_in_unit_interval_and_symmetric(a in ".{0,20}", b in ".{0,20}") {
            let s = jaro_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - jaro_similarity(&b, &a)).abs() < 1e-12);
        }

        /// The byte fast path is bit-identical to the character reference.
        #[test]
        fn jaro_fast_path_matches_reference(a in "[ -~]{0,30}", b in "[ -~]{0,30}") {
            prop_assert_eq!(
                jaro_similarity(&a, &b).to_bits(),
                jaro_similarity_reference(&a, &b).to_bits()
            );
        }

        /// Dispatch (incl. the unicode fallback) is bit-identical to the
        /// reference on arbitrary inputs.
        #[test]
        fn jaro_matches_reference_any_input(a in ".{0,24}", b in ".{0,24}") {
            prop_assert_eq!(
                jaro_similarity(&a, &b).to_bits(),
                jaro_similarity_reference(&a, &b).to_bits()
            );
        }

        #[test]
        fn jaro_winkler_at_least_jaro(a in ".{0,20}", b in ".{0,20}") {
            let jw = jaro_winkler_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&jw));
            prop_assert!(jw + 1e-12 >= jaro_similarity(&a, &b));
        }
    }
}
