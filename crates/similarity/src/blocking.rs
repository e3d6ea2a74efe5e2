//! MultiBlock key functions: overlap-guaranteed blocking per distance measure.
//!
//! Token blocking misses every pair whose values share no exact token —
//! Levenshtein pairs with a typo in a single-token value, numeric, date and
//! geographic comparisons, anything behind a transformation.  MultiBlock
//! (Isele, Jentzsch & Bizer, OM 2011) instead derives the index from the
//! *measure*: every [`DistanceFunction`] maps a value set to a set of
//! [`BlockKey`]s at a given distance bound with the contract
//!
//! > **Overlap guarantee.** If `distance(A, B) ≤ bound` (finite), then some
//! > group of `probe_keys(A, bound)` is *satisfied* by `index_keys(B, bound)`:
//! > at least one of its units **hits** (shares a key with B's index keys)
//! > and at most `may_miss` of its units miss — and, the distance being
//! > symmetric, likewise with the roles of A and B swapped.
//!
//! Keys come in two sides.  The **index** side
//! ([`DistanceFunction::index_keys_into`]) is what an inverted index stores
//! per target entity: a flat key set.  The **probe** side ([`ProbeKeys`]) is
//! what a source entity looks up: **groups of units**, a unit being the 1–3
//! keys that stand for one part of the value (one positional q-gram, one
//! token), each group with a **miss budget** `may_miss`.  The guarantee is
//! counted, not just existential: a match hits *all but* `may_miss` units of
//! its group, so by pigeonhole **any** `may_miss + 1` units of a group
//! contain one the match hits — a prober may scan just those (whichever are
//! cheapest) and skip the rest.  Schemes that can only promise *one* shared
//! key put each key in a unit of its own and let all but one miss, which is
//! plain any-shared-key blocking.
//!
//! A scheme that needs neighbour overlap (two values within the bound can
//! sit one position bucket apart) pays for it on the probe side only: a
//! probe unit holds `bucket − 1 ..= bucket + 1`, the index stores the
//! value's own bucket once.  Emitting neighbours on *both* sides would also
//! match pairs two buckets apart, which the guarantee never needs, and store
//! every posting three times.
//! Every scheme keeps `index_keys(v) ⊆ probe_keys(v).keys()`.
//!
//! Candidate generation that only considers pairs satisfying a group is
//! therefore *lossless by construction*: it can only add false candidates
//! (which the rule evaluation then rejects), never lose a true link.  Keys
//! are 64-bit mixes of a per-scheme tag and the key's parts (see [`Mixer`]),
//! so a collision merges two blocks — more hits, never fewer, which
//! preserves the guarantee.
//!
//! Per-measure schemes (the lossless-by-construction arguments are spelled
//! out in DESIGN.md, "Candidate generation"):
//!
//! * **Levenshtein** — an exact whole-value key when the edit budget
//!   `d = ⌊bound⌋` is 0 (integer distances below 1 require equality);
//!   otherwise positional padded q-grams (q shrinks as the budget grows)
//!   with position buckets of width `d + 1` — one probe unit per gram with
//!   ±1 neighbour overlap, one group per value with `may_miss = q·d`; the
//!   index side emits the gram's own bucket only — plus a shared
//!   short-string key for values short enough that `d` edits could destroy
//!   every gram (`d` edits destroy at most `q·d` of the `|s| + q − 1` padded
//!   grams).
//! * **Jaro / Jaro-Winkler** — a match-window-aware scheme for tight bounds
//!   (see [`jaro_keys`]): a Jaro distance `d` forces the matched fraction of
//!   *each* string to be at least `f = 1 − 3d` (each of the three Jaro terms
//!   is at most 1), which in turn bounds the length ratio (`min ≥ f·max`,
//!   keyed as log-scale length bands), confines the first matched character
//!   to a prefix of each string, and confines its partner to a window-shifted
//!   prefix of the other (keyed as bounded-position prefix characters).
//!   Looser bounds fall back to plain per-character keys (a similarity above
//!   zero requires at least one common character); `bound ≥ 1` admits every
//!   pair (not prunable).
//! * **Jaccard / Dice** — one key (and probe unit) per distinct value (set
//!   element); at most `⌊bound·n⌋` (Dice: `⌊2·bound·n/(1 + bound)⌋`) of a
//!   set's `n` elements can be absent from a set within the bound.
//! * **Equality** — one key per distinct value; distance 0 requires a
//!   shared value.
//! * **Numeric / Date** — interval buckets of width `bound` with ±1
//!   neighbour overlap on *both* sides (two values within `bound` sit at most
//!   one bucket apart; the second neighbour absorbs floating-point rounding
//!   of `x / bound`, which is why these schemes stay symmetric).
//! * **Geographic** — the point is embedded on the sphere in 3-D (chord
//!   length ≤ arc length, so a haversine bound is also a chord bound) and
//!   bucketed per axis with width `bound`, emitting the 3³ neighbour cells
//!   (symmetric, for the same rounding slack).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::date::parse_date;
use crate::geo::parse_point;
use crate::numeric::parse_number;
use crate::DistanceFunction;

/// An opaque block key.  Keys only support equality: two value sets may end
/// up in a common block, and pairs sharing no block are pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey(u64);

impl BlockKey {
    /// The raw 64-bit key (stable within a process run).
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Rebuilds a key from its raw 64-bit form — the snapshot-restore path.
    /// Only meaningful for values produced by [`BlockKey::raw`] under the
    /// same key-derivation code (snapshots carry a format version for this).
    pub fn from_raw(raw: u64) -> Self {
        BlockKey(raw)
    }
}

/// The probe side of a key scheme: what a querying value set looks up, as
/// **groups of units** with a **miss budget** per group (see the module docs
/// for the contract).  A reusable buffer: [`DistanceFunction::probe_keys_into`]
/// refills it without allocating once it has grown.
#[derive(Debug, Clone, Default)]
pub struct ProbeKeys {
    /// Every key of every unit, units and groups back to back.
    keys: Vec<BlockKey>,
    /// Unit `u` (counted across groups) is `keys[unit_bounds[u]..unit_bounds[u + 1]]`.
    unit_bounds: Vec<usize>,
    groups: Vec<GroupSpan>,
    /// The padded characters of the value being keyed (q-gram schemes).
    padded: Vec<char>,
}

#[derive(Debug, Clone, Copy)]
struct GroupSpan {
    /// Exclusive end of the group's units (counted across groups).
    unit_end: usize,
    may_miss: usize,
}

impl ProbeKeys {
    /// Creates an empty buffer; it grows on first use.
    pub fn new() -> Self {
        ProbeKeys::default()
    }

    /// The groups, in emission order.
    pub fn groups(&self) -> impl Iterator<Item = ProbeGroup<'_>> {
        let mut first_unit = 0usize;
        self.groups.iter().map(move |span| {
            let unit_bounds = &self.unit_bounds[first_unit..=span.unit_end];
            first_unit = span.unit_end;
            ProbeGroup {
                keys: &self.keys,
                unit_bounds,
                may_miss: span.may_miss,
            }
        })
    }

    /// Every key of every unit, flattened (in emission order; a key shared
    /// by two units appears twice): what any-shared-key blocking looks up.
    pub fn keys(&self) -> &[BlockKey] {
        &self.keys
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.unit_bounds.clear();
        self.unit_bounds.push(0);
        self.groups.clear();
    }

    /// Closes the keys pushed since the last unit as one unit.
    fn end_unit(&mut self) {
        self.unit_bounds.push(self.keys.len());
    }

    /// Closes the units ended since the last group as one group.
    fn end_group(&mut self, may_miss: usize) {
        self.groups.push(GroupSpan {
            unit_end: self.unit_bounds.len() - 1,
            may_miss,
        });
    }
}

/// One group of a [`ProbeKeys`]: a match hits at least one of its units and
/// misses at most [`ProbeGroup::may_miss`] of them, so any `may_miss + 1`
/// units contain one it hits.
#[derive(Debug, Clone, Copy)]
pub struct ProbeGroup<'a> {
    /// The whole probe's keys; `unit_bounds` (one more than units) index it.
    keys: &'a [BlockKey],
    unit_bounds: &'a [usize],
    may_miss: usize,
}

impl<'a> ProbeGroup<'a> {
    /// Number of units in the group (at least one).
    pub fn units(&self) -> usize {
        self.unit_bounds.len() - 1
    }

    /// How many of the group's units a match may fail to hit.  A budget of
    /// `units − 1` or more promises only that *some* unit hits.
    pub fn may_miss(&self) -> usize {
        self.may_miss
    }

    /// The keys of unit `at` (`at < units()`).
    pub fn unit(&self, at: usize) -> &'a [BlockKey] {
        &self.keys[self.unit_bounds[at]..self.unit_bounds[at + 1]]
    }

    /// The keys of all the group's units, flattened.
    pub fn keys(&self) -> &'a [BlockKey] {
        &self.keys[self.unit_bounds[0]..self.unit_bounds[self.units()]]
    }
}

/// A map keyed by [`BlockKey`] that uses the key itself as the hash: keys
/// leave [`Mixer::finish`] uniformly mixed, so hashing them again (SipHash, by
/// default) only costs time.  The price is the default hasher's protection
/// against *crafted* colliding keys — raw keys restored from a snapshot land
/// here unrehashed, so a forged snapshot can make its own restore slow (never
/// wrong, and never beyond the memory its length fields already bound).
pub type BlockKeyMap<V> = HashMap<BlockKey, V, BuildHasherDefault<BlockKeyHasher>>;

/// The pass-through hasher behind [`BlockKeyMap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockKeyHasher(u64);

impl Hasher for BlockKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, raw: u64) {
        self.0 = raw;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a BlockKey hashes as exactly one u64");
    }
}

/// Builds a key from its parts, one 64-bit word per multiply–xorshift round,
/// namespaced by a per-scheme tag (the first round) so e.g. a Levenshtein
/// bigram never collides with an equality value key by construction — only
/// by 64-bit collision, which merely merges blocks.
///
/// Each round is a bijection of the state for a fixed word and of the word
/// for a fixed state, so two part sequences of equal length differing in one
/// word never collide; everything else collides with probability ≈ 2⁻⁶⁴
/// (pinned on the Cora and Restaurant key sets against a SipHash reference,
/// `mixer_merges_no_blocks_on_cora_and_restaurant`).
#[derive(Debug, Clone, Copy)]
struct Mixer(u64);

impl KeyMix for Mixer {
    /// The tag takes a full round of its own: absorbed raw, `(tag, word)`
    /// and `(tag', word ^ tag ^ tag')` would start from one state.
    #[inline]
    fn new(tag: u8) -> Self {
        Mixer(0).word(tag as u64)
    }

    #[inline]
    fn word(self, word: u64) -> Self {
        let x = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Mixer(x ^ (x >> 29))
    }

    /// One more round with a different multiplier: a difference confined to
    /// the top bits of the last word reaches the low bits (the bucket index
    /// of a [`BlockKeyMap`]) and vice versa (its 7-bit control tag).
    #[inline]
    fn finish(self) -> BlockKey {
        let x = self.0.wrapping_mul(0xff51_afd7_ed55_8ccd);
        BlockKey(x ^ (x >> 32))
    }
}

/// What the key schemes need from a mixer.  [`Mixer`] is the only production
/// implementation; the tests substitute a SipHash reference to count the
/// blocks a collision-free mixer would produce.
trait KeyMix: Copy {
    fn new(tag: u8) -> Self;
    fn word(self, word: u64) -> Self;
    fn finish(self) -> BlockKey;

    /// A string, eight bytes per word; the final word carries the up to
    /// seven remaining bytes and their count, so `"ab"` and `"ab\0"` differ.
    #[inline]
    fn str(mut self, value: &str) -> Self {
        let mut chunks = value.as_bytes().chunks_exact(8);
        for chunk in &mut chunks {
            self = self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        last[7] = rest.len() as u8;
        self.word(u64::from_le_bytes(last))
    }

    /// A q-gram, three characters (21 bits each) per word.
    #[inline]
    fn gram(mut self, gram: &[char]) -> Self {
        for triple in gram.chunks(3) {
            let packed = triple.iter().fold(0u64, |w, &c| (w << 21) | c as u64);
            self = self.word(packed);
        }
        self
    }
}

const TAG_LEVENSHTEIN: u8 = 1;
const TAG_LEVENSHTEIN_SHORT: u8 = 2;
const TAG_LEVENSHTEIN_EXACT: u8 = 12;
const TAG_CHARACTER: u8 = 3;
const TAG_ELEMENT: u8 = 4;
const TAG_EQUALITY: u8 = 5;
const TAG_NUMERIC: u8 = 6;
const TAG_NUMERIC_EXACT: u8 = 7;
const TAG_DATE: u8 = 8;
const TAG_DATE_EXACT: u8 = 9;
const TAG_GEO: u8 = 10;
const TAG_GEO_EXACT: u8 = 11;
const TAG_JARO_WINDOW: u8 = 13;
const TAG_JARO_EXACT: u8 = 14;

/// Start/end sentinels used to pad values before q-gram extraction; chosen
/// from a Unicode noncharacter range so they cannot appear in real data (and
/// if they did, blocks would only merge).
const PAD_START: char = '\u{FDD0}';
const PAD_END: char = '\u{FDD1}';

/// Mean earth radius in kilometres (must match [`crate::geo`]).
const EARTH_RADIUS_KM: f64 = 6371.0;

impl DistanceFunction {
    /// Returns `true` if this measure can prune candidate pairs at the given
    /// distance bound.  Measures whose distance is capped at 1 (Jaccard,
    /// Dice, Equality, Jaro, Jaro-Winkler) admit *every* pair once the bound
    /// reaches 1, and no finite key set can rule anything out; callers must
    /// treat such comparisons as matching all pairs.
    pub fn can_prune(&self, bound: f64) -> bool {
        if !bound.is_finite() {
            return false;
        }
        match self {
            DistanceFunction::Jaccard
            | DistanceFunction::Dice
            | DistanceFunction::Equality
            | DistanceFunction::Jaro
            | DistanceFunction::JaroWinkler => bound < 1.0,
            DistanceFunction::Levenshtein
            | DistanceFunction::Numeric
            | DistanceFunction::Geographic
            | DistanceFunction::Date => true,
        }
    }

    /// Computes the **index-side** block keys of a value set at a distance
    /// bound — what an inverted index stores the entity under — replacing
    /// the contents of `keys` (sorted, deduplicated).
    ///
    /// Must only be called when [`DistanceFunction::can_prune`] holds for the
    /// bound.  An empty result means no value of the set can be within the
    /// bound of anything (empty value set, or nothing parseable for the
    /// numeric/date/geographic measures) — such entities are never candidates
    /// through this comparison, which is exactly the evaluation semantics
    /// (an empty value set yields similarity 0).
    pub fn index_keys_into(&self, values: &[String], bound: f64, keys: &mut Vec<BlockKey>) {
        keys.clear();
        self.push_keys::<Mixer>(values, bound, keys);
        keys.sort_unstable();
        keys.dedup();
    }

    /// Allocating convenience wrapper around
    /// [`DistanceFunction::index_keys_into`].
    pub fn index_keys(&self, values: &[String], bound: f64) -> Vec<BlockKey> {
        let mut keys = Vec::new();
        self.index_keys_into(values, bound, &mut keys);
        keys
    }

    /// Computes the **probe side** of a value set at a distance bound — what
    /// a querying entity looks up — replacing the contents of `probe`.  Same
    /// precondition as [`DistanceFunction::index_keys_into`]; no groups means
    /// the entity has no candidates through this comparison.
    pub fn probe_keys_into(&self, values: &[String], bound: f64, probe: &mut ProbeKeys) {
        probe.clear();
        self.push_probe::<Mixer>(values, bound, probe);
    }

    /// Allocating convenience wrapper around
    /// [`DistanceFunction::probe_keys_into`].
    pub fn probe_keys(&self, values: &[String], bound: f64) -> ProbeKeys {
        let mut probe = ProbeKeys::new();
        self.probe_keys_into(values, bound, &mut probe);
        probe
    }

    /// Appends this measure's index-side keys (unsorted, with duplicates)
    /// under mixer `M`.
    fn push_keys<M: KeyMix>(&self, values: &[String], bound: f64, keys: &mut Vec<BlockKey>) {
        let bound = inflate(bound);
        match self {
            DistanceFunction::Levenshtein => levenshtein_keys::<M>(values, bound, keys),
            DistanceFunction::Jaro => jaro_keys::<M>(values, bound, 1.0 - 3.0 * bound, keys),
            // Winkler only boosts: sim_w ≤ sim_j + 0.4·(1 − sim_j), so a
            // required sim_w ≥ s implies sim_j ≥ (s − 0.4)/0.6 and the Jaro
            // matched fraction becomes f = 3·sim_j − 2 = 5s − 4 = 1 − 5·bound
            DistanceFunction::JaroWinkler => jaro_keys::<M>(values, bound, 1.0 - 5.0 * bound, keys),
            DistanceFunction::Jaccard | DistanceFunction::Dice => {
                element_keys::<M>(TAG_ELEMENT, values, keys)
            }
            DistanceFunction::Equality => element_keys::<M>(TAG_EQUALITY, values, keys),
            DistanceFunction::Numeric => numeric_keys::<M>(values, bound, keys),
            DistanceFunction::Date => date_keys::<M>(values, bound, keys),
            DistanceFunction::Geographic => geographic_keys::<M>(values, bound, keys),
        }
    }

    /// Appends this measure's probe groups to a cleared `probe` under mixer
    /// `M`.  Levenshtein q-grams group per value with neighbour overlap;
    /// every other scheme probes its index-side keys, one unit each, in one
    /// group — Jaccard and Dice with the number of elements a set within the
    /// bound can lack, the rest with "all but one".
    fn push_probe<M: KeyMix>(&self, values: &[String], bound: f64, probe: &mut ProbeKeys) {
        let inflated = inflate(bound);
        let budget = edit_budget(inflated);
        if *self == DistanceFunction::Levenshtein && budget > 0 {
            levenshtein_probe::<M>(values, budget, probe);
            return;
        }
        self.push_keys::<M>(values, bound, &mut probe.keys);
        probe.keys.sort_unstable();
        probe.keys.dedup();
        let units = probe.keys.len();
        if units == 0 {
            return;
        }
        // `|A ∖ B| ≤ share·|A|` for a set B within the bound of A (see
        // `element_keys`); counted over the undeduplicated slice and the
        // inflated bound, so neither a duplicate value, a key collision nor
        // `0.2 × 5 = 0.999…` can shrink the budget below the true count
        let elements = values.len() as f64;
        let may_miss = match self {
            DistanceFunction::Jaccard => (inflated * elements).floor() as usize,
            DistanceFunction::Dice => {
                (2.0 * inflated * elements / (1.0 + inflated)).floor() as usize
            }
            _ => units - 1,
        };
        probe.unit_bounds.extend(1..=units);
        probe.end_group(may_miss);
    }

    /// The canonical *bound bucket* of this measure at a distance bound: two
    /// bounds in the same bucket are **guaranteed** to produce identical
    /// [`DistanceFunction::index_keys_into`] output for every value set, so a
    /// leaf index built at one bound can be shared by any comparison whose
    /// bound falls into the same bucket (the key of
    /// `SharedLeafIndexes` in `linkdisc-matching`).
    ///
    /// The bucket is as coarse as each key scheme allows:
    ///
    /// * **Levenshtein** keys depend only on the integer edit budget
    ///   `⌊bound⌋` (it selects the q-gram length, the short-value cutoff and
    ///   the position-bucket width), so the budget *is* the bucket — bounds
    ///   1.2 and 1.8 share one leaf index.
    /// * **Jaccard / Dice / Equality** keys ignore the bound entirely (one
    ///   key per set element); every prunable bound shares one bucket.
    /// * **Jaro / Jaro-Winkler** collapse to one bucket across the whole
    ///   loose-bound regime (the per-character fallback ignores the bound);
    ///   tight bounds key continuously through the matched fraction.
    /// * **Numeric / Date / Geographic** buckets are continuous in the bound
    ///   (it is the interval/cell width), so only bit-equal bounds share.
    ///
    /// Callers must only consult the bucket for bounds where
    /// [`DistanceFunction::can_prune`] holds.
    pub fn key_bound_bucket(&self, bound: f64) -> u64 {
        // mirror the bound normalisation of `index_keys_into` exactly
        let bound = inflate(bound);
        match self {
            DistanceFunction::Levenshtein => edit_budget(bound) as u64,
            DistanceFunction::Jaccard | DistanceFunction::Dice | DistanceFunction::Equality => {
                BUCKET_UNIFORM
            }
            DistanceFunction::Jaro => jaro_bucket(bound, 1.0 - 3.0 * bound),
            DistanceFunction::JaroWinkler => jaro_bucket(bound, 1.0 - 5.0 * bound),
            DistanceFunction::Numeric | DistanceFunction::Date | DistanceFunction::Geographic => {
                if bound == 0.0 {
                    BUCKET_EXACT
                } else {
                    bound.to_bits()
                }
            }
        }
    }
}

/// Bound bucket of the exact-match schemes (`bound == 0`).  Cannot collide
/// with `f64::to_bits` of a finite bound (the all-ones pattern is a NaN).
const BUCKET_EXACT: u64 = u64::MAX;
/// Bound bucket of bound-independent key schemes (also a NaN bit pattern).
const BUCKET_UNIFORM: u64 = u64::MAX - 1;

/// Bound bucket of the Jaro family: exact keys at bound 0, the
/// bound-independent character fallback once the matched fraction is vacuous,
/// and the continuous window regime in between (keys depend on the fraction,
/// which is linear in the bound — bucket by its bits).
fn jaro_bucket(bound: f64, fraction: f64) -> u64 {
    if bound == 0.0 {
        BUCKET_EXACT
    } else if fraction <= 0.0 {
        BUCKET_UNIFORM
    } else {
        // `jaro_keys` caps the fraction at 0.98, so everything above the cap
        // keys identically
        fraction.min(0.98).to_bits()
    }
}

/// Distances at exactly the bound must share a key: clamps a bound to ≥ 0
/// and inflates it by one part in 10⁹ so bucket arithmetic on the boundary
/// cannot be tipped over by floating-point rounding (0 stays exact:
/// non-negative distances at bound 0 mean "exactly equal", where bucket
/// arithmetic is already exact).
fn inflate(bound: f64) -> f64 {
    bound.max(0.0) * (1.0 + 1e-9)
}

/// The Levenshtein edit budget `d = ⌊bound⌋` of an (inflated) bound: the
/// distance is an integer, so that is all of the bound the keys depend on.
fn edit_budget(bound: f64) -> usize {
    bound.min(1e9).floor() as usize
}

/// Levenshtein: positional padded q-grams + short-value fallback key, with
/// the q-gram length adapted to the edit budget `d = ⌊bound⌋` — the index
/// side ([`levenshtein_probe`] is the probe side at `d ≥ 1`).
///
/// * `d = 0` — the distance is an integer, so a bound below 1 admits only
///   *identical* strings: one exact whole-value key (maximally selective).
/// * `d ≥ 1` — values are padded with `q − 1` sentinels on each side, giving
///   `|s| + q − 1` positional q-grams.  Each of the `e ≤ d` edits destroys
///   at most `q` grams and shifts survivors by at most `e ≤ d` positions, so
///   all but at most `q·d` grams of either value survive into the other, at
///   positions `p` and `p'` with `|p − p'| ≤ d`.  With buckets of width
///   `d + 1`, `⌊p/(d+1)⌋` and `⌊p'/(d+1)⌋` differ by at most 1, so a
///   survivor's **probe** unit `bucket − 1 ..= bucket + 1` always contains
///   the one `(gram, bucket)` key the **index** side stores — whichever of
///   the two values probes.  Values short enough that every gram could be
///   destroyed (`|s| + q − 1 ≤ q·d`, i.e. `|s| ≤ q·(d − 1) + 1`)
///   additionally emit a shared short-value key on both sides.
///
/// Small budgets use longer grams (q = 6 at d = 1, q = 3 at d = 2, q = 2
/// beyond): the guarantee only needs `|s| > q·(d − 1) + 1`, and longer grams
/// are exponentially more selective against unrelated values.
fn levenshtein_keys<M: KeyMix>(values: &[String], bound: f64, keys: &mut Vec<BlockKey>) {
    let budget = edit_budget(bound);
    if budget == 0 {
        for value in values {
            keys.push(M::new(TAG_LEVENSHTEIN_EXACT).str(value).finish());
        }
        return;
    }
    let grams = QGrams::for_budget(budget);
    let mut padded: Vec<char> = Vec::new();
    for value in values {
        if grams.pad(value, &mut padded) {
            keys.push(grams.short_key::<M>());
        }
        for (position, gram) in padded.windows(grams.q).enumerate() {
            let bucket = grams.bucket(position) as u64;
            keys.push(M::new(TAG_LEVENSHTEIN).gram(gram).word(bucket).finish());
        }
    }
}

/// The probe side of [`levenshtein_keys`] at an edit budget `d ≥ 1`: one
/// group per value, one unit per positional q-gram — the gram under its own
/// bucket and the two neighbours (no index stores bucket −1, so a gram in
/// bucket 0 has two keys) — of which a value within `d` edits misses at most
/// `q·d` (the destroyed ones; every survivor's unit hits).  The short-value
/// key is a group of its own that may not be missed, i.e. is always probed:
/// a value that emits it has at most `q·d` grams, so its gram group promises
/// nothing.
fn levenshtein_probe<M: KeyMix>(values: &[String], budget: usize, probe: &mut ProbeKeys) {
    let grams = QGrams::for_budget(budget);
    let mut padded = std::mem::take(&mut probe.padded);
    for value in values {
        if grams.pad(value, &mut padded) {
            probe.keys.push(grams.short_key::<M>());
            probe.end_unit();
            probe.end_group(0);
        }
        for (position, gram) in padded.windows(grams.q).enumerate() {
            let bucket = grams.bucket(position);
            let gram = M::new(TAG_LEVENSHTEIN).gram(gram);
            for neighbour in bucket.saturating_sub(1)..=bucket + 1 {
                probe.keys.push(gram.word(neighbour as u64).finish());
            }
            probe.end_unit();
        }
        probe.end_group(grams.q * budget);
    }
    probe.padded = padded;
}

/// The positional q-gram scheme of one Levenshtein edit budget `d ≥ 1`.
struct QGrams {
    budget: usize,
    q: usize,
}

impl QGrams {
    fn for_budget(budget: usize) -> QGrams {
        let q = match budget {
            1 => 6,
            2 => 3,
            _ => 2,
        };
        QGrams { budget, q }
    }

    /// The position bucket (`d + 1` wide) of the gram at `position`.
    fn bucket(&self, position: usize) -> usize {
        position / (self.budget + 1)
    }

    /// Replaces `padded` by `value` between `q − 1` sentinels a side (at
    /// least one q-gram, also for the empty string); `true` when the value
    /// is short enough for `d` edits to destroy every gram.
    fn pad(&self, value: &str, padded: &mut Vec<char>) -> bool {
        padded.clear();
        padded.extend(std::iter::repeat_n(PAD_START, self.q - 1));
        padded.extend(value.chars());
        let length = padded.len() - (self.q - 1);
        padded.extend(std::iter::repeat_n(PAD_END, self.q - 1));
        length <= self.q * (self.budget - 1) + 1
    }

    /// The key all short values of this budget share.
    fn short_key<M: KeyMix>(&self) -> BlockKey {
        M::new(TAG_LEVENSHTEIN_SHORT)
            .word(self.budget as u64)
            .finish()
    }
}

/// Jaro / Jaro-Winkler: match-window-aware keys for tight bounds, falling
/// back to per-character keys when the bound is too loose to exploit the
/// window structure.
///
/// `fraction` is the minimum matched fraction `f` each admissible pair must
/// reach on *both* strings: a Jaro similarity `s = 1 − d` satisfies
/// `3s = m/|a| + m/|b| + (m − t/2)/m`, and since the latter two terms are at
/// most 1 each, `m/|a| ≥ 3s − 2` (symmetrically for `|b|`).  The caller
/// derives `f` from the bound per measure (Jaro: `1 − 3·bound`; Jaro-Winkler
/// through the prefix-boost inversion).  For `f ≤ 0` the matched-fraction
/// argument is vacuous and the old any-shared-character scheme applies.
///
/// For `f > 0` every admissible pair obeys three window facts, each keyed:
///
/// 1. **Length bands** — `m ≤ min(|a|, |b|)` with `m ≥ f·|a|` and
///    `m ≥ f·|b|` forces `min ≥ f·max`, i.e. the log-scale length classes
///    `⌊ln|s| / ln(1/f)⌋` differ by at most 1; every key embeds the class
///    (emitted for own class `ℓ` and `ℓ + 1`, so adjacent classes always
///    share one and classes ≥ 2 apart never do).
/// 2. **Prefix** — at most `(1 − f)·|a|` characters of `a` are unmatched, so
///    the *first* matched character of `a` sits at index `i ≤ (1 − f)·|a|`.
/// 3. **Bounded position** — its partner in `b` is the *same character* at
///    index `j ≤ i + w` with the Jaro window `w = ⌊max/2⌋ − 1`, and
///    `max ≤ |b|/f`, giving `j ≤ |b|·(1.5 − f)/f`.  Both `i` and `j` fall
///    below the shared cutoff `K(|s|) = ⌊(1.5 − f)/f · |s|⌋ + 1`
///    (`(1 − f) ≤ (1.5 − f)/f` for every `f < 1`), so emitting one key per
///    distinct character in the first `K` characters guarantees the shared
///    `(char, class)` key.  For `f ≤ 0.75` the cutoff covers the whole
///    string and only the length bands prune.
///
/// A `bound` of 0 admits only identical strings (Jaro similarity 1 forces
/// all characters matched in order), keyed exactly.  Two empty values have
/// distance 0 and share the empty-value key; an empty value is never within
/// a bound `< 1` of a non-empty one.
fn jaro_keys<M: KeyMix>(values: &[String], bound: f64, fraction: f64, keys: &mut Vec<BlockKey>) {
    if bound == 0.0 {
        for value in values {
            keys.push(M::new(TAG_JARO_EXACT).str(value).finish());
        }
        return;
    }
    if fraction <= 0.0 {
        character_keys::<M>(values, keys);
        return;
    }
    // cap so the class base stays away from 1 (bound → 0 drives f → 1); a
    // smaller f only widens bands and cutoffs, which is always sound
    let fraction = fraction.min(0.98);
    // widen the class base by 1e-9 so a pair sitting exactly on the
    // `min = f·max` boundary cannot be split across 2 classes by rounding
    let class_base = (1.0 / fraction).ln() * (1.0 + 1e-9);
    let cutoff_ratio = (1.5 - fraction) / fraction;
    for value in values {
        let length = value.chars().count();
        if length == 0 {
            keys.push(empty_value_key::<M>());
            continue;
        }
        let class = ((length as f64).ln() / class_base).floor() as i64;
        let cutoff = (((cutoff_ratio * length as f64) + 1e-6).floor() as usize + 1).min(length);
        for c in value.chars().take(cutoff) {
            let character = M::new(TAG_JARO_WINDOW).word(c as u64);
            keys.push(character.word(class as u64).finish());
            keys.push(character.word((class + 1) as u64).finish());
        }
    }
}

/// Jaro / Jaro-Winkler fallback for loose bounds: one key per distinct
/// character.
///
/// Guarantee (`bound < 1`, checked by `can_prune`): a Jaro distance below 1
/// means the similarity is positive, which requires at least one matched —
/// hence common — character.  Jaro-Winkler similarity is zero whenever Jaro
/// similarity is zero (a common prefix character would have been a Jaro
/// match), so the same argument applies.  Two empty values have distance 0
/// and share the empty-value key.
fn character_keys<M: KeyMix>(values: &[String], keys: &mut Vec<BlockKey>) {
    for value in values {
        if value.is_empty() {
            keys.push(empty_value_key::<M>());
            continue;
        }
        for c in value.chars() {
            keys.push(M::new(TAG_CHARACTER).word(c as u64).finish());
        }
    }
}

/// The key two empty values share under the Jaro family (`u32::MAX` is not a
/// `char`, so no character key can equal it).
fn empty_value_key<M: KeyMix>() -> BlockKey {
    M::new(TAG_CHARACTER).word(u32::MAX as u64).finish()
}

/// Jaccard / Dice / Equality: one key per distinct value-set element.
///
/// Guarantee (`bound < 1`): an equality distance of 0 requires a shared
/// value outright.  A Jaccard distance `1 − |A∩B|/|A∪B| ≤ bound` gives
/// `|A∩B| ≥ (1 − bound)·|A∪B| ≥ (1 − bound)·|A|`, so at most `bound·|A|`
/// elements of A are missing from B; a Dice distance `1 − 2|A∩B|/(|A|+|B|) ≤
/// bound` with `|B| ≥ |A∩B|` gives `|A∩B| ≥ (1 − bound)·|A|/(1 + bound)`, so
/// at most `2·bound·|A|/(1 + bound)` are.  Either count is below `|A|`, so
/// some element is shared.
fn element_keys<M: KeyMix>(tag: u8, values: &[String], keys: &mut Vec<BlockKey>) {
    for value in values {
        keys.push(M::new(tag).str(value).finish());
    }
}

/// Shared interval-bucket scheme for one-dimensional measures: buckets of
/// width `bound` emitted with ±1 neighbour overlap on both sides.
///
/// Guarantee: `|x − y| ≤ bound` puts the two values at most one bucket
/// apart, so the ±1 emission always leaves a shared `(tag, bucket)` key —
/// with one bucket of slack for floating-point rounding of `x / bound`,
/// which one-sided emission would give up.
fn bucket_keys<M: KeyMix>(tag: u8, x: f64, width: f64, keys: &mut Vec<BlockKey>) {
    // clamp to the exactly-representable integer range; saturated cells at
    // the extremes merge blocks, which is harmless
    let bucket = (x / width).floor().clamp(-9.0e15, 9.0e15) as i64;
    for neighbour in bucket - 1..=bucket + 1 {
        keys.push(M::new(tag).word(neighbour as u64).finish());
    }
}

/// Numeric: interval buckets over the parsed value (exact-value keys when
/// the bound is 0, i.e. only `|x − y| = 0` passes).
fn numeric_keys<M: KeyMix>(values: &[String], bound: f64, keys: &mut Vec<BlockKey>) {
    for value in values {
        let Some(x) = parse_number(value) else {
            continue;
        };
        if !x.is_finite() {
            continue;
        }
        if bound == 0.0 {
            let canonical = if x == 0.0 { 0.0 } else { x };
            keys.push(M::new(TAG_NUMERIC_EXACT).word(canonical.to_bits()).finish());
        } else {
            bucket_keys::<M>(TAG_NUMERIC, x, bound, keys);
        }
    }
}

/// Date: interval buckets over the day number (the date distance is measured
/// in days).
fn date_keys<M: KeyMix>(values: &[String], bound: f64, keys: &mut Vec<BlockKey>) {
    for value in values {
        let Some(date) = parse_date(value) else {
            continue;
        };
        let days = date.days_from_epoch();
        if bound == 0.0 {
            keys.push(M::new(TAG_DATE_EXACT).word(days as u64).finish());
        } else {
            bucket_keys::<M>(TAG_DATE, days as f64, bound, keys);
        }
    }
}

/// Geographic: grid cells over the 3-D chord embedding of the point.
///
/// Guarantee: the straight-line (chord) distance between two points on the
/// sphere never exceeds their great-circle distance, so a haversine bound of
/// `b` km bounds every Cartesian coordinate difference by `b`.  Bucketing
/// each axis with width `b` puts the two points at most one cell apart per
/// axis, and emitting the 3³ neighbour cells guarantees a shared
/// `(cx, cy, cz)` cell.  The embedding also handles the antimeridian and the
/// poles natively (longitude ±180° maps to the same 3-D point).
fn geographic_keys<M: KeyMix>(values: &[String], bound: f64, keys: &mut Vec<BlockKey>) {
    for value in values {
        let Some((lat, lon)) = parse_point(value) else {
            continue;
        };
        let (lat, lon) = (lat.to_radians(), lon.to_radians());
        let x = EARTH_RADIUS_KM * lat.cos() * lon.cos();
        let y = EARTH_RADIUS_KM * lat.cos() * lon.sin();
        let z = EARTH_RADIUS_KM * lat.sin();
        if bound == 0.0 {
            let cell = M::new(TAG_GEO_EXACT)
                .word(x.to_bits())
                .word(y.to_bits())
                .word(z.to_bits());
            keys.push(cell.finish());
            continue;
        }
        let cell = |coordinate: f64| (coordinate / bound).floor().clamp(-9.0e15, 9.0e15) as i64;
        let (cx, cy, cz) = (cell(x), cell(y), cell(z));
        for nx in cx - 1..=cx + 1 {
            for ny in cy - 1..=cy + 1 {
                for nz in cz - 1..=cz + 1 {
                    let cell = M::new(TAG_GEO)
                        .word(nx as u64)
                        .word(ny as u64)
                        .word(nz as u64);
                    keys.push(cell.finish());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vs(values: &[&str]) -> Vec<String> {
        values.iter().map(|s| s.to_string()).collect()
    }

    /// `true` if `a`'s probe keys, flattened, share a key with `b`'s index
    /// keys: what any-shared-key blocking would admit.
    fn overlap(f: DistanceFunction, a: &[String], b: &[String], bound: f64) -> bool {
        let index = f.index_keys(b, bound);
        let probe = f.probe_keys(a, bound);
        probe.keys().iter().any(|k| index.binary_search(k).is_ok())
    }

    /// `(hits, misses)` of a group's units against sorted index keys.
    fn hits_and_misses(group: &ProbeGroup<'_>, index: &[BlockKey]) -> (usize, usize) {
        let hits = (0..group.units())
            .filter(|&unit| {
                let mut keys = group.unit(unit).iter();
                keys.any(|key| index.binary_search(key).is_ok())
            })
            .count();
        (hits, group.units() - hits)
    }

    /// `true` if `a`, probing, finds `b` in an index **whichever** `may_miss
    /// + 1` units of each group the prober scans: some group has a unit that
    /// hits `b`'s index keys and at most `may_miss` that miss.
    fn satisfied(f: DistanceFunction, a: &[String], b: &[String], bound: f64) -> bool {
        let index = f.index_keys(b, bound);
        f.probe_keys(a, bound).groups().any(|group| {
            let (hits, misses) = hits_and_misses(&group, &index);
            hits > 0 && misses <= group.may_miss()
        })
    }

    /// The shared contract: whenever the distance is within the bound, the
    /// probe of either value set has a group the index keys of the other
    /// satisfy.
    fn assert_guarantee(f: DistanceFunction, a: &[String], b: &[String], bound: f64) {
        let distance = f.evaluate(a, b);
        if distance.is_finite() && distance <= bound {
            for (probing, indexed) in [(a, b), (b, a)] {
                assert!(
                    satisfied(f, probing, indexed, bound),
                    "{f}: no probe group of {probing:?} is satisfied by the index keys of \
                     {indexed:?} at bound {bound} (distance {distance})"
                );
            }
        }
    }

    /// The same tag and word sequence chained through SipHash, one
    /// `(state, word)` digest per round: what the schemes produce under a
    /// mixer that (for these purposes) never collides.
    #[derive(Clone, Copy)]
    struct SipReference(u64);

    impl KeyMix for SipReference {
        fn new(tag: u8) -> Self {
            SipReference(tag as u64)
        }

        fn word(self, word: u64) -> Self {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            hasher.write_u64(self.0);
            hasher.write_u64(word);
            SipReference(hasher.finish())
        }

        fn finish(self) -> BlockKey {
            BlockKey(self.0)
        }
    }

    #[test]
    fn bound_buckets_are_as_coarse_as_the_schemes_allow() {
        // Levenshtein: the integer edit budget is the bucket
        let lev = DistanceFunction::Levenshtein;
        assert_eq!(lev.key_bound_bucket(1.2), lev.key_bound_bucket(1.8));
        assert_ne!(lev.key_bound_bucket(1.8), lev.key_bound_bucket(2.2));
        assert_eq!(lev.key_bound_bucket(0.0), lev.key_bound_bucket(0.9));
        // set measures ignore the bound entirely
        let jac = DistanceFunction::Jaccard;
        assert_eq!(jac.key_bound_bucket(0.0), jac.key_bound_bucket(0.99));
        // Jaro: one bucket across the loose-bound character fallback,
        // distinct buckets in the tight window regime
        let jaro = DistanceFunction::Jaro;
        assert_eq!(jaro.key_bound_bucket(0.5), jaro.key_bound_bucket(0.9));
        assert_ne!(jaro.key_bound_bucket(0.1), jaro.key_bound_bucket(0.2));
        assert_ne!(jaro.key_bound_bucket(0.0), jaro.key_bound_bucket(0.1));
        // continuous width schemes share only on bit-equal bounds
        let num = DistanceFunction::Numeric;
        assert_eq!(num.key_bound_bucket(2.0), num.key_bound_bucket(2.0));
        assert_ne!(num.key_bound_bucket(2.0), num.key_bound_bucket(2.5));
        assert_ne!(num.key_bound_bucket(0.0), num.key_bound_bucket(2.0));
    }

    #[test]
    fn can_prune_reflects_measure_ranges() {
        for f in DistanceFunction::ALL {
            assert!(f.can_prune(0.0), "{f} must prune at bound 0");
            assert!(!f.can_prune(f64::INFINITY));
        }
        assert!(!DistanceFunction::Jaccard.can_prune(1.0));
        assert!(!DistanceFunction::Jaro.can_prune(1.5));
        assert!(DistanceFunction::Jaccard.can_prune(0.99));
        assert!(DistanceFunction::Levenshtein.can_prune(100.0));
        assert!(DistanceFunction::Geographic.can_prune(500.0));
    }

    #[test]
    fn empty_value_sets_produce_no_keys() {
        for f in DistanceFunction::ALL {
            assert!(f.index_keys(&[], 1.0).is_empty(), "{f}");
            assert_eq!(f.probe_keys(&[], 1.0).groups().count(), 0, "{f}");
        }
    }

    #[test]
    fn unparseable_values_produce_no_keys() {
        for f in [
            DistanceFunction::Numeric,
            DistanceFunction::Date,
            DistanceFunction::Geographic,
        ] {
            assert!(f.index_keys(&vs(&["not parseable"]), 5.0).is_empty());
            assert!(f.probe_keys(&vs(&["not parseable"]), 5.0).keys().is_empty());
        }
    }

    #[test]
    fn levenshtein_single_token_typo_shares_a_key() {
        // the pair the token index provably misses: single-token values with
        // a typo share no exact token, but do share a bigram block
        assert!(overlap(
            DistanceFunction::Levenshtein,
            &vs(&["bistro"]),
            &vs(&["bstro"]),
            1.0
        ));
        assert!(overlap(
            DistanceFunction::Levenshtein,
            &vs(&["berlin"]),
            &vs(&["berlim"]),
            2.0
        ));
    }

    #[test]
    fn levenshtein_short_values_fall_back_to_the_short_key() {
        // "ab" vs "cd" are within edit distance 2 yet share no bigram
        assert_guarantee(
            DistanceFunction::Levenshtein,
            &vs(&["ab"]),
            &vs(&["cd"]),
            2.0,
        );
        assert_guarantee(DistanceFunction::Levenshtein, &vs(&[""]), &vs(&["x"]), 1.0);
    }

    #[test]
    fn numeric_boundary_distances_share_a_bucket() {
        assert_guarantee(DistanceFunction::Numeric, &vs(&["10"]), &vs(&["12"]), 2.0);
        assert_guarantee(DistanceFunction::Numeric, &vs(&["-1"]), &vs(&["1"]), 2.0);
        assert_guarantee(DistanceFunction::Numeric, &vs(&["5"]), &vs(&["5"]), 0.0);
        // beyond the bound pruning is *allowed* (not required) — far apart
        // values must not share a bucket
        assert!(!overlap(
            DistanceFunction::Numeric,
            &vs(&["0"]),
            &vs(&["100"]),
            2.0
        ));
    }

    #[test]
    fn date_buckets_respect_day_distance() {
        assert_guarantee(
            DistanceFunction::Date,
            &vs(&["2001-01-01"]),
            &vs(&["2001-02-01"]),
            40.0,
        );
        assert!(!overlap(
            DistanceFunction::Date,
            &vs(&["1960"]),
            &vs(&["2004"]),
            400.0
        ));
    }

    #[test]
    fn geographic_cells_cover_nearby_points() {
        // Berlin vs. Potsdam: ~27 km
        assert_guarantee(
            DistanceFunction::Geographic,
            &vs(&["52.5200 13.4050"]),
            &vs(&["52.3906 13.0645"]),
            50.0,
        );
        // antimeridian: same physical location, opposite longitude signs
        assert_guarantee(
            DistanceFunction::Geographic,
            &vs(&["10.0 180.0"]),
            &vs(&["10.0 -180.0"]),
            1.0,
        );
        assert!(!overlap(
            DistanceFunction::Geographic,
            &vs(&["52.52 13.40"]),
            &vs(&["48.85 2.35"]),
            50.0
        ));
    }

    #[test]
    fn equality_keys_are_exact_values() {
        assert!(overlap(
            DistanceFunction::Equality,
            &vs(&["x", "y"]),
            &vs(&["y"]),
            0.5
        ));
        assert!(!overlap(
            DistanceFunction::Equality,
            &vs(&["x"]),
            &vs(&["X"]),
            0.5
        ));
    }

    #[test]
    fn jaro_empty_values_share_the_empty_key() {
        assert_guarantee(DistanceFunction::Jaro, &vs(&[""]), &vs(&[""]), 0.5);
        // the window scheme keeps the empty-key behaviour at tight bounds
        assert_guarantee(DistanceFunction::Jaro, &vs(&[""]), &vs(&[""]), 0.1);
        assert_guarantee(DistanceFunction::JaroWinkler, &vs(&[""]), &vs(&[""]), 0.05);
    }

    #[test]
    fn jaro_window_scheme_keeps_close_pairs() {
        // transposition + substitution variants stay within tight bounds and
        // must share a window key
        for (a, b, bound) in [
            ("martha", "marhta", 0.1),
            ("dixon", "dicksonx", 0.25),
            ("restaurant", "restaurnat", 0.05),
            ("jellyfish", "smellyfish", 0.1),
        ] {
            assert_guarantee(DistanceFunction::Jaro, &vs(&[a]), &vs(&[b]), bound);
            assert_guarantee(DistanceFunction::JaroWinkler, &vs(&[a]), &vs(&[b]), bound);
        }
    }

    #[test]
    fn jaro_length_bands_prune_mismatched_lengths() {
        // "abcdefghij" and "ab" share characters, so the old per-character
        // scheme could never separate them; at bound 0.1 the matched
        // fraction must be 0.7, which their 5x length ratio cannot reach
        assert!(!overlap(
            DistanceFunction::Jaro,
            &vs(&["abcdefghij"]),
            &vs(&["ab"]),
            0.1
        ));
    }

    #[test]
    fn jaro_prefix_cutoff_prunes_late_only_overlap() {
        // equal length, but the only shared character sits at the last
        // position — far outside the admissible first-match prefix at a very
        // tight bound (distance here is 0.6)
        assert!(!overlap(
            DistanceFunction::Jaro,
            &vs(&["abcdefghij"]),
            &vs(&["zzzzzzzzzj"]),
            0.05
        ));
    }

    #[test]
    fn jaro_exact_bound_requires_identical_values() {
        assert_guarantee(
            DistanceFunction::Jaro,
            &vs(&["berlin"]),
            &vs(&["berlin"]),
            0.0,
        );
        assert!(!overlap(
            DistanceFunction::Jaro,
            &vs(&["berlin"]),
            &vs(&["berlim"]),
            0.0
        ));
    }

    #[test]
    fn multi_value_sets_take_the_union_of_keys() {
        // min-over-cross-product semantics: one close pair of values suffices
        assert_guarantee(
            DistanceFunction::Levenshtein,
            &vs(&["zzzzzz", "berlin"]),
            &vs(&["qqqqqq", "berlim"]),
            2.0,
        );
    }

    #[test]
    fn levenshtein_index_side_stores_each_positional_gram_once() {
        // "berlin" at budget 1: q = 6, 11 padded grams in buckets of width 2
        let value = vs(&["berlin"]);
        let lev = DistanceFunction::Levenshtein;
        let index = lev.index_keys(&value, 1.0);
        let probe = lev.probe_keys(&value, 1.0);
        assert_eq!(index.len(), 11);
        // one unit per gram: own bucket ± 1, and no index stores bucket −1
        let groups: Vec<ProbeGroup<'_>> = probe.groups().collect();
        assert_eq!(groups.len(), 1);
        assert_eq!((groups[0].units(), groups[0].may_miss()), (11, 6));
        assert_eq!(groups[0].unit(1).len(), 2);
        assert_eq!(groups[0].unit(2).len(), 3);
        assert_eq!(probe.keys().len(), 2 * 2 + 9 * 3);
        assert_eq!(groups[0].keys(), probe.keys());
        // two buckets apart is beyond any admissible shift; emitting ±1 on
        // both sides would still make such pairs candidates
        let shifted = vs(&["xxxxberlin"]);
        assert!(lev.evaluate(&value, &shifted) > 1.0);
        assert!(!overlap(lev, &value, &shifted, 1.0));
        assert!(!overlap(lev, &shifted, &value, 1.0));
    }

    #[test]
    fn string_words_keep_length_and_tail_apart() {
        let mixed = |value: &str| Mixer::new(TAG_ELEMENT).str(value).finish();
        let distinct = ["", "\0", "ab", "ab\0", "abcdefg", "abcdefgh", "abcdefgh\0"];
        for (at, a) in distinct.iter().enumerate() {
            for b in &distinct[at + 1..] {
                assert_ne!(mixed(a), mixed(b), "{a:?} vs {b:?}");
            }
        }
        // the tag is part of the key
        assert_ne!(
            Mixer::new(TAG_ELEMENT).str("x").finish(),
            Mixer::new(TAG_EQUALITY).str("x").finish()
        );
    }

    /// The mixer must not merge blocks a collision-free hash keeps apart:
    /// over every property value of Cora and Restaurant, every measure and
    /// one bound per scheme regime, it yields exactly as many distinct keys
    /// as the SipHash reference.
    #[test]
    fn mixer_merges_no_blocks_on_cora_and_restaurant() {
        use linkdisc_datasets::DatasetKind;
        use std::collections::HashSet;
        for kind in [DatasetKind::Cora, DatasetKind::Restaurant] {
            let dataset = kind.generate(1.0, 7);
            let mut mixed: HashSet<BlockKey> = HashSet::new();
            let mut reference: HashSet<BlockKey> = HashSet::new();
            let mut probe = ProbeKeys::new();
            for source in [&dataset.source, &dataset.target] {
                for entity in source.entities() {
                    for property in 0..source.schema().len() {
                        let values = entity.values_at(property);
                        for f in DistanceFunction::ALL {
                            for bound in [0.0, 0.1, 0.5, 1.0, 2.0, 3.0] {
                                if !f.can_prune(bound) {
                                    continue;
                                }
                                // the probe side is a superset of the index side
                                probe.clear();
                                f.push_probe::<Mixer>(values, bound, &mut probe);
                                mixed.extend(probe.keys().iter().copied());
                                probe.clear();
                                f.push_probe::<SipReference>(values, bound, &mut probe);
                                reference.extend(probe.keys().iter().copied());
                            }
                        }
                    }
                }
            }
            assert!(
                reference.len() > 10_000,
                "{kind}: {} blocks",
                reference.len()
            );
            assert_eq!(
                mixed.len(),
                reference.len(),
                "{kind}: the mixer merged blocks"
            );
        }
    }

    /// Applies up to `budget` of the `(position, character)` edits —
    /// deletion, insertion or substitution by `position % 3`.
    fn edit(value: &str, edits: &[(usize, String)], budget: usize) -> String {
        let mut edited: Vec<char> = value.chars().collect();
        for (position, replacement) in edits.iter().take(budget) {
            let c = replacement.chars().next().expect("one char");
            match position % 3 {
                0 if !edited.is_empty() => {
                    edited.remove(position % edited.len());
                }
                1 => edited.insert(position % (edited.len() + 1), c),
                _ if !edited.is_empty() => {
                    let at = position % edited.len();
                    edited[at] = c;
                }
                _ => {}
            }
        }
        edited.into_iter().collect()
    }

    /// The counted Levenshtein guarantee: a value within the edit budget of
    /// the probing value misses at most `q·d` of its gram units (so any
    /// `q·d + 1` of them contain a hit), or the always-probed short-value
    /// key hits.  Pairs come from random edit scripts over a small alphabet
    /// heavy in repeated characters, with multi-byte letters, lengths from
    /// empty across every short-value cutoff, duplicate and multi-valued
    /// sets, at budgets 1, 2 and ≥ 3 through integral and fractional bounds.
    #[test]
    fn levenshtein_matches_miss_at_most_q_grams_per_edit() {
        let lev = DistanceFunction::Levenshtein;
        let mut rng = TestRng::for_test("levenshtein_pigeonhole");
        let value = "[aaabé世]{0,21}";
        let edits = proptest::collection::vec((0usize..64, "[abé🦀]"), 0..6);
        // prefix probing must actually be exercised: groups with units to
        // spare, and matches that do miss some of them
        let (mut prunable, mut with_misses) = (0usize, 0usize);
        for case in 0..proptest::cases() * 8 {
            let bound = [1.0, 1.5, 2.0, 2.9, 3.0, 4.0, 5.5][case % 7];
            let budget = bound as usize;
            let base = value.sample(&mut rng);
            let edited = edit(&base, &edits.sample(&mut rng), budget);
            let (a, b) = match case % 4 {
                0 | 1 => (vec![base], vec![edited]),
                // multi-valued, the close pair not in first place
                2 => (
                    vec![value.sample(&mut rng), base],
                    vec![edited, value.sample(&mut rng)],
                ),
                // a duplicate value in the slice
                _ => (vec![base.clone(), base], vec![edited]),
            };
            assert!(lev.evaluate(&a, &b) <= bound);
            assert_guarantee(lev, &a, &b, bound);
            for (probing, indexed) in [(&a, &b), (&b, &a)] {
                let index = lev.index_keys(indexed, bound);
                for group in lev.probe_keys(probing, bound).groups() {
                    prunable += usize::from(group.may_miss() + 1 < group.units());
                    let (hits, misses) = hits_and_misses(&group, &index);
                    with_misses += usize::from(hits > 0 && misses > 0);
                }
            }
            // single values: the one gram group itself keeps the count
            if a.len() == 1 {
                let q = [6, 3, 2][budget.min(3) - 1];
                let index = lev.index_keys(&b, bound);
                let probe = lev.probe_keys(&a, bound);
                let grams = probe.groups().last().expect("the gram group");
                assert_eq!(grams.may_miss(), q * budget);
                assert_eq!(grams.units(), a[0].chars().count() + q - 1);
                let (_, misses) = hits_and_misses(&grams, &index);
                assert!(
                    grams.units() <= grams.may_miss() || misses <= grams.may_miss(),
                    "{a:?} misses {misses} gram units of {b:?} at bound {bound}"
                );
            }
        }
        assert!(
            prunable > 100 && with_misses > 100,
            "{prunable} {with_misses}"
        );
        // repeated characters: every gram of the one value is a gram of the
        // other, at shifted positions
        for budget in 1..=4usize {
            for length in 0..=3 * budget + 8 {
                let a = vec!["a".repeat(length)];
                for shift in 0..=budget {
                    let b = vec!["a".repeat(length + shift)];
                    assert_guarantee(lev, &a, &b, budget as f64);
                }
            }
        }
    }

    /// The counted Jaccard / Dice guarantee: of the `n` elements of the
    /// probing set, one within the bound lacks at most `⌊bound·n⌋` (Dice:
    /// `⌊2·bound·n/(1 + bound)⌋`) — with the pair sitting exactly on the
    /// bound, just inside it, and duplicate values in the slices.
    #[test]
    fn set_measure_matches_miss_at_most_their_share_of_the_elements() {
        let mut rng = TestRng::for_test("set_measure_pigeonhole");
        let tokens = proptest::collection::vec("[a-f]{1,2}", 1..9);
        let (mut prunable, mut with_misses) = (0usize, 0usize);
        for case in 0..proptest::cases() * 8 {
            let a = tokens.sample(&mut rng);
            // b: a with some elements dropped, some added, some repeated
            let mut b: Vec<String> = a
                .iter()
                .filter(|_| (0usize..5).sample(&mut rng) > 0)
                .cloned()
                .collect();
            b.extend(tokens.sample(&mut rng).into_iter().take(case % 3));
            b.extend(b.first().cloned());
            for f in [DistanceFunction::Jaccard, DistanceFunction::Dice] {
                let distance = f.evaluate(&a, &b);
                if !f.can_prune(distance) {
                    continue;
                }
                // on the bound, and just inside it
                for bound in [distance, distance + (1.0 - distance) * 0.01] {
                    assert_guarantee(f, &a, &b, bound);
                    let index = f.index_keys(&b, bound);
                    for group in f.probe_keys(&a, bound).groups() {
                        prunable += usize::from(group.may_miss() + 1 < group.units());
                        let (_, misses) = hits_and_misses(&group, &index);
                        assert!(misses <= group.may_miss());
                        with_misses += usize::from(misses > 0);
                    }
                }
            }
        }
        assert!(
            prunable > 100 && with_misses > 100,
            "{prunable} {with_misses}"
        );
        // four of five elements shared: a Jaccard distance of 1 − 4/5 =
        // 0.19999999999999996, and `0.19999999999999996 × 5 < 1` must still
        // allow the one miss — as must a duplicate in the probing slice
        let five = vs(&["a", "b", "c", "d", "e"]);
        let four = vs(&["a", "b", "c", "d"]);
        let jaccard = DistanceFunction::Jaccard;
        for bound in [jaccard.evaluate(&five, &four), 0.2, 0.4 * 0.5] {
            assert_guarantee(jaccard, &five, &four, bound);
            let probe = jaccard.probe_keys(&five, bound);
            let group = probe.groups().next().expect("one group");
            assert_eq!((group.units(), group.may_miss()), (5, 1));
        }
        let doubled = vs(&["a", "a", "b", "c", "d", "e"]);
        assert_guarantee(jaccard, &doubled, &four, 0.2);
        let dice = DistanceFunction::Dice;
        assert_guarantee(dice, &five, &four, dice.evaluate(&five, &four));
    }

    /// Values for the asymmetric Levenshtein property: short enough to hit
    /// the short-value key, with multi-byte characters (2-, 3- and 4-byte
    /// UTF-8) among the ASCII.
    const LEVENSHTEIN_VALUE: &str = "[abcéß世🦀]{0,9}";

    proptest! {
        /// The asymmetric guarantee, both ways round (A probes B's index, B
        /// probes A's), at every edit budget 0–4 over short values,
        /// multi-byte characters and multi-valued sets.
        #[test]
        fn levenshtein_probe_keys_find_index_keys_in_both_directions(
            a in proptest::collection::vec(LEVENSHTEIN_VALUE, 0..3),
            b in proptest::collection::vec(LEVENSHTEIN_VALUE, 0..3),
            budget in 0usize..5,
            fraction in 0.0f64..1.0,
        ) {
            assert_guarantee(DistanceFunction::Levenshtein, &a, &b, budget as f64 + fraction);
        }

        /// Close multi-byte pairs specifically: one value of `b` is a value
        /// of `a` after up to `budget` edits, so the within-bound region is
        /// densely sampled in every q-gram regime.
        #[test]
        fn levenshtein_probe_keys_find_edited_multibyte_values(
            a in proptest::collection::vec("[abcéß世🦀]{1,12}", 1..3),
            other in LEVENSHTEIN_VALUE,
            edits in proptest::collection::vec((0usize..12, "[aé世🦀]"), 0..5),
            budget in 0usize..5,
        ) {
            let b = vec![other, edit(&a[0], &edits, budget)];
            prop_assert!(DistanceFunction::Levenshtein.evaluate(&a, &b) <= budget as f64);
            assert_guarantee(DistanceFunction::Levenshtein, &a, &b, budget as f64);
        }

        /// `index_keys(v) ⊆ probe_keys(v).keys()` for every scheme — and a
        /// value set satisfies its own probe, so an entity always finds
        /// itself.
        #[test]
        fn index_keys_are_a_subset_of_probe_keys(
            values in proptest::collection::vec("[a-e0-9 .é世-]{0,10}", 0..4),
            bound in 0.0f64..6.0,
        ) {
            for f in DistanceFunction::ALL {
                if !f.can_prune(bound) {
                    continue;
                }
                let index = f.index_keys(&values, bound);
                let probe = f.probe_keys(&values, bound);
                prop_assert!(
                    index.iter().all(|key| probe.keys().contains(key)),
                    "{} index keys of {:?} at bound {} are not all probe keys", f, values, bound
                );
                prop_assert!(index.is_empty() || satisfied(f, &values, &values, bound));
            }
        }

        /// Levenshtein guarantee over random pairs, including pairs generated
        /// by applying few edits (so close pairs are actually sampled).
        #[test]
        fn levenshtein_guarantee_holds(
            a in "[a-d]{0,14}",
            b in "[a-d]{0,14}",
            bound in 0.0f64..5.0,
        ) {
            assert_guarantee(DistanceFunction::Levenshtein, &[a], &[b], bound);
        }

        /// Close pairs specifically: mutate a base string with up to `d`
        /// character edits so the within-bound region is densely sampled
        /// across all q-gram regimes.
        #[test]
        fn levenshtein_guarantee_holds_for_edited_pairs(
            base in "[a-e]{1,14}",
            edits in proptest::collection::vec((0usize..14, "[a-e]"), 0..4),
            bound in 0.9f64..4.5,
        ) {
            let mut edited: Vec<char> = base.chars().collect();
            for (position, replacement) in &edits {
                let c = replacement.chars().next().expect("one char");
                match position {
                    p if p % 3 == 0 && !edited.is_empty() => {
                        let at = p % edited.len();
                        edited.remove(at);
                    }
                    p if p % 3 == 1 => {
                        let at = p % (edited.len() + 1);
                        edited.insert(at, c);
                    }
                    p => {
                        if !edited.is_empty() {
                            let at = p % edited.len();
                            edited[at] = c;
                        }
                    }
                }
            }
            let b: String = edited.into_iter().collect();
            assert_guarantee(DistanceFunction::Levenshtein, &[base], &[b], bound);
        }

        #[test]
        fn jaro_guarantee_holds(a in "[a-d]{0,8}", b in "[a-d]{0,8}", bound in 0.0f64..0.95) {
            assert_guarantee(
                DistanceFunction::Jaro,
                std::slice::from_ref(&a),
                std::slice::from_ref(&b),
                bound,
            );
            assert_guarantee(DistanceFunction::JaroWinkler, &[a], &[b], bound);
        }

        /// The window scheme specifically: close pairs produced by few edits
        /// on a shared base, probed across the tight-bound regime where the
        /// prefix/length-band keys are active (including the Jaro 1/3 and
        /// Jaro-Winkler 1/5 scheme switchovers).
        #[test]
        fn jaro_window_guarantee_holds_for_edited_pairs(
            base in "[a-e]{1,12}",
            edits in proptest::collection::vec((0usize..12, "[a-e]"), 0..3),
            bound in 0.0f64..0.4,
        ) {
            let mut edited: Vec<char> = base.chars().collect();
            for (position, replacement) in &edits {
                let c = replacement.chars().next().expect("one char");
                match position {
                    p if p % 3 == 0 && !edited.is_empty() => {
                        let at = p % edited.len();
                        edited.remove(at);
                    }
                    p if p % 3 == 1 => {
                        let at = p % (edited.len() + 1);
                        edited.insert(at, c);
                    }
                    p => {
                        if !edited.is_empty() {
                            let at = p % edited.len();
                            edited[at] = c;
                        }
                    }
                }
            }
            let b: String = edited.into_iter().collect();
            assert_guarantee(DistanceFunction::Jaro, std::slice::from_ref(&base), std::slice::from_ref(&b), bound);
            assert_guarantee(DistanceFunction::JaroWinkler, &[base], &[b], bound);
        }

        #[test]
        fn set_measure_guarantee_holds(
            a in proptest::collection::vec("[a-c]{1,2}", 0..5),
            b in proptest::collection::vec("[a-c]{1,2}", 0..5),
            bound in 0.0f64..0.95,
        ) {
            assert_guarantee(DistanceFunction::Jaccard, &a, &b, bound);
            assert_guarantee(DistanceFunction::Dice, &a, &b, bound);
            assert_guarantee(DistanceFunction::Equality, &a, &b, bound);
        }

        #[test]
        fn numeric_guarantee_holds(
            x in -1e4f64..1e4,
            delta in -10.0f64..10.0,
            bound in 0.0f64..10.0,
        ) {
            let a = vec![format!("{x}")];
            let b = vec![format!("{}", x + delta)];
            assert_guarantee(DistanceFunction::Numeric, &a, &b, bound);
        }

        #[test]
        fn date_guarantee_holds(
            y1 in 1950i32..2050, m1 in 1u32..13, d1 in 1u32..29,
            y2 in 1950i32..2050, m2 in 1u32..13, d2 in 1u32..29,
            bound in 0.0f64..5000.0,
        ) {
            let a = vec![format!("{y1:04}-{m1:02}-{d1:02}")];
            let b = vec![format!("{y2:04}-{m2:02}-{d2:02}")];
            assert_guarantee(DistanceFunction::Date, &a, &b, bound);
        }

        #[test]
        fn geographic_guarantee_holds(
            lat1 in -89.0f64..89.0, lon1 in -179.0f64..179.0,
            dlat in -0.5f64..0.5, dlon in -0.5f64..0.5,
            bound in 0.1f64..120.0,
        ) {
            let a = vec![format!("{lat1} {lon1}")];
            let b = vec![format!("{} {}", (lat1 + dlat).clamp(-90.0, 90.0),
                                          (lon1 + dlon).clamp(-180.0, 180.0))];
            assert_guarantee(DistanceFunction::Geographic, &a, &b, bound);
        }

        /// The bound-bucket contract: bounds in the same bucket produce
        /// identical key sets for every value set.
        #[test]
        fn same_bucket_bounds_produce_identical_keys(
            values in proptest::collection::vec("[a-e0-9 .]{0,10}", 0..4),
            a in 0.0f64..6.0,
            b in 0.0f64..6.0,
        ) {
            for f in DistanceFunction::ALL {
                if !f.can_prune(a) || !f.can_prune(b) {
                    continue;
                }
                if f.key_bound_bucket(a) == f.key_bound_bucket(b) {
                    prop_assert_eq!(
                        f.index_keys(&values, a),
                        f.index_keys(&values, b),
                        "{} buckets {} and {} collide but keys differ", f, a, b
                    );
                    // the probe looks up the same keys; only a miss budget
                    // (Jaccard, Dice) may follow the bound within a bucket
                    prop_assert_eq!(
                        f.probe_keys(&values, a).keys(),
                        f.probe_keys(&values, b).keys()
                    );
                }
            }
        }

        /// Keys are deterministic and deduplicated.
        #[test]
        fn keys_are_sorted_and_stable(values in proptest::collection::vec(".{0,8}", 0..4)) {
            for f in DistanceFunction::ALL {
                let bound = f.default_threshold() / 2.0;
                if !f.can_prune(bound) {
                    continue;
                }
                let first = f.index_keys(&values, bound);
                prop_assert_eq!(&first, &f.index_keys(&values, bound));
                let mut sorted = first.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(first, sorted);
                // a reused probe buffer is refilled, not appended to
                let mut probe = f.probe_keys(&values, bound);
                let fresh = probe.keys().to_vec();
                f.probe_keys_into(&values, bound, &mut probe);
                prop_assert_eq!(probe.keys(), &fresh[..]);
            }
        }
    }
}
