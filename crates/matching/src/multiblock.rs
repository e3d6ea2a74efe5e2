//! MultiBlock candidate generation: executing an [`IndexingPlan`] over a
//! target data source.
//!
//! The plan (lowered in `linkdisc-rule` from the rule tree) names the
//! comparisons that can prune and how their candidate sets combine.  This
//! module materialises one inverted index per indexed comparison — block key
//! → target positions — and evaluates the plan's set algebra per source
//! entity:
//!
//! * a **leaf** looks up the source entity's probe — groups of key units, a
//!   match hitting all but `may_miss` units of its group — and unions the
//!   posting lists of the `may_miss + 1` units of each group that hold the
//!   fewest postings (any `may_miss + 1` contain one the match hits),
//! * an **intersection** keeps positions present in every child set,
//!   consulting its children in ascending order of *estimated* candidate
//!   count (derived from the live posting-list statistics) — and **stops**
//!   as soon as evaluating the survivors is cheaper than consulting the next
//!   child (see [`PAIR_COST_IN_SCANS`]): any subset of the children yields a
//!   superset of the candidates, and the rule itself rejects the extras,
//! * a **union** merges child sets.
//!
//! All per-query state lives in a [`CandidateScratch`] owned by the calling
//! worker: probe and unit-cost buffers, an epoch-stamped mark table replacing
//! per-query hash sets, and a pool of position buffers — candidate generation
//! performs no per-entity allocation once the scratch is warm.
//!
//! The index is a *serving* structure, not a one-shot artifact.  Each leaf
//! is an immutable, `Arc`-shared **base** — one postings array, each key's
//! list a contiguous ascending range of it behind a key → `(start, len)`
//! directory — plus a small **delta** of the writes since (added postings
//! per key, tombstoned base positions, per-key live-count corrections):
//!
//! * [`MultiBlockIndex::build_slice`] builds the per-leaf bases in **bulk**
//!   (two passes over the entities in position order: count per key, then
//!   place each position at its key's cursor — no per-key allocation, no
//!   sort) through the same `LeafPool::acquire_plan` a serving registration
//!   uses: workers split the plan's distinct leaves and each builds whole
//!   leaves, so nothing is ever merged.  Every bulk-built leaf — the engine's
//!   too, and a restored snapshot's — has an empty delta, which a probe's
//!   per-key delta lookup answers from the empty map's length alone,
//! * [`MultiBlockIndex::insert`] and [`MultiBlockIndex::remove`] maintain it
//!   **incrementally** per entity by writing the delta only, so the
//!   copy-on-write of a leaf an epoch still shares clones the delta and never
//!   the base; a serving leaf's delta is folded into a fresh base in one
//!   merge pass at the publication that finds it past √(base postings) (a
//!   private index's, once it outgrows the base).  [`LeafBuildStats`] stay
//!   exact,
//!   and an index reached through any interleaving of builds, inserts and
//!   removes has the same canonical view (live `(key, postings)` lists) and
//!   statistics as one built from the final entity set in one shot.
//!
//! Building and probing are generic over **where a comparison's values come
//! from**: `(entity, &ValueCache)` — the public API, service queries,
//! `insert`/`remove` — or a [`BoundSide`]'s columns by position — the batch
//! engine, which binds each side once and then indexes, probes and scores
//! from the same columns.  One body each, two providers.
//!
//! Every complete build — [`MultiBlockIndex::build_slice`], a service's
//! construction and its rule registrations — goes through the serving
//! [`LeafPool`] and builds **every** leaf of a plan (the indexes are mutable
//! or shared; another plan may need the leaf); the one-shot engine builds a
//! chunk's index in **stages** ([`MultiBlockIndex::build_staged`]): under a
//! conjunction, cheapest leaf first, and no further once those leave a
//! handful of candidates per probe.

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::Arc;

use linkdisc_entity::Entity;
use linkdisc_rule::{
    BoundSide, ChainValues, CompiledChain, IndexedComparison, IndexingPlan, PlanNode, ValueCache,
    ValueColumn,
};
use linkdisc_similarity::{BlockKey, BlockKeyMap, DistanceFunction, ProbeGroup, ProbeKeys};

use crate::scratch::EpochMarks;

/// Build-time statistics of one indexed comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafBuildStats {
    /// Human-readable comparison description (from the plan).
    pub label: String,
    /// Whether the leaf was built.  Always `true` for a complete build;
    /// the engine's staged build leaves a conjunction's costlier siblings out
    /// (all counts below are 0 then).
    pub built: bool,
    /// Number of distinct block keys.
    pub blocks: usize,
    /// Total posting-list entries (sum of block sizes).
    pub postings: usize,
    /// Target entities that emitted at least one key.  Entities without keys
    /// (empty or unparseable value sets) can never satisfy this comparison.
    pub indexed_entities: usize,
}

/// One comparison's inverted index: block key → positions in the target
/// source, in ascending order.  The keys are the targets' index-side keys
/// ([`IndexedComparison::index_keys_into`]); queries look up their probe
/// ([`IndexedComparison::probe_keys_into`]).
///
/// A leaf is an immutable, `Arc`-shared **base** — one postings array, each
/// key's list a contiguous ascending range of it, found through a key →
/// `(start, len)` directory — plus a small **delta** of what incremental
/// maintenance changed since.  Every bulk build (the engine, a complete
/// build, a snapshot restore) yields a base with an empty delta; a write
/// touches only the delta, so the copy-on-write of an epoch-shared leaf
/// clones the delta and never the base.  A delta past its limit is folded
/// into a fresh base in one merge pass, O(P) for P base postings, and the
/// limit follows from who clones it (see [`LeafIndex::past_fold_limit`]):
/// a serving leaf checks at each publication ([`LeafPool::fold_past_limit`],
/// so an ingest batch folds each leaf at most once), a private index after
/// each [`MultiBlockIndex::insert`]/[`MultiBlockIndex::remove`].
///
/// The statistics describe the live view (base minus hidden postings plus
/// added ones) and are maintained exactly: `blocks` (keys with a live
/// posting), `postings` and `postings_sq` (Σ len and Σ len² over the live
/// lists) drive the selectivity estimates that order intersection children
/// and decide where a conjunction stops.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeafIndex {
    base: Arc<LeafBase>,
    delta: LeafDelta,
    pub(crate) indexed_entities: usize,
    pub(crate) blocks: usize,
    postings: usize,
    postings_sq: u64,
}

/// The immutable part of a leaf.
#[derive(Debug, Default)]
struct LeafBase {
    /// Block key → `(start, len)` of its list in `postings`; no list is
    /// empty.
    directory: BlockKeyMap<(u32, u32)>,
    postings: Box<[u32]>,
}

impl LeafBase {
    fn list(&self, key: &BlockKey) -> &[u32] {
        self.directory
            .get(key)
            .map_or(&[], |&range| self.list_at(range))
    }

    fn list_at(&self, (start, len): (u32, u32)) -> &[u32] {
        &self.postings[start as usize..][..len as usize]
    }
}

/// What a leaf's writes changed since its base was built.
#[derive(Debug, Clone, Default)]
struct LeafDelta {
    /// Per key with a change: the postings added (ascending) and the live
    /// count's correction against the base list (added minus hidden).  A
    /// key hides base postings exactly when `added.len() > correction`, so
    /// a key without an entry reads its base list unfiltered.
    keys: BlockKeyMap<DeltaList>,
    /// Base positions whose entity was removed (ascending): their base
    /// postings are hidden.  A slot the store recycles is indexed again in
    /// `keys`, which the tombstone does not hide.
    removed: Vec<u32>,
    /// Added plus hidden postings: the delta's size against the fold limit.
    size: usize,
}

#[derive(Debug, Clone, Default)]
struct DeltaList {
    added: Vec<u32>,
    correction: i64,
}

impl DeltaList {
    fn hides_base_postings(&self) -> bool {
        self.added.len() as i64 > self.correction
    }
}

impl LeafDelta {
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn is_removed(&self, position: u32) -> bool {
        self.removed.binary_search(&position).is_ok()
    }

    /// Appends the live list of `key` over its base list `base` to `out`,
    /// ascending: the base postings not hidden, merged with the added ones.
    fn live_into(&self, key: &BlockKey, base: &[u32], out: &mut Vec<u32>) {
        let Some(change) = self.keys.get(key) else {
            out.extend_from_slice(base);
            return;
        };
        let mut added = change.added.iter().copied().peekable();
        for &position in base {
            if self.is_removed(position) {
                continue;
            }
            while let Some(next) = added.next_if(|&next| next < position) {
                out.push(next);
            }
            out.push(position);
        }
        out.extend(added);
    }
}

impl LeafIndex {
    /// Builds one comparison's leaf over `(position, target-chain values)`
    /// pairs — the bulk path behind every batch build: the engine's staged
    /// chunks (values from a bound side's column) and, with values read
    /// through a [`ValueCache`], [`LeafPool::acquire_plan`] (every complete
    /// build, a store with tombstone holes included).
    ///
    /// Two passes and no per-key allocation or sort.  Pass 1 gives each key
    /// a block id in the directory map, counts its postings and records the
    /// block id of every posting (a key the entity already emitted is
    /// skipped).  Pass 2 places each position at its block's cursor: the
    /// positions ascend (every caller walks its entities in position order),
    /// so every list comes out ascending.  The map's values then become
    /// `(start, len)`.  The result has the canonical view of
    /// [`LeafIndex::add_entity`]ing the same entities one by one in any
    /// order.
    pub(crate) fn bulk<V: Deref<Target = [String]>>(
        comparison: &IndexedComparison,
        entries: impl Iterator<Item = (u32, V)>,
    ) -> LeafIndex {
        // pass 1: directory values are (block id, 1 + index of the last
        // entity that emitted the key)
        let mut directory: BlockKeyMap<(u32, u32)> = BlockKeyMap::default();
        let mut counts: Vec<u32> = Vec::new();
        let mut blocks_of_postings: Vec<u32> = Vec::new();
        let mut entities: Vec<(u32, usize)> = Vec::new();
        let mut keys: Vec<BlockKey> = Vec::new();
        for (position, values) in entries {
            debug_assert!(entities.last().is_none_or(|&(last, _)| last < position));
            comparison.index_keys_into(&values, &mut keys);
            if keys.is_empty() {
                continue;
            }
            let stamp = entities.len() as u32 + 1;
            for &key in &keys {
                let fresh = counts.len() as u32;
                let (block, last) = directory.entry(key).or_insert((fresh, 0));
                if *block == fresh {
                    counts.push(0);
                }
                if *last != stamp {
                    *last = stamp;
                    counts[*block as usize] += 1;
                    blocks_of_postings.push(*block);
                }
            }
            entities.push((position, blocks_of_postings.len()));
        }
        // pass 2: block starts, then every position at its block's cursor
        let total = u32::try_from(blocks_of_postings.len()).expect("under 2^32 postings a leaf");
        let mut cursors: Vec<u32> = counts
            .iter()
            .scan(0u32, |start, &count| {
                let at = *start;
                *start += count;
                Some(at)
            })
            .collect();
        let mut postings = vec![0u32; total as usize].into_boxed_slice();
        let mut begin = 0;
        for &(position, end) in &entities {
            for &block in &blocks_of_postings[begin..end] {
                let cursor = &mut cursors[block as usize];
                postings[*cursor as usize] = position;
                *cursor += 1;
            }
            begin = end;
        }
        for (block, last) in directory.values_mut() {
            let (end, count) = (cursors[*block as usize], counts[*block as usize]);
            (*block, *last) = (end - count, count);
        }
        LeafIndex::from_base(directory, postings, entities.len())
    }

    /// A leaf with an empty delta over a base — the bulk build's, or a
    /// snapshot's as decoded (lists already validated non-empty and
    /// ascending) — with its statistics derived from the directory.
    pub(crate) fn from_base(
        directory: BlockKeyMap<(u32, u32)>,
        postings: Box<[u32]>,
        indexed_entities: usize,
    ) -> LeafIndex {
        let postings_sq = directory
            .values()
            .map(|&(_, len)| u64::from(len) * u64::from(len))
            .sum();
        LeafIndex {
            blocks: directory.len(),
            postings: postings.len(),
            postings_sq,
            base: Arc::new(LeafBase {
                directory,
                postings,
            }),
            delta: LeafDelta::default(),
            indexed_entities,
        }
    }

    /// Indexes one entity, given its (deduplicated) index-side keys, at
    /// `position` — the incremental path ([`MultiBlockIndex::insert`],
    /// [`LeafPool`] maintenance).  Writes the delta only.
    fn add_entity(&mut self, keys: &[BlockKey], position: u32) {
        self.indexed_entities += usize::from(!keys.is_empty());
        for key in keys {
            let live = self.len(key);
            debug_assert!(
                self.base.list(key).binary_search(&position).is_err()
                    || self.delta.is_removed(position),
                "position {position} indexed twice"
            );
            let change = self.delta.keys.entry(*key).or_default();
            let Err(at) = change.added.binary_search(&position) else {
                debug_assert!(false, "position {position} indexed twice");
                continue;
            };
            change.added.insert(at, position);
            change.correction += 1;
            self.delta.size += 1;
            self.count_posting(live, live + 1);
        }
    }

    /// Un-indexes the entity [`LeafIndex::add_entity`] (or a bulk build)
    /// indexed at `position` under the same keys: an added posting leaves
    /// the delta, a base posting is hidden behind a tombstone.
    fn drop_entity(&mut self, keys: &[BlockKey], position: u32) {
        self.indexed_entities -= usize::from(!keys.is_empty());
        let mut hidden = false;
        for key in keys {
            let live = self.len(key);
            let in_base = self.base.list(key).binary_search(&position).is_ok()
                && !self.delta.is_removed(position);
            let change = self.delta.keys.entry(*key).or_default();
            match change.added.binary_search(&position) {
                Ok(at) => {
                    change.added.remove(at);
                    self.delta.size -= 1;
                }
                Err(_) if in_base => {
                    hidden = true;
                    self.delta.size += 1;
                }
                Err(_) => {
                    debug_assert!(false, "removing a position that was never indexed");
                    continue;
                }
            }
            change.correction -= 1;
            if change.added.is_empty() && change.correction == 0 {
                self.delta.keys.remove(key);
            }
            self.count_posting(live, live - 1);
        }
        if hidden {
            let at = self.delta.removed.partition_point(|&p| p < position);
            self.delta.removed.insert(at, position);
        }
    }

    /// Keeps the statistics exact as one key's live list goes from `before`
    /// to `after` postings (one more or one fewer).
    fn count_posting(&mut self, before: usize, after: usize) {
        let (before, after) = (before as u64, after as u64);
        self.postings = self.postings + after as usize - before as usize;
        self.postings_sq = self.postings_sq + after * after - before * before;
        self.blocks = self.blocks + usize::from(after > 0) - usize::from(before > 0);
    }

    /// Whether the delta outgrew its limit.  A `published` leaf is shared
    /// with readers, so the next write clones its delta: past √(base
    /// postings) that clone costs more than the fold it would save, and
    /// folding there makes a write cost O(√P) for the clone plus O(√P)
    /// amortised for the folds.  A private index is never cloned, so its
    /// delta may grow to the base's size, which amortises each fold to O(1)
    /// per posting — an index built by inserts from empty folds O(log P)
    /// times, where the √ limit would fold O(√P) times.
    fn past_fold_limit(&self, published: bool) -> bool {
        let (delta, base) = (self.delta.size, self.base.postings.len());
        if published {
            delta * delta > base
        } else {
            delta > base
        }
    }

    /// Replaces the base by the live view, in one merge pass over the old
    /// base's directory (no rehash of the keys it keeps), and empties the
    /// delta.  Clones holding the old base keep it.
    fn fold(&mut self) {
        assert!(
            self.postings <= u32::MAX as usize,
            "under 2^32 postings a leaf"
        );
        let delta = std::mem::take(&mut self.delta);
        let base = &*self.base;
        let mut postings: Vec<u32> = Vec::with_capacity(self.postings);
        let mut directory = base.directory.clone();
        for (key, range) in directory.iter_mut() {
            let begin = postings.len();
            delta.live_into(key, base.list_at(*range), &mut postings);
            *range = (begin as u32, (postings.len() - begin) as u32);
        }
        for (key, change) in &delta.keys {
            if !change.added.is_empty() && !base.directory.contains_key(key) {
                directory.insert(*key, (postings.len() as u32, change.added.len() as u32));
                postings.extend_from_slice(&change.added);
            }
        }
        directory.retain(|_, &mut (_, len)| len > 0);
        debug_assert_eq!(
            (directory.len(), postings.len()),
            (self.blocks, self.postings)
        );
        self.base = Arc::new(LeafBase {
            directory,
            postings: postings.into_boxed_slice(),
        });
    }

    /// Visits every live list in ascending raw-key order — the snapshot
    /// encoding and the canonical view two leaves are compared by.
    pub(crate) fn for_each_list(&self, mut visit: impl FnMut(BlockKey, &[u32])) {
        let mut keys: Vec<BlockKey> = self.base.directory.keys().copied().collect();
        let added = self.delta.keys.keys();
        keys.extend(added.filter(|key| !self.base.directory.contains_key(key)));
        // `BlockKey` orders by its raw value
        keys.sort_unstable();
        let mut live: Vec<u32> = Vec::new();
        for key in keys {
            live.clear();
            self.delta.live_into(&key, self.base.list(&key), &mut live);
            if !live.is_empty() {
                visit(key, &live);
            }
        }
    }

    /// The live length of `key`'s list.
    fn len(&self, key: &BlockKey) -> usize {
        let base = self
            .base
            .directory
            .get(key)
            .map_or(0, |&(_, len)| len as usize);
        match self.delta.keys.get(key) {
            Some(change) => (base as i64 + change.correction) as usize,
            None => base,
        }
    }

    /// Visits the live postings of `key`: the base list (less its hidden
    /// postings), then the added ones.
    fn scan(&self, key: &BlockKey, mut visit: impl FnMut(u32)) {
        let list = self.base.list(key);
        match self.delta.keys.get(key) {
            None => list.iter().copied().for_each(visit),
            Some(change) => {
                if change.hides_base_postings() {
                    let live = list.iter().filter(|&&p| !self.delta.is_removed(p));
                    live.copied().for_each(&mut visit);
                } else {
                    list.iter().copied().for_each(&mut visit);
                }
                change.added.iter().copied().for_each(visit);
            }
        }
    }

    /// Unions the live postings of the probe's units into `visit`: every
    /// key of a group without a miss budget, the `may_miss + 1` cheapest
    /// units of one with.
    fn consult(
        &self,
        probe: &ProbeKeys,
        unit_costs: &mut Vec<(usize, u32)>,
        mut visit: impl FnMut(u32),
    ) {
        for group in probe.groups() {
            if group.may_miss() + 1 < group.units() {
                // a match hits all but `may_miss` units: whichever
                // `may_miss + 1` are scanned, one of them is hit
                for &(_, unit) in cheapest_units(self, &group, unit_costs) {
                    for key in group.unit(unit as usize) {
                        self.scan(key, &mut visit);
                    }
                }
            } else {
                for key in group.keys() {
                    self.scan(key, &mut visit);
                }
            }
        }
    }

    /// Whether the leaf is a bare base, as every bulk build leaves it.
    #[cfg(test)]
    pub(crate) fn is_bulk(&self) -> bool {
        self.delta.is_empty()
    }

    /// Expected posting-list length seen by a random probe: `Σ len² / Σ len`.
    /// Large blocks dominate both the probability of being probed and the
    /// candidates they emit, which makes this a better selectivity proxy
    /// than the plain mean.
    fn estimated_candidates(&self) -> f64 {
        if self.postings == 0 {
            return 0.0;
        }
        self.postings_sq as f64 / self.postings as f64
    }
}

/// A rule-derived multidimensional blocking index over a target data source.
///
/// Leaves are held behind `Arc` so structurally identical leaf indexes can
/// be **shared across the indexes of different rules** (the serving
/// registry's leaf pool); mutation goes through copy-on-write
/// (`Arc::make_mut`), which is free while a leaf is unshared and clones only
/// its delta while it is shared.
#[derive(Debug, Clone)]
pub struct MultiBlockIndex {
    /// Shared, immutable plan: chunked runs build one index per chunk from
    /// the same plan, so cloning it per chunk would be pure overhead.
    plan: Arc<IndexingPlan>,
    /// The set algebra this index executes: the plan's root, minus the
    /// conjunction siblings a staged build left out.
    root: PlanNode,
    pub(crate) leaves: Vec<Arc<LeafIndex>>,
    target_len: usize,
}

/// Measured cost of **evaluating one surviving pair**, in posting scans — the
/// price of not consulting a conjunction's next child.  The
/// `planner_cost_calibration` test (`cargo test -p linkdisc-matching --release
/// --lib -- --ignored planner_cost_calibration --nocapture`, a CI step) reads
/// `evaluate_bound_stats` at 112–189 ns per pair (Restaurant name ∧ phone
/// 115–189, Cora titles 112–179, on a shared 2-core host) and a posting scan
/// (sequential read plus epoch-mark store) at 3.6–4.2 ns where lists are long
/// (the 28 k postings under a Restaurant name probe's keys; 6.5–10.6 ns over
/// Cora titles' short lists, where the directory lookup dominates): a pair is
/// worth 27–47 scans of the long lists a stop is about (42–46 on a quieter
/// host before the flat leaf base, 50–75 when the constant was set).
///
/// A conjunction stops once `|running| · RATIO < estimate(next child)`.  The
/// estimate is the expected length of *one* posting list.  A consult reads
/// every probe key's list length from the leaf's directory (1 key on
/// Restaurant phones, 119 on names, 163 on Cora titles — the 19–21 of the
/// chosen units twice) and scans every list of a group without a miss
/// budget, but only the `may_miss + 1` rarest units of one with: 213 of the
/// 28,391 postings under a name probe's keys, 14 of the 1,114 under a
/// title's.  That is 0.05–0.08 µs for the exact phone key and a flat
/// 2.2–4.1 µs (18–23 pair evaluations, nearly all directory lookups) for a
/// q-gram leaf; with the leaf's bulk build (1.2–1.8 µs per Restaurant name,
/// 1.9–3.2 µs per Cora title) a built and consulted q-gram leaf costs 25–41
/// pair evaluations per entity.  So the rule stops where scoring every
/// survivor is cheaper than scanning a single expected list: a lower bound
/// of a consult that scans them all; for a q-gram leaf it is off by at most
/// the flat lookup cost either way — it may consult at 6–23 survivors where
/// scoring them was a microsecond cheaper, and where it stops the survivors
/// number under `estimate / RATIO`.  A performance decision only (a stopped
/// conjunction yields a superset, the rule rejects the extras); linkbench's
/// evaluated pairs, built leaves and candidates per source are identical at
/// 32, 64 and 128 (DESIGN.md).
pub(crate) const PAIR_COST_IN_SCANS: f64 = 64.0;

/// Expected candidates per probe (`Σ len² / Σ len`, min over the built
/// prefix) at or below which a staged build leaves a conjunction's remaining
/// siblings unbuilt.  `planner_cost_calibration` reads the per-entity cost of
/// bulk-building a leaf plus consulting it once, in pair evaluations: 25–41
/// for a q-gram leaf (Restaurant ×20 names 3.6–5.1 µs, Cora titles 4.1–7.3
/// µs, of which the build is 1.2–1.8 and 1.9–3.2 µs, against 112–189 ns per
/// pair), 1–2 for a single-key leaf (0.17–0.24 µs).  The siblings still
/// unbuilt are the costlier ones, so the floor sits below the q-gram
/// break-even — building one to cut 16 candidates costs about twice what
/// scoring them does — and a few evaluations above the single-key one,
/// where a wrong call costs about a microsecond per entity either way.
/// linkbench's evaluated pairs and built leaves are identical at 8, 16 and
/// 32 (DESIGN.md).
pub(crate) const STAGE_FLOOR: f64 = 16.0;

impl MultiBlockIndex {
    /// Creates an empty index for a plan; entities arrive through
    /// [`MultiBlockIndex::insert`] (the incremental-ingestion entry point).
    pub fn empty(plan: impl Into<Arc<IndexingPlan>>) -> MultiBlockIndex {
        let plan = plan.into();
        let leaves = plan
            .comparisons()
            .iter()
            .map(|_| Arc::new(LeafIndex::default()))
            .collect();
        MultiBlockIndex::from_parts(plan, leaves, 0)
    }

    /// Builds the index over an entity slice (positions are slice indices)
    /// through a fresh `LeafPool`: each distinct leaf is bulk-built once —
    /// whole leaves split across `threads` workers (0 = all cores), which
    /// [`linkdisc_util::parallel_ordered_map`] spawns only with at least two
    /// distinct leaves per thread (so at 2 threads, none below 4 leaves) —
    /// and shared by every slot that maps to it.  The result is
    /// **identical** at any thread count — same blocks, same posting lists,
    /// same [`LeafBuildStats`] — and to inserting the entities one by one at
    /// their positions.
    pub fn build_slice<'e>(
        plan: impl Into<Arc<IndexingPlan>>,
        entities: &'e [Entity],
        cache: &ValueCache<'e>,
        threads: usize,
    ) -> MultiBlockIndex {
        let plan = plan.into();
        let entries: Vec<(u32, &'e Entity)> = (0..).zip(entities).collect();
        let (leaves, _, _) = LeafPool::new().acquire_plan(&plan, &entries, cache, threads);
        MultiBlockIndex::from_parts(plan, leaves, entities.len())
    }

    /// The one-shot engine's builder: the index of one bound target chunk
    /// (positions are `targets`' list positions, `len` of them), built **in
    /// stages**.  Under an `Intersect`, children are built in ascending order
    /// of index-side keys per entity (mean over the chunk's first ≤ 64
    /// entities — what a stage costs to build and to consult), each stage one
    /// [`LeafIndex::bulk`] over the chunk; once the built prefix leaves at most
    /// `floor` ([`STAGE_FLOOR`]; negative builds every leaf) expected
    /// candidates per probe, the remaining siblings are not built and are
    /// absent from the executed plan.  `Union` children are always all built.
    /// Lossless for the same reason a query-time stop is: dropping a conjunct
    /// only admits extra candidates.  The decision is a pure function of
    /// (plan, chunk posting statistics), free to differ between chunks.
    pub(crate) fn build_staged(
        plan: Arc<IndexingPlan>,
        targets: &BoundSide,
        len: usize,
        floor: f64,
    ) -> MultiBlockIndex {
        let mut index = MultiBlockIndex::empty(plan.clone());
        index.target_len = len;
        let mut staging = Staging {
            plan: &plan,
            columns: chain_columns(&plan, targets, |comparison| &comparison.target),
            len,
            floor,
            built: HashMap::new(),
        };
        index.root = index.stage(plan.root(), &mut staging);
        index
    }

    /// Builds the leaves under `node` — all of them, except that an
    /// `Intersect` stops at the staging floor — and returns the node as
    /// executed.
    fn stage(&mut self, node: &PlanNode, staging: &mut Staging<'_>) -> PlanNode {
        match node {
            PlanNode::All | PlanNode::Nothing => node.clone(),
            PlanNode::Leaf(leaf) => {
                self.leaves[*leaf] = staging.leaf(*leaf);
                node.clone()
            }
            PlanNode::Union(children) => PlanNode::Union(
                children
                    .iter()
                    .map(|child| self.stage(child, staging))
                    .collect(),
            ),
            PlanNode::Intersect(children) => {
                let mut order: Vec<(f64, usize)> = children
                    .iter()
                    .enumerate()
                    .map(|(at, child)| (staging.keys_per_entity(child), at))
                    .collect();
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut kept = Vec::with_capacity(children.len());
                let mut expected = f64::INFINITY;
                for (_, at) in order {
                    let child = self.stage(&children[at], staging);
                    expected = expected.min(self.estimate(&child));
                    kept.push(child);
                    if expected <= staging.floor {
                        break;
                    }
                }
                if kept.len() == 1 {
                    kept.pop().expect("one child")
                } else {
                    PlanNode::Intersect(kept)
                }
            }
        }
    }

    /// Reassembles an index from parts (the snapshot codec, the serving
    /// pool's per-rule views).  The caller guarantees the leaves match the
    /// plan's comparisons one for one.
    pub(crate) fn from_parts(
        plan: Arc<IndexingPlan>,
        leaves: Vec<Arc<LeafIndex>>,
        target_len: usize,
    ) -> MultiBlockIndex {
        debug_assert_eq!(plan.comparisons().len(), leaves.len());
        MultiBlockIndex {
            root: plan.root().clone(),
            plan,
            leaves,
            target_len,
        }
    }

    /// Adds one entity at a target position.  The position must be fresh (or
    /// previously [`MultiBlockIndex::remove`]d); statistics stay exact.
    pub fn insert<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        self.target_len = self.target_len.max(position as usize + 1);
        let mut keys: Vec<BlockKey> = Vec::new();
        for (comparison, leaf) in self.plan.comparisons().iter().zip(&mut self.leaves) {
            entity_keys(comparison, entity, cache, &mut keys);
            let leaf = Arc::make_mut(leaf);
            leaf.add_entity(&keys, position);
            if leaf.past_fold_limit(false) {
                leaf.fold();
            }
        }
    }

    /// Removes the entity previously inserted at `position`.  The same
    /// entity must be passed back: its block keys are recomputed (through
    /// the shared cache, so usually memoized) to locate its postings.
    pub fn remove<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        let mut keys: Vec<BlockKey> = Vec::new();
        for (comparison, leaf) in self.plan.comparisons().iter().zip(&mut self.leaves) {
            entity_keys(comparison, entity, cache, &mut keys);
            let leaf = Arc::make_mut(leaf);
            leaf.drop_entity(&keys, position);
            if leaf.past_fold_limit(false) {
                leaf.fold();
            }
        }
    }

    /// The plan this index was built for.
    pub fn plan(&self) -> &IndexingPlan {
        &self.plan
    }

    /// Number of target positions the index covers (the exclusive upper
    /// bound of all inserted positions; removed positions are not reused
    /// unless the caller reassigns them).
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Build statistics, one entry per indexed comparison.
    pub fn build_stats(&self) -> Vec<LeafBuildStats> {
        let mut built = vec![false; self.leaves.len()];
        mark_leaves(&self.root, &mut built);
        self.plan
            .comparisons()
            .iter()
            .zip(&self.leaves)
            .zip(built)
            .map(|((leaf, index), built)| LeafBuildStats {
                label: leaf.label.clone(),
                built,
                blocks: index.blocks,
                postings: index.postings,
                indexed_entities: index.indexed_entities,
            })
            .collect()
    }

    /// Candidate target positions for one source entity, as a pooled buffer
    /// (unsorted, duplicate-free): a superset of the positions the rule can
    /// link — and no more is promised.  A leaf scans only the posting lists a
    /// match cannot avoid, and a conjunction stops consulting children once
    /// scoring the survivors is cheaper, so which non-links ride along is a
    /// cost decision.  Return the buffer via [`CandidateScratch::recycle`]
    /// when done.  `leaf_candidates` (one slot per indexed comparison)
    /// accumulates how many candidates survived each leaf when it was
    /// consulted (nothing for a leaf a conjunction stopped before); pass an
    /// empty slice to skip accounting.
    pub fn candidates<'e>(
        &self,
        source_entity: &'e Entity,
        cache: &ValueCache<'e>,
        scratch: &mut CandidateScratch,
        leaf_candidates: &mut [usize],
    ) -> Vec<u32> {
        let probe = CachedProbe {
            entity: source_entity,
            cache,
        };
        self.candidates_from(probe, scratch, leaf_candidates)
    }

    /// [`MultiBlockIndex::candidates`] over any provider of the probing
    /// entity's chain values.
    pub(crate) fn candidates_from<P: ProbeValues>(
        &self,
        probe: P,
        scratch: &mut CandidateScratch,
        leaf_candidates: &mut [usize],
    ) -> Vec<u32> {
        scratch.ensure_capacity(self.target_len);
        self.eval(&self.root, probe, scratch, leaf_candidates)
    }

    /// Allocating convenience wrapper for tests and diagnostics: the sorted
    /// candidate positions of one source entity.
    pub fn candidate_positions<'e>(
        &self,
        source_entity: &'e Entity,
        cache: &ValueCache<'e>,
    ) -> Vec<usize> {
        let mut scratch = CandidateScratch::new();
        let buf = self.candidates(source_entity, cache, &mut scratch, &mut []);
        let mut positions: Vec<usize> = buf.iter().map(|&p| p as usize).collect();
        positions.sort_unstable();
        positions
    }

    /// Estimated candidate count of a plan node against the current index
    /// contents: the probe-weighted mean block size for a leaf, the minimum
    /// over an intersection's children, the sum over a union's.
    fn estimate(&self, node: &PlanNode) -> f64 {
        match node {
            PlanNode::All => self.target_len as f64,
            PlanNode::Nothing => 0.0,
            PlanNode::Leaf(leaf) => self.leaves[*leaf].estimated_candidates(),
            PlanNode::Intersect(children) => children
                .iter()
                .map(|c| self.estimate(c))
                .fold(f64::INFINITY, f64::min),
            PlanNode::Union(children) => children.iter().map(|c| self.estimate(c)).sum(),
        }
    }

    fn eval<P: ProbeValues>(
        &self,
        node: &PlanNode,
        probe: P,
        scratch: &mut CandidateScratch,
        leaf_candidates: &mut [usize],
    ) -> Vec<u32> {
        match node {
            PlanNode::All => {
                let mut out = scratch.take_buf();
                out.extend(0..self.target_len as u32);
                out
            }
            PlanNode::Nothing => scratch.take_buf(),
            PlanNode::Leaf(leaf) => {
                let comparison = &self.plan.comparisons()[*leaf];
                let values = probe.values(*leaf, comparison);
                let mut out = scratch.take_buf();
                let epoch = scratch.marks.next_epoch();
                // borrowed field by field: the probe is read while the mark
                // table and the unit ranking are written
                let CandidateScratch {
                    probe: keys,
                    unit_costs,
                    marks,
                    ..
                } = scratch;
                comparison.probe_keys_into(&values, keys);
                self.leaves[*leaf].consult(keys, unit_costs, |position| {
                    if marks.mark_first(position as usize, epoch) {
                        out.push(position);
                    }
                });
                if let Some(count) = leaf_candidates.get_mut(*leaf) {
                    *count += out.len();
                }
                out
            }
            PlanNode::Union(children) => {
                // concatenate first, dedupe once at the end: child evals bump
                // the scratch epoch themselves, so marks set *between* child
                // evals would be clobbered
                let mut out = scratch.take_buf();
                for child in children {
                    let buf = self.eval(child, probe, scratch, leaf_candidates);
                    out.extend_from_slice(&buf);
                    scratch.recycle(buf);
                }
                let epoch = scratch.marks.next_epoch();
                out.retain(|&position| scratch.marks.mark_first(position as usize, epoch));
                out
            }
            PlanNode::Intersect(children) => {
                // consult the cheapest (estimated) child first: the running
                // set can only shrink, and an early empty set short-circuits
                // every remaining child
                let mut order = scratch.take_order();
                order.extend(
                    children
                        .iter()
                        .enumerate()
                        .map(|(at, child)| (self.estimate(child), at as u32)),
                );
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut ordered = order
                    .iter()
                    .map(|&(estimate, at)| (estimate, &children[at as usize]));
                let (_, first) = ordered.next().expect("intersections have children");
                let mut out = self.eval(first, probe, scratch, leaf_candidates);
                for (estimate, child) in ordered {
                    // stop when the conjunction is already unsatisfiable, or
                    // when scanning this child's postings (≈ its estimate)
                    // would cost more than the rule evaluating every survivor
                    // — e.g. a name leaf emitting ~150k candidates the phone
                    // leaf already cut to one.  Later children are costlier
                    // still, and the rule rejects whatever they would have.
                    if (out.len() as f64) * PAIR_COST_IN_SCANS < estimate {
                        break;
                    }
                    // a directly consulted leaf reports its survivors, not
                    // the candidate set it contributed to the intersection
                    let direct_leaf = match child {
                        PlanNode::Leaf(leaf) if *leaf < leaf_candidates.len() => Some(*leaf),
                        _ => None,
                    };
                    let buf = match direct_leaf {
                        Some(_) => self.eval(child, probe, scratch, &mut []),
                        None => self.eval(child, probe, scratch, leaf_candidates),
                    };
                    let epoch = scratch.marks.next_epoch();
                    for &position in &buf {
                        scratch.marks.mark(position as usize, epoch);
                    }
                    out.retain(|&position| scratch.marks.is_marked(position as usize, epoch));
                    scratch.recycle(buf);
                    if let Some(leaf) = direct_leaf {
                        leaf_candidates[leaf] += out.len();
                    }
                }
                scratch.recycle_order(order);
                out
            }
        }
    }
}

/// The `may_miss + 1` units of a probe group that hold the fewest postings
/// in `lists`, as `(postings, unit)`: every unit's live list lengths are
/// read from the directory (nothing is scanned) and ranked under the total
/// order `(postings, unit)`.  Which units are picked is a cost decision only
/// — a match hits at least one of *any* `may_miss + 1` — and a pure function
/// of the index contents, so it is the same at every thread count.
fn cheapest_units<'c>(
    lists: &LeafIndex,
    group: &ProbeGroup<'_>,
    costs: &'c mut Vec<(usize, u32)>,
) -> &'c [(usize, u32)] {
    costs.clear();
    costs.extend((0..group.units()).map(|unit| {
        let postings = group.unit(unit).iter().map(|key| lists.len(key)).sum();
        (postings, unit as u32)
    }));
    #[cfg(test)]
    if COSTLIEST_UNITS.get() {
        for (postings, _) in costs.iter_mut() {
            *postings = usize::MAX - *postings;
        }
    }
    let (cheapest, _, _) = costs.select_nth_unstable(group.may_miss() + 1);
    cheapest
}

#[cfg(test)]
thread_local! {
    /// Makes [`cheapest_units`] pick the *costliest* units on this thread
    /// (and on the engine workers it spawns): losslessness must not depend
    /// on the cost heuristic.
    pub(crate) static COSTLIEST_UNITS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the leaves a plan node references.
fn mark_leaves(node: &PlanNode, marked: &mut [bool]) {
    match node {
        PlanNode::All | PlanNode::Nothing => {}
        PlanNode::Leaf(leaf) => marked[*leaf] = true,
        PlanNode::Intersect(children) | PlanNode::Union(children) => {
            for child in children {
                mark_leaves(child, marked);
            }
        }
    }
}

/// Where the probing entity's chain values come from — the one thing
/// candidate generation is generic over.
pub(crate) trait ProbeValues: Copy {
    type Values: Deref<Target = [String]>;

    /// The source-chain values of plan comparison `leaf`.
    fn values(self, leaf: usize, comparison: &IndexedComparison) -> Self::Values;
}

/// An entity read through its [`ValueCache`]: the public API, service
/// queries.
#[derive(Clone, Copy)]
struct CachedProbe<'c, 'e> {
    entity: &'e Entity,
    cache: &'c ValueCache<'e>,
}

impl<'e> ProbeValues for CachedProbe<'_, 'e> {
    type Values = ChainValues<'e>;

    fn values(self, _leaf: usize, comparison: &IndexedComparison) -> ChainValues<'e> {
        comparison.source.values(self.entity, self.cache)
    }
}

/// One position of a bound source side: the batch engine.
#[derive(Clone, Copy)]
pub(crate) struct BoundProbe<'b> {
    pub(crate) columns: &'b ChainColumns<'b>,
    pub(crate) position: usize,
}

impl<'b> ProbeValues for BoundProbe<'b> {
    type Values = &'b [String];

    fn values(self, leaf: usize, _comparison: &IndexedComparison) -> &'b [String] {
        self.columns[leaf].cell(self.position)
    }
}

/// The values columns of a plan's comparison chains on one bound side, by
/// leaf slot.
pub(crate) type ChainColumns<'b> = Vec<&'b ValueColumn<String>>;

/// Resolves the chains `chain` picks from each comparison — the source chains
/// a bound source side probes with, or the target chains a bound target chunk
/// is indexed from — to `side`'s columns, by structural hash: once per (job,
/// side) instead of once per entity.
pub(crate) fn chain_columns<'b>(
    plan: &IndexingPlan,
    side: &'b BoundSide,
    chain: fn(&IndexedComparison) -> &CompiledChain,
) -> ChainColumns<'b> {
    plan.comparisons()
        .iter()
        .map(|comparison| {
            side.values_of(chain(comparison).structural_hash())
                .expect("side bound by the rule the plan was lowered from")
        })
        .collect()
}

/// The state of one staged build (see [`MultiBlockIndex::build_staged`]).
struct Staging<'a> {
    plan: &'a IndexingPlan,
    columns: ChainColumns<'a>,
    len: usize,
    floor: f64,
    /// Leaves built so far, by reuse key: comparisons sharing a key index the
    /// chunk identically, whichever stage asks first.
    built: HashMap<LeafKey, Arc<LeafIndex>>,
}

impl Staging<'_> {
    /// The leaf of plan comparison `slot`, bulk-built on first use.
    fn leaf(&mut self, slot: usize) -> Arc<LeafIndex> {
        let plan = self.plan;
        let comparison = &plan.comparisons()[slot];
        let (column, len) = (self.columns[slot], self.len);
        self.built
            .entry(comparison.leaf_reuse_key())
            .or_insert_with(|| {
                let cells = (0..len).map(|position| column.cell(position));
                Arc::new(LeafIndex::bulk(comparison, (0u32..).zip(cells)))
            })
            .clone()
    }

    /// Index-side keys per entity of the leaves under `node`, as the mean
    /// over the chunk's first ≤ 64 entities: what building (and later
    /// consulting) the node costs, observed rather than tabulated.
    fn keys_per_entity(&self, node: &PlanNode) -> f64 {
        match node {
            PlanNode::All | PlanNode::Nothing => 0.0,
            PlanNode::Leaf(leaf) => {
                let comparison = &self.plan.comparisons()[*leaf];
                let sample = self.len.min(64);
                let mut keys: Vec<BlockKey> = Vec::new();
                let mut total = 0usize;
                for values in self.columns[*leaf].iter().take(sample) {
                    comparison.index_keys_into(values, &mut keys);
                    keys.sort_unstable();
                    keys.dedup();
                    total += keys.len();
                }
                total as f64 / sample.max(1) as f64
            }
            PlanNode::Intersect(children) | PlanNode::Union(children) => {
                children.iter().map(|c| self.keys_per_entity(c)).sum()
            }
        }
    }
}

/// The leaf sharing key: [`IndexedComparison::leaf_reuse_key`].
pub(crate) type LeafKey = (u64, DistanceFunction, u64);

/// Aggregate statistics of a [`LeafPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeafPoolStats {
    /// Plan slots whose leaf was already pooled when acquired (a whole
    /// per-comparison index build saved).
    pub hits: u64,
    /// Leaf indexes actually built.
    pub misses: u64,
    /// Distinct leaves currently pooled.
    pub entries: usize,
    /// Plan slots (across every registered rule) referencing a pooled leaf.
    /// The excess over `entries` is the per-mutation maintenance work
    /// sharing saves.
    pub refs: usize,
}

/// One pooled serving leaf with its refcount bookkeeping.
#[derive(Debug, Clone)]
struct PooledLeaf {
    leaf: Arc<LeafIndex>,
    /// Plan slots (across all registered rules) referencing this leaf; the
    /// leaf is dropped when the count reaches zero.
    refs: usize,
    /// A representative comparison for this reuse key.  Any comparison
    /// sharing the key derives identical target-side block keys, which is
    /// all that insert/remove maintenance needs.
    comparison: IndexedComparison,
}

/// The leaf pool: one leaf index per distinct reuse key, Arc-shared by every
/// plan's [`MultiBlockIndex`] of a serving registry's rules.
///
/// A serving pool is maintained **once** per entity insert/remove instead
/// of once per rule slot: [`LeafPool::insert_entity`] and
/// [`LeafPool::remove_entity`] write each distinct leaf's delta exactly once
/// through `Arc::make_mut` (copy-on-write against pinned reader epochs: the
/// delta is cloned, the base stays shared), [`LeafPool::fold_past_limit`]
/// folds the deltas that outgrew their limit before a publication, and the
/// rules' per-slot views are reassembled from the pool's current leaves
/// afterwards.
#[derive(Debug, Default)]
pub(crate) struct LeafPool {
    entries: HashMap<LeafKey, PooledLeaf>,
    hits: u64,
    misses: u64,
}

impl LeafPool {
    pub(crate) fn new() -> LeafPool {
        LeafPool::default()
    }

    /// Acquires one plan's leaves, building the *missing* ones over the live
    /// `(position, entity)` entries — whole leaves split across `threads`
    /// workers (0 = all cores) by [`linkdisc_util::parallel_ordered_map`] —
    /// and bumping refcounts.  Every complete build goes through here.
    /// Returns the per-slot leaves plus this acquisition's `(hits, misses)` —
    /// a duplicate key within the plan counts as a hit from its second slot
    /// on.
    pub(crate) fn acquire_plan<'e>(
        &mut self,
        plan: &IndexingPlan,
        entries: &[(u32, &'e Entity)],
        cache: &ValueCache<'e>,
        threads: usize,
    ) -> (Vec<Arc<LeafIndex>>, u64, u64) {
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut pending: Vec<&IndexedComparison> = Vec::new();
        let mut scheduled: HashSet<LeafKey> = HashSet::new();
        for comparison in plan.comparisons() {
            let key = comparison.leaf_reuse_key();
            if self.entries.contains_key(&key) || scheduled.contains(&key) {
                hits += 1;
            } else {
                misses += 1;
                scheduled.insert(key);
                pending.push(comparison);
            }
        }
        if !pending.is_empty() {
            let built = linkdisc_util::parallel_ordered_map(&pending, threads, |comparison| {
                let values = entries
                    .iter()
                    .map(|&(position, entity)| (position, comparison.target.values(entity, cache)));
                Arc::new(LeafIndex::bulk(comparison, values))
            });
            for (&comparison, leaf) in pending.iter().zip(built) {
                self.adopt(comparison, leaf);
            }
        }
        let leaves = self
            .attach_plan(plan)
            .expect("every key was pooled or scheduled above");
        self.hits += hits;
        self.misses += misses;
        (leaves, hits, misses)
    }

    /// Adopts an already-built leaf (a registration's, or a restored one from
    /// the snapshot codec) under the comparison's key with a refcount of
    /// zero; the [`LeafPool::attach_plan`] calls that follow establish the
    /// counts.
    pub(crate) fn adopt(&mut self, comparison: &IndexedComparison, leaf: Arc<LeafIndex>) {
        self.entries
            .entry(comparison.leaf_reuse_key())
            .or_insert(PooledLeaf {
                leaf,
                refs: 0,
                comparison: comparison.clone(),
            });
    }

    /// Resolves one plan's leaves from already-pooled entries, bumping
    /// refcounts; `None` when some key is missing (a corrupt snapshot — the
    /// caller reports which).
    pub(crate) fn attach_plan(&mut self, plan: &IndexingPlan) -> Option<Vec<Arc<LeafIndex>>> {
        if plan
            .comparisons()
            .iter()
            .any(|comparison| !self.entries.contains_key(&comparison.leaf_reuse_key()))
        {
            return None;
        }
        Some(
            plan.comparisons()
                .iter()
                .map(|comparison| {
                    let entry = self
                        .entries
                        .get_mut(&comparison.leaf_reuse_key())
                        .expect("presence verified above");
                    entry.refs += 1;
                    entry.leaf.clone()
                })
                .collect(),
        )
    }

    /// Releases one plan's references; a leaf is dropped when its refcount
    /// reaches zero.
    pub(crate) fn release_plan(&mut self, plan: &IndexingPlan) {
        for comparison in plan.comparisons() {
            let key = comparison.leaf_reuse_key();
            let entry = self
                .entries
                .get_mut(&key)
                .expect("released plan was never acquired");
            entry.refs -= 1;
            if entry.refs == 0 {
                self.entries.remove(&key);
            }
        }
    }

    /// Indexes one entity into every pooled leaf — once per distinct key,
    /// which is the point of the pool.
    pub(crate) fn insert_entity<'e>(
        &mut self,
        position: u32,
        entity: &'e Entity,
        cache: &ValueCache<'e>,
    ) {
        let mut keys: Vec<BlockKey> = Vec::new();
        for entry in self.entries.values_mut() {
            entity_keys(&entry.comparison, entity, cache, &mut keys);
            Arc::make_mut(&mut entry.leaf).add_entity(&keys, position);
        }
    }

    /// Un-indexes one entity from every pooled leaf.
    pub(crate) fn remove_entity<'e>(
        &mut self,
        position: u32,
        entity: &'e Entity,
        cache: &ValueCache<'e>,
    ) {
        let mut keys: Vec<BlockKey> = Vec::new();
        for entry in self.entries.values_mut() {
            entity_keys(&entry.comparison, entity, cache, &mut keys);
            Arc::make_mut(&mut entry.leaf).drop_entity(&keys, position);
        }
    }

    /// Folds every leaf whose delta the writes since the last call grew past
    /// √(base postings) — once per publication, so an ingest batch folds
    /// each leaf at most once.  A leaf past the limit was written since, so
    /// it is not shared yet and folds in place.
    pub(crate) fn fold_past_limit(&mut self) {
        for entry in self.entries.values_mut() {
            if entry.leaf.past_fold_limit(true) {
                Arc::make_mut(&mut entry.leaf).fold();
            }
        }
    }

    /// The current per-slot leaves of a registered plan, to reassemble a
    /// rule's index view after pool maintenance.
    pub(crate) fn leaves_for(&self, plan: &IndexingPlan) -> Vec<Arc<LeafIndex>> {
        plan.comparisons()
            .iter()
            .map(|comparison| {
                self.entries
                    .get(&comparison.leaf_reuse_key())
                    .expect("plan is registered in the pool")
                    .leaf
                    .clone()
            })
            .collect()
    }

    /// The pool's distinct leaves in deterministic `(chain hash, measure
    /// name, bucket)` order — the snapshot codec's serialization order.
    pub(crate) fn sorted_entries(&self) -> Vec<(LeafKey, &Arc<LeafIndex>)> {
        let mut entries: Vec<(LeafKey, &Arc<LeafIndex>)> = self
            .entries
            .iter()
            .map(|(&key, entry)| (key, &entry.leaf))
            .collect();
        entries.sort_by(|(a, _), (b, _)| (a.0, a.1.name(), a.2).cmp(&(b.0, b.1.name(), b.2)));
        entries
    }

    pub(crate) fn stats(&self) -> LeafPoolStats {
        LeafPoolStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            refs: self.entries.values().map(|entry| entry.refs).sum(),
        }
    }
}

/// The block keys one target entity is stored under for one indexed
/// comparison, sorted and deduplicated: the incremental path adds one
/// posting per key and would take a repeat for a position indexed twice.
fn entity_keys<'e>(
    comparison: &IndexedComparison,
    entity: &'e Entity,
    cache: &ValueCache<'e>,
    keys: &mut Vec<BlockKey>,
) {
    let values = comparison.target.values(entity, cache);
    comparison.index_keys_into(&values, keys);
    keys.sort_unstable();
    keys.dedup();
}

/// Reusable per-worker state for candidate generation: the probe and its
/// unit ranking, an epoch-stamped mark table (a hash-set replacement that
/// needs no clearing), and pools of position and child-ordering buffers.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    probe: ProbeKeys,
    /// `(postings, unit)` of the probe group being ranked.
    unit_costs: Vec<(usize, u32)>,
    marks: EpochMarks,
    pool: Vec<Vec<u32>>,
    order_pool: Vec<Vec<(f64, u32)>>,
}

impl CandidateScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CandidateScratch::default()
    }

    /// Returns a pooled buffer to the scratch for reuse.
    pub fn recycle(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        self.pool.push(buf);
    }

    fn ensure_capacity(&mut self, target_len: usize) {
        self.marks.ensure_capacity(target_len);
    }

    fn take_buf(&mut self) -> Vec<u32> {
        self.pool.pop().unwrap_or_default()
    }

    fn take_order(&mut self) -> Vec<(f64, u32)> {
        self.order_pool.pop().unwrap_or_default()
    }

    fn recycle_order(&mut self, mut order: Vec<(f64, u32)>) {
        order.clear();
        self.order_pool.push(order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::{DataSource, DataSourceBuilder};
    use linkdisc_rule::{
        aggregation, compare, property, transform, AggregationFunction, DistanceFunction,
        LinkageRule, TransformFunction,
    };

    fn target() -> DataSource {
        DataSourceBuilder::new("B", ["name", "year"])
            .entity("b0", [("name", "berlin"), ("year", "1237")])
            .unwrap()
            .entity("b1", [("name", "berlim"), ("year", "1237")])
            .unwrap()
            .entity("b2", [("name", "paris"), ("year", "0250")])
            .unwrap()
            .build()
    }

    fn source() -> DataSource {
        DataSourceBuilder::new("A", ["name", "year"])
            .entity("a0", [("name", "Berlin"), ("year", "1237")])
            .unwrap()
            .build()
    }

    /// One index over every entity of `target`, on all cores.
    fn build<'e>(
        plan: impl Into<Arc<IndexingPlan>>,
        target: &'e DataSource,
        cache: &ValueCache<'e>,
    ) -> MultiBlockIndex {
        MultiBlockIndex::build_slice(plan, target.entities(), cache, 0)
    }

    fn plan(rule: &LinkageRule, source: &DataSource, target: &DataSource) -> IndexingPlan {
        IndexingPlan::lower(rule, source.schema(), target.schema(), 0.5)
    }

    fn name_year_rule() -> LinkageRule {
        aggregation(
            AggregationFunction::Min,
            vec![
                compare(
                    property("name"),
                    property("name"),
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                compare(
                    property("year"),
                    property("year"),
                    DistanceFunction::Numeric,
                    2.0,
                ),
            ],
        )
        .into()
    }

    #[test]
    fn fuzzy_single_token_pairs_are_candidates() {
        // "berlin" vs "berlim" share no exact token — the pair the old token
        // index provably missed
        let rule: LinkageRule = compare(
            transform(TransformFunction::LowerCase, vec![property("name")]),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let index = build(plan(&rule, &source, &target), &target, &cache);
        let candidates = index.candidate_positions(&source.entities()[0], &cache);
        assert!(candidates.contains(&0));
        assert!(candidates.contains(&1), "fuzzy match must be a candidate");
        assert!(!candidates.contains(&2), "paris should be pruned");
    }

    #[test]
    fn intersections_prune_harder_than_single_leaves() {
        let name = compare(
            transform(TransformFunction::LowerCase, vec![property("name")]),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        );
        let year = compare(
            property("year"),
            property("year"),
            DistanceFunction::Numeric,
            2.0,
        );
        let conjunction: LinkageRule =
            aggregation(AggregationFunction::Min, vec![name.clone(), year.clone()]).into();
        let disjunction: LinkageRule =
            aggregation(AggregationFunction::Max, vec![name, year]).into();
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let intersected = build(plan(&conjunction, &source, &target), &target, &cache);
        let unioned = build(plan(&disjunction, &source, &target), &target, &cache);
        let a0 = &source.entities()[0];
        let from_intersection = intersected.candidate_positions(a0, &cache);
        let from_union = unioned.candidate_positions(a0, &cache);
        assert_eq!(from_intersection, vec![0, 1]);
        assert_eq!(from_union, vec![0, 1]);
        // every intersection candidate is also a union candidate
        assert!(from_intersection.iter().all(|p| from_union.contains(p)));
    }

    #[test]
    fn build_stats_describe_each_comparison() {
        let rule: LinkageRule = compare(
            property("year"),
            property("year"),
            DistanceFunction::Numeric,
            2.0,
        )
        .into();
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let index = build(plan(&rule, &source, &target), &target, &cache);
        let stats = index.build_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].indexed_entities, 3);
        assert!(stats[0].blocks > 0);
        assert!(stats[0].postings >= stats[0].blocks);
        assert!(stats[0].label.starts_with("numeric"));
    }

    #[test]
    fn leaf_counts_accumulate_per_comparison() {
        let rule = name_year_rule();
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let index = build(plan(&rule, &source, &target), &target, &cache);
        let mut scratch = CandidateScratch::new();
        let mut leaf_counts = vec![0usize; index.plan().comparisons().len()];
        let buf = index.candidates(
            &source.entities()[0],
            &cache,
            &mut scratch,
            &mut leaf_counts,
        );
        scratch.recycle(buf);
        // "Berlin" shares suffix bigrams with "berlin"/"berlim", and 1237
        // shares a numeric bucket — both leaves contribute candidates
        assert!(leaf_counts[0] > 0, "levenshtein leaf produced candidates");
        assert!(leaf_counts[1] > 0, "numeric leaf produced candidates");
    }

    #[test]
    fn exhaustive_and_empty_plans_degenerate_cleanly() {
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        // link threshold 0: every pair links, plan is All
        let rule: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let all = IndexingPlan::lower(&rule, source.schema(), target.schema(), 0.0);
        let index = build(all, &target, &cache);
        assert_eq!(
            index.candidate_positions(&source.entities()[0], &cache),
            vec![0, 1, 2]
        );
        let nothing =
            IndexingPlan::lower(&LinkageRule::empty(), source.schema(), target.schema(), 0.5);
        let index = build(nothing, &target, &cache);
        assert!(index
            .candidate_positions(&source.entities()[0], &cache)
            .is_empty());
    }

    /// A leaf's canonical view: its live `(key, postings)` lists in key
    /// order — what two leaves reached by different writes are compared by.
    fn canonical(leaf: &LeafIndex) -> Vec<(BlockKey, Vec<u32>)> {
        let mut lists = Vec::new();
        leaf.for_each_list(|key, postings| lists.push((key, postings.to_vec())));
        lists
    }

    /// Equality of two leaves: canonical views and every statistic.
    fn assert_same_leaf(a: &LeafIndex, b: &LeafIndex) {
        assert_eq!(canonical(a), canonical(b));
        let stats = |l: &LeafIndex| (l.indexed_entities, l.blocks, l.postings, l.postings_sq);
        assert_eq!(stats(a), stats(b));
    }

    /// Structural equality of two indexes: same plan shape is assumed, the
    /// leaves' canonical views and statistics must match entry for entry.
    fn assert_same_index(a: &MultiBlockIndex, b: &MultiBlockIndex) {
        assert_eq!(a.target_len(), b.target_len());
        assert_eq!(a.build_stats(), b.build_stats());
        for (la, lb) in a.leaves.iter().zip(&b.leaves) {
            assert_same_leaf(la, lb);
        }
    }

    /// 300 targets with overlapping name q-grams, shared and distinct year
    /// buckets, and a year-less (key-less on that leaf) entity every 11th.
    fn varied_target() -> DataSource {
        const STEMS: [&str; 7] = [
            "berlin", "berlim", "bern", "paris", "parma", "potsdam", "rom",
        ];
        let mut builder = DataSourceBuilder::new("B", ["name", "year"]);
        for i in 0..300usize {
            let name = format!("{} {}", STEMS[i % STEMS.len()], i % 13);
            let year = format!("{}", 1900 + (i * 7) % 50);
            let mut values = vec![("name", name.as_str())];
            if i % 11 != 0 {
                values.push(("year", year.as_str()));
            }
            builder = builder.entity(format!("b{i}"), values).unwrap();
        }
        builder.build()
    }

    /// The bulk constructor at every batch call site — public slices, the
    /// engine's bound columns, and a serving [`LeafPool`] over a store with
    /// tombstone holes — against inserting the same entities one by one:
    /// maps, [`LeafBuildStats`] and `postings_sq`, whichever provider the
    /// values came from.  Thread counts are varied where a plan is wide
    /// enough to spawn workers
    /// (`leaf_parallel_builds_are_identical_to_one_by_one_inserts`).
    #[test]
    fn bulk_builds_are_structurally_identical_to_one_by_one_inserts() {
        let (source, target) = (source(), varied_target());
        let rule = name_year_rule();
        let p = Arc::new(plan(&rule, &source, &target));
        let cache = ValueCache::new();
        let mut one_by_one = MultiBlockIndex::empty(p.clone());
        // descending, so every posting takes the mid-vector insert path
        for (position, entity) in target.entities().iter().enumerate().rev() {
            one_by_one.insert(position as u32, entity, &cache);
        }
        assert!(one_by_one.build_stats()[1].indexed_entities < target.len());

        let sliced = MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, 1);
        assert_same_index(&sliced, &one_by_one);
        // the column provider: every leaf (negative floor) from a bound side
        let compiled =
            linkdisc_rule::CompiledRule::compile(&rule, source.schema(), target.schema());
        let bound = compiled.bind_target(target.entities().iter());
        let columnar = MultiBlockIndex::build_staged(p.clone(), &bound, target.len(), -1.0);
        assert_same_index(&columnar, &one_by_one);

        // serving: every third slot (but not the last) is a tombstone hole
        let mut store = linkdisc_entity::EntityStore::new(target.schema().clone());
        for entity in target.entities() {
            store.insert(entity).unwrap();
        }
        for entity in target.entities().iter().step_by(3) {
            store.remove(entity.id()).unwrap();
        }
        let entries: Vec<(u32, &Entity)> = store
            .iter()
            .map(|(position, entity)| (position, entity.as_ref()))
            .collect();
        assert_eq!(entries.len(), 200);
        let store_cache = ValueCache::new();
        let mut holes = MultiBlockIndex::empty(p.clone());
        for &(position, entity) in entries.iter().rev() {
            holes.insert(position, entity, &store_cache);
        }
        let (leaves, _, misses) = LeafPool::new().acquire_plan(&p, &entries, &store_cache, 1);
        assert_eq!(misses, 2);
        let pooled = MultiBlockIndex::from_parts(p.clone(), leaves, store.slot_len());
        assert_same_index(&pooled, &holes);
    }

    /// Entities whose raw index-key stream repeats a key — a run of one
    /// letter repeats a q-gram inside one position bucket, a tag set holds a
    /// duplicate element, two years sit in overlapping ±1 buckets — are
    /// indexed once per key by the bulk build: each provider matches
    /// one-by-one inserts of the deduplicated key sets.
    #[test]
    fn bulk_builds_drop_a_key_an_entity_emits_twice() {
        let mut builder = DataSourceBuilder::new("B", ["name", "tag", "year"]);
        for i in 0..60usize {
            let name = format!("{} {}", "a".repeat(8 + i % 5), i % 7);
            let (tag, year) = (format!("t{}", i % 4), 1900 + i % 9);
            let (twin_tag, twin_year) = if i % 3 == 0 {
                (tag.clone(), year + 1)
            } else {
                (format!("u{i}"), year + 40)
            };
            let values = [
                ("name", name),
                ("tag", tag),
                ("tag", twin_tag),
                ("year", year.to_string()),
                ("year", twin_year.to_string()),
            ];
            let values = values.iter().map(|(p, v)| (*p, v.as_str()));
            builder = builder.entity(format!("b{i}"), values).unwrap();
        }
        let target = builder.build();
        let rule: LinkageRule = aggregation(
            AggregationFunction::Max,
            vec![
                compare(
                    property("name"),
                    property("name"),
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                compare(
                    property("tag"),
                    property("tag"),
                    DistanceFunction::Jaccard,
                    0.5,
                ),
                compare(
                    property("year"),
                    property("year"),
                    DistanceFunction::Numeric,
                    2.0,
                ),
            ],
        )
        .into();
        let p = Arc::new(plan(&rule, &target, &target));
        assert_eq!(p.comparisons().len(), 3);
        let cache = ValueCache::new();
        let mut keys: Vec<BlockKey> = Vec::new();
        for comparison in p.comparisons() {
            let repeats = target.entities().iter().any(|entity| {
                comparison.index_keys_into(&comparison.target.values(entity, &cache), &mut keys);
                let raw = keys.len();
                keys.sort_unstable();
                keys.dedup();
                keys.len() < raw
            });
            assert!(repeats, "{} emits no repeated key", comparison.label);
        }

        let mut one_by_one = MultiBlockIndex::empty(p.clone());
        for (position, entity) in target.entities().iter().enumerate().rev() {
            one_by_one.insert(position as u32, entity, &cache);
        }
        let sliced = MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, 1);
        assert_same_index(&sliced, &one_by_one);
        let compiled =
            linkdisc_rule::CompiledRule::compile(&rule, target.schema(), target.schema());
        let bound = compiled.bind_target(target.entities().iter());
        let columnar = MultiBlockIndex::build_staged(p.clone(), &bound, target.len(), -1.0);
        assert_same_index(&columnar, &one_by_one);
    }

    /// A disjunction of four comparisons with four distinct leaf reuse keys,
    /// so a complete build at 2 threads really hands whole leaves to two
    /// workers ([`linkdisc_util::parallel_ordered_map`] maps inline below two
    /// items per worker): [`MultiBlockIndex::build_slice`] and
    /// [`LeafPool::acquire_plan`] over a store with tombstone holes, at 1, 2,
    /// 3 and 8 threads, against one-by-one inserts.
    #[test]
    fn leaf_parallel_builds_are_identical_to_one_by_one_inserts() {
        let (source, target) = (source(), varied_target());
        let name = |function, measure, threshold| {
            compare(
                transform(function, vec![property("name")]),
                transform(function, vec![property("name")]),
                measure,
                threshold,
            )
        };
        let rule: LinkageRule = aggregation(
            AggregationFunction::Max,
            vec![
                name(
                    TransformFunction::LowerCase,
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                name(TransformFunction::Tokenize, DistanceFunction::Jaccard, 0.5),
                name(
                    TransformFunction::LowerCase,
                    DistanceFunction::Equality,
                    0.5,
                ),
                compare(
                    property("year"),
                    property("year"),
                    DistanceFunction::Numeric,
                    2.0,
                ),
            ],
        )
        .into();
        let p = Arc::new(plan(&rule, &source, &target));
        let distinct: HashSet<LeafKey> = p
            .comparisons()
            .iter()
            .map(IndexedComparison::leaf_reuse_key)
            .collect();
        assert!(distinct.len() >= 4, "{} distinct leaves", distinct.len());

        let cache = ValueCache::new();
        let mut one_by_one = MultiBlockIndex::empty(p.clone());
        for (position, entity) in target.entities().iter().enumerate().rev() {
            one_by_one.insert(position as u32, entity, &cache);
        }
        let mut store = linkdisc_entity::EntityStore::new(target.schema().clone());
        for entity in target.entities() {
            store.insert(entity).unwrap();
        }
        for entity in target.entities().iter().step_by(4) {
            store.remove(entity.id()).unwrap();
        }
        let entries: Vec<(u32, &Entity)> = store
            .iter()
            .map(|(position, entity)| (position, entity.as_ref()))
            .collect();
        let store_cache = ValueCache::new();
        let mut holes = MultiBlockIndex::empty(p.clone());
        for &(position, entity) in entries.iter().rev() {
            holes.insert(position, entity, &store_cache);
        }
        for threads in [1, 2, 3, 8] {
            let sliced =
                MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, threads);
            assert_same_index(&sliced, &one_by_one);
            let (leaves, _, misses) =
                LeafPool::new().acquire_plan(&p, &entries, &store_cache, threads);
            assert_eq!(misses, distinct.len() as u64);
            let pooled = MultiBlockIndex::from_parts(p.clone(), leaves, store.slot_len());
            assert_same_index(&pooled, &holes);
        }
    }

    #[test]
    fn incremental_inserts_reproduce_the_batch_build() {
        let rule = name_year_rule();
        let (source, target) = (source(), target());
        let p = plan(&rule, &source, &target);
        let cache = ValueCache::new();
        let batch = MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, 1);
        let mut incremental = MultiBlockIndex::empty(p);
        for (position, entity) in target.entities().iter().enumerate() {
            incremental.insert(position as u32, entity, &cache);
        }
        assert_same_index(&batch, &incremental);
    }

    #[test]
    fn remove_then_reinsert_restores_the_index_exactly() {
        let rule = name_year_rule();
        let (source, target) = (source(), target());
        let p = plan(&rule, &source, &target);
        let cache = ValueCache::new();
        let reference = MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, 1);
        let mut index = MultiBlockIndex::build_slice(p, target.entities(), &cache, 1);
        // b0 ("berlin") is a0's only conjunction candidate: "Berlin" vs
        // "berlim" is two edits apart, beyond the name bound of 1
        let a0 = &source.entities()[0];
        assert_eq!(index.candidate_positions(a0, &cache), vec![0]);
        let b0 = &target.entities()[0];
        index.remove(0, b0, &cache);
        assert!(index.candidate_positions(a0, &cache).is_empty());
        let stats = index.build_stats();
        assert_eq!(stats[0].indexed_entities, 2);
        index.insert(0, b0, &cache);
        assert_same_index(&reference, &index);
        assert_eq!(index.candidate_positions(a0, &cache), vec![0]);
    }

    /// A serving write beside a pinned epoch: the pool's copy-on-write
    /// clones each leaf's delta and shares its base, and the pinned leaves
    /// read exactly as before.
    #[test]
    fn a_pool_write_beside_a_pinned_epoch_shares_the_base() {
        let (source, target) = (source(), varied_target());
        let p = Arc::new(plan(&name_year_rule(), &source, &target));
        let cache = ValueCache::new();
        let entities = target.entities();
        let entries: Vec<(u32, &Entity)> = (0..).zip(&entities[..250]).collect();
        let mut pool = LeafPool::new();
        let (pinned, _, _) = pool.acquire_plan(&p, &entries, &cache, 1);
        let before: Vec<_> = pinned.iter().map(|leaf| canonical(leaf)).collect();
        pool.remove_entity(3, &entities[3], &cache);
        pool.insert_entity(250, &entities[250], &cache);
        let written = pool.leaves_for(&p);
        for (old, new) in pinned.iter().zip(&written) {
            assert!(!Arc::ptr_eq(old, new), "the write must copy a shared leaf");
            assert!(
                Arc::ptr_eq(&old.base, &new.base),
                "the base must stay shared"
            );
            assert!(old.delta.is_empty() && !new.delta.is_empty());
        }
        let after: Vec<_> = pinned.iter().map(|leaf| canonical(leaf)).collect();
        assert_eq!(before, after, "the pinned epoch's view changed");
        // and the written leaves are those of a bulk build of the new set
        let mut final_entries = entries.clone();
        final_entries.remove(3);
        final_entries.push((250, &entities[250]));
        let (bulk, _, _) = LeafPool::new().acquire_plan(&p, &final_entries, &cache, 1);
        for (written, bulk) in written.iter().zip(&bulk) {
            assert_same_leaf(written, bulk);
        }
    }

    /// An entity removed from the base and a different entity inserted at
    /// its recycled position: the tombstone hides only the old entity's base
    /// postings, and probes and statistics equal a bulk build of the final
    /// set.
    #[test]
    fn a_recycled_base_position_serves_only_its_new_entity() {
        let (source, target) = (source(), varied_target());
        let p = Arc::new(plan(&name_year_rule(), &source, &target));
        let entities = target.entities();
        let mut final_set = entities[..200].to_vec();
        final_set[7] = entities[250].clone();
        let cache = ValueCache::new();
        let mut index = MultiBlockIndex::build_slice(p.clone(), &entities[..200], &cache, 1);
        index.remove(7, &entities[7], &cache);
        index.insert(7, &entities[250], &cache);
        assert!(index.leaves.iter().all(|leaf| !leaf.delta.is_empty()));
        assert!(index.leaves[0].delta.is_removed(7));
        let bulk = MultiBlockIndex::build_slice(p, &final_set, &cache, 1);
        assert_same_index(&index, &bulk);
        for probe in source.entities().iter().chain(entities) {
            assert_eq!(
                index.candidate_positions(probe, &cache),
                bulk.candidate_positions(probe, &cache),
                "probe {}",
                probe.id()
            );
        }
    }

    /// Writes past the fold limits fold the delta into a fresh base, and the
    /// leaves equal a bulk build of the final `(position, entity)` set: a
    /// serving pool folding at each publication never keeps a delta past
    /// √(base postings), a private index never one past its base.
    #[test]
    fn writes_past_the_fold_limit_fold_into_a_bulk_equal_base() {
        let (source, target) = (source(), varied_target());
        let p = Arc::new(plan(&name_year_rule(), &source, &target));
        let cache = ValueCache::new();
        let entities = target.entities();
        let first: Vec<(u32, &Entity)> = (0..).zip(&entities[..100]).collect();
        let mut pool = LeafPool::new();
        let (built, _, _) = pool.acquire_plan(&p, &first, &cache, 1);
        let mut private = MultiBlockIndex::from_parts(p.clone(), built.clone(), 100);
        let inserts = (100u32..)
            .zip(&entities[100..])
            .map(|(at, e)| (true, at, e));
        let removes = (0u32..).zip(&entities[..100]).step_by(3);
        let writes = inserts.chain(removes.map(|(at, e)| (false, at, e)));
        let within = |leaves: &[Arc<LeafIndex>], published| {
            leaves.iter().all(|leaf| !leaf.past_fold_limit(published))
        };
        for (insert, position, entity) in writes {
            if insert {
                pool.insert_entity(position, entity, &cache);
                private.insert(position, entity, &cache);
            } else {
                pool.remove_entity(position, entity, &cache);
                private.remove(position, entity, &cache);
            }
            pool.fold_past_limit();
            assert!(within(&pool.leaves_for(&p), true));
            assert!(within(&private.leaves, false));
        }
        let entries: Vec<(u32, &Entity)> = (0u32..)
            .zip(entities)
            .filter(|&(position, _)| position >= 100 || position % 3 != 0)
            .collect();
        let (bulk, _, _) = LeafPool::new().acquire_plan(&p, &entries, &cache, 1);
        for leaves in [pool.leaves_for(&p), private.leaves] {
            for ((built, leaf), bulk) in built.iter().zip(&leaves).zip(&bulk) {
                assert!(!Arc::ptr_eq(&built.base, &leaf.base), "no write folded");
                assert_same_leaf(leaf, bulk);
            }
        }
    }

    #[test]
    fn removing_the_last_entity_of_a_block_drops_the_block() {
        let rule: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Equality,
            0.5,
        )
        .into();
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let mut index = build(plan(&rule, &source, &target), &target, &cache);
        let before = index.build_stats()[0].blocks;
        index.remove(2, &target.entities()[2], &cache);
        let after = index.build_stats();
        assert_eq!(after[0].blocks, before - 1, "paris block must disappear");
        assert_eq!(after[0].postings, 2);
        assert_eq!(after[0].indexed_entities, 2);
    }

    #[test]
    fn intersection_evaluates_the_most_selective_child_first() {
        // the year leaf indexes nothing (no parseable values), so its
        // estimate is 0 and ordering must probe it first — short-circuiting
        // before the (large) name leaf is ever touched
        let target = DataSourceBuilder::new("B", ["name", "year"])
            .entity("b0", [("name", "berlin")])
            .unwrap()
            .entity("b1", [("name", "berlim")])
            .unwrap()
            .build();
        let rule = name_year_rule();
        let source = source();
        let cache = ValueCache::new();
        let index = build(plan(&rule, &source, &target), &target, &cache);
        let mut scratch = CandidateScratch::new();
        let mut leaf_counts = vec![0usize; index.plan().comparisons().len()];
        let buf = index.candidates(
            &source.entities()[0],
            &cache,
            &mut scratch,
            &mut leaf_counts,
        );
        assert!(buf.is_empty());
        scratch.recycle(buf);
        assert_eq!(
            leaf_counts,
            vec![0, 0],
            "the empty year leaf must short-circuit before the name leaf runs"
        );
    }

    #[test]
    fn a_committee_shares_the_leaves_of_one_bound_bucket() {
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let entries: Vec<(u32, &Entity)> = (0..).zip(target.entities()).collect();
        let name = |threshold: f64| -> LinkageRule {
            compare(
                property("name"),
                property("name"),
                DistanceFunction::Levenshtein,
                threshold,
            )
            .into()
        };
        // θ 4 and θ 5 derive bounds 2 and 2.5, one ⌊bound⌋ bucket; θ 0.5
        // derives bound 0.25, a bucket of its own
        let plans: Vec<Arc<IndexingPlan>> = [name(4.0), name(5.0), name(0.5), name_year_rule()]
            .iter()
            .map(|rule| Arc::new(plan(rule, &source, &target)))
            .collect();
        let mut pool = LeafPool::new();
        let committee: Vec<MultiBlockIndex> = plans
            .iter()
            .map(|plan| {
                let (leaves, _, _) = pool.acquire_plan(plan, &entries, &cache, 1);
                MultiBlockIndex::from_parts(plan.clone(), leaves, target.len())
            })
            .collect();
        let leaf = |index: usize| &committee[index].leaves[0];
        assert!(Arc::ptr_eq(leaf(0), leaf(1)), "one bucket, one leaf");
        assert!(
            !Arc::ptr_eq(leaf(0), leaf(2)),
            "θ 0.5 gets a leaf of its own"
        );
        // the same candidates as one build per plan
        for (plan, index) in plans.iter().zip(&committee) {
            let alone = MultiBlockIndex::build_slice(plan.clone(), target.entities(), &cache, 1);
            assert_same_index(index, &alone);
            for entity in source.entities() {
                assert_eq!(
                    index.candidate_positions(entity, &cache),
                    alone.candidate_positions(entity, &cache)
                );
            }
        }
    }

    /// A conjunction over a selective year leaf and an unselective name
    /// leaf: 1,200 targets share every name block, three share the query's
    /// year bucket.
    fn stop_fixture() -> DataSource {
        let mut builder = DataSourceBuilder::new("B", ["name", "year"]);
        for i in 0..1200 {
            let year = if i < 3 { "1237" } else { "1900" };
            builder = builder
                .entity(format!("b{i}"), [("name", "berlin"), ("year", year)])
                .unwrap();
        }
        builder.build()
    }

    #[test]
    fn conjunction_stops_when_scoring_the_survivors_is_cheaper() {
        let target = stop_fixture();
        let rule = name_year_rule();
        let source = DataSourceBuilder::new("A", ["name", "year"])
            .entity("a0", [("name", "Berlin"), ("year", "1237")])
            .unwrap()
            .entity("a9", [("name", "zzzzzz"), ("year", "1900")])
            .unwrap()
            .build();
        let cache = ValueCache::new();
        let mut index = build(plan(&rule, &source, &target), &target, &cache);
        assert!(
            3.0 * PAIR_COST_IN_SCANS < index.estimate(&PlanNode::Leaf(0)),
            "fixture must actually reach the stop"
        );
        // three survivors of the year leaf: scanning 1,200-entry name blocks
        // costs more than scoring three pairs, so the name leaf is never
        // consulted — the candidates are the year leaf's
        let mut scratch = CandidateScratch::new();
        let mut leaf_counts = vec![0usize; 2];
        let a0 = &source.entities()[0];
        let buf = index.candidates(a0, &cache, &mut scratch, &mut leaf_counts);
        scratch.recycle(buf);
        assert_eq!(leaf_counts, vec![0, 3]);
        assert_eq!(index.candidate_positions(a0, &cache), vec![0, 1, 2]);
        // 1,197 survivors are worth pruning: the name leaf is consulted, and
        // reports what survived it (nothing is named "zzzzzz")
        let a9 = &source.entities()[1];
        leaf_counts.fill(0);
        let buf = index.candidates(a9, &cache, &mut scratch, &mut leaf_counts);
        assert!(buf.is_empty());
        scratch.recycle(buf);
        assert_eq!(leaf_counts, vec![0, 1197]);
        // maintenance keeps the stopped answer consistent
        index.remove(1, &target.entities()[1], &cache);
        assert_eq!(index.candidate_positions(a0, &cache), vec![0, 2]);
        index.insert(1, &target.entities()[1], &cache);
        assert_eq!(index.candidate_positions(a0, &cache), vec![0, 1, 2]);
    }

    /// The plan's set algebra over a fully built index with **no** stop: the
    /// reference a stopped or staged index must cover.
    fn full_algebra(
        index: &MultiBlockIndex,
        node: &PlanNode,
        probe: CachedProbe<'_, '_>,
        scratch: &mut CandidateScratch,
    ) -> std::collections::BTreeSet<u32> {
        match node {
            PlanNode::All => (0..index.target_len as u32).collect(),
            PlanNode::Nothing => Default::default(),
            PlanNode::Leaf(_) => {
                let buf = index.eval(node, probe, scratch, &mut []);
                let set = buf.iter().copied().collect();
                scratch.recycle(buf);
                set
            }
            PlanNode::Intersect(children) => children
                .iter()
                .map(|child| full_algebra(index, child, probe, scratch))
                .reduce(|a, b| &a & &b)
                .expect("intersections have children"),
            PlanNode::Union(children) => children
                .iter()
                .flat_map(|child| full_algebra(index, child, probe, scratch))
                .collect(),
        }
    }

    /// Rule shapes over a dataset's comparisons: flat and nested
    /// conjunctions, disjunctions of conjunctions, weighted means.
    fn shapes(c: &[linkdisc_rule::SimilarityOperator]) -> Vec<LinkageRule> {
        use AggregationFunction::{Max, Min, WeightedMean};
        let agg = |function, children: Vec<&linkdisc_rule::SimilarityOperator>| {
            aggregation(function, children.into_iter().cloned().collect())
        };
        vec![
            agg(Min, vec![&c[0], &c[1]]).into(),
            agg(Min, vec![&c[0], &c[2]]).into(),
            agg(Min, vec![&c[0], &c[1], &c[2], &c[3]]).into(),
            agg(Min, vec![&agg(Min, vec![&c[0], &c[2]]), &c[1]]).into(),
            agg(Min, vec![&agg(Max, vec![&c[0], &c[1]]), &c[2]]).into(),
            agg(
                Max,
                vec![&agg(Min, vec![&c[0], &c[1]]), &agg(Min, vec![&c[3], &c[2]])],
            )
            .into(),
            agg(WeightedMean, vec![&c[0], &c[1]]).into(),
            agg(Min, vec![&c[3], &c[2]]).into(),
        ]
    }

    /// Candidates of a query-time-stopped index (every leaf built) and of the
    /// engine's staged index (bound columns, leaves left out) are supersets
    /// of the full, unstopped set algebra — per source entity, over rule
    /// shapes × Restaurant and Cora.
    #[test]
    fn stopped_and_staged_candidates_cover_the_full_intersection() {
        use linkdisc_datasets::DatasetKind;
        let fuzzy = |name: &str, function, measure, threshold| {
            compare(
                transform(function, vec![property(name)]),
                transform(function, vec![property(name)]),
                measure,
                threshold,
            )
        };
        use DistanceFunction::{Equality, Jaccard, Levenshtein};
        use TransformFunction::{DigitsOnly, LowerCase, Tokenize};
        let restaurant = [
            fuzzy("name", LowerCase, Levenshtein, 2.0),
            fuzzy("phone", DigitsOnly, Levenshtein, 1.0),
            fuzzy("city", LowerCase, Equality, 0.5),
            fuzzy("address", Tokenize, Jaccard, 0.8),
        ];
        let cora = [
            fuzzy("title", LowerCase, Levenshtein, 3.0),
            fuzzy("author", Tokenize, Jaccard, 0.7),
            fuzzy("date", LowerCase, Equality, 0.5),
            fuzzy("venue", LowerCase, Levenshtein, 2.0),
        ];
        let (mut skipped_leaves, mut extra_candidates) = (0usize, 0usize);
        for (kind, scale, comparisons) in [
            (DatasetKind::Restaurant, 1.5, &restaurant),
            (DatasetKind::Cora, 0.15, &cora),
        ] {
            let data = kind.generate(scale, 5);
            let (source, target) = (&data.source, &data.target);
            for rule in shapes(comparisons) {
                for link_threshold in [0.5, 0.75] {
                    let p = Arc::new(IndexingPlan::lower(
                        &rule,
                        source.schema(),
                        target.schema(),
                        link_threshold,
                    ));
                    let cache = ValueCache::new();
                    let full =
                        MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, 1);
                    let compiled = linkdisc_rule::CompiledRule::compile(
                        &rule,
                        source.schema(),
                        target.schema(),
                    );
                    let bound_target = compiled.bind_target(target.entities().iter());
                    let bound_source = compiled.bind_source(source.entities().iter());
                    let staged = MultiBlockIndex::build_staged(
                        p.clone(),
                        &bound_target,
                        target.len(),
                        STAGE_FLOOR,
                    );
                    skipped_leaves += staged.build_stats().iter().filter(|s| !s.built).count();
                    let columns = chain_columns(&p, &bound_source, |c| &c.source);
                    let mut scratch = CandidateScratch::new();
                    scratch.ensure_capacity(target.len());
                    for (position, entity) in source.entities().iter().enumerate() {
                        let probe = CachedProbe {
                            entity,
                            cache: &cache,
                        };
                        let reference = full_algebra(&full, p.root(), probe, &mut scratch);
                        let stopped = full.candidates(entity, &cache, &mut scratch, &mut []);
                        let bound = BoundProbe {
                            columns: &columns,
                            position,
                        };
                        let from_staged = staged.candidates_from(bound, &mut scratch, &mut []);
                        for (label, buf) in [("stopped", stopped), ("staged", from_staged)] {
                            let found: std::collections::BTreeSet<u32> =
                                buf.iter().copied().collect();
                            assert_eq!(found.len(), buf.len(), "{label}: duplicates");
                            assert!(
                                found.is_superset(&reference),
                                "{label} candidates of {} lost {:?} under {}",
                                entity.id(),
                                reference.difference(&found).collect::<Vec<_>>(),
                                linkdisc_rule::print_rule(&rule),
                            );
                            extra_candidates += found.len() - reference.len();
                            scratch.recycle(buf);
                        }
                    }
                }
            }
        }
        // not vacuous: stages were cut short and conjunctions did stop
        assert!(skipped_leaves > 0, "no staged build left a leaf out");
        assert!(extra_candidates > 0, "no conjunction ever stopped early");
    }

    /// Calibration behind [`PAIR_COST_IN_SCANS`] and [`STAGE_FLOOR`]: on
    /// Restaurant names/phones and Cora titles, (a) ns per
    /// `evaluate_bound_stats` pair (over the pairs that survive candidate
    /// generation — what a stop leaves to the rule) against what a consult
    /// costs (keys looked up, postings scanned, µs) and what scanning one
    /// posting costs (over every list under the probe's keys), and (b) the
    /// per-entity cost of bulk-building plus consulting the q-gram leaf,
    /// expressed in pair evaluations.  Run with `cargo test -p
    /// linkdisc-matching --release --lib -- --ignored planner_cost_calibration
    /// --nocapture` (a CI step, so every commit's log prints the figures) and
    /// transplant the printed ranges into the two constants' docs when key
    /// schemes, kernels or data structures change materially.  Fails when a
    /// consulted leaf scanned no postings: a calibration over empty lists
    /// measures nothing.
    #[test]
    #[ignore = "calibration; run in release mode (a CI step)"]
    fn planner_cost_calibration() {
        use linkdisc_datasets::DatasetKind;
        use std::time::Instant;
        let fuzzy = |name: &str, function, threshold| {
            compare(
                transform(function, vec![property(name)]),
                transform(function, vec![property(name)]),
                DistanceFunction::Levenshtein,
                threshold,
            )
        };
        let restaurant: LinkageRule = aggregation(
            AggregationFunction::Min,
            vec![
                fuzzy("name", TransformFunction::LowerCase, 2.0),
                fuzzy("phone", TransformFunction::DigitsOnly, 1.0),
            ],
        )
        .into();
        let cora: LinkageRule = fuzzy("title", TransformFunction::LowerCase, 3.0).into();
        for (kind, scale, rule) in [
            (DatasetKind::Restaurant, 20.0, restaurant),
            (DatasetKind::Cora, 1.0, cora),
        ] {
            let data = kind.generate(scale, 42);
            let (source, target) = (&data.source, &data.target);
            let p = Arc::new(IndexingPlan::lower(
                &rule,
                source.schema(),
                target.schema(),
                0.5,
            ));
            let compiled =
                linkdisc_rule::CompiledRule::compile(&rule, source.schema(), target.schema());
            let bound_target = compiled.bind_target(target.entities().iter());
            let bound_source = compiled.bind_source(source.entities().iter());
            let build_start = Instant::now();
            let index = MultiBlockIndex::build_staged(p.clone(), &bound_target, target.len(), -1.0);
            println!(
                "{}: {} x {} entities, all {} leaves built in {:.1} ms",
                kind.name(),
                source.len(),
                target.len(),
                index.leaves.len(),
                build_start.elapsed().as_secs_f64() * 1e3
            );
            let columns = chain_columns(&p, &bound_source, |c| &c.source);
            let targets = chain_columns(&p, &bound_target, |c| &c.target);
            let mut scratch = CandidateScratch::new();
            scratch.ensure_capacity(target.len());
            // (a) one pair evaluation, over the pairs candidate generation
            // leaves to the rule
            let mut stats = linkdisc_rule::EvalStats::default();
            let mut pairs: Vec<(usize, u32)> = Vec::new();
            for position in 0..source.len() {
                let probe = BoundProbe {
                    columns: &columns,
                    position,
                };
                let buf = index.candidates_from(probe, &mut scratch, &mut []);
                pairs.extend(buf.iter().map(|&target| (position, target)));
                scratch.recycle(buf);
            }
            let eval_start = Instant::now();
            let mut links = 0usize;
            for &(s, t) in &pairs {
                let score = compiled.evaluate_bound_stats(
                    &bound_source,
                    s,
                    &bound_target,
                    t as usize,
                    0.5,
                    &mut stats,
                );
                links += usize::from(score >= 0.5);
            }
            let pair_ns = eval_start.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64;
            println!(
                "  evaluate_bound_stats: {pair_ns:.1} ns/pair over {} candidate pairs ({links} links)",
                pairs.len()
            );
            for (leaf, comparison) in p.comparisons().iter().enumerate() {
                // one consult: the leaf alone for every source — every key
                // of a ranked group is looked up for its list length, the
                // chosen units' keys once more to scan them
                let node = PlanNode::Leaf(leaf);
                let (mut scanned, mut looked_up, mut any_key) = (0usize, 0usize, 0usize);
                let lists = &*index.leaves[leaf];
                let postings =
                    |keys: &[BlockKey]| keys.iter().map(|key| lists.len(key)).sum::<usize>();
                let mut keys = ProbeKeys::new();
                let mut costs = Vec::new();
                for values in columns[leaf].iter() {
                    comparison.probe_keys_into(values, &mut keys);
                    looked_up += keys.keys().len();
                    any_key += postings(keys.keys());
                    for group in keys.groups() {
                        if group.may_miss() + 1 < group.units() {
                            for &(cost, unit) in cheapest_units(lists, &group, &mut costs) {
                                looked_up += group.unit(unit as usize).len();
                                scanned += cost;
                            }
                        } else {
                            scanned += postings(group.keys());
                        }
                    }
                }
                let consult_start = Instant::now();
                for position in 0..source.len() {
                    let probe = BoundProbe {
                        columns: &columns,
                        position,
                    };
                    let buf = index.eval(&node, probe, &mut scratch, &mut []);
                    scratch.recycle(buf);
                }
                let consult = consult_start.elapsed().as_nanos() as f64;
                // one posting scan: every list under the probe's keys, which
                // is long enough for the scan to dominate the lookups
                let scan_start = Instant::now();
                let mut marked = 0usize;
                for values in columns[leaf].iter() {
                    comparison.probe_keys_into(values, &mut keys);
                    let epoch = scratch.marks.next_epoch();
                    for key in keys.keys() {
                        lists.scan(key, |position| {
                            marked +=
                                usize::from(scratch.marks.mark_first(position as usize, epoch));
                        });
                    }
                }
                let scan_ns = scan_start.elapsed().as_nanos() as f64 / any_key.max(1) as f64;
                assert!(marked <= any_key);
                assert!(
                    scanned > 0 && any_key > 0,
                    "{}: a consult scanned no postings",
                    comparison.label
                );
                // (b) bulk-building the leaf from the column
                let bulk_start = Instant::now();
                let rebuilt = LeafIndex::bulk(comparison, (0u32..).zip(targets[leaf].iter()));
                let bulk = bulk_start.elapsed().as_nanos() as f64;
                let per_entity = bulk / target.len() as f64 + consult / source.len() as f64;
                println!(
                    "  {}: {:.1} index keys/entity, estimate {:.1}; a consult looks up {:.0} keys \
                     and scans {:.0} postings in {:.2} us = {:.0} pair evaluations; every list \
                     under its keys holds {:.0} postings, scanned at {scan_ns:.2} ns/posting -> \
                     one pair = {:.0} scans (PAIR_COST_IN_SCANS = {PAIR_COST_IN_SCANS}); bulk \
                     build {:.2} us/entity; build + consult = {:.2} us/entity = {:.0} pair \
                     evaluations (STAGE_FLOOR = {STAGE_FLOOR})",
                    comparison.label,
                    rebuilt.postings as f64 / target.len() as f64,
                    rebuilt.estimated_candidates(),
                    looked_up as f64 / source.len() as f64,
                    scanned as f64 / source.len() as f64,
                    consult / source.len() as f64 / 1e3,
                    consult / source.len() as f64 / pair_ns,
                    any_key as f64 / source.len() as f64,
                    pair_ns / scan_ns,
                    bulk / target.len() as f64 / 1e3,
                    per_entity / 1e3,
                    per_entity / pair_ns,
                );
            }
        }
    }

    #[test]
    fn estimates_track_posting_statistics() {
        let rule = name_year_rule();
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let index = build(plan(&rule, &source, &target), &target, &cache);
        // the year leaf has one 2-entity bucket family and one 1-entity
        // family: its probe-weighted estimate is strictly above 1
        let year = index.estimate(&PlanNode::Leaf(1));
        assert!(year > 1.0);
        let intersect = index.estimate(&PlanNode::Intersect(vec![
            PlanNode::Leaf(0),
            PlanNode::Leaf(1),
        ]));
        assert!(intersect <= year);
        let union = index.estimate(&PlanNode::Union(vec![PlanNode::Leaf(0), PlanNode::Leaf(1)]));
        assert!(union >= year);
    }
}
