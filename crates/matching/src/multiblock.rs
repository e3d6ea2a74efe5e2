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
//! The index is a *serving* structure, not a one-shot artifact:
//!
//! * [`MultiBlockIndex::build_slice`] builds the per-leaf indexes in **bulk**
//!   (gather every `(key, position)` pair of a leaf, sort once, fill
//!   exact-capacity posting lists) and **sharded** across worker threads
//!   (contiguous entity ranges whose per-key posting lists merge by
//!   concatenation in range order, so the sharded result is bit-identical to
//!   the sequential one),
//! * [`MultiBlockIndex::insert`] and [`MultiBlockIndex::remove`] maintain it
//!   **incrementally** per entity: posting lists stay sorted, emptied blocks
//!   are dropped, and [`LeafBuildStats`] stay exact — an index reached
//!   through any interleaving of builds, inserts and removes is structurally
//!   identical to one built from the final entity set in one shot.
//!
//! Building and probing are generic over **where a comparison's values come
//! from**: `(entity, &ValueCache)` — the public API, service queries,
//! `insert`/`remove` — or a [`BoundSide`]'s columns by position — the batch
//! engine, which binds each side once and then indexes, probes and scores
//! from the same columns.  One body each, two providers.
//!
//! The public builders and the serving [`LeafPool`] build **every** leaf of a
//! plan (their indexes are mutable or shared; another plan may need the
//! leaf); the one-shot engine builds a chunk's index in **stages**
//! ([`MultiBlockIndex::build_staged`]): under a conjunction, cheapest leaf
//! first, and no further once those leave a handful of candidates per probe.

use std::collections::{HashMap, HashSet};
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use linkdisc_entity::{DataSource, Entity};
use linkdisc_rule::{
    BoundSide, ChainValues, CompiledChain, IndexedComparison, IndexingPlan, PlanNode, ValueCache,
};
use linkdisc_similarity::{BlockKey, BlockKeyMap, DistanceFunction, ProbeGroup, ProbeKeys};
use linkdisc_util::resolve_threads;

use crate::scratch::EpochMarks;

/// Build-time statistics of one indexed comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafBuildStats {
    /// Human-readable comparison description (from the plan).
    pub label: String,
    /// Whether the leaf was built.  Always `true` for the public builders;
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
/// `postings` and `postings_sq` (Σ len and Σ len² over posting lists) are
/// maintained incrementally; they drive the selectivity estimates that order
/// intersection children and decide where a conjunction stops.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeafIndex {
    pub(crate) by_key: BlockKeyMap<Vec<u32>>,
    pub(crate) indexed_entities: usize,
    pub(crate) postings: usize,
    pub(crate) postings_sq: f64,
}

impl LeafIndex {
    /// Builds one comparison's leaf over `(position, target-chain values)`
    /// pairs in one pass — the bulk path behind every batch build: the
    /// engine's staged chunks (values from a bound side's column) and, with
    /// values read [`through_cache`], [`MultiBlockIndex::build_refs`], an
    /// active-learning committee's [`SharedLeafIndexes`] and a [`LeafPool`]
    /// registration over a store with tombstone holes.
    ///
    /// All `(key, position)` pairs are gathered and sorted once, then each
    /// run of equal keys becomes one exact-capacity posting list: structurally
    /// identical to [`LeafIndex::add`]ing the same postings one by one in any
    /// order, without that path's map probe, binary search and mid-vector
    /// insert per posting.  Positions must be distinct.
    pub(crate) fn bulk<V: Deref<Target = [String]>>(
        comparison: &IndexedComparison,
        entries: impl Iterator<Item = (u32, V)>,
    ) -> LeafIndex {
        let mut leaf = LeafIndex::default();
        let mut keys: Vec<BlockKey> = Vec::new();
        let mut pairs: Vec<(BlockKey, u32)> = Vec::new();
        for (position, values) in entries {
            comparison.index_keys_into(&values, &mut keys);
            if keys.is_empty() {
                continue;
            }
            leaf.indexed_entities += 1;
            pairs.extend(keys.iter().map(|&key| (key, position)));
        }
        pairs.sort_unstable();
        let same_key = |a: &(BlockKey, u32), b: &(BlockKey, u32)| a.0 == b.0;
        leaf.by_key.reserve(pairs.chunk_by(same_key).count());
        for block in pairs.chunk_by(same_key) {
            debug_assert!(
                block.windows(2).all(|pair| pair[0].1 < pair[1].1),
                "a position was indexed twice"
            );
            leaf.postings_sq += (block.len() * block.len()) as f64;
            leaf.by_key.insert(
                block[0].0,
                block.iter().map(|&(_, position)| position).collect(),
            );
        }
        leaf.postings = pairs.len();
        leaf
    }

    /// Indexes one entity, given its index-side keys, at `position` — the
    /// incremental path ([`MultiBlockIndex::insert`], [`LeafPool`]
    /// maintenance).
    fn add_entity(&mut self, keys: &[BlockKey], position: u32) {
        self.indexed_entities += usize::from(!keys.is_empty());
        for &key in keys {
            self.add(key, position);
        }
    }

    /// Un-indexes the entity [`LeafIndex::add_entity`] indexed at `position`
    /// under the same keys.
    fn drop_entity(&mut self, keys: &[BlockKey], position: u32) {
        self.indexed_entities -= usize::from(!keys.is_empty());
        for &key in keys {
            self.drop_posting(key, position);
        }
    }

    /// Adds `position` to the posting list of `key`, keeping it sorted.
    fn add(&mut self, key: BlockKey, position: u32) {
        let list = self.by_key.entry(key).or_default();
        match list.binary_search(&position) {
            Err(at) => {
                self.postings += 1;
                self.postings_sq += 2.0 * list.len() as f64 + 1.0;
                list.insert(at, position);
            }
            Ok(_) => debug_assert!(false, "position {position} indexed twice"),
        }
    }

    /// Removes `position` from the posting list of `key`, dropping the block
    /// when it empties (keeps the `blocks` statistic exact).
    fn drop_posting(&mut self, key: BlockKey, position: u32) {
        let Some(list) = self.by_key.get_mut(&key) else {
            debug_assert!(false, "removing from a missing block");
            return;
        };
        let Ok(at) = list.binary_search(&position) else {
            debug_assert!(false, "removing a position that was never indexed");
            return;
        };
        list.remove(at);
        self.postings -= 1;
        self.postings_sq -= 2.0 * list.len() as f64 + 1.0;
        if list.is_empty() {
            self.by_key.remove(&key);
        }
    }

    /// Expected posting-list length seen by a random probe: `Σ len² / Σ len`.
    /// Large blocks dominate both the probability of being probed and the
    /// candidates they emit, which makes this a better selectivity proxy
    /// than the plain mean.
    fn estimated_candidates(&self) -> f64 {
        if self.postings == 0 {
            return 0.0;
        }
        self.postings_sq / self.postings as f64
    }

    /// Recomputes the incremental statistics from the map (after a sharded
    /// merge or a snapshot restore).
    pub(crate) fn refresh_estimates(&mut self) {
        self.postings = self.by_key.values().map(Vec::len).sum();
        self.postings_sq = self
            .by_key
            .values()
            .map(|list| (list.len() * list.len()) as f64)
            .sum();
    }
}

/// A rule-derived multidimensional blocking index over a target data source.
///
/// Leaves are held behind `Arc` so structurally identical leaf indexes can
/// be **shared across the indexes of different rules** (see
/// [`SharedLeafIndexes`]); mutation goes through copy-on-write
/// (`Arc::make_mut`), which is free while a leaf is unshared.
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
/// -- --ignored planner_cost --nocapture`) reads `evaluate_bound_stats` at
/// 113–177 ns per pair (Restaurant name ∧ phone 113–170, Cora titles 114–177)
/// and a posting scan (sequential read plus epoch-mark store) at 2.6–3.5 ns
/// where lists are long (the 28 k postings under a Restaurant name probe's
/// keys; 7–9 ns over Cora titles' short lists, where the map lookup
/// dominates): a pair is worth 44–49 scans of the long lists a stop is about
/// (50–75 when the constant was set).
///
/// A conjunction stops once `|running| · RATIO < estimate(next child)`.  The
/// estimate is the expected length of *one* posting list.  A consult looks up
/// every probe key for its list length (1 key on Restaurant phones, 119 on
/// names, 163 on Cora titles — the 19–21 of the chosen units twice) and scans
/// every list of a group without a miss budget, but only the `may_miss + 1`
/// rarest units of one with: 213 of the 28,391 postings under a name probe's
/// keys, 14 of the 1,114 under a title's.  That is 0.13–0.17 µs for the exact
/// phone key and a flat 2.2–3.6 µs (19–23 pair evaluations, nearly all hash
/// lookups) for a q-gram leaf.  So the rule stops where scoring every survivor
/// is cheaper than scanning a single expected list: a lower bound of a
/// consult that scans them all; for a q-gram leaf it is off by at most the
/// flat lookup cost either way — it may consult at 6–23 survivors where
/// scoring them was a microsecond cheaper, and where it stops the survivors
/// number under `estimate / RATIO`.  A performance decision only (a stopped
/// conjunction yields a superset, the rule rejects the extras); linkbench's
/// evaluated pairs, built leaves and candidates per source are identical at
/// 32, 64 and 128 (DESIGN.md).
pub(crate) const PAIR_COST_IN_SCANS: f64 = 64.0;

/// Expected candidates per probe (`Σ len² / Σ len`, min over the built
/// prefix) at or below which a staged build leaves a conjunction's remaining
/// siblings unbuilt.  `planner_cost_calibration` reads the per-entity cost of
/// bulk-building a leaf plus consulting it once, in pair evaluations: 37–75
/// for a q-gram leaf (Restaurant ×20 names 5.6–8.4 µs, Cora titles 7.3–11.6
/// µs, of which the consult is 2.2–3.6 µs, against 113–177 ns per pair), 1–3
/// for a single-key leaf (0.23–0.31 µs).  The siblings still unbuilt are the
/// costlier ones, so the floor sits below the q-gram break-even — building
/// one to cut 16 candidates costs two to five times what scoring them does —
/// and a few evaluations above the single-key one, where a wrong call costs
/// about a microsecond per entity either way.  linkbench's evaluated pairs
/// and built leaves are identical at 8, 16 and 32 (DESIGN.md).
pub(crate) const STAGE_FLOOR: f64 = 16.0;

impl MultiBlockIndex {
    /// Creates an empty index for a plan; entities arrive through
    /// [`MultiBlockIndex::insert`] (the streaming-ingestion entry point).
    pub fn empty(plan: impl Into<Arc<IndexingPlan>>) -> MultiBlockIndex {
        let plan = plan.into();
        let leaves = plan
            .comparisons()
            .iter()
            .map(|_| Arc::new(LeafIndex::default()))
            .collect();
        MultiBlockIndex::from_parts(plan, leaves, 0)
    }

    /// Builds the per-comparison inverted indexes over the target source,
    /// sharded across all available cores.  Transform outputs computed here
    /// are memoized in `cache`.
    pub fn build<'e>(
        plan: impl Into<Arc<IndexingPlan>>,
        target: &'e DataSource,
        cache: &ValueCache<'e>,
    ) -> MultiBlockIndex {
        MultiBlockIndex::build_slice(plan, target.entities(), cache, 0)
    }

    /// Builds the index over an entity slice (positions are slice indices),
    /// sharded across `threads` workers (0 = all cores) — a thin wrapper
    /// collecting references into [`MultiBlockIndex::build_refs`].
    pub fn build_slice<'e>(
        plan: impl Into<Arc<IndexingPlan>>,
        entities: &'e [Entity],
        cache: &ValueCache<'e>,
        threads: usize,
    ) -> MultiBlockIndex {
        let refs: Vec<&'e Entity> = entities.iter().collect();
        MultiBlockIndex::build_refs(plan, &refs, cache, threads)
    }

    /// Builds the index over borrowed entity *references* (positions are
    /// indices into `targets`), every leaf sharded across `threads` workers
    /// ([`sharded_leaf`]) — the common core behind
    /// [`MultiBlockIndex::build_slice`] and owners that keep entities behind
    /// `Arc` slots (the serving `EntityStore`).  The result is **identical**
    /// to a sequential build — same blocks, same posting lists, same
    /// [`LeafBuildStats`] — and to inserting the entities one by one at their
    /// positions.
    pub fn build_refs<'e>(
        plan: impl Into<Arc<IndexingPlan>>,
        targets: &[&'e Entity],
        cache: &ValueCache<'e>,
        threads: usize,
    ) -> MultiBlockIndex {
        let plan = plan.into();
        // Comparisons sharing a leaf reuse key index the targets
        // identically, so each distinct key is built once and the result is
        // Arc-shared by every slot that maps to it.  Duplicate slots stay
        // safe under later insert/remove: `Arc::make_mut` un-shares the leaf
        // on first mutation and each *distinct* leaf is mutated exactly once.
        let mut built: HashMap<LeafKey, Arc<LeafIndex>> = HashMap::new();
        let leaves = plan
            .comparisons()
            .iter()
            .map(|comparison| {
                let build = || {
                    Arc::new(sharded_leaf(targets.len(), threads, |range| {
                        let entries = (range.start as u32..).zip(targets[range].iter().copied());
                        LeafIndex::bulk(comparison, through_cache(comparison, entries, cache))
                    }))
                };
                built
                    .entry(comparison.leaf_reuse_key())
                    .or_insert_with(build)
                    .clone()
            })
            .collect();
        MultiBlockIndex::from_parts(plan, leaves, targets.len())
    }

    /// The one-shot engine's builder: the index of one bound target chunk
    /// (positions are `targets`' list positions, `len` of them), built **in
    /// stages**.  Under an `Intersect`, children are built in ascending order
    /// of index-side keys per entity (mean over the chunk's first ≤ 64
    /// entities — what a stage costs to build and to consult), each stage the
    /// sharded [`LeafIndex::bulk`]; once the built prefix leaves at most
    /// `floor` ([`STAGE_FLOOR`]; negative builds every leaf) expected
    /// candidates per probe, the remaining siblings are not built and are
    /// absent from the executed plan.  `Union` children are always all built.
    /// Lossless for the same reason a query-time stop is: dropping a conjunct
    /// only admits extra candidates.  The decision is a pure function of
    /// (plan, chunk posting statistics) — identical at any thread count, but
    /// free to differ between chunks.
    pub(crate) fn build_staged(
        plan: Arc<IndexingPlan>,
        targets: &BoundSide,
        len: usize,
        threads: usize,
        floor: f64,
    ) -> MultiBlockIndex {
        let mut index = MultiBlockIndex::empty(plan.clone());
        index.target_len = len;
        let mut staging = Staging {
            plan: &plan,
            columns: chain_columns(&plan, targets, |comparison| &comparison.target),
            len,
            threads,
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

    /// Builds the index over *borrowed* target entities through a
    /// [`SharedLeafIndexes`] cache: each comparison's leaf is looked up by
    /// its `(chain hash, measure, bound bucket)` reuse key and only built —
    /// once, then shared by every later rule hitting the same key — on a
    /// miss.  This is active learning's entry point: the rules of a query
    /// committee index one fixed target pool, and — having evolved from one
    /// population — their plans overwhelmingly share comparisons.
    pub fn build_shared<'e>(
        plan: impl Into<Arc<IndexingPlan>>,
        targets: &[&'e Entity],
        cache: &ValueCache<'e>,
        shared: &SharedLeafIndexes,
    ) -> MultiBlockIndex {
        shared.guard_pool(targets);
        let plan = plan.into();
        let leaves = plan
            .comparisons()
            .iter()
            .map(|comparison| shared.leaf_for(comparison, targets, cache))
            .collect();
        MultiBlockIndex::from_parts(plan, leaves, targets.len())
    }

    /// Adds one entity at a target position.  The position must be fresh (or
    /// previously [`MultiBlockIndex::remove`]d); statistics stay exact.
    pub fn insert<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        self.target_len = self.target_len.max(position as usize + 1);
        let mut keys: Vec<BlockKey> = Vec::new();
        for (comparison, leaf) in self.plan.comparisons().iter().zip(&mut self.leaves) {
            entity_keys(comparison, entity, cache, &mut keys);
            Arc::make_mut(leaf).add_entity(&keys, position);
        }
    }

    /// Removes the entity previously inserted at `position`.  The same
    /// entity must be passed back: its block keys are recomputed (through
    /// the shared cache, so usually memoized) to locate its postings.
    pub fn remove<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        let mut keys: Vec<BlockKey> = Vec::new();
        for (comparison, leaf) in self.plan.comparisons().iter().zip(&mut self.leaves) {
            entity_keys(comparison, entity, cache, &mut keys);
            Arc::make_mut(leaf).drop_entity(&keys, position);
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
                blocks: index.by_key.len(),
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
                let index = &self.leaves[*leaf];
                let mut scan = |keys: &[BlockKey]| {
                    for key in keys {
                        if let Some(positions) = index.by_key.get(key) {
                            for &position in positions {
                                if marks.mark_first(position as usize, epoch) {
                                    out.push(position);
                                }
                            }
                        }
                    }
                };
                for group in keys.groups() {
                    if group.may_miss() + 1 < group.units() {
                        // a match hits all but `may_miss` units: whichever
                        // `may_miss + 1` are scanned, one of them is hit
                        for &(_, unit) in cheapest_units(index, &group, unit_costs) {
                            scan(group.unit(unit as usize));
                        }
                    } else {
                        scan(group.keys());
                    }
                }
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
/// in `index`, as `(postings, unit)`: every unit's posting-list lengths are
/// looked up (nothing is scanned) and ranked under the total order
/// `(postings, unit)`.  Which units are picked is a cost decision only — a
/// match hits at least one of *any* `may_miss + 1` — and a pure function of
/// the index contents, so it is the same at every thread count.
fn cheapest_units<'c>(
    index: &LeafIndex,
    group: &ProbeGroup<'_>,
    costs: &'c mut Vec<(usize, u32)>,
) -> &'c [(usize, u32)] {
    costs.clear();
    costs.extend((0..group.units()).map(|unit| {
        let postings = group
            .unit(unit)
            .iter()
            .filter_map(|key| index.by_key.get(key))
            .map(Vec::len)
            .sum::<usize>();
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
        &self.columns[leaf][self.position]
    }
}

/// The values columns of a plan's comparison chains on one bound side, by
/// leaf slot.
pub(crate) type ChainColumns<'b> = Vec<&'b [Arc<[String]>]>;

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
    threads: usize,
    floor: f64,
    /// Leaves built so far, by reuse key: comparisons sharing a key index the
    /// chunk identically, whichever stage asks first.
    built: HashMap<LeafKey, Arc<LeafIndex>>,
}

impl Staging<'_> {
    /// The leaf of plan comparison `slot`, bulk-built (sharded) on first use.
    fn leaf(&mut self, slot: usize) -> Arc<LeafIndex> {
        let plan = self.plan;
        let comparison = &plan.comparisons()[slot];
        let (column, len, threads) = (self.columns[slot], self.len, self.threads);
        self.built
            .entry(comparison.leaf_reuse_key())
            .or_insert_with(|| {
                Arc::new(sharded_leaf(len, threads, |range| {
                    let values = column[range.clone()].iter().map(|values| &**values);
                    LeafIndex::bulk(comparison, (range.start as u32..).zip(values))
                }))
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
                let sample = &self.columns[*leaf][..self.len.min(64)];
                let mut keys: Vec<BlockKey> = Vec::new();
                let mut total = 0usize;
                for values in sample {
                    comparison.index_keys_into(values, &mut keys);
                    total += keys.len();
                }
                total as f64 / sample.len().max(1) as f64
            }
            PlanNode::Intersect(children) | PlanNode::Union(children) => {
                children.iter().map(|c| self.keys_per_entity(c)).sum()
            }
        }
    }
}

/// Pairs each entity with its target-chain values read through `cache` — the
/// per-entity provider of [`LeafIndex::bulk`].
fn through_cache<'a, 'e: 'a>(
    comparison: &'a IndexedComparison,
    entries: impl Iterator<Item = (u32, &'e Entity)> + 'a,
    cache: &'a ValueCache<'e>,
) -> impl Iterator<Item = (u32, ChainValues<'e>)> + 'a {
    entries.map(move |(position, entity)| (position, comparison.target.values(entity, cache)))
}

/// Builds one leaf over positions `0..len`, sharded across `threads` workers
/// (0 = all cores): `over` bulk-builds one contiguous position range into a
/// private leaf, and the per-key posting lists of consecutive ranges
/// concatenate into ascending order — so the merged leaf is **identical** to
/// `over(0..len)`, maps and statistics, at any thread count.
fn sharded_leaf(
    len: usize,
    threads: usize,
    over: impl Fn(Range<usize>) -> LeafIndex + Sync,
) -> LeafIndex {
    let threads = resolve_threads(threads).min(len).max(1);
    if threads <= 1 {
        return over(0..len);
    }
    let shard_size = len.div_ceil(threads);
    let shards: Vec<LeafIndex> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(shard_size)
            .map(|start| {
                let over = &over;
                scope.spawn(move || over(start..(start + shard_size).min(len)))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("index build thread panicked"))
            .collect()
    });
    let mut shards = shards.into_iter();
    let mut merged = shards.next().expect("at least one shard");
    for partial in shards {
        merged.indexed_entities += partial.indexed_entities;
        for (key, list) in partial.by_key {
            merged.by_key.entry(key).or_default().extend(list);
        }
    }
    merged.refresh_estimates();
    merged
}

/// Aggregate statistics of a [`SharedLeafIndexes`] cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeafReuseStats {
    /// Leaf indexes answered from the cache (a whole per-comparison index
    /// build saved).
    pub hits: u64,
    /// Leaf indexes actually built.
    pub misses: u64,
    /// Leaf indexes currently cached.
    pub entries: usize,
}

impl LeafReuseStats {
    /// Fraction of leaf-index requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// The cache key: [`IndexedComparison::leaf_reuse_key`].
pub(crate) type LeafKey = (u64, DistanceFunction, u64);

/// A cache of per-comparison leaf indexes over **one fixed target entity
/// pool**, shared across the rules indexed over it.
///
/// Keyed by [`IndexedComparison::leaf_reuse_key`] — `(target chain hash,
/// measure, bound bucket)` — under which two comparisons are guaranteed to
/// index the pool identically, so every rule whose plan contains e.g.
/// `levenshtein(lowerCase(name)) d≤1` reuses one inverted index instead of
/// rebuilding it per rule.  The cache is *scoped to one entity pool*:
/// callers must [`SharedLeafIndexes::clear`] it (or use a fresh one)
/// whenever the pool changes.  Hit/miss counters are cumulative across
/// clears.
#[derive(Debug, Default)]
pub struct SharedLeafIndexes {
    leaves: Mutex<HashMap<LeafKey, Arc<LeafIndex>>>,
    /// Identity of the target pool the cached leaves index — `(length,
    /// hash of every entity address in order)`, recorded on first use.
    /// Leaf keys carry no pool identity (positions are relative to one
    /// `targets` slice), so reuse against a different — or merely
    /// reordered — pool would silently produce wrong candidates; the stamp
    /// turns that misuse into a panic.
    pool_stamp: Mutex<Option<(usize, u64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedLeafIndexes {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SharedLeafIndexes::default()
    }

    /// Drops every cached leaf index (a pool change — the pool identity is
    /// forgotten together with the leaves).  Counters are cumulative and
    /// survive.
    pub fn clear(&self) {
        self.leaves
            .lock()
            .expect("shared leaf cache poisoned")
            .clear();
        *self.pool_stamp.lock().expect("pool stamp poisoned") = None;
    }

    /// Records the pool on first use and rejects any later use against a
    /// different pool (see `pool_stamp`).  Hashing every address keeps the
    /// check exact for permutations and partial overlaps; the cost is one
    /// pass over the pool per index assembly, dwarfed by the candidate
    /// work that follows.
    fn guard_pool(&self, targets: &[&Entity]) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for entity in targets {
            std::hash::Hash::hash(&(*entity as *const Entity as usize), &mut hasher);
        }
        let stamp = (targets.len(), std::hash::Hasher::finish(&hasher));
        let mut held = self.pool_stamp.lock().expect("pool stamp poisoned");
        match *held {
            None => *held = Some(stamp),
            Some(existing) => assert_eq!(
                existing, stamp,
                "SharedLeafIndexes reused across different target pools; \
                 clear() it (or use a fresh cache) when the pool changes"
            ),
        }
    }

    /// Cumulative hit/miss counters and the current entry count.
    pub fn stats(&self) -> LeafReuseStats {
        LeafReuseStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .leaves
                .lock()
                .expect("shared leaf cache poisoned")
                .len(),
        }
    }

    /// The leaf index of one comparison over the pool, built on first use.
    /// The build runs outside the lock, so concurrent misses on one key may
    /// both build (either result is identical).
    fn leaf_for<'e>(
        &self,
        comparison: &IndexedComparison,
        targets: &[&'e Entity],
        cache: &ValueCache<'e>,
    ) -> Arc<LeafIndex> {
        let key = comparison.leaf_reuse_key();
        if let Some(leaf) = self
            .leaves
            .lock()
            .expect("shared leaf cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return leaf.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entries = (0..).zip(targets.iter().copied());
        let leaf = Arc::new(LeafIndex::bulk(
            comparison,
            through_cache(comparison, entries, cache),
        ));
        self.leaves
            .lock()
            .expect("shared leaf cache poisoned")
            .entry(key)
            .or_insert(leaf)
            .clone()
    }
}

/// Aggregate statistics of a serving [`LeafPool`].
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

impl LeafPoolStats {
    /// Fraction of leaf acquisitions answered without building a leaf —
    /// the serving leaf-share ratio.
    pub fn share_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
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

/// The serving-side leaf pool: one leaf index per distinct reuse key,
/// Arc-shared by every registered rule's [`MultiBlockIndex`], maintained
/// **once** per entity insert/remove instead of once per rule slot.
///
/// Unlike active learning's [`SharedLeafIndexes`] — which is scoped to one
/// immutable target pool and panics when the pool changes — the serving
/// pool owns maintenance: [`LeafPool::insert_entity`] and
/// [`LeafPool::remove_entity`] mutate each distinct leaf exactly once
/// through `Arc::make_mut` (copy-on-write against pinned reader epochs),
/// and the rules' per-slot views are reassembled from the pool's current
/// leaves afterwards.
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
    /// `(position, entity)` entries (sharded across `threads` workers) and
    /// bumping refcounts.  Returns the per-slot leaves plus this
    /// acquisition's `(hits, misses)` — a duplicate key within the plan
    /// counts as a hit from its second slot on.
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
                Arc::new(LeafIndex::bulk(
                    comparison,
                    through_cache(comparison, entries.iter().copied(), cache),
                ))
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

    /// Seeds a **fresh** pool from a just-built index (the construction
    /// path: the build itself stays sharded across entity ranges, which
    /// `acquire_plan`'s per-leaf parallelism cannot match for few-leaf
    /// plans).  Adopts each slot's leaf under its reuse key with a
    /// refcount of one per referencing slot and returns the adoption's
    /// `(hits, misses)` — a within-plan duplicate key counts as a hit from
    /// its second slot on, exactly like `acquire_plan` accounts it.
    pub(crate) fn adopt_index(&mut self, index: &MultiBlockIndex) -> (u64, u64) {
        let (mut hits, mut misses) = (0u64, 0u64);
        for (comparison, leaf) in index.plan.comparisons().iter().zip(&index.leaves) {
            match self.entries.entry(comparison.leaf_reuse_key()) {
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    hits += 1;
                    entry.get_mut().refs += 1;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    misses += 1;
                    slot.insert(PooledLeaf {
                        leaf: leaf.clone(),
                        refs: 1,
                        comparison: comparison.clone(),
                    });
                }
            }
        }
        self.hits += hits;
        self.misses += misses;
        (hits, misses)
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
/// comparison.
fn entity_keys<'e>(
    comparison: &IndexedComparison,
    entity: &'e Entity,
    cache: &ValueCache<'e>,
    keys: &mut Vec<BlockKey>,
) {
    let values = comparison.target.values(entity, cache);
    comparison.index_keys_into(&values, keys);
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
    use linkdisc_entity::DataSourceBuilder;
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
        let index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
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
        let intersected =
            MultiBlockIndex::build(plan(&conjunction, &source, &target), &target, &cache);
        let unioned = MultiBlockIndex::build(plan(&disjunction, &source, &target), &target, &cache);
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
        let index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
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
        let index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
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
        let index = MultiBlockIndex::build(all, &target, &cache);
        assert_eq!(
            index.candidate_positions(&source.entities()[0], &cache),
            vec![0, 1, 2]
        );
        let nothing =
            IndexingPlan::lower(&LinkageRule::empty(), source.schema(), target.schema(), 0.5);
        let index = MultiBlockIndex::build(nothing, &target, &cache);
        assert!(index
            .candidate_positions(&source.entities()[0], &cache)
            .is_empty());
    }

    /// Structural equality of two indexes: same plan shape is assumed, the
    /// leaf maps and statistics must match entry for entry.
    fn assert_same_index(a: &MultiBlockIndex, b: &MultiBlockIndex) {
        assert_eq!(a.target_len(), b.target_len());
        assert_eq!(a.build_stats(), b.build_stats());
        for (la, lb) in a.leaves.iter().zip(&b.leaves) {
            assert_eq!(la.by_key, lb.by_key);
            assert_eq!(la.postings, lb.postings);
            assert_eq!(la.postings_sq, lb.postings_sq);
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
    /// engine's bound columns, active learning's [`SharedLeafIndexes`], and a
    /// serving [`LeafPool`] over a store with tombstone holes — sharded at
    /// 1/2/4 threads, against inserting the same entities one by one: maps,
    /// [`LeafBuildStats`] and `postings_sq`, whichever provider the values
    /// came from.
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

        let targets: Vec<&Entity> = target.entities().iter().collect();
        for threads in [1, 2, 4] {
            let sliced =
                MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, threads);
            assert_same_index(&sliced, &one_by_one);
        }
        // the column provider: every leaf (negative floor) from a bound side
        let compiled =
            linkdisc_rule::CompiledRule::compile(&rule, source.schema(), target.schema());
        let bound = compiled.bind_target(target.entities().iter(), None);
        for threads in [1, 2, 4] {
            let columnar =
                MultiBlockIndex::build_staged(p.clone(), &bound, target.len(), threads, -1.0);
            assert_same_index(&columnar, &one_by_one);
        }
        let shared =
            MultiBlockIndex::build_shared(p.clone(), &targets, &cache, &SharedLeafIndexes::new());
        assert_same_index(&shared, &one_by_one);

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
        for threads in [1, 2, 4] {
            let (leaves, _, misses) =
                LeafPool::new().acquire_plan(&p, &entries, &store_cache, threads);
            assert_eq!(misses, 2);
            let pooled = MultiBlockIndex::from_parts(p.clone(), leaves, store.slot_len());
            assert_same_index(&pooled, &holes);
        }
    }

    #[test]
    fn sharded_build_is_identical_to_sequential() {
        let rule = name_year_rule();
        let (source, target) = (source(), target());
        let p = plan(&rule, &source, &target);
        let cache = ValueCache::new();
        let sequential = MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, 1);
        for threads in [2, 3, 8] {
            let sharded =
                MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, threads);
            assert_same_index(&sequential, &sharded);
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
        let mut index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
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
        let index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
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
    fn shared_leaves_are_reused_across_rules_and_dropped_on_clear() {
        let (source, target) = (source(), target());
        let cache = ValueCache::new();
        let shared = SharedLeafIndexes::new();
        let targets: Vec<&linkdisc_entity::Entity> = target.entities().iter().collect();
        // two different rules sharing the name comparison: the second build
        // must hit the cached name leaf and only build the year leaf
        let name_only: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let first = MultiBlockIndex::build_shared(
            Arc::new(plan(&name_only, &source, &target)),
            &targets,
            &cache,
            &shared,
        );
        assert_eq!(shared.stats().hits, 0);
        assert_eq!(shared.stats().misses, 1);
        let second = MultiBlockIndex::build_shared(
            Arc::new(plan(&name_year_rule(), &source, &target)),
            &targets,
            &cache,
            &shared,
        );
        let stats = shared.stats();
        assert_eq!(stats.hits, 1, "the name leaf is reused");
        assert_eq!(stats.misses, 2, "only the year leaf is new");
        assert_eq!(stats.entries, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // the shared leaf is literally the same allocation
        assert!(Arc::ptr_eq(&first.leaves[0], &second.leaves[0]));
        // a bound in the same Levenshtein budget bucket also hits
        let same_bucket: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            3.0, // bound 1.5, same ⌊bound⌋ = 1 bucket as threshold 2.0
        )
        .into();
        MultiBlockIndex::build_shared(
            Arc::new(plan(&same_bucket, &source, &target)),
            &targets,
            &cache,
            &shared,
        );
        assert_eq!(shared.stats().hits, 2);
        // clear() invalidates: the next build over the pool rebuilds its leaves
        shared.clear();
        assert_eq!(shared.stats().entries, 0);
        MultiBlockIndex::build_shared(
            Arc::new(plan(&name_only, &source, &target)),
            &targets,
            &cache,
            &shared,
        );
        let stats = shared.stats();
        assert_eq!(stats.hits, 2, "cleared leaves cannot be hit");
        assert_eq!(stats.misses, 3);
        // a shared build produces exactly the slice build's candidates
        let reference = MultiBlockIndex::build_slice(
            plan(&name_year_rule(), &source, &target),
            target.entities(),
            &cache,
            1,
        );
        for entity in source.entities() {
            assert_eq!(
                second.candidate_positions(entity, &cache),
                reference.candidate_positions(entity, &cache)
            );
        }
    }

    #[test]
    #[should_panic(expected = "different target pools")]
    fn shared_leaves_reject_a_different_target_pool() {
        let (source, target) = (source(), target());
        let other = DataSourceBuilder::new("C", ["name", "year"])
            .entity("c0", [("name", "rome"), ("year", "0021")])
            .unwrap()
            .build();
        let cache = ValueCache::new();
        let shared = SharedLeafIndexes::new();
        let rule: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let targets: Vec<&linkdisc_entity::Entity> = target.entities().iter().collect();
        MultiBlockIndex::build_shared(
            Arc::new(plan(&rule, &source, &target)),
            &targets,
            &cache,
            &shared,
        );
        // reusing the cache for another entity pool without clear() must
        // panic instead of silently serving wrong positions
        let other_targets: Vec<&linkdisc_entity::Entity> = other.entities().iter().collect();
        MultiBlockIndex::build_shared(
            Arc::new(plan(&rule, &source, &other)),
            &other_targets,
            &cache,
            &shared,
        );
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
        let mut index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
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
    /// shapes × Restaurant and Cora — and the staged build decides the same
    /// at every thread count.
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
                    let bound_target = compiled.bind_target(target.entities().iter(), None);
                    let bound_source = compiled.bind_source(source.entities().iter(), None);
                    let staged = MultiBlockIndex::build_staged(
                        p.clone(),
                        &bound_target,
                        target.len(),
                        1,
                        STAGE_FLOOR,
                    );
                    for threads in [2, 4] {
                        let again = MultiBlockIndex::build_staged(
                            p.clone(),
                            &bound_target,
                            target.len(),
                            threads,
                            STAGE_FLOOR,
                        );
                        assert_eq!(again.root, staged.root);
                        assert_same_index(&again, &staged);
                    }
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
    /// linkdisc-matching --release -- --ignored planner_cost --nocapture` and
    /// transplant the printed ranges into the two constants' docs when key
    /// schemes, kernels or data structures change materially.
    #[test]
    #[ignore = "one-off calibration; run explicitly in release mode"]
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
            let bound_target = compiled.bind_target(target.entities().iter(), None);
            let bound_source = compiled.bind_source(source.entities().iter(), None);
            let build_start = Instant::now();
            let index =
                MultiBlockIndex::build_staged(p.clone(), &bound_target, target.len(), 1, -1.0);
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
                let postings = |keys: &[BlockKey]| {
                    let lists = keys
                        .iter()
                        .filter_map(|key| index.leaves[leaf].by_key.get(key));
                    lists.map(Vec::len).sum::<usize>()
                };
                let mut keys = ProbeKeys::new();
                let mut costs = Vec::new();
                for values in columns[leaf] {
                    comparison.probe_keys_into(values, &mut keys);
                    looked_up += keys.keys().len();
                    any_key += postings(keys.keys());
                    for group in keys.groups() {
                        if group.may_miss() + 1 < group.units() {
                            for &(cost, unit) in
                                cheapest_units(&index.leaves[leaf], &group, &mut costs)
                            {
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
                for values in columns[leaf] {
                    comparison.probe_keys_into(values, &mut keys);
                    let epoch = scratch.marks.next_epoch();
                    let lists = keys.keys().iter();
                    for &position in lists
                        .filter_map(|key| index.leaves[leaf].by_key.get(key))
                        .flatten()
                    {
                        marked += usize::from(scratch.marks.mark_first(position as usize, epoch));
                    }
                }
                let scan_ns = scan_start.elapsed().as_nanos() as f64 / any_key.max(1) as f64;
                assert!(marked <= any_key);
                // (b) bulk-building the leaf from the column
                let bulk_start = Instant::now();
                let rebuilt = LeafIndex::bulk(
                    comparison,
                    (0u32..).zip(targets[leaf].iter().map(|values| &**values)),
                );
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
        let index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
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
