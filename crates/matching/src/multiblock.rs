//! MultiBlock candidate generation: executing an [`IndexingPlan`] over a
//! target data source.
//!
//! The plan (lowered in `linkdisc-rule` from the rule tree) names the
//! comparisons that can prune and how their candidate sets combine.  This
//! module materialises one inverted index per indexed comparison — block key
//! → target positions — and evaluates the plan's set algebra per source
//! entity:
//!
//! * a **leaf** looks up the source entity's block keys and unions the
//!   posting lists,
//! * an **intersection** keeps positions present in every child set,
//!   evaluating its children in ascending order of *estimated* candidate
//!   count (derived from the live posting-list statistics) so the
//!   short-circuit on an empty running set prunes as early as possible,
//! * a **union** merges child sets.
//!
//! All per-query state lives in a [`CandidateScratch`] owned by the calling
//! worker: block-key buffers, an epoch-stamped mark table replacing per-query
//! hash sets, and a pool of position buffers — candidate generation performs
//! no per-entity allocation once the scratch is warm.
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
//! Transform chains are evaluated through the same [`ValueCache`] (and the
//! same structural hashes) as rule evaluation, so a value normalised for
//! indexing is computed once and reused when the rule scores the surviving
//! candidates.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use linkdisc_entity::{DataSource, Entity};
use linkdisc_rule::{IndexedComparison, IndexingPlan, PlanNode, ValueCache};
use linkdisc_similarity::{BlockKey, BlockKeyMap, DistanceFunction, KeySide};
use linkdisc_util::resolve_threads;

use crate::scratch::EpochMarks;

/// Build-time statistics of one indexed comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafBuildStats {
    /// Human-readable comparison description (from the plan).
    pub label: String,
    /// Number of distinct block keys.
    pub blocks: usize,
    /// Total posting-list entries (sum of block sizes).
    pub postings: usize,
    /// Target entities that emitted at least one key.  Entities without keys
    /// (empty or unparseable value sets) can never satisfy this comparison.
    pub indexed_entities: usize,
}

/// One comparison's inverted index: block key → positions in the target
/// source, in ascending order.  The keys are the targets'
/// [`KeySide::Index`] keys; queries look up their [`KeySide::Probe`] keys.
/// `postings` and `postings_sq` (Σ len and Σ len² over posting lists) are
/// maintained incrementally; they drive the selectivity estimates that order
/// intersection children.
///
/// `position_keys` is the transposed sidecar — position → its (sorted) index
/// keys — powering the probe-only intersection tails: once an intersection's
/// running candidate set is small, a remaining leaf child answers "does this
/// position share a key with the query?" per candidate instead of
/// materialising its full candidate set.  The sidecar roughly doubles a
/// leaf's postings storage, so it is only maintained (`sidecar` flag) for
/// leaves a probe can actually reach: direct `Intersect` children in the
/// owning plan, and every *shared* leaf (any plan may reuse those).
#[derive(Debug, Clone)]
pub(crate) struct LeafIndex {
    pub(crate) by_key: BlockKeyMap<Vec<u32>>,
    pub(crate) position_keys: HashMap<u32, Vec<BlockKey>>,
    pub(crate) sidecar: bool,
    pub(crate) indexed_entities: usize,
    pub(crate) postings: usize,
    pub(crate) postings_sq: f64,
}

impl LeafIndex {
    /// Creates an empty leaf, with or without the probe sidecar.
    pub(crate) fn with_sidecar(sidecar: bool) -> Self {
        LeafIndex {
            by_key: BlockKeyMap::default(),
            position_keys: HashMap::new(),
            sidecar,
            indexed_entities: 0,
            postings: 0,
            postings_sq: 0.0,
        }
    }

    /// Builds one comparison's leaf over `(position, entity)` pairs in one
    /// pass — the bulk path behind every batch build: engine slices and the
    /// serving store's first rule (sharded by [`MultiBlockIndex::build_refs`]),
    /// an active-learning committee's [`SharedLeafIndexes`], and a [`LeafPool`]
    /// registration over a store with tombstone holes.
    ///
    /// All `(key, position)` pairs are gathered and sorted once, then each
    /// run of equal keys becomes one exact-capacity posting list; an entity's
    /// sidecar entry is its (already sorted) key buffer, stored once.  The
    /// result is structurally identical to [`LeafIndex::add`]ing the same
    /// postings one by one in any order — maps, statistics and sidecar —
    /// without that path's two map probes, two binary searches and
    /// mid-vector insert per posting.  Positions must be distinct.
    pub(crate) fn bulk<'e>(
        sidecar: bool,
        comparison: &IndexedComparison,
        entries: impl Iterator<Item = (u32, &'e Entity)>,
        cache: &ValueCache<'e>,
    ) -> LeafIndex {
        let mut leaf = LeafIndex::with_sidecar(sidecar);
        let mut keys: Vec<BlockKey> = Vec::new();
        let mut pairs: Vec<(BlockKey, u32)> = Vec::new();
        for (position, entity) in entries {
            entity_keys(comparison, entity, cache, &mut keys);
            if keys.is_empty() {
                continue;
            }
            leaf.indexed_entities += 1;
            pairs.extend(keys.iter().map(|&key| (key, position)));
            if sidecar {
                leaf.position_keys.insert(position, keys.clone());
            }
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

    /// Adds `position` to the posting list of `key`, keeping it sorted — the
    /// incremental path ([`MultiBlockIndex::insert`], [`LeafPool`]
    /// maintenance).
    fn add(&mut self, key: BlockKey, position: u32) {
        let list = self.by_key.entry(key).or_default();
        match list.binary_search(&position) {
            Err(at) => {
                self.postings += 1;
                self.postings_sq += 2.0 * list.len() as f64 + 1.0;
                list.insert(at, position);
                if self.sidecar {
                    let keys = self.position_keys.entry(position).or_default();
                    if let Err(slot) = keys.binary_search(&key) {
                        keys.insert(slot, key);
                    }
                }
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
        if self.sidecar {
            if let Some(keys) = self.position_keys.get_mut(&position) {
                if let Ok(slot) = keys.binary_search(&key) {
                    keys.remove(slot);
                }
                if keys.is_empty() {
                    self.position_keys.remove(&position);
                }
            }
        }
    }

    /// `true` if the position shares at least one block key with the
    /// (sorted) query key set — i.e. the position would appear in this
    /// leaf's materialised candidate set for those keys.
    fn shares_key(&self, position: u32, sorted_query_keys: &[BlockKey]) -> bool {
        self.position_keys.get(&position).is_some_and(|keys| {
            // iterate the (short: index-side) per-position list and binary
            // search the (probe-side) query keys, sorted by `block_keys_into`
            keys.iter()
                .any(|key| sorted_query_keys.binary_search(key).is_ok())
        })
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

    /// Rebuilds the per-position key sidecar from the posting lists (the
    /// snapshot-restore path).  Produces exactly the sidecar an incremental
    /// build maintains: each position's key list, sorted.
    pub(crate) fn rebuild_sidecar(&mut self) {
        self.position_keys.clear();
        if !self.sidecar {
            return;
        }
        for (&key, positions) in &self.by_key {
            for &position in positions {
                self.position_keys.entry(position).or_default().push(key);
            }
        }
        for keys in self.position_keys.values_mut() {
            keys.sort_unstable();
        }
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
    pub(crate) leaves: Vec<Arc<LeafIndex>>,
    target_len: usize,
}

/// Measured cost ratio between **probing** one running candidate through a
/// leaf's per-position key sidecar and **scanning** one posting while
/// materialising the leaf's candidate set.  A probe is a hash lookup plus
/// one binary search per stored (index-side) key of the position over the
/// query's probe-side keys (~120 ns); a posting scan is a sequential read
/// plus an epoch-mark store (~1.6 ns) — the `probe_cost_calibration`
/// microbench (run `cargo test -p linkdisc-matching --release -- --ignored
/// probe_cost`) measures the ratio at ≈75 on a q-gram-shaped leaf (8 stored
/// keys per position against the 24 keys a ±1-neighbour query carries).  The
/// constant sits below the measurement because probes early-exit on their
/// first shared key while the measurement's candidates are miss-dominated (a
/// real tail probes survivors of a selective leaf, mostly true matches);
/// linkbench's `serve_read`, whose rules reach the name leaf only through
/// this tail, reads the same at 50 and 75.  The probe-only intersection tail
/// engages once `|running| · RATIO < estimated candidates`.  The cutoff is a
/// pure performance decision: both paths compute the identical candidate set
/// (pinned by `probe_and_materialise_paths_agree`).
pub(crate) const PROBE_COST_RATIO: f64 = 50.0;

impl MultiBlockIndex {
    /// Creates an empty index for a plan; entities arrive through
    /// [`MultiBlockIndex::insert`] (the streaming-ingestion entry point).
    pub fn empty(plan: impl Into<Arc<IndexingPlan>>) -> MultiBlockIndex {
        let plan = plan.into();
        let leaves = probe_eligible_leaves(&plan)
            .into_iter()
            .map(|eligible| Arc::new(LeafIndex::with_sidecar(eligible)))
            .collect();
        MultiBlockIndex {
            plan,
            leaves,
            target_len: 0,
        }
    }

    /// Builds the per-comparison inverted indexes over the target source,
    /// sharded across all available cores.  Transform outputs computed here
    /// are memoized in `cache` and reused by subsequent rule evaluation.
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
    /// indices into `targets`), sharded across `threads` workers — the
    /// common core behind [`MultiBlockIndex::build_slice`] and owners that
    /// keep entities behind `Arc` slots (the serving `EntityStore`).
    ///
    /// Each worker bulk-builds ([`LeafIndex::bulk`]) one contiguous entity
    /// range into private per-leaf maps; the per-key posting lists of
    /// consecutive ranges concatenate into ascending order, so the merged
    /// index is **identical** to a sequential build — same blocks, same
    /// posting lists, same [`LeafBuildStats`] — and to inserting the entities
    /// one by one at their positions.
    pub fn build_refs<'e>(
        plan: impl Into<Arc<IndexingPlan>>,
        targets: &[&'e Entity],
        cache: &ValueCache<'e>,
        threads: usize,
    ) -> MultiBlockIndex {
        let threads = resolve_threads(threads).min(targets.len()).max(1);
        let plan = plan.into();
        // Comparisons sharing a leaf reuse key index the targets
        // identically, so each distinct key is built once and the result is
        // Arc-shared by every slot that maps to it.  Duplicate slots stay
        // safe under later insert/remove: `Arc::make_mut` un-shares the leaf
        // on first mutation and each *distinct* leaf is mutated exactly once.
        let (representatives, slot_of) = distinct_comparisons(&plan);
        let eligible = probe_eligible_leaves(&plan);
        let mut sidecars = vec![false; representatives.len()];
        for (slot, &at) in slot_of.iter().enumerate() {
            sidecars[at] |= eligible[slot];
        }
        let comparisons: Vec<&IndexedComparison> = representatives
            .iter()
            .map(|&slot| &plan.comparisons()[slot])
            .collect();
        // one leaf per distinct comparison over the range starting at `base`
        let build_range = |range: &[&'e Entity], base: u32| -> Vec<LeafIndex> {
            let entries = || (base..).zip(range.iter().copied());
            comparisons
                .iter()
                .zip(&sidecars)
                .map(|(comparison, &sidecar)| {
                    LeafIndex::bulk(sidecar, comparison, entries(), cache)
                })
                .collect()
        };
        let leaves = if threads <= 1 {
            build_range(targets, 0)
        } else {
            let shard_size = targets.len().div_ceil(threads);
            let mut shards: Vec<Vec<LeafIndex>> = Vec::with_capacity(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .chunks(shard_size)
                    .enumerate()
                    .map(|(shard, chunk)| {
                        let build_range = &build_range;
                        scope.spawn(move || build_range(chunk, (shard * shard_size) as u32))
                    })
                    .collect();
                for handle in handles {
                    shards.push(handle.join().expect("index build thread panicked"));
                }
            });
            merge_shards(shards)
        };
        let distinct: Vec<Arc<LeafIndex>> = leaves.into_iter().map(Arc::new).collect();
        MultiBlockIndex {
            plan,
            leaves: slot_of.iter().map(|&at| distinct[at].clone()).collect(),
            target_len: targets.len(),
        }
    }

    /// A clone with every probe sidecar stripped, so the probe-only
    /// intersection tail can never engage — the reference for pinning that
    /// the cutoff decision does not affect candidate sets.
    #[cfg(test)]
    pub(crate) fn without_sidecars(&self) -> MultiBlockIndex {
        let leaves = self
            .leaves
            .iter()
            .map(|leaf| {
                let mut leaf = (**leaf).clone();
                leaf.sidecar = false;
                leaf.position_keys.clear();
                Arc::new(leaf)
            })
            .collect();
        MultiBlockIndex {
            plan: self.plan.clone(),
            leaves,
            target_len: self.target_len,
        }
    }

    /// Reassembles an index from restored parts (the snapshot codec).  The
    /// caller guarantees the leaves match the plan's comparisons one for
    /// one.
    pub(crate) fn from_parts(
        plan: Arc<IndexingPlan>,
        leaves: Vec<Arc<LeafIndex>>,
        target_len: usize,
    ) -> MultiBlockIndex {
        debug_assert_eq!(plan.comparisons().len(), leaves.len());
        MultiBlockIndex {
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
        MultiBlockIndex {
            plan,
            leaves,
            target_len: targets.len(),
        }
    }

    /// Adds one entity at a target position.  The position must be fresh (or
    /// previously [`MultiBlockIndex::remove`]d); statistics stay exact.
    pub fn insert<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        self.target_len = self.target_len.max(position as usize + 1);
        let mut keys: Vec<BlockKey> = Vec::new();
        for (comparison, index) in self.plan.comparisons().iter().zip(&mut self.leaves) {
            entity_keys(comparison, entity, cache, &mut keys);
            let index = Arc::make_mut(index);
            if !keys.is_empty() {
                index.indexed_entities += 1;
            }
            for &key in &keys {
                index.add(key, position);
            }
        }
    }

    /// Removes the entity previously inserted at `position`.  The same
    /// entity must be passed back: its block keys are recomputed (through
    /// the shared cache, so usually memoized) to locate its postings.
    pub fn remove<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        let mut keys: Vec<BlockKey> = Vec::new();
        for (comparison, index) in self.plan.comparisons().iter().zip(&mut self.leaves) {
            entity_keys(comparison, entity, cache, &mut keys);
            let index = Arc::make_mut(index);
            if !keys.is_empty() {
                index.indexed_entities -= 1;
            }
            for &key in &keys {
                index.drop_posting(key, position);
            }
        }
    }

    /// The plan this index executes.
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
        self.plan
            .comparisons()
            .iter()
            .zip(&self.leaves)
            .map(|(leaf, index)| LeafBuildStats {
                label: leaf.label.clone(),
                blocks: index.by_key.len(),
                postings: index.by_key.values().map(Vec::len).sum(),
                indexed_entities: index.indexed_entities,
            })
            .collect()
    }

    /// Candidate target positions for one source entity, as a pooled buffer
    /// (unsorted, duplicate-free).  Return it via
    /// [`CandidateScratch::recycle`] when done.  `leaf_candidates` (one slot
    /// per indexed comparison) accumulates how many candidates each leaf
    /// contributed (for a leaf answered by the probe-only tail: how many
    /// running candidates survived its probe); pass an empty slice to skip
    /// accounting.
    pub fn candidates<'e>(
        &self,
        source_entity: &'e Entity,
        cache: &ValueCache<'e>,
        scratch: &mut CandidateScratch,
        leaf_candidates: &mut [usize],
    ) -> Vec<u32> {
        scratch.ensure_capacity(self.target_len);
        match self.plan.root() {
            PlanNode::All => {
                let mut out = scratch.take_buf();
                out.extend(0..self.target_len as u32);
                out
            }
            PlanNode::Nothing => scratch.take_buf(),
            node => self.eval(node, source_entity, cache, scratch, leaf_candidates),
        }
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

    fn eval<'e>(
        &self,
        node: &PlanNode,
        entity: &'e Entity,
        cache: &ValueCache<'e>,
        scratch: &mut CandidateScratch,
        leaf_candidates: &mut [usize],
    ) -> Vec<u32> {
        match node {
            // All/Nothing are confined to the root by plan simplification;
            // handle them anyway so eval is total
            PlanNode::All => {
                let mut out = scratch.take_buf();
                out.extend(0..self.target_len as u32);
                out
            }
            PlanNode::Nothing => scratch.take_buf(),
            PlanNode::Leaf(leaf) => {
                let comparison = &self.plan.comparisons()[*leaf];
                let values = comparison.source.values(entity, cache);
                // the key buffer is taken out of the scratch (not borrowed)
                // so the mark table stays mutable below
                let mut keys = std::mem::take(&mut scratch.keys);
                comparison.function.block_keys_into(
                    values.as_slice(),
                    comparison.bound,
                    KeySide::Probe,
                    &mut keys,
                );
                let mut out = scratch.take_buf();
                let epoch = scratch.marks.next_epoch();
                let index = &self.leaves[*leaf];
                for key in &keys {
                    if let Some(positions) = index.by_key.get(key) {
                        for &position in positions {
                            if scratch.marks.mark_first(position as usize, epoch) {
                                out.push(position);
                            }
                        }
                    }
                }
                scratch.keys = keys;
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
                    let buf = self.eval(child, entity, cache, scratch, leaf_candidates);
                    out.extend_from_slice(&buf);
                    scratch.recycle(buf);
                }
                let epoch = scratch.marks.next_epoch();
                out.retain(|&position| scratch.marks.mark_first(position as usize, epoch));
                out
            }
            PlanNode::Intersect(children) => {
                // evaluate the cheapest (estimated) child first: the running
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
                let mut ordered = order.iter().map(|&(_, at)| &children[at as usize]);
                let first = ordered.next().expect("intersections have children");
                let mut out = self.eval(first, entity, cache, scratch, leaf_candidates);
                for child in ordered {
                    if out.is_empty() {
                        // the conjunction is already unsatisfiable; skip the
                        // remaining children entirely
                        break;
                    }
                    // probe-only tail: once probing every survivor ("does
                    // this position share a key?") through the per-position
                    // key sidecar is cheaper than materialising the leaf's
                    // full candidate set — per-item probe cost is
                    // PROBE_COST_RATIO posting scans — e.g. a name leaf
                    // emitting ~150k candidates the phone leaf already cut
                    // to a few hundred
                    if let PlanNode::Leaf(leaf) = child {
                        if self.leaves[*leaf].sidecar
                            && (out.len() as f64) * PROBE_COST_RATIO < self.estimate(child)
                        {
                            self.probe_leaf(*leaf, entity, cache, scratch, &mut out);
                            if let Some(count) = leaf_candidates.get_mut(*leaf) {
                                *count += out.len();
                            }
                            continue;
                        }
                    }
                    let buf = self.eval(child, entity, cache, scratch, leaf_candidates);
                    let epoch = scratch.marks.next_epoch();
                    for &position in &buf {
                        scratch.marks.mark(position as usize, epoch);
                    }
                    out.retain(|&position| scratch.marks.is_marked(position as usize, epoch));
                    scratch.recycle(buf);
                }
                scratch.recycle_order(order);
                out
            }
        }
    }
    /// Filters the running intersection set against one leaf **by probing**:
    /// a position survives iff it shares a block key with the source
    /// entity's keys for that comparison.  Exactly equivalent to
    /// intersecting with the leaf's materialised candidate set (a position
    /// is in that set iff some source key's posting list contains it, iff
    /// the position's own key list intersects the source keys), but costs
    /// `O(|running| · |keys per position| · log |source keys|)` instead of
    /// scanning every posting list.
    fn probe_leaf<'e>(
        &self,
        leaf: usize,
        entity: &'e Entity,
        cache: &ValueCache<'e>,
        scratch: &mut CandidateScratch,
        running: &mut Vec<u32>,
    ) {
        let comparison = &self.plan.comparisons()[leaf];
        let values = comparison.source.values(entity, cache);
        let mut keys = std::mem::take(&mut scratch.keys);
        comparison.function.block_keys_into(
            values.as_slice(),
            comparison.bound,
            KeySide::Probe,
            &mut keys,
        );
        let index = &self.leaves[leaf];
        running.retain(|&position| index.shares_key(position, &keys));
        scratch.keys = keys;
    }
}

/// Merges per-shard partial leaves into the first shard's **in range order**:
/// per-key posting lists are ascending within a shard and shard position
/// ranges are disjoint and increasing, so concatenation keeps every posting
/// list sorted (and the per-position key sidecars are disjoint outright).
fn merge_shards(shards: Vec<Vec<LeafIndex>>) -> Vec<LeafIndex> {
    let mut shards = shards.into_iter();
    let mut leaves = shards
        .next()
        .expect("a sharded build has at least one shard");
    for shard in shards {
        for (merged, partial) in leaves.iter_mut().zip(shard) {
            merged.indexed_entities += partial.indexed_entities;
            for (key, list) in partial.by_key {
                merged.by_key.entry(key).or_default().extend(list);
            }
            merged.position_keys.extend(partial.position_keys);
        }
    }
    for leaf in &mut leaves {
        leaf.refresh_estimates();
    }
    leaves
}

/// Groups a plan's comparison slots by [`IndexedComparison::leaf_reuse_key`]:
/// returns the first slot of each distinct key (in slot order) and, per
/// slot, the index of its distinct representative.
pub(crate) fn distinct_comparisons(plan: &IndexingPlan) -> (Vec<usize>, Vec<usize>) {
    let mut representatives: Vec<usize> = Vec::new();
    let mut slot_of = Vec::with_capacity(plan.comparisons().len());
    let mut by_key: HashMap<LeafKey, usize> = HashMap::new();
    for (slot, comparison) in plan.comparisons().iter().enumerate() {
        let at = *by_key
            .entry(comparison.leaf_reuse_key())
            .or_insert_with(|| {
                representatives.push(slot);
                representatives.len() - 1
            });
        slot_of.push(at);
    }
    (representatives, slot_of)
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
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
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
        let leaf = Arc::new(pool_leaf(comparison, targets, cache));
        self.leaves
            .lock()
            .expect("shared leaf cache poisoned")
            .entry(key)
            .or_insert(leaf)
            .clone()
    }
}

/// Leaf indices the probe-only intersection tail can reach: the direct
/// `Leaf` children of every `Intersect` node.  Only these leaves need the
/// per-position key sidecar; all others skip its build and memory cost.
pub(crate) fn probe_eligible_leaves(plan: &IndexingPlan) -> Vec<bool> {
    fn walk(node: &PlanNode, eligible: &mut [bool]) {
        match node {
            PlanNode::Intersect(children) => {
                for child in children {
                    if let PlanNode::Leaf(leaf) = child {
                        eligible[*leaf] = true;
                    }
                    walk(child, eligible);
                }
            }
            PlanNode::Union(children) => {
                for child in children {
                    walk(child, eligible);
                }
            }
            PlanNode::All | PlanNode::Nothing | PlanNode::Leaf(_) => {}
        }
    }
    let mut eligible = vec![false; plan.comparisons().len()];
    walk(plan.root(), &mut eligible);
    eligible
}

/// Builds one comparison's leaf index over a borrowed target pool (positions
/// are pool indices).  Leaves shared between plans — here and in the serving
/// [`LeafPool`] — always carry the probe sidecar: the cache cannot know
/// whether a later plan will reach the leaf through an intersection.
fn pool_leaf<'e>(
    comparison: &IndexedComparison,
    targets: &[&'e Entity],
    cache: &ValueCache<'e>,
) -> LeafIndex {
    LeafIndex::bulk(true, comparison, (0..).zip(targets.iter().copied()), cache)
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
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
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
                    true,
                    comparison,
                    entries.iter().copied(),
                    cache,
                ))
            });
            for (&comparison, leaf) in pending.iter().zip(built) {
                self.entries.insert(
                    comparison.leaf_reuse_key(),
                    PooledLeaf {
                        leaf,
                        refs: 0,
                        comparison: comparison.clone(),
                    },
                );
            }
        }
        let leaves = plan
            .comparisons()
            .iter()
            .map(|comparison| {
                let entry = self
                    .entries
                    .get_mut(&comparison.leaf_reuse_key())
                    .expect("every key was pooled or scheduled above");
                entry.refs += 1;
                entry.leaf.clone()
            })
            .collect();
        self.hits += hits;
        self.misses += misses;
        (leaves, hits, misses)
    }

    /// Adopts an already-restored leaf (the snapshot codec) under the
    /// comparison's key with a refcount of zero; the [`LeafPool::attach_plan`]
    /// calls that follow establish the counts.
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
            let leaf = Arc::make_mut(&mut entry.leaf);
            if !keys.is_empty() {
                leaf.indexed_entities += 1;
            }
            for &key in &keys {
                leaf.add(key, position);
            }
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
            let leaf = Arc::make_mut(&mut entry.leaf);
            if !keys.is_empty() {
                leaf.indexed_entities -= 1;
            }
            for &key in &keys {
                leaf.drop_posting(key, position);
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
/// comparison ([`KeySide::Index`]).
fn entity_keys<'e>(
    comparison: &IndexedComparison,
    entity: &'e Entity,
    cache: &ValueCache<'e>,
    keys: &mut Vec<BlockKey>,
) {
    let values = comparison.target.values(entity, cache);
    comparison
        .function
        .block_keys_into(values.as_slice(), comparison.bound, KeySide::Index, keys);
}

/// Reusable per-worker state for candidate generation: key buffers, an
/// epoch-stamped mark table (a hash-set replacement that needs no clearing),
/// and pools of position and child-ordering buffers.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    keys: Vec<BlockKey>,
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
    /// leaf maps, probe sidecars and statistics must match entry for entry.
    fn assert_same_index(a: &MultiBlockIndex, b: &MultiBlockIndex) {
        assert_eq!(a.target_len(), b.target_len());
        assert_eq!(a.build_stats(), b.build_stats());
        for (la, lb) in a.leaves.iter().zip(&b.leaves) {
            assert_eq!(la.by_key, lb.by_key);
            assert_eq!(la.sidecar, lb.sidecar);
            assert_eq!(la.position_keys, lb.position_keys);
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

    /// The bulk constructor at all three batch call sites — engine slices,
    /// active learning's [`SharedLeafIndexes`], and a serving [`LeafPool`]
    /// over a store with tombstone holes — sharded at 1/2/4 threads, against
    /// inserting the same entities one by one: maps, [`LeafBuildStats`],
    /// `postings_sq` and sidecars.  Both plan leaves sit under the
    /// intersection, so the incremental index carries sidecars like the
    /// always-sidecar shared and pooled leaves do.
    #[test]
    fn bulk_builds_are_structurally_identical_to_one_by_one_inserts() {
        let (source, target) = (source(), varied_target());
        let p = Arc::new(plan(&name_year_rule(), &source, &target));
        let cache = ValueCache::new();
        let mut one_by_one = MultiBlockIndex::empty(p.clone());
        // descending, so every posting takes the mid-vector insert path
        for (position, entity) in target.entities().iter().enumerate().rev() {
            one_by_one.insert(position as u32, entity, &cache);
        }
        assert!(one_by_one.leaves.iter().all(|leaf| leaf.sidecar));
        assert!(one_by_one.build_stats()[1].indexed_entities < target.len());

        let targets: Vec<&Entity> = target.entities().iter().collect();
        for threads in [1, 2, 4] {
            let sliced =
                MultiBlockIndex::build_slice(p.clone(), target.entities(), &cache, threads);
            assert_same_index(&sliced, &one_by_one);
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

    /// A fixture whose conjunction engages the probe tail: hundreds of
    /// targets share the name-leaf blocks (estimate ≫ running set ×
    /// [`PROBE_COST_RATIO`]) while only three share the query's year
    /// bucket.
    fn probe_fixture() -> DataSource {
        let mut builder = DataSourceBuilder::new("B", ["name", "year"]);
        for i in 0..400 {
            let year = if i < 3 { "1237" } else { "1900" };
            builder = builder
                .entity(format!("b{i}"), [("name", "berlin"), ("year", year)])
                .unwrap();
        }
        builder.build()
    }

    #[test]
    fn probe_only_tail_matches_materialised_intersection() {
        // many targets share the name-leaf blocks, but only a few share the
        // year bucket: after the (selective) year leaf runs, the running set
        // is far below the name leaf's estimate over the calibrated cost
        // ratio and the probe tail engages
        let target = probe_fixture();
        let rule = name_year_rule();
        let source = source();
        let cache = ValueCache::new();
        let index = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
        let a0 = &source.entities()[0];
        assert!(
            3.0 * PROBE_COST_RATIO < index.estimate(&PlanNode::Leaf(0)),
            "fixture must actually reach the probe branch"
        );
        let candidates = index.candidate_positions(a0, &cache);
        assert_eq!(candidates, vec![0, 1, 2], "only the 1237 entities survive");
        // removing a probed entity updates the sidecar consistently
        let mut index = index;
        index.remove(1, &target.entities()[1], &cache);
        assert_eq!(index.candidate_positions(a0, &cache), vec![0, 2]);
        index.insert(1, &target.entities()[1], &cache);
        assert_eq!(index.candidate_positions(a0, &cache), vec![0, 1, 2]);
    }

    #[test]
    fn probe_and_materialise_paths_agree() {
        // the cutoff is a pure performance decision: whatever
        // PROBE_COST_RATIO decides, both paths must produce the identical
        // candidate set.  Force the materialise path by stripping the
        // sidecars (the probe branch requires one) and compare.
        let target = probe_fixture();
        let rule = name_year_rule();
        let source = source();
        let cache = ValueCache::new();
        let probing = MultiBlockIndex::build(plan(&rule, &source, &target), &target, &cache);
        let materialising = probing.without_sidecars();
        for entity in source.entities() {
            assert_eq!(
                probing.candidate_positions(entity, &cache),
                materialising.candidate_positions(entity, &cache)
            );
        }
        // also at the cutoff boundary itself: a query whose running set
        // size sits exactly at estimate / RATIO must agree too (year 1900
        // matches 397 targets, far beyond the probe cutoff)
        let boundary = DataSourceBuilder::new("A", ["name", "year"])
            .entity("a9", [("name", "berlin"), ("year", "1900")])
            .unwrap()
            .build();
        let wide = &boundary.entities()[0];
        assert_eq!(
            probing.candidate_positions(wide, &cache),
            materialising.candidate_positions(wide, &cache)
        );
    }

    /// One-off calibration behind [`PROBE_COST_RATIO`]: measures the
    /// per-item cost of the two ways an `Intersect` can apply a leaf —
    /// scanning its posting lists into the mark table (materialise) versus
    /// probing each running candidate through the key sidecar.  Run with
    /// `cargo test -p linkdisc-matching --release -- --ignored probe_cost`
    /// and transplant the printed ratio into the constant when key schemes
    /// or data structures change materially.
    #[test]
    #[ignore = "one-off calibration; run explicitly in release mode"]
    fn probe_cost_calibration() {
        use std::time::Instant;
        // a synthetic leaf shaped like a q-gram name leaf: 50k positions,
        // ~8 index-side keys per position, block sizes in the hundreds; a
        // query probes three neighbour buckets per gram
        let positions = 50_000u32;
        let keys_per_position = 8u64;
        let blocks = 1_000u64;
        // block ids spread over the 64-bit space like mixed keys are (the
        // leaf map uses the key as its own hash)
        let key = |block: u64| BlockKey::from_raw(block.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut leaf = LeafIndex::with_sidecar(true);
        for position in 0..positions {
            for i in 0..keys_per_position {
                // deterministic pseudo-spread over the blocks
                let block = (position as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i * 0x517c_c1b7_2722_0a95)
                    % blocks;
                leaf.add(key(block), position);
            }
        }
        let mut query_keys: Vec<BlockKey> = (0..3 * keys_per_position).map(key).collect();
        query_keys.sort_unstable();
        let mut marks = EpochMarks::default();
        marks.ensure_capacity(positions as usize);
        let rounds = 200;

        // materialise: scan every posting list of the query keys
        let mut scanned = 0u64;
        let mut out: Vec<u32> = Vec::new();
        let scan_start = Instant::now();
        for _ in 0..rounds {
            out.clear();
            let epoch = marks.next_epoch();
            for key in &query_keys {
                if let Some(list) = leaf.by_key.get(key) {
                    for &position in list {
                        scanned += 1;
                        if marks.mark_first(position as usize, epoch) {
                            out.push(position);
                        }
                    }
                }
            }
        }
        let scan_ns = scan_start.elapsed().as_nanos() as f64 / scanned as f64;

        // probe: ask every candidate whether it shares a key
        let candidates: Vec<u32> = (0..positions).step_by(7).collect();
        let mut probed = 0u64;
        let mut survivors = 0usize;
        let probe_start = Instant::now();
        for _ in 0..rounds {
            for &position in &candidates {
                probed += 1;
                if leaf.shares_key(position, &query_keys) {
                    survivors += 1;
                }
            }
        }
        let probe_ns = probe_start.elapsed().as_nanos() as f64 / probed as f64;

        println!(
            "posting scan: {scan_ns:.2} ns/item ({scanned} scans), probe: {probe_ns:.2} ns/item \
             ({probed} probes, {survivors} survivors) -> measured ratio {:.2} \
             (PROBE_COST_RATIO = {PROBE_COST_RATIO})",
            probe_ns / scan_ns
        );
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
