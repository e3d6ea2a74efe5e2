//! Compiled evaluation plans: the fast path for rule evaluation.
//!
//! [`LinkageRule::evaluate`] walks the operator tree for every entity pair,
//! re-resolving property names against the schema, re-running identical
//! transformation chains and allocating fresh `Vec<String>` buffers per
//! operator per pair.  During learning the same rule is scored against every
//! resolved reference pair, and GP populations are dominated by repeated
//! subexpressions, so almost all of that work is redundant.
//!
//! A [`CompiledRule`] lowers the tree into a schema-resolved node tree once:
//!
//! * property accesses are resolved to integer column indices against the
//!   source/target schemas up front (with a by-name fallback for entities
//!   carrying a different schema),
//! * transformation chains are deduplicated by structural hash; their
//!   outputs are memoized **per entity** in a shared [`ValueCache`] as
//!   `Arc<[String]>` slices so repeated pair evaluations read borrowed
//!   slices with zero per-pair allocation,
//! * distance functions get threshold-aware fast paths: Levenshtein runs the
//!   bit-parallel kernel bounded by the comparison threshold, and
//!   Jaccard/Dice run a linear merge over sorted token-id slices cached next
//!   to the values (tokens are interned process-wide, see [`crate::tokens`]).
//!
//! There is **one evaluator**: every entry point runs the node tree under a
//! requirement `lo`.  Each aggregation's children are ordered cheapest-first
//! by a static cost model, and the requirement is threaded down the tree so
//! a pair stops at the earliest comparison that decides it cannot reach
//! `lo`.  The contract (documented in DESIGN.md and enforced by
//! `tests/tests/bounded_parity.rs`): the returned score `s` always satisfies
//! `exact ≤ s`, and `s ≥ lo` implies `s == exact` bit-for-bit —
//! classification and the scores of *linked* pairs are identical to
//! exhaustive evaluation; only pairs already decided "no link" may carry a
//! different (still sub-threshold) score.  [`CompiledRule::evaluate`] is the
//! same walk at `lo = −∞`, where nothing can be decided early and the score
//! is exact everywhere: **bit-identical** to the tree-walking reference
//! oracle `LinkageRule::evaluate` (enforced by the property-based parity test
//! in `tests/tests/compiled_parity.rs`).
//!
//! The evaluator is generic over **what scores a comparison node** of the
//! pair under evaluation.  Either the comparison's kernel runs on the pair's
//! slot values, which come — one level below — from one of two providers:
//! `(entity, &ValueCache)`, one memo lookup per slot read, for callers that
//! meet each entity a handful of times (the serving path, one-off pairs), or
//! `(`[`BoundSide`]`, position)`, flat per-slot [`ValueColumn`]s filled
//! once per job in one pass over the entities, with no cache in between, for
//! callers that score the same entities once per rule (the matching engine).  Or the distance
//! was measured before: a caller that scores **the same pairs under many
//! rules** (the learner's fitness) keeps one [`DistanceColumn`] per distinct
//! comparison ([`DistanceKey`]) over its pair list in a [`ReferenceColumns`]
//! memo, and a comparison's score is `threshold_similarity(column[pair], θ)`
//! — one division.  One evaluator body either way: same bounded walk, same
//! score bits, same [`EvalStats`].

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use linkdisc_entity::{Entity, EntityPair, PropertyIndex, Schema};
use linkdisc_similarity::{
    dice_ids, jaccard_ids, levenshtein_bounded, threshold_similarity, DistanceFunction,
};
use linkdisc_transform::TransformFunction;

use crate::aggregation::AggregationFunction;
use crate::operators::{SimilarityOperator, ValueOperator};
use crate::rule::LinkageRule;

/// Index of a value slot within a [`CompiledRule`]'s slot table.
type SlotId = usize;

/// A compiled value operator.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// A property access, resolved to a column index against the schema the
    /// plan was compiled for.  `index` is `None` when the property does not
    /// exist in that schema (the value set is empty then).
    Property {
        name: String,
        index: Option<PropertyIndex>,
    },
    /// A transformation over other slots; outputs are memoized per entity.
    Transform {
        function: TransformFunction,
        inputs: Vec<SlotId>,
    },
}

/// One comparison of the plan: two value slots scored with a distance
/// function under a threshold.
#[derive(Debug, Clone)]
struct CompareNode {
    source: SlotId,
    target: SlotId,
    function: DistanceFunction,
    threshold: f64,
    /// Position among the plan's comparisons, in node order: where a caller
    /// scoring from distance columns keeps this comparison's column.
    ordinal: usize,
}

/// One node of the evaluation tree.
#[derive(Debug, Clone)]
enum EvalNode {
    /// Score two value slots with a distance function.
    Compare(CompareNode),
    /// Combine child scores, visiting children cheapest-first.
    Aggregate {
        function: AggregationFunction,
        /// Child node ids in the rule's original order (the order
        /// `WeightedMean` accumulates in).
        children: Vec<usize>,
        /// Raw child weights, original order (`WeightedMean` applies its own
        /// `max(1)` clamp, exactly like [`AggregationFunction::evaluate`]).
        weights: Vec<u32>,
        /// Positions into `children`, sorted cheapest-first by the static
        /// cost model (stable: ties keep the original order).
        visit: Vec<usize>,
        /// `Σ max(weight, 1)` over the children, as used by `WeightedMean`.
        weight_sum: f64,
    },
}

/// Cumulative counters of the score-bounded evaluator.  Callers thread one
/// through `evaluate_bounded_*_stats` and merge per-worker copies upward
/// (`MatchingReport`, `IterationStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Pairs evaluated through the bounded path.
    pub pairs: u64,
    /// The subset of `pairs` that stopped before evaluating every
    /// comparison.
    pub pairs_short_circuited: u64,
    /// Comparison operators actually evaluated.
    pub comparisons_evaluated: u64,
    /// Comparison operators skipped by short-circuiting.
    pub comparisons_skipped: u64,
}

impl EvalStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &EvalStats) {
        self.pairs += other.pairs;
        self.pairs_short_circuited += other.pairs_short_circuited;
        self.comparisons_evaluated += other.comparisons_evaluated;
        self.comparisons_skipped += other.comparisons_skipped;
    }

    /// Fraction of comparisons skipped (`0.0` before any evaluation).
    pub fn skip_rate(&self) -> f64 {
        let total = self.comparisons_evaluated + self.comparisons_skipped;
        if total == 0 {
            0.0
        } else {
            self.comparisons_skipped as f64 / total as f64
        }
    }
}

/// Static relative cost of one comparison, used to order aggregation
/// children cheapest-first.  The constants are coarse measured buckets:
/// equality and numeric parses cost a few nanoseconds, sorted-id token
/// merges tens, the string kernels hundreds —
/// Levenshtein grows with its threshold because the distance must be chased
/// across a wider band of the cross product before the comparison can give
/// up.  Only the *ordering* matters, so coarse buckets are enough.
fn comparison_cost(function: DistanceFunction, threshold: f64) -> f64 {
    match function {
        DistanceFunction::Equality => 1.0,
        DistanceFunction::Numeric => 2.0,
        DistanceFunction::Date => 3.0,
        DistanceFunction::Geographic => 4.0,
        DistanceFunction::Jaccard | DistanceFunction::Dice => 6.0,
        DistanceFunction::Levenshtein => 16.0 + 2.0 * threshold.clamp(0.0, 10.0),
        DistanceFunction::Jaro => 24.0,
        DistanceFunction::JaroWinkler => 26.0,
    }
}

/// One side's slot table, deduplicating structurally identical value
/// operators so a chain appearing under several comparisons is compiled (and
/// later memoized) once.
#[derive(Debug, Default)]
struct SlotTable {
    slots: Vec<Slot>,
    hashes: Vec<u64>,
    by_hash: HashMap<u64, SlotId>,
}

impl SlotTable {
    fn intern(&mut self, operator: &ValueOperator, schema: &Schema) -> SlotId {
        let hash = value_operator_hash(operator);
        if let Some(&id) = self.by_hash.get(&hash) {
            return id;
        }
        let slot = match operator {
            ValueOperator::Property(p) => Slot::Property {
                name: p.property.clone(),
                index: schema.index_of(&p.property),
            },
            ValueOperator::Transformation(t) => {
                let inputs = t
                    .inputs
                    .iter()
                    .map(|input| self.intern(input, schema))
                    .collect();
                Slot::Transform {
                    function: t.function,
                    inputs,
                }
            }
        };
        let id = self.slots.len();
        self.slots.push(slot);
        self.hashes.push(hash);
        self.by_hash.insert(hash, id);
        id
    }
}

/// A schema-resolved table of value slots for one side of a rule, with the
/// evaluation machinery (per-entity memoized transforms, value sets) shared
/// between [`CompiledRule`] and [`CompiledChain`].
#[derive(Debug, Clone)]
pub(crate) struct SlotProgram {
    pub(crate) schema: Arc<Schema>,
    pub(crate) slots: Vec<Slot>,
    /// Structural hash per slot; shared with every [`BoundSide`] the program
    /// binds.
    pub(crate) hashes: Arc<[u64]>,
}

impl SlotProgram {
    /// The column a property slot reads on `entity`: the index resolved at
    /// compile time for entities of the plan's schema, by-name resolution
    /// for an entity following a different one.
    fn property_index(
        &self,
        name: &str,
        index: Option<PropertyIndex>,
        entity: &Entity,
    ) -> Option<PropertyIndex> {
        if Arc::ptr_eq(entity.schema(), &self.schema) {
            index
        } else {
            entity.schema().index_of(name)
        }
    }

    /// The values a property slot reads on `entity`; none where the entity
    /// lacks the property.
    fn property_values<'e>(
        &self,
        name: &str,
        index: Option<PropertyIndex>,
        entity: &'e Entity,
    ) -> &'e [String] {
        match self.property_index(name, index, entity) {
            Some(index) => entity.values_at(index),
            None => &[],
        }
    }

    /// The values of a slot for one entity: a borrowed slice for property
    /// slots, a memoized interned slice for transformation slots.
    fn values<'e>(
        &self,
        slot: SlotId,
        entity: &'e Entity,
        cache: &ValueCache<'e>,
    ) -> ValuesRef<'e> {
        match &self.slots[slot] {
            Slot::Property { name, index } => {
                ValuesRef::Borrowed(self.property_values(name, *index, entity))
            }
            Slot::Transform { .. } => {
                ValuesRef::Interned(cache.values(entity, self.hashes[slot], || {
                    self.compute_transform(slot, entity, cache)
                }))
            }
        }
    }

    /// Computes a transformation slot's output for one entity (cache miss
    /// path); the inputs themselves come through the cache.
    fn compute_transform<'e>(
        &self,
        slot: SlotId,
        entity: &'e Entity,
        cache: &ValueCache<'e>,
    ) -> Vec<String> {
        let Slot::Transform { function, inputs } = &self.slots[slot] else {
            unreachable!("compute_transform is only called for transform slots");
        };
        let resolved: Vec<ValuesRef<'_>> = inputs
            .iter()
            .map(|&input| self.values(input, entity, cache))
            .collect();
        let slices: Vec<&[String]> = resolved.iter().map(|v| v.as_slice()).collect();
        function.apply_slices(&slices)
    }

    /// The sorted token ids of a slot's value set for one entity — the
    /// Jaccard/Dice fast path.  Interning is process-wide (see
    /// [`crate::tokens`]), so ids from the source-side and target-side caches
    /// are directly comparable.
    fn ids<'e>(&self, slot: SlotId, entity: &'e Entity, cache: &ValueCache<'e>) -> Arc<[u32]> {
        cache.token_ids(entity, self.hashes[slot], || {
            self.values(slot, entity, cache).as_slice().to_vec()
        })
    }
}

/// A single compiled value-operator chain: the slot machinery of
/// [`CompiledRule`] for one value operator against one schema.
///
/// The MultiBlock indexing pipeline uses this to apply transformation chains
/// *before* computing block keys, so normalised values block exactly as they
/// evaluate.  Chains are memoized in the same [`ValueCache`] under the same
/// structural hashes as rule evaluation — building the index and evaluating
/// the rule share one transform computation per entity.
#[derive(Debug, Clone)]
pub struct CompiledChain {
    program: SlotProgram,
    root: SlotId,
}

impl CompiledChain {
    /// Compiles a value operator against the schema of the entities it will
    /// be evaluated on.
    pub fn compile(operator: &ValueOperator, schema: &Arc<Schema>) -> Self {
        let mut table = SlotTable::default();
        let root = table.intern(operator, schema);
        CompiledChain {
            program: SlotProgram {
                schema: schema.clone(),
                slots: table.slots,
                hashes: table.hashes.into(),
            },
            root,
        }
    }

    /// The values of the chain for one entity (memoized in `cache` for
    /// transformation chains).
    pub fn values<'e>(&self, entity: &'e Entity, cache: &ValueCache<'e>) -> ChainValues<'e> {
        ChainValues(self.program.values(self.root, entity, cache))
    }

    /// The structural hash of the chain's root value operator — the same
    /// hash [`ValueCache`] memoizes the chain's outputs under, and the chain
    /// component of the shared-leaf-index key: two compiled chains with
    /// equal hashes compute identical values for every entity.
    pub fn structural_hash(&self) -> u64 {
        self.program.hashes[self.root]
    }
}

/// Borrowed-or-interned output of a [`CompiledChain`]; dereferences to the
/// value slice.
pub struct ChainValues<'e>(ValuesRef<'e>);

impl ChainValues<'_> {
    /// The values as a slice.
    pub fn as_slice(&self) -> &[String] {
        self.0.as_slice()
    }
}

impl std::ops::Deref for ChainValues<'_> {
    type Target = [String];

    fn deref(&self) -> &[String] {
        self.as_slice()
    }
}

/// A linkage rule lowered into a schema-resolved evaluation plan.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    source: SlotProgram,
    target: SlotProgram,
    /// The similarity tree in node form, aggregation children ordered
    /// cheapest-first.
    nodes: Vec<EvalNode>,
    root_node: Option<usize>,
    total_comparisons: u32,
    rule_hash: u64,
}

impl CompiledRule {
    /// Compiles a rule against the schemas of the two data sources its
    /// entities will come from.
    pub fn compile(
        rule: &LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
    ) -> Self {
        let mut source_table = SlotTable::default();
        let mut target_table = SlotTable::default();
        let mut nodes = Vec::new();
        let mut root_node = None;
        let mut total_comparisons = 0;
        if let Some(root) = rule.root() {
            let lowered = lower_node(
                root,
                source_schema,
                target_schema,
                &mut source_table,
                &mut target_table,
                &mut nodes,
                &mut total_comparisons,
            );
            root_node = Some(lowered.node);
        }
        CompiledRule {
            source: SlotProgram {
                schema: source_schema.clone(),
                slots: source_table.slots,
                hashes: source_table.hashes.into(),
            },
            target: SlotProgram {
                schema: target_schema.clone(),
                slots: target_table.slots,
                hashes: target_table.hashes.into(),
            },
            nodes,
            root_node,
            total_comparisons,
            rule_hash: rule.canonical_hash(),
        }
    }

    /// The canonical hash of the rule this plan was compiled from (the key
    /// the fitness cache memoizes evaluations under).
    pub fn rule_hash(&self) -> u64 {
        self.rule_hash
    }

    /// The structural hashes of every *target-side* value slot of the plan —
    /// exactly the [`ValueCache`] keys evaluation can create for a target
    /// entity.  A long-lived service evicts `(entity, hash)` pairs for these
    /// hashes when a target entity is removed.
    pub fn target_slot_hashes(&self) -> &[u64] {
        &self.target.hashes
    }

    /// Pre-computes (and memoizes in `cache`) every target-side
    /// transformation chain of the plan for one entity.  A serving writer
    /// warms an entity on ingest so concurrent readers score it from a hot
    /// cache instead of each paying the first-transform cost.
    pub fn warm_target<'e>(&self, entity: &'e Entity, cache: &ValueCache<'e>) {
        for slot in 0..self.target.slots.len() {
            if matches!(self.target.slots[slot], Slot::Transform { .. }) {
                self.target.values(slot, entity, cache);
            }
        }
    }

    /// Evaluates the plan on an entity pair, yielding the same similarity as
    /// [`LinkageRule::evaluate`] on the original rule.
    pub fn evaluate<'e>(&self, pair: &EntityPair<'e>, cache: &ValueCache<'e>) -> f64 {
        // no requirement: nothing can be decided early, the score is exact
        self.evaluate_bounded(pair, cache, f64::NEG_INFINITY)
    }

    /// Number of comparison operators in the plan.
    pub fn comparison_count(&self) -> u32 {
        self.total_comparisons
    }

    /// Score-bounded evaluation against a link threshold: stops at the
    /// earliest comparison that decides the pair cannot reach `threshold`.
    ///
    /// The returned score `s` is an **upper bound** of the exact score, and
    /// whenever `s ≥ threshold` it *is* the exact score bit-for-bit — so
    /// `s ≥ threshold` classifies pairs exactly like exhaustive evaluation,
    /// and every link carries its exact score.  Pairs decided "no link" may
    /// carry a score that differs from the exact one (both sub-threshold).
    pub fn evaluate_bounded<'e>(
        &self,
        pair: &EntityPair<'e>,
        cache: &ValueCache<'e>,
        threshold: f64,
    ) -> f64 {
        self.evaluate_bounded_two(pair.source, pair.target, cache, cache, threshold)
    }

    /// [`CompiledRule::evaluate_bounded`] over a pair whose two sides are
    /// memoized in *separate* caches with independent lifetimes.
    ///
    /// The streaming engine and the serving `LinkService` pair entities of
    /// very different lifetimes: a long-lived source (or a long-lived target
    /// index) against short-lived chunk or query entities.  A single
    /// [`ValueCache`] would force both sides down to the shorter lifetime and
    /// throw away the long side's memo; two caches keep each side memoized
    /// for exactly as long as its entities live.  Scores are bit-identical
    /// to the one-cache call (the caches are pure memos).
    pub fn evaluate_bounded_two<'s, 't>(
        &self,
        source_entity: &'s Entity,
        target_entity: &'t Entity,
        source_cache: &ValueCache<'s>,
        target_cache: &ValueCache<'t>,
        threshold: f64,
    ) -> f64 {
        let mut stats = EvalStats::default();
        self.evaluate_bounded_two_stats(
            source_entity,
            target_entity,
            source_cache,
            target_cache,
            threshold,
            &mut stats,
        )
    }

    /// [`CompiledRule::evaluate_bounded_two`] accumulating short-circuit
    /// counters into `stats`.
    pub fn evaluate_bounded_two_stats<'s, 't>(
        &self,
        source_entity: &'s Entity,
        target_entity: &'t Entity,
        source_cache: &ValueCache<'s>,
        target_cache: &ValueCache<'t>,
        threshold: f64,
        stats: &mut EvalStats,
    ) -> f64 {
        self.evaluate_from(
            (
                Memoized {
                    entity: source_entity,
                    cache: source_cache,
                },
                Memoized {
                    entity: target_entity,
                    cache: target_cache,
                },
            ),
            threshold,
            stats,
        )
    }

    /// Binds the plan's source side to a list of entities: one
    /// [`ValueColumn`] per slot a comparison reads, holding the slot's values
    /// (and sorted token ids, for Jaccard/Dice) of every entity by list
    /// position.
    ///
    /// Binding is the once-per-job half of evaluation, and it walks the list
    /// **once**: per entity, every transformation cell the reads need is
    /// computed in slot-table order — inputs before outputs — by one
    /// [`TransformFunction::apply_into`] appending to its column's flat cell
    /// buffer, and the token-id cells beside them under one interner lock
    /// per cell.  A property only a transformation reads is read off the
    /// entity and never materialised; a property a comparison reads keeps the
    /// entity's own shared slice.  So an `(entity, slot)` costs its
    /// transformation and one allocation per output value: no hash, no
    /// memo lock.  [`CompiledRule::evaluate_bound_stats`] then reads plain
    /// slices per pair.  The result owns its columns and borrows nothing.
    /// Memory: one `u32` offset per (read slot, entity) plus the transformed
    /// values — a property read directly costs a 16-byte shared pointer per
    /// entity instead.
    pub fn bind_source<'e, I>(&self, entities: I) -> BoundSide
    where
        I: Iterator<Item = &'e Entity> + Clone,
    {
        self.source
            .bind(self.reads(|source, _| source), entities, None)
    }

    /// [`CompiledRule::bind_source`] for the target side.
    pub fn bind_target<'e, I>(&self, entities: I) -> BoundSide
    where
        I: Iterator<Item = &'e Entity> + Clone,
    {
        self.target
            .bind(self.reads(|_, target| target), entities, None)
    }

    /// The slots one side's comparisons read — `side` picks it from a
    /// comparison's `(source, target)` slots — each with whether it is read
    /// as token ids.  Repeats are possible.
    fn reads(
        &self,
        side: fn(SlotId, SlotId) -> SlotId,
    ) -> impl Iterator<Item = (SlotId, bool)> + '_ {
        self.comparisons()
            .map(move |c| (side(c.source, c.target), reads_token_ids(c.function)))
    }

    /// The plan's comparisons, in [`CompareNode::ordinal`] order.
    fn comparisons(&self) -> impl Iterator<Item = &CompareNode> + '_ {
        self.nodes.iter().filter_map(|node| match node {
            EvalNode::Compare(comparison) => Some(comparison),
            EvalNode::Aggregate { .. } => None,
        })
    }

    /// [`CompiledRule::evaluate_bounded_two_stats`] over two bound sides, by
    /// position: same evaluator, same score bits, same counters — only the
    /// slot values come from the columns instead of the cache.  The sides
    /// must have been bound by this plan (or one compiled from an equal
    /// rule against the same schemas).
    pub fn evaluate_bound_stats(
        &self,
        source: &BoundSide,
        source_position: usize,
        target: &BoundSide,
        target_position: usize,
        threshold: f64,
        stats: &mut EvalStats,
    ) -> f64 {
        self.evaluate_from(
            (
                Positioned {
                    side: source,
                    position: source_position,
                },
                Positioned {
                    side: target,
                    position: target_position,
                },
            ),
            threshold,
            stats,
        )
    }

    /// What each comparison's distance column is a function of, in
    /// comparison order — the order [`ReferenceColumns::measure`] and
    /// [`CompiledRule::evaluate_columns_stats`] number comparisons in.
    pub fn distance_keys(&self) -> impl Iterator<Item = DistanceKey> + '_ {
        self.comparisons().map(|c| DistanceKey {
            source_chain: self.source.hashes[c.source],
            target_chain: self.target.hashes[c.target],
            function: c.function,
            band: column_band(c.function, c.threshold),
        })
    }

    /// [`CompiledRule::evaluate_bound_stats`] for pair number `pair` of the
    /// list `columns` were measured over: same evaluator, same score bits,
    /// same counters — a comparison's score is one division over its
    /// column's cell instead of a kernel call.  `columns[n]` must be the
    /// column of the plan's `n`-th [`CompiledRule::distance_keys`] entry.
    pub fn evaluate_columns_stats(
        &self,
        columns: &[DistanceColumn],
        pair: usize,
        threshold: f64,
        stats: &mut EvalStats,
    ) -> f64 {
        self.evaluate_from(Measured { columns, pair }, threshold, stats)
    }

    /// The one evaluator entry: runs the node tree under `threshold`, each
    /// comparison node scored by `scores`.
    fn evaluate_from<C: ComparisonScores>(
        &self,
        scores: C,
        threshold: f64,
        stats: &mut EvalStats,
    ) -> f64 {
        let Some(root) = self.root_node else {
            return 0.0;
        };
        let mut evaluated = 0u32;
        // the arena is borrowed out of the per-thread scratch for the whole
        // recursion (comparison kernels never touch it); it returns empty
        // but with its capacity intact, so warm evaluation allocates nothing
        let mut arena = WMEAN_ARENA.with(|arena| std::mem::take(&mut *arena.borrow_mut()));
        let score = self.eval_node(root, threshold, scores, &mut arena, &mut evaluated);
        debug_assert!(arena.is_empty(), "every weighted mean truncates its frame");
        WMEAN_ARENA.with(|slot| *slot.borrow_mut() = arena);
        stats.pairs += 1;
        stats.comparisons_evaluated += u64::from(evaluated);
        let skipped = self.total_comparisons - evaluated;
        stats.comparisons_skipped += u64::from(skipped);
        if skipped > 0 {
            stats.pairs_short_circuited += 1;
        }
        score.clamp(0.0, 1.0)
    }

    /// Evaluates one node under the requirement `lo`.
    ///
    /// Invariants (the basis of the bounded-evaluation contract):
    /// * the returned value is `≥` the node's exact score (upper bound),
    /// * if the returned value is `≥ lo`, it **equals** the exact score
    ///   bit-for-bit (`WeightedMean` replays its accumulation in the
    ///   original child order to guarantee this).
    ///
    /// Passing `lo = f64::NEG_INFINITY` leaves nothing to decide early and
    /// reproduces the exhaustive result everywhere.
    fn eval_node<C: ComparisonScores>(
        &self,
        node: usize,
        lo: f64,
        scores: C,
        arena: &mut Vec<f64>,
        evaluated: &mut u32,
    ) -> f64 {
        match &self.nodes[node] {
            EvalNode::Compare(comparison) => {
                *evaluated += 1;
                scores.score(self, comparison)
            }
            EvalNode::Aggregate {
                function,
                children,
                weights,
                visit,
                weight_sum,
            } => {
                if children.is_empty() {
                    return 0.0;
                }
                match function {
                    AggregationFunction::Min => {
                        let mut worst = f64::MAX;
                        for &pos in visit {
                            let child = self.eval_node(children[pos], lo, scores, arena, evaluated);
                            if child < lo {
                                // the child's value is an upper bound of its
                                // exact score, so the min is provably < lo
                                return child;
                            }
                            worst = worst.min(child);
                        }
                        worst
                    }
                    AggregationFunction::Max => {
                        // children only need to beat the best score so far;
                        // taking the max over every *returned* value (pruned
                        // children return upper bounds) preserves the
                        // upper-bound invariant, and whenever the result is
                        // ≥ lo it came from an exactly-evaluated child that
                        // dominates all other upper bounds — exact.
                        let mut best = f64::MIN;
                        for &pos in visit {
                            let requirement = lo.max(best);
                            let child = self.eval_node(
                                children[pos],
                                requirement,
                                scores,
                                arena,
                                evaluated,
                            );
                            if child > best {
                                best = child;
                            }
                            if best >= 1.0 {
                                // a perfect score cannot be beaten
                                break;
                            }
                        }
                        best
                    }
                    AggregationFunction::WeightedMean => self.eval_weighted_mean(
                        children,
                        weights,
                        visit,
                        *weight_sum,
                        lo,
                        scores,
                        arena,
                        evaluated,
                    ),
                }
            }
        }
    }

    /// `WeightedMean` under requirement `lo`: each child's requirement is
    /// derived by assuming every not-yet-visited child scores a perfect 1.0
    /// (the PR 2 index algebra, reused at evaluation time).  A small slack
    /// keeps floating-point round-off from ever pruning a pair an exact
    /// evaluation would link; if the slack check itself is inconclusive, the
    /// child is re-evaluated exactly and the loop continues.
    #[allow(clippy::too_many_arguments)]
    fn eval_weighted_mean<C: ComparisonScores>(
        &self,
        children: &[usize],
        weights: &[u32],
        visit: &[usize],
        weight_sum: f64,
        lo: f64,
        scores: C,
        arena: &mut Vec<f64>,
        evaluated: &mut u32,
    ) -> f64 {
        // fp guard: requirements are derived against `lo − SLACK`, so a prune
        // implies the mean is below `lo` by at least SLACK — far above any
        // round-off the two accumulation orders can disagree by — and a pair
        // whose exact mean ties the threshold is never misclassified
        const SLACK: f64 = 1e-9;
        let slack_lo = lo - SLACK;
        let base = arena.len();
        arena.resize(base + children.len(), 0.0);
        // Σ weight·score over visited children (visit order — only used for
        // bound derivations; the exact result is replayed in original order)
        let mut accumulated = 0.0f64;
        // Σ weight over not-yet-visited children
        let mut remaining = weight_sum;
        for &pos in visit {
            let weight = weights[pos].max(1) as f64;
            remaining -= weight;
            // requirement: accumulated + weight·c + remaining ≥ (lo−SLACK)·Σw
            let requirement = (slack_lo * weight_sum - accumulated - remaining) / weight;
            let mut child = if requirement > 1.0 {
                // even a perfect child cannot reach lo — skip the subtree
                // and let the guard below confirm the bound
                1.0
            } else {
                self.eval_node(children[pos], requirement, scores, arena, evaluated)
            };
            if requirement > 1.0 || child < requirement {
                // child below requirement ⇒ the mean is below lo − SLACK even
                // if every unvisited child scores a perfect 1.0
                let upper_bound = (accumulated + weight * child + remaining) / weight_sum;
                if upper_bound < lo {
                    arena.truncate(base);
                    return upper_bound;
                }
                // inconclusive fp edge: fall back to the exact child value
                child = self.eval_node(children[pos], f64::NEG_INFINITY, scores, arena, evaluated);
            }
            arena[base + pos] = child;
            accumulated += weight * child;
        }
        // replay the accumulation in the rule's original child order so the
        // floating-point result is bit-identical to the exhaustive fold
        let result = AggregationFunction::WeightedMean.evaluate(&arena[base..], weights);
        arena.truncate(base);
        result
    }

    fn comparison_score<S: SlotValues, T: SlotValues>(
        &self,
        comparison: &CompareNode,
        source: S,
        target: T,
    ) -> f64 {
        let CompareNode {
            function,
            threshold,
            ..
        } = *comparison;
        if reads_token_ids(function) {
            let a = source.ids(&self.source, comparison.source);
            let b = target.ids(&self.target, comparison.target);
            // the tree walk reports "unmeasurable" before ever reaching
            // the set measure when either side is empty
            if a.is_empty() || b.is_empty() {
                return 0.0;
            }
            // size bound: the intersection is at most the smaller set and
            // the union at least the larger, so the distance is at least
            // this — if even that is past the threshold, the similarity
            // is exactly 0 and the merge can be skipped (division is
            // correctly rounded and monotone, so the bound never
            // overshoots the true distance)
            let (small, large) = if a.len() <= b.len() {
                (a.len(), b.len())
            } else {
                (b.len(), a.len())
            };
            let best_distance = match function {
                DistanceFunction::Jaccard => 1.0 - small as f64 / large as f64,
                _ => 1.0 - 2.0 * small as f64 / (a.len() + b.len()) as f64,
            };
            if threshold_similarity(best_distance, threshold) == 0.0 {
                return 0.0;
            }
            return threshold_similarity(set_distance(function, &a, &b), threshold);
        }
        let a = source.values(&self.source, comparison.source);
        let b = target.values(&self.target, comparison.target);
        match function {
            DistanceFunction::Levenshtein => threshold_similarity(
                levenshtein_distance(&a, &b, levenshtein_band(threshold)),
                threshold,
            ),
            _ => function.similarity(&a, &b, threshold),
        }
    }

    /// The distance [`CompiledRule::comparison_score`] would turn into a
    /// score, for *every* threshold sharing `band` (the comparison's
    /// [`column_band`]): no shortcut that depends on the threshold is taken —
    /// each of them returns 0 only where [`threshold_similarity`] of the
    /// distance returned here is 0 too.
    fn comparison_distance<S: SlotValues, T: SlotValues>(
        &self,
        comparison: &CompareNode,
        band: Option<usize>,
        source: S,
        target: T,
    ) -> f64 {
        let function = comparison.function;
        if reads_token_ids(function) {
            let a = source.ids(&self.source, comparison.source);
            let b = target.ids(&self.target, comparison.target);
            if a.is_empty() || b.is_empty() {
                return f64::INFINITY;
            }
            return set_distance(function, &a, &b);
        }
        let a = source.values(&self.source, comparison.source);
        let b = target.values(&self.target, comparison.target);
        match band {
            Some(band) => levenshtein_distance(&a, &b, band),
            None => function.evaluate(&a, &b),
        }
    }
}

/// Whether a comparison reads its slots as sorted token ids (the set
/// measures) rather than as value slices.
fn reads_token_ids(function: DistanceFunction) -> bool {
    matches!(function, DistanceFunction::Jaccard | DistanceFunction::Dice)
}

/// The set measure `function` (see [`reads_token_ids`]) over two non-empty
/// sorted token-id slices.
fn set_distance(function: DistanceFunction, a: &[u32], b: &[u32]) -> f64 {
    match function {
        DistanceFunction::Jaccard => jaccard_ids(a, b),
        _ => dice_ids(a, b),
    }
}

/// What scores comparison node *n* of the pair under evaluation — the one
/// thing the evaluator is generic over.
trait ComparisonScores: Copy {
    fn score(self, rule: &CompiledRule, comparison: &CompareNode) -> f64;
}

/// The pair's two sides as slot values: a comparison is measured by its
/// kernel, [`CompiledRule::comparison_score`].
impl<S: SlotValues, T: SlotValues> ComparisonScores for (S, T) {
    #[inline(always)]
    fn score(self, rule: &CompiledRule, comparison: &CompareNode) -> f64 {
        rule.comparison_score(comparison, self.0, self.1)
    }
}

/// Pair number `pair` of the list `columns` were measured over (see
/// [`ReferenceColumns::measure`]): a comparison is one division over its
/// column's cell.
#[derive(Clone, Copy)]
struct Measured<'c> {
    columns: &'c [DistanceColumn],
    pair: usize,
}

impl ComparisonScores for Measured<'_> {
    #[inline]
    fn score(self, _rule: &CompiledRule, comparison: &CompareNode) -> f64 {
        threshold_similarity(
            self.columns[comparison.ordinal][self.pair],
            comparison.threshold,
        )
    }
}

/// Where one side of a pair gets its slot values from — what a comparison's
/// kernel path is generic over, one level below [`ComparisonScores`].
trait SlotValues: Copy {
    type Values: std::ops::Deref<Target = [String]>;
    type Ids: std::ops::Deref<Target = [u32]>;

    /// The values of a slot.
    fn values(self, program: &SlotProgram, slot: SlotId) -> Self::Values;

    /// The sorted token ids of a slot's value set.
    fn ids(self, program: &SlotProgram, slot: SlotId) -> Self::Ids;
}

/// An entity read through its [`ValueCache`]: one memo lookup per slot read.
#[derive(Clone, Copy)]
struct Memoized<'c, 'e> {
    entity: &'e Entity,
    cache: &'c ValueCache<'e>,
}

impl<'e> SlotValues for Memoized<'_, 'e> {
    type Values = ValuesRef<'e>;
    type Ids = Arc<[u32]>;

    fn values(self, program: &SlotProgram, slot: SlotId) -> ValuesRef<'e> {
        program.values(slot, self.entity, self.cache)
    }

    fn ids(self, program: &SlotProgram, slot: SlotId) -> Arc<[u32]> {
        program.ids(slot, self.entity, self.cache)
    }
}

/// One position of a [`BoundSide`]: a slot read is an indexing and a cell
/// read.
#[derive(Clone, Copy)]
struct Positioned<'b> {
    side: &'b BoundSide,
    position: usize,
}

impl<'b> SlotValues for Positioned<'b> {
    type Values = &'b [String];
    type Ids = &'b [u32];

    fn values(self, _program: &SlotProgram, slot: SlotId) -> &'b [String] {
        self.side.values[slot]
            .as_ref()
            .expect("side bound by the plan that evaluates it")
            .cell(self.position)
    }

    fn ids(self, _program: &SlotProgram, slot: SlotId) -> &'b [u32] {
        self.side.ids[slot]
            .as_ref()
            .expect("side bound by the plan that evaluates it")
            .cell(self.position)
    }
}

/// One slot's cells for every entity of a bound list, by list position: the
/// slot's values (`C = String`) or their sorted token ids (`C = u32`).
#[derive(Debug)]
pub struct ValueColumn<C>(Cells<C>);

/// How a [`ValueColumn`] holds its cells; both read through
/// [`ValueColumn::cell`].
#[derive(Debug)]
enum Cells<C> {
    /// Every cell back to back: cell `i` is `items[offsets[i]..offsets[i +
    /// 1]]`.  A transformation's column, and every token-id column.
    Flat {
        items: Box<[C]>,
        offsets: Box<[u32]>,
    },
    /// Each entity's own shared slice: a property column a comparison reads,
    /// zero-copy.
    Shared(Box<[Arc<[C]>]>),
}

impl<C> ValueColumn<C> {
    /// Number of cells: the bound list's length.
    pub fn len(&self) -> usize {
        match &self.0 {
            Cells::Flat { offsets, .. } => offsets.len() - 1,
            Cells::Shared(cells) => cells.len(),
        }
    }

    /// Returns `true` for a column over no entities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell of the entity at list position `position`.
    pub fn cell(&self, position: usize) -> &[C] {
        match &self.0 {
            Cells::Flat { items, offsets } => {
                &items[offsets[position] as usize..offsets[position + 1] as usize]
            }
            Cells::Shared(cells) => &cells[position],
        }
    }

    /// The cells in list order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[C]> + '_ {
        (0..self.len()).map(|position| self.cell(position))
    }
}

/// A flat [`ValueColumn`] being filled, one cell per entity in list order.
struct FlatColumn<C> {
    items: Vec<C>,
    offsets: Vec<u32>,
}

impl<C> FlatColumn<C> {
    /// Room for `len` cells of one item each.
    fn with_capacity(len: usize) -> Self {
        let mut offsets = Vec::with_capacity(len + 1);
        offsets.push(0);
        FlatColumn {
            items: Vec::with_capacity(len),
            offsets,
        }
    }

    /// Closes the next cell over the items appended since the last one.
    fn close_cell(&mut self) {
        let end =
            u32::try_from(self.items.len()).expect("a bound column exceeds the u32 cell space");
        self.offsets.push(end);
    }

    /// The cell closed last.
    fn last_cell(&self) -> &[C] {
        let [.., start, end] = self.offsets[..] else {
            unreachable!("read after its cell was closed")
        };
        &self.items[start as usize..end as usize]
    }
}

/// One side of a [`CompiledRule`] bound to a list of entities (see
/// [`CompiledRule::bind_source`]): per slot a comparison reads, a column of
/// that slot's values by list position — and, beside it, of their sorted
/// token ids where a Jaccard/Dice comparison reads the slot.
#[derive(Debug, Clone)]
pub struct BoundSide {
    /// The binding program's structural hash per slot.
    hashes: Arc<[u64]>,
    /// By slot; `Some` for the slots a comparison reads.
    values: Vec<Option<Arc<ValueColumn<String>>>>,
    /// By slot; `Some` for the slots a Jaccard/Dice comparison reads.
    ids: Vec<Option<Arc<ValueColumn<u32>>>>,
}

impl BoundSide {
    /// The values column of the chain with this structural hash (see
    /// [`CompiledChain::structural_hash`]), by list position — `Some` for
    /// every chain a comparison of the binding rule reads on this side, which
    /// is how candidate generation indexes and probes from the very values
    /// the rule will score.
    pub fn values_of(&self, chain_hash: u64) -> Option<&ValueColumn<String>> {
        let slot = self.hashes.iter().position(|&hash| hash == chain_hash)?;
        self.values[slot].as_deref()
    }
}

/// One comparison's distances over a fixed list of pairs, by pair number (see
/// [`ReferenceColumns::measure`]).
pub type DistanceColumn = Arc<[f64]>;

/// What a [`DistanceColumn`] over a fixed pair list is a function of: the two
/// chains compared (by structural hash), the measure,
/// and — Levenshtein only — the band it was measured under (`None`:
/// unbanded).  Not the threshold and not the weight: rules that differ only
/// in those share the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DistanceKey {
    source_chain: u64,
    target_chain: u64,
    function: DistanceFunction,
    band: Option<usize>,
}

/// Which side of a [`ReferenceColumns`] pool a value column belongs to:
/// `SOURCE` or `TARGET`, the first half of a value column's memo key.
type Side = usize;
const SOURCE: Side = 0;
const TARGET: Side = 1;
/// Value or token-id columns of a pool by `(side, chain hash)`.
type ColumnMap<C> = HashMap<(Side, u64), Arc<ValueColumn<C>>>;

/// Every column a learner computes over **one fixed reference pool**: the
/// pool's distinct source and target entities, its pairs as positions into
/// them, and one memo of three column kinds over those lists —
///
/// * **value columns** per side by chain hash, intermediate transformations
///   included — a property only a transformation reads is never held,
/// * **token-id columns** beside them, for the chains a Jaccard/Dice
///   comparison reads,
/// * **distance columns** over the pairs by [`DistanceKey`].
///
/// A learning run scores every rule of every generation on the same pairs,
/// and GenLink's specialised crossover changes one aspect of a rule at a
/// time, so almost every comparison of an offspring was measured under its
/// parents, and a chain appearing anywhere in the population is transformed
/// once per entity.  The memo is pure — a column is a function of the pool
/// and its key, and the pool cannot change — and bounded: an insert that
/// would take it past its cell cap drops every column of every kind first
/// (rules already prepared keep theirs).  One lock guards all of it; columns
/// are computed outside it, so concurrent misses on one key compute equal
/// columns twice.
#[derive(Debug)]
pub struct ReferenceColumns<'e> {
    sources: Vec<&'e Entity>,
    targets: Vec<&'e Entity>,
    pairs: Vec<(u32, u32)>,
    cell_cap: usize,
    memo: Mutex<Memo>,
}

/// What a [`ReferenceColumns`] holds, behind its one lock.
#[derive(Debug, Default)]
struct Memo {
    values: ColumnMap<String>,
    ids: ColumnMap<u32>,
    distances: HashMap<DistanceKey, DistanceColumn>,
    /// Cells held across the three maps.
    cells: usize,
    values_computed: u64,
    /// Distance columns requested: hits are requests less misses.
    distance_requests: u64,
    distance_misses: u64,
    drops: u64,
}

/// Counters of a [`ReferenceColumns`] memo, cumulative across drops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Value and token-id columns computed — again after a drop.
    pub values_computed: u64,
    /// Value and token-id columns held now.
    pub values_held: usize,
    /// Distance-column requests answered from the memo.
    pub distance_hits: u64,
    /// Distance columns measured.
    pub distance_misses: u64,
    /// Times the memo was dropped wholesale.
    pub drops: u64,
}

impl Memo {
    /// Memoizes `column` of `cells` cells under `key` in `map`, dropping
    /// everything first if the cap would be passed; returns the held column
    /// (an equal one, had a concurrent miss got there first).
    fn insert<K: Hash + Eq, V: Clone>(
        &mut self,
        map: fn(&mut Memo) -> &mut HashMap<K, V>,
        key: K,
        column: V,
        cells: usize,
        cell_cap: usize,
    ) -> V {
        if let Some(held) = map(self).get(&key) {
            return held.clone();
        }
        if self.cells + cells > cell_cap {
            self.values.clear();
            self.ids.clear();
            self.distances.clear();
            self.cells = 0;
            self.drops += 1;
        }
        self.cells += cells;
        map(self).insert(key, column.clone());
        column
    }
}

impl<'e> ReferenceColumns<'e> {
    /// The default cell cap: value, token-id and distance cells together —
    /// a `u32` offset, a property's 16-byte shared pointer or an `f64`, so
    /// at most 16 bytes each before the transformed values and token ids.
    pub const CELLS: usize = 1 << 22;

    /// A pool over `pairs` (in order; each side's entities are deduplicated
    /// by address, in first-seen order) whose memo holds up to `cell_cap`
    /// cells ([`ReferenceColumns::CELLS`] unless a test forces drops).
    pub fn new(pairs: impl IntoIterator<Item = (&'e Entity, &'e Entity)>, cell_cap: usize) -> Self {
        /// Position of `entity` in `list`, appended on first sight.
        fn position<'e>(
            entity: &'e Entity,
            list: &mut Vec<&'e Entity>,
            positions: &mut HashMap<usize, u32>,
        ) -> u32 {
            *positions
                .entry(entity as *const Entity as usize)
                .or_insert_with(|| {
                    list.push(entity);
                    (list.len() - 1) as u32
                })
        }
        let (mut sources, mut targets) = (Vec::new(), Vec::new());
        let (mut source_positions, mut target_positions) = (HashMap::new(), HashMap::new());
        let pairs = pairs
            .into_iter()
            .map(|(source, target)| {
                (
                    position(source, &mut sources, &mut source_positions),
                    position(target, &mut targets, &mut target_positions),
                )
            })
            .collect();
        ReferenceColumns {
            sources,
            targets,
            pairs,
            cell_cap,
            memo: Mutex::default(),
        }
    }

    /// The pool's distinct source entities, in first-seen order.
    pub fn sources(&self) -> &[&'e Entity] {
        &self.sources
    }

    /// The pool's distinct target entities, in first-seen order.
    pub fn targets(&self) -> &[&'e Entity] {
        &self.targets
    }

    /// The pairs, in the order given, as `(position into sources, position
    /// into targets)` — what pair number `n` of a distance column means.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("reference columns poisoned")
    }

    /// The distance column of every comparison of `rule`, in comparison
    /// order: memoized, or measured and memoized.
    pub fn distance_columns(&self, rule: &CompiledRule) -> Vec<DistanceColumn> {
        rule.distance_keys()
            .enumerate()
            .map(|(comparison, key)| {
                self.memoized(&key)
                    .unwrap_or_else(|| self.memoize(key, self.measure(rule, comparison)))
            })
            .collect()
    }

    /// The memoized distance column of `key`, if any.  Every call counts as
    /// one request; a caller that finds none measures the column and
    /// [`ReferenceColumns::memoize`]s it, or waits for one that does.
    pub fn memoized(&self, key: &DistanceKey) -> Option<DistanceColumn> {
        let mut memo = self.lock();
        memo.distance_requests += 1;
        memo.distances.get(key).cloned()
    }

    /// Memoizes a column [`ReferenceColumns::measure`]d under `key`, counted
    /// as a miss; returns the memo's column for the key.
    pub fn memoize(&self, key: DistanceKey, column: DistanceColumn) -> DistanceColumn {
        let mut memo = self.lock();
        memo.distance_misses += 1;
        let cells = column.len();
        memo.insert(
            |memo| &mut memo.distances,
            key,
            column,
            cells,
            self.cell_cap,
        )
    }

    /// Measures comparison number `comparison` of `rule` on every pair:
    /// per pair, exactly the distance the comparison's kernel path turns
    /// into its score (`∞` where a side is empty or, for a banded
    /// Levenshtein column, the distance is past the band) — so
    /// [`threshold_similarity`] of a cell under the comparison's threshold
    /// **is** the comparison's score, bit for bit, for every comparison
    /// sharing the column's [`DistanceKey`], whatever its threshold and
    /// weight.  Only the two value columns the comparison reads are bound,
    /// through the memo; the distance column itself is not memoized.
    pub fn measure(&self, rule: &CompiledRule, comparison: usize) -> DistanceColumn {
        let comparison = rule
            .comparisons()
            .nth(comparison)
            .expect("comparison number within the plan");
        let band = column_band(comparison.function, comparison.threshold);
        let read = |slot| std::iter::once((slot, reads_token_ids(comparison.function)));
        let source = rule.source.bind(
            read(comparison.source),
            self.sources.iter().copied(),
            Some((self, SOURCE)),
        );
        let target = rule.target.bind(
            read(comparison.target),
            self.targets.iter().copied(),
            Some((self, TARGET)),
        );
        let at = |side, position: u32| Positioned {
            side,
            position: position as usize,
        };
        self.pairs
            .iter()
            .map(|&(s, t)| {
                rule.comparison_distance(comparison, band, at(&source, s), at(&target, t))
            })
            .collect()
    }

    /// The memo's counters.
    pub fn stats(&self) -> ColumnStats {
        let memo = self.lock();
        ColumnStats {
            values_computed: memo.values_computed,
            values_held: memo.values.len() + memo.ids.len(),
            distance_hits: memo.distance_requests.saturating_sub(memo.distance_misses),
            distance_misses: memo.distance_misses,
            drops: memo.drops,
        }
    }
}

/// A bind's memo, if any: the pool whose lists are bound and which side.
type BindMemo<'m> = Option<(&'m ReferenceColumns<'m>, Side)>;

/// Where a bind reads one slot's cells from, per entity of its one pass.
enum Fill<C> {
    /// Nothing the bind reads.
    Unused,
    /// A property only a transformation reads: read off each entity, never
    /// materialised.
    OffEntity,
    /// A column held already (a memo hit).
    Held(Arc<ValueColumn<C>>),
    /// A property column a comparison reads: the entities' shared slices,
    /// collected in the pass.
    Shared(Vec<Arc<[C]>>),
    /// A column computed in the pass.
    Flat(FlatColumn<C>),
}

/// A bind's memo once its pass is over: the pool's locked memo, the side
/// bound and the pool's cell cap.
type Parking<'g> = (MutexGuard<'g, Memo>, Side, usize);

impl<C> Fill<C> {
    /// The column once the pass is over.  One the bind computed is counted
    /// and parked in `memo`, if any, under the chain `hash` in the map `map`
    /// picks, and the memo's column is returned.
    fn finish(
        self,
        memo: Option<&mut Parking<'_>>,
        map: fn(&mut Memo) -> &mut ColumnMap<C>,
        hash: u64,
    ) -> Option<Arc<ValueColumn<C>>> {
        let cells = match self {
            Fill::Unused | Fill::OffEntity => return None,
            Fill::Held(column) => return Some(column),
            Fill::Shared(cells) => Cells::Shared(cells.into_boxed_slice()),
            Fill::Flat(FlatColumn { items, offsets }) => Cells::Flat {
                items: items.into_boxed_slice(),
                offsets: offsets.into_boxed_slice(),
            },
        };
        let column = Arc::new(ValueColumn(cells));
        let Some((memo, side, cap)) = memo else {
            return Some(column);
        };
        memo.values_computed += 1;
        let cells = column.len();
        Some(memo.insert(map, (*side, hash), column, cells, *cap))
    }
}

/// An empty vector on `buffer`'s allocation, for borrows of another
/// lifetime: the input cells of every transformation of a bind's pass are
/// gathered in one buffer.
fn reuse<'a>(mut buffer: Vec<&[String]>) -> Vec<&'a [String]> {
    buffer.clear();
    buffer
        .into_iter()
        .map(|_| -> &'a [String] { unreachable!("cleared") })
        .collect()
}

impl SlotProgram {
    /// Binds the slots in `reads` (`(slot, also as token ids)`, repeats
    /// allowed) to `entities`, walking the list once.
    ///
    /// First the columns the reads need are resolved, from the outputs down
    /// to the inputs (the slot table interns inputs before outputs): a column
    /// `memo` holds is taken as it is and ends the descent there; a missing
    /// transformation column needs its inputs; a property only a
    /// transformation reads is read off the entity and never materialised.
    /// Then one pass over the entities computes, per entity, every missing
    /// cell in slot-table order — inputs first, so their cells are ready —
    /// and the token-id cells of the slots read as ids.  The new columns,
    /// intermediates included, are parked in `memo`.
    fn bind<'e, I>(
        &self,
        reads: impl Iterator<Item = (SlotId, bool)>,
        entities: I,
        memo: BindMemo<'_>,
    ) -> BoundSide
    where
        I: Iterator<Item = &'e Entity> + Clone,
    {
        let slots = self.slots.len();
        let (mut read, mut read_ids) = (vec![false; slots], vec![false; slots]);
        for (slot, token_ids) in reads {
            read[slot] = true;
            read_ids[slot] |= token_ids;
        }
        let len = entities.clone().count();
        let mut values: Vec<Fill<String>> = (0..slots).map(|_| Fill::Unused).collect();
        let mut ids: Vec<Fill<u32>> = (0..slots).map(|_| Fill::Unused).collect();
        let mut computes = false;
        {
            let held = memo.map(|(pool, side)| (pool.lock(), side));
            // the memo and the key a slot's columns are held under
            let key = |slot| {
                let (memo, side) = held.as_ref()?;
                Some((&**memo, (*side, self.hashes[slot])))
            };
            let mut needed = read.clone();
            for slot in (0..slots).rev() {
                if read_ids[slot] {
                    ids[slot] = match key(slot).and_then(|(memo, key)| memo.ids.get(&key)) {
                        Some(column) => Fill::Held(column.clone()),
                        None => Fill::Flat(FlatColumn::with_capacity(len)),
                    };
                }
                if !needed[slot] {
                    continue;
                }
                let is_property = matches!(self.slots[slot], Slot::Property { .. });
                values[slot] = if is_property && !read[slot] {
                    Fill::OffEntity
                } else if let Some(column) = key(slot).and_then(|(memo, key)| memo.values.get(&key))
                {
                    Fill::Held(column.clone())
                } else if let Slot::Transform { inputs, .. } = &self.slots[slot] {
                    for &input in inputs {
                        needed[input] = true;
                    }
                    Fill::Flat(FlatColumn::with_capacity(len))
                } else {
                    Fill::Shared(Vec::with_capacity(len))
                };
                computes |= matches!(values[slot], Fill::Flat(_) | Fill::Shared(_));
            }
            computes |= ids.iter().any(|fill| matches!(fill, Fill::Flat(_)));
        }
        if computes {
            let mut empty: Option<Arc<[String]>> = None;
            let mut spare: Vec<&[String]> = Vec::new();
            for (position, entity) in entities.enumerate() {
                for slot in 0..slots {
                    let (done, rest) = values.split_at_mut(slot);
                    match (&self.slots[slot], &mut rest[0]) {
                        (Slot::Property { name, index }, Fill::Shared(cells)) => {
                            let shared = self
                                .property_index(name, *index, entity)
                                .and_then(|index| entity.shared_values_at(index))
                                .unwrap_or_else(|| empty.get_or_insert_with(|| Arc::from([])));
                            cells.push(shared.clone());
                        }
                        (Slot::Transform { function, inputs }, Fill::Flat(column)) => {
                            let mut cells = reuse(std::mem::take(&mut spare));
                            cells.extend(
                                inputs
                                    .iter()
                                    .map(|&input| self.cell(&done[input], input, entity, position)),
                            );
                            function.apply_into(&cells, &mut column.items);
                            column.close_cell();
                            spare = reuse(cells);
                        }
                        _ => {}
                    }
                    if let Fill::Flat(column) = &mut ids[slot] {
                        let cell = self.cell(&values[slot], slot, entity, position);
                        crate::tokens::sorted_token_ids_into(cell, &mut column.items);
                        column.close_cell();
                    }
                }
            }
        }
        let mut bound = BoundSide {
            hashes: self.hashes.clone(),
            values: vec![None; slots],
            ids: vec![None; slots],
        };
        let mut memo = memo.map(|(pool, side)| (pool.lock(), side, pool.cell_cap));
        for (slot, (values, ids)) in values.into_iter().zip(ids).enumerate() {
            let hash = self.hashes[slot];
            let values = values.finish(memo.as_mut(), |memo| &mut memo.values, hash);
            // intermediate columns have served their outputs
            if read[slot] {
                bound.values[slot] = values;
            }
            bound.ids[slot] = ids.finish(memo.as_mut(), |memo| &mut memo.ids, hash);
        }
        bound
    }

    /// The cell of `slot` for the entity at list position `position` during
    /// a bind's pass, `fill` saying where it is: a property's values read off
    /// the entity, a held column's cell, or the cell a computed column closed
    /// last.
    fn cell<'a>(
        &self,
        fill: &'a Fill<String>,
        slot: SlotId,
        entity: &'a Entity,
        position: usize,
    ) -> &'a [String] {
        match (fill, &self.slots[slot]) {
            (Fill::Held(column), _) => column.cell(position),
            (Fill::Flat(column), _) => column.last_cell(),
            (Fill::OffEntity | Fill::Shared(_), Slot::Property { name, index }) => {
                self.property_values(name, *index, entity)
            }
            _ => unreachable!("a slot is resolved before what reads it"),
        }
    }
}

// the weighted-mean score arena is reused across calls — evaluation never
// recurses into itself — so the per-pair hot path performs no allocation once
// warm
thread_local! {
    static WMEAN_ARENA: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Borrowed-or-interned values of a slot.
pub(crate) enum ValuesRef<'e> {
    Borrowed(&'e [String]),
    Interned(Arc<[String]>),
}

impl ValuesRef<'_> {
    fn as_slice(&self) -> &[String] {
        match self {
            ValuesRef::Borrowed(values) => values,
            ValuesRef::Interned(values) => values,
        }
    }
}

impl std::ops::Deref for ValuesRef<'_> {
    type Target = [String];

    fn deref(&self) -> &[String] {
        self.as_slice()
    }
}

/// The widest band a Levenshtein comparison under `threshold` has to look
/// at: distances past `⌊θ⌋` map to similarity 0 either way.
fn levenshtein_band(threshold: f64) -> usize {
    if threshold >= 0.0 {
        threshold.min(1e9).floor() as usize
    } else {
        0
    }
}

/// Minimum Levenshtein distance over the value cross product with the banded
/// early-exit fast path: only distances within `max_band` matter to the
/// caller, so every string pair is probed with a band of `min(max_band,
/// current minimum)`.  `∞` when a side is empty or every pair is past the
/// band.
fn levenshtein_distance(a: &[String], b: &[String], max_band: usize) -> f64 {
    let mut min = usize::MAX;
    for va in a {
        for vb in b {
            let band = max_band.min(min);
            if let Some(distance) = levenshtein_bounded(va, vb, band) {
                if distance < min {
                    min = distance;
                }
                if min == 0 {
                    return 0.0;
                }
            }
        }
    }
    if min == usize::MAX {
        f64::INFINITY
    } else {
        min as f64
    }
}

/// The band a comparison's distance column is measured under.  Levenshtein
/// columns are banded at the largest threshold the learner assigns the
/// measure ([`DistanceFunction::max_threshold`]): every comparison whose own
/// band fits reads one shared column — a cell within the comparison's band
/// holds the exact distance, a cell past it maps to similarity 0 whether it
/// holds the distance or `∞`.  A wider comparison (function crossover keeps
/// the donor's threshold, so a Date's 100 can land on a Levenshtein) reads a
/// second, unbanded column; every other measure has the one.
fn column_band(function: DistanceFunction, threshold: f64) -> Option<usize> {
    if function != DistanceFunction::Levenshtein {
        return None;
    }
    let widest = function.max_threshold() as usize;
    (levenshtein_band(threshold) <= widest).then_some(widest)
}

/// Result of lowering one similarity operator into the evaluation tree: its
/// node id plus the estimated cost of the whole subtree.
struct LoweredNode {
    node: usize,
    cost: f64,
}

/// Lowers `operator` and its subtree onto `nodes`; `comparisons` counts the
/// comparisons lowered so far, which numbers them in node order.
fn lower_node(
    operator: &SimilarityOperator,
    source_schema: &Schema,
    target_schema: &Schema,
    source_table: &mut SlotTable,
    target_table: &mut SlotTable,
    nodes: &mut Vec<EvalNode>,
    comparisons: &mut u32,
) -> LoweredNode {
    match operator {
        SimilarityOperator::Comparison(c) => {
            let source = source_table.intern(&c.source, source_schema);
            let target = target_table.intern(&c.target, target_schema);
            let node = nodes.len();
            nodes.push(EvalNode::Compare(CompareNode {
                source,
                target,
                function: c.function,
                threshold: c.threshold,
                ordinal: *comparisons as usize,
            }));
            *comparisons += 1;
            LoweredNode {
                node,
                cost: comparison_cost(c.function, c.threshold),
            }
        }
        SimilarityOperator::Aggregation(a) => {
            let mut children = Vec::with_capacity(a.operators.len());
            let mut weights = Vec::with_capacity(a.operators.len());
            let mut costs = Vec::with_capacity(a.operators.len());
            let mut cost = 1.0;
            for child in &a.operators {
                let lowered = lower_node(
                    child,
                    source_schema,
                    target_schema,
                    source_table,
                    target_table,
                    nodes,
                    comparisons,
                );
                children.push(lowered.node);
                weights.push(child.weight());
                costs.push(lowered.cost);
                cost += lowered.cost;
            }
            // cheapest-first visit order; the sort is stable, so equal-cost
            // children keep the rule's original order
            let mut visit: Vec<usize> = (0..children.len()).collect();
            visit.sort_by(|&x, &y| costs[x].total_cmp(&costs[y]));
            // sequential fold in original order, exactly like
            // `AggregationFunction::evaluate` computes its weight sum
            let mut weight_sum = 0.0f64;
            for &weight in &weights {
                weight_sum += weight.max(1) as f64;
            }
            let node = nodes.len();
            nodes.push(EvalNode::Aggregate {
                function: a.function,
                children,
                weights,
                visit,
                weight_sum,
            });
            LoweredNode { node, cost }
        }
    }
}

/// Deterministic structural hash of a value operator (property names and
/// transformation functions, independent of schema indices), shared by both
/// sides so identical chains hit the same [`ValueCache`] entries.
///
/// Slot dedup and the value cache trust this 64-bit hash without an
/// equality guard — a deliberate trade-off, unlike the fitness cache (which
/// compares whole genomes on collision, cheap because genomes are already
/// in hand).  Guarding here would mean storing and comparing operator trees
/// on the per-pair hot path for a ~2⁻⁶⁴-per-chain-pair collision risk.
fn value_operator_hash(operator: &ValueOperator) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    hash_value_operator(operator, &mut hasher);
    hasher.finish()
}

fn hash_value_operator(operator: &ValueOperator, hasher: &mut impl Hasher) {
    match operator {
        ValueOperator::Property(p) => {
            0u8.hash(hasher);
            p.property.hash(hasher);
        }
        ValueOperator::Transformation(t) => {
            1u8.hash(hasher);
            t.function.hash(hasher);
            t.inputs.len().hash(hasher);
            for input in &t.inputs {
                hash_value_operator(input, hasher);
            }
        }
    }
}

fn hash_similarity_operator(operator: &SimilarityOperator, hasher: &mut impl Hasher) {
    match operator {
        SimilarityOperator::Comparison(c) => {
            2u8.hash(hasher);
            hash_value_operator(&c.source, hasher);
            hash_value_operator(&c.target, hasher);
            c.function.hash(hasher);
            c.threshold.to_bits().hash(hasher);
            c.weight.hash(hasher);
        }
        SimilarityOperator::Aggregation(a) => {
            3u8.hash(hasher);
            a.function.hash(hasher);
            a.weight.hash(hasher);
            a.operators.len().hash(hasher);
            for child in &a.operators {
                hash_similarity_operator(child, hasher);
            }
        }
    }
}

impl LinkageRule {
    /// A deterministic canonical hash of the full rule structure (operators,
    /// functions, thresholds, weights).  Structurally equal rules hash
    /// equally, which makes this the fitness-memoization key: a rule that
    /// crossover re-breeds shares one entry with its first occurrence.
    pub fn canonical_hash(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        match self.root() {
            Some(root) => {
                1u8.hash(&mut hasher);
                hash_similarity_operator(root, &mut hasher);
            }
            None => 0u8.hash(&mut hasher),
        }
        hasher.finish()
    }
}

const VALUE_CACHE_SHARDS: usize = 16;

/// Safety valve against unbounded growth: mutation keeps minting new
/// transformation chains over a long run, and entries for chains that died
/// out of the population are never individually evicted.  When a shard
/// exceeds this entry count it is dropped wholesale — the cache is a pure
/// memo, so eviction only costs recomputation, never changes a result.
const VALUE_CACHE_SHARD_CAPACITY: usize = 65_536;

/// One memoized value slot of one entity.
#[derive(Debug, Clone)]
struct CachedSlot {
    values: Arc<[String]>,
    /// Sorted token ids of the value set for Jaccard/Dice, built on first
    /// use (ids come from the process-wide interner in [`crate::tokens`]).
    ids: Option<Arc<[u32]>>,
}

/// Per-entity memo of transformation outputs (and value sets), shared across
/// all rules evaluated against the same entities.
///
/// Keys are `(entity address, value-operator structural hash)`: the chain
/// hash is schema-independent, so every rule in the population containing
/// e.g. `lowerCase(tokenize(title))` reuses one computation per entity.  The
/// lifetime parameter ties the cache to the entities it indexes, so stale
/// addresses cannot be observed.
///
/// Sharded mutexes keep the cache cheap under the GP engine's parallel
/// fitness evaluation.
pub struct ValueCache<'e> {
    // an inline array (not a Vec) so `ValueCache::new` performs no heap
    // allocation: the serving path builds one short-lived cache per query
    shards: [Mutex<HashMap<(usize, u64), CachedSlot>>; VALUE_CACHE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    _entities: PhantomData<fn(&'e Entity)>,
}

impl std::fmt::Debug for ValueCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl Default for ValueCache<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'e> ValueCache<'e> {
    /// Creates an empty cache.  Allocation-free: shards are inline and the
    /// underlying maps allocate lazily on first insert.
    pub fn new() -> Self {
        ValueCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            _entities: PhantomData,
        }
    }

    fn shard(&self, key: &(usize, u64)) -> &Mutex<HashMap<(usize, u64), CachedSlot>> {
        let index = (key.0 ^ key.1 as usize) % self.shards.len();
        &self.shards[index]
    }

    /// The memoized values of `(entity, chain)`, computing them on first use.
    pub fn values(
        &self,
        entity: &'e Entity,
        chain_hash: u64,
        compute: impl FnOnce() -> Vec<String>,
    ) -> Arc<[String]> {
        let key = (entity as *const Entity as usize, chain_hash);
        if let Some(slot) = self
            .shard(&key)
            .lock()
            .expect("value cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return slot.values.clone();
        }
        // computed outside the lock: `compute` may itself read the cache for
        // nested chains, and holding the shard lock could deadlock
        self.misses.fetch_add(1, Ordering::Relaxed);
        let values: Arc<[String]> = compute().into();
        let mut shard = self.shard(&key).lock().expect("value cache poisoned");
        if shard.len() >= VALUE_CACHE_SHARD_CAPACITY {
            shard.clear();
        }
        let slot = shard.entry(key).or_insert(CachedSlot { values, ids: None });
        slot.values.clone()
    }

    /// The memoized sorted token ids of `(entity, chain)` for the set-based
    /// measures.  The process-wide token interner (see [`crate::tokens`]) is
    /// only consulted on the miss path here — per-pair evaluation reads the
    /// cached slice lock-free once it is built.
    fn token_ids(
        &self,
        entity: &'e Entity,
        chain_hash: u64,
        compute_values: impl FnOnce() -> Vec<String>,
    ) -> Arc<[u32]> {
        let key = (entity as *const Entity as usize, chain_hash);
        if let Some(slot) = self
            .shard(&key)
            .lock()
            .expect("value cache poisoned")
            .get(&key)
        {
            if let Some(ids) = &slot.ids {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return ids.clone();
            }
        }
        // no separate miss counter bump here: the values() call below counts
        // the underlying lookup exactly once (hit if the values were already
        // memoized by a non-set comparison, miss if the slot is cold)
        let values = self.values(entity, chain_hash, compute_values);
        let ids: Arc<[u32]> = crate::tokens::sorted_token_ids(&values).into();
        let mut shard = self.shard(&key).lock().expect("value cache poisoned");
        if shard.len() >= VALUE_CACHE_SHARD_CAPACITY {
            shard.clear();
        }
        let slot = shard.entry(key).or_insert(CachedSlot { values, ids: None });
        slot.ids = Some(ids.clone());
        ids
    }

    /// Number of `(entity, chain)` entries currently memoized.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("value cache poisoned").len())
            .sum()
    }

    /// Returns `true` if nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (computations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evicts every memoized entry of one entity for the given chain hashes
    /// (see [`CompiledRule::target_slot_hashes`]), returning how many entries
    /// were dropped.  Long-lived owners — the serving `LinkService` — call
    /// this when an entity is removed so the cache does not accumulate
    /// entries for entities that will never be scored again.  The cache is a
    /// pure memo, so eviction can never change a result, only cost a
    /// recomputation if the same entity is re-inserted later.
    pub fn evict(&self, entity: &'e Entity, chain_hashes: &[u64]) -> usize {
        let address = entity as *const Entity as usize;
        let mut dropped = 0;
        for &hash in chain_hashes {
            let key = (address, hash);
            if self
                .shard(&key)
                .lock()
                .expect("value cache poisoned")
                .remove(&key)
                .is_some()
            {
                dropped += 1;
            }
        }
        dropped
    }
}

/// A [`ValueCache`] whose entity-lifetime discipline is upheld by an
/// **owner** at runtime instead of by the borrow checker.
///
/// `ValueCache<'e>` keys entries by entity *address* and relies on `'e` to
/// guarantee that an address is never reused by a different entity while
/// its entries are still visible.  That works when the cache demonstrably
/// outlives nothing (`LinkService<'t>` used to borrow its entities), but an
/// *owned* service stores entities behind `Arc<Entity>` inside itself — the
/// cache and the entities live in the same struct, which no lifetime
/// parameter can express.
///
/// `PinnedValueCache` carries the cache at an erased (`'static`) lifetime
/// and hands out views at any shorter lifetime via
/// [`PinnedValueCache::scoped`].  This is sound because the cache never
/// stores borrowed data (entries are owned `Arc<[String]>` slices keyed by
/// a raw address), **provided the owner maintains the address invariant**:
///
/// > Between inserting entries for an entity and evicting them (see
/// > [`ValueCache::evict`]), the entity's address must stay allocated to
/// > that same entity.
///
/// The serving layer upholds it by construction: entities are pinned by
/// `Arc` (held by the store and by every published epoch), `remove` evicts
/// before dropping its reference, and `insert` defensively evicts the new
/// entity's address before indexing it — so even an entry re-created by a
/// concurrent reader for a since-freed entity is cleared before the
/// address can serve a different one (a reader can only score an entity
/// while an epoch still pins it, so such re-creation cannot race with the
/// address being reused).
pub struct PinnedValueCache {
    inner: ValueCache<'static>,
}

impl std::fmt::Debug for PinnedValueCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl Default for PinnedValueCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PinnedValueCache {
    /// Creates an empty cache (allocation-free, like [`ValueCache::new`]).
    pub fn new() -> Self {
        PinnedValueCache {
            inner: ValueCache::new(),
        }
    }

    /// Views the cache at a caller-chosen entity lifetime.  See the type
    /// docs for the invariant the owner must uphold.
    pub fn scoped<'e>(&'e self) -> &'e ValueCache<'e> {
        // Sound: ValueCache's layout is independent of its lifetime
        // parameter (it only appears in PhantomData), and the cache holds no
        // borrowed data — the parameter exists purely to enforce the address
        // invariant, which the owner enforces dynamically instead.
        unsafe { std::mem::transmute::<&ValueCache<'static>, &ValueCache<'e>>(&self.inner) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{aggregation, compare, property, transform};
    use linkdisc_entity::EntityBuilder;

    fn city_schema() -> Arc<Schema> {
        Arc::new(Schema::new(["label", "point"]))
    }

    fn berlin(schema: &Arc<Schema>) -> Entity {
        EntityBuilder::new("a:berlin")
            .value("label", "Berlin")
            .value("point", "52.52 13.40")
            .build(schema.clone())
    }

    fn figure2_rule() -> LinkageRule {
        aggregation(
            AggregationFunction::Min,
            vec![
                compare(
                    transform(TransformFunction::LowerCase, vec![property("label")]),
                    transform(TransformFunction::LowerCase, vec![property("label")]),
                    DistanceFunction::Levenshtein,
                    1.0,
                ),
                compare(
                    property("point"),
                    property("point"),
                    DistanceFunction::Geographic,
                    50.0,
                ),
            ],
        )
        .into()
    }

    #[test]
    fn compiled_matches_tree_walk_on_figure2() {
        let schema = city_schema();
        let a = berlin(&schema);
        let b = EntityBuilder::new("b:berlin")
            .value("label", "BERLIN")
            .value("point", "52.52 13.40")
            .build(schema.clone());
        let rule = figure2_rule();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let cache = ValueCache::new();
        let pair = EntityPair::new(&a, &b);
        assert_eq!(compiled.evaluate(&pair, &cache), rule.evaluate(&pair));
        // second evaluation is served from the memo and stays identical
        assert_eq!(compiled.evaluate(&pair, &cache), rule.evaluate(&pair));
        assert!(cache.hits() > 0);
    }

    #[test]
    fn empty_rule_compiles_to_an_empty_plan() {
        let schema = city_schema();
        let compiled = CompiledRule::compile(&LinkageRule::empty(), &schema, &schema);
        assert!(compiled.nodes.is_empty());
        let a = berlin(&schema);
        let pair = EntityPair::new(&a, &a);
        assert_eq!(compiled.evaluate(&pair, &ValueCache::new()), 0.0);
    }

    #[test]
    fn duplicate_chains_share_one_slot_and_one_computation() {
        let schema = city_schema();
        let rule: LinkageRule = aggregation(
            AggregationFunction::Max,
            vec![
                compare(
                    transform(TransformFunction::LowerCase, vec![property("label")]),
                    transform(TransformFunction::LowerCase, vec![property("label")]),
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                compare(
                    transform(TransformFunction::LowerCase, vec![property("label")]),
                    property("label"),
                    DistanceFunction::Equality,
                    0.5,
                ),
            ],
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        // lowerCase(label) and label each appear once per side
        assert_eq!(compiled.source.slots.len(), 2);
        let a = berlin(&schema);
        let b = berlin(&schema);
        let cache = ValueCache::new();
        let pair = EntityPair::new(&a, &b);
        compiled.evaluate(&pair, &cache);
        // one transform computation per entity, not per comparison
        assert_eq!(cache.misses(), 2);
        compiled.evaluate(&pair, &cache);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn unknown_properties_yield_zero_similarity() {
        let schema = city_schema();
        let rule: LinkageRule = compare(
            property("missing"),
            property("label"),
            DistanceFunction::Levenshtein,
            5.0,
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let a = berlin(&schema);
        let pair = EntityPair::new(&a, &a);
        assert_eq!(compiled.evaluate(&pair, &ValueCache::new()), 0.0);
        assert_eq!(rule.evaluate(&pair), 0.0);
    }

    #[test]
    fn foreign_schema_entities_fall_back_to_name_lookup() {
        let schema = city_schema();
        let rule: LinkageRule = compare(
            property("label"),
            property("label"),
            DistanceFunction::Equality,
            0.5,
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        // entity with its own schema, where "label" sits at a different index
        let odd = EntityBuilder::new("odd")
            .value("extra", "x")
            .value("label", "Berlin")
            .build_with_own_schema();
        let a = berlin(&schema);
        let pair = EntityPair::new(&a, &odd);
        assert_eq!(compiled.evaluate(&pair, &ValueCache::new()), 1.0);
    }

    #[test]
    fn canonical_hash_distinguishes_structure_and_parameters() {
        let base: LinkageRule = compare(
            property("label"),
            property("label"),
            DistanceFunction::Levenshtein,
            1.0,
        )
        .into();
        let other_threshold: LinkageRule = compare(
            property("label"),
            property("label"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let other_function: LinkageRule = compare(
            property("label"),
            property("label"),
            DistanceFunction::Jaccard,
            1.0,
        )
        .into();
        assert_eq!(base.canonical_hash(), base.clone().canonical_hash());
        assert_ne!(base.canonical_hash(), other_threshold.canonical_hash());
        assert_ne!(base.canonical_hash(), other_function.canonical_hash());
        assert_ne!(base.canonical_hash(), LinkageRule::empty().canonical_hash());
    }

    #[test]
    fn evict_drops_one_entity_without_touching_others() {
        let schema = city_schema();
        let rule: LinkageRule = compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            transform(TransformFunction::LowerCase, vec![property("label")]),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let a = berlin(&schema);
        let b = EntityBuilder::new("b")
            .value("label", "Paris")
            .build(schema.clone());
        let cache = ValueCache::new();
        compiled.evaluate(&EntityPair::new(&a, &b), &cache);
        assert_eq!(cache.len(), 2);
        let dropped = cache.evict(&b, compiled.target_slot_hashes());
        assert_eq!(dropped, 1, "b's lowerCase(label) entry is evicted");
        assert_eq!(cache.len(), 1);
        // evicting again is a no-op; the other entity's memo survives
        assert_eq!(cache.evict(&b, compiled.target_slot_hashes()), 0);
        let mut recomputed = false;
        cache.values(&b, compiled.target.hashes[1], || {
            recomputed = true;
            vec!["paris".to_string()]
        });
        assert!(recomputed, "evicted entry must recompute");
        cache.values(&a, compiled.source.hashes[1], || {
            unreachable!("a's memo must survive b's eviction")
        });
    }

    #[test]
    fn chain_hashes_are_structural_and_shared_with_the_rule() {
        let schema = city_schema();
        let chain = transform(TransformFunction::LowerCase, vec![property("label")]);
        let ValueOperator::Transformation(_) = &chain else {
            panic!("transform builder returns a transformation")
        };
        let compiled_chain = CompiledChain::compile(&chain, &schema);
        assert_eq!(
            compiled_chain.structural_hash(),
            value_operator_hash(&chain),
            "the chain hash is the root's structural hash"
        );
        assert!(compiled_chain
            .program
            .hashes
            .contains(&compiled_chain.structural_hash()));
        // the same chain compiled twice (or inside a rule) hashes equally
        let again = CompiledChain::compile(&chain, &schema);
        assert_eq!(compiled_chain.structural_hash(), again.structural_hash());
    }

    #[test]
    fn bounded_matches_exact_on_figure2() {
        let schema = city_schema();
        let rule = figure2_rule();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let cache = ValueCache::new();
        let a = berlin(&schema);
        let matching = EntityBuilder::new("b:berlin")
            .value("label", "BERLIN")
            .value("point", "52.52 13.40")
            .build(schema.clone());
        let differing = EntityBuilder::new("b:paris")
            .value("label", "Paris")
            .value("point", "48.85 2.35")
            .build(schema.clone());
        for other in [&matching, &differing] {
            let pair = EntityPair::new(&a, other);
            let exact = compiled.evaluate(&pair, &cache);
            let bounded = compiled.evaluate_bounded(&pair, &cache, crate::rule::LINK_THRESHOLD);
            assert_eq!(
                exact >= crate::rule::LINK_THRESHOLD,
                bounded >= crate::rule::LINK_THRESHOLD,
                "classification must match"
            );
            assert!(bounded >= exact, "bounded result is an upper bound");
            if bounded >= crate::rule::LINK_THRESHOLD {
                assert_eq!(bounded.to_bits(), exact.to_bits(), "links score exactly");
            }
        }
    }

    #[test]
    fn bounded_without_threshold_is_exhaustive() {
        let schema = city_schema();
        // weighted mean with a skippable expensive child
        let rule: LinkageRule = aggregation(
            AggregationFunction::WeightedMean,
            vec![
                compare(
                    property("label"),
                    property("label"),
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                compare(
                    property("point"),
                    property("point"),
                    DistanceFunction::Equality,
                    0.5,
                ),
            ],
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let cache = ValueCache::new();
        let a = berlin(&schema);
        let b = EntityBuilder::new("b")
            .value("label", "Munich")
            .value("point", "48.13 11.58")
            .build(schema.clone());
        let pair = EntityPair::new(&a, &b);
        let exact = compiled.evaluate(&pair, &cache);
        let mut stats = EvalStats::default();
        let bounded = compiled.evaluate_bounded_two_stats(
            &a,
            &b,
            &cache,
            &cache,
            f64::NEG_INFINITY,
            &mut stats,
        );
        assert_eq!(bounded.to_bits(), exact.to_bits());
        assert_eq!(stats.comparisons_evaluated, 2, "no pruning at -inf");
        assert_eq!(stats.comparisons_skipped, 0);
        assert_eq!(stats.pairs_short_circuited, 0);
    }

    #[test]
    fn bounded_short_circuits_and_counts_skips() {
        let schema = city_schema();
        // min aggregation: the cheap equality comparison fails first and the
        // expensive geographic one is never evaluated
        let rule: LinkageRule = aggregation(
            AggregationFunction::Min,
            vec![
                compare(
                    property("point"),
                    property("point"),
                    DistanceFunction::Geographic,
                    50.0,
                ),
                compare(
                    property("label"),
                    property("label"),
                    DistanceFunction::Equality,
                    0.5,
                ),
            ],
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        assert_eq!(compiled.comparison_count(), 2);
        let cache = ValueCache::new();
        let a = berlin(&schema);
        let b = EntityBuilder::new("b")
            .value("label", "Paris")
            .value("point", "52.52 13.40")
            .build(schema.clone());
        let mut stats = EvalStats::default();
        let bounded = compiled.evaluate_bounded_two_stats(
            &a,
            &b,
            &cache,
            &cache,
            crate::rule::LINK_THRESHOLD,
            &mut stats,
        );
        assert!(bounded < crate::rule::LINK_THRESHOLD);
        assert_eq!(stats.pairs, 1);
        assert_eq!(
            stats.comparisons_evaluated, 1,
            "equality (cost 1) is visited before geographic (cost 4) and aborts the min"
        );
        assert_eq!(stats.comparisons_skipped, 1);
        assert_eq!(stats.pairs_short_circuited, 1);
        assert!(stats.skip_rate() > 0.49 && stats.skip_rate() < 0.51);
    }

    #[test]
    fn bounded_max_returns_exact_winner() {
        let schema = city_schema();
        let rule: LinkageRule = aggregation(
            AggregationFunction::Max,
            vec![
                compare(
                    property("label"),
                    property("label"),
                    DistanceFunction::Levenshtein,
                    4.0,
                ),
                compare(
                    property("point"),
                    property("point"),
                    DistanceFunction::Geographic,
                    50.0,
                ),
            ],
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let cache = ValueCache::new();
        let a = berlin(&schema);
        // labels differ by 2 edits (similarity 0.5 < threshold), points match
        // (similarity 1.0): the max must carry the exact geographic score
        let b = EntityBuilder::new("b")
            .value("label", "Berlix!")
            .value("point", "52.52 13.40")
            .build(schema.clone());
        let pair = EntityPair::new(&a, &b);
        let exact = compiled.evaluate(&pair, &cache);
        let bounded = compiled.evaluate_bounded(&pair, &cache, crate::rule::LINK_THRESHOLD);
        assert!(exact >= crate::rule::LINK_THRESHOLD);
        assert_eq!(bounded.to_bits(), exact.to_bits());
    }

    #[test]
    fn bound_evaluation_reads_no_cache_and_shares_columns_across_rules() {
        let schema = city_schema();
        let entities = [
            berlin(&schema),
            EntityBuilder::new("b:paris")
                .value("label", "PARIS")
                .build(schema.clone()),
            // a foreign schema without "point": resolved by name, empty set
            EntityBuilder::new("odd")
                .value("label", "berlin")
                .build_with_own_schema(),
        ];
        let rule = figure2_rule();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let source = compiled.bind_source(entities.iter());
        let target = compiled.bind_target(entities.iter());
        let mut bound = Vec::new();
        for s in 0..entities.len() {
            for t in 0..entities.len() {
                let mut stats = EvalStats::default();
                let score = compiled.evaluate_bound_stats(
                    &source,
                    s,
                    &target,
                    t,
                    crate::rule::LINK_THRESHOLD,
                    &mut stats,
                );
                bound.push((score.to_bits(), stats));
            }
        }
        // bound evaluation is the cached evaluation, bit for bit and counter
        // for counter
        let cache = ValueCache::new();
        let mut cached = Vec::new();
        for a in &entities {
            for b in &entities {
                let mut stats = EvalStats::default();
                let score = compiled.evaluate_bounded_two_stats(
                    a,
                    b,
                    &cache,
                    &cache,
                    crate::rule::LINK_THRESHOLD,
                    &mut stats,
                );
                cached.push((score.to_bits(), stats));
            }
        }
        assert_eq!(bound, cached);
        // the bound side keeps only what comparisons read, findable by chain
        let lower = transform(TransformFunction::LowerCase, vec![property("label")]);
        let lowered = source.values_of(value_operator_hash(&lower)).unwrap();
        assert_eq!(lowered.cell(1), ["paris".to_string()]);
        assert!(lowered.cell(2).len() == 1 && target.values_of(7).is_none());
        assert_eq!(lowered.iter().len(), 3);
        assert!(source
            .values_of(value_operator_hash(&property("label")))
            .is_none());
        // a point column a comparison reads holds the entities' own slices
        let points = source.values_of(value_operator_hash(&property("point")));
        assert!(points.unwrap().cell(2).is_empty(), "odd has no point");
        // a pool over the same cross product scores like the bound sides;
        // its memo holds lowerCase(label) and point, computed once per side —
        // label only feeds lowerCase(label), so it is read off the entities
        // and never materialised
        let pairs = entities
            .iter()
            .flat_map(|a| entities.iter().map(move |b| (a, b)));
        let pool = ReferenceColumns::new(pairs, ReferenceColumns::CELLS);
        assert_eq!((pool.sources().len(), pool.pairs().len()), (3, 9));
        let columns = pool.distance_columns(&compiled);
        let measured: Vec<_> = (0..9)
            .map(|pair| {
                let mut stats = EvalStats::default();
                let score = compiled.evaluate_columns_stats(
                    &columns,
                    pair,
                    crate::rule::LINK_THRESHOLD,
                    &mut stats,
                );
                (score.to_bits(), stats)
            })
            .collect();
        assert_eq!(measured, bound);
        let stats = pool.stats();
        assert_eq!((stats.values_held, stats.values_computed), (4, 4));
        assert_eq!((stats.distance_hits, stats.distance_misses), (0, 2));
        // a second rule over a known chain computes its new distance column,
        // and only the one value column no comparison read before: the
        // target's label, now read directly
        let other: LinkageRule =
            compare(lower, property("label"), DistanceFunction::Equality, 0.5).into();
        pool.distance_columns(&CompiledRule::compile(&other, &schema, &schema));
        let stats = pool.stats();
        assert_eq!((stats.values_held, stats.values_computed), (5, 5));
        assert_eq!((stats.distance_misses, stats.drops), (3, 0));
    }

    #[test]
    fn distance_columns_are_keyed_by_what_was_measured_not_by_threshold_or_weight() {
        let schema = city_schema();
        let lower = || transform(TransformFunction::LowerCase, vec![property("label")]);
        let lev = |threshold: f64| {
            compare(
                lower(),
                property("label"),
                DistanceFunction::Levenshtein,
                threshold,
            )
        };
        let mut weighted = lev(10.9);
        weighted.set_weight(3);
        let rule: LinkageRule = aggregation(
            AggregationFunction::WeightedMean,
            vec![
                lev(1.0),
                weighted,
                // past the band: the unbanded column
                lev(11.0),
                // other chains, other measure
                compare(
                    property("label"),
                    lower(),
                    DistanceFunction::Levenshtein,
                    1.0,
                ),
                compare(lower(), property("label"), DistanceFunction::Jaro, 1.0),
            ],
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let keys: Vec<DistanceKey> = compiled.distance_keys().collect();
        assert_eq!(keys.len(), 5);
        assert_eq!(keys[0], keys[1]);
        assert_eq!((keys[0].band, keys[2].band), (Some(10), None));
        assert_eq!(
            keys.iter().collect::<std::collections::HashSet<_>>().len(),
            4
        );
        // a column holds the distance the kernel path scores from: exact
        // within the band, ∞ past it or where a side has no value
        let entities = [
            berlin(&schema),
            EntityBuilder::new("b")
                .value("label", "berlin, brandenburg")
                .build(schema.clone()),
            EntityBuilder::new("c").build(schema.clone()),
        ];
        let pool = ReferenceColumns::new(
            entities.iter().map(|target| (&entities[0], target)),
            ReferenceColumns::CELLS,
        );
        let infinity = f64::INFINITY;
        assert_eq!(*pool.measure(&compiled, 0), [1.0, infinity, infinity]);
        assert_eq!(*pool.measure(&compiled, 2), [1.0, 13.0, infinity]);
        // the two comparisons sharing a key share one column
        let columns = pool.distance_columns(&compiled);
        assert!(Arc::ptr_eq(&columns[0], &columns[1]));
        let counted = pool.stats();
        assert_eq!((counted.distance_hits, counted.distance_misses), (1, 4));
        let mut stats = EvalStats::default();
        let cache = ValueCache::new();
        for (pair, target) in entities.iter().enumerate() {
            assert_eq!(
                compiled
                    .evaluate_columns_stats(&columns, pair, f64::NEG_INFINITY, &mut stats)
                    .to_bits(),
                compiled
                    .evaluate(&EntityPair::new(&entities[0], target), &cache)
                    .to_bits()
            );
        }
        assert_eq!((stats.pairs, stats.comparisons_evaluated), (3, 15));
    }

    #[test]
    fn token_id_path_matches_tree_walk() {
        let schema = Arc::new(Schema::new(["tags"]));
        let a = EntityBuilder::new("a")
            .value("tags", "jazz")
            .value("tags", "piano")
            .value("tags", "live")
            .build(schema.clone());
        let b = EntityBuilder::new("b")
            .value("tags", "jazz")
            .value("tags", "guitar")
            .build(schema.clone());
        for function in [DistanceFunction::Jaccard, DistanceFunction::Dice] {
            let rule: LinkageRule =
                compare(property("tags"), property("tags"), function, 0.9).into();
            let compiled = CompiledRule::compile(&rule, &schema, &schema);
            let cache = ValueCache::new();
            let pair = EntityPair::new(&a, &b);
            assert_eq!(
                compiled.evaluate(&pair, &cache).to_bits(),
                rule.evaluate(&pair).to_bits(),
                "{function} id-merge diverged from the tree walk"
            );
        }
        // size-ratio early exit: 1 shared token out of 1 vs 4 cannot pass a
        // tight threshold, so the similarity is exactly 0 either way
        let c = EntityBuilder::new("c")
            .value("tags", "jazz")
            .build(schema.clone());
        let d = EntityBuilder::new("d")
            .value("tags", "jazz")
            .value("tags", "bebop")
            .value("tags", "swing")
            .value("tags", "cool")
            .build(schema.clone());
        let rule: LinkageRule = compare(
            property("tags"),
            property("tags"),
            DistanceFunction::Jaccard,
            0.2,
        )
        .into();
        let compiled = CompiledRule::compile(&rule, &schema, &schema);
        let pair = EntityPair::new(&c, &d);
        assert_eq!(compiled.evaluate(&pair, &ValueCache::new()), 0.0);
        assert_eq!(rule.evaluate(&pair), 0.0);
    }
}
