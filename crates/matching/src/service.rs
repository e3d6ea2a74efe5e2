//! The serving layer: a long-lived, concurrently readable and incrementally
//! writable front-end for a *registry* of linkage rules over one entity
//! store.
//!
//! The [`crate::MatchingEngine`] answers "link these two sources" as a batch
//! job; production traffic instead asks "which targets match *this one
//! entity*, right now?" at interactive latency, against a target set that
//! changes over time — while other threads keep querying.  The layer splits
//! into three types:
//!
//! * [`ServiceWriter`] — owns the mutable state: an
//!   [`EntityStore`] (owned entities, stable recycled `u32` slots, interned
//!   values), a **rule registry** and a **leaf pool**.  Every `insert` /
//!   `remove` / `ingest` mutates the working state and **publishes a new
//!   epoch**: an immutable `(rules, indexes, entity snapshot)` tuple behind
//!   an [`EpochCell`] swap.  Publication is copy-on-write at two
//!   granularities — index leaves are `Arc`ed and the entity slot table is
//!   chunked (a mutation copies one chunk, a snapshot clones the chunk
//!   spine).  The cost model: after any publication every leaf is
//!   epoch-shared, but a leaf is an immutable base plus a small delta, and
//!   a mutation writes only the delta — so its copy-on-write clones each
//!   touched leaf's delta, O(√(leaf postings)) at most, never the base.  A
//!   publication first folds every delta its writes grew past √(base
//!   postings) into a fresh base (one merge pass, O(leaf postings),
//!   amortised over the √P postings of writes that grew it), so a single-op
//!   write on Restaurant ×50 (21,280 targets) costs ~0.15 ms where copying
//!   whole leaves cost ~4 ms.  [`ServiceWriter::ingest`] publishes, and
//!   folds, once per batch.
//! * [`ServiceReader`] — a cheaply cloneable query handle (one per thread).
//!   Each query pins the current epoch (one atomic version check; a short
//!   lock + `Arc` clone only when the writer actually published) and runs
//!   entirely against that snapshot: candidate generation, slot resolution
//!   and scoring all see one consistent state, no matter how the writer
//!   churns meanwhile.  The hot path ([`ServiceReader::query_with`]) stays
//!   **allocation-free** in the steady state.
//! * [`LinkService`] — the single-threaded facade over a writer/reader
//!   pair: constructors, the mutators (each publishes before it returns,
//!   so the next query sees it), and [`LinkService::writer`] /
//!   [`LinkService::reader`] for everything else; call
//!   [`LinkService::split`] to move to concurrent operation.
//!
//! # Multi-rule serving
//!
//! The registry serves many rules from **one** store, one interner and one
//! epoch stream.  Per-comparison leaf indexes live in a
//! [`crate::multiblock::LeafPool`] keyed by `(target chain hash, measure,
//! bound bucket)`, so a leaf is built once, `Arc`-shared by every rule whose
//! plan contains the key, and maintained **once** per entity mutation
//! instead of once per rule.
//! [`ServiceWriter::register_rule`] on a warm store builds only the
//! registering plan's *missing* leaves (no re-ingest, no interner rebuild);
//! [`ServiceWriter::deregister_rule`] drops leaves whose refcount reaches
//! zero; [`ServiceWriter::replace_rule`] acquires the replacement's leaves
//! *before* releasing the old rule's, so shared leaves survive the swap.
//! All three are just another epoch publication — a **hot rule swap**:
//! readers pinning the previous epoch keep a consistent `(rules, leaves,
//! snapshot)` view while new queries see the new registry, with zero
//! downtime.  Readers select rules by name ([`ServiceReader::query_rule`])
//! or fan one query across the whole registry
//! ([`ServiceReader::query_committee`], the ensemble/query-by-committee
//! path), and per-rule serving counters surface through
//! [`ServiceReader::rule_stats`].
//!
//! # The shared value cache and why it stays sound
//!
//! All epochs share one [`PinnedValueCache`] memoizing target-side transform
//! chains by entity *address*.  The address invariant (an address never
//! serves a different entity while entries for it are visible) is upheld
//! dynamically: entities are pinned by `Arc` (store + every epoch), the
//! writer *evicts* an entity's entries on `remove`, and *defensively evicts*
//! a fresh entity's address on `insert` before indexing it.  Readers may
//! repopulate entries for entities of older epochs they still pin — harmless,
//! because an address can only be recycled by the allocator after every
//! epoch holding the old entity is gone, at which point no reader can write
//! stale entries anymore and the writer's insert-time eviction has cleared
//! any it left behind.  The writer additionally **warms** each inserted
//! entity's chains — for every registered rule — so concurrent readers
//! score from a hot cache.  The evictable hash set is the union over the
//! registry; deregistering a rule evicts the chains only it could memoize.
//!
//! Entries a lagging reader re-memoized for a since-removed entity are
//! orphaned until the allocator reuses that address for a stored entity
//! (insert-time eviction) or the cache's per-shard capacity valve clears
//! the shard — so under concurrent churn the cache holds the live set plus
//! a *bounded* number of orphans, rather than the exact live set the old
//! single-threaded service maintained (and the single-writer facade still
//! maintains).
//!
//! # Persistence
//!
//! [`crate::persist`] dumps the rule manifest, the entity store and the
//! pool's leaf maps (each shared leaf serialized once) to a versioned
//! binary snapshot and restores them without re-deriving a single block
//! key — restart is O(read) instead of O(build), and the restored service
//! is bit-identical to a fresh build (links, stats, query results).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use linkdisc_entity::{DataSource, Entity, EntityError, EntitySnapshot, EntityStore, Schema};
use linkdisc_rule::{
    CompiledRule, EvalStats, IndexingPlan, LinkageRule, PinnedValueCache, ValueCache,
    LINK_THRESHOLD,
};
use linkdisc_util::{EpochCell, EpochReader};

use crate::engine::ScoredLink;
use crate::multiblock::{
    CandidateScratch, LeafBuildStats, LeafPool, LeafPoolStats, MultiBlockIndex,
};
use crate::wal::{Delta, Refused};

/// The name under which constructors register their rule; single-rule
/// callers never need another.
pub const DEFAULT_RULE: &str = "default";

/// Construction options of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceOptions {
    /// Similarity a target must reach to be reported (Definition 3: 0.5).
    pub link_threshold: f64,
    /// Worker threads for complete leaf builds — at construction and at rule
    /// registration, whole leaves split across workers (0 = all cores).  A
    /// build spawns workers only with at least two missing leaves per
    /// thread ([`linkdisc_util::parallel_ordered_map`] maps smaller inputs
    /// inline): at 2 threads, a plan with fewer than 4 distinct missing
    /// leaves is built on the calling thread.
    pub threads: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            link_threshold: LINK_THRESHOLD,
            threads: 0,
        }
    }
}

/// A registry-operation failure: rule names must be unique, targets of
/// deregistration/replacement must exist, and a service always serves at
/// least one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A rule with this name is already registered.
    DuplicateRule(String),
    /// No rule with this name is registered.
    UnknownRule(String),
    /// The last remaining rule cannot be deregistered.
    LastRule,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateRule(name) => {
                write!(f, "a rule named {name:?} is already registered")
            }
            RegistryError::UnknownRule(name) => write!(f, "no rule named {name:?} is registered"),
            RegistryError::LastRule => write!(f, "the last registered rule cannot be deregistered"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Per-rule serving statistics, the serving analogue of learning's
/// `CacheStats`: cumulative query-side counters plus the leaf-pool
/// accounting observed when the rule acquired its leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleServingStats {
    /// The rule's registry name.
    pub rule: String,
    /// Queries answered for this rule (any reader, any epoch).
    pub queries: u64,
    /// Candidates its index generated across those queries.
    pub candidates: u64,
    /// Candidate pairs whose bounded evaluation stopped before visiting
    /// every comparison of the rule.
    pub pairs_short_circuited: u64,
    /// Comparison operators actually evaluated across all queries.
    pub comparisons_evaluated: u64,
    /// Comparison operators skipped by score-bounded short-circuiting.
    pub comparisons_skipped: u64,
    /// Plan slots answered by an already-pooled leaf at acquisition.
    pub leaf_hits: u64,
    /// Leaves built for this rule at acquisition.
    pub leaf_misses: u64,
    /// Epoch version at registration (0 for construction-time rules).
    pub registered_epoch: u64,
}

/// One merged committee answer: a target with the votes and mean score it
/// collected across the registry (see [`ServiceReader::query_committee`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitteeLink {
    /// Identifier of the query entity.
    pub source: String,
    /// Identifier of the matched target entity.
    pub target: String,
    /// Rules scoring the pair at or above the link threshold.
    pub votes: usize,
    /// Rules consulted (the registry size of the pinned epoch).
    pub committee: usize,
    /// Mean score over the voting rules.
    pub mean_score: f64,
}

/// Cumulative query-side counters of one registered rule, shared (via
/// `Arc`) between the writer's registry and every published epoch so that
/// reader-side traffic is visible in [`ServiceWriter::rule_stats`] too.
#[derive(Debug, Default)]
pub(crate) struct RuleCounters {
    pub(crate) queries: AtomicU64,
    pub(crate) candidates: AtomicU64,
    pub(crate) pairs_short_circuited: AtomicU64,
    pub(crate) comparisons_evaluated: AtomicU64,
    pub(crate) comparisons_skipped: AtomicU64,
}

impl RuleCounters {
    /// Flushes one query's bounded-evaluation counters into the shared
    /// totals (one batched add per counter, not one per pair).
    pub(crate) fn record_eval(&self, eval: &EvalStats) {
        self.pairs_short_circuited
            .fetch_add(eval.pairs_short_circuited, Ordering::Relaxed);
        self.comparisons_evaluated
            .fetch_add(eval.comparisons_evaluated, Ordering::Relaxed);
        self.comparisons_skipped
            .fetch_add(eval.comparisons_skipped, Ordering::Relaxed);
    }
}

/// One registry entry: the rule, its compiled form and lowered plan, and
/// its serving bookkeeping.  The writer's registry holds **no** leaf
/// references — a rule's per-slot index view is materialized from the leaf
/// pool at publication, so pool maintenance between publications mutates
/// leaves in place instead of re-triggering copy-on-write per operation.
#[derive(Debug, Clone)]
pub(crate) struct RegisteredRule {
    pub(crate) name: Arc<str>,
    pub(crate) rule: Arc<LinkageRule>,
    pub(crate) compiled: Arc<CompiledRule>,
    pub(crate) plan: Arc<IndexingPlan>,
    pub(crate) counters: Arc<RuleCounters>,
    /// Leaf-pool hits observed when this rule acquired its leaves — the
    /// builds sharing saved at registration.
    pub(crate) leaf_hits: u64,
    /// Leaves actually built for this rule at acquisition.
    pub(crate) leaf_misses: u64,
    /// Epoch version at registration (0 for construction-time rules).
    pub(crate) registered_epoch: u64,
}

impl RegisteredRule {
    fn serving_stats(&self) -> RuleServingStats {
        RuleServingStats {
            rule: self.name.to_string(),
            queries: self.counters.queries.load(Ordering::Relaxed),
            candidates: self.counters.candidates.load(Ordering::Relaxed),
            pairs_short_circuited: self.counters.pairs_short_circuited.load(Ordering::Relaxed),
            comparisons_evaluated: self.counters.comparisons_evaluated.load(Ordering::Relaxed),
            comparisons_skipped: self.counters.comparisons_skipped.load(Ordering::Relaxed),
            leaf_hits: self.leaf_hits,
            leaf_misses: self.leaf_misses,
            registered_epoch: self.registered_epoch,
        }
    }
}

/// One rule as published into an epoch: the registry entry plus its
/// materialized index view over the pool leaves of that epoch.
#[derive(Debug)]
pub(crate) struct EpochRule {
    pub(crate) registered: RegisteredRule,
    pub(crate) index: MultiBlockIndex,
}

/// One published epoch: an immutable `(rules, entities)` snapshot readers
/// pin for the duration of a query.
#[derive(Debug)]
pub(crate) struct ServiceEpoch {
    /// Registry order; slot 0 is the default rule.
    pub(crate) rules: Vec<EpochRule>,
    pub(crate) entities: EntitySnapshot,
}

/// State shared between the writer and every reader.
#[derive(Debug)]
struct ServiceShared {
    /// Target-side transform memo, shared across all epochs (see the module
    /// docs for the address-invariant argument).
    cache: PinnedValueCache,
    link_threshold: f64,
    epochs: Arc<EpochCell<ServiceEpoch>>,
    scratch_pool: Mutex<Vec<CandidateScratch>>,
}

/// The single mutating owner of a serving index (see the module docs).
pub struct ServiceWriter {
    shared: Arc<ServiceShared>,
    store: EntityStore,
    /// The shared leaf pool: one leaf per distinct reuse key across the
    /// whole registry, maintained once per entity mutation.
    pool: LeafPool,
    /// Registration order; slot 0 is the default rule.
    rules: Vec<RegisteredRule>,
    /// Schema of future *query* entities, kept for registering rules later.
    source_schema: Arc<Schema>,
    /// Worker threads for leaf builds (0 = all cores).
    threads: usize,
    /// Every target-side chain hash the registry's compiled rules can
    /// memoize under — the `(entity, hash)` keys to evict when a target
    /// entity is removed (and to clear defensively when a slot's address
    /// gets a new tenant).  Maintained as the sorted union over the
    /// registry.
    target_chain_hashes: Vec<u64>,
}

impl std::fmt::Debug for ServiceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceWriter")
            .field("rule", self.rule())
            .field("rules", &self.rules.len())
            .field("entities", &self.len())
            .field("epoch", &self.shared.epochs.version())
            .finish()
    }
}

impl ServiceWriter {
    /// Creates a writer with no target entities yet; populate it through
    /// [`ServiceWriter::ingest`] / [`ServiceWriter::insert`].
    /// `source_schema` is the schema of future *query* entities.
    pub fn empty(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        options: ServiceOptions,
    ) -> Self {
        let store = EntityStore::new(target_schema.clone());
        ServiceWriter::assemble(rule, source_schema, options, store)
    }

    /// Builds a writer over a materialised target source: entities are
    /// copied into the owned store (values interned) and the rule's distinct
    /// leaves are built across [`ServiceOptions::threads`] workers.
    ///
    /// A [`DataSource`] enforces id uniqueness on insertion, so building
    /// from one cannot fail — the `Result` exists for callers feeding raw
    /// entity slices through [`ServiceWriter::build_from_entities`].
    pub fn build(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target: &DataSource,
        options: ServiceOptions,
    ) -> Result<Self, EntityError> {
        ServiceWriter::build_from_entities(
            rule,
            source_schema,
            target.schema(),
            target.entities(),
            options,
        )
    }

    /// Builds a writer over a raw entity slice (no [`DataSource`]
    /// pre-validation): a duplicate identifier in `target` surfaces as
    /// [`EntityError::DuplicateEntity`] instead of panicking.
    pub fn build_from_entities(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        target: &[Entity],
        options: ServiceOptions,
    ) -> Result<Self, EntityError> {
        let store = EntityStore::from_entities(target_schema.clone(), target)?;
        Ok(ServiceWriter::assemble(rule, source_schema, options, store))
    }

    /// The common construction core: registers the default rule on an
    /// empty registry through [`ServiceWriter::apply`], which builds its
    /// distinct leaves over the store, and makes that the construction-time
    /// epoch (version 0).
    fn assemble(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        options: ServiceOptions,
        store: EntityStore,
    ) -> Self {
        let pool = LeafPool::new();
        let mut writer =
            ServiceWriter::from_restored(source_schema, options, store, pool, Vec::new());
        writer.apply(Delta::Register(DEFAULT_RULE, &rule));
        writer.rules[0].registered_epoch = 0;
        let epoch = Arc::new(writer.current_epoch());
        writer.shared.epochs.replace_current(epoch);
        writer
    }

    /// Restores a writer from already-reconstructed parts (the snapshot
    /// codec's entry point; the cache starts cold and refills lazily).
    /// Pool refcounts must already account for every rule's plan.
    pub(crate) fn from_restored(
        source_schema: &Arc<Schema>,
        options: ServiceOptions,
        store: EntityStore,
        pool: LeafPool,
        rules: Vec<RegisteredRule>,
    ) -> Self {
        let target_chain_hashes = evictable_hashes(&rules);
        let writer = ServiceWriter {
            shared: Arc::new(ServiceShared {
                cache: PinnedValueCache::new(),
                link_threshold: options.link_threshold,
                epochs: Arc::new(EpochCell::new(Arc::new(ServiceEpoch {
                    rules: Vec::new(),
                    entities: store.snapshot(),
                }))),
                scratch_pool: Mutex::new(Vec::new()),
            }),
            store,
            pool,
            rules,
            source_schema: source_schema.clone(),
            threads: options.threads,
            target_chain_hashes,
        };
        // replace the placeholder construction epoch in place: EpochCell
        // starts at version 0 and `replace_current` does not bump it
        writer
            .shared
            .epochs
            .replace_current(Arc::new(writer.current_epoch()));
        writer
    }

    /// The current working state as an epoch: every rule's index view
    /// materialized from the pool (cheap `Arc` clones per leaf slot).
    fn current_epoch(&self) -> ServiceEpoch {
        let rules = self
            .rules
            .iter()
            .map(|rule| EpochRule {
                registered: rule.clone(),
                index: self.index_view(rule),
            })
            .collect();
        ServiceEpoch {
            rules,
            entities: self.store.snapshot(),
        }
    }

    /// One rule's per-slot index view over the pool's current leaves.
    fn index_view(&self, rule: &RegisteredRule) -> MultiBlockIndex {
        MultiBlockIndex::from_parts(
            rule.plan.clone(),
            self.pool.leaves_for(&rule.plan),
            self.store.slot_len(),
        )
    }

    /// The default rule this service executes (registry slot 0).
    pub fn rule(&self) -> &LinkageRule {
        self.rules[0].rule.as_ref()
    }

    /// The registered rule names, in registration order (slot 0 is the
    /// default rule).
    pub fn rule_names(&self) -> Vec<String> {
        self.rules
            .iter()
            .map(|rule| rule.name.to_string())
            .collect()
    }

    /// Returns `true` when a rule with this name is registered.
    pub fn has_rule(&self, name: &str) -> bool {
        self.rules.iter().any(|rule| rule.name.as_ref() == name)
    }

    /// The registered rule under a name.
    pub fn named_rule(&self, name: &str) -> Option<&LinkageRule> {
        self.rules
            .iter()
            .find(|rule| rule.name.as_ref() == name)
            .map(|rule| rule.rule.as_ref())
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Per-rule serving statistics, in registration order.  Query counters
    /// aggregate over every reader and epoch (the counter cells are shared
    /// with published epochs).
    pub fn rule_stats(&self) -> Vec<RuleServingStats> {
        self.rules
            .iter()
            .map(RegisteredRule::serving_stats)
            .collect()
    }

    /// Aggregate statistics of the serving leaf pool (hits, misses, pooled
    /// leaves, references).
    pub fn leaf_pool_stats(&self) -> LeafPoolStats {
        self.pool.stats()
    }

    /// The writer's registry, in registration order (the snapshot codec
    /// reads it).
    pub(crate) fn registered_rules(&self) -> &[RegisteredRule] {
        &self.rules
    }

    /// The serving leaf pool (the snapshot codec reads it).
    pub(crate) fn pool(&self) -> &LeafPool {
        &self.pool
    }

    /// A fingerprint of the whole registry — names and canonical rule
    /// hashes in registration order.  Durable logs stamp their header with
    /// it so recovery replays against the exact rule set that was serving.
    pub(crate) fn registry_hash(&self) -> u64 {
        let mut crc = crate::codec::Fnv::new();
        for rule in &self.rules {
            crc.update(rule.name.as_bytes());
            crc.update(&[0xff]);
            crc.update(&rule.rule.canonical_hash().to_le_bytes());
        }
        crc.0
    }

    /// Number of live target entities.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` when no target entity is indexed.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Returns `true` if a target with this identifier is currently served.
    pub fn contains(&self, id: &str) -> bool {
        self.store.contains(id)
    }

    /// The target entity currently served at an index position.
    pub fn at(&self, position: u32) -> Option<Arc<Entity>> {
        self.store.get(position).cloned()
    }

    /// The owned entity store (positions, free list, interning statistics).
    pub fn store(&self) -> &EntityStore {
        &self.store
    }

    /// Build statistics of the default rule's index, one entry per indexed
    /// comparison — exact at all times, including after inserts and removes.
    pub fn stats(&self) -> Vec<LeafBuildStats> {
        self.index_view(&self.rules[0]).build_stats()
    }

    /// The version of the most recently published epoch.  Starts at 0 (the
    /// construction-time epoch) and increases by exactly 1 per publication
    /// (`insert`, `remove` and the registry operations publish once each,
    /// `ingest` once per call).
    pub fn version(&self) -> u64 {
        self.shared.epochs.version()
    }

    /// Number of `(entity, chain)` entries currently memoized in the
    /// service-lifetime value cache (observability for the eviction-on-
    /// remove behaviour).
    #[cfg(test)]
    fn cached_chain_entries(&self) -> usize {
        self.shared.cache.scoped().len()
    }

    /// A new reader over this writer's published epochs.  Cheap; create one
    /// per querying thread (readers are `Send` but deliberately not `Sync`).
    pub fn reader(&self) -> ServiceReader {
        ServiceReader {
            shared: self.shared.clone(),
            epochs: EpochReader::new(self.shared.epochs.clone()),
        }
    }

    /// Adds one target entity, indexing it incrementally, and publishes a
    /// new epoch.  Returns the entity's index position; fails on a
    /// duplicate identifier.
    pub fn insert(&mut self, entity: &Entity) -> Result<u32, EntityError> {
        let position = self.write(Delta::Insert(entity)).map_err(Refused::entity)?;
        Ok(position.unwrap_or_default())
    }

    /// Streamed ingestion: adds a chunk of target entities and publishes
    /// **once**, all or nothing — an id the store serves, or one the batch
    /// repeats, fails the whole call before anything changes, and an empty
    /// batch publishes nothing.  Batching the publication amortises the
    /// copy-on-write of touched index leaves over the whole chunk.
    pub fn ingest(&mut self, entities: &[Entity]) -> Result<usize, EntityError> {
        let batch: Vec<&Entity> = entities.iter().collect();
        self.write(Delta::Ingest(&batch)).map_err(Refused::entity)?;
        Ok(entities.len())
    }

    /// Removes a target entity by identifier, un-indexing its postings (the
    /// slot is recycled by later inserts), evicting its memoized transform
    /// chains, and publishing a new epoch.  Returns `false` when the id is
    /// not served.  Readers still pinning an older epoch keep scoring the
    /// entity until they refresh — its `Arc` stays alive in those epochs.
    pub fn remove(&mut self, id: &str) -> bool {
        matches!(self.write(Delta::Remove(id)), Ok(Some(_)))
    }

    /// Registers a new rule under a fresh name and publishes: a warm
    /// registration builds only the plan's leaves **missing** from the
    /// pool — no re-ingest, no interner rebuild — and readers see the
    /// extended registry from the next query on.
    pub fn register_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), RegistryError> {
        let registered = self.write(Delta::Register(name, &rule));
        registered.map(drop).map_err(Refused::registry)
    }

    /// Deregisters a rule by name and publishes; pool leaves only it
    /// referenced are dropped, and transform-chain memos only its compiled
    /// form could own are evicted.  The last remaining rule cannot be
    /// deregistered.
    pub fn deregister_rule(&mut self, name: &str) -> Result<(), RegistryError> {
        let deregistered = self.write(Delta::Deregister(name));
        deregistered.map(drop).map_err(Refused::registry)
    }

    /// Replaces the rule registered under `name` in one publication — the
    /// hot swap: the replacement's leaves are acquired *before* the old
    /// rule's are released, so leaves shared between the two survive, and
    /// readers switch from old to new atomically at their next epoch pin.
    pub fn replace_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), RegistryError> {
        let replaced = self.write(Delta::Replace(name, &rule));
        replaced.map(drop).map_err(Refused::registry)
    }

    /// The in-memory write path: check, apply, publish.  `Ok(None)` when
    /// the delta has nothing to do, else what [`ServiceWriter::apply`] returned.
    pub(crate) fn write(&mut self, delta: Delta<'_>) -> Result<Option<u32>, Refused> {
        if !self.check(&delta)? {
            return Ok(None);
        }
        let position = self.apply(delta);
        self.publish();
        Ok(Some(position))
    }

    /// Whether `delta` can be applied to the current state, changing
    /// nothing: `Ok(true)` when it can, `Ok(false)` when it has nothing to
    /// do (removing an id that is not served, an empty batch), and the
    /// refusal otherwise.  Every write — live, durable or replayed — runs
    /// this before it logs or applies anything.
    pub(crate) fn check(&self, delta: &Delta<'_>) -> Result<bool, Refused> {
        let duplicate = |entity: &Entity| {
            Refused::Entity(EntityError::DuplicateEntity(entity.id().to_string()))
        };
        let registry = |err: RegistryError| Err(Refused::Registry(err));
        match *delta {
            Delta::Insert(entity) if self.contains(entity.id()) => Err(duplicate(entity)),
            Delta::Ingest(batch) => {
                match first_duplicate(batch.iter().copied(), |id| self.contains(id)) {
                    Some(entity) => Err(duplicate(entity)),
                    None => Ok(!batch.is_empty()),
                }
            }
            Delta::Remove(id) => Ok(self.contains(id)),
            Delta::Register(name, _) if self.has_rule(name) => {
                registry(RegistryError::DuplicateRule(name.to_string()))
            }
            Delta::Deregister(name) | Delta::Replace(name, _) if !self.has_rule(name) => {
                registry(RegistryError::UnknownRule(name.to_string()))
            }
            Delta::Deregister(_) if self.rules.len() == 1 => registry(RegistryError::LastRule),
            _ => Ok(true),
        }
    }

    /// Applies a delta [`ServiceWriter::check`] accepted, without
    /// publishing.  Returns the slot of an inserted entity, 0 for any
    /// other delta.
    pub(crate) fn apply(&mut self, delta: Delta<'_>) -> u32 {
        match delta {
            Delta::Insert(entity) => return self.insert_entity(entity),
            Delta::Ingest(batch) => {
                for entity in batch {
                    self.insert_entity(entity);
                }
            }
            Delta::Remove(id) => {
                let (position, entity) = self.store.remove(id).expect("check found the id served");
                let cache = self.shared.cache.scoped();
                // un-index first: locating the postings recomputes the
                // entity's block keys through the cache entries about to be
                // evicted
                self.pool.remove_entity(position, &entity, cache);
                cache.evict(&entity, &self.target_chain_hashes);
            }
            Delta::Register(name, rule) => {
                let registered = self.registered(Arc::from(name), rule);
                self.rules.push(registered);
                self.refresh_chain_hashes();
            }
            Delta::Deregister(name) => {
                let removed = self.rules.remove(self.slot_of(name));
                self.pool.release_plan(&removed.plan);
                self.refresh_chain_hashes();
            }
            Delta::Replace(name, rule) => {
                let at = self.slot_of(name);
                // acquire before release: leaves shared between the outgoing
                // and incoming rule keep a positive refcount throughout
                let replacement = self.registered(self.rules[at].name.clone(), rule);
                let old = std::mem::replace(&mut self.rules[at], replacement);
                self.pool.release_plan(&old.plan);
                self.refresh_chain_hashes();
            }
        }
        0
    }

    /// The registry slot of a rule `check` found registered.
    fn slot_of(&self, name: &str) -> usize {
        self.rules
            .iter()
            .position(|rule| rule.name.as_ref() == name)
            .expect("check found the rule registered")
    }

    /// A registry entry for `rule`: lowered and compiled against the store's
    /// target schema, its plan's leaves acquired from the pool (only the
    /// missing ones built, over the live store entries).
    fn registered(&mut self, name: Arc<str>, rule: &LinkageRule) -> RegisteredRule {
        let (source, target) = (&self.source_schema, self.store.schema());
        let threshold = self.shared.link_threshold;
        let plan = Arc::new(IndexingPlan::lower(rule, source, target, threshold).canonicalized());
        let compiled = Arc::new(CompiledRule::compile(rule, source, target));
        let entries = live_entries(&self.store);
        let (_leaves, leaf_hits, leaf_misses) =
            self.pool
                .acquire_plan(&plan, &entries, self.shared.cache.scoped(), self.threads);
        RegisteredRule {
            name,
            rule: Arc::new(rule.clone()),
            compiled,
            plan,
            counters: Arc::new(RuleCounters::default()),
            leaf_hits,
            leaf_misses,
            registered_epoch: self.shared.epochs.version() + 1,
        }
    }

    /// Recomputes the registry-wide evictable hash union and evicts the
    /// chains that just became orphaned (hashes no rule can memoize under
    /// anymore) for every stored entity.
    fn refresh_chain_hashes(&mut self) {
        let before = std::mem::take(&mut self.target_chain_hashes);
        self.target_chain_hashes = evictable_hashes(&self.rules);
        let orphaned: Vec<u64> = before
            .into_iter()
            .filter(|hash| self.target_chain_hashes.binary_search(hash).is_err())
            .collect();
        if !orphaned.is_empty() {
            let cache = self.shared.cache.scoped();
            for (_, entity) in self.store.iter() {
                cache.evict(entity, &orphaned);
            }
        }
    }

    fn insert_entity(&mut self, entity: &Entity) -> u32 {
        let (position, stored) = self
            .store
            .insert(entity)
            .expect("check refused served and repeated ids");
        let cache = self.shared.cache.scoped();
        // defensive eviction: if a reader repopulated entries for a
        // *previous* tenant of this address after its remove-time eviction,
        // clear them before the new entity computes (and memoizes) anything
        cache.evict(&stored, &self.target_chain_hashes);
        // warm the new entity's transform chains — for every registered
        // rule — so concurrent readers score it from a hot cache
        for rule in &self.rules {
            rule.compiled.warm_target(&stored, cache);
        }
        self.pool.insert_entity(position, &stored, cache);
        position
    }

    /// Publishes the current working state as a new immutable epoch,
    /// first folding the leaf deltas this publication's writes grew past
    /// their limit.
    pub(crate) fn publish(&mut self) {
        self.pool.fold_past_limit();
        self.shared.epochs.publish(Arc::new(self.current_epoch()));
    }
}

/// A query handle over the epochs a [`ServiceWriter`] publishes (see the
/// module docs).  Clone one per thread: `ServiceReader` is `Send` but not
/// `Sync` — the epoch pin is cached without interior locking.
#[derive(Debug, Clone)]
pub struct ServiceReader {
    shared: Arc<ServiceShared>,
    epochs: EpochReader<ServiceEpoch>,
}

impl ServiceReader {
    /// The default rule of the current epoch (registry slot 0).
    pub fn rule(&self) -> Arc<LinkageRule> {
        self.epochs.pin().0.rules[0].registered.rule.clone()
    }

    /// The registered rule names of the current epoch, in registration
    /// order.
    pub fn rule_names(&self) -> Vec<String> {
        self.epochs
            .pin()
            .0
            .rules
            .iter()
            .map(|rule| rule.registered.name.to_string())
            .collect()
    }

    /// Per-rule serving statistics of the current epoch, in registration
    /// order (counter cells are shared with the writer, so totals include
    /// every reader's traffic).
    pub fn rule_stats(&self) -> Vec<RuleServingStats> {
        self.epochs
            .pin()
            .0
            .rules
            .iter()
            .map(|rule| rule.registered.serving_stats())
            .collect()
    }

    /// Number of live target entities in the current epoch.
    pub fn len(&self) -> usize {
        self.epochs.pin().0.entities.len()
    }

    /// Returns `true` when the current epoch serves no entity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The version of the epoch a query issued now would run against.
    pub fn version(&self) -> u64 {
        self.epochs.pin().1
    }

    /// The target entity at an index position in the current epoch.
    pub fn at(&self, position: u32) -> Option<Arc<Entity>> {
        self.epochs.pin().0.entities.get(position).cloned()
    }

    /// Build statistics of the current epoch's default-rule index.
    pub fn stats(&self) -> Vec<LeafBuildStats> {
        self.epochs.pin().0.rules[0].index.build_stats()
    }

    /// All targets matching one query entity under the **default** rule
    /// (score ≥ the link threshold), best first (ties towards the smaller
    /// identifier).  Convenience wrapper over [`ServiceReader::query_with`]
    /// with a pooled scratch.
    pub fn query(&self, source_entity: &Entity) -> Vec<ScoredLink> {
        let (epoch, _) = self.epochs.pin();
        self.query_pinned(&epoch, &epoch.rules[0], source_entity)
    }

    /// All targets matching one query entity under the rule registered as
    /// `name`; `None` when no such rule is registered in the pinned epoch.
    pub fn query_rule(&self, name: &str, source_entity: &Entity) -> Option<Vec<ScoredLink>> {
        let (epoch, _) = self.epochs.pin();
        let rule = epoch
            .rules
            .iter()
            .find(|rule| rule.registered.name.as_ref() == name)?;
        Some(self.query_pinned(&epoch, rule, source_entity))
    }

    /// Fans one query across **every** registered rule of one pinned epoch
    /// and merges the per-rule scores: each matched target reports how many
    /// rules voted for it and their mean score, ordered by votes, then mean
    /// score, then target id — the ensemble / query-by-committee path.
    pub fn query_committee(&self, source_entity: &Entity) -> Vec<CommitteeLink> {
        let (epoch, _) = self.epochs.pin();
        let mut scratch = self.take_scratch();
        let mut hits: Vec<(u32, f64)> = Vec::new();
        let mut tally: HashMap<u32, (usize, f64)> = HashMap::new();
        for rule in &epoch.rules {
            self.query_epoch(rule, &epoch, source_entity, &mut scratch, &mut hits);
            for &(position, score) in &hits {
                let entry = tally.entry(position).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += score;
            }
        }
        self.return_scratch(scratch);
        let committee = epoch.rules.len();
        let mut links: Vec<CommitteeLink> = tally
            .into_iter()
            .map(|(position, (votes, score_sum))| CommitteeLink {
                source: source_entity.id().to_string(),
                target: epoch
                    .entities
                    .get(position)
                    .expect("candidates only name live slots of their epoch")
                    .id()
                    .to_string(),
                votes,
                committee,
                mean_score: score_sum / votes as f64,
            })
            .collect();
        links.sort_by(|a, b| {
            b.votes
                .cmp(&a.votes)
                .then_with(|| b.mean_score.total_cmp(&a.mean_score))
                .then_with(|| a.target.cmp(&b.target))
        });
        links
    }

    /// The hot query path (default rule): candidate generation on the
    /// caller's scratch, matches appended to `out` as `(index position,
    /// score)` pairs (cleared first, unordered).  Returns the version of
    /// the epoch the query ran against; resolve positions to entities via
    /// [`ServiceReader::at`] *only while no publication intervened* (compare
    /// versions), or use [`ServiceReader::query`] which resolves within one
    /// pin.  With warm buffers and a transform-free rule this path performs
    /// no heap allocation — concurrent writer churn included.
    pub fn query_with(
        &self,
        source_entity: &Entity,
        scratch: &mut CandidateScratch,
        out: &mut Vec<(u32, f64)>,
    ) -> u64 {
        let (epoch, version) = self.epochs.pin();
        self.query_epoch(&epoch.rules[0], &epoch, source_entity, scratch, out);
        version
    }

    /// Runs one rule's query within one pin and resolves positions to
    /// scored links, best first.
    fn query_pinned(
        &self,
        epoch: &ServiceEpoch,
        rule: &EpochRule,
        source_entity: &Entity,
    ) -> Vec<ScoredLink> {
        let mut scratch = self.take_scratch();
        let mut hits: Vec<(u32, f64)> = Vec::new();
        self.query_epoch(rule, epoch, source_entity, &mut scratch, &mut hits);
        self.return_scratch(scratch);
        let mut links: Vec<ScoredLink> = hits
            .into_iter()
            .map(|(position, score)| ScoredLink {
                source: source_entity.id().to_string(),
                target: epoch
                    .entities
                    .get(position)
                    .expect("candidates only name live slots of their epoch")
                    .id()
                    .to_string(),
                score,
            })
            .collect();
        links.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.target.cmp(&b.target))
        });
        links
    }

    /// Runs one query against one rule of one pinned epoch.
    fn query_epoch(
        &self,
        rule: &EpochRule,
        epoch: &ServiceEpoch,
        source_entity: &Entity,
        scratch: &mut CandidateScratch,
        out: &mut Vec<(u32, f64)>,
    ) {
        out.clear();
        // per-query memo for the query entity's own transform chains; the
        // target side reads the service-lifetime shared cache instead
        let query_cache = ValueCache::new();
        let cache = self.shared.cache.scoped();
        let buf = rule
            .index
            .candidates(source_entity, &query_cache, scratch, &mut []);
        rule.registered
            .counters
            .queries
            .fetch_add(1, Ordering::Relaxed);
        rule.registered
            .counters
            .candidates
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let mut eval = EvalStats::default();
        for &position in &buf {
            // an exhaustive (`All`) plan enumerates every position, so
            // tombstoned slots must be skipped here; leaf postings only
            // ever name slots live in their epoch
            let Some(target_entity) = epoch.entities.get(position) else {
                continue;
            };
            // bounded against the link threshold: candidates that cannot
            // link stop at the earliest decisive comparison, and reported
            // scores (≥ threshold) are bit-identical to exhaustive
            let score = rule.registered.compiled.evaluate_bounded_two_stats(
                source_entity,
                target_entity,
                &query_cache,
                cache,
                self.shared.link_threshold,
                &mut eval,
            );
            if score >= self.shared.link_threshold {
                out.push((position, score));
            }
        }
        rule.registered.counters.record_eval(&eval);
        scratch.recycle(buf);
    }

    fn take_scratch(&self) -> CandidateScratch {
        // recover rather than propagate a poisoned pool: pooled scratch is
        // pure reusable allocation, and worst case we pop a buffer a
        // panicking thread pushed half-recycled — `query_epoch` clears it
        self.shared
            .scratch_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn return_scratch(&self, scratch: CandidateScratch) {
        // a panic while a scratch was checked out poisons the pool; the
        // buffers themselves are plain reusable allocations, so clear the
        // poison rather than spreading the panic to every future query
        self.shared
            .scratch_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(scratch);
    }
}

/// A serving index over a mutable set of owned target entities: the
/// single-threaded facade over a [`ServiceWriter`] / [`ServiceReader`] pair,
/// answering single-entity match queries for a registry of rules (see the
/// module docs).  Mutations publish immediately, so queries always see the
/// latest write; [`LinkService::split`] yields the two halves for
/// concurrent operation.
#[derive(Debug)]
pub struct LinkService {
    writer: ServiceWriter,
    reader: ServiceReader,
}

impl LinkService {
    /// Creates a service with no target entities yet; populate it through
    /// [`LinkService::ingest`] / [`LinkService::insert`] (streamed
    /// construction).  `source_schema` is the schema of future *query*
    /// entities.
    pub fn empty(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        options: ServiceOptions,
    ) -> Self {
        ServiceWriter::empty(rule, source_schema, target_schema, options).into_service()
    }

    /// Builds a service over a materialised target source, copying the
    /// entities into an owned store (the source may be dropped afterwards)
    /// and building the rule's distinct leaves across
    /// [`ServiceOptions::threads`] workers.  Fails on a duplicate target
    /// identifier (reachable when the entities bypassed [`DataSource`]'s own
    /// uniqueness check).
    pub fn build(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target: &DataSource,
        options: ServiceOptions,
    ) -> Result<Self, EntityError> {
        Ok(ServiceWriter::build(rule, source_schema, target, options)?.into_service())
    }

    /// Splits the service into its concurrent halves: a single writer and a
    /// cloneable reader (spawn more via [`ServiceWriter::reader`] /
    /// `Clone`).
    pub fn split(self) -> (ServiceWriter, ServiceReader) {
        (self.writer, self.reader)
    }

    /// The writer half: the store, the registry and their statistics.
    pub fn writer(&self) -> &ServiceWriter {
        &self.writer
    }

    /// The reader half: every query method.
    pub fn reader(&self) -> &ServiceReader {
        &self.reader
    }

    /// Registers a new rule under a fresh name — see
    /// [`ServiceWriter::register_rule`].
    pub fn register_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), RegistryError> {
        self.writer.register_rule(name, rule)
    }

    /// Deregisters a rule by name — see
    /// [`ServiceWriter::deregister_rule`].
    pub fn deregister_rule(&mut self, name: &str) -> Result<(), RegistryError> {
        self.writer.deregister_rule(name)
    }

    /// Hot-swaps the rule registered under `name` — see
    /// [`ServiceWriter::replace_rule`].
    pub fn replace_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), RegistryError> {
        self.writer.replace_rule(name, rule)
    }

    /// Adds one target entity — see [`ServiceWriter::insert`].
    pub fn insert(&mut self, entity: &Entity) -> Result<u32, EntityError> {
        self.writer.insert(entity)
    }

    /// Streamed ingestion of a chunk of target entities — see
    /// [`ServiceWriter::ingest`].
    pub fn ingest(&mut self, entities: &[Entity]) -> Result<usize, EntityError> {
        self.writer.ingest(entities)
    }

    /// Removes a target entity by identifier — see [`ServiceWriter::remove`].
    /// Returns `false` when the id is not served.
    pub fn remove(&mut self, id: &str) -> bool {
        self.writer.remove(id)
    }
}

impl ServiceWriter {
    pub(crate) fn into_service(self) -> LinkService {
        let reader = self.reader();
        LinkService {
            writer: self,
            reader,
        }
    }

    /// The link threshold the plans and queries run under (persisted with
    /// snapshots — the leaf maps are derived from it).
    pub fn link_threshold(&self) -> f64 {
        self.shared.link_threshold
    }
}

/// The store's live `(position, entity)` entries, tombstone holes skipped:
/// what a complete leaf build indexes.
fn live_entries(store: &EntityStore) -> Vec<(u32, &Entity)> {
    store
        .iter()
        .map(|(position, entity)| (position, entity.as_ref()))
        .collect()
}

/// The first entity of `batch` whose id `served` holds or an earlier entity
/// of the batch carries: the rule by which every front refuses an ingest,
/// whole, naming that id.
pub(crate) fn first_duplicate<'e>(
    batch: impl IntoIterator<Item = &'e Entity>,
    served: impl Fn(&str) -> bool,
) -> Option<&'e Entity> {
    let mut ids = HashSet::new();
    batch
        .into_iter()
        .find(|entity| served(entity.id()) || !ids.insert(entity.id()))
}

/// The set of chain hashes whose `(entity, hash)` cache entries a removed
/// target entity may own: every target-side slot of every registered
/// rule's compiled form, as a sorted deduplicated union.  The indexing
/// plans' chains are compiled from the same value operators (structural
/// hashes are schema-independent), so the rules' target slots cover the
/// plans' chains too.
fn evictable_hashes(rules: &[RegisteredRule]) -> Vec<u64> {
    let mut hashes: Vec<u64> = rules
        .iter()
        .flat_map(|rule| rule.compiled.target_slot_hashes().iter().copied())
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchingEngine;
    use linkdisc_entity::DataSourceBuilder;
    use linkdisc_rule::{
        aggregation, compare, property, transform, AggregationFunction, DistanceFunction,
        TransformFunction,
    };

    fn source() -> DataSource {
        DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "Berlin")])
            .unwrap()
            .entity("a2", [("label", "Paris")])
            .unwrap()
            .build()
    }

    fn target() -> DataSource {
        DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlin")])
            .unwrap()
            .entity("b2", [("name", "paris")])
            .unwrap()
            .entity("b3", [("name", "berlim")])
            .unwrap()
            .build()
    }

    fn rule() -> LinkageRule {
        compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into()
    }

    /// A second rule tightening `rule()` with an extra exact-match arm.
    /// Min-aggregation children lower at the rule's own required
    /// similarity, so the Levenshtein comparison derives the *same* bound
    /// (and leaf reuse key) as `rule()`'s — its leaf is pooled, not
    /// rebuilt — while the equality arm needs one leaf of its own.
    fn tighter_rule() -> LinkageRule {
        let chain = || transform(TransformFunction::LowerCase, vec![property("label")]);
        aggregation(
            AggregationFunction::Min,
            vec![
                compare(
                    chain(),
                    property("name"),
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                compare(chain(), property("name"), DistanceFunction::Equality, 0.5),
            ],
        )
        .into()
    }

    #[test]
    fn queries_return_scored_targets_best_first() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let links = service.reader().query(&source.entities()[0]);
        let targets: Vec<&str> = links.iter().map(|l| l.target.as_str()).collect();
        assert_eq!(targets, vec!["b1", "b3"], "berlin exact, berlim fuzzy");
        assert!(links[0].score > links[1].score);
        assert!(links.iter().all(|l| l.source == "a1"));
    }

    #[test]
    fn service_agrees_with_the_batch_engine() {
        let (source, target) = (source(), target());
        let engine_links = MatchingEngine::new(rule()).run(&source, &target).links;
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let mut service_links: Vec<ScoredLink> = source
            .entities()
            .iter()
            .flat_map(|entity| service.reader().query(entity))
            .collect();
        service_links.sort_by(|a, b| {
            a.source
                .cmp(&b.source)
                .then_with(|| b.score.total_cmp(&a.score))
                .then_with(|| a.target.cmp(&b.target))
        });
        assert_eq!(service_links, engine_links);
    }

    #[test]
    fn service_owns_its_entities() {
        // the target source is dropped right after construction: the owned
        // store keeps serving (the borrowed LinkService<'t> could not)
        let source = source();
        let service = {
            let target = target();
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default()).unwrap()
        };
        assert_eq!(service.writer().len(), 3);
        assert_eq!(service.reader().query(&source.entities()[0]).len(), 2);
    }

    #[test]
    fn inserts_and_removes_are_served_immediately() {
        let (source, target) = (source(), target());
        let mut service = LinkService::empty(
            rule(),
            source.schema(),
            target.schema(),
            ServiceOptions::default(),
        );
        let a1 = &source.entities()[0];
        assert!(service.reader().query(a1).is_empty());

        service.ingest(target.entities()).unwrap();
        assert_eq!(service.writer().len(), 3);
        assert_eq!(service.reader().query(a1).len(), 2);

        assert!(service.remove("b1"));
        assert!(!service.remove("b1"), "already gone");
        let links = service.reader().query(a1);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].target, "b3");

        // slot reuse: a new entity takes the freed position and is found
        let extra = DataSourceBuilder::new("B2", ["name"])
            .entity("b9", [("name", "berlin!")])
            .unwrap()
            .build();
        let position = service.insert(&extra.entities()[0]).unwrap();
        assert_eq!(position, 0, "freed slot is recycled");
        let targets: Vec<String> = service
            .reader()
            .query(a1)
            .into_iter()
            .map(|l| l.target)
            .collect();
        assert_eq!(targets, vec!["b3".to_string(), "b9".to_string()]);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let err = service.insert(&target.entities()[0]).unwrap_err();
        assert!(matches!(err, EntityError::DuplicateEntity(id) if id == "b1"));
    }

    #[test]
    fn incremental_service_matches_batch_built_service() {
        let (source, target) = (source(), target());
        let batch = LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
            .unwrap();
        let mut incremental = LinkService::empty(
            rule(),
            source.schema(),
            target.schema(),
            ServiceOptions::default(),
        );
        // interleave chunked ingestion with a remove + reinsert
        incremental.ingest(&target.entities()[..2]).unwrap();
        incremental.remove("b2");
        incremental.ingest(&target.entities()[2..]).unwrap();
        incremental.insert(&target.entities()[1]).unwrap();
        assert_eq!(incremental.writer().len(), batch.writer().len());
        for entity in source.entities() {
            let batch_links = batch.reader().query(entity);
            let incremental_links = incremental.reader().query(entity);
            assert_eq!(batch_links, incremental_links, "query {}", entity.id());
        }
    }

    #[test]
    fn exhaustive_rules_scan_live_slots_only() {
        // Jaro at this threshold cannot prune: the plan is exhaustive and
        // queries must scan live entities, skipping tombstoned slots
        let jaro: LinkageRule = compare(
            property("label"),
            property("name"),
            DistanceFunction::Jaro,
            2.0,
        )
        .into();
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(jaro, source.schema(), &target, ServiceOptions::default()).unwrap();
        assert!(
            service.writer().stats().is_empty(),
            "no indexable comparison"
        );
        let before = service.reader().query(&source.entities()[1]);
        assert!(before.iter().any(|l| l.target == "b2"));
        service.remove("b2");
        let after = service.reader().query(&source.entities()[1]);
        assert!(!after.iter().any(|l| l.target == "b2"));
    }

    #[test]
    fn remove_evicts_the_entity_from_the_value_cache() {
        let (source, target) = (source(), target());
        // transform on the target side so indexing + scoring memoize one
        // chain entry per served entity
        let transformed: LinkageRule = compare(
            property("label"),
            transform(TransformFunction::LowerCase, vec![property("name")]),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let mut service = LinkService::build(
            transformed,
            source.schema(),
            &target,
            ServiceOptions::default(),
        )
        .unwrap();
        for entity in source.entities() {
            service.reader().query(entity);
        }
        let warm = service.writer().cached_chain_entries();
        assert_eq!(warm, 3, "one lowerCase(name) entry per served entity");
        assert!(service.remove("b2"));
        assert_eq!(
            service.writer().cached_chain_entries(),
            warm - 1,
            "the removed entity's chain memo is evicted"
        );
        // the survivors still serve correct results ("Berlin" is one edit
        // from "berlin" but two from "berlim")
        let links = service.reader().query(&source.entities()[0]);
        assert_eq!(links.len(), 1);
        assert!(service.reader().query(&source.entities()[1]).is_empty());
        // re-inserting recomputes and re-memoizes the evicted chain (the
        // writer warms inserted entities eagerly)
        service.insert(&target.entities()[1]).unwrap();
        assert_eq!(service.writer().cached_chain_entries(), warm);
        assert_eq!(service.reader().query(&source.entities()[1]).len(), 1);
    }

    #[test]
    fn hot_path_reports_positions_resolvable_to_entities() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let mut scratch = CandidateScratch::new();
        let mut hits = Vec::new();
        service
            .reader()
            .query_with(&source.entities()[1], &mut scratch, &mut hits);
        assert_eq!(hits.len(), 1);
        let (position, score) = hits[0];
        assert_eq!(service.writer().at(position).unwrap().id(), "b2");
        assert!(score >= 0.5);
        // reusing the buffers clears previous results
        service
            .reader()
            .query_with(&source.entities()[0], &mut scratch, &mut hits);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn readers_pin_an_epoch_per_query_and_see_writer_publications() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let (mut writer, reader) = service.split();
        let a1 = &source.entities()[0];
        assert_eq!(writer.version(), 0);
        assert_eq!(reader.query(a1).len(), 2);

        // a second reader spawned from the writer sees the same epoch
        let other = writer.reader();
        assert_eq!(other.version(), 0);

        writer.remove("b1");
        assert_eq!(writer.version(), 1);
        // both readers refresh on their next query
        assert_eq!(reader.query(a1).len(), 1);
        assert_eq!(other.version(), 1);
        let cloned = reader.clone();
        assert_eq!(cloned.query(a1).len(), 1);

        writer.insert(&target.entities()[0]).unwrap();
        assert_eq!(reader.query(a1).len(), 2);
        assert_eq!(reader.len(), 3);
    }

    #[test]
    fn query_with_reports_the_epoch_version_it_ran_against() {
        let (source, target) = (source(), target());
        let (mut writer, reader) =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap()
                .split();
        let mut scratch = CandidateScratch::new();
        let mut hits = Vec::new();
        let v0 = reader.query_with(&source.entities()[0], &mut scratch, &mut hits);
        assert_eq!(v0, 0);
        writer.remove("b3");
        let v1 = reader.query_with(&source.entities()[0], &mut scratch, &mut hits);
        assert_eq!(v1, 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn store_interns_repeated_value_sets() {
        let mut builder = DataSourceBuilder::new("B", ["name"]);
        for i in 0..10 {
            builder = builder
                .entity(format!("b{i}"), [("name", "duplicate")])
                .unwrap();
        }
        let target = builder.build();
        let service = LinkService::build(
            rule(),
            source().schema(),
            &target,
            ServiceOptions::default(),
        )
        .unwrap();
        assert_eq!(
            service.writer().store().interner_hits(),
            9,
            "nine of ten equal value sets reuse the first allocation"
        );
    }

    #[test]
    fn duplicate_target_ids_error_instead_of_panicking() {
        let (source, target) = (source(), target());
        let mut doubled: Vec<Entity> = target.entities().to_vec();
        doubled.push(doubled[0].clone());
        let err = ServiceWriter::build_from_entities(
            rule(),
            source.schema(),
            target.schema(),
            &doubled,
            ServiceOptions::default(),
        )
        .expect_err("duplicate ids must be rejected");
        assert!(matches!(err, EntityError::DuplicateEntity(ref id) if id == "b1"));
    }

    #[test]
    fn queries_survive_a_poisoned_scratch_pool() {
        let (source, target) = (source(), target());
        let (writer, reader) =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap()
                .split();
        // seed the pool, then poison it: a thread panics mid-lock, the way
        // a panicking query thread would
        let _ = reader.query(&source.entities()[0]);
        let shared = writer.reader();
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.shared.scratch_pool.lock().unwrap();
            panic!("deliberate poison");
        });
        assert!(poisoner.join().is_err());
        assert!(writer.shared.scratch_pool.lock().is_err(), "pool poisoned");
        // queries keep working: the pool recovers instead of propagating
        let links = reader.query(&source.entities()[0]);
        assert_eq!(links.len(), 2);
    }

    #[test]
    fn warm_registration_shares_pooled_leaves() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let cold = service.writer().leaf_pool_stats();
        assert_eq!(cold.misses, 1, "the default rule built its one leaf");
        assert_eq!(cold.entries, 1);

        // the Levenshtein arm shares the pooled leaf; only the equality
        // arm builds a leaf of its own
        service.register_rule("tight", tighter_rule()).unwrap();
        let warm = service.writer().leaf_pool_stats();
        assert_eq!(warm.hits, cold.hits + 1, "the shared leaf hit the pool");
        assert_eq!(warm.misses, cold.misses + 1, "only the new leaf was built");
        assert_eq!(warm.entries, 2);
        assert_eq!(warm.refs, 3, "one leaf serves both rules");

        // the registered rule answers through its own plan: "berlim" fails
        // the exact-match arm of the min aggregation
        let links = service
            .reader()
            .query_rule("tight", &source.entities()[0])
            .unwrap();
        let targets: Vec<&str> = links.iter().map(|l| l.target.as_str()).collect();
        assert_eq!(targets, vec!["b1"]);
        // the default rule is untouched
        assert_eq!(service.reader().query(&source.entities()[0]).len(), 2);
    }

    #[test]
    fn registered_rules_answer_like_independent_services() {
        let (source, target) = (source(), target());
        let mut multi =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        multi.register_rule("tight", tighter_rule()).unwrap();
        let solo = LinkService::build(
            tighter_rule(),
            source.schema(),
            &target,
            ServiceOptions::default(),
        )
        .unwrap();
        for entity in source.entities() {
            assert_eq!(
                multi.reader().query_rule("tight", entity).unwrap(),
                solo.reader().query(entity),
                "query {}",
                entity.id()
            );
        }
    }

    #[test]
    fn registry_mutations_follow_entity_churn() {
        let (source, target) = (source(), target());
        let mut service = LinkService::empty(
            rule(),
            source.schema(),
            target.schema(),
            ServiceOptions::default(),
        );
        service.ingest(&target.entities()[..2]).unwrap();
        // warm registration over a store with history
        service.register_rule("tight", tighter_rule()).unwrap();
        service.remove("b1");
        service.insert(&target.entities()[2]).unwrap();
        service.insert(&target.entities()[0]).unwrap();
        let solo = LinkService::build(
            tighter_rule(),
            source.schema(),
            &target,
            ServiceOptions::default(),
        )
        .unwrap();
        for entity in source.entities() {
            let mut expected = solo.reader().query(entity);
            // positions differ (churned slots), but ids and scores must not
            let mut got = service.reader().query_rule("tight", entity).unwrap();
            expected.sort_by(|a, b| a.target.cmp(&b.target));
            got.sort_by(|a, b| a.target.cmp(&b.target));
            assert_eq!(got, expected, "query {}", entity.id());
        }
    }

    #[test]
    fn deregistering_drops_leaves_and_orphaned_cache_chains() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        // a rule with a *different* chain (no lowerCase) builds its own leaf
        // and memoizes per-entity chain entries of its own
        let other: LinkageRule = compare(
            property("label"),
            transform(TransformFunction::LowerCase, vec![property("name")]),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        service.register_rule("other", other).unwrap();
        assert_eq!(service.writer().leaf_pool_stats().entries, 2);
        let warm = service.writer().cached_chain_entries();
        assert!(
            warm >= 3,
            "the new rule warmed its chains on registration? warm={warm}"
        );

        service.deregister_rule("other").unwrap();
        let after = service.writer().leaf_pool_stats();
        assert_eq!(after.entries, 1, "refcount zero drops the leaf");
        assert_eq!(after.refs, 1);
        assert!(
            service.writer().cached_chain_entries() < warm,
            "orphaned chain memos are evicted"
        );
        // the surviving rule still answers
        assert_eq!(service.reader().query(&source.entities()[0]).len(), 2);
    }

    #[test]
    fn hot_swap_is_one_publication_and_readers_switch_atomically() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let (mut writer, reader) = service.split();
        let a1 = &source.entities()[0];
        assert_eq!(reader.query(a1).len(), 2);
        let version = writer.version();
        writer.replace_rule(DEFAULT_RULE, tighter_rule()).unwrap();
        assert_eq!(writer.version(), version + 1, "a swap is one publication");
        let links = reader.query(a1);
        assert_eq!(links.len(), 1, "the tight rule rejects the fuzzy match");
        assert_eq!(links[0].target, "b1");
        // the shared Levenshtein leaf survived the swap (acquired before
        // the old plan released it); only the equality leaf was built
        let stats = writer.leaf_pool_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn committee_queries_merge_per_rule_votes() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        service.register_rule("tight", tighter_rule()).unwrap();
        let links = service.reader().query_committee(&source.entities()[0]);
        // b1 ("berlin"): both rules vote.  b3 ("berlim"): only the loose
        // default rule votes.
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].target, "b1");
        assert_eq!(links[0].votes, 2);
        assert_eq!(links[0].committee, 2);
        assert_eq!(links[1].target, "b3");
        assert_eq!(links[1].votes, 1);
        assert!(links[0].mean_score > links[1].mean_score);
    }

    #[test]
    fn per_rule_stats_count_queries_and_candidates() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        service.register_rule("tight", tighter_rule()).unwrap();
        service.reader().query(&source.entities()[0]);
        service
            .reader()
            .query_rule("tight", &source.entities()[0])
            .unwrap();
        service.reader().query_committee(&source.entities()[1]);
        let stats = service.writer().rule_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].rule, DEFAULT_RULE);
        assert_eq!(stats[0].queries, 2, "direct + committee");
        assert_eq!(stats[1].rule, "tight");
        assert_eq!(stats[1].queries, 2, "query_rule + committee");
        assert!(stats[0].candidates >= stats[0].queries);
        assert_eq!(stats[0].registered_epoch, 0, "construction-time rule");
        assert_eq!(stats[1].registered_epoch, 1, "registered in epoch 1");
        assert_eq!(stats[1].leaf_hits, 1, "the Levenshtein leaf was pooled");
        assert_eq!(stats[1].leaf_misses, 1, "the equality leaf was built");
    }

    #[test]
    fn registry_errors_are_reported() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        assert_eq!(
            service.register_rule(DEFAULT_RULE, tighter_rule()),
            Err(RegistryError::DuplicateRule(DEFAULT_RULE.to_string()))
        );
        assert_eq!(
            service.deregister_rule("ghost"),
            Err(RegistryError::UnknownRule("ghost".to_string()))
        );
        assert_eq!(
            service.replace_rule("ghost", tighter_rule()),
            Err(RegistryError::UnknownRule("ghost".to_string()))
        );
        assert_eq!(
            service.deregister_rule(DEFAULT_RULE),
            Err(RegistryError::LastRule)
        );
        // failed operations publish nothing
        assert_eq!(service.writer().version(), 0);
    }

    #[test]
    fn register_deregister_reregister_restores_equivalent_state() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let baseline: Vec<_> = source
            .entities()
            .iter()
            .map(|entity| service.reader().query(entity))
            .collect();
        service.register_rule("tight", tighter_rule()).unwrap();
        let registered: Vec<_> = source
            .entities()
            .iter()
            .map(|entity| service.reader().query_rule("tight", entity).unwrap())
            .collect();
        service.deregister_rule("tight").unwrap();
        assert!(service
            .reader()
            .query_rule("tight", &source.entities()[0])
            .is_none());
        assert_eq!(service.writer().leaf_pool_stats().entries, 1);
        service.register_rule("tight", tighter_rule()).unwrap();
        for (entity, expected) in source.entities().iter().zip(&registered) {
            assert_eq!(
                &service.reader().query_rule("tight", entity).unwrap(),
                expected
            );
        }
        for (entity, expected) in source.entities().iter().zip(&baseline) {
            assert_eq!(
                &service.reader().query(entity),
                expected,
                "default rule unaffected"
            );
        }
    }
}
