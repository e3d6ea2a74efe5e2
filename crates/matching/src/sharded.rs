//! Sharded serving: N independent shards behind one entity-id hash
//! router — parallel mutation with no cross-shard lock.
//!
//! A single writer serializes every mutation through one working index and
//! one epoch cell.  [`ShardedService`] partitions the served entity set by
//! a stable hash of the entity id ([`ShardRouter`]): each shard owns its
//! slots, its interner, its free list, its [`crate::MultiBlockIndex`] and
//! its own epoch chain, so N writers mutate N shards concurrently and a
//! reader pins one epoch *per shard*.  The front is written once over the
//! [`Shard`] kind: in-memory [`ServiceWriter`] shards (the default) or
//! crash-safe [`crate::DurableService`] shards, each with its own WAL
//! chain under `<dir>/shard-NNN/` (see [`crate::durable`]).  A shard kind
//! only runs a delta through its own write path; routing, the up-front
//! batch check of the parallel ingest and the shard-0-first registry
//! broadcast are the front's, the same for both.
//!
//! # Why merge-at-query is lossless
//!
//! Every target entity lives in exactly one shard (the router is a pure
//! function of the id), so per-shard candidate sets are disjoint and a
//! query is answered by concatenating the per-shard hits and re-sorting
//! with the same ordering the unsharded reader uses (score descending,
//! ties towards the smaller target id).  No deduplication, no cross-shard
//! reconciliation — `shards = N` returns byte-for-byte the links of
//! `shards = 1`.
//!
//! # Consistency model
//!
//! Per-shard epochs are independent: a reader's pins across shards do not
//! form a single global snapshot, but within a shard every query observes
//! a fully published epoch and mutations become visible in acknowledgement
//! order (the single-writer property holds per shard).  A batch
//! [`ShardedService::ingest`] spanning shards is checked up-front and
//! then applied per shard — each shard publishes its sub-batch atomically,
//! but a reader may observe shard A's sub-batch before shard B's.
//!
//! With `shards = 1` the construction path, the snapshot bytes, the query
//! results and the epoch versions are bit-identical to the unsharded
//! [`ServiceWriter`] — sharding is strictly additive.

use std::sync::Arc;

use linkdisc_entity::{DataSource, Entity, EntityError, Schema};
use linkdisc_rule::LinkageRule;
use linkdisc_util::parallel_ordered_map_mut;

use crate::codec::Fnv;
use crate::durable::{DurableError, DurableService};
use crate::engine::ScoredLink;
use crate::multiblock::CandidateScratch;
use crate::service::{
    first_duplicate, CommitteeLink, RegistryError, RuleServingStats, ServiceOptions, ServiceReader,
    ServiceWriter,
};
use crate::wal::{Delta, Refused};

/// Routes entity ids to shards: a pure function of the id and the shard
/// count, stable across inserts, removes and slot recycling (it never
/// looks at positions, only at the id bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` partitions (at least 1).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        assert!(shards <= u32::MAX as usize, "shard count must fit in u32");
        ShardRouter {
            shards: shards as u32,
        }
    }

    /// Number of shards this router partitions into.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning this entity id — always in `0..shards()`.
    pub fn route(&self, id: &str) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (Fnv::digest(id.as_bytes()) % self.shards as u64) as usize
    }
}

/// A sharded slot address: which shard, and the slot position within that
/// shard's [`linkdisc_entity::EntityStore`].  The sharded analogue of the
/// unsharded `u32` position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSlot {
    /// The owning shard (an index into the shard list).
    pub shard: u32,
    /// The slot position within that shard.
    pub position: u32,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::ServiceWriter {}
    impl Sealed for super::DurableService {}
}

/// A shard kind a [`ShardedService`] can front: the in-memory
/// [`ServiceWriter`] or the write-ahead logged [`DurableService`].  Each
/// runs a delta through that type's own write path; the front adds
/// routing, the up-front batch check and the registry broadcast.
pub trait Shard: Send + sealed::Sealed {
    /// Why an entity mutation failed.
    type Error: From<EntityError> + Send;
    /// Why a registry operation failed.
    type RegistryError;
    /// The in-memory writer the shard serves from.
    fn writer(&self) -> &ServiceWriter;
    /// `Ok` while the shard accepts writes (a poisoned durable shard
    /// refuses them until recovered).
    fn guard(&self) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Runs one delta through the shard's write path: check, log (durable
    /// shards), apply, publish.  `Ok(None)` when the delta has nothing to
    /// do; `Ok(Some(slot))` names an inserted entity's slot.
    fn commit(
        &mut self,
        delta: Delta<'_>,
    ) -> Result<Option<u32>, Refused<Self::Error, Self::RegistryError>>;
}

impl Shard for ServiceWriter {
    type Error = EntityError;
    type RegistryError = RegistryError;

    fn writer(&self) -> &ServiceWriter {
        self
    }

    fn commit(&mut self, delta: Delta<'_>) -> Result<Option<u32>, Refused> {
        self.write(delta)
    }
}

impl Shard for DurableService {
    type Error = DurableError;
    type RegistryError = DurableError;

    fn writer(&self) -> &ServiceWriter {
        DurableService::writer(self)
    }

    fn guard(&self) -> Result<(), DurableError> {
        DurableService::guard(self)
    }

    fn commit(
        &mut self,
        delta: Delta<'_>,
    ) -> Result<Option<u32>, Refused<DurableError, DurableError>> {
        let registry = matches!(
            delta,
            Delta::Register(..) | Delta::Deregister(_) | Delta::Replace(..)
        );
        DurableService::commit(self, delta).map_err(|err| match registry {
            true => Refused::Registry(err),
            false => Refused::Entity(err),
        })
    }
}

/// A serving store partitioned into independent single-writer shards (see
/// the module docs), over in-memory [`ServiceWriter`] shards (the default)
/// or crash-safe [`DurableService`] shards.  The front owns every shard
/// plus one sharded reader; call [`ShardedService::split`] for concurrent
/// operation with one mutating thread per shard.
#[derive(Debug)]
pub struct ShardedService<W: Shard = ServiceWriter> {
    router: ShardRouter,
    shards: Vec<W>,
    reader: ShardedReader,
    threads: usize,
}

impl ShardedService {
    /// Creates a sharded service with no target entities yet.
    pub fn empty(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        shards: usize,
        options: ServiceOptions,
    ) -> Self {
        let router = ShardRouter::new(shards);
        let writers: Vec<ServiceWriter> = (0..shards)
            .map(|_| ServiceWriter::empty(rule.clone(), source_schema, target_schema, options))
            .collect();
        ShardedService::assemble(router, writers, options.threads)
    }

    /// Builds a sharded service over a materialised target source: entities
    /// are partitioned by the router (preserving source order within each
    /// shard) and each shard builds its index independently.  With
    /// `shards = 1` the partition is the identity and the single shard is
    /// byte-identical to an unsharded [`ServiceWriter::build`].
    pub fn build(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target: &DataSource,
        shards: usize,
        options: ServiceOptions,
    ) -> Result<Self, EntityError> {
        let router = ShardRouter::new(shards);
        let mut parts: Vec<Vec<Entity>> = vec![Vec::new(); shards];
        for entity in target.entities() {
            parts[router.route(entity.id())].push(entity.clone());
        }
        let writers = parts
            .iter()
            .map(|part| {
                ServiceWriter::build_from_entities(
                    rule.clone(),
                    source_schema,
                    target.schema(),
                    part,
                    options,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedService::assemble(router, writers, options.threads))
    }
}

impl<W: Shard> ShardedService<W> {
    pub(crate) fn assemble(router: ShardRouter, shards: Vec<W>, threads: usize) -> Self {
        assert_eq!(router.shards(), shards.len(), "one shard per route");
        ShardedService {
            router,
            reader: ShardedReader::over(&shards),
            shards,
            threads,
        }
    }

    /// Converts every shard in shard order, keeping the router and the
    /// ingest worker count.
    pub(crate) fn try_map_shards<V: Shard, E>(
        self,
        convert: impl FnMut((usize, W)) -> Result<V, E>,
    ) -> Result<ShardedService<V>, E> {
        let shards = self
            .shards
            .into_iter()
            .enumerate()
            .map(convert)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedService::assemble(self.router, shards, self.threads))
    }

    /// The router partitioning entity ids across shards.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The shards, in shard order (e.g. for per-shard snapshots).
    pub fn shards(&self) -> &[W] {
        &self.shards
    }

    /// One shard (e.g. to compact or inspect it alone).
    pub fn shard_mut(&mut self, shard: usize) -> &mut W {
        &mut self.shards[shard]
    }

    /// Per-shard epoch versions, in shard order.
    pub fn versions(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.writer().version())
            .collect()
    }

    /// Total live target entities across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.writer().len()).sum()
    }

    /// Returns `true` when no shard serves any entity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if a target with this identifier is currently served
    /// (only its routed shard can hold it).
    pub fn contains(&self, id: &str) -> bool {
        self.shards[self.router.route(id)].writer().contains(id)
    }

    /// The target entity currently served at a sharded slot.
    pub fn at(&self, slot: ShardSlot) -> Option<Arc<Entity>> {
        self.shards
            .get(slot.shard as usize)?
            .writer()
            .at(slot.position)
    }

    /// Adds one target entity to its routed shard, publishing a new epoch
    /// on that shard only.  Returns the sharded slot; fails on a duplicate
    /// identifier.
    pub fn insert(&mut self, entity: &Entity) -> Result<ShardSlot, W::Error> {
        let shard = self.router.route(entity.id());
        let position = self.shards[shard].commit(Delta::Insert(entity));
        Ok(ShardSlot {
            shard: shard as u32,
            position: position.map_err(Refused::entity)?.unwrap_or_default(),
        })
    }

    /// Removes a target entity from its routed shard (publishing on that
    /// shard only).  Returns `Ok(false)` when the id is not served.
    pub fn remove(&mut self, id: &str) -> Result<bool, W::Error> {
        let removed = self.shards[self.router.route(id)].commit(Delta::Remove(id));
        Ok(removed.map_err(Refused::entity)?.is_some())
    }

    /// Batch ingestion across shards, all or nothing as on every front: a
    /// poisoned routed shard, or a duplicate id — within the batch or
    /// against any shard, named as the unsharded writer names it — fails
    /// the whole call before anything is applied.  Then one worker per
    /// touched shard commits its sub-batch in batch order under one
    /// publication — durably, one log record and one fsync; untouched
    /// shards publish nothing.  Per-shard, not cross-shard, atomic: a crash
    /// between durable shards' fsyncs can keep some sub-batches and not
    /// others.  With `shards = 1` a valid batch is byte-identical to the
    /// unsharded path, in one publication.
    pub fn ingest(&mut self, entities: &[Entity]) -> Result<usize, W::Error> {
        // routing is one hash per id: cheaper inline than a thread spawn
        // until batches reach ~10^4 ids
        let mut per_shard: Vec<Vec<&Entity>> = vec![Vec::new(); self.router.shards()];
        for entity in entities {
            let shard = self.router.route(entity.id());
            self.shards[shard].guard()?;
            per_shard[shard].push(entity);
        }
        if let Some(entity) = first_duplicate(entities, |id| self.contains(id)) {
            return Err(EntityError::DuplicateEntity(entity.id().to_string()).into());
        }
        let mut jobs: Vec<(&mut W, Vec<&Entity>)> = self.shards.iter_mut().zip(per_shard).collect();
        let committed = parallel_ordered_map_mut(&mut jobs, self.threads, |_, (shard, batch)| {
            shard.commit(Delta::Ingest(batch)).map_err(Refused::entity)
        });
        for outcome in committed {
            outcome?;
        }
        Ok(entities.len())
    }

    /// Registers a rule on every shard, shard 0 first; each shard acquires
    /// its missing pool leaves and publishes once.  Shard registries are
    /// kept identical, so a registry error on any shard (checked on shard 0
    /// before anything mutates) fails the whole call cleanly.  Durably,
    /// shard 0's registry is the authority recovery converges the others
    /// to, so a crash mid-broadcast rolls forward, never back.
    pub fn register_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), W::RegistryError> {
        self.broadcast(Delta::Register(name, &rule))
    }

    /// Deregisters a rule from every shard, shard 0 first — see
    /// [`ServiceWriter::deregister_rule`].
    pub fn deregister_rule(&mut self, name: &str) -> Result<(), W::RegistryError> {
        self.broadcast(Delta::Deregister(name))
    }

    /// Hot-swaps the rule registered under `name` on every shard, shard 0
    /// first — see [`ServiceWriter::replace_rule`].
    pub fn replace_rule(&mut self, name: &str, rule: LinkageRule) -> Result<(), W::RegistryError> {
        self.broadcast(Delta::Replace(name, &rule))
    }

    /// Commits one registry delta on every shard in shard order, stopping
    /// at the first failure.
    fn broadcast(&mut self, delta: Delta<'_>) -> Result<(), W::RegistryError> {
        self.shards.iter_mut().try_for_each(|shard| {
            let committed = shard.commit(delta);
            committed.map(drop).map_err(Refused::registry)
        })
    }

    /// All targets matching one query entity across every shard, best
    /// first — equal to the unsharded result (see the module docs).
    pub fn query(&self, source_entity: &Entity) -> Vec<ScoredLink> {
        self.reader.query(source_entity)
    }

    /// A new sharded reader over every shard's published epochs (one
    /// per querying thread).
    pub fn reader(&self) -> ShardedReader {
        ShardedReader::over(&self.shards)
    }

    /// Splits the service into its concurrent halves: the shards (hand each
    /// to its own mutating thread) and a sharded reader.
    pub fn split(self) -> (Vec<W>, ShardedReader) {
        (self.shards, self.reader)
    }
}

/// A query handle over every shard's epoch chain.  Clone one per thread
/// (like [`ServiceReader`], it is `Send` but not `Sync`).  Each query pins
/// one epoch per shard; per-shard results are disjoint by construction and
/// merge by concatenation + re-sort.
#[derive(Debug, Clone)]
pub struct ShardedReader {
    shards: Vec<ServiceReader>,
}

impl ShardedReader {
    fn over<W: Shard>(shards: &[W]) -> Self {
        ShardedReader {
            shards: shards.iter().map(|shard| shard.writer().reader()).collect(),
        }
    }

    /// The reader of one shard (e.g. for per-shard verification).
    pub fn shard(&self, shard: usize) -> &ServiceReader {
        &self.shards[shard]
    }

    /// All targets matching one query entity across every shard (score ≥
    /// the link threshold), best first (ties towards the smaller
    /// identifier) — the same ordering, and therefore the same result, as
    /// the unsharded [`ServiceReader::query`].
    pub fn query(&self, source_entity: &Entity) -> Vec<ScoredLink> {
        let mut links: Vec<ScoredLink> = Vec::new();
        for shard in &self.shards {
            links.extend(shard.query(source_entity));
        }
        best_first(&mut links);
        links
    }

    /// Per-rule serving statistics aggregated across shards: counters are
    /// summed by rule name; the registration epoch reported is shard 0's
    /// (per-shard epoch chains advance independently).
    pub fn rule_stats(&self) -> Vec<RuleServingStats> {
        let mut merged = self.shards[0].rule_stats();
        for shard in &self.shards[1..] {
            for stats in shard.rule_stats() {
                if let Some(entry) = merged.iter_mut().find(|entry| entry.rule == stats.rule) {
                    add_counters(entry, &stats);
                }
            }
        }
        merged
    }

    /// One named rule's view of the query across every shard, merged like
    /// [`ShardedReader::query`].  Returns `None` when no shard's pinned
    /// epoch serves a rule under `name` (rule registries are identical
    /// across shards, so all-shards and any-shard agree in steady state;
    /// mid-broadcast a shard that has not yet published the rule simply
    /// contributes nothing).
    pub fn query_rule(&self, name: &str, source_entity: &Entity) -> Option<Vec<ScoredLink>> {
        let mut links: Vec<ScoredLink> = Vec::new();
        let mut served = false;
        for shard in &self.shards {
            if let Some(hits) = shard.query_rule(name, source_entity) {
                served = true;
                links.extend(hits);
            }
        }
        if !served {
            return None;
        }
        best_first(&mut links);
        Some(links)
    }

    /// One query fanned across every registered rule on every shard.
    /// Per-shard committee results cover disjoint targets (the router is a
    /// pure function of the id), so the merge is concatenation plus the
    /// unsharded ordering: votes descending, then mean score descending,
    /// then the smaller target id.
    pub fn query_committee(&self, source_entity: &Entity) -> Vec<CommitteeLink> {
        let mut links: Vec<CommitteeLink> = Vec::new();
        for shard in &self.shards {
            links.extend(shard.query_committee(source_entity));
        }
        links.sort_by(|a, b| {
            b.votes
                .cmp(&a.votes)
                .then_with(|| b.mean_score.total_cmp(&a.mean_score))
                .then_with(|| a.target.cmp(&b.target))
        });
        links
    }

    /// The sharded hot query path: one [`ServiceReader::query_with`] per
    /// shard on the caller's scratch, hits appended to `out` as
    /// `(sharded slot, score)` pairs (cleared first, unordered).  The epoch
    /// version each shard answered under is recorded in
    /// [`ShardedScratch::versions`], in shard order.  With warm buffers
    /// this path performs no heap allocation — multi-shard writer churn
    /// included.
    pub fn query_with(
        &self,
        source_entity: &Entity,
        scratch: &mut ShardedScratch,
        out: &mut Vec<(ShardSlot, f64)>,
    ) {
        scratch.ensure(self.shards.len());
        out.clear();
        for (shard, reader) in self.shards.iter().enumerate() {
            let version = reader.query_with(
                source_entity,
                &mut scratch.per_shard[shard],
                &mut scratch.hits,
            );
            scratch.versions[shard] = version;
            for &(position, score) in scratch.hits.iter() {
                out.push((
                    ShardSlot {
                        shard: shard as u32,
                        position,
                    },
                    score,
                ));
            }
        }
    }
}

/// The unsharded reader's link order: score descending, ties towards the
/// smaller target id.
fn best_first(links: &mut [ScoredLink]) {
    links.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.target.cmp(&b.target))
    });
}

/// Adds every counter of `from` into `into` (name and epoch stay `into`'s).
fn add_counters(into: &mut RuleServingStats, from: &RuleServingStats) {
    into.queries += from.queries;
    into.candidates += from.candidates;
    into.pairs_short_circuited += from.pairs_short_circuited;
    into.comparisons_evaluated += from.comparisons_evaluated;
    into.comparisons_skipped += from.comparisons_skipped;
    into.leaf_hits += from.leaf_hits;
    into.leaf_misses += from.leaf_misses;
}

/// Reusable buffers for [`ShardedReader::query_with`]: one candidate
/// scratch per shard, a shared hit buffer, and the per-shard epoch
/// versions of the last query.  Allocates only while warming up (first
/// query, or a query against more shards than seen before).
#[derive(Debug, Default)]
pub struct ShardedScratch {
    per_shard: Vec<CandidateScratch>,
    hits: Vec<(u32, f64)>,
    versions: Vec<u64>,
}

impl ShardedScratch {
    /// Fresh, cold buffers.
    pub fn new() -> Self {
        ShardedScratch::default()
    }

    /// The epoch version each shard answered under in the most recent
    /// [`ShardedReader::query_with`], in shard order.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    fn ensure(&mut self, shards: usize) {
        if self.per_shard.len() < shards {
            self.per_shard
                .resize_with(shards, CandidateScratch::default);
        }
        if self.versions.len() != shards {
            self.versions.resize(shards, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::DataSourceBuilder;
    use linkdisc_rule::{compare, property, transform, DistanceFunction, TransformFunction};

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
            .entity("b4", [("name", "rome")])
            .unwrap()
            .entity("b5", [("name", "parys")])
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

    #[test]
    fn every_id_routes_to_exactly_one_stable_shard() {
        for shards in [1, 2, 3, 8] {
            let router = ShardRouter::new(shards);
            for i in 0..200 {
                let id = format!("entity-{i}");
                let first = router.route(&id);
                assert!(first < shards);
                assert_eq!(router.route(&id), first, "routing must be stable");
            }
        }
    }

    #[test]
    fn sharded_queries_equal_unsharded_queries() {
        let (source, target) = (source(), target());
        let unsharded = ShardedService::build(
            rule(),
            source.schema(),
            &target,
            1,
            ServiceOptions::default(),
        )
        .unwrap();
        for shards in [2, 3, 5] {
            let sharded = ShardedService::build(
                rule(),
                source.schema(),
                &target,
                shards,
                ServiceOptions::default(),
            )
            .unwrap();
            assert_eq!(sharded.len(), unsharded.len());
            for entity in source.entities() {
                assert_eq!(
                    sharded.query(entity),
                    unsharded.query(entity),
                    "shards={shards} query={}",
                    entity.id()
                );
            }
        }
    }

    #[test]
    fn mutations_only_publish_on_the_routed_shard() {
        let (source, target) = (source(), target());
        let mut service = ShardedService::build(
            rule(),
            source.schema(),
            &target,
            3,
            ServiceOptions::default(),
        )
        .unwrap();
        let before = service.versions();
        let routed = service.router().route("b1");
        assert!(service.remove("b1").unwrap());
        let after = service.versions();
        for shard in 0..3 {
            if shard == routed {
                assert_eq!(after[shard], before[shard] + 1);
            } else {
                assert_eq!(after[shard], before[shard], "untouched shard republished");
            }
        }
        assert!(!service.contains("b1"));
    }

    #[test]
    fn sharded_ingest_is_atomic_and_matches_serial_inserts() {
        let (source, target) = (source(), target());
        let mut batched = ShardedService::empty(
            rule(),
            source.schema(),
            target.schema(),
            3,
            ServiceOptions::default(),
        );
        let mut serial = ShardedService::empty(
            rule(),
            source.schema(),
            target.schema(),
            3,
            ServiceOptions::default(),
        );
        assert_eq!(batched.ingest(target.entities()).unwrap(), 5);
        for entity in target.entities() {
            serial.insert(entity).unwrap();
        }
        for entity in source.entities() {
            assert_eq!(batched.query(entity), serial.query(entity));
        }

        // a duplicate anywhere in the batch applies nothing at all
        let versions = batched.versions();
        let err = batched.ingest(&target.entities()[..2]).unwrap_err();
        assert!(matches!(err, EntityError::DuplicateEntity(_)));
        assert_eq!(batched.versions(), versions, "no shard published");
        assert_eq!(batched.len(), 5);

        let mut fresh = ShardedService::empty(
            rule(),
            source.schema(),
            target.schema(),
            3,
            ServiceOptions::default(),
        );
        let mut doubled = target.entities().to_vec();
        doubled.push(target.entities()[0].clone());
        let err = fresh.ingest(&doubled).unwrap_err();
        assert!(matches!(err, EntityError::DuplicateEntity(ref id) if id == "b1"));
        assert!(fresh.is_empty(), "intra-batch duplicate applies nothing");
        assert_eq!(fresh.versions(), vec![0, 0, 0]);
    }

    #[test]
    fn query_with_reports_slots_and_per_shard_versions() {
        let (source, target) = (source(), target());
        let mut service = ShardedService::build(
            rule(),
            source.schema(),
            &target,
            3,
            ServiceOptions::default(),
        )
        .unwrap();
        let mut scratch = ShardedScratch::new();
        let mut hits = Vec::new();
        service
            .reader()
            .query_with(&source.entities()[0], &mut scratch, &mut hits);
        assert_eq!(scratch.versions(), &[0, 0, 0]);
        assert_eq!(hits.len(), 2, "berlin exact, berlim fuzzy");
        for &(slot, score) in &hits {
            let entity = service.at(slot).expect("hit slots resolve");
            assert!(score >= 0.5);
            assert!(entity.id() == "b1" || entity.id() == "b3");
        }
        service.remove("b3").unwrap();
        service
            .reader()
            .query_with(&source.entities()[0], &mut scratch, &mut hits);
        assert_eq!(hits.len(), 1);
        let bumped = scratch
            .versions()
            .iter()
            .filter(|&&version| version == 1)
            .count();
        assert_eq!(bumped, 1, "exactly the routed shard advanced");
    }

    #[test]
    fn split_yields_per_shard_writers_that_feed_the_reader() {
        let (source, target) = (source(), target());
        let service = ShardedService::build(
            rule(),
            source.schema(),
            &target,
            2,
            ServiceOptions::default(),
        )
        .unwrap();
        let router = service.router();
        let (mut writers, reader) = service.split();
        assert_eq!(writers.len(), 2);
        let before = reader.query(&source.entities()[1]);
        assert!(before.iter().any(|l| l.target == "b2"));
        let shard = router.route("b2");
        assert!(writers[shard].remove("b2"));
        let after = reader.query(&source.entities()[1]);
        assert!(!after.iter().any(|l| l.target == "b2"));
    }
}
