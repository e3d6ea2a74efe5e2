//! Snapshot persistence for the serving layer: dump a [`ServiceWriter`]'s
//! rule manifest, entity store and pooled leaf maps to versioned bytes and
//! restore them without re-deriving a single block key — restart becomes
//! O(read) instead of O(build).
//!
//! # Format (version 3, little-endian)
//!
//! ```text
//! magic    "LINKDSNP"            8 bytes
//! version  u32                   bump on any layout or key-scheme change
//! payload                        checksummed:
//!   rule manifest   [(name string, canonical hash u64)]   registration order
//!   link threshold  f64
//!   target schema   [string]     property names, in order
//!   entity store
//!     slot_len      u32
//!     string table  [string]     every distinct value, first-use order
//!     entities      [(position u32, id string, per property [table index u32])]
//!     free list     [u32]        tombstoned slots, recycle order preserved
//!   leaf pool
//!     leaves        [(chain hash u64, measure name string, bound bucket u64,
//!                     indexed_entities u32, blocks [(key u64, postings [u32])])]
//!                                entries sorted by reuse key, blocks strictly
//!                                ascending by raw key, every posting list
//!                                non-empty and strictly ascending (the
//!                                leaf's live view); each leaf is written
//!                                ONCE no matter how many rules share it
//! checksum  u64                  FNV-1a over the payload
//! ```
//!
//! Version 3 keeps the version-2 layout; what changed is the **meaning of
//! the raw block keys**: they are the targets' index-side keys
//! (`DistanceFunction::index_keys_into` — a Levenshtein q-gram is stored
//! under its own position bucket only, queries carry the ±1 neighbours) and
//! their 64-bit values come from a different mixer.  A version-2 file read
//! as version 3 would parse cleanly and then serve wrong candidates, so it
//! is refused with [`SnapshotError::Mismatch`] — rebuild from the entities.
//!
//! The **string table** interns values on disk the way the
//! [`linkdisc_entity::EntityStore`] interns them in memory: a column value
//! repeated across ten thousand entities is written once.  It is the same
//! interner, table shape and value-set shape (`[count, index*]`) the
//! write-ahead log uses per record (`crate::codec`).  Restore feeds
//! entities back through the store, so the in-memory interning is
//! re-established too.  The **leaf pool** plays the same trick one level
//! up: a leaf index shared by five registered rules appears once, under its
//! `(chain hash, measure, bound bucket)` reuse key; restore re-attaches
//! each rule's plan to the pooled leaves by key.
//!
//! # Decoding
//!
//! Restore decodes a byte slice already in memory; the codec never touches
//! a file.  It checks the magic and the version first, then the checksum
//! over the whole payload, and only then decodes — so damage from a torn
//! write or bit rot stops at the checksum.  Decoding still validates every
//! field, because a checksum catches accidents, not forgery: a count or
//! length is refused unless the bytes it claims remain, every position and
//! index is range-checked, block keys must ascend strictly (a repeated key
//! would otherwise replace the earlier list), and any failure is a
//! [`SnapshotError::Corrupt`] carrying the [`DecodeError`]'s byte offset.
//! A leaf's lists are decoded straight into its base — one postings array
//! and a key → range directory — with no list allocated per key.
//!
//! # What restore guarantees
//!
//! A restored service is **bit-identical to a fresh build** over the same
//! entity set and registrations: same leaves (block keys, posting lists,
//! statistics — the `Σlen`/`Σlen²` selectivity sums are recomputed
//! deterministically from the posting lists), same slot
//! positions and free list (so subsequent inserts recycle the same slots),
//! same registry order, and therefore bit-identical query results for every
//! registered rule (property-tested over random rules × datasets).  The
//! shared value cache starts cold and refills lazily — it is a pure memo,
//! so this affects latency, never results.
//!
//! # What a snapshot is *not*
//!
//! The rules themselves are configuration, not data: restore takes a rule
//! **catalog** from the caller and **resolves** every manifest entry
//! against it by canonical hash — the manifest's names are registry slots,
//! not lookup keys, since a hot swap re-binds a name to a new rule —
//! failing with [`SnapshotError::Mismatch`] rather than serving wrong
//! candidates.  Catalog entries the manifest does not use are ignored.  Block
//! keys are 64-bit hashes produced by the in-process key derivation; a
//! snapshot is portable across runs of the same build but not across
//! versions that change the key schemes — which is exactly what the format
//! version guards.  Restored keys enter the leaf maps under their own value
//! as the hash (`linkdisc_similarity::BlockKeyMap`): a forged file whose
//! keys share their low bits restores slowly — still within memory linear
//! in its length, and still to a typed error or a service that answers from
//! what the file said.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::sync::Arc;

use linkdisc_entity::{Entity, EntityStore, Schema};
use linkdisc_rule::{CompiledRule, IndexingPlan, LinkageRule};
use linkdisc_similarity::{BlockKey, BlockKeyMap, DistanceFunction};

use crate::codec::{DecodeError, Decoder, Encoder, Fnv, Interner};
use crate::multiblock::{LeafIndex, LeafKey, LeafPool};
use crate::service::{
    LinkService, RegisteredRule, RuleCounters, ServiceOptions, ServiceWriter, DEFAULT_RULE,
};

/// Current snapshot format version (see the module docs).
pub const SNAPSHOT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"LINKDSNP";

/// Magic and version: the bytes in front of the checksummed payload.
const HEADER_LEN: usize = 12;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// Writing the snapshot to its destination failed.
    Io(io::Error),
    /// The bytes are not a well-formed snapshot (bad magic, truncated
    /// payload, checksum mismatch, implausible length, broken invariant).
    Corrupt(DecodeError),
    /// The snapshot is well-formed but does not belong to the given rule
    /// catalog / schema / format version.
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot i/o error: {err}"),
            SnapshotError::Corrupt(err) => write!(f, "corrupt snapshot: {err}"),
            SnapshotError::Mismatch(why) => write!(f, "snapshot mismatch: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(err: DecodeError) -> Self {
        SnapshotError::Corrupt(err)
    }
}

impl ServiceWriter {
    /// Writes a versioned snapshot of the served state (rule manifest +
    /// entity store + pooled leaf maps, each shared leaf once) to `out`.
    /// The writer is untouched; readers keep serving.
    pub fn save_snapshot<W: Write>(&self, mut out: W) -> Result<(), SnapshotError> {
        out.write_all(&self.encode_snapshot())?;
        out.flush()?;
        Ok(())
    }

    /// The snapshot's bytes (see the module docs for the layout).
    pub(crate) fn encode_snapshot(&self) -> Vec<u8> {
        let mut out = Encoder::default();
        out.raw(MAGIC);
        out.u32(SNAPSHOT_VERSION);

        let store = self.store();
        let schema = store.schema();

        // rule manifest, registration order
        let rules = self.registered_rules();
        out.count(rules.len());
        for rule in rules {
            out.str(&rule.name);
            out.u64(rule.rule.canonical_hash());
        }

        out.f64(self.link_threshold());
        out.count(schema.len());
        for property in schema.properties() {
            out.str(property);
        }

        // entity store: a first pass interns every value in deterministic
        // (position, property, value) order so the table precedes the
        // entities that reference it
        out.count(store.slot_len());
        let mut interner = Interner::<&str>::default();
        for (_, entity) in store.iter() {
            for property_index in 0..schema.len() {
                for value in entity.values_at(property_index) {
                    interner.intern(value);
                }
            }
        }
        interner.write_fresh(&mut out);
        out.count(store.len());
        for (position, entity) in store.iter() {
            out.u32(position);
            out.str(entity.id());
            for property_index in 0..schema.len() {
                interner.value_set(entity.values_at(property_index), &mut out);
            }
        }
        out.count(store.free_slots().len());
        for &position in store.free_slots() {
            out.u32(position);
        }

        // the leaf pool: every distinct leaf once, under its reuse key, in
        // deterministic key order; each leaf's live lists (base and delta
        // merged) by raw key, so a churned leaf writes the bytes a bulk
        // build of its entities would
        let pooled = self.pool().sorted_entries();
        out.count(pooled.len());
        for ((chain_hash, function, bucket), leaf) in pooled {
            out.u64(chain_hash);
            out.str(function.name());
            out.u64(bucket);
            out.count(leaf.indexed_entities);
            out.count(leaf.blocks);
            leaf.for_each_list(|key, postings| {
                out.u64(key.raw());
                out.count(postings.len());
                for &position in postings {
                    out.u32(position);
                }
            });
        }

        let checksum = Fnv::digest(&out.bytes[HEADER_LEN..]);
        out.u64(checksum);
        out.bytes
    }

    /// Restores a single-rule writer from a snapshot — sugar for
    /// [`ServiceWriter::restore_with_rules`] with a one-entry catalog under
    /// the default name.
    pub fn restore(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        snapshot: &[u8],
    ) -> Result<ServiceWriter, SnapshotError> {
        ServiceWriter::restore_with_rules(
            &[(DEFAULT_RULE.to_string(), rule)],
            source_schema,
            snapshot,
        )
    }

    /// Restores a writer from the bytes of a snapshot previously written by
    /// [`ServiceWriter::save_snapshot`], resolving the saved rule manifest
    /// against a caller-provided `catalog` of `(name, rule)` pairs: every
    /// manifest entry must resolve to a catalog rule with an equal
    /// canonical hash ([`SnapshotError::Mismatch`] otherwise — the
    /// manifest's own names are the registry slots); catalog entries the
    /// manifest does not use are ignored.  The link threshold
    /// is taken from the snapshot — the leaf maps were derived under it;
    /// [`ServiceOptions::threads`] is irrelevant because nothing is
    /// rebuilt.  The restored state is bit-identical to a fresh build over
    /// the saved entities and registrations (see the module docs).
    pub fn restore_with_rules(
        catalog: &[(String, LinkageRule)],
        source_schema: &Arc<Schema>,
        snapshot: &[u8],
    ) -> Result<ServiceWriter, SnapshotError> {
        let mut outer = Decoder::new(snapshot);
        if outer.take(MAGIC.len())? != MAGIC {
            return Err(DecodeError {
                offset: 0,
                what: "bad magic".into(),
            }
            .into());
        }
        let version = outer.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot version {version}, this build reads {SNAPSHOT_VERSION}"
            )));
        }
        let payload_len = outer.remaining().saturating_sub(8);
        let mut input = outer.sub(payload_len)?;
        let checksum_at = outer.offset();
        if Fnv::digest(input.rest()) != outer.u64()? {
            return Err(DecodeError {
                offset: checksum_at,
                what: "checksum mismatch".into(),
            }
            .into());
        }

        // rule manifest, resolved against the catalog
        let rule_count = input.count()?;
        if rule_count == 0 {
            return Err(input.error("empty rule manifest").into());
        }
        let mut manifest: Vec<(&str, &LinkageRule)> = Vec::new();
        for _ in 0..rule_count {
            let name = input.str()?;
            let saved_hash = input.u64()?;
            if manifest.iter().any(|(seen, _)| *seen == name) {
                return Err(input
                    .error(format!("rule {name:?} appears twice in the manifest"))
                    .into());
            }
            // resolve by canonical hash, not by catalog name: a replaced
            // registry name legitimately binds to a different rule than an
            // identically-named catalog entry
            let rule = catalog
                .iter()
                .find(|(_, rule)| rule.canonical_hash() == saved_hash)
                .map(|(_, rule)| rule)
                .ok_or_else(|| {
                    SnapshotError::Mismatch(format!(
                        "no catalog rule matches the snapshot's rule {name:?}"
                    ))
                })?;
            manifest.push((name, rule));
        }

        let link_threshold = input.f64()?;
        let mut properties = Vec::new();
        input.strings_into(&mut properties)?;
        let target_schema = Arc::new(Schema::new(properties));

        // entity store.  Every structural claim of the (untrusted) payload
        // is validated *here*, with a SnapshotError — the EntityStore's own
        // occupancy/free-list assertions guard programmer misuse and must
        // never be reachable from forged bytes.
        let slot_len = input.count()?;
        let mut table = Vec::new();
        input.strings_into(&mut table)?;
        let mut store = EntityStore::new(target_schema.clone());
        let mut occupied = HashSet::new();
        for _ in 0..input.count()? {
            let position = input.u32()?;
            if position as usize >= slot_len {
                return Err(input
                    .error(format!("entity position {position} beyond slot table"))
                    .into());
            }
            if !occupied.insert(position) {
                return Err(input
                    .error(format!("slot {position} holds two entities"))
                    .into());
            }
            let id = input.str()?;
            let values = (0..target_schema.len())
                .map(|_| input.value_set(&table))
                .collect::<Result<_, _>>()?;
            let entity = Entity::new(id, target_schema.clone(), values);
            store
                .insert_at(position, &entity)
                .map_err(|err| input.error(format!("duplicate entity: {err}")))?;
        }
        let free_len = input.count_of(4)?;
        let mut free = Vec::with_capacity(free_len);
        for _ in 0..free_len {
            let position = input.u32()?;
            if position as usize >= slot_len || !occupied.insert(position) {
                let what =
                    format!("free slot {position} is out of range, occupied, or listed twice");
                return Err(input.error(what).into());
            }
            free.push(position);
        }
        if store.len() + free.len() != slot_len {
            let what = "live entities and free slots do not cover the slot table";
            return Err(input.error(what).into());
        }
        store.set_free_slots(free);

        // the leaf pool: each shared leaf once, under its reuse key
        let mut pooled: HashMap<LeafKey, Arc<LeafIndex>> = HashMap::new();
        for _ in 0..input.count()? {
            let chain_hash = input.u64()?;
            let function_name = input.str()?;
            let function = DistanceFunction::from_name(function_name).ok_or_else(|| {
                input.error(format!("unknown distance function {function_name:?}"))
            })?;
            let bucket = input.u64()?;
            let indexed_entities = input.u32()? as usize;
            if indexed_entities > slot_len {
                return Err(input
                    .error("a leaf indexes more entities than the slot table holds")
                    .into());
            }
            // the base arrays are filled directly: blocks arrive in strictly
            // ascending key order, each list non-empty and strictly
            // ascending within the slot table
            let blocks = input.count_of(16)?;
            let mut directory = BlockKeyMap::with_capacity_and_hasher(blocks, Default::default());
            let mut postings: Vec<u32> = Vec::new();
            let mut previous_key = None;
            for _ in 0..blocks {
                let key = BlockKey::from_raw(input.u64()?);
                if previous_key >= Some(key) {
                    return Err(input.error("block keys not strictly ascending").into());
                }
                previous_key = Some(key);
                let postings_len = input.count_of(4)?;
                if postings_len == 0 {
                    return Err(input.error("a block without postings").into());
                }
                let start = u32::try_from(postings.len())
                    .map_err(|_| input.error("a leaf holds 2^32 postings or more"))?;
                for _ in 0..postings_len {
                    let position = input.u32()?;
                    let list = &postings[start as usize..];
                    if position as usize >= slot_len || list.last() >= Some(&position) {
                        return Err(input
                            .error("posting list not strictly ascending within the slot table")
                            .into());
                    }
                    postings.push(position);
                }
                directory.insert(key, (start, postings_len as u32));
            }
            let leaf =
                LeafIndex::from_base(directory, postings.into_boxed_slice(), indexed_entities);
            if pooled
                .insert((chain_hash, function, bucket), Arc::new(leaf))
                .is_some()
            {
                return Err(input.error("two pooled leaves share one reuse key").into());
            }
        }
        input.finish()?;

        // attach every manifest rule's plan to the pooled leaves by reuse
        // key, re-deriving the hit/miss accounting registration would have
        // produced
        let mut pool = LeafPool::new();
        let mut adopted: HashSet<LeafKey> = HashSet::new();
        let mut rules: Vec<RegisteredRule> = Vec::with_capacity(manifest.len());
        for (name, rule) in manifest {
            let plan = Arc::new(
                IndexingPlan::lower(rule, source_schema, &target_schema, link_threshold)
                    .canonicalized(),
            );
            let compiled = Arc::new(CompiledRule::compile(rule, source_schema, &target_schema));
            let (mut leaf_hits, mut leaf_misses) = (0u64, 0u64);
            for comparison in plan.comparisons() {
                let key = comparison.leaf_reuse_key();
                let leaf = pooled.get(&key).ok_or_else(|| {
                    input.error(format!(
                        "snapshot is missing a pooled leaf rule {name:?} requires"
                    ))
                })?;
                pool.adopt(comparison, leaf.clone());
                if adopted.insert(key) {
                    leaf_misses += 1;
                } else {
                    leaf_hits += 1;
                }
            }
            pool.attach_plan(&plan)
                .expect("every key was adopted just above");
            rules.push(RegisteredRule {
                name: Arc::from(name),
                rule: Arc::new(rule.clone()),
                compiled,
                plan,
                counters: Arc::new(RuleCounters::default()),
                leaf_hits,
                leaf_misses,
                registered_epoch: 0,
            });
        }
        if adopted.len() != pooled.len() {
            return Err(input
                .error("snapshot pools a leaf no registered rule references")
                .into());
        }

        Ok(ServiceWriter::from_restored(
            source_schema,
            ServiceOptions {
                link_threshold,
                threads: 0,
            },
            store,
            pool,
            rules,
        ))
    }
}

impl LinkService {
    /// Writes a versioned snapshot of the served state — see
    /// [`ServiceWriter::save_snapshot`].
    pub fn save_snapshot<W: Write>(&self, out: W) -> Result<(), SnapshotError> {
        self.writer().save_snapshot(out)
    }

    /// Restores a single-rule service from a snapshot — see
    /// [`ServiceWriter::restore`].
    pub fn restore(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        snapshot: &[u8],
    ) -> Result<LinkService, SnapshotError> {
        Ok(ServiceWriter::restore(rule, source_schema, snapshot)?.into_service())
    }

    /// Restores a multi-rule service, resolving the saved manifest against
    /// a rule catalog — see [`ServiceWriter::restore_with_rules`].
    pub fn restore_with_rules(
        catalog: &[(String, LinkageRule)],
        source_schema: &Arc<Schema>,
        snapshot: &[u8],
    ) -> Result<LinkService, SnapshotError> {
        Ok(ServiceWriter::restore_with_rules(catalog, source_schema, snapshot)?.into_service())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceOptions;
    use linkdisc_entity::DataSourceBuilder;
    use linkdisc_rule::{
        aggregation, compare, property, transform, AggregationFunction, DistanceFunction,
        TransformFunction,
    };

    fn target() -> linkdisc_entity::DataSource {
        DataSourceBuilder::new("B", ["name", "year"])
            .entity("b0", [("name", "berlin"), ("year", "1237")])
            .unwrap()
            .entity("b1", [("name", "berlim"), ("year", "1237")])
            .unwrap()
            .entity("b2", [("name", "paris"), ("year", "0250")])
            .unwrap()
            .build()
    }

    fn source() -> linkdisc_entity::DataSource {
        DataSourceBuilder::new("A", ["name", "year"])
            .entity("a0", [("name", "Berlin"), ("year", "1237")])
            .unwrap()
            .entity("a1", [("name", "paris"), ("year", "0250")])
            .unwrap()
            .build()
    }

    fn rule() -> LinkageRule {
        aggregation(
            AggregationFunction::Min,
            vec![
                compare(
                    transform(TransformFunction::LowerCase, vec![property("name")]),
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

    /// Shares the year leaf with `rule()`, adds a name leaf of its own.
    fn other_rule() -> LinkageRule {
        aggregation(
            AggregationFunction::Min,
            vec![
                compare(
                    property("name"),
                    property("name"),
                    DistanceFunction::Levenshtein,
                    1.0,
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

    fn snapshot_of(service: &LinkService) -> Vec<u8> {
        let mut bytes = Vec::new();
        service.save_snapshot(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn round_trip_preserves_stats_queries_and_slot_discipline() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        service.remove("b1");
        let bytes = snapshot_of(&service);
        let restored = LinkService::restore(rule(), source.schema(), &bytes[..]).unwrap();
        assert_eq!(restored.writer().len(), service.writer().len());
        assert_eq!(restored.writer().stats(), service.writer().stats());
        assert_eq!(
            restored.writer().store().free_slots(),
            service.writer().store().free_slots()
        );
        for entity in source.entities() {
            assert_eq!(
                restored.reader().query(entity),
                service.reader().query(entity)
            );
        }
        // subsequent mutations behave identically (same slot recycled)
        let mut restored = restored;
        let a = service.insert(&target.entities()[1]).unwrap();
        let b = restored.insert(&target.entities()[1]).unwrap();
        assert_eq!(a, b);
        assert_eq!(restored.writer().stats(), service.writer().stats());
    }

    #[test]
    fn snapshots_are_deterministic() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        assert_eq!(snapshot_of(&service), snapshot_of(&service));
        // a rebuilt service over the same data writes the same bytes
        let again = LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
            .unwrap();
        assert_eq!(snapshot_of(&service), snapshot_of(&again));
    }

    /// A churned store — one entity removed and re-inserted at its recycled
    /// slot, another replaced by a different entity there — writes the bytes
    /// of a fresh build over the same `(position, entity)` set, though its
    /// leaves still hold the writes in their deltas.
    #[test]
    fn a_churned_store_writes_the_bytes_of_a_fresh_build() {
        let fuzzy = |name: &str, function, threshold| {
            compare(
                transform(function, vec![property(name)]),
                transform(function, vec![property(name)]),
                DistanceFunction::Levenshtein,
                threshold,
            )
        };
        let rule: LinkageRule = aggregation(
            AggregationFunction::Min,
            vec![
                fuzzy("name", TransformFunction::LowerCase, 2.0),
                fuzzy("phone", TransformFunction::DigitsOnly, 1.0),
            ],
        )
        .into();
        let dataset = linkdisc_datasets::DatasetKind::Restaurant.generate(5.0, 3);
        let (source, target) = (&dataset.source, &dataset.target);
        let schema = target.schema();
        let options = ServiceOptions::default();
        let mut churned =
            LinkService::build(rule.clone(), source.schema(), target, options).unwrap();
        let entities = target.entities();
        let (kept, replaced) = (&entities[17], &entities[40]);
        let values = (0..schema.len()).map(|at| entities[41].values_at(at).to_vec());
        let newcomer = Entity::new("newcomer", schema.clone(), values.collect());
        assert!(churned.remove(kept.id()));
        assert_eq!(churned.insert(kept).unwrap(), 17);
        assert!(churned.remove(replaced.id()));
        assert_eq!(churned.insert(&newcomer).unwrap(), 40);
        let pooled = churned.writer().pool().sorted_entries();
        assert!(
            pooled.iter().all(|(_, leaf)| !leaf.is_bulk()),
            "a leaf folded"
        );

        let mut fresh_target = linkdisc_entity::DataSource::new("B", (**schema).clone());
        for (at, entity) in entities.iter().enumerate() {
            let entity = if at == 40 { &newcomer } else { entity };
            fresh_target.add_entity(entity.clone()).unwrap();
        }
        let fresh = LinkService::build(rule, source.schema(), &fresh_target, options).unwrap();
        assert_eq!(snapshot_of(&churned), snapshot_of(&fresh));
    }

    #[test]
    fn multi_rule_snapshots_round_trip_with_shared_leaves_written_once() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        service.register_rule("other", other_rule()).unwrap();
        service.remove("b0");
        let bytes = snapshot_of(&service);
        let catalog = vec![
            (DEFAULT_RULE.to_string(), rule()),
            ("other".to_string(), other_rule()),
        ];
        let restored =
            LinkService::restore_with_rules(&catalog, source.schema(), &bytes[..]).unwrap();
        assert_eq!(
            restored.writer().rule_names(),
            service.writer().rule_names()
        );
        let before = service.writer().leaf_pool_stats();
        let after = restored.writer().leaf_pool_stats();
        assert_eq!(after.entries, before.entries, "shared leaves pooled once");
        assert_eq!(after.refs, before.refs);
        for entity in source.entities() {
            assert_eq!(
                restored.reader().query(entity),
                service.reader().query(entity)
            );
            assert_eq!(
                restored.reader().query_rule("other", entity).unwrap(),
                service.reader().query_rule("other", entity).unwrap()
            );
        }
        // catalog order does not matter, and extra catalog entries are
        // simply unused
        let shuffled = vec![
            ("unused".to_string(), other_rule()),
            ("other".to_string(), other_rule()),
            (DEFAULT_RULE.to_string(), rule()),
        ];
        let again =
            LinkService::restore_with_rules(&shuffled, source.schema(), &bytes[..]).unwrap();
        assert_eq!(again.writer().rule_names(), service.writer().rule_names());
        // determinism holds across save → restore → save
        assert_eq!(snapshot_of(&restored), bytes);
    }

    #[test]
    fn restore_rejects_the_wrong_rule() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let bytes = snapshot_of(&service);
        let other: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            3.0,
        )
        .into();
        let err = LinkService::restore(other, source.schema(), &bytes[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    }

    /// The key schemes changed under version 2 files (one-sided Levenshtein
    /// buckets, a new mixer): their layout still parses, so only the version
    /// field stands between a stale file and silently wrong candidates.
    #[test]
    fn restore_refuses_a_version_2_snapshot() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let mut bytes = snapshot_of(&service);
        assert_eq!(bytes[8..12], SNAPSHOT_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = LinkService::restore(rule(), source.schema(), &bytes[..]).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Mismatch(why) if why.contains("version 2")),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_catalog_missing_a_manifest_rule() {
        let (source, target) = (source(), target());
        let mut service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        service.register_rule("other", other_rule()).unwrap();
        let bytes = snapshot_of(&service);
        // the catalog knows only the default rule; "other" cannot resolve
        let err = LinkService::restore(rule(), source.schema(), &bytes[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    }

    #[test]
    fn corruption_is_detected() {
        let (source, target) = (source(), target());
        let service =
            LinkService::build(rule(), source.schema(), &target, ServiceOptions::default())
                .unwrap();
        let bytes = snapshot_of(&service);
        // truncation
        let err =
            LinkService::restore(rule(), source.schema(), &bytes[..bytes.len() - 9]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        // any flipped byte must yield an error — via the checksum or an
        // earlier structural check — and never a panic or wild allocation,
        // wherever it lands (counts, positions, free list, table indices)
        for at in (0..bytes.len()).step_by(7) {
            for bit in [0x01, 0x80] {
                let mut flipped = bytes.clone();
                flipped[at] ^= bit;
                assert!(
                    LinkService::restore(rule(), source.schema(), &flipped[..]).is_err(),
                    "flipping byte {at} (bit {bit:#x}) must not restore silently"
                );
            }
        }
        // bad magic
        let mut wrong = bytes;
        wrong[0] ^= 0xff;
        let err = LinkService::restore(rule(), source.schema(), &wrong[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn empty_and_exhaustive_services_round_trip() {
        let (source, target) = (source(), target());
        let empty = LinkService::empty(
            rule(),
            source.schema(),
            target.schema(),
            ServiceOptions::default(),
        );
        let restored =
            LinkService::restore(rule(), source.schema(), &snapshot_of(&empty)[..]).unwrap();
        assert!(restored.writer().is_empty());
        // an unprunable rule has no leaves — only the store round-trips
        let jaro: LinkageRule = compare(
            property("name"),
            property("name"),
            DistanceFunction::Jaro,
            2.0,
        )
        .into();
        let service = LinkService::build(
            jaro.clone(),
            source.schema(),
            &target,
            ServiceOptions::default(),
        )
        .unwrap();
        assert!(service.writer().stats().is_empty());
        let restored =
            LinkService::restore(jaro, source.schema(), &snapshot_of(&service)[..]).unwrap();
        assert_eq!(restored.writer().len(), 3);
        for entity in source.entities() {
            assert_eq!(
                restored.reader().query(entity),
                service.reader().query(entity)
            );
        }
    }
}
