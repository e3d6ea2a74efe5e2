//! Snapshot persistence for the serving layer: dump a [`ServiceWriter`]'s
//! rule manifest, entity store and pooled leaf maps to a versioned binary
//! stream and restore them without re-deriving a single block key — restart
//! becomes O(read) instead of O(build).
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
//!                                entries sorted by reuse key, blocks sorted by
//!                                raw key (deterministic file); each leaf is
//!                                written ONCE no matter how many rules share it
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
//! repeated across ten thousand entities is written once.  Restore feeds
//! entities back through the store, so the in-memory interning is
//! re-established too.  The **leaf pool** plays the same trick one level
//! up: a leaf index shared by five registered rules appears once, under its
//! `(chain hash, measure, bound bucket)` reuse key; restore re-attaches
//! each rule's plan to the pooled leaves by key.
//!
//! # What restore guarantees
//!
//! A restored service is **bit-identical to a fresh build** over the same
//! entity set and registrations: same leaf maps (block keys, posting lists,
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
//! as the hash (`linkdisc_similarity::BlockKeyMap`): the checksum catches
//! accidents, not forgery, and a forged file whose keys share their low bits
//! restores slowly — still within the memory its length fields allow, and
//! still to a typed error or a service that answers from what the file said.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;

use linkdisc_entity::{Entity, EntityStore, Schema, ValueSet};
use linkdisc_rule::{CompiledRule, IndexingPlan, LinkageRule};
use linkdisc_similarity::{BlockKey, DistanceFunction};

use crate::multiblock::{LeafIndex, LeafKey, LeafPool};
use crate::service::{
    LinkService, RegisteredRule, RuleCounters, ServiceOptions, ServiceWriter, DEFAULT_RULE,
};

/// Current snapshot format version (see the module docs).
pub const SNAPSHOT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"LINKDSNP";

/// Caps guarding the reader against nonsense lengths in corrupt input.
const MAX_STRING_BYTES: usize = 1 << 24;
const MAX_COUNT: usize = 1 << 28;

/// Caps a `Vec::with_capacity` request from an untrusted element count so a
/// few corrupt length bytes cannot demand gigabytes up front; genuine large
/// payloads just grow past the cap as elements actually parse (truncated
/// input fails with "truncated payload" long before that).
fn bounded_capacity<T>(count: usize) -> usize {
    const MAX_PREALLOC_BYTES: usize = 1 << 20;
    count.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes are not a well-formed snapshot (bad magic, truncated
    /// payload, checksum mismatch, implausible length).
    Corrupt(String),
    /// The snapshot is well-formed but does not belong to the given rule
    /// catalog / schema / format version.
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot i/o error: {err}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
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

/// FNV-1a, the payload checksum (fast, dependency-free, catches the
/// truncation and bit-rot cases a restart must not silently absorb).
/// Shared with the write-ahead log codec (`crate::wal`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One-shot digest of a byte slice.
    pub(crate) fn digest(bytes: &[u8]) -> u64 {
        let mut crc = Fnv::new();
        crc.update(bytes);
        crc.0
    }
}

/// A writer that checksums everything passing through it.
struct Sink<W: Write> {
    out: W,
    crc: Fnv,
}

impl<W: Write> Sink<W> {
    fn new(out: W) -> Self {
        Sink {
            out,
            crc: Fnv::new(),
        }
    }

    fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.out.write_all(bytes)
    }

    fn u32(&mut self, value: u32) -> io::Result<()> {
        self.bytes(&value.to_le_bytes())
    }

    fn u64(&mut self, value: u64) -> io::Result<()> {
        self.bytes(&value.to_le_bytes())
    }

    fn f64(&mut self, value: f64) -> io::Result<()> {
        self.bytes(&value.to_le_bytes())
    }

    fn string(&mut self, value: &str) -> io::Result<()> {
        self.u32(value.len() as u32)?;
        self.bytes(value.as_bytes())
    }
}

/// A reader that checksums everything passing through it.
struct Tap<R: Read> {
    input: R,
    crc: Fnv,
}

impl<R: Read> Tap<R> {
    fn new(input: R) -> Self {
        Tap {
            input,
            crc: Fnv::new(),
        }
    }

    fn bytes(&mut self, buf: &mut [u8]) -> Result<(), SnapshotError> {
        self.input
            .read_exact(buf)
            .map_err(|_| SnapshotError::Corrupt("truncated payload".into()))?;
        self.crc.update(buf);
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut buf = [0u8; 4];
        self.bytes(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut buf = [0u8; 8];
        self.bytes(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        let mut buf = [0u8; 8];
        self.bytes(&mut buf)?;
        Ok(f64::from_le_bytes(buf))
    }

    fn count(&mut self) -> Result<usize, SnapshotError> {
        let count = self.u32()? as usize;
        if count > MAX_COUNT {
            return Err(SnapshotError::Corrupt(format!(
                "implausible element count {count}"
            )));
        }
        Ok(count)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        if len > MAX_STRING_BYTES {
            return Err(SnapshotError::Corrupt(format!(
                "implausible string length {len}"
            )));
        }
        // fill in bounded chunks: a corrupt length field then costs at most
        // one chunk of allocation before the truncated input refuses to
        // deliver the promised bytes
        const CHUNK: usize = 64 << 10;
        let mut buf: Vec<u8> = Vec::with_capacity(len.min(CHUNK));
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(CHUNK);
            let start = buf.len();
            buf.resize(start + take, 0);
            self.bytes(&mut buf[start..])?;
            remaining -= take;
        }
        String::from_utf8(buf).map_err(|_| SnapshotError::Corrupt("non-utf8 string".into()))
    }
}

impl ServiceWriter {
    /// Writes a versioned snapshot of the served state (rule manifest +
    /// entity store + pooled leaf maps, each shared leaf once) to `out`.
    /// The writer is untouched; readers keep serving.
    pub fn save_snapshot<W: Write>(&self, out: W) -> Result<(), SnapshotError> {
        let mut sink = Sink::new(out);
        sink.out.write_all(MAGIC)?;
        sink.out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;

        let store = self.store();
        let schema = store.schema();

        // rule manifest, registration order
        let rules = self.registered_rules();
        sink.u32(rules.len() as u32)?;
        for rule in rules {
            sink.string(&rule.name)?;
            sink.u64(rule.rule.canonical_hash())?;
        }

        sink.f64(self.link_threshold())?;
        sink.u32(schema.len() as u32)?;
        for property in schema.properties() {
            sink.string(property)?;
        }

        // entity store: a first pass assigns string-table slots in
        // deterministic (position, property, value) order, a second writes
        // the entities as table references
        sink.u32(store.slot_len() as u32)?;
        let mut table: Vec<&str> = Vec::new();
        let mut slot_of: HashMap<&str, u32> = HashMap::new();
        for (_, entity) in store.iter() {
            for property_index in 0..schema.len() {
                for value in entity.values_at(property_index) {
                    slot_of.entry(value.as_str()).or_insert_with(|| {
                        table.push(value);
                        (table.len() - 1) as u32
                    });
                }
            }
        }
        sink.u32(table.len() as u32)?;
        for value in &table {
            sink.string(value)?;
        }
        sink.u32(store.len() as u32)?;
        for (position, entity) in store.iter() {
            sink.u32(position)?;
            sink.string(entity.id())?;
            for property_index in 0..schema.len() {
                let values = entity.values_at(property_index);
                sink.u32(values.len() as u32)?;
                for value in values {
                    sink.u32(slot_of[value.as_str()])?;
                }
            }
        }
        sink.u32(store.free_slots().len() as u32)?;
        for &position in store.free_slots() {
            sink.u32(position)?;
        }

        // the leaf pool: every distinct leaf once, under its reuse key, in
        // deterministic key order; blocks sorted by raw key
        let pooled = self.pool().sorted_entries();
        sink.u32(pooled.len() as u32)?;
        for ((chain_hash, function, bucket), leaf) in pooled {
            sink.u64(chain_hash)?;
            sink.string(function.name())?;
            sink.u64(bucket)?;
            sink.u32(leaf.indexed_entities as u32)?;
            let mut blocks: Vec<(&BlockKey, &Vec<u32>)> = leaf.by_key.iter().collect();
            blocks.sort_unstable_by_key(|(key, _)| key.raw());
            sink.u32(blocks.len() as u32)?;
            for (key, postings) in blocks {
                sink.u64(key.raw())?;
                sink.u32(postings.len() as u32)?;
                for &position in postings {
                    sink.u32(position)?;
                }
            }
        }

        let checksum = sink.crc.0;
        sink.out.write_all(&checksum.to_le_bytes())?;
        sink.out.flush()?;
        Ok(())
    }

    /// Restores a single-rule writer from a snapshot — sugar for
    /// [`ServiceWriter::restore_with_rules`] with a one-entry catalog under
    /// the default name.
    pub fn restore<R: Read>(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        input: R,
    ) -> Result<ServiceWriter, SnapshotError> {
        ServiceWriter::restore_with_rules(&[(DEFAULT_RULE.to_string(), rule)], source_schema, input)
    }

    /// Restores a writer from a snapshot previously written by
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
    pub fn restore_with_rules<R: Read>(
        catalog: &[(String, LinkageRule)],
        source_schema: &Arc<Schema>,
        input: R,
    ) -> Result<ServiceWriter, SnapshotError> {
        let mut tap = Tap::new(input);

        let mut magic = [0u8; 8];
        tap.input
            .read_exact(&mut magic)
            .map_err(|_| SnapshotError::Corrupt("missing magic".into()))?;
        if &magic != MAGIC {
            return Err(SnapshotError::Corrupt("bad magic".into()));
        }
        let mut version = [0u8; 4];
        tap.input
            .read_exact(&mut version)
            .map_err(|_| SnapshotError::Corrupt("missing version".into()))?;
        let version = u32::from_le_bytes(version);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot version {version}, this build reads {SNAPSHOT_VERSION}"
            )));
        }

        // rule manifest, resolved against the catalog
        let rule_count = tap.count()?;
        if rule_count == 0 {
            return Err(SnapshotError::Corrupt("empty rule manifest".into()));
        }
        let mut manifest: Vec<(String, &LinkageRule)> =
            Vec::with_capacity(bounded_capacity::<(String, &LinkageRule)>(rule_count));
        for _ in 0..rule_count {
            let name = tap.string()?;
            let saved_hash = tap.u64()?;
            if manifest.iter().any(|(seen, _)| *seen == name) {
                return Err(SnapshotError::Corrupt(format!(
                    "rule {name:?} appears twice in the manifest"
                )));
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

        let link_threshold = tap.f64()?;
        let property_count = tap.count()?;
        let mut properties = Vec::with_capacity(bounded_capacity::<String>(property_count));
        for _ in 0..property_count {
            properties.push(tap.string()?);
        }
        let target_schema = Arc::new(Schema::new(properties));

        // entity store.  Every structural claim of the (untrusted) payload
        // is validated *here*, with a SnapshotError — the EntityStore's own
        // occupancy/free-list assertions guard programmer misuse and must
        // never be reachable from corrupt bytes.
        let slot_len = tap.count()?;
        let table_len = tap.count()?;
        let mut table = Vec::with_capacity(bounded_capacity::<String>(table_len));
        for _ in 0..table_len {
            table.push(tap.string()?);
        }
        let mut store = EntityStore::new(target_schema.clone());
        let mut occupied = std::collections::HashSet::new();
        let live = tap.count()?;
        for _ in 0..live {
            let position = tap.u32()?;
            if position as usize >= slot_len {
                return Err(SnapshotError::Corrupt(format!(
                    "entity position {position} beyond slot table"
                )));
            }
            if !occupied.insert(position) {
                return Err(SnapshotError::Corrupt(format!(
                    "slot {position} holds two entities"
                )));
            }
            let id = tap.string()?;
            let mut values: Vec<ValueSet> = Vec::with_capacity(target_schema.len());
            for _ in 0..target_schema.len() {
                let count = tap.count()?;
                let mut set = Vec::with_capacity(bounded_capacity::<String>(count));
                for _ in 0..count {
                    let slot = tap.u32()? as usize;
                    let value = table.get(slot).ok_or_else(|| {
                        SnapshotError::Corrupt(format!("string table index {slot} out of range"))
                    })?;
                    set.push(value.clone());
                }
                values.push(set);
            }
            let entity = Entity::new(id, target_schema.clone(), values);
            store
                .insert_at(position, &entity)
                .map_err(|err| SnapshotError::Corrupt(format!("duplicate entity: {err}")))?;
        }
        let free_len = tap.count()?;
        let mut free = Vec::with_capacity(bounded_capacity::<u32>(free_len));
        for _ in 0..free_len {
            let position = tap.u32()?;
            if position as usize >= slot_len || !occupied.insert(position) {
                return Err(SnapshotError::Corrupt(format!(
                    "free slot {position} is out of range, occupied, or listed twice"
                )));
            }
            free.push(position);
        }
        if store.len() + free.len() != slot_len {
            return Err(SnapshotError::Corrupt(
                "live entities and free slots do not cover the slot table".into(),
            ));
        }
        store.set_free_slots(free);

        // the leaf pool: each shared leaf once, under its reuse key
        let pooled_count = tap.count()?;
        let mut pooled: HashMap<LeafKey, Arc<LeafIndex>> = HashMap::new();
        for _ in 0..pooled_count {
            let chain_hash = tap.u64()?;
            let function_name = tap.string()?;
            let function = DistanceFunction::from_name(&function_name).ok_or_else(|| {
                SnapshotError::Corrupt(format!("unknown distance function {function_name:?}"))
            })?;
            let bucket = tap.u64()?;
            let mut leaf = LeafIndex {
                indexed_entities: tap.count()?,
                ..LeafIndex::default()
            };
            let blocks = tap.count()?;
            for _ in 0..blocks {
                let key = BlockKey::from_raw(tap.u64()?);
                let postings_len = tap.count()?;
                let mut postings = Vec::with_capacity(bounded_capacity::<u32>(postings_len));
                let mut previous: Option<u32> = None;
                for _ in 0..postings_len {
                    let position = tap.u32()?;
                    if position as usize >= slot_len || previous.is_some_and(|p| p >= position) {
                        return Err(SnapshotError::Corrupt(
                            "posting list not strictly ascending within the slot table".into(),
                        ));
                    }
                    previous = Some(position);
                    postings.push(position);
                }
                leaf.by_key.insert(key, postings);
            }
            leaf.refresh_estimates();
            if pooled
                .insert((chain_hash, function, bucket), Arc::new(leaf))
                .is_some()
            {
                return Err(SnapshotError::Corrupt(
                    "two pooled leaves share one reuse key".into(),
                ));
            }
        }

        let computed = tap.crc.0;
        let mut stored = [0u8; 8];
        tap.input
            .read_exact(&mut stored)
            .map_err(|_| SnapshotError::Corrupt("missing checksum".into()))?;
        if u64::from_le_bytes(stored) != computed {
            return Err(SnapshotError::Corrupt("checksum mismatch".into()));
        }

        // attach every manifest rule's plan to the pooled leaves by reuse
        // key, re-deriving the hit/miss accounting registration would have
        // produced
        let mut pool = LeafPool::new();
        let mut referenced: std::collections::HashSet<LeafKey> = std::collections::HashSet::new();
        let mut adopted: std::collections::HashSet<LeafKey> = std::collections::HashSet::new();
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
                    SnapshotError::Corrupt(format!(
                        "snapshot is missing a pooled leaf rule {name:?} requires"
                    ))
                })?;
                pool.adopt(comparison, leaf.clone());
                referenced.insert(key);
                if adopted.insert(key) {
                    leaf_misses += 1;
                } else {
                    leaf_hits += 1;
                }
            }
            pool.attach_plan(&plan)
                .expect("every key was adopted just above");
            rules.push(RegisteredRule {
                name: Arc::from(name.as_str()),
                rule: Arc::new(rule.clone()),
                compiled,
                plan,
                counters: Arc::new(RuleCounters::default()),
                leaf_hits,
                leaf_misses,
                registered_epoch: 0,
            });
        }
        if referenced.len() != pooled.len() {
            return Err(SnapshotError::Corrupt(
                "snapshot pools a leaf no registered rule references".into(),
            ));
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
    pub fn restore<R: Read>(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        input: R,
    ) -> Result<LinkService, SnapshotError> {
        Ok(ServiceWriter::restore(rule, source_schema, input)?.into_service())
    }

    /// Restores a multi-rule service, resolving the saved manifest against
    /// a rule catalog — see [`ServiceWriter::restore_with_rules`].
    pub fn restore_with_rules<R: Read>(
        catalog: &[(String, LinkageRule)],
        source_schema: &Arc<Schema>,
        input: R,
    ) -> Result<LinkService, SnapshotError> {
        Ok(ServiceWriter::restore_with_rules(catalog, source_schema, input)?.into_service())
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
        assert_eq!(restored.len(), service.len());
        assert_eq!(restored.stats(), service.stats());
        assert_eq!(restored.store().free_slots(), service.store().free_slots());
        for entity in source.entities() {
            assert_eq!(restored.query(entity), service.query(entity));
        }
        // subsequent mutations behave identically (same slot recycled)
        let mut restored = restored;
        let a = service.insert(&target.entities()[1]).unwrap();
        let b = restored.insert(&target.entities()[1]).unwrap();
        assert_eq!(a, b);
        assert_eq!(restored.stats(), service.stats());
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
        assert_eq!(restored.rule_names(), service.rule_names());
        let before = service.leaf_pool_stats();
        let after = restored.leaf_pool_stats();
        assert_eq!(after.entries, before.entries, "shared leaves pooled once");
        assert_eq!(after.refs, before.refs);
        for entity in source.entities() {
            assert_eq!(restored.query(entity), service.query(entity));
            assert_eq!(
                restored.query_rule("other", entity).unwrap(),
                service.query_rule("other", entity).unwrap()
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
        assert_eq!(again.rule_names(), service.rule_names());
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
        assert!(restored.is_empty());
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
        assert!(service.stats().is_empty());
        let restored =
            LinkService::restore(jaro, source.schema(), &snapshot_of(&service)[..]).unwrap();
        assert_eq!(restored.len(), 3);
        for entity in source.entities() {
            assert_eq!(restored.query(entity), service.query(entity));
        }
    }
}
