//! An owned, id-stable entity store with interned values and cheap
//! copy-on-write snapshots — the slot table behind the serving layer.
//!
//! The serving `LinkService` used to *borrow* its target entities
//! (`LinkService<'t>`), pushing the burden of keeping an entity arena alive
//! onto every caller and pinning the service's lifetime to its input
//! source.  An [`EntityStore`] owns its entities instead:
//!
//! * **Stable positions.**  Every entity lives in a `u32` slot; removed
//!   slots are tombstoned and recycled through a free list, so positions in
//!   downstream inverted indexes stay valid across churn.
//! * **Stable addresses.**  Entities are held behind `Arc<Entity>`, so an
//!   entity's address never moves while anything (an index epoch, a cached
//!   transform) still references it — the invariant the address-keyed
//!   `ValueCache` needs.
//! * **Interned values.**  Equal value sets are deduplicated store-wide: a
//!   column holding `"1995"` ten thousand times stores one `Arc<[String]>`,
//!   referenced ten thousand times.  Interning is content-based and
//!   transparent (entities compare equal either way).
//! * **Copy-on-write snapshots.**  The slot table is chunked
//!   (`Vec<Arc<[chunk]>>`); [`EntityStore::snapshot`] clones only the chunk
//!   spine (one `Arc` per [`SLOT_CHUNK`] slots), and a later mutation copies
//!   only the touched chunk.  Snapshots are immutable and cheaply cloneable
//!   — exactly what a serving epoch needs to pin a consistent entity set
//!   while a writer keeps churning.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::entity::{Entity, EntityId};
use crate::error::EntityError;
use crate::schema::Schema;

/// Slots per copy-on-write chunk.  A mutation copies at most one chunk, a
/// snapshot clones one `Arc` per chunk: the constant trades publish cost
/// (smaller chunks) against mutation copy cost (larger chunks).
const SLOT_CHUNK: usize = 1024;

/// Interner safety valve: beyond this many distinct value sets the pool is
/// dropped wholesale (future inserts simply re-intern; existing entities
/// keep their shared slices).
const INTERNER_CAPACITY: usize = 1 << 20;

/// One copy-on-write chunk of the slot table.
type SlotChunk = Vec<Option<Arc<Entity>>>;

/// Splits a position into its (chunk, slot-within-chunk) coordinates — the
/// one place the chunk layout is encoded.
fn chunk_slot(position: u32) -> (usize, usize) {
    (
        position as usize / SLOT_CHUNK,
        position as usize % SLOT_CHUNK,
    )
}

/// The entity at a position of a chunk spine (`None` for tombstoned or
/// out-of-range slots); shared by [`EntityStore`] and [`EntitySnapshot`].
fn slot_get(chunks: &[Arc<SlotChunk>], position: u32) -> Option<&Arc<Entity>> {
    let (chunk, slot) = chunk_slot(position);
    chunks.get(chunk)?.get(slot)?.as_ref()
}

/// Iterates `(position, entity)` over the live slots of a chunk spine in
/// position order; shared by [`EntityStore`] and [`EntitySnapshot`].
fn slot_iter(chunks: &[Arc<SlotChunk>]) -> impl Iterator<Item = (u32, &Arc<Entity>)> {
    chunks.iter().enumerate().flat_map(|(c, chunk)| {
        chunk.iter().enumerate().filter_map(move |(s, slot)| {
            slot.as_ref()
                .map(|entity| ((c * SLOT_CHUNK + s) as u32, entity))
        })
    })
}

/// An owned, mutable entity slot table (see the module docs).
#[derive(Debug)]
pub struct EntityStore {
    schema: Arc<Schema>,
    chunks: Vec<Arc<SlotChunk>>,
    /// Exclusive upper bound of ever-used positions (live + tombstoned).
    slot_len: usize,
    by_id: HashMap<EntityId, u32>,
    free: Vec<u32>,
    interner: HashSet<Arc<[String]>>,
    interner_hits: u64,
}

impl EntityStore {
    /// Creates an empty store for entities of one schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        EntityStore {
            schema,
            chunks: Vec::new(),
            slot_len: 0,
            by_id: HashMap::new(),
            free: Vec::new(),
            interner: HashSet::new(),
            interner_hits: 0,
        }
    }

    /// Creates a store holding the given entities at positions `0..len`
    /// (the batch-build path).
    pub fn from_entities(schema: Arc<Schema>, entities: &[Entity]) -> Result<Self, EntityError> {
        let mut store = EntityStore::new(schema);
        for entity in entities {
            store.insert(entity)?;
        }
        Ok(store)
    }

    /// The schema every stored entity is aligned to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of live entities.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Returns `true` when no entity is stored.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Exclusive upper bound of all positions ever handed out (tombstoned
    /// slots included).
    pub fn slot_len(&self) -> usize {
        self.slot_len
    }

    /// Returns `true` if an entity with this identifier is stored.
    pub fn contains(&self, id: &str) -> bool {
        self.by_id.contains_key(id)
    }

    /// The entity at a position (`None` for tombstoned or out-of-range
    /// slots).
    pub fn get(&self, position: u32) -> Option<&Arc<Entity>> {
        slot_get(&self.chunks, position)
    }

    /// Iterates `(position, entity)` over live slots in position order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Arc<Entity>)> {
        slot_iter(&self.chunks)
    }

    /// The tombstoned positions that future inserts will recycle, most
    /// recently freed last (inserts pop from the back).
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// How many value-set lookups the interner answered with an existing
    /// shared slice (a saved allocation each).
    pub fn interner_hits(&self) -> u64 {
        self.interner_hits
    }

    /// Adds an entity (re-aligned to the store schema, values interned),
    /// returning its position and the stored `Arc`.  Recycles the most
    /// recently freed slot if any; fails on a duplicate identifier.
    pub fn insert(&mut self, entity: &Entity) -> Result<(u32, Arc<Entity>), EntityError> {
        if self.by_id.contains_key(entity.id()) {
            return Err(EntityError::DuplicateEntity(entity.id().to_string()));
        }
        let position = match self.free.pop() {
            Some(position) => position,
            None => {
                let position = self.slot_len as u32;
                self.slot_len += 1;
                position
            }
        };
        let stored = self.place(position, entity);
        Ok((position, stored))
    }

    /// Adds an entity at an explicit position (the snapshot-restore path).
    /// The slot must not be occupied; `slot_len` grows as needed and any
    /// implied gap is *not* added to the free list — restore sets the free
    /// list explicitly via [`EntityStore::set_free_slots`].
    pub fn insert_at(
        &mut self,
        position: u32,
        entity: &Entity,
    ) -> Result<Arc<Entity>, EntityError> {
        if self.by_id.contains_key(entity.id()) {
            return Err(EntityError::DuplicateEntity(entity.id().to_string()));
        }
        assert!(
            self.get(position).is_none(),
            "slot {position} is already occupied"
        );
        self.slot_len = self.slot_len.max(position as usize + 1);
        Ok(self.place(position, entity))
    }

    /// Replaces the free list (the snapshot-restore path).  Every position
    /// must be an empty slot below `slot_len`, listed at most once.
    pub fn set_free_slots(&mut self, free: Vec<u32>) {
        let mut seen = HashSet::new();
        for &position in &free {
            assert!(
                (position as usize) < self.slot_len && self.get(position).is_none(),
                "free slot {position} is out of range or occupied"
            );
            assert!(seen.insert(position), "free slot {position} listed twice");
        }
        self.free = free;
    }

    /// Removes an entity by identifier, tombstoning its slot for reuse.
    /// Returns its position and the stored `Arc` (still alive for as long
    /// as snapshots or the caller hold it), or `None` for unknown ids.
    pub fn remove(&mut self, id: &str) -> Option<(u32, Arc<Entity>)> {
        let position = self.by_id.remove(id)?;
        let (chunk, slot) = chunk_slot(position);
        let entity = Arc::make_mut(&mut self.chunks[chunk])[slot]
            .take()
            .expect("a mapped identifier always has a live slot");
        self.free.push(position);
        Some((position, entity))
    }

    /// An immutable snapshot of the current slot table: cheap to take (one
    /// `Arc` clone per [`SLOT_CHUNK`] slots) and unaffected by later store
    /// mutations.
    pub fn snapshot(&self) -> EntitySnapshot {
        EntitySnapshot {
            chunks: self.chunks.clone(),
            slot_len: self.slot_len,
            live: self.by_id.len(),
        }
    }

    /// Stores an entity at a (validated) position: re-aligns it to the
    /// store schema, interns its value sets, and writes the slot.
    fn place(&mut self, position: u32, entity: &Entity) -> Arc<Entity> {
        let same_schema = Arc::ptr_eq(entity.schema(), &self.schema)
            || entity.schema().as_ref() == self.schema.as_ref();
        let values: Vec<Arc<[String]>> = (0..self.schema.len())
            .map(|index| {
                if same_schema {
                    // reuse the entity's own shared slice on an interner miss
                    let slice = entity
                        .shared_values_at(index)
                        .cloned()
                        .unwrap_or_else(|| Arc::from(Vec::new()));
                    self.intern(slice)
                } else {
                    let property = &self.schema.properties()[index];
                    self.intern(Arc::from(entity.values(property).to_vec()))
                }
            })
            .collect();
        let stored = Arc::new(Entity::from_shared(
            entity.id().to_string(),
            self.schema.clone(),
            values,
        ));
        let (chunk, slot) = chunk_slot(position);
        while self.chunks.len() <= chunk {
            self.chunks.push(Arc::new(vec![None; SLOT_CHUNK]));
        }
        Arc::make_mut(&mut self.chunks[chunk])[slot] = Some(stored.clone());
        self.by_id.insert(entity.id().to_string(), position);
        stored
    }

    /// Content-deduplicates one value set against the store-wide pool.
    fn intern(&mut self, values: Arc<[String]>) -> Arc<[String]> {
        if let Some(existing) = self.interner.get(&values[..]) {
            self.interner_hits += 1;
            return existing.clone();
        }
        if self.interner.len() >= INTERNER_CAPACITY {
            self.interner.clear();
        }
        self.interner.insert(values.clone());
        values
    }
}

/// An immutable, cheaply cloneable view of an [`EntityStore`]'s slot table
/// at one instant (see [`EntityStore::snapshot`]).
#[derive(Debug, Clone)]
pub struct EntitySnapshot {
    chunks: Vec<Arc<SlotChunk>>,
    slot_len: usize,
    live: usize,
}

impl EntitySnapshot {
    /// The entity at a position, if the slot was live when the snapshot was
    /// taken.
    pub fn get(&self, position: u32) -> Option<&Arc<Entity>> {
        slot_get(&self.chunks, position)
    }

    /// Number of live entities in the snapshot.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when the snapshot holds no live entity.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Exclusive upper bound of all positions (tombstones included).
    pub fn slot_len(&self) -> usize {
        self.slot_len
    }

    /// Iterates `(position, entity)` over live slots in position order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Arc<Entity>)> {
        slot_iter(&self.chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DataSourceBuilder;

    fn sample_entities() -> Vec<Entity> {
        DataSourceBuilder::new("B", ["name", "year"])
            .entity("b0", [("name", "berlin"), ("year", "1237")])
            .unwrap()
            .entity("b1", [("name", "paris"), ("year", "0250")])
            .unwrap()
            .entity("b2", [("name", "rome"), ("year", "1237")])
            .unwrap()
            .build()
            .entities()
            .to_vec()
    }

    #[test]
    fn positions_are_stable_and_slots_recycled_lifo() {
        let entities = sample_entities();
        let mut store =
            EntityStore::from_entities(entities[0].schema().clone(), &entities).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.slot_len(), 3);
        assert_eq!(store.get(1).unwrap().id(), "b1");
        let (position, removed) = store.remove("b1").unwrap();
        assert_eq!(position, 1);
        assert_eq!(removed.id(), "b1");
        assert!(store.get(1).is_none());
        assert_eq!(store.free_slots(), &[1]);
        // reinsert lands in the freed slot; slot_len does not grow
        let (position, _) = store.insert(&entities[1]).unwrap();
        assert_eq!(position, 1);
        assert_eq!(store.slot_len(), 3);
        assert!(store.free_slots().is_empty());
        let err = store.insert(&entities[1]).unwrap_err();
        assert!(matches!(err, EntityError::DuplicateEntity(id) if id == "b1"));
    }

    #[test]
    fn equal_value_sets_are_interned_store_wide() {
        let entities = sample_entities();
        let mut store = EntityStore::new(entities[0].schema().clone());
        for entity in &entities {
            store.insert(entity).unwrap();
        }
        // b0 and b2 share the "1237" year set
        assert_eq!(store.interner_hits(), 1);
        let year_b0 = store.get(0).unwrap().shared_values_at(1).unwrap().clone();
        let year_b2 = store.get(2).unwrap().shared_values_at(1).unwrap().clone();
        assert!(
            Arc::ptr_eq(&year_b0, &year_b2),
            "equal value sets share one allocation"
        );
        // stored entities still compare equal to their inputs
        assert_eq!(store.get(0).unwrap().as_ref(), &entities[0]);
    }

    #[test]
    fn snapshots_pin_the_slot_table_across_mutations() {
        let entities = sample_entities();
        let mut store =
            EntityStore::from_entities(entities[0].schema().clone(), &entities).unwrap();
        let before = store.snapshot();
        store.remove("b0");
        let after = store.snapshot();
        // the old snapshot still serves the removed entity; the new one
        // does not
        assert_eq!(before.len(), 3);
        assert_eq!(before.get(0).unwrap().id(), "b0");
        assert_eq!(after.len(), 2);
        assert!(after.get(0).is_none());
        // untouched chunks are shared between snapshots, not copied
        assert_eq!(before.slot_len(), after.slot_len());
        let positions: Vec<u32> = after.iter().map(|(p, _)| p).collect();
        assert_eq!(positions, vec![1, 2]);
    }

    #[test]
    fn snapshots_keep_removed_entities_alive() {
        let entities = sample_entities();
        let mut store =
            EntityStore::from_entities(entities[0].schema().clone(), &entities).unwrap();
        let snapshot = store.snapshot();
        let (_, removed) = store.remove("b2").unwrap();
        // two owners: the returned Arc and the snapshot chunk
        assert!(Arc::strong_count(&removed) >= 2);
        drop(snapshot);
        assert_eq!(Arc::strong_count(&removed), 1);
    }

    #[test]
    fn restore_path_reproduces_positions_and_free_list() {
        let entities = sample_entities();
        let mut original =
            EntityStore::from_entities(entities[0].schema().clone(), &entities).unwrap();
        original.remove("b1");
        let mut restored = EntityStore::new(entities[0].schema().clone());
        for (position, entity) in original.iter() {
            restored.insert_at(position, entity).unwrap();
        }
        restored.set_free_slots(original.free_slots().to_vec());
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.slot_len(), original.slot_len());
        assert_eq!(restored.free_slots(), original.free_slots());
        // the next insert recycles the same slot in both stores
        let (a, _) = original.insert(&entities[1]).unwrap();
        let (b, _) = restored.insert(&entities[1]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn foreign_schema_entities_are_realigned() {
        let entities = sample_entities();
        let mut store = EntityStore::new(entities[0].schema().clone());
        let foreign = crate::entity::EntityBuilder::new("x")
            .value("year", "1900")
            .value("name", "lima")
            .build_with_own_schema();
        let (position, stored) = store.insert(&foreign).unwrap();
        assert_eq!(position, 0);
        assert_eq!(stored.first_value("name"), Some("lima"));
        assert_eq!(stored.first_value("year"), Some("1900"));
    }
}
