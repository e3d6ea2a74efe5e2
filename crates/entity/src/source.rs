//! Data sources: named collections of entities sharing a schema.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::entity::{Entity, EntityId};
use crate::error::EntityError;
use crate::schema::Schema;
use crate::value::ValueSet;

/// Distinct value sets tracked per property before the property counts as
/// high-cardinality and [`DataSource::add`] stops looking for repeats.
const SHARED_VALUE_SETS: usize = 1024;

/// A data source `A` or `B`: a set of entities adhering to one [`Schema`].
#[derive(Debug, Clone)]
pub struct DataSource {
    name: String,
    schema: Arc<Schema>,
    entities: Vec<Entity>,
    by_id: HashMap<EntityId, usize>,
    /// Per property, the distinct value sets added so far, while they are
    /// few: entities repeating a low-cardinality value set (a city, a
    /// cuisine, a year) share one allocation of it.  `None` once a property
    /// has shown more than [`SHARED_VALUE_SETS`] distinct sets — tracking a
    /// mostly-unique property would cost more than it saves.
    shared: Vec<Option<HashSet<Arc<[String]>>>>,
}

impl DataSource {
    /// Creates an empty data source.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        DataSource {
            name: name.into(),
            shared: vec![Some(HashSet::new()); schema.len()],
            schema: Arc::new(schema),
            entities: Vec::new(),
            by_id: HashMap::new(),
        }
    }

    /// The name of this data source.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema shared by all entities of this source.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Returns `true` if the source holds no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// All entities of this source.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// Looks up an entity by identifier.
    pub fn get(&self, id: &str) -> Option<&Entity> {
        self.by_id.get(id).map(|&i| &self.entities[i])
    }

    /// Returns the entity at the given position.
    pub fn at(&self, index: usize) -> Option<&Entity> {
        self.entities.get(index)
    }

    /// Adds an entity built from aligned value sets (padded or truncated to
    /// the schema).  Fails if the identifier is already present.
    pub fn add(
        &mut self,
        id: impl Into<EntityId>,
        mut values: Vec<ValueSet>,
    ) -> Result<(), EntityError> {
        values.resize(self.schema.len(), ValueSet::new());
        let values = values
            .into_iter()
            .enumerate()
            .map(|(property, set)| self.share(property, set))
            .collect();
        self.push(id.into(), values)
    }

    /// The shared slice of one property's value set: the allocation an
    /// earlier entity already holds for an equal set of a low-cardinality
    /// property, a fresh one otherwise.
    fn share(&mut self, property: usize, set: ValueSet) -> Arc<[String]> {
        let Some(seen) = &mut self.shared[property] else {
            return Arc::from(set);
        };
        if let Some(existing) = seen.get(&set[..]) {
            return existing.clone();
        }
        let slice: Arc<[String]> = Arc::from(set);
        if seen.len() < SHARED_VALUE_SETS {
            seen.insert(slice.clone());
        } else {
            self.shared[property] = None;
        }
        slice
    }

    fn push(&mut self, id: EntityId, values: Vec<Arc<[String]>>) -> Result<(), EntityError> {
        if self.by_id.contains_key(&id) {
            return Err(EntityError::DuplicateEntity(id));
        }
        self.by_id.insert(id.clone(), self.entities.len());
        self.entities
            .push(Entity::from_shared(id, self.schema.clone(), values));
        Ok(())
    }

    /// Adds an already-built entity: one following this source's schema keeps
    /// its shared value slices (no string is copied), any other is re-aligned
    /// by property name.
    pub fn add_entity(&mut self, entity: Entity) -> Result<(), EntityError> {
        if Arc::ptr_eq(entity.schema(), &self.schema)
            || entity.schema().as_ref() == self.schema.as_ref()
        {
            let values = (0..self.schema.len())
                .filter_map(|property| entity.shared_values_at(property).cloned())
                .collect();
            self.push(entity.id().to_string(), values)
        } else {
            let values = self
                .schema
                .properties()
                .iter()
                .map(|p| entity.values(p).to_vec())
                .collect();
            self.add(entity.id().to_string(), values)
        }
    }

    /// The fraction of entities on which each property is set, averaged over
    /// all properties — the *coverage* statistic of Table 6 of the paper.
    pub fn property_coverage(&self) -> f64 {
        if self.entities.is_empty() || self.schema.is_empty() {
            return 0.0;
        }
        let mut set_counts = vec![0usize; self.schema.len()];
        for entity in &self.entities {
            for (i, count) in set_counts.iter_mut().enumerate() {
                if entity.values_at(i).iter().any(|v| !v.trim().is_empty()) {
                    *count += 1;
                }
            }
        }
        let total: f64 = set_counts
            .iter()
            .map(|&c| c as f64 / self.entities.len() as f64)
            .sum();
        total / self.schema.len() as f64
    }
}

/// Builder that collects [`crate::entity::EntityBuilder`]-style rows and
/// derives nothing implicitly: the schema is fixed up front, which keeps value
/// vectors aligned.
#[derive(Debug)]
pub struct DataSourceBuilder {
    source: DataSource,
}

impl DataSourceBuilder {
    /// Starts a new builder for a source with the given name and properties.
    pub fn new<I, S>(name: impl Into<String>, properties: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        DataSourceBuilder {
            source: DataSource::new(name, Schema::new(properties)),
        }
    }

    /// Adds an entity given `(property, value)` pairs.  Unknown properties are
    /// ignored, duplicate ids fail.
    pub fn entity<'a, I>(mut self, id: impl Into<EntityId>, values: I) -> Result<Self, EntityError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let schema = self.source.schema().clone();
        let mut aligned = vec![ValueSet::new(); schema.len()];
        for (property, value) in values {
            if let Some(index) = schema.index_of(property) {
                aligned[index].push(value.to_string());
            }
        }
        self.source.add(id, aligned)?;
        Ok(self)
    }

    /// Finishes building.
    pub fn build(self) -> DataSource {
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataSource {
        DataSourceBuilder::new("cities", ["label", "point", "country"])
            .entity(
                "c1",
                [
                    ("label", "Berlin"),
                    ("point", "52.5 13.4"),
                    ("country", "DE"),
                ],
            )
            .unwrap()
            .entity("c2", [("label", "Paris"), ("point", "48.9 2.35")])
            .unwrap()
            .entity("c3", [("label", "Rome")])
            .unwrap()
            .build()
    }

    #[test]
    fn source_indexes_entities_by_id() {
        let source = sample();
        assert_eq!(source.len(), 3);
        assert_eq!(
            source.get("c2").unwrap().first_value("label"),
            Some("Paris")
        );
        assert!(source.get("missing").is_none());
        assert_eq!(source.at(0).unwrap().id(), "c1");
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut source = sample();
        let err = source.add("c1", vec![]).unwrap_err();
        assert!(matches!(err, EntityError::DuplicateEntity(_)));
    }

    #[test]
    fn coverage_matches_hand_computation() {
        let source = sample();
        // label: 3/3, point: 2/3, country: 1/3  => mean = 2/3
        let coverage = source.property_coverage();
        assert!((coverage - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_source_has_zero_coverage() {
        let source = DataSource::new("empty", Schema::new(["a"]));
        assert!(source.is_empty());
        assert_eq!(source.property_coverage(), 0.0);
    }

    #[test]
    fn repeated_value_sets_and_same_schema_entities_share_their_slices() {
        let mut source = DataSource::new("s", Schema::new(["name", "city"]));
        for (id, name) in [("r1", "Chez Anna"), ("r2", "Chez Bert")] {
            let values = vec![vec![name.to_string()], vec!["Paris".to_string()]];
            source.add(id, values).unwrap();
        }
        let slice = |source: &DataSource, id: &str, property: usize| {
            source
                .get(id)
                .unwrap()
                .shared_values_at(property)
                .unwrap()
                .clone()
        };
        assert!(Arc::ptr_eq(
            &slice(&source, "r1", 1),
            &slice(&source, "r2", 1)
        ));
        assert!(!Arc::ptr_eq(
            &slice(&source, "r1", 0),
            &slice(&source, "r2", 0)
        ));
        // a copy into a source with an equal schema copies no string
        let mut copy = DataSource::new("copy", Schema::clone(source.schema()));
        copy.add_entity(source.get("r1").unwrap().clone()).unwrap();
        assert!(Arc::ptr_eq(
            &slice(&copy, "r1", 0),
            &slice(&source, "r1", 0)
        ));
        assert_eq!(copy.get("r1").unwrap().first_value("city"), Some("Paris"));
        // a property with many distinct sets stops being tracked, and its
        // values stay intact
        let mut wide = DataSource::new("w", Schema::new(["n"]));
        for i in 0..SHARED_VALUE_SETS + 2 {
            wide.add(format!("e{i}"), vec![vec![i.to_string()]])
                .unwrap();
        }
        assert!(wide.shared[0].is_none());
        assert_eq!(wide.get("e7").unwrap().first_value("n"), Some("7"));
    }

    #[test]
    fn add_entity_realigns_foreign_schema() {
        use crate::entity::EntityBuilder;
        let mut source = DataSource::new("s", Schema::new(["label", "point"]));
        let entity = EntityBuilder::new("x")
            .value("point", "1 2")
            .value("label", "X")
            .build_with_own_schema();
        source.add_entity(entity).unwrap();
        assert_eq!(source.get("x").unwrap().first_value("label"), Some("X"));
        assert_eq!(source.get("x").unwrap().first_value("point"), Some("1 2"));
    }
}
