//! Entities: identified records with multi-valued properties.

use std::fmt;
use std::sync::Arc;

use crate::schema::{PropertyIndex, Schema};
use crate::value::ValueSet;

/// A stable identifier of an entity within its data source (URI or record id).
pub type EntityId = String;

/// An entity `e ∈ A ∪ B`: an identifier plus one value set per schema property.
///
/// Value sets are stored positionally, aligned with the entity's [`Schema`];
/// missing properties simply hold an empty value set, which is how the
/// *coverage* statistic of Table 6 of the paper is expressed.
///
/// Value sets are held as shared `Arc<[String]>` slices: entities clone
/// cheaply (store snapshots, entities copied between sources), and an owning
/// [`crate::EntityStore`] can *intern* equal value sets so repeated values
/// (years, cities, categorical columns) share one allocation across the
/// whole store.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    id: EntityId,
    schema: Arc<Schema>,
    values: Vec<Arc<[String]>>,
}

impl Entity {
    /// Creates an entity.  `values` must contain exactly one value set per
    /// schema property; shorter vectors are padded with empty value sets and
    /// longer vectors are truncated.
    pub fn new(id: impl Into<EntityId>, schema: Arc<Schema>, mut values: Vec<ValueSet>) -> Self {
        values.resize(schema.len(), ValueSet::new());
        Entity {
            id: id.into(),
            schema,
            values: values.into_iter().map(Arc::from).collect(),
        }
    }

    /// Creates an entity from already-shared value slices (the
    /// [`crate::EntityStore`] interning path).  `values` must be aligned
    /// with the schema, one slice per property.
    pub(crate) fn from_shared(
        id: impl Into<EntityId>,
        schema: Arc<Schema>,
        mut values: Vec<Arc<[String]>>,
    ) -> Self {
        values.resize(schema.len(), Arc::from(Vec::new()));
        Entity {
            id: id.into(),
            schema,
            values,
        }
    }

    /// The identifier of this entity.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The schema this entity adheres to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All values of the property with the given index.
    pub fn values_at(&self, index: PropertyIndex) -> &[String] {
        self.values.get(index).map(|v| &v[..]).unwrap_or(&[])
    }

    /// The shared value slice of a property, if the index is in range (used
    /// by the [`crate::EntityStore`] interner to reuse allocations).
    pub fn shared_values_at(&self, index: PropertyIndex) -> Option<&Arc<[String]>> {
        self.values.get(index)
    }

    /// All values of the named property (empty slice if the property is not
    /// part of the schema or not set).
    pub fn values(&self, property: &str) -> &[String] {
        match self.schema.index_of(property) {
            Some(index) => self.values_at(index),
            None => &[],
        }
    }

    /// The first value of the named property, if any.
    pub fn first_value(&self, property: &str) -> Option<&str> {
        self.values(property).first().map(|s| s.as_str())
    }

    /// Iterates over `(property name, value set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.schema
            .properties()
            .iter()
            .zip(self.values.iter())
            .map(|(p, v)| (p.as_str(), &v[..]))
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {{", self.id)?;
        let mut first = true;
        for (prop, values) in self.iter() {
            if values.is_empty() {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}: [{}]", prop, values.join(" | "))?;
        }
        write!(f, "}}")
    }
}

/// Convenience builder for single entities (used heavily in tests and examples).
#[derive(Debug, Clone)]
pub struct EntityBuilder {
    id: EntityId,
    properties: Vec<(String, ValueSet)>,
}

impl EntityBuilder {
    /// Starts building an entity with the given identifier.
    pub fn new(id: impl Into<EntityId>) -> Self {
        EntityBuilder {
            id: id.into(),
            properties: Vec::new(),
        }
    }

    /// Adds a single-valued property.
    pub fn value(mut self, property: impl Into<String>, value: impl Into<String>) -> Self {
        self.properties.push((property.into(), vec![value.into()]));
        self
    }

    /// Adds a multi-valued property.
    pub fn values<I, S>(mut self, property: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.properties.push((
            property.into(),
            values.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Builds the entity against the given schema.  Properties that are not
    /// part of the schema are silently dropped; properties of the schema that
    /// were not provided end up empty.
    pub fn build(self, schema: Arc<Schema>) -> Entity {
        let mut values = vec![ValueSet::new(); schema.len()];
        for (property, vs) in self.properties {
            if let Some(index) = schema.index_of(&property) {
                values[index].extend(vs);
            }
        }
        Entity::new(self.id, schema, values)
    }

    /// Builds an entity and a schema derived from the provided properties.
    pub fn build_with_own_schema(self) -> Entity {
        let schema = Arc::new(Schema::new(self.properties.iter().map(|(p, _)| p.clone())));
        self.build(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city_schema() -> Arc<Schema> {
        Arc::new(Schema::new(["label", "point"]))
    }

    #[test]
    fn entity_resolves_values_by_name_and_index() {
        let entity = EntityBuilder::new("city:1")
            .value("label", "Berlin")
            .value("point", "52.52 13.40")
            .build(city_schema());
        assert_eq!(entity.values("label"), &["Berlin".to_string()]);
        assert_eq!(entity.values_at(1), &["52.52 13.40".to_string()]);
        assert_eq!(entity.first_value("label"), Some("Berlin"));
        assert_eq!(entity.values("unknown"), &[] as &[String]);
    }

    #[test]
    fn missing_properties_are_empty() {
        let entity = EntityBuilder::new("city:2")
            .value("label", "Potsdam")
            .build(city_schema());
        assert_eq!(entity.values("point"), &[] as &[String]);
    }

    #[test]
    fn values_out_of_schema_are_dropped() {
        let entity = EntityBuilder::new("city:3")
            .value("label", "Hamburg")
            .value("population", "1800000")
            .build(city_schema());
        assert_eq!(entity.values("population"), &[] as &[String]);
    }

    #[test]
    fn multi_valued_properties_accumulate() {
        let entity = EntityBuilder::new("drug:1")
            .values("synonym", ["Aspirin", "ASS"])
            .value("synonym", "Acetylsalicylic acid")
            .build(Arc::new(Schema::new(["synonym"])));
        assert_eq!(entity.values("synonym").len(), 3);
    }

    #[test]
    fn display_skips_empty_properties() {
        let entity = EntityBuilder::new("city:4")
            .value("label", "Munich")
            .build(city_schema());
        assert_eq!(entity.to_string(), "city:4 {label: [Munich]}");
    }

    #[test]
    fn own_schema_builder_derives_schema() {
        let entity = EntityBuilder::new("e")
            .value("a", "1")
            .value("b", "2")
            .build_with_own_schema();
        assert_eq!(entity.schema().len(), 2);
        assert_eq!(entity.first_value("b"), Some("2"));
    }

    #[test]
    fn new_pads_and_truncates_value_vectors() {
        let schema = city_schema();
        let short = Entity::new("s", schema.clone(), vec![vec!["x".into()]]);
        assert_eq!(short.values_at(1), &[] as &[String]);
        let long = Entity::new(
            "l",
            schema,
            vec![vec!["x".into()], vec!["y".into()], vec!["z".into()]],
        );
        assert_eq!(long.values_at(1), &["y".to_string()]);
    }
}
