//! Schemas: the ordered property lists of a data source.

use std::collections::HashMap;
use std::fmt;

/// Index of a property within a [`Schema`].
pub type PropertyIndex = usize;

/// The schema of a data source: an ordered list of property names.
///
/// The two data sources matched by a linkage rule may use *different* schemata
/// (e.g. `foaf:firstName`/`foaf:lastName` versus `dbpedia:name`); a comparison
/// operator therefore resolves its source-side property against the source
/// schema and its target-side property against the target schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    properties: Vec<String>,
    index: HashMap<String, PropertyIndex>,
}

impl Schema {
    /// Creates a schema from property names. Duplicate names are collapsed to
    /// the first occurrence.
    pub fn new<I, S>(properties: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut props = Vec::new();
        let mut index = HashMap::new();
        for p in properties {
            let p = p.into();
            if !index.contains_key(&p) {
                index.insert(p.clone(), props.len());
                props.push(p);
            }
        }
        Schema {
            properties: props,
            index,
        }
    }

    /// Number of properties in this schema.
    pub fn len(&self) -> usize {
        self.properties.len()
    }

    /// Returns `true` if this schema has no properties.
    pub fn is_empty(&self) -> bool {
        self.properties.is_empty()
    }

    /// Property names in declaration order.
    pub fn properties(&self) -> &[String] {
        &self.properties
    }

    /// Resolves a property name to its index.
    pub fn index_of(&self, property: &str) -> Option<PropertyIndex> {
        self.index.get(property).copied()
    }

    /// Returns `true` if the schema contains the given property.
    pub fn contains(&self, property: &str) -> bool {
        self.index.contains_key(property)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.properties.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_resolves_properties() {
        let schema = Schema::new(["title", "author", "venue", "date"]);
        assert_eq!(schema.len(), 4);
        assert_eq!(schema.index_of("title"), Some(0));
        assert_eq!(schema.index_of("date"), Some(3));
        assert_eq!(schema.index_of("missing"), None);
        assert_eq!(schema.properties()[1], "author");
        assert!(schema.contains("venue"));
    }

    #[test]
    fn duplicate_properties_are_collapsed() {
        let schema = Schema::new(["label", "label", "point"]);
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.index_of("point"), Some(1));
    }

    #[test]
    fn empty_schema() {
        let schema = Schema::new(Vec::<String>::new());
        assert!(schema.is_empty());
        assert_eq!(schema.to_string(), "{}");
    }

    #[test]
    fn display_lists_properties() {
        let schema = Schema::new(["a", "b"]);
        assert_eq!(schema.to_string(), "{a, b}");
    }
}
