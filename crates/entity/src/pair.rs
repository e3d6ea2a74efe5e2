//! Entity pairs: the unit a linkage rule is evaluated on.

use crate::entity::Entity;
use crate::links::{Link, ReferenceLinks};
use crate::source::DataSource;

/// A borrowed pair of entities `(a, b)` with `a ∈ A` and `b ∈ B`.
#[derive(Debug, Clone, Copy)]
pub struct EntityPair<'a> {
    /// The entity from data source `A`.
    pub source: &'a Entity,
    /// The entity from data source `B`.
    pub target: &'a Entity,
}

impl<'a> EntityPair<'a> {
    /// Creates an entity pair.
    pub fn new(source: &'a Entity, target: &'a Entity) -> Self {
        EntityPair { source, target }
    }

    /// Resolves a [`Link`] against two data sources, returning `None` if one
    /// endpoint is missing.
    pub fn resolve(link: &Link, source: &'a DataSource, target: &'a DataSource) -> Option<Self> {
        Some(EntityPair {
            source: source.get(&link.source)?,
            target: target.get(&link.target)?,
        })
    }
}

/// Reference links resolved to entity references, split into positive and
/// negative pairs.  This is the structure fitness evaluation iterates over, so
/// resolving identifiers once up front keeps the inner loop allocation-free.
#[derive(Debug, Clone)]
pub struct ResolvedReferenceLinks<'a> {
    positive: Vec<EntityPair<'a>>,
    negative: Vec<EntityPair<'a>>,
}

impl<'a> ResolvedReferenceLinks<'a> {
    /// Resolves every link of `links` against the two data sources.  Links
    /// with missing endpoints are dropped (they cannot be evaluated).
    pub fn resolve(links: &ReferenceLinks, source: &'a DataSource, target: &'a DataSource) -> Self {
        let positive = links
            .positive()
            .iter()
            .filter_map(|l| EntityPair::resolve(l, source, target))
            .collect();
        let negative = links
            .negative()
            .iter()
            .filter_map(|l| EntityPair::resolve(l, source, target))
            .collect();
        ResolvedReferenceLinks { positive, negative }
    }

    /// The resolved positive pairs.
    pub fn positive(&self) -> &[EntityPair<'a>] {
        &self.positive
    }

    /// The resolved negative pairs.
    pub fn negative(&self) -> &[EntityPair<'a>] {
        &self.negative
    }

    /// Total number of resolved pairs.
    pub fn len(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// Returns `true` if nothing could be resolved.
    pub fn is_empty(&self) -> bool {
        self.positive.is_empty() && self.negative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::ReferenceLinksBuilder;
    use crate::source::DataSourceBuilder;

    fn sources() -> (DataSource, DataSource) {
        let a = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "Berlin")])
            .unwrap()
            .entity("a2", [("label", "Paris")])
            .unwrap()
            .build();
        let b = DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlin")])
            .unwrap()
            .entity("b2", [("name", "paris")])
            .unwrap()
            .build();
        (a, b)
    }

    #[test]
    fn resolve_links_to_entity_pairs() {
        let (a, b) = sources();
        let links = ReferenceLinksBuilder::new()
            .positive("a1", "b1")
            .positive("a2", "b2")
            .negative("a1", "b2")
            .build();
        let resolved = ResolvedReferenceLinks::resolve(&links, &a, &b);
        assert_eq!(resolved.positive().len(), 2);
        assert_eq!(resolved.negative().len(), 1);
        assert_eq!(resolved.len(), 3);
        assert!(!resolved.is_empty());
        assert_eq!(resolved.positive()[0].source.id(), "a1");
        assert_eq!(resolved.positive()[0].target.id(), "b1");
    }

    #[test]
    fn unresolvable_links_are_dropped() {
        let (a, b) = sources();
        let links = ReferenceLinksBuilder::new()
            .positive("a1", "missing")
            .negative("ghost", "b1")
            .build();
        let resolved = ResolvedReferenceLinks::resolve(&links, &a, &b);
        assert!(resolved.is_empty());
    }

    #[test]
    fn resolve_single_link() {
        let (a, b) = sources();
        let link = Link::new("a2", "b1");
        let pair = EntityPair::resolve(&link, &a, &b).unwrap();
        assert_eq!(pair.source.first_value("label"), Some("Paris"));
        assert_eq!(pair.target.first_value("name"), Some("berlin"));
        assert!(EntityPair::resolve(&Link::new("a9", "b1"), &a, &b).is_none());
    }
}
