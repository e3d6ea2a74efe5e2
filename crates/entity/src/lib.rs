//! Entity, data-source and reference-link model for the GenLink reproduction.
//!
//! The paper (Isele & Bizer, VLDB 2012, Section 2) considers two data sources
//! `A` and `B` whose entities are described by a set of multi-valued
//! properties.  The goal of entity matching is to find the subset `M ⊆ A × B`
//! of pairs describing the same real-world object.  Supervision is provided as
//! *reference links*: a set of positive pairs `R+ ⊆ M` and negative pairs
//! `R− ⊆ U`.
//!
//! This crate provides:
//!
//! * [`Schema`] — the ordered list of properties of a data source,
//! * [`Entity`] — an identified record holding a (possibly empty) value set
//!   per property,
//! * [`DataSource`] — a named collection of entities sharing one schema,
//! * [`ReferenceLinks`] — positive and negative reference links including the
//!   negative-link generation scheme used in Section 6.1 of the paper,
//! * [`EntityStore`] — an owned, id-stable slot table with interned values
//!   and cheap copy-on-write snapshots (the serving layer's entity owner),
//! * [`tabular`] — a tiny delimited-text loader so real data can be plugged in,
//! * [`EntityPair`] — a borrowed pair `(a, b)` handed to linkage rules.
//!
//! The model is deliberately independent of RDF: the learning algorithm only
//! needs "entities with named multi-valued properties", which covers both the
//! record-linkage datasets (Cora, Restaurant) and the Linked Data datasets of
//! the paper.

#![warn(unreachable_pub)]

pub mod entity;
pub mod error;
pub mod links;
pub mod pair;
pub mod schema;
pub mod source;
pub mod store;
pub mod tabular;
pub mod value;

pub use entity::{Entity, EntityBuilder, EntityId};
pub use error::EntityError;
pub use links::{Link, ReferenceLinks, ReferenceLinksBuilder};
pub use pair::{EntityPair, ResolvedReferenceLinks};
pub use schema::{PropertyIndex, Schema};
pub use source::{DataSource, DataSourceBuilder};
pub use store::{EntitySnapshot, EntityStore};
pub use value::{normalized_tokens, ValueSet};
