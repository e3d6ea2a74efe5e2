//! GenLink: learning expressive linkage rules using genetic programming.
//!
//! This crate implements the learning algorithm of *Isele & Bizer, "Learning
//! Expressive Linkage Rules using Genetic Programming", VLDB 2012* on top of
//! the linkage-rule representation of the `linkdisc-rule` crate and the
//! generic GP engine of the `linkdisc-gp` crate.
//!
//! The algorithm (Section 5 of the paper):
//!
//! 1. **Seeding** ([`seeding`]) — pairs of properties holding similar values
//!    are pre-selected from the positive reference links (Algorithm 2) and the
//!    initial population is built from small random rules over those pairs.
//! 2. **Fitness** ([`fitness`]) — Matthews correlation coefficient on the
//!    training links with a parsimony penalty on the rule size.
//! 3. **Evolution** — tournament selection plus a set of *specialized
//!    crossover operators* ([`operators`]), each evolving one aspect of a
//!    linkage rule: its functions, its comparison set, its aggregation
//!    hierarchy, its transformation chains, its thresholds and its weights.
//!    Mutation is headless-chicken crossover with a random rule.
//! 4. The best rule of the final population is returned.
//!
//! The entry point is [`GenLink`]:
//!
//! ```
//! use genlink::{GenLink, GenLinkConfig};
//! use linkdisc_entity::{DataSourceBuilder, ReferenceLinksBuilder};
//!
//! let source = DataSourceBuilder::new("A", ["label"])
//!     .entity("a1", [("label", "Berlin")]).unwrap()
//!     .entity("a2", [("label", "Paris")]).unwrap()
//!     .build();
//! let target = DataSourceBuilder::new("B", ["name"])
//!     .entity("b1", [("name", "berlin")]).unwrap()
//!     .entity("b2", [("name", "paris")]).unwrap()
//!     .build();
//! let links = ReferenceLinksBuilder::new()
//!     .positive("a1", "b1").positive("a2", "b2")
//!     .negative("a1", "b2").negative("a2", "b1")
//!     .build();
//!
//! let mut config = GenLinkConfig::fast();
//! config.gp.threads = 1;
//! let outcome = GenLink::new(config).learn(&source, &target, &links, 7);
//! assert!(outcome.training.f_measure() > 0.9);
//! ```

#![warn(unreachable_pub)]

pub mod config;
pub mod fitness;
pub mod learner;
pub mod operators;
pub mod problem;
pub mod random;
pub mod representation;
pub mod seeding;
pub mod simplify;

pub use config::{GenLinkConfig, LearningMode, SeedingStrategy};
pub use fitness::{FitnessFunction, ParsimonyModel, PreparedRule};
pub use learner::{GenLink, LearnOutcome};
pub use operators::CrossoverOperator;
pub use representation::RepresentationMode;
pub use seeding::{find_compatible_properties, CompatiblePair};
pub use simplify::simplify_rule;

// Re-export the building blocks users typically need alongside the learner.
pub use linkdisc_gp::{GpConfig, IterationStats, PhaseTimers, PipelineReport};
pub use linkdisc_rule::{AggregationFunction, DistanceFunction, LinkageRule, TransformFunction};
