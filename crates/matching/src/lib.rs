//! Matching engine: executes a linkage rule over two data sources.
//!
//! The GenLink paper learns rules from reference links; actually *generating*
//! links over full data sources is handled by the Silk execution engine with
//! its MultiBlock index (Isele, Jentzsch & Bizer, OM 2011).  This crate
//! provides the equivalent machinery so learned rules can be applied
//! end-to-end:
//!
//! * [`MultiBlockIndex`] — rule-derived, lossless candidate generation: the
//!   rule is lowered to an `IndexingPlan` (see `linkdisc_rule::indexing`)
//!   whose comparisons each contribute an overlap-guaranteed block index
//!   over their *transformed* value chains, combined by the aggregation
//!   semantics (`min` intersects, `max` unions, weighted means intersect
//!   per-child bounds),
//! * [`MatchingEngine`] — evaluates the compiled rule on each candidate pair
//!   (in parallel) and returns the scored links above the configurable link
//!   threshold; `run` cuts both sources into slices (one chunk per side by
//!   default) and builds a sharded index per target chunk;
//!   `use_blocking: false` falls back to the exhaustive cross product,
//! * [`ServiceWriter`] / [`ServiceReader`] — the serving front-end: a
//!   long-lived index over an *owned* entity store answering single-entity
//!   match queries on an allocation-free candidate path; the writer
//!   publishes copy-on-write epochs that any number of readers query while
//!   it churns, for a whole *registry* of rules sharing leaf indexes (a
//!   rule swap is one publication).  [`LinkService`] owns one of each
//!   (mutators on the facade, the rest via `writer()` / `reader()`), and
//!   [`DurableService`] write-ahead logs a writer,
//! * [`ShardedService`] / [`ShardedReader`] — the serving layer partitioned
//!   by an entity-id hash router ([`ShardRouter`]) into N independent
//!   shards of either [`Shard`] kind, in-memory or durable (one WAL chain
//!   per shard): N-way parallel mutation with no cross-shard lock, merged
//!   losslessly at query time,
//! * [`persist`] — versioned binary snapshots of the served state (entity
//!   store + leaf maps), restoring bit-identically in O(read),
//! * [`MatchingReport`] — links plus counters and per-comparison block
//!   statistics so pruning effectiveness can be inspected.

#![warn(unreachable_pub)]

mod codec;
pub mod durable;
pub mod engine;
pub mod multiblock;
pub mod persist;
mod scratch;
pub mod service;
pub mod sharded;
pub mod storage;
mod wal;

pub use codec::DecodeError;
pub use durable::{DurabilityOptions, DurableError, DurableService, RecoveryError, RecoveryReport};
pub use engine::{
    ComparisonBlockStats, MatchingEngine, MatchingOptions, MatchingReport, ScoredLink,
};
pub use multiblock::{CandidateScratch, LeafBuildStats, LeafPoolStats, MultiBlockIndex};
pub use persist::{SnapshotError, SNAPSHOT_VERSION};
pub use service::{
    CommitteeLink, LinkService, RegistryError, RuleServingStats, ServiceOptions, ServiceReader,
    ServiceWriter, DEFAULT_RULE,
};
pub use sharded::{Shard, ShardRouter, ShardSlot, ShardedReader, ShardedScratch, ShardedService};
pub use storage::{Dir, Disk, Storage};
