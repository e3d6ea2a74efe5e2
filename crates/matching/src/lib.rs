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
//!   threshold; built around a streaming core (`run_stream`) that consumes
//!   the target chunk by chunk with a sharded per-chunk index build, of
//!   which the batch `run` is a zero-copy wrapper; `use_blocking: false`
//!   falls back to the exhaustive cross product,
//! * [`LinkService`] / [`ServiceWriter`] / [`ServiceReader`] — the serving
//!   front-end: a long-lived index over an *owned* entity store
//!   (insert/remove/ingest) answering single-entity match queries at
//!   interactive latency on an allocation-free candidate path; the
//!   writer/reader split publishes copy-on-write epochs so any number of
//!   reader threads query consistent snapshots while one writer churns.
//!   The writer serves a whole *registry* of rules over the one store —
//!   their indexes share leaves through a serving-side pool, registration
//!   on a warm store builds only the missing leaves, and replacing a rule
//!   is one epoch publication (a hot swap),
//! * [`ShardedService`] / [`ShardedReader`] — the serving layer partitioned
//!   by an entity-id hash router ([`ShardRouter`]) into N independent
//!   shards, each with its own index, epoch chain and (durably) WAL
//!   generation chain: N-way parallel mutation with no cross-shard lock,
//!   merged losslessly at query time,
//! * [`persist`] — versioned binary snapshots of the served state (entity
//!   store + leaf maps), restoring bit-identically in O(read),
//! * [`MatchingReport`] — links plus counters and per-comparison block
//!   statistics so pruning effectiveness can be inspected.

pub mod durable;
pub mod engine;
pub mod multiblock;
pub mod persist;
mod scratch;
pub mod service;
pub mod sharded;
mod wal;

pub use durable::{
    DurabilityOptions, DurableError, DurableService, RecoveryError, RecoveryReport,
    ShardedDurableService,
};
pub use engine::{
    ComparisonBlockStats, MatchingEngine, MatchingOptions, MatchingReport, ScoredLink,
};
pub use multiblock::{
    CandidateScratch, LeafBuildStats, LeafPoolStats, LeafReuseStats, MultiBlockIndex,
    SharedLeafIndexes,
};
pub use persist::{SnapshotError, SNAPSHOT_VERSION};
pub use service::{
    CommitteeLink, LinkService, RegistryError, RuleServingStats, ServiceOptions, ServiceReader,
    ServiceWriter, DEFAULT_RULE,
};
pub use sharded::{ShardRouter, ShardSlot, ShardedReader, ShardedScratch, ShardedService};
