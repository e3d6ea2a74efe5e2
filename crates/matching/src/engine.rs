//! The matching engine: candidate generation plus compiled rule execution.
//!
//! Rules are lowered twice before a run: into a [`CompiledRule`] for fast
//! evaluation, and into an [`IndexingPlan`] (see `linkdisc_rule::indexing`)
//! that drives lossless MultiBlock candidate generation.
//!
//! The engine is built around a **streaming core**
//! ([`MatchingEngine::run_stream`]): the target arrives in bounded chunks
//! from a [`StreamingSource`], each chunk gets its own sharded
//! [`MultiBlockIndex`] (built across `threads` workers), the chunk's
//! candidates are scored, and the chunk is dropped before the next one is
//! requested — peak memory is the source plus *one* chunk, never the whole
//! target.  The source side streams too
//! ([`MatchingEngine::run_dual_stream`]): with a re-streamable target
//! ([`RestreamableSource`]) the core visits every (source chunk × target
//! chunk) pair — one full target pass per resident source chunk — so peak
//! memory drops to one chunk per *side*.  Chunking is exact **for the
//! links**: candidate generation is lossless on every partition of the target
//! and the rule is the final, exact filter, so links and score bits are
//! chunking- and thread-invariant.  `evaluated_pairs` is a *cost*, not a
//! result: where a conjunction stops pruning — at query time, or already at
//! build time (`MultiBlockIndex::build_staged`) — depends on the chunk's own
//! posting statistics, so the count is thread-invariant but may differ
//! between chunkings, within `links ≤ evaluated ≤ cross product`.  The batch
//! entry point ([`MatchingEngine::run`]) is a thin wrapper that streams the
//! materialised source as borrowed chunks.
//!
//! The engine owns **no value cache**.  The compiled rule **binds** each side
//! once — the target chunk before its index build, shared by all workers;
//! each worker's source span before its first probe — in one pass over its
//! entities into flat per-slot columns (see [`CompiledRule::bind_target`]):
//! a transformation runs once per (entity, chain) at one allocation per
//! output value, and the index build, candidate probes and pair scoring all
//! read the same columns by position.

use linkdisc_entity::{
    DataSource, Entity, MaterializedStream, RestreamableSource, StreamingSource,
};
use std::sync::Arc;

use linkdisc_entity::Schema;
use linkdisc_rule::{
    BoundSide, CompiledRule, EvalStats, IndexingPlan, LinkageRule, LINK_THRESHOLD,
};
use linkdisc_similarity::KernelCounters;
use linkdisc_util::resolve_threads;

use crate::multiblock::{
    chain_columns, BoundProbe, CandidateScratch, MultiBlockIndex, STAGE_FLOOR,
};

/// A generated link with its similarity score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredLink {
    /// Identifier of the source entity.
    pub source: String,
    /// Identifier of the target entity.
    pub target: String,
    /// Similarity assigned by the linkage rule (≥ the link threshold).
    pub score: f64,
}

impl ScoredLink {
    /// Ordering used wherever one best link per source entity is kept:
    /// higher score wins, ties break towards the smaller target identifier
    /// so the winner does not depend on candidate evaluation order (which
    /// differs between chunked and one-shot runs).
    pub(crate) fn beats(&self, other: &ScoredLink) -> bool {
        self.score > other.score || (self.score == other.score && self.target < other.target)
    }
}

/// Options of a matching run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingOptions {
    /// Use rule-derived MultiBlock indexing (`true`) or evaluate the full
    /// cross product (`false`).
    pub use_blocking: bool,
    /// Keep only the best-scoring link per source entity.
    pub best_match_only: bool,
    /// Number of worker threads (0 = all cores); applies to both the sharded
    /// index build and candidate scoring.
    pub threads: usize,
    /// Similarity a pair must reach to be reported as a link (Definition 3
    /// of the paper: 0.5).  Respected by both the indexed and the exhaustive
    /// path; the indexing plan derives its distance bounds from it.
    pub link_threshold: f64,
    /// Maximum target entities processed (and resident) at a time when the
    /// target is streamed; 0 means unbounded — the whole target in one
    /// chunk.  Results are identical for every chunk size.  When set, this
    /// **overrides** [`MatchingOptions::chunk_bytes`].
    pub chunk_size: usize,
    /// Byte budget for the resident target chunk (0 = disabled).  Chunks
    /// are sized adaptively from [`Entity::approx_bytes`] over the entities
    /// seen so far — conservatively, by the *largest* record seen, with
    /// slow-start growth (a chunk at most doubles the entities delivered so
    /// far) — so skewed record sizes yield predictable peak memory where a
    /// fixed entity count would not: wide records shrink the cap, narrow
    /// records grow it.  The budget is approximate by design: caps derive
    /// from *past* sizes (the first chunk probes at
    /// [`INITIAL_ADAPTIVE_CHUNK`] entities), so a chunk of records all
    /// fatter than anything previously observed overshoots by their growth
    /// factor — on a stream sorted small-to-large the divisor always lags
    /// one chunk behind, so treat the budget as an order-of-magnitude
    /// control there, not a ceiling.  Sizing never affects results, only
    /// residency (observable as [`MatchingReport::peak_chunk_bytes`]).
    pub chunk_bytes: usize,
    /// Maximum **source** entities resident at a time; 0 means the whole
    /// source in one chunk.  Applies to [`MatchingEngine::run`] and
    /// [`MatchingEngine::run_dual_stream`]: the source is consumed chunk by
    /// chunk and the target is re-streamed once per source chunk, so peak
    /// memory is one chunk per side.  Results are identical for every
    /// source chunk size (best-match merging and the candidate-set algebra
    /// both compose across source partitions), but the target index is
    /// rebuilt once per source chunk — the usual streaming time/memory
    /// trade.  [`MatchingEngine::run_stream`]'s target can only be streamed
    /// once, so that entry point keeps the source in one chunk regardless.
    pub source_chunk_size: usize,
}

/// Entities requested for the first chunk of a byte-budgeted run, before
/// any per-entity size estimate exists (kept small: the probe chunk is the
/// one chunk sized with no data at all).
pub const INITIAL_ADAPTIVE_CHUNK: usize = 16;

impl Default for MatchingOptions {
    fn default() -> Self {
        MatchingOptions {
            use_blocking: true,
            best_match_only: false,
            threads: 0,
            link_threshold: LINK_THRESHOLD,
            chunk_size: 0,
            chunk_bytes: 0,
            source_chunk_size: 0,
        }
    }
}

/// Per-comparison blocking statistics of a matching run.  On a chunked run
/// the build-side numbers (blocks, postings, indexed entities) are summed
/// over the per-chunk indexes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComparisonBlockStats {
    /// Human-readable comparison description (measure, value chains, bound).
    pub label: String,
    /// Whether the engine built this comparison's leaf index (for at least
    /// one chunk).  The staged build leaves a conjunction's costlier siblings
    /// out once the cheaper ones prune enough; such a leaf reports
    /// `blocks = postings = indexed_entities = candidates = 0`.
    pub built: bool,
    /// Number of distinct block keys in the target index.
    pub blocks: usize,
    /// Total posting-list entries across all blocks.
    pub postings: usize,
    /// Target entities that emitted at least one block key.
    pub indexed_entities: usize,
    /// Survivors after this leaf was consulted, summed over all source
    /// entities: its own candidates where it is consulted first (or under a
    /// union), what remained of the running set where a conjunction
    /// consulted it later — 0 when every conjunction stopped before it.
    pub candidates: usize,
}

/// The result of a matching run.
#[derive(Debug, Clone, Default)]
pub struct MatchingReport {
    /// The generated links (score ≥ link threshold), sorted by source id
    /// then score.
    pub links: Vec<ScoredLink>,
    /// Number of candidate pairs the rule was evaluated on.  A cost, not a
    /// result: identical at every thread count, but free to differ between
    /// chunkings (a conjunction stops where *its chunk's* posting statistics
    /// say evaluating is cheaper than pruning further), and free to rise
    /// while wall-clock falls — links never change.
    pub evaluated_pairs: usize,
    /// Size of the full cross product, for comparison.
    pub cross_product: usize,
    /// Total source entities consumed from the (possibly streamed) source.
    pub source_entities: usize,
    /// Total target entities consumed from the (possibly streamed) target
    /// (counted once, on the first pass, when the target is re-streamed).
    pub target_entities: usize,
    /// Number of source chunks processed (1 unless
    /// [`MatchingOptions::source_chunk_size`] bounds the source).
    pub source_chunks: usize,
    /// Number of non-empty target chunks processed, summed over target
    /// passes (1 for a batch run; on a dual-streamed run the target is
    /// re-streamed once per source chunk, so this counts total index-build
    /// work, not distinct target entities).
    pub chunks: usize,
    /// Largest number of source entities resident at once — the
    /// source-side streaming peak-memory proxy (equals `source_entities`
    /// unless the source is chunked).
    pub peak_source_chunk_entities: usize,
    /// Largest number of target entities resident at once — the streaming
    /// peak-memory proxy (equals `target_entities` for a batch run).
    pub peak_chunk_entities: usize,
    /// Largest estimated byte size ([`Entity::approx_bytes`]) of a resident
    /// chunk — the realized peak for byte-budgeted chunking
    /// ([`MatchingOptions::chunk_bytes`]); reported for every streamed run.
    pub peak_chunk_bytes: usize,
    /// Blocking statistics, one entry per indexed comparison (empty when the
    /// run was exhaustive — blocking disabled or the plan cannot prune).
    pub comparison_stats: Vec<ComparisonBlockStats>,
    /// Short-circuit counters of the bounded evaluator, summed over all
    /// workers: how many of the evaluated pairs stopped early and how many
    /// comparison operators that skipped.
    pub eval_stats: EvalStats,
    /// Similarity-kernel dispatch counters for this run (fast path vs
    /// fallback).  Deltas of process-wide counters, so concurrent matching
    /// runs in the same process bleed into each other's numbers — fine for
    /// the diagnostics these feed.
    pub kernels: KernelCounters,
}

impl MatchingReport {
    /// The fraction of the cross product that was *not* evaluated.
    pub fn reduction_ratio(&self) -> f64 {
        if self.cross_product == 0 {
            return 0.0;
        }
        1.0 - self.evaluated_pairs as f64 / self.cross_product as f64
    }

    /// Fraction of comparison operators skipped by short-circuiting across
    /// the evaluated pairs.
    pub fn skip_rate(&self) -> f64 {
        self.eval_stats.skip_rate()
    }
}

/// Executes a linkage rule over two data sources.
#[derive(Debug, Clone)]
pub struct MatchingEngine {
    rule: LinkageRule,
    options: MatchingOptions,
}

impl MatchingEngine {
    /// Creates an engine for a rule with default options.
    pub fn new(rule: LinkageRule) -> Self {
        MatchingEngine {
            rule,
            options: MatchingOptions::default(),
        }
    }

    /// Overrides the matching options.
    pub fn with_options(mut self, options: MatchingOptions) -> Self {
        self.options = options;
        self
    }

    /// The rule this engine executes.
    pub fn rule(&self) -> &LinkageRule {
        &self.rule
    }

    /// Generates links between two materialised data sources — a thin
    /// wrapper over the streaming core that streams both sides as borrowed
    /// chunks (one whole-source / whole-target chunk unless
    /// [`MatchingOptions::source_chunk_size`] /
    /// [`MatchingOptions::chunk_size`] bound them).
    pub fn run(&self, source: &DataSource, target: &DataSource) -> MatchingReport {
        let mut source_stream = MaterializedStream::new(source);
        let mut target_ref: &DataSource = target;
        self.run_core(&mut source_stream, &mut target_ref, self.source_cap())
    }

    /// Generates links between a materialised source and a *streamed*
    /// target.  The target is consumed chunk by chunk (at most
    /// [`MatchingOptions::chunk_size`] entities resident at a time); links
    /// and scores are identical to a batch run over the materialised
    /// equivalent (evaluated-pair and per-leaf candidate counts are costs
    /// and may differ between chunkings).
    ///
    /// The target can only be streamed once, so the source stays resident
    /// in one chunk regardless of [`MatchingOptions::source_chunk_size`];
    /// use [`MatchingEngine::run_dual_stream`] with a
    /// [`RestreamableSource`] target to bound both sides.
    pub fn run_stream(
        &self,
        source: &DataSource,
        target: &mut dyn StreamingSource,
    ) -> MatchingReport {
        let mut wrapper = OneShotTarget {
            name: target.name().to_string(),
            schema: target.schema().clone(),
            inner: Some(target),
        };
        let mut source_stream = MaterializedStream::new(source);
        // one whole-source chunk => exactly one target pass => the
        // single-use wrapper is opened at most once
        self.run_core(&mut source_stream, &mut wrapper, usize::MAX)
    }

    /// Generates links with **both** sides streamed: the source arrives in
    /// bounded chunks ([`MatchingOptions::source_chunk_size`]) and the
    /// target is re-streamed once per resident source chunk, itself in
    /// bounded chunks ([`MatchingOptions::chunk_size`] /
    /// [`MatchingOptions::chunk_bytes`]) — peak memory is one source chunk
    /// plus one target chunk.  Links are identical to the batch run over
    /// the materialised equivalents: each source entity is delivered in
    /// exactly one chunk (the [`StreamingSource`] contract), so per-chunk
    /// best-match winners and candidate sets compose losslessly.
    pub fn run_dual_stream(
        &self,
        source: &mut dyn StreamingSource,
        target: &mut dyn RestreamableSource,
    ) -> MatchingReport {
        self.run_core(source, target, self.source_cap())
    }

    /// The per-chunk entity cap for the streamed source side.
    fn source_cap(&self) -> usize {
        if self.options.source_chunk_size == 0 {
            usize::MAX
        } else {
            self.options.source_chunk_size
        }
    }

    /// The streaming core behind every entry point: chunk × chunk over a
    /// streamed source and a re-streamable target.
    fn run_core(
        &self,
        source: &mut dyn StreamingSource,
        target: &mut dyn RestreamableSource,
        source_cap: usize,
    ) -> MatchingReport {
        let source_cap = source_cap.max(1);
        let source_schema = source.schema().clone();
        let target_schema = target.schema().clone();
        let plan = self.options.use_blocking.then(|| {
            IndexingPlan::lower(
                &self.rule,
                &source_schema,
                &target_schema,
                self.options.link_threshold,
            )
            .canonicalized()
        });
        if self.rule.root().is_none() || plan.as_ref().is_some_and(IndexingPlan::is_empty_result) {
            // no pair can reach the link threshold: count both sides (the
            // cross-product denominator) and skip evaluation
            let source_entities = drain_counting(source, source_cap);
            let mut sizer = ChunkSizer::new(self.options.chunk_size, self.options.chunk_bytes);
            let target_entities = drain(&mut *target.open(), &mut sizer);
            return MatchingReport {
                cross_product: source_entities * target_entities,
                source_entities,
                target_entities,
                ..MatchingReport::default()
            };
        }
        // an exhaustive plan cannot prune — run with no index
        let indexed_plan = plan.filter(|plan| !plan.is_exhaustive()).map(Arc::new);

        let compiled = CompiledRule::compile(&self.rule, &source_schema, &target_schema);
        let threads = resolve_threads(self.options.threads).max(1);
        let kernels_before = KernelCounters::snapshot();
        let mut links: Vec<ScoredLink> = Vec::new();
        let mut evaluated_pairs = 0usize;
        let mut eval_stats = EvalStats::default();
        let mut comparison_stats: Vec<ComparisonBlockStats> = indexed_plan
            .iter()
            .flat_map(|plan| plan.comparisons())
            .map(|comparison| ComparisonBlockStats {
                label: comparison.label.clone(),
                ..ComparisonBlockStats::default()
            })
            .collect();
        let leaf_count = comparison_stats.len();
        let mut source_entities = 0usize;
        let mut source_chunks = 0usize;
        let mut peak_source_chunk_entities = 0usize;
        let mut target_entities = 0usize;
        let mut chunks = 0usize;
        let mut peak_chunk_entities = 0usize;
        let mut peak_chunk_bytes = 0usize;
        let mut first_pass = true;

        while let Some(source_chunk) = source.next_chunk(source_cap) {
            let source_chunk: &[Entity] = &source_chunk;
            source_entities += source_chunk.len();
            if source_chunk.is_empty() {
                continue;
            }
            source_chunks += 1;
            peak_source_chunk_entities = peak_source_chunk_entities.max(source_chunk.len());

            // best-match slots are local to the source chunk: every source
            // entity lives in exactly one chunk, so per-chunk winners are
            // already global winners
            let mut bests: Vec<Option<ScoredLink>> = if self.options.best_match_only {
                vec![None; source_chunk.len()]
            } else {
                Vec::new()
            };
            // every target chunk cuts the source chunk into the same worker
            // spans; a span is bound by the worker that first scores it
            let worker_span = source_chunk.len().div_ceil(threads).max(1);
            let mut bound_spans: Vec<Option<BoundSide>> =
                vec![None; source_chunk.len().div_ceil(worker_span)];
            // a fresh sizer per pass reproduces identical chunk boundaries
            // on every target pass (same slow-start, same divisors)
            let mut sizer = ChunkSizer::new(self.options.chunk_size, self.options.chunk_bytes);
            let mut pass = target.open();
            while let Some(chunk) = pass.next_chunk(sizer.next_cap()) {
                let chunk: &[Entity] = &chunk;
                if first_pass {
                    target_entities += chunk.len();
                }
                if chunk.is_empty() {
                    continue;
                }
                chunks += 1;
                peak_chunk_entities = peak_chunk_entities.max(chunk.len());
                peak_chunk_bytes = peak_chunk_bytes.max(sizer.observe(chunk));

                // bind first: the build, the probes and the scoring all
                // read the chunk's transformed values from these columns
                let bound_chunk = compiled.bind_target(chunk.iter());
                let index = indexed_plan.as_ref().map(|plan| {
                    MultiBlockIndex::build_staged(
                        plan.clone(),
                        &bound_chunk,
                        chunk.len(),
                        self.options.threads,
                        STAGE_FLOOR,
                    )
                });
                if let Some(index) = &index {
                    for (total, stats) in comparison_stats.iter_mut().zip(index.build_stats()) {
                        total.built |= stats.built;
                        total.blocks += stats.blocks;
                        total.postings += stats.postings;
                        total.indexed_entities += stats.indexed_entities;
                    }
                }

                let mut per_worker: Vec<ChunkOutcome> = Vec::with_capacity(threads);
                #[cfg(test)]
                let costliest_units = crate::multiblock::COSTLIEST_UNITS.get();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = source_chunk
                        .chunks(worker_span)
                        .zip(&mut bound_spans)
                        .enumerate()
                        .map(|(worker, (span, bound_span))| {
                            let base = worker * worker_span;
                            let index = index.as_ref();
                            let compiled = &compiled;
                            let bound_chunk = &bound_chunk;
                            let options = self.options;
                            scope.spawn(move || {
                                #[cfg(test)]
                                crate::multiblock::COSTLIEST_UNITS.set(costliest_units);
                                let bound_span = bound_span
                                    .get_or_insert_with(|| compiled.bind_source(span.iter()));
                                score_span(
                                    span,
                                    base,
                                    chunk,
                                    index,
                                    compiled,
                                    bound_span,
                                    bound_chunk,
                                    &options,
                                    leaf_count,
                                )
                            })
                        })
                        .collect();
                    for handle in handles {
                        per_worker.push(handle.join().expect("matching thread panicked"));
                    }
                });

                for outcome in per_worker {
                    evaluated_pairs += outcome.evaluated;
                    eval_stats.merge(&outcome.eval);
                    for (total, count) in comparison_stats.iter_mut().zip(outcome.leaf_candidates) {
                        total.candidates += count;
                    }
                    if self.options.best_match_only {
                        for (source_index, link) in outcome.bests {
                            let slot = &mut bests[source_index];
                            if slot.as_ref().is_none_or(|held| link.beats(held)) {
                                *slot = Some(link);
                            }
                        }
                    } else {
                        links.extend(outcome.links);
                    }
                }
            }
            drop(pass);
            first_pass = false;
            if self.options.best_match_only {
                links.extend(bests.into_iter().flatten());
            }
        }

        if first_pass {
            // no non-empty source chunk ever opened the target — still
            // report the target size for the cross-product denominator
            let mut sizer = ChunkSizer::new(self.options.chunk_size, self.options.chunk_bytes);
            target_entities = drain(&mut *target.open(), &mut sizer);
        }

        links.sort_by(|a, b| {
            a.source
                .cmp(&b.source)
                .then_with(|| b.score.total_cmp(&a.score))
                .then_with(|| a.target.cmp(&b.target))
        });
        MatchingReport {
            links,
            evaluated_pairs,
            cross_product: source_entities * target_entities,
            source_entities,
            target_entities,
            source_chunks,
            chunks,
            peak_source_chunk_entities,
            peak_chunk_entities,
            peak_chunk_bytes,
            comparison_stats,
            eval_stats,
            kernels: KernelCounters::snapshot().since(&kernels_before),
        }
    }
}

/// Adapts a single-use [`StreamingSource`] target to the re-streamable
/// interface [`MatchingEngine::run_core`] wants.  Sound only when the core
/// opens the target once, i.e. when the source fits in one chunk — which
/// [`MatchingEngine::run_stream`] guarantees by forcing an unbounded source
/// cap.
struct OneShotTarget<'a> {
    name: String,
    schema: Arc<Schema>,
    inner: Option<&'a mut dyn StreamingSource>,
}

impl RestreamableSource for OneShotTarget<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Box<dyn StreamingSource + '_> {
        let inner = self
            .inner
            .take()
            .expect("single-use target stream opened twice");
        Box::new(inner)
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|inner| inner.size_hint())
    }
}

/// Consumes a stream with a fixed request cap, returning its entity count
/// (degenerate-path source drain).
fn drain_counting(stream: &mut dyn StreamingSource, cap: usize) -> usize {
    let mut total = 0;
    while let Some(chunk) = stream.next_chunk(cap) {
        total += chunk.len();
    }
    total
}

/// Derives per-chunk entity caps for `run_stream`: a fixed entity count
/// when [`MatchingOptions::chunk_size`] is set, otherwise a byte budget
/// ([`MatchingOptions::chunk_bytes`]) divided by the **largest** entity
/// estimate seen so far (worst-case sizing, with slow-start growth),
/// otherwise unbounded.  Also tracks the realized per-chunk byte sizes
/// for [`MatchingReport::peak_chunk_bytes`].
struct ChunkSizer {
    fixed_entities: usize,
    byte_budget: usize,
    seen_entities: usize,
    /// Largest single-entity estimate seen — the conservative divisor: a
    /// chunk of `budget / max` entities stays within budget even if every
    /// one of them is as fat as the fattest record so far.
    max_entity_bytes: usize,
}

impl ChunkSizer {
    fn new(fixed_entities: usize, byte_budget: usize) -> Self {
        ChunkSizer {
            fixed_entities,
            byte_budget,
            seen_entities: 0,
            max_entity_bytes: 0,
        }
    }

    /// `true` when caps derive from observed entity sizes (a byte budget is
    /// set and no fixed entity count overrides it).
    fn is_adaptive(&self) -> bool {
        self.fixed_entities == 0 && self.byte_budget > 0
    }

    /// The entity cap to request for the next chunk.
    fn next_cap(&self) -> usize {
        if self.fixed_entities > 0 {
            return self.fixed_entities;
        }
        if self.byte_budget == 0 {
            return usize::MAX;
        }
        if self.seen_entities == 0 {
            return INITIAL_ADAPTIVE_CHUNK;
        }
        let by_budget = self.byte_budget / self.max_entity_bytes.max(1);
        // slow start: at most double the entities delivered so far, so one
        // unrepresentative early chunk cannot license a huge follow-up
        by_budget.min(2 * self.seen_entities).max(1)
    }

    /// Records a delivered chunk, returning its estimated byte size.
    fn observe(&mut self, chunk: &[Entity]) -> usize {
        let mut bytes = 0usize;
        for entity in chunk {
            let estimate = entity.approx_bytes();
            bytes += estimate;
            self.max_entity_bytes = self.max_entity_bytes.max(estimate);
        }
        self.seen_entities += chunk.len();
        bytes
    }
}

/// What one worker produced for one (source span × target chunk) block.
struct ChunkOutcome {
    links: Vec<ScoredLink>,
    /// Best link per source entity (global source index) when
    /// `best_match_only` is set; merged across chunks by the caller.
    bests: Vec<(usize, ScoredLink)>,
    evaluated: usize,
    /// Short-circuit counters of the bounded evaluator for this block.
    eval: EvalStats,
    leaf_candidates: Vec<usize>,
}

/// Scores one span of source entities against one target chunk.  Candidates
/// are probed and pairs evaluated by position in the two bound sides
/// (`bound_span` over `span`, `bound_chunk` over `chunk`).
#[allow(clippy::too_many_arguments)]
fn score_span(
    span: &[Entity],
    base: usize,
    chunk: &[Entity],
    index: Option<&MultiBlockIndex>,
    compiled: &CompiledRule,
    bound_span: &BoundSide,
    bound_chunk: &BoundSide,
    options: &MatchingOptions,
    leaf_count: usize,
) -> ChunkOutcome {
    let mut outcome = ChunkOutcome {
        links: Vec::new(),
        bests: Vec::new(),
        evaluated: 0,
        eval: EvalStats::default(),
        leaf_candidates: vec![0usize; leaf_count],
    };
    let mut scratch = CandidateScratch::new();
    let mut candidate_buf: Vec<u32> = Vec::new();
    // the plan's source chains, resolved to the span's columns once
    let probes = index.map(|index| {
        (
            index,
            chain_columns(index.plan(), bound_span, |c| &c.source),
        )
    });
    for (offset, source_entity) in span.iter().enumerate() {
        let positions: Option<&[u32]> = match &probes {
            Some((index, columns)) => {
                let probe = BoundProbe {
                    columns,
                    position: offset,
                };
                candidate_buf =
                    index.candidates_from(probe, &mut scratch, &mut outcome.leaf_candidates);
                Some(&candidate_buf)
            }
            None => None,
        };
        let mut best: Option<ScoredLink> = None;
        let mut score_target = |position: usize, outcome: &mut ChunkOutcome| {
            outcome.evaluated += 1;
            // bounded evaluation: a score below the threshold is an upper
            // bound (the pair provably cannot link — dropped right here);
            // a score at or above it is bit-identical to the exhaustive
            // evaluator, so emitted links are unchanged
            let score = compiled.evaluate_bound_stats(
                bound_span,
                offset,
                bound_chunk,
                position,
                options.link_threshold,
                &mut outcome.eval,
            );
            if score < options.link_threshold {
                return;
            }
            let link = ScoredLink {
                source: source_entity.id().to_string(),
                target: chunk[position].id().to_string(),
                score,
            };
            if options.best_match_only {
                if best.as_ref().is_none_or(|held| link.beats(held)) {
                    best = Some(link);
                }
            } else {
                outcome.links.push(link);
            }
        };
        match positions {
            Some(positions) => {
                for &position in positions {
                    score_target(position as usize, &mut outcome);
                }
            }
            None => {
                for position in 0..chunk.len() {
                    score_target(position, &mut outcome);
                }
            }
        }
        if let Some(best) = best {
            outcome.bests.push((base + offset, best));
        }
        if index.is_some() {
            scratch.recycle(std::mem::take(&mut candidate_buf));
        }
    }
    outcome
}

/// Consumes the rest of a stream, returning how many entities it held (used
/// by degenerate paths that still report the cross-product size).  The
/// sizer keeps observing delivered chunks so a byte-budgeted drain adapts
/// past its probe cap instead of requesting 16 entities forever.
fn drain(target: &mut dyn StreamingSource, sizer: &mut ChunkSizer) -> usize {
    let mut total = 0;
    while let Some(chunk) = target.next_chunk(sizer.next_cap()) {
        total += chunk.len();
        if sizer.is_adaptive() {
            sizer.observe(&chunk);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::{ChunkedSliceSource, ChunkedVecStream, DataSourceBuilder};
    use linkdisc_rule::{compare, property, transform, DistanceFunction, TransformFunction};

    fn sources() -> (DataSource, DataSource) {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "Berlin")])
            .unwrap()
            .entity("a2", [("label", "Paris")])
            .unwrap()
            .entity("a3", [("label", "Unmatched Place")])
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlin")])
            .unwrap()
            .entity("b2", [("name", "paris")])
            .unwrap()
            .entity("b3", [("name", "Rome")])
            .unwrap()
            .build();
        (source, target)
    }

    fn rule() -> LinkageRule {
        compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            property("name"),
            DistanceFunction::Levenshtein,
            0.5,
        )
        .into()
    }

    /// What holds for `evaluated_pairs` across chunkings: it is a cost, bounded
    /// by the links below and the cross product above (links and scores are
    /// what every chunking must reproduce exactly).
    fn assert_cost_within_bounds(report: &MatchingReport) {
        assert!(report.links.len() <= report.evaluated_pairs);
        assert!(report.evaluated_pairs <= report.cross_product);
    }

    #[test]
    fn engine_finds_the_expected_links() {
        let (source, target) = sources();
        let report = MatchingEngine::new(rule()).run(&source, &target);
        let pairs: Vec<(&str, &str)> = report
            .links
            .iter()
            .map(|l| (l.source.as_str(), l.target.as_str()))
            .collect();
        assert_eq!(pairs, vec![("a1", "b1"), ("a2", "b2")]);
        assert!(report.links.iter().all(|l| l.score >= 0.5));
        assert_eq!(report.chunks, 1);
        assert_eq!(report.target_entities, 3);
        assert_eq!(report.peak_chunk_entities, 3);
    }

    #[test]
    fn blocking_reduces_the_evaluated_pairs() {
        let (source, target) = sources();
        let blocked = MatchingEngine::new(rule()).run(&source, &target);
        let full = MatchingEngine::new(rule())
            .with_options(MatchingOptions {
                use_blocking: false,
                ..MatchingOptions::default()
            })
            .run(&source, &target);
        assert_eq!(full.evaluated_pairs, 9);
        assert!(blocked.evaluated_pairs < full.evaluated_pairs);
        assert_eq!(blocked.links, full.links);
        assert!(blocked.reduction_ratio() > 0.0);
        assert_eq!(blocked.comparison_stats.len(), 1);
        assert!(blocked.comparison_stats[0].blocks > 0);
        assert!(full.comparison_stats.is_empty());
    }

    #[test]
    fn chunked_runs_match_the_batch_run_exactly() {
        let (source, target) = sources();
        let batch = MatchingEngine::new(rule()).run(&source, &target);
        for chunk_size in [1, 2, 3, 7] {
            for use_blocking in [true, false] {
                let chunked = MatchingEngine::new(rule())
                    .with_options(MatchingOptions {
                        chunk_size,
                        use_blocking,
                        ..MatchingOptions::default()
                    })
                    .run(&source, &target);
                assert_eq!(chunked.links, batch.links, "chunk_size={chunk_size}");
                assert_cost_within_bounds(&chunked);
                assert_eq!(chunked.cross_product, batch.cross_product);
                assert_eq!(chunked.target_entities, 3);
                assert_eq!(chunked.chunks, target.len().div_ceil(chunk_size));
                assert!(chunked.peak_chunk_entities <= chunk_size);
            }
        }
    }

    #[test]
    fn streamed_target_never_needs_the_whole_source() {
        let (source, target) = sources();
        let batch = MatchingEngine::new(rule()).run(&source, &target);
        // owned chunks, as a lazily-parsing source would produce them
        let chunks = vec![
            vec![target.entities()[0].clone()],
            vec![target.entities()[1].clone(), target.entities()[2].clone()],
        ];
        let mut stream = ChunkedVecStream::new("B", target.schema().clone(), chunks);
        let streamed = MatchingEngine::new(rule()).run_stream(&source, &mut stream);
        assert_eq!(streamed.links, batch.links);
        assert_cost_within_bounds(&streamed);
        assert_eq!(streamed.chunks, 2);
        assert_eq!(streamed.peak_chunk_entities, 2);
    }

    #[test]
    fn multiblock_keeps_fuzzy_matches_token_blocking_missed() {
        // single-token values with a typo share no exact token: the old
        // token index pruned this pair, MultiBlock must keep it
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "berlin")])
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlim")])
            .unwrap()
            .entity("b2", [("name", "faraway")])
            .unwrap()
            .build();
        let fuzzy: LinkageRule = compare(
            property("label"),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let blocked = MatchingEngine::new(fuzzy.clone()).run(&source, &target);
        let full = MatchingEngine::new(fuzzy)
            .with_options(MatchingOptions {
                use_blocking: false,
                ..MatchingOptions::default()
            })
            .run(&source, &target);
        assert_eq!(blocked.links, full.links);
        assert_eq!(blocked.links.len(), 1);
        assert_eq!(blocked.links[0].target, "b1");
        assert!(blocked.evaluated_pairs < full.evaluated_pairs);
    }

    #[test]
    fn link_threshold_is_respected_on_both_paths() {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "berlin")])
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlin")])
            .unwrap()
            .entity("b2", [("name", "berlXn")])
            .unwrap()
            .build();
        let fuzzy: LinkageRule = compare(
            property("label"),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        // at 0.5 both match (distances 0 and 1 → similarities 1.0 and 0.5);
        // at 0.75 only the exact pair stays, on both paths
        for use_blocking in [true, false] {
            let lenient = MatchingEngine::new(fuzzy.clone())
                .with_options(MatchingOptions {
                    use_blocking,
                    ..MatchingOptions::default()
                })
                .run(&source, &target);
            assert_eq!(lenient.links.len(), 2, "blocking={use_blocking}");
            let strict = MatchingEngine::new(fuzzy.clone())
                .with_options(MatchingOptions {
                    use_blocking,
                    link_threshold: 0.75,
                    ..MatchingOptions::default()
                })
                .run(&source, &target);
            assert_eq!(strict.links.len(), 1, "blocking={use_blocking}");
            assert_eq!(strict.links[0].target, "b1");
        }
    }

    #[test]
    fn best_match_only_keeps_one_link_per_source() {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "berlin")])
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["name"])
            .entity("b1", [("name", "berlin")])
            .unwrap()
            .entity("b2", [("name", "berlim")])
            .unwrap()
            .build();
        let fuzzy_rule: LinkageRule = compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        // MultiBlock keeps the "berlim" candidate despite the missing shared
        // token, so blocking and exhaustive agree here
        for use_blocking in [true, false] {
            let all = MatchingEngine::new(fuzzy_rule.clone())
                .with_options(MatchingOptions {
                    use_blocking,
                    ..MatchingOptions::default()
                })
                .run(&source, &target);
            assert_eq!(all.links.len(), 2, "blocking={use_blocking}");
            let best = MatchingEngine::new(fuzzy_rule.clone())
                .with_options(MatchingOptions {
                    use_blocking,
                    best_match_only: true,
                    ..MatchingOptions::default()
                })
                .run(&source, &target);
            assert_eq!(best.links.len(), 1, "blocking={use_blocking}");
            assert_eq!(best.links[0].target, "b1");
        }
    }

    #[test]
    fn best_match_only_is_chunking_invariant() {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "berlin")])
            .unwrap()
            .build();
        // two equally-scored targets: the tie must resolve identically no
        // matter how the target is chunked
        let target = DataSourceBuilder::new("B", ["name"])
            .entity("b2", [("name", "berlim")])
            .unwrap()
            .entity("b1", [("name", "berlix")])
            .unwrap()
            .build();
        let fuzzy: LinkageRule = compare(
            property("label"),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let mut seen = Vec::new();
        for chunk_size in [0, 1, 2] {
            let best = MatchingEngine::new(fuzzy.clone())
                .with_options(MatchingOptions {
                    best_match_only: true,
                    chunk_size,
                    ..MatchingOptions::default()
                })
                .run(&source, &target);
            assert_eq!(best.links.len(), 1, "chunk_size={chunk_size}");
            seen.push(best.links[0].clone());
        }
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[1], seen[2]);
        assert_eq!(seen[0].target, "b1", "ties break towards the smaller id");
    }

    #[test]
    fn byte_budget_adapts_chunks_to_record_sizes() {
        // skewed record sizes: a fixed entity count would make fat-heavy
        // chunks ~30x heavier than thin ones; a byte budget keeps residency
        // steady by shrinking the entity cap instead
        let mut builder = DataSourceBuilder::new("B", ["name"]);
        let fat = "x".repeat(4096);
        for i in 0..64 {
            let value = if i % 2 == 0 { "thin" } else { fat.as_str() };
            builder = builder
                .entity(format!("b{i:02}"), [("name", value)])
                .unwrap();
        }
        let target = builder.build();
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "thin")])
            .unwrap()
            .build();
        let rule: LinkageRule = compare(
            property("label"),
            property("name"),
            DistanceFunction::Equality,
            0.5,
        )
        .into();
        let batch = MatchingEngine::new(rule.clone()).run(&source, &target);
        let budget = 64 * 1024;
        let budgeted = MatchingEngine::new(rule.clone())
            .with_options(MatchingOptions {
                chunk_bytes: budget,
                ..MatchingOptions::default()
            })
            .run(&source, &target);
        assert_eq!(
            budgeted.links, batch.links,
            "chunking never changes results"
        );
        assert!(budgeted.chunks > 1, "the budget forces multiple chunks");
        assert!(
            budgeted.peak_chunk_entities < target.len(),
            "never the whole target resident"
        );
        // this fixture interleaves fat and thin records, so every chunk's
        // worst-case divisor has already seen a fat record and the peak
        // stays within one record of the budget (a size-sorted stream
        // would not enjoy this bound — see the chunk_bytes docs)
        let fattest = target
            .entities()
            .iter()
            .map(Entity::approx_bytes)
            .max()
            .unwrap();
        assert!(
            budgeted.peak_chunk_bytes <= budget + fattest,
            "peak {} exceeds budget {budget} by more than one record ({fattest})",
            budgeted.peak_chunk_bytes
        );
        // an explicit chunk_size overrides the byte budget
        let overridden = MatchingEngine::new(rule)
            .with_options(MatchingOptions {
                chunk_bytes: budget,
                chunk_size: 64,
                ..MatchingOptions::default()
            })
            .run(&source, &target);
        assert_eq!(overridden.chunks, 1, "chunk_size wins over chunk_bytes");
        assert_eq!(overridden.peak_chunk_entities, 64);
        assert!(overridden.peak_chunk_bytes > budget);
    }

    #[test]
    fn empty_rule_produces_no_links() {
        let (source, target) = sources();
        let report = MatchingEngine::new(LinkageRule::empty()).run(&source, &target);
        assert!(report.links.is_empty());
        assert_eq!(report.evaluated_pairs, 0);
        assert_eq!(report.cross_product, 9);
    }

    #[test]
    fn source_chunked_runs_match_the_batch_run_exactly() {
        let (source, target) = sources();
        let batch = MatchingEngine::new(rule()).run(&source, &target);
        for source_chunk_size in [1, 2, 3, 7] {
            for chunk_size in [0, 2] {
                for best_match_only in [false, true] {
                    let chunked = MatchingEngine::new(rule())
                        .with_options(MatchingOptions {
                            source_chunk_size,
                            chunk_size,
                            best_match_only,
                            ..MatchingOptions::default()
                        })
                        .run(&source, &target);
                    let expected = MatchingEngine::new(rule())
                        .with_options(MatchingOptions {
                            best_match_only,
                            ..MatchingOptions::default()
                        })
                        .run(&source, &target);
                    assert_eq!(
                        chunked.links, expected.links,
                        "source_chunk_size={source_chunk_size} chunk_size={chunk_size} \
                         best_match_only={best_match_only}"
                    );
                    assert_cost_within_bounds(&chunked);
                    assert_eq!(chunked.cross_product, batch.cross_product);
                    assert_eq!(chunked.source_entities, source.len());
                    assert_eq!(chunked.target_entities, target.len());
                    assert_eq!(
                        chunked.source_chunks,
                        source.len().div_ceil(source_chunk_size)
                    );
                    assert!(chunked.peak_source_chunk_entities <= source_chunk_size);
                }
            }
        }
    }

    #[test]
    fn dual_stream_bounds_both_sides_and_matches_batch() {
        let (source, target) = sources();
        let batch = MatchingEngine::new(rule()).run(&source, &target);
        let source_chunks = vec![
            vec![source.entities()[0].clone()],
            vec![source.entities()[1].clone(), source.entities()[2].clone()],
        ];
        let target_chunks = vec![
            vec![target.entities()[0].clone(), target.entities()[1].clone()],
            vec![target.entities()[2].clone()],
        ];
        let mut stream = ChunkedVecStream::new("A", source.schema().clone(), source_chunks);
        let mut restream = ChunkedSliceSource::new("B", target.schema().clone(), target_chunks);
        let report = MatchingEngine::new(rule()).run_dual_stream(&mut stream, &mut restream);
        assert_eq!(report.links, batch.links);
        assert_cost_within_bounds(&report);
        assert_eq!(report.source_entities, 3);
        assert_eq!(report.target_entities, 3, "counted on the first pass only");
        assert_eq!(report.source_chunks, 2);
        assert_eq!(report.chunks, 4, "two target chunks per source chunk");
        assert_eq!(report.peak_source_chunk_entities, 2);
        assert_eq!(report.peak_chunk_entities, 2);
        assert_eq!(report.cross_product, batch.cross_product);
    }

    #[test]
    fn dual_stream_empty_rule_still_counts_both_sides() {
        let (source, target) = sources();
        let mut stream = ChunkedVecStream::new(
            "A",
            source.schema().clone(),
            vec![source.entities().to_vec()],
        );
        let mut restream = ChunkedSliceSource::new(
            "B",
            target.schema().clone(),
            vec![target.entities().to_vec()],
        );
        let report =
            MatchingEngine::new(LinkageRule::empty()).run_dual_stream(&mut stream, &mut restream);
        assert!(report.links.is_empty());
        assert_eq!(report.cross_product, 9);
    }

    /// 40 restaurants per side; `shared_city` is what every entity's `city`
    /// reads (`None`: a city of its own).
    fn restaurants(shared_city: Option<&str>) -> (DataSource, DataSource) {
        let side = |prefix: &str, name: &dyn Fn(usize) -> String| {
            let mut builder = DataSourceBuilder::new(prefix, ["name", "city"]);
            for i in 0..40 {
                let city = shared_city.map_or(format!("city {i}"), str::to_string);
                builder = builder
                    .entity(
                        format!("{prefix}{i:02}"),
                        [("name", name(i).as_str()), ("city", city.as_str())],
                    )
                    .unwrap();
            }
            builder.build()
        };
        // "AAAAAA 00", "BBBBBB 01", …: different stems share no q-gram
        let stem = |i: usize| String::from((b'A' + (i % 26) as u8) as char).repeat(6);
        (
            side("a", &|i| format!("{} {i:02}", stem(i))),
            side("b", &|i| format!("{} {i:02}!", stem(i).to_lowercase())),
        )
    }

    fn name_and_city() -> LinkageRule {
        linkdisc_rule::aggregation(
            linkdisc_rule::AggregationFunction::Min,
            vec![
                compare(
                    transform(TransformFunction::LowerCase, vec![property("name")]),
                    property("name"),
                    DistanceFunction::Levenshtein,
                    2.0,
                ),
                compare(
                    property("city"),
                    property("city"),
                    DistanceFunction::Equality,
                    0.5,
                ),
            ],
        )
        .into()
    }

    fn exhaustive(rule: &LinkageRule, source: &DataSource, target: &DataSource) -> MatchingReport {
        MatchingEngine::new(rule.clone())
            .with_options(MatchingOptions {
                use_blocking: false,
                ..MatchingOptions::default()
            })
            .run(source, target)
    }

    #[test]
    fn a_selective_exact_key_sibling_leaves_the_qgram_leaf_unbuilt() {
        // every target has a city of its own: the one-key equality leaf is
        // built first and leaves one candidate per probe, far below the
        // staging floor — the q-gram name leaf is never built or consulted
        let (source, target) = restaurants(None);
        let report = MatchingEngine::new(name_and_city()).run(&source, &target);
        let [name, city] = &report.comparison_stats[..] else {
            panic!("two indexed comparisons");
        };
        assert!(name.label.starts_with("levenshtein") && city.label.starts_with("equality"));
        assert!(!name.built, "the name leaf must be left out");
        assert_eq!(
            (
                name.blocks,
                name.postings,
                name.indexed_entities,
                name.candidates
            ),
            (0, 0, 0, 0)
        );
        assert!(city.built);
        assert_eq!(
            (city.blocks, city.indexed_entities, city.candidates),
            (40, 40, 40)
        );
        assert_eq!(report.evaluated_pairs, 40);
        assert_eq!(report.links.len(), 40);
        assert_eq!(
            report.links,
            exhaustive(&name_and_city(), &source, &target).links
        );
    }

    #[test]
    fn a_cheap_but_unselective_sibling_gets_the_qgram_leaf_built() {
        // one city for every target: the equality leaf is still the cheapest
        // to build, but it leaves all 40 targets per probe — above the
        // staging floor — so the name leaf is built and does the pruning
        let (source, target) = restaurants(Some("roma"));
        let report = MatchingEngine::new(name_and_city()).run(&source, &target);
        let [name, city] = &report.comparison_stats[..] else {
            panic!("two indexed comparisons");
        };
        assert!(name.built && city.built);
        assert_eq!(name.indexed_entities, 40);
        assert_eq!((city.blocks, city.postings), (1, 40));
        assert!(name.candidates > 0);
        assert!(report.evaluated_pairs < report.cross_product);
        assert_eq!(report.links.len(), 40);
        assert_eq!(
            report.links,
            exhaustive(&name_and_city(), &source, &target).links
        );
    }

    /// Losslessness must not depend on the cost heuristic: with the leaf
    /// executor scanning the *costliest* `may_miss + 1` units of every probe
    /// group instead of the cheapest, the engine still links exactly what the
    /// exhaustive run links — over random GP rules × Cora and Restaurant.
    #[test]
    fn the_costliest_units_find_every_link_too() {
        use genlink::random::RandomRuleGenerator;
        use genlink::seeding::SeedingConfig;
        use genlink::{find_compatible_properties, RepresentationMode};
        use linkdisc_datasets::DatasetKind;
        use rand::SeedableRng;
        let mut costlier_runs = 0usize;
        for (kind, scale) in [(DatasetKind::Cora, 0.06), (DatasetKind::Restaurant, 0.15)] {
            for seed in 0..3u64 {
                let data = kind.generate(scale, seed);
                let pairs = find_compatible_properties(
                    &data.source,
                    &data.target,
                    &data.links,
                    &SeedingConfig::default(),
                );
                let mut generator = RandomRuleGenerator::new(pairs, RepresentationMode::Full);
                generator.max_comparisons = 4;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 17);
                for _ in 0..6 {
                    let rule = generator.generate(&mut rng);
                    let cheapest =
                        MatchingEngine::new(rule.clone()).run(&data.source, &data.target);
                    crate::multiblock::COSTLIEST_UNITS.set(true);
                    let costliest = MatchingEngine::new(rule.clone())
                        .with_options(MatchingOptions {
                            threads: 2,
                            ..MatchingOptions::default()
                        })
                        .run(&data.source, &data.target);
                    crate::multiblock::COSTLIEST_UNITS.set(false);
                    let full = exhaustive(&rule, &data.source, &data.target);
                    let printed = linkdisc_rule::print_rule(&rule);
                    assert_eq!(costliest.links, full.links, "{printed}");
                    assert_eq!(cheapest.links, full.links, "{printed}");
                    costlier_runs +=
                        usize::from(costliest.evaluated_pairs > cheapest.evaluated_pairs);
                }
            }
        }
        // not vacuous: the other choice of units was a different one
        assert!(costlier_runs > 0, "no run ever had units to choose from");
    }

    #[test]
    fn single_threaded_and_parallel_runs_agree() {
        // every worker binds its own source span (1, 2 and 3 entities wide
        // here) and shares the bound target chunk
        let (source, target) = sources();
        let run = |threads| {
            MatchingEngine::new(rule())
                .with_options(MatchingOptions {
                    threads,
                    ..MatchingOptions::default()
                })
                .run(&source, &target)
        };
        let sequential = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(sequential.links, parallel.links);
            assert_eq!(sequential.evaluated_pairs, parallel.evaluated_pairs);
            assert_eq!(sequential.eval_stats, parallel.eval_stats);
            assert_eq!(sequential.comparison_stats, parallel.comparison_stats);
        }
    }
}
