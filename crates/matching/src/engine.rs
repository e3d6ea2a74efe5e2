//! The matching engine: candidate generation plus compiled rule execution.
//!
//! Rules are lowered twice before a run: into a [`CompiledRule`] for fast
//! evaluation, and into an [`IndexingPlan`] (see `linkdisc_rule::indexing`)
//! that drives lossless MultiBlock candidate generation.
//!
//! [`MatchingEngine::run`] cuts both sides into slices — the source by
//! [`MatchingOptions::source_chunk_size`], the target by
//! [`MatchingOptions::chunk_size`], 0 meaning one chunk — and visits every
//! (target chunk × source chunk) pair in a block-nested loop, target chunks
//! outside.  Each target chunk is bound and gets its own staged
//! [`MultiBlockIndex`] **once** (built on the calling thread), and every
//! source chunk is scored against it, one source span per worker through
//! `linkdisc_util::parallel_ordered_map_mut` (on the caller at one thread);
//! only one chunk per side is bound (transformed) at a time.  Best-match
//! slots span the whole source and merge across target chunks by
//! `ScoredLink::beats`; the final sort makes the link order independent of
//! the loop order.  Chunking is exact **for the
//! links**: candidate generation is lossless on every partition of the target
//! and the rule is the final, exact filter, so links and score bits are
//! chunking- and thread-invariant.  `evaluated_pairs` is a *cost*, not a
//! result: where a conjunction stops pruning — at query time, or already at
//! build time (`MultiBlockIndex::build_staged`) — depends on the chunk's own
//! posting statistics, so the count is thread-invariant but may differ
//! between chunkings, within `links ≤ evaluated ≤ cross product`.
//!
//! The engine owns **no value cache**.  The compiled rule **binds** each side
//! chunk by chunk — the target chunk before its index build, shared by all
//! workers; each worker's source span before its first probe, once per run
//! when the source is one chunk and once per target chunk when it is
//! chunked — in one pass over its entities into flat per-slot columns
//! (see [`CompiledRule::bind_target`]):
//! a transformation runs once per (entity, chain) at one allocation per
//! output value, and the index build, candidate probes and pair scoring all
//! read the same columns by position.

use linkdisc_entity::{DataSource, Entity};
use std::sync::Arc;

use linkdisc_rule::{
    BoundSide, CompiledRule, EvalStats, IndexingPlan, LinkageRule, LINK_THRESHOLD,
};
use linkdisc_similarity::KernelCounters;
use linkdisc_util::{parallel_ordered_map_mut, resolve_threads};

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
    /// Number of worker threads for candidate scoring (0 = all cores); the
    /// staged index build runs on the calling thread.
    pub threads: usize,
    /// Similarity a pair must reach to be reported as a link (Definition 3
    /// of the paper: 0.5).  Respected by both the indexed and the exhaustive
    /// path; the indexing plan derives its distance bounds from it.
    pub link_threshold: f64,
    /// Maximum target entities bound and indexed at a time; 0 means the
    /// whole target in one chunk.  Results are identical for every chunk
    /// size.
    pub chunk_size: usize,
    /// Maximum source entities bound at a time; 0 means the whole source in
    /// one chunk.  Every source chunk is scored against every target chunk's
    /// index, so results are identical for every source chunk size
    /// (best-match merging and the candidate-set algebra both compose across
    /// source partitions).  Each target chunk is still indexed once, but a
    /// chunked source is bound again for every target chunk: the source's
    /// transformations run `⌈target / chunk_size⌉` times, against once when
    /// the source is one chunk (0 or at least the source's size).
    pub source_chunk_size: usize,
}

impl Default for MatchingOptions {
    fn default() -> Self {
        MatchingOptions {
            use_blocking: true,
            best_match_only: false,
            threads: 0,
            link_threshold: LINK_THRESHOLD,
            chunk_size: 0,
            source_chunk_size: 0,
        }
    }
}

/// Per-comparison blocking statistics of a matching run.  On a chunked run
/// the build-side numbers (blocks, postings, indexed entities) are summed
/// over the per-chunk indexes, one per target chunk whatever the source
/// chunking.
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
    /// Number of source entities.
    pub source_entities: usize,
    /// Number of target entities.
    pub target_entities: usize,
    /// Number of source chunks processed (1 unless
    /// [`MatchingOptions::source_chunk_size`] bounds the source).
    pub source_chunks: usize,
    /// Number of target chunks processed, each bound and indexed once: the
    /// index builds of the run, `⌈target / chunk_size⌉` whatever the source
    /// chunking.
    pub chunks: usize,
    /// Largest source chunk bound at once (equals `source_entities` unless
    /// the source is chunked).
    pub peak_source_chunk_entities: usize,
    /// Largest target chunk bound and indexed at once (equals
    /// `target_entities` unless the target is chunked).
    pub peak_chunk_entities: usize,
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

    /// Generates links between two data sources, one (target chunk × source
    /// chunk) block at a time ([`MatchingOptions::source_chunk_size`] /
    /// [`MatchingOptions::chunk_size`]; one chunk per side by default).
    pub fn run(&self, source: &DataSource, target: &DataSource) -> MatchingReport {
        let (source_entities, target_entities) = (source.entities(), target.entities());
        let plan = self.options.use_blocking.then(|| {
            IndexingPlan::lower(
                &self.rule,
                source.schema(),
                target.schema(),
                self.options.link_threshold,
            )
            .canonicalized()
        });
        if self.rule.root().is_none() || plan.as_ref().is_some_and(IndexingPlan::is_empty_result) {
            // no pair can reach the link threshold: report both sides (the
            // cross-product denominator) and skip evaluation
            return MatchingReport {
                cross_product: source_entities.len() * target_entities.len(),
                source_entities: source_entities.len(),
                target_entities: target_entities.len(),
                ..MatchingReport::default()
            };
        }
        // an exhaustive plan cannot prune — run with no index
        let indexed_plan = plan.filter(|plan| !plan.is_exhaustive()).map(Arc::new);

        let compiled = CompiledRule::compile(&self.rule, source.schema(), target.schema());
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
        let source_len = chunk_len(self.options.source_chunk_size);
        let mut chunks = 0usize;
        let mut peak_chunk_entities = 0usize;
        // best-match slots span the whole source, merged by `beats` across
        // target chunks
        let mut bests: Vec<Option<ScoredLink>> = if self.options.best_match_only {
            vec![None; source_entities.len()]
        } else {
            Vec::new()
        };

        // a source chunk is cut into one span per worker, each bound by the
        // worker that first scores it.  A source that is one chunk keeps its
        // bound spans across target chunks; a chunked one binds each chunk
        // again per target chunk, so one source chunk is held bound at a time
        let keep_bound = source_entities.len() <= source_len;
        let mut bound_spans: Vec<Option<BoundSide>> = Vec::new();
        for chunk in target_entities.chunks(chunk_len(self.options.chunk_size)) {
            chunks += 1;
            peak_chunk_entities = peak_chunk_entities.max(chunk.len());

            // bind and index each target chunk once: the build, the probes
            // and the scoring all read the chunk's transformed values from
            // these columns, for every source chunk
            let bound_chunk = compiled.bind_target(chunk.iter());
            let index = indexed_plan.as_ref().map(|plan| {
                MultiBlockIndex::build_staged(plan.clone(), &bound_chunk, chunk.len(), STAGE_FLOOR)
            });
            if let Some(index) = &index {
                for (total, stats) in comparison_stats.iter_mut().zip(index.build_stats()) {
                    total.built |= stats.built;
                    total.blocks += stats.blocks;
                    total.postings += stats.postings;
                    total.indexed_entities += stats.indexed_entities;
                }
            }

            let mut first = 0usize;
            for source_chunk in source_entities.chunks(source_len) {
                let worker_span = source_chunk.len().div_ceil(threads).max(1);
                bound_spans.resize_with(source_chunk.len().div_ceil(worker_span), || None);
                #[cfg(test)]
                let costliest_units = crate::multiblock::COSTLIEST_UNITS.get();
                let mut spans: Vec<(&[Entity], &mut Option<BoundSide>)> = source_chunk
                    .chunks(worker_span)
                    .zip(&mut bound_spans)
                    .collect();
                let per_worker =
                    parallel_ordered_map_mut(&mut spans, threads, |worker, (span, bound_span)| {
                        #[cfg(test)]
                        crate::multiblock::COSTLIEST_UNITS.set(costliest_units);
                        let bound_span =
                            bound_span.get_or_insert_with(|| compiled.bind_source(span.iter()));
                        score_span(
                            span,
                            first + worker * worker_span,
                            chunk,
                            index.as_ref(),
                            &compiled,
                            bound_span,
                            &bound_chunk,
                            &self.options,
                            leaf_count,
                        )
                    });
                if !keep_bound {
                    bound_spans.clear();
                }
                first += source_chunk.len();

                for outcome in per_worker {
                    evaluated_pairs += outcome.evaluated;
                    eval_stats.merge(&outcome.eval);
                    for (total, count) in comparison_stats.iter_mut().zip(outcome.leaf_candidates) {
                        total.candidates += count;
                    }
                    for (source_index, link) in outcome.bests {
                        let slot = &mut bests[source_index];
                        if slot.as_ref().is_none_or(|held| link.beats(held)) {
                            *slot = Some(link);
                        }
                    }
                    links.extend(outcome.links);
                }
            }
        }
        links.extend(bests.into_iter().flatten());

        links.sort_by(|a, b| {
            a.source
                .cmp(&b.source)
                .then_with(|| b.score.total_cmp(&a.score))
                .then_with(|| a.target.cmp(&b.target))
        });
        MatchingReport {
            links,
            evaluated_pairs,
            cross_product: source_entities.len() * target_entities.len(),
            source_entities: source_entities.len(),
            target_entities: target_entities.len(),
            source_chunks: source_entities.chunks(source_len).count(),
            chunks,
            peak_source_chunk_entities: source_entities.len().min(source_len),
            peak_chunk_entities,
            comparison_stats,
            eval_stats,
            kernels: KernelCounters::snapshot().since(&kernels_before),
        }
    }
}

/// The `slice::chunks` length for a chunk-size option (0 = one chunk).
fn chunk_len(chunk_size: usize) -> usize {
    if chunk_size == 0 {
        usize::MAX
    } else {
        chunk_size
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

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::DataSourceBuilder;
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
    fn empty_rule_produces_no_links() {
        let (source, target) = sources();
        for chunk_size in [0, 2] {
            let report = MatchingEngine::new(LinkageRule::empty())
                .with_options(MatchingOptions {
                    source_chunk_size: chunk_size,
                    chunk_size,
                    ..MatchingOptions::default()
                })
                .run(&source, &target);
            assert!(report.links.is_empty());
            assert_eq!(report.evaluated_pairs, 0);
            assert_eq!(report.cross_product, 9, "chunk_size={chunk_size}");
            assert_eq!(report.source_entities, 3);
            assert_eq!(report.target_entities, 3);
        }
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
                    let cap = chunk_len(chunk_size);
                    assert_eq!(chunked.chunks, target.len().div_ceil(cap));
                    assert!(chunked.peak_chunk_entities <= cap);
                }
            }
        }
    }

    /// Target chunks outside: each target chunk is indexed once whatever the
    /// source chunking, so every leaf of a disjunction (always built) indexes
    /// each target entity exactly once, and links and score bits equal the
    /// batch run at every chunking.
    #[test]
    fn each_target_chunk_is_indexed_once_per_run() {
        let (source, target) = restaurants(None);
        let name = compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            2.0,
        );
        let city = compare(
            property("city"),
            property("city"),
            DistanceFunction::Equality,
            0.5,
        );
        let rule: LinkageRule =
            linkdisc_rule::aggregation(linkdisc_rule::AggregationFunction::Max, vec![name, city])
                .into();
        let bits = |report: &MatchingReport| -> Vec<(String, String, u64)> {
            let links = report.links.iter();
            links
                .map(|l| (l.source.clone(), l.target.clone(), l.score.to_bits()))
                .collect()
        };
        for best_match_only in [false, true] {
            let options = MatchingOptions {
                best_match_only,
                threads: 2,
                ..MatchingOptions::default()
            };
            let batch = MatchingEngine::new(rule.clone())
                .with_options(options)
                .run(&source, &target);
            assert!(!batch.links.is_empty());
            for source_chunk_size in [0, 1, 7, 40, 100] {
                for chunk_size in [0, 9] {
                    let chunked = MatchingEngine::new(rule.clone())
                        .with_options(MatchingOptions {
                            source_chunk_size,
                            chunk_size,
                            ..options
                        })
                        .run(&source, &target);
                    let at =
                        format!("source_chunk_size={source_chunk_size} chunk_size={chunk_size}");
                    assert_eq!(bits(&chunked), bits(&batch), "{at}");
                    assert_eq!(chunked.chunks, target.len().div_ceil(chunk_len(chunk_size)));
                    assert_eq!(chunked.comparison_stats.len(), 2);
                    for stats in &chunked.comparison_stats {
                        assert!(stats.built, "{at}: {}", stats.label);
                        assert_eq!(
                            stats.indexed_entities,
                            target.len(),
                            "{at}: {}",
                            stats.label
                        );
                    }
                }
            }
        }
    }

    /// An empty target: no target chunk is indexed, and the source chunks
    /// are still counted.
    #[test]
    fn an_empty_target_still_counts_the_source_chunks() {
        let (source, _) = sources();
        let target = DataSourceBuilder::new("B", ["name"]).build();
        let report = MatchingEngine::new(rule())
            .with_options(MatchingOptions {
                source_chunk_size: 2,
                ..MatchingOptions::default()
            })
            .run(&source, &target);
        assert!(report.links.is_empty());
        assert_eq!((report.source_chunks, report.chunks), (2, 0));
        assert_eq!(report.peak_source_chunk_entities, 2);
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
