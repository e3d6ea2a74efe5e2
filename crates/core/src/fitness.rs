//! The fitness function of GenLink (Section 5.2 of the paper).
//!
//! The fitness of a linkage rule is its Matthews correlation coefficient on
//! the training reference links, penalised by the rule size:
//!
//! ```text
//! fitness = MCC − penalty · operatorcount
//! ```
//!
//! The MCC is preferred over the F-measure because it is robust to unbalanced
//! positive/negative link sets; the parsimony pressure prevents rules from
//! growing indefinitely (bloat).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use linkdisc_entity::{Entity, ResolvedReferenceLinks, Schema};
use linkdisc_evaluation::{evaluate_rule, ConfusionMatrix};
use linkdisc_gp::{Evaluated, PhaseAccumulator, PhaseTimers};
use linkdisc_rule::{BoundSide, ColumnMemo, CompiledRule, EvalStats, LinkageRule, LINK_THRESHOLD};
use linkdisc_similarity::KernelCounters;

/// How the size of a rule is penalised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParsimonyModel {
    /// Penalty per counted operator (paper: 0.05).
    pub penalty: f64,
    /// Whether property operators count towards the size.  The paper penalises
    /// the "number of operators"; counting the leaf property operators as well
    /// makes the penalty so strong that rules of more than a handful of
    /// comparisons can never pay for themselves, so by default only
    /// comparisons, aggregations and transformations are counted (the choice
    /// is documented in DESIGN.md and can be flipped here).
    pub count_properties: bool,
}

impl Default for ParsimonyModel {
    fn default() -> Self {
        ParsimonyModel {
            penalty: 0.05,
            count_properties: false,
        }
    }
}

impl ParsimonyModel {
    /// The operator count entering the penalty for the given rule.
    pub fn counted_operators(&self, rule: &LinkageRule) -> usize {
        let stats = rule.stats();
        let without_properties = stats.comparisons + stats.aggregations + stats.transformations;
        if self.count_properties {
            stats.operators
        } else {
            without_properties
        }
    }

    /// The penalty subtracted from the MCC.
    pub fn penalty_for(&self, rule: &LinkageRule) -> f64 {
        self.penalty * self.counted_operators(rule) as f64
    }
}

/// The reference-link pool arranged for scoring by position: the distinct
/// entities of each side (the lists every rule's two sides are bound to) and
/// the pairs as positions into them.
#[derive(Debug)]
struct ReferencePool<'a> {
    source_schema: Arc<Schema>,
    target_schema: Arc<Schema>,
    /// Distinct source entities of the pool, in first-seen order.
    sources: Vec<&'a Entity>,
    /// Distinct target entities of the pool, in first-seen order.
    targets: Vec<&'a Entity>,
    /// `(position into sources, position into targets, is a positive
    /// reference pair)` per pair.
    pairs: Vec<(u32, u32, bool)>,
    /// Bound columns shared across rules, one memo per entity list.
    source_columns: ColumnMemo,
    target_columns: ColumnMemo,
}

impl<'a> ReferencePool<'a> {
    /// `None` for an empty link set (no entity to take the schemas from).
    fn build(links: &'a ResolvedReferenceLinks<'a>) -> Option<Self> {
        let first = links.positive().first().or(links.negative().first())?;
        /// Position of `entity` in `list`, appended on first sight.
        fn position<'a>(
            entity: &'a Entity,
            list: &mut Vec<&'a Entity>,
            positions: &mut HashMap<usize, u32>,
        ) -> u32 {
            *positions
                .entry(entity as *const Entity as usize)
                .or_insert_with(|| {
                    list.push(entity);
                    (list.len() - 1) as u32
                })
        }
        let mut pool = ReferencePool {
            source_schema: first.source.schema().clone(),
            target_schema: first.target.schema().clone(),
            sources: Vec::new(),
            targets: Vec::new(),
            pairs: Vec::with_capacity(links.len()),
            source_columns: ColumnMemo::new(),
            target_columns: ColumnMemo::new(),
        };
        let mut source_positions = HashMap::new();
        let mut target_positions = HashMap::new();
        let labelled = links
            .positive()
            .iter()
            .map(|pair| (pair, true))
            .chain(links.negative().iter().map(|pair| (pair, false)));
        for (pair, positive) in labelled {
            let source = position(pair.source, &mut pool.sources, &mut source_positions);
            let target = position(pair.target, &mut pool.targets, &mut target_positions);
            pool.pairs.push((source, target, positive));
        }
        Some(pool)
    }
}

/// A rule compiled and bound to the reference pool, ready to be scored from
/// any worker.
#[derive(Debug)]
pub struct PreparedRule {
    /// `None` only when no schema is known (empty link set), where scoring
    /// falls back to the tree walk.
    bound: Option<BoundRule>,
}

#[derive(Debug)]
struct BoundRule {
    compiled: CompiledRule,
    /// The rule's two sides over the pool's `sources` / `targets`.
    source: BoundSide,
    target: BoundSide,
}

/// The GenLink fitness function: MCC with parsimony pressure, plus the
/// training F-measure used by the stop condition.
///
/// Every reference pair is scored through the bounded evaluator and nothing
/// else (DESIGN.md, "Why fitness does not index"): the rule is compiled once
/// per evaluation ([`CompiledRule::compile`] is linear in the rule size), its
/// two sides are bound to the pool's distinct entities — dense per-slot
/// columns, computed whole and shared across rules by chain hash in the
/// pool's [`ColumnMemo`]s, so a transformation chain appearing anywhere in
/// the population is computed at most once per entity per run and looked up
/// at most once per rule — and each pair is then a handful of kernel calls
/// on plain slices.
#[derive(Debug, Clone)]
pub struct FitnessFunction<'a> {
    links: &'a ResolvedReferenceLinks<'a>,
    parsimony: ParsimonyModel,
    /// `None` for an empty link set: no schema to compile against, scoring
    /// falls back to the tree walk.
    pool: Option<Arc<ReferencePool<'a>>>,
    /// Per-phase busy time: compile (rule compilation), bind (filling or
    /// looking up the slot columns), score (confusion-matrix evaluation).
    /// Thread-safe — workers add durations concurrently.
    timers: Arc<PhaseAccumulator>,
    /// Cumulative short-circuit counters of the bounded evaluator across
    /// every scored pair of the run.  Thread-safe — workers flush one
    /// batched add per confusion matrix, not one per pair.
    eval_stats: Arc<SharedEvalStats>,
    /// Process-wide kernel counters at construction time, so
    /// [`FitnessFunction::kernel_delta`] reports dispatches attributable to
    /// this run (approximately — concurrent runs in the same process bleed
    /// into each other's deltas).
    kernels_baseline: KernelCounters,
}

/// Atomic accumulation cell for [`EvalStats`], shared across scoring
/// workers.
#[derive(Debug, Default)]
struct SharedEvalStats {
    pairs: AtomicU64,
    pairs_short_circuited: AtomicU64,
    comparisons_evaluated: AtomicU64,
    comparisons_skipped: AtomicU64,
}

impl SharedEvalStats {
    fn record(&self, eval: &EvalStats) {
        self.pairs.fetch_add(eval.pairs, Ordering::Relaxed);
        self.pairs_short_circuited
            .fetch_add(eval.pairs_short_circuited, Ordering::Relaxed);
        self.comparisons_evaluated
            .fetch_add(eval.comparisons_evaluated, Ordering::Relaxed);
        self.comparisons_skipped
            .fetch_add(eval.comparisons_skipped, Ordering::Relaxed);
    }

    fn snapshot(&self) -> EvalStats {
        EvalStats {
            pairs: self.pairs.load(Ordering::Relaxed),
            pairs_short_circuited: self.pairs_short_circuited.load(Ordering::Relaxed),
            comparisons_evaluated: self.comparisons_evaluated.load(Ordering::Relaxed),
            comparisons_skipped: self.comparisons_skipped.load(Ordering::Relaxed),
        }
    }
}

impl<'a> FitnessFunction<'a> {
    /// Creates a fitness function over resolved training links.
    pub fn new(links: &'a ResolvedReferenceLinks<'a>, parsimony: ParsimonyModel) -> Self {
        FitnessFunction {
            links,
            parsimony,
            pool: ReferencePool::build(links).map(Arc::new),
            timers: Arc::new(PhaseAccumulator::new()),
            eval_stats: Arc::new(SharedEvalStats::default()),
            kernels_baseline: KernelCounters::snapshot(),
        }
    }

    /// `(columns held, requests answered from the memo, columns computed)`
    /// of the pool's two column memos, summed (exposed so the problem can
    /// report cache statistics per iteration).
    pub fn column_memo_stats(&self) -> (usize, u64, u64) {
        let Some(pool) = &self.pool else {
            return (0, 0, 0);
        };
        let (sources, targets) = (&pool.source_columns, &pool.target_columns);
        (
            sources.len() + targets.len(),
            sources.hits() + targets.hits(),
            sources.misses() + targets.misses(),
        )
    }

    /// Cumulative per-phase busy time of compilation, binding and scoring
    /// (summed across every thread that worked in the phase).
    pub fn phase_timers(&self) -> PhaseTimers {
        self.timers.snapshot()
    }

    /// Cumulative short-circuit counters of the bounded evaluator over every
    /// pair this fitness function has scored.
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_stats.snapshot()
    }

    /// Kernel dispatch counters since this fitness function was constructed.
    /// Process-wide delta: concurrent learners in the same process bleed into
    /// each other's counts, so treat the numbers as diagnostics, not an
    /// audit.
    pub fn kernel_delta(&self) -> KernelCounters {
        KernelCounters::snapshot().since(&self.kernels_baseline)
    }

    /// Compiles one rule and binds its two sides to the pool.  Pure per-rule
    /// work (the column memos are pure memos), so it runs on any thread; the
    /// returned [`PreparedRule`] is scored from any worker.
    pub fn prepare(&self, rule: &LinkageRule) -> PreparedRule {
        let Some(pool) = &self.pool else {
            return PreparedRule { bound: None };
        };
        let compile_timer = Instant::now();
        let compiled = CompiledRule::compile(rule, &pool.source_schema, &pool.target_schema);
        self.timers.add_compile(compile_timer.elapsed());
        let bind_timer = Instant::now();
        let source = compiled.bind_source(pool.sources.iter().copied(), Some(&pool.source_columns));
        let target = compiled.bind_target(pool.targets.iter().copied(), Some(&pool.target_columns));
        self.timers.add_bind(bind_timer.elapsed());
        PreparedRule {
            bound: Some(BoundRule {
                compiled,
                source,
                target,
            }),
        }
    }

    /// Prepares a whole generation's distinct rules on `threads` workers
    /// (ordered reduction; phase times sum busy seconds across workers).
    pub fn prepare_batch(&self, rules: &[&LinkageRule], threads: usize) -> Vec<PreparedRule> {
        linkdisc_util::parallel_ordered_map(rules, threads, |rule| self.prepare(rule))
    }

    /// The confusion matrix of a rule on the training links (the tree walk
    /// when the link set is empty and no schema is known).
    pub fn confusion(&self, rule: &LinkageRule) -> ConfusionMatrix {
        self.confusion_prepared(rule, &self.prepare(rule))
    }

    /// The confusion matrix of an already-prepared rule: every reference
    /// pair through the bounded evaluator at the link threshold, by
    /// position.
    fn confusion_prepared(&self, rule: &LinkageRule, prepared: &PreparedRule) -> ConfusionMatrix {
        let (Some(bound), Some(pool)) = (&prepared.bound, &self.pool) else {
            return evaluate_rule(rule, self.links);
        };
        let mut matrix = ConfusionMatrix::default();
        let mut eval = EvalStats::default();
        for &(source, target, positive) in &pool.pairs {
            let score = bound.compiled.evaluate_bound_stats(
                &bound.source,
                source as usize,
                &bound.target,
                target as usize,
                LINK_THRESHOLD,
                &mut eval,
            );
            if positive {
                matrix.record_positive(score >= LINK_THRESHOLD);
            } else {
                matrix.record_negative(score >= LINK_THRESHOLD);
            }
        }
        self.eval_stats.record(&eval);
        matrix
    }

    /// Evaluates a prepared rule (parallel-safe; see
    /// [`FitnessFunction::prepare`]): `fitness = MCC − penalty`,
    /// `f_measure` = training F1.
    ///
    /// The empty rule is assigned a fitness below every reachable value so it
    /// never survives selection.
    pub fn evaluate_prepared(&self, rule: &LinkageRule, prepared: &PreparedRule) -> Evaluated {
        if rule.is_empty() {
            return Evaluated {
                fitness: -2.0,
                f_measure: 0.0,
            };
        }
        let score_timer = Instant::now();
        let matrix = self.confusion_prepared(rule, prepared);
        self.timers.add_score(score_timer.elapsed());
        Evaluated {
            fitness: matrix.mcc() - self.parsimony.penalty_for(rule),
            f_measure: matrix.f_measure(),
        }
    }

    /// The confusion matrix via the tree-walking reference oracle (kept for
    /// parity checks and debugging).
    pub fn confusion_tree_walk(&self, rule: &LinkageRule) -> ConfusionMatrix {
        evaluate_rule(rule, self.links)
    }

    /// Prepares and evaluates one rule — the path the steady-state evaluator
    /// workers take per genome.
    pub fn evaluate(&self, rule: &LinkageRule) -> Evaluated {
        self.evaluate_prepared(rule, &self.prepare(rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::{DataSource, DataSourceBuilder, Link, ReferenceLinks};
    use linkdisc_rule::{
        aggregation, compare, property, transform, AggregationFunction, DistanceFunction,
        RuleBuilder, TransformFunction,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sources() -> (DataSource, DataSource, ReferenceLinks) {
        let mut a = DataSourceBuilder::new("A", ["label"]);
        let mut b = DataSourceBuilder::new("B", ["label"]);
        let mut positives = Vec::new();
        for i in 0..12 {
            let name = format!("entity number {i}");
            a = a
                .entity(format!("a{i}"), [("label", name.as_str())])
                .unwrap();
            b = b
                .entity(format!("b{i}"), [("label", name.to_uppercase().as_str())])
                .unwrap();
            positives.push(Link::new(format!("a{i}"), format!("b{i}")));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let links = ReferenceLinks::with_generated_negatives(positives, &mut rng);
        (a.build(), b.build(), links)
    }

    #[test]
    fn good_rules_score_higher_than_bad_rules() {
        let (a, b, links) = sources();
        let resolved = linkdisc_entity::ResolvedReferenceLinks::resolve(&links, &a, &b);
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());

        let good: linkdisc_rule::LinkageRule = compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            transform(TransformFunction::LowerCase, vec![property("label")]),
            DistanceFunction::Levenshtein,
            0.5,
        )
        .into();
        let bad = RuleBuilder::new()
            .compare_property("label", DistanceFunction::Equality, 0.5)
            .build();
        let good_eval = fitness.evaluate(&good);
        let bad_eval = fitness.evaluate(&bad);
        assert!(good_eval.fitness > bad_eval.fitness);
        assert_eq!(good_eval.f_measure, 1.0);
        assert!(bad_eval.f_measure < 0.1);
    }

    #[test]
    fn parsimony_penalises_larger_rules_with_equal_accuracy() {
        let (a, b, links) = sources();
        let resolved = linkdisc_entity::ResolvedReferenceLinks::resolve(&links, &a, &b);
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
        let small: linkdisc_rule::LinkageRule = compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            transform(TransformFunction::LowerCase, vec![property("label")]),
            DistanceFunction::Levenshtein,
            0.5,
        )
        .into();
        let large: linkdisc_rule::LinkageRule = aggregation(
            AggregationFunction::Min,
            vec![small.root().unwrap().clone(), small.root().unwrap().clone()],
        )
        .into();
        let small_eval = fitness.evaluate(&small);
        let large_eval = fitness.evaluate(&large);
        assert_eq!(small_eval.f_measure, large_eval.f_measure);
        assert!(small_eval.fitness > large_eval.fitness);
    }

    #[test]
    fn empty_rule_has_the_lowest_fitness() {
        let (a, b, links) = sources();
        let resolved = linkdisc_entity::ResolvedReferenceLinks::resolve(&links, &a, &b);
        let fitness = FitnessFunction::new(&resolved, ParsimonyModel::default());
        let empty_eval = fitness.evaluate(&linkdisc_rule::LinkageRule::empty());
        assert_eq!(empty_eval.fitness, -2.0);
        let bad = RuleBuilder::new()
            .compare_property("label", DistanceFunction::Equality, 0.5)
            .build();
        assert!(fitness.evaluate(&bad).fitness > empty_eval.fitness);
    }

    #[test]
    fn parsimony_counting_modes() {
        let rule: linkdisc_rule::LinkageRule = compare(
            transform(TransformFunction::LowerCase, vec![property("label")]),
            property("label"),
            DistanceFunction::Levenshtein,
            1.0,
        )
        .into();
        let without = ParsimonyModel::default();
        let with = ParsimonyModel {
            count_properties: true,
            ..ParsimonyModel::default()
        };
        assert_eq!(without.counted_operators(&rule), 2);
        assert_eq!(with.counted_operators(&rule), 4);
        assert!((without.penalty_for(&rule) - 0.10).abs() < 1e-12);
        assert!((with.penalty_for(&rule) - 0.20).abs() < 1e-12);
    }
}
