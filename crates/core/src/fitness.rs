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
use std::sync::{Arc, Mutex};
use std::time::Instant;

use linkdisc_entity::{Entity, ResolvedReferenceLinks, Schema};
use linkdisc_evaluation::{evaluate_rule, ConfusionMatrix};
use linkdisc_gp::{Evaluated, PhaseAccumulator, PhaseTimers};
use linkdisc_rule::{
    ColumnMemo, CompiledRule, DistanceColumn, DistanceKey, EvalStats, LinkageRule, LINK_THRESHOLD,
};
use linkdisc_similarity::KernelCounters;
use linkdisc_util::parallel_ordered_map;

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

/// Cells a [`DistanceMemo`] may hold before it is dropped wholesale (16 MiB
/// of distances).
const DISTANCE_MEMO_CELLS: usize = 1 << 21;

/// Distance columns over **one fixed pair list**, shared by [`DistanceKey`]
/// across the rules scored on it.
///
/// GenLink's crossover operators are specialised — an offspring differs from
/// a parent in one aspect — so almost every comparison of an offspring was
/// already measured on every reference pair under its parents; only
/// thresholds, weights and the aggregation tree around it changed.  Like
/// [`ColumnMemo`] it is a pure memo — a column is a function of (pair list,
/// key) — and bounded: past its cell cap it is dropped wholesale and refills
/// (rules already prepared keep their columns).
#[derive(Debug)]
struct DistanceMemo {
    columns: Mutex<HashMap<DistanceKey, DistanceColumn>>,
    cell_cap: usize,
    /// Column requests answered without measuring.
    hits: AtomicU64,
    /// Columns measured.
    misses: AtomicU64,
}

impl DistanceMemo {
    fn new(cell_cap: usize) -> Self {
        DistanceMemo {
            columns: Mutex::new(HashMap::new()),
            cell_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The memoized column of `key`, counted as a hit when there is one (a
    /// caller that goes on to measure the column counts the miss itself).
    fn get(&self, key: &DistanceKey) -> Option<DistanceColumn> {
        let column = self
            .columns
            .lock()
            .expect("distance memo poisoned")
            .get(key)
            .cloned();
        if column.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        column
    }

    /// Memoizes a freshly measured column; returns the memo's column for the
    /// key (an equal one, had a concurrent miss got there first).
    fn insert(&self, key: DistanceKey, column: DistanceColumn) -> DistanceColumn {
        let mut columns = self.columns.lock().expect("distance memo poisoned");
        if (columns.len() + 1) * column.len() > self.cell_cap {
            columns.clear();
        }
        columns.entry(key).or_insert(column).clone()
    }
}

/// The reference-link pool arranged for scoring by position: the distinct
/// entities of each side (the lists every value column is bound to), the
/// pairs as positions into them (the list every distance column is measured
/// over), and the memos of both.
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
    /// Distance columns over `pairs`, shared across rules.
    distances: DistanceMemo,
}

impl<'a> ReferencePool<'a> {
    /// `None` for an empty link set (no entity to take the schemas from).
    fn build(links: &'a ResolvedReferenceLinks<'a>, distance_cells: usize) -> Option<Self> {
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
            distances: DistanceMemo::new(distance_cells),
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

    /// Measures comparison number `comparison` of `compiled` on every pair:
    /// binds the two value columns it reads (through the pool's memos) and
    /// runs its kernel once per pair.
    fn measure(&self, compiled: &CompiledRule, comparison: usize) -> DistanceColumn {
        compiled.distance_column(
            comparison,
            self.sources.iter().copied(),
            Some(&self.source_columns),
            self.targets.iter().copied(),
            Some(&self.target_columns),
            self.pairs
                .iter()
                .map(|&(source, target, _)| (source as usize, target as usize)),
        )
    }
}

/// A rule compiled and measured on the reference pool, ready to be scored
/// from any worker.
#[derive(Debug)]
pub struct PreparedRule {
    /// `None` only when no schema is known (empty link set), where scoring
    /// falls back to the tree walk.
    measured: Option<MeasuredRule>,
}

#[derive(Debug)]
struct MeasuredRule {
    compiled: CompiledRule,
    /// Per comparison of `compiled`, its distances over the pool's pairs.
    columns: Vec<DistanceColumn>,
}

/// The GenLink fitness function: MCC with parsimony pressure, plus the
/// training F-measure used by the stop condition.
///
/// Every reference pair is scored through the bounded evaluator and nothing
/// else (DESIGN.md, "Why fitness does not index"), and **each distinct
/// comparison is measured once per run**: the rule is compiled once per
/// evaluation ([`CompiledRule::compile`] is linear in the rule size), each of
/// its comparisons looks its distance column over the pool's pairs up in the
/// pool's [`DistanceMemo`] by `(source chain, target chain, measure, band)`,
/// and only a column seen for the first time is measured — its two value
/// columns bound to the pool's distinct entities through the pool's
/// [`ColumnMemo`]s, then one kernel call per pair.  Scoring a pair is then
/// the bounded walk with one division per comparison visited.
#[derive(Debug, Clone)]
pub struct FitnessFunction<'a> {
    links: &'a ResolvedReferenceLinks<'a>,
    parsimony: ParsimonyModel,
    /// `None` for an empty link set: no schema to compile against, scoring
    /// falls back to the tree walk.
    pool: Option<Arc<ReferencePool<'a>>>,
    /// Per-phase busy time: compile (rule compilation), bind (everything a
    /// rule needs before it can be scored: value columns for missing
    /// distance columns, and those columns), score (confusion-matrix
    /// evaluation).  Thread-safe — workers add durations concurrently.
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
        Self::with_distance_memo_cells(links, parsimony, DISTANCE_MEMO_CELLS)
    }

    /// [`FitnessFunction::new`] with the distance memo's wholesale-drop bound
    /// set by the caller — for tests that force the drop on a small pool.
    #[doc(hidden)]
    pub fn with_distance_memo_cells(
        links: &'a ResolvedReferenceLinks<'a>,
        parsimony: ParsimonyModel,
        cells: usize,
    ) -> Self {
        FitnessFunction {
            links,
            parsimony,
            pool: ReferencePool::build(links, cells).map(Arc::new),
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

    /// `(distance columns requested and answered from the memo, distance
    /// columns measured)` so far.  On the generational path
    /// ([`FitnessFunction::prepare_batch`]) both are resolved on one thread
    /// and repeat exactly at any thread count.
    pub fn distance_memo_stats(&self) -> (u64, u64) {
        let Some(pool) = &self.pool else {
            return (0, 0);
        };
        (
            pool.distances.hits.load(Ordering::Relaxed),
            pool.distances.misses.load(Ordering::Relaxed),
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

    /// Compiles one rule against the pool's schemas (timed as *compile*).
    fn compile(&self, pool: &ReferencePool<'a>, rule: &LinkageRule) -> CompiledRule {
        let timer = Instant::now();
        let compiled = CompiledRule::compile(rule, &pool.source_schema, &pool.target_schema);
        self.timers.add_compile(timer.elapsed());
        compiled
    }

    /// Compiles one rule and fetches the distance column of each of its
    /// comparisons, measuring the ones the pool has not seen.  Pure per-rule
    /// work (the memos are pure: concurrent misses on one key measure twice,
    /// never differently), so it runs on any thread; the returned
    /// [`PreparedRule`] is scored from any worker.
    pub fn prepare(&self, rule: &LinkageRule) -> PreparedRule {
        let Some(pool) = &self.pool else {
            return PreparedRule { measured: None };
        };
        let compiled = self.compile(pool, rule);
        let bind_timer = Instant::now();
        let columns = compiled
            .distance_keys()
            .enumerate()
            .map(|(comparison, key)| {
                pool.distances.get(&key).unwrap_or_else(|| {
                    pool.distances.misses.fetch_add(1, Ordering::Relaxed);
                    pool.distances
                        .insert(key, pool.measure(&compiled, comparison))
                })
            })
            .collect();
        self.timers.add_bind(bind_timer.elapsed());
        PreparedRule {
            measured: Some(MeasuredRule { compiled, columns }),
        }
    }

    /// Prepares a whole generation's distinct rules:
    ///
    /// 1. **parallel** — the rules are compiled on `threads` workers;
    /// 2. **sequential** — every comparison's key is resolved against the
    ///    distance memo and the generation's missing keys are deduplicated,
    ///    so hit and miss counts do not depend on the thread count;
    /// 3. **parallel** — each distinct missing column is measured once, one
    ///    column per work item (ordered reduction), and memoized in order.
    ///
    /// Phase times sum busy seconds across workers.
    pub fn prepare_batch(&self, rules: &[&LinkageRule], threads: usize) -> Vec<PreparedRule> {
        let Some(pool) = &self.pool else {
            return rules.iter().map(|rule| self.prepare(rule)).collect();
        };
        let compiled = parallel_ordered_map(rules, threads, |rule| self.compile(pool, rule));
        /// Where a comparison's column comes from.
        enum Column {
            Known(DistanceColumn),
            /// Index into `missing`.
            Measured(usize),
        }
        let resolve_timer = Instant::now();
        // (a rule with the comparison, its number there, the key)
        let mut missing: Vec<(usize, usize, DistanceKey)> = Vec::new();
        let mut missing_by_key: HashMap<DistanceKey, usize> = HashMap::new();
        let resolved: Vec<Vec<Column>> = compiled
            .iter()
            .enumerate()
            .map(|(rule, compiled)| {
                compiled
                    .distance_keys()
                    .enumerate()
                    .map(|(comparison, key)| {
                        if let Some(column) = pool.distances.get(&key) {
                            return Column::Known(column);
                        }
                        Column::Measured(match missing_by_key.get(&key) {
                            // a column an earlier rule of the batch will
                            // measure is a hit, as when preparing one by one
                            Some(&at) => {
                                pool.distances.hits.fetch_add(1, Ordering::Relaxed);
                                at
                            }
                            None => {
                                pool.distances.misses.fetch_add(1, Ordering::Relaxed);
                                missing_by_key.insert(key, missing.len());
                                missing.push((rule, comparison, key));
                                missing.len() - 1
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        self.timers.add_bind(resolve_timer.elapsed());
        let measured = parallel_ordered_map(&missing, threads, |&(rule, comparison, _)| {
            let timer = Instant::now();
            let column = pool.measure(&compiled[rule], comparison);
            self.timers.add_bind(timer.elapsed());
            column
        });
        let measured: Vec<DistanceColumn> = missing
            .iter()
            .zip(measured)
            .map(|(&(_, _, key), column)| pool.distances.insert(key, column))
            .collect();
        compiled
            .into_iter()
            .zip(resolved)
            .map(|(compiled, columns)| {
                let columns = columns
                    .into_iter()
                    .map(|column| match column {
                        Column::Known(column) => column,
                        Column::Measured(at) => measured[at].clone(),
                    })
                    .collect();
                PreparedRule {
                    measured: Some(MeasuredRule { compiled, columns }),
                }
            })
            .collect()
    }

    /// The confusion matrix of a rule on the training links (the tree walk
    /// when the link set is empty and no schema is known).
    pub fn confusion(&self, rule: &LinkageRule) -> ConfusionMatrix {
        self.confusion_prepared(rule, &self.prepare(rule))
    }

    /// The confusion matrix of an already-prepared rule: every reference
    /// pair through the bounded evaluator at the link threshold, from the
    /// rule's distance columns.
    fn confusion_prepared(&self, rule: &LinkageRule, prepared: &PreparedRule) -> ConfusionMatrix {
        let (Some(measured), Some(pool)) = (&prepared.measured, &self.pool) else {
            return evaluate_rule(rule, self.links);
        };
        let mut matrix = ConfusionMatrix::default();
        let mut eval = EvalStats::default();
        for (pair, &(_, _, positive)) in pool.pairs.iter().enumerate() {
            let score = measured.compiled.evaluate_columns_stats(
                &measured.columns,
                pair,
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
