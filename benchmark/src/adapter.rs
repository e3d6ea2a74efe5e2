//! The one file that names library items.
//!
//! Every call the benchmark makes into the workspace — generate, learn,
//! match, build / query / mutate / recover a service, and the per-layer
//! microcalls of the traced run — goes through a function or a wrapper type
//! here, so a change to a library interface needs a follow-up in this file
//! only.  Outside this file the benchmark sees the data model (`Dataset`,
//! `DataSource`, `Entity`, `ReferenceLinks`, `LinkageRule`) and the types
//! defined below.  Nothing here measures: timing, statistics and checks
//! belong to the workloads.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use genlink::problem::GenLinkProblem;
use genlink::random::RandomRuleGenerator;
use genlink::seeding::SeedingConfig;
use genlink::{
    find_compatible_properties, CompatiblePair, CrossoverOperator, FitnessFunction, GenLink,
    GenLinkConfig, ParsimonyModel, PreparedRule,
};
use linkdisc_entity::{EntityStore, Link, ResolvedReferenceLinks, Schema};
use linkdisc_evaluation::{evaluate_compiled, evaluate_rule_on_links};
use linkdisc_gp::evolution::breed_offspring;
use linkdisc_gp::{Evaluated, Individual};
use linkdisc_matching::{
    DurabilityOptions, DurableService, LinkService, MatchingEngine, MatchingOptions,
    MultiBlockIndex, ServiceOptions, ServiceReader, ServiceWriter, ShardedService,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, CompiledRule, DistanceFunction,
    IndexingPlan, SimilarityOperator, TransformFunction, ValueOperator, LINK_THRESHOLD,
};
use linkdisc_util::{channel, EpochCell};

pub use linkdisc_datasets::{Dataset, DatasetKind};
pub use linkdisc_entity::{DataSource, Entity, ReferenceLinks};
pub use linkdisc_matching::CandidateScratch;
pub use linkdisc_rule::{LinkageRule, ValueCache};

// ---------------------------------------------------------------- data --

/// Generates one synthetic dataset; the seed fixes every value in it.
pub fn generate(kind: DatasetKind, scale: f64, seed: u64) -> Dataset {
    kind.generate(scale, seed)
}

/// Splits reference links into a training fold and a held-out fold of equal
/// size (the paper's 2-fold protocol, one direction of it).
pub fn two_folds(links: &ReferenceLinks, seed: u64) -> (ReferenceLinks, ReferenceLinks) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut folds = links.split_folds(2, &mut rng);
    let held_out = folds.pop().expect("two folds");
    let training = folds.pop().expect("two folds");
    (training, held_out)
}

/// A new data source holding the entities of `source` whose position
/// satisfies `keep`, in order.
pub fn subset(source: &DataSource, name: &str, keep: impl Fn(usize) -> bool) -> DataSource {
    let mut out = DataSource::new(name, Schema::clone(source.schema()));
    for (position, entity) in source.entities().iter().enumerate() {
        if keep(position) {
            out.add_entity(entity.clone())
                .expect("ids are unique in the source the subset is taken from");
        }
    }
    out
}

/// One generated link: source id, target id, score.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundLink {
    pub source: String,
    pub target: String,
    pub score: f64,
}

fn found(links: Vec<linkdisc_matching::ScoredLink>) -> Vec<FoundLink> {
    links
        .into_iter()
        .map(|link| FoundLink {
            source: link.source,
            target: link.target,
            score: link.score,
        })
        .collect()
}

/// F-measure of a link set on reference links: positives found count as
/// true positives, positives missed as false negatives, negative reference
/// links found as false positives (the paper's protocol; pairs outside the
/// reference links are not judged).
pub fn links_f1<'a>(
    found: impl IntoIterator<Item = &'a FoundLink>,
    reference: &ReferenceLinks,
) -> f64 {
    let found: HashSet<(&str, &str)> = found
        .into_iter()
        .map(|link| (link.source.as_str(), link.target.as_str()))
        .collect();
    let hit = |link: &&Link| found.contains(&(link.source.as_str(), link.target.as_str()));
    let true_positives = reference.positive().iter().filter(hit).count();
    let false_positives = reference.negative().iter().filter(hit).count();
    crate::stats::f_measure(
        true_positives,
        false_positives,
        reference.positive().len() - true_positives,
    )
}

/// The reference links whose target entity satisfies `served` — what a
/// service holding only part of the target can be judged on.
pub fn links_within(reference: &ReferenceLinks, served: impl Fn(&str) -> bool) -> ReferenceLinks {
    let keep = |links: &[Link]| {
        links
            .iter()
            .filter(|link| served(&link.target))
            .cloned()
            .collect()
    };
    ReferenceLinks::new(keep(reference.positive()), keep(reference.negative()))
}

// --------------------------------------------------------------- rules --

fn fuzzy(
    name: &str,
    normalise: TransformFunction,
    measure: DistanceFunction,
    threshold: f64,
) -> SimilarityOperator {
    let side = || transform(normalise, vec![property(name)]);
    compare(side(), side(), measure, threshold)
}

fn lower_case_tokens(name: &str) -> ValueOperator {
    transform(
        TransformFunction::Tokenize,
        vec![transform(
            TransformFunction::LowerCase,
            vec![property(name)],
        )],
    )
}

fn cora_title() -> SimilarityOperator {
    fuzzy(
        "title",
        TransformFunction::LowerCase,
        DistanceFunction::Levenshtein,
        3.0,
    )
}

/// Cora: `lev(lowerCase title) θ3` — one fuzzy comparison, no exact token
/// to block on.
pub fn cora_title_rule() -> LinkageRule {
    cora_title().into()
}

/// Cora: `max(lev(lowerCase title) θ3, min(jaccard(tokens author) θ0.4,
/// lev(lowerCase venue) θ2))` — the union keeps a fifth of the cross
/// product as candidates, so evaluation dominates.
pub fn cora_dense_rule() -> LinkageRule {
    aggregation(
        AggregationFunction::Max,
        vec![
            cora_title(),
            aggregation(
                AggregationFunction::Min,
                vec![
                    compare(
                        lower_case_tokens("author"),
                        lower_case_tokens("author"),
                        DistanceFunction::Jaccard,
                        0.4,
                    ),
                    fuzzy(
                        "venue",
                        TransformFunction::LowerCase,
                        DistanceFunction::Levenshtein,
                        2.0,
                    ),
                ],
            ),
        ],
    )
    .into()
}

fn restaurant_name() -> SimilarityOperator {
    fuzzy(
        "name",
        TransformFunction::LowerCase,
        DistanceFunction::Levenshtein,
        2.0,
    )
}

fn restaurant_phone() -> SimilarityOperator {
    fuzzy(
        "phone",
        TransformFunction::DigitsOnly,
        DistanceFunction::Levenshtein,
        1.0,
    )
}

fn name_and_phone() -> SimilarityOperator {
    aggregation(
        AggregationFunction::Min,
        vec![restaurant_name(), restaurant_phone()],
    )
}

/// Restaurant: `min(lev(lowerCase name) θ2, lev(digitsOnly phone) θ1)` —
/// the intersection leaves about one candidate per entity.
pub fn restaurant_rule() -> LinkageRule {
    name_and_phone().into()
}

/// Restaurant: the phone comparison alone.
pub fn restaurant_phone_rule() -> LinkageRule {
    restaurant_phone().into()
}

/// Restaurant: `max(min(name, phone), min(phone, equality(lowerCase
/// city)))` — same phone and either a similar name or the same city.  Every
/// branch is anchored on the selective phone leaf, so all three serving
/// rules answer in microseconds (a name-only rule takes milliseconds per
/// query here: its blocks hold thousands of look-alike names).
pub fn restaurant_fallback_rule() -> LinkageRule {
    aggregation(
        AggregationFunction::Max,
        vec![
            name_and_phone(),
            aggregation(
                AggregationFunction::Min,
                vec![
                    restaurant_phone(),
                    fuzzy(
                        "city",
                        TransformFunction::LowerCase,
                        DistanceFunction::Equality,
                        0.5,
                    ),
                ],
            ),
        ],
    )
    .into()
}

/// Canonical hash of a rule (equal rules hash equally across runs).
pub fn rule_hash(rule: &LinkageRule) -> u64 {
    rule.canonical_hash()
}

// --------------------------------------------------------------- learn --

/// Which evolution schedule a learning job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The paper's generational loop.
    Generational,
    /// The steady-state pipeline with its default knobs.
    SteadyState,
}

/// The size of one learning job.  Early stopping is off, so a job always
/// spends `population × generations` evaluations: its length is set by the
/// work, not by how soon a seed happens to reach F1 = 1.
#[derive(Debug, Clone, Copy)]
pub struct LearnJob {
    pub schedule: Schedule,
    pub population: usize,
    pub generations: usize,
    pub threads: usize,
}

impl LearnJob {
    fn config(&self) -> GenLinkConfig {
        let mut config = GenLinkConfig::paper();
        config.gp.population_size = self.population;
        config.gp.max_iterations = self.generations;
        config.gp.stop_f_measure = 2.0;
        config.gp.threads = self.threads;
        match self.schedule {
            Schedule::Generational => config,
            Schedule::SteadyState => config.steady_state(),
        }
    }
}

/// What one learning job produced.
pub struct Learned {
    pub rule: LinkageRule,
    /// F-measure of the rule on the links it was trained on.
    pub training_f1: f64,
    /// Share of fitness evaluations answered by the fitness cache.
    pub fitness_cache_hit_ratio: f64,
    /// Share of leaf-index requests answered by the shared-leaf cache.
    pub leaf_reuse_hit_ratio: f64,
    /// Steady-state schedule only, as the pipeline reports them: fraction
    /// of evaluator capacity spent evaluating, seconds evaluators waited
    /// for work (summed over evaluators), evaluations per second.
    pub pipeline: Option<(f64, f64, f64)>,
}

/// Learns one rule from the training links.  `observer` is called with the
/// iteration number once the initial population is scored (iteration 0) and
/// after every generation (or steady-state window).
pub fn learn(
    job: &LearnJob,
    data: &Dataset,
    training: &ReferenceLinks,
    seed: u64,
    mut observer: impl FnMut(usize),
) -> Learned {
    let outcome = GenLink::new(job.config()).learn_with_observer(
        &data.source,
        &data.target,
        training,
        seed,
        |stats| observer(stats.iteration),
    );
    let cache = outcome
        .history
        .last()
        .and_then(|stats| stats.cache)
        .unwrap_or_default();
    Learned {
        training_f1: outcome.training.f_measure(),
        rule: outcome.rule,
        fitness_cache_hit_ratio: cache.fitness_hit_rate(),
        leaf_reuse_hit_ratio: cache.leaf_reuse_hit_rate(),
        pipeline: outcome.pipeline.map(|report| {
            (
                report.utilization(),
                report.idle_s,
                report.evaluations_per_second(),
            )
        }),
    }
}

/// F-measure of a rule on reference links it was not trained on.
pub fn rule_f1(rule: &LinkageRule, links: &ReferenceLinks, data: &Dataset) -> f64 {
    evaluate_rule_on_links(rule, links, &data.source, &data.target).f_measure()
}

// --------------------------------------------------------------- match --

/// How one matching job covers the two sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// MultiBlock candidates, both sources resident.
    Blocked,
    /// MultiBlock candidates, both sides cut into `n` chunks (block-nested
    /// loop: the target index is rebuilt once per source chunk).
    Chunked(usize),
    /// Every pair of the cross product — the reference the others are
    /// checked against.
    Exhaustive,
}

/// What one matching job produced.
pub struct Matched {
    pub links: Vec<FoundLink>,
    pub evaluated_pairs: usize,
    pub cross_product: usize,
    /// Share of comparison operators the bounded evaluator skipped.
    pub skip_ratio: f64,
    /// Index builds the job performed (source chunks × target chunks).
    pub index_builds: usize,
    /// Share of string/token kernel calls answered by a fast path.
    pub kernel_fast_path_ratio: f64,
}

/// Runs the matching engine over two sources.
pub fn run_match(
    rule: &LinkageRule,
    coverage: Coverage,
    threads: usize,
    source: &DataSource,
    target: &DataSource,
) -> Matched {
    let mut options = MatchingOptions {
        threads,
        ..MatchingOptions::default()
    };
    match coverage {
        Coverage::Blocked => {}
        Coverage::Chunked(chunks) => {
            options.chunk_size = target.len().div_ceil(chunks).max(1);
            options.source_chunk_size = source.len().div_ceil(chunks).max(1);
        }
        Coverage::Exhaustive => options.use_blocking = false,
    }
    let report = MatchingEngine::new(rule.clone())
        .with_options(options)
        .run(source, target);
    let kernels = report.kernels;
    let kernel_calls = kernels.fast_path_hits()
        + kernels.levenshtein_fallback
        + kernels.jaro_fallback
        + kernels.token_fallback;
    Matched {
        skip_ratio: report.skip_rate(),
        evaluated_pairs: report.evaluated_pairs,
        cross_product: report.cross_product,
        index_builds: report.chunks,
        kernel_fast_path_ratio: kernels.fast_path_hits() as f64 / kernel_calls.max(1) as f64,
        links: found(report.links),
    }
}

// --------------------------------------------------------------- serve --

fn service_options(threads: usize) -> ServiceOptions {
    ServiceOptions {
        threads,
        ..ServiceOptions::default()
    }
}

/// One target matched by a committee of rules.
pub struct CommitteeAnswer {
    pub target: String,
    pub votes: usize,
    pub mean_score: f64,
}

/// A client's handle on a service: clones share the epoch chain, each
/// client thread owns one.
#[derive(Clone)]
pub struct Reader(ServiceReader);

impl Reader {
    /// All targets matching `probe` under the default rule, best first.
    pub fn query(&self, probe: &Entity) -> Vec<FoundLink> {
        found(self.0.query(probe))
    }

    /// The allocation-free path of [`Reader::query`]: matches are left in
    /// `hits` as `(slot, score)`; returns how many there are.
    #[inline]
    pub fn query_fast(
        &self,
        probe: &Entity,
        scratch: &mut CandidateScratch,
        hits: &mut Vec<(u32, f64)>,
    ) -> usize {
        self.0.query_with(probe, scratch, hits);
        hits.len()
    }

    /// All targets matching `probe` under the rule registered as `name`.
    pub fn query_rule(&self, name: &str, probe: &Entity) -> Option<Vec<FoundLink>> {
        self.0.query_rule(name, probe).map(found)
    }

    /// `probe` fanned across every registered rule and merged per target.
    pub fn query_committee(&self, probe: &Entity) -> Vec<CommitteeAnswer> {
        self.0
            .query_committee(probe)
            .into_iter()
            .map(|link| CommitteeAnswer {
                target: link.target,
                votes: link.votes,
                mean_score: link.mean_score,
            })
            .collect()
    }
}

/// An in-memory service: one store, a registry of rules, no durability.
pub struct Service(LinkService);

impl Service {
    /// Builds the index over `target`, serving `rule` as the default rule
    /// plus every `(name, rule)` of `more`.
    pub fn build(
        rule: LinkageRule,
        more: &[(&str, LinkageRule)],
        source_schema: &Arc<Schema>,
        target: &DataSource,
        threads: usize,
    ) -> Service {
        let mut service = LinkService::build(rule, source_schema, target, service_options(threads))
            .expect("generated target ids are unique");
        for (name, rule) in more {
            service
                .register_rule(name, rule.clone())
                .expect("rule names are distinct");
        }
        Service(service)
    }

    pub fn reader(&self) -> Reader {
        Reader(self.0.writer().reader())
    }

    /// Registers a rule on the warm store (only missing leaves are built).
    pub fn register_rule(&mut self, name: &str, rule: LinkageRule) -> bool {
        self.0.register_rule(name, rule).is_ok()
    }

    /// Hot-swaps a registered rule.
    pub fn replace_rule(&mut self, name: &str, rule: LinkageRule) -> bool {
        self.0.replace_rule(name, rule).is_ok()
    }

    /// Writes a snapshot of the served state.
    pub fn save(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.0
            .save_snapshot(&mut bytes)
            .expect("writing to memory cannot fail");
        bytes
    }

    /// Restores a single-rule service from a snapshot.
    pub fn restore(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        snapshot: &[u8],
    ) -> Result<Service, String> {
        LinkService::restore(rule, source_schema, snapshot)
            .map(Service)
            .map_err(|err| err.to_string())
    }
}

/// The same store partitioned over `shards` independent shards.
pub struct Sharded(ShardedService);

impl Sharded {
    /// An empty sharded service, populated through [`Sharded::ingest`].
    pub fn empty(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target_schema: &Arc<Schema>,
        shards: usize,
        threads: usize,
    ) -> Sharded {
        Sharded(ShardedService::empty(
            rule,
            source_schema,
            target_schema,
            shards,
            service_options(threads),
        ))
    }

    pub fn ingest(&mut self, entities: &[Entity]) -> usize {
        self.0.ingest(entities).expect("generated ids are unique")
    }

    /// How many targets match `probe` under the default rule.
    pub fn query(&self, probe: &Entity) -> usize {
        self.0.query(probe).len()
    }
}

/// A service writer without durability, for the write-path breakdown.
pub struct Writer(ServiceWriter);

impl Writer {
    pub fn build(
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target: &DataSource,
        threads: usize,
    ) -> Writer {
        Writer(
            ServiceWriter::build(rule, source_schema, target, service_options(threads))
                .expect("generated target ids are unique"),
        )
    }

    pub fn insert(&mut self, entity: &Entity) -> bool {
        self.0.insert(entity).is_ok()
    }

    pub fn remove(&mut self, id: &str) -> bool {
        self.0.remove(id)
    }

    /// Inserts a batch under one publication; returns how many went in.
    pub fn ingest(&mut self, entities: &[Entity]) -> usize {
        self.0.ingest(entities).unwrap_or(0)
    }
}

/// A durable single-rule service in a directory of its own.
pub struct Durable(DurableService);

/// What a recovery found on disk.
pub struct Recovered {
    pub checkpoint_generation: u64,
    pub replayed_epochs: u64,
    /// Bytes of a torn (never acknowledged) log tail that were tolerated.
    pub torn_tail_bytes: u64,
}

impl Durable {
    /// Builds the index over `target`, writes checkpoint generation 0 and
    /// opens the log, in `dir` (which must hold no durable state yet).
    pub fn create(
        dir: &Path,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
        target: &DataSource,
        threads: usize,
    ) -> Result<Durable, String> {
        DurableService::create(
            dir,
            rule,
            source_schema,
            target,
            service_options(threads),
            DurabilityOptions::default(),
        )
        .map(Durable)
        .map_err(|err| err.to_string())
    }

    /// Restores the newest checkpoint in `dir` and replays its log tail.
    pub fn recover(
        dir: &Path,
        rule: LinkageRule,
        source_schema: &Arc<Schema>,
    ) -> Result<(Durable, Recovered), String> {
        DurableService::recover(dir, rule, source_schema, DurabilityOptions::default())
            .map(|(service, report)| {
                (
                    Durable(service),
                    Recovered {
                        checkpoint_generation: report.checkpoint_generation,
                        replayed_epochs: report.replayed_epochs,
                        torn_tail_bytes: report.torn_tail_bytes,
                    },
                )
            })
            .map_err(|err| err.to_string())
    }

    /// Acknowledged only once logged and fsynced.
    pub fn insert(&mut self, entity: &Entity) -> Result<(), String> {
        self.0
            .insert(entity)
            .map(|_| ())
            .map_err(|err| err.to_string())
    }

    /// Acknowledged only once logged and fsynced; `Ok(false)` when the id is
    /// not served.
    pub fn remove(&mut self, id: &str) -> Result<bool, String> {
        self.0.remove(id).map_err(|err| err.to_string())
    }

    /// One atomic epoch: one log record, one fsync.
    pub fn ingest(&mut self, entities: &[Entity]) -> Result<usize, String> {
        self.0.ingest(entities).map_err(|err| err.to_string())
    }

    /// Rolls the log into a fresh checkpoint generation.
    pub fn compact(&mut self) -> Result<(), String> {
        self.0.compact().map_err(|err| err.to_string())
    }

    pub fn reader(&self) -> Reader {
        Reader(self.0.reader())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn contains(&self, id: &str) -> bool {
        self.0.writer().contains(id)
    }

    /// Mutations acknowledged so far.
    pub fn acknowledged(&self) -> u64 {
        self.0.seq()
    }

    /// Size of the current log file in bytes, header included.
    pub fn log_bytes(&self) -> u64 {
        self.0.log_bytes()
    }

    /// The current log file.
    pub fn log_path(&self) -> PathBuf {
        self.0
            .dir()
            .join(format!("wal-{:08}.log", self.0.generation()))
    }
}

// ------------------------------------------------- per-layer microcalls --
//
// Each function below performs a stated number of calls into one layer on
// inputs taken from a workload; the traced run wraps it in a span.

/// `util`: `n` epoch loads from a cell nobody publishes to.
pub fn epoch_loads(n: usize) -> u64 {
    let cell = EpochCell::new(Arc::new(0u64));
    (0..n).map(|_| cell.load().1).sum()
}

/// `util`: `n` epoch publications.
pub fn epoch_publishes(n: usize) -> u64 {
    let cell = EpochCell::new(Arc::new(0u64));
    (0..n as u64).map(|i| cell.publish(Arc::new(i))).sum()
}

/// `util`: `n` round trips through two bounded channels to an echo thread.
pub fn channel_round_trips(n: usize) -> usize {
    let (to_echo, echo_in) = channel::bounded::<usize>(16);
    let (to_caller, caller_in) = channel::bounded::<usize>(16);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(item) = echo_in.recv() {
                if to_caller.send(item).is_err() {
                    break;
                }
            }
        });
        let mut echoed = 0;
        for i in 0..n {
            if to_echo.send(i).is_err() {
                break;
            }
            echoed += usize::from(caller_in.recv() == Some(i));
        }
        drop(to_echo);
        echoed
    })
}

/// A transformation the traced run times per value.
#[derive(Debug, Clone, Copy)]
pub enum Transform {
    LowerCase,
    Tokenize,
    DigitsOnly,
}

/// `transform`: applies one transformation to every value; returns how
/// many output values came back.
pub fn apply_transform(which: Transform, values: &[String]) -> usize {
    let function = match which {
        Transform::LowerCase => TransformFunction::LowerCase,
        Transform::Tokenize => TransformFunction::Tokenize,
        Transform::DigitsOnly => TransformFunction::DigitsOnly,
    };
    values
        .iter()
        .map(|value| function.apply_slices(&[std::slice::from_ref(value)]).len())
        .sum()
}

/// `transform`: lower-cases and tokenizes every value (the token sets the
/// Jaccard kernel is timed on).
pub fn lower_case_token_sets(values: &[String]) -> Vec<Vec<String>> {
    values
        .iter()
        .map(|value| {
            let lowered = TransformFunction::LowerCase.apply_slices(&[std::slice::from_ref(value)]);
            TransformFunction::Tokenize.apply_slices(&[&lowered])
        })
        .collect()
}

/// `similarity`: Levenshtein distance of every adjacent pair of values.
pub fn levenshtein_pairs(values: &[String]) -> f64 {
    values
        .windows(2)
        .map(|pair| DistanceFunction::Levenshtein.distance_values(&pair[0], &pair[1]))
        .sum()
}

/// `similarity`: Jaccard distance of every adjacent pair of token sets.
pub fn jaccard_pairs(token_sets: &[Vec<String>]) -> f64 {
    token_sets
        .windows(2)
        .map(|pair| DistanceFunction::Jaccard.evaluate(&pair[0], &pair[1]))
        .sum()
}

/// `similarity`: numeric distance of every adjacent pair of values.
pub fn numeric_pairs(values: &[String]) -> f64 {
    values
        .windows(2)
        .map(|pair| DistanceFunction::Numeric.distance_values(&pair[0], &pair[1]))
        .sum()
}

/// `rule`: the evaluation plans of a batch of rules.
pub struct CompiledRules(Vec<CompiledRule>);

/// `rule`: lowers every rule to its indexing plan; returns how many
/// comparisons the plans index.
pub fn lower_rules(rules: &[LinkageRule], data: &Dataset) -> usize {
    rules
        .iter()
        .map(|rule| {
            IndexingPlan::lower(
                rule,
                data.source.schema(),
                data.target.schema(),
                LINK_THRESHOLD,
            )
            .comparisons()
            .len()
        })
        .sum()
}

/// `rule`: one rule compiled and lowered against the schemata of a dataset.
pub struct Plan {
    compiled: CompiledRule,
    indexing: Arc<IndexingPlan>,
}

impl Plan {
    pub fn new(rule: &LinkageRule, data: &Dataset) -> Plan {
        Plan {
            compiled: CompiledRule::compile(rule, data.source.schema(), data.target.schema()),
            indexing: Arc::new(IndexingPlan::lower(
                rule,
                data.source.schema(),
                data.target.schema(),
                LINK_THRESHOLD,
            )),
        }
    }

    /// `matching.multiblock`: builds the candidate index over `targets`.
    pub fn build_index<'e>(
        &self,
        targets: &'e [Entity],
        cache: &ValueCache<'e>,
        threads: usize,
    ) -> Index {
        Index(MultiBlockIndex::build_slice(
            self.indexing.clone(),
            targets,
            cache,
            threads,
        ))
    }

    /// `rule`: bounded evaluation of one pair at the link threshold;
    /// returns the score when the pair links.
    #[inline]
    pub fn links<'s, 't>(
        &self,
        source: &'s Entity,
        target: &'t Entity,
        source_cache: &ValueCache<'s>,
        target_cache: &ValueCache<'t>,
    ) -> Option<f64> {
        let score = self.compiled.evaluate_bounded_two(
            source,
            target,
            source_cache,
            target_cache,
            LINK_THRESHOLD,
        );
        (score >= LINK_THRESHOLD).then_some(score)
    }
}

/// `matching.multiblock`: a candidate index over a slice of target entities.
pub struct Index(MultiBlockIndex);

impl Index {
    /// Positions (into the indexed slice) of the candidates of one source
    /// entity.  Hand the buffer back through `scratch.recycle`.
    #[inline]
    pub fn candidates<'e>(
        &self,
        source: &'e Entity,
        cache: &ValueCache<'e>,
        scratch: &mut CandidateScratch,
    ) -> Vec<u32> {
        self.0.candidates(source, cache, scratch, &mut [])
    }

    pub fn insert<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        self.0.insert(position, entity, cache);
    }

    pub fn remove<'e>(&mut self, position: u32, entity: &'e Entity, cache: &ValueCache<'e>) {
        self.0.remove(position, entity, cache);
    }
}

/// Hits / (hits + misses) of a value cache.
pub fn value_cache_hit_ratio(cache: &ValueCache<'_>) -> f64 {
    cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64
}

/// `entity`: an entity store of its own, outside any service.
pub struct Store(EntityStore);

impl Store {
    pub fn new(like: &DataSource) -> Store {
        Store(EntityStore::new(like.schema().clone()))
    }

    pub fn insert_all(&mut self, entities: &[Entity]) -> usize {
        entities
            .iter()
            .filter(|entity| self.0.insert(entity).is_ok())
            .count()
    }

    pub fn remove_all(&mut self, entities: &[Entity]) -> usize {
        entities
            .iter()
            .filter(|entity| self.0.remove(entity.id()).is_some())
            .count()
    }
}

/// `core`: the property pairs a learner seeds its population from.
pub struct Pairs(Vec<CompatiblePair>);

/// `core`: Algorithm 2 — finds the property pairs holding similar values.
pub fn seeding(data: &Dataset, training: &ReferenceLinks) -> Pairs {
    Pairs(find_compatible_properties(
        &data.source,
        &data.target,
        training,
        &SeedingConfig::default(),
    ))
}

/// `entity`: reference links resolved to entity references.
pub struct Resolved<'a>(ResolvedReferenceLinks<'a>);

/// `entity`: resolves link identifiers against the two sources.
pub fn resolve_links<'a>(training: &ReferenceLinks, data: &'a Dataset) -> Resolved<'a> {
    Resolved(ResolvedReferenceLinks::resolve(
        training,
        &data.source,
        &data.target,
    ))
}

/// The learner's building blocks over one training set, for the traced
/// learn workloads: random rules, crossover, breeding, batch preparation
/// and scoring.
pub struct LearnLab<'a> {
    data: &'a Dataset,
    job: LearnJob,
    resolved: &'a Resolved<'a>,
    fitness: FitnessFunction<'a>,
    generator: RandomRuleGenerator,
}

/// Rules prepared for scoring (compiled, lowered, indexed).
pub struct Prepared(Vec<PreparedRule>);

impl<'a> LearnLab<'a> {
    pub fn new(
        data: &'a Dataset,
        job: LearnJob,
        resolved: &'a Resolved<'a>,
        pairs: Pairs,
    ) -> LearnLab<'a> {
        let config = job.config();
        let mut generator = RandomRuleGenerator::new(pairs.0, config.representation);
        generator.transformation_probability = config.transformation_probability;
        generator.max_comparisons = config.max_initial_comparisons;
        LearnLab {
            data,
            job,
            resolved,
            fitness: FitnessFunction::new(&resolved.0, ParsimonyModel::default()),
            generator,
        }
    }

    /// `core`: `n` random rules over the compatible pairs.
    pub fn random_rules(&self, n: usize, seed: u64) -> Vec<LinkageRule> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.generator.generate(&mut rng)).collect()
    }

    /// `core`: one crossover per adjacent pair of rules, cycling through
    /// the specialised operators; returns how many children are non-empty.
    pub fn crossovers(&self, rules: &[LinkageRule], seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        rules
            .windows(2)
            .zip(CrossoverOperator::SPECIALIZED.iter().cycle())
            .filter(|(pair, operator)| !operator.apply(&pair[0], &pair[1], &mut rng).is_empty())
            .count()
    }

    /// `rule`: compiles the evaluation plan of every rule.
    pub fn compile(&self, rules: &[LinkageRule]) -> CompiledRules {
        let (source, target) = (self.data.source.schema(), self.data.target.schema());
        CompiledRules(
            rules
                .iter()
                .map(|rule| CompiledRule::compile(rule, source, target))
                .collect(),
        )
    }

    /// `core.fitness`: lowers, compiles and indexes a batch of rules.
    pub fn prepare(&self, rules: &[LinkageRule]) -> Prepared {
        let rules: Vec<&LinkageRule> = rules.iter().collect();
        Prepared(self.fitness.prepare_batch(&rules, self.job.threads))
    }

    /// `core.fitness`: scores prepared rules on the training links;
    /// returns `(fitness, training F1)` per rule.
    pub fn evaluate(&self, rules: &[LinkageRule], prepared: &Prepared) -> Vec<(f64, f64)> {
        rules
            .iter()
            .zip(&prepared.0)
            .map(|(rule, prepared)| {
                let evaluated = self.fitness.evaluate_prepared(rule, prepared);
                (evaluated.fitness, evaluated.f_measure)
            })
            .collect()
    }

    /// `evaluation`: the confusion matrix of every compiled rule on the
    /// training links, transformation outputs shared through one cache;
    /// returns the true positives found over all rules.
    pub fn score_links(&self, compiled: &CompiledRules) -> usize {
        let cache = ValueCache::new();
        compiled
            .0
            .iter()
            .map(|compiled| evaluate_compiled(compiled, &self.resolved.0, &cache).true_positives)
            .sum()
    }

    /// `gp`: breeds `n` offspring (two tournaments, then crossover or
    /// headless-chicken mutation) from a scored population; returns how
    /// many are non-empty.
    pub fn breed(
        &self,
        rules: &[LinkageRule],
        scores: &[(f64, f64)],
        n: usize,
        seed: u64,
    ) -> usize {
        let config = self.job.config();
        let problem = GenLinkProblem::new(
            self.fitness.clone(),
            self.generator.clone(),
            config.crossover_operators.clone(),
            config.representation,
        );
        let window: Vec<Individual<LinkageRule>> = rules
            .iter()
            .zip(scores)
            .map(|(rule, &(fitness, f_measure))| {
                Individual::new(rule.clone(), Evaluated { fitness, f_measure })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .filter(|_| {
                !breed_offspring(
                    &problem,
                    &window,
                    config.gp.tournament_size,
                    config.gp.mutation_probability,
                    &mut rng,
                )
                .is_empty()
            })
            .count()
    }
}
