//! The traced runs: each workload's job decomposed into calls into the
//! layers (crates and modules) it passes through, every call inside a span,
//! plus microcalls that time one layer on values taken from the workload.
//! Times come only from these spans; counts may come from what the calls
//! return.

use std::time::{Duration, Instant};

use crate::adapter::{
    self, CandidateScratch, Coverage, Dataset, Durable, Entity, LearnJob, LearnLab, LinkageRule,
    Plan, Schedule, Service, Sharded, Store, Transform, ValueCache, Writer,
};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{learn, matching, serve, Checks, Ctx};

type Metrics = Vec<(&'static str, f64)>;

/// Seconds per operation over the spans named `span`, scaled to `unit`
/// (1e3 = ms, 1e6 = µs, 1e9 = ns).
fn per_op(tracer: &Tracer, span: &str, unit: f64) -> f64 {
    tracer.per_op(span) * unit
}

/// Appends one `(metric, per-operation time of span, scaled to unit)` per
/// row.
fn push_per_op(metrics: &mut Metrics, tracer: &Tracer, rows: &[(&'static str, &str, f64)]) {
    metrics.extend(
        rows.iter()
            .map(|&(metric, span, unit)| (metric, per_op(tracer, span, unit))),
    );
}

/// Appends one `(metric, total time of span, scaled to unit)` per row.
fn push_total(metrics: &mut Metrics, tracer: &Tracer, rows: &[(&'static str, &str, f64)]) {
    metrics.extend(
        rows.iter()
            .map(|&(metric, span, unit)| (metric, tracer.total(span).0 * unit)),
    );
}

/// A worker's interleaved candidate generation and evaluation, recorded as
/// two spans laid end to end from `start`: durations and counts are
/// measured, the boundary between the two is not a real instant.
fn record_interleaved(
    tracer: &mut Tracer,
    start: Instant,
    candidate_ns: u64,
    evaluate_ns: u64,
    sources: u64,
    candidates: u64,
) {
    let split = start + Duration::from_nanos(candidate_ns);
    tracer.record("matching.multiblock.candidates", start, split, sources);
    tracer.record(
        "rule.evaluate",
        split,
        split + Duration::from_nanos(evaluate_ns),
        candidates,
    );
}

/// `util.epoch`: a million loads and a fifth as many publications.
fn epoch_metrics(tracer: &mut Tracer, metrics: &mut Metrics) {
    const LOADS: usize = 1_000_000;
    const PUBLISHES: usize = 200_000;
    tracer.span("util.epoch.load", |_| {
        (adapter::epoch_loads(LOADS), LOADS as u64)
    });
    tracer.span("util.epoch.publish", |_| {
        (adapter::epoch_publishes(PUBLISHES), PUBLISHES as u64)
    });
    push_per_op(
        metrics,
        tracer,
        &[
            ("util.epoch.load_ns", "util.epoch.load", 1e9),
            ("util.epoch.publish_us", "util.epoch.publish", 1e6),
        ],
    );
}

/// Runs `job` untraced until `seconds` are spent (at least twice) and
/// returns the median wall time — what the traced decomposition is held
/// against.
fn untraced_median_s(seconds: f64, mut job: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        job();
        times.push(start.elapsed().as_secs_f64());
    }
    stats::median(&stats::sorted(times))
}

/// The first value of `property` of up to `limit` entities.
fn sample_values(entities: &[Entity], property: &str, limit: usize) -> Vec<String> {
    entities
        .iter()
        .filter_map(|entity| entity.first_value(property))
        .take(limit)
        .map(str::to_string)
        .collect()
}

/// Transform and kernel microcalls on values of the workload's own data.
fn value_layer_metrics(
    tracer: &mut Tracer,
    entities: &[Entity],
    text_property: &str,
    token_property: &str,
    digit_property: &str,
    metrics: &mut Metrics,
) {
    const SAMPLE: usize = 4_000;
    let text = sample_values(entities, text_property, SAMPLE);
    let tokens = sample_values(entities, token_property, SAMPLE);
    let digits = sample_values(entities, digit_property, SAMPLE);
    tracer.span("transform.lower_case", |_| {
        let produced = adapter::apply_transform(Transform::LowerCase, &text);
        (produced, text.len() as u64)
    });
    tracer.span("transform.tokenize", |_| {
        let produced = adapter::apply_transform(Transform::Tokenize, &tokens);
        (produced, tokens.len() as u64)
    });
    tracer.span("transform.digits_only", |_| {
        let produced = adapter::apply_transform(Transform::DigitsOnly, &digits);
        (produced, digits.len() as u64)
    });
    let token_sets = adapter::lower_case_token_sets(&tokens);
    tracer.span("similarity.levenshtein", |_| {
        let total = adapter::levenshtein_pairs(&text);
        (total, text.len().saturating_sub(1) as u64)
    });
    tracer.span("similarity.jaccard", |_| {
        let total = adapter::jaccard_pairs(&token_sets);
        (total, token_sets.len().saturating_sub(1) as u64)
    });
    tracer.span("similarity.numeric", |_| {
        let total = adapter::numeric_pairs(&digits);
        (total, digits.len().saturating_sub(1) as u64)
    });
    push_per_op(
        metrics,
        tracer,
        &[
            ("transform.lower_case_ns", "transform.lower_case", 1e9),
            ("transform.tokenize_ns", "transform.tokenize", 1e9),
            ("transform.digits_only_ns", "transform.digits_only", 1e9),
            (
                "similarity.levenshtein_ns_per_pair",
                "similarity.levenshtein",
                1e9,
            ),
            ("similarity.jaccard_ns_per_pair", "similarity.jaccard", 1e9),
            ("similarity.numeric_ns_per_pair", "similarity.numeric", 1e9),
        ],
    );
}

// ---------------------------------------------------------------- learn --

/// Rules in the pool the learner's layers are timed on.
const POOL: usize = 300;

pub fn trace_learn(
    ctx: &Ctx,
    job: &LearnJob,
    inputs: &mut learn::Inputs,
    tracer: &mut Tracer,
) -> Metrics {
    // the layers are timed on the run's first dataset
    let (data, training) = (&inputs.samples[0].data, &inputs.samples[0].training);
    let seed = ctx.seed;
    let mut metrics = Metrics::new();

    let untraced_s = untraced_median_s(ctx.seconds / 3.0, || {
        adapter::learn(job, data, training, seed, |_| {});
    });

    // the job itself, cut at the observer's callbacks: everything up to the
    // scored initial population, then one span per generation (or window)
    let mut generations = Vec::new();
    let (learned, job_s) = tracer.span("learn.job", |tracer| {
        let start = Instant::now();
        let mut previous = start;
        let learned = adapter::learn(job, data, training, seed, |iteration| {
            let now = Instant::now();
            if iteration == 0 {
                tracer.record(
                    "core.initial_population",
                    previous,
                    now,
                    job.population as u64,
                );
            } else {
                tracer.record("gp.generation", previous, now, 1);
                generations.push((now - previous).as_secs_f64());
            }
            previous = now;
        });
        let end = Instant::now();
        tracer.record("core.final_confusion", previous, end, 1);
        ((learned, (end - start).as_secs_f64()), 1)
    });
    metrics.extend([
        ("trace.coverage", tracer.covered_s("learn.job") / untraced_s),
        ("trace.overhead", job_s / untraced_s),
        (
            "gp.generation_s_p50",
            stats::median(&stats::sorted(generations)),
        ),
        (
            "gp.fitness_cache_hit_ratio",
            learned.fitness_cache_hit_ratio,
        ),
        ("core.leaf_reuse_hit_ratio", learned.leaf_reuse_hit_ratio),
    ]);
    if let Some((utilization, idle_s, evals_per_s)) = learned.pipeline {
        metrics.extend([
            ("gp.pipeline.utilization", utilization),
            ("gp.pipeline.idle_s", idle_s),
            ("gp.pipeline.evals_per_s", evals_per_s),
        ]);
    }

    // the layers under the job, on a pool of random rules plus the rule the
    // job learned
    let pairs = tracer.span("core.seeding", |_| (adapter::seeding(data, training), 1));
    let resolved = tracer.span("entity.resolve_links", |_| {
        (
            adapter::resolve_links(training, data),
            training.len() as u64,
        )
    });
    let lab = LearnLab::new(data, *job, &resolved, pairs);
    let mut pool: Vec<LinkageRule> = tracer.span("core.random_rule", |_| {
        (lab.random_rules(POOL, seed), POOL as u64)
    });
    pool.push(learned.rule.clone());
    tracer.span("core.crossover", |_| {
        (lab.crossovers(&pool, seed), (pool.len() - 1) as u64)
    });
    let compiled = tracer.span("rule.compile", |_| (lab.compile(&pool), pool.len() as u64));
    tracer.span("rule.plan_lower", |_| {
        (adapter::lower_rules(&pool, data), pool.len() as u64)
    });
    tracer.span("evaluation.score_links", |_| {
        (lab.score_links(&compiled), pool.len() as u64)
    });
    let prepared = tracer.span("core.fitness.prepare", |_| {
        (lab.prepare(&pool), pool.len() as u64)
    });
    let scores = tracer.span("core.fitness.evaluate", |_| {
        (lab.evaluate(&pool, &prepared), pool.len() as u64)
    });
    tracer.span("gp.breed", |_| {
        (lab.breed(&pool, &scores, POOL, seed), POOL as u64)
    });
    if job.schedule == Schedule::SteadyState {
        const ROUND_TRIPS: usize = 20_000;
        tracer.span("util.channel.round_trip", |_| {
            (
                adapter::channel_round_trips(ROUND_TRIPS),
                ROUND_TRIPS as u64,
            )
        });
        push_per_op(
            &mut metrics,
            tracer,
            &[("util.channel.roundtrip_ns", "util.channel.round_trip", 1e9)],
        );
    }
    push_total(
        &mut metrics,
        tracer,
        &[
            ("core.seeding_s", "core.seeding", 1.0),
            ("entity.resolve_links_ms", "entity.resolve_links", 1e3),
            ("core.fitness.prepare_s", "core.fitness.prepare", 1.0),
        ],
    );
    push_per_op(
        &mut metrics,
        tracer,
        &[
            ("core.random_rule_us", "core.random_rule", 1e6),
            ("core.crossover_us", "core.crossover", 1e6),
            ("rule.compile_us_per_rule", "rule.compile", 1e6),
            ("rule.plan_lower_us_per_rule", "rule.plan_lower", 1e6),
            (
                "evaluation.score_links_us_per_rule",
                "evaluation.score_links",
                1e6,
            ),
            (
                "core.fitness.evaluate_us_per_rule",
                "core.fitness.evaluate",
                1e6,
            ),
            ("gp.breed_us_per_offspring", "gp.breed", 1e6),
        ],
    );
    // Cora has title/author/date, SiderDrugBank has none of them: sample
    // whatever text the source's first property holds
    let first = data.source.schema().properties()[0].clone();
    let (text, tokens, digits) = if data.source.schema().contains("title") {
        ("title", "author", "date")
    } else {
        (first.as_str(), first.as_str(), first.as_str())
    };
    value_layer_metrics(
        tracer,
        data.source.entities(),
        text,
        tokens,
        digits,
        &mut metrics,
    );
    metrics
}

// ---------------------------------------------------------------- match --

/// What one worker of the decomposed matching job did.
struct WorkerShare {
    start: Instant,
    end: Instant,
    candidate_ns: u64,
    evaluate_ns: u64,
    sources: u64,
    candidates: u64,
    links: u64,
}

/// The matching job rebuilt from layer calls: per source chunk and target
/// chunk, build the index, then per source entity generate candidates and
/// evaluate them — on `threads` workers, like the engine.
fn decomposed_match(
    tracer: &mut Tracer,
    plan: &Plan,
    data: &Dataset,
    chunks: usize,
    threads: usize,
) -> (u64, u64) {
    let sources = data.source.entities();
    let targets = data.target.entities();
    let source_chunk = sources.len().div_ceil(chunks).max(1);
    let target_chunk = targets.len().div_ceil(chunks).max(1);
    let (mut evaluated, mut links) = (0, 0);
    for source_part in sources.chunks(source_chunk) {
        let source_cache = ValueCache::new();
        for target_part in targets.chunks(target_chunk) {
            let target_cache = ValueCache::new();
            let index = tracer.span("matching.multiblock.build", |_| {
                (plan.build_index(target_part, &target_cache, threads), 1)
            });
            let share = source_part.len().div_ceil(threads).max(1);
            let shares: Vec<WorkerShare> = std::thread::scope(|scope| {
                let workers: Vec<_> = source_part
                    .chunks(share)
                    .map(|mine| {
                        let (index, source_cache, target_cache) =
                            (&index, &source_cache, &target_cache);
                        scope.spawn(move || {
                            let mut scratch = CandidateScratch::new();
                            let mut done = WorkerShare {
                                start: Instant::now(),
                                end: Instant::now(),
                                candidate_ns: 0,
                                evaluate_ns: 0,
                                sources: mine.len() as u64,
                                candidates: 0,
                                links: 0,
                            };
                            for source in mine {
                                let before = Instant::now();
                                let candidates =
                                    index.candidates(source, source_cache, &mut scratch);
                                let between = Instant::now();
                                for &position in &candidates {
                                    let target = &target_part[position as usize];
                                    done.links += u64::from(
                                        plan.links(source, target, source_cache, target_cache)
                                            .is_some(),
                                    );
                                }
                                done.candidates += candidates.len() as u64;
                                scratch.recycle(candidates);
                                let after = Instant::now();
                                done.candidate_ns += (between - before).as_nanos() as u64;
                                done.evaluate_ns += (after - between).as_nanos() as u64;
                            }
                            done.end = Instant::now();
                            done
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|worker| worker.join().expect("worker panicked"))
                    .collect()
            });
            for done in shares {
                record_interleaved(
                    tracer,
                    done.start,
                    done.candidate_ns,
                    done.evaluate_ns,
                    done.sources,
                    done.candidates,
                );
                tracer.record("matching.worker", done.start, done.end, done.sources);
                evaluated += done.candidates;
                links += done.links;
            }
        }
    }
    (evaluated, links)
}

pub fn trace_match(
    ctx: &Ctx,
    coverage: Coverage,
    inputs: &mut matching::Inputs,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Metrics {
    let (data, rule) = (&inputs.data, &inputs.rule);
    let mut metrics = Metrics::new();
    let run =
        |coverage| adapter::run_match(rule, coverage, ctx.threads, &data.source, &data.target);

    let mut report = None;
    let untraced_s = untraced_median_s(ctx.seconds / 4.0, || report = Some(run(coverage)));
    let report = report.expect("the job ran");
    let chunks = match coverage {
        Coverage::Chunked(chunks) => chunks,
        _ => 1,
    };
    let (plan, (evaluated, links), job_s) = tracer.span("match.job", |tracer| {
        let start = Instant::now();
        let plan = tracer.span("rule.compile_and_lower", |_| (Plan::new(rule, data), 1));
        let counts = decomposed_match(tracer, &plan, data, chunks, ctx.threads);
        ((plan, counts, start.elapsed().as_secs_f64()), 1)
    });
    let build_s = tracer.total("matching.multiblock.build").0;
    metrics.extend([
        // the layer calls of the rebuilt job against the engine's job: near
        // 1 when they account for what the engine does
        ("trace.coverage", tracer.covered_s("match.job") / untraced_s),
        ("trace.overhead", job_s / untraced_s),
        ("matching.engine.overhead_s", untraced_s - job_s),
        ("matching.multiblock.build_s", build_s),
        (
            "matching.multiblock.candidates_us_per_source",
            per_op(tracer, "matching.multiblock.candidates", 1e6),
        ),
        (
            "matching.multiblock.candidates_per_source",
            evaluated as f64 / data.source.len() as f64,
        ),
        (
            "rule.eval_ns_per_pair",
            per_op(tracer, "rule.evaluate", 1e9),
        ),
        ("rule.skip_ratio", report.skip_ratio),
        (
            "matching.engine.evaluated_fraction",
            report.evaluated_pairs as f64 / report.cross_product.max(1) as f64,
        ),
        (
            "matching.engine.links_per_evaluated_pair",
            report.links.len() as f64 / report.evaluated_pairs.max(1) as f64,
        ),
        ("matching.engine.index_builds", report.index_builds as f64),
        (
            "similarity.kernel_fast_path_ratio",
            report.kernel_fast_path_ratio,
        ),
    ]);
    // the rebuilt job must do the engine's work, pair for pair
    let rebuilt = (evaluated as usize, links as usize);
    let engine = (report.evaluated_pairs, report.links.len());
    checks.check(rebuilt == engine, || {
        format!("the rebuilt job evaluated/linked {rebuilt:?} pairs, the engine {engine:?}")
    });

    // evaluation alone, cold then warm caches, on the first candidates
    const PAIRS: usize = 20_000;
    let target_cache = ValueCache::new();
    let index = plan.build_index(data.target.entities(), &ValueCache::new(), ctx.threads);
    let mut scratch = CandidateScratch::new();
    let mut pairs: Vec<(&Entity, &Entity)> = Vec::new();
    let probe_cache = ValueCache::new();
    for source in data.source.entities() {
        let candidates = index.candidates(source, &probe_cache, &mut scratch);
        pairs.extend(
            candidates
                .iter()
                .map(|&position| (source, &data.target.entities()[position as usize])),
        );
        scratch.recycle(candidates);
        if pairs.len() >= PAIRS {
            break;
        }
    }
    let source_cache = ValueCache::new();
    for name in ["rule.evaluate_cold", "rule.evaluate_warm"] {
        tracer.span(name, |_| {
            let linked = pairs
                .iter()
                .filter(|(s, t)| plan.links(s, t, &source_cache, &target_cache).is_some())
                .count();
            (linked, pairs.len() as u64)
        });
    }
    metrics.extend([
        (
            "rule.eval_cold_ns_per_pair",
            per_op(tracer, "rule.evaluate_cold", 1e9),
        ),
        (
            "rule.eval_warm_ns_per_pair",
            per_op(tracer, "rule.evaluate_warm", 1e9),
        ),
        (
            "rule.value_cache_hit_ratio",
            adapter::value_cache_hit_ratio(&target_cache),
        ),
    ]);

    // the anomalies on file: blocking against the exhaustive run (on a
    // quarter of the sources, or the exhaustive run would be the whole
    // traced run), and chunked against resident
    if data.target.schema().contains("title") {
        let quarter = adapter::subset(&data.source, "quarter", |position| position % 4 == 0);
        let time = |tracer: &mut Tracer, name: &'static str, coverage| {
            tracer.span(name, |_| {
                let report =
                    adapter::run_match(rule, coverage, ctx.threads, &quarter, &data.target);
                (report.links.len(), 1)
            });
            tracer.total(name).0
        };
        let exhaustive_s = time(tracer, "matching.engine.exhaustive", Coverage::Exhaustive);
        let blocked_s = time(tracer, "matching.engine.blocked", Coverage::Blocked);
        metrics.extend([
            ("matching.engine.exhaustive_s", exhaustive_s),
            (
                "matching.engine.blocked_vs_exhaustive_ratio",
                blocked_s / exhaustive_s,
            ),
        ]);
    }
    if coverage != Coverage::Blocked {
        let resident_s = untraced_median_s(0.0, || {
            run(Coverage::Blocked);
        });
        metrics.push((
            "matching.engine.stream_vs_batch_ratio",
            untraced_s / resident_s,
        ));
    }
    let (text, tokens, digits) = if data.target.schema().contains("title") {
        ("title", "author", "date")
    } else {
        ("name", "address", "phone")
    };
    value_layer_metrics(
        tracer,
        data.target.entities(),
        text,
        tokens,
        digits,
        &mut metrics,
    );
    metrics
}

// ----------------------------------------------------------- serve_read --

pub fn trace_serve_read(ctx: &Ctx, inputs: &mut serve::ReadInputs, tracer: &mut Tracer) -> Metrics {
    let probes = inputs.data.source.entities();
    let reader = inputs.service.reader();
    let mut metrics = Metrics::new();
    let mut scratch = CandidateScratch::new();
    let mut hits = Vec::new();
    // warm the caches the way the untraced clients do
    for probe in probes {
        reader.query_fast(probe, &mut scratch, &mut hits);
    }
    tracer.span("matching.service.query", |_| {
        let found: usize = probes
            .iter()
            .map(|probe| reader.query_fast(probe, &mut scratch, &mut hits))
            .sum();
        (found, probes.len() as u64)
    });
    tracer.span("matching.service.query_rule", |_| {
        let found: usize = probes
            .iter()
            .map(|probe| {
                reader
                    .query_rule(serve::PHONE_RULE, probe)
                    .map_or(0, |l| l.len())
            })
            .sum();
        (found, probes.len() as u64)
    });
    tracer.span("matching.service.committee_query", |_| {
        let found: usize = probes
            .iter()
            .map(|probe| reader.query_committee(probe).len())
            .sum();
        (found, probes.len() as u64)
    });

    // a query rebuilt from layer calls: epoch load, candidates, evaluation
    epoch_metrics(tracer, &mut metrics);
    let plan = Plan::new(&adapter::restaurant_rule(), &inputs.data);
    let target_cache = ValueCache::new();
    let served = inputs.served.entities();
    let index = tracer.span("matching.multiblock.build", |_| {
        (plan.build_index(served, &target_cache, ctx.threads), 1)
    });
    let (mut candidate_ns, mut evaluate_ns, mut candidates_total) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    for probe in probes {
        // a query's own transform memo lives as long as the query
        let probe_cache = ValueCache::new();
        let before = Instant::now();
        let candidates = index.candidates(probe, &probe_cache, &mut scratch);
        let between = Instant::now();
        for &position in &candidates {
            std::hint::black_box(plan.links(
                probe,
                &served[position as usize],
                &probe_cache,
                &target_cache,
            ));
        }
        candidates_total += candidates.len() as u64;
        scratch.recycle(candidates);
        candidate_ns += (between - before).as_nanos() as u64;
        evaluate_ns += (Instant::now() - between).as_nanos() as u64;
    }
    record_interleaved(
        tracer,
        started,
        candidate_ns,
        evaluate_ns,
        probes.len() as u64,
        candidates_total,
    );
    let query_us = per_op(tracer, "matching.service.query", 1e6);
    let candidates_us = per_op(tracer, "matching.multiblock.candidates", 1e6);
    let evaluate_us_per_query = evaluate_ns as f64 / 1e3 / probes.len() as f64;
    let load_ns = per_op(tracer, "util.epoch.load", 1e9);

    // registry operations on the warm store
    let mut service = Service::build(
        adapter::restaurant_rule(),
        &[],
        inputs.data.source.schema(),
        &inputs.served,
        ctx.threads,
    );
    tracer.span("matching.service.register_rule_warm", |_| {
        (
            service.register_rule("fallback", adapter::restaurant_fallback_rule()),
            1,
        )
    });
    tracer.span("matching.service.replace_rule", |_| {
        (
            service.replace_rule("fallback", adapter::restaurant_phone_rule()),
            1,
        )
    });

    // the same store over two shards: what the merge costs
    let mut sharded = Sharded::empty(
        adapter::restaurant_rule(),
        inputs.data.source.schema(),
        inputs.served.schema(),
        2,
        ctx.threads,
    );
    tracer.span("matching.sharded.ingest", |_| {
        (sharded.ingest(served), served.len() as u64)
    });
    for probe in probes.iter().take(2_000) {
        sharded.query(probe);
    }
    tracer.span("matching.sharded.query", |_| {
        let found: usize = probes.iter().map(|probe| sharded.query(probe)).sum();
        (found, probes.len() as u64)
    });

    metrics.extend([
        (
            "trace.coverage",
            (load_ns / 1e3 + candidates_us + evaluate_us_per_query) / query_us,
        ),
        ("trace.overhead", 1.0),
        (
            "matching.multiblock.candidates_per_source",
            candidates_total as f64 / probes.len() as f64,
        ),
    ]);
    push_per_op(
        &mut metrics,
        tracer,
        &[
            ("matching.service.query_us", "matching.service.query", 1e6),
            (
                "matching.service.query_rule_us",
                "matching.service.query_rule",
                1e6,
            ),
            (
                "matching.service.committee_query_us",
                "matching.service.committee_query",
                1e6,
            ),
            (
                "matching.multiblock.candidates_us_per_source",
                "matching.multiblock.candidates",
                1e6,
            ),
            ("rule.eval_ns_per_pair", "rule.evaluate", 1e9),
            ("matching.sharded.query_us", "matching.sharded.query", 1e6),
        ],
    );
    push_total(
        &mut metrics,
        tracer,
        &[
            ("matching.service.build_s", "setup", 1.0),
            (
                "matching.multiblock.build_s",
                "matching.multiblock.build",
                1.0,
            ),
            (
                "matching.service.register_rule_warm_ms",
                "matching.service.register_rule_warm",
                1e3,
            ),
            (
                "matching.service.replace_rule_ms",
                "matching.service.replace_rule",
                1e3,
            ),
            ("matching.sharded.ingest_s", "matching.sharded.ingest", 1.0),
        ],
    );
    value_layer_metrics(tracer, served, "name", "address", "phone", &mut metrics);
    metrics
}

// ---------------------------------------------------------- serve_churn --

pub fn trace_serve_churn(
    ctx: &Ctx,
    store: &mut serve::DurableStore,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Metrics {
    let mut metrics = Metrics::new();
    let victims = store.victims.clone();
    let pairs = ((ctx.seconds * 8.0) as usize).clamp(8, victims.len());
    let victims = &victims[..pairs];

    // the durable write path: acknowledged removes and inserts
    let log_before = store.service().log_bytes();
    for victim in victims {
        let service = store.service_mut();
        let removed = tracer.span("matching.durable.remove", |_| {
            (service.remove(victim.id()), 1)
        });
        let inserted = tracer.span("matching.durable.insert", |_| (service.insert(victim), 1));
        checks.check(removed == Ok(true) && inserted.is_ok(), || {
            format!(
                "durable remove/insert of {}: {removed:?} / {inserted:?}",
                victim.id()
            )
        });
    }
    let log_bytes_per_op =
        (store.service().log_bytes() - log_before) as f64 / (2 * victims.len()) as f64;
    let batch = store.held_back.pop().unwrap_or_default();
    let service = store.service_mut();
    let ingested = tracer.span("matching.durable.ingest_batch", |_| {
        (service.ingest(&batch), batch.len() as u64)
    });
    let compacted = tracer.span("matching.durable.compact", |_| (service.compact(), 1));
    checks.check(ingested == Ok(batch.len()) && compacted.is_ok(), || {
        format!("durable ingest / compact: {ingested:?} / {compacted:?}")
    });

    // the same script without durability: the difference is the log's
    let target = adapter::subset(&store.data.target, "served", |position| {
        store
            .service()
            .contains(store.data.target.entities()[position].id())
    });
    let mut writer = Writer::build(
        adapter::cora_title_rule(),
        store.data.source.schema(),
        &target,
        ctx.threads,
    );
    for victim in victims {
        let removed = tracer.span("matching.service.remove", |_| {
            (writer.remove(victim.id()), 1)
        });
        let inserted = tracer.span("matching.service.insert", |_| (writer.insert(victim), 1));
        checks.check(removed && inserted, || {
            format!("remove/insert of {}: {removed} / {inserted}", victim.id())
        });
    }
    // a batch pays the index work per entity but publishes once: against
    // the single insert, the difference is one publication
    for victim in victims {
        writer.remove(victim.id());
    }
    tracer.span("matching.service.ingest", |_| {
        (writer.ingest(victims), victims.len() as u64)
    });

    // the layers under a service write: entity store and candidate index
    let mut entities = Store::new(&target);
    entities.insert_all(target.entities());
    tracer.span("entity.store.remove", |_| {
        (entities.remove_all(victims), victims.len() as u64)
    });
    tracer.span("entity.store.insert", |_| {
        (entities.insert_all(victims), victims.len() as u64)
    });
    let plan = Plan::new(&adapter::cora_title_rule(), &store.data);
    let cache = ValueCache::new();
    let mut index = plan.build_index(target.entities(), &cache, ctx.threads);
    let placed: Vec<(u32, &Entity)> = victims
        .iter()
        .map(|victim| {
            let position = target
                .entities()
                .iter()
                .position(|entity| entity.id() == victim.id())
                .expect("victims are served");
            (position as u32, &target.entities()[position])
        })
        .collect();
    tracer.span("matching.multiblock.remove", |_| {
        for &(position, entity) in &placed {
            index.remove(position, entity, &cache);
        }
        ((), placed.len() as u64)
    });
    tracer.span("matching.multiblock.insert", |_| {
        for &(position, entity) in &placed {
            index.insert(position, entity, &cache);
        }
        ((), placed.len() as u64)
    });
    epoch_metrics(tracer, &mut metrics);

    let durable_insert = per_op(tracer, "matching.durable.insert", 1e6);
    let durable_remove = per_op(tracer, "matching.durable.remove", 1e6);
    let service_insert = per_op(tracer, "matching.service.insert", 1e6);
    let service_remove = per_op(tracer, "matching.service.remove", 1e6);
    let wal_self = (durable_insert + durable_remove - service_insert - service_remove) / 2.0;
    let store_insert = per_op(tracer, "entity.store.insert", 1e9);
    let index_insert = per_op(tracer, "matching.multiblock.insert", 1e6);
    let ingest_per_entity = per_op(tracer, "matching.service.ingest", 1e6);
    metrics.extend([
        // an acknowledged insert against the layers that can be called from
        // outside: the log, the entity store, the candidate index.  What is
        // left is the service assembling and publishing the epoch, which no
        // public call isolates; `matching.service.publish_us` has it by
        // difference.
        (
            "trace.coverage",
            (wal_self + store_insert / 1e3 + index_insert) / durable_insert,
        ),
        ("trace.overhead", 1.0),
        ("matching.service.ingest_us_per_entity", ingest_per_entity),
        (
            "matching.service.publish_us",
            (service_insert - ingest_per_entity).max(0.0),
        ),
        ("matching.durable.insert_us", durable_insert),
        ("matching.durable.remove_us", durable_remove),
        ("matching.service.insert_us", service_insert),
        ("matching.service.remove_us", service_remove),
        ("matching.wal.self_us_per_op", wal_self),
        ("matching.wal.bytes_per_op", log_bytes_per_op),
        ("entity.store.insert_ns", store_insert),
        ("matching.multiblock.insert_us", index_insert),
    ]);
    push_per_op(
        &mut metrics,
        tracer,
        &[
            ("entity.store.remove_ns", "entity.store.remove", 1e9),
            (
                "matching.multiblock.remove_us",
                "matching.multiblock.remove",
                1e6,
            ),
        ],
    );
    push_total(
        &mut metrics,
        tracer,
        &[
            (
                "matching.durable.ingest_batch_ms",
                "matching.durable.ingest_batch",
                1e3,
            ),
            (
                "matching.durable.compact_s",
                "matching.durable.compact",
                1.0,
            ),
            ("matching.service.build_s", "setup", 1.0),
        ],
    );
    value_layer_metrics(
        tracer,
        target.entities(),
        "title",
        "author",
        "date",
        &mut metrics,
    );
    metrics
}

// -------------------------------------------------------- serve_recover --

pub fn trace_serve_recover(
    ctx: &Ctx,
    crashed: &mut serve::Crashed,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Metrics {
    let mut metrics = Metrics::new();
    let data = &crashed.store.data;
    let rule = adapter::cora_title_rule;
    let recover = |tracer: &mut Tracer, name: &'static str, log_len: u64| {
        let copy = crashed.copy_with_log(&ctx.dir, log_len)?;
        let recovered = tracer.span(name, |_| {
            (
                Durable::recover(copy.path(), rule(), data.source.schema()),
                1,
            )
        });
        recovered.map(|(service, report)| (service.len(), report.replayed_epochs))
    };
    // warm the page cache, then: the full recovery, and the same checkpoint
    // with an empty log tail — the difference is the replay
    let outcome = recover(tracer, "warm-up", crashed.clean_len)
        .and_then(|_| recover(tracer, "matching.durable.recover", crashed.clean_len))
        .and_then(|full| {
            recover(
                tracer,
                "matching.durable.recover_checkpoint_only",
                crashed.compacted_len,
            )
            .map(|checkpoint_only| (full, checkpoint_only))
        });
    checks.check(outcome.is_ok(), || {
        format!("traced recovery failed: {outcome:?}")
    });
    let Ok(((served, replayed), _)) = outcome else {
        return metrics;
    };
    let total = |name| tracer.total(name).0;
    let recover_s = total("matching.durable.recover");
    let replay_s = (recover_s - total("matching.durable.recover_checkpoint_only")).max(0.0);

    // the layers under a recovery: restore a snapshot, write one
    let target = &data.target;
    let service = tracer.span("matching.service.build", |_| {
        (
            Service::build(rule(), &[], data.source.schema(), target, ctx.threads),
            1,
        )
    });
    let snapshot = tracer.span("matching.persist.save", |_| (service.save(), 1));
    tracer.span("matching.persist.restore", |_| {
        (
            Service::restore(rule(), data.source.schema(), &snapshot).is_ok(),
            1,
        )
    });
    let total = |name| tracer.total(name).0;
    let (save_s, restore_s) = (
        total("matching.persist.save"),
        total("matching.persist.restore"),
    );
    // the snapshot above holds the whole target, the checkpoint the served
    // part of it: scale the restore and save times by the entity counts
    let share = served as f64 / target.len() as f64;
    metrics.extend([
        (
            "trace.coverage",
            ((restore_s + save_s) * share + replay_s) / recover_s,
        ),
        ("trace.overhead", 1.0),
        (
            "matching.durable.replay_us_per_epoch",
            replay_s * 1e6 / replayed.max(1) as f64,
        ),
        (
            "matching.persist.bytes_per_entity",
            snapshot.len() as f64 / target.len() as f64,
        ),
        (
            "matching.persist.restore_vs_build_ratio",
            total("matching.service.build") / restore_s,
        ),
    ]);
    push_total(
        &mut metrics,
        tracer,
        &[
            (
                "matching.durable.recover_s",
                "matching.durable.recover",
                1.0,
            ),
            ("matching.persist.save_s", "matching.persist.save", 1.0),
            (
                "matching.persist.restore_s",
                "matching.persist.restore",
                1.0,
            ),
            ("matching.service.build_s", "matching.service.build", 1.0),
        ],
    );
    metrics
}
