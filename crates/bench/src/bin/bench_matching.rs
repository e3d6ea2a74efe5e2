//! Matching-engine benchmark: MultiBlock candidate generation versus the
//! full cross product, with results emitted to `BENCH_matching.json`.
//!
//! Five workloads exercise the candidate pipeline end-to-end:
//!
//! 1. **cora** — a Cora-style bibliographic workload matched by a fuzzy
//!    Levenshtein rule over lower-cased titles (typos: no exact string
//!    equality to block on),
//! 2. **restaurant** — a restaurant workload matched by a conjunction of
//!    fuzzy name and normalised phone comparisons (exercises plan
//!    intersection),
//! 3. **restaurant-x10** — the same conjunction over Restaurant ×10
//!    (4,256 × 4,256): large enough that the engine's staged build shows —
//!    the row prints the leaves it built and the leaves it left out next to
//!    blocked-vs-full milliseconds,
//! 4. **restaurant-phone** — phone numbers compared through a `digitsOnly`
//!    transform: a quarter of the true matches share *no* exact token
//!    between their raw values, so only an index over the *transformed*
//!    values keeps every one of them,
//! 5. **restaurant-learned** — the rule is not hand-written but *learned*
//!    by the GP learner on the restaurant reference links (fixed seed), so
//!    reduction ratio and recall are tracked on the rules the system
//!    actually produces.
//!
//! Gates (CI fails when either is violated on any workload):
//!
//! * **recall == 1.0** — the indexed run must produce the identical link set
//!   as the exhaustive run (losslessness) — on *every* workload, including
//!   the learned one,
//! * **evaluated fraction < 0.05** — the indexed run must evaluate fewer
//!   than 5% of the cross-product pairs (reduction ratio > 0.95; a count, so
//!   the gate cannot flap — `blocked_ms` / `full_ms` are printed, not gated:
//!   at Cora's 471 × 471 the index build dominates the blocked run).  Learned
//!   rules carry no reduction gate (their prunability depends on what the
//!   learner converged to); their evaluated fraction is reported for
//!   tracking.
//!
//! Environment: `GENLINK_BENCH_MATCH_OUT` (output path, default
//! `BENCH_matching.json`).

use std::collections::HashSet;
use std::time::Instant;

use linkdisc_datasets::{Dataset, DatasetKind};
use linkdisc_matching::{MatchingEngine, MatchingOptions};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    TransformFunction,
};

const MAX_EVALUATED_FRACTION: f64 = 0.05;

struct WorkloadResult {
    name: &'static str,
    cross_product: usize,
    evaluated_pairs: usize,
    evaluated_fraction: f64,
    links: usize,
    recall: f64,
    full_ms: f64,
    blocked_ms: f64,
    /// Leaf indexes the engine built / left out (the staged build stops
    /// under a conjunction once the built leaves prune enough).
    leaves_built: usize,
    leaves_skipped: usize,
    /// Whether the < 5% evaluated-fraction gate applies (hand-written
    /// workloads only; learned rules are tracked, not gated).
    gate_reduction: bool,
}

fn run_workload(name: &'static str, dataset: &Dataset, rule: LinkageRule) -> WorkloadResult {
    println!("--- workload {name} ---");
    println!(
        "|A|={} |B|={} cross product={}",
        dataset.source.len(),
        dataset.target.len(),
        dataset.source.len() * dataset.target.len()
    );
    println!("rule: {}", linkdisc_rule::print_rule(&rule));

    let start = Instant::now();
    let full = MatchingEngine::new(rule.clone())
        .with_options(MatchingOptions {
            use_blocking: false,
            ..MatchingOptions::default()
        })
        .run(&dataset.source, &dataset.target);
    let full_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let blocked = MatchingEngine::new(rule.clone()).run(&dataset.source, &dataset.target);
    let blocked_ms = start.elapsed().as_secs_f64() * 1e3;

    let full_set: HashSet<(&str, &str)> = full
        .links
        .iter()
        .map(|l| (l.source.as_str(), l.target.as_str()))
        .collect();
    let blocked_set: HashSet<(&str, &str)> = blocked
        .links
        .iter()
        .map(|l| (l.source.as_str(), l.target.as_str()))
        .collect();
    let recall = if full_set.is_empty() {
        1.0
    } else {
        full_set.intersection(&blocked_set).count() as f64 / full_set.len() as f64
    };
    let spurious = blocked_set.difference(&full_set).count();
    let evaluated_fraction = if blocked.cross_product == 0 {
        0.0
    } else {
        blocked.evaluated_pairs as f64 / blocked.cross_product as f64
    };

    println!(
        "full:    {:>8} pairs evaluated, {:>5} links, {full_ms:>9.1} ms",
        full.evaluated_pairs,
        full.links.len()
    );
    println!(
        "blocked: {:>8} pairs evaluated ({:.1}% of cross product), {:>5} links, {blocked_ms:>9.1} ms",
        blocked.evaluated_pairs,
        evaluated_fraction * 100.0,
        blocked.links.len()
    );
    println!("recall vs full: {recall:.4} ({spurious} spurious links)");
    let leaves_built = blocked
        .comparison_stats
        .iter()
        .filter(|stats| stats.built)
        .count();
    let leaves_skipped = blocked.comparison_stats.len() - leaves_built;
    println!(
        "leaves: {leaves_built} built, {leaves_skipped} skipped; blocked {blocked_ms:.1} ms vs full \
         {full_ms:.1} ms"
    );
    for stats in &blocked.comparison_stats {
        println!(
            "  block [{}]: {}, {} blocks, {} postings, {}/{} entities indexed, {} candidates",
            stats.label,
            if stats.built { "built" } else { "skipped" },
            stats.blocks,
            stats.postings,
            stats.indexed_entities,
            dataset.target.len(),
            stats.candidates
        );
    }
    println!();

    WorkloadResult {
        name,
        cross_product: blocked.cross_product,
        evaluated_pairs: blocked.evaluated_pairs,
        evaluated_fraction,
        links: blocked.links.len(),
        recall,
        full_ms,
        blocked_ms,
        leaves_built,
        leaves_skipped,
        gate_reduction: true,
    }
}

fn cora_workload() -> (Dataset, LinkageRule) {
    let dataset = DatasetKind::Cora.generate(0.25, 42);
    // titles carry case noise plus up to one typo: lower-casing plus an edit
    // budget of 1 (θ=3 at link threshold 0.5 → distance bound 1.5) matches
    // every true pair without any exact-token anchor
    let rule: LinkageRule = compare(
        transform(TransformFunction::LowerCase, vec![property("title")]),
        transform(TransformFunction::LowerCase, vec![property("title")]),
        DistanceFunction::Levenshtein,
        3.0,
    )
    .into();
    (dataset, rule)
}

fn restaurant_workload(scale: f64) -> (Dataset, LinkageRule) {
    let dataset = DatasetKind::Restaurant.generate(scale, 42);
    // conjunction of a fuzzy name comparison and a normalised phone
    // comparison: the plan intersects both candidate sets
    let rule: LinkageRule = aggregation(
        AggregationFunction::Min,
        vec![
            compare(
                transform(TransformFunction::LowerCase, vec![property("name")]),
                transform(TransformFunction::LowerCase, vec![property("name")]),
                DistanceFunction::Levenshtein,
                2.0,
            ),
            compare(
                transform(TransformFunction::DigitsOnly, vec![property("phone")]),
                transform(TransformFunction::DigitsOnly, vec![property("phone")]),
                DistanceFunction::Levenshtein,
                1.0,
            ),
        ],
    )
    .into();
    (dataset, rule)
}

fn restaurant_phone_workload() -> (Dataset, LinkageRule) {
    let dataset = DatasetKind::Restaurant.generate(1.0, 7);
    // phone numbers only, compared through digitsOnly: "310-246-1501" and
    // "3102461501" share no exact token — MultiBlock blocks on the
    // *transformed* values
    let rule: LinkageRule = compare(
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        DistanceFunction::Levenshtein,
        1.0,
    )
    .into();
    (dataset, rule)
}

/// Learns a rule on the restaurant reference links (fixed seed, small
/// search budget) and benchmarks blocking on what the learner produced.
fn learned_restaurant_workload() -> (Dataset, LinkageRule) {
    use genlink::{GenLink, GenLinkConfig};
    let dataset = DatasetKind::Restaurant.generate(0.5, 42);
    let mut config = GenLinkConfig::fast();
    config.gp.population_size = 60;
    config.gp.max_iterations = 10;
    let outcome = GenLink::new(config).learn(&dataset.source, &dataset.target, &dataset.links, 42);
    println!(
        "learned rule (restaurant, seed 42): {}\n",
        linkdisc_rule::print_rule(&outcome.rule)
    );
    (dataset, outcome.rule)
}

fn main() {
    let out_path = std::env::var("GENLINK_BENCH_MATCH_OUT")
        .unwrap_or_else(|_| "BENCH_matching.json".to_string());
    println!("=== MultiBlock matching benchmark ===\n");

    let mut results = Vec::new();
    let (dataset, rule) = cora_workload();
    results.push(run_workload("cora", &dataset, rule));
    let (dataset, rule) = restaurant_workload(1.0);
    results.push(run_workload("restaurant", &dataset, rule));
    let (dataset, rule) = restaurant_workload(10.0);
    results.push(run_workload("restaurant-x10", &dataset, rule));
    let (dataset, rule) = restaurant_phone_workload();
    results.push(run_workload("restaurant-phone", &dataset, rule));
    let (dataset, rule) = learned_restaurant_workload();
    let mut learned = run_workload("restaurant-learned", &dataset, rule);
    learned.gate_reduction = false;
    results.push(learned);

    let mut failures = Vec::new();
    for result in &results {
        if result.recall < 1.0 {
            failures.push(format!(
                "{}: recall {:.4} < 1.0 — MultiBlock lost true links",
                result.name, result.recall
            ));
        }
        if result.gate_reduction && result.evaluated_fraction >= MAX_EVALUATED_FRACTION {
            failures.push(format!(
                "{}: evaluated {:.1}% of the cross product (gate: < {:.0}%)",
                result.name,
                result.evaluated_fraction * 100.0,
                MAX_EVALUATED_FRACTION * 100.0
            ));
        }
    }
    let workloads_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"cross_product\": {},\n      \"evaluated_pairs\": {},\n      \"evaluated_fraction\": {:.4},\n      \"reduction_ratio\": {:.4},\n      \"links\": {},\n      \"recall_vs_full\": {:.4},\n      \"full_ms\": {:.1},\n      \"blocked_ms\": {:.1},\n      \"leaves_built\": {},\n      \"leaves_skipped\": {},\n      \"gate_reduction\": {}\n    }}",
                r.name,
                r.cross_product,
                r.evaluated_pairs,
                r.evaluated_fraction,
                1.0 - r.evaluated_fraction,
                r.links,
                r.recall,
                r.full_ms,
                r.blocked_ms,
                r.leaves_built,
                r.leaves_skipped,
                r.gate_reduction
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"max_evaluated_fraction_gate\": {MAX_EVALUATED_FRACTION},\n  \"recall_gate\": 1.0,\n  \"workloads\": [\n{}\n  ]\n}}\n",
        workloads_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("cannot write benchmark output");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    println!("all gates passed: recall == 1.0 and < 5% of the cross product evaluated");
}
