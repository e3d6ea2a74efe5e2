//! The names the benchmark promises: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with the end-to-end metric each should
//! move.  `BENCHMARK.json` at the repository root states the same tables
//! (of the workloads, the gated ones); a unit test keeps the two in step.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: what it runs, at what size, and which layers it stresses.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so a later change is held to its bounds.
    /// The check that gates changes has an hour for all its runs, and on a
    /// shared two-core host a run must be long to read steadily: four
    /// workloads of 25 s fit, eight of 8 s were refused as too noisy.  The
    /// others are run by `linkbench run` all the same.  Not gated are the
    /// workloads that use a gated one's layers another way (`learn_steady`,
    /// `match_stream`) and the durable ones, whose operations wait for the
    /// sandbox's disk (identical 20 s runs of `serve_churn` read 11 % apart
    /// in `ops_per_s` and 27 % in `op_tail_ms`): a time bound on those
    /// would gate the disk's neighbours, not the code.
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "learn_gen",
        why: "GenLink::learn, generational, 16 samples of Cora x0.1 in turn, population 80 x 5 generations, early stop off: long strings, so kernels and compiled evaluation dominate",
        gated: true,
    },
    WorkloadSpec {
        name: "learn_steady",
        why: "same learner, steady-state pipeline, 8 samples of SiderDrugBank x0.35, population 100 x 5: no generation barrier; seeding, breeding, compile and leaf-index reuse dominate",
        gated: false,
    },
    WorkloadSpec {
        name: "match_dense",
        why: "MatchingEngine::run, Cora x1 (1,886 x 1,886), union rule keeps 20% of the cross product: evaluation-bound (kernels, value cache, bounded plan)",
        gated: true,
    },
    WorkloadSpec {
        name: "match_sparse",
        why: "same call, Restaurant x100 (42,560 x 42,560), conjunction keeps 2e-5 of the cross product: index build and posting-list intersection, evaluation almost none",
        gated: true,
    },
    WorkloadSpec {
        name: "match_stream",
        why: "match_dense cut into 8 x 8 chunks (block-nested loop): bounded memory instead of speed, target index rebuilt per source chunk",
        gated: false,
    },
    WorkloadSpec {
        name: "serve_read",
        why: "LinkService, Restaurant x50 (10,640 served, 21,280 probes, half match), 3 rules, one closed-loop client per thread, 70/20/10 query/query_rule/committee: read-only hot path",
        gated: true,
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "DurableService, Cora x2, one writer doing acknowledged remove+insert (one op each), ingest batches, a compact; a reader beside it from 2 threads on: WAL, fsync, epoch publication",
        gated: false,
    },
    WorkloadSpec {
        name: "serve_recover",
        why: "DurableService::recover of a crashed Cora x1 store (checkpoint + 65-epoch log tail, every third copy torn) until the first correct answer: restore and replay",
        gated: false,
    },
];

/// The workloads `BENCHMARK.json` lists.
pub fn gated() -> impl Iterator<Item = &'static WorkloadSpec> {
    WORKLOADS.iter().filter(|workload| workload.gated)
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer only: the end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

/// Every workload reports every one of these; what an "operation" is
/// depends on the workload (a learning job, a matching job, a query, an
/// acknowledged write, a recovery).  The order is the order
/// `workloads::run_end_to_end` fills them in.
///
/// The timing bounds are as wide as the contract allows because the build
/// host is two cores of a shared machine: a compute-bound operation takes
/// half as long again while another tenant has the core's sibling thread,
/// and over an hour the same binary reads a fifth slower or faster.  A
/// tighter bound would refuse changes for the host's weather.
pub const END_TO_END: [MetricSpec; 6] = [
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    end_to_end("op_p50_ms", "ms", Better::Lower, 0.24),
    end_to_end("op_tail_ms", "ms", Better::Lower, 0.24),
    end_to_end("ops_per_s", "1/s", Better::Higher, 0.24),
    end_to_end("peak_rss_mb", "MiB", Better::Lower, 0.20),
    end_to_end("link_f1", "F1", Better::Higher, 0.08),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// Measured by the traced run from the benchmark's own spans around calls
/// into each layer.  A workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("trace.coverage", "ratio", Higher, "time the layer calls account for / untraced operation; outside 0.8-1.2 the decomposition misses a stage"),
    layer("trace.overhead", "ratio", Lower, "traced job / untraced job wall time (1 where the operation itself is not re-run traced)"),
    // util
    layer("util.epoch.load_ns", "ns", Lower, "op_p50_ms on serve_read"),
    layer("util.epoch.publish_us", "us", Lower, "op_p50_ms on serve_churn"),
    layer("util.channel.roundtrip_ns", "ns", Lower, "op_p50_ms on learn_steady"),
    // entity
    layer("entity.resolve_links_ms", "ms", Lower, "op_p50_ms on learn_gen, learn_steady"),
    layer("entity.store.insert_ns", "ns", Lower, "op_p50_ms on serve_churn"),
    layer("entity.store.remove_ns", "ns", Lower, "op_p50_ms on serve_churn"),
    // transform
    layer("transform.lower_case_ns", "ns", Lower, "op_p50_ms on match_stream, learn_gen (cache-miss path); none on serve_read"),
    layer("transform.tokenize_ns", "ns", Lower, "op_p50_ms on match_stream, learn_gen; none on serve_read"),
    layer("transform.digits_only_ns", "ns", Lower, "op_p50_ms on match_sparse, setup_s on serve_read"),
    // similarity
    layer("similarity.levenshtein_ns_per_pair", "ns", Lower, "op_p50_ms on match_dense, learn_gen; none on match_sparse"),
    layer("similarity.jaccard_ns_per_pair", "ns", Lower, "op_p50_ms on match_dense, learn_gen; none on match_sparse"),
    layer("similarity.numeric_ns_per_pair", "ns", Lower, "op_p50_ms on learn_steady"),
    layer("similarity.kernel_fast_path_ratio", "ratio", Higher, "op_p50_ms on match_dense, match_stream"),
    // rule
    layer("rule.compile_us_per_rule", "us", Lower, "op_p50_ms on learn_steady"),
    layer("rule.plan_lower_us_per_rule", "us", Lower, "op_p50_ms on learn_steady"),
    layer("rule.eval_ns_per_pair", "ns", Lower, "op_p50_ms on match_dense, match_stream; none on match_sparse"),
    layer("rule.eval_cold_ns_per_pair", "ns", Lower, "op_p50_ms on match_stream (fresh caches per chunk)"),
    layer("rule.eval_warm_ns_per_pair", "ns", Lower, "op_p50_ms on match_dense"),
    layer("rule.value_cache_hit_ratio", "ratio", Higher, "op_p50_ms on match_dense"),
    layer("rule.skip_ratio", "ratio", Higher, "op_p50_ms on match_dense, match_stream"),
    // evaluation
    layer("evaluation.score_links_us_per_rule", "us", Lower, "op_p50_ms on learn_gen"),
    // gp
    layer("gp.generation_s_p50", "s", Lower, "op_p50_ms on learn_gen"),
    layer("gp.breed_us_per_offspring", "us", Lower, "op_p50_ms on learn_gen, learn_steady"),
    layer("gp.fitness_cache_hit_ratio", "ratio", Higher, "op_p50_ms on learn_gen"),
    layer("gp.pipeline.utilization", "ratio", Higher, "op_p50_ms on learn_steady"),
    layer("gp.pipeline.idle_s", "s", Lower, "op_p50_ms on learn_steady"),
    layer("gp.pipeline.evals_per_s", "1/s", Higher, "ops_per_s on learn_steady"),
    // core
    layer("core.seeding_s", "s", Lower, "op_p50_ms on learn_steady"),
    layer("core.random_rule_us", "us", Lower, "op_p50_ms on learn_steady"),
    layer("core.crossover_us", "us", Lower, "op_p50_ms on learn_steady"),
    layer("core.fitness.prepare_s", "s", Lower, "op_p50_ms on learn_gen, learn_steady"),
    layer("core.fitness.evaluate_us_per_rule", "us", Lower, "op_p50_ms on learn_gen, learn_steady"),
    layer("core.leaf_reuse_hit_ratio", "ratio", Higher, "op_p50_ms on learn_gen, learn_steady"),
    // matching: candidate index
    layer("matching.multiblock.build_s", "s", Lower, "op_p50_ms on match_sparse, match_stream; setup_s on serve_read"),
    layer("matching.multiblock.candidates_us_per_source", "us", Lower, "op_p50_ms on match_sparse, serve_read"),
    layer("matching.multiblock.candidates_per_source", "count", Lower, "op_p50_ms on match_dense"),
    layer("matching.multiblock.insert_us", "us", Lower, "op_p50_ms on serve_churn"),
    layer("matching.multiblock.remove_us", "us", Lower, "op_p50_ms on serve_churn"),
    // matching: engine
    layer("matching.engine.evaluated_fraction", "ratio", Lower, "op_p50_ms on match_dense, match_stream"),
    layer("matching.engine.links_per_evaluated_pair", "ratio", Higher, "op_p50_ms on match_dense"),
    layer("matching.engine.overhead_s", "s", Lower, "op_p50_ms on match_dense, match_sparse, match_stream"),
    layer("matching.engine.index_builds", "count", Lower, "op_p50_ms on match_stream"),
    layer("matching.engine.exhaustive_s", "s", Lower, "the reference blocking is held against (quarter of the sources)"),
    layer("matching.engine.blocked_vs_exhaustive_ratio", "ratio", Lower, "op_p50_ms on match_dense (ROADMAP anomaly: blocking barely beats the cross product)"),
    layer("matching.engine.stream_vs_batch_ratio", "ratio", Lower, "op_p50_ms on match_stream (ROADMAP anomaly: chunked far slower than resident)"),
    // matching: service
    layer("matching.service.build_s", "s", Lower, "setup_s on serve_read, serve_churn, serve_recover"),
    layer("matching.service.query_us", "us", Lower, "op_p50_ms on serve_read"),
    layer("matching.service.query_rule_us", "us", Lower, "op_p50_ms, op_tail_ms on serve_read"),
    layer("matching.service.committee_query_us", "us", Lower, "op_tail_ms on serve_read"),
    layer("matching.service.insert_us", "us", Lower, "op_p50_ms on serve_churn"),
    layer("matching.service.remove_us", "us", Lower, "op_p50_ms on serve_churn"),
    layer("matching.service.ingest_us_per_entity", "us", Lower, "ops_per_s on serve_churn (ingest batches)"),
    layer("matching.service.publish_us", "us", Lower, "op_p50_ms on serve_churn (by difference: insert - ingest per entity; no public call isolates it)"),
    layer("matching.service.register_rule_warm_ms", "ms", Lower, "setup_s on serve_read"),
    layer("matching.service.replace_rule_ms", "ms", Lower, "setup_s on serve_read"),
    layer("matching.sharded.query_us", "us", Lower, "merge cost over matching.service.query_us"),
    layer("matching.sharded.ingest_s", "s", Lower, "setup_s of a sharded store"),
    // matching: durability
    layer("matching.durable.insert_us", "us", Lower, "op_p50_ms on serve_churn"),
    layer("matching.durable.remove_us", "us", Lower, "op_p50_ms on serve_churn"),
    layer("matching.wal.self_us_per_op", "us", Lower, "op_p50_ms, op_tail_ms on serve_churn"),
    layer("matching.wal.bytes_per_op", "bytes", Lower, "op_p50_ms on serve_churn, serve_recover"),
    layer("matching.durable.ingest_batch_ms", "ms", Lower, "op_tail_ms on serve_churn"),
    layer("matching.durable.compact_s", "s", Lower, "op_tail_ms on serve_churn"),
    layer("matching.durable.recover_s", "s", Lower, "op_p50_ms on serve_recover"),
    layer("matching.durable.replay_us_per_epoch", "us", Lower, "op_p50_ms on serve_recover"),
    layer("matching.persist.save_s", "s", Lower, "op_p50_ms on serve_recover; setup_s on serve_churn"),
    layer("matching.persist.restore_s", "s", Lower, "op_p50_ms on serve_recover"),
    layer("matching.persist.bytes_per_entity", "bytes", Lower, "op_p50_ms on serve_recover"),
    layer("matching.persist.restore_vs_build_ratio", "ratio", Higher, "op_p50_ms on serve_recover (ROADMAP anomaly: restore only ~1.6x faster than build)"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_stay_within_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        for workload in &WORKLOADS {
            assert!(valid_name(workload.name), "{}", workload.name);
            assert!(workload.why.chars().count() <= 200, "{}", workload.name);
            assert!(!workload.why.contains('\n'));
            names.push(workload.name);
        }
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}", metric.unit);
            names.push(metric.name);
        }
        for metric in &END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|metric| metric.bound <= setup.bound));
        assert!((2..=8).contains(&gated().count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints.  They must say the same.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = file
            .as_object()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text = |json: &Json, key: &str| json.get(key).unwrap().as_str().unwrap().to_string();
        let listed = file.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), gated().count());
        for (listed, workload) in listed.iter().zip(gated()) {
            assert_eq!(text(listed, "name"), workload.name);
            assert_eq!(text(listed, "why"), workload.why);
        }
        let listed = file.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (listed, metric) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(listed, "name"), metric.name);
            assert_eq!(text(listed, "unit"), metric.unit);
            assert_eq!(text(listed, "better"), metric.better.as_str());
            assert_eq!(listed.get("bound").unwrap().as_f64(), Some(metric.bound));
        }
        let listed = file.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (listed, metric) in listed.iter().zip(PER_LAYER) {
            assert_eq!(text(listed, "name"), metric.name);
            assert_eq!(text(listed, "unit"), metric.unit);
            assert_eq!(text(listed, "better"), metric.better.as_str());
        }
    }
}
