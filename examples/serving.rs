//! Serving demo: a long-lived `LinkService` answering single-entity match
//! queries against a live-updating target set, concurrent reads under
//! writer churn, a sharded store with one writer thread per shard,
//! snapshot persistence (save → restart → restore → query), per-shard
//! crash safety (write-ahead logged mutations → crash → recover → query),
//! plus the engine's chunked matching, which binds and indexes one slice of
//! each side at a time.
//!
//! Run with `cargo run --release -p genlink-examples --example serving`.

use genlink_examples::section;
use linkdisc_datasets::DatasetKind;
use linkdisc_matching::{
    DurabilityOptions, DurableService, LinkService, MatchingEngine, MatchingOptions,
    ServiceOptions, ShardedService,
};
use linkdisc_rule::{
    aggregation, compare, property, transform, AggregationFunction, DistanceFunction, LinkageRule,
    TransformFunction,
};

fn rule() -> LinkageRule {
    // name (fuzzy, lower-cased) AND phone (digits only): the conjunction the
    // matching benchmark uses
    aggregation(
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
    .into()
}

/// A looser name-only rule — its single comparison is byte-identical to the
/// conjunction's first operand, so registering it builds **no** new leaf
/// index: the leaf pool already holds one for that (chain, measure, bound).
fn name_only() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("name")]),
        transform(TransformFunction::LowerCase, vec![property("name")]),
        DistanceFunction::Levenshtein,
        2.0,
    )
    .into()
}

/// A stricter name rule (edit distance 1 instead of 2): hot-swapped in for
/// `name_only` below.  The tighter bound keys a *different* leaf, so the
/// swap builds one leaf and publishes one epoch.
fn name_strict() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("name")]),
        transform(TransformFunction::LowerCase, vec![property("name")]),
        DistanceFunction::Levenshtein,
        1.0,
    )
    .into()
}

/// A phone-only rule sharing the conjunction's second leaf.
fn phone_only() -> LinkageRule {
    compare(
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        transform(TransformFunction::DigitsOnly, vec![property("phone")]),
        DistanceFunction::Levenshtein,
        1.0,
    )
    .into()
}

fn main() {
    let dataset = DatasetKind::Restaurant.generate(0.5, 7);
    println!(
        "restaurant dataset: {} query entities, {} target entities",
        dataset.source.len(),
        dataset.target.len()
    );

    section("build a serving index (its leaves split across all cores)");
    let mut service = LinkService::build(
        rule(),
        dataset.source.schema(),
        &dataset.target,
        ServiceOptions::default(),
    )
    .unwrap();
    for stats in service.writer().stats() {
        println!(
            "indexed [{}]: {} blocks, {} postings, {} entities",
            stats.label, stats.blocks, stats.postings, stats.indexed_entities
        );
    }

    section("single-entity queries at interactive latency");
    for entity in dataset.source.entities().iter().take(3) {
        let links = service.reader().query(entity);
        let best = links
            .first()
            .map(|l| format!("{} (score {:.3})", l.target, l.score))
            .unwrap_or_else(|| "no match".to_string());
        println!(
            "query {:28} -> {} match(es), best: {}",
            entity.id(),
            links.len(),
            best
        );
    }

    section("live updates: remove and re-insert a served entity");
    let probe = &dataset.source.entities()[0];
    let best_target = service.reader().query(probe)[0].target.clone();
    println!("best match of {}: {}", probe.id(), best_target);
    service.remove(&best_target);
    println!(
        "after removing {}: {} match(es)",
        best_target,
        service.reader().query(probe).len()
    );
    let restored = dataset
        .target
        .entities()
        .iter()
        .find(|e| e.id() == best_target)
        .expect("the removed entity came from the target source");
    service.insert(restored).unwrap();
    println!(
        "after re-inserting:  {} match(es) — served immediately",
        service.reader().query(probe).len()
    );

    section("multi-rule serving: one store, shared leaf indexes");
    // warm registration: both new rules re-use leaves the conjunction
    // already built, so each registration is one epoch publish, not an
    // index rebuild
    let before = service.writer().leaf_pool_stats();
    service.register_rule("name-only", name_only()).unwrap();
    service.register_rule("phone-only", phone_only()).unwrap();
    let after = service.writer().leaf_pool_stats();
    println!(
        "registered 2 rules warm: {} leaf re-use(s), {} new leaf build(s); \
         {} pooled leaves now serve {} plan slots across {} rules",
        after.hits - before.hits,
        after.misses - before.misses,
        after.entries,
        after.refs,
        service.writer().rule_count()
    );
    for entity in dataset.source.entities().iter().take(2) {
        println!(
            "query {:28} -> conjunction {}, name-only {}, phone-only {} match(es)",
            entity.id(),
            service.reader().query(entity).len(),
            service
                .reader()
                .query_rule("name-only", entity)
                .unwrap()
                .len(),
            service
                .reader()
                .query_rule("phone-only", entity)
                .unwrap()
                .len(),
        );
    }

    // query-by-committee: one pinned epoch, every registered rule votes
    let committee = service.reader().query_committee(probe);
    if let Some(best) = committee.first() {
        println!(
            "committee on {}: best {} with {}/{} votes (mean score {:.3})",
            probe.id(),
            best.target,
            best.votes,
            best.committee,
            best.mean_score
        );
    }

    // hot swap: replace the name rule with a stricter variant — readers
    // switch atomically at the next epoch pin, mid-flight queries finish
    // on the epoch they pinned
    let version_before = service.writer().version();
    service.replace_rule("name-only", name_strict()).unwrap();
    println!(
        "hot-swapped name-only (edit distance 2 -> 1): one publish \
         (epoch {} -> {}), queries now return {} match(es) for {}",
        version_before,
        service.writer().version(),
        service
            .reader()
            .query_rule("name-only", probe)
            .unwrap()
            .len(),
        probe.id()
    );
    for stats in service.writer().rule_stats() {
        println!(
            "rule {:12} queries {:3}, candidates {:4}, leaf hits/misses {}/{}",
            stats.rule, stats.queries, stats.candidates, stats.leaf_hits, stats.leaf_misses
        );
    }
    // deregistering drops leaf references; leaves held by nobody else are
    // freed (the conjunction still holds the shared phone leaf)
    service.deregister_rule("phone-only").unwrap();
    println!(
        "deregistered phone-only: {} pooled leaves, {} plan slots remain",
        service.writer().leaf_pool_stats().entries,
        service.writer().leaf_pool_stats().refs
    );

    section("concurrent serving: readers query while the writer churns");
    let (mut writer, reader) = service.split();
    let probes: Vec<_> = dataset.source.entities().iter().take(8).cloned().collect();
    let victims: Vec<_> = dataset.target.entities().iter().take(16).cloned().collect();
    let queries_run = std::sync::atomic::AtomicU64::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let reader = reader.clone(); // one cheap reader clone per thread
            let (probes, stop, queries_run) = (&probes, &stop, &queries_run);
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for probe in probes {
                        // each query pins one consistent epoch, no locks held
                        reader.query(probe);
                        queries_run.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
        // the writer keeps removing and re-inserting entities meanwhile;
        // every mutation publishes a new copy-on-write epoch
        for round in 0..50 {
            let victim = &victims[round % victims.len()];
            writer.remove(victim.id());
            writer.insert(victim).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    println!(
        "writer published {} epochs while readers answered {} queries",
        writer.version(),
        queries_run.load(std::sync::atomic::Ordering::Relaxed)
    );

    section("sharded serving: one writer thread per shard, merged reads");
    // the store partitions by an entity-id hash into 4 independent shards —
    // own index, own epoch chain — so 4 threads mutate with no shared lock
    let sharded = ShardedService::build(
        rule(),
        dataset.source.schema(),
        &dataset.target,
        4,
        ServiceOptions::default(),
    )
    .unwrap();
    for probe in dataset.source.entities().iter().take(16) {
        assert_eq!(
            sharded.query(probe),
            reader.query(probe),
            "sharding is lossless"
        );
    }
    println!(
        "4 shards serve {} entities; sharded == unsharded answers: true",
        sharded.len()
    );
    let router = sharded.router();
    let (shard_writers, sharded_reader) = sharded.split();
    let churn_victims: Vec<_> = dataset.target.entities().iter().take(32).cloned().collect();
    let sharded_queries = std::sync::atomic::AtomicU64::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer_handles: Vec<_> = shard_writers
            .into_iter()
            .enumerate()
            .map(|(shard, mut writer)| {
                // disjoint routing: each writer thread churns only the
                // victims that hash to its shard
                let victims: Vec<_> = churn_victims
                    .iter()
                    .filter(|v| router.route(v.id()) == shard)
                    .cloned()
                    .collect();
                scope.spawn(move || {
                    for _ in 0..25 {
                        for victim in &victims {
                            writer.remove(victim.id());
                            writer.insert(victim).unwrap();
                        }
                    }
                    writer.version()
                })
            })
            .collect();
        for _ in 0..2 {
            let reader = sharded_reader.clone();
            let (probes, stop, sharded_queries) = (&probes, &stop, &sharded_queries);
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for probe in probes {
                        // each query pins one epoch *per shard*
                        reader.query(probe);
                        sharded_queries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
        let epochs: u64 = writer_handles
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .sum();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        println!(
            "4 shard writers published {} epochs while readers answered {} queries",
            epochs,
            sharded_queries.load(std::sync::atomic::Ordering::Relaxed)
        );
    });

    section("persistence: save -> restart -> restore -> query");
    let mut snapshot: Vec<u8> = Vec::new();
    writer.save_snapshot(&mut snapshot).unwrap();
    println!(
        "snapshot: {} KiB for {} entities (values interned on disk)",
        snapshot.len() / 1024,
        writer.len()
    );
    drop(writer); // "restart": the whole service is gone
                  // the snapshot carries a rule manifest (name + canonical hash per
                  // registered rule); restore resolves it against a catalog by hash, so
                  // catalog order and naming are free
    let catalog = vec![
        ("conjunction".to_string(), rule()),
        ("name-strict".to_string(), name_strict()),
    ];
    let restored =
        LinkService::restore_with_rules(&catalog, dataset.source.schema(), &snapshot[..])
            .expect("snapshot restores under a catalog naming every registered rule");
    println!(
        "restored {} entities serving {} rules without re-deriving a single block key",
        restored.writer().len(),
        restored.writer().rule_count()
    );
    println!(
        "query {} -> {} match(es), same as before the restart",
        probe.id(),
        restored.reader().query(probe).len()
    );

    section("durability: write-ahead logged mutations survive a crash");
    let durable_dir = std::env::temp_dir().join(format!("genlink-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    let mut durable = DurableService::create(
        &durable_dir,
        rule(),
        dataset.source.schema(),
        &dataset.target,
        ServiceOptions::default(),
        DurabilityOptions::default(),
    )
    .expect("fresh durable directory");
    // every mutation is appended to the write-ahead log and fsynced
    // *before* it is acknowledged — then the process "crashes"
    let victim = dataset.target.entities()[0].clone();
    durable.remove(victim.id()).unwrap();
    durable.insert(&victim).unwrap();
    durable.remove(dataset.target.entities()[1].id()).unwrap();
    let pre_crash = durable.reader().query(probe);
    println!(
        "acknowledged {} mutations (generation {}, log {} bytes) — crashing now",
        durable.seq(),
        durable.generation(),
        durable.log_bytes()
    );
    drop(durable); // the crash: only fsynced bytes survive

    let (recovered, report) = DurableService::recover(
        &durable_dir,
        rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    )
    .expect("recovery restores the checkpoint and replays the log tail");
    println!(
        "recovered from checkpoint generation {} + {} replayed epoch(s)",
        report.checkpoint_generation, report.replayed_epochs
    );
    let recovered_links = recovered.reader().query(probe);
    assert_eq!(
        recovered_links, pre_crash,
        "recovery must restore the pre-crash state"
    );
    println!(
        "query {} -> {} match(es) — identical to the pre-crash state",
        probe.id(),
        recovered_links.len()
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&durable_dir);

    section("sharded durability: every shard keeps its own log chain");
    let sharded_dir =
        std::env::temp_dir().join(format!("genlink-serving-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sharded_dir);
    let mut sharded_durable = ShardedService::create(
        &sharded_dir,
        rule(),
        dataset.source.schema(),
        &dataset.target,
        3,
        ServiceOptions::default(),
        DurabilityOptions::default(),
    )
    .expect("fresh durable directory");
    // each mutation logs, fsyncs and publishes on its routed shard only —
    // shard appends and compactions never wait on each other
    for victim in dataset.target.entities().iter().take(6) {
        sharded_durable.remove(victim.id()).unwrap();
        sharded_durable.insert(victim).unwrap();
    }
    let sharded_pre_crash = sharded_durable.query(probe);
    println!(
        "acknowledged {} mutations across 3 shard chains under {} — crashing now",
        sharded_durable.seq(),
        sharded_dir.display()
    );
    drop(sharded_durable); // the crash

    let (sharded_recovered, reports) = ShardedService::recover(
        &sharded_dir,
        rule(),
        dataset.source.schema(),
        DurabilityOptions::default(),
    )
    .expect("per-shard recovery");
    for (shard, report) in reports.iter().enumerate() {
        println!(
            "shard {shard}: checkpoint generation {} + {} replayed epoch(s)",
            report.checkpoint_generation, report.replayed_epochs
        );
    }
    let sharded_links = sharded_recovered.query(probe);
    assert_eq!(
        sharded_links, sharded_pre_crash,
        "sharded recovery must restore the pre-crash state"
    );
    println!(
        "query {} -> {} match(es) — identical to the pre-crash state",
        probe.id(),
        sharded_links.len()
    );
    drop(sharded_recovered);
    let _ = std::fs::remove_dir_all(&sharded_dir);

    section("chunked matching: one slice of each side bound at a time");
    let batch = MatchingEngine::new(rule()).run(&dataset.source, &dataset.target);
    // the source is cut into chunks of 48, the target into chunks of 64;
    // each target chunk is bound and indexed once and every source chunk is
    // scored against it, so only one chunk of each side is bound at a time
    let chunked = MatchingEngine::new(rule())
        .with_options(MatchingOptions {
            chunk_size: 64,
            source_chunk_size: 48,
            ..MatchingOptions::default()
        })
        .run(&dataset.source, &dataset.target);
    println!(
        "{} source chunks x {} target chunks; peak bound {} + {} of {} + {} entities",
        chunked.source_chunks,
        chunked.chunks,
        chunked.peak_source_chunk_entities,
        chunked.peak_chunk_entities,
        chunked.source_entities,
        chunked.target_entities
    );
    assert_eq!(
        chunked.links, batch.links,
        "chunked matching must find the batch links"
    );
    println!(
        "chunked links == batch links: true ({} links)",
        chunked.links.len()
    );
}
