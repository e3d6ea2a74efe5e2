//! The deterministic fault-injection harness (ISSUE: kill the writer at
//! *every* failpoint): enumerates each injection point hit by a scripted
//! durable workload, re-runs the workload once per `(point, occurrence)`
//! with that hit armed to fail — including torn (prefix-only) writes — and
//! asserts that recovery never panics and never loses an acknowledged
//! epoch.
//!
//! The oracle is bit-identical snapshot equality: after a kill at op `m`,
//! the recovered state must equal the sequential replay of either the
//! `m-1` acknowledged ops or (when the log record survived the crash) all
//! `m` — both are supersets of everything acknowledged.  The run then
//! finishes the script on the recovered service and must land on the same
//! final state as an undisturbed run.
//!
//! A second harness does the same to a **sharded** durable store and
//! additionally asserts shard isolation: a kill inside one shard's WAL or
//! compaction leaves every other shard's chain individually recoverable,
//! and the sharded recovery returns one `RecoveryReport` per shard.
//!
//! Requires `--features failpoints`; the failpoint registry is
//! process-global, so the harnesses serialize on [`FAIL_REGISTRY`].
#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use linkdisc_entity::{Entity, Schema};
use linkdisc_matching::{
    DurabilityOptions, DurableError, DurableService, RecoveryError, ServiceOptions, ServiceWriter,
    ShardRouter, ShardedService,
};
use linkdisc_rule::{
    compare, property, transform, DistanceFunction, LinkageRule, TransformFunction,
};
use linkdisc_util::fail;

/// The failpoint registry is one per process: tests that arm it must not
/// overlap.  Every `#[test]` in this file takes this lock first.
static FAIL_REGISTRY: Mutex<()> = Mutex::new(());

fn rule() -> LinkageRule {
    compare(
        transform(TransformFunction::LowerCase, vec![property("name")]),
        transform(TransformFunction::LowerCase, vec![property("name")]),
        DistanceFunction::Levenshtein,
        2.0,
    )
    .into()
}

/// The rules the registry workload serves; index 0 is the construction
/// default.  `1` shares no leaf with `0` (untransformed chain), `2` runs on
/// the other property — registering and dropping them churns the leaf pool
/// as well as the manifest.
fn rules_pool() -> Vec<LinkageRule> {
    vec![
        rule(),
        compare(
            property("name"),
            property("name"),
            DistanceFunction::Levenshtein,
            1.0,
        )
        .into(),
        compare(
            property("phone"),
            property("phone"),
            DistanceFunction::Levenshtein,
            1.0,
        )
        .into(),
    ]
}

/// Recovery catalog naming every rule the workloads ever serve (manifest
/// entries resolve against it by canonical hash).
fn catalog() -> Vec<(String, LinkageRule)> {
    rules_pool()
        .into_iter()
        .enumerate()
        .map(|(i, rule)| (format!("rule-{i}"), rule))
        .collect()
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(["name", "phone"]))
}

/// Ten target entities with deliberately repeated names so the log's
/// string interning is exercised.
fn entities(schema: &Arc<Schema>) -> Vec<Entity> {
    (0..10)
        .map(|i| {
            Entity::new(
                format!("t{i}"),
                schema.clone(),
                vec![
                    vec![format!("restaurant-{}", i % 3)],
                    vec![format!("555-01{i:02}")],
                ],
            )
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Ingest(Vec<usize>),
    Insert(usize),
    Remove(usize),
    /// Register `rules_pool()[i]` under a name (a rule-manifest log record).
    Register(&'static str, usize),
    /// Hot-swap the rule under a name for `rules_pool()[i]`.
    Replace(&'static str, usize),
    Deregister(&'static str),
}

/// The scripted workload: churn with re-inserted ids (slot recycling) and
/// enough volume that the tiny log budget forces several compactions.
fn script() -> Vec<Op> {
    vec![
        Op::Ingest(vec![0, 1, 2, 3]),
        Op::Insert(4),
        Op::Insert(5),
        Op::Remove(1),
        Op::Insert(6),
        Op::Remove(0),
        Op::Ingest(vec![7, 8]),
        Op::Insert(9),
        Op::Remove(4),
        Op::Insert(0),
        Op::Remove(7),
        Op::Insert(1),
    ]
}

fn apply_durable(
    service: &mut DurableService,
    pool: &[Entity],
    op: &Op,
) -> Result<(), linkdisc_matching::DurableError> {
    match op {
        Op::Ingest(batch) => {
            let batch: Vec<Entity> = batch.iter().map(|&i| pool[i].clone()).collect();
            service.ingest(&batch).map(|_| ())
        }
        Op::Insert(i) => service.insert(&pool[*i]).map(|_| ()),
        Op::Remove(i) => service.remove(pool[*i].id()).map(|removed| {
            assert!(removed, "the script only removes served ids");
        }),
        Op::Register(name, i) => service.register_rule(name, rules_pool()[*i].clone()),
        Op::Replace(name, i) => service.replace_rule(name, rules_pool()[*i].clone()),
        Op::Deregister(name) => service.deregister_rule(name),
    }
}

fn apply_shadow(writer: &mut ServiceWriter, pool: &[Entity], op: &Op) {
    match op {
        Op::Ingest(batch) => {
            let batch: Vec<Entity> = batch.iter().map(|&i| pool[i].clone()).collect();
            writer.ingest(&batch).unwrap();
        }
        Op::Insert(i) => {
            writer.insert(&pool[*i]).unwrap();
        }
        Op::Remove(i) => {
            assert!(writer.remove(pool[*i].id()));
        }
        Op::Register(name, i) => writer
            .register_rule(name, rules_pool()[*i].clone())
            .unwrap(),
        Op::Replace(name, i) => writer.replace_rule(name, rules_pool()[*i].clone()).unwrap(),
        Op::Deregister(name) => writer.deregister_rule(name).unwrap(),
    }
}

fn snapshot(writer: &ServiceWriter) -> Vec<u8> {
    let mut bytes = Vec::new();
    writer.save_snapshot(&mut bytes).unwrap();
    bytes
}

/// Snapshot bytes of a fresh writer that applied the first `upto` ops —
/// the sequential oracle the recovered state must match bit-identically.
fn shadow_snapshots(pool: &[Entity], ops: &[Op]) -> Vec<Vec<u8>> {
    let mut writer = ServiceWriter::empty(rule(), &schema(), &schema(), ServiceOptions::default());
    let mut snapshots = vec![snapshot(&writer)];
    for op in ops {
        apply_shadow(&mut writer, pool, op);
        snapshots.push(snapshot(&writer));
    }
    snapshots
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("linkdisc-faults-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const BUDGET: DurabilityOptions = DurabilityOptions {
    // tiny on purpose: the 12-op script then compacts several times, so
    // checkpoint/rename/retire points are hit mid-workload, not just at
    // creation
    log_budget_bytes: 256,
};

/// One armed run: create, apply the script until the armed failpoint
/// fires (if it ever does), recover, check the no-lost-epoch oracle,
/// finish the script, check the final state.  Returns whether the armed
/// point actually fired.
fn run_armed(tag: &str, pool: &[Entity], ops: &[Op], oracle: &[Vec<u8>]) -> bool {
    let dir = fresh_dir(tag);
    let ctx = |what: &str| format!("[{tag}] {what}");

    let mut service = match DurableService::create_empty(
        &dir,
        rule(),
        &schema(),
        &schema(),
        ServiceOptions::default(),
        BUDGET,
    ) {
        Ok(service) => Some(service),
        Err(err) => {
            // creation was killed: nothing was ever acknowledged, so both
            // "no durable state" and "an empty generation 0" are sound
            let fired = format!("{err}").contains("failpoint fired");
            assert!(fired, "{}", ctx("create may only fail by injection"));
            None
        }
    };

    // apply ops until the armed failpoint fires (acked = ops that returned Ok)
    let mut acked = 0usize;
    let mut killed = service.is_none();
    if let Some(service) = service.as_mut() {
        for op in ops {
            match apply_durable(service, pool, op) {
                Ok(()) => acked += 1,
                Err(err) => {
                    assert!(
                        format!("{err}").contains("failpoint fired"),
                        "{}: {err}",
                        ctx("ops may only fail by injection")
                    );
                    killed = true;
                    break;
                }
            }
        }
    }
    drop(service); // the "crash": only fsynced bytes count from here on

    if !killed {
        // the armed occurrence was never reached (occurrence counts shift a
        // little between clean and armed runs); still verify the clean end
        // state round-trips
        let (recovered, _) =
            DurableService::recover_with_rules(&dir, &catalog(), &schema(), BUDGET)
                .expect("clean recovery");
        assert_eq!(
            snapshot(recovered.writer()),
            oracle[ops.len()],
            "{}",
            ctx("clean run must recover to the final sequential state")
        );
        return false;
    }

    // recover after the kill
    let mut recovered =
        match DurableService::recover_with_rules(&dir, &catalog(), &schema(), BUDGET) {
            Ok((service, _report)) => service,
            Err(RecoveryError::NoCheckpoint(_)) => {
                assert_eq!(
                    acked,
                    0,
                    "{}",
                    ctx("no-durable-state is only sound when nothing was acknowledged")
                );
                return true;
            }
            Err(err) => panic!("{}: {err}", ctx("recovery failed")),
        };

    // the oracle: recovered state is the sequential replay of all acked
    // ops, or of acked + the one in-flight op whose log record survived
    let got = snapshot(recovered.writer());
    let resume_from = if got == oracle[acked] {
        acked
    } else if acked < ops.len() && got == oracle[acked + 1] {
        acked + 1
    } else {
        panic!(
            "{}",
            ctx(&format!(
                "recovered state equals neither {acked} nor {} acked ops",
                acked + 1
            ))
        );
    };

    // finish the script on the recovered service: it must behave exactly
    // like an undisturbed writer from that state on
    for op in &ops[resume_from..] {
        apply_durable(&mut recovered, pool, op).expect("post-recovery ops run clean");
    }
    assert_eq!(
        snapshot(recovered.writer()),
        oracle[ops.len()],
        "{}",
        ctx("finished run must land on the sequential final state")
    );

    // ... and the finished state itself recovers (the second crash)
    drop(recovered);
    let (reopened, report) =
        DurableService::recover_with_rules(&dir, &catalog(), &schema(), BUDGET)
            .expect("second recovery");
    assert_eq!(
        snapshot(reopened.writer()),
        oracle[ops.len()],
        "{}",
        ctx("second recovery must reproduce the final state")
    );
    assert_eq!(report.fallback_generations, 0, "{}", ctx("no fallback"));
    let _ = std::fs::remove_dir_all(&dir);
    true
}

#[test]
fn killing_the_writer_at_every_failpoint_loses_no_acknowledged_epoch() {
    let _registry = FAIL_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let schema = schema();
    let pool = entities(&schema);
    let ops = script();
    let oracle = shadow_snapshots(&pool, &ops);

    // pass 1 — clean run with the registry live but unarmed, to enumerate
    // every (point, occurrence) the workload hits
    fail::reset();
    let clean = fresh_dir("clean");
    {
        let mut service = DurableService::create_empty(
            &clean,
            rule(),
            &schema,
            &schema,
            ServiceOptions::default(),
            BUDGET,
        )
        .expect("unarmed creation succeeds");
        for op in &ops {
            apply_durable(&mut service, &pool, op).expect("unarmed ops succeed");
        }
        assert_eq!(snapshot(service.writer()), oracle[ops.len()]);
    }
    let _ = std::fs::remove_dir_all(&clean);
    let hits = fail::hit_counts();
    assert!(
        hits.len() >= 8,
        "the workload must cross every injection point class, saw {hits:?}"
    );

    // pass 2 — one armed run per (point, occurrence, action)
    let mut fired_runs = 0usize;
    let mut armed_runs = 0usize;
    for (point, count) in &hits {
        let torn = point.ends_with(".write");
        for occurrence in 0..*count {
            let mut actions = vec![fail::FailAction::Error];
            if torn {
                // a prefix shorter than the 8-byte record header and one
                // cutting into the payload
                actions.push(fail::FailAction::TornWrite(3));
                actions.push(fail::FailAction::TornWrite(21));
            }
            for (variant, action) in actions.into_iter().enumerate() {
                fail::reset();
                fail::configure(point, occurrence, action);
                let tag = format!("{point}-{occurrence}-{variant}");
                armed_runs += 1;
                if run_armed(&tag, &pool, &ops, &oracle) {
                    fired_runs += 1;
                }
                fail::reset();
            }
        }
    }
    assert!(
        fired_runs * 2 >= armed_runs,
        "most armed occurrences must actually fire ({fired_runs}/{armed_runs})"
    );
}

/// The registry workload: interleaves entity churn with rule-manifest log
/// records (register / hot-swap / deregister), including re-registering a
/// name that was dropped — so a kill can land between a manifest append
/// and its fsync, between publish and compaction, or inside a checkpoint
/// that serializes a multi-rule manifest.
fn registry_script() -> Vec<Op> {
    vec![
        Op::Ingest(vec![0, 1, 2, 3]),
        Op::Register("tight", 1),
        Op::Insert(4),
        Op::Remove(1),
        Op::Register("phone", 2),
        Op::Insert(5),
        Op::Replace("tight", 2),
        Op::Remove(0),
        Op::Deregister("phone"),
        Op::Insert(6),
        Op::Deregister("tight"),
        Op::Register("tight", 1),
        Op::Insert(0),
    ]
}

/// Satellite: crash-consistency of the rule manifest.  A kill anywhere in
/// the registration path (validate → log+fsync → apply → publish) must
/// recover to the pre- or post-registration rule set, never a torn one —
/// `run_armed`'s bit-identical snapshot oracle covers the manifest because
/// snapshots serialize it alongside the entity store.
#[test]
fn killing_the_writer_during_registry_churn_never_tears_the_manifest() {
    let _registry = FAIL_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let schema = schema();
    let pool = entities(&schema);
    let ops = registry_script();
    let oracle = shadow_snapshots(&pool, &ops);

    // pass 1 — unarmed enumeration of every (point, occurrence)
    fail::reset();
    let clean = fresh_dir("registry-clean");
    {
        let mut service = DurableService::create_empty(
            &clean,
            rule(),
            &schema,
            &schema,
            ServiceOptions::default(),
            BUDGET,
        )
        .expect("unarmed creation succeeds");
        for op in &ops {
            apply_durable(&mut service, &pool, op).expect("unarmed ops succeed");
        }
        assert_eq!(snapshot(service.writer()), oracle[ops.len()]);
    }
    let _ = std::fs::remove_dir_all(&clean);
    let hits = fail::hit_counts();
    assert!(
        hits.len() >= 8,
        "the registry workload must cross every injection point class, saw {hits:?}"
    );

    // pass 2 — one armed run per (point, occurrence, action)
    let mut fired_runs = 0usize;
    let mut armed_runs = 0usize;
    for (point, count) in &hits {
        let torn = point.ends_with(".write");
        for occurrence in 0..*count {
            let mut actions = vec![fail::FailAction::Error];
            if torn {
                actions.push(fail::FailAction::TornWrite(3));
                actions.push(fail::FailAction::TornWrite(21));
            }
            for (variant, action) in actions.into_iter().enumerate() {
                fail::reset();
                fail::configure(point, occurrence, action);
                let tag = format!("registry-{point}-{occurrence}-{variant}");
                armed_runs += 1;
                if run_armed(&tag, &pool, &ops, &oracle) {
                    fired_runs += 1;
                }
                fail::reset();
            }
        }
    }
    assert!(
        fired_runs * 2 >= armed_runs,
        "most armed occurrences must actually fire ({fired_runs}/{armed_runs})"
    );
}

// ---------------------------------------------------------------------------
// Sharded harness: shard isolation under injected faults
// ---------------------------------------------------------------------------

const SHARDS: usize = 2;

/// Decomposes the global script into per-shard sub-op sequences, tagged
/// with the global op index they came from.  An `Ingest` spanning shards
/// contributes one sub-batch per touched shard (that is exactly how the
/// sharded store applies it: one log record per touched shard).
fn sharded_sub_ops(router: ShardRouter, pool: &[Entity], ops: &[Op]) -> Vec<Vec<(usize, Op)>> {
    let mut per_shard: Vec<Vec<(usize, Op)>> = vec![Vec::new(); router.shards()];
    for (global, op) in ops.iter().enumerate() {
        match op {
            Op::Ingest(batch) => {
                let mut split: Vec<Vec<usize>> = vec![Vec::new(); router.shards()];
                for &i in batch {
                    split[router.route(pool[i].id())].push(i);
                }
                for (shard, sub) in split.into_iter().enumerate() {
                    if !sub.is_empty() {
                        per_shard[shard].push((global, Op::Ingest(sub)));
                    }
                }
            }
            Op::Insert(i) => {
                per_shard[router.route(pool[*i].id())].push((global, op.clone()));
            }
            Op::Remove(i) => {
                per_shard[router.route(pool[*i].id())].push((global, op.clone()));
            }
            Op::Register(..) | Op::Replace(..) | Op::Deregister(..) => {
                unreachable!("the sharded script has no registry ops")
            }
        }
    }
    per_shard
}

/// Per-shard sequential oracle: `snapshots[s][k]` is shard `s` after its
/// first `k` sub-ops.
fn sharded_shadow_snapshots(pool: &[Entity], sub_ops: &[Vec<(usize, Op)>]) -> Vec<Vec<Vec<u8>>> {
    sub_ops
        .iter()
        .map(|ops| {
            let mut writer =
                ServiceWriter::empty(rule(), &schema(), &schema(), ServiceOptions::default());
            let mut snapshots = vec![snapshot(&writer)];
            for (_, op) in ops {
                apply_shadow(&mut writer, pool, op);
                snapshots.push(snapshot(&writer));
            }
            snapshots
        })
        .collect()
}

fn apply_sharded(
    service: &mut ShardedService<DurableService>,
    pool: &[Entity],
    op: &Op,
) -> Result<(), DurableError> {
    match op {
        Op::Ingest(batch) => {
            let batch: Vec<Entity> = batch.iter().map(|&i| pool[i].clone()).collect();
            service.ingest(&batch).map(|_| ())
        }
        Op::Insert(i) => service.insert(&pool[*i]).map(|_| ()),
        Op::Remove(i) => service.remove(pool[*i].id()).map(|removed| {
            assert!(removed, "the script only removes served ids");
        }),
        Op::Register(name, i) => service.register_rule(name, rules_pool()[*i].clone()),
        Op::Replace(name, i) => service.replace_rule(name, rules_pool()[*i].clone()),
        Op::Deregister(name) => service.deregister_rule(name),
    }
}

/// Deterministic single-worker options: the armed occurrence index must
/// land on the same hit in every run, so nothing may race.
fn sharded_options() -> ServiceOptions {
    ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    }
}

/// One armed sharded run.  Returns whether the armed point fired.
fn run_armed_sharded(
    tag: &str,
    pool: &[Entity],
    ops: &[Op],
    sub_ops: &[Vec<(usize, Op)>],
    oracle: &[Vec<Vec<u8>>],
) -> bool {
    let dir = fresh_dir(tag);
    let ctx = |what: &str| format!("[{tag}] {what}");

    let service = match ShardedService::create_empty(
        &dir,
        rule(),
        &schema(),
        &schema(),
        SHARDS,
        sharded_options(),
        BUDGET,
    ) {
        Ok(service) => Some(service),
        Err(err) => {
            let fired = format!("{err}").contains("failpoint fired");
            assert!(fired, "{}", ctx("create may only fail by injection"));
            // creation is per-shard, not atomic across shards: whatever
            // shard directories exist must each recover to an empty shard
            match ShardedService::recover(&dir, rule(), &schema(), BUDGET) {
                Ok((partial, reports)) => {
                    assert_eq!(reports.len(), partial.shards().len());
                    for shard in partial.shards() {
                        assert!(shard.is_empty(), "{}", ctx("nothing was acknowledged"));
                    }
                }
                Err(RecoveryError::NoCheckpoint(_)) => {}
                Err(err) => panic!("{}: {err}", ctx("post-create-kill recovery failed")),
            }
            let _ = std::fs::remove_dir_all(&dir);
            return true;
        }
    };
    let mut service = service.unwrap();

    let mut acked = 0usize;
    let mut killed = false;
    for op in ops {
        match apply_sharded(&mut service, pool, op) {
            Ok(()) => acked += 1,
            Err(err) => {
                assert!(
                    format!("{err}").contains("failpoint fired"),
                    "{}: {err}",
                    ctx("ops may only fail by injection")
                );
                killed = true;
                break;
            }
        }
    }
    drop(service); // the crash

    // isolation oracle, part 1: every shard's chain recovers on its own,
    // whichever shard the kill landed in
    let mut solo: Vec<Vec<u8>> = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let shard_path = dir.join(format!("shard-{shard:03}"));
        let (recovered, _) = DurableService::recover(&shard_path, rule(), &schema(), BUDGET)
            .unwrap_or_else(|err| {
                panic!(
                    "{}: {err}",
                    ctx(&format!("shard {shard} must recover solo"))
                )
            });
        solo.push(snapshot(recovered.writer()));
    }

    // part 2: the sharded recovery agrees with the solo recoveries and
    // hands back one report per shard
    let (mut recovered, reports) = ShardedService::recover(&dir, rule(), &schema(), BUDGET)
        .unwrap_or_else(|err| panic!("{}: {err}", ctx("sharded recovery failed")));
    assert_eq!(reports.len(), SHARDS, "{}", ctx("one report per shard"));
    for (shard, expected) in solo.iter().enumerate() {
        assert_eq!(
            &snapshot(recovered.shards()[shard].writer()),
            expected,
            "{}",
            ctx(&format!(
                "sharded and solo recovery of shard {shard} differ"
            ))
        );
    }

    // part 3: per-shard no-lost-epoch.  Ops `0..acked` were acknowledged;
    // op `acked` (if any) died mid-flight, and each shard independently
    // kept or lost its piece of it — sub-batches of one global ingest are
    // separate per-shard log records, per-shard atomic only.
    let mut resume: Vec<usize> = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let applied = sub_ops[shard]
            .iter()
            .take_while(|(global, _)| *global < acked)
            .count();
        let in_flight = killed
            && sub_ops[shard]
                .get(applied)
                .is_some_and(|(global, _)| *global == acked);
        let got = snapshot(recovered.shards()[shard].writer());
        let landed = if got == oracle[shard][applied] {
            applied
        } else if in_flight && got == oracle[shard][applied + 1] {
            applied + 1
        } else {
            panic!(
                "{}",
                ctx(&format!(
                    "shard {shard} recovered to neither {applied} nor an \
                     in-flight sub-op state"
                ))
            );
        };
        resume.push(landed);
    }

    // part 4: finish every shard's sub-script on the recovered store and
    // land on the sequential final state, then survive a second crash
    for shard in 0..SHARDS {
        for (_, op) in &sub_ops[shard][resume[shard]..] {
            apply_durable(recovered.shard_mut(shard), pool, op)
                .expect("post-recovery ops run clean");
        }
        assert_eq!(
            snapshot(recovered.shards()[shard].writer()),
            oracle[shard][sub_ops[shard].len()],
            "{}",
            ctx(&format!(
                "shard {shard} must finish on the sequential state"
            ))
        );
    }
    drop(recovered);
    let (reopened, reports) =
        ShardedService::recover(&dir, rule(), &schema(), BUDGET).expect("second recovery");
    assert_eq!(reports.len(), SHARDS);
    for shard in 0..SHARDS {
        assert_eq!(
            snapshot(reopened.shards()[shard].writer()),
            oracle[shard][sub_ops[shard].len()],
            "{}",
            ctx(&format!("second recovery of shard {shard} diverged"))
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    killed
}

#[test]
fn killing_one_shard_at_every_failpoint_leaves_every_shard_recoverable() {
    let _registry = FAIL_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let schema = schema();
    let pool = entities(&schema);
    let ops = script();
    let router = ShardRouter::new(SHARDS);
    let sub_ops = sharded_sub_ops(router, &pool, &ops);
    for (shard, ops) in sub_ops.iter().enumerate() {
        assert!(
            !ops.is_empty(),
            "the script must exercise shard {shard}, rebalance the pool"
        );
    }
    let oracle = sharded_shadow_snapshots(&pool, &sub_ops);

    // pass 1 — unarmed, to enumerate every (point, occurrence).  With one
    // worker thread the application order is deterministic, so occurrence
    // indices are reproducible across runs.
    fail::reset();
    let clean = fresh_dir("sharded-clean");
    {
        let mut service = ShardedService::create_empty(
            &clean,
            rule(),
            &schema,
            &schema,
            SHARDS,
            sharded_options(),
            BUDGET,
        )
        .expect("unarmed creation succeeds");
        for op in &ops {
            apply_sharded(&mut service, &pool, op).expect("unarmed ops succeed");
        }
        for shard in 0..SHARDS {
            assert_eq!(
                snapshot(service.shards()[shard].writer()),
                oracle[shard][sub_ops[shard].len()]
            );
        }
    }
    let _ = std::fs::remove_dir_all(&clean);
    let hits = fail::hit_counts();
    assert!(
        hits.len() >= 8,
        "the sharded workload must cross every injection point class, saw {hits:?}"
    );

    // pass 2 — one armed Error run per (point, occurrence).  Torn-write
    // actions are covered by the unsharded harness above: a shard's chain
    // is byte-for-byte a `DurableService` chain, so the torn-tail recovery
    // path is identical; what is new here is the cross-shard blast radius.
    let mut fired_runs = 0usize;
    let mut armed_runs = 0usize;
    for (point, count) in &hits {
        for occurrence in 0..*count {
            fail::reset();
            fail::configure(point, occurrence, fail::FailAction::Error);
            let tag = format!("sharded-{point}-{occurrence}");
            armed_runs += 1;
            if run_armed_sharded(&tag, &pool, &ops, &sub_ops, &oracle) {
                fired_runs += 1;
            }
            fail::reset();
        }
    }
    assert!(
        fired_runs * 2 >= armed_runs,
        "most armed occurrences must actually fire ({fired_runs}/{armed_runs})"
    );
}

/// A crash between per-shard registry broadcasts leaves shards with
/// different manifests on disk.  Recovery must roll every lagging shard
/// forward to the leader (shard 0, which the broadcast hits first), so the
/// recovered store serves one coherent rule set.
#[test]
fn sharded_recovery_converges_diverged_shard_registries() {
    let _registry = FAIL_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    fail::reset();
    let schema = schema();
    let pool = entities(&schema);
    let dir = fresh_dir("registry-converge");

    {
        let mut service = ShardedService::create_empty(
            &dir,
            rule(),
            &schema,
            &schema,
            SHARDS,
            sharded_options(),
            BUDGET,
        )
        .expect("creation succeeds");
        apply_sharded(&mut service, &pool, &Op::Ingest(vec![0, 1, 2, 3])).unwrap();
        // simulate a crash mid-broadcast: the registration reached shard 0's
        // log but never the other shards'
        service
            .shard_mut(0)
            .register_rule("tight", rules_pool()[1].clone())
            .expect("shard-0 registration succeeds");
        assert!(!service.shards()[1].writer().has_rule("tight"));
    }

    let (recovered, reports) =
        ShardedService::recover_with_rules(&dir, &catalog(), &schema, BUDGET)
            .expect("recovery converges the registries");
    assert_eq!(reports.len(), SHARDS);
    for shard in recovered.shards() {
        assert_eq!(
            shard.writer().rule_names(),
            recovered.shards()[0].writer().rule_names(),
            "every shard serves the leader's rule set"
        );
        assert!(shard.writer().has_rule("tight"));
        assert_eq!(
            shard.writer().named_rule("tight").unwrap().canonical_hash(),
            rules_pool()[1].canonical_hash(),
            "the converged rule is the one shard 0 logged"
        );
    }

    // convergence itself must be durable: reopening without further writes
    // reproduces the converged manifests
    drop(recovered);
    let (reopened, _) = ShardedService::recover_with_rules(&dir, &catalog(), &schema, BUDGET)
        .expect("second recovery");
    for shard in reopened.shards() {
        assert!(shard.writer().has_rule("tight"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
