//! The deterministic fault harness: runs scripted durable workloads on
//! `Sim` (`sim/mod.rs`, an in-memory storage), enumerates every storage
//! operation a clean run performs, by kind, and re-runs the workload once
//! per schedule — fail the n-th operation of a kind, or tear the n-th
//! append after 3 or 21 bytes — crashing at that instant under both crash
//! outcomes: unsynced bytes and directory entries lost, or kept.  Recovery
//! must never panic and never lose an acknowledged epoch.
//!
//! The oracle is bit-identical snapshot equality: after a kill at op `m`,
//! the recovered state must equal the sequential replay of either the
//! `m-1` acknowledged ops or (when the log record survived the crash) all
//! `m` — both are supersets of everything acknowledged.  The run then
//! finishes the script on the recovered service, must land on the same
//! final state as an undisturbed run, and must recover that state again
//! after a second crash.
//!
//! A second harness does the same to a **sharded** durable store and
//! additionally asserts shard isolation: a kill inside one shard's WAL or
//! compaction leaves every shard's chain individually recoverable, and
//! the sharded recovery returns one `RecoveryReport` per shard.  A third
//! crashes a recovery itself at each of its storage operations.
//!
//! Every run owns its `Sim`, so the tests share no state and run in
//! parallel.

mod sim;

use std::sync::Arc;

use linkdisc_entity::{Entity, Schema};
use linkdisc_matching::{
    Dir, DurabilityOptions, DurableError, DurableService, RecoveryError, ServiceOptions,
    ServiceWriter, ShardRouter, ShardedService,
};
use linkdisc_rule::{
    compare, property, transform, DistanceFunction, LinkageRule, TransformFunction,
};
use sim::{Crash, Fault, Kind, Sim, CRASHES};

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

/// The directory every workload runs in, on its `Sim`.
fn dir(sim: &Arc<Sim>) -> Dir {
    Dir::new("/db", sim.clone())
}

const BUDGET: DurabilityOptions = DurabilityOptions {
    // tiny on purpose: the 12-op script then compacts several times, so
    // checkpoint/rename/retire operations run mid-workload, not just at
    // creation
    log_budget_bytes: 256,
};

fn recover(sim: &Arc<Sim>) -> Result<DurableService, RecoveryError> {
    DurableService::recover_with_rules(dir(sim), &catalog(), &schema(), BUDGET)
        .map(|(service, _)| service)
}

/// Every schedule over the operations a clean run performed: fail each
/// one, and with `tear`, also cut each append after 3 bytes (inside the
/// 8-byte record header) and after 21 (inside the payload).
fn schedules(counts: &[(Kind, usize)], tear: bool) -> Vec<(Kind, usize, Fault)> {
    let mut schedules = Vec::new();
    for &(kind, count) in counts {
        for nth in 0..count {
            schedules.push((kind, nth, Fault::Fail));
            if tear && kind == Kind::Append {
                schedules.push((kind, nth, Fault::Tear(3)));
                schedules.push((kind, nth, Fault::Tear(21)));
            }
        }
    }
    schedules
}

/// Creates a service on `sim` and applies `ops` until one fails; returns
/// how many were acknowledged.  Only the scheduled fault may fail them.
fn acknowledged(sim: &Arc<Sim>, pool: &[Entity], ops: &[Op], tag: &str) -> usize {
    let created = DurableService::create_empty(
        dir(sim),
        rule(),
        &schema(),
        &schema(),
        ServiceOptions::default(),
        BUDGET,
    );
    let mut service = match created {
        Ok(service) => service,
        Err(err) => {
            assert!(
                sim.fired(),
                "[{tag}] create may only fail by the fault: {err}"
            );
            return 0;
        }
    };
    for (acked, op) in ops.iter().enumerate() {
        if let Err(err) = apply_durable(&mut service, pool, op) {
            assert!(sim.fired(), "[{tag}] ops may only fail by the fault: {err}");
            return acked;
        }
    }
    ops.len()
}

/// One scheduled run: apply the script until the fault, crash, recover,
/// check the no-lost-epoch oracle, finish the script, check the final
/// state, crash again and recover it.
fn run_scheduled(
    tag: &str,
    pool: &[Entity],
    ops: &[Op],
    oracle: &[Vec<u8>],
    (kind, nth, fault): (Kind, usize, Fault),
    crash: Crash,
) {
    let ctx = |what: &str| format!("[{tag}] {what}");
    let sim = Arc::new(Sim::new());
    sim.schedule(kind, nth, fault);
    let acked = acknowledged(&sim, pool, ops, tag);
    assert!(sim.fired(), "{}", ctx("the clean run reached this op"));
    sim.crash(crash);

    let mut recovered = match recover(&sim) {
        Ok(service) => service,
        Err(RecoveryError::NoCheckpoint(_)) => {
            assert_eq!(
                acked,
                0,
                "{}",
                ctx("no-durable-state is only sound when nothing was acknowledged")
            );
            return;
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

    // ... and the finished state itself survives a second crash
    drop(recovered);
    sim.crash(crash);
    let (reopened, report) =
        DurableService::recover_with_rules(dir(&sim), &catalog(), &schema(), BUDGET)
            .expect("second recovery");
    assert_eq!(
        snapshot(reopened.writer()),
        oracle[ops.len()],
        "{}",
        ctx("second recovery must reproduce the final state")
    );
    assert_eq!(report.fallback_generations, 0, "{}", ctx("no fallback"));
}

/// Runs `ops` clean to count its storage operations, then once per
/// schedule and crash outcome.
fn kill_at_every_op(name: &str, ops: &[Op]) {
    let schema = schema();
    let pool = entities(&schema);
    let oracle = shadow_snapshots(&pool, ops);

    let sim = Arc::new(Sim::new());
    assert_eq!(acknowledged(&sim, &pool, ops, name), ops.len());
    let counts = sim.counts();
    assert!(
        counts.len() >= 8,
        "the workload must run every kind of write, saw {counts:?}"
    );
    for schedule in schedules(&counts, true) {
        for crash in CRASHES {
            let tag = format!("{name}-{schedule:?}-{crash:?}");
            run_scheduled(&tag, &pool, ops, &oracle, schedule, crash);
        }
    }
}

#[test]
fn killing_the_writer_at_every_storage_op_loses_no_acknowledged_epoch() {
    kill_at_every_op("script", &script());
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

/// Crash-consistency of the rule manifest.  A kill anywhere in the
/// registration path (validate → log+fsync → apply → publish) must
/// recover to the pre- or post-registration rule set, never a torn one —
/// `run_scheduled`'s bit-identical snapshot oracle covers the manifest
/// because snapshots serialize it alongside the entity store.
#[test]
fn killing_the_writer_during_registry_churn_never_tears_the_manifest() {
    kill_at_every_op("registry", &registry_script());
}

/// A kill in the middle of a compaction, then a crash of the recovery
/// itself at each of its storage operations, under both crash outcomes:
/// the next recovery must reach the state an uninterrupted one reaches.
#[test]
fn crashing_a_recovery_at_every_storage_op_recovers_the_same_state() {
    let schema = schema();
    let pool = entities(&schema);
    let ops = script();
    let oracle = shadow_snapshots(&pool, &ops);
    for first in CRASHES {
        let sim = Arc::new(Sim::new());
        // rename 0 commits creation's generation 0; rename 3 the third
        // compaction's, mid-script
        sim.schedule(Kind::Rename, 3, Fault::Fail);
        let acked = acknowledged(&sim, &pool, &ops, "compaction");
        assert!(sim.fired() && 0 < acked && acked < ops.len());
        sim.crash(first);

        let clean = Arc::new(sim.fork());
        let expected = snapshot(recover(&clean).expect("uninterrupted recovery").writer());
        assert!(expected == oracle[acked] || expected == oracle[acked + 1]);
        let counts = clean.counts();
        assert!(
            counts.iter().any(|&(kind, _)| kind == Kind::Rename),
            "recovery re-checkpoints, saw {counts:?}"
        );
        for schedule in schedules(&counts, true) {
            for second in CRASHES {
                let tag = format!("{first:?}-{schedule:?}-{second:?}");
                let sim = Arc::new(sim.fork());
                sim.schedule(schedule.0, schedule.1, schedule.2);
                if let Err(err) = recover(&sim) {
                    assert!(sim.fired(), "[{tag}] recovery failed on its own: {err}");
                }
                assert!(sim.fired(), "[{tag}] the clean recovery reached this op");
                sim.crash(second);
                let recovered = recover(&sim)
                    .unwrap_or_else(|err| panic!("[{tag}] recovery after a crashed one: {err}"));
                assert_eq!(
                    snapshot(recovered.writer()),
                    expected,
                    "[{tag}] a crashed recovery changed the recovered state"
                );
            }
        }
    }
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

/// Deterministic single-worker options: the scheduled op must be the same
/// op in every run, so nothing may race.
fn sharded_options() -> ServiceOptions {
    ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    }
}

/// One scheduled sharded run.
fn run_scheduled_sharded(
    tag: &str,
    pool: &[Entity],
    ops: &[Op],
    sub_ops: &[Vec<(usize, Op)>],
    oracle: &[Vec<Vec<u8>>],
    (kind, nth, fault): (Kind, usize, Fault),
    crash: Crash,
) {
    let ctx = |what: &str| format!("[{tag}] {what}");
    let sim = Arc::new(Sim::new());
    sim.schedule(kind, nth, fault);

    let service = match ShardedService::create_empty(
        dir(&sim),
        rule(),
        &schema(),
        &schema(),
        SHARDS,
        sharded_options(),
        BUDGET,
    ) {
        Ok(service) => Some(service),
        Err(err) => {
            assert!(
                sim.fired(),
                "{}: {err}",
                ctx("create may only fail by the fault")
            );
            sim.crash(crash);
            // creation is per-shard, not atomic across shards: whatever
            // shard directories exist must each recover to an empty shard
            match ShardedService::recover(dir(&sim), rule(), &schema(), BUDGET) {
                Ok((partial, reports)) => {
                    assert_eq!(reports.len(), partial.shards().len());
                    for shard in partial.shards() {
                        assert!(shard.is_empty(), "{}", ctx("nothing was acknowledged"));
                    }
                }
                Err(RecoveryError::NoCheckpoint(_)) => {}
                Err(err) => panic!("{}: {err}", ctx("post-create-kill recovery failed")),
            }
            return;
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
                    sim.fired(),
                    "{}: {err}",
                    ctx("ops may only fail by the fault")
                );
                killed = true;
                break;
            }
        }
    }
    drop(service);
    assert!(sim.fired(), "{}", ctx("the clean run reached this op"));
    sim.crash(crash);

    // isolation oracle, part 1: every shard's chain recovers on its own,
    // whichever shard the kill landed in
    let mut solo: Vec<Vec<u8>> = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let shard_dir = Dir::new(format!("/db/shard-{shard:03}"), sim.clone());
        let (recovered, _) = DurableService::recover(shard_dir, rule(), &schema(), BUDGET)
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
    let (mut recovered, reports) = ShardedService::recover(dir(&sim), rule(), &schema(), BUDGET)
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
    sim.crash(crash);
    let (reopened, reports) =
        ShardedService::recover(dir(&sim), rule(), &schema(), BUDGET).expect("second recovery");
    assert_eq!(reports.len(), SHARDS);
    for shard in 0..SHARDS {
        assert_eq!(
            snapshot(reopened.shards()[shard].writer()),
            oracle[shard][sub_ops[shard].len()],
            "{}",
            ctx(&format!("second recovery of shard {shard} diverged"))
        );
    }
}

#[test]
fn killing_one_shard_at_every_storage_op_leaves_every_shard_recoverable() {
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

    // a clean run, to count every storage op.  With one worker thread the
    // application order is deterministic, so the n-th op of a kind is the
    // same op in every run.
    let sim = Arc::new(Sim::new());
    {
        let mut service = ShardedService::create_empty(
            dir(&sim),
            rule(),
            &schema,
            &schema,
            SHARDS,
            sharded_options(),
            BUDGET,
        )
        .expect("clean creation succeeds");
        for op in &ops {
            apply_sharded(&mut service, &pool, op).expect("clean ops succeed");
        }
        for shard in 0..SHARDS {
            assert_eq!(
                snapshot(service.shards()[shard].writer()),
                oracle[shard][sub_ops[shard].len()]
            );
        }
    }
    let counts = sim.counts();
    assert!(
        counts.len() >= 8,
        "the sharded workload must run every kind of write, saw {counts:?}"
    );

    // one failing run per op and crash outcome.  Torn appends are covered
    // by the unsharded harness above: a shard's chain is byte-for-byte a
    // `DurableService` chain, so the torn-tail recovery path is identical;
    // what is new here is the cross-shard blast radius.
    for schedule in schedules(&counts, false) {
        for crash in CRASHES {
            let tag = format!("sharded-{schedule:?}-{crash:?}");
            run_scheduled_sharded(&tag, &pool, &ops, &sub_ops, &oracle, schedule, crash);
        }
    }
}

/// A crash between per-shard registry broadcasts leaves shards with
/// different manifests on disk.  Recovery must roll every lagging shard
/// forward to the leader (shard 0, which the broadcast hits first), so the
/// recovered store serves one coherent rule set.
#[test]
fn sharded_recovery_converges_diverged_shard_registries() {
    let schema = schema();
    let pool = entities(&schema);
    let sim = Arc::new(Sim::new());

    {
        let mut service = ShardedService::create_empty(
            dir(&sim),
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
    sim.crash(Crash::LoseUnsynced);

    let (recovered, reports) =
        ShardedService::recover_with_rules(dir(&sim), &catalog(), &schema, BUDGET)
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
    sim.crash(Crash::LoseUnsynced);
    let (reopened, _) = ShardedService::recover_with_rules(dir(&sim), &catalog(), &schema, BUDGET)
        .expect("second recovery");
    for shard in reopened.shards() {
        assert!(shard.writer().has_rule("tight"));
    }
}
