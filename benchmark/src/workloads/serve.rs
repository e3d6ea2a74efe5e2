//! `serve_read`, `serve_churn` and `serve_recover`: the serving layer under
//! closed-loop clients (each waits for its reply before sending the next
//! request; `--threads` of them).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{Checks, Ctx, Measured, ScratchDir, Timing, Workload};
use crate::adapter::{
    self, CandidateScratch, Coverage, DataSource, Dataset, DatasetKind, Durable, Entity, FoundLink,
    Reader, Service,
};
use crate::stats;
use crate::trace::Tracer;

/// F-measure, on `reference`, of the links a service returns for every
/// probe under its default rule.
fn served_f1(reader: &Reader, probes: &[Entity], reference: &adapter::ReferenceLinks) -> f64 {
    let links: Vec<FoundLink> = probes
        .iter()
        .flat_map(|probe| reader.query(probe))
        .collect();
    adapter::links_f1(&links, reference)
}

// ------------------------------------------------------------ serve_read --

/// Restaurant x50: 21,280 probes, half of whose counterparts are served
/// (10,640 entities) — half the probes have a match, half are distractors.
/// The store fits in cache and there is no writer: the read-only hot path.
const READ_SCALE: f64 = 50.0;
/// Requests in one client's script; a client replays its script until the
/// measured phase ends.
const SCRIPT_LEN: usize = 50_000;
pub(crate) const PHONE_RULE: &str = "phone-only";
const FALLBACK_RULE: &str = "fallback";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// 70 %: the default rule on the allocation-free path.
    Default,
    /// 20 %: a named rule.
    Named,
    /// 10 %: every registered rule, merged.
    Committee,
}

#[derive(Debug, Clone, Copy)]
struct Request {
    probe: u32,
    kind: Kind,
}

pub struct ReadInputs {
    pub(crate) data: Dataset,
    pub(crate) served: DataSource,
    pub(crate) service: Service,
    scripts: Vec<Vec<Request>>,
    /// Per client: requests completed and links returned while measured.
    completed: Vec<(usize, u64)>,
}

/// The measured phase of `serve_read` is cut into slices of this length, and
/// the timing metrics are those of the median slice.  On the shared host a
/// client runs at two speeds, depending on whether another tenant has the
/// core's sibling thread: a statistic over all requests of a run moves with
/// the share of the run spent at the lower speed, the median slice only
/// when that share passes a half.
const SLICE: Duration = Duration::from_millis(100);

/// One slice of a client's measured phase.
struct Slice {
    /// Positions in the client's `latencies_ns`.
    requests: std::ops::Range<usize>,
    seconds: f64,
}

/// What one client of `serve_read` did while measured.
struct Client {
    /// Wall time of every request, in completion order.
    latencies_ns: Vec<u64>,
    slices: Vec<Slice>,
    /// Links returned.
    returned: u64,
    seconds: f64,
}

/// Issues one request; returns how many links came back.
fn issue(
    reader: &Reader,
    probes: &[Entity],
    request: Request,
    scratch: &mut CandidateScratch,
    hits: &mut Vec<(u32, f64)>,
) -> usize {
    let probe = &probes[request.probe as usize];
    match request.kind {
        Kind::Default => reader.query_fast(probe, scratch, hits),
        Kind::Named => reader.query_rule(PHONE_RULE, probe).map_or(0, |l| l.len()),
        Kind::Committee => reader.query_committee(probe).len(),
    }
}

pub struct ServeRead;

impl Workload for ServeRead {
    type Inputs = ReadInputs;

    fn set_up(ctx: &Ctx) -> Result<ReadInputs, String> {
        let data = adapter::generate(
            DatasetKind::Restaurant,
            ctx.sized(READ_SCALE, 0.0),
            ctx.seed,
        );
        let served = adapter::subset(&data.target, "served", |position| position % 2 == 0);
        let service = Service::build(
            adapter::restaurant_rule(),
            &[
                (PHONE_RULE, adapter::restaurant_phone_rule()),
                (FALLBACK_RULE, adapter::restaurant_fallback_rule()),
            ],
            data.source.schema(),
            &served,
            ctx.threads,
        );
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let scripts = (0..ctx.threads)
            .map(|_| {
                (0..(SCRIPT_LEN as f64 * ctx.size) as usize)
                    .map(|_| Request {
                        probe: rng.gen_range(0..data.source.len() as u32),
                        kind: match rng.gen_range(0..10u32) {
                            0..=6 => Kind::Default,
                            7..=8 => Kind::Named,
                            _ => Kind::Committee,
                        },
                    })
                    .collect()
            })
            .collect();
        Ok(ReadInputs {
            data,
            served,
            service,
            scripts,
            completed: Vec::new(),
        })
    }

    fn measure(ctx: &Ctx, inputs: &mut ReadInputs) -> Measured {
        let probes = inputs.data.source.entities();
        let reader = inputs.service.reader();
        let per_client: Vec<Client> = std::thread::scope(|scope| {
            let clients: Vec<_> = inputs
                .scripts
                .iter()
                .map(|script| {
                    let reader = reader.clone();
                    scope.spawn(move || {
                        let mut scratch = CandidateScratch::new();
                        let mut hits = Vec::new();
                        // warm-up: a tenth of the script, untimed
                        for &request in &script[..script.len() / 10] {
                            issue(&reader, probes, request, &mut scratch, &mut hits);
                        }
                        // reserved once, for more requests than a client
                        // can complete: a vector that doubles as it fills
                        // makes peak memory jump with the request count
                        let mut latencies_ns =
                            Vec::with_capacity((ctx.seconds * 1e6) as usize + (1 << 16));
                        let mut slices = Vec::new();
                        let mut returned = 0u64;
                        let started = Instant::now();
                        let deadline = ctx.deadline();
                        let (mut slice_from, mut slice_started) = (0, started);
                        for &request in script.iter().cycle() {
                            let start = Instant::now();
                            returned +=
                                issue(&reader, probes, request, &mut scratch, &mut hits) as u64;
                            let end = Instant::now();
                            latencies_ns.push((end - start).as_nanos() as u64);
                            if end - slice_started >= SLICE {
                                slices.push(Slice {
                                    requests: slice_from..latencies_ns.len(),
                                    seconds: (end - slice_started).as_secs_f64(),
                                });
                                (slice_from, slice_started) = (latencies_ns.len(), end);
                            }
                            if end >= deadline {
                                break;
                            }
                        }
                        Client {
                            latencies_ns,
                            slices,
                            returned,
                            seconds: started.elapsed().as_secs_f64(),
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|client| client.join().expect("client thread panicked"))
                .collect()
        });
        // the clients start within a warm-up of one another and stop at
        // their own deadlines: the longest of them is the phase
        let wall_s = per_client.iter().map(|c| c.seconds).fold(0.0, f64::max);
        inputs.completed = per_client
            .iter()
            .map(|client| (client.latencies_ns.len(), client.returned))
            .collect();

        // every slice's own median, p95 and rate; the run reports the median
        // slice of each (the rate per client, summed over the clients)
        let (mut p50_ms, mut p95_ms, mut ops_per_s) = (Vec::new(), Vec::new(), 0.0);
        let mut per_client = per_client;
        for client in &mut per_client {
            let mut rates = Vec::new();
            for slice in &client.slices {
                let requests = &mut client.latencies_ns[slice.requests.clone()];
                requests.sort_unstable();
                p50_ms.push(stats::nearest_rank(requests, 50.0) as f64 / 1e6);
                p95_ms.push(stats::nearest_rank(requests, 95.0) as f64 / 1e6);
                rates.push(requests.len() as f64 / slice.seconds);
            }
            ops_per_s += stats::median(&stats::sorted(rates));
        }
        let slices = p50_ms.len();
        // all requests taken together, for the log: appended to the first
        // client's vector, which has the room
        let mut per_client = per_client.into_iter().map(|client| client.latencies_ns);
        let mut latencies_ns = per_client.next().expect("at least one client");
        for client in per_client {
            latencies_ns.extend(client);
        }
        let mut checks = Checks::default();
        checks.passed(latencies_ns.len() as u64);
        let together = Timing::of_operations(latencies_ns, wall_s, 95.0);
        let timing = if slices == 0 {
            // a run shorter than one slice
            together
        } else {
            Timing {
                operations: together.operations,
                op_p50_ms: stats::median(&stats::sorted(p50_ms)),
                op_tail_ms: stats::median(&stats::sorted(p95_ms)),
                ops_per_s,
                note: format!(
                    "op_p50_ms, op_tail_ms (p95) and ops_per_s are those of the median of {slices} \
                     slices of {} ms; all requests taken together: p50 {:.6} ms, p95 {:.6} ms, \
                     {:.0}/s; {}",
                    SLICE.as_millis(),
                    together.op_p50_ms,
                    together.op_tail_ms,
                    together.ops_per_s,
                    together.note
                ),
            }
        };
        let reference =
            adapter::links_within(&inputs.data.links, |id| inputs.served.get(id).is_some());
        Measured {
            notes: vec![format!(
                "{} probes over {} served entities, 3 rules, {} clients (closed loop)",
                probes.len(),
                inputs.served.len(),
                inputs.scripts.len()
            )],
            timing,
            link_f1: served_f1(&reader, probes, &reference),
            checks,
        }
    }

    /// Replays every client's script once, untimed, comparing each answer
    /// with the batch engine's links for that probe and rule; then checks
    /// that the measured phase returned exactly the link counts the replay
    /// predicts for the requests it completed.
    fn verify(ctx: &Ctx, inputs: &mut ReadInputs, checks: &mut Checks) {
        let rules = [
            adapter::restaurant_rule(),
            adapter::restaurant_phone_rule(),
            adapter::restaurant_fallback_rule(),
        ];
        // per rule: source id -> links, best first (ties by target id)
        let batch: Vec<HashMap<String, Vec<FoundLink>>> = rules
            .iter()
            .map(|rule| {
                let report = adapter::run_match(
                    rule,
                    Coverage::Blocked,
                    ctx.threads,
                    &inputs.data.source,
                    &inputs.served,
                );
                let mut by_source: HashMap<String, Vec<FoundLink>> = HashMap::new();
                for link in report.links {
                    by_source.entry(link.source.clone()).or_default().push(link);
                }
                for links in by_source.values_mut() {
                    links.sort_by(|a, b| {
                        b.score
                            .total_cmp(&a.score)
                            .then_with(|| a.target.cmp(&b.target))
                    });
                }
                by_source
            })
            .collect();
        let none = Vec::new();
        let reader = inputs.service.reader();
        let probes = inputs.data.source.entities();
        for (script, &(completed, returned)) in inputs.scripts.iter().zip(&inputs.completed) {
            let mut counts = Vec::with_capacity(script.len());
            for request in script {
                let probe = &probes[request.probe as usize];
                let expect = |rule: usize| batch[rule].get(probe.id()).unwrap_or(&none);
                let (count, ok) = match request.kind {
                    Kind::Default => {
                        let answer = reader.query(probe);
                        (answer.len(), &answer == expect(0))
                    }
                    Kind::Named => {
                        let answer = reader.query_rule(PHONE_RULE, probe).unwrap_or_default();
                        (answer.len(), &answer == expect(1))
                    }
                    Kind::Committee => {
                        // target -> (votes, score sum), rules in registry order
                        let mut tally: HashMap<&str, (usize, f64)> = HashMap::new();
                        for rule in 0..rules.len() {
                            for link in expect(rule) {
                                let entry = tally.entry(&link.target).or_insert((0, 0.0));
                                entry.0 += 1;
                                entry.1 += link.score;
                            }
                        }
                        let answer = reader.query_committee(probe);
                        let ok = answer.len() == tally.len()
                            && answer.iter().all(|link| {
                                tally
                                    .get(link.target.as_str())
                                    .is_some_and(|&(votes, sum)| {
                                        votes == link.votes
                                            && (sum / votes as f64 - link.mean_score).abs() < 1e-12
                                    })
                            });
                        (answer.len(), ok)
                    }
                };
                checks.check(ok, || {
                    format!(
                        "{:?} answer for probe {} differs from the batch engine's links",
                        request.kind,
                        probe.id()
                    )
                });
                counts.push(count as u64);
            }
            let cycle: u64 = counts.iter().sum();
            // the measured phase started after the warm-up, at script[0]
            let predicted = (completed / script.len()) as u64 * cycle
                + counts[..completed % script.len()].iter().sum::<u64>();
            checks.check(predicted == returned, || {
                format!(
                    "a client's {completed} measured requests returned {returned} links, \
                     the replay predicts {predicted}"
                )
            });
        }
    }

    fn trace(
        ctx: &Ctx,
        inputs: &mut ReadInputs,
        tracer: &mut Tracer,
        _: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        crate::layers::trace_serve_read(ctx, inputs, tracer)
    }
}

// ----------------------------------------------------------- serve_churn --

/// Both durable workloads serve Cora under the title rule: every write
/// re-keys a long string, every query evaluates a handful of title pairs.
const INGEST_BATCH: usize = 128;
/// Entities the writer removes and re-inserts in turn.
const VICTIMS: usize = 256;

/// The durable store both churn workloads work on: the target without
/// `batches` held-back ingest batches, in a directory of its own.
pub struct DurableStore {
    pub(crate) data: Dataset,
    pub(crate) dir: ScratchDir,
    /// `None` after [`DurableStore::crash`].
    service: Option<Durable>,
    pub(crate) victims: Vec<Entity>,
    /// Ingest batches not yet ingested.
    pub(crate) held_back: Vec<Vec<Entity>>,
    /// Ids of the batches ingested so far.
    ingested: Vec<String>,
}

impl DurableStore {
    pub(crate) fn create(ctx: &Ctx, scale: f64, batches: usize) -> Result<DurableStore, String> {
        let data = adapter::generate(DatasetKind::Cora, ctx.sized(scale, 0.3), ctx.seed);
        // under --smoke the batches shrink with everything else
        let batch = ((INGEST_BATCH as f64 * ctx.size) as usize).max(4);
        let initial_len = data.target.len() - batches * batch;
        let initial = adapter::subset(&data.target, "initial", |position| position < initial_len);
        let held_back = data.target.entities()[initial_len..]
            .chunks(batch)
            .map(<[Entity]>::to_vec)
            .collect();
        let mut victims = initial.entities().to_vec();
        victims.shuffle(&mut StdRng::seed_from_u64(ctx.seed));
        victims.truncate(VICTIMS);
        let dir = ScratchDir::create(&ctx.dir, "store")?;
        let service = Durable::create(
            dir.path(),
            adapter::cora_title_rule(),
            data.source.schema(),
            &initial,
            ctx.threads,
        )?;
        Ok(DurableStore {
            data,
            dir,
            service: Some(service),
            victims,
            held_back,
            ingested: Vec::new(),
        })
    }

    pub(crate) fn service(&self) -> &Durable {
        self.service.as_ref().expect("the store has not crashed")
    }

    pub(crate) fn service_mut(&mut self) -> &mut Durable {
        self.service.as_mut().expect("the store has not crashed")
    }

    /// Drops the service without shutdown: what is on disk is what was
    /// fsynced.
    pub(crate) fn crash(&mut self) {
        self.service = None;
    }

    /// Removes and re-inserts victim `turn`, timing each acknowledged write.
    fn churn_pair(&mut self, turn: usize, latencies_ns: &mut Vec<u64>, checks: &mut Checks) {
        let victim = self.victims[turn % self.victims.len()].clone();
        let service = self.service_mut();
        let start = Instant::now();
        let removed = service.remove(victim.id());
        let between = Instant::now();
        let inserted = service.insert(&victim);
        let end = Instant::now();
        latencies_ns.push((between - start).as_nanos() as u64);
        latencies_ns.push((end - between).as_nanos() as u64);
        checks.check(removed == Ok(true), || {
            format!("remove {}: {removed:?}", victim.id())
        });
        checks.check(inserted.is_ok(), || {
            format!("insert {}: {inserted:?}", victim.id())
        });
    }

    /// Ingests the next held-back batch; returns entities per second.
    fn ingest_next(&mut self, checks: &mut Checks) -> Option<f64> {
        let batch = self.held_back.pop()?;
        let start = Instant::now();
        let ingested = self.service_mut().ingest(&batch);
        let seconds = start.elapsed().as_secs_f64();
        checks.check(ingested == Ok(batch.len()), || {
            format!("ingest of {} entities: {ingested:?}", batch.len())
        });
        self.ingested
            .extend(batch.iter().map(|e| e.id().to_string()));
        Some(batch.len() as f64 / seconds)
    }

    /// F-measure of the answers to every probe, on the reference links
    /// whose target is served right now.
    fn link_f1(&self) -> f64 {
        let service = self.service();
        let reference = adapter::links_within(&self.data.links, |id| service.contains(id));
        served_f1(&service.reader(), self.data.source.entities(), &reference)
    }

    /// Every acknowledged write must be visible in `service`.
    fn check_visible(&self, service: &Durable, checks: &mut Checks) {
        for id in self
            .victims
            .iter()
            .map(Entity::id)
            .chain(self.ingested.iter().map(String::as_str))
        {
            checks.check(service.contains(id), || {
                format!("{id} was acknowledged but is not served after recovery")
            });
        }
    }
}

/// What a store held just before it crashed.
struct PreCrash {
    acknowledged: u64,
    served: usize,
    /// A seeded sample of probe positions and the answers they got.
    answers: Vec<(usize, Vec<FoundLink>)>,
}

impl PreCrash {
    fn of(store: &DurableStore, sample: usize, seed: u64) -> PreCrash {
        let service = store.service();
        let reader = service.reader();
        let probes = store.data.source.entities();
        let mut positions: Vec<usize> = (0..probes.len()).collect();
        positions.shuffle(&mut StdRng::seed_from_u64(seed));
        PreCrash {
            acknowledged: service.acknowledged(),
            served: service.len(),
            answers: positions
                .into_iter()
                .take(sample)
                .map(|position| (position, reader.query(&probes[position])))
                .collect(),
        }
    }

    /// A recovered service must hold exactly the acknowledged state.
    fn check(&self, store: &DurableStore, recovered: &Durable, checks: &mut Checks) {
        let found = (recovered.acknowledged(), recovered.len());
        checks.check(found == (self.acknowledged, self.served), || {
            format!(
                "recovered {found:?} (mutations, entities), acknowledged {:?}",
                (self.acknowledged, self.served)
            )
        });
        let reader = recovered.reader();
        for (position, answer) in &self.answers {
            let probe = &store.data.source.entities()[*position];
            checks.check(&reader.query(probe) == answer, || {
                format!(
                    "recovered answer for {} differs from the pre-crash answer",
                    probe.id()
                )
            });
        }
        store.check_visible(recovered, checks);
    }
}

pub struct ServeChurn;

impl ServeChurn {
    /// Held-back batches; one is ingested every [`Self::PAIRS_PER_INGEST`]
    /// pairs while any remain (at ~45 pairs a second, over the first 17 s
    /// of a run).
    const BATCHES: usize = 8;
    const PAIRS_PER_INGEST: usize = 96;
    /// Cora x2: 3,773 entities, 2,749 of them served at the start.
    const SCALE: f64 = 2.0;
}

impl Workload for ServeChurn {
    type Inputs = DurableStore;

    fn set_up(ctx: &Ctx) -> Result<DurableStore, String> {
        DurableStore::create(ctx, Self::SCALE, Self::BATCHES)
    }

    /// One writer does acknowledged remove + insert pairs (each write is
    /// one operation), an ingest batch now and then, and a final compact;
    /// the other clients — none at `--threads 1` — query throughout.  A
    /// reader that holds an epoch makes every publication copy what it
    /// would otherwise change in place: a write beside one reader takes
    /// three times as long, and how long depends on how the two threads
    /// share the cores.
    fn measure(ctx: &Ctx, store: &mut DurableStore) -> Measured {
        let probes = store.data.source.entities().to_vec();
        let reader = store.service().reader();
        let stop = AtomicBool::new(false);
        let mut checks = Checks::default();
        let mut latencies_ns = Vec::new();
        let mut ingest_per_s = Vec::new();
        let mut compact_s = 0.0;
        let mut wall_s = 0.0;
        let query_ns: Vec<u64> = std::thread::scope(|scope| {
            let readers: Vec<_> = (1..ctx.threads)
                .map(|client| {
                    let (reader, probes, stop) = (reader.clone(), &probes, &stop);
                    scope.spawn(move || {
                        let mut scratch = CandidateScratch::new();
                        let mut hits = Vec::new();
                        let mut latencies_ns = Vec::new();
                        for probe in probes.iter().cycle().skip(client * 977) {
                            let start = Instant::now();
                            reader.query_fast(probe, &mut scratch, &mut hits);
                            latencies_ns.push(start.elapsed().as_nanos() as u64);
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        latencies_ns
                    })
                })
                .collect();
            let started = Instant::now();
            let deadline = ctx.deadline();
            let mut turn = 0;
            while Instant::now() < deadline {
                store.churn_pair(turn, &mut latencies_ns, &mut checks);
                turn += 1;
                if turn % Self::PAIRS_PER_INGEST == 0 {
                    ingest_per_s.extend(store.ingest_next(&mut checks));
                }
            }
            wall_s = started.elapsed().as_secs_f64();
            let start = Instant::now();
            let compacted = store.service_mut().compact();
            compact_s = start.elapsed().as_secs_f64();
            checks.check(compacted.is_ok(), || format!("compact: {compacted:?}"));
            stop.store(true, Ordering::Relaxed);
            readers
                .into_iter()
                .flat_map(|reader| reader.join().expect("reader thread panicked"))
                .collect()
        });
        let query_ms = stats::sorted(query_ns.iter().map(|&ns| ns as f64 / 1e6).collect());
        Measured {
            notes: vec![
                format!(
                    "{} entities served at the end, {} victims, {} acknowledged mutations",
                    store.service().len(),
                    store.victims.len(),
                    store.service().acknowledged()
                ),
                if query_ms.is_empty() {
                    "no reader beside the writer (--threads 1)".to_string()
                } else {
                    format!(
                        "queries beside the writer: {} at {:.0}/s, p50 {:.4} ms, p99 {:.4} ms",
                        query_ms.len(),
                        query_ms.len() as f64 / wall_s,
                        stats::median(&query_ms),
                        stats::nearest_rank(&query_ms, 99.0)
                    )
                },
                format!(
                    "{} ingest batches: median {:.0} entities/s; compact {:.4} s",
                    ingest_per_s.len(),
                    stats::median(&stats::sorted(ingest_per_s)),
                    compact_s
                ),
            ],
            // a thousand writes and more fit a run: p95 has its ten samples
            // beyond
            timing: Timing::of_operations(latencies_ns, wall_s, 95.0),
            link_f1: store.link_f1(),
            checks,
        }
    }

    /// The crash: the service is dropped without shutdown and recovered
    /// from its directory; every acknowledged write must be visible and a
    /// sample of answers must equal the pre-crash answers.
    fn verify(ctx: &Ctx, store: &mut DurableStore, checks: &mut Checks) {
        let before = PreCrash::of(store, 300, ctx.seed);
        store.crash();
        match Durable::recover(
            store.dir.path(),
            adapter::cora_title_rule(),
            store.data.source.schema(),
        ) {
            Ok((recovered, _)) => before.check(store, &recovered, checks),
            Err(err) => checks.check(false, || format!("recovery failed: {err}")),
        }
    }

    fn trace(
        ctx: &Ctx,
        store: &mut DurableStore,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        crate::layers::trace_serve_churn(ctx, store, tracer, checks)
    }
}

// --------------------------------------------------------- serve_recover --

/// A crashed store directory and what recovering it must bring back.
pub struct Crashed {
    pub(crate) store: DurableStore,
    before: PreCrash,
    /// File name of the write-ahead log inside the store directory.
    log_name: std::ffi::OsString,
    /// Log length right after the checkpoint: the header alone.
    pub(crate) compacted_len: u64,
    /// Log length right after the last acknowledged write.
    pub(crate) clean_len: u64,
    /// A length inside the record of a write that was never acknowledged:
    /// what a crash in the middle of `write` leaves behind.
    torn_len: u64,
}

pub struct ServeRecover;

impl ServeRecover {
    /// Remove + insert pairs before the checkpoint and after it: recovery
    /// restores a checkpoint and replays a log tail of `2 * PAIRS` epochs.
    const PAIRS: usize = 32;
    const BATCHES: usize = 2;
    /// Cora x1: 1,886 entities, so a run holds a hundred and more
    /// recoveries.
    const SCALE: f64 = 1.0;
}

impl Workload for ServeRecover {
    type Inputs = Crashed;

    /// Builds a store, churns it across a checkpoint, and crashes it.
    fn set_up(ctx: &Ctx) -> Result<Crashed, String> {
        let mut store = DurableStore::create(ctx, Self::SCALE, Self::BATCHES)?;
        let mut checks = Checks::default();
        let mut unused = Vec::new();
        for turn in 0..Self::PAIRS {
            store.churn_pair(turn, &mut unused, &mut checks);
        }
        store.ingest_next(&mut checks);
        store.service_mut().compact()?;
        let compacted_len = store.service().log_bytes();
        for turn in Self::PAIRS..2 * Self::PAIRS {
            store.churn_pair(turn, &mut unused, &mut checks);
        }
        store.ingest_next(&mut checks);
        if checks.failed > 0 {
            return Err(checks.messages.join("; "));
        }
        let before = PreCrash::of(&store, 100, ctx.seed);
        let clean_len = store.service().log_bytes();
        let log_name = store
            .service()
            .log_path()
            .file_name()
            .expect("the log is a file")
            .to_os_string();
        // one more write that nobody is told about; half of its record is
        // the torn tail
        let sacrificed = store.victims[0].id().to_string();
        store.service_mut().remove(&sacrificed)?;
        let torn_len = (clean_len + store.service().log_bytes()) / 2;
        store.crash();
        Ok(Crashed {
            store,
            before,
            log_name,
            compacted_len,
            clean_len,
            torn_len,
        })
    }

    /// One operation: recover a fresh copy of the crashed directory until
    /// the first query answers correctly.  Every third copy has a torn log
    /// tail.  Copying, the full answer check and clean-up are untimed.
    fn measure(ctx: &Ctx, crashed: &mut Crashed) -> Measured {
        let store = &crashed.store;
        let (first_probe, first_answer) = &crashed.before.answers[0];
        let first_probe = &store.data.source.entities()[*first_probe];
        let deadline = ctx.deadline();
        let mut checks = Checks::default();
        let mut latencies_ns = Vec::new();
        let mut link_f1 = 0.0;
        let mut notes = Vec::new();
        for turn in 0.. {
            let torn = turn % 3 == 2;
            let log_len = if torn {
                crashed.torn_len
            } else {
                crashed.clean_len
            };
            let copy = match crashed.copy_with_log(&ctx.dir, log_len) {
                Ok(copy) => copy,
                Err(err) => {
                    checks.check(false, || err);
                    break;
                }
            };
            let start = Instant::now();
            let recovered = Durable::recover(
                copy.path(),
                adapter::cora_title_rule(),
                store.data.source.schema(),
            );
            let answered = recovered
                .as_ref()
                .map(|(service, _)| service.reader().query(first_probe))
                .ok();
            latencies_ns.push(start.elapsed().as_nanos() as u64);
            match recovered {
                Err(err) => checks.check(false, || format!("recovery failed: {err}")),
                Ok((service, report)) => {
                    checks.check(answered.as_ref() == Some(first_answer), || {
                        "the first answer after recovery differs from the pre-crash answer"
                            .to_string()
                    });
                    checks.check((report.torn_tail_bytes > 0) == torn, || {
                        format!(
                            "torn copy: {torn}, recovery reported {} torn bytes",
                            report.torn_tail_bytes
                        )
                    });
                    if turn < 3 {
                        // one full check per kind of copy
                        crashed.before.check(store, &service, &mut checks);
                    }
                    if turn == 0 {
                        let reference =
                            adapter::links_within(&store.data.links, |id| service.contains(id));
                        link_f1 =
                            served_f1(&service.reader(), store.data.source.entities(), &reference);
                        notes.push(format!(
                            "{} entities, checkpoint generation {} + {} replayed epochs, \
                             log {} bytes (torn copies {} bytes)",
                            service.len(),
                            report.checkpoint_generation,
                            report.replayed_epochs,
                            crashed.clean_len,
                            crashed.torn_len
                        ));
                    }
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        Measured {
            // a few hundred recoveries fit a run, each a burst of file
            // creation and fsync: the upper quartile, like the other
            // whole-job workloads (p90 moved by a quarter between identical
            // runs)
            timing: Timing::of_serial_operations(latencies_ns, 75.0),
            link_f1,
            checks,
            notes,
        }
    }

    fn verify(_: &Ctx, _: &mut Crashed, _: &mut Checks) {
        // every recovery was checked as it happened
    }

    fn trace(
        ctx: &Ctx,
        crashed: &mut Crashed,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        crate::layers::trace_serve_recover(ctx, crashed, tracer, checks)
    }
}

impl Crashed {
    /// Copies the crashed directory and cuts the copy's log to `log_len`
    /// bytes.
    pub(crate) fn copy_with_log(
        &self,
        parent: &std::path::Path,
        log_len: u64,
    ) -> Result<ScratchDir, String> {
        let copy = ScratchDir::create(parent, "recover")?;
        let io = |err: std::io::Error| format!("cannot copy the crashed store: {err}");
        for entry in std::fs::read_dir(self.store.dir.path()).map_err(io)? {
            let entry = entry.map_err(io)?;
            std::fs::copy(entry.path(), copy.path().join(entry.file_name())).map_err(io)?;
        }
        std::fs::OpenOptions::new()
            .write(true)
            .open(copy.path().join(&self.log_name))
            .and_then(|log| log.set_len(log_len))
            .map_err(io)?;
        Ok(copy)
    }
}
