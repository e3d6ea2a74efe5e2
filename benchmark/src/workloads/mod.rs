//! The workloads and the skeleton every one of them runs through:
//! set up (several times, timed) → measure for the requested seconds →
//! read peak memory → check the outputs against an oracle.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::spec;
use crate::stats;
use crate::trace::Tracer;

pub mod learn;
pub mod matching;
pub mod serve;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Drives data generation, learner seeds and request order.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Passed to every `threads` option of the library, and the number of
    /// client threads of the serving workloads.  Never 0 ("all cores").
    pub threads: usize,
    /// 1.0, or 0.1 under `--smoke` (every input a tenth of its size).
    pub size: f64,
    /// Parent of the store directories of the durable workloads.
    pub dir: PathBuf,
}

impl Ctx {
    /// `full` scaled by `--smoke`, never below `floor`.
    pub fn sized(&self, full: f64, floor: f64) -> f64 {
        (full * self.size).max(floor)
    }

    /// The instant the measured phase ends.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Oracle bookkeeping: every operation and every comparison against an
/// expected output is one attempt; an error or a mismatch is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message());
            }
        }
    }

    /// Counts `count` operations that completed without error.
    pub fn passed(&mut self, count: u64) {
        self.attempted += count;
    }
}

/// The three timing metrics of a run and the operations they rest on.
pub struct Timing {
    pub operations: usize,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub ops_per_s: f64,
    /// For the log: what the tail is, and the percentiles worth printing.
    pub note: String,
}

impl Timing {
    /// From the wall time of every operation, all of them taken together:
    /// the median, the `tail_percentile`-th percentile (nearest rank) and
    /// operations per second of `wall_s`.  The percentile is fixed per
    /// workload, so that the metric means the same thing on every run: p95
    /// where a run yields the thousands of samples that leave ten and more
    /// beyond it, the upper quartile where a run is a few dozen whole jobs.
    pub fn of_operations(mut latencies_ns: Vec<u64>, wall_s: f64, tail_percentile: f64) -> Timing {
        // in place: a copy of a few million samples would show in peak memory
        latencies_ns.sort_unstable();
        let ms = |ns: u64| ns as f64 / 1e6;
        let n = latencies_ns.len();
        // printed, not gated: every percentile with ten samples beyond it
        let percentiles: Vec<String> =
            [("p90", 90.0), ("p95", 95.0), ("p99", 99.0), ("p99.9", 99.9)]
                .iter()
                .filter_map(|(label, p)| {
                    stats::percentile(&latencies_ns, *p).map(|ns| format!("{label} {:.6}", ms(ns)))
                })
                .collect();
        Timing {
            operations: n,
            // the lower and the upper middle sample: one and the same for
            // an odd count
            op_p50_ms: (ms(stats::nearest_rank(&latencies_ns, 50.0))
                + ms(latencies_ns.get(n / 2).copied().unwrap_or_default()))
                / 2.0,
            op_tail_ms: ms(stats::nearest_rank(&latencies_ns, tail_percentile)),
            ops_per_s: n as f64 / wall_s,
            note: format!(
                "{n} operations in {wall_s:.3} s; op_tail_ms is p{tail_percentile}; slowest {:.6} ms; \
                 percentiles with {} samples beyond them: {}",
                ms(latencies_ns.last().copied().unwrap_or_default()),
                stats::MIN_BEYOND,
                if percentiles.is_empty() {
                    "none".to_string()
                } else {
                    format!("{} ms", percentiles.join(", "))
                }
            ),
        }
    }

    /// [`Timing::of_operations`] for operations that ran one after another
    /// on one client: the phase is the sum of their times (bookkeeping
    /// between them excluded).
    pub fn of_serial_operations(latencies_ns: Vec<u64>, tail_percentile: f64) -> Timing {
        let wall_s = latencies_ns.iter().sum::<u64>() as f64 / 1e9;
        Timing::of_operations(latencies_ns, wall_s, tail_percentile)
    }
}

/// What the measured phase produced.
pub struct Measured {
    pub timing: Timing,
    /// F-measure of the links the operations produced, on reference links.
    pub link_f1: f64,
    pub checks: Checks,
    /// Free-form lines for the log (sizes, counts, secondary timings).
    pub notes: Vec<String>,
}

/// One workload: inputs made from the seed, one kind of operation a user
/// waits for, and an oracle for its outputs.
pub trait Workload {
    /// Everything the operation runs against.
    type Inputs;
    /// Generates the inputs and builds what the operation needs (stores,
    /// indexes, directories).  Timed as `setup_s`.
    fn set_up(ctx: &Ctx) -> Result<Self::Inputs, String>;

    /// Runs operations until `ctx.deadline()`, timing each.
    fn measure(ctx: &Ctx, inputs: &mut Self::Inputs) -> Measured;

    /// Checks the outputs against the oracle; untimed, and after peak
    /// memory was read, so the oracle's own footprint is not reported.
    fn verify(ctx: &Ctx, inputs: &mut Self::Inputs, checks: &mut Checks);

    /// The traced run: the job decomposed into calls into each layer, each
    /// inside a span; returns the per-layer metrics it could measure.
    fn trace(
        ctx: &Ctx,
        inputs: &mut Self::Inputs,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)>;
}

/// Set-ups are repeated until this much time went into them (at least
/// [`MIN_SETUPS`], at most [`MAX_SETUPS`]); the median is reported.  Cheap
/// set-ups (milliseconds of generation) need a hundred repetitions and more
/// to read steadily — the first few dozen fall into the process's cold
/// start — while expensive ones stop at five.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 2_000;

fn set_up_repeatedly<W: Workload>(ctx: &Ctx) -> Result<(W::Inputs, f64), String> {
    let mut seconds = Vec::new();
    let mut total = 0.0;
    loop {
        let start = Instant::now();
        let inputs = W::set_up(ctx)?;
        let elapsed = start.elapsed().as_secs_f64();
        seconds.push(elapsed);
        total += elapsed;
        if seconds.len() >= MAX_SETUPS || (seconds.len() >= MIN_SETUPS && total >= SETUP_BUDGET_S) {
            return Ok((inputs, stats::median(&stats::sorted(seconds))));
        }
        // released before the next set-up so two copies are never resident
        drop(inputs);
    }
}

/// The result line of one invocation.
pub struct Outcome {
    pub checks: Checks,
    /// `(name, value, unit)` for every end-to-end metric (untraced) or
    /// every per-layer metric (traced).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

/// Runs workload `W` untraced and reports the end-to-end metrics.
pub fn run_end_to_end<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let (mut inputs, setup_s) = set_up_repeatedly::<W>(ctx)?;
    let measured = W::measure(ctx, &mut inputs);
    let peak_rss_mb = crate::host::peak_rss_mib().unwrap_or(0.0);
    let mut checks = measured.checks;
    W::verify(ctx, &mut inputs, &mut checks);
    drop(inputs);

    let timing = measured.timing;
    let mut notes = measured.notes;
    notes.push(timing.note);
    let values = [
        setup_s,
        timing.op_p50_ms,
        timing.op_tail_ms,
        timing.ops_per_s,
        peak_rss_mb,
        measured.link_f1,
    ];
    Ok(Outcome {
        checks,
        metrics: spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(metric, value)| (metric.name, value, metric.unit))
            .collect(),
        notes,
    })
}

/// Runs workload `W` traced and reports the per-layer metrics; layers the
/// workload does not exercise report 0.  Writes the spans to
/// `<out>/trace.<workload>.json`.
pub fn run_traced<W: Workload>(
    ctx: &Ctx,
    workload: &str,
    out: &std::path::Path,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(workload);
    let mut inputs = tracer.span("setup", |_| (W::set_up(ctx), 1))?;
    let mut checks = Checks::default();
    let measured = W::trace(ctx, &mut inputs, &mut tracer, &mut checks);
    drop(inputs);
    for (name, _) in &measured {
        assert!(
            spec::PER_LAYER.iter().any(|metric| metric.name == *name),
            "{name} is not a declared per-layer metric"
        );
    }
    std::fs::create_dir_all(out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let path = out.join(format!("trace.{workload}.json"));
    std::fs::write(&path, tracer.to_json().render_pretty())
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    checks.passed(tracer.spans().len() as u64);
    Ok(Outcome {
        checks,
        metrics: spec::PER_LAYER
            .iter()
            .map(|metric| {
                let value = measured
                    .iter()
                    .find(|(name, _)| *name == metric.name)
                    .map_or(0.0, |(_, value)| *value);
                (metric.name, value, metric.unit)
            })
            .collect(),
        notes: vec![format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )],
    })
}

/// A directory that is removed when the value is dropped — on success, on
/// an error return and on a panic alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh, empty directory `<parent>/<label>-<pid>-<n>`.
    pub fn create(parent: &std::path::Path, label: &str) -> Result<ScratchDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = parent.join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|err| format!("cannot create {}: {err}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::Timing;

    #[test]
    fn timing_reports_median_fixed_tail_and_rate() {
        let ms = |v: &[u64]| v.iter().map(|ms| ms * 1_000_000).collect::<Vec<u64>>();
        let odd = Timing::of_serial_operations(ms(&[30, 10, 50, 20, 40]), 75.0);
        assert_eq!(
            (odd.operations, odd.op_p50_ms, odd.op_tail_ms),
            (5, 30.0, 40.0)
        );
        assert!((odd.ops_per_s - 5.0 / 0.150).abs() < 1e-9);
        let even = Timing::of_operations(ms(&[40, 10, 30, 20]), 2.0, 95.0);
        assert_eq!(
            (even.op_p50_ms, even.op_tail_ms, even.ops_per_s),
            (25.0, 40.0, 2.0)
        );
    }
}
