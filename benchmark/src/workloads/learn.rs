//! `learn_gen` and `learn_steady`: one operation is one complete learning
//! job (`GenLink::learn`) on the training fold of generated reference
//! links.  A run learns on several generated datasets in turn: how long a
//! job takes depends on the sample (string lengths, how soon the population
//! converges) by a tenth either way, and a run must read the workload, not
//! the one sample its seed drew.

use std::time::Instant;

use super::{Checks, Ctx, Measured, Timing, Workload};
use crate::adapter::{self, Dataset, DatasetKind, LearnJob, ReferenceLinks, Schedule};
use crate::stats;
use crate::trace::Tracer;

/// The fixed shape of a learning workload.
struct Shape {
    kind: DatasetKind,
    /// Dataset scale (1.0 = the paper's link count).
    scale: f64,
    /// Datasets generated per run; repetition `n` learns on dataset
    /// `n % datasets`.
    datasets: usize,
    schedule: Schedule,
    population: usize,
    generations: usize,
    /// The median training F-measure over a run's repetitions must reach
    /// this.  The median, because at these small budgets one trajectory in
    /// thirty ends on a trivial rule (F1 = 0.67: everything links) and a
    /// workload must not fail by seed luck; a learner that stopped learning
    /// moves the median, and `link_f1` with its bound guards the rest.
    min_median_training_f1: f64,
}

/// Cora has the long strings (titles, author lists), so kernels and
/// compiled evaluation dominate a generation.
const GENERATIONAL: Shape = Shape {
    kind: DatasetKind::Cora,
    scale: 0.1,
    datasets: 16,
    schedule: Schedule::Generational,
    population: 80,
    generations: 5,
    min_median_training_f1: 0.9,
};

/// SiderDrugBank has two schemata, short strings and many property pairs:
/// the work shifts to seeding, breeding, compiling and leaf-index reuse,
/// and the schedule has no generation barrier.
const STEADY_STATE: Shape = Shape {
    kind: DatasetKind::SiderDrugBank,
    scale: 0.35,
    datasets: 8,
    schedule: Schedule::SteadyState,
    population: 100,
    generations: 5,
    min_median_training_f1: 0.8,
};

/// One generated dataset with its reference links cut into two folds.
pub struct Sample {
    pub(crate) data: Dataset,
    pub(crate) training: ReferenceLinks,
    held_out: ReferenceLinks,
}

pub struct Inputs {
    pub(crate) samples: Vec<Sample>,
    /// Rule hash the first repetition learned, for the determinism check.
    first_rule: Option<(u64, u64)>,
}

impl Shape {
    fn job(&self, ctx: &Ctx) -> LearnJob {
        LearnJob {
            schedule: self.schedule,
            population: self.population,
            generations: self.generations,
            threads: ctx.threads,
        }
    }

    fn set_up(&self, ctx: &Ctx) -> Result<Inputs, String> {
        let samples = (0..self.datasets as u64)
            .map(|n| {
                let seed = Self::derived_seed(ctx, n);
                let data = adapter::generate(self.kind, ctx.sized(self.scale, 0.0), seed);
                let (training, held_out) = adapter::two_folds(&data.links, seed);
                Sample {
                    data,
                    training,
                    held_out,
                }
            })
            .collect();
        Ok(Inputs {
            samples,
            first_rule: None,
        })
    }

    /// The seed of dataset `n` and the learner seed of repetition `n`:
    /// every repetition explores a different trajectory, so the median is
    /// over samples and trajectories as well as over machine noise.
    fn derived_seed(ctx: &Ctx, n: u64) -> u64 {
        ctx.seed.wrapping_mul(1_000_003).wrapping_add(n)
    }

    fn measure(&self, ctx: &Ctx, inputs: &mut Inputs) -> Measured {
        let job = self.job(ctx);
        let deadline = ctx.deadline();
        let mut latencies_ns = Vec::new();
        let mut training_f1 = Vec::new();
        let mut held_out_f1 = Vec::new();
        let mut checks = Checks::default();
        // no warm-up: a user pays the cold caches of a fresh learner; and no
        // job is run twice for its faster time, as the matching jobs are: a
        // run needs its ninety different trajectories more than quiet ones
        // (with two or three runs per job the spread over ten seeds grew)
        for rep in 0.. {
            let seed = Self::derived_seed(ctx, rep);
            let sample = &inputs.samples[rep as usize % inputs.samples.len()];
            let start = Instant::now();
            let learned = adapter::learn(&job, &sample.data, &sample.training, seed, |_| {});
            latencies_ns.push(start.elapsed().as_nanos() as u64);
            checks.check(!learned.rule.is_empty(), || {
                format!("repetition {rep} learned the empty rule")
            });
            training_f1.push(learned.training_f1);
            held_out_f1.push(adapter::rule_f1(
                &learned.rule,
                &sample.held_out,
                &sample.data,
            ));
            if rep == 0 {
                inputs.first_rule = Some((seed, adapter::rule_hash(&learned.rule)));
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let median_training_f1 = stats::median(&stats::sorted(training_f1));
        checks.check(median_training_f1 >= self.min_median_training_f1, || {
            format!(
                "median training F1 {median_training_f1:.3} below {}",
                self.min_median_training_f1
            )
        });
        let first = &inputs.samples[0];
        // the mean, not the median: most jobs end on a perfect held-out
        // score, and it is the share that do not that a worse learner moves
        let mean_held_out_f1 = held_out_f1.iter().sum::<f64>() / held_out_f1.len() as f64;
        let held_out_sorted = stats::sorted(held_out_f1);
        Measured {
            notes: vec![format!(
                "{} datasets of {} x {} entities and {} training links (the first), \
                 population {} x {} generations, median training F1 {median_training_f1:.3}, \
                 held-out F1 min {:.3} / q1 {:.3} / median {:.3} / mean {mean_held_out_f1:.3}",
                inputs.samples.len(),
                first.data.source.len(),
                first.data.target.len(),
                first.training.len(),
                self.population,
                self.generations,
                held_out_sorted[0],
                stats::nearest_rank(&held_out_sorted, 25.0),
                stats::median(&held_out_sorted),
            )],
            // a run holds ninety jobs: the upper quartile
            timing: Timing::of_serial_operations(latencies_ns, 75.0),
            link_f1: mean_held_out_f1,
            checks,
        }
    }

    /// Determinism: the first repetition's seed must learn the same rule
    /// again.
    fn verify(&self, ctx: &Ctx, inputs: &mut Inputs, checks: &mut Checks) {
        let Some((seed, hash)) = inputs.first_rule else {
            return;
        };
        let first = &inputs.samples[0];
        let again = adapter::learn(&self.job(ctx), &first.data, &first.training, seed, |_| {});
        checks.check(adapter::rule_hash(&again.rule) == hash, || {
            format!("learner seed {seed} learned a different rule the second time")
        });
    }
}

/// `STEADY = false` is `learn_gen`, `true` is `learn_steady`.
pub struct Learn<const STEADY: bool>;
pub type LearnGen = Learn<false>;
pub type LearnSteady = Learn<true>;

impl<const STEADY: bool> Learn<STEADY> {
    const SHAPE: &'static Shape = if STEADY { &STEADY_STATE } else { &GENERATIONAL };
}

impl<const STEADY: bool> Workload for Learn<STEADY> {
    type Inputs = Inputs;

    fn set_up(ctx: &Ctx) -> Result<Inputs, String> {
        Self::SHAPE.set_up(ctx)
    }
    fn measure(ctx: &Ctx, inputs: &mut Inputs) -> Measured {
        Self::SHAPE.measure(ctx, inputs)
    }
    fn verify(ctx: &Ctx, inputs: &mut Inputs, checks: &mut Checks) {
        Self::SHAPE.verify(ctx, inputs, checks)
    }
    fn trace(
        ctx: &Ctx,
        inputs: &mut Inputs,
        tracer: &mut Tracer,
        _: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        crate::layers::trace_learn(ctx, &Self::SHAPE.job(ctx), inputs, tracer)
    }
}
