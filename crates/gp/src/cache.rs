//! Cross-generation fitness memoization.
//!
//! Elitism carries the best individuals into every following generation
//! unchanged, and crossover frequently reproduces genomes that were already
//! scored (identical parents, no-op recombinations, repeated subtree
//! donations).  Fitness evaluation is deterministic, so those genomes never
//! need to be re-evaluated: the [`FitnessCache`] memoizes `genome →
//! Evaluated` across generations, keyed by a caller-provided canonical hash
//! with full genome equality as the collision guard.
//!
//! The cache is sharded, and each shard sits behind a reader/writer lock:
//! lookups — the overwhelmingly common operation once the cache has warmed
//! up, and the *only* operation a steady-state evaluator pool performs on a
//! hit — take a shared read lock, so concurrent evaluator threads never
//! serialize on hits.  Writes (memoizing a freshly computed evaluation) take
//! the shard's write lock briefly; the computation itself always runs
//! outside every lock.  Hit/miss counters are atomics and count exactly one
//! of hit or miss per request regardless of interleaving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::population::Evaluated;

const SHARDS: usize = 16;

/// Genomes sharing one canonical hash, disambiguated by equality.
type Bucket<G> = Vec<(G, Evaluated)>;

/// Aggregate cache statistics, reported per iteration via
/// [`crate::IterationStats`] so experiment harnesses can show
/// evaluations-saved per generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Fitness evaluations answered from the cache.
    pub fitness_hits: u64,
    /// Fitness evaluations actually computed.
    pub fitness_misses: u64,
    /// Distinct genomes memoized.
    pub fitness_entries: usize,
    /// Entries of the problem's transformed-value memo, when it reports one
    /// (GenLink: value-chain columns over the reference pool's entities).
    pub value_cache_entries: usize,
    /// Value-memo requests answered without computing, when reported.
    pub value_cache_hits: u64,
    /// Value-memo entries computed, when reported.
    pub value_cache_misses: u64,
    /// Requests to the problem's per-comparison memo answered without
    /// measuring, when it reports one (GenLink: distance columns over the
    /// reference pairs, one per distinct `(source chain, target chain,
    /// measure)`).
    pub distance_hits: u64,
    /// Per-comparison memo entries measured, when reported.
    pub distance_misses: u64,
}

impl CacheStats {
    /// Fraction of fitness evaluations served from the cache (`0.0` before
    /// any evaluation happened).
    pub fn fitness_hit_rate(&self) -> f64 {
        hit_rate(self.fitness_hits, self.fitness_misses)
    }

    /// Fraction of the comparisons of the rules evaluated so far that were
    /// scored from an earlier rule's measurements (`0.0` before any
    /// evaluation, and for a run that stops on its first generation's rules).
    pub fn distance_hit_rate(&self) -> f64 {
        hit_rate(self.distance_hits, self.distance_misses)
    }

    /// Always `0.0`: no problem evaluates through candidate leaf indexes any
    /// more (GenLink's fitness scores every reference pair directly).  Kept
    /// because `benchmark/src/adapter.rs` names it and a PR that claims a
    /// gain may not edit the benchmark; delete it together with the
    /// benchmark's `core.leaf_reuse_hit_ratio` metric.
    pub fn leaf_reuse_hit_rate(&self) -> f64 {
        0.0
    }
}

/// `hits / (hits + misses)`, `0.0` before any request.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

/// A memo of genome evaluations surviving across generations.  Safe to
/// share across evaluator threads: reads take a shard's read lock, so
/// concurrent hits proceed in parallel.
#[derive(Debug)]
pub struct FitnessCache<G> {
    shards: Vec<RwLock<HashMap<u64, Bucket<G>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<G> Default for FitnessCache<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G> FitnessCache<G> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        FitnessCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> &RwLock<HashMap<u64, Bucket<G>>> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Number of memoized genomes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("fitness cache poisoned")
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Returns `true` if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluations answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Evaluations computed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every memoized evaluation and resets the counters.  Call this
    /// when the fitness landscape changes (e.g. the training links are
    /// extended by an active-learning query): memoized scores would
    /// otherwise go stale.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("fitness cache poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl<G: Clone + PartialEq> FitnessCache<G> {
    /// The memoized evaluation of `genome`, if present.  `hash` must be a
    /// canonical structural hash: equal genomes must hash equally; unequal
    /// genomes sharing a hash are disambiguated by `PartialEq`.  Takes only
    /// the shard's read lock, so concurrent lookups never contend.
    pub fn get(&self, hash: u64, genome: &G) -> Option<Evaluated> {
        let shard = self.shard(hash).read().expect("fitness cache poisoned");
        let found = shard
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|(g, _)| g == genome))
            .map(|(_, evaluation)| *evaluation);
        drop(shard);
        match found {
            Some(evaluation) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(evaluation)
            }
            None => None,
        }
    }

    /// The memoized evaluation of `genome`, computing and memoizing it on a
    /// miss.  `compute` runs outside every lock, so concurrent misses on
    /// the same genome may both compute — evaluation is deterministic, so
    /// either result is the same, and the first writer's entry wins (the
    /// second insert observes it and backs off, keeping `len` exact).
    pub fn get_or_insert_with(
        &self,
        hash: u64,
        genome: &G,
        compute: impl FnOnce() -> Evaluated,
    ) -> Evaluated {
        if let Some(evaluation) = self.get(hash, genome) {
            return evaluation;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let evaluation = compute();
        let mut shard = self.shard(hash).write().expect("fitness cache poisoned");
        let bucket = shard.entry(hash).or_default();
        if !bucket.iter().any(|(g, _)| g == genome) {
            bucket.push((genome.clone(), evaluation));
        }
        evaluation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluated(fitness: f64) -> Evaluated {
        Evaluated {
            fitness,
            f_measure: fitness,
        }
    }

    #[test]
    fn memoizes_and_counts_hits() {
        let cache: FitnessCache<String> = FitnessCache::new();
        let genome = "rule".to_string();
        let mut computed = 0;
        for _ in 0..3 {
            let result = cache.get_or_insert_with(7, &genome, || {
                computed += 1;
                evaluated(0.5)
            });
            assert_eq!(result.fitness, 0.5);
        }
        assert_eq!(computed, 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hash_collisions_are_disambiguated_by_equality() {
        let cache: FitnessCache<String> = FitnessCache::new();
        let a = "a".to_string();
        let b = "b".to_string();
        cache.get_or_insert_with(1, &a, || evaluated(0.1));
        let result = cache.get_or_insert_with(1, &b, || evaluated(0.9));
        assert_eq!(result.fitness, 0.9);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1, &a).unwrap().fitness, 0.1);
        assert_eq!(cache.get(1, &b).unwrap().fitness, 0.9);
    }

    #[test]
    fn clear_invalidates_every_entry() {
        let cache: FitnessCache<u32> = FitnessCache::new();
        for genome in 0..10u32 {
            cache.get_or_insert_with(genome as u64, &genome, || evaluated(0.2));
        }
        assert_eq!(cache.len(), 10);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        // a fresh lookup recomputes instead of serving a stale value
        let mut recomputed = false;
        cache.get_or_insert_with(3, &3u32, || {
            recomputed = true;
            evaluated(0.8)
        });
        assert!(recomputed);
    }

    /// The steady-state evaluator pool hammers one shared cache from many
    /// threads at once.  Under contention the counters must stay coherent —
    /// every request increments exactly one of hits/misses — lookups must
    /// always return the value the genome was first memoized with, and the
    /// entry count must equal the distinct genomes (racing double-computes
    /// are allowed, duplicate *entries* are not).
    #[test]
    fn concurrent_evaluators_preserve_counters_and_values() {
        let cache: FitnessCache<u32> = FitnessCache::new();
        const THREADS: usize = 8;
        const OPS: usize = 400;
        const GENOMES: u32 = 37; // deliberately fewer than total ops: heavy reuse
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for op in 0..OPS {
                        // spread threads over the genome space in different
                        // orders so reads and writes genuinely interleave
                        let genome = ((op * (thread + 1)) as u32) % GENOMES;
                        // one bucket per 4 genomes: collisions exercised too
                        let hash = (genome / 4) as u64;
                        let result = cache.get_or_insert_with(hash, &genome, || {
                            evaluated(genome as f64 / GENOMES as f64)
                        });
                        assert_eq!(
                            result.fitness,
                            genome as f64 / GENOMES as f64,
                            "a lookup must never observe another genome's value"
                        );
                    }
                });
            }
        });
        assert_eq!(
            cache.hits() + cache.misses(),
            (THREADS * OPS) as u64,
            "every request counts as exactly one hit or one miss"
        );
        assert_eq!(
            cache.len(),
            GENOMES as usize,
            "racing double-computes must not duplicate entries"
        );
        assert!(cache.misses() >= GENOMES as u64);
        // sequential re-reads are all hits and all correct
        let hits_before = cache.hits();
        for genome in 0..GENOMES {
            let result = cache.get((genome / 4) as u64, &genome).expect("memoized");
            assert_eq!(result.fitness, genome as f64 / GENOMES as f64);
        }
        assert_eq!(cache.hits(), hits_before + GENOMES as u64);
    }

    #[test]
    fn stats_hit_rate() {
        let stats = CacheStats {
            fitness_hits: 3,
            fitness_misses: 1,
            ..CacheStats::default()
        };
        assert!((stats.fitness_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().fitness_hit_rate(), 0.0);
    }
}
