//! Active learning: query selection by committee disagreement.
//!
//! The GenLink paper points to a companion method (Isele, Jentzsch & Bizer,
//! ICWE 2012 — reference [21]) that minimises the number of entity pairs a
//! domain expert has to confirm or reject: instead of labelling random pairs,
//! the learner asks about the pairs on which the current population of
//! candidate rules *disagrees* the most (query-by-committee).  This module
//! implements that selection strategy on top of the GenLink population so the
//! library can be used interactively:
//!
//! 1. learn an initial population from a few labelled links,
//! 2. call [`select_queries`] with a pool of unlabelled candidate pairs,
//! 3. have the expert label the returned pairs, add them to the reference
//!    links, and re-learn.

use std::collections::HashSet;
use std::sync::Arc;

use linkdisc_entity::{DataSource, EntityPair, Link};
use linkdisc_matching::{CandidateScratch, MultiBlockIndex, SharedLeafIndexes};
use linkdisc_rule::{IndexingPlan, LinkageRule, ValueCache, LINK_THRESHOLD};

/// An unlabelled candidate pair together with the committee's disagreement
/// about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The candidate link.
    pub link: Link,
    /// Fraction of committee rules that vote "link" (0.0–1.0).
    pub agreement: f64,
    /// Vote entropy in bits: 0 for unanimous committees, 1 for a 50/50 split.
    pub disagreement: f64,
}

/// Computes the vote entropy of a committee split where `p` is the fraction of
/// positive votes.
fn vote_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Selects the `count` candidate pairs the committee disagrees about the most.
///
/// `committee` is any set of linkage rules — typically the fittest rules of
/// the current GenLink population.  Candidates whose endpoints cannot be
/// resolved are skipped.  The result is sorted by descending disagreement;
/// ties are broken deterministically by the link identifiers.
pub fn select_queries(
    committee: &[LinkageRule],
    candidates: &[Link],
    source: &DataSource,
    target: &DataSource,
    count: usize,
) -> Vec<Query> {
    if committee.is_empty() || count == 0 {
        return Vec::new();
    }
    let mut queries: Vec<Query> = candidates
        .iter()
        .filter_map(|link| {
            let pair = EntityPair::resolve(link, source, target)?;
            let votes = committee.iter().filter(|rule| rule.is_link(&pair)).count();
            let agreement = votes as f64 / committee.len() as f64;
            Some(Query {
                link: link.clone(),
                agreement,
                disagreement: vote_entropy(agreement),
            })
        })
        .collect();
    queries.sort_by(|a, b| {
        b.disagreement
            .total_cmp(&a.disagreement)
            .then_with(|| a.link.cmp(&b.link))
    });
    queries.truncate(count);
    queries
}

/// Builds a pool of unlabelled candidate pairs by pairing every source entity
/// with every target entity and dropping the pairs already covered by the
/// reference links.  Intended for small data sets; large sources should use
/// [`indexed_candidate_pool`], which prunes through the committee's own
/// MultiBlock indexes.
pub fn candidate_pool(
    source: &DataSource,
    target: &DataSource,
    labelled: &linkdisc_entity::ReferenceLinks,
) -> Vec<Link> {
    let known = known_pairs(labelled);
    let mut pool = Vec::new();
    for source_entity in source.entities() {
        for target_entity in target.entities() {
            let key = (
                source_entity.id().to_string(),
                target_entity.id().to_string(),
            );
            if !known.contains(&key) {
                pool.push(Link::new(key.0, key.1));
            }
        }
    }
    pool
}

/// Builds the unlabelled candidate pool **through the committee's candidate
/// indexes** instead of the full cross product: a pair enters the pool iff
/// at least one committee rule's (lossless) MultiBlock candidate set admits
/// it — any pair outside every rule's candidate set is linked by *no* rule,
/// so the committee votes on it unanimously "no" with zero disagreement and
/// it can never be worth a query.  That is all a candidate set promises: a
/// superset of the pairs its rule can link; which non-links ride along is
/// the index's cost decision (a probe scans only the postings a match cannot
/// avoid).  Leaf indexes are drawn from `shared`, so committees sharing
/// comparisons (they evolved from one population) index the target once per
/// distinct `(chain, measure, bound bucket)` rather than once per rule.
///
/// Rules whose plan cannot prune make the whole pool degrade to
/// [`candidate_pool`] — never worse, never lossy.  Memory is `O(|target|)`
/// and work is proportional to the candidates the indexes emit, never to
/// the cross product.  The result is deterministic: source entities in
/// data-source order, each row's targets in data-source order.
pub fn indexed_candidate_pool(
    committee: &[LinkageRule],
    source: &DataSource,
    target: &DataSource,
    labelled: &linkdisc_entity::ReferenceLinks,
    shared: &SharedLeafIndexes,
) -> Vec<Link> {
    // lower every rule before building anything: one unprunable rule
    // admits every pair, and no sibling index can shrink a union, so the
    // fallback must be decided before any index work is spent
    let mut plans: Vec<IndexingPlan> = Vec::new();
    for rule in committee {
        let plan = IndexingPlan::lower(rule, source.schema(), target.schema(), LINK_THRESHOLD)
            .canonicalized();
        if plan.is_empty_result() {
            continue;
        }
        if plan.is_exhaustive() {
            return candidate_pool(source, target, labelled);
        }
        plans.push(plan);
    }
    let targets: Vec<&linkdisc_entity::Entity> = target.entities().iter().collect();
    let cache = ValueCache::new();
    let indexes: Vec<MultiBlockIndex> = plans
        .into_iter()
        .map(|plan| MultiBlockIndex::build_shared(Arc::new(plan), &targets, &cache, shared))
        .collect();
    let known = known_pairs(labelled);
    let mut pool = Vec::new();
    let mut scratch = CandidateScratch::new();
    let mut admitted = vec![false; target.len()];
    let mut row_positions: Vec<u32> = Vec::new();
    for source_entity in source.entities() {
        for index in &indexes {
            let candidates = index.candidates(source_entity, &cache, &mut scratch, &mut []);
            for &position in &candidates {
                if !admitted[position as usize] {
                    admitted[position as usize] = true;
                    row_positions.push(position);
                }
            }
            scratch.recycle(candidates);
        }
        row_positions.sort_unstable();
        for &position in &row_positions {
            admitted[position as usize] = false;
            let key = (
                source_entity.id().to_string(),
                targets[position as usize].id().to_string(),
            );
            if !known.contains(&key) {
                pool.push(Link::new(key.0, key.1));
            }
        }
        row_positions.clear();
    }
    pool
}

/// The `(source, target)` identifier pairs already labelled.
fn known_pairs(labelled: &linkdisc_entity::ReferenceLinks) -> HashSet<(String, String)> {
    labelled
        .positive()
        .iter()
        .chain(labelled.negative())
        .map(|l| (l.source.clone(), l.target.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkdisc_entity::{DataSourceBuilder, ReferenceLinksBuilder};
    use linkdisc_rule::{compare, property, DistanceFunction};

    fn sources() -> (DataSource, DataSource) {
        let source = DataSourceBuilder::new("A", ["label"])
            .entity("a1", [("label", "alpha")])
            .unwrap()
            .entity("a2", [("label", "beta")])
            .unwrap()
            .build();
        let target = DataSourceBuilder::new("B", ["label"])
            .entity("b1", [("label", "alpha")])
            .unwrap()
            .entity("b2", [("label", "alphx")])
            .unwrap()
            .entity("b3", [("label", "gamma")])
            .unwrap()
            .build();
        (source, target)
    }

    fn committee() -> Vec<LinkageRule> {
        // a strict rule (exact match) and a lenient rule (edit distance 2):
        // they agree on exact matches and clear non-matches but disagree on
        // near matches such as alpha/alphx
        vec![
            compare(
                property("label"),
                property("label"),
                DistanceFunction::Levenshtein,
                0.5,
            )
            .into(),
            compare(
                property("label"),
                property("label"),
                DistanceFunction::Levenshtein,
                4.0,
            )
            .into(),
        ]
    }

    #[test]
    fn vote_entropy_is_maximal_at_even_splits() {
        assert_eq!(vote_entropy(0.0), 0.0);
        assert_eq!(vote_entropy(1.0), 0.0);
        assert!((vote_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(vote_entropy(0.25) < 1.0);
        assert!(vote_entropy(0.25) > 0.0);
    }

    #[test]
    fn queries_prefer_pairs_the_committee_disagrees_on() {
        let (source, target) = sources();
        let candidates = vec![
            Link::new("a1", "b1"), // both rules say link      -> no disagreement
            Link::new("a1", "b2"), // strict says no, lenient yes -> disagreement
            Link::new("a1", "b3"), // both say no               -> no disagreement
        ];
        let queries = select_queries(&committee(), &candidates, &source, &target, 2);
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].link, Link::new("a1", "b2"));
        assert!(queries[0].disagreement > queries[1].disagreement);
        assert!((queries[0].agreement - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unresolvable_candidates_are_skipped_and_count_is_respected() {
        let (source, target) = sources();
        let candidates = vec![Link::new("ghost", "b1"), Link::new("a1", "b2")];
        let queries = select_queries(&committee(), &candidates, &source, &target, 5);
        assert_eq!(queries.len(), 1);
        assert!(select_queries(&[], &candidates, &source, &target, 5).is_empty());
        assert!(select_queries(&committee(), &candidates, &source, &target, 0).is_empty());
    }

    #[test]
    fn indexed_pool_keeps_every_pair_any_rule_could_link() {
        let (source, target) = sources();
        let labelled = ReferenceLinksBuilder::new().positive("a1", "b1").build();
        // the strict + lenient pair, plus a third rule whose derived bound
        // falls into the lenient rule's Levenshtein budget bucket (θ 5.0 →
        // bound 2.5, same ⌊bound⌋ = 2 as θ 4.0 → bound 2.0) so its leaf
        // index is answered from the shared cache
        let mut rules = committee();
        rules.push(
            compare(
                property("label"),
                property("label"),
                DistanceFunction::Levenshtein,
                5.0,
            )
            .into(),
        );
        let shared = SharedLeafIndexes::new();
        let pool = indexed_candidate_pool(&rules, &source, &target, &labelled, &shared);
        let full = candidate_pool(&source, &target, &labelled);
        // the indexed pool is a subset of the cross product...
        assert!(pool.iter().all(|link| full.contains(link)));
        // ...that keeps every pair at least one committee rule links (the
        // pairs a query could ever disagree about)
        for link in &full {
            let pair = EntityPair::resolve(link, &source, &target).unwrap();
            if rules.iter().any(|rule| rule.is_link(&pair)) {
                assert!(pool.contains(link), "lossless pool must keep {link:?}");
            }
        }
        // the lenient rules (edit distance ≤ 4 / ≤ 5) admit alpha/alphx,
        // while beta shares no q-gram block (nor the short-value key) with
        // alphx under any committee rule
        assert!(pool.contains(&Link::new("a1", "b2")));
        assert!(
            !pool.contains(&Link::new("a2", "b2")),
            "beta vs alphx pruned"
        );
        // query selection over the indexed pool finds the same top query
        let queries = select_queries(&rules, &pool, &source, &target, 1);
        assert_eq!(queries[0].link, Link::new("a1", "b2"));
        assert!(shared.stats().hits > 0, "{:?}", shared.stats());
    }

    #[test]
    fn indexed_pool_keeps_every_link_of_a_conjunction_that_stops_early() {
        // 150 targets share every label block but each has a code of its
        // own: the conjunction's code leaf leaves one survivor per probe, so
        // candidate generation stops before the (expensive) label leaf — the
        // pool may only grow by that, never lose a pair a rule links
        let mut target = DataSourceBuilder::new("B", ["label", "code"]);
        for i in 0..150 {
            let label = if i % 50 == 0 { "alphx" } else { "alpha" };
            target = target
                .entity(
                    format!("b{i}"),
                    [("label", label), ("code", &format!("c{i}"))],
                )
                .unwrap();
        }
        let target = target.build();
        let source = DataSourceBuilder::new("A", ["label", "code"])
            .entity("a1", [("label", "alpha"), ("code", "c7")])
            .unwrap()
            .entity("a2", [("label", "alpha"), ("code", "c50")])
            .unwrap()
            .entity("a3", [("label", "gamma"), ("code", "c9")])
            .unwrap()
            .build();
        let label = |threshold| {
            compare(
                property("label"),
                property("label"),
                DistanceFunction::Levenshtein,
                threshold,
            )
        };
        let rules: Vec<LinkageRule> = vec![
            linkdisc_rule::aggregation(
                linkdisc_rule::AggregationFunction::Min,
                vec![
                    label(2.0),
                    compare(
                        property("code"),
                        property("code"),
                        DistanceFunction::Equality,
                        0.5,
                    ),
                ],
            )
            .into(),
            label(0.5).into(),
        ];
        let labelled = ReferenceLinksBuilder::new().build();
        let shared = SharedLeafIndexes::new();
        let pool = indexed_candidate_pool(&rules, &source, &target, &labelled, &shared);
        let pool: HashSet<&Link> = pool.iter().collect();
        let mut linked = 0;
        for link in &candidate_pool(&source, &target, &labelled) {
            let pair = EntityPair::resolve(link, &source, &target).unwrap();
            if rules.iter().any(|rule| rule.is_link(&pair)) {
                linked += 1;
                assert!(pool.contains(link), "lossless pool must keep {link:?}");
            }
        }
        // a1 and a2 link every "alpha" target exactly, a2 its "alphx" twin
        assert_eq!(linked, 2 * 147 + 1);
        // the stop admitted a3's code twin, which no rule links
        assert!(pool.contains(&Link::new("a3", "b9")));
    }

    #[test]
    fn candidate_pool_excludes_labelled_pairs() {
        let (source, target) = sources();
        let labelled = ReferenceLinksBuilder::new()
            .positive("a1", "b1")
            .negative("a2", "b3")
            .build();
        let pool = candidate_pool(&source, &target, &labelled);
        assert_eq!(pool.len(), 2 * 3 - 2);
        assert!(!pool.contains(&Link::new("a1", "b1")));
        assert!(!pool.contains(&Link::new("a2", "b3")));
        assert!(pool.contains(&Link::new("a1", "b2")));
    }
}
