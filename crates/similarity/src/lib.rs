//! Distance measures for linkage rules.
//!
//! A distance measure `f^d : Σ × Σ → R` (Definition 7 of the paper) compares
//! two *value sets*.  A comparison operator turns the distance into a
//! similarity via `1 − d/θ` if `d ≤ θ` and `0` otherwise.
//!
//! Table 2 of the paper lists the measures used in all experiments:
//! `levenshtein`, `jaccard`, `numeric`, `geographic` and `date`.  This crate
//! implements those five plus a handful of measures that the Carvalho-style
//! baseline and the examples use (`equality`, `jaro`, `jaroWinkler`, `dice`).
//!
//! Value-set semantics follow Silk: the distance of two value sets is the
//! *minimum* distance over the cross product of their values, and the distance
//! involving an empty value set is unmeasurable (`f64::INFINITY`), which makes
//! the comparison yield similarity `0`.

#![warn(unreachable_pub)]

pub mod blocking;
pub mod date;
pub mod geo;
pub mod numeric;
pub mod scratch;
pub mod stats;
pub mod string;
pub mod token;

pub use blocking::{BlockKey, BlockKeyHasher, BlockKeyMap, ProbeGroup, ProbeKeys};
pub use date::date_distance;
pub use geo::{geographic_distance, parse_point};
pub use numeric::numeric_distance;
pub use stats::KernelCounters;
pub use string::{
    jaro_similarity, jaro_winkler_similarity, levenshtein, levenshtein_bounded,
    levenshtein_bounded_reference,
};
pub use token::{dice_distance, dice_ids, jaccard_distance, jaccard_ids};

/// The distance functions available to linkage rules.
///
/// The enum is the unit the genetic search recombines: *function crossover*
/// swaps one `DistanceFunction` for another, so keeping it a small `Copy`
/// value keeps crossover cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DistanceFunction {
    /// Character-level edit distance (Table 2: `levenshtein`).
    Levenshtein,
    /// Jaccard distance between the two value sets (Table 2: `jaccard`).
    Jaccard,
    /// Absolute numeric difference (Table 2: `numeric`).
    Numeric,
    /// Geographical distance in kilometres (Table 2: `geographic`; the paper
    /// reports metres — the unit change only rescales thresholds and is
    /// documented in DESIGN.md).
    Geographic,
    /// Distance between two dates in days (Table 2: `date`).
    Date,
    /// Exact equality: distance 0 if any value matches, 1 otherwise.
    Equality,
    /// Jaro distance (1 − Jaro similarity); used by the Carvalho baseline.
    Jaro,
    /// Jaro-Winkler distance (1 − Jaro-Winkler similarity).
    JaroWinkler,
    /// Dice coefficient distance over the value sets.
    Dice,
}

impl DistanceFunction {
    /// Every available distance function, in a stable order.
    pub const ALL: [DistanceFunction; 9] = [
        DistanceFunction::Levenshtein,
        DistanceFunction::Jaccard,
        DistanceFunction::Numeric,
        DistanceFunction::Geographic,
        DistanceFunction::Date,
        DistanceFunction::Equality,
        DistanceFunction::Jaro,
        DistanceFunction::JaroWinkler,
        DistanceFunction::Dice,
    ];

    /// The functions used in the paper's experiments (Table 2).
    pub const PAPER: [DistanceFunction; 5] = [
        DistanceFunction::Levenshtein,
        DistanceFunction::Jaccard,
        DistanceFunction::Numeric,
        DistanceFunction::Geographic,
        DistanceFunction::Date,
    ];

    /// The canonical name used by the rule DSL.
    pub fn name(&self) -> &'static str {
        match self {
            DistanceFunction::Levenshtein => "levenshtein",
            DistanceFunction::Jaccard => "jaccard",
            DistanceFunction::Numeric => "numeric",
            DistanceFunction::Geographic => "geographic",
            DistanceFunction::Date => "date",
            DistanceFunction::Equality => "equality",
            DistanceFunction::Jaro => "jaro",
            DistanceFunction::JaroWinkler => "jaroWinkler",
            DistanceFunction::Dice => "dice",
        }
    }

    /// Parses a DSL name back into a distance function.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// A sensible default threshold for this measure, used when random rules
    /// are generated (Section 5.1).  Thresholds are later refined by the
    /// threshold-crossover operator.
    pub fn default_threshold(&self) -> f64 {
        match self {
            DistanceFunction::Levenshtein => 2.0,
            DistanceFunction::Jaccard => 0.5,
            DistanceFunction::Numeric => 2.0,
            DistanceFunction::Geographic => 50.0,
            DistanceFunction::Date => 100.0,
            DistanceFunction::Equality => 0.5,
            DistanceFunction::Jaro => 0.4,
            DistanceFunction::JaroWinkler => 0.3,
            DistanceFunction::Dice => 0.5,
        }
    }

    /// The largest threshold the learner may assign to this measure; keeps
    /// threshold crossover within a meaningful range per measure.
    pub fn max_threshold(&self) -> f64 {
        match self {
            DistanceFunction::Levenshtein => 10.0,
            DistanceFunction::Jaccard => 1.0,
            DistanceFunction::Numeric => 1000.0,
            DistanceFunction::Geographic => 500.0,
            DistanceFunction::Date => 5000.0,
            DistanceFunction::Equality => 1.0,
            DistanceFunction::Jaro => 1.0,
            DistanceFunction::JaroWinkler => 1.0,
            DistanceFunction::Dice => 1.0,
        }
    }

    /// Computes the distance between two *single* values.
    pub fn distance_values(&self, a: &str, b: &str) -> f64 {
        match self {
            DistanceFunction::Levenshtein => string::levenshtein(a, b) as f64,
            DistanceFunction::Jaccard => token::jaccard_distance_values(a, b),
            DistanceFunction::Numeric => numeric::numeric_distance(a, b),
            DistanceFunction::Geographic => geo::geographic_distance(a, b),
            DistanceFunction::Date => date::date_distance(a, b),
            DistanceFunction::Equality => {
                if a == b {
                    0.0
                } else {
                    1.0
                }
            }
            DistanceFunction::Jaro => 1.0 - string::jaro_similarity(a, b),
            DistanceFunction::JaroWinkler => 1.0 - string::jaro_winkler_similarity(a, b),
            DistanceFunction::Dice => token::dice_distance_values(a, b),
        }
    }

    /// Computes the distance between two value sets.
    ///
    /// Set-level measures (`jaccard`, `dice`) operate on the whole value sets;
    /// all other measures return the minimum pairwise distance.  An empty
    /// value set on either side yields `f64::INFINITY`.
    pub fn evaluate(&self, a: &[String], b: &[String]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        match self {
            DistanceFunction::Jaccard => token::jaccard_distance(a, b),
            DistanceFunction::Dice => token::dice_distance(a, b),
            _ => {
                let mut min = f64::INFINITY;
                for va in a {
                    for vb in b {
                        let d = self.distance_values(va, vb);
                        if d < min {
                            min = d;
                        }
                        if min == 0.0 {
                            return 0.0;
                        }
                    }
                }
                min
            }
        }
    }

    /// Converts a distance into the similarity used by comparison operators:
    /// `1 − d/θ` if `d ≤ θ`, `0` otherwise (Definition 7 of the paper).
    pub fn similarity(&self, a: &[String], b: &[String], threshold: f64) -> f64 {
        threshold_similarity(self.evaluate(a, b), threshold)
    }
}

impl std::fmt::Display for DistanceFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The `1 − d/θ` similarity of Definition 7, handling the degenerate
/// `θ = 0` case (exact match required).
pub fn threshold_similarity(distance: f64, threshold: f64) -> f64 {
    if !distance.is_finite() {
        return 0.0;
    }
    if threshold <= 0.0 {
        return if distance <= 0.0 { 1.0 } else { 0.0 };
    }
    if distance <= threshold {
        1.0 - distance / threshold
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(values: &[&str]) -> Vec<String> {
        values.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_round_trip() {
        for f in DistanceFunction::ALL {
            assert_eq!(DistanceFunction::from_name(f.name()), Some(f));
        }
        assert_eq!(DistanceFunction::from_name("unknown"), None);
    }

    #[test]
    fn empty_value_sets_are_unmeasurable() {
        for f in DistanceFunction::ALL {
            assert!(f.evaluate(&[], &vs(&["x"])).is_infinite());
            assert!(f.evaluate(&vs(&["x"]), &[]).is_infinite());
            assert_eq!(f.similarity(&[], &vs(&["x"]), 1.0), 0.0);
        }
    }

    #[test]
    fn minimum_over_cross_product() {
        let a = vs(&["Berlin", "Munich"]);
        let b = vs(&["Muenchen", "munich"]);
        // closest pair is Munich/munich with edit distance 1
        assert_eq!(DistanceFunction::Levenshtein.evaluate(&a, &b), 1.0);
    }

    #[test]
    fn threshold_similarity_matches_definition() {
        assert_eq!(threshold_similarity(0.0, 2.0), 1.0);
        assert_eq!(threshold_similarity(1.0, 2.0), 0.5);
        assert_eq!(threshold_similarity(2.0, 2.0), 0.0);
        assert_eq!(threshold_similarity(3.0, 2.0), 0.0);
        assert_eq!(threshold_similarity(0.0, 0.0), 1.0);
        assert_eq!(threshold_similarity(0.5, 0.0), 0.0);
        assert_eq!(threshold_similarity(f64::INFINITY, 2.0), 0.0);
    }

    #[test]
    fn equality_distance() {
        assert_eq!(
            DistanceFunction::Equality.evaluate(&vs(&["a"]), &vs(&["a"])),
            0.0
        );
        assert_eq!(
            DistanceFunction::Equality.evaluate(&vs(&["a"]), &vs(&["b"])),
            1.0
        );
        assert_eq!(
            DistanceFunction::Equality.evaluate(&vs(&["a", "b"]), &vs(&["b"])),
            0.0
        );
    }

    #[test]
    fn similarity_is_always_in_unit_interval() {
        let pairs = [
            (vs(&["hello"]), vs(&["world"])),
            (vs(&["1.5"]), vs(&["42"])),
            (vs(&["2001-01-01"]), vs(&["2012-08-01"])),
            (vs(&["52.5 13.4"]), vs(&["48.9 2.35"])),
            (vs(&[]), vs(&["x"])),
        ];
        for f in DistanceFunction::ALL {
            for (a, b) in &pairs {
                for theta in [0.0, 0.5, 1.0, 10.0] {
                    let s = f.similarity(a, b, theta);
                    assert!((0.0..=1.0).contains(&s), "{f} yielded {s}");
                }
            }
        }
    }

    #[test]
    fn default_thresholds_are_within_max() {
        for f in DistanceFunction::ALL {
            assert!(f.default_threshold() <= f.max_threshold());
            assert!(f.default_threshold() > 0.0);
        }
    }
}
