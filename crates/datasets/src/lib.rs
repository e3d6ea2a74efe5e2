//! Synthetic dataset generators mirroring the GenLink evaluation data sets.
//!
//! The paper evaluates on six data sets (Table 5/6): Cora, Restaurant,
//! SiderDrugBank, NYT, LinkedMDB and DBpediaDrugBank.  The original dumps are
//! not redistributable here, so this crate generates *synthetic analogues*
//! that reproduce the published statistics (entity counts, reference-link
//! counts, property counts and property coverage) as well as the noise
//! characteristics the learning algorithm has to overcome:
//!
//! * inconsistent letter case and typos (Cora, SiderDrugBank),
//! * token reordering and abbreviations (Cora authors, Restaurant addresses),
//! * different schemata on the two sides, including URI-valued properties
//!   (all Linked Data sets),
//! * large numbers of irrelevant properties with low coverage (NYT,
//!   LinkedMDB, DBpediaDrugBank) — this is what makes seeding matter,
//! * ambiguous labels that require a second property such as coordinates or
//!   release dates to disambiguate (NYT locations, LinkedMDB movies).
//!
//! Every generator is deterministic in its seed and accepts a `scale` factor
//! so experiments can run at paper size (`scale = 1.0`) or faster.

#![warn(unreachable_pub)]

pub mod cora;
pub mod dbpedia_drugbank;
pub mod linkedmdb;
pub mod noise;
pub mod nyt;
pub mod restaurant;
pub mod sider_drugbank;
pub mod text;
pub mod util;

use linkdisc_entity::{DataSource, ReferenceLinks};

/// A complete matching task: two data sources plus reference links.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short dataset name as used in the paper's tables.
    pub name: &'static str,
    /// The source data set `A`.
    pub source: DataSource,
    /// The target data set `B`.
    pub target: DataSource,
    /// Positive and negative reference links.
    pub links: ReferenceLinks,
}

impl Dataset {
    /// Summary statistics in the shape of Tables 5 and 6 of the paper.
    pub fn statistics(&self) -> DatasetStatistics {
        DatasetStatistics {
            name: self.name,
            source_entities: self.source.len(),
            target_entities: self.target.len(),
            positive_links: self.links.positive().len(),
            negative_links: self.links.negative().len(),
            source_properties: self.source.schema().len(),
            target_properties: self.target.schema().len(),
            source_coverage: self.source.property_coverage(),
            target_coverage: self.target.property_coverage(),
        }
    }
}

/// Statistics of a dataset (Tables 5 and 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStatistics {
    /// Dataset name.
    pub name: &'static str,
    /// Number of entities in the source data set.
    pub source_entities: usize,
    /// Number of entities in the target data set.
    pub target_entities: usize,
    /// Number of positive reference links.
    pub positive_links: usize,
    /// Number of negative reference links.
    pub negative_links: usize,
    /// Number of source properties.
    pub source_properties: usize,
    /// Number of target properties.
    pub target_properties: usize,
    /// Mean fraction of source properties set per entity.
    pub source_coverage: f64,
    /// Mean fraction of target properties set per entity.
    pub target_coverage: f64,
}

/// The six evaluation data sets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Bibliographic citations (record-linkage benchmark).
    Cora,
    /// Restaurant records from two guides (record-linkage benchmark).
    Restaurant,
    /// Drugs in Sider vs. DrugBank (OAEI 2010).
    SiderDrugBank,
    /// New York Times locations vs. DBpedia (OAEI 2011).
    Nyt,
    /// Movies in LinkedMDB vs. DBpedia.
    LinkedMdb,
    /// Drugs in DBpedia vs. DrugBank (complex manually written rule).
    DbpediaDrugBank,
}

impl DatasetKind {
    /// All data sets in the order of the paper's tables.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::Cora,
        DatasetKind::Restaurant,
        DatasetKind::SiderDrugBank,
        DatasetKind::Nyt,
        DatasetKind::LinkedMdb,
        DatasetKind::DbpediaDrugBank,
    ];

    /// Dataset name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Cora => "Cora",
            DatasetKind::Restaurant => "Restaurant",
            DatasetKind::SiderDrugBank => "SiderDrugbank",
            DatasetKind::Nyt => "NYT",
            DatasetKind::LinkedMdb => "LinkedMDB",
            DatasetKind::DbpediaDrugBank => "DBpediaDrugbank",
        }
    }

    /// The number of positive reference links of the original data set
    /// (Table 5); used as the default size at `scale = 1.0`.
    fn paper_positive_links(&self) -> usize {
        match self {
            DatasetKind::Cora => 1617,
            DatasetKind::Restaurant => 112,
            DatasetKind::SiderDrugBank => 859,
            DatasetKind::Nyt => 1920,
            DatasetKind::LinkedMdb => 100,
            DatasetKind::DbpediaDrugBank => 1403,
        }
    }

    /// Generates the dataset at the given scale (1.0 = paper size).
    pub fn generate(&self, scale: f64, seed: u64) -> Dataset {
        let links = ((self.paper_positive_links() as f64 * scale).round() as usize).max(10);
        match self {
            DatasetKind::Cora => cora::generate(links, seed),
            DatasetKind::Restaurant => restaurant::generate(links, seed),
            DatasetKind::SiderDrugBank => sider_drugbank::generate(links, seed),
            DatasetKind::Nyt => nyt::generate(links, seed),
            DatasetKind::LinkedMdb => linkedmdb::generate(links, seed),
            DatasetKind::DbpediaDrugBank => dbpedia_drugbank::generate(links, seed),
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dataset_generates_consistent_links() {
        for kind in DatasetKind::ALL {
            let dataset = kind.generate(0.1, 7);
            let stats = dataset.statistics();
            assert!(stats.positive_links >= 10, "{kind}: {stats:?}");
            assert_eq!(
                stats.positive_links, stats.negative_links,
                "{kind} should have balanced links"
            );
            // all links resolve against the data sources
            dataset
                .links
                .validate(&dataset.source, &dataset.target)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in [DatasetKind::Cora, DatasetKind::LinkedMdb] {
            let a = kind.generate(0.1, 3);
            let b = kind.generate(0.1, 3);
            assert_eq!(a.source.len(), b.source.len());
            assert_eq!(a.links.positive(), b.links.positive());
            assert_eq!(
                a.source.entities()[0].to_string(),
                b.source.entities()[0].to_string()
            );
        }
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = DatasetKind::Restaurant.generate(0.5, 1);
        let b = DatasetKind::Restaurant.generate(0.5, 2);
        assert_ne!(
            a.source.entities()[0].to_string(),
            b.source.entities()[0].to_string()
        );
    }

    #[test]
    fn scale_controls_the_link_count() {
        let small = DatasetKind::Cora.generate(0.05, 1);
        let large = DatasetKind::Cora.generate(0.2, 1);
        assert!(large.links.positive().len() > 2 * small.links.positive().len());
        assert_eq!(
            DatasetKind::Cora.generate(1.0, 1).links.positive().len(),
            1617
        );
    }

    #[test]
    fn names_match_the_paper() {
        let names: Vec<&str> = DatasetKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "Cora",
                "Restaurant",
                "SiderDrugbank",
                "NYT",
                "LinkedMDB",
                "DBpediaDrugbank"
            ]
        );
    }
}
