//! The configuration grid of the paper's Tables 4 and 5.
//!
//! Nine representation models were evaluated under 223 distinct parameter
//! configurations, after excluding (a) invalid combinations (JS only with
//! BF weights, GJS only with TF/TF-IDF, BF only with the sum aggregation,
//! Rocchio only with cosine, CN never with TF-IDF) and (b) configurations
//! violating the *memory constraint* (32 GB — which eliminated every PLSA
//! configuration) or the *time constraint* (5 days of TTime — which
//! restricted HLDA to user pooling with 3 levels).
//!
//! The constraints are encoded as explicit rules here, so the grid is
//! reproducible as data: [`ConfigGrid::paper`] yields exactly 223
//! configurations with the per-family counts of the tables
//! (TN 36, CN 21, TNG 9, CNG 9, LDA 48, LLDA 48, BTM 24, HDP 12, HLDA 16).

use serde::{Deserialize, Serialize};

use pmr_bag::{BagSimilarity, WeightingScheme};
use pmr_graph::GraphSimilarity;
use pmr_topics::PoolingScheme;

use crate::source::RepresentationSource;

/// The nine evaluated model families, plus PLSA (excluded by the paper's
/// memory constraint but implemented).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(clippy::upper_case_acronyms)]
pub enum ModelFamily {
    /// Token n-grams bag model.
    TN,
    /// Character n-grams bag model.
    CN,
    /// Token n-gram graphs.
    TNG,
    /// Character n-gram graphs.
    CNG,
    /// Latent Dirichlet Allocation.
    LDA,
    /// Labeled LDA.
    LLDA,
    /// Biterm Topic Model.
    BTM,
    /// Hierarchical Dirichlet Process.
    HDP,
    /// Hierarchical LDA.
    HLDA,
    /// Probabilistic Latent Semantic Analysis (excluded by the paper).
    PLSA,
}

impl ModelFamily {
    /// The nine families of the paper's experiments, in reporting order.
    pub const EVALUATED: [ModelFamily; 9] = [
        ModelFamily::TN,
        ModelFamily::CN,
        ModelFamily::TNG,
        ModelFamily::CNG,
        ModelFamily::LDA,
        ModelFamily::LLDA,
        ModelFamily::BTM,
        ModelFamily::HDP,
        ModelFamily::HLDA,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::TN => "TN",
            ModelFamily::CN => "CN",
            ModelFamily::TNG => "TNG",
            ModelFamily::CNG => "CNG",
            ModelFamily::LDA => "LDA",
            ModelFamily::LLDA => "LLDA",
            ModelFamily::BTM => "BTM",
            ModelFamily::HDP => "HDP",
            ModelFamily::HLDA => "HLDA",
            ModelFamily::PLSA => "PLSA",
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregation function selector (parameters live in `pmr-bag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggKind {
    /// Plain sum.
    Sum,
    /// Centroid of unit vectors.
    Centroid,
    /// Rocchio with the paper's α = 0.8, β = 0.2.
    Rocchio,
}

impl AggKind {
    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Sum => "Sum",
            AggKind::Centroid => "Cen.",
            AggKind::Rocchio => "Ro.",
        }
    }
}

/// One cell of the configuration grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelConfiguration {
    /// Bag model (TN when `char_grams` is false, CN otherwise).
    Bag {
        /// Character-based (CN) or token-based (TN).
        char_grams: bool,
        /// N-gram size.
        n: usize,
        /// Weighting scheme.
        weighting: WeightingScheme,
        /// User-model aggregation.
        aggregation: AggKind,
        /// Similarity measure.
        similarity: BagSimilarity,
    },
    /// N-gram graph model (TNG/CNG).
    Graph {
        /// Character-based (CNG) or token-based (TNG).
        char_grams: bool,
        /// N-gram size (also the co-occurrence window).
        n: usize,
        /// Similarity measure.
        similarity: GraphSimilarity,
    },
    /// LDA (Table 4).
    Lda {
        /// Number of topics.
        topics: usize,
        /// Gibbs iterations (1,000 or 2,000 in the paper).
        iterations: usize,
        /// Pooling scheme.
        pooling: PoolingScheme,
        /// User-model aggregation over inferred distributions.
        aggregation: AggKind,
    },
    /// Labeled LDA (Table 4). `topics` counts the latent topics added to
    /// the observed labels.
    Llda {
        /// Number of latent topics.
        topics: usize,
        /// Gibbs iterations.
        iterations: usize,
        /// Pooling scheme.
        pooling: PoolingScheme,
        /// Aggregation.
        aggregation: AggKind,
    },
    /// BTM (Table 4; 1,000 iterations and window r = 30 are fixed).
    Btm {
        /// Number of topics.
        topics: usize,
        /// Pooling scheme.
        pooling: PoolingScheme,
        /// Aggregation.
        aggregation: AggKind,
    },
    /// HDP (Table 4; α = γ = 1.0 and 1,000 iterations are fixed).
    Hdp {
        /// Topic–word prior (the table's β ∈ {0.1, 0.5}).
        beta: f64,
        /// Pooling scheme.
        pooling: PoolingScheme,
        /// Aggregation.
        aggregation: AggKind,
    },
    /// HLDA (Table 4; user pooling, 3 levels and 1,000 iterations fixed).
    Hlda {
        /// Level prior α ∈ {10, 20}.
        alpha: f64,
        /// Topic–word prior β ∈ {0.1, 0.5}.
        beta: f64,
        /// nCRP concentration γ ∈ {0.5, 1.0}.
        gamma: f64,
        /// Aggregation.
        aggregation: AggKind,
    },
    /// PLSA — excluded by the paper's memory constraint; runnable here.
    Plsa {
        /// Number of topics.
        topics: usize,
        /// EM iterations.
        iterations: usize,
        /// Pooling scheme.
        pooling: PoolingScheme,
        /// Aggregation.
        aggregation: AggKind,
    },
}

impl ModelConfiguration {
    /// The model family of this configuration.
    pub fn family(&self) -> ModelFamily {
        match self {
            ModelConfiguration::Bag { char_grams: false, .. } => ModelFamily::TN,
            ModelConfiguration::Bag { char_grams: true, .. } => ModelFamily::CN,
            ModelConfiguration::Graph { char_grams: false, .. } => ModelFamily::TNG,
            ModelConfiguration::Graph { char_grams: true, .. } => ModelFamily::CNG,
            ModelConfiguration::Lda { .. } => ModelFamily::LDA,
            ModelConfiguration::Llda { .. } => ModelFamily::LLDA,
            ModelConfiguration::Btm { .. } => ModelFamily::BTM,
            ModelConfiguration::Hdp { .. } => ModelFamily::HDP,
            ModelConfiguration::Hlda { .. } => ModelFamily::HLDA,
            ModelConfiguration::Plsa { .. } => ModelFamily::PLSA,
        }
    }

    /// The feature-cache key `(gram kind, n)` for the n-gram families
    /// (bag and graph models); `None` for topic models, which consume the
    /// token stream directly.
    pub fn feature_key(&self) -> Option<(crate::features::GramKind, usize)> {
        match self {
            ModelConfiguration::Bag { char_grams, n, .. }
            | ModelConfiguration::Graph { char_grams, n, .. } => {
                Some((crate::features::GramKind::of(*char_grams), *n))
            }
            _ => None,
        }
    }

    /// The aggregation function, for families that have one (graph models
    /// aggregate with the update operator instead).
    pub fn aggregation(&self) -> Option<AggKind> {
        match self {
            ModelConfiguration::Bag { aggregation, .. }
            | ModelConfiguration::Lda { aggregation, .. }
            | ModelConfiguration::Llda { aggregation, .. }
            | ModelConfiguration::Btm { aggregation, .. }
            | ModelConfiguration::Hdp { aggregation, .. }
            | ModelConfiguration::Hlda { aggregation, .. }
            | ModelConfiguration::Plsa { aggregation, .. } => Some(*aggregation),
            ModelConfiguration::Graph { .. } => None,
        }
    }

    /// Whether the configuration can run on a source: Rocchio needs both
    /// positive and negative examples (§4).
    pub fn valid_for_source(&self, source: RepresentationSource) -> bool {
        match self.aggregation() {
            Some(AggKind::Rocchio) => source.has_negative_examples(),
            _ => true,
        }
    }

    /// A compact human-readable descriptor (used in result tables).
    pub fn describe(&self) -> String {
        match self {
            ModelConfiguration::Bag { n, weighting, aggregation, similarity, .. } => format!(
                "{} n={n} {} {} {}",
                self.family(),
                weighting.name(),
                aggregation.name(),
                similarity.name()
            ),
            ModelConfiguration::Graph { n, similarity, .. } => {
                format!("{} n={n} {}", self.family(), similarity.name())
            }
            ModelConfiguration::Lda { topics, iterations, pooling, aggregation }
            | ModelConfiguration::Llda { topics, iterations, pooling, aggregation }
            | ModelConfiguration::Plsa { topics, iterations, pooling, aggregation } => format!(
                "{} K={topics} it={iterations} {} {}",
                self.family(),
                pooling.name(),
                aggregation.name()
            ),
            ModelConfiguration::Btm { topics, pooling, aggregation } => {
                format!("BTM K={topics} {} {}", pooling.name(), aggregation.name())
            }
            ModelConfiguration::Hdp { beta, pooling, aggregation } => {
                format!("HDP beta={beta} {} {}", pooling.name(), aggregation.name())
            }
            ModelConfiguration::Hlda { alpha, beta, gamma, aggregation } => {
                format!("HLDA a={alpha} b={beta} g={gamma} {}", aggregation.name())
            }
        }
    }
}

/// The full grid of Tables 4 and 5.
#[derive(Debug, Clone, Default)]
pub struct ConfigGrid {
    configs: Vec<ModelConfiguration>,
}

impl ConfigGrid {
    /// The paper's 223 configurations.
    pub fn paper() -> Self {
        let mut configs = Vec::new();
        configs.extend(Self::bag_grid(false)); // TN: 36
        configs.extend(Self::bag_grid(true)); // CN: 21
        configs.extend(Self::graph_grid(false)); // TNG: 9
        configs.extend(Self::graph_grid(true)); // CNG: 9
        configs.extend(Self::lda_grid()); // LDA: 48
        configs.extend(Self::llda_grid()); // LLDA: 48
        configs.extend(Self::btm_grid()); // BTM: 24
        configs.extend(Self::hdp_grid()); // HDP: 12
        configs.extend(Self::hlda_grid()); // HLDA: 16
        ConfigGrid { configs }
    }

    /// The grid including the configurations the paper *excluded* under its
    /// resource constraints (PLSA; here: 48 configurations mirroring LDA's
    /// grid). Useful for ablations on hardware that can afford them.
    pub fn with_excluded() -> Self {
        let mut grid = Self::paper();
        for topics in [50, 100, 150, 200] {
            for iterations in [1_000, 2_000] {
                for pooling in PoolingScheme::ALL {
                    for aggregation in [AggKind::Centroid, AggKind::Rocchio] {
                        grid.configs.push(ModelConfiguration::Plsa {
                            topics,
                            iterations,
                            pooling,
                            aggregation,
                        });
                    }
                }
            }
        }
        grid
    }

    fn bag_grid(char_grams: bool) -> Vec<ModelConfiguration> {
        let ns: &[usize] = if char_grams { &[2, 3, 4] } else { &[1, 2, 3] };
        let weights: &[WeightingScheme] = if char_grams {
            // CN is never combined with TF-IDF (§4).
            &[WeightingScheme::BF, WeightingScheme::TF]
        } else {
            &[WeightingScheme::BF, WeightingScheme::TF, WeightingScheme::TFIDF]
        };
        let mut out = Vec::new();
        for &n in ns {
            for &weighting in weights {
                for aggregation in [AggKind::Sum, AggKind::Centroid, AggKind::Rocchio] {
                    for similarity in [
                        BagSimilarity::Cosine,
                        BagSimilarity::Jaccard,
                        BagSimilarity::GeneralizedJaccard,
                    ] {
                        if !bag_combination_is_valid(weighting, aggregation, similarity) {
                            continue;
                        }
                        out.push(ModelConfiguration::Bag {
                            char_grams,
                            n,
                            weighting,
                            aggregation,
                            similarity,
                        });
                    }
                }
            }
        }
        out
    }

    fn graph_grid(char_grams: bool) -> Vec<ModelConfiguration> {
        let ns: &[usize] = if char_grams { &[2, 3, 4] } else { &[1, 2, 3] };
        let mut out = Vec::new();
        for &n in ns {
            for similarity in [
                GraphSimilarity::Containment,
                GraphSimilarity::Value,
                GraphSimilarity::NormalizedValue,
            ] {
                out.push(ModelConfiguration::Graph { char_grams, n, similarity });
            }
        }
        out
    }

    fn lda_grid() -> Vec<ModelConfiguration> {
        let mut out = Vec::new();
        for topics in [50, 100, 150, 200] {
            for iterations in [1_000, 2_000] {
                for pooling in PoolingScheme::ALL {
                    for aggregation in [AggKind::Centroid, AggKind::Rocchio] {
                        out.push(ModelConfiguration::Lda {
                            topics,
                            iterations,
                            pooling,
                            aggregation,
                        });
                    }
                }
            }
        }
        out
    }

    fn llda_grid() -> Vec<ModelConfiguration> {
        Self::lda_grid()
            .into_iter()
            .map(|c| match c {
                ModelConfiguration::Lda { topics, iterations, pooling, aggregation } => {
                    ModelConfiguration::Llda { topics, iterations, pooling, aggregation }
                }
                _ => unreachable!("lda_grid yields only Lda configurations"),
            })
            .collect()
    }

    fn btm_grid() -> Vec<ModelConfiguration> {
        let mut out = Vec::new();
        for topics in [50, 100, 150, 200] {
            for pooling in PoolingScheme::ALL {
                for aggregation in [AggKind::Centroid, AggKind::Rocchio] {
                    out.push(ModelConfiguration::Btm { topics, pooling, aggregation });
                }
            }
        }
        out
    }

    fn hdp_grid() -> Vec<ModelConfiguration> {
        let mut out = Vec::new();
        for beta in [0.1, 0.5] {
            for pooling in PoolingScheme::ALL {
                for aggregation in [AggKind::Centroid, AggKind::Rocchio] {
                    out.push(ModelConfiguration::Hdp { beta, pooling, aggregation });
                }
            }
        }
        out
    }

    fn hlda_grid() -> Vec<ModelConfiguration> {
        // Time constraint: only user pooling, only 3 levels (§4); the grid
        // varies α, β, γ and the aggregation.
        let mut out = Vec::new();
        for alpha in [10.0, 20.0] {
            for beta in [0.1, 0.5] {
                for gamma in [0.5, 1.0] {
                    for aggregation in [AggKind::Centroid, AggKind::Rocchio] {
                        out.push(ModelConfiguration::Hlda { alpha, beta, gamma, aggregation });
                    }
                }
            }
        }
        out
    }

    /// All configurations.
    pub fn configs(&self) -> &[ModelConfiguration] {
        &self.configs
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The configurations of one family.
    pub fn family(&self, family: ModelFamily) -> Vec<&ModelConfiguration> {
        self.configs.iter().filter(|c| c.family() == family).collect()
    }

    /// The configurations valid for a source.
    pub fn valid_for(&self, source: RepresentationSource) -> Vec<&ModelConfiguration> {
        self.configs.iter().filter(|c| c.valid_for_source(source)).collect()
    }
}

/// The validity rules of §4 for bag-model combinations.
fn bag_combination_is_valid(
    weighting: WeightingScheme,
    aggregation: AggKind,
    similarity: BagSimilarity,
) -> bool {
    // JS is applied only with BF weights; GJS only with TF and TF-IDF.
    match similarity {
        BagSimilarity::Jaccard if weighting != WeightingScheme::BF => return false,
        BagSimilarity::GeneralizedJaccard if weighting == WeightingScheme::BF => return false,
        _ => {}
    }
    // BF is exclusively coupled with the sum aggregation.
    if weighting == WeightingScheme::BF && aggregation != AggKind::Sum {
        return false;
    }
    // Rocchio is used only with the cosine similarity (and TF/TF-IDF).
    if aggregation == AggKind::Rocchio
        && (similarity != BagSimilarity::Cosine || weighting == WeightingScheme::BF)
    {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_has_exactly_223_configurations() {
        assert_eq!(ConfigGrid::paper().len(), 223);
    }

    #[test]
    fn per_family_counts_match_tables_4_and_5() {
        let grid = ConfigGrid::paper();
        let count = |f: ModelFamily| grid.family(f).len();
        assert_eq!(count(ModelFamily::TN), 36);
        assert_eq!(count(ModelFamily::CN), 21);
        assert_eq!(count(ModelFamily::TNG), 9);
        assert_eq!(count(ModelFamily::CNG), 9);
        assert_eq!(count(ModelFamily::LDA), 48);
        assert_eq!(count(ModelFamily::LLDA), 48);
        assert_eq!(count(ModelFamily::BTM), 24);
        assert_eq!(count(ModelFamily::HDP), 12);
        assert_eq!(count(ModelFamily::HLDA), 16);
        assert_eq!(count(ModelFamily::PLSA), 0, "PLSA is excluded by the memory rule");
    }

    #[test]
    fn plsa_appears_only_in_the_extended_grid() {
        let grid = ConfigGrid::with_excluded();
        assert_eq!(grid.family(ModelFamily::PLSA).len(), 48);
        assert_eq!(grid.len(), 223 + 48);
    }

    #[test]
    fn no_invalid_bag_combinations_survive() {
        let grid = ConfigGrid::paper();
        for c in grid.configs() {
            if let ModelConfiguration::Bag {
                char_grams, weighting, aggregation, similarity, ..
            } = c
            {
                assert!(bag_combination_is_valid(*weighting, *aggregation, *similarity), "{c:?}");
                if *char_grams {
                    assert_ne!(*weighting, WeightingScheme::TFIDF, "CN never uses TF-IDF");
                }
            }
        }
    }

    #[test]
    fn hlda_is_restricted_by_the_time_constraint() {
        let grid = ConfigGrid::paper();
        // All HLDA configurations implicitly use UP/3 levels — the enum has
        // no pooling/levels field to mis-set, which *is* the constraint.
        assert_eq!(grid.family(ModelFamily::HLDA).len(), 16);
    }

    #[test]
    fn rocchio_requires_negative_examples() {
        let grid = ConfigGrid::paper();
        let r_valid = grid.valid_for(RepresentationSource::R).len();
        let e_valid = grid.valid_for(RepresentationSource::E).len();
        assert!(r_valid < e_valid, "R admits no Rocchio configs, E admits all");
        assert_eq!(e_valid, 223);
        // Rocchio rows: TN 6 (3 n × 2 weights), CN 3, LDA/LLDA 24 each,
        // BTM 12, HDP 6, HLDA 8 → 83 excluded for R.
        assert_eq!(r_valid, 223 - 83);
    }

    #[test]
    fn descriptors_are_unique() {
        let grid = ConfigGrid::paper();
        let set: std::collections::HashSet<String> =
            grid.configs().iter().map(|c| c.describe()).collect();
        assert_eq!(set.len(), grid.len(), "every configuration must describe uniquely");
    }
}
