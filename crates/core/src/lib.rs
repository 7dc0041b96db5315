//! # pmr-core
//!
//! The content-based personalized microblog recommendation framework of the
//! EDBT 2019 study: representation sources, user/document model building,
//! ranking-based recommendation (Definition 2.1), evaluation measures,
//! baselines, the 223-configuration grid of Tables 4–5, and the experiment
//! runner that regenerates the paper's figures and tables.
//!
//! The flow mirrors §2 and §4 of the paper:
//!
//! 1. [`split`] derives each user's train/test split: the 20% most recent
//!    feed-retweets are the positive test documents, joined by 4 sampled
//!    negatives each from the testing phase.
//! 2. [`prepare`] runs the language-agnostic preprocessing (lower-casing,
//!    tokenization, elongation squeezing, corpus-level top-100 stop words).
//! 3. [`source`] materializes the 13 representation sources (R, T, E, F, C
//!    and their 8 pairwise combinations) as per-user training document sets.
//! 4. [`config`] enumerates the 223 valid model configurations.
//! 5. [`recommender`] builds user and document models for any configuration
//!    and scores test documents (bag, graph and topic models behind one
//!    interface).
//! 6. [`eval`] computes AP / MAP / MAP deviation; [`baseline`] provides the
//!    chronological and random baselines; [`experiment`] sweeps and times
//!    everything ([`timing`]).

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod config;
pub mod error;
pub mod eval;
pub mod executor;
pub mod experiment;
pub mod features;
pub mod online;
pub mod prepare;
pub mod ranking;
pub mod recommender;
pub mod significance;
pub mod source;
pub mod split;
pub mod taxonomy;
pub mod timing;

pub use baseline::{chronological_ap, random_ap};
pub use config::{AggKind, ConfigGrid, ModelConfiguration, ModelFamily};
pub use error::{PmrError, PmrResult};
pub use eval::{average_precision, map_deviation, mean_average_precision};
pub use experiment::{ExperimentRunner, RunnerOptions, SweepResult};
pub use features::{FeatureCache, GramKind, GramTable};
pub use online::{OnlineBagModel, OnlineGraphModel, OnlineProfile};
pub use prepare::PreparedCorpus;
pub use ranking::rank_cmp;
pub use recommender::{score_configuration, RetrievalMode};
pub use significance::{paired_randomization_test, wilcoxon_signed_rank, PairedComparison};
pub use source::RepresentationSource;
pub use split::{SplitConfig, TrainTestSplit, UserSplit};
pub use taxonomy::TaxonomyClass;
