//! # pmr-bag
//!
//! Vector-space ("bag") representation models — the local context-aware
//! family of the paper's taxonomy (§3).
//!
//! A bag model represents a document as a sparse weighted vector with one
//! dimension per distinct n-gram of the corpus. Two instantiations exist:
//! the token n-grams model (**TN**) and the character n-grams model
//! (**CN**); both are built on the same machinery, parameterized only by
//! how the n-grams were extracted (which happens in `pmr-text`).
//!
//! The crate provides the three weighting schemes (boolean frequency,
//! term frequency, TF-IDF — [`weighting`]), the three user-model
//! aggregation functions (sum, centroid, Rocchio — [`aggregate`]) and the
//! three similarity measures (cosine, Jaccard, generalized Jaccard —
//! [`similarity`]) exactly as defined in §3.2, including the validity rules
//! of §4 (JS only with BF, GJS only with TF/TF-IDF, BF only with sum,
//! Rocchio only with cosine; CN is never combined with TF-IDF).
//!
//! Every sweep, serving and benchmark path vectorizes with
//! [`weighting::IndexedVectorizer`], which fits over pre-interned gram ids
//! instead of strings, and scores with [`kernel::ScoringKernel`], which
//! pre-expands a user model once and scores each document in O(nnz(doc))
//! for cosine and Jaccard. The string-keyed vectorizer and the merge-join
//! similarities they replaced are test references: the tests assert that
//! both paths agree bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod kernel;
pub mod similarity;
pub mod vector;
pub mod weighting;

pub use aggregate::{AggregationFunction, RocchioParams};
pub use kernel::ScoringKernel;
pub use similarity::BagSimilarity;
pub use vector::SparseVector;
pub use weighting::{IndexedVectorizer, WeightingScheme};

#[cfg(test)]
mod reference;
