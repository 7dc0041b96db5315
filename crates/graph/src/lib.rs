//! # pmr-graph
//!
//! N-gram graph representation models — the global context-aware family of
//! the paper's taxonomy (§3).
//!
//! An n-gram graph (Giannakopoulos et al. 2008) represents a document as an
//! undirected weighted graph: one vertex per n-gram, an edge between every
//! pair of n-grams that co-occur within a window of size `n`, weighted by
//! their co-occurrence frequency. The token instantiation is **TNG**, the
//! character instantiation **CNG**; both share this crate's machinery and
//! differ only in how the n-grams were extracted (`pmr-text`).
//!
//! User models are built by merging document graphs with the incremental
//! *update operator* ([`NGramGraph::merge`]); graphs are compared with the
//! containment, value and normalized value similarities ([`similarity`]).

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod graph;
#[cfg(test)]
mod reference;
pub mod similarity;

pub use graph::NGramGraph;
pub use similarity::GraphSimilarity;
