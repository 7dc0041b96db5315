//! # pmr-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! EDBT 2019 study from the simulated corpus:
//!
//! | Binary | Produces |
//! |--------|----------|
//! | `run_sweep` | the full 223-configuration × 13-source sweep (cached as JSON; every other binary reuses it) |
//! | `write_report` | Tables 2, 3, 6 and 7 and Figures 3–7 as markdown sections, rendered by [`report`] |
//! | `tables45_config_grid` | Tables 4 & 5 — the configuration grid |
//! | `significance` | the paper's paired significance statements |
//! | `ablations` | ablations of the design choices |
//! | `bench_serve` | serving throughput and query latency (`BENCH_serve.json`) |
//! | `bench_drift` | online-vs-oracle MAP drift per serving family (`BENCH_drift.json`) |
//! | `bench_load` | open-loop sojourn latency, capacity and live resharding (`BENCH_load.json`) |
//! | `bench_scale` | streaming vs. materialized generation per population tier (`BENCH_scale.json`) |
//!
//! A sweep measures each `(configuration, source)` pair once over all 60
//! users and stores per-user APs; group-level MAPs (All/IS/BU/IP) are
//! derived from those — valid because the paper, too, trains topic models
//! on the train sets of *all* users and context models per user.
//!
//! The serving binaries (`bench_serve`, `bench_load`, `bench_drift`) share
//! one preset per incremental model family: [`serve_model`]. Every binary
//! but `pmr_benchmark` (kept apart from the code it measures) parses its
//! flags with [`Flags`]. The four benchmarks write one record shape,
//! [`BenchRecord`], which [`report::render_record`] renders.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod harness;
pub mod record;
pub mod report;

pub use cli::{parse_args, write_json, FlagError, Flags};
pub use harness::{HarnessOptions, Scale, SweepCache};
pub use record::{BenchRecord, Fields, Stage};

use pmr_serve::ServeModel;

/// The serving preset of the incremental family `name` (`bag`, `graph` or
/// `topic`), or `None` for any other name.
///
/// Topic uses paper-style priors (α = 50/K, β = 0.01) at a
/// serving-friendly budget, sampling under `seed`; `refresh` is its
/// background retrain cadence in events (0 keeps the epoch-0 background
/// for the whole replay). The gram families ignore both.
pub fn serve_model(name: &str, seed: u64, refresh: u64) -> Option<ServeModel> {
    Some(match name {
        "bag" => ServeModel::Bag {
            weighting: pmr_bag::WeightingScheme::TFIDF,
            similarity: pmr_bag::BagSimilarity::Cosine,
            char_grams: false,
            n: 1,
            decay: 0.99,
        },
        "graph" => ServeModel::Graph {
            similarity: pmr_graph::GraphSimilarity::Value,
            char_grams: false,
            n: 1,
        },
        "topic" => ServeModel::Topic {
            topics: 16,
            alpha: 50.0 / 16.0,
            beta: 0.01,
            train_iterations: 50,
            foldin_iterations: 8,
            seed,
            decay: 0.99,
            background_refresh: refresh,
        },
        _ => return None,
    })
}
