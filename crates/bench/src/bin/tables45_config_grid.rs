//! Regenerates **Tables 4 and 5**: the configuration grid of the nine
//! representation models, with the paper's validity and resource-constraint
//! rules applied (223 configurations in total; PLSA's 48 excluded by the
//! memory constraint).
//!
//! Takes no flags — the grid is static, so neither the corpus options nor
//! `--jobs` apply — and exits 2 on any argument.

use pmr_bench::{parse_args, Flags};
use pmr_core::{ConfigGrid, ModelFamily};

fn main() {
    parse_args("usage: tables45_config_grid (takes no flags)", |args| Flags::parse(args, &[]));
    let grid = ConfigGrid::paper();

    println!("Tables 4 & 5: model configurations after validity + constraint pruning\n");
    println!("Table 4 — context-agnostic (topic) models:");
    for family in
        [ModelFamily::LDA, ModelFamily::LLDA, ModelFamily::BTM, ModelFamily::HDP, ModelFamily::HLDA]
    {
        println!("  {family:<5} {:>3} configurations", grid.family(family).len());
    }
    println!("\nTable 5 — context-based models:");
    for family in [ModelFamily::TN, ModelFamily::CN, ModelFamily::TNG, ModelFamily::CNG] {
        println!("  {family:<5} {:>3} configurations", grid.family(family).len());
    }
    println!("\nTotal: {} configurations (paper: 223)", grid.len());
    println!(
        "Excluded by the 32 GB memory constraint: PLSA ({} configurations when lifted)",
        ConfigGrid::with_excluded().family(ModelFamily::PLSA).len()
    );

    println!("\nFull enumeration:");
    let mut last_family = None;
    for config in grid.configs() {
        if last_family != Some(config.family()) {
            println!("--- {} ---", config.family());
            last_family = Some(config.family());
        }
        println!("  {}", config.describe());
    }
}
