//! Renders the cached sweep into a markdown report with the
//! paper-vs-measured comparison for every table and figure — the generator
//! behind EXPERIMENTS.md. The renderer is [`pmr_bench::report`].
//!
//! ```text
//! cargo run --release -p pmr-bench --bin write_report -- --scale smoke --out results
//! ```
//!
//! Accepts the shared harness flags (`--help` lists them); when the sweep
//! is not cached yet, `--jobs N` fans it across N worker threads, and
//! `--group` restricts Figures 3–6 to one user group.

use pmr_bench::{HarnessOptions, SweepCache};

fn main() -> std::io::Result<()> {
    let opts = HarnessOptions::from_env();
    opts.install_observability();
    let cache = SweepCache::load_or_run(&opts).expect("sweep failed");
    // Writes the --metrics-out summary (rendered as a report section).
    opts.finish_observability();
    let md = pmr_bench::report::render(&opts, &cache);
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!("report_{}_{}.md", cache.scale, cache.seed));
    std::fs::write(&path, &md)?;
    println!("wrote {}", path.display());
    println!("\n{md}");
    Ok(())
}
