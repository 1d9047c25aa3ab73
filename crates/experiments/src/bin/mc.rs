//! `mc` — the Monte-Carlo robustness CLI (DESIGN.md §13).
//!
//! ```text
//! mc chaos  [--seeds N] [--base-seed HEX] [--threads N] [--check]
//! mc report [--seeds N] [--base-seed HEX] [--threads N] [--paper-scale]
//! ```
//!
//! `chaos` runs the per-policy random-fault sweep (Tycoon, the VCG
//! optimization tier, and the four baselines, fanned out as one flat
//! seed × policy batch) and prints Student-t confidence intervals plus
//! every quarantined seed with its replay hint. `--check` turns it into
//! a CI gate: exit 1 unless zero seeds were quarantined and both banked
//! policies' conservation residuals are exactly 0. `report` re-runs the
//! paper's figure experiments as seeded batches; `--paper-scale` (alias
//! `--paper`) runs them at the paper's full §5 parameters instead of the
//! quick CI sizes.

use gm_experiments::matrix::Cli;
use gm_experiments::mc::{chaos_matrix, report};
use gm_experiments::Scale;

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    match cli.mode.as_deref().unwrap_or("chaos") {
        "report" => println!("{}", report(Scale::from_args(), cli.args).rendered),
        "chaos" => chaos_matrix().main(&cli),
        other => {
            eprintln!("unknown mode {other:?}; use `chaos` or `report`");
            std::process::exit(2);
        }
    }
}
