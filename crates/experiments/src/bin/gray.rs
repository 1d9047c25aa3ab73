//! `gray` — the gray-failure matrix CLI (DESIGN.md §17).
//!
//! ```text
//! gray [--seeds N] [--base-seed HEX] [--threads N] [--check]
//! ```
//!
//! Runs every *(policy × gray scenario)* cell of the gray matrix — the
//! six chaos-sweep policies plus `tycoon_nospec` (the identical agent
//! with health scoring and speculative re-dispatch off) against
//! `{none, slowdown, stall, flapping}` — as one flat Monte-Carlo
//! fan-out, and prints the report.
//!
//! `--check` turns it into the CI gate: exit 1 unless every gate of
//! [`gray_matrix`] holds.

use gm_experiments::ext_gray::{gray_matrix, GRAY_POLICIES, GRAY_SCENARIOS};
use gm_experiments::matrix::Cli;

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    gray_matrix(&GRAY_POLICIES, &GRAY_SCENARIOS).main(&cli);
}
