//! `attack` — the adversarial attack-matrix CLI (DESIGN.md §16).
//!
//! ```text
//! attack [--seeds N] [--base-seed HEX] [--threads N] [--check]
//! ```
//!
//! Runs every *(policy × strategy)* cell of the attack matrix — the six
//! allocation policies (tycoon defended **and** open, the VCG tier, the
//! four baselines) against the six `gm-adversary` bidder strategies —
//! as one flat Monte-Carlo fan-out, and prints the honest-side report.
//!
//! `--check` turns it into the CI gate: exit 1 unless every gate of
//! [`attack_matrix`] holds.

use gm_adversary::AttackKind;
use gm_experiments::ext_attack::{attack_matrix, ATTACK_POLICIES};
use gm_experiments::matrix::Cli;

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    attack_matrix(&ATTACK_POLICIES, &AttackKind::ALL).main(&cli);
}
