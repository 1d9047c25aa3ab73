//! Golden reports for the three Monte-Carlo matrices (DESIGN.md §13,
//! §16, §17): the `mc chaos` sweep, the attack matrix and the gray
//! matrix, each rendered at fixed seeds and a fixed thread count and
//! compared byte for byte with the texts committed under
//! `tests/golden/matrix_*.txt`. The first line of a report names the
//! thread count, so it is dropped before the comparison; everything
//! below it — every mean, interval, quantile and quarantine line — must
//! match exactly.
//!
//! Regenerate (only when a change to the printed numbers is intended
//! and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test matrix_golden
//! ```

use gm_adversary::AttackKind;
use gm_experiments::mc::McArgs;
use gm_experiments::{ext_attack, ext_gray, mc};

const ARGS: McArgs = McArgs {
    seeds: 2,
    base_seed: 0xC4A05,
    threads: 2,
    confidence: 0.95,
};

/// Compare `rendered` (minus its header line) with the committed golden
/// text `tests/golden/<name>.txt`, or rewrite it under `GOLDEN_REGEN`.
fn check_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let body = rendered
        .split_once('\n')
        .map(|(_, rest)| rest)
        .unwrap_or_default();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, body).expect("write golden report");
        eprintln!("regenerated {path} ({} bytes)", body.len());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden report missing; run GOLDEN_REGEN=1 cargo test --test matrix_golden");
    for (i, (want, got)) in golden.lines().zip(body.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "{name}: golden mismatch at line {} (left = committed, right = this run)",
            i + 2
        );
    }
    assert_eq!(golden, body, "{name}: golden mismatch (line count or trailing bytes)");
}

#[test]
fn chaos_sweep_report_matches_golden() {
    check_golden("matrix_chaos", &mc::chaos(ARGS).rendered);
}

#[test]
fn attack_matrix_report_matches_golden() {
    let m = ext_attack::matrix_with(
        ARGS,
        &["tycoon", "tycoon_open", "fifo"],
        &[AttackKind::Honest, AttackKind::BudgetHoard],
    );
    check_golden("matrix_attack", &m.rendered);
}

#[test]
fn gray_matrix_report_matches_golden() {
    let m = ext_gray::matrix_with(ARGS, &["tycoon", "tycoon_nospec", "fifo"], &["none", "stall"]);
    check_golden("matrix_gray", &m.rendered);
}
