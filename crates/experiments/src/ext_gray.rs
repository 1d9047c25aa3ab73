//! Extension: the gray-failure matrix (DESIGN.md §17).
//!
//! Every cell is a Monte-Carlo batch over seeds of one
//! *(policy × gray scenario)* pair. The columns are gray-fault worlds —
//! `none` (the control: bank chaos only), `slowdown` (hosts silently
//! delivering a fraction of what they charge for), `stall`
//! (self-expiring zero-progress windows) and `flapping` (hosts cycling
//! between degraded and nominal rate). The rows are the six chaos-sweep
//! policies plus `tycoon_nospec` — the identical Tycoon agent with
//! health scoring and speculative re-dispatch switched off — so the
//! matrix isolates exactly what the gray-resilience layer buys.
//!
//! The CI gate is `gray --check` ([`gray_matrix`]).

use gm_grid::{AgentConfig, SpeculationConfig};
use gm_tycoon::HealthConfig;
use gridmarket::{run_scored, ChaosConfig};

use crate::matrix::{Matrix, MatrixReport, Row};
use crate::mc::{policy_cell, McArgs};

/// The policy roster of the matrix, report order. `tycoon` runs the
/// default agent (health scoring + speculation armed); `tycoon_nospec`
/// is the same agent with the gray-resilience layer off.
pub const GRAY_POLICIES: [&str; 7] =
    ["tycoon", "tycoon_nospec", "vcg", "fifo", "share", "gcommerce", "wta"];

/// The gray-scenario columns, report order. `none` is the control.
pub const GRAY_SCENARIOS: [&str; 4] = ["none", "slowdown", "stall", "flapping"];

/// The chaos world of one gray column. The shared base keeps the bank
/// chaos (one outage + one journaled restart per run — the conservation
/// stress the twin-refund path must survive) but drops binary host
/// faults, so delivered-rate degradation is the only thing separating
/// the columns. Gray faults are *chronic* — 60-minute windows at a few
/// percent delivered rate against a 75-minute deadline — because an
/// absorbable fault measures nothing: with enough slack every policy
/// ties at zero misses, and the column cannot separate a mitigation
/// from a no-op.
pub fn gray_cfg(scenario: &str) -> ChaosConfig {
    let base = ChaosConfig {
        crashes: 0,
        vm_failures: 0,
        link_outages: 0,
        deadline_minutes: 75,
        horizon_hours: 2,
        ..ChaosConfig::default()
    };
    match scenario {
        "none" => base,
        "slowdown" => ChaosConfig {
            slowdowns: 3,
            slowdown_secs: 3_600,
            slowdown_min_permille: 10,
            slowdown_max_permille: 80,
            ..base
        },
        "stall" => ChaosConfig {
            stalls: 3,
            stall_secs: 3_600,
            ..base
        },
        "flapping" => ChaosConfig {
            flapping_hosts: 3,
            flap_cycles: 3,
            flap_period_secs: 1_800,
            slowdown_min_permille: 10,
            slowdown_max_permille: 80,
            ..base
        },
        other => unreachable!("unknown gray scenario {other}"),
    }
}

/// The `tycoon_nospec` agent: health scoring and speculation off,
/// everything else the default.
pub fn nospec_agent() -> AgentConfig {
    AgentConfig {
        health: HealthConfig {
            enabled: false,
            ..HealthConfig::default()
        },
        speculation: SpeculationConfig {
            enabled: false,
            ..SpeculationConfig::default()
        },
        ..AgentConfig::default()
    }
}

/// One (seed × policy × scenario) cell: the named metric row. The
/// armed `tycoon` row is the chaos sweep's own Tycoon cell; like it,
/// `tycoon_nospec` panics (→ quarantine) unless money is conserved
/// exactly, so twin-escrow refunds meet the same fixed-point exactness
/// as every other settlement path.
fn gray_cell(policy: &'static str, scenario: &'static str, seed: u64) -> Row {
    let cfg = gray_cfg(scenario);
    match policy {
        "tycoon_nospec" => {
            run_scored(seed, cfg.scenario(seed).agent(nospec_agent()), cfg.deadline_minutes).rows()
        }
        other => policy_cell(other, seed, &cfg),
    }
}

/// Gray scenarios where speculation *measurably* helps: the armed
/// agent's mean on-time miss rate is strictly below the
/// speculation-off agent's on the same seeds.
pub fn speculation_wins(m: &MatrixReport) -> Vec<&'static str> {
    GRAY_SCENARIOS
        .into_iter()
        .filter(|&s| s != "none")
        .filter(|s| {
            m.means(["tycoon", "tycoon_nospec"], s, "ontime_miss_rate")
                .is_some_and(|(armed, off)| armed < off)
        })
        .collect()
}

/// False-positive gate: on the gray-free control column, the armed
/// agent and the speculation-off agent must score bit-identically on
/// every metric ([`gridmarket::ChaosMetrics::rows`]) — arming the
/// subsystem may not perturb runs without gray faults.
pub fn none_parity_ok(m: &MatrixReport) -> bool {
    let bits = |policy| {
        m.cell(policy, "none").map(|c| {
            let metrics = c.report.metrics.iter();
            metrics.map(|x| (x.name, x.summary.mean.to_bits(), x.summary.max.to_bits())).collect::<Vec<_>>()
        })
    };
    let armed = bits("tycoon");
    armed.as_ref().is_some_and(|a| !a.is_empty()) && armed == bits("tycoon_nospec")
}

/// Conservation gate: every banked cell (the Tycoon family and the
/// VCG tier) holds `|minted − money|` to an exactly-zero maximum
/// across all seeds — twin cancellation refunds escrow exactly once,
/// bank outages and journaled restarts included.
pub fn conservation_ok(m: &MatrixReport) -> bool {
    m.cells
        .iter()
        .filter(|c| matches!(c.row, "tycoon" | "tycoon_nospec" | "vcg"))
        .all(|c| {
            c.report
                .metric("conservation_residual")
                .is_some_and(|s| s.max == 0.0)
        })
}

/// Declare a sub-matrix: `policies × scenarios`. `--check` (`just
/// gray-matrix`) demands, beyond zero quarantined runs: money conserved
/// to an exactly-zero residual in every banked cell (twin cancellation
/// refunds escrow exactly once, bank outages included), the `none`
/// column bit-identical between `tycoon` and `tycoon_nospec` (arming
/// the subsystem must not perturb gray-free runs), and speculation
/// strictly reducing the on-time miss rate on at least two gray
/// scenarios.
pub fn gray_matrix(policies: &[&'static str], scenarios: &[&'static str]) -> Matrix {
    Matrix {
        name: "gray",
        rows: policies.to_vec(),
        cols: scenarios.to_vec(),
        cell: gray_cell,
        header: |a| {
            let base = gray_cfg("none");
            format!(
                "Gray-failure matrix: {} seeds (base {:#x}), {} threads\n\
                 world: {} hosts, {} users x {} credits, {}-min deadline, bank chaos on\n\
                 tycoon = health + speculation armed (DESIGN.md \u{a7}17), tycoon_nospec = layer off\n\n\
                 {:<14} {:<10} {:>7} {:>8} {:>9} {:>9} {:>10} {:>9}\n",
                a.seeds,
                a.base_seed,
                a.threads,
                base.hosts,
                base.users,
                base.funding,
                base.deadline_minutes,
                "policy",
                "scenario",
                "miss",
                "ontime",
                "welfare",
                "makespan",
                "redisp",
                "residual"
            )
        },
        render: |c| {
            // A metric the row does not emit (no bank, no re-dispatch)
            // renders as `-`, right-aligned to the column.
            let m = |name: &str, width: usize, fmt: fn(f64) -> String| {
                let text = c
                    .report
                    .metric(name)
                    .map_or_else(|| "-".to_owned(), |s| fmt(s.mean));
                format!("{text:>width$}")
            };
            format!(
                "{:<14} {:<10} {} {} {} {} {} {}\n{}",
                c.row,
                c.col,
                m("deadline_miss_rate", 7, |v| format!("{v:.3}")),
                m("ontime_miss_rate", 8, |v| format!("{v:.3}")),
                m("welfare", 9, |v| format!("{v:.2}")),
                m("makespan_hours", 9, |v| format!("{v:.3}")),
                m("redispatched", 10, |v| format!("{v:.2}")),
                m("conservation_residual", 9, |v| format!("{v:.2e}")),
                c.quarantined()
            )
        },
        gates: vec![
            |m| (conservation_ok(m), "money conserved exactly".to_owned()),
            |m| (none_parity_ok(m), "gray-free column bit-identical armed vs off".to_owned()),
            |m| {
                let wins = speculation_wins(m);
                (wins.len() >= 2, format!("speculation wins: {wins:?}"))
            },
        ],
    }
}

/// Run a sub-matrix: `policies × scenarios`.
pub fn matrix_with(args: McArgs, policies: &[&'static str], scenarios: &[&'static str]) -> MatrixReport {
    gray_matrix(policies, scenarios).run(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> McArgs {
        McArgs {
            seeds: 4,
            base_seed: 0x6EA7,
            threads: 4,
            confidence: 0.95,
        }
    }

    #[test]
    fn speculation_cuts_ontime_misses_under_gray_faults() {
        // The armed-vs-off duel behind the acceptance criterion, small
        // enough for the test suite.
        let m = matrix_with(tiny(), &["tycoon", "tycoon_nospec"], &GRAY_SCENARIOS);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        assert!(conservation_ok(&m), "{}", m.rendered);
        let wins = speculation_wins(&m);
        assert!(
            wins.len() >= 2,
            "speculation must strictly cut the on-time miss rate on >= 2 \
             gray scenarios, got {wins:?}\n{}",
            m.rendered
        );
        assert!(
            none_parity_ok(&m),
            "arming health + speculation must not perturb gray-free runs\n{}",
            m.rendered
        );
    }

    #[test]
    fn every_policy_survives_every_gray_scenario() {
        // One seed across the full roster: no policy may crash or leak
        // money when gray faults hit it.
        let m = matrix_with(McArgs { seeds: 1, ..tiny() }, &GRAY_POLICIES, &GRAY_SCENARIOS);
        assert_eq!(m.total_quarantined(), 0, "{}", m.rendered);
        assert_eq!(m.cells.len(), GRAY_POLICIES.len() * GRAY_SCENARIOS.len());
        assert!(conservation_ok(&m), "{}", m.rendered);
        for c in &m.cells {
            assert_eq!(c.report.completed, 1, "cell {}/{}", c.row, c.col);
            assert!(c.report.metric("deadline_miss_rate").is_some());
            assert!(c.report.metric("ontime_miss_rate").is_some());
        }
    }
}
