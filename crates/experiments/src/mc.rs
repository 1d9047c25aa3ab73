//! Monte-Carlo robustness experiments (DESIGN.md §13).
//!
//! Two one-column [`Matrix`] declarations on the shared runner:
//!
//! * [`chaos`] — the 1000-seed chaos sweep behind `just mc-chaos`: every
//!   seed deterministically generates a random [`FaultPlan`] world and
//!   runs it through every allocation policy (Tycoon market, the VCG
//!   optimization tier and the four baselines) via the shared
//!   `PolicyDriver`, then reports per-policy Student-t confidence
//!   intervals plus the quarantined failing seeds with replay hints.
//! * [`report`] — `just mc-report`: re-expresses the paper's figure
//!   experiments (Fig. 3–7, the funding sweep, the volatility
//!   comparison) as seeded Monte-Carlo batches, so each headline scalar
//!   ships with an interval instead of a single-seed point estimate.
//!
//! [`FaultPlan`]: gm_des::FaultPlan

use gm_baselines::{FifoPolicy, GCommerceMarket, Placement, SharePolicy, WinnerTakesAllMarket};
use gridmarket::sched::workload::on_time_value;
use gridmarket::sched::{AllocationPolicy, JobRequest, RunResult};
use gridmarket::{chaos_scenario, ChaosConfig, ChaosWorld};

use crate::matrix::{Matrix, MatrixReport, Row};
use crate::Scale;

/// Parameters of one Monte-Carlo sweep.
#[derive(Clone, Copy, Debug)]
pub struct McArgs {
    /// Number of scenario seeds.
    pub seeds: usize,
    /// Base seed the per-scenario seed stream is derived from.
    pub base_seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Confidence level of the reported intervals.
    pub confidence: f64,
}

impl Default for McArgs {
    fn default() -> McArgs {
        McArgs {
            seeds: 64,
            base_seed: 0xC4A05,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            confidence: 0.95,
        }
    }
}

/// The policy roster of the chaos sweep, in report order.
pub const CHAOS_POLICIES: [&str; 6] = ["tycoon", "vcg", "fifo", "share", "gcommerce", "wta"];

/// Run one non-Tycoon roster policy (`vcg`, `fifo`, `share`, `gcommerce`,
/// `wta`) over `world`'s job stream under its fault plan. Banked
/// policies also return their conservation residual: the VCG tier
/// settles through the same journaled [`gm_tycoon::Bank`] machinery as
/// Tycoon, so like [`chaos_scenario`] it **panics** unless the residual
/// is exactly 0. (Capacity-oblivious baselines ignore the delivered
/// fault events by design; the host jitter still gives every seed a
/// distinct world.)
pub fn run_baseline(policy: &str, seed: u64, world: &mut ChaosWorld) -> (RunResult, Option<f64>) {
    let ChaosWorld { jobs, driver } = world;
    let mut run = |p: &mut dyn AllocationPolicy| {
        driver.run(p, jobs).expect("valid chaos job stream")
    };
    let r = match policy {
        "vcg" => {
            let mut vcg = gm_optimal::VcgSlaPolicy::new(seed);
            let r = run(&mut vcg);
            let residual = vcg.conservation_residual();
            assert!(
                residual == 0.0,
                "money not conserved under VCG (seed {seed:#x}): residual {residual}"
            );
            return (r, Some(residual));
        }
        "fifo" => run(&mut FifoPolicy::default()),
        "share" => run(&mut SharePolicy::new(Placement::LeastLoaded)),
        "gcommerce" => run(&mut GCommerceMarket::default().policy()),
        "wta" => run(&mut WinnerTakesAllMarket::default().policy()),
        other => unreachable!("unknown baseline policy {other}"),
    };
    (r, None)
}

/// The metric row shared by every bankless policy (no conservation
/// column; the names must be identical across seeds, not across
/// policies). `jobs` is the request stream `r` ran, in outcome order.
/// Welfare, revenue and on-time misses come from the shared value model
/// ([`on_time_value`]: a job misses if it did not
/// finish, or finished after `arrival + deadline`), so the columns
/// compare directly across every policy in the sweep.
fn baseline_rows(r: &RunResult, jobs: &[JobRequest]) -> Row {
    let nodes: Vec<f64> = r.outcomes.iter().map(|o| o.avg_nodes).collect();
    let missed = r.outcomes.iter().filter(|o| o.finished_at.is_none()).count();
    let ontime_missed = jobs
        .iter()
        .zip(&r.outcomes)
        .filter(|(j, o)| on_time_value(1.0, j.deadline_secs, j.arrival, o.finished_at) == 0.0)
        .count();
    let n = r.outcomes.len().max(1) as f64;
    vec![
        ("fairness", gridmarket::sched::jain_fairness(&nodes)),
        ("volatility", r.price_volatility().unwrap_or(0.0)),
        ("deadline_miss_rate", missed as f64 / n),
        ("ontime_miss_rate", ontime_missed as f64 / n),
        ("makespan_hours", r.batch_makespan_secs() / 3600.0),
        ("welfare", r.welfare()),
        ("revenue", r.revenue()),
    ]
}

/// One policy's metric row in the seed's `cfg` chaos world: Tycoon
/// through [`chaos_scenario`], every other policy through
/// [`run_baseline`] on the same hosts and faults.
pub(crate) fn policy_cell(policy: &str, seed: u64, cfg: &ChaosConfig) -> Row {
    if policy == "tycoon" {
        return chaos_scenario(seed, cfg).rows();
    }
    let mut world = cfg.world(seed);
    let (r, residual) = run_baseline(policy, seed, &mut world);
    let mut rows: Row = residual
        .map(|x| ("conservation_residual", x))
        .into_iter()
        .collect();
    rows.extend(baseline_rows(&r, &world.jobs));
    rows
}

/// A banked policy's conservation-residual column max (the invariant
/// says exactly 0).
pub fn conservation_max(m: &MatrixReport, policy: &str) -> Option<f64> {
    m.cells
        .iter()
        .find(|c| c.row == policy)
        .and_then(|c| c.report.metric("conservation_residual"))
        .map(|s| s.max)
}

/// The chaos sweep as a one-column matrix: every seed generates a
/// random fault world in the default [`ChaosConfig`]; every policy runs
/// in it. `--check` demands both banked policies' conservation
/// residuals be exactly 0.
pub fn chaos_matrix() -> Matrix {
    Matrix {
        name: "mc",
        rows: CHAOS_POLICIES.to_vec(),
        cols: vec!["default"],
        cell: |policy, _, seed| policy_cell(policy, seed, &ChaosConfig::default()),
        header: |a| {
            let cfg = ChaosConfig::default();
            format!(
                "Monte-Carlo chaos sweep: {} seeds (base {:#x}), {} threads\n\
                 world: {} hosts, {} users x {} credits, random faults per seed\n\n",
                a.seeds, a.base_seed, a.threads, cfg.hosts, cfg.users, cfg.funding
            )
        },
        render: |c| format!("== policy: {} ==\n{}{}\n", c.row, c.report.render(), c.quarantined()),
        gates: vec![|m| {
            let zero = |p| conservation_max(m, p) == Some(0.0);
            (zero("tycoon") && zero("vcg"), "conservation residual 0".to_owned())
        }],
    }
}

/// Run the chaos sweep (`just mc-chaos`).
pub fn chaos(args: McArgs) -> MatrixReport {
    chaos_matrix().run(args)
}

/// One figure experiment at `scale` for one seed, reduced to its
/// headline scalars.
fn figure_cell(fig: &'static str, scale: &'static str, seed: u64) -> Row {
    let scale = if scale == "paper" { Scale::Paper } else { Scale::Quick };
    match fig {
        "fig3" => {
            let f = crate::fig3::run_seeded(scale, seed);
            let mid = f.budgets_per_day.len() / 2;
            vec![
                ("price_mean", f.price_mean),
                ("price_std", f.price_std),
                ("cap90_mid_budget_mhz", f.curves[1].1[mid].capacity_mhz),
            ]
        }
        "fig4" => {
            let f = crate::fig4::run_seeded(scale, seed);
            vec![
                ("eps_ar", f.eps_ar),
                ("eps_naive", f.eps_naive),
                ("ar_edge", f.eps_naive - f.eps_ar),
            ]
        }
        "fig5" => {
            let f = crate::fig5::run_seeded(scale, seed);
            vec![
                ("std_risk_free", f.std_risk_free),
                ("std_equal", f.std_equal),
                ("std_reduction", 1.0 - f.std_risk_free / f.std_equal),
            ]
        }
        "fig6" => {
            let f = crate::fig6::run_seeded(scale, seed);
            vec![
                ("skew_short_window", f.windows[0].skewness),
                ("skew_long_window", f.windows[2].skewness),
            ]
        }
        "fig7" => {
            let f = crate::fig7::run_seeded(scale, seed);
            let max_tv = f.dists.iter().map(|d| d.tv_distance).fold(0.0, f64::max);
            let mean_tv =
                f.dists.iter().map(|d| d.tv_distance).sum::<f64>() / f.dists.len().max(1) as f64;
            vec![("max_tv_distance", max_tv), ("mean_tv_distance", mean_tv)]
        }
        "sweep" => {
            let f = crate::ext_sweep::run_seeded(scale, seed);
            let lo = &f.points.first().expect("sweep points").report;
            let hi = &f.points.last().expect("sweep points").report;
            let done = f
                .points
                .iter()
                .filter(|p| p.report.completed_subjobs == p.report.subjobs)
                .count() as f64;
            vec![
                (
                    "funding_nodes_ratio",
                    if lo.avg_nodes > 0.0 { hi.avg_nodes / lo.avg_nodes } else { 0.0 },
                ),
                ("done_rate", done / f.points.len().max(1) as f64),
            ]
        }
        "volatility" => {
            let f = crate::ext_volatility::run_seeded(scale, seed);
            vec![
                ("tycoon_cov", f.tycoon_cov),
                ("gcommerce_cov", f.gcommerce_cov),
                ("posted_edge", f.tycoon_step_err - f.gcommerce_step_err),
            ]
        }
        other => unreachable!("unknown figure {other}"),
    }
}

/// Re-run every figure experiment over a seed stream and report each
/// headline scalar with a confidence interval. This is the paper's whole
/// evaluation as a population instead of an anecdote: the same
/// `run_seeded` entry points the single-seed binaries call, just many
/// seeds through the Monte-Carlo runner — one row per figure, the scale
/// as the single column.
pub fn report(scale: Scale, args: McArgs) -> MatrixReport {
    Matrix {
        name: "mc",
        rows: vec!["fig3", "fig4", "fig5", "fig6", "fig7", "sweep", "volatility"],
        cols: vec![if scale == Scale::Paper { "paper" } else { "quick" }],
        cell: figure_cell,
        header: |a| {
            format!(
                "Monte-Carlo figure report: {} seeds per figure (base {:#x}), {} threads\n\n",
                a.seeds, a.base_seed, a.threads
            )
        },
        render: |c| format!("== {} ==\n{}\n", c.row, c.report.render()),
        gates: Vec::new(),
    }
    .run(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> McArgs {
        McArgs {
            seeds: 4,
            base_seed: 0xABCD,
            threads: 2,
            confidence: 0.95,
        }
    }

    #[test]
    fn chaos_sweep_covers_all_policies_with_zero_quarantines() {
        let c = chaos(tiny());
        let names: Vec<&str> = c.cells.iter().map(|p| p.row).collect();
        assert_eq!(names, CHAOS_POLICIES);
        assert_eq!(c.total_quarantined(), 0, "{}", c.rendered);
        assert_eq!(conservation_max(&c, "tycoon"), Some(0.0), "money leak");
        assert_eq!(conservation_max(&c, "vcg"), Some(0.0), "VCG money leak");
        for p in &c.cells {
            assert_eq!(p.report.completed, 4, "policy {}", p.row);
            assert!(p.report.metric("fairness").is_some());
            assert!(p.report.metric("ontime_miss_rate").is_some(), "policy {}", p.row);
            assert!(
                p.report.metric("welfare").is_some() && p.report.metric("revenue").is_some(),
                "policy {} must report the shared welfare/revenue columns",
                p.row
            );
        }
        assert!(c.rendered.contains("== policy: tycoon =="));
        assert!(c.rendered.contains("== policy: vcg =="));
        assert_eq!(
            chaos_matrix().check(&c).as_deref(),
            Ok("mc --check OK: 4 seeds x 6 policies, 0 quarantined, conservation residual 0")
        );
    }

    #[test]
    fn baseline_rows_count_late_and_unfinished_jobs_as_ontime_misses() {
        use gridmarket::sched::JobOutcome;
        use gridmarket::tycoon::UserId;
        use gm_des::{SimDuration, SimTime};

        let jobs = ChaosConfig::default().honest_stream();
        let deadline = SimDuration::from_secs(jobs[0].deadline_secs as u64);
        let outcome = |j: &JobRequest, finished_at: Option<SimTime>| JobOutcome {
            id: j.id,
            user: UserId(j.id + 1),
            finished_at,
            makespan_secs: 0.0,
            value: 0.0,
            cost: 0.0,
            max_nodes: 1,
            avg_nodes: 1.0,
        };
        let r = RunResult {
            outcomes: vec![
                outcome(&jobs[0], Some(jobs[0].arrival + deadline)),
                outcome(&jobs[1], Some(jobs[1].arrival + deadline + SimDuration::from_secs(1))),
                outcome(&jobs[2], None),
            ],
            price_history: Vec::new(),
        };
        let rows = baseline_rows(&r, &jobs);
        let get = |name: &str| rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(get("deadline_miss_rate"), Some(1.0 / 3.0));
        assert_eq!(get("ontime_miss_rate"), Some(2.0 / 3.0));
    }

    #[test]
    fn figure_report_renders_every_figure() {
        let args = McArgs { seeds: 2, ..tiny() };
        let r = report(Scale::Quick, args);
        let names: Vec<&str> = r.cells.iter().map(|f| f.row).collect();
        assert_eq!(
            names,
            ["fig3", "fig4", "fig5", "fig6", "fig7", "sweep", "volatility"]
        );
        for f in &r.cells {
            assert_eq!(f.report.completed, 2, "figure {}", f.row);
        }
        assert!(r.rendered.contains("== fig4 =="));
    }
}
