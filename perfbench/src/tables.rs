//! `paper_tables`: the paper's Table 1 and Table 2 at paper scale
//! (`mc report --paper-scale`, `table1 --paper`), alternating, closed
//! loop. Fault-free: the signed-transfer write path and the hourly
//! audit of a large journal dominate; the journal is never replayed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gm_experiments::table1::{scenario, subjobs};
use gm_experiments::Scale;
use gridmarket::grid::JobPhase;
use gridmarket::report::group_rows;
use gridmarket::scenario::{ScenarioResult, UserSetup};

use crate::stats::{median, ms};
use crate::timed::HookTimes;
use crate::world::{same_result, World};
use crate::{count_layers, timed_setups, E2e, Traced};

/// Per-user funding of Table 1 (equal) and Table 2 (two-point).
const FUNDINGS: [[f64; 5]; 2] = [
    [100.0, 100.0, 100.0, 100.0, 100.0],
    [100.0, 100.0, 500.0, 500.0, 500.0],
];
/// Table pairs in the traced run.
const TRACED_PAIRS: usize = 2;

/// One table at paper scale, assembled as `table1::run` /
/// `table2::run` assemble it, keeping the full result.
fn run_table(t: usize) -> ScenarioResult {
    let mut s = scenario(Scale::Paper);
    for (i, &funding) in FUNDINGS[t].iter().enumerate() {
        s = s.user(
            UserSetup::new(funding)
                .subjobs(subjobs(Scale::Paper))
                .label(&format!("user{}", i + 1)),
        );
    }
    s.run().expect("paper table scenario")
}

/// A digest of everything a table reports (f64s bit for bit).
fn fingerprint(r: &ScenarioResult) -> String {
    format!("{:?}|{:?}|{}", r.users, r.finished_at, r.total_money)
}

/// Every job done, residual exactly 0, and the paper's shape: in
/// Table 1 users 3–5 end up with fewer average nodes than users 1–2
/// (`Latency` is makespan·60 / average nodes, so they also see worse
/// latency); in Table 2 the 500-credit group buys lower latency at a
/// higher hourly cost.
fn table_ok(t: usize, r: &ScenarioResult) -> bool {
    let done = r.users.iter().all(|u| u.phase == JobPhase::Done);
    let conserved = r.total_minted == r.total_money;
    let g = group_rows(&r.users, &[(0, 1, "1-2"), (2, 4, "3-5")]);
    let (early, late) = (&g[0], &g[1]);
    let shape = if t == 0 {
        late.latency_min_per_job > early.latency_min_per_job
    } else {
        late.latency_min_per_job < early.latency_min_per_job
            && late.cost_per_hour > early.cost_per_hour
    };
    done && conserved && shape
}

/// Set-up: the warm-up unit, a Table 1 run, whose fingerprint every
/// later Table 1 run must match.
fn setup() -> String {
    fingerprint(&run_table(0))
}

/// The timed, untraced run. The pool is the two tables; each round
/// runs Table 1 then Table 2, as the paper's report does. The tables are
/// fixed by the paper, so `--seed` changes nothing here; the fixed order
/// also keeps the allocation history, and so `peak_rss_mb`, identical
/// from run to run.
pub fn e2e(_seed: u64, seconds: f64) -> E2e {
    let (setup_s, table1) = timed_setups(setup);
    // Table 2's reference fingerprint is its first timed run's.
    let mut refs = [Some(table1), None];
    let mut e = E2e::new(setup_s, FUNDINGS.len());
    'run: while e.next_unit(seconds) {
        e.start_round();
        for (t, reference) in refs.iter_mut().enumerate() {
            if !e.next_unit(seconds) {
                break 'run;
            }
            if e.setup_due(seconds) {
                e.spread_setup(setup);
            }
            let t0 = Instant::now();
            let r = run_table(t);
            let d = t0.elapsed();
            e.wall += d;
            let fp = fingerprint(&r);
            let ok = table_ok(t, &r) && *reference.get_or_insert_with(|| fp.clone()) == fp;
            e.record(t, d, ok);
        }
    }
    e
}

/// The traced run: each table runs untraced (the real entry point) and
/// traced (the mirror), alternately.
pub fn traced(_seed: u64) -> Traced {
    let mut hooks = HookTimes::default();
    let (mut twin_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut twin_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let (mut mismatches, mut failed) = (0, 0);
    for i in 0..2 * TRACED_PAIRS {
        let t = i % 2;
        let t0 = Instant::now();
        let r = run_table(t);
        let d = t0.elapsed();
        let (tr, th, td) = World::paper_table(&FUNDINGS[t]).run_traced();
        twin_wall += d;
        twin_ms.push(ms(d));
        traced_wall += td;
        traced_ms.push(ms(td));
        hooks.add(&th);
        for (k, v) in &r.metrics.counters {
            *counters.entry(k.clone()).or_default() += v;
        }
        if !same_result(&r, &tr) {
            mismatches += 1;
        }
        if !table_ok(t, &r) {
            failed += 1;
        }
    }
    let n = (2 * TRACED_PAIRS) as f64;
    let mut layers = hooks.layers(traced_wall, n);
    layers.insert("trace.p50_ratio", median(&traced_ms) / median(&twin_ms));
    layers.extend(count_layers(&counters));
    Traced {
        layers,
        attempted: 2 * TRACED_PAIRS,
        failed,
        mismatches,
        twin_unit_ms: ms(twin_wall) / n,
    }
}
