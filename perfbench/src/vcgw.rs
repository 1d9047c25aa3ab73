//! `vcg_window`: a fixed pool of 68 ~2×-oversubscribed planning windows
//! (8–24 apps × 30 hosts), each built and priced with `vcg()`. The only
//! workload where the LP runs; no bank or market code runs in it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gm_des::{Rng64, SplitMix64};
use gm_optimal::{vcg, SlaCurve, VcgOutcome, VcgReceipt, WelfareApp, WelfareProgram};

use crate::stats::{median, ms};
use crate::{timed_setups, visit_order, E2e, Traced};

/// Seed of the fixed window pool.
const POOL_SEED: u64 = 0x0BC6_0000_0000_0003;
const HOSTS: usize = 30;
const HOST_CAP: f64 = 100.0;
/// App counts cycle 8, 9, …, 24, so every run sees the same size mix
/// and only the seeded curves differ.
const MIN_APPS: usize = 8;
const MAX_APPS: usize = 24;
const SIZES: usize = MAX_APPS - MIN_APPS + 1;
/// Windows in a run's pool: four size cycles, one round takes ~3 s.
const POOL: usize = 4 * SIZES;

/// One app's generated value curve: `(work, value)` breakpoints.
type Curve = Vec<(f64, f64)>;

/// Window `i` of the stream: `8 + i mod 17` apps with concave curves of
/// 1–3 segments, scaled so total demand is twice total capacity.
fn gen_window(rng: &mut SplitMix64, i: usize) -> Vec<Curve> {
    let apps = MIN_APPS + i % SIZES;
    let demand_per_app = 2.0 * HOST_CAP * HOSTS as f64 / apps as f64;
    (0..apps)
        .map(|_| {
            let segs = 1 + (rng.next_u64() % 3) as usize;
            let mut points: Curve = Vec::with_capacity(segs);
            let (mut w, mut v) = (0.0, 0.0);
            let mut slope = 1.0 + rng.next_f64() * 3.0;
            for _ in 0..segs {
                let dw = demand_per_app * (0.2 + 0.8 * rng.next_f64()) / segs as f64;
                w += dw;
                v += slope * dw;
                points.push((w, v));
                slope *= 0.3 + 0.6 * rng.next_f64();
            }
            points
        })
        .collect()
}

/// Build the window's `WelfareProgram` from its curves.
fn build(curves: &[Curve]) -> WelfareProgram {
    let mut program = WelfareProgram::new(vec![HOST_CAP; HOSTS]);
    for (a, points) in curves.iter().enumerate() {
        let curve = SlaCurve::new(points.clone()).expect("concave by construction");
        let cap = curve.total_work();
        program.add_app(WelfareApp {
            id: a as u32,
            segments: curve.remaining_segments(0.0, cap),
            cap,
        });
    }
    program
}

/// One receipt per app, payments in `[0, value]`, and every receipt's
/// `W_full` equal to the `solve()` objective the outcome carries.
fn window_ok(apps: usize, out: &VcgOutcome) -> bool {
    out.receipts.len() == apps
        && out.receipts.iter().enumerate().all(|(a, r)| {
            r.app == a as u32
                && r.payment >= 0.0
                && r.payment <= r.value
                && r.welfare_with == out.solution.welfare
        })
}

/// Set-up: the fixed window pool, plus a warm-up pricing of its first
/// 24-app window.
fn setup() -> Vec<Vec<Curve>> {
    let mut rng = SplitMix64::new(POOL_SEED);
    let pool: Vec<Vec<Curve>> = (0..POOL).map(|i| gen_window(&mut rng, i)).collect();
    let warm = &pool[SIZES - 1];
    assert!(window_ok(
        warm.len(),
        &vcg(&build(warm)).expect("warm-up window")
    ));
    pool
}

/// The timed, untraced run.
pub fn e2e(seed: u64, seconds: f64) -> E2e {
    let (setup_s, windows) = timed_setups(setup);
    let mut e = E2e::new(setup_s, windows.len());
    'run: while e.next_unit(seconds) {
        e.start_round();
        for i in e.round_order(seed) {
            if !e.next_unit(seconds) {
                break 'run;
            }
            if e.setup_due(seconds) {
                drop(e.spread_setup(setup));
            }
            let w = &windows[i];
            let t0 = Instant::now();
            let out = vcg(&build(w));
            let d = t0.elapsed();
            e.wall += d;
            e.record(i, d, out.is_some_and(|o| window_ok(w.len(), &o)));
        }
    }
    e
}

/// `vcg()` step by step with each LP timed: build, the full `solve()`,
/// and one `solve_without(a)` per app with positive value (as `vcg()`
/// skips the rest). Returns the outcome `vcg()` would return.
fn traced_vcg(curves: &[Curve], t: &mut [Duration; 3], solves: &mut u64) -> Option<VcgOutcome> {
    let t0 = Instant::now();
    let program = build(curves);
    let t1 = Instant::now();
    let solution = program.solve()?;
    let t2 = Instant::now();
    *solves += 1;
    let mut receipts = Vec::with_capacity(program.app_count());
    for (a, app) in program.apps().iter().enumerate() {
        let value = solution.values[a];
        let welfare_without = if value <= 0.0 {
            solution.welfare
        } else {
            *solves += 1;
            program.solve_without(a)?
        };
        let payment = (welfare_without - (solution.welfare - value)).clamp(0.0, value.max(0.0));
        receipts.push(VcgReceipt {
            app: app.id,
            value,
            welfare_with: solution.welfare,
            welfare_without,
            payment,
        });
    }
    let t3 = Instant::now();
    t[0] += t1 - t0;
    t[1] += t2 - t1;
    t[2] += t3 - t2;
    Some(VcgOutcome { solution, receipts })
}

/// The traced run: every window priced by `vcg()` (the twin) and by the
/// timed step-by-step mirror, whose outcome must match bit for bit.
pub fn traced(seed: u64) -> Traced {
    let windows = setup();
    let mut t = [Duration::ZERO; 3];
    let mut solves = 0u64;
    let (mut twin_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut twin_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut mismatches, mut failed) = (0, 0);
    for i in visit_order(seed, POOL) {
        let w = &windows[i];
        let t0 = Instant::now();
        let twin = vcg(&build(w)).expect("window prices");
        let d = t0.elapsed();
        let t0 = Instant::now();
        let mirror = traced_vcg(w, &mut t, &mut solves).expect("window prices");
        let td = t0.elapsed();
        twin_wall += d;
        twin_ms.push(ms(d));
        traced_wall += td;
        traced_ms.push(ms(td));
        if format!("{twin:?}") != format!("{mirror:?}") {
            mismatches += 1;
        }
        if !window_ok(w.len(), &twin) {
            failed += 1;
        }
    }
    let n = POOL as f64;
    let hooks = t[0] + t[1] + t[2];
    let layers = BTreeMap::from([
        ("optimal.build_ms", ms(t[0]) / n),
        ("lp.solve_ms", ms(t[1]) / n),
        ("lp.loo_solve_ms", ms(t[2]) / n),
        ("count.lp_solves", solves as f64),
        ("driver.self_ms", ms(traced_wall.saturating_sub(hooks)) / n),
        (
            "trace.coverage",
            hooks.as_secs_f64() / traced_wall.as_secs_f64(),
        ),
        ("trace.p50_ratio", median(&traced_ms) / median(&twin_ms)),
    ]);
    Traced {
        layers,
        attempted: POOL,
        failed,
        mismatches,
        twin_unit_ms: ms(twin_wall) / n,
    }
}
