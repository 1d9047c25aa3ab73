//! `chaos_sweep`: a fixed pool of 64 default `ChaosConfig` worlds,
//! closed loop, through `chaos_runner(1)` — the run `mc chaos`
//! launches. The only workload with `BankRestart`, so journal replay
//! and signature verification show here.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gm_core::seed_stream;
use gridmarket::scenario::ScenarioResult;
use gridmarket::{chaos_runner, chaos_scenario, ChaosConfig};

use crate::stats::{median, ms};
use crate::timed::HookTimes;
use crate::world::{same_result, World};
use crate::{count_layers, timed_setups, visit_order, E2e, Traced};

/// Base of the fixed seed stream the pool is drawn from.
const POOL_BASE: u64 = 0xC4A0_5000_0000_0001;
/// Scenario seeds in the pool: one round takes ~5 s.
const POOL: usize = 64;
/// Seeds per `MonteCarlo::run` call; the run stops at a batch boundary.
const BATCH: usize = 8;

/// The fixed pool of scenario seeds.
pub fn pool() -> Vec<u64> {
    seed_stream(POOL_BASE, POOL)
}

/// Set-up: the pool, and its first world as warm-up through a runner.
fn setup() -> Vec<u64> {
    let runner = chaos_runner(1);
    let pool = pool();
    let cfg = ChaosConfig::default();
    let warm = runner.run(&pool[..1], move |s| chaos_scenario(s, &cfg));
    assert_eq!(warm.completed().count(), 1, "warm-up world quarantined");
    pool
}

/// The timed, untraced run.
pub fn e2e(seed: u64, seconds: f64) -> E2e {
    let (setup_s, pool) = timed_setups(setup);
    let mut e = E2e::new(setup_s, pool.len());
    'run: while e.next_unit(seconds) {
        e.start_round();
        let order = e.round_order(seed);
        for chunk in order.chunks(BATCH) {
            if !e.next_unit(seconds) {
                break 'run;
            }
            if e.setup_due(seconds) {
                drop(e.spread_setup(setup));
            }
            // A fresh single-worker runner, so its worker starts on the
            // CPU the run is pinned to now.
            let runner = chaos_runner(1);
            let cfg = ChaosConfig::default();
            let batch_seeds: Vec<u64> = chunk.iter().map(|&i| pool[i]).collect();
            let t0 = Instant::now();
            let batch = runner.run(&batch_seeds, move |s| {
                let t = Instant::now();
                let m = chaos_scenario(s, &cfg);
                (m, t.elapsed())
            });
            e.wall += t0.elapsed();
            // A quarantined world (panic: grid error, recovery
            // invariant, conservation) never completes, so it is never
            // ok and its input keeps no time.
            for (s, (m, d)) in batch.completed() {
                let &i = chunk
                    .iter()
                    .find(|&&i| pool[i] == s)
                    .expect("seed of this batch");
                e.record(i, *d, m.conservation_residual == 0.0);
            }
            for f in batch.failures() {
                eprintln!(
                    "chaos_sweep: quarantined seed {:#x}: {}",
                    f.seed, f.panic_message
                );
                e.attempted += 1;
            }
        }
    }
    e
}

/// One world's outcome as the chaos checks see it.
fn world_ok(r: &ScenarioResult) -> bool {
    r.recovery_invariant_ok && r.total_minted == r.total_money
}

/// The traced run: each unit runs untraced (the real
/// `ChaosConfig::scenario(seed).run()`, whose result keeps the registry
/// snapshot that `chaos_scenario` drops) and traced (the mirror with
/// every hook timed), both through the single-worker MC runner, batch
/// for batch in alternation.
pub fn traced(seed: u64) -> Traced {
    let order = visit_order(seed, POOL);
    let pool = setup();
    let seeds: Vec<u64> = order.iter().map(|&i| pool[i]).collect();
    let runner = chaos_runner(1);
    let mut hooks = HookTimes::default();
    let (mut twin_wall, mut twin_batch_wall, mut traced_wall) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut twin_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let (mut mismatches, mut failed) = (0, 0);
    for chunk in seeds.chunks(BATCH) {
        let cfg = ChaosConfig::default();
        let t0 = Instant::now();
        let twins = runner.run(chunk, move |s| {
            let t = Instant::now();
            let r = cfg.scenario(s).run().expect("chaos world");
            (r, t.elapsed())
        });
        twin_batch_wall += t0.elapsed();
        let cfg = ChaosConfig::default();
        let traced = runner.run(chunk, move |s| World::chaos(&cfg, s).run_traced());
        let twins: Vec<_> = twins.completed().map(|(_, v)| v).collect();
        let traced: Vec<_> = traced.completed().map(|(_, v)| v).collect();
        assert_eq!(twins.len(), chunk.len(), "twin world quarantined");
        assert_eq!(traced.len(), chunk.len(), "traced world quarantined");
        for ((r, d), (tr, th, td)) in twins.into_iter().zip(traced) {
            twin_wall += *d;
            twin_ms.push(ms(*d));
            traced_wall += *td;
            traced_ms.push(ms(*td));
            hooks.add(th);
            for (k, v) in &r.metrics.counters {
                *counters.entry(k.clone()).or_default() += v;
            }
            if !same_result(r, tr) {
                mismatches += 1;
            }
            if !world_ok(r) {
                failed += 1;
            }
        }
    }
    let n = seeds.len() as f64;
    let mut layers = hooks.layers(traced_wall, n);
    layers.insert(
        "mc.overhead_ms",
        ms(twin_batch_wall.saturating_sub(twin_wall)) / n,
    );
    layers.insert("trace.p50_ratio", median(&traced_ms) / median(&twin_ms));
    layers.extend(count_layers(&counters));
    Traced {
        layers,
        attempted: seeds.len(),
        failed,
        mismatches,
        twin_unit_ms: ms(twin_wall) / n,
    }
}
