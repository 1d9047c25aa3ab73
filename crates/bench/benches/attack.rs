//! Guard-layer overhead microbench (`DESIGN.md` §16).
//!
//! Runs the same honest chaos scenario — the default `ChaosConfig` world
//! driven end to end through `PolicyDriver` + `TycoonPolicy` — twice:
//! once with the market guard disabled (the pre-defense market) and once
//! with the default guard armed but never firing (rate limiter, circuit
//! breaker and quarantine all vetting every bid placement and re-bid).
//! Reports the median full-run wall time of each and the relative
//! overhead, which the design budget caps at 5 % — defenses must be free
//! when every bidder is honest.
//!
//! `--save` (what `just bench-save-attack` passes) writes the result to
//! `BENCH_attack.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use gm_bench::ab_interleaved;
use gm_grid::{AgentConfig, JobManager, VmConfig};
use gm_tycoon::{GuardConfig, Market};
use gridmarket::{ChaosConfig, TycoonPolicy};

const SAMPLES: usize = 15;
const BUDGET_PCT: f64 = 5.0;
const SEED: u64 = 0xBE7C_47AC;

/// Wall time (ms) of one full honest chaos run under `guard`.
fn sample_run_ms(guard: GuardConfig) -> f64 {
    let world = ChaosConfig::default().world(SEED);
    let mut market = Market::new(&SEED.to_be_bytes());
    market.set_interval_secs(10.0);
    market.set_guard(guard);
    for h in world.driver.host_specs() {
        market.add_host(h.clone());
    }
    let jm = JobManager::new(&mut market, AgentConfig::default(), VmConfig::default());
    let mut policy = TycoonPolicy::new(market, jm);
    let mut driver = world.driver;

    let t0 = Instant::now();
    let r = driver
        .run(&mut policy, &world.jobs)
        .expect("honest chaos run");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(r.outcomes.len());
    ms
}

fn main() {
    let save = std::env::args().any(|a| a == "--save");

    let (open_med, armed_med, overhead_pct) = ab_interleaved(
        SAMPLES,
        || sample_run_ms(GuardConfig::disabled()),
        || sample_run_ms(GuardConfig::default()),
    );
    let pass = overhead_pct < BUDGET_PCT;

    println!(
        "honest_chaos_run               open {open_med:>9.2} ms   guarded {armed_med:>9.2} ms   overhead {overhead_pct:>+6.2} %   budget <{BUDGET_PCT} %   {}",
        if pass { "PASS" } else { "FAIL" }
    );

    if save {
        let json = format!(
            "{{\n  \"bench\": \"honest_chaos_run\",\n  \"samples\": {SAMPLES},\n  \"open_run_ms_median\": {open_med:.3},\n  \"guarded_run_ms_median\": {armed_med:.3},\n  \"overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": {BUDGET_PCT:.1},\n  \"pass\": {pass}\n}}\n"
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_attack.json");
        std::fs::write(path, json).expect("write BENCH_attack.json");
        println!("saved {path}");
    }
}
