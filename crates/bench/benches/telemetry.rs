//! Telemetry overhead microbench (DESIGN.md §9).
//!
//! Runs the same Table-1-scale auction workload — 30 testbed hosts, 8
//! users, every user holding a funded bid on every host — twice: once on
//! a bare market and once with a `gm_telemetry::Registry` attached (tick
//! histogram, per-host spot gauges, bid/transfer counters). Reports the
//! median per-tick time of each and the relative overhead, which the
//! design budget caps at 5 %.
//!
//! `--save` (what `just bench-save` passes) writes the result to
//! `BENCH_telemetry.json` at the repository root.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gm_bench::ab_interleaved;
use gm_crypto::Keypair;
use gm_des::SimTime;
use gm_telemetry::{Registry, WallClock};
use gm_tycoon::{Credits, HostId, HostSpec, Market, UserId};

const HOSTS: u32 = 30;
const USERS: u32 = 8;
const TICKS_PER_SAMPLE: u32 = 200;
const SAMPLES: usize = 15;
const BUDGET_PCT: f64 = 5.0;

fn build_market(with_telemetry: bool) -> Market {
    let mut market = Market::new(b"telemetry-bench");
    let registry = Registry::new();
    if with_telemetry {
        market.attach_telemetry(&registry, Arc::new(WallClock::new()));
    }
    for i in 0..HOSTS {
        market.add_host(HostSpec::testbed(i));
    }
    for u in 0..USERS {
        let key = Keypair::from_seed(format!("user{u}").as_bytes()).public;
        let acct = market.bank_mut().open_account(key, &format!("user{u}"));
        market
            .bank_mut()
            .mint(acct, Credits::from_whole(1_000_000))
            .expect("endowment");
        for h in 0..HOSTS {
            market
                .place_funded_bid(
                    UserId(u),
                    acct,
                    HostId(h),
                    0.01 + f64::from(u) * 1e-3,
                    Credits::from_whole(1_000),
                )
                .expect("funded bid");
        }
    }
    market
}

/// Per-tick wall time (µs) over one freshly-built market.
fn sample_tick_us(with_telemetry: bool) -> f64 {
    let mut market = build_market(with_telemetry);
    let mut now = SimTime::ZERO;
    let dt = gm_des::SimDuration::from_secs(10);
    // Warm caches and let the first allocations settle.
    for _ in 0..20 {
        black_box(market.tick(now));
        now += dt;
    }
    let t0 = Instant::now();
    for _ in 0..TICKS_PER_SAMPLE {
        black_box(market.tick(now));
        now += dt;
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(TICKS_PER_SAMPLE)
}

fn main() {
    let save = std::env::args().any(|a| a == "--save");

    let (bare_med, instr_med, overhead_pct) =
        ab_interleaved(SAMPLES, || sample_tick_us(false), || sample_tick_us(true));
    let pass = overhead_pct < BUDGET_PCT;

    println!(
        "auction_tick_{HOSTS}hosts_{USERS}users        bare {bare_med:>9.2} µs   telemetry {instr_med:>9.2} µs   overhead {overhead_pct:>+6.2} %   budget <{BUDGET_PCT} %   {}",
        if pass { "PASS" } else { "FAIL" }
    );

    if save {
        let json = format!(
            "{{\n  \"bench\": \"auction_tick\",\n  \"hosts\": {HOSTS},\n  \"users\": {USERS},\n  \"ticks_per_sample\": {TICKS_PER_SAMPLE},\n  \"samples\": {SAMPLES},\n  \"bare_tick_us_median\": {bare_med:.3},\n  \"telemetry_tick_us_median\": {instr_med:.3},\n  \"overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": {BUDGET_PCT:.1},\n  \"pass\": {pass}\n}}\n"
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
        std::fs::write(path, json).expect("write BENCH_telemetry.json");
        println!("saved {path}");
    }
}
