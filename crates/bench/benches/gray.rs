//! Gray-resilience overhead microbench (`DESIGN.md` §17).
//!
//! Runs the same chaos scenario — the default `ChaosConfig` world, which
//! has binary faults but **no gray faults** — twice: once with health
//! scoring + speculative re-dispatch off (the pre-§17 agent) and once
//! with the default armed agent. With no gray faults every health score
//! stays at exactly 1.0, nothing is probated and no twin ever launches,
//! so the armed run pays only the observation overhead: the per-tick
//! observed-vs-expected progress samples, the probation aging sweep and
//! the candidate ranking. The design budget caps that at 5 % — the
//! sensor must be free when nothing is failing.
//!
//! `--save` (what `just bench-save-gray` passes) writes the result to
//! `BENCH_gray.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use gm_bench::ab_interleaved;
use gm_experiments::ext_gray::nospec_agent;
use gm_grid::AgentConfig;
use gridmarket::ChaosConfig;

const SAMPLES: usize = 15;
const BUDGET_PCT: f64 = 5.0;
const SEED: u64 = 0x617A_717E;

/// Wall time (ms) of one full chaos run under `agent`.
fn sample_run_ms(agent: AgentConfig) -> f64 {
    let cfg = ChaosConfig::default();
    let t0 = Instant::now();
    let r = cfg
        .scenario(SEED)
        .agent(agent)
        .run()
        .expect("chaos run completes");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(r.users.len());
    ms
}

fn main() {
    let save = std::env::args().any(|a| a == "--save");

    let (off_med, armed_med, overhead_pct) = ab_interleaved(
        SAMPLES,
        || sample_run_ms(nospec_agent()),
        || sample_run_ms(AgentConfig::default()),
    );
    let pass = overhead_pct < BUDGET_PCT;

    println!(
        "gray_free_chaos_run            off {off_med:>9.2} ms   armed {armed_med:>9.2} ms   overhead {overhead_pct:>+6.2} %   budget <{BUDGET_PCT} %   {}",
        if pass { "PASS" } else { "FAIL" }
    );

    if save {
        let json = format!(
            "{{\n  \"bench\": \"gray_free_chaos_run\",\n  \"samples\": {SAMPLES},\n  \"off_run_ms_median\": {off_med:.3},\n  \"armed_run_ms_median\": {armed_med:.3},\n  \"overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": {BUDGET_PCT:.1},\n  \"pass\": {pass}\n}}\n"
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gray.json");
        std::fs::write(path, json).expect("write BENCH_gray.json");
        println!("saved {path}");
    }
}
