//! The gridmarket benchmark: four single-threaded, many-unit workloads,
//! each chosen so that one layer of the stack does most of its work
//! (see `BENCHMARK.json` for why each was chosen and what each layer
//! metric should move).
//!
//! ```text
//! gm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds` of timed
//! work, untraced. `--trace 1` runs a fixed number of units twice each —
//! untraced (the twin) and with every layer boundary timed — checks the
//! two agree exactly, and reports the per-layer metrics. Both print a
//! few human-readable lines, then one JSON object as the last line.

mod chaos;
mod market;
mod probes;
mod stats;
mod tables;
mod timed;
mod vcgw;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use stats::{median, peak_rss_mb, ref_loop_ms, tail};

/// Timed work between moves to the quietest CPU: the host's slow spells
/// last seconds, so a move every half second follows them.
const REPIN_EVERY: Duration = Duration::from_millis(500);

/// Set-ups before the timed work.
pub const SETUP_REPS: usize = 3;
/// Further set-ups spread evenly through the timed work. A set-up of the
/// cheaper workloads (~0.1 s) runs up to 1.6x slower in the host's slow
/// spells, which last seconds, so set-ups taken back to back all land in
/// one spell; spread over the run, their median (`setup_s`) does not.
pub const SPREAD_SETUPS: usize = 6;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["chaos_sweep", "paper_tables", "vcg_window", "market_rebid"];

/// Per-layer metrics and units, printed by every traced run. A layer a
/// workload never calls reads 0 there.
const PER_LAYER: [(&str, &str); 34] = [
    ("grid.place_ms", "ms"),
    ("grid.admit_ms", "ms"),
    ("market.advance_ms", "ms"),
    ("ledger.audit_ms", "ms"),
    ("ledger.restart_ms", "ms"),
    ("fault.other_ms", "ms"),
    ("policy.other_ms", "ms"),
    ("driver.self_ms", "ms"),
    ("mc.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.p50_ratio", "ratio"),
    ("trace.twin_mismatches", "count"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("bank.transfer_us", "us"),
    ("ledger.recover_us_per_record", "us"),
    ("bank.est_share", "ratio"),
    ("count.bank_transfers", "count"),
    ("count.ledger_appends", "count"),
    ("count.ledger_records_replayed", "count"),
    ("count.ledger_audits", "count"),
    ("count.market_ticks", "count"),
    ("count.grid_dispatches", "count"),
    ("count.faults_injected", "count"),
    ("count.lp_solves", "count"),
    ("optimal.build_ms", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.loo_solve_ms", "ms"),
    ("market.stage_ms", "ms"),
    ("market.apply_staged_ms", "ms"),
    ("market.tick_ms", "ms"),
    ("market.tick_ns_per_host", "ns"),
    ("ledger.recover_records", "count"),
    ("host.ref_loop_ms", "ms"),
];

/// What a timed, untraced run measured.
///
/// Each workload runs a fixed pool of inputs round after round until
/// `--seconds` of timed wall time have passed, and keeps each input's
/// best wall time over the rounds. A shared 2-vCPU host runs ~1.6×
/// slower for seconds at a time; the best of several rounds spread
/// across the run is the program's own cost, where a single pass would
/// measure the host.
pub struct E2e {
    /// Wall seconds of each set-up (input generation + warm-up unit).
    pub setup_s: Vec<f64>,
    /// Set-ups run so far during the timed work.
    spread_done: usize,
    /// Best wall ms of each pool input over the rounds.
    pub best_ms: Vec<f64>,
    /// Timed wall time over all rounds.
    pub wall: Duration,
    /// Rounds started (the last may be partial).
    pub rounds: usize,
    /// Unit executions attempted.
    pub attempted: usize,
    /// Unit executions that passed every output check.
    pub ok: usize,
    /// `wall` when the run last moved to the quietest CPU.
    pinned_at: Duration,
}

impl E2e {
    /// An empty measurement over a pool of `pool` inputs.
    pub fn new(setup_s: Vec<f64>, pool: usize) -> E2e {
        E2e {
            setup_s,
            spread_done: 0,
            best_ms: vec![f64::INFINITY; pool],
            wall: Duration::ZERO,
            rounds: 0,
            attempted: 0,
            ok: 0,
            pinned_at: Duration::ZERO,
        }
    }

    /// Record one execution of input `i`.
    pub fn record(&mut self, i: usize, d: Duration, ok: bool) {
        self.best_ms[i] = self.best_ms[i].min(stats::ms(d));
        self.attempted += 1;
        self.ok += usize::from(ok);
    }

    /// Start a round.
    pub fn start_round(&mut self) {
        self.rounds += 1;
    }

    /// The order in which this round visits the pool: a fresh seeded
    /// shuffle each round, so a disturbance that recurs at a fixed period
    /// cannot hit the same inputs in every round.
    pub fn round_order(&self, seed: u64) -> Vec<usize> {
        visit_order(
            seed ^ (self.rounds as u64).wrapping_mul(GOLDEN),
            self.best_ms.len(),
        )
    }

    /// Whether to run another unit: always within the first round
    /// (every input needs a time), afterwards until `seconds` are used.
    /// Before saying yes it moves to the quietest CPU whenever
    /// `REPIN_EVERY` of timed work has passed since the last move.
    pub fn next_unit(&mut self, seconds: f64) -> bool {
        let more = self.attempted < self.best_ms.len() || self.wall.as_secs_f64() < seconds;
        if more && (self.attempted == 0 || self.wall >= self.pinned_at + REPIN_EVERY) {
            stats::pin_to_quietest_cpu();
            self.pinned_at = self.wall;
        }
        more
    }

    /// Whether a spread set-up is due: the k-th of `SPREAD_SETUPS`
    /// once k/(SPREAD_SETUPS + 1) of `seconds` of timed work is done.
    pub fn setup_due(&self, seconds: f64) -> bool {
        let at = seconds * (self.spread_done + 1) as f64 / (SPREAD_SETUPS + 1) as f64;
        self.spread_done < SPREAD_SETUPS && self.wall.as_secs_f64() >= at
    }

    /// Run one spread set-up on the quietest CPU, untimed for the unit
    /// metrics, and record its wall seconds.
    pub fn spread_setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        stats::pin_to_quietest_cpu();
        let t0 = std::time::Instant::now();
        let r = setup();
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.spread_done += 1;
        r
    }
}

/// What a traced run measured.
pub struct Traced {
    /// Per-layer values (absent layers read 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Units traced (each also run as its untraced twin).
    pub attempted: usize,
    /// Twins that failed an output check.
    pub failed: usize,
    /// Units whose traced result differed from the twin's.
    pub mismatches: usize,
    /// Mean untraced unit wall time, ms.
    pub twin_unit_ms: f64,
}

/// Run `setup` `SETUP_REPS` times, each on the quietest CPU and after
/// dropping the previous result; return each one's wall seconds and
/// the last result.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    // Room for the spread set-ups too: no reallocation during the run.
    let mut secs = Vec::with_capacity(SETUP_REPS + SPREAD_SETUPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        stats::pin_to_quietest_cpu();
        let t0 = std::time::Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (secs, last.expect("at least one set-up"))
}

/// Odd 64-bit constant (2^64 / φ) for mixing indices into seeds.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A Fisher–Yates shuffle of `0..n` seeded by `seed`.
pub fn visit_order(seed: u64, n: usize) -> Vec<usize> {
    use gm_des::{Rng64, SplitMix64};
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// The registry counters reported as `count.*`, summed over the twins.
pub fn count_layers(counters: &BTreeMap<String, u64>) -> BTreeMap<&'static str, f64> {
    [
        ("count.bank_transfers", "market.bank_transfers"),
        ("count.ledger_appends", "ledger.appends"),
        ("count.ledger_records_replayed", "ledger.records_replayed"),
        ("count.ledger_audits", "ledger.audits"),
        ("count.market_ticks", "market.ticks"),
        ("count.grid_dispatches", "grid.dispatches"),
        ("count.faults_injected", "faults.injected"),
    ]
    .into_iter()
    .map(|(name, key)| (name, counters.get(key).copied().unwrap_or(0) as f64))
    .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn e2e_metrics(e: &E2e) -> Vec<(&'static str, f64, &'static str)> {
    assert!(
        e.best_ms.iter().all(|x| x.is_finite()),
        "an input never ran"
    );
    let (tail_ms, tail_pct) = tail(&e.best_ms);
    println!(
        "{} unit runs ({} ok) in {} rounds over a pool of {} inputs, {:.3} s timed; \
         latency_tail_ms is p{tail_pct:.2} of {} per-input best times; setup_s samples {:?}",
        e.attempted,
        e.ok,
        e.rounds,
        e.best_ms.len(),
        e.wall.as_secs_f64(),
        e.best_ms.len(),
        e.setup_s
    );
    vec![
        ("setup_s", median(&e.setup_s), "s"),
        (
            "throughput_per_s",
            1e3 * e.best_ms.len() as f64 / e.best_ms.iter().sum::<f64>(),
            "1/s",
        ),
        ("latency_p50_ms", median(&e.best_ms), "ms"),
        ("latency_tail_ms", tail_ms, "ms"),
        ("ok_frac", e.ok as f64 / e.attempted as f64, "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn traced_metrics(t: &Traced, ref_loop: f64) -> Vec<(&'static str, f64, &'static str)> {
    let mut layers = t.layers.clone();
    layers.extend(probes::run(chaos::pool()[0]));
    layers.insert("trace.twin_mismatches", t.mismatches as f64);
    let transfers_per_unit =
        layers.get("count.bank_transfers").copied().unwrap_or(0.0) / t.attempted as f64;
    layers.insert(
        "bank.est_share",
        transfers_per_unit * layers["bank.transfer_us"] / (t.twin_unit_ms * 1e3),
    );
    layers.insert("host.ref_loop_ms", ref_loop);
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        out.push((name, layers.remove(name).unwrap_or(0.0), unit));
    }
    assert!(
        layers.is_empty(),
        "unlisted per-layer metrics: {:?}",
        layers.keys()
    );
    println!(
        "traced {} units: {} twin check failures, {} traced/untraced mismatches; mean untraced unit {:.3} ms",
        t.attempted, t.failed, t.mismatches, t.twin_unit_ms
    );
    out
}

fn main() -> ExitCode {
    if !stats::disable_thp() {
        eprintln!("gm-perfbench: could not turn transparent huge pages off; peak_rss_mb may vary");
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gm-perfbench: {e}");
            eprintln!(
                "usage: gm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    stats::pin_to_quietest_cpu();
    let ref_before = ref_loop_ms();
    let (correct, attempted, failed, metrics) = if args.trace {
        let t = match args.workload.as_str() {
            "chaos_sweep" => chaos::traced(args.seed),
            "paper_tables" => tables::traced(args.seed),
            "vcg_window" => vcgw::traced(args.seed),
            _ => market::traced(args.seed),
        };
        let ref_after = ref_loop_ms();
        println!("host.ref_loop_ms before {ref_before:.3} after {ref_after:.3}");
        let m = traced_metrics(&t, (ref_before + ref_after) / 2.0);
        // A traced unit that disagrees with its twin invalidates the
        // workload's layer numbers.
        (t.failed == 0 && t.mismatches == 0, t.attempted, t.failed, m)
    } else {
        let e = match args.workload.as_str() {
            "chaos_sweep" => chaos::e2e(args.seed, args.seconds),
            "paper_tables" => tables::e2e(args.seed, args.seconds),
            "vcg_window" => vcgw::e2e(args.seed, args.seconds),
            _ => market::e2e(args.seed, args.seconds),
        };
        let m = e2e_metrics(&e);
        let ref_after = ref_loop_ms();
        println!("host.ref_loop_ms before {ref_before:.3} after {ref_after:.3}");
        (e.ok == e.attempted, e.attempted, e.attempted - e.ok, m)
    };
    for (name, v, unit) in &metrics {
        println!(
            "{:<32} {v:>16.6} {unit}",
            format!("{}/{name}", args.workload)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
