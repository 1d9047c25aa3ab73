//! # gm-bench — benchmark harness
//!
//! Self-contained benches (`cargo bench --workspace`), timed by the
//! in-repo [`Harness`] (no external benchmark framework):
//!
//! * `tables` — regenerate Table 1 / Table 2 (quick scale).
//! * `figures` — regenerate Fig. 3–7 (quick scale).
//! * `micro` — hot-path microbenchmarks: Best Response, auctioneer
//!   allocation, SHA-256, Schnorr sign/verify, token verification,
//!   Levinson-Durbin, smoothing spline, the BLOSUM62 scan kernel.
//! * `ablations` — design-choice ablations called out in `DESIGN.md`:
//!   per-interval rebidding on/off, bid-rate premium cap, VM provisioning
//!   cost, AR smoothing on/off.
//!
//! The benches print the *quality* metrics they produce (ε, group rows)
//! to stderr once per run so `bench_output.txt` records both speed and
//! outcome.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimal wall-clock timing harness: per benchmark it warms up once,
/// auto-batches fast routines so every sample runs for at least a few
/// milliseconds, then prints per-iteration mean/min/max over the samples.
pub struct Harness {
    samples: usize,
    min_sample_time: Duration,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness with 10 samples of ≥ 5 ms each.
    pub fn new() -> Self {
        Harness {
            samples: 10,
            min_sample_time: Duration::from_millis(5),
        }
    }

    /// Set the number of timed samples.
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Time `f` and print one result line to stdout.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        // Warm-up run doubles as batch-size calibration.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed();
        let batch = (self.min_sample_time.as_nanos() / once.as_nanos().max(1))
            .clamp(1, 1_000_000) as u32;
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        per_iter.sort_by(f64::total_cmp);
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        println!(
            "{name:<44} mean {:>10}  min {:>10}  max {:>10}  ({} samples x {batch} iters)",
            fmt_secs(mean),
            fmt_secs(per_iter[0]),
            fmt_secs(*per_iter.last().expect("samples >= 1")),
            self.samples,
        );
    }
}

/// Human-readable seconds with an adaptive unit.
fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Median of `xs` (the upper median for an even count); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Interleaved A/B timing behind the overhead budgets: `samples` rounds
/// of one `a()` sample then one `b()` sample, so frequency drift and
/// background noise hit both configurations alike. Returns
/// `(median_a, median_b, overhead_pct)`, the overhead of `b` over `a`.
pub fn ab_interleaved(
    samples: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let mut xs = Vec::with_capacity(samples);
    let mut ys = Vec::with_capacity(samples);
    for _ in 0..samples {
        xs.push(a());
        ys.push(b());
    }
    let (med_a, med_b) = (median(&mut xs), median(&mut ys));
    (med_a, med_b, (med_b - med_a) / med_a * 100.0)
}

/// Shared helper: a small deterministic scenario used by several benches.
pub fn bench_scenario(rebid: bool, premium: f64) -> gridmarket::ScenarioResult {
    use gridmarket::scenario::{Scenario, UserSetup};
    let agent = gm_grid::AgentConfig {
        rebid,
        max_share_premium: premium,
        ..gm_grid::AgentConfig::default()
    };
    Scenario::builder()
        .seed(100)
        .hosts(6)
        .chunk_minutes(6.0)
        .deadline_minutes(60)
        .horizon_hours(6)
        .agent(agent)
        .user(UserSetup::new(100.0).subjobs(3))
        .user(UserSetup::new(100.0).subjobs(3))
        .user(UserSetup::new(400.0).subjobs(3))
        .run()
        .expect("bench scenario")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_a_closure() {
        // Smoke test: must not panic, batch must calibrate for a fast fn.
        Harness::new().samples(3).bench("noop_add", || black_box(1u64) + 1);
    }

    #[test]
    fn ab_interleaved_alternates_and_reports_overhead() {
        let calls = std::cell::RefCell::new(String::new());
        let (a, b, pct) = ab_interleaved(
            3,
            || (calls.borrow_mut().push('a'), 100.0).1,
            || (calls.borrow_mut().push('b'), 110.0).1,
        );
        assert_eq!(calls.into_inner(), "ababab");
        assert_eq!((a, b), (100.0, 110.0));
        assert!((pct - 10.0).abs() < 1e-12);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 3.0);
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_secs(2e-9).ends_with("ns"));
        assert!(fmt_secs(2e-6).ends_with("µs"));
        assert!(fmt_secs(2e-3).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with(" s"));
    }
}
