//! `market_rebid`: a 10k-host market carrying 4 funded bids per host.
//! Each step stages seeded `StagedOp::UpdateRate` re-bids on 2 % of the
//! bids, then runs `apply_staged` and `tick`. The market layer is a
//! small share of every other workload; here it is all of the work.
//! The bank works only in set-up (40k signed escrow transfers).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gm_crypto::Keypair;
use gm_des::{Rng64, SimDuration, SimTime, SplitMix64};
use gm_tycoon::{BidHandle, Credits, HostId, HostSpec, Market, StagedOp, UserId};

use crate::stats::{median, ms};
use crate::{timed_setups, E2e, Traced, GOLDEN};

const SALT: u64 = 0x3A8C_E700_0000_0004;
const HOSTS: u32 = 10_000;
const BIDS_PER_HOST: u32 = 4;
/// Re-bids staged per step: 2 % of the live bids.
const REBIDS_PER_STEP: usize = (HOSTS * BIDS_PER_HOST / 50) as usize;
/// Steps in a round, the e2e pool (~0.25 s): small enough that every
/// position is visited in ~40 rounds, so its best time is the program's.
const ROUND_STEPS: usize = 250;
/// Steps in the traced run.
const TRACED_STEPS: usize = 2000;

/// A funded market and the seeded re-bids that drive it.
pub struct Rebid {
    market: Market,
    bids: Vec<(HostId, BidHandle)>,
    seed: u64,
    now: SimTime,
}

impl Rebid {
    /// Build the market: every bid from its own freshly opened and
    /// minted account, with rates low enough (and escrow large enough)
    /// that no bid runs dry within a run. The per-tick price trace is
    /// off: its memory grows with hosts × ticks.
    pub fn new(seed: u64) -> Rebid {
        let mut market = Market::new(b"perfbench-market-rebid");
        market.set_price_trace_enabled(false);
        for i in 0..HOSTS {
            market.add_host(HostSpec::testbed(i));
        }
        let key = Keypair::from_seed(b"perfbench-bidder").public;
        let mut bids = Vec::with_capacity((HOSTS * BIDS_PER_HOST) as usize);
        for h in 0..HOSTS {
            for b in 0..BIDS_PER_HOST {
                let n = h * BIDS_PER_HOST + b;
                let acct = market.bank_mut().open_account(key, &format!("bidder{n}"));
                market
                    .bank_mut()
                    .mint(acct, Credits::from_whole(10_000))
                    .expect("endowment");
                let handle = market
                    .place_funded_bid(
                        UserId(b + 1),
                        acct,
                        HostId(h),
                        0.001 + f64::from(b) * 1e-4,
                        Credits::from_whole(1_000),
                    )
                    .expect("funded bid");
                bids.push((HostId(h), handle));
            }
        }
        Rebid {
            market,
            bids,
            seed: seed ^ SALT,
            now: SimTime::ZERO,
        }
    }

    /// Stage the re-bids of pool position `p`: bids and rates in
    /// [0.001, 0.0015) credits/s (far below the guard's rate cap) drawn
    /// from the position's own seed, so a position stages the same ops
    /// whenever a round visits it.
    fn stage(&mut self, p: usize) {
        let mut rng = SplitMix64::new(self.seed ^ (p as u64 + 1).wrapping_mul(GOLDEN));
        for _ in 0..REBIDS_PER_STEP {
            let (host, handle) = self.bids[(rng.next_u64() % self.bids.len() as u64) as usize];
            let rate = 0.001 + 0.0005 * rng.next_f64();
            self.market
                .stage(StagedOp::UpdateRate { host, handle, rate });
        }
    }

    /// Did every staged op of the step apply?
    fn applied_ok(
        results: &[(
            u64,
            Result<gm_tycoon::StagedOutcome, gm_tycoon::MarketError>,
        )],
    ) -> bool {
        results.len() == REBIDS_PER_STEP && results.iter().all(|(_, r)| r.is_ok())
    }

    /// One step at pool position `p`: stage, apply, tick. Returns
    /// whether every op applied.
    pub fn step(&mut self, p: usize) -> bool {
        self.stage(p);
        let results = self.market.apply_staged();
        std::hint::black_box(self.market.tick(self.now));
        self.now += SimDuration::from_secs(10);
        Rebid::applied_ok(&results)
    }

    /// Money is conserved exactly.
    pub fn conserved(&self) -> bool {
        self.market.bank().total_money() == self.market.bank().total_minted()
    }
}

fn setup(seed: u64) -> Rebid {
    let mut m = Rebid::new(seed);
    assert!(m.step(0), "warm-up step rejected an op");
    m
}

/// The timed, untraced run. A unit is one step; the pool is the
/// `ROUND_STEPS` seeded re-bid sets a round stages, one per step, while
/// the market itself keeps running from round to round.
///
/// Unlike the other workloads it runs no set-ups during the timed work
/// (`setup_s` is the median of the `SETUP_REPS` before it): a fresh
/// market built beside the running one doubles the peak RSS, and one
/// built in its place, after the running one had stepped, left
/// `peak_rss_mb` anywhere from 22 to 28 MiB in identical runs, where it
/// otherwise repeats within 0.2 MiB.
pub fn e2e(seed: u64, seconds: f64) -> E2e {
    let (setup_s, mut m) = timed_setups(|| setup(seed));
    let mut e = E2e::new(setup_s, ROUND_STEPS);
    'run: while e.next_unit(seconds) {
        e.start_round();
        for i in e.round_order(seed) {
            if !e.next_unit(seconds) {
                break 'run;
            }
            let t0 = Instant::now();
            let applied = m.step(i);
            let d = t0.elapsed();
            e.wall += d;
            e.record(i, d, applied);
        }
    }
    if !m.conserved() {
        eprintln!("market_rebid: total_money != total_minted after the run");
        e.ok = 0;
    }
    e
}

/// The traced run: two identical markets step in lockstep, one as the
/// untimed-inside twin and one with stage / apply / tick timed apart;
/// their op results and allocations must match step for step.
pub fn traced(seed: u64) -> Traced {
    let mut twin = setup(seed);
    let mut m = setup(seed);
    let mut t = [Duration::ZERO; 3];
    let (mut twin_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut twin_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut mismatches, mut failed) = (0, 0);
    for p in 0..TRACED_STEPS {
        let t0 = Instant::now();
        twin.stage(p);
        let twin_results = twin.market.apply_staged();
        let twin_alloc = twin.market.tick(twin.now);
        twin.now += SimDuration::from_secs(10);
        let d = t0.elapsed();

        let t0 = Instant::now();
        m.stage(p);
        let t1 = Instant::now();
        let results = m.market.apply_staged();
        let t2 = Instant::now();
        let alloc = m.market.tick(m.now);
        let t3 = Instant::now();
        m.now += SimDuration::from_secs(10);
        t[0] += t1 - t0;
        t[1] += t2 - t1;
        t[2] += t3 - t2;
        let td = t3 - t0;

        twin_wall += d;
        twin_ms.push(ms(d));
        traced_wall += td;
        traced_ms.push(ms(td));
        if results != twin_results || alloc != twin_alloc {
            mismatches += 1;
        }
        if !Rebid::applied_ok(&twin_results) {
            failed += 1;
        }
    }
    if !twin.conserved() {
        failed = TRACED_STEPS;
    }
    let n = TRACED_STEPS as f64;
    let hooks = t[0] + t[1] + t[2];
    let layers = BTreeMap::from([
        ("market.stage_ms", ms(t[0]) / n),
        ("market.apply_staged_ms", ms(t[1]) / n),
        ("market.tick_ms", ms(t[2]) / n),
        (
            "market.tick_ns_per_host",
            t[2].as_secs_f64() * 1e9 / n / f64::from(HOSTS),
        ),
        ("count.market_ticks", n),
        ("driver.self_ms", ms(traced_wall.saturating_sub(hooks)) / n),
        (
            "trace.coverage",
            hooks.as_secs_f64() / traced_wall.as_secs_f64(),
        ),
        ("trace.p50_ratio", median(&traced_ms) / median(&twin_ms)),
    ]);
    Traced {
        layers,
        attempted: TRACED_STEPS,
        failed,
        mismatches,
        twin_unit_ms: ms(twin_wall) / n,
    }
}
