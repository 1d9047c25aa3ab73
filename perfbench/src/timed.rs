//! `Timed<P>`: an [`AllocationPolicy`] decorator that times every hook
//! the [`gm_core::PolicyDriver`] calls, from outside the program.
//!
//! The hooks are the layer boundaries of one Tycoon tick: `admit` is
//! token signing + xRSL + submit, `place` is `JobManager::pre_tick`
//! (bids, escrow top-ups, dispatch), `advance` is `Market::tick` +
//! `post_tick`, `settle` is the hourly ledger audit, and `apply_fault`
//! is split into bank restarts (journal replay + signature checks) and
//! every other fault kind.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gm_core::{AllocationPolicy, JobOutcome, JobRequest, PolicyError, TickCtx};
use gm_des::{FaultEvent, FaultKind, SimTime};

use crate::stats::ms;

/// Time spent in each hook over one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookTimes {
    /// `admit`.
    pub admit: Duration,
    /// `place`.
    pub place: Duration,
    /// `advance`.
    pub advance: Duration,
    /// `settle`.
    pub settle: Duration,
    /// `apply_fault` for `FaultKind::BankRestart`.
    pub restart: Duration,
    /// `apply_fault` for every other kind.
    pub fault_other: Duration,
    /// `begin_tick`, `price`, `all_settled` and `outcomes`.
    pub other: Duration,
}

impl HookTimes {
    /// Total time inside the policy.
    pub fn total(&self) -> Duration {
        self.admit
            + self.place
            + self.advance
            + self.settle
            + self.restart
            + self.fault_other
            + self.other
    }

    /// The per-layer metrics of `units` traced units that took `wall`
    /// in total: per-unit hook means, driver self time (wall minus
    /// hooks) and coverage (hooks ÷ wall).
    pub fn layers(&self, wall: Duration, units: f64) -> BTreeMap<&'static str, f64> {
        let per = |d: Duration| ms(d) / units;
        BTreeMap::from([
            ("grid.place_ms", per(self.place)),
            ("grid.admit_ms", per(self.admit)),
            ("market.advance_ms", per(self.advance)),
            ("ledger.audit_ms", per(self.settle)),
            ("ledger.restart_ms", per(self.restart)),
            ("fault.other_ms", per(self.fault_other)),
            ("policy.other_ms", per(self.other)),
            ("driver.self_ms", per(wall.saturating_sub(self.total()))),
            (
                "trace.coverage",
                self.total().as_secs_f64() / wall.as_secs_f64(),
            ),
        ])
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &HookTimes) {
        self.admit += o.admit;
        self.place += o.place;
        self.advance += o.advance;
        self.settle += o.settle;
        self.restart += o.restart;
        self.fault_other += o.fault_other;
        self.other += o.other;
    }
}

/// The decorator. `price` and `all_settled` take `&self`, so their time
/// accumulates through a `Cell`.
pub struct Timed<P> {
    inner: P,
    times: HookTimes,
    shared_other: std::cell::Cell<Duration>,
}

impl<P> Timed<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Timed<P> {
        Timed {
            inner,
            times: HookTimes::default(),
            shared_other: std::cell::Cell::new(Duration::ZERO),
        }
    }

    /// The wrapped policy and the accumulated hook times.
    pub fn into_parts(self) -> (P, HookTimes) {
        let mut times = self.times;
        times.other += self.shared_other.get();
        (self.inner, times)
    }
}

impl<P: AllocationPolicy> AllocationPolicy for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_tick(&mut self, ctx: &TickCtx) {
        let t0 = Instant::now();
        self.inner.begin_tick(ctx);
        self.times.other += t0.elapsed();
    }

    fn apply_fault(&mut self, ctx: &TickCtx, ev: &FaultEvent) {
        let t0 = Instant::now();
        self.inner.apply_fault(ctx, ev);
        let d = t0.elapsed();
        if ev.kind == FaultKind::BankRestart {
            self.times.restart += d;
        } else {
            self.times.fault_other += d;
        }
    }

    fn admit(&mut self, ctx: &TickCtx, req: &JobRequest) -> Result<(), PolicyError> {
        let t0 = Instant::now();
        let r = self.inner.admit(ctx, req);
        self.times.admit += t0.elapsed();
        r
    }

    fn place(&mut self, ctx: &TickCtx) {
        let t0 = Instant::now();
        self.inner.place(ctx);
        self.times.place += t0.elapsed();
    }

    fn advance(&mut self, ctx: &TickCtx) {
        let t0 = Instant::now();
        self.inner.advance(ctx);
        self.times.advance += t0.elapsed();
    }

    fn settle(&mut self, ctx: &TickCtx) {
        let t0 = Instant::now();
        self.inner.settle(ctx);
        self.times.settle += t0.elapsed();
    }

    fn price(&self, ctx: &TickCtx) -> Option<f64> {
        let t0 = Instant::now();
        let p = self.inner.price(ctx);
        self.shared_other
            .set(self.shared_other.get() + t0.elapsed());
        p
    }

    fn all_settled(&self) -> bool {
        let t0 = Instant::now();
        let s = self.inner.all_settled();
        self.shared_other
            .set(self.shared_other.get() + t0.elapsed());
        s
    }

    fn outcomes(&self, now: SimTime) -> Vec<JobOutcome> {
        let t0 = Instant::now();
        let o = self.inner.outcomes(now);
        self.shared_other
            .set(self.shared_other.get() + t0.elapsed());
        o
    }
}
