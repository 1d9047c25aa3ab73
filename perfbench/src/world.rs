//! The traced twin of [`Scenario::run`].
//!
//! `Scenario`'s fields are private, so the traced run re-assembles the
//! same world from the public parts, step for step as `Scenario::run`
//! does, with the policy wrapped in [`Timed`]. Every traced unit is
//! compared field by field (telemetry export, counters, user rows,
//! price trace, monitor) with an untraced run of the real entry point;
//! a mismatch means this mirror no longer matches the program, and the
//! workload's layer numbers are reported invalid.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gm_bio::workload::BioWorkload;
use gm_core::{JobRequest, PolicyDriver};
use gm_des::{FaultPlan, SimDuration, SimTime};
use gm_grid::{AgentConfig, GridIdentity, JobId, JobManager, VmConfig};
use gm_telemetry::{metrics_jsonl, trace_jsonl, Clock, ManualClock, Registry, Tracer};
use gm_tycoon::{Credits, Market, UserId};
use gridmarket::scenario::{jittered_hosts, ScenarioResult, UserReport};
use gridmarket::{ChaosConfig, TycoonJobSetup, TycoonPolicy};

use crate::timed::{HookTimes, Timed};

/// `Scenario::run`'s fault-trace ring capacity.
const TRACE_CAPACITY: usize = 4096;
/// `Scenario::builder`'s reallocation interval.
const INTERVAL_SECS: f64 = 10.0;

/// One user as `UserSetup` describes it.
#[derive(Clone, Debug)]
pub struct User {
    /// Token funding in credits.
    pub funding: f64,
    /// Sub-jobs.
    pub subjobs: u32,
    /// Display label.
    pub label: String,
    /// Submission delay after the previous user, seconds.
    pub stagger_secs: u64,
}

/// The parameters `Scenario::run` reads, for the builder settings the
/// benchmark's workloads use (default agent, VM, interval, guard,
/// sharding and a private journal).
#[derive(Clone, Debug)]
pub struct World {
    /// Market/bank key seed.
    pub seed: u64,
    /// Testbed hosts.
    pub hosts: u32,
    /// Users in submission order.
    pub users: Vec<User>,
    /// Minutes per chunk at a full vCPU.
    pub chunk_minutes: f64,
    /// Job deadline, minutes.
    pub deadline_minutes: u64,
    /// Horizon, hours.
    pub horizon_hours: u64,
    /// Host capacity jitter.
    pub heterogeneity: f64,
    /// Fault schedule.
    pub faults: FaultPlan,
}

impl World {
    /// The world `ChaosConfig::scenario(seed)` builds. `equal_users`
    /// creates `UserSetup::new(funding)` users, so they get its default
    /// 15 sub-jobs and 30 s stagger: `cfg.subjobs` is not read.
    pub fn chaos(cfg: &ChaosConfig, seed: u64) -> World {
        World {
            seed,
            hosts: cfg.hosts,
            users: (1..=cfg.users)
                .map(|i| User {
                    funding: cfg.funding,
                    subjobs: 15,
                    label: format!("user{i}"),
                    stagger_secs: 30,
                })
                .collect(),
            chunk_minutes: cfg.chunk_minutes,
            deadline_minutes: cfg.deadline_minutes,
            horizon_hours: cfg.horizon_hours,
            heterogeneity: cfg.heterogeneity,
            faults: FaultPlan::generate(seed, cfg.fault_gen()),
        }
    }

    /// The paper-scale world of Tables 1 and 2
    /// (`gm_experiments::table1::scenario(Scale::Paper)`): seed 2006,
    /// 30 hosts, 212-minute chunks, 330-minute deadline, 48 h horizon,
    /// five 15-sub-job users with the given fundings.
    pub fn paper_table(fundings: &[f64]) -> World {
        World {
            seed: 2006,
            hosts: 30,
            users: fundings
                .iter()
                .enumerate()
                .map(|(i, &funding)| User {
                    funding,
                    subjobs: 15,
                    label: format!("user{}", i + 1),
                    stagger_secs: 30,
                })
                .collect(),
            chunk_minutes: 212.0,
            deadline_minutes: 330,
            horizon_hours: 48,
            heterogeneity: 0.0,
            faults: FaultPlan::new(),
        }
    }

    /// Run the world with every policy hook timed. Mirrors
    /// `Scenario::run` line for line; returns the result it would
    /// return, the hook times and the unit's wall time.
    pub fn run_traced(&self) -> (ScenarioResult, HookTimes, Duration) {
        let t0 = Instant::now();
        let registry = Registry::new();
        let sim_clock = ManualClock::new();
        let clock: Arc<dyn Clock> = Arc::new(sim_clock.clone());
        let tracer = Tracer::new(TRACE_CAPACITY, Arc::clone(&clock));
        let seed_bytes = self.seed.to_be_bytes();
        let mut market = Market::new(&seed_bytes);
        market.set_interval_secs(INTERVAL_SECS);
        market.set_sharding(1);
        market.attach_telemetry(&registry, Arc::clone(&clock));
        market.attach_ledger(Default::default());
        let host_specs = jittered_hosts(self.seed, self.hosts, self.heterogeneity);
        for spec in &host_specs {
            market.add_host(spec.clone());
        }
        let jm = JobManager::with_registry(
            &mut market,
            AgentConfig::default(),
            VmConfig::default(),
            &registry,
        );

        let mut requests: Vec<JobRequest> = Vec::with_capacity(self.users.len());
        let mut setups: Vec<TycoonJobSetup> = Vec::with_capacity(self.users.len());
        let mut dns: Vec<String> = Vec::with_capacity(self.users.len());
        let mut t = SimTime::ZERO;
        for (i, user) in self.users.iter().enumerate() {
            let identity = GridIdentity::swegrid_user(i as u32 + 1);
            let account = market
                .bank_mut()
                .open_account(identity.public_key(), &format!("user{}", i + 1));
            market
                .bank_mut()
                .mint(account, Credits::from_f64(user.funding * 10.0 + 1.0))
                .expect("endowment");
            t += SimDuration::from_secs(user.stagger_secs);
            let workload = BioWorkload {
                subjobs: user.subjobs,
                chunk_minutes: self.chunk_minutes,
                deadline_minutes: self.deadline_minutes,
            };
            requests.push(JobRequest {
                id: i as u32,
                user: UserId(i as u32 + 1),
                subjobs: user.subjobs,
                work_per_subjob: workload.work_mhz_secs_per_subjob(),
                arrival: t,
                budget: user.funding,
                deadline_secs: self.deadline_minutes as f64 * 60.0,
            });
            dns.push(identity.dn().to_owned());
            setups.push(TycoonJobSetup {
                identity,
                account,
                label: user.label.clone(),
                workload,
            });
        }

        let mut policy = TycoonPolicy::new(market, jm)
            .with_clock(sim_clock.clone())
            .with_tracer(tracer.clone());
        for (i, setup) in setups.into_iter().enumerate() {
            policy.prepare(i as u32, setup);
        }
        let mut policy = Timed::new(policy);
        let mut driver = PolicyDriver::new(host_specs, INTERVAL_SECS)
            .horizon(SimTime::ZERO + SimDuration::from_hours(self.horizon_hours))
            .faults(self.faults.clone())
            .with_registry(&registry);
        if let Err(e) = driver.run(&mut policy, &requests) {
            panic!("traced world failed: {e}");
        }
        let now = driver.stats().final_now;
        let faults_injected = driver.stats().faults_injected;
        let (policy, hooks) = policy.into_parts();
        let job_ids: Vec<JobId> = (0..requests.len() as u32)
            .map(|i| policy.grid_job_id(i).expect("submitted"))
            .collect();
        let (market, jm) = policy.into_parts();

        let users = self
            .users
            .iter()
            .zip(&dns)
            .zip(&job_ids)
            .map(|((u, dn), &jid)| {
                let job = jm.job(jid).expect("job exists");
                let makespan_h = job.makespan(now).as_hours_f64();
                let charged = job.charged.as_f64();
                let avg_nodes = job.avg_nodes();
                UserReport {
                    label: u.label.clone(),
                    dn: dn.clone(),
                    funding: u.funding,
                    phase: job.phase,
                    time_hours: makespan_h,
                    cost_per_hour: if makespan_h > 0.0 {
                        charged / makespan_h
                    } else {
                        0.0
                    },
                    charged,
                    latency_min_per_job: if avg_nodes > 0.0 {
                        makespan_h * 60.0 / avg_nodes
                    } else {
                        0.0
                    },
                    nodes: job.max_nodes(),
                    avg_nodes,
                    completed_subjobs: job.completed_subjobs(),
                    subjobs: job.subjobs.len(),
                }
            })
            .collect();

        let monitor = gm_grid::monitor::render(&market, &jm, 15);
        sim_clock.set_micros(now.as_micros());
        let metrics = registry.snapshot();
        let telemetry_jsonl = format!("{}{}", metrics_jsonl(&metrics), trace_jsonl(&tracer));
        let result = ScenarioResult {
            users,
            price_trace: market.price_trace().clone(),
            finished_at: now,
            monitor,
            total_money: market.bank().total_money().as_f64(),
            total_minted: market.bank().total_minted().as_f64(),
            faults_injected,
            fault_counters: jm.fault_counters(),
            crashed_hosts_at_end: market.crashed_host_ids().len(),
            recovery_invariant_ok: jm.recovery_invariant_ok(),
            metrics,
            telemetry_jsonl,
        };
        (result, hooks, t0.elapsed())
    }
}

/// Do two results agree in every field (f64s bit for bit)?
pub fn same_result(a: &ScenarioResult, b: &ScenarioResult) -> bool {
    a.telemetry_jsonl == b.telemetry_jsonl && format!("{a:?}") == format!("{b:?}")
}
