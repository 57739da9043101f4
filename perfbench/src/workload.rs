//! The three workloads: cluster shape, replica configuration, client load,
//! fault script and stop rule, all derived from the workload name and the
//! seed.

use std::time::Instant;

use qsel_simnet::{FaultEvent, FaultPlan, SimDuration, SimTime, Simulation};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{total_committed, ClusterBuilder, XpActor};
use qsel_xpaxos::messages::XpMsg;
use qsel_xpaxos::{BatchPolicy, ReplicaConfig};

use crate::pace;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// n=7 f=2, 8 closed-loop clients, default configuration, no faults.
    Steady,
    /// n=5 f=1, 32 closed-loop clients, b16d4 batching, 60 µs `tx_cost`.
    Batched,
    /// n=7 f=2, 8 open-loop clients, a fixed crash/pause/partition script.
    Faults,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::Batched, Workload::Faults];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Batched => "batched",
            Workload::Faults => "faults",
        }
    }

    /// The seed recorded as this workload's default.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Steady => 8,
            Workload::Batched => 11,
            Workload::Faults => 8,
        }
    }

    /// The held-out seed, never used while tuning the benchmark.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::Steady => 1_009,
            Workload::Batched => 1_013,
            Workload::Faults => 1_019,
        }
    }

    /// Independent clusters in one instance. Pooling several seeds per
    /// run keeps a run's simulated metrics from hanging on one schedule.
    pub fn clusters(self) -> u64 {
        match self {
            Workload::Steady => 6,
            Workload::Batched => 6,
            Workload::Faults => 24,
        }
    }

    /// The clusters one run measures: full size, with cluster `i` seeded
    /// `seed × 64 + i`.
    pub fn instance(self, seed: u64) -> Vec<Spec> {
        self.instance_sized(seed, 1)
    }

    /// An instance with the per-client op budget divided by `shrink`
    /// (the self-tests' small-size smoke runs use this).
    pub fn instance_sized(self, seed: u64, shrink: u64) -> Vec<Spec> {
        (0..self.clusters())
            .map(|i| self.spec(seed.wrapping_mul(64).wrapping_add(i), shrink))
            .collect()
    }

    fn spec(self, seed: u64, shrink: u64) -> Spec {
        match self {
            Workload::Steady => Spec {
                cluster: ClusterConfig::new(7, 2).expect("n=7 f=2 is a valid cluster"),
                rcfg: ReplicaConfig::default(),
                clients: 8,
                ops_per_client: 125 / shrink,
                retry: SimDuration::millis(20),
                tx_cost: SimDuration::ZERO,
                open_loop: None,
                faults: FaultPlan::new(),
                load_end: SimTime::ZERO,
                stall: SimDuration::secs(5),
                seed,
            },
            Workload::Batched => {
                let mut rcfg = ReplicaConfig {
                    batch: BatchPolicy::new(16, SimDuration::micros(800), 4),
                    ..Default::default()
                };
                // The relaxed detector timeouts of E-THRU's gated cell: a
                // saturated serializing NIC stretches latencies past the
                // LAN-tuned defaults.
                rcfg.fd.initial_timeout = SimDuration::millis(20);
                rcfg.heartbeat_period = SimDuration::millis(20);
                rcfg.view_change_timeout = SimDuration::millis(50);
                Spec {
                    cluster: ClusterConfig::new(5, 1).expect("n=5 f=1 is a valid cluster"),
                    rcfg,
                    clients: 32,
                    ops_per_client: 40 / shrink,
                    retry: SimDuration::millis(100),
                    tx_cost: SimDuration::micros(60),
                    open_loop: None,
                    faults: FaultPlan::new(),
                    load_end: SimTime::ZERO,
                    stall: SimDuration::secs(5),
                    seed,
                }
            }
            Workload::Faults => {
                let ops = 100 / shrink;
                let p = ProcessId;
                let at = |ms: u64| SimTime::from_micros(ms * 1_000);
                Spec {
                    cluster: ClusterConfig::new(7, 2).expect("n=7 f=2 is a valid cluster"),
                    rcfg: ReplicaConfig::default(),
                    clients: 8,
                    ops_per_client: ops,
                    retry: SimDuration::millis(20),
                    tx_cost: SimDuration::ZERO,
                    open_loop: Some(SimDuration::millis(1)),
                    // Crash and restart the initial leader, pause and resume
                    // another replica, isolate a third, then heal.
                    faults: FaultPlan::new()
                        .at(at(10), FaultEvent::Crash(p(1)))
                        .at(at(25), FaultEvent::Restart(p(1)))
                        .at(at(35), FaultEvent::Pause(p(2)))
                        .at(at(50), FaultEvent::Resume(p(2)))
                        .at(at(60), FaultEvent::Partition(vec![p(3)]))
                        .at(at(80), FaultEvent::HealAll),
                    load_end: at(ops.saturating_sub(1)),
                    stall: SimDuration::millis(50),
                    seed,
                }
            }
        }
    }
}

/// Everything that defines one simulation run.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Replica count and fault threshold.
    pub cluster: ClusterConfig,
    /// Replica configuration.
    pub rcfg: ReplicaConfig,
    /// Client actors.
    pub clients: u32,
    /// Operations each client issues.
    pub ops_per_client: u64,
    /// Closed-loop client retry interval.
    pub retry: SimDuration,
    /// Per-message egress serialization cost.
    pub tx_cost: SimDuration,
    /// Open-loop inter-arrival time; `None` for closed-loop clients.
    pub open_loop: Option<SimDuration>,
    /// Scripted faults.
    pub faults: FaultPlan,
    /// Simulated instant the last op is due (zero for closed loops, whose
    /// ops fall due as earlier ones commit).
    pub load_end: SimTime,
    /// Once every op is due, the run stops after this long without a
    /// commit; the ops still missing then count as failed.
    pub stall: SimDuration,
    /// Simulation seed.
    pub seed: u64,
}

/// How often (in steps) the drive loop recounts committed ops: recounting
/// walks every client, so doing it after each step would add to the host
/// time being measured. Any value works as long as every run of a seed
/// uses the same one; the overshoot is deterministic.
pub const STOP_CHECK_STEPS: u64 = 16;

impl Spec {
    /// Operations the clients attempt.
    pub fn attempted(&self) -> u64 {
        u64::from(self.clients) * self.ops_per_client
    }

    /// Builds the untraced simulation through the public builder, with
    /// the fault plan scheduled.
    pub fn build(&self) -> Simulation<XpMsg, XpActor> {
        let mut b = ClusterBuilder::new(self.cluster, self.seed)
            .replica_config(self.rcfg.clone())
            .clients(self.clients, self.ops_per_client)
            .retry(self.retry)
            .tx_cost(self.tx_cost);
        if let Some(ia) = self.open_loop {
            b = b.open_loop(ia);
        }
        let mut sim = b.build();
        sim.schedule_plan(self.faults.clone());
        sim
    }
}

/// A simulation [`drive`] can step and stop.
pub trait Driven {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Ops committed so far.
    fn committed(&self) -> u64;
    /// One simulator step; `false` once nothing is left to do.
    fn step(&mut self) -> bool;
}

impl Driven for Simulation<XpMsg, XpActor> {
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }

    fn committed(&self) -> u64 {
        total_committed(self)
    }

    fn step(&mut self) -> bool {
        Simulation::step(self)
    }
}

/// Steps between the reference-kernel samples of a paced [`drive`].
pub const PACE_STEPS: u64 = 8_192;

/// Where [`drive`] stopped, and the host time it took.
#[derive(Clone, Copy, Debug)]
pub struct Drove {
    /// Steps taken.
    pub steps: u64,
    /// Steps taken when the drive loop last saw the commit count rise: the
    /// end of the service window. Closed-loop runs stop there; open-loop
    /// runs with failed ops go on through the stall window.
    pub service_steps: u64,
    /// Host ns from the first step to the end of the service window.
    pub service_ns: u64,
    /// Host ns of the whole loop.
    pub drive_ns: u64,
    /// Reference-kernel samples taken, and their host ns, which the two
    /// times above leave out.
    pub pace: (u64, u64),
}

/// Steps `sim` until every op has committed, or until every op is due
/// and none has committed for `spec.stall`, or after `limit` steps.
/// The untraced and traced runs share this rule, so both stop after the
/// same event, and a run limited to an earlier run's `service_steps`
/// does that run's service window again and nothing after it.
///
/// With `paced`, takes a [`pace::sample_ns`] every [`PACE_STEPS`] steps,
/// so the samples follow the machine's pace through the run.
pub fn drive(sim: &mut impl Driven, spec: &Spec, limit: Option<u64>, paced: bool) -> Drove {
    let expected = spec.attempted();
    let mut steps = 0u64;
    let (mut seen, mut last_commit) = (0, SimTime::ZERO);
    let mut pace = (0, 0);
    let start = Instant::now();
    let mut service = (0, start, 0);
    loop {
        if steps.is_multiple_of(STOP_CHECK_STEPS) {
            if paced && steps.is_multiple_of(PACE_STEPS) {
                pace = (pace.0 + 1, pace.1 + pace::sample_ns());
            }
            let committed = sim.committed();
            if committed > seen {
                (seen, last_commit) = (committed, sim.now());
                service = (steps, Instant::now(), pace.1);
            }
            if committed >= expected {
                break;
            }
            let now = sim.now();
            if now >= spec.load_end && now > last_commit + spec.stall {
                break;
            }
        }
        if limit.is_some_and(|l| steps >= l) || !sim.step() {
            break;
        }
        steps += 1;
    }
    let end = Instant::now();
    Drove {
        steps,
        service_steps: service.0,
        service_ns: (service.1 - start).as_nanos() as u64 - service.2,
        drive_ns: (end - start).as_nanos() as u64 - pace.1,
        pace,
    }
}
