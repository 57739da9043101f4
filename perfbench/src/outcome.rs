//! The deterministic result of one run: simulated service metrics and the
//! work counters read from the crates' public accessors afterwards.
//!
//! Everything here is a pure function of the workload and seed, so two
//! runs of one seed (untraced and traced, or two repeats) must produce
//! equal `Outcome`s; the benchmark fails the run otherwise.

use std::collections::BTreeMap;

use qsel_simnet::{NetStats, Simulation};
use qsel_xpaxos::harness::{assert_safety, XpActor};
use qsel_xpaxos::messages::XpMsg;
use qsel_xpaxos::Replica;

use crate::workload::Spec;

/// Deterministic summary of a finished run.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The cluster's simulation seed.
    pub seed: u64,
    /// Ops the clients attempted.
    pub attempted: u64,
    /// Ops committed (f+1 matching replies) before the run stopped.
    pub committed: u64,
    /// Steps the simulator took (deliveries, timers, drops, faults).
    pub steps: u64,
    /// The run's deadline in simulated µs: the last commit when every op
    /// committed, else the instant the missing ops were declared failed
    /// (the stall window after the last commit or the last due op).
    pub end_us: u64,
    /// Simulated instant of the event the drive loop stopped after, in µs.
    pub stop_us: u64,
    /// Commit latency in simulated µs, per attempted op, ascending; failed
    /// ops rank last and read as `end_us`.
    pub latencies_us: Vec<u64>,
    /// Simulated commit instants in µs, ascending.
    pub commit_times_us: Vec<u64>,
    /// Network counters.
    pub net: NetStats,
    /// Named work counters of the xpaxos, detector and core layers.
    pub counters: BTreeMap<&'static str, u64>,
}

/// Reads the outcome of a run after the drive loop stopped it, `sim_steps`
/// steps in, at the simulated instant `stop_us`. `replicas` and `clients`
/// view the actors whatever wrapper they sit in, so the untraced and
/// traced runs share this code.
pub fn collect(
    spec: &Spec,
    sim_steps: u64,
    stop_us: u64,
    net: &NetStats,
    replicas: &[&Replica],
    clients: &[ClientView<'_>],
) -> Outcome {
    let mut latencies_us = Vec::new();
    let mut commit_times_us = Vec::new();
    let mut retries = 0;
    for c in clients {
        match c {
            ClientView::Closed(c) => {
                // A closed-loop client issues op k+1 at the instant op k
                // commits, and op 0 at start (time 0), so its commit
                // instants are the running sums of its latencies.
                let mut at = 0;
                for (_, _, lat) in &c.completed {
                    at += lat.as_micros();
                    latencies_us.push(lat.as_micros());
                    commit_times_us.push(at);
                }
                retries += c.retries;
            }
            ClientView::Open(c, interarrival) => {
                // Op k of an open-loop client is due at k × interarrival,
                // and its latency is measured from then.
                for (op, _, lat) in &c.completed {
                    latencies_us.push(lat.as_micros());
                    commit_times_us.push(op * interarrival + lat.as_micros());
                }
            }
        }
    }
    let attempted = spec.attempted();
    let committed = latencies_us.len() as u64;
    commit_times_us.sort_unstable();
    let last_commit = commit_times_us.last().copied().unwrap_or(0);
    let end_us = if committed == attempted {
        last_commit
    } else {
        spec.load_end
            .as_micros()
            .max(last_commit + spec.stall.as_micros())
    };
    // An op still missing when the run stopped ranks after every committed
    // one and reads as the run's deadline.
    latencies_us.sort_unstable();
    latencies_us.resize(attempted as usize, end_us);

    let mut counters = BTreeMap::new();
    let mut add = |name: &'static str, v: u64| *counters.entry(name).or_insert(0) += v;
    let mut top_decided = 0;
    let mut top_watermark = 0;
    let mut max_view_changes = 0;
    let mut fingerprint = 0u64;
    for r in replicas {
        let st = r.stats();
        max_view_changes = max_view_changes.max(st.view_changes);
        add("xpaxos.decided_slots", st.decided);
        add("xpaxos.executed_reqs", st.executed);
        add("xpaxos.recoveries", st.recoveries);
        let fd = r.fd_stats();
        add("detector.expectations", fd.expectations_issued);
        add("detector.expired", fd.expectations_expired);
        add("detector.suspicions", fd.suspicions_raised);
        if let Some(qs) = r.quorum_selection() {
            let s = qs.stats();
            add("core.quorums_issued", s.quorums_issued);
            add("core.epochs_entered", s.epochs_entered);
            add("core.updates", s.updates_sent + s.updates_forwarded);
        }
        let log = r.log();
        // Identity of what this replica executed, so the traced/untraced
        // comparison covers the logs too.
        fingerprint = fingerprint
            .wrapping_mul(1_099_511_628_211)
            .wrapping_add(log.state ^ log.watermark());
        top_watermark = top_watermark.max(log.watermark());
        let mut s = log.max_slot();
        while let Some(slot) = s {
            if log.slot(slot).is_some_and(|e| e.decided) {
                top_decided = top_decided.max(slot + 1);
                break;
            }
            s = slot.checked_sub(1);
        }
    }
    add("xpaxos.view_changes", max_view_changes);
    add(
        "xpaxos.exec_watermark_lag",
        top_decided.saturating_sub(top_watermark),
    );
    add("xpaxos.client_retries", retries);
    add("xpaxos.log_fingerprint", fingerprint);

    Outcome {
        seed: spec.seed,
        attempted,
        committed,
        steps: sim_steps,
        end_us,
        stop_us,
        latencies_us,
        commit_times_us,
        net: net.clone(),
        counters,
    }
}

/// A client actor as [`collect`] reads it.
pub enum ClientView<'a> {
    /// A closed-loop client.
    Closed(&'a qsel_xpaxos::client::Client),
    /// An open-loop client and its inter-arrival time in µs.
    Open(&'a qsel_xpaxos::harness::OpenLoopClient, u64),
}

/// Views the actors of an untraced cluster.
pub fn views<'a, A: qsel_simnet::Actor<XpMsg>>(
    sim: &'a Simulation<XpMsg, A>,
    spec: &Spec,
    actor: impl Fn(&'a A) -> &'a XpActor,
) -> (Vec<&'a Replica>, Vec<ClientView<'a>>) {
    let mut replicas = Vec::new();
    let mut clients = Vec::new();
    let ia = spec.open_loop.map_or(0, |d| d.as_micros());
    for id in sim.ids() {
        let a = actor(sim.actor(id));
        if let Some(r) = a.replica() {
            replicas.push(r);
        } else if let Some(c) = a.client() {
            clients.push(ClientView::Closed(c));
        } else if let Some(c) = a.open_client() {
            clients.push(ClientView::Open(c, ia));
        }
    }
    (replicas, clients)
}

/// Checks an untraced run: agreement over every replica log
/// (`harness::assert_safety`), and on closed-loop workloads that every op
/// committed. Returns the violation.
pub fn check(sim: &Simulation<XpMsg, XpActor>, spec: &Spec, out: &Outcome) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| assert_safety(sim))).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "agreement violated".into())
    })?;
    if spec.open_loop.is_none() && out.committed != out.attempted {
        return Err(format!(
            "closed-loop workload committed {} of {} ops",
            out.committed, out.attempted
        ));
    }
    if out.committed == 0 {
        return Err("no op committed".into());
    }
    Ok(())
}

impl Outcome {
    /// Simulated seconds the run covered.
    pub fn sim_seconds(&self) -> f64 {
        self.end_us as f64 / 1e6
    }

    /// Longest simulated interval with no commit anywhere, from time 0 to
    /// the event the run stopped after.
    pub fn max_commit_gap_us(&self) -> u64 {
        let mut prev = 0;
        let mut gap = 0;
        for &t in self
            .commit_times_us
            .iter()
            .chain(std::iter::once(&self.stop_us))
        {
            gap = gap.max(t.saturating_sub(prev));
            prev = prev.max(t);
        }
        gap
    }

    /// Whether `self`, a run stopped at the end of `full`'s service
    /// window, committed the same ops at the same instants as `full`. A
    /// run that took every step of `full` must equal it outright.
    pub fn serves_like(&self, full: &Outcome) -> bool {
        if self.steps == full.steps {
            return self == full;
        }
        let c = full.committed as usize;
        self.committed == full.committed
            && self.commit_times_us == full.commit_times_us
            && self.latencies_us[..c] == full.latencies_us[..c]
    }

    /// A counter by name (0 when the layer never ran).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Nearest-rank percentile of `ranked`, `p` in (0, 100].
pub fn percentile(ranked: &[u64], p: f64) -> u64 {
    let n = ranked.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    ranked[rank.clamp(1, n) - 1]
}
