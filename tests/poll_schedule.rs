//! Failure-detector poll scheduling in the XPaxos host: the detector is
//! polled once per deadline instant, not after every event, and a
//! crashed peer is still suspected 1 µs after its expectation's deadline
//! — also when the observing replica was paused (its poll fires late, at
//! resume) or crashed and restarted (its pending polls died with the old
//! incarnation).

use qsel_simnet::{SimDuration, SimTime, Simulation};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder, XpActor};
use qsel_xpaxos::messages::XpMsg;

const FOLLOWER: ProcessId = ProcessId(3);
const OBSERVER: ProcessId = ProcessId(2);

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(ms)
}

/// A fault-free-until-crash n=4 cluster with no client load: only the
/// heartbeat expectations of the default quorum {1, 2, 3} are in play.
/// The follower crashes at 7 ms, after its 6 ms heartbeat and before its
/// 9 ms one.
fn cluster_with_crashed_follower() -> Simulation<XpMsg, XpActor> {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let mut sim = ClusterBuilder::new(cfg, 11).clients(0, 0).build();
    sim.run_until(at_ms(7));
    sim.crash(FOLLOWER);
    sim
}

/// The first instant at or after `from` at which `observer`'s detector
/// let an expectation on `peer` expire.
fn first_expiry(
    sim: &Simulation<XpMsg, XpActor>,
    observer: ProcessId,
    peer: ProcessId,
    from: SimTime,
) -> Option<SimTime> {
    let r = sim.actor(observer).replica().unwrap();
    r.fd_stats()
        .expiry_log
        .iter()
        .find(|(t, p, _)| *p == peer && *t >= from)
        .map(|(t, _, _)| *t)
}

/// The 9 ms heartbeat expectation on the crashed follower has a 2 ms
/// timeout; the single poll armed for it fires 1 µs after the deadline.
#[test]
fn crashed_follower_is_suspected_at_its_pinned_instant() {
    let mut sim = cluster_with_crashed_follower();
    sim.run_until(at_ms(20));
    let pinned = Some(SimTime::from_micros(11_001));
    for observer in [ProcessId(1), OBSERVER] {
        assert_eq!(
            first_expiry(&sim, observer, FOLLOWER, SimTime::ZERO),
            pinned,
            "at {observer}"
        );
    }
}

/// The observer is paused across the deadline: its poll timer is held by
/// the simulator and fires at the resume instant, which is when the
/// suspicion is raised.
#[test]
fn paused_observer_suspects_at_resume_instant() {
    let mut sim = cluster_with_crashed_follower();
    sim.run_until(at_ms(10));
    sim.pause(OBSERVER);
    sim.run_until(at_ms(14));
    sim.resume(OBSERVER);
    sim.run_until(at_ms(30));
    assert_eq!(
        first_expiry(&sim, OBSERVER, FOLLOWER, SimTime::ZERO),
        Some(at_ms(14))
    );
}

/// The observer crashes and restarts at its own 9 ms heartbeat instant,
/// so its new incarnation arms a poll at the very instant whose timer
/// died with the old one. That poll must still be armed and fire.
#[test]
fn restarted_observer_suspects_at_pinned_instant() {
    let mut sim = cluster_with_crashed_follower();
    sim.run_until(at_ms(9));
    sim.crash(OBSERVER);
    sim.restart(OBSERVER);
    sim.run_until(at_ms(30));
    assert_eq!(
        first_expiry(&sim, OBSERVER, FOLLOWER, at_ms(9)),
        Some(SimTime::from_micros(11_001))
    );
}

/// Host work budget: a fault-free closed-loop run fires a handful of
/// timers per committed request (heartbeats, lazy replication, client
/// retries and one FD poll per deadline), not one poll per event.
#[test]
fn timers_fired_per_commit_stay_bounded() {
    let cfg = ClusterConfig::new(7, 2).unwrap();
    let (clients, ops) = (8u32, 100u64);
    let expected = u64::from(clients) * ops;
    let mut sim = ClusterBuilder::new(cfg, 8).clients(clients, ops).build();
    let mut horizon = SimTime::ZERO;
    while total_committed(&sim) < expected {
        assert!(horizon < at_ms(10_000), "workload did not complete");
        horizon += SimDuration::millis(1);
        sim.run_until(horizon);
    }
    assert_safety(&sim);
    let fired = sim.stats().timers_fired;
    assert!(
        fired <= 10 * expected,
        "{fired} timers fired for {expected} commits"
    );
}
