//! Property tests for request batching and pipelined commit (tentpole
//! invariants):
//!
//! * every submitted request executes **exactly once** at every correct
//!   replica that has executed it at all;
//! * all correct replicas execute the **same sequence** of requests —
//!   one replica's execution order is a prefix of any longer replica's;
//! * the passthrough default policy (`BatchPolicy::default()`, size 1,
//!   depth 1) produces **byte-identical** traces run after run — pinned
//!   against committed goldens (`tests/golden/`, regenerable via
//!   `examples/golden_gen.rs` on deliberate trace-vocabulary changes).

use std::collections::HashSet;

use proptest::prelude::*;
use qsel_obs::TraceSink;
use qsel_simnet::{SimDuration, SimTime};
use qsel_types::ClusterConfig;
use qsel_simnet::Simulation;
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder, XpActor};
use qsel_xpaxos::messages::XpMsg;
use qsel_xpaxos::policy::BatchPolicy;
use qsel_xpaxos::replica::ReplicaConfig;

const CLIENTS: u32 = 3;
const OPS_PER_CLIENT: u64 = 6;
const HORIZON_MICROS: u64 = 10_000_000;

/// Runs a fault-free 5-replica cluster under `policy` until every client
/// op commits (asserting it does).
fn run_cluster(seed: u64, policy: BatchPolicy) -> Simulation<XpMsg, XpActor> {
    let cfg = ClusterConfig::new(5, 1).unwrap();
    let mut rcfg = ReplicaConfig::default();
    rcfg.batch = policy;
    let mut sim = ClusterBuilder::new(cfg, seed)
        .replica_config(rcfg)
        .clients(CLIENTS, OPS_PER_CLIENT)
        .build();
    let expected = u64::from(CLIENTS) * OPS_PER_CLIENT;
    let mut now = 0u64;
    while total_committed(&sim) < expected && now < HORIZON_MICROS {
        now += 1_000;
        sim.run_until(SimTime::from_micros(now));
    }
    assert_eq!(
        total_committed(&sim),
        expected,
        "all client ops must commit under policy {policy:?} (seed {seed})"
    );
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batch sizes 1..=32 × pipeline depths 1..=4 × random seeds: every
    /// submitted request executes exactly once, in an identical order at
    /// all correct replicas.
    #[test]
    fn every_request_executes_exactly_once_in_agreed_order(
        seed in 0u64..10_000,
        batch in 1usize..=32,
        depth in 1usize..=4,
        delay_us in 50u64..=400,
    ) {
        let policy = BatchPolicy::new(batch, SimDuration::micros(delay_us), depth);
        let sim = run_cluster(seed, policy);

        // Same per-slot request sequences everywhere.
        assert_safety(&sim);

        let expected = u64::from(CLIENTS) * OPS_PER_CLIENT;
        let mut longest: Option<Vec<(u64, u32, u64)>> = None;
        for id in sim.ids().collect::<Vec<_>>() {
            let Some(r) = sim.actor(id).replica() else { continue };
            // Exactly once: no (client, op) pair executes twice.
            let mut seen = HashSet::new();
            let order: Vec<(u64, u32, u64)> = r
                .log()
                .executed
                .iter()
                .map(|(slot, req)| (*slot, req.client.0, req.op))
                .collect();
            for (_, client, op) in &order {
                prop_assert!(
                    seen.insert((*client, *op)),
                    "request (client {client}, op {op}) executed twice at {id}"
                );
            }
            // Identical order: execution logs are prefixes of one another.
            match &longest {
                None => longest = Some(order),
                Some(reference) => {
                    let (short, long) = if order.len() <= reference.len() {
                        (&order, reference)
                    } else {
                        (reference, &order)
                    };
                    prop_assert_eq!(
                        short.as_slice(),
                        &long[..short.len()],
                        "execution orders diverge at {}",
                        id
                    );
                    if order.len() > longest.as_ref().unwrap().len() {
                        longest = Some(order);
                    }
                }
            }
        }
        // Every submitted request executed somewhere (the longest log —
        // the leader's — has all of them; laggards are prefixes).
        prop_assert_eq!(longest.unwrap().len() as u64, expected);
    }
}

/// The committed golden traces pin the default-policy (passthrough)
/// trace byte for byte: batching must be invisible unless switched on,
/// and the trace vocabulary must not drift by accident. Regenerate the
/// goldens only for a deliberate, reviewed event-vocabulary change (the
/// causal-span events of DESIGN.md §14 were one such change) or a
/// host-side change that drops events but keeps the protocol's (arming
/// one FD poll per instant removed `timer_fired` records, DESIGN.md §5).
#[test]
fn default_policy_traces_are_byte_identical_to_goldens() {
    for seed in [7u64, 21] {
        let sink = TraceSink::unbounded();
        let cfg = ClusterConfig::new(5, 1).unwrap();
        let mut sim = ClusterBuilder::new(cfg, seed)
            .clients(2, 8)
            .trace_sink(sink.clone())
            .build();
        sim.run_until(SimTime::from_micros(300_000));
        assert_eq!(total_committed(&sim), 16, "golden workload must finish");
        let got = sink.export_jsonl();
        let golden_path = format!(
            "{}/tests/golden/trace_default_seed{seed}.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&golden_path).expect("golden trace readable");
        assert_eq!(
            got, want,
            "default-policy trace for seed {seed} diverged from the committed golden \
             ({golden_path}); either the passthrough identity broke or the trace \
             vocabulary changed without regenerating the goldens"
        );
    }
}

/// Non-default policies must not leak into default behaviour: a gated
/// batch-1/depth-1 policy (same shape as default, but distinguishable)
/// commits everything too, exercising the pipeline-depth gate itself.
#[test]
fn gated_unbatched_policy_still_commits_everything() {
    let policy = BatchPolicy::new(1, SimDuration::micros(1), 1);
    assert!(!policy.is_passthrough());
    let sim = run_cluster(3, policy);
    assert_safety(&sim);
}
