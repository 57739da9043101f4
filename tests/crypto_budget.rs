//! Signature work per committed request in the fault-free normal case.
//!
//! Every handle of one keychain shares a memo of the signatures already
//! produced or checked, so a tag is computed once per cluster — by its
//! signer — and each further check of the same bytes is a lookup. A
//! cluster that recomputes tags on every receipt (a COMMIT is checked by
//! each quorum member and again by each passive replica in a lazy-update
//! certificate) needs several times the budgets below.

use qsel_types::crypto::Keychain;
use qsel_types::ClusterConfig;
use qsel_xpaxos::harness::{total_committed, ClusterBuilder};

const CLIENTS: u32 = 8;
const OPS: u64 = 100;

/// Steps a default cluster of `n` replicas with 8 closed-loop clients ×
/// 100 ops until every op commits; returns tags computed per commit.
fn tags_per_commit(n: u32, f: u32, seed: u64) -> f64 {
    let cfg = ClusterConfig::new(n, f).unwrap();
    let mut chain: Option<Keychain> = None;
    let mut sim = ClusterBuilder::new(cfg, seed)
        .clients(CLIENTS, OPS)
        .build_with(|_, c| {
            chain.get_or_insert_with(|| c.clone());
            None
        });
    let chain = chain.unwrap();
    let total = u64::from(CLIENTS) * OPS;
    sim.start();
    while total_committed(&sim) < total {
        assert!(sim.step(), "the run went idle at {} of {total} commits", total_committed(&sim));
    }
    chain.stats().tags_computed as f64 / total as f64
}

#[test]
fn n7_computes_at_most_six_tags_per_commit() {
    let tags = tags_per_commit(7, 2, 8);
    assert!(tags <= 6.0, "{tags:.2} tags per commit");
}

#[test]
fn n4_computes_at_most_four_tags_per_commit() {
    let tags = tags_per_commit(4, 1, 8);
    assert!(tags <= 4.0, "{tags:.2} tags per commit");
}
