//! The metric catalogue: every name the benchmark reports, with its unit,
//! its direction and (end-to-end only) its regression bound.
//! `BENCHMARK.json` is generated from this list (`--benchmark-json`).

use crate::traced::{MSG_KINDS, TIMER_CLASSES};
use crate::workload::Workload;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, from the untraced run.
///
/// Each bound is about three times the spread between runs on different
/// seeds, on the workload where that metric spreads most: `faults` for
/// everything its mix of cluster outcomes moves, shared-machine noise for
/// host time (which gets the cap, 0.25).
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    vec![
        e2e("host_ns_per_commit", "ns", Lower, 0.25),
        e2e("setup_s", "s", Lower, 0.25),
        e2e("peak_rss_mib", "MiB", Lower, 0.2),
        e2e("sim_commits_per_s", "1/s", Higher, 0.1),
        e2e("sim_commit_p50_us", "us", Lower, 0.1),
        e2e("sim_commit_p99_us", "us", Lower, 0.1),
        e2e("sim_max_commit_gap_us", "us", Lower, 0.25),
        e2e("sim_msgs_per_commit", "count", Lower, 0.25),
        e2e("ops_committed_ratio", "ratio", Higher, 0.2),
    ]
}

/// Per-layer metrics, from the traced run, the counters and calibration.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut m = vec![
        layer("simnet.events_per_commit", "count", Lower),
        layer("simnet.timers_per_commit", "count", Lower),
        layer("simnet.self_ns_per_event", "ns", Lower),
        layer("simnet.stale_timers_per_commit", "count", Lower),
        layer("simnet.dropped_per_commit", "count", Lower),
    ];
    for k in MSG_KINDS {
        m.push(layer(format!("simnet.sent.{k}_per_commit"), "count", Lower));
    }
    for k in MSG_KINDS.iter().filter(|k| **k != "reply") {
        m.push(layer(format!("xpaxos.{k}.ns_per_call"), "ns", Lower));
        m.push(layer(
            format!("xpaxos.{k}.calls_per_commit"),
            "count",
            Lower,
        ));
    }
    for c in TIMER_CLASSES {
        m.push(layer(format!("xpaxos.timer.{c}.ns_per_call"), "ns", Lower));
        m.push(layer(
            format!("xpaxos.timer.{c}.calls_per_commit"),
            "count",
            Lower,
        ));
    }
    m.extend([
        layer("xpaxos.client.ns_per_commit", "ns", Lower),
        layer("xpaxos.reqs_per_slot", "count", Higher),
        layer("xpaxos.client_retries_per_commit", "count", Lower),
        layer("xpaxos.request_useful_ratio", "ratio", Higher),
        layer("xpaxos.view_changes", "count", Lower),
        layer("xpaxos.exec_watermark_lag", "count", Lower),
        layer("detector.expectations_per_commit", "count", Lower),
        layer("detector.expired_per_commit", "count", Lower),
        layer("detector.suspicions", "count", Lower),
        layer("core.quorums_issued", "count", Lower),
        layer("core.epochs_entered", "count", Lower),
        layer("core.updates_per_commit", "count", Lower),
        layer("crypto.sign_ns.small", "ns", Lower),
        layer("crypto.verify_ns.small", "ns", Lower),
        layer("crypto.sign_ns.batch16", "ns", Lower),
        layer("crypto.verify_ns.batch16", "ns", Lower),
        layer("crypto.sha256_mbps.32B", "MB/s", Higher),
        layer("crypto.sha256_mbps.4KiB", "MB/s", Higher),
        layer("detector.poll_ns", "ns", Lower),
        layer("graph.first_is_ns.n7f2", "ns", Lower),
        layer("graph.first_is_ns.n25f8", "ns", Lower),
        layer("obs.emit_disabled_ns", "ns", Lower),
        layer("mmr.proof_verify_ns", "ns", Lower),
        layer("traced.unattributed_share", "ratio", Lower),
        layer("traced.overhead_pct", "%", Lower),
    ]);
    m
}

/// Why each workload is in the benchmark (one line each).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::Steady => "n=7 default config, no faults: the normal case, dominated by simnet dispatch, FD poll timers and per-message signatures",
        Workload::Batched => "n=5 b16d4 batching with 60us tx_cost: few large signed batches, so gains tuned to small messages or the timer storm show here",
        Workload::Faults => "n=7 open loop under crash, pause and partition: the only workload running view change, quorum selection, FD suspicions and catch-up",
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The `BENCHMARK.json` this benchmark satisfies.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    let ws: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(why(*w))
            )
        })
        .collect();
    s.push_str(&ws.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let es: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&es.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let ls: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    s.push_str(&ls.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
