//! Calibration microbenches: per-call costs of the layers that run inside
//! handlers, where the traced run cannot time them from outside.
//!
//! Every bench builds its inputs before the timed loop, times batches of
//! calls sized to about a millisecond each, and reports the median batch's
//! per-call cost together with the number of calls timed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use qsel_detector::{FailureDetector, FdConfig};
use qsel_graph::SuspectGraph;
use qsel_mmr::Mmr;
use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::{SimDuration, SimTime};
use qsel_types::crypto::{sha256, Keychain, Signer, Verifier};
use qsel_types::encode::{encode_to_vec, Encode};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::messages::{Batch, CommitPayload, PreparePayload, Request};

/// One calibrated figure.
pub struct Calibration {
    /// Metric name.
    pub name: &'static str,
    /// Metric unit.
    pub unit: &'static str,
    /// Median over timed batches.
    pub value: f64,
    /// Calls timed.
    pub samples: u64,
    /// What was measured, for the human-readable report.
    pub what: String,
}

/// Wall time each bench spends in its timed batches.
const BUDGET: Duration = Duration::from_millis(150);

/// Median ns per call of `f`, and the calls timed.
fn ns_per_call(mut f: impl FnMut()) -> (f64, u64) {
    // Size a batch to about a millisecond (this also warms caches).
    let mut per_batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || per_batch >= 1 << 24 {
            break;
        }
        per_batch *= 2;
    }
    let mut per_call = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || per_call.len() < 5 {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    per_call.sort_by(f64::total_cmp);
    (
        per_call[per_call.len() / 2],
        per_batch * per_call.len() as u64,
    )
}

/// Timed `Signer::sign` and `Verifier::verify` calls over `payload`.
fn sign_verify<T: Encode + Clone>(
    signer: &Signer,
    verifier: &Verifier,
    payload: &T,
) -> ((f64, u64), (f64, u64)) {
    let signed = signer.sign(payload.clone());
    let sign = ns_per_call(|| {
        black_box(signer.sign(ByRef(black_box(payload))));
    });
    let verify = ns_per_call(|| {
        verifier
            .verify(black_box(&signed))
            .expect("a fresh signature verifies");
    });
    (sign, verify)
}

/// Encodes a borrowed payload, so a bench can sign one value repeatedly
/// without cloning it each time.
struct ByRef<'a, T>(&'a T);

impl<T: Encode> Encode for ByRef<'_, T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

fn requests(k: u64) -> Vec<Request> {
    (0..k)
        .map(|op| Request {
            client: ProcessId(8 + (op % 8) as u32),
            op,
            payload: op * 31 + 8,
        })
        .collect()
}

/// An accurate-epoch suspect graph: every edge touches one of `f` faulty
/// nodes (the shape Quorum Selection meets, paper §VI-C).
fn accurate_graph(n: u32, f: u32) -> SuspectGraph {
    let mut g = SuspectGraph::new(n);
    for b in 1..=f {
        for k in 0..3u32 {
            let peer = f + 1 + ((b * 7 + k * 11) % (n - f));
            if peer != b {
                g.add_edge(ProcessId(b), ProcessId(peer));
            }
        }
    }
    g
}

/// Runs every calibration.
pub fn run() -> Vec<Calibration> {
    let mut out = Vec::new();
    let mut push = |name, unit, (value, samples): (f64, u64), what: String| {
        out.push(Calibration {
            name,
            unit,
            value,
            samples,
            what,
        });
    };

    // Crypto: the commit a quorum member signs per slot in `steady`, and a
    // 16-request prepare as the leader signs it in `batched`.
    let cfg = ClusterConfig::new(7, 2).expect("n=7 f=2 is a valid cluster");
    let chain = Keychain::new(&cfg, 1);
    let (leader, member, verifier) = (
        chain.signer(ProcessId(1)),
        chain.signer(ProcessId(2)),
        chain.verifier(),
    );
    let single = Batch::single(requests(1).remove(0));
    let commit = CommitPayload {
        view: 0,
        slot: 0,
        digest: single.digest(),
        prepare: leader.sign(PreparePayload {
            view: 0,
            slot: 0,
            batch: single,
        }),
    };
    let prepare16 = PreparePayload {
        view: 0,
        slot: 0,
        batch: Batch::new(requests(16)),
    };
    let small_len = encode_to_vec(&commit).len();
    let (sign, verify) = sign_verify(&member, &verifier, &commit);
    push(
        "crypto.sign_ns.small",
        "ns",
        sign,
        format!("Signer::sign of a {small_len} B commit"),
    );
    push(
        "crypto.verify_ns.small",
        "ns",
        verify,
        format!("Verifier::verify of a {small_len} B commit"),
    );
    let batch_len = encode_to_vec(&prepare16).len();
    let (sign, verify) = sign_verify(&leader, &verifier, &prepare16);
    push(
        "crypto.sign_ns.batch16",
        "ns",
        sign,
        format!("Signer::sign of a {batch_len} B 16-request prepare"),
    );
    push(
        "crypto.verify_ns.batch16",
        "ns",
        verify,
        format!("Verifier::verify of a {batch_len} B 16-request prepare"),
    );
    for (name, len) in [
        ("crypto.sha256_mbps.32B", 32usize),
        ("crypto.sha256_mbps.4KiB", 4096),
    ] {
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let (ns, samples) = ns_per_call(|| {
            black_box(sha256(black_box(&data)));
        });
        push(
            name,
            "MB/s",
            (len as f64 * 1e3 / ns, samples),
            format!("sha256 of {len} B"),
        );
    }

    // Detector: the poll a `TIMER_FD_POLL` fire runs while commits are
    // outstanding and nothing has expired yet.
    let mut fd: FailureDetector<u64> = FailureDetector::new(ProcessId(1), 7, FdConfig::default());
    for p in 2..=7u32 {
        fd.expect(SimTime::ZERO, ProcessId(p), "commit", move |m| {
            *m == u64::from(p)
        });
    }
    let before_deadline = SimTime::ZERO + SimDuration::micros(100);
    push(
        "detector.poll_ns",
        "ns",
        ns_per_call(|| {
            black_box(fd.poll(black_box(before_deadline)));
        }),
        "FailureDetector::poll with 6 pending, unexpired expectations".into(),
    );

    // Graph: the selection step's lexicographically first independent set.
    for (name, n, f) in [
        ("graph.first_is_ns.n7f2", 7u32, 2u32),
        ("graph.first_is_ns.n25f8", 25, 8),
    ] {
        let g = accurate_graph(n, f);
        push(
            name,
            "ns",
            ns_per_call(|| {
                black_box(black_box(&g).first_independent_set(n - f))
                    .expect("accurate graph has an independent set");
            }),
            format!(
                "SuspectGraph::first_independent_set({}) at n={n} f={f}",
                n - f
            ),
        );
    }

    // Observability: an emit into the disabled sink every run uses.
    let sink = TraceSink::disabled();
    push(
        "obs.emit_disabled_ns",
        "ns",
        ns_per_call(|| {
            black_box(&sink).emit(|| TraceEvent::TimerFired { at: 1 });
        }),
        "TraceSink::emit into a disabled sink".into(),
    );

    // MMR: verifying one inclusion proof against a 1024-leaf root.
    let mut mmr = Mmr::new();
    for slot in 0..1024u64 {
        mmr.push(qsel_mmr::leaf_hash(slot, &sha256(&slot.to_le_bytes())));
    }
    let root = mmr.root().expect("non-empty MMR has a root");
    let leaf = qsel_mmr::leaf_hash(517, &sha256(&517u64.to_le_bytes()));
    let proof = mmr.proof_at(517, 1024).expect("leaf 517 is in range");
    push(
        "mmr.proof_verify_ns",
        "ns",
        ns_per_call(|| {
            assert!(qsel_mmr::verify(
                black_box(&leaf),
                black_box(&proof),
                black_box(&root)
            ));
        }),
        "qsel_mmr::verify of leaf 517 against a 1024-leaf root".into(),
    );
    out
}
