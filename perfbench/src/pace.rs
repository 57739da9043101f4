//! The machine's pace: a fixed reference kernel, sampled among the
//! program's steps, that host times are scaled by.
//!
//! On a shared host the same work runs up to twice as slow for minutes at
//! a time, as other tenants come and go, and neither the fastest nor the
//! median of a run's repeats removes a slow stretch that lasts the whole
//! run. The reference kernel slows down with the program, so the
//! program's time divided by the kernel's time over the same stretch
//! hangs on the code and much less on the moment. The kernel shares no
//! code with the program, so a change to the program leaves it alone.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Rounds of [`kernel`] one sample runs: 0.2 to 0.3 ms.
const ROUNDS: u64 = 500;

/// Host ns one sample takes on the reference machine: a round figure near
/// the fastest samples seen on a 2-vCPU KVM guest. Scaled host times read
/// as the ns they would take there.
pub const NOMINAL_NS: f64 = 200_000.0;

/// How much faster the program slows than the kernel on a busy host. Over
/// 30 runs of each workload on a 2-vCPU KVM guest, the log of a run's
/// host time rose 1.15 to 1.5 times as fast as the log of its mean
/// sample (1.25 on `faults`, 1.48 on `steady`, 1.15 on `batched`).
const EXPONENT: f64 = 1.4;

/// Scales `host`, a time taken while samples of this kernel took
/// `pace_ns` on average, to the reference machine.
pub fn scale(host: f64, pace_ns: f64) -> f64 {
    host * (NOMINAL_NS / pace_ns).powf(EXPONENT)
}

/// The reference work, built from std only and shaped like the
/// simulator's: an event heap, an ordered map, heap-allocated messages
/// and SipHash over their bytes.
fn kernel(rounds: u64) -> u64 {
    let mut events = BinaryHeap::new();
    let mut inbox: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        events.push(Reverse((x % 100_000, i)));
        let msg = vec![x as u8; 64 + (x % 192) as usize];
        let mut h = DefaultHasher::new();
        msg.hash(&mut h);
        acc ^= h.finish();
        inbox.insert(x % 2_048, msg);
        if events.len() > 1_024 {
            if let Some(Reverse((t, _))) = events.pop() {
                acc = acc.wrapping_add(t);
                inbox.remove(&(t % 2_048));
            }
        }
    }
    acc ^ inbox.len() as u64
}

/// Host ns of one reference sample.
pub fn sample_ns() -> u64 {
    let t = Instant::now();
    black_box(kernel(black_box(ROUNDS)));
    t.elapsed().as_nanos() as u64
}
