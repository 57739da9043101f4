//! Host-cost and simulated-service benchmark of the Quorum Selection stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady --seed 8 --seconds 20 --trace 0
//! ```
//!
//! One run builds the workload's clusters from the seed, runs them once in
//! full, and then repeats their service windows (first event to last
//! commit) untraced for `--seconds` of host time, checking agreement, that
//! closed-loop workloads commit every op, and that every repeat commits
//! exactly as the full run did. Then it runs the same clusters once more traced
//! and checks that the traced run is event-for-event identical. The last
//! line of standard output is a JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`); the lines above
//! it are a readable report. `--benchmark-json` prints the
//! `BENCHMARK.json` this program satisfies. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod calib;
mod metrics;
mod outcome;
mod pace;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use outcome::Outcome;
use traced::{Handler, Ledger, MSG_KINDS, TIMER_CLASSES};
use workload::{drive, Spec, Workload};

/// `run_seconds` recorded in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

/// Cluster builds timed for `setup_s` before each untraced repeat.
const SETUP_PER_REPEAT: usize = 32;

/// Fewest untraced repeats a run takes, however long they last.
const MIN_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run only this cluster of the instance, once, and print the
    /// process's peak RSS (the `peak_rss_mib` probe child).
    rss_probe: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut rss_probe) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--benchmark-json" {
            print!("{}", metrics::benchmark_json(RUN_SECONDS));
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--rss-probe" => rss_probe = Some(num()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds: seconds.unwrap_or(RUN_SECONDS),
        trace: trace.unwrap_or(false),
        rss_probe,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Memory high-water mark of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading VmHWM: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The instance's memory high-water mark: the benchmark runs itself with
/// `--rss-probe` once per cluster, each in a fresh process, and takes the
/// largest peak RSS, so heap reuse across this process's repeats does
/// not blur it.
fn probe_rss(args: &Args, clusters: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut mib = Vec::new();
    for i in 0..clusters {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--rss-probe", &i.to_string()])
            .env(FIXED_LAYOUT_ENV, "1")
            .output()
            .map_err(|e| format!("running the RSS probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let v = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        mib.push(v.ok_or_else(|| {
            format!(
                "RSS probe of cluster {i} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })?);
    }
    Ok(mib.into_iter().fold(0.0, f64::max))
}

/// The `--rss-probe` child: one untraced run of one cluster.
fn rss_probe(args: &Args, cluster: usize) -> Result<f64, String> {
    let specs = args.workload.instance(args.seed);
    let spec = specs.get(cluster).ok_or("no such cluster")?;
    run_full(std::slice::from_ref(spec))?;
    peak_rss_mib()
}

/// What the untraced repeats measured.
struct Untraced {
    outcomes: Vec<Outcome>,
    /// Per timed repeat, the host ns of the instance's service windows.
    repeat_ns: Vec<u64>,
    /// Per timed repeat, the mean host ns of a reference-kernel sample,
    /// the samples spread through the repeat's drive loops.
    pace_ns: Vec<f64>,
    /// Host seconds of each cluster build, scaled to the reference
    /// machine by the pace around it.
    setup_s: Vec<f64>,
}

impl Untraced {
    /// Host ns per committed op, each repeat scaled to the reference
    /// machine by its pace: the median over the repeats.
    fn host_ns_per_commit(&self, committed: u64) -> f64 {
        let per_repeat = self
            .repeat_ns
            .iter()
            .zip(&self.pace_ns)
            .map(|(&ns, &pace)| pace::scale(ns as f64, pace))
            .collect();
        median(per_repeat) / committed as f64
    }
}

/// Builds `spec`'s cluster and drives it to its stop rule or, given a
/// `limit`, paced and for at most `limit` steps. Checks the run and
/// returns its outcome and where it stopped.
fn run_cluster(spec: &Spec, limit: Option<u64>) -> Result<(Outcome, workload::Drove), String> {
    let mut sim = spec.build();
    let drove = drive(&mut sim, spec, limit, limit.is_some());
    let (replicas, clients) = outcome::views(&sim, spec, |a| a);
    let out = outcome::collect(
        spec,
        drove.steps,
        sim.now().as_micros(),
        sim.stats(),
        &replicas,
        &clients,
    );
    outcome::check(&sim, spec, &out).map_err(|e| format!("seed {}: {e}", spec.seed))?;
    Ok((out, drove))
}

/// Builds and runs every cluster of the instance once, untraced, to its
/// stop rule. Returns the outcomes and each cluster's service window in
/// steps.
fn run_full(specs: &[Spec]) -> Result<(Vec<Outcome>, Vec<u64>), String> {
    let mut outcomes = Vec::new();
    let mut service = Vec::new();
    for spec in specs {
        let (out, drove) = run_cluster(spec, None)?;
        outcomes.push(out);
        service.push(drove.service_steps);
    }
    Ok((outcomes, service))
}

/// Runs every cluster of the instance through its service window only,
/// and checks that each served exactly as in `full`. Returns the host ns
/// of the windows and the mean host ns of a reference-kernel sample taken
/// among them.
fn run_timed(specs: &[Spec], full: &[Outcome], service: &[u64]) -> Result<(u64, f64), String> {
    let (mut host_ns, mut samples, mut pace_ns) = (0, 0, 0);
    for ((spec, expected), &steps) in specs.iter().zip(full).zip(service) {
        let (out, drove) = run_cluster(spec, Some(steps))?;
        if !out.serves_like(expected) {
            return Err(format!(
                "seed {}: a repeat of the same seed produced a different outcome",
                spec.seed
            ));
        }
        host_ns += drove.drive_ns;
        samples += drove.pace.0;
        pace_ns += drove.pace.1;
    }
    Ok((host_ns, pace_ns as f64 / samples as f64))
}

/// Times `SETUP_PER_REPEAT` cluster builds, cycling over the instance,
/// and scales them to the reference machine by the mean of a pace sample
/// taken just before them and one just after.
fn time_setups(specs: &[Spec], setup_s: &mut Vec<f64>) {
    let before = pace::sample_ns();
    let mut builds = Vec::new();
    for spec in specs.iter().cycle().take(SETUP_PER_REPEAT) {
        let t = Instant::now();
        let sim = spec.build();
        builds.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(sim));
    }
    let pace = (before + pace::sample_ns()) as f64 / 2.0;
    setup_s.extend(builds.iter().map(|&b| pace::scale(b, pace)));
}

/// Runs the instance once in full, untimed (it warms up and fixes each
/// cluster's outcome and service window), then repeats the builds and the
/// service windows for `seconds` of host time, at least `MIN_REPEATS`
/// times.
///
/// Host time covers each cluster's service window only: from the first
/// event to the last commit. On closed loops that is the whole run. On
/// `faults` it leaves out the stall window after the last commit, which
/// serves nothing and only waits out the benchmark's own 50 ms before the
/// missing ops are declared failed.
fn run_untraced(specs: &[Spec], seconds: u64) -> Result<Untraced, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (outcomes, service) = run_full(specs)?;
    let mut un = Untraced {
        outcomes,
        repeat_ns: Vec::new(),
        pace_ns: Vec::new(),
        setup_s: Vec::new(),
    };
    while un.repeat_ns.len() < MIN_REPEATS || start.elapsed() < budget {
        time_setups(specs, &mut un.setup_s);
        let (host_ns, pace_ns) = run_timed(specs, &un.outcomes, &service)?;
        un.repeat_ns.push(host_ns);
        un.pace_ns.push(pace_ns);
    }
    Ok(un)
}

/// Runs the instance traced and checks that every cluster's outcome
/// equals the untraced one. Writes the first cluster's spans to `spans`
/// when given.
fn run_traced(
    specs: &[Spec],
    reference: &[Outcome],
    spans: Option<PathBuf>,
) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    for (i, (spec, expected)) in specs.iter().zip(reference).enumerate() {
        let path = spans.as_deref().filter(|_| i == 0);
        let (out, l) = traced::run(spec, path)?;
        if &out != expected {
            return Err(format!(
                "seed {}: the traced run differs from the untraced run",
                spec.seed
            ));
        }
        ledger.merge(&l);
    }
    Ok(ledger)
}

/// The simulated end-to-end metrics of clusters pooled: their ops ranked
/// together (failed ones last), their commits over their summed time, the
/// median of their longest commit gaps (the largest of them swings with
/// the one unluckiest schedule).
fn sim_metrics(outs: &[Outcome]) -> [(&'static str, f64); 6] {
    let sum = |f: &dyn Fn(&Outcome) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    let committed = sum(&|o| o.committed);
    let (mut ok, mut failed) = (Vec::new(), Vec::new());
    for o in outs {
        let (c, f) = o.latencies_us.split_at(o.committed as usize);
        ok.extend_from_slice(c);
        failed.extend_from_slice(f);
    }
    ok.sort_unstable();
    failed.sort_unstable();
    ok.extend(failed);
    [
        (
            "sim_commits_per_s",
            committed / outs.iter().map(Outcome::sim_seconds).sum::<f64>(),
        ),
        ("sim_commit_p50_us", outcome::percentile(&ok, 50.0) as f64),
        ("sim_commit_p99_us", outcome::percentile(&ok, 99.0) as f64),
        (
            "sim_max_commit_gap_us",
            median(outs.iter().map(|o| o.max_commit_gap_us() as f64).collect()),
        ),
        (
            "sim_msgs_per_commit",
            sum(&|o| o.net.messages_sent) / committed,
        ),
        ("ops_committed_ratio", committed / sum(&|o| o.attempted)),
    ]
}

/// Per-layer metrics from the pooled counters and the traced ledger.
fn layer_metrics(outs: &[Outcome], ledger: &Ledger, untraced_ns: f64) -> BTreeMap<String, f64> {
    let sum = |f: &dyn Fn(&Outcome) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    let counter = |name: &str| sum(&|o| o.counter(name));
    let committed = sum(&|o| o.committed);
    let per_commit = |v: f64| v / committed;
    let mut m = BTreeMap::new();
    let mut put = |k: String, v: f64| {
        m.insert(k, v);
    };
    put(
        "simnet.events_per_commit".into(),
        per_commit(sum(&|o| o.steps)),
    );
    put(
        "simnet.timers_per_commit".into(),
        per_commit(sum(&|o| o.net.timers_fired)),
    );
    put(
        "simnet.stale_timers_per_commit".into(),
        per_commit(sum(&|o| o.net.stale_timers_dropped)),
    );
    put(
        "simnet.dropped_per_commit".into(),
        per_commit(sum(&|o| o.net.messages_dropped)),
    );
    for k in MSG_KINDS {
        let sent = sum(&|o| o.net.by_kind.get(k).copied().unwrap_or(0));
        put(format!("simnet.sent.{k}_per_commit"), per_commit(sent));
    }
    let handler = |h: Handler| ledger.handlers.get(&h).copied().unwrap_or((0, 0));
    let ns_per_call = |(calls, ns): (u64, u64)| {
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    };
    for k in MSG_KINDS.iter().filter(|k| **k != "reply") {
        let h = handler(Handler::Msg(k));
        put(format!("xpaxos.{k}.ns_per_call"), ns_per_call(h));
        put(
            format!("xpaxos.{k}.calls_per_commit"),
            per_commit(h.0 as f64),
        );
    }
    for c in TIMER_CLASSES {
        let h = handler(Handler::Timer(c));
        put(format!("xpaxos.timer.{c}.ns_per_call"), ns_per_call(h));
        put(
            format!("xpaxos.timer.{c}.calls_per_commit"),
            per_commit(h.0 as f64),
        );
    }
    put(
        "xpaxos.client.ns_per_commit".into(),
        per_commit(handler(Handler::Client).1 as f64),
    );
    put(
        "xpaxos.reqs_per_slot".into(),
        counter("xpaxos.executed_reqs") / counter("xpaxos.decided_slots").max(1.0),
    );
    put(
        "xpaxos.client_retries_per_commit".into(),
        per_commit(counter("xpaxos.client_retries")),
    );
    let requests = sum(&|o| o.net.by_kind.get("request").copied().unwrap_or(0));
    put(
        "xpaxos.request_useful_ratio".into(),
        committed / requests.max(1.0),
    );
    put("xpaxos.view_changes".into(), counter("xpaxos.view_changes"));
    put(
        "xpaxos.exec_watermark_lag".into(),
        counter("xpaxos.exec_watermark_lag"),
    );
    put(
        "detector.expectations_per_commit".into(),
        per_commit(counter("detector.expectations")),
    );
    put(
        "detector.expired_per_commit".into(),
        per_commit(counter("detector.expired")),
    );
    put("detector.suspicions".into(), counter("detector.suspicions"));
    put("core.quorums_issued".into(), counter("core.quorums_issued"));
    put("core.epochs_entered".into(), counter("core.epochs_entered"));
    put(
        "core.updates_per_commit".into(),
        per_commit(counter("core.updates")),
    );
    put(
        "simnet.self_ns_per_event".into(),
        (ledger.step_ns.saturating_sub(ledger.handler_ns())) as f64 / ledger.steps.max(1) as f64,
    );
    put(
        "traced.unattributed_share".into(),
        ledger.drive_ns.saturating_sub(ledger.step_ns) as f64 / ledger.drive_ns.max(1) as f64,
    );
    put(
        "traced.overhead_pct".into(),
        (ledger.service_ns as f64 / untraced_ns - 1.0) * 100.0,
    );
    m
}

/// Prints where the traced run's host time went.
fn print_attribution(ledger: &Ledger) {
    let total = ledger.drive_ns.max(1) as f64;
    let share = |ns: u64| 100.0 * ns as f64 / total;
    let handlers = ledger.handler_ns();
    println!(
        "traced host time {:.1} ms over {} steps:",
        total / 1e6,
        ledger.steps
    );
    println!(
        "  {:<28} {:>6.1}%",
        "simnet self",
        share(ledger.step_ns.saturating_sub(handlers))
    );
    let mut rows: Vec<(String, u64, u64)> = ledger
        .handlers
        .iter()
        .map(|(h, &(calls, ns))| {
            let name = match h {
                Handler::Msg(k) => format!("xpaxos {k}"),
                Handler::Timer(c) => format!("xpaxos timer {c}"),
                Handler::Client => "xpaxos client".into(),
                Handler::Lifecycle => "xpaxos start/recover".into(),
            };
            (name, calls, ns)
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    for (name, calls, ns) in rows {
        println!(
            "  {name:<28} {:>6.1}%  {calls:>9} calls  {:>9.0} ns/call",
            share(ns),
            ns as f64 / calls as f64
        );
    }
    println!(
        "  {:<28} {:>6.1}%",
        "unattributed (drive loop)",
        share(ledger.drive_ns.saturating_sub(ledger.step_ns))
    );
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(metrics::Metric, f64)],
) -> String {
    let ms: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ms.join(", ")
    )
}

/// What a run prints as its last line.
struct Report {
    attempted: u64,
    failed: u64,
    values: Vec<(metrics::Metric, f64)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let specs = w.instance(args.seed);
    let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
    println!(
        "workload {} seed {} (cluster seeds {seeds:?}; default seed {}, held-out seed {}), {} s",
        w.name(),
        args.seed,
        w.default_seed(),
        w.held_out_seed(),
        args.seconds
    );

    let un = run_untraced(&specs, args.seconds)?;
    let rss = probe_rss(args, specs.len())?;
    let attempted: u64 = un.outcomes.iter().map(|o| o.attempted).sum();
    let committed: u64 = un.outcomes.iter().map(|o| o.committed).sum();
    // End-to-end metrics pool the instance's clusters, so one run's
    // figures do not hang on which way one cluster's schedule went.
    println!("cluster seed  committed  sim metrics");
    for o in &un.outcomes {
        let sim = sim_metrics(std::slice::from_ref(o)).map(|(_, v)| v);
        println!(
            "  {:>10}  {:>5}/{:<5}  {sim:?}",
            o.seed, o.committed, o.attempted
        );
    }
    let mut values: BTreeMap<String, f64> = sim_metrics(&un.outcomes)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    values.insert(
        "host_ns_per_commit".into(),
        un.host_ns_per_commit(committed),
    );
    values.insert("setup_s".into(), median(un.setup_s.clone()));
    values.insert("peak_rss_mib".into(), rss);
    let unscaled: Vec<u64> = un.repeat_ns.iter().map(|ns| ns / committed).collect();
    let pace: Vec<u64> = un.pace_ns.iter().map(|&ns| ns as u64).collect();
    println!(
        "untraced: {} repeats; committed {committed} of {attempted} ops; per repeat, \
         unscaled host ns/commit {unscaled:?} and mean reference sample ns {pace:?} \
         (nominal {})",
        un.repeat_ns.len(),
        pace::NOMINAL_NS
    );

    let spans = args.trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.tsv", w.name(), args.seed))
    });
    let ledger = run_traced(&specs, &un.outcomes, spans)?;
    println!("traced run identical to the untraced run: yes");
    print_attribution(&ledger);
    let untraced_ns = median(un.repeat_ns.iter().map(|&ns| ns as f64).collect());
    values.extend(layer_metrics(&un.outcomes, &ledger, untraced_ns));

    let catalogue = if args.trace {
        let cal = calib::run();
        println!("calibration:");
        for c in &cal {
            println!(
                "  {:<26} {:>12.1} {:<5} over {:>10} calls: {}",
                c.name, c.value, c.unit, c.samples, c.what
            );
            values.insert(c.name.into(), c.value);
        }
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut out = Vec::new();
    for m in catalogue {
        let v = *values
            .get(&m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
        out.push((m, v));
    }
    Ok(Report {
        attempted,
        failed: attempted - committed,
        values: out,
    })
}

/// Set in the environment of the re-executed benchmark process.
const FIXED_LAYOUT_ENV: &str = "PERFBENCH_FIXED_LAYOUT";

/// Re-runs this benchmark under `setarch -R`, which turns address-space
/// randomization off for the child. With it on, each process draws its
/// own heap and stack placement, and host times of one seed differ by
/// ±10% between processes while staying within ±2% inside one. Returns
/// `None` when `setarch -R` is unavailable, and the benchmark then runs
/// in this process.
fn rerun_with_fixed_layout() -> Option<ExitCode> {
    if std::env::var_os(FIXED_LAYOUT_ENV).is_some() {
        return None;
    }
    let setarch = || {
        let mut c = std::process::Command::new("setarch");
        c.arg(std::env::consts::ARCH).arg("-R");
        c
    };
    let works = setarch()
        .arg("true")
        .output()
        .is_ok_and(|o| o.status.success());
    if !works {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let mut child = setarch()
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(FIXED_LAYOUT_ENV, "1")
        .spawn()
        .ok()?;
    let status = child.wait().ok()?;
    Some(ExitCode::from(
        status.code().map_or(1, |c| c.clamp(0, 255) as u8),
    ))
}

fn main() -> ExitCode {
    if let Some(code) = rerun_with_fixed_layout() {
        return code;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <steady|batched|faults> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if let Some(cluster) = args.rss_probe {
        return match rss_probe(&args, cluster) {
            Ok(mib) => {
                println!("{mib}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(r) => {
            println!("{}", json_line(true, r.attempted, r.failed, &r.values));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            println!("{}", json_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_valid_unique_and_within_limits() {
        let e2e = metrics::end_to_end();
        let layer = metrics::per_layer();
        assert!(
            (1..=16).contains(&e2e.len()),
            "{} end-to-end metrics",
            e2e.len()
        );
        assert!(
            (1..=128).contains(&layer.len()),
            "{} per-layer metrics",
            layer.len()
        );
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(
                seen.insert(m.name.clone()),
                "duplicate metric name {}",
                m.name
            );
        }
        for m in &e2e {
            assert!(
                m.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                "{} needs a bound in (0, 0.25]",
                m.name
            );
        }
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is reported");
        assert_eq!((setup.unit, setup.better), ("s", metrics::Better::Lower));
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_is_generated_from_the_catalogue() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            metrics::benchmark_json(RUN_SECONDS),
            "regenerate with --benchmark-json"
        );
    }

    #[test]
    fn small_runs_reproduce_their_counters_exactly() {
        for w in Workload::ALL {
            let specs = w.instance_sized(w.default_seed(), 5);
            let (first, service) = run_full(&specs).expect("small run passes its checks");
            let (again, _) = run_full(&specs).expect("small run passes its checks");
            assert_eq!(first, again, "{}: a repeat differs", w.name());
            run_timed(&specs, &first, &service).expect("a timed repeat serves as the full run");
            for (spec, out) in specs.iter().zip(&first) {
                let (traced, _) = traced::run(spec, None).expect("traced run");
                assert_eq!(&traced, out, "{}: the traced run differs", w.name());
            }
        }
    }

    #[test]
    fn default_and_held_out_seeds_pass_the_correctness_checks() {
        for w in Workload::ALL {
            for seed in [w.default_seed(), w.held_out_seed()] {
                let (outs, _) = run_full(&w.instance(seed))
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
                assert!(outs.iter().all(|o| o.committed > 0));
            }
        }
    }
}
