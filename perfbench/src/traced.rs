//! The traced run: a benchmark-local actor wraps each `XpActor` and times
//! every handler call, and the drive loop times every `Simulation::step`.
//!
//! The cluster is assembled from the same parts `ClusterBuilder::build`
//! uses (`SimConfig`, `Keychain`, the `XpMsg::kind` classifier), so the
//! traced run is event-for-event identical to the untraced one; the
//! benchmark checks that by comparing their [`Outcome`]s.
//!
//! Spans are kept in memory and written out when the run ends. A step
//! span has no parent; a handler span's parent is the step that
//! dispatched it, so a step's self time is its duration minus its
//! handler child's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use qsel_simnet::{Actor, Context, SimConfig, SimTime, Simulation, TimerId};
use qsel_types::crypto::Keychain;
use qsel_types::ProcessId;
use qsel_xpaxos::client::Client;
use qsel_xpaxos::harness::{OpenLoopClient, XpActor};
use qsel_xpaxos::messages::XpMsg;
use qsel_xpaxos::Replica;

use crate::outcome::{self, Outcome};
use crate::workload::{drive, Driven, Spec};

/// Replica message kinds, in `XpMsg::kind` spelling. `reply` only ever
/// reaches clients, whose handlers count as `client`.
pub const MSG_KINDS: [&str; 16] = [
    "request",
    "prepare",
    "commit",
    "reply",
    "view-change",
    "new-view",
    "update",
    "heartbeat",
    "lazy-update",
    "state-fetch",
    "state-batch",
    "checkpoint",
    "sync-query",
    "sync-info",
    "sync-fetch",
    "sync-chunk",
];

/// Replica timer classes, by the `TimerId` ranges of `replica.rs`.
pub const TIMER_CLASSES: [&str; 6] = [
    "fd_poll",
    "heartbeat",
    "lazy",
    "batch",
    "view_change",
    "sync",
];

fn timer_class(t: TimerId) -> &'static str {
    match t.0 {
        1 => "fd_poll",
        2 => "heartbeat",
        3 => "lazy",
        4 => "batch",
        id if id >= 1_000_000_000 => "sync",
        _ => "view_change",
    }
}

/// What a handler span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Handler {
    /// A replica's `on_message`, by message kind.
    Msg(&'static str),
    /// A replica's `on_timer`, by timer class.
    Timer(&'static str),
    /// Any client callback.
    Client,
    /// A replica's `on_start` or `on_recover`.
    Lifecycle,
}

impl Handler {
    fn label(self) -> String {
        match self {
            Handler::Msg(k) => format!("xpaxos.{k}"),
            Handler::Timer(c) => format!("xpaxos.timer.{c}"),
            Handler::Client => "xpaxos.client".into(),
            Handler::Lifecycle => "xpaxos.lifecycle".into(),
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Index of the parent span, `u32::MAX` for a step.
    parent: u32,
    /// `None` for a step span.
    handler: Option<Handler>,
    actor: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans of one run plus the commit instants the client wrappers saw.
#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    step: u32,
    commit_times_us: Vec<u64>,
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        self.origin.map_or(0, |o| (t - o).as_nanos() as u64)
    }
}

/// An `XpActor` whose handler calls are timed into a shared recorder.
pub struct Timed {
    inner: XpActor,
    id: u32,
    rec: Rc<RefCell<Recorder>>,
}

impl Timed {
    fn time<R>(&mut self, handler: Handler, f: impl FnOnce(&mut XpActor) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        let end = Instant::now();
        let mut rec = self.rec.borrow_mut();
        let span = Span {
            parent: rec.step,
            handler: Some(handler),
            actor: self.id,
            start_ns: rec.ns(start),
            dur_ns: (end - start).as_nanos() as u64,
        };
        rec.spans.push(span);
        r
    }

    fn is_client(&self) -> bool {
        self.inner.committed_ops().is_some()
    }
}

impl Actor<XpMsg> for Timed {
    fn on_start(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let h = if self.is_client() {
            Handler::Client
        } else {
            Handler::Lifecycle
        };
        self.time(h, |a| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, msg: XpMsg) {
        if self.is_client() {
            let before = self.inner.committed_ops();
            self.time(Handler::Client, |a| a.on_message(ctx, from, msg));
            if self.inner.committed_ops() != before {
                self.rec
                    .borrow_mut()
                    .commit_times_us
                    .push(ctx.now().as_micros());
            }
        } else {
            let kind = msg.kind();
            self.time(Handler::Msg(kind), |a| a.on_message(ctx, from, msg));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, XpMsg>, timer: TimerId) {
        let h = if self.is_client() {
            Handler::Client
        } else {
            Handler::Timer(timer_class(timer))
        };
        self.time(h, |a| a.on_timer(ctx, timer));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let h = if self.is_client() {
            Handler::Client
        } else {
            Handler::Lifecycle
        };
        self.time(h, |a| a.on_recover(ctx));
    }
}

/// Per-handler totals of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Host ns of the whole drive loop.
    pub drive_ns: u64,
    /// Host ns of the drive loop up to the end of the service window, the
    /// span the untraced host time covers.
    pub service_ns: u64,
    /// Host ns inside `Simulation::step`.
    pub step_ns: u64,
    /// Steps timed.
    pub steps: u64,
    /// (calls, host ns) per handler.
    pub handlers: BTreeMap<Handler, (u64, u64)>,
}

impl Ledger {
    /// Host ns spent in handlers.
    pub fn handler_ns(&self) -> u64 {
        self.handlers.values().map(|&(_, ns)| ns).sum()
    }

    /// Folds another run's totals in.
    pub fn merge(&mut self, other: &Ledger) {
        self.drive_ns += other.drive_ns;
        self.service_ns += other.service_ns;
        self.step_ns += other.step_ns;
        self.steps += other.steps;
        for (h, (c, ns)) in &other.handlers {
            let e = self.handlers.entry(*h).or_insert((0, 0));
            e.0 += c;
            e.1 += ns;
        }
    }
}

/// Builds the cluster of `spec` from the same parts as
/// `ClusterBuilder::build`, each actor wrapped in a [`Timed`].
fn build(spec: &Spec, rec: &Rc<RefCell<Recorder>>) -> Simulation<XpMsg, Timed> {
    let cfg = spec.cluster;
    let chain = Keychain::new(&cfg, spec.seed);
    let mut actors = Vec::new();
    for p in cfg.processes() {
        actors.push(XpActor::Replica(Replica::new(
            cfg,
            p,
            &chain,
            spec.rcfg.clone(),
        )));
    }
    for c in 0..spec.clients {
        let id = ProcessId(cfg.n() + c + 1);
        actors.push(match spec.open_loop {
            Some(ia) => XpActor::OpenClient(OpenLoopClient::new(id, cfg, ia, spec.ops_per_client)),
            None => XpActor::Client(Client::new(id, cfg, spec.retry, spec.ops_per_client)),
        });
    }
    let total = cfg.n() + spec.clients;
    let timed = actors
        .into_iter()
        .zip(1..)
        .map(|(inner, id)| Timed {
            inner,
            id,
            rec: Rc::clone(rec),
        })
        .collect();
    let scfg = SimConfig::new(total, spec.seed).with_tx_cost(spec.tx_cost);
    let mut sim = Simulation::new(scfg, timed);
    sim.set_classifier(|m: &XpMsg| m.kind());
    sim.schedule_plan(spec.faults.clone());
    sim
}

/// A stepping wrapper that times each step into the recorder.
struct Stepper {
    sim: Simulation<XpMsg, Timed>,
    rec: Rc<RefCell<Recorder>>,
    step_ns: u64,
}

/// Runs `spec` traced. Returns its outcome and its ledger. When `spans_out` is given, every span is
/// written there as tab-separated text once the run has ended.
pub fn run(spec: &Spec, spans_out: Option<&std::path::Path>) -> Result<(Outcome, Ledger), String> {
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let sim = build(spec, &rec);
    let mut st = Stepper {
        sim,
        rec: Rc::clone(&rec),
        step_ns: 0,
    };
    rec.borrow_mut().origin = Some(Instant::now());
    let drove = drive(&mut st, spec, None, false);
    let steps = drove.steps;

    let sim = &st.sim;
    let (replicas, clients) = outcome::views(sim, spec, |t| &t.inner);
    let out = outcome::collect(
        spec,
        steps,
        sim.now().as_micros(),
        sim.stats(),
        &replicas,
        &clients,
    );
    let observed = {
        let mut v = rec.borrow().commit_times_us.clone();
        v.sort_unstable();
        v
    };
    if observed != out.commit_times_us {
        return Err(
            "commit instants seen by the traced clients differ from the reconstructed ones".into(),
        );
    }

    let rec = rec.borrow();
    let mut ledger = Ledger {
        drive_ns: drove.drive_ns,
        service_ns: drove.service_ns,
        step_ns: st.step_ns,
        steps,
        ..Default::default()
    };
    for s in &rec.spans {
        if let Some(h) = s.handler {
            let e = ledger.handlers.entry(h).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
    }
    if let Some(path) = spans_out {
        write_spans(path, &rec.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok((out, ledger))
}

impl Driven for Stepper {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn committed(&self) -> u64 {
        self.sim
            .ids()
            .filter_map(|id| self.sim.actor(id).inner.committed_ops())
            .sum()
    }

    fn step(&mut self) -> bool {
        let idx = self.rec.borrow().spans.len() as u32;
        let start = Instant::now();
        {
            let mut rec = self.rec.borrow_mut();
            rec.step = idx;
            let start_ns = rec.ns(start);
            rec.spans.push(Span {
                parent: u32::MAX,
                handler: None,
                actor: 0,
                start_ns,
                dur_ns: 0,
            });
        }
        let more = self.sim.step();
        let dur = (Instant::now() - start).as_nanos() as u64;
        self.rec.borrow_mut().spans[idx as usize].dur_ns = dur;
        self.step_ns += dur;
        more
    }
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tactor\tstart_ns\tdur_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let name = s
            .handler
            .map_or_else(|| "simnet.step".to_string(), Handler::label);
        let parent = if s.parent == u32::MAX {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{i}\t{parent}\t{name}\t{}\t{}\t{}",
            s.actor, s.start_ns, s.dur_ns
        )?;
    }
    w.flush()
}
