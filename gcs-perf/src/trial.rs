//! One trial: boot a cluster, warm it up, drive the timed load, then
//! verify everything the run produced with the repository's checkers.

use crate::deploy::{start_plain, Deployment, Kind, Shape, Span, TapCluster, Traces};
use crate::loadgen::{self, Lane, LoadOut, Plan, Progress};
use crate::sys;
use gcs_apps::check_per_key_linearizable;
use gcs_core::cause::check_trace;
use gcs_core::to_trace::check_to_trace;
use gcs_model::{ProcId, Value};
use gcs_net::codec::Frame;
use gcs_obs::{BoundParams, StabilizationMonitor, TokenRoundMonitor};
use gcs_shard::{RouterCore, ShardMap};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the client drives load.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Keep `window` operations outstanding per group.
    Closed { window: usize },
    /// Submit at `rate` operations per second.
    Open { rate: f64 },
}

/// A named workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub shape: Shape,
    pub mode: Mode,
    /// Client connections: the node each one talks to and the groups it
    /// drives.
    pub conns: Vec<(ProcId, Vec<u32>)>,
    /// Warm-up operations per group (untimed, part of set-up).
    pub warm: usize,
    /// Timed operations per group (open loop with faults: the most it
    /// may submit).
    pub timed: usize,
    /// Cut node 4 off after [`HISTORY`] timed deliveries, heal, keep
    /// the load on.
    pub partition: bool,
}

/// Timed deliveries at the client before `ring_partition` cuts node 4:
/// the history of a node that has run for a while.
const HISTORY: u64 = 15_000;
/// How long `ring_partition` keeps the load on after the healed view.
const AFTER_HEAL: Duration = Duration::from_secs(2);
/// The node `ring_partition` isolates.
const VICTIM: ProcId = ProcId(4);
/// An operation not delivered after this long without progress fails.
const IDLE: Duration = Duration::from_secs(5);

/// Every workload the benchmark knows.
pub fn spec(name: &str) -> Option<Spec> {
    let ring = Shape::ring(5, 20);
    let node0 = vec![(ProcId(0), vec![0])];
    let paced = Mode::Open { rate: 5000.0 };
    Some(match name {
        "ring_closed" => Spec {
            shape: ring,
            mode: Mode::Closed { window: 1024 },
            conns: node0,
            warm: 1024,
            timed: 5000,
            partition: false,
        },
        "ring_paced" => Spec {
            shape: ring,
            mode: paced,
            conns: node0,
            warm: 1000,
            timed: 5000,
            partition: false,
        },
        "shard_closed" => Spec {
            shape: Shape::shard(5, 4, 3, 60),
            mode: Mode::Closed { window: 256 },
            // Each group's ops enter at its leader, the member the shard
            // router picks (0 leads groups 0 and 3, 1 leads 1, 2 leads
            // 2). Entering at another member costs a timed token launch
            // (π = 360 ms) per window: see README.md.
            conns: vec![(ProcId(0), vec![0, 3]), (ProcId(1), vec![1]), (ProcId(2), vec![2])],
            warm: 512,
            timed: 5000,
            partition: false,
        },
        "ring_partition" => Spec {
            shape: ring,
            mode: paced,
            conns: node0,
            warm: 1000,
            timed: HISTORY as usize + 5000 * 30,
            partition: true,
        },
        _ => return None,
    })
}

/// What a trial reports: named metrics plus the operation counts.
#[derive(Default)]
pub struct TrialOut {
    pub metrics: Vec<(String, f64)>,
    pub attempted: usize,
    pub failed: usize,
    /// Every check that failed; a trial with any is not a result.
    pub failures: Vec<String>,
}

impl TrialOut {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}

fn wait_for(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Whether every live member of `g` runs a view of exactly `size`
/// members (optionally ignoring one node).
fn view_size(dep: &dyn Deployment, g: u32, size: usize, except: Option<ProcId>) -> bool {
    let views = dep.views(g);
    !views.is_empty()
        && views
            .iter()
            .filter(|(p, _)| Some(**p) != except)
            .all(|(_, vs)| vs.last().is_some_and(|v| v.size() == size))
}

/// Runs the closed-loop lanes of every connection concurrently, one
/// `gp-load` thread per connection.
fn drive_closed(
    dep: &dyn Deployment,
    spec: &Spec,
    plan: &Plan,
    lanes: &BTreeMap<u32, Vec<usize>>,
    window: usize,
) -> Result<LoadOut, String> {
    let mut out: Option<LoadOut> = None;
    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::new();
        for (node, groups) in &spec.conns {
            let conn_lanes: Vec<Lane> = groups
                .iter()
                .map(|g| Lane { group: *g, ops: lanes.get(g).cloned().unwrap_or_default() })
                .collect();
            let addr = dep.addr(*node);
            let h = std::thread::Builder::new()
                .name("gp-load".into())
                .spawn_scoped(s, move || loadgen::closed(addr, plan, &conn_lanes, window, IDLE))
                .map_err(|e| e.to_string())?;
            handles.push(h);
        }
        for h in handles {
            let o = h.join().map_err(|_| "load thread panicked".to_string())?;
            let o = o.map_err(|e| format!("load connection failed: {e}"))?;
            match &mut out {
                Some(acc) => acc.absorb(o),
                None => out = Some(o),
            }
        }
        Ok(())
    })?;
    out.ok_or_else(|| "no client connection".to_string())
}

/// When the faults of `ring_partition` happened and how long the
/// membership took to answer them.
#[derive(Default)]
struct Faults {
    cut: Option<Instant>,
    heal: Option<Instant>,
    cut_to_view_ms: f64,
    heal_to_view_ms: f64,
    error: Option<String>,
}

/// The `ring_partition` controller: waits for the history, isolates
/// the victim, waits for the 4-member view, rejoins, waits for the
/// 5-member view, keeps the load on, then ends submission.
fn control_partition(dep: &dyn Deployment, progress: &Progress) -> Faults {
    let mut f = Faults::default();
    let n = 5;
    let history = || progress.delivered.load(Ordering::SeqCst) >= HISTORY;
    if !wait_for(Duration::from_secs(60), history) {
        f.error = Some(format!("history of {HISTORY} deliveries never reached"));
    } else {
        let t = Instant::now();
        dep.isolate(VICTIM);
        f.cut = Some(t);
        if wait_for(Duration::from_secs(20), || view_size(dep, 0, n - 1, Some(VICTIM))) {
            f.cut_to_view_ms = t.elapsed().as_secs_f64() * 1e3;
        } else {
            f.error = Some("the 4-member view never formed after the cut".into());
        }
        let t = Instant::now();
        dep.rejoin(VICTIM);
        f.heal = Some(t);
        if wait_for(Duration::from_secs(20), || view_size(dep, 0, n, None)) {
            f.heal_to_view_ms = t.elapsed().as_secs_f64() * 1e3;
        } else if f.error.is_none() {
            f.error = Some("the 5-member view never re-formed after the heal".into());
        }
        std::thread::sleep(AFTER_HEAL);
    }
    progress.stop.store(true, Ordering::SeqCst);
    f
}

/// For each fault, the longest gap between consecutive deliveries at
/// the client from the fault until the next fault (or the end), summed.
fn unavailable_ms(out: &LoadOut, faults: &[Instant]) -> f64 {
    let mut done: Vec<Instant> = out.done.iter().flatten().copied().collect();
    done.sort();
    let mut total = 0.0;
    for (k, &tf) in faults.iter().enumerate() {
        let end = faults.get(k + 1).copied();
        let mut worst = 0.0f64;
        for w in done.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b <= tf || end.is_some_and(|e| a >= e) {
                continue;
            }
            worst = worst.max(b.duration_since(a).as_secs_f64() * 1e3);
        }
        total += worst;
    }
    total
}

/// Checks that every submitted operation of group `g` was delivered
/// exactly once at every member, and nothing else was.
fn exactly_once(
    plan: &Plan,
    g: u32,
    submitted: &[bool],
    streams: &BTreeMap<ProcId, Vec<Value>>,
) -> Result<(), String> {
    for (p, stream) in streams {
        let mut count = vec![0u32; plan.len()];
        for v in stream {
            match plan.lookup(v) {
                Some(i) if plan.groups[i] == g => count[i] += 1,
                _ => return Err(format!("group {g}: {p} delivered a value nobody submitted")),
            }
        }
        let mut missing = 0;
        for i in (0..plan.len()).filter(|&i| plan.groups[i] == g) {
            match (submitted[i], count[i]) {
                (true, 1) | (false, 0) => {}
                (true, 0) => missing += 1,
                (false, _) => return Err(format!("group {g}: {p} delivered an unsubmitted op")),
                (true, c) => return Err(format!("group {g}: {p} delivered an op {c} times")),
            }
        }
        if missing > 0 {
            return Err(format!("group {g}: {p} never delivered {missing} submitted ops"));
        }
    }
    Ok(())
}

/// Seconds per check, summed over groups.
#[derive(Default)]
struct Verify {
    monitors_s: f64,
    exactly_once_s: f64,
    kv_s: f64,
    to_s: f64,
    cause_s: f64,
    merge_s: Option<f64>,
}

impl Verify {
    fn total(&self) -> f64 {
        self.monitors_s + self.exactly_once_s + self.kv_s + self.to_s + self.cause_s
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// Runs every check over what the trial produced, adding what fails to
/// `failures`; stops the cluster on the way (the trace checkers need
/// the final recordings).
fn verify(
    dep: Box<dyn Deployment>,
    spec: &Spec,
    plan: &Plan,
    submitted: &[bool],
    failures: &mut Vec<String>,
) -> Verify {
    let mut v = Verify::default();
    let groups = spec.shape.groups.len() as u32;
    for g in 0..groups {
        let obs = dep.obs(g);
        let k = spec.shape.groups[g as usize].len() as u32;
        let params = BoundParams::standard(k, spec.shape.delta_ms);
        timed(&mut v.monitors_s, || {
            let events = obs.trace.snapshot();
            let mut stab = StabilizationMonitor::new(params);
            let mut round = TokenRoundMonitor::new(params);
            stab.feed_all(&events);
            round.feed_all(&events);
            let (stab, round) = (stab.finish(), round.finish(obs.trace.now_ms()));
            if obs.trace.evicted() > 0 {
                failures.push(format!("group {g}: trace ring evicted events"));
            }
            if let Some(e) = stab.violations.first() {
                failures.push(format!("group {g}: stabilization monitor (b): {e:?}"));
            }
            if let Some(e) = round.violations.first() {
                failures.push(format!("group {g}: token-round monitor (d): {e:?}"));
            }
        });
        let streams = timed(&mut v.exactly_once_s, || {
            let streams = dep.delivered(g);
            if let Err(e) = exactly_once(plan, g, submitted, &streams) {
                failures.push(e);
            }
            streams
        });
        timed(&mut v.kv_s, || {
            let streams: Vec<Vec<Value>> = streams.into_values().collect();
            if let Err(e) = check_per_key_linearizable(&streams) {
                failures.push(format!("group {g}: per-key linearizability: {e}"));
            }
        });
    }
    let (traces, merge_s): (Traces, Option<f64>) = dep.stop();
    v.merge_s = merge_s;
    for (g, trace) in &traces {
        timed(&mut v.to_s, || {
            let to = check_to_trace(&to_obs(trace).untimed());
            if let Some(e) = to.violations.first() {
                failures.push(format!("group {g}: TO checker: {e}"));
            }
        });
        timed(&mut v.cause_s, || {
            let cause = check_trace(&vs_actions(trace), &spec.shape.groups[*g as usize]);
            if let Some(e) = cause.violations.first() {
                failures.push(format!("group {g}: VS cause checker: {e:?}"));
            }
        });
    }
    v
}

/// What the traced trial samples at the edges of the timed window.
struct Edge {
    at: Instant,
    rss_kb: f64,
    recorded: usize,
    frames_sent: u64,
}

impl Edge {
    fn take(tap: &TapCluster) -> Edge {
        Edge {
            at: Instant::now(),
            rss_kb: sys::status_kb("VmRSS"),
            recorded: tap.recorded_events(),
            frames_sent: tap.net_obs().registry.snapshot().counter_total("net_frames_sent_total"),
        }
    }
}

/// Frames captured in the traced trial's window, for the codec replay.
pub struct Captured {
    pub frames: Vec<Frame>,
    pub ops: usize,
}

/// Runs one trial of `spec`. `proc_start` is when this process
/// started (set-up time runs from there). A traced trial also fills the
/// per-layer ledger and returns the captured frames; it writes its
/// spans to `spans_out`.
pub fn run(
    spec: &Spec,
    seed: u64,
    traced: bool,
    proc_start: Instant,
    spans_out: Option<&std::path::Path>,
) -> Result<(TrialOut, Option<Captured>), String> {
    let clients: Vec<ProcId> = spec.conns.iter().map(|c| c.0).collect();
    let dep: Box<dyn Deployment> = if traced {
        Box::new(TapCluster::start(&spec.shape, &clients).map_err(|e| e.to_string())?)
    } else {
        start_plain(&spec.shape).map_err(|e| e.to_string())?
    };
    let groups = spec.shape.groups.len() as u32;
    for g in 0..groups {
        let size = spec.shape.groups[g as usize].len();
        if !wait_for(Duration::from_secs(30), || view_size(&*dep, g, size, None)) {
            return Err(format!("group {g}: the initial view never formed"));
        }
    }

    let mut router = RouterCore::new(ShardMap::new(spec.shape.groups.clone()));
    let plan = Plan::new(seed, &mut router, groups, spec.warm + spec.timed);
    let mut warm_lanes = BTreeMap::new();
    let mut timed_lanes = BTreeMap::new();
    for g in 0..groups {
        let ops = plan.ops_of(g);
        warm_lanes.insert(g, ops[..spec.warm].to_vec());
        timed_lanes.insert(g, ops[spec.warm..].to_vec());
    }

    // Warm-up: connection set-up and the ring's first rotations, closed
    // loop, excluded from every timed metric. Open-loop workloads warm up
    // in one window too: a narrow one would make set-up time a long
    // chain of token rounds and twice as noisy.
    let warm_window = match spec.mode {
        Mode::Closed { window } => window,
        Mode::Open { .. } => spec.warm,
    };
    let mut warm = drive_closed(&*dep, spec, &plan, &warm_lanes, warm_window)?;
    warm.close();
    if warm.delivered() < warm.attempted() {
        return Err(format!(
            "warm-up: {} of {} ops never delivered",
            warm.attempted() - warm.delivered(),
            warm.attempted()
        ));
    }
    for g in 0..groups {
        if !dep.await_deliveries(g, spec.warm, Duration::from_secs(30)) {
            return Err(format!("group {g}: warm-up never reached every member"));
        }
    }
    let setup_s = proc_start.elapsed().as_secs_f64();

    let tap = dep.tap();
    let edge0 = tap.map(Edge::take);
    if let Some(t) = tap {
        t.capture(true);
    }
    let threads0 = sys::thread_cpu();
    let mut faults = Faults::default();
    let mut load = match spec.mode {
        Mode::Closed { window } => drive_closed(&*dep, spec, &plan, &timed_lanes, window)?,
        Mode::Open { rate } => {
            let progress = Arc::new(Progress::default());
            let (node, _) = spec.conns[0];
            let addr = dep.addr(node);
            let ops = &timed_lanes[&0];
            std::thread::scope(|s| {
                let load = std::thread::Builder::new()
                    .name("gp-load".into())
                    .spawn_scoped(s, || loadgen::open(addr, &plan, ops, rate, IDLE, &progress))
                    .map_err(|e| e.to_string())?;
                if spec.partition {
                    faults = control_partition(&*dep, &progress);
                }
                let load = load.join().map_err(|_| "load thread panicked".to_string())?;
                load.map_err(|e| format!("load connection failed: {e}"))
            })?
        }
    };
    let threads1 = sys::thread_cpu();
    let rss_peak_mb = sys::status_kb("VmHWM") / 1024.0;
    let edge1 = tap.map(Edge::take);
    if let Some(t) = tap {
        t.capture(false);
    }
    load.close();
    let role = sys::role_cpu_s(&threads0, &threads1);
    let cpu_s = role.values().sum::<f64>() + load.cpu_s;

    let attempted = load.attempted();
    let delivered = load.delivered();
    let mut submitted = vec![false; plan.len()];
    for (i, s) in warm.start.iter().enumerate() {
        submitted[i] = s.is_some();
    }
    for (i, s) in load.start.iter().enumerate() {
        submitted[i] |= s.is_some();
    }
    for g in 0..groups {
        let count = submitted.iter().enumerate().filter(|(i, s)| **s && plan.groups[*i] == g);
        let count = count.count();
        // A member that misses ops fails the exactly-once check below.
        dep.await_deliveries(g, count, Duration::from_secs(10));
    }

    let mut out = TrialOut { attempted, failed: attempted - delivered, ..TrialOut::default() };
    if let Some(e) = faults.error.take() {
        out.failures.push(format!("ring_partition: {e}"));
    }
    let first = load.first_submit.ok_or("no timed op was submitted")?;
    let last = load.last_done().ok_or("no timed op was delivered")?;
    let window_s = last.duration_since(first).as_secs_f64();
    let lat = load.latencies_us();
    out.put("setup_s", setup_s);
    out.put("throughput_ops_s", delivered as f64 / window_s);
    out.put("latency_p50_us", sys::quantile(&lat, 0.50));
    out.put("latency_p99_us", sys::quantile(&lat, 0.99));
    out.put("cpu_us_per_op", cpu_s * 1e6 / delivered.max(1) as f64);
    out.put("rss_peak_mb", rss_peak_mb);
    if spec.partition {
        let fs: Vec<Instant> = faults.cut.into_iter().chain(faults.heal).collect();
        out.put("unavailable_ms", unavailable_ms(&load, &fs));
    }

    // The ledger's transport and runtime counters, before shutdown.
    let mut ledger = Vec::new();
    let mut captured = None;
    let mut spans = Vec::new();
    let mut window_ns = None;
    if let (Some(t), Some(e0), Some(e1)) = (tap, &edge0, &edge1) {
        let ops = delivered.max(1) as f64;
        let cpu = |name: &str| role.get(name).copied().unwrap_or(0.0) * 1e6 / ops;
        ledger.push(("runtime.node_loop_cpu_us_per_op", cpu("gp-node")));
        ledger.push(("transport.io_cpu_us_per_op", cpu("gp-io")));
        ledger.push(("loadgen.cpu_us_per_op", load.cpu_s * 1e6 / ops));
        // Everything else: the main thread, which only waits here.
        let other: f64 = role.iter().filter(|(k, _)| !k.starts_with("gp-")).map(|(_, v)| v).sum();
        ledger.push(("main.cpu_us_per_op", other * 1e6 / ops));
        ledger.push(("runtime.recorded_events_per_op", (e1.recorded - e0.recorded) as f64 / ops));
        ledger.push(("runtime.rss_kb_per_op", (e1.rss_kb - e0.rss_kb) / ops));
        ledger.push(("transport.frames_per_op", (e1.frames_sent - e0.frames_sent) as f64 / ops));
        let sum = |f: fn(&gcs_net::TcpTransport) -> u64| t.transports().map(|x| f(x)).sum::<u64>();
        ledger
            .push(("transport.frames_dropped", sum(gcs_net::TcpTransport::frames_dropped) as f64));
        ledger.push((
            "transport.queue_full_drops",
            sum(gcs_net::TcpTransport::queue_full_drops) as f64,
        ));
        ledger.push(("shard.frames_rejected", sum(gcs_net::TcpTransport::frames_rejected) as f64));
        let reconnects = t.net_obs().registry.snapshot().counter_total("net_reconnects_total");
        ledger.push(("transport.reconnects", reconnects as f64));
        let views = dep.views(0);
        let installed = views.get(&ProcId(0)).map_or(0, Vec::len);
        ledger.push(("membership.views_installed", installed as f64));
        for log in t.logs() {
            spans.extend(log.spans());
        }
        spans.sort_by_key(|s| s.start_ns);
        let ns = |i: Instant| i.saturating_duration_since(t.epoch()).as_nanos() as u64;
        window_ns = Some((ns(e0.at), ns(e1.at), t.epoch()));
        let frames: Vec<Frame> = t.logs().iter().flat_map(|l| l.take_frames()).collect();
        captured = Some(Captured { frames, ops: delivered });
    }
    if spec.partition {
        ledger.push(("membership.cut_to_view_ms", faults.cut_to_view_ms));
        ledger.push(("membership.heal_to_view_ms", faults.heal_to_view_ms));
    }

    if spec.partition {
        let views: Vec<usize> = dep.views(0).values().map(Vec::len).collect();
        eprintln!("gcs-perf: ring_partition: views installed per node {views:?}");
    }
    let v = verify(dep, spec, &plan, &submitted, &mut out.failures);
    out.put("verify_s", v.total());
    if traced {
        for (name, value) in ledger {
            out.put(name, value);
        }
        out.put("core.to_check_s", v.to_s);
        out.put("core.cause_check_s", v.cause_s);
        out.put("obs.monitor_s", v.monitors_s);
        out.put("apps.kv_lin_check_s", v.kv_s);
        out.put("runtime.merge_s", v.merge_s.unwrap_or(0.0));
        out.put("loadgen.late_p99_us", sys::quantile(&load.late_ns, 0.99) / 1e3);
        out.put("shard.route_ns", sys::median(&plan.route_ns));
        if let Some((w0, w1, epoch)) = window_ns {
            span_metrics(&mut out, &spans, (w0, w1), &clients, &load, &plan);
            if let Some(path) = spans_out {
                write_spans(path, &spans, &load, &plan, epoch)
                    .map_err(|e| format!("writing spans: {e}"))?;
            }
        }
    }
    Ok((out, captured))
}

/// Per-layer numbers derived from the transport spans recorded inside
/// the timed window `[w0, w1]` (nanoseconds since the tap epoch).
fn span_metrics(
    out: &mut TrialOut,
    spans: &[Span],
    (w0, w1): (u64, u64),
    clients: &[ProcId],
    load: &LoadOut,
    plan: &Plan,
) {
    let in_window: Vec<&Span> =
        spans.iter().filter(|s| s.start_ns >= w0 && s.start_ns <= w1).collect();
    let dur = |pick: fn(Kind) -> bool| -> Vec<f64> {
        in_window.iter().filter(|s| pick(s.kind)).map(|s| (s.end_ns - s.start_ns) as f64).collect()
    };
    let sends = dur(|k| matches!(k, Kind::Send | Kind::SendToken));
    out.put("transport.send_ns_p50", sys::median(&sends));
    // Only nodes with a subscribed client encode and write their pushes.
    let pushes: Vec<f64> = in_window
        .iter()
        .filter(|s| s.kind == Kind::PushDeliveries && clients.contains(&ProcId(s.node)))
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    out.put("transport.push_deliveries_ns_p50", sys::median(&pushes));
    // Token rounds: a round's launch is its first send; its last hop is
    // the send back to the launching node.
    struct Round {
        launch_ns: u64,
        leader: u32,
        entries: u32,
        last_hop_ns: Option<u64>,
    }
    let tokens = || in_window.iter().filter(|s| s.kind == Kind::SendToken);
    let mut rounds: BTreeMap<(u32, (u64, u32), u64), Round> = BTreeMap::new();
    for s in tokens() {
        let r = rounds.entry((s.group, s.view, s.round)).or_insert(Round {
            launch_ns: s.start_ns,
            leader: s.node,
            entries: s.items,
            last_hop_ns: None,
        });
        if s.start_ns < r.launch_ns {
            (r.launch_ns, r.leader, r.entries) = (s.start_ns, s.node, s.items);
        }
    }
    for s in tokens() {
        if let Some(r) = rounds.get_mut(&(s.group, s.view, s.round)) {
            if s.peer == r.leader && s.node != r.leader {
                r.last_hop_ns = Some(s.start_ns);
            }
        }
    }
    let entries: u64 = rounds.values().map(|r| u64::from(r.entries)).sum();
    out.put("vsimpl.ops_per_token", entries as f64 / rounds.len().max(1) as f64);
    let rotation: Vec<f64> = rounds
        .values()
        .filter_map(|r| Some(r.last_hop_ns?.checked_sub(r.launch_ns)? as f64 / 1e3))
        .collect();
    out.put("vsimpl.rotation_us_p50", sys::median(&rotation));
    // Group balance: each group's delivered ops over the common window.
    let mut per_group: BTreeMap<u32, (usize, Option<Instant>)> = BTreeMap::new();
    for (i, d) in load.done.iter().enumerate() {
        if let Some(d) = d {
            let e = per_group.entry(plan.groups[i]).or_insert((0, None));
            e.0 += 1;
            e.1 = e.1.max(Some(*d));
        }
    }
    let rates: Vec<f64> = per_group
        .values()
        .filter_map(|(n, last)| {
            let secs = last.as_ref()?.duration_since(load.first_submit?).as_secs_f64();
            (secs > 0.0).then(|| *n as f64 / secs)
        })
        .collect();
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    out.put("shard.group_rate_max_over_min", if rates.is_empty() { 0.0 } else { max / min });
}

/// Writes the transport spans and one `op` span per timed operation
/// (submit or due time → delivery at the client; `peer` holds the op
/// index) as tab-separated lines.
fn write_spans(
    path: &std::path::Path,
    spans: &[Span],
    load: &LoadOut,
    plan: &Plan,
    epoch: Instant,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "kind\tnode\tgroup\tpeer\tstart_ns\tend_ns\tview_epoch\tround\titems")?;
    for s in spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.kind.name(),
            s.node,
            s.group,
            s.peer,
            s.start_ns,
            s.end_ns,
            s.view.0,
            s.round,
            s.items
        )?;
    }
    let ns = |i: &Instant| i.saturating_duration_since(epoch).as_nanos();
    for (i, (s, d)) in load.start.iter().zip(&load.done).enumerate() {
        if let (Some(s), Some(d)) = (s, d) {
            writeln!(f, "op\t-\t{}\t{i}\t{}\t{}\t0\t0\t1", plan.groups[i], ns(s), ns(d))?;
        }
    }
    f.flush()
}
