//! Single-layer measurements for the per-layer ledger: each drives one
//! layer of the stack in isolation, in one thread, with no sockets.
//!
//! - [`codec`]: `gcs_net::codec` encode/decode over frames captured at
//!   the transport boundary of a traced trial.
//! - [`vsimpl`]: five `VsNode<TimedVsToTo>` pumped by a virtual-time
//!   event loop — the token ring and membership with no codec and no
//!   threads.
//! - [`runtime`]: five `NodeCore`s on a manual `Clock`, each send taking
//!   a codec round-trip through an in-memory `Transport`.
//! - [`membership`]: an idle 5-node loopback cluster, one node cut off
//!   and healed, timed to each new view.

use crate::loadgen::Plan;
use gcs_model::{Majority, ProcId, QuorumSystem, Time, Value};
use gcs_net::codec::{decode_payload, encode_payload_into, Frame};
use gcs_net::runtime::{Clock, NodeCore};
use gcs_net::transport::{Incoming, Transport};
use gcs_net::{ClusterConfig, LoopbackCluster};
use gcs_netsim::{CollectedEffects, Process};
use gcs_obs::Obs;
use gcs_shard::{RouterCore, ShardMap};
use gcs_vsimpl::{ImplEvent, ProtoConfig, TimedVsToTo, VsNode, Wire};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: u32 = 5;
const DELTA_MS: Time = 20;
/// Operations outstanding at node 0 in the pumped rings.
const WINDOW: usize = 1024;

/// `(encode ns/frame, decode ns/frame, encoded bytes per op)` over the
/// captured frames, each pass repeated until `budget` has elapsed.
pub fn codec(frames: &[Frame], ops: usize, budget: Duration) -> (f64, f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut buf = Vec::new();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let mut bytes = 0usize;
    for f in frames {
        let mut e = Vec::new();
        encode_payload_into(&mut e, f);
        // 4-byte length prefix on the wire.
        bytes += e.len() + 4;
        encoded.push(e);
    }
    let (mut enc_frames, t0) = (0usize, Instant::now());
    while t0.elapsed() < budget {
        for f in frames {
            buf.clear();
            encode_payload_into(&mut buf, black_box(f));
            black_box(&buf);
        }
        enc_frames += frames.len();
    }
    let enc_ns = t0.elapsed().as_nanos() as f64 / enc_frames as f64;
    let (mut dec_frames, t0) = (0usize, Instant::now());
    while t0.elapsed() < budget {
        for e in &encoded {
            let f = decode_payload(black_box(e)).expect("captured frames decode");
            black_box(f);
        }
        dec_frames += encoded.len();
    }
    let dec_ns = t0.elapsed().as_nanos() as f64 / dec_frames as f64;
    (enc_ns, dec_ns, bytes as f64 / ops.max(1) as f64)
}

/// The KV commands the pumped rings submit at node 0.
fn ring_values(seed: u64, ops: usize) -> Vec<Value> {
    let mut router = RouterCore::new(ShardMap::new(vec![ProcId::range(N)]));
    Plan::new(seed, &mut router, 1, ops).values
}

/// A ring [`drive`] can pump: submit at node 0, take one
/// step (a message or a timer), count deliveries per node.
trait Pump {
    fn submit(&mut self, values: &[Value]);
    /// Handles the next message, or fires the next timer; `false` when
    /// virtual time ran past any plausible progress.
    fn step(&mut self) -> bool;
    fn delivered(&self, node: usize) -> usize;
}

/// Virtual time after which a pumped ring counts as stalled.
const STALL_MS: Time = 600_000;

/// Pumps until every node delivered `base + values.len()` values,
/// keeping [`WINDOW`] operations outstanding at node 0.
fn drive(p: &mut dyn Pump, values: &[Value], base: usize) -> Result<(), String> {
    let total = base + values.len();
    let mut next = 0;
    while (0..N as usize).any(|i| p.delivered(i) < total) {
        let room = WINDOW.saturating_sub(base + next - p.delivered(0)).min(values.len() - next);
        if room > 0 {
            p.submit(&values[next..next + room]);
            next += room;
        } else if !p.step() {
            return Err("the pumped ring stalled".into());
        }
    }
    Ok(())
}

/// Nanoseconds of wall time per timed operation after a warm-up.
fn time_pump(p: &mut dyn Pump, seed: u64, warm: usize, ops: usize) -> Result<f64, String> {
    let values = ring_values(seed, warm + ops);
    drive(p, &values[..warm], 0)?;
    let t0 = Instant::now();
    drive(p, &values[warm..], warm)?;
    Ok(t0.elapsed().as_nanos() as f64 / ops as f64)
}

/// A pending timer: `(due, node, kind)`, earliest first.
type Timers = BinaryHeap<Reverse<(Time, u32, u64)>>;

/// Five `VsNode`s under a virtual-time event loop: messages are handled
/// in FIFO order at the current time; when none is pending, time jumps
/// to the next timer.
struct VsRing {
    nodes: Vec<VsNode<TimedVsToTo>>,
    fx: Vec<CollectedEffects<Wire, ImplEvent>>,
    queue: VecDeque<(u32, ProcId, Wire)>,
    timers: Timers,
    delivered: Vec<usize>,
    now: Time,
}

impl VsRing {
    fn new() -> VsRing {
        let proto = ProtoConfig::standard(N, DELTA_MS);
        let quorums: Arc<dyn QuorumSystem> = Arc::new(Majority::new(N as usize));
        let nodes = (0..N)
            .map(|i| {
                let client = TimedVsToTo::new(ProcId(i), &proto.p0, quorums.clone());
                VsNode::new(ProcId(i), proto.clone(), client)
            })
            .collect();
        let mut ring = VsRing {
            nodes,
            fx: (0..N).map(|_| CollectedEffects::new(0)).collect(),
            queue: VecDeque::new(),
            timers: Timers::new(),
            delivered: vec![0; N as usize],
            now: 0,
        };
        for i in 0..N {
            ring.nodes[i as usize].on_start(&mut ring.fx[i as usize].ctx());
            ring.drain(i);
        }
        ring
    }

    /// Moves node `i`'s effects into the shared queues.
    fn drain(&mut self, i: u32) {
        let fx = &mut self.fx[i as usize];
        for (to, w) in fx.take_sends() {
            self.queue.push_back((i, to, w));
        }
        for (delay, kind) in std::mem::take(&mut fx.timers) {
            self.timers.push(Reverse((self.now + delay, i, kind)));
        }
        for e in std::mem::take(&mut fx.emits) {
            if matches!(e, ImplEvent::Brcv { .. }) {
                self.delivered[i as usize] += 1;
            }
        }
    }
}

impl Pump for VsRing {
    fn submit(&mut self, values: &[Value]) {
        let f = &mut self.fx[0];
        f.set_now(self.now);
        for v in values {
            self.nodes[0].on_input(v.clone(), &mut f.ctx());
        }
        self.drain(0);
    }

    fn step(&mut self) -> bool {
        if let Some((from, to, w)) = self.queue.pop_front() {
            let f = &mut self.fx[to.index()];
            f.set_now(self.now);
            self.nodes[to.index()].on_message(ProcId(from), w, &mut f.ctx());
            self.drain(to.0);
        } else if let Some(Reverse((due, i, kind))) = self.timers.pop() {
            self.now = self.now.max(due);
            let f = &mut self.fx[i as usize];
            f.set_now(self.now);
            self.nodes[i as usize].on_timer(kind, &mut f.ctx());
            self.drain(i);
        }
        self.now < STALL_MS
    }

    fn delivered(&self, node: usize) -> usize {
        self.delivered[node]
    }
}

/// Nanoseconds of wall time per operation through five `VsNode`s,
/// closed loop at node 0 (after `warm` warm-up operations).
pub fn vsimpl(seed: u64, warm: usize, ops: usize) -> Result<f64, String> {
    time_pump(&mut VsRing::new(), seed, warm, ops)
}

/// An in-memory transport for one node: each send is encoded and
/// decoded by the wire codec, then queued for its destination.
struct MemTransport {
    me: ProcId,
    queue: Rc<RefCell<VecDeque<(ProcId, ProcId, Wire)>>>,
    buf: RefCell<Vec<u8>>,
}

impl Transport for MemTransport {
    fn send(&self, to: ProcId, wire: Wire) {
        let mut buf = self.buf.borrow_mut();
        buf.clear();
        encode_payload_into(&mut buf, &Frame::Peer(wire));
        if let Ok(Frame::Peer(w)) = decode_payload(&buf) {
            self.queue.borrow_mut().push_back((self.me, to, w));
        }
    }

    fn push_delivery(&self, src: ProcId, a: &Value) {
        self.push_deliveries(&[(src, a.clone())]);
    }

    fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        let mut buf = self.buf.borrow_mut();
        buf.clear();
        encode_payload_into(&mut buf, &Frame::DeliverBatch(batch.to_vec()));
        black_box(&buf);
    }
}

/// Five `NodeCore`s on one manual clock, each behind a [`MemTransport`].
struct CoreRing {
    clock: Arc<Clock>,
    queue: Rc<RefCell<VecDeque<(ProcId, ProcId, Wire)>>>,
    transports: Vec<MemTransport>,
    cores: Vec<NodeCore>,
}

impl CoreRing {
    fn new() -> CoreRing {
        let clock = Clock::manual();
        let obs = Obs::new();
        let queue = Rc::new(RefCell::new(VecDeque::new()));
        let transports: Vec<MemTransport> = (0..N)
            .map(|i| MemTransport { me: ProcId(i), queue: queue.clone(), buf: RefCell::default() })
            .collect();
        let mut cores: Vec<NodeCore> = (0..N)
            .map(|i| {
                NodeCore::new(ProcId(i), ProtoConfig::standard(N, DELTA_MS), clock.clone(), &obs)
            })
            .collect();
        for (core, t) in cores.iter_mut().zip(&transports) {
            core.boot(t);
        }
        CoreRing { clock, queue, transports, cores }
    }
}

impl Pump for CoreRing {
    fn submit(&mut self, values: &[Value]) {
        self.cores[0].handle(Incoming::Submit { batch: values.to_vec() }, &self.transports[0]);
    }

    fn step(&mut self) -> bool {
        let msg = self.queue.borrow_mut().pop_front();
        if let Some((from, to, wire)) = msg {
            self.cores[to.index()]
                .handle(Incoming::Wire { from, wire }, &self.transports[to.index()]);
        } else if let Some((i, due)) = self
            .cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((i, c.next_timer_due()?)))
            .min_by_key(|(_, d)| *d)
        {
            self.clock.advance_to(due);
            self.cores[i].tick(&self.transports[i]);
        }
        self.clock.now_ms() < STALL_MS
    }

    fn delivered(&self, node: usize) -> usize {
        self.cores[node].delivered_handle().lock().map_or(0, |d| d.len())
    }
}

/// Nanoseconds of wall time per operation through five `NodeCore`s on a
/// manual clock (one thread, codec round-trip on every send), closed
/// loop at node 0 (after `warm` warm-up operations).
pub fn runtime(seed: u64, warm: usize, ops: usize) -> Result<f64, String> {
    time_pump(&mut CoreRing::new(), seed, warm, ops)
}

/// Milliseconds from cutting node 4 off an idle 5-node loopback
/// cluster (δ = 20 ms) until nodes 0–3 run a 4-member view, and from
/// healing until all five run a 5-member view again.
pub fn membership() -> Result<(f64, f64), String> {
    let cluster = LoopbackCluster::start(ClusterConfig::patient(N)).map_err(|e| e.to_string())?;
    let size_is = |size: usize, skip: Option<usize>| {
        cluster
            .views()
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != skip)
            .all(|(_, vs)| vs.last().is_some_and(|v| v.size() == size))
    };
    let wait = |what: &str, pred: &dyn Fn() -> bool| -> Result<f64, String> {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if pred() {
                return Ok(t0.elapsed().as_secs_f64() * 1e3);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(format!("membership probe: {what} never formed"))
    };
    // Let the ring settle into steady rotation first.
    std::thread::sleep(Duration::from_millis(300));
    let victim = ProcId(N - 1);
    cluster.isolate(victim);
    let cut = wait("the 4-member view", &|| size_is(N as usize - 1, Some(victim.index())));
    cluster.rejoin(victim);
    let heal = wait("the healed view", &|| size_is(N as usize, None));
    cluster.stop();
    Ok((cut?, heal?))
}
