//! The clusters a trial runs against, behind one small interface.
//!
//! Untraced trials use the program's own loopback harnesses
//! ([`LoopbackCluster`], [`ShardCluster`]), so end-to-end numbers are
//! those of the code users run. Traced trials build the same nodes by
//! hand — `NodeCore::new` + `TcpTransport::start_with_obs` +
//! `run_core_loop`, as `NetNode::launch` and `ShardNode::start` do — but
//! on named threads and behind [`Tap`], a [`Transport`] wrapper that
//! spans every call into the transport layer.

use gcs_ioa::TimedTrace;
use gcs_model::{ProcId, Value, View};
use gcs_net::codec::Frame;
use gcs_net::runtime::{merge_recordings, run_core_loop, Clock, NodeCore, Recorded};
use gcs_net::transport::{GroupEndpoint, Incoming, TcpTransport, Transport, TransportConfig};
use gcs_net::{ClusterConfig, LoopbackCluster};
use gcs_netsim::TraceEvent;
use gcs_obs::Obs;
use gcs_shard::{ShardCluster, ShardClusterConfig};
use gcs_vsimpl::{ImplEvent, ProtoConfig, Wire};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A merged, checkable trace per group.
pub type Traces = BTreeMap<u32, TimedTrace<TraceEvent<ImplEvent>>>;

/// Trace-ring capacity per group: large enough that a whole trial's
/// event stream fits, so the bound monitors see every event.
const RING_TRACE_CAPACITY: usize = 1 << 22;
const SHARD_TRACE_CAPACITY: usize = 1 << 21;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shape of a deployment.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Physical nodes.
    pub n: u32,
    /// Member set per group (group id = index).
    pub groups: Vec<BTreeSet<ProcId>>,
    /// The protocol δ in milliseconds.
    pub delta_ms: u64,
}

impl Shape {
    /// One group over all `n` nodes.
    pub fn ring(n: u32, delta_ms: u64) -> Shape {
        Shape { n, groups: vec![ProcId::range(n)], delta_ms }
    }

    /// `g` groups of `k` consecutive nodes (the sharded ring topology).
    pub fn shard(n: u32, g: u32, k: u32, delta_ms: u64) -> Shape {
        Shape { n, groups: ShardClusterConfig::ring(n, g, k, delta_ms).groups, delta_ms }
    }

    pub fn is_ring(&self) -> bool {
        self.groups.len() == 1
    }

    fn shard_config(&self) -> ShardClusterConfig {
        ShardClusterConfig {
            n: self.n,
            groups: self.groups.clone(),
            delta_ms: self.delta_ms,
            transport: TransportConfig::default(),
        }
    }

    /// The protocol configuration of group `g`, exactly as the
    /// program's harnesses derive it.
    fn proto(&self, g: u32) -> ProtoConfig {
        if self.is_ring() {
            ProtoConfig::standard(self.n, self.delta_ms)
        } else {
            self.shard_config().proto(g as usize)
        }
    }
}

/// What a trial needs from a running cluster.
pub trait Deployment {
    fn addr(&self, p: ProcId) -> SocketAddr;
    /// The observability sink the bound monitors of group `g` read.
    fn obs(&self, g: u32) -> &Obs;
    /// Installed-view history per live member of group `g`.
    fn views(&self, g: u32) -> BTreeMap<ProcId, Vec<View>>;
    /// Delivered values per member of group `g`, in delivery order.
    fn delivered(&self, g: u32) -> BTreeMap<ProcId, Vec<Value>>;
    /// Blocks until every live member of `g` delivered `count` values.
    fn await_deliveries(&self, g: u32, count: usize, deadline: Duration) -> bool;
    /// Cuts every link to and from `p` (single-group deployments).
    fn isolate(&self, p: ProcId);
    /// Heals the cut made by [`Deployment::isolate`].
    fn rejoin(&self, p: ProcId);
    /// Stops every node and merges each group's recorded trace; also
    /// returns the seconds the merge took when it can be told apart
    /// from the shutdown.
    fn stop(self: Box<Self>) -> (Traces, Option<f64>);
    /// The traced cluster behind this deployment, if it is one.
    fn tap(&self) -> Option<&TapCluster> {
        None
    }
}

/// Starts the program's own harness for `shape`.
pub fn start_plain(shape: &Shape) -> std::io::Result<Box<dyn Deployment>> {
    if shape.is_ring() {
        let obs = Obs::with_trace_capacity(RING_TRACE_CAPACITY);
        let config = ClusterConfig {
            n: shape.n,
            delta_ms: shape.delta_ms,
            transport: TransportConfig::default(),
        };
        let cluster = LoopbackCluster::start_with_obs(config, obs.clone())?;
        Ok(Box::new(Loopback { cluster, obs }))
    } else {
        Ok(Box::new(ShardCluster::start(shape.shard_config(), SHARD_TRACE_CAPACITY)?))
    }
}

struct Loopback {
    cluster: LoopbackCluster,
    obs: Obs,
}

impl Deployment for Loopback {
    fn addr(&self, p: ProcId) -> SocketAddr {
        self.cluster.addr(p)
    }

    fn obs(&self, _g: u32) -> &Obs {
        &self.obs
    }

    fn views(&self, _g: u32) -> BTreeMap<ProcId, Vec<View>> {
        let views = self.cluster.views();
        (0..self.cluster.n()).map(ProcId).filter(|p| self.cluster.is_up(*p)).zip(views).collect()
    }

    fn delivered(&self, _g: u32) -> BTreeMap<ProcId, Vec<Value>> {
        self.cluster
            .delivered()
            .into_iter()
            .enumerate()
            .map(|(i, s)| (ProcId(i as u32), s.into_iter().map(|(_, v)| v).collect()))
            .collect()
    }

    fn await_deliveries(&self, _g: u32, count: usize, deadline: Duration) -> bool {
        self.cluster.await_deliveries(count, deadline)
    }

    fn isolate(&self, p: ProcId) {
        self.cluster.isolate(p);
    }

    fn rejoin(&self, p: ProcId) {
        self.cluster.rejoin(p);
    }

    fn stop(self: Box<Self>) -> (Traces, Option<f64>) {
        (BTreeMap::from([(0, self.cluster.stop())]), None)
    }
}

impl Deployment for ShardCluster {
    fn addr(&self, p: ProcId) -> SocketAddr {
        ShardCluster::addr(self, p)
    }

    fn obs(&self, g: u32) -> &Obs {
        self.group_obs(g)
    }

    fn views(&self, g: u32) -> BTreeMap<ProcId, Vec<View>> {
        ShardCluster::views(self, g)
    }

    fn delivered(&self, g: u32) -> BTreeMap<ProcId, Vec<Value>> {
        ShardCluster::delivered(self, g)
            .into_iter()
            .map(|(p, s)| (p, s.into_iter().map(|(_, v)| v).collect()))
            .collect()
    }

    fn await_deliveries(&self, g: u32, count: usize, deadline: Duration) -> bool {
        self.await_group_deliveries(g, count, deadline)
    }

    fn isolate(&self, _p: ProcId) {
        unimplemented!("the sharded workloads inject no faults")
    }

    fn rejoin(&self, _p: ProcId) {
        unimplemented!("the sharded workloads inject no faults")
    }

    fn stop(self: Box<Self>) -> (Traces, Option<f64>) {
        (ShardCluster::stop(*self).0, None)
    }
}

/// What kind of call into the transport a [`Span`] covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `Transport::send` of a token.
    SendToken,
    /// `Transport::send` of any other protocol packet.
    Send,
    /// `Transport::push_deliveries` (or `push_delivery`).
    PushDeliveries,
    /// `Transport::push_view`.
    PushView,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::SendToken => "send_token",
            Kind::Send => "send",
            Kind::PushDeliveries => "push_deliveries",
            Kind::PushView => "push_view",
        }
    }
}

/// One timed call into the transport layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub node: u32,
    pub group: u32,
    /// Destination of a send (the node itself otherwise).
    pub peer: u32,
    /// Nanoseconds since the tap epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// A token's view `(epoch, origin)` and round.
    pub view: (u64, u32),
    pub round: u64,
    /// Token entries, deliveries pushed, or 0.
    pub items: u32,
}

/// The in-memory span log of one node's group instance.
pub struct TapLog {
    node: u32,
    group: u32,
    epoch: Instant,
    /// Whether this node serves the benchmark's client, so its delivery
    /// pushes are encoded for a subscriber.
    client_facing: bool,
    capture: AtomicBool,
    spans: Mutex<Vec<Span>>,
    frames: Mutex<Vec<Frame>>,
}

impl TapLog {
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }

    /// Frames that crossed this tap while capture was on.
    pub fn take_frames(&self) -> Vec<Frame> {
        std::mem::take(&mut *lock(&self.frames))
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn capturing(&self) -> bool {
        // ordering: Relaxed — a sampling switch; a frame captured or
        // missed at the edge of the window changes nothing else.
        self.capture.load(Ordering::Relaxed)
    }
}

/// The benchmark's [`Transport`] wrapper: forwards every call and logs
/// it as a [`Span`]; while capture is on it also keeps a copy of each
/// frame for the codec replay.
pub struct Tap {
    inner: Arc<dyn Transport + Send + Sync>,
    log: Arc<TapLog>,
}

impl Tap {
    fn span(&self, kind: Kind, peer: u32, start_ns: u64, view: (u64, u32), round: u64, items: u32) {
        let end_ns = self.log.ns();
        let (node, group) = (self.log.node, self.log.group);
        let span = Span { kind, node, group, peer, start_ns, end_ns, view, round, items };
        lock(&self.log.spans).push(span);
    }
}

impl Transport for Tap {
    fn send(&self, to: ProcId, wire: Wire) {
        let (kind, view, round, items) = match &wire {
            Wire::Token(t) => {
                (Kind::SendToken, (t.view.epoch, t.view.origin.0), t.round, t.entries.len() as u32)
            }
            _ => (Kind::Send, (0, 0), 0, 0),
        };
        if self.log.capturing() {
            let frame = match self.log.group {
                0 => Frame::Peer(wire.clone()),
                group => Frame::PeerGroup { group, wire: wire.clone() },
            };
            lock(&self.log.frames).push(frame);
        }
        let t0 = self.log.ns();
        self.inner.send(to, wire);
        self.span(kind, to.0, t0, view, round, items);
    }

    fn push_delivery(&self, src: ProcId, a: &Value) {
        self.push_deliveries(&[(src, a.clone())]);
    }

    fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        if self.log.client_facing && self.log.capturing() {
            let frame = match self.log.group {
                0 => Frame::DeliverBatch(batch.to_vec()),
                group => Frame::DeliverGroup { group, batch: batch.to_vec() },
            };
            lock(&self.log.frames).push(frame);
        }
        let t0 = self.log.ns();
        self.inner.push_deliveries(batch);
        self.span(Kind::PushDeliveries, self.log.node, t0, (0, 0), 0, batch.len() as u32);
    }

    fn push_view(&self, view: &View) {
        let t0 = self.log.ns();
        self.inner.push_view(view);
        self.span(Kind::PushView, self.log.node, t0, (view.id.epoch, view.id.origin.0), 0, 0);
    }
}

/// One hosted group instance of a traced node.
struct TapGroup {
    events_tx: Sender<Incoming>,
    handle: Option<JoinHandle<NodeCore>>,
    recorded: Arc<Mutex<Vec<Recorded>>>,
    delivered: Arc<Mutex<Vec<(ProcId, Value)>>>,
    views: Arc<Mutex<Vec<View>>>,
}

struct TapNode {
    transport: Arc<TcpTransport>,
    groups: BTreeMap<u32, TapGroup>,
    /// Keeps the pre-registered group-0 route alive on a node that does
    /// not host group 0 (as `ShardNode` does).
    _park: Option<Receiver<Incoming>>,
}

/// A traced cluster: the program's node runtime on named threads
/// (`gp-node` runs a group's event loop; `gp-io` is inherited by every
/// transport thread), every transport call spanned.
pub struct TapCluster {
    shape: Shape,
    addrs: BTreeMap<ProcId, SocketAddr>,
    nodes: Vec<TapNode>,
    group_obs: Vec<Obs>,
    net_obs: Obs,
    logs: Vec<Arc<TapLog>>,
    epoch: Instant,
}

impl TapCluster {
    /// Boots `shape`; `clients` lists the nodes the benchmark's client
    /// connects to.
    pub fn start(shape: &Shape, clients: &[ProcId]) -> std::io::Result<TapCluster> {
        let mut listeners = Vec::new();
        let mut addrs = BTreeMap::new();
        for i in 0..shape.n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(ProcId(i), l.local_addr()?);
            listeners.push(l);
        }
        let clock = Clock::new();
        let (group_obs, net_obs) = if shape.is_ring() {
            // One sink for the whole single-group cluster, as
            // `LoopbackCluster` shares.
            let obs = Obs::with_trace_capacity(RING_TRACE_CAPACITY);
            (vec![obs.clone()], obs)
        } else {
            let per_group = shape
                .groups
                .iter()
                .map(|_| Obs::with_trace_capacity(SHARD_TRACE_CAPACITY))
                .collect();
            (per_group, Obs::new())
        };
        let epoch = Instant::now();
        let mut nodes = Vec::new();
        let mut logs = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = ProcId(i as u32);
            let (tx0, rx0) = mpsc::channel::<Incoming>();
            // Start the transport from a thread named for its role: the
            // accept loop, writers and readers it spawns inherit the name.
            let transport = {
                let (addrs, tx0, net_obs) = (addrs.clone(), tx0.clone(), net_obs.clone());
                std::thread::Builder::new()
                    .name("gp-io".into())
                    .spawn(move || {
                        TcpTransport::start_with_obs(
                            id,
                            listener,
                            &addrs,
                            TransportConfig::default(),
                            tx0,
                            net_obs,
                        )
                    })?
                    .join()
                    .map_err(|_| std::io::Error::other("transport start panicked"))??
            };
            let mut rx0 = Some(rx0);
            let mut groups = BTreeMap::new();
            for (g, members) in shape.groups.iter().enumerate() {
                let g = g as u32;
                if !members.contains(&id) {
                    continue;
                }
                let obs = &group_obs[g as usize];
                let proto = shape.proto(g);
                let core = if shape.is_ring() {
                    NodeCore::new(id, proto, clock.clone(), obs)
                } else {
                    NodeCore::new_in_group(id, proto, clock.clone(), obs, Some(g))
                };
                let (events_tx, events_rx) = match rx0.take() {
                    Some(rx) if g == 0 => (tx0.clone(), rx),
                    other => {
                        rx0 = other;
                        let (tx, rx) = mpsc::channel::<Incoming>();
                        transport.register_group(g, tx.clone());
                        (tx, rx)
                    }
                };
                let inner: Arc<dyn Transport + Send + Sync> = if shape.is_ring() {
                    transport.clone()
                } else {
                    Arc::new(GroupEndpoint::new(g, transport.clone()))
                };
                let log = Arc::new(TapLog {
                    node: id.0,
                    group: g,
                    epoch,
                    client_facing: clients.contains(&id),
                    capture: AtomicBool::new(false),
                    spans: Mutex::new(Vec::new()),
                    frames: Mutex::new(Vec::new()),
                });
                logs.push(log.clone());
                let (recorded, delivered, views) =
                    (core.recorded_handle(), core.delivered_handle(), core.views_handle());
                let tap = Tap { inner, log };
                let clock = clock.clone();
                let handle = std::thread::Builder::new()
                    .name("gp-node".into())
                    .spawn(move || run_core_loop(core, events_rx, &tap, &clock))?;
                groups.insert(
                    g,
                    TapGroup { events_tx, handle: Some(handle), recorded, delivered, views },
                );
            }
            nodes.push(TapNode { transport, groups, _park: rx0 });
        }
        Ok(TapCluster { shape: shape.clone(), addrs, nodes, group_obs, net_obs, logs, epoch })
    }

    /// Turns frame capture on or off at every tap.
    pub fn capture(&self, on: bool) {
        for log in &self.logs {
            // ordering: Relaxed — see `TapLog::capturing`.
            log.capture.store(on, Ordering::Relaxed);
        }
    }

    /// The instant span timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn logs(&self) -> &[Arc<TapLog>] {
        &self.logs
    }

    /// The sink the transports record frame counters into.
    pub fn net_obs(&self) -> &Obs {
        &self.net_obs
    }

    pub fn transports(&self) -> impl Iterator<Item = &Arc<TcpTransport>> {
        self.nodes.iter().map(|n| &n.transport)
    }

    /// Trace events recorded so far across every group instance.
    pub fn recorded_events(&self) -> usize {
        self.nodes.iter().flat_map(|n| n.groups.values()).map(|g| lock(&g.recorded).len()).sum()
    }

    fn member_groups(&self, g: u32) -> impl Iterator<Item = (ProcId, &TapGroup)> {
        self.shape.groups[g as usize]
            .iter()
            .filter_map(move |p| Some((*p, self.nodes.get(p.index())?.groups.get(&g)?)))
    }

    /// Stops every node; returns the merged traces and the seconds the
    /// merge took.
    fn shutdown(mut self) -> (Traces, f64) {
        for node in &self.nodes {
            for g in node.groups.values() {
                let _ = g.events_tx.send(Incoming::Stop);
            }
        }
        for node in &mut self.nodes {
            for g in node.groups.values_mut() {
                if let Some(h) = g.handle.take() {
                    let _ = h.join();
                }
            }
            node.transport.stop();
        }
        let t0 = Instant::now();
        let mut traces = BTreeMap::new();
        for g in 0..self.shape.groups.len() as u32 {
            let per_member: Vec<Vec<Recorded>> =
                self.member_groups(g).map(|(_, tg)| lock(&tg.recorded).clone()).collect();
            traces.insert(g, merge_recordings(&per_member));
        }
        (traces, t0.elapsed().as_secs_f64())
    }
}

impl Deployment for TapCluster {
    fn addr(&self, p: ProcId) -> SocketAddr {
        self.addrs[&p]
    }

    fn obs(&self, g: u32) -> &Obs {
        &self.group_obs[g as usize]
    }

    fn views(&self, g: u32) -> BTreeMap<ProcId, Vec<View>> {
        self.member_groups(g).map(|(p, tg)| (p, lock(&tg.views).clone())).collect()
    }

    fn delivered(&self, g: u32) -> BTreeMap<ProcId, Vec<Value>> {
        self.member_groups(g)
            .map(|(p, tg)| (p, lock(&tg.delivered).iter().map(|(_, v)| v.clone()).collect()))
            .collect()
    }

    fn await_deliveries(&self, g: u32, count: usize, deadline: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if self.member_groups(g).all(|(_, tg)| lock(&tg.delivered).len() >= count) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    fn isolate(&self, p: ProcId) {
        for q in (0..self.shape.n).map(ProcId).filter(|q| *q != p) {
            self.nodes[p.index()].transport.sever(q);
            self.nodes[q.index()].transport.sever(p);
        }
    }

    fn rejoin(&self, p: ProcId) {
        for q in (0..self.shape.n).map(ProcId).filter(|q| *q != p) {
            self.nodes[p.index()].transport.heal(q);
            self.nodes[q.index()].transport.heal(p);
        }
    }

    fn stop(self: Box<Self>) -> (Traces, Option<f64>) {
        let (traces, merge_s) = self.shutdown();
        (traces, Some(merge_s))
    }

    fn tap(&self) -> Option<&TapCluster> {
        Some(self)
    }
}
