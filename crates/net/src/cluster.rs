//! The loopback cluster harness: boots `n` nodes on ephemeral localhost
//! ports, each hosting every group whose member set contains it, drives
//! client traffic, severs and re-establishes TCP links to emulate
//! partitions and merges, crashes and restarts whole nodes
//! (stable-storage recovery of every hosted group), and hands each
//! group's merged recorded trace — across every incarnation — to the
//! VS/TO safety checkers.
//!
//! [`GroupCluster`] is the one implementation. [`LoopbackCluster`] is its
//! single-group view: one group over all `n` nodes, whose event stream
//! and transport counters share one [`Obs`] sink.
//!
//! With several groups the per-group [`Obs`] split matters: the b/d
//! monitors assume they are watching *one* group's event stream (one
//! ring, one membership), so a node hosting three groups records each
//! core's events into that group's sink, and the transports' frame
//! counters go to a separate network sink. Fault injection writes the
//! corresponding `Fault` trace event into the sink of every group the
//! fault can disturb — a severed (p, q) pair disturbs exactly the groups
//! containing both endpoints, a crash of p every group containing p —
//! which is what lets the stabilization monitor excuse the disturbed
//! interval per group, exactly as Theorem 8.1's premise does.

use crate::runtime::{merge_recordings, Clock, NetNode, NodeCore, Recorded};
use crate::transport::{LockExt, ShutdownReport, TransportConfig};
use gcs_ioa::TimedTrace;
use gcs_model::{ProcId, Time, Value, View};
use gcs_netsim::TraceEvent;
use gcs_obs::{EventKind, FaultKind, Obs};
use gcs_vsimpl::{ImplEvent, ProtoConfig, StableState, TimedVsToTo};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A merged, checkable trace.
type Trace = TimedTrace<TraceEvent<ImplEvent>>;

/// Multi-group cluster parameters.
#[derive(Clone, Debug)]
pub struct GroupClusterConfig {
    /// Number of physical nodes.
    pub n: u32,
    /// Member sets per group (group id = index). Groups may overlap.
    pub groups: Vec<BTreeSet<ProcId>>,
    /// The protocol δ in milliseconds (per group: π = 2kδ, μ = 4kδ for
    /// a k-member group). Over loopback the physical delay is
    /// microseconds, so δ sets the protocol's *patience*, not an
    /// injected latency.
    pub delta_ms: Time,
    /// Transport knobs.
    pub transport: TransportConfig,
}

impl GroupClusterConfig {
    /// The ring topology: `g` groups of `members_per_group` consecutive
    /// nodes, `group i = {i, i+1, …} mod n`. With `n = 5, g = 4, k = 3`
    /// this makes node 2 host three groups and lets a single group be
    /// partitioned by severing two link pairs; `ring(n, 1, n, δ)` is the
    /// single group over every node.
    pub fn ring(n: u32, g: u32, members_per_group: u32, delta_ms: Time) -> GroupClusterConfig {
        let groups = (0..g)
            .map(|i| (0..members_per_group.min(n)).map(|j| ProcId((i + j) % n)).collect())
            .collect();
        GroupClusterConfig { n, groups, delta_ms, transport: TransportConfig::default() }
    }

    /// The protocol configuration of group `g`: its member set is both
    /// the ambient set and P₀, with the standard timer scaling.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a group of this configuration.
    pub fn proto(&self, g: usize) -> ProtoConfig {
        // gcs-lint: allow(panic_path, reason = "documented `# Panics` harness contract: asking for a group the configuration does not have is a test bug that must fail loudly")
        ProtoConfig::for_members(self.groups[g].clone(), self.delta_ms)
    }

    /// The group ids whose member sets contain `p`.
    pub fn groups_of(&self, p: ProcId) -> Vec<u32> {
        (0..self.groups.len() as u32).filter(|&g| self.members(g).contains(&p)).collect()
    }

    /// The member set of group `g` (empty for an unknown group).
    fn members(&self, g: u32) -> BTreeSet<ProcId> {
        self.groups.get(g as usize).cloned().unwrap_or_default()
    }
}

/// One node slot: the node and the stable-storage snapshots a restart
/// recovers from.
struct Slot {
    /// The live incarnation, or — while the node is down — the crashed
    /// one, kept for what it delivered, installed and recorded.
    node: NetNode,
    up: bool,
    incarnation: u64,
    stable: BTreeMap<u32, StableState<TimedVsToTo>>,
}

/// A running loopback cluster of nodes hosting overlapping groups.
pub struct GroupCluster {
    slots: Vec<Slot>,
    addrs: BTreeMap<ProcId, SocketAddr>,
    clock: Arc<Clock>,
    group_obs: Vec<Obs>,
    net_obs: Obs,
    /// The single-group view ([`LoopbackCluster`]): group 0's sink is the
    /// transports' sink, which already records every link fault, and
    /// counters carry no `group` label.
    single: bool,
    config: GroupClusterConfig,
}

impl GroupCluster {
    /// Binds `n` ephemeral listeners and boots every node with the
    /// groups it belongs to. Each group gets a fresh [`Obs`] with the
    /// given trace capacity; the transports share one network sink.
    pub fn start(config: GroupClusterConfig, trace_capacity: usize) -> io::Result<GroupCluster> {
        let group_obs =
            (0..config.groups.len()).map(|_| Obs::with_trace_capacity(trace_capacity)).collect();
        GroupCluster::launch(config, group_obs, Obs::new(), false)
    }

    fn launch(
        config: GroupClusterConfig,
        group_obs: Vec<Obs>,
        net_obs: Obs,
        single: bool,
    ) -> io::Result<GroupCluster> {
        let mut listeners = Vec::new();
        let mut addrs = BTreeMap::new();
        for i in 0..config.n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(ProcId(i), listener.local_addr()?);
            listeners.push(listener);
        }
        let clock = Clock::new();
        let slots = Vec::new();
        let mut cluster = GroupCluster { slots, addrs, clock, group_obs, net_obs, single, config };
        for (i, listener) in listeners.into_iter().enumerate() {
            let node = cluster.boot(ProcId(i as u32), listener, 0, BTreeMap::new(), None)?;
            let stable = BTreeMap::new();
            cluster.slots.push(Slot { node, up: true, incarnation: 0, stable });
        }
        Ok(cluster)
    }

    /// Boots incarnation `incarnation` of node `p`: one core per hosted
    /// group, recovered from `stable` where it holds the group's
    /// snapshot, and seeded with the history of the `crashed`
    /// predecessor so that per-node queries span every incarnation.
    /// Incarnation `k > 0` uses an outbound connection-generation base of
    /// `k << 32`, so peers accept its new connections instead of
    /// refusing them as stale.
    fn boot(
        &self,
        p: ProcId,
        listener: TcpListener,
        incarnation: u64,
        mut stable: BTreeMap<u32, StableState<TimedVsToTo>>,
        crashed: Option<&NetNode>,
    ) -> io::Result<NetNode> {
        let mut transport = self.config.transport.clone();
        if incarnation > 0 {
            transport.generation_base = incarnation << 32;
        }
        let mut cores = Vec::new();
        for g in self.config.groups_of(p) {
            let (proto, clock, obs) =
                (self.config.proto(g as usize), self.clock.clone(), self.group_obs(g));
            let label = (!self.single).then_some(g);
            let core = match stable.remove(&g) {
                Some(s) => NodeCore::recover_in_group(p, proto, clock, obs, s, label),
                None => NodeCore::new_in_group(p, proto, clock, obs, label),
            };
            if let Some(old) = crashed {
                // A recovered core starts with empty histories, so this
                // puts the crashed incarnation's ahead of everything new.
                core.recorded_handle().lock_clean().extend(old.recorded(g));
                core.delivered_handle().lock_clean().extend(old.delivered(g));
                core.views_handle().lock_clean().extend(old.views(g));
            }
            cores.push((g, core));
        }
        let (clock, net_obs) = (self.clock.clone(), self.net_obs.clone());
        NetNode::start_groups(p, listener, &self.addrs, transport, clock, net_obs, cores)
    }

    fn slot(&self, p: ProcId) -> &Slot {
        // gcs-lint: allow(panic_path, reason = "test-harness accessor; p.index() is bounded by the cluster's own node count")
        &self.slots[p.index()]
    }

    fn slot_mut(&mut self, p: ProcId) -> &mut Slot {
        // gcs-lint: allow(panic_path, reason = "test-harness accessor; p.index() is bounded by the cluster's own node count")
        &mut self.slots[p.index()]
    }

    /// The configuration this cluster was started with.
    pub fn config(&self) -> &GroupClusterConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn n(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The observability sink of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a group of this cluster.
    pub fn group_obs(&self, g: u32) -> &Obs {
        // gcs-lint: allow(panic_path, reason = "documented `# Panics` harness contract: asking for a group the cluster does not run is a test bug that must fail loudly")
        &self.group_obs[g as usize]
    }

    /// The shared network (transport) observability sink.
    pub fn net_obs(&self) -> &Obs {
        &self.net_obs
    }

    /// The bound address of node `p` (for external TCP clients).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a node of this cluster.
    pub fn addr(&self, p: ProcId) -> SocketAddr {
        // gcs-lint: allow(panic_path, reason = "documented `# Panics` harness contract: every ProcId a test holds comes from this cluster's own node set")
        self.addrs[&p]
    }

    /// The node handle for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is currently crashed.
    pub fn node(&self, p: ProcId) -> &NetNode {
        let slot = self.slot(p);
        assert!(slot.up, "node {p} is crashed");
        &slot.node
    }

    /// Whether node `p` is currently running (not crashed).
    pub fn is_up(&self, p: ProcId) -> bool {
        self.slot(p).up
    }

    /// Submits a value into group `g` at member `p` through its local
    /// event path. Returns whether `p` hosts `g`.
    pub fn submit(&self, g: u32, p: ProcId, a: Value) -> bool {
        self.node(p).submit(g, a)
    }

    /// Per-member delivered streams of group `g`, keyed by member id,
    /// each spanning every incarnation of that member.
    pub fn delivered(&self, g: u32) -> BTreeMap<ProcId, Vec<(ProcId, Value)>> {
        self.config.members(g).into_iter().map(|p| (p, self.slot(p).node.delivered(g))).collect()
    }

    /// Per-member installed-view histories of group `g`, each spanning
    /// every incarnation of that member.
    pub fn views(&self, g: u32) -> BTreeMap<ProcId, Vec<View>> {
        self.config.members(g).into_iter().map(|p| (p, self.slot(p).node.views(g))).collect()
    }

    /// Blocks until every live member of group `g` has delivered at
    /// least `count` values (counting its crashed incarnations'
    /// deliveries), or the deadline passes; returns whether the goal was
    /// reached.
    pub fn await_group_deliveries(&self, g: u32, count: usize, deadline: Duration) -> bool {
        let members = self.config.members(g);
        let start = Instant::now();
        while start.elapsed() < deadline {
            let live = members.iter().map(|p| self.slot(*p)).filter(|s| s.up);
            if live.map(|s| s.node.delivered_count(g)).all(|c| c >= count) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// Records a fault event into the sink of every group in `groups`.
    fn record_fault(&self, groups: &[u32], node: u32, peer: u32, kind: FaultKind) {
        for &g in groups {
            self.group_obs(g).trace.record(EventKind::Fault { node, peer, kind });
        }
    }

    /// Applies a link fault to the (p, q) pair in both directions. The
    /// fault is recorded into every group containing *both* endpoints —
    /// exactly the groups whose communication it can disturb — unless
    /// the transports already record it into the group's own sink.
    fn link_fault(&self, p: ProcId, q: ProcId, kind: FaultKind) {
        for (a, b) in [(p, q), (q, p)] {
            let t = self.node(a).transport();
            match kind {
                FaultKind::Sever => t.sever(b),
                FaultKind::Heal => t.heal(b),
                _ => t.kick(b),
            }
        }
        if !self.single {
            let of_q = self.config.groups_of(q);
            let disturbed: Vec<u32> =
                self.config.groups_of(p).into_iter().filter(|g| of_q.contains(g)).collect();
            self.record_fault(&disturbed, p.0, q.0, kind);
        }
    }

    /// Severs the (p, q) link pair in both directions.
    pub fn sever_pair(&self, p: ProcId, q: ProcId) {
        self.link_fault(p, q, FaultKind::Sever);
    }

    /// Heals the (p, q) link pair.
    pub fn heal_pair(&self, p: ProcId, q: ProcId) {
        self.link_fault(p, q, FaultKind::Heal);
    }

    /// Kills the live TCP connections between `p` and `q` without
    /// blocking them: both sides lose in-flight frames and reconnect with
    /// backoff under fresh connection generations.
    pub fn kick_pair(&self, p: ProcId, q: ProcId) {
        self.link_fault(p, q, FaultKind::Kick);
    }

    /// Emulates a full partition of `p` from the rest: every link to and
    /// from `p` is severed at both endpoints.
    pub fn isolate(&self, p: ProcId) {
        for q in (0..self.n()).map(ProcId).filter(|q| *q != p) {
            self.sever_pair(p, q);
        }
    }

    /// Ends the emulated partition of `p`.
    pub fn rejoin(&self, p: ProcId) {
        for q in (0..self.n()).map(ProcId).filter(|q| *q != p) {
            self.heal_pair(p, q);
        }
    }

    /// Crashes node `p`: the incarnation stops abruptly (every hosted
    /// group's installed view, token, and buffers are lost), each group's
    /// stable-storage snapshot is kept for [`GroupCluster::restart`], and
    /// the crash is recorded as a fault in every group `p` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `p` is already crashed, or if a group loop of `p` had
    /// panicked and so left no snapshot.
    pub fn crash(&mut self, p: ProcId) {
        let hosted = self.node(p).hosted_groups();
        self.record_fault(&hosted, p.0, p.0, FaultKind::Crash);
        let slot = self.slot_mut(p);
        slot.up = false;
        slot.stable = slot.node.crash();
        assert_eq!(slot.stable.len(), hosted.len(), "a group loop of node {p} exited abnormally");
    }

    /// Restarts a crashed node `p` from its stable-storage snapshots. The
    /// fresh incarnation rebinds the *same* address — the standard
    /// library's listener sets `SO_REUSEADDR`, so connections of the
    /// crashed incarnation lingering in TIME_WAIT do not block it — and
    /// the restart is recorded as a fault in every group `p` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not crashed.
    pub fn restart(&mut self, p: ProcId) -> io::Result<()> {
        assert!(!self.is_up(p), "node {p} is not crashed");
        self.record_fault(&self.config.groups_of(p), p.0, p.0, FaultKind::Restart);
        let listener = TcpListener::bind(self.addr(p))?;
        let stable = std::mem::take(&mut self.slot_mut(p).stable);
        let slot = self.slot(p);
        let node = self.boot(p, listener, slot.incarnation + 1, stable, Some(&slot.node))?;
        let slot = self.slot_mut(p);
        (slot.node, slot.up) = (node, true);
        slot.incarnation += 1;
        Ok(())
    }

    /// Stops every node; returns each group's final merged trace (global
    /// sequence order, times clamped nondecreasing, every incarnation of
    /// every member) and the aggregated transport shutdown report —
    /// `report.clean()` asserts that not a single spawned thread outlived
    /// its bounded join deadline.
    pub fn stop(self) -> (BTreeMap<u32, Trace>, ShutdownReport) {
        let mut report = ShutdownReport::default();
        for slot in self.slots.iter().filter(|s| s.up) {
            report.absorb(slot.node.stop());
        }
        let traces = (0..self.config.groups.len() as u32).map(|g| {
            let members = self.config.members(g).into_iter();
            let per_member: Vec<Vec<Recorded>> =
                members.map(|p| self.slot(p).node.recorded(g)).collect();
            (g, merge_recordings(&per_member))
        });
        (traces.collect(), report)
    }
}

/// Single-group cluster parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: u32,
    /// The protocol δ in milliseconds. Over loopback the physical delay is
    /// microseconds, so δ here sets the protocol's *patience* (timer
    /// periods π = 2nδ, μ = 4nδ), not an injected latency.
    pub delta_ms: Time,
    /// Transport knobs.
    pub transport: TransportConfig,
}

impl ClusterConfig {
    /// A patient configuration for CI machines: δ = 20 ms, so a 5-node
    /// ring has π = 200 ms and a token timeout well above scheduling
    /// jitter.
    pub fn patient(n: u32) -> Self {
        ClusterConfig { n, delta_ms: 20, transport: TransportConfig::default() }
    }
}

/// A running single-group loopback cluster: the [`GroupCluster`] of one
/// group over all `n` nodes, with one [`Obs`] sink shared by the group
/// and the transports. Per-node results are indexed by node id;
/// everything that does not name a group — addresses, node handles,
/// link faults, crash/restart — is the [`GroupCluster`]'s own, reached
/// through `Deref`.
pub struct LoopbackCluster {
    inner: GroupCluster,
}

impl LoopbackCluster {
    /// Binds `n` ephemeral listeners, then boots every node with the full
    /// address map. All nodes share one fresh [`Obs`] sink.
    pub fn start(config: ClusterConfig) -> io::Result<LoopbackCluster> {
        LoopbackCluster::start_with_obs(config, Obs::new())
    }

    /// Like [`LoopbackCluster::start`] with a caller-provided [`Obs`] —
    /// e.g. one with a trace capacity large enough that a test can rely
    /// on the complete event record (`obs.trace.evicted() == 0`).
    pub fn start_with_obs(config: ClusterConfig, obs: Obs) -> io::Result<LoopbackCluster> {
        let groups = GroupClusterConfig {
            transport: config.transport,
            ..GroupClusterConfig::ring(config.n, 1, config.n, config.delta_ms)
        };
        let inner = GroupCluster::launch(groups, vec![obs.clone()], obs, true)?;
        Ok(LoopbackCluster { inner })
    }

    /// Submits a value at node `p` through its local event path.
    pub fn submit(&self, p: ProcId, a: Value) {
        self.inner.submit(0, p, a);
    }

    /// What each node has delivered so far, in its local order, including
    /// deliveries made by crashed prior incarnations.
    pub fn delivered(&self) -> Vec<Vec<(ProcId, Value)>> {
        self.inner.delivered(0).into_values().collect()
    }

    /// The views each node has installed so far (across incarnations).
    pub fn views(&self) -> Vec<Vec<View>> {
        self.inner.views(0).into_values().collect()
    }

    /// Blocks until every *live* node has delivered at least `count`
    /// values or the deadline passes; returns whether the goal was
    /// reached.
    pub fn await_deliveries(&self, count: usize, deadline: Duration) -> bool {
        self.inner.await_group_deliveries(0, count, deadline)
    }

    /// Stops every node and returns the final merged trace.
    pub fn stop(self) -> Trace {
        self.stop_report().0
    }

    /// Like [`LoopbackCluster::stop`], but also aggregates the transport
    /// shutdown reports: `report.clean()` asserts that not a single
    /// spawned thread outlived its bounded join deadline.
    pub fn stop_report(self) -> (Trace, ShutdownReport) {
        let (mut traces, report) = self.inner.stop();
        (traces.remove(&0).unwrap_or_default(), report)
    }
}

impl Deref for LoopbackCluster {
    type Target = GroupCluster;

    fn deref(&self) -> &GroupCluster {
        &self.inner
    }
}

impl DerefMut for LoopbackCluster {
    fn deref_mut(&mut self) -> &mut GroupCluster {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_ring_group_has_the_standard_configuration() {
        for n in 1..=7 {
            let config = GroupClusterConfig::ring(n, 1, n, 20);
            assert_eq!(config.groups, vec![ProcId::range(n)]);
            assert_eq!(config.proto(0), ProtoConfig::standard(n, 20));
        }
    }
}
