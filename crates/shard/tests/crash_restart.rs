//! Sharded crash/restart: node 2 of the 5-node, 4-group ring hosts three
//! groups. It crashes abruptly and restarts from per-group stable
//! storage; every group it hosts must re-form its full view, the crash
//! and restart must be recorded as faults in exactly those groups'
//! sinks, every group must pass the TO, VS cause and per-key
//! linearizability checkers across both incarnations, and shutdown must
//! leak no transport thread.

use gcs_apps::check_per_key_linearizable;
use gcs_core::cause::check_trace;
use gcs_core::to_trace::check_to_trace;
use gcs_model::{ProcId, Value, ViewId};
use gcs_net::LoadMode;
use gcs_obs::{EventKind, FaultKind};
use gcs_shard::{run_shard_load, ShardCluster, ShardClusterConfig, ShardLoadConfig, ShardMap};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const GROUPS: u32 = 4;
const OPS: u64 = 150;
const NODE2: ProcId = ProcId(2);
const NOBODY: ProcId = ProcId(u32::MAX);

/// Waits up to 60 s until every member of group `g` other than `except`
/// runs a view of exactly `size` members whose identifier is above
/// `after`.
fn await_view(c: &ShardCluster, g: u32, size: usize, after: Option<ViewId>, except: ProcId) {
    let start = Instant::now();
    let formed = |c: &ShardCluster| {
        let views = c.views(g);
        let mut others = views.iter().filter(|(p, _)| **p != except);
        others.all(|(_, vs)| vs.last().is_some_and(|v| v.size() == size && Some(v.id) > after))
    };
    while !formed(c) {
        assert!(start.elapsed() < Duration::from_secs(60), "group {g}: {:?}", c.views(g));
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The highest view identifier any member of group `g` has installed.
fn latest(c: &ShardCluster, g: u32) -> Option<ViewId> {
    c.views(g).values().filter_map(|vs| vs.last()).map(|v| v.id).max()
}

/// Drives `OPS` keyed closed-loop operations into every group at once,
/// each through member `entry(g)`, and requires all of them back.
fn load_every_group(c: &ShardCluster, phase: u64, entry: impl Fn(u32) -> ProcId) {
    let map = ShardMap::new(c.config().groups.clone());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..GROUPS)
            .map(|g| {
                let cfg = ShardLoadConfig {
                    group: g,
                    ops: OPS,
                    keys: 16,
                    seed_base: (phase * 10 + u64::from(g) + 1) * 1_000_000,
                    mode: LoadMode::Closed { window: 32 },
                    idle_timeout: Duration::from_secs(30),
                    warmup: 0,
                };
                let (addr, map) = (c.addr(entry(g)), &map);
                (g, s.spawn(move || run_shard_load(addr, map, &cfg)))
            })
            .collect();
        for (g, h) in handles {
            let report = h.join().expect("load thread").expect("load connects");
            assert_eq!(report.delivered, OPS, "phase {phase}: group {g} lost operations");
        }
    });
}

#[test]
fn crashed_node_restarts_into_every_group_it_hosts() {
    let config = ShardClusterConfig::ring(5, GROUPS, 3, 20);
    let members = config.groups.clone();
    let hosted = config.groups_of(NODE2);
    assert_eq!(hosted, vec![0, 1, 2]);
    let survivor = |g: u32| *members[g as usize].iter().find(|p| **p != NODE2).expect("member");
    let mut cluster = ShardCluster::start(config, 1 << 20).expect("bind loopback");
    for g in 0..GROUPS {
        await_view(&cluster, g, 3, None, NOBODY);
    }
    load_every_group(&cluster, 1, survivor);

    // Crash: the surviving pair of each hosted group re-forms and serves.
    let before: Vec<_> = (0..GROUPS).map(|g| latest(&cluster, g)).collect();
    cluster.crash(NODE2);
    assert!(!cluster.is_up(NODE2));
    for &g in &hosted {
        await_view(&cluster, g, 2, before[g as usize], NODE2);
    }
    load_every_group(&cluster, 2, survivor);

    // Restart: each hosted group re-forms its full view, and the new
    // incarnation serves as an entry member.
    let mid: Vec<_> = (0..GROUPS).map(|g| latest(&cluster, g)).collect();
    cluster.restart(NODE2).expect("restart node 2");
    for &g in &hosted {
        await_view(&cluster, g, 3, mid[g as usize], NOBODY);
    }
    load_every_group(&cluster, 3, |g| if hosted.contains(&g) { NODE2 } else { survivor(g) });
    let total = 3 * OPS as usize;

    for g in 0..GROUPS {
        assert!(cluster.await_group_deliveries(g, total, Duration::from_secs(60)), "group {g}");
        // The crash and the restart disturb exactly the hosted groups.
        let faults: Vec<FaultKind> = (cluster.group_obs(g).trace.snapshot().iter())
            .filter_map(|e| match e.kind {
                EventKind::Fault { node: 2, peer: 2, kind } => Some(kind),
                _ => None,
            })
            .collect();
        let expected =
            if hosted.contains(&g) { vec![FaultKind::Crash, FaultKind::Restart] } else { vec![] };
        assert_eq!(faults, expected, "fault events recorded in group {g}");
        // One total order at every member across node 2's incarnations,
        // nothing delivered twice, per-key linearizable KV streams.
        let streams: Vec<Vec<Value>> = (cluster.delivered(g).into_values())
            .map(|s| s.into_iter().map(|(_, v)| v).collect())
            .collect();
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(&streams[0][..total], &s[..total], "group {g}: member {i} diverges");
            let distinct: HashSet<&Value> = s.iter().collect();
            assert_eq!(distinct.len(), s.len(), "group {g}: member {i} delivered twice");
        }
        if let Err(e) = check_per_key_linearizable(&streams) {
            panic!("group {g}: per-key linearizability: {e}");
        }
    }

    let (traces, shutdown) = cluster.stop();
    assert!(shutdown.clean(), "leaked {} transport threads", shutdown.leaked);
    for (g, trace) in &traces {
        let to = check_to_trace(&to_obs(trace).untimed());
        assert!(to.ok(), "group {g}: TO checker: {:?}", to.violations.first());
        let cause = check_trace(&vs_actions(trace), &members[*g as usize]);
        assert!(cause.ok(), "group {g}: cause checker: {:?}", cause.violations.first());
    }
}
