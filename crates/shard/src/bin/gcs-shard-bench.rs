//! `gcs-shard-bench`: the multi-group throughput benchmark for a
//! hash-sharded keyspace over independent VS/TO group instances.
//!
//! ```text
//! gcs-shard-bench [--nodes 5] [--groups 4] [--members 3] [--ops 8000]
//!                 [--window 128] [--warmup 1000] [--keys 64]
//!                 [--delta-ms 20] [--out BENCH_shard.json]
//!                 [--floor <ops/s>] [--no-check] [--no-partition]
//! ```
//!
//! Boots `nodes` loopback nodes hosting `groups` overlapping ring
//! groups of `members` consecutive nodes each, drives one keyed
//! closed-loop KV load generator per group concurrently, and reports the
//! **aggregate** operations per second across all groups — the number
//! the `--floor` CI gate compares. Then (unless `--no-partition`) it
//! partitions exactly one group — severing the `(0,1)` and `(0,2)` link
//! pairs splits group 0 into `{0} | {1,2}` while every other group's
//! membership stays connected — drives more keyed load into group 0's
//! majority side and into an undisturbed group, heals, and waits for
//! group 0 to re-form its full view and converge.
//!
//! Verification is per group, because each group is a complete VS/TO
//! deployment: the b/d bound monitors run over each group's own event
//! stream, the VS cause and TO checkers over each group's merged
//! recorded trace, and the per-key linearizability checker over each
//! group's per-member delivered KV command streams. A fast run that
//! breaks any of them exits nonzero — it is a bug, not a result.
//!
//! A single group is the `G = 1` case: `--groups 1 --members 5` drives
//! one 5-member ring through the same load loop and the same checks
//! (the partition phase needs two groups and is skipped).

use gcs_apps::check_per_key_linearizable;
use gcs_core::cause::check_trace;
use gcs_core::to_trace::check_to_trace;
use gcs_model::{ProcId, Value};
use gcs_net::{LoadMode, LoadReport};
use gcs_obs::{BoundParams, StabilizationMonitor, TokenRoundMonitor};
use gcs_shard::{run_shard_load, ShardCluster, ShardClusterConfig, ShardLoadConfig, ShardMap};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use std::process::exit;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: gcs-shard-bench [--nodes <n>] [--groups <g>] [--members <k>] [--ops <n>]\n\
         \n\
         --nodes      cluster size (default 5)\n\
         --groups     group instances sharding the keyspace (default 4)\n\
         --members    members per group, consecutive ring slices (default 3)\n\
         --ops        timed operations per group (default 8000)\n\
         --window     closed-loop outstanding window per group (default 128)\n\
         --warmup     untimed warm-up operations per group (default 1000)\n\
         --keys       keyspace size for the generated KV commands (default 64)\n\
         --delta-ms   protocol delta in ms (default 20)\n\
         --out        JSON result path (default BENCH_shard.json)\n\
         --floor      minimum acceptable aggregate ops/s; below it exit nonzero\n\
         --no-check   skip the trace checkers and bound monitors\n\
         --no-partition  skip the one-group partition/merge phase"
    );
    exit(2)
}

struct Args {
    nodes: u32,
    groups: u32,
    members: u32,
    ops: u64,
    window: usize,
    warmup: u64,
    keys: u64,
    delta_ms: u64,
    out: String,
    floor: Option<f64>,
    check: bool,
    partition: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        nodes: 5,
        groups: 4,
        members: 3,
        ops: 8_000,
        window: 128,
        warmup: 1_000,
        keys: 64,
        delta_ms: 20,
        out: "BENCH_shard.json".to_string(),
        floor: None,
        check: true,
        partition: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("gcs-shard-bench: {what} needs a value");
                usage();
            }
        };
        match arg.as_str() {
            "--nodes" => a.nodes = take("--nodes").parse().unwrap_or_else(|_| usage()),
            "--groups" => a.groups = take("--groups").parse().unwrap_or_else(|_| usage()),
            "--members" => a.members = take("--members").parse().unwrap_or_else(|_| usage()),
            "--ops" => a.ops = take("--ops").parse().unwrap_or_else(|_| usage()),
            "--window" => a.window = take("--window").parse().unwrap_or_else(|_| usage()),
            "--warmup" => a.warmup = take("--warmup").parse().unwrap_or_else(|_| usage()),
            "--keys" => a.keys = take("--keys").parse().unwrap_or_else(|_| usage()),
            "--delta-ms" => a.delta_ms = take("--delta-ms").parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = take("--out"),
            "--floor" => a.floor = Some(take("--floor").parse().unwrap_or_else(|_| usage())),
            "--no-check" => a.check = false,
            "--no-partition" => a.partition = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gcs-shard-bench: unknown argument {other:?}");
                usage();
            }
        }
    }
    if a.nodes == 0 || a.groups == 0 || a.members == 0 || a.ops == 0 {
        usage();
    }
    if a.members > a.nodes {
        eprintln!("gcs-shard-bench: --members cannot exceed --nodes");
        usage();
    }
    a
}

fn wait_for(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Whether every live member of group `g` has installed a view of
/// exactly `size` members.
fn group_view_size(cluster: &ShardCluster, g: u32, size: usize) -> bool {
    let views = cluster.views(g);
    !views.is_empty() && views.values().all(|vs| vs.last().is_some_and(|v| v.size() == size))
}

/// The entry member keyed load for group `g` targets: the group's first
/// member during the main phase.
fn entry(cluster: &ShardCluster, g: u32) -> ProcId {
    *cluster
        .config()
        .groups
        .get(g as usize)
        .and_then(|m| m.iter().next())
        .expect("group exists and is nonempty")
}

fn load_cfg(a: &Args, g: u32, ops: u64, warmup: u64, seed_base: u64) -> ShardLoadConfig {
    ShardLoadConfig {
        group: g,
        ops,
        keys: a.keys,
        seed_base,
        mode: LoadMode::Closed { window: a.window },
        idle_timeout: Duration::from_secs(30),
        warmup,
    }
}

/// Runs one keyed generator per group concurrently; returns the
/// per-group reports in group order (exiting on any I/O failure) and
/// sets `failed` if any operation `phase` submitted never came back.
fn run_wave(
    cluster: &ShardCluster,
    jobs: Vec<(u32, ProcId, ShardLoadConfig)>,
    phase: &str,
    failed: &mut bool,
) -> Vec<(u32, LoadReport)> {
    let map = ShardMap::new(cluster.config().groups.clone());
    let mut out = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (g, at, cfg) in &jobs {
            let addr = cluster.addr(*at);
            let map = map.clone();
            let g = *g;
            let cfg = cfg.clone();
            handles.push((g, s.spawn(move || run_shard_load(addr, &map, &cfg))));
        }
        for (g, h) in handles {
            match h.join() {
                Ok(Ok(r)) => out.push((g, r)),
                Ok(Err(e)) => {
                    eprintln!("gcs-shard-bench: load run for group {g} failed: {e}");
                    exit(1);
                }
                Err(_) => {
                    eprintln!("gcs-shard-bench: load thread for group {g} panicked");
                    exit(1);
                }
            }
        }
    });
    out.sort_by_key(|(g, _)| *g);
    for (g, r) in out.iter().filter(|(_, r)| r.delivered < r.submitted) {
        let lost = r.submitted - r.delivered;
        eprintln!(
            "gcs-shard-bench: FAIL: group {g}{phase}: {lost} of {} ops never delivered",
            r.submitted
        );
        *failed = true;
    }
    out
}

fn json_result(
    a: &Args,
    reports: &[(u32, LoadReport)],
    aggregate: f64,
    partition: Option<(u64, u64)>,
    checks: &[(String, bool)],
) -> String {
    let per_group: Vec<String> = reports
        .iter()
        .map(|(g, r)| {
            let h = &r.latency_us;
            format!(
                "{{ \"group\": {g}, \"submitted\": {}, \"delivered\": {}, \"elapsed_ms\": {}, \"ops_per_sec\": {:.1}, \"latency_us\": {{ \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }} }}",
                r.submitted,
                r.delivered,
                r.elapsed.as_millis(),
                r.throughput_ops(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max(),
            )
        })
        .collect();
    let partition_json = match partition {
        Some((submitted, delivered)) => {
            format!("{{ \"ran\": true, \"submitted\": {submitted}, \"delivered\": {delivered} }}")
        }
        None => "{ \"ran\": false }".to_string(),
    };
    let checks: Vec<String> =
        checks.iter().map(|(name, passed)| format!("\"{name}\": {passed}")).collect();
    format!(
        "{{\n  \"schema\": \"gcs-shard-bench/v1\",\n  \"nodes\": {},\n  \"groups\": {},\n  \"members_per_group\": {},\n  \"mode\": \"closed\",\n  \"window\": {},\n  \"warmup_ops_per_group\": {},\n  \"ops_per_group\": {},\n  \"keys\": {},\n  \"aggregate_ops_per_sec\": {:.1},\n  \"per_group\": [\n    {}\n  ],\n  \"partition_phase\": {},\n  \"checks\": {{ {} }}\n}}\n",
        a.nodes,
        a.groups,
        a.members,
        a.window,
        a.warmup,
        a.ops,
        a.keys,
        aggregate,
        per_group.join(",\n    "),
        partition_json,
        checks.join(", "),
    )
}

fn main() {
    let a = parse_args();
    let config = ShardClusterConfig::ring(a.nodes, a.groups, a.members, a.delta_ms);
    // Trace capacity per group sized so a full run fits without
    // eviction — the monitors need each group's complete stream.
    let cluster = ShardCluster::start(config, 1 << 21).unwrap_or_else(|e| {
        eprintln!("gcs-shard-bench: bind failed: {e}");
        exit(1);
    });

    for g in 0..a.groups {
        let size = cluster.config().groups[g as usize].len();
        if !wait_for(Duration::from_secs(30), || group_view_size(&cluster, g, size)) {
            eprintln!("gcs-shard-bench: initial view for group {g} never formed");
            exit(1);
        }
    }

    // Phase 1: all groups loaded concurrently; the aggregate is the sum
    // of the per-group closed-loop throughputs.
    let jobs: Vec<(u32, ProcId, ShardLoadConfig)> = (0..a.groups)
        .map(|g| {
            let seed_base = u64::from(g + 1) * 100_000_000;
            (g, entry(&cluster, g), load_cfg(&a, g, a.ops, a.warmup, seed_base))
        })
        .collect();
    let mut failed = false;
    let reports = run_wave(&cluster, jobs, "", &mut failed);
    let aggregate: f64 = reports.iter().map(|(_, r)| r.throughput_ops()).sum();

    // Every member of every group must converge on the full op count
    // before fault injection (warmup + timed ops per group).
    let phase1_total = (a.warmup + a.ops) as usize;
    for g in 0..a.groups {
        if !cluster.await_group_deliveries(g, phase1_total, Duration::from_secs(30)) {
            let counts: Vec<String> =
                cluster.delivered(g).iter().map(|(p, s)| format!("{p:?}={}", s.len())).collect();
            eprintln!(
                "gcs-shard-bench: FAIL: group {g} members missed client traffic ({})",
                counts.join(", ")
            );
            failed = true;
        }
    }
    {
        let snap = cluster.net_obs().registry.snapshot();
        println!(
            "gcs-shard-bench: net: {} frames sent, {} dropped, {} rejected, {} reconnects",
            snap.counter_total("net_frames_sent_total"),
            snap.counter_total("net_frames_dropped_total"),
            snap.counter_total("net_frames_rejected_total"),
            snap.counter_total("net_reconnects_total"),
        );
    }

    // Phase 2: partition exactly group 0. With the ring topology,
    // severing (0,1) and (0,2) splits group 0 into {0} | {1,2} — a
    // majority side that keeps its primary — while every other group's
    // member set remains fully connected.
    let partition_possible = a.partition && a.nodes >= 5 && a.groups >= 2 && a.members == 3;
    let mut partition_stats: Option<(u64, u64)> = None;
    if a.partition && !partition_possible {
        eprintln!(
            "gcs-shard-bench: note: partition phase needs >= 5 nodes and 3-member groups; skipping"
        );
    }
    if partition_possible {
        let (p0, p1, p2) = (ProcId(0), ProcId(1), ProcId(2));
        cluster.sever_pair(p0, p1);
        cluster.sever_pair(p0, p2);
        // The majority side {1,2} must re-form as a 2-member view.
        let majority_view = |c: &ShardCluster| {
            c.views(0)
                .iter()
                .filter(|(p, _)| **p != p0)
                .all(|(_, vs)| vs.last().is_some_and(|v| v.size() == 2))
        };
        if !wait_for(Duration::from_secs(30), || majority_view(&cluster)) {
            eprintln!("gcs-shard-bench: FAIL: group 0 majority view never formed");
            failed = true;
        }

        // Keyed load into the partitioned group's majority side and into
        // an undisturbed group, concurrently: the cut must not stop
        // either from serving.
        let part_ops = (a.ops / 10).clamp(100, 1000);
        let other = a.groups - 1;
        let mut jobs = vec![(0u32, p1, load_cfg(&a, 0, part_ops, 0, 700_000_000))];
        jobs.push((other, entry(&cluster, other), load_cfg(&a, other, part_ops, 0, 800_000_000)));
        let wave = run_wave(&cluster, jobs, " under partition", &mut failed);
        let psub: u64 = wave.iter().map(|(_, r)| r.submitted).sum();
        let pdel: u64 = wave.iter().map(|(_, r)| r.delivered).sum();
        partition_stats = Some((psub, pdel));

        // Merge: heal both cuts and require group 0's full view back at
        // every member, then convergence of the majority-side traffic at
        // the rejoined minority member too.
        cluster.heal_pair(p0, p1);
        cluster.heal_pair(p0, p2);
        if !wait_for(Duration::from_secs(30), || group_view_size(&cluster, 0, 3)) {
            eprintln!("gcs-shard-bench: FAIL: group 0 full view never re-formed after heal");
            failed = true;
        }
        let g0_total = phase1_total + part_ops as usize;
        if !cluster.await_group_deliveries(0, g0_total, Duration::from_secs(30)) {
            eprintln!("gcs-shard-bench: FAIL: group 0 did not converge after the merge");
            failed = true;
        }
        // Settle past the stabilization bound so the monitors see the
        // post-heal view change inside its excuse window.
        let b = BoundParams::standard(a.members, a.delta_ms).b_ms();
        std::thread::sleep(Duration::from_millis(b + 200));
    }

    let mut checks: Vec<(String, bool)> = Vec::new();
    if a.check {
        // Per-key linearizability over each group's per-member delivered
        // KV command streams (snapshotted before shutdown).
        for g in 0..a.groups {
            let streams: Vec<Vec<Value>> = cluster
                .delivered(g)
                .into_values()
                .map(|s| s.into_iter().map(|(_, v)| v).collect())
                .collect();
            let lin = check_per_key_linearizable(&streams);
            if let Err(e) = &lin {
                eprintln!("gcs-shard-bench: FAIL: group {g} per-key linearizability: {e}");
            }
            checks.push((format!("kv_linearizable_g{g}"), lin.is_ok()));
        }

        // b/d bound monitors over each group's own event stream.
        for g in 0..a.groups {
            let obs = cluster.group_obs(g);
            let events = obs.trace.snapshot();
            let now_ms = obs.trace.now_ms();
            let k = cluster.config().groups[g as usize].len() as u32;
            let params = BoundParams::standard(k, a.delta_ms);
            let mut stab = StabilizationMonitor::new(params);
            let mut round = TokenRoundMonitor::new(params);
            stab.feed_all(&events);
            round.feed_all(&events);
            let stab = stab.finish();
            let round = round.finish(now_ms);
            if obs.trace.evicted() > 0 {
                eprintln!(
                    "gcs-shard-bench: FAIL: group {g} trace ring evicted {} events",
                    obs.trace.evicted()
                );
                failed = true;
            }
            if !stab.ok() {
                eprintln!(
                    "gcs-shard-bench: FAIL: group {g} stabilization monitor (b = {} ms): {:?}",
                    stab.bound_ms,
                    stab.violations.first()
                );
            }
            if !round.ok() {
                eprintln!(
                    "gcs-shard-bench: FAIL: group {g} token-round monitor (d = {} ms): {:?}",
                    round.bound_ms,
                    round.violations.first()
                );
            }
            checks.push((format!("stabilization_monitor_g{g}"), stab.ok()));
            checks.push((format!("token_round_monitor_g{g}"), round.ok()));
        }

        // VS cause and TO checkers over each group's merged recorded
        // trace — each group is a complete, separately-checkable VS/TO
        // deployment.
        let members: Vec<_> =
            (0..a.groups).map(|g| cluster.config().groups[g as usize].clone()).collect();
        let (traces, _report) = cluster.stop();
        for g in 0..a.groups {
            let trace = &traces[&g];
            let to = check_to_trace(&to_obs(trace).untimed());
            if !to.ok() {
                eprintln!(
                    "gcs-shard-bench: FAIL: group {g} TO checker: {:?}",
                    to.violations.first()
                );
            }
            let cause = check_trace(&vs_actions(trace), &members[g as usize]);
            if !cause.ok() {
                eprintln!(
                    "gcs-shard-bench: FAIL: group {g} VS cause checker: {:?}",
                    cause.violations.first()
                );
            }
            checks.push((format!("to_checker_g{g}"), to.ok()));
            checks.push((format!("vs_cause_checker_g{g}"), cause.ok()));
        }
        failed |= checks.iter().any(|(_, ok)| !ok);
    } else {
        cluster.stop();
    }

    let json = json_result(&a, &reports, aggregate, partition_stats, &checks);
    if let Err(e) = std::fs::write(&a.out, &json) {
        eprintln!("gcs-shard-bench: cannot write {}: {e}", a.out);
        failed = true;
    }

    for (g, r) in &reports {
        let h = &r.latency_us;
        println!(
            "gcs-shard-bench: group {g}: {:.1} ops/s | p50 {} us | p95 {} us | p99 {} us",
            r.throughput_ops(),
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
        );
    }
    println!(
        "gcs-shard-bench: {} nodes, {} groups x {} ops: {aggregate:.1} ops/s aggregate",
        a.nodes, a.groups, a.ops
    );

    if let Some(floor) = a.floor {
        if aggregate < floor {
            eprintln!(
                "gcs-shard-bench: FAIL: {aggregate:.1} aggregate ops/s is below the floor of {floor} ops/s"
            );
            failed = true;
        } else {
            println!("gcs-shard-bench: aggregate throughput gate passed ({aggregate:.1} >= {floor} ops/s)");
        }
    }
    if failed {
        exit(1);
    }
}
