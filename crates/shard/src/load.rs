//! Keyed load planning for one group of a sharded deployment: the
//! commands a generator submits are encoded [`KvCmd`]s whose keys hash to
//! the target group. The session itself — the reader thread, warm-up,
//! closed and open loops, matching deliveries by [`Value::fingerprint`]
//! — is `gcs-net`'s [`run_session`], the same loop the single-group
//! generator runs. One generator instance drives one group; the
//! benchmark runs one per group concurrently and sums the throughputs.

use crate::map::ShardMap;
use gcs_apps::KvCmd;
use gcs_model::Value;
use gcs_net::{run_session, LoadMode, LoadReport};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// Keyed load parameters for one group.
#[derive(Clone, Debug)]
pub struct ShardLoadConfig {
    /// The group this generator drives. Only seeds whose derived key
    /// hashes to this group are submitted.
    pub group: u32,
    /// Timed operations to submit.
    pub ops: u64,
    /// Size of the keyspace the seed → command mapping draws from.
    pub keys: u64,
    /// Seeds are scanned upward from here; distinct generators against
    /// one cluster must use disjoint seed ranges so fingerprints (and
    /// KV tags) stay unique.
    pub seed_base: u64,
    /// Driving discipline (closed window or open rate).
    pub mode: LoadMode,
    /// Give up waiting for deliveries after this long with no progress.
    pub idle_timeout: Duration,
    /// Operations submitted and completed before the timed window opens
    /// (excluded from the histogram and elapsed time).
    pub warmup: u64,
}

/// Plans the seed sequence for a run: the first `warmup + ops` seeds at
/// or above `seed_base` whose derived key belongs to `cfg.group` under
/// `map`. Scanning (rather than striding) keeps the mapping honest for
/// any group count.
fn plan_seeds(map: &ShardMap, cfg: &ShardLoadConfig) -> Vec<u64> {
    let want = (cfg.warmup + cfg.ops) as usize;
    let mut seeds = Vec::with_capacity(want);
    let mut seed = cfg.seed_base;
    while seeds.len() < want {
        if map.key_group(KvCmd::from_seed(seed, cfg.keys).key()) == cfg.group {
            seeds.push(seed);
        }
        seed += 1;
    }
    seeds
}

/// Runs one keyed load session for `cfg.group` against the group member
/// at `addr`. Reports full submit→total-order→deliver latency as
/// observed at that member.
pub fn run_shard_load(
    addr: SocketAddr,
    map: &ShardMap,
    cfg: &ShardLoadConfig,
) -> io::Result<LoadReport> {
    let planned: Vec<Value> =
        plan_seeds(map, cfg).into_iter().map(|s| KvCmd::from_seed(s, cfg.keys).encode()).collect();
    run_session(addr, cfg.group, &planned, cfg.warmup as usize, cfg.mode, cfg.idle_timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_model::ProcId;
    use std::collections::BTreeSet;

    fn ring_map() -> ShardMap {
        let groups = (0..4u32)
            .map(|i| (0..3u32).map(|j| ProcId((i + j) % 5)).collect::<BTreeSet<_>>())
            .collect();
        ShardMap::new(groups)
    }

    #[test]
    fn planned_seeds_all_route_to_the_target_group() {
        let map = ring_map();
        for g in 0..4 {
            let cfg = ShardLoadConfig {
                group: g,
                ops: 40,
                keys: 16,
                seed_base: 1000,
                mode: LoadMode::Closed { window: 8 },
                idle_timeout: Duration::from_secs(1),
                warmup: 10,
            };
            let seeds = plan_seeds(&map, &cfg);
            assert_eq!(seeds.len(), 50);
            for s in seeds {
                assert_eq!(map.key_group(KvCmd::from_seed(s, 16).key()), g);
            }
        }
    }

    #[test]
    fn disjoint_seed_ranges_produce_disjoint_fingerprints() {
        let map = ring_map();
        let mut seen = BTreeSet::new();
        for g in 0..4u32 {
            let cfg = ShardLoadConfig {
                group: g,
                ops: 30,
                keys: 16,
                seed_base: u64::from(g) * 1_000_000,
                mode: LoadMode::Closed { window: 8 },
                idle_timeout: Duration::from_secs(1),
                warmup: 0,
            };
            for s in plan_seeds(&map, &cfg) {
                let fp = KvCmd::from_seed(s, 16).encode().fingerprint();
                assert!(seen.insert(fp), "fingerprint collision across generators");
            }
        }
    }
}
