//! `gcs-shard`: one keyspace hash-partitioned across several independent
//! VS/TO group instances.
//!
//! The paper's service manages membership and ordering *within* one
//! group. Scaling a replicated data service beyond one ring is an
//! application of that service, not a change to it: this crate runs `G`
//! unchanged protocol instances side by side and splits the keyspace
//! among them, so a partition or crash disturbs only the groups whose
//! member sets it touches while the rest keep serving. Nothing in
//! `gcs-core`/`gcs-vsimpl` knows sharding exists — each group instance
//! is a complete, separately-checkable VS/TO deployment.
//!
//! The pieces:
//!
//! - [`map`] — [`ShardMap`]: key → owning group (static FNV-1a hash
//!   partition) and group → current member set (refreshed from pushed
//!   view-change notifications, version-stamped so staleness is
//!   observable).
//! - [`router`] — [`RouterCore`]: the client-side routing policy
//!   (preferred member per group, down-set, cyclic retry on stale maps,
//!   redirect on view change) as a pure state machine.
//! - [`load`] — [`run_shard_load`]: keyed load planning, submitting KV
//!   commands (`gcs_apps::KvCmd`) whose keys hash to one group through
//!   `gcs-net`'s client session loop.
//!
//! The runtime is not here: a node hosting several groups behind one
//! TCP transport is [`gcs_net::NetNode`], and the loopback harness is
//! `gcs-net`'s multi-group cluster, re-exported as [`ShardCluster`] and
//! [`ShardClusterConfig`]. A single group is the `G = 1` case of both.
//!
//! The `gcs-shard-bench` binary drives a loopback deployment of `G`
//! groups through keyed load and (for `G ≥ 2`) a one-group
//! partition/merge, gates on aggregate throughput, and feeds every
//! group's trace through the VS/TO checkers, the b/d monitors, and the
//! per-key linearizability checker. With `--groups 1 --members 5` it is
//! the single-group throughput gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod map;
pub mod router;

pub use gcs_net::cluster::{
    GroupCluster as ShardCluster, GroupClusterConfig as ShardClusterConfig,
};
pub use load::{run_shard_load, ShardLoadConfig};
pub use map::ShardMap;
pub use router::RouterCore;
