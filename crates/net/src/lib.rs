//! `gcs-net`: the Section 8 stack over a real TCP transport.
//!
//! The paper's implementation sketch assumes a timed asynchronous
//! network: messages may be lost or delayed, and good channels deliver
//! within δ. Elsewhere in this repository that network is the
//! deterministic simulator (`gcs-netsim`, `gcs-sim`). This crate supplies
//! the deployable event source: `std::net` TCP sockets on a real host,
//! with nothing swapped but the transport, exactly the layering the
//! paper's Section 1 anticipates ("mapping of the abstract algorithm to
//! the target platform"). The mapping exists once: a single group is the
//! one-group case of the multi-group node, cluster and load loop.
//!
//! The pieces:
//!
//! - [`codec`] — a hand-rolled, dependency-free binary encoding of the
//!   full [`gcs_vsimpl::Wire`] message set plus client frames:
//!   length-prefixed framing, a version byte, explicit enum tags, LEB128
//!   varints, and a group tag for multi-group frames (group 0 travels
//!   untagged). Decoding is *total*: any byte string produces `Ok` or a
//!   [`codec::CodecError`], never a panic.
//! - [`transport`] — the [`transport::Transport`] trait (the seam the
//!   deterministic simulator plugs into) and its deployable
//!   implementation [`transport::TcpTransport`]: one accept loop,
//!   per-peer reconnecting writer threads with bounded queues and capped
//!   exponential backoff, connection-generation numbering so a stale
//!   socket can never deliver into a newer incarnation of a link, link
//!   severing/healing to emulate partitions over real sockets, and
//!   per-group routes behind one endpoint.
//! - [`runtime`] — [`runtime::NodeCore`], the thread-free protocol half
//!   hosting the unchanged `VsNode<TimedVsToTo>` state machine over any
//!   transport (with stable-storage crash/recovery), and
//!   [`runtime::NetNode`], one TCP endpoint running a `NodeCore` loop per
//!   hosted group and recording emitted traces with cluster-mergeable
//!   (time, sequence) stamps.
//! - [`cluster`] — [`cluster::GroupCluster`], a loopback harness that
//!   boots n nodes hosting overlapping groups on ephemeral localhost
//!   ports, with per-group observability, link faults, and crash/restart
//!   across incarnations; and [`cluster::LoopbackCluster`], its
//!   single-group view. Integration tests drive traffic, inject faults,
//!   and feed each group's merged trace to the VS/TO safety checkers of
//!   `gcs-core`.
//! - [`load`] — an open/closed-loop load-generating client speaking the
//!   client protocol over TCP to one group, with latency/throughput
//!   histograms.
//!
//! The `gcs-node` and `gcs-client` binaries wrap [`runtime`] and
//! [`load`] for running a cluster by hand across terminals (or hosts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod load;
pub mod queue;
pub mod runtime;
pub mod transport;

pub use cluster::{ClusterConfig, GroupCluster, GroupClusterConfig, LoopbackCluster};
pub use codec::{
    decode_payload, decode_payload_shared, encode_frame, encode_payload, read_frame, write_frame,
    CodecError, Frame, HelloKind, MAX_FRAME, WIRE_VERSION,
};
pub use load::{run_load, run_session, Histogram, LoadConfig, LoadMode, LoadReport};
pub use runtime::{merge_recordings, run_core_loop, Clock, NetNode, NodeCore, Recorded};
pub use transport::{
    GroupEndpoint, Incoming, ShutdownReport, TcpTransport, Transport, TransportConfig,
};
