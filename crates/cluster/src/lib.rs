//! A live, threaded TCP implementation of a cache cloud.
//!
//! The simulator (`cache-clouds`) evaluates the paper's design; this crate
//! shows the same protocols running for real: each [`node::CacheNode`] is a
//! TCP server holding a document store and a beacon directory for its share
//! of the URL space, and nodes cooperate exactly as the paper prescribes —
//! a local miss consults the document's beacon point, fetches from a peer
//! holder when one exists, and registers stored copies back at the beacon;
//! the origin pushes one update per cloud to the beacon, which fans it out
//! to the holders.
//!
//! The implementation is deliberately dependency-light: each node is a few
//! `epoll` event-loop shards whose requests run as tasks on a std-only
//! executor, awaiting nonblocking peer calls instead of blocking a thread;
//! poison-tolerant `std::sync` locks guard the shared state, and a compact
//! hand-rolled wire format rides an in-tree shared [`wire::Bytes`]. It uses
//! no crates outside the workspace. Clients and peer calls reuse pooled
//! persistent connections (see [`conn`]) instead of paying a TCP connect
//! per request.
//!
//! # Examples
//!
//! ```no_run
//! use cachecloud_cluster::cluster::LocalCluster;
//!
//! // Boot a 4-node cloud on loopback and exercise the protocol.
//! let cluster = LocalCluster::spawn(4)?;
//! let client = cluster.client();
//! client.publish("/news", b"breaking".to_vec(), 1)?;
//! let (body, version) = client.fetch("/news")?.expect("document exists");
//! assert_eq!(body, b"breaking");
//! assert_eq!(version, 1);
//! cluster.shutdown();
//! # Ok::<(), cachecloud_types::CacheCloudError>(())
//! ```

// `deny` rather than `forbid`: the `poller` module carries the crate's
// only `unsafe` (four epoll FFI shims) behind a module-level allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
pub mod chaos;
pub mod client;
pub mod cluster;
pub mod conn;
pub mod node;
pub mod poller;
pub(crate) mod reactor;
pub mod retry;
pub mod route;
mod sync;
pub mod wire;

pub use cachecloud_metrics::telemetry::{Event, EventKind, EventSink, NodeStats};
pub use chaos::{ChaosProfile, FaultKind, FaultyListener};
pub use client::{CloudClient, RebalanceReport};
pub use cluster::LocalCluster;
pub use conn::{Connection, ConnectionPool, PoolStats};
pub use node::{CacheNode, NodeConfig};
pub use retry::{RetryPolicy, RetryReport};
pub use route::RouteTable;
pub use wire::{Request, Response};
