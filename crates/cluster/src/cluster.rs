//! Spawning a whole cache cloud on loopback, for tests and examples.

use std::net::{Ipv4Addr, SocketAddr, TcpListener};

use cachecloud_types::{ByteSize, CacheCloudError};

use crate::client::CloudClient;
use crate::node::{CacheNode, NodeConfig};

/// A cloud of [`CacheNode`]s running on 127.0.0.1.
///
/// All listeners are bound first (ephemeral ports), so every node starts
/// with the complete peer table.
///
/// # Examples
///
/// ```no_run
/// use cachecloud_cluster::LocalCluster;
///
/// let cluster = LocalCluster::spawn(3)?;
/// let client = cluster.client();
/// client.publish("/hello", b"world".to_vec(), 1)?;
/// assert!(client.fetch("/hello")?.is_some());
/// cluster.shutdown();
/// # Ok::<(), cachecloud_types::CacheCloudError>(())
/// ```
#[derive(Debug)]
pub struct LocalCluster {
    nodes: Vec<CacheNode>,
    peers: Vec<SocketAddr>,
}

impl LocalCluster {
    /// Spawns `n` nodes with unlimited stores.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; rejects `n == 0`.
    pub fn spawn(n: usize) -> Result<Self, CacheCloudError> {
        Self::spawn_with_capacity(n, ByteSize::UNLIMITED)
    }

    /// Spawns `n` nodes with the given per-node store capacity.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; rejects `n == 0`.
    pub fn spawn_with_capacity(n: usize, capacity: ByteSize) -> Result<Self, CacheCloudError> {
        Self::spawn_with_options(n, capacity, true)
    }

    /// Spawns `n` nodes with the given per-node store capacity and an
    /// explicit choice of pooled vs connect-per-RPC peer connections
    /// (`pooled = false` exists for benchmark baselines).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; rejects `n == 0`.
    pub fn spawn_with_options(
        n: usize,
        capacity: ByteSize,
        pooled: bool,
    ) -> Result<Self, CacheCloudError> {
        if n == 0 {
            return Err(CacheCloudError::InvalidConfig {
                param: "nodes",
                reason: "a cluster needs at least one node".into(),
            });
        }
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(CacheCloudError::from))
            .collect::<Result<_, _>>()?;
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().map_err(CacheCloudError::from))
            .collect::<Result<_, _>>()?;
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                let mut config = NodeConfig::new(id as u32, peers.clone(), capacity);
                config.pooled = pooled;
                CacheNode::start_on(config, listener)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LocalCluster { nodes, peers })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Clusters are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node addresses, indexed by node id.
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// A client for this cloud.
    ///
    /// # Panics
    ///
    /// Never panics: the cluster is non-empty by construction.
    pub fn client(&self) -> CloudClient {
        CloudClient::new(self.peers.clone()).expect("cluster is non-empty")
    }

    /// The cloud-wide telemetry aggregate: every node's counters and
    /// latency histograms folded together (see `CloudClient::cloud_stats`).
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol errors from any node.
    pub fn cloud_stats(&self) -> Result<cachecloud_metrics::telemetry::NodeStats, CacheCloudError> {
        self.client().cloud_stats()
    }

    /// Stops every node and joins their threads.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;

    #[test]
    fn spawn_zero_rejected() {
        assert!(LocalCluster::spawn(0).is_err());
    }

    #[test]
    fn publish_fetch_roundtrip() -> Result<(), CacheCloudError> {
        let cluster = LocalCluster::spawn(3)?;
        let client = cluster.client();
        client.publish("/a", b"alpha".to_vec(), 1)?;
        let (body, version) = client.fetch("/a")?.expect("present");
        assert_eq!(body, b"alpha");
        assert_eq!(version, 1);
        assert!(client.fetch("/missing")?.is_none());
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn cooperative_fetch_pulls_from_peer() -> Result<(), CacheCloudError> {
        let cluster = LocalCluster::spawn(4)?;
        let client = cluster.client();
        client.publish("/doc", b"payload".to_vec(), 7)?;
        let beacon = client.beacon_of("/doc");
        // Fetch via a node that is NOT the beacon: local miss -> one Fill
        // at the beacon, which holds the copy, answers with it and
        // registers the requester -> local store.
        let other = (beacon + 1) % 4;
        let (body, _) = client.fetch_via(other, "/doc")?.expect("served");
        assert_eq!(body, b"payload");
        let before = client.stats(other)?;
        assert_eq!(before.counter("cloud_hits"), 1);
        assert_eq!(before.counter("beacon_fills"), 1);
        assert_eq!(before.counter("peer_fetches"), 0, "no Get to a holder");
        let rpcs = before.histogram("rpc_ms").map_or(0, |h| h.count);
        assert_eq!(rpcs, 1, "the miss cost exactly one peer round trip");
        // The beacon registered the requester in that same exchange.
        let beacon_stats = client.stats(beacon)?;
        assert_eq!(beacon_stats.counter("registrations"), 2);
        assert_eq!(beacon_stats.directory_records, 2);
        // The stored copy makes the second fetch a local hit.
        client.fetch_via(other, "/doc")?.expect("served");
        let after = client.stats(other)?;
        assert_eq!(
            after.counter("local_hits"),
            before.counter("local_hits") + 1
        );
        assert_eq!(after.counter("requests"), before.counter("requests") + 1);
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn update_fans_out_to_all_holders() -> Result<(), CacheCloudError> {
        let cluster = LocalCluster::spawn(4)?;
        let client = cluster.client();
        client.publish("/score", b"0-0".to_vec(), 1)?;
        // Replicate the copy to every node by fetching through each.
        for node in 0..4 {
            client.fetch_via(node, "/score")?.expect("served");
        }
        client.update("/score", b"1-0".to_vec(), 2)?;
        // Every node now serves the new version locally.
        for node in 0..4 {
            let (body, version) = client.fetch_via(node, "/score")?.expect("served");
            assert_eq!(version, 2, "node {node} is stale");
            assert_eq!(body, b"1-0");
        }
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn ping_and_stats() -> Result<(), CacheCloudError> {
        let cluster = LocalCluster::spawn(2)?;
        let client = cluster.client();
        client.ping(0)?;
        client.ping(1)?;
        assert!(client.ping(9).is_err());
        client.publish("/s", vec![1, 2, 3], 1)?;
        let beacon = client.beacon_of("/s");
        let stats = client.stats(beacon)?;
        assert_eq!(stats.node, beacon);
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.directory_records, 1);
        assert_eq!(stats.counter("stores"), 1);
        assert_eq!(stats.counter("registrations"), 1);
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn bounded_nodes_evict_and_deregister() -> Result<(), CacheCloudError> {
        // Tiny stores: publishing a second document evicts the first at its
        // holder and removes the directory record.
        let cluster = LocalCluster::spawn_with_capacity(2, ByteSize::from_bytes(8))?;
        let client = cluster.client();
        // Find two URLs with the same beacon so they contend for one store.
        let mut urls = Vec::new();
        for i in 0..64 {
            let u = format!("/doc/{i}");
            if client.beacon_of(&u) == 0 {
                urls.push(u);
            }
            if urls.len() == 2 {
                break;
            }
        }
        let [a, b]: [String; 2] = urls.try_into().expect("found two node-0 urls");
        client.publish(&a, vec![1u8; 6], 1)?;
        client.publish(&b, vec![2u8; 6], 1)?;
        let stats = client.stats(0)?;
        assert_eq!(stats.resident, 1, "capacity 8 holds only one 6-byte body");
        assert_eq!(stats.counter("evictions"), 1);
        assert_eq!(stats.counter("unregistrations"), 1);
        // The evicted document is gone from the cloud entirely.
        assert!(client.fetch(&a)?.is_none());
        assert!(client.fetch(&b)?.is_some());
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn ping_and_stats_expose_accept_errors_counter() -> Result<(), CacheCloudError> {
        // The accept-error counter must travel the Stats wire like every
        // other lifecycle counter (zero on a healthy node).
        let cluster = LocalCluster::spawn(1)?;
        let client = cluster.client();
        client.ping(0)?;
        let stats = client.stats(0)?;
        assert!(
            stats
                .counters
                .iter()
                .any(|(name, v)| name == "accept_errors" && *v == 0),
            "accept_errors missing from the stats wire: {:?}",
            stats.counters
        );
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn shutdown_mid_request_loses_no_started_response() -> Result<(), CacheCloudError> {
        // Regression for the connection-thread leak: the old server joined
        // only the accept thread, so in-flight serving threads raced node
        // teardown. Hammer a cloud with cooperative fetches from several
        // clients while it shuts down: every call must either return the
        // correct document or fail with a clean transport error — never a
        // wrong body, a protocol error, or a panic — and shutdown() must
        // return promptly with all serving threads joined.
        let cluster = LocalCluster::spawn(4)?;
        let client = cluster.client();
        client.publish("/steady", b"payload".to_vec(), 3)?;
        // Warm a copy everywhere so fetches exercise both the inline hit
        // path and the dispatched miss path across nodes.
        for node in 0..4 {
            client.fetch_via(node, "/steady")?.expect("served");
        }
        let peers = cluster.peers().to_vec();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (0..4u32)
            .map(|w| {
                let peers = peers.clone();
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || -> Result<u64, String> {
                    let client = CloudClient::new(peers).map_err(|e| e.to_string())?;
                    let mut ok = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        match client.fetch_via(w % 4, "/steady") {
                            Ok(Some((body, version))) => {
                                if body != b"payload" || version != 3 {
                                    return Err(format!(
                                        "corrupt response: v{version}, {} bytes",
                                        body.len()
                                    ));
                                }
                                ok += 1;
                            }
                            Ok(None) => return Err("document vanished".into()),
                            // Shutdown raced the call: a typed transport
                            // error is the one acceptable failure.
                            Err(e) if e.is_transport() => break,
                            Err(e) => return Err(format!("unexpected error: {e:?}")),
                        }
                    }
                    Ok(ok)
                })
            })
            .collect();
        // Let the fetch storm build, then tear the cloud down under it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        cluster.shutdown();
        let drain = t0.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(
            drain < std::time::Duration::from_secs(10),
            "shutdown hung draining connections: {drain:?}"
        );
        let mut total = 0;
        for w in workers {
            total += w
                .join()
                .expect("worker panicked")
                .expect("corrupt exchange");
        }
        assert!(total > 0, "the storm never got a response");
        Ok(())
    }

    #[test]
    fn refused_connections_surface_typed_errors() -> Result<(), CacheCloudError> {
        // Reserve addresses nobody listens on: bind ephemeral ports, note
        // them, drop the listeners.
        let dead: Vec<SocketAddr> = (0..2)
            .map(|_| {
                let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
                l.local_addr().map_err(CacheCloudError::from)
            })
            .collect::<Result<_, _>>()?;
        let client = CloudClient::new(dead)?.with_retry(RetryPolicy {
            max_attempts: 2,
            deadline: std::time::Duration::from_millis(500),
            ..RetryPolicy::fast()
        })?;
        // Every path returns a typed transport error — no panic, no
        // unwrap-on-refused anywhere in the client.
        let err = client.ping(0).expect_err("nobody is listening");
        assert!(err.is_transport(), "untyped error: {err:?}");
        assert!(
            matches!(err, CacheCloudError::Exhausted { attempts: 2, .. }),
            "expected Exhausted after 2 attempts, got {err:?}"
        );
        let err = client.fetch("/gone").expect_err("whole ring is down");
        assert!(err.is_transport(), "untyped error: {err:?}");
        let err = client
            .publish("/gone", b"x".to_vec(), 1)
            .expect_err("whole ring is down");
        assert!(err.is_transport(), "untyped error: {err:?}");
        Ok(())
    }
}
