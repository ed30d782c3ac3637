//! A cache-cloud node: TCP server, local store, beacon directory, dynamic
//! routing.
//!
//! Nodes route beacon duties through a shared [`RouteTable`] (the live
//! counterpart of the paper's beacon rings). Every lookup and update the
//! node handles as a beacon is recorded in a per-IrH load ledger; a
//! coordinator (see [`crate::client::CloudClient::rebalance`]) collects the
//! ledgers, runs the paper's sub-range determination, and installs a new
//! table — at which point each node pushes the directory records it no
//! longer owns to their new beacon points (`Adopt`).
//!
//! A local miss goes to the document's beacon as a `Fill`: a beacon that
//! holds a current copy answers with it and registers the requester in the
//! same exchange, so such a miss costs one peer round trip; otherwise the
//! beacon names the holders and the requester fetches from one.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachecloud_metrics::telemetry::{
    AtomicHistogram, Counter, Event, EventKind, EventLog, EventSink, NodeStats, Registry,
};
use cachecloud_storage::{CacheStore, LruPolicy};
use cachecloud_types::{ByteSize, CacheCloudError, CacheId, DocId, SimTime, Version};

use crate::conn::Connection;
use crate::reactor::{join_all, Server, ServerOptions, Service, ShardIo, Task};
use crate::retry::RetryPolicy;
use crate::route::RouteTable;
use crate::sync::{Mutex, RwLock};
use crate::wire::{Bytes, Request, Response};

/// Configuration of one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's index within the cloud.
    pub id: u32,
    /// Addresses of every node in the cloud, indexed by node id (including
    /// this node's own listen address).
    pub peers: Vec<SocketAddr>,
    /// Local store capacity.
    pub capacity: ByteSize,
    /// Beacon points per ring in the initial routing table (must divide
    /// the node count evenly).
    pub points_per_ring: usize,
    /// Intra-ring hash generator.
    pub irh_gen: u64,
    /// Retry policy of this node's outgoing peer RPCs.
    pub retry: RetryPolicy,
    /// Whether outgoing peer RPCs reuse pooled persistent connections
    /// (`false` falls back to one TCP connect per RPC, for comparison
    /// benchmarks).
    pub pooled: bool,
    /// Reactor shard (event-loop thread) count; `0` picks one per
    /// available core, capped at 4.
    pub shards: usize,
}

impl NodeConfig {
    /// A configuration with the paper's defaults: 2-point rings,
    /// IrHGen = 1024.
    pub fn new(id: u32, peers: Vec<SocketAddr>, capacity: ByteSize) -> Self {
        let points_per_ring = if peers.len().is_multiple_of(2) && peers.len() >= 2 {
            2
        } else {
            1
        };
        NodeConfig {
            id,
            peers,
            capacity,
            points_per_ring,
            irh_gen: 1024,
            retry: RetryPolicy::default(),
            pooled: true,
            shards: 0,
        }
    }
}

/// One document body plus its version, and its store identity (so a hit
/// refreshes recency without rehashing the URL).
#[derive(Debug, Clone)]
struct Body {
    version: u64,
    data: Bytes,
    doc: DocId,
}

/// One beacon-directory record.
#[derive(Debug, Clone, Default)]
struct DirEntry {
    version: u64,
    holders: HashSet<u32>,
}

/// Pre-resolved lock-free telemetry handles for one node: request-lifecycle
/// counters keyed by the shared [`EventKind`] vocabulary, two latency
/// histograms, and the structured event log.
#[derive(Debug)]
struct NodeTelemetry {
    registry: Registry,
    /// Wall-clock epoch; event timestamps are microseconds since node start.
    epoch: Instant,
    events: EventLog,
    requests: Counter,
    local_hits: Counter,
    cloud_hits: Counter,
    origin_fetches: Counter,
    beacon_lookups: Counter,
    peer_fetches: Counter,
    peer_fetch_failures: Counter,
    stores: Counter,
    evictions: Counter,
    registrations: Counter,
    unregistrations: Counter,
    unregister_failures: Counter,
    directory_reroutes: Counter,
    updates_propagated: Counter,
    updates_skipped: Counter,
    update_deliveries: Counter,
    handoff_records: Counter,
    rpc_errors: Counter,
    rpc_retries: Counter,
    rpc_timeouts: Counter,
    origin_fallbacks: Counter,
    beacon_failovers: Counter,
    accept_errors: Counter,
    beacon_fills: Counter,
    update_delivery_failures: Counter,
    handoff_failures: Counter,
    /// Outgoing peer-RPC latency in milliseconds.
    rpc_ms: Arc<AtomicHistogram>,
    /// End-to-end `Serve` handling latency in milliseconds.
    serve_ms: Arc<AtomicHistogram>,
}

impl NodeTelemetry {
    fn new(sinks: Vec<Arc<dyn EventSink>>) -> Self {
        let registry = Registry::new();
        let c = |k: EventKind| registry.counter(k.as_str());
        let mut events = EventLog::new();
        for sink in sinks {
            events.attach(sink);
        }
        NodeTelemetry {
            requests: c(EventKind::Request),
            local_hits: c(EventKind::LocalHit),
            cloud_hits: c(EventKind::CloudHit),
            origin_fetches: c(EventKind::OriginFetch),
            beacon_lookups: c(EventKind::BeaconLookup),
            peer_fetches: c(EventKind::PeerFetch),
            peer_fetch_failures: c(EventKind::PeerFetchFailure),
            stores: c(EventKind::Store),
            evictions: c(EventKind::Eviction),
            registrations: c(EventKind::Registration),
            unregistrations: c(EventKind::Unregistration),
            unregister_failures: c(EventKind::UnregisterFailure),
            directory_reroutes: c(EventKind::DirectoryReroute),
            updates_propagated: c(EventKind::UpdatePropagated),
            updates_skipped: c(EventKind::UpdateSkipped),
            update_deliveries: c(EventKind::UpdateDelivery),
            handoff_records: c(EventKind::HandoffRecord),
            rpc_errors: c(EventKind::RpcError),
            rpc_retries: c(EventKind::RpcRetry),
            rpc_timeouts: c(EventKind::RpcTimeout),
            origin_fallbacks: c(EventKind::OriginFallback),
            beacon_failovers: c(EventKind::BeaconFailover),
            accept_errors: c(EventKind::AcceptError),
            beacon_fills: c(EventKind::BeaconFill),
            update_delivery_failures: c(EventKind::UpdateDeliveryFailure),
            handoff_failures: c(EventKind::HandoffFailure),
            rpc_ms: registry.histogram("rpc_ms", 0.0, 250.0, 50),
            serve_ms: registry.histogram("serve_ms", 0.0, 250.0, 50),
            epoch: Instant::now(),
            events,
            registry,
        }
    }

    /// Emits a structured lifecycle event (no-op with no sinks attached).
    fn emit(&self, node: u32, kind: EventKind, url: Option<&str>) {
        if self.events.is_active() {
            let ts = self.epoch.elapsed().as_micros() as u64;
            let mut ev = Event::new(ts, node, kind);
            if let Some(url) = url {
                ev = ev.url(url);
            }
            self.events.emit(&ev);
        }
    }
}

/// Shared node state.
#[derive(Debug)]
struct State {
    /// Document bodies (the `CacheStore` tracks metadata/eviction). Lock
    /// order: `directory`, then `bodies`, then `store`.
    bodies: Mutex<HashMap<String, Body>>,
    /// Metadata store driving capacity and replacement.
    store: Mutex<CacheStore>,
    /// Beacon directory for the URL ranges this node currently owns.
    directory: Mutex<HashMap<String, DirEntry>>,
    /// The cloud's routing table (all nodes converge on the same one).
    table: RwLock<RouteTable>,
    /// Per-(ring, IrH) beacon load handled this cycle.
    loads: Mutex<HashMap<(u32, u64), f64>>,
    /// Lifecycle counters, latency histograms and the event log.
    telemetry: NodeTelemetry,
}

/// One node's configuration and state, shared by its shards.
#[derive(Debug)]
struct Node {
    config: NodeConfig,
    state: State,
}

/// What [`Node::insert_local`] did with a body.
enum Insert {
    /// A newer version is resident; it was kept.
    Stale,
    /// Stored; `held` when it replaced a resident copy.
    Stored { held: bool, evicted: Vec<DocId> },
}

/// A running cache-cloud node.
///
/// Listens on a TCP socket, serves the wire protocol, and cooperates with
/// its peers: `Serve` walks the full local-store → beacon → peer-holder
/// path, `Update` fans a new version out to every registered holder, and
/// `SetRanges` migrates beacon responsibilities live.
///
/// The server is a sharded reactor (see [`crate::reactor`]): every request
/// runs as a task on the event-loop shard that decoded it, and requests
/// that need peers await nonblocking peer calls there. The node runs no
/// thread but its shards. [`CacheNode::shutdown`] drains pending requests
/// and joins every shard.
#[derive(Debug)]
pub struct CacheNode {
    node: Arc<Node>,
    addr: SocketAddr,
    server: Option<Server>,
}

impl CacheNode {
    /// Binds and starts a node. `listen` may use port 0 to pick an
    /// ephemeral port; the bound address is available via
    /// [`CacheNode::addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(config: NodeConfig, listen: SocketAddr) -> Result<Self, CacheCloudError> {
        let listener = TcpListener::bind(listen)?;
        Self::start_on(config, listener)
    }

    /// Starts a node on an already-bound listener. `LocalCluster` binds all
    /// listeners first so every node can start with the complete peer
    /// table.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start_on(config: NodeConfig, listener: TcpListener) -> Result<Self, CacheCloudError> {
        Self::start_on_with_sinks(config, listener, Vec::new())
    }

    /// Like [`CacheNode::start_on`], but with structured-event sinks
    /// attached: every request-lifecycle step the node observes is emitted
    /// as a telemetry [`Event`] to each sink. With an empty sink list the
    /// event path compiles down to a flag check.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start_on_with_sinks(
        config: NodeConfig,
        listener: TcpListener,
        sinks: Vec<Arc<dyn EventSink>>,
    ) -> Result<Self, CacheCloudError> {
        let addr = listener.local_addr()?;
        let table = RouteTable::initial(config.peers.len(), config.points_per_ring, config.irh_gen);
        let state = State {
            bodies: Mutex::new(HashMap::new()),
            store: Mutex::new(CacheStore::new(config.capacity, Box::new(LruPolicy::new()))),
            directory: Mutex::new(HashMap::new()),
            table: RwLock::new(table),
            loads: Mutex::new(HashMap::new()),
            telemetry: NodeTelemetry::new(sinks),
        };
        let mut opts = ServerOptions::named(format!("ccnode-{}", config.id));
        opts.shards = config.shards;
        let node = Arc::new(Node { config, state });
        let service = Arc::new(NodeService(Arc::clone(&node)));
        let server = Server::start(listener, service, opts)
            .map_err(|e| CacheCloudError::Io(e.to_string()))?;
        Ok(CacheNode {
            node,
            addr,
            server: Some(server),
        })
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.node.config.id
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains pending requests (their responses are
    /// still delivered), and joins every shard thread — no serving thread
    /// outlives this call.
    pub fn shutdown(mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for CacheNode {
    fn drop(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The [`Service`] the reactor runs: every request becomes a [`handle`]
/// task on the shard that decoded it.
struct NodeService(Arc<Node>);

impl Service for NodeService {
    fn call(&self, req: Request, io: &Rc<ShardIo>) -> Task {
        Box::pin(handle(Arc::clone(&self.0), req, Rc::clone(io)))
    }

    fn accept_error(&self, _err: &io::Error) {
        let node = &self.0;
        node.state.telemetry.accept_errors.inc();
        node.emit(EventKind::AcceptError, None);
    }
}

/// One request, start to finish. Requests that need no peer (hits,
/// directory traffic this node owns, stats, table reads, adoption)
/// complete in the task's first poll.
async fn handle(node: Arc<Node>, req: Request, io: Rc<ShardIo>) -> Response {
    let (node, io) = (&*node, &*io);
    match req {
        Request::Serve { url } => {
            let t0 = Instant::now();
            let resp = node.serve(io, url).await;
            node.state
                .telemetry
                .serve_ms
                .record(t0.elapsed().as_secs_f64() * 1e3);
            resp
        }
        Request::Put { url, version, body } => node.store(io, url, version, body, false).await,
        Request::Update { url, version, body } => node.update(io, url, version, body).await,
        Request::SetRanges { table } => node.set_ranges(io, table).await,
        Request::Register {
            url,
            holder,
            table_version,
        } => {
            node.apply_directory(io, vec![url], holder, table_version, DirOp::Register)
                .await
        }
        Request::Unregister {
            url,
            holder,
            table_version,
        } => {
            node.apply_directory(io, vec![url], holder, table_version, DirOp::Unregister)
                .await
        }
        Request::RegisterBatch {
            urls,
            holder,
            table_version,
        } => {
            node.apply_directory(io, urls, holder, table_version, DirOp::Register)
                .await
        }
        Request::UnregisterBatch {
            urls,
            holder,
            table_version,
        } => {
            node.apply_directory(io, urls, holder, table_version, DirOp::Unregister)
                .await
        }
        Request::Ping => Response::Pong,
        Request::Stats => node.stats(),
        Request::Lookup { url } => {
            node.note_beacon_load(&url);
            node.holders_of(&url)
        }
        Request::Fill {
            url,
            requester,
            table_version,
        } => node.fill(url, requester, table_version),
        Request::Get { url } => match node.state.bodies.lock().get(&url) {
            Some(body) => Response::Document {
                version: body.version,
                body: body.data.clone(),
            },
            None => Response::NotFound,
        },
        Request::GetLoad => {
            let mut loads = node.state.loads.lock();
            let entries = loads
                .drain()
                .map(|((ring, irh), load)| (ring, irh, load))
                .collect();
            Response::Load { entries }
        }
        Request::GetTable => Response::Table {
            table: node.state.table.read().clone(),
        },
        Request::Adopt {
            url,
            version,
            holders,
        } => {
            let tel = &node.state.telemetry;
            tel.handoff_records.add(holders.len().max(1) as u64);
            node.emit(EventKind::HandoffRecord, Some(&url));
            let mut dir = node.state.directory.lock();
            let entry = dir.entry(url).or_default();
            entry.version = entry.version.max(version);
            entry.holders.extend(holders);
            Response::Ok
        }
    }
}

/// Which directory mutation a (possibly batched) request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirOp {
    Register,
    Unregister,
}

impl Node {
    /// Emits a structured lifecycle event.
    fn emit(&self, kind: EventKind, url: Option<&str>) {
        self.state.telemetry.emit(self.config.id, kind, url);
    }

    fn bounded(&self) -> bool {
        self.config.capacity != ByteSize::UNLIMITED
    }

    fn note_beacon_load(&self, url: &str) {
        let doc = DocId::from_url(url);
        let table = self.state.table.read();
        let key = (table.ring_of(&doc) as u32, table.irh_of(&doc));
        drop(table);
        *self.state.loads.lock().entry(key).or_insert(0.0) += 1.0;
    }

    /// The directory's answer for `url`: its registered holders.
    fn holders_of(&self, url: &str) -> Response {
        match self.state.directory.lock().get(url) {
            Some(entry) => {
                let mut holders: Vec<u32> = entry.holders.iter().copied().collect();
                holders.sort_unstable();
                Response::Holders {
                    holders,
                    version: entry.version,
                }
            }
            None => Response::Holders {
                holders: Vec::new(),
                version: 0,
            },
        }
    }

    fn stats(&self) -> Response {
        let state = &self.state;
        let directory_records = state
            .directory
            .lock()
            .values()
            .map(|e| e.holders.len() as u64)
            .sum();
        Response::Stats {
            stats: NodeStats {
                node: self.config.id,
                resident: state.store.lock().len() as u64,
                directory_records,
                counters: state.telemetry.registry.snapshot_counters(),
                histograms: state.telemetry.registry.snapshot_histograms(),
            },
        }
    }

    /// One peer RPC under the node's [`RetryPolicy`](crate::RetryPolicy):
    /// bounded attempts with deterministic backoff and a per-request
    /// deadline, each attempt a nonblocking call on the shard. Latency is
    /// recorded in `rpc_ms` (whole call, retries included); re-attempts
    /// are counted under `rpc_retries`, deadline failures under
    /// `rpc_timeouts`, and any final failure under `rpc_errors`.
    async fn rpc(&self, io: &ShardIo, to: u32, req: &Request) -> Result<Response, CacheCloudError> {
        let Some(&addr) = self.config.peers.get(to as usize) else {
            return Err(CacheCloudError::UnknownCache(CacheId(to as usize)));
        };
        let t0 = Instant::now();
        let mut attempts = self
            .config
            .retry
            .attempts(u64::from(addr.port()), "peer rpc");
        let out = loop {
            let budget = match attempts.begin() {
                Ok(budget) => budget,
                Err(e) => break Err(e),
            };
            match io.call(addr, req, budget, self.config.pooled).await {
                Ok(resp) => break Ok(resp),
                Err(e) => match attempts.fail(e) {
                    Ok(pause) => io.sleep(pause).await,
                    Err(e) => break Err(e),
                },
            }
        };
        let report = attempts.report();
        let tel = &self.state.telemetry;
        tel.rpc_ms.record(t0.elapsed().as_secs_f64() * 1e3);
        tel.rpc_retries.add(u64::from(report.retries));
        if report.timed_out {
            tel.rpc_timeouts.inc();
        }
        if out.is_err() {
            tel.rpc_errors.inc();
        }
        out
    }

    /// A local read: the resident version and body. On a bounded store a
    /// hit also refreshes the document's recency; an unbounded store never
    /// picks a victim, so it skips that upkeep.
    fn read_local(&self, url: &str) -> Option<(u64, Bytes)> {
        let bodies = self.state.bodies.lock();
        let body = bodies.get(url)?;
        if self.bounded() {
            self.state.store.lock().access(&body.doc, SimTime::ZERO);
        }
        Some((body.version, body.data.clone()))
    }

    /// Installs a body unless a newer version is resident. The version
    /// check, the store insert and the body swap happen under one `bodies`
    /// lock, so racing puts (retries, late fills, concurrent fan-outs)
    /// cannot regress a copy.
    fn insert_local(&self, url: &str, version: u64, body: Bytes) -> Result<Insert, String> {
        let mut bodies = self.state.bodies.lock();
        let (doc, held) = match bodies.get(url) {
            Some(b) if b.version > version => return Ok(Insert::Stale),
            Some(b) => (b.doc.clone(), true),
            None => (DocId::from_url(url), false),
        };
        let size = ByteSize::from_bytes(body.len().max(1) as u64);
        let evicted = self
            .state
            .store
            .lock()
            .insert(doc.clone(), size, Version(version), SimTime::ZERO)
            .map_err(|e| e.to_string())?;
        for victim in &evicted {
            bodies.remove(victim.url());
        }
        bodies.insert(
            url.to_owned(),
            Body {
                version,
                data: body,
                doc,
            },
        );
        Ok(Insert::Stored { held, evicted })
    }

    /// Stores a body locally, then deregisters evicted documents at their
    /// beacons and registers this copy at its own — all in one concurrent
    /// round. `registered` says the beacon already lists this node (a
    /// fill), so no `Register` is sent.
    async fn store(
        &self,
        io: &ShardIo,
        url: String,
        version: u64,
        body: Bytes,
        registered: bool,
    ) -> Response {
        let (held, evicted) = match self.insert_local(&url, version, body) {
            Ok(Insert::Stored { held, evicted }) => (held, evicted),
            // The resident copy is newer and already registered.
            Ok(Insert::Stale) => return Response::Ok,
            Err(message) => return Response::Error { message },
        };
        let tel = &self.state.telemetry;
        tel.stores.inc();
        self.emit(EventKind::Store, Some(&url));
        let me = self.config.id;
        // Evicted copies are deregistered grouped by beacon: one batch per
        // beacon instead of one RPC per victim.
        let mut by_beacon: HashMap<u32, Vec<String>> = HashMap::new();
        let (own_beacon, table_version) = {
            let t = self.state.table.read();
            for victim in &evicted {
                tel.evictions.inc();
                self.emit(EventKind::Eviction, Some(victim.url()));
                by_beacon
                    .entry(t.beacon_of(victim))
                    .or_default()
                    .push(victim.url().to_owned());
            }
            (t.beacon_of_url(&url), t.version)
        };
        // Directory changes at this node itself apply at once; the rest
        // go out as one concurrent round of peer calls.
        let mut calls: Vec<(u32, Request)> = Vec::new();
        for (b, urls) in by_beacon {
            if b == me {
                urls.iter().for_each(|u| self.unregister_locally(u, me));
            } else {
                let req = Request::UnregisterBatch {
                    urls,
                    holder: me,
                    table_version,
                };
                calls.push((b, req));
            }
        }
        // Register this copy at the document's beacon — unless the beacon
        // already lists us: update delivery overwrites a registered copy
        // (the beacon fanned the update out *because* its record lists
        // us), and a fill registered us at lookup time.
        if !held && !registered {
            if own_beacon == me {
                self.register_locally(url, me);
            } else {
                let req = Request::Register {
                    url,
                    holder: me,
                    table_version,
                };
                calls.push((own_beacon, req));
            }
        }
        let replies = join_all(calls.iter().map(|(b, req)| self.rpc(io, *b, req))).await;
        // Every failed deregistration leaves a stale holder entry behind
        // that update fan-out would keep delivering to, so each one is
        // counted under `unregister_failures`.
        let mut reply = Response::Ok;
        for ((_, req), resp) in calls.iter().zip(replies) {
            let resp = resp.unwrap_or_else(|e| Response::Error {
                message: e.to_string(),
            });
            match req {
                Request::UnregisterBatch { urls, .. } => {
                    if !matches!(resp, Response::Ok) {
                        tel.unregister_failures.add(urls.len() as u64);
                        self.emit(
                            EventKind::UnregisterFailure,
                            urls.first().map(String::as_str),
                        );
                    }
                }
                _ => reply = resp,
            }
        }
        reply
    }

    fn register_locally(&self, url: String, holder: u32) {
        self.state.telemetry.registrations.inc();
        self.emit(EventKind::Registration, Some(&url));
        self.state
            .directory
            .lock()
            .entry(url)
            .or_default()
            .holders
            .insert(holder);
    }

    fn unregister_locally(&self, url: &str, holder: u32) {
        self.state.telemetry.unregistrations.inc();
        self.emit(EventKind::Unregistration, Some(url));
        let mut dir = self.state.directory.lock();
        if let Some(entry) = dir.get_mut(url) {
            entry.holders.remove(&holder);
            if entry.holders.is_empty() {
                dir.remove(url);
            }
        }
    }

    /// Applies a (possibly batched) directory request. URLs this node owns
    /// under its current table — or that arrive stamped with a table
    /// version at least as new as its own — are applied locally. The rest
    /// were routed with a stale table: applying them would strand the
    /// record on a node that is no longer the beacon, so they are
    /// forwarded to the current owners (concurrently) instead, re-stamped
    /// with this node's (strictly newer) table version. Versions along a
    /// forwarding chain strictly increase, so chains terminate even while
    /// a rebalance is propagating.
    async fn apply_directory(
        &self,
        io: &ShardIo,
        urls: Vec<String>,
        holder: u32,
        table_version: u64,
        op: DirOp,
    ) -> Response {
        let mut local = Vec::new();
        let mut forward: HashMap<u32, Vec<String>> = HashMap::new();
        let current = {
            let t = self.state.table.read();
            let stale = table_version < t.version;
            for url in urls {
                let owner = t.beacon_of_url(&url);
                if stale && owner != self.config.id {
                    forward.entry(owner).or_default().push(url);
                } else {
                    local.push(url);
                }
            }
            t.version
        };
        for url in local {
            match op {
                DirOp::Register => self.register_locally(url, holder),
                DirOp::Unregister => self.unregister_locally(&url, holder),
            }
        }
        if forward.is_empty() {
            return Response::Ok;
        }
        let batches: Vec<(u32, Request)> = forward
            .into_iter()
            .map(|(owner, urls)| {
                let n = urls.len() as u64;
                self.state.telemetry.directory_reroutes.add(n);
                self.emit(
                    EventKind::DirectoryReroute,
                    urls.first().map(String::as_str),
                );
                let req = match op {
                    DirOp::Register => Request::RegisterBatch {
                        urls,
                        holder,
                        table_version: current,
                    },
                    DirOp::Unregister => Request::UnregisterBatch {
                        urls,
                        holder,
                        table_version: current,
                    },
                };
                (owner, req)
            })
            .collect();
        let replies = join_all(batches.iter().map(|(owner, req)| self.rpc(io, *owner, req))).await;
        let failed: u64 = batches
            .iter()
            .zip(replies)
            .filter(|(_, reply)| !matches!(reply, Ok(Response::Ok)))
            .map(|((_, req), _)| match req {
                Request::RegisterBatch { urls, .. } | Request::UnregisterBatch { urls, .. } => {
                    urls.len() as u64
                }
                _ => 0,
            })
            .sum();
        if failed == 0 {
            Response::Ok
        } else {
            Response::Error {
                message: format!("{failed} re-routed directory record(s) not applied"),
            }
        }
    }

    /// The beacon side of a cooperative miss (see [`Request::Fill`]). The
    /// directory lock is held from the version read to the registration,
    /// and an `Update` raises the directory version before it snapshots
    /// the holders it fans out to: so either the requester is registered
    /// before that snapshot (and receives the update), or this beacon
    /// sees the new version and fills only from a copy at least as new.
    fn fill(&self, url: String, requester: u32, table_version: u64) -> Response {
        self.note_beacon_load(&url);
        let owner = {
            let t = self.state.table.read();
            t.beacon_of_url(&url) == self.config.id && table_version >= t.version
        };
        if owner {
            let mut dir = self.state.directory.lock();
            let known = dir.get(&url).map_or(0, |e| e.version);
            let copy = self
                .state
                .bodies
                .lock()
                .get(&url)
                .filter(|b| b.version >= known)
                .map(|b| (b.version, b.data.clone()));
            if let Some((version, body)) = copy {
                dir.entry(url.clone())
                    .or_default()
                    .holders
                    .insert(requester);
                drop(dir);
                self.state.telemetry.registrations.inc();
                self.emit(EventKind::Registration, Some(&url));
                return Response::Document { version, body };
            }
        }
        self.holders_of(&url)
    }

    /// The full cooperative read path: local store, then the beacon
    /// (which fills the miss itself when it holds a copy), then a holder.
    async fn serve(&self, io: &ShardIo, url: String) -> Response {
        let tel = &self.state.telemetry;
        tel.requests.inc();
        self.emit(EventKind::Request, Some(&url));

        // 1. Local store.
        if let Some((version, body)) = self.read_local(&url) {
            tel.local_hits.inc();
            self.emit(EventKind::LocalHit, Some(&url));
            return Response::Document { version, body };
        }
        // The miss path holds peer-call state a hit never needs; boxing it
        // keeps every request's task small.
        Box::pin(self.serve_miss(io, url)).await
    }

    /// Steps 2 and 3 of [`Node::serve`].
    async fn serve_miss(&self, io: &ShardIo, url: String) -> Response {
        let tel = &self.state.telemetry;
        let me = self.config.id;

        // 2. Beacon fill, failing over along the ring. Ring partners carry
        // lazily replicated directory state (paper §3.3), so when the
        // primary beacon is dead the next ring member can still answer —
        // worst case with an empty holder list, which degrades the request
        // to the origin instead of failing it.
        tel.beacon_lookups.inc();
        self.emit(EventKind::BeaconLookup, Some(&url));
        let (candidates, table_version) = {
            let t = self.state.table.read();
            (t.beacon_candidates_of_url(&url), t.version)
        };
        let fill = Request::Fill {
            url: url.clone(),
            requester: me,
            table_version,
        };
        let mut holders = None;
        for (i, b) in candidates.into_iter().enumerate() {
            let resp = if b == me {
                self.note_beacon_load(&url);
                self.holders_of(&url)
            } else {
                match self.rpc(io, b, &fill).await {
                    Ok(r) => r,
                    Err(_) => continue,
                }
            };
            if i > 0 && matches!(resp, Response::Holders { .. } | Response::Document { .. }) {
                tel.beacon_failovers.inc();
                self.emit(EventKind::BeaconFailover, Some(&url));
            }
            match resp {
                Response::Document { version, body } => {
                    tel.beacon_fills.inc();
                    self.emit(EventKind::BeaconFill, Some(&url));
                    tel.cloud_hits.inc();
                    self.emit(EventKind::CloudHit, Some(&url));
                    return self.keep_fill(io, b, url, version, body).await;
                }
                Response::Holders { holders: hs, .. } => {
                    holders = Some(hs);
                    break;
                }
                _ => {
                    return Response::Error {
                        message: "unexpected beacon response".into(),
                    }
                }
            }
        }
        let Some(holders) = holders else {
            // Every ring member is unreachable: degrade gracefully and let
            // the client fetch from the origin.
            tel.origin_fallbacks.inc();
            self.emit(EventKind::OriginFallback, Some(&url));
            tel.origin_fetches.inc();
            self.emit(EventKind::OriginFetch, Some(&url));
            return Response::NotFound;
        };

        // 3. Fetch from the first reachable holder, store, and serve.
        let mut had_peer_holders = false;
        for h in holders {
            if h == me || self.config.peers.get(h as usize).is_none() {
                continue;
            }
            had_peer_holders = true;
            tel.peer_fetches.inc();
            self.emit(EventKind::PeerFetch, Some(&url));
            if let Ok(Response::Document { version, body }) =
                self.rpc(io, h, &Request::Get { url: url.clone() }).await
            {
                tel.cloud_hits.inc();
                self.emit(EventKind::CloudHit, Some(&url));
                self.store(io, url, version, body.clone(), false).await;
                return Response::Document { version, body };
            }
            tel.peer_fetch_failures.inc();
            self.emit(EventKind::PeerFetchFailure, Some(&url));
        }

        // No cached copy was reachable: the client will fall through to
        // the origin. When holders existed but every fetch failed, that is
        // a degradation, not a plain miss — count it.
        if had_peer_holders {
            tel.origin_fallbacks.inc();
            self.emit(EventKind::OriginFallback, Some(&url));
        }
        tel.origin_fetches.inc();
        self.emit(EventKind::OriginFetch, Some(&url));
        Response::NotFound
    }

    /// Stores a copy the beacon filled (and registered us for). A copy
    /// that cannot be stored is unregistered again; when a newer version
    /// landed meanwhile (an update fanned out to us after the fill), the
    /// newer one is served.
    async fn keep_fill(
        &self,
        io: &ShardIo,
        beacon: u32,
        url: String,
        version: u64,
        body: Bytes,
    ) -> Response {
        let stored = self
            .store(io, url.clone(), version, body.clone(), true)
            .await;
        if !matches!(stored, Response::Ok) {
            let table_version = self.state.table.read().version;
            let undo = Request::Unregister {
                url: url.clone(),
                holder: self.config.id,
                table_version,
            };
            if !matches!(self.rpc(io, beacon, &undo).await, Ok(Response::Ok)) {
                self.state.telemetry.unregister_failures.inc();
                self.emit(EventKind::UnregisterFailure, Some(&url));
            }
        }
        match self.state.bodies.lock().get(&url) {
            Some(b) if b.version > version => Response::Document {
                version: b.version,
                body: b.data.clone(),
            },
            _ => Response::Document { version, body },
        }
    }

    /// The beacon side of an origin update: raise the directory version,
    /// then deliver the new body to every registered holder — this node
    /// first, the peers concurrently. Each failed delivery is counted
    /// under `update_delivery_failures`: that holder may stay stale.
    async fn update(&self, io: &ShardIo, url: String, version: u64, body: Bytes) -> Response {
        self.note_beacon_load(&url);
        let holders: Vec<u32> = {
            let mut dir = self.state.directory.lock();
            let entry = dir.entry(url.clone()).or_default();
            if version > entry.version {
                entry.version = version;
            }
            entry.holders.iter().copied().collect()
        };
        let tel = &self.state.telemetry;
        if holders.is_empty() {
            tel.updates_skipped.inc();
            self.emit(EventKind::UpdateSkipped, Some(&url));
        } else {
            tel.updates_propagated.inc();
            tel.update_deliveries.add(holders.len() as u64);
            self.emit(EventKind::UpdatePropagated, Some(&url));
        }
        let me = self.config.id;
        let mut failures = 0u64;
        if holders.contains(&me) {
            let own = self
                .store(io, url.clone(), version, body.clone(), false)
                .await;
            failures += u64::from(!matches!(own, Response::Ok));
        }
        let put = Request::Put {
            url: url.clone(),
            version,
            body,
        };
        let peers: Vec<u32> = holders.into_iter().filter(|h| *h != me).collect();
        let replies = join_all(peers.iter().map(|h| self.rpc(io, *h, &put))).await;
        failures += replies
            .iter()
            .filter(|r| !matches!(r, Ok(Response::Ok)))
            .count() as u64;
        if failures > 0 {
            tel.update_delivery_failures.add(failures);
            self.emit(EventKind::UpdateDeliveryFailure, Some(&url));
        }
        Response::Ok
    }

    /// Installs a newer routing table, then hands each directory record
    /// this node no longer owns to its new beacon. A record leaves this
    /// node only once its new owner acknowledged the `Adopt`; a failed
    /// handoff keeps it here and counts under `handoff_failures`. New
    /// owners are served concurrently, each over one connection in turn.
    async fn set_ranges(&self, io: &ShardIo, table: RouteTable) -> Response {
        if table.validate().is_err() {
            return Response::Error {
                message: "invalid route table".into(),
            };
        }
        {
            let mut current = self.state.table.write();
            if table.version <= current.version {
                return Response::Ok; // stale or duplicate install
            }
            *current = table.clone();
        }
        let mut by_owner: HashMap<u32, Vec<Request>> = HashMap::new();
        for (url, entry) in self.state.directory.lock().iter() {
            let owner = table.beacon_of_url(url);
            if owner != self.config.id {
                by_owner.entry(owner).or_default().push(Request::Adopt {
                    url: url.clone(),
                    version: entry.version,
                    holders: entry.holders.iter().copied().collect(),
                });
            }
        }
        let handoffs = by_owner.into_iter().map(|(owner, records)| async move {
            for record in records {
                let acked = matches!(self.rpc(io, owner, &record).await, Ok(Response::Ok));
                let Request::Adopt { url, holders, .. } = record else {
                    continue;
                };
                if acked {
                    let mut dir = self.state.directory.lock();
                    if let Some(entry) = dir.get_mut(&url) {
                        for h in &holders {
                            entry.holders.remove(h);
                        }
                        if entry.holders.is_empty() {
                            dir.remove(&url);
                        }
                    }
                } else {
                    self.state.telemetry.handoff_failures.inc();
                    self.emit(EventKind::HandoffFailure, Some(&url));
                }
            }
        });
        join_all(handoffs).await;
        Response::Ok
    }
}

/// One blocking request/response exchange with a peer over a throwaway
/// connection. The whole exchange (connect, write, read) is bounded by
/// `timeout` when one is given, so a stalled peer cannot hold a caller
/// past its retry deadline. Failures carry the peer's address so
/// cooperative-path errors name the node that caused them.
pub(crate) fn rpc_once(
    addr: SocketAddr,
    req: &Request,
    timeout: Option<Duration>,
) -> Result<Response, CacheCloudError> {
    Connection::connect(addr, timeout)?.call(req, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CloudClient;
    use crate::route::RangeEntry;
    use std::net::Ipv4Addr;

    const TIMEOUT: Option<Duration> = Some(Duration::from_secs(5));

    /// `n` single-shard nodes on loopback whose peer RPCs fail fast.
    fn spawn(n: usize, capacity: ByteSize) -> (Vec<CacheNode>, CloudClient) {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap())
            .collect();
        let peers: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                let mut config = NodeConfig::new(id as u32, peers.clone(), capacity);
                config.retry = RetryPolicy::fast();
                config.shards = 1;
                CacheNode::start_on(config, listener).unwrap()
            })
            .collect();
        (nodes, CloudClient::new(peers).unwrap())
    }

    fn call(addr: SocketAddr, req: &Request) -> Response {
        Connection::connect(addr, TIMEOUT)
            .unwrap()
            .call(req, TIMEOUT)
            .unwrap()
    }

    fn put(url: &str, version: u64, body: &[u8]) -> Request {
        Request::Put {
            url: url.into(),
            version,
            body: Bytes::from(body.to_vec()),
        }
    }

    #[test]
    fn a_hit_refreshes_recency_so_lru_evicts_the_other_document() {
        // Room for two 6-byte bodies. Hit A, then insert C: LRU evicts B
        // (insertion order alone would evict A).
        let (nodes, client) = spawn(1, ByteSize::from_bytes(12));
        client.publish("/a", vec![1; 6], 1).unwrap();
        client.publish("/b", vec![2; 6], 1).unwrap();
        assert!(client.fetch_via(0, "/a").unwrap().is_some());
        client.publish("/c", vec![3; 6], 1).unwrap();
        let addr = nodes[0].addr();
        assert!(matches!(
            call(addr, &Request::Get { url: "/a".into() }),
            Response::Document { .. }
        ));
        assert_eq!(
            call(addr, &Request::Get { url: "/b".into() }),
            Response::NotFound
        );
        let stats = client.stats(0).unwrap();
        assert_eq!(stats.counter("evictions"), 1);
        assert_eq!(stats.resident, 2);
    }

    #[test]
    fn an_older_put_never_replaces_a_newer_copy() {
        let (nodes, client) = spawn(2, ByteSize::UNLIMITED);
        let addr = nodes[1].addr();
        assert_eq!(call(addr, &put("/v", 2, b"two")), Response::Ok);
        assert_eq!(call(addr, &put("/v", 1, b"one")), Response::Ok);
        let (body, version) = client.fetch_via(1, "/v").unwrap().expect("held");
        assert_eq!((body.as_slice(), version), (&b"two"[..], 2));
    }

    #[test]
    fn a_late_fill_store_loses_to_the_update_fanned_out_after_it() {
        let (nodes, client) = spawn(4, ByteSize::UNLIMITED);
        let url = "/raced";
        client.publish(url, b"v1".to_vec(), 1).unwrap();
        let beacon = client.beacon_of(url);
        let x = (beacon + 1) % 4;
        // X's fill reaches the beacon, which registers X and answers v1...
        let filled = call(
            nodes[beacon as usize].addr(),
            &Request::Fill {
                url: url.into(),
                requester: x,
                table_version: 0,
            },
        );
        assert!(matches!(filled, Response::Document { version: 1, .. }));
        // ...then v2 fans out to X before X stores its v1 copy.
        client.update(url, b"v2".to_vec(), 2).unwrap();
        let xaddr = nodes[x as usize].addr();
        assert_eq!(call(xaddr, &put(url, 1, b"v1")), Response::Ok);
        let (body, version) = client.fetch_via(x, url).unwrap().expect("held");
        assert_eq!((body.as_slice(), version), (&b"v2"[..], 2));
        assert_eq!(client.stats(x).unwrap().counter("local_hits"), 1);
    }

    #[test]
    fn fill_answers_holders_when_the_beacon_cannot_fill() {
        let (nodes, client) = spawn(4, ByteSize::UNLIMITED);
        let url = "/nofill";
        let beacon = client.beacon_of(url);
        let (other, requester) = ((beacon + 1) % 4, (beacon + 2) % 4);
        let fill = |to: u32, table_version| {
            call(
                nodes[to as usize].addr(),
                &Request::Fill {
                    url: url.into(),
                    requester,
                    table_version,
                },
            )
        };
        let holders = || match call(
            nodes[beacon as usize].addr(),
            &Request::Lookup { url: url.into() },
        ) {
            Response::Holders { holders, .. } => holders,
            other => panic!("lookup returned {other:?}"),
        };
        // A holder is registered, but the beacon holds no copy itself.
        let reg = Request::Register {
            url: url.into(),
            holder: other,
            table_version: 0,
        };
        assert_eq!(call(nodes[beacon as usize].addr(), &reg), Response::Ok);
        assert_eq!(
            fill(beacon, 0),
            Response::Holders {
                holders: vec![other],
                version: 0,
            }
        );
        // Not the beacon: a directory answer, nothing registered there.
        client.publish(url, b"body".to_vec(), 1).unwrap();
        assert!(matches!(fill(other, 0), Response::Holders { .. }));
        assert_eq!(client.stats(other).unwrap().counter("registrations"), 0);
        // A requester behind the beacon's table gets holders only.
        let newer = RouteTable {
            version: 1,
            ..RouteTable::initial(4, 2, 1024)
        };
        let install = Request::SetRanges { table: newer };
        assert_eq!(call(nodes[beacon as usize].addr(), &install), Response::Ok);
        assert!(matches!(fill(beacon, 0), Response::Holders { .. }));
        assert!(!holders().contains(&requester));
        // A current requester is filled and registered in one exchange.
        assert!(matches!(
            fill(beacon, 1),
            Response::Document { version: 1, .. }
        ));
        assert!(holders().contains(&requester));
    }

    #[test]
    fn a_failed_update_delivery_is_counted() {
        let (mut nodes, client) = spawn(2, ByteSize::UNLIMITED);
        let url = "/fanout";
        client.publish(url, b"v1".to_vec(), 1).unwrap();
        let beacon = client.beacon_of(url);
        let holder = 1 - beacon;
        assert!(client.fetch_via(holder, url).unwrap().is_some());
        nodes.remove(holder as usize).shutdown();
        client.update(url, b"v2".to_vec(), 2).unwrap();
        let stats = client.stats(beacon).unwrap();
        assert_eq!(stats.counter("update_deliveries"), 2);
        assert_eq!(stats.counter("update_delivery_failures"), 1);
    }

    #[test]
    fn a_failed_handoff_keeps_the_record_and_is_counted() {
        // One ring: node 0 owns IrH [0, 511], node 1 owns [512, 1023].
        let (mut nodes, client) = spawn(2, ByteSize::UNLIMITED);
        let table = RouteTable::initial(2, 2, 1024);
        let (url, irh) = (0..1000)
            .map(|i| format!("/handoff/{i}"))
            .map(|u| {
                let irh = table.irh_of(&DocId::from_url(&u));
                (u, irh)
            })
            .find(|(u, irh)| *irh > 0 && table.beacon_of_url(u) == 0)
            .expect("a node-0 document");
        client.publish(&url, b"body".to_vec(), 1).unwrap();
        assert_eq!(client.stats(0).unwrap().directory_records, 1);
        // The new table moves the record's IrH value to node 1 — which is
        // dead by the time node 0 installs it.
        let moved = RouteTable {
            version: 1,
            irh_gen: 1024,
            rings: vec![vec![
                RangeEntry {
                    node: 0,
                    lo: 0,
                    hi: irh - 1,
                },
                RangeEntry {
                    node: 1,
                    lo: irh,
                    hi: 1023,
                },
            ]],
        };
        assert_eq!(moved.beacon_of_url(&url), 1);
        let addr0 = nodes[0].addr();
        nodes.remove(1).shutdown();
        assert_eq!(
            call(addr0, &Request::SetRanges { table: moved }),
            Response::Ok
        );
        let stats = client.stats(0).unwrap();
        assert_eq!(stats.counter("handoff_failures"), 1);
        assert_eq!(stats.directory_records, 1, "the record stays put");
        match call(addr0, &Request::Lookup { url: url.clone() }) {
            Response::Holders { holders, .. } => assert_eq!(holders, vec![0]),
            other => panic!("lookup returned {other:?}"),
        }
    }

    #[test]
    fn fan_out_storm_on_single_shard_nodes_never_times_out() {
        // Concurrent updates (beacon -> holders -> re-registration) and
        // misses (fills, evictions, deregistration) cross every pair of
        // nodes while each node has a single shard: nothing may wait on a
        // peer that is itself waiting.
        let (nodes, client) = spawn(4, ByteSize::from_bytes(800));
        let urls: Vec<String> = (0..64).map(|i| format!("/storm/{i}")).collect();
        for url in &urls {
            client.publish(url, vec![0; 100], 1).unwrap();
        }
        let version = Arc::new(std::sync::atomic::AtomicU64::new(2));
        let workers: Vec<_> = (0..4usize)
            .map(|w| {
                let (client, urls, version) = (client.clone(), urls.clone(), Arc::clone(&version));
                std::thread::spawn(move || {
                    for j in 0..150usize {
                        let url = &urls[(w * 17 + j * 13) % urls.len()];
                        let v = version.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if j % 4 == 0 {
                            client.update(url, vec![w as u8; 100], v).unwrap();
                        } else if client.fetch_via((j % 4) as u32, url).unwrap().is_none() {
                            client.publish(url, vec![w as u8; 100], v).unwrap();
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("storm client failed");
        }
        let stats = client.cloud_stats().unwrap();
        assert_eq!(stats.counter("rpc_timeouts"), 0);
        assert_eq!(stats.counter("rpc_errors"), 0);
        assert!(stats.counter("evictions") > 0, "stores were bounded");
        assert!(stats.counter("beacon_fills") > 0);
        drop(nodes);
    }
}
