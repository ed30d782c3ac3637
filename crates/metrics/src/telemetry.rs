//! Live telemetry: lock-free counters/gauges, atomic latency histograms, a
//! metric [`Registry`], per-node stat snapshots, and a structured event
//! logger with pluggable sinks.
//!
//! The module defines one shared vocabulary — [`EventKind`] — used by both
//! the live cluster (`cachecloud-cluster`) and the discrete-event simulator
//! (`cache-clouds`), so counters scraped from a running node line up
//! field-for-field with a `SimReport` produced from the same workload.
//!
//! Handles returned by the registry ([`Counter`], [`Gauge`],
//! [`AtomicHistogram`]) are cheap `Arc` clones over atomics: recording a
//! sample never takes a lock, so instrumentation can sit on the hot request
//! path of a node.
//!
//! # Examples
//!
//! ```
//! use cachecloud_metrics::telemetry::{EventKind, Registry};
//!
//! let reg = Registry::new();
//! let hits = reg.counter(EventKind::LocalHit.as_str());
//! hits.inc();
//! hits.add(2);
//! let rpc = reg.histogram("rpc_ms", 0.0, 1000.0, 50);
//! rpc.record(12.5);
//! assert_eq!(reg.counter_value(EventKind::LocalHit.as_str()), 3);
//! assert_eq!(reg.snapshot_histograms()[0].1.count(), 1);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonWriter;

/// The shared request-lifecycle vocabulary used by the simulator's
/// `Observer` hook and the live node's counters.
///
/// The first block of variants mirrors the simulator's `CloudStats` fields
/// one-for-one; the second block covers cluster-only mechanics (RPC plumbing
/// that has no analogue inside the in-process simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// A document request arrived at a node.
    Request,
    /// The request was served from the node's own cache.
    LocalHit,
    /// The request was served from a peer inside the cache cloud.
    CloudHit,
    /// The request fell through to the origin server.
    OriginFetch,
    /// An origin update was fanned out to cached copies.
    UpdatePropagated,
    /// An origin update found no cached copies to refresh.
    UpdateSkipped,
    /// One copy of an update was delivered to one holder.
    UpdateDelivery,
    /// A fetched document was admitted into a local cache.
    Store,
    /// A fetched document was deliberately not cached.
    Drop,
    /// A resident document was evicted to make room.
    Eviction,
    /// A directory record was handed off during a topology change.
    HandoffRecord,
    /// A simulation cycle (periodic bookkeeping pass) completed.
    Cycle,
    /// A stale document was served past its freshness bound.
    StaleServe,
    /// A document was revalidated against the origin.
    Revalidation,
    /// A beacon point was consulted to locate a document (cluster only).
    BeaconLookup,
    /// A document was fetched from a peer node (cluster only).
    PeerFetch,
    /// A peer fetch failed and fell back to the origin (cluster only).
    PeerFetchFailure,
    /// A directory registration was installed at a beacon (cluster only).
    Registration,
    /// A directory registration was removed from a beacon (cluster only).
    Unregistration,
    /// An RPC to a peer failed outright, after exhausting its retry budget
    /// or its deadline (cluster only).
    RpcError,
    /// One additional attempt of an RPC after a transient failure
    /// (cluster only).
    RpcRetry,
    /// An RPC whose final outcome was a deadline expiry (cluster only).
    RpcTimeout,
    /// A cooperative read degraded to the origin because no peer copy was
    /// reachable (cluster only).
    OriginFallback,
    /// A beacon lookup failed over to another member of the beacon's ring
    /// (cluster only).
    BeaconFailover,
    /// An inbound connection failed to be accepted — a failed `accept`
    /// call or fd exhaustion at the listener (cluster only).
    AcceptError,
    /// An eviction-path deregistration could not be confirmed at its
    /// beacon — the directory may retain a stale holder entry until the
    /// next registration churn (cluster only).
    UnregisterFailure,
    /// A directory request carrying a stale routing-table version was
    /// re-routed to the beacon that owns the URL under the current table
    /// (cluster only).
    DirectoryReroute,
    /// A beacon answered a miss with its own copy and registered the
    /// requester in the same exchange (cluster only).
    BeaconFill,
    /// An update could not be delivered to one registered holder, which
    /// may stay stale (cluster only).
    UpdateDeliveryFailure,
    /// A directory record could not be handed to its new beacon during a
    /// rebalance and stays at the old one (cluster only).
    HandoffFailure,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 30] = [
        EventKind::Request,
        EventKind::LocalHit,
        EventKind::CloudHit,
        EventKind::OriginFetch,
        EventKind::UpdatePropagated,
        EventKind::UpdateSkipped,
        EventKind::UpdateDelivery,
        EventKind::Store,
        EventKind::Drop,
        EventKind::Eviction,
        EventKind::HandoffRecord,
        EventKind::Cycle,
        EventKind::StaleServe,
        EventKind::Revalidation,
        EventKind::BeaconLookup,
        EventKind::PeerFetch,
        EventKind::PeerFetchFailure,
        EventKind::Registration,
        EventKind::Unregistration,
        EventKind::RpcError,
        EventKind::RpcRetry,
        EventKind::RpcTimeout,
        EventKind::OriginFallback,
        EventKind::BeaconFailover,
        EventKind::AcceptError,
        EventKind::UnregisterFailure,
        EventKind::DirectoryReroute,
        EventKind::BeaconFill,
        EventKind::UpdateDeliveryFailure,
        EventKind::HandoffFailure,
    ];

    /// Stable snake_case name, used as the counter key in a [`Registry`],
    /// the `kind` field of emitted events, and the counter names carried by
    /// `NodeStats` over the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Request => "requests",
            EventKind::LocalHit => "local_hits",
            EventKind::CloudHit => "cloud_hits",
            EventKind::OriginFetch => "origin_fetches",
            EventKind::UpdatePropagated => "updates_propagated",
            EventKind::UpdateSkipped => "updates_skipped",
            EventKind::UpdateDelivery => "update_deliveries",
            EventKind::Store => "stores",
            EventKind::Drop => "drops",
            EventKind::Eviction => "evictions",
            EventKind::HandoffRecord => "handoff_records",
            EventKind::Cycle => "cycles",
            EventKind::StaleServe => "stale_serves",
            EventKind::Revalidation => "revalidations",
            EventKind::BeaconLookup => "beacon_lookups",
            EventKind::PeerFetch => "peer_fetches",
            EventKind::PeerFetchFailure => "peer_fetch_failures",
            EventKind::Registration => "registrations",
            EventKind::Unregistration => "unregistrations",
            EventKind::RpcError => "rpc_errors",
            EventKind::RpcRetry => "rpc_retries",
            EventKind::RpcTimeout => "rpc_timeouts",
            EventKind::OriginFallback => "origin_fallbacks",
            EventKind::BeaconFailover => "beacon_failovers",
            EventKind::AcceptError => "accept_errors",
            EventKind::UnregisterFailure => "unregister_failures",
            EventKind::DirectoryReroute => "directory_reroutes",
            EventKind::BeaconFill => "beacon_fills",
            EventKind::UpdateDeliveryFailure => "update_delivery_failures",
            EventKind::HandoffFailure => "handoff_failures",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monotonically increasing counter. Clones share the same underlying
/// atomic, so a handle can be captured once and bumped lock-free.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (resident documents, directory
/// records, open connections). Clones share the same underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Creates a gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-point scale used for the atomic running sum (microsecond precision
/// when samples are milliseconds).
const SUM_SCALE: f64 = 1_000_000.0;

/// A lock-free histogram with uniform-width buckets over `[lo, hi)` plus
/// underflow/overflow buckets, mirroring [`crate::Histogram`] but recordable
/// from many threads without a lock.
///
/// The running sum is kept in fixed point (scaled by 10⁶) so it fits an
/// `AtomicU64`; negative samples are clamped into the underflow bucket and
/// contribute zero to the sum.
#[derive(Debug)]
pub struct AtomicHistogram {
    lo: f64,
    hi: f64,
    buckets: Vec<AtomicU64>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    count: AtomicU64,
    sum_fp: AtomicU64,
}

impl AtomicHistogram {
    /// Creates a histogram with `n` uniform buckets over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi, "lo must be below hi");
        assert!(n > 0, "need at least one bucket");
        AtomicHistogram {
            lo,
            hi,
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_fp: AtomicU64::new(0),
        }
    }

    /// Records a sample.
    pub fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if v > 0.0 {
            self.sum_fp
                .fetch_add((v * SUM_SCALE) as u64, Ordering::Relaxed);
        }
        if v < self.lo {
            self.underflow.fetch_add(1, Ordering::Relaxed);
        } else if v >= self.hi {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((v - self.lo) / w) as usize).min(self.buckets.len() - 1);
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            lo: self.lo,
            hi: self.hi,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            underflow: self.underflow.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum_fp.load(Ordering::Relaxed) as f64 / SUM_SCALE,
        }
    }
}

/// An immutable copy of an [`AtomicHistogram`] at one instant: the form that
/// travels over the Stats wire protocol and that cluster-wide aggregates are
/// built from.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Lower bound of the bucketed range.
    pub lo: f64,
    /// Upper bound of the bucketed range.
    pub hi: f64,
    /// Per-bucket sample counts.
    pub buckets: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (microsecond-scale fixed point, widened back).
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0,1]` using bucket midpoints
    /// (underflow counts at `lo`, overflow at `hi`).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.lo;
        }
        // A snapshot decoded off the wire may carry zero buckets; every
        // in-range rank then resolves to the upper bound rather than
        // dividing by zero below.
        if self.buckets.is_empty() {
            return self.hi;
        }
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return self.lo + w * (i as f64 + 0.5);
            }
        }
        self.hi
    }

    /// Folds another snapshot into this one bucket-by-bucket; used to build
    /// cloud-wide latency distributions from per-node scrapes.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different bucket configurations.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.buckets.len() == other.buckets.len(),
            "cannot merge histograms with different bucket configurations"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// What a registry stores per histogram name.
struct HistogramEntry {
    hist: Arc<AtomicHistogram>,
}

/// A process-wide (or per-node) collection of named metrics.
///
/// Registration takes a short mutex; the returned handles are lock-free.
/// Counter names are conventionally [`EventKind::as_str`] values, but
/// free-form names are allowed for cluster-only metrics.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, HistogramEntry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. The handle is a cheap clone; keep it and bump it lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bucket configuration on first use (later calls keep the
    /// original configuration).
    pub fn histogram(&self, name: &str, lo: f64, hi: f64, n: usize) -> Arc<AtomicHistogram> {
        let mut map = self.histograms.lock().expect("registry poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| HistogramEntry {
                hist: Arc::new(AtomicHistogram::new(lo, hi, n)),
            })
            .hist
            .clone()
    }

    /// Current value of the counter under `name` (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("registry poisoned")
            .get(name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Name-sorted snapshot of every counter.
    pub fn snapshot_counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Name-sorted snapshot of every gauge.
    pub fn snapshot_gauges(&self) -> Vec<(String, u64)> {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Name-sorted snapshot of every histogram.
    pub fn snapshot_histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.hist.snapshot()))
            .collect()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.snapshot_counters())
            .field("gauges", &self.snapshot_gauges())
            .finish_non_exhaustive()
    }
}

/// One node's full telemetry snapshot: what `Response::Stats` carries over
/// the wire and what `CloudClient::stats` returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeStats {
    /// The node that produced the snapshot.
    pub node: u32,
    /// Documents currently resident in the node's cache.
    pub resident: u64,
    /// Directory records currently held (beacon role).
    pub directory_records: u64,
    /// Name-sorted lifecycle counters ([`EventKind::as_str`] keys plus any
    /// free-form extras).
    pub counters: Vec<(String, u64)>,
    /// Name-sorted latency histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl NodeStats {
    /// Value of the counter named `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Value of the counter for `kind` (0 when absent).
    pub fn kind(&self, kind: EventKind) -> u64 {
        self.counter(kind.as_str())
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Folds another node's snapshot into this one: counters add by name,
    /// histograms merge by name, gauges (`resident`, `directory_records`)
    /// add. Used to build the cloud-wide aggregate.
    pub fn merge(&mut self, other: &NodeStats) {
        self.resident += other.resident;
        self.directory_records += other.directory_records;
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        self.counters.sort();
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// A structured telemetry event: one observable step of a request's
/// lifecycle (or of background maintenance) on one node.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event time in microseconds (simulated time in the simulator,
    /// wall-clock since process start in the cluster).
    pub ts_micros: u64,
    /// The node the event happened on.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// The document involved, if any.
    pub url: Option<String>,
    /// Extra key/value context (peer ids, byte counts, versions).
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Creates an event with no url and no extra fields.
    pub fn new(ts_micros: u64, node: u32, kind: EventKind) -> Self {
        Event {
            ts_micros,
            node,
            kind,
            url: None,
            fields: Vec::new(),
        }
    }

    /// Sets the document url.
    pub fn url(mut self, url: impl Into<String>) -> Self {
        self.url = Some(url.into());
        self
    }

    /// Appends one key/value field.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Renders the event in the single-line `key=value` text format used by
    /// [`StderrSink`].
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "ts={:.6} node={} kind={}",
            self.ts_micros as f64 / 1e6,
            self.node,
            self.kind
        );
        if let Some(url) = &self.url {
            line.push_str(&format!(" url={url}"));
        }
        for (k, v) in &self.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }

    /// Renders the event as one compact JSON object in the form used by
    /// [`JsonLinesSink`].
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.open();
        w.key("ts");
        w.raw_number(format_args!("{:.6}", self.ts_micros as f64 / 1e6));
        w.num("node", f64::from(self.node));
        w.str("kind", self.kind.as_str());
        if let Some(url) = &self.url {
            w.str("url", url);
        }
        if !self.fields.is_empty() {
            w.key("fields");
            w.open();
            for (k, v) in &self.fields {
                w.str(k, v);
            }
            w.close();
        }
        w.close();
        w.finish()
    }
}

/// Where emitted events go. Implementations must be cheap enough to sit on
/// the request path, or buffer internally.
pub trait EventSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);
}

/// Writes each event as a single `key=value` line on stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, event: &Event) {
        eprintln!("{}", event.to_line());
    }
}

/// Writes each event as one JSON object per line to an arbitrary writer
/// (a file, a pipe, a `Vec<u8>` in tests).
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `writer`; every event becomes one line of JSON.
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the inner writer (tests: recover the buffer).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("sink poisoned")
    }
}

impl<W: Write + Send> EventSink for JsonLinesSink<W> {
    fn emit(&self, event: &Event) {
        let mut w = self.writer.lock().expect("sink poisoned");
        // Telemetry must never take the node down: ignore write errors.
        let _ = writeln!(w, "{}", event.to_json());
    }
}

/// Collects events in memory; the sink used by tests and by the simulator's
/// event-log observer.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Copies out everything collected so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("sink poisoned"))
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink poisoned").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("sink poisoned")
            .push(event.clone());
    }
}

/// The event logger: fans each event out to every attached sink. With no
/// sinks attached, [`EventLog::emit`] is a cheap no-op, so instrumentation
/// can stay compiled-in unconditionally.
#[derive(Default)]
pub struct EventLog {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl EventLog {
    /// Creates a logger with no sinks.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Attaches a sink; events are delivered to sinks in attach order.
    pub fn attach(&mut self, sink: Arc<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Whether any sink is attached (lets callers skip building events).
    pub fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Delivers `event` to every sink.
    pub fn emit(&self, event: &Event) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter_value("requests"), 5);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn atomic_histogram_matches_plain_histogram_semantics() {
        let h = AtomicHistogram::new(0.0, 100.0, 10);
        let mut plain = crate::Histogram::new(0.0, 100.0, 10);
        for v in [5.0, 15.0, 15.5, 99.0, 150.0, -1.0] {
            h.record(v);
            plain.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, plain.count());
        assert_eq!(snap.buckets[1], plain.bucket_count(1));
        assert_eq!(snap.overflow, plain.overflow());
        assert_eq!(snap.underflow, plain.underflow());
        for q in [0.25, 0.5, 0.9] {
            assert_eq!(snap.quantile(q), plain.quantile(q));
        }
    }

    #[test]
    fn snapshot_quantile_edge_cases_match_plain_histogram() {
        // Empty: both report 0.
        let empty = AtomicHistogram::new(0.0, 10.0, 4).snapshot();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(crate::Histogram::new(0.0, 10.0, 4).quantile(0.5), 0.0);

        // All-underflow: every quantile is lo.
        let h = AtomicHistogram::new(10.0, 20.0, 4);
        h.record(-1.0);
        h.record(3.0);
        let snap = h.snapshot();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snap.quantile(q), 10.0, "q={q}");
        }

        // All-overflow: every quantile is hi.
        let h = AtomicHistogram::new(0.0, 10.0, 4);
        h.record(11.0);
        h.record(500.0);
        let snap = h.snapshot();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snap.quantile(q), 10.0, "q={q}");
        }
    }

    #[test]
    fn snapshot_quantile_survives_empty_bucket_vector() {
        // A shape that can only arrive via wire decoding, never from
        // AtomicHistogram::new (which requires n > 0).
        let snap = HistogramSnapshot {
            lo: 0.0,
            hi: 10.0,
            buckets: vec![],
            underflow: 1,
            overflow: 2,
            count: 3,
            sum: 25.0,
        };
        assert_eq!(snap.quantile(0.1), 0.0); // rank 1 lands in underflow
        assert_eq!(snap.quantile(0.9), 10.0); // in-range ranks resolve to hi
        assert!(snap.quantile(0.9).is_finite());
    }

    #[test]
    fn atomic_histogram_is_safe_under_contention() {
        let h = Arc::new(AtomicHistogram::new(0.0, 100.0, 10));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record(((t * 1000 + i) % 100) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn snapshot_merge_adds_everything() {
        let a = AtomicHistogram::new(0.0, 10.0, 5);
        let b = AtomicHistogram::new(0.0, 10.0, 5);
        a.record(1.0);
        a.record(20.0);
        b.record(1.5);
        b.record(-3.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 4);
        assert_eq!(merged.buckets[0], 2);
        assert_eq!(merged.overflow, 1);
        assert_eq!(merged.underflow, 1);
    }

    #[test]
    #[should_panic(expected = "different bucket configurations")]
    fn snapshot_merge_rejects_mismatched_shapes() {
        let mut a = AtomicHistogram::new(0.0, 10.0, 5).snapshot();
        let b = AtomicHistogram::new(0.0, 20.0, 5).snapshot();
        a.merge(&b);
    }

    #[test]
    fn node_stats_merge_aggregates_by_name() {
        let mut a = NodeStats {
            node: 0,
            resident: 3,
            directory_records: 1,
            counters: vec![("local_hits".into(), 2), ("requests".into(), 5)],
            histograms: vec![],
        };
        let b = NodeStats {
            node: 1,
            resident: 4,
            directory_records: 0,
            counters: vec![("origin_fetches".into(), 1), ("requests".into(), 7)],
            histograms: vec![],
        };
        a.merge(&b);
        assert_eq!(a.resident, 7);
        assert_eq!(a.counter("requests"), 12);
        assert_eq!(a.counter("local_hits"), 2);
        assert_eq!(a.counter("origin_fetches"), 1);
        assert_eq!(a.counter("missing"), 0);
    }

    #[test]
    fn event_line_and_json_formats() {
        let ev = Event::new(1_500_000, 3, EventKind::LocalHit)
            .url("/news/front")
            .field("bytes", "1024");
        assert_eq!(
            ev.to_line(),
            "ts=1.500000 node=3 kind=local_hits url=/news/front bytes=1024"
        );
        assert_eq!(
            ev.to_json(),
            "{\"ts\":1.500000,\"node\":3,\"kind\":\"local_hits\",\"url\":\"/news/front\",\
             \"fields\":{\"bytes\":\"1024\"}}"
        );
    }

    #[test]
    fn json_escaping_handles_controls_and_quotes() {
        let ev = Event::new(0, 0, EventKind::RpcError).field("err", "a\"b\\c\nd\u{1}");
        let json = ev.to_json();
        assert!(json.contains("\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn event_log_fans_out_to_sinks() {
        let sink = Arc::new(MemorySink::new());
        let mut log = EventLog::new();
        assert!(!log.is_active());
        log.attach(sink.clone());
        assert!(log.is_active());
        log.emit(&Event::new(0, 1, EventKind::Store));
        log.emit(&Event::new(1, 1, EventKind::Eviction));
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Store);
        assert_eq!(events[1].kind, EventKind::Eviction);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(&Event::new(0, 0, EventKind::Request));
        sink.emit(&Event::new(1, 0, EventKind::Drop));
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn event_kind_names_are_unique_and_stable() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
        assert_eq!(EventKind::Request.as_str(), "requests");
        assert_eq!(EventKind::Cycle.to_string(), "cycles");
    }
}
