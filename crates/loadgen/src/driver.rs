//! Executing schedules against a live cluster.
//!
//! Two driving disciplines, per the benchmarking literature's standard
//! split:
//!
//! * **Open loop** — operations leave at the schedule's fixed arrival
//!   times regardless of how the previous ones fared, and latency is
//!   measured from the *intended* send time. A server that stalls for a
//!   second eats that second in every sample queued behind the stall,
//!   instead of silently pausing the load generator — the fix for
//!   *coordinated omission*, which makes tail percentiles look orders of
//!   magnitude better than what a real client population would see.
//! * **Closed loop** — a fixed population of workers issue requests
//!   back-to-back (optionally separated by think time), and latency is
//!   measured from the actual send. This measures the server's best-case
//!   pipeline, and is reported alongside for contrast.
//!
//! Origin-side updates ride a dedicated injector thread driving the
//! beacon `update` path, mirroring the paper's single origin per cloud.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachecloud_cluster::wire::{frame_request, FrameDecoder};
use cachecloud_cluster::{CloudClient, LocalCluster, Request, Response};
use cachecloud_metrics::Summary;
use cachecloud_types::{ByteSize, CacheCloudError};
use cachecloud_workload::{MovingHotspotTraceBuilder, SydneyTraceBuilder, Trace, ZipfTraceBuilder};

use crate::capture::{LatencySummary, Recorder};
use crate::report::{
    BenchReport, BoundedReport, ClusterReport, Comparison, HotspotPhase, HotspotReport, NodeBrief,
    PoolCounters, RampPoint, RebalanceBrief, RunReport,
};
use crate::schedule::{Op, OpKind, Schedule};

/// Which workload synthesizer feeds the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Zipf-θ accesses and updates (the paper's synthetic dataset).
    Zipf,
    /// The Sydney-Olympics stand-in (diurnal + flash crowds).
    Sydney,
}

impl WorkloadKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Zipf => "zipf",
            WorkloadKind::Sydney => "sydney",
        }
    }
}

/// Everything one benchmark run needs to know.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Seed for the workload synthesizer (and thus the whole schedule).
    pub seed: u64,
    /// Offered open-loop rate, operations per second.
    pub qps: f64,
    /// Operations in the measured schedule.
    pub ops: usize,
    /// Documents in the catalog.
    pub docs: usize,
    /// Zipf skew parameter.
    pub theta: f64,
    /// Which synthesizer.
    pub workload: WorkloadKind,
    /// Leading fraction of the schedule treated as warmup (sent, not
    /// recorded).
    pub warmup_frac: f64,
    /// Dispatcher threads (open loop) / worker population (closed loop).
    pub workers: usize,
    /// Also run a closed-loop pass.
    pub closed: bool,
    /// Closed-loop think time between a worker's operations.
    pub think_ms: u64,
    /// Operations for the pooled-vs-unpooled comparison (0 skips it).
    pub compare_ops: usize,
    /// Offered rates for a throughput ramp (empty skips it).
    pub ramp: Vec<f64>,
    /// Cap on generated body sizes in bytes (catalog sizes can reach
    /// hundreds of KiB; benches don't need to move that much).
    pub body_cap: u64,
    /// Per-node store capacity in bytes for the bounded-capacity pass
    /// (0 skips it). Sized well below the working set, this pass forces
    /// evictions and drags the hit ratio under 1.0 — the regime the
    /// paper's cooperative-caching claims are actually about.
    pub bounded_capacity: u64,
    /// Operations in the bounded-capacity pass.
    pub bounded_ops: usize,
    /// Outstanding requests per connection in the pipelined ceiling pass
    /// (0 skips it). One-in-flight closed loops measure the syscall floor
    /// of a synchronous client, not the server; this pass keeps a window
    /// of frames in flight per connection, which is what the reactor's
    /// per-connection pipelining exists for.
    pub pipeline_depth: usize,
    /// Operations in the moving-hotspot rebalance pass (0 skips it). The
    /// pass drives a Zipf base stream with a hot document set that shifts
    /// identity mid-run, rebalancing on a fixed cadence, and reports
    /// beacon-load CoV per phase — the regime the paper's dynamic
    /// intra-ring hashing exists for.
    pub hotspot_ops: usize,
    /// Offered open-loop rate for the hotspot pass.
    pub hotspot_qps: f64,
    /// Documents in the hotspot pass's hot set.
    pub hot_docs: usize,
    /// Fraction of hotspot-pass traffic aimed at the current hot set.
    pub hot_fraction: f64,
    /// Offered rates for the hotspot knee sweep (empty skips it). The
    /// knee is the largest offered rate the cloud still absorbs at ≥ 90 %.
    pub sweep: Vec<f64>,
    /// Operations per knee-sweep step.
    pub sweep_ops: usize,
}

impl BenchConfig {
    /// The CI smoke preset: small, seeded, finishes in well under a
    /// minute.
    pub fn smoke() -> Self {
        BenchConfig {
            nodes: 3,
            seed: 42,
            qps: 300.0,
            ops: 1_500,
            docs: 60,
            theta: 0.9,
            workload: WorkloadKind::Zipf,
            warmup_frac: 0.2,
            workers: 4,
            closed: true,
            think_ms: 0,
            compare_ops: 400,
            ramp: Vec::new(),
            body_cap: 2_048,
            bounded_capacity: 16 * 1024,
            bounded_ops: 600,
            pipeline_depth: 16,
            hotspot_ops: 1_500,
            hotspot_qps: 400.0,
            hot_docs: 12,
            hot_fraction: 0.6,
            sweep: Vec::new(),
            sweep_ops: 0,
        }
    }

    /// The default full bench: the paper's Zipf-0.9 mix at a rate that
    /// exercises queuing without saturating a laptop.
    pub fn standard() -> Self {
        BenchConfig {
            nodes: 4,
            seed: 42,
            qps: 800.0,
            ops: 8_000,
            docs: 200,
            theta: 0.9,
            workload: WorkloadKind::Zipf,
            warmup_frac: 0.15,
            workers: 8,
            closed: true,
            think_ms: 0,
            compare_ops: 1_000,
            ramp: vec![200.0, 400.0, 800.0, 1_600.0],
            body_cap: 4_096,
            bounded_capacity: 32 * 1024,
            bounded_ops: 2_000,
            pipeline_depth: 32,
            hotspot_ops: 12_000,
            hotspot_qps: 800.0,
            hot_docs: 26,
            hot_fraction: 0.8,
            sweep: vec![
                800.0, 1_600.0, 3_200.0, 6_400.0, 12_800.0, 19_200.0, 25_600.0,
            ],
            sweep_ops: 2_000,
        }
    }
}

/// Runs one full benchmark: populate → open loop → (closed loop) →
/// (ramp) → telemetry scrape → (pooled-vs-unpooled comparison).
#[derive(Debug)]
pub struct Driver {
    config: BenchConfig,
}

/// Shared, immutable per-run context: URL and body-size lookup per
/// catalog index, plus the per-document version clock the origin
/// injector advances.
struct DocSet {
    urls: Vec<String>,
    sizes: Vec<u64>,
    versions: Vec<AtomicU64>,
}

impl DocSet {
    fn of(trace: &Trace, body_cap: u64) -> Arc<DocSet> {
        let catalog = trace.catalog();
        let mut urls = Vec::with_capacity(catalog.len());
        let mut sizes = Vec::with_capacity(catalog.len());
        let mut versions = Vec::with_capacity(catalog.len());
        for doc in catalog.iter() {
            urls.push(doc.id.url().to_owned());
            sizes.push(doc.size.as_bytes().clamp(1, body_cap.max(1)));
            versions.push(AtomicU64::new(1));
        }
        Arc::new(DocSet {
            urls,
            sizes,
            versions,
        })
    }

    fn body(&self, doc: u32, version: u64) -> Vec<u8> {
        let fill = (u64::from(doc) ^ version) as u8;
        vec![fill; self.sizes[doc as usize] as usize]
    }
}

impl Driver {
    /// A driver for `config`.
    pub fn new(config: BenchConfig) -> Self {
        Driver { config }
    }

    /// Builds the deterministic trace for this config and seed.
    pub fn build_trace(&self) -> Trace {
        let c = &self.config;
        match c.workload {
            WorkloadKind::Zipf => ZipfTraceBuilder::new()
                .documents(c.docs)
                .theta(c.theta)
                .caches(c.nodes)
                .duration_minutes(10)
                .requests_per_cache_per_minute(600.0)
                .updates_per_minute(120.0)
                .seed(c.seed)
                .build(),
            WorkloadKind::Sydney => SydneyTraceBuilder::new()
                .documents(c.docs)
                .caches(c.nodes)
                .duration_minutes(60)
                .requests_per_cache_per_minute(100.0)
                .updates_per_minute(40.0)
                .seed(c.seed)
                .build(),
        }
    }

    /// Runs the whole benchmark and assembles the report.
    ///
    /// # Errors
    ///
    /// Propagates cluster-spawn and telemetry-scrape failures; individual
    /// operation failures are counted in the report instead.
    pub fn run(&self) -> Result<BenchReport, CacheCloudError> {
        let c = self.config.clone();
        let trace = self.build_trace();
        let schedule = Schedule::from_trace(&trace, c.qps, c.ops);
        // The determinism contract: rebuilding from the same seed must
        // reproduce the identical operation stream.
        let replay = Schedule::from_trace(&self.build_trace(), c.qps, c.ops);
        let digest_verified = replay.digest() == schedule.digest();

        let cluster = LocalCluster::spawn_with_options(c.nodes, ByteSize::UNLIMITED, true)?;
        let client = cluster.client();
        let docs = DocSet::of(&trace, c.body_cap);

        let (populate, populate_errors) = populate(&client, &docs);

        let warmup_us = (schedule.span_secs() * c.warmup_frac * 1e6) as u64;
        let open = run_open(&client, &schedule, &docs, c.nodes, c.workers, warmup_us);

        let closed = c
            .closed
            .then(|| run_closed(&client, &schedule, &docs, c.nodes, c.workers, c.think_ms));

        let pipelined = (c.pipeline_depth > 0).then(|| {
            run_pipelined(
                cluster.peers(),
                &schedule,
                &docs,
                c.workers,
                c.pipeline_depth,
            )
        });

        let mut ramp = Vec::new();
        for &step in &c.ramp {
            let seg = Schedule::from_trace(&trace, step, 500);
            let run = run_open(&client, &seg, &docs, c.nodes, c.workers, 0);
            ramp.push(RampPoint {
                offered_qps: step,
                achieved_qps: run.achieved_qps,
                p99_ms: run.fetch.p99_ms,
                errors: run.errors,
            });
        }

        let cluster_report = scrape_cluster(&client, c.nodes)?;
        let pool = client.pool_stats().map(PoolCounters::of);

        let comparison = if c.compare_ops > 0 {
            Some(self.compare_pooling(&trace)?)
        } else {
            None
        };

        let bounded = if c.bounded_capacity > 0 {
            Some(self.run_bounded(&trace)?)
        } else {
            None
        };

        let hotspot = if c.hotspot_ops > 0 {
            Some(self.run_hotspot()?)
        } else {
            None
        };

        cluster.shutdown();

        Ok(BenchReport {
            schema: "cachecloud-loadgen/1".to_owned(),
            seed: c.seed,
            nodes: c.nodes,
            workload: c.workload.name().to_owned(),
            theta: c.theta,
            docs: c.docs,
            offered_qps: c.qps,
            schedule_ops: schedule.len(),
            schedule_digest: format!("{:016x}", schedule.digest()),
            digest_verified,
            populate,
            populate_errors,
            open,
            closed,
            pipelined,
            ramp,
            cluster: cluster_report,
            pool,
            comparison,
            bounded,
            hotspot,
        })
    }

    /// The moving-hotspot synthesizer for this config: two 5-minute phases
    /// whose hot set relocates at the boundary, with rates chosen so the
    /// full trace holds roughly `hotspot_ops` events (the pass replays it
    /// untruncated — truncation would amputate the second phase).
    fn hotspot_builder(&self) -> MovingHotspotTraceBuilder {
        let c = &self.config;
        MovingHotspotTraceBuilder::new()
            .documents(c.docs)
            .theta(c.theta)
            .caches(c.nodes)
            .duration_minutes(10)
            .phase_minutes(5)
            .hot_docs(c.hot_docs)
            .hot_fraction(c.hot_fraction)
            .requests_per_cache_per_minute(c.hotspot_ops as f64 * 0.8 / (c.nodes as f64 * 10.0))
            .updates_per_minute(c.hotspot_ops as f64 * 0.2 / 10.0)
            .seed(c.seed)
    }

    /// The moving-hotspot rebalance pass.
    ///
    /// One schedule, three driven windows against a fresh cluster:
    ///
    /// 1. **pre_shift** — phase 0 of the trace; traffic and (after the
    ///    first rebalance) routing table agree on where the hot set is.
    /// 2. **post_shift** — the first half of phase 1: the hot set has
    ///    jumped to a disjoint document set while the table is still tuned
    ///    to phase 0. This is the stale regime.
    /// 3. **post_rebalance** — the second half of phase 1, after a second
    ///    rebalance retuned sub-ranges to the new hot set.
    ///
    /// Each `rebalance` drains the beacon-load ledgers, so its `cov_before`
    /// is exactly the balance the window before it produced; a final manual
    /// drain yields the post-rebalance CoV. The paper's claim — and the CI
    /// gate — is that the third CoV lands below the second.
    fn run_hotspot(&self) -> Result<HotspotReport, CacheCloudError> {
        let c = &self.config;
        let builder = self.hotspot_builder();
        let trace = builder.build();
        let schedule = Schedule::from_trace(&trace, c.hotspot_qps, usize::MAX);
        let digest_verified = Schedule::from_trace(&builder.build(), c.hotspot_qps, usize::MAX)
            .digest()
            == schedule.digest();

        // The wall-clock instant of the hot-set shift: the trace's native
        // phase boundary, compressed by the same factor `from_trace`
        // applied to the whole timeline.
        let native_span = trace.duration().as_secs_f64().max(1e-9);
        let native_rate = trace.events().len() as f64 / native_span;
        let scale = native_rate / c.hotspot_qps;
        let phase_native_us = builder.phase_length_minutes() * 60 * 1_000_000;
        let shift_us = (phase_native_us as f64 * scale) as u64;
        let end_us = schedule.ops().last().map_or(0, |op| op.at_us) + 1;
        let mid_us = shift_us + end_us.saturating_sub(shift_us) / 2;

        let pre = schedule.segment(0, shift_us);
        let stale = schedule.segment(shift_us, mid_us);
        let tuned = schedule.segment(mid_us, u64::MAX);

        let cluster = LocalCluster::spawn_with_options(c.nodes, ByteSize::UNLIMITED, true)?;
        let client = cluster.client();
        let docs = DocSet::of(&trace, c.body_cap);
        let (_, populate_errors) = populate(&client, &docs);

        let handoffs = |client: &CloudClient| -> Result<u64, CacheCloudError> {
            Ok(client.cloud_stats()?.counter("handoff_records"))
        };

        let mut phases = Vec::with_capacity(3);
        let mut rebalances = Vec::with_capacity(2);

        let mut run = run_open(&client, &pre, &docs, c.nodes, c.workers, 0);
        run.mode = "open/hotspot".to_owned();
        phases.push(HotspotPhase {
            name: "pre_shift".to_owned(),
            run,
        });
        let h0 = handoffs(&client)?;
        let r1 = client.rebalance()?;
        let h1 = handoffs(&client)?;
        rebalances.push(RebalanceBrief {
            after_phase: "pre_shift".to_owned(),
            version: r1.version,
            cov_before: r1.cov_before,
            moved_ranges: r1.moved_ranges as u64,
            handoff_records: h1.saturating_sub(h0),
        });

        let mut run = run_open(&client, &stale, &docs, c.nodes, c.workers, 0);
        run.mode = "open/hotspot".to_owned();
        phases.push(HotspotPhase {
            name: "post_shift".to_owned(),
            run,
        });
        let r2 = client.rebalance()?;
        let h2 = handoffs(&client)?;
        rebalances.push(RebalanceBrief {
            after_phase: "post_shift".to_owned(),
            version: r2.version,
            cov_before: r2.cov_before,
            moved_ranges: r2.moved_ranges as u64,
            handoff_records: h2.saturating_sub(h1),
        });

        let mut run = run_open(&client, &tuned, &docs, c.nodes, c.workers, 0);
        run.mode = "open/hotspot".to_owned();
        phases.push(HotspotPhase {
            name: "post_rebalance".to_owned(),
            run,
        });

        // Final manual ledger drain: the balance the retuned table held
        // over the post-rebalance window.
        let mut loads = Vec::with_capacity(c.nodes);
        for node in 0..c.nodes as u32 {
            loads.push(
                client
                    .load_ledger(node)?
                    .iter()
                    .map(|(_, _, load)| load)
                    .sum::<f64>(),
            );
        }
        let cov_post_rebalance = Summary::of(&loads).coefficient_of_variation();

        // The knee sweep rides the same (already balanced, fully resident)
        // cluster: open-loop bursts at escalating offered rates, knee = the
        // largest rate still absorbed at >= 90 %.
        let mut sweep = Vec::with_capacity(c.sweep.len());
        for &rate in &c.sweep {
            let seg = Schedule::from_trace(&trace, rate, c.sweep_ops.max(1));
            let run = run_open(&client, &seg, &docs, c.nodes, c.workers, 0);
            sweep.push(RampPoint {
                offered_qps: rate,
                achieved_qps: run.achieved_qps,
                p99_ms: run.fetch.p99_ms,
                errors: run.errors,
            });
        }
        let knee_qps = sweep
            .iter()
            .filter(|p| p.achieved_qps >= 0.9 * p.offered_qps)
            .map(|p| p.offered_qps)
            .fold(None, |best: Option<f64>, q| {
                Some(best.map_or(q, |b| b.max(q)))
            });

        let cluster_report = scrape_cluster(&client, c.nodes)?;
        cluster.shutdown();

        Ok(HotspotReport {
            offered_qps: c.hotspot_qps,
            schedule_ops: schedule.len(),
            schedule_digest: format!("{:016x}", schedule.digest()),
            digest_verified,
            hot_docs: c.hot_docs,
            hot_fraction: c.hot_fraction,
            shift_at_s: shift_us as f64 / 1e6,
            populate_errors,
            phases,
            rebalances,
            cov_pre_shift: r1.cov_before,
            cov_post_shift: r2.cov_before,
            cov_post_rebalance,
            sweep,
            knee_qps,
            cluster: cluster_report,
        })
    }

    /// Replays a schedule prefix against a fresh cluster whose per-node
    /// stores are capped below the working set, so the run reports the
    /// eviction-pressure regime: `evictions > 0` and `hit_ratio < 1.0`.
    fn run_bounded(&self, trace: &Trace) -> Result<BoundedReport, CacheCloudError> {
        let c = &self.config;
        let capacity = ByteSize::from_bytes(c.bounded_capacity);
        let cluster = LocalCluster::spawn_with_options(c.nodes, capacity, true)?;
        let client = cluster.client();
        let docs = DocSet::of(trace, c.body_cap);
        let _ = populate(&client, &docs);
        let schedule = Schedule::from_trace(trace, c.qps, c.bounded_ops);
        let mut run = run_closed(&client, &schedule, &docs, c.nodes, c.workers, 0);
        run.mode = "closed/bounded".to_owned();
        let cluster_report = scrape_cluster(&client, c.nodes)?;
        cluster.shutdown();
        Ok(BoundedReport {
            capacity_bytes: c.bounded_capacity,
            run,
            cluster: cluster_report,
        })
    }

    /// Replays the same schedule prefix against two fresh clusters — one
    /// with pooled persistent connections, one paying a TCP connect per
    /// RPC — and reports both.
    fn compare_pooling(&self, trace: &Trace) -> Result<Comparison, CacheCloudError> {
        let c = &self.config;
        let schedule = Schedule::from_trace(trace, c.qps, c.compare_ops);
        let warmup_us = (schedule.span_secs() * 0.1 * 1e6) as u64;
        let mut runs = Vec::with_capacity(2);
        let mut counters = Vec::with_capacity(2);
        for pooled in [true, false] {
            let cluster = LocalCluster::spawn_with_options(c.nodes, ByteSize::UNLIMITED, pooled)?;
            let client = cluster.client().with_pooling(pooled);
            let docs = DocSet::of(trace, c.body_cap);
            let _ = populate(&client, &docs);
            let mut run = run_open(&client, &schedule, &docs, c.nodes, c.workers, warmup_us);
            run.mode = if pooled {
                "open/pooled".to_owned()
            } else {
                "open/unpooled".to_owned()
            };
            counters.push(client.pool_stats().map(PoolCounters::of));
            runs.push(run);
            cluster.shutdown();
        }
        let unpooled = runs.pop().expect("two runs");
        let pooled = runs.pop().expect("two runs");
        Ok(Comparison {
            pooled,
            unpooled,
            pooled_pool: counters.swap_remove(0),
        })
    }
}

/// Publishes every catalog document at version 1, recording publish
/// latencies closed-loop. Returns the summary and the error count.
fn populate(client: &CloudClient, docs: &DocSet) -> (LatencySummary, u64) {
    let mut rec = Recorder::new();
    for doc in 0..docs.urls.len() as u32 {
        let body = docs.body(doc, 1);
        let t0 = Instant::now();
        match client.publish(&docs.urls[doc as usize], body, 1) {
            Ok(()) => rec.record_ok(OpKind::Publish, t0.elapsed().as_secs_f64() * 1e3),
            Err(_) => rec.record_err(OpKind::Publish),
        }
    }
    (
        LatencySummary::of(rec.histogram(OpKind::Publish)),
        rec.errors(OpKind::Publish),
    )
}

/// One operation against the cloud; records into `rec` unless the
/// intended send time is still inside the warmup window.
fn execute(
    client: &CloudClient,
    docs: &DocSet,
    nodes: usize,
    op: Op,
    latency_from: Instant,
    warm: bool,
    rec: &mut Recorder,
) {
    match op.kind {
        OpKind::Fetch => {
            let via = op.cache % nodes as u32;
            let out = client.fetch_via(via, &docs.urls[op.doc as usize]);
            if !warm {
                return;
            }
            match out {
                Ok(found) => {
                    rec.record_ok(OpKind::Fetch, latency_from.elapsed().as_secs_f64() * 1e3);
                    if found.is_none() {
                        rec.record_miss();
                    }
                }
                Err(_) => rec.record_err(OpKind::Fetch),
            }
        }
        OpKind::Update | OpKind::Publish => {
            let version = docs.versions[op.doc as usize].fetch_add(1, Ordering::SeqCst) + 1;
            let body = docs.body(op.doc, version);
            let out = client.update(&docs.urls[op.doc as usize], body, version);
            if !warm {
                return;
            }
            match out {
                Ok(()) => rec.record_ok(OpKind::Update, latency_from.elapsed().as_secs_f64() * 1e3),
                Err(_) => rec.record_err(OpKind::Update),
            }
        }
    }
}

/// Open-loop execution: fetches fan out over `workers` dispatcher
/// threads, updates ride one origin-injector thread, and every latency
/// is measured from the operation's *intended* send time.
fn run_open(
    client: &CloudClient,
    schedule: &Schedule,
    docs: &Arc<DocSet>,
    nodes: usize,
    workers: usize,
    warmup_us: u64,
) -> RunReport {
    let workers = workers.max(1);
    let mut fetch_shards: Vec<Vec<Op>> = vec![Vec::new(); workers];
    let mut updates: Vec<Op> = Vec::new();
    for (i, op) in schedule.ops().iter().enumerate() {
        match op.kind {
            OpKind::Fetch => fetch_shards[i % workers].push(*op),
            OpKind::Update | OpKind::Publish => updates.push(*op),
        }
    }

    let epoch = Instant::now();
    let lanes: Vec<Vec<Op>> = fetch_shards.into_iter().chain([updates]).collect();
    let recorders: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| {
                let client = client.clone();
                let docs = Arc::clone(docs);
                s.spawn(move || {
                    let mut rec = Recorder::new();
                    for op in lane {
                        let intended = epoch + Duration::from_micros(op.at_us);
                        let now = Instant::now();
                        if intended > now {
                            std::thread::sleep(intended - now);
                        }
                        let warm = op.at_us >= warmup_us;
                        execute(&client, &docs, nodes, *op, intended, warm, &mut rec);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    let mut rec = Recorder::new();
    for r in &recorders {
        rec.merge(r);
    }
    let measured_span = (wall_s - warmup_us as f64 / 1e6).max(1e-9);
    finish("open", schedule.offered_qps(), wall_s, measured_span, rec)
}

/// Closed-loop execution: every operation (updates included) is sharded
/// round-robin over `workers`, each issuing back-to-back with optional
/// think time; latency is measured from the actual send.
fn run_closed(
    client: &CloudClient,
    schedule: &Schedule,
    docs: &Arc<DocSet>,
    nodes: usize,
    workers: usize,
    think_ms: u64,
) -> RunReport {
    let workers = workers.max(1);
    let mut shards: Vec<Vec<Op>> = vec![Vec::new(); workers];
    for (i, op) in schedule.ops().iter().enumerate() {
        shards[i % workers].push(*op);
    }
    let epoch = Instant::now();
    let recorders: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let client = client.clone();
                let docs = Arc::clone(docs);
                s.spawn(move || {
                    let mut rec = Recorder::new();
                    for op in shard {
                        let sent = Instant::now();
                        execute(&client, &docs, nodes, *op, sent, true, &mut rec);
                        if think_ms > 0 {
                            std::thread::sleep(Duration::from_millis(think_ms));
                        }
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut rec = Recorder::new();
    for r in &recorders {
        rec.merge(r);
    }
    finish("closed", 0.0, wall_s, wall_s, rec)
}

/// The pipelined ceiling pass: each of `conns` connections keeps up to
/// `window` fetch frames in flight, writing bursts and draining responses
/// in order. This measures what the server can actually sustain per
/// connection instead of the two-syscalls-per-op floor a one-in-flight
/// synchronous client imposes; latency is measured from the frame's
/// actual send.
fn run_pipelined(
    peers: &[SocketAddr],
    schedule: &Schedule,
    docs: &Arc<DocSet>,
    conns: usize,
    window: usize,
) -> RunReport {
    let conns = conns.max(1);
    let window = window.max(1);
    let mut shards: Vec<Vec<Op>> = vec![Vec::new(); conns];
    let mut next = 0usize;
    for op in schedule.ops() {
        if op.kind == OpKind::Fetch {
            shards[next % conns].push(*op);
            next += 1;
        }
    }

    let epoch = Instant::now();
    let recorders: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(c, shard)| {
                let addr = peers[c % peers.len()];
                let docs = Arc::clone(docs);
                s.spawn(move || pipeline_one(addr, shard, &docs, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pipeline worker panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut rec = Recorder::new();
    for r in &recorders {
        rec.merge(r);
    }
    finish("closed/pipelined", 0.0, wall_s, wall_s, rec)
}

/// One pipelined connection: burst-frame up to the window, drain at least
/// half of it, repeat. Any transport failure marks the remaining ops as
/// errors — the pass reports the wreckage instead of panicking.
fn pipeline_one(addr: SocketAddr, shard: &[Op], docs: &DocSet, window: usize) -> Recorder {
    let mut rec = Recorder::new();
    let fail_rest = |rec: &mut Recorder, done: usize| {
        for _ in done..shard.len() {
            rec.record_err(OpKind::Fetch);
        }
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            fail_rest(&mut rec, 0);
            return rec;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut dec = FrameDecoder::new();
    let mut wbuf = Vec::new();
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut sent = 0usize;
    let mut recvd = 0usize;
    while recvd < shard.len() {
        wbuf.clear();
        while sent - recvd < window && sent < shard.len() {
            let url = &docs.urls[shard[sent].doc as usize];
            if frame_request(&mut wbuf, &Request::Serve { url: url.clone() }).is_err() {
                fail_rest(&mut rec, recvd);
                return rec;
            }
            sent_at.push_back(Instant::now());
            sent += 1;
        }
        if !wbuf.is_empty() && (&stream).write_all(&wbuf).is_err() {
            fail_rest(&mut rec, recvd);
            return rec;
        }
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    let t0 = sent_at.pop_front().expect("response without a request");
                    match Response::decode(frame) {
                        Ok(Response::Document { .. }) => {
                            rec.record_ok(OpKind::Fetch, t0.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok(Response::NotFound) => {
                            rec.record_ok(OpKind::Fetch, t0.elapsed().as_secs_f64() * 1e3);
                            rec.record_miss();
                        }
                        _ => rec.record_err(OpKind::Fetch),
                    }
                    recvd += 1;
                    if sent - recvd < window / 2 || recvd == shard.len() {
                        break;
                    }
                }
                Ok(None) => match dec.read_from(&mut &stream) {
                    Ok(0) | Err(_) => {
                        fail_rest(&mut rec, recvd);
                        return rec;
                    }
                    Ok(_) => {}
                },
                Err(_) => {
                    fail_rest(&mut rec, recvd);
                    return rec;
                }
            }
        }
    }
    rec
}

fn finish(
    mode: &str,
    offered_qps: f64,
    wall_s: f64,
    measured_span_s: f64,
    rec: Recorder,
) -> RunReport {
    let measured_ops = rec.total_ok() + rec.total_errors();
    RunReport {
        mode: mode.to_owned(),
        offered_qps,
        achieved_qps: measured_ops as f64 / measured_span_s.max(1e-9),
        wall_s,
        measured_ops,
        errors: rec.total_errors(),
        misses: rec.misses(),
        fetch: LatencySummary::of(rec.histogram(OpKind::Fetch)),
        update: LatencySummary::of(rec.histogram(OpKind::Update)),
    }
}

/// Scrapes cloud-wide telemetry: counters, hit ratio, and the per-node
/// beacon-load coefficient of variation (the paper's balance metric).
fn scrape_cluster(client: &CloudClient, nodes: usize) -> Result<ClusterReport, CacheCloudError> {
    let mut per_node = Vec::with_capacity(nodes);
    let mut beacon_loads = Vec::with_capacity(nodes);
    for node in 0..nodes as u32 {
        let stats = client.stats(node)?;
        let load: f64 = client
            .load_ledger(node)?
            .iter()
            .map(|(_, _, load)| load)
            .sum();
        beacon_loads.push(load);
        per_node.push(NodeBrief {
            node,
            requests: stats.counter("requests"),
            resident: stats.resident,
            beacon_load: load,
        });
    }
    let total = client.cloud_stats()?;
    let requests = total.counter("requests");
    let hits = total.counter("local_hits") + total.counter("cloud_hits");
    let loads = Summary::of(&beacon_loads);
    Ok(ClusterReport {
        requests,
        evictions: total.counter("evictions"),
        local_hits: total.counter("local_hits"),
        cloud_hits: total.counter("cloud_hits"),
        origin_fetches: total.counter("origin_fetches"),
        hit_ratio: if requests == 0 {
            0.0
        } else {
            hits as f64 / requests as f64
        },
        rpc_retries: total.counter("rpc_retries"),
        rpc_errors: total.counter("rpc_errors"),
        rpc_timeouts: total.counter("rpc_timeouts"),
        unregister_failures: total.counter("unregister_failures"),
        directory_reroutes: total.counter("directory_reroutes"),
        update_delivery_failures: total.counter("update_delivery_failures"),
        handoff_failures: total.counter("handoff_failures"),
        beacon_load_cov: loads.coefficient_of_variation(),
        per_node,
    })
}
