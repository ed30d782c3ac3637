//! The benchmark report and its JSON rendering.
//!
//! The report is written field by field through the workspace's one JSON
//! writer ([`cachecloud_metrics::json::JsonWriter`]).
//! [`BenchReport::to_json`] emits deterministic, pretty-printed JSON
//! suitable for committing as `BENCH_cluster.json` and diffing across runs.

use cachecloud_cluster::PoolStats;
use cachecloud_metrics::json::JsonWriter;

use crate::capture::LatencySummary;

/// One driven run (open or closed loop) as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// `"open"`, `"closed"`, `"open/pooled"`, `"open/unpooled"`.
    pub mode: String,
    /// Offered rate (0 for closed loop, which has no arrival schedule).
    pub offered_qps: f64,
    /// Measured operations per second over the measurement window.
    pub achieved_qps: f64,
    /// Wall-clock seconds of the whole run (warmup included).
    pub wall_s: f64,
    /// Operations inside the measurement window.
    pub measured_ops: u64,
    /// Failed operations inside the measurement window.
    pub errors: u64,
    /// Fetches that found no cloud copy.
    pub misses: u64,
    /// Fetch latency (open loop: from intended send time).
    pub fetch: LatencySummary,
    /// Origin-update latency.
    pub update: LatencySummary,
}

/// Cloud-side telemetry scraped after the driven runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Requests served by the cloud.
    pub requests: u64,
    /// Store evictions across the cloud (0 with unlimited capacity).
    pub evictions: u64,
    /// Hits from the serving node's own store.
    pub local_hits: u64,
    /// Hits via a peer holder.
    pub cloud_hits: u64,
    /// Misses that went to the origin.
    pub origin_fetches: u64,
    /// (local + cloud hits) / requests.
    pub hit_ratio: f64,
    /// Node-side RPC retry attempts.
    pub rpc_retries: u64,
    /// Node-side RPCs that failed after exhausting retries.
    pub rpc_errors: u64,
    /// Node-side RPC deadline expirations.
    pub rpc_timeouts: u64,
    /// Eviction-path deregistrations that could not be confirmed at the
    /// beacon (each one is a potentially stale holder entry left in a
    /// directory). Must be 0 on a fault-free run.
    pub unregister_failures: u64,
    /// Directory requests that arrived at a node stamped with a stale
    /// routing table and were re-routed to the current beacon.
    pub directory_reroutes: u64,
    /// Update deliveries a beacon could not complete (each one a holder
    /// that may stay stale). Must be 0 on a fault-free run.
    pub update_delivery_failures: u64,
    /// Directory records a rebalance could not hand to their new beacon.
    /// Must be 0 on a fault-free run.
    pub handoff_failures: u64,
    /// Coefficient of variation of per-node beacon load (the paper's
    /// balance metric: lower is flatter).
    pub beacon_load_cov: f64,
    /// Per-node snapshot.
    pub per_node: Vec<NodeBrief>,
}

/// One node's line in the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeBrief {
    /// Node id.
    pub node: u32,
    /// Requests this node served.
    pub requests: u64,
    /// Documents resident in its store.
    pub resident: u64,
    /// Its drained beacon-load ledger total.
    pub beacon_load: f64,
}

/// Connection-pool lifetime counters as reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCounters {
    /// Fresh TCP connects.
    pub opened: u64,
    /// Exchanges served by an idle pooled connection.
    pub reused: u64,
    /// Connections discarded after a failed exchange.
    pub discarded: u64,
}

impl PoolCounters {
    /// Converts the pool's own counters.
    pub fn of(stats: PoolStats) -> Self {
        PoolCounters {
            opened: stats.opened,
            reused: stats.reused,
            discarded: stats.discarded,
        }
    }
}

/// One step of the throughput ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampPoint {
    /// The step's offered rate.
    pub offered_qps: f64,
    /// What the cloud actually absorbed.
    pub achieved_qps: f64,
    /// Fetch p99 at this step.
    pub p99_ms: f64,
    /// Failed operations at this step.
    pub errors: u64,
}

/// The pooled-vs-unpooled comparison: the identical schedule prefix
/// replayed against a pooled and an unpooled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The pooled run.
    pub pooled: RunReport,
    /// The connect-per-RPC run.
    pub unpooled: RunReport,
    /// The pooled client's pool counters.
    pub pooled_pool: Option<PoolCounters>,
}

/// The bounded-capacity pass: the same workload replayed against a
/// cluster whose per-node stores are capped below the working set, so
/// evictions fire and the hit ratio drops under 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedReport {
    /// Per-node store capacity in bytes.
    pub capacity_bytes: u64,
    /// The driven run (closed loop).
    pub run: RunReport,
    /// Cloud-side telemetry after the run.
    pub cluster: ClusterReport,
}

/// One driven window of the moving-hotspot pass.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotPhase {
    /// `"pre_shift"`, `"post_shift"`, or `"post_rebalance"`.
    pub name: String,
    /// The window's open-loop run.
    pub run: RunReport,
}

/// One rebalance cycle inside the moving-hotspot pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceBrief {
    /// The driven window that preceded this rebalance.
    pub after_phase: String,
    /// Routing-table version the rebalance installed.
    pub version: u64,
    /// Beacon-load CoV of the window that just ended (drained by this
    /// rebalance, i.e. measured *before* its new table takes effect).
    pub cov_before: f64,
    /// Sub-ranges whose boundaries the new table moved.
    pub moved_ranges: u64,
    /// Directory records handed between beacons by this rebalance.
    pub handoff_records: u64,
}

/// The moving-hotspot pass: a shifting hot set driven through a
/// fixed-cadence rebalance schedule, plus an offered-rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotReport {
    /// Offered open-loop rate of the phase windows.
    pub offered_qps: f64,
    /// Operations in the full hotspot schedule.
    pub schedule_ops: usize,
    /// Hex FNV-1a digest of the hotspot schedule.
    pub schedule_digest: String,
    /// True when rebuilding from the seed reproduced the digest.
    pub digest_verified: bool,
    /// Documents in the hot set.
    pub hot_docs: usize,
    /// Fraction of traffic aimed at the current hot set.
    pub hot_fraction: f64,
    /// Wall-clock second at which the hot set shifted.
    pub shift_at_s: f64,
    /// Populate-phase failures.
    pub populate_errors: u64,
    /// The three driven windows.
    pub phases: Vec<HotspotPhase>,
    /// The rebalance cycles between them.
    pub rebalances: Vec<RebalanceBrief>,
    /// Beacon-load CoV over the pre-shift window.
    pub cov_pre_shift: f64,
    /// CoV over the stale window (hot set moved, table not yet retuned).
    pub cov_post_shift: f64,
    /// CoV over the window after the second rebalance. The paper's claim
    /// is `cov_post_rebalance < cov_post_shift`.
    pub cov_post_rebalance: f64,
    /// Offered-rate sweep steps (same shape as the ramp).
    pub sweep: Vec<RampPoint>,
    /// Largest swept rate absorbed at ≥ 90 % of offered (None when no
    /// step qualified or the sweep was skipped).
    pub knee_qps: Option<f64>,
    /// Cloud-side telemetry after the pass.
    pub cluster: ClusterReport,
}

/// Everything `BENCH_cluster.json` carries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report schema identifier.
    pub schema: String,
    /// Workload seed.
    pub seed: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Workload name (`"zipf"` / `"sydney"`).
    pub workload: String,
    /// Zipf skew.
    pub theta: f64,
    /// Catalog size.
    pub docs: usize,
    /// Offered open-loop rate.
    pub offered_qps: f64,
    /// Operations in the schedule.
    pub schedule_ops: usize,
    /// Hex FNV-1a digest of the schedule.
    pub schedule_digest: String,
    /// True when rebuilding the schedule from the seed reproduced the
    /// same digest (the determinism check).
    pub digest_verified: bool,
    /// Populate-phase publish latency.
    pub populate: LatencySummary,
    /// Populate-phase failures.
    pub populate_errors: u64,
    /// The open-loop (coordinated-omission-free) run.
    pub open: RunReport,
    /// The closed-loop run, when configured.
    pub closed: Option<RunReport>,
    /// The pipelined ceiling run (windowed frames per connection), when
    /// configured. This is the server's real throughput ceiling — the
    /// plain closed loop is bounded by its synchronous clients' syscall
    /// round-trips, not by the server.
    pub pipelined: Option<RunReport>,
    /// Throughput-ramp steps, when configured.
    pub ramp: Vec<RampPoint>,
    /// Cloud-side telemetry.
    pub cluster: ClusterReport,
    /// The main client's pool counters (None when pooling is off).
    pub pool: Option<PoolCounters>,
    /// Pooled-vs-unpooled comparison, when configured.
    pub comparison: Option<Comparison>,
    /// Bounded-capacity pass, when configured.
    pub bounded: Option<BoundedReport>,
    /// Moving-hotspot rebalance pass, when configured.
    pub hotspot: Option<HotspotReport>,
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.open();
        w.str("schema", &self.schema);
        w.num("seed", self.seed as f64);
        w.num("nodes", self.nodes as f64);
        w.str("workload", &self.workload);
        w.num("theta", self.theta);
        w.num("docs", self.docs as f64);
        w.num("offered_qps", self.offered_qps);
        w.num("schedule_ops", self.schedule_ops as f64);
        w.str("schedule_digest", &self.schedule_digest);
        w.bool("digest_verified", self.digest_verified);
        w.key("populate");
        write_latency(&mut w, &self.populate);
        w.num("populate_errors", self.populate_errors as f64);
        w.key("open");
        write_run(&mut w, &self.open);
        w.key("closed");
        match &self.closed {
            Some(run) => write_run(&mut w, run),
            None => w.null(),
        }
        w.key("pipelined");
        match &self.pipelined {
            Some(run) => write_run(&mut w, run),
            None => w.null(),
        }
        w.key("ramp");
        w.open_array();
        for point in &self.ramp {
            w.array_item();
            w.open();
            w.num("offered_qps", point.offered_qps);
            w.num("achieved_qps", point.achieved_qps);
            w.num("fetch_p99_ms", point.p99_ms);
            w.num("errors", point.errors as f64);
            w.close();
        }
        w.close_array();
        w.key("cluster");
        write_cluster(&mut w, &self.cluster);
        w.key("pool");
        write_pool(&mut w, self.pool.as_ref());
        w.key("comparison");
        match &self.comparison {
            Some(cmp) => {
                w.open();
                w.key("pooled");
                write_run(&mut w, &cmp.pooled);
                w.key("unpooled");
                write_run(&mut w, &cmp.unpooled);
                w.key("pooled_pool");
                write_pool(&mut w, cmp.pooled_pool.as_ref());
                w.close();
            }
            None => w.null(),
        }
        w.key("bounded");
        match &self.bounded {
            Some(b) => {
                w.open();
                w.num("capacity_bytes", b.capacity_bytes as f64);
                w.key("run");
                write_run(&mut w, &b.run);
                w.key("cluster");
                write_cluster(&mut w, &b.cluster);
                w.close();
            }
            None => w.null(),
        }
        w.key("hotspot");
        match &self.hotspot {
            Some(h) => write_hotspot(&mut w, h),
            None => w.null(),
        }
        w.close();
        w.finish()
    }
}

fn write_hotspot(w: &mut JsonWriter, h: &HotspotReport) {
    w.open();
    w.num("offered_qps", h.offered_qps);
    w.num("schedule_ops", h.schedule_ops as f64);
    w.str("schedule_digest", &h.schedule_digest);
    w.bool("digest_verified", h.digest_verified);
    w.num("hot_docs", h.hot_docs as f64);
    w.num("hot_fraction", h.hot_fraction);
    w.num("shift_at_s", h.shift_at_s);
    w.num("populate_errors", h.populate_errors as f64);
    w.num("cov_pre_shift", h.cov_pre_shift);
    w.num("cov_post_shift", h.cov_post_shift);
    w.num("cov_post_rebalance", h.cov_post_rebalance);
    w.key("phases");
    w.open_array();
    for phase in &h.phases {
        w.array_item();
        w.open();
        w.str("name", &phase.name);
        w.key("run");
        write_run(w, &phase.run);
        w.close();
    }
    w.close_array();
    w.key("rebalances");
    w.open_array();
    for r in &h.rebalances {
        w.array_item();
        w.open();
        w.str("after_phase", &r.after_phase);
        w.num("version", r.version as f64);
        w.num("cov_before", r.cov_before);
        w.num("moved_ranges", r.moved_ranges as f64);
        w.num("handoff_records", r.handoff_records as f64);
        w.close();
    }
    w.close_array();
    w.key("sweep");
    w.open_array();
    for point in &h.sweep {
        w.array_item();
        w.open();
        w.num("offered_qps", point.offered_qps);
        w.num("achieved_qps", point.achieved_qps);
        w.num("fetch_p99_ms", point.p99_ms);
        w.num("errors", point.errors as f64);
        w.close();
    }
    w.close_array();
    w.key("knee_qps");
    match h.knee_qps {
        Some(q) => w.number(q),
        None => w.null(),
    }
    w.key("cluster");
    write_cluster(w, &h.cluster);
    w.close();
}

fn write_latency(w: &mut JsonWriter, s: &LatencySummary) {
    w.open();
    w.num("count", s.count as f64);
    w.num("mean_ms", s.mean_ms);
    w.num("p50_ms", s.p50_ms);
    w.num("p95_ms", s.p95_ms);
    w.num("p99_ms", s.p99_ms);
    w.num("p999_ms", s.p999_ms);
    w.num("max_ms", s.max_ms);
    w.close();
}

fn write_run(w: &mut JsonWriter, run: &RunReport) {
    w.open();
    w.str("mode", &run.mode);
    w.num("offered_qps", run.offered_qps);
    w.num("achieved_qps", run.achieved_qps);
    w.num("wall_s", run.wall_s);
    w.num("measured_ops", run.measured_ops as f64);
    w.num("errors", run.errors as f64);
    w.num("misses", run.misses as f64);
    w.key("fetch");
    write_latency(w, &run.fetch);
    w.key("update");
    write_latency(w, &run.update);
    w.close();
}

fn write_cluster(w: &mut JsonWriter, c: &ClusterReport) {
    w.open();
    w.num("requests", c.requests as f64);
    w.num("evictions", c.evictions as f64);
    w.num("local_hits", c.local_hits as f64);
    w.num("cloud_hits", c.cloud_hits as f64);
    w.num("origin_fetches", c.origin_fetches as f64);
    w.num("hit_ratio", c.hit_ratio);
    w.num("rpc_retries", c.rpc_retries as f64);
    w.num("rpc_errors", c.rpc_errors as f64);
    w.num("rpc_timeouts", c.rpc_timeouts as f64);
    w.num("unregister_failures", c.unregister_failures as f64);
    w.num("directory_reroutes", c.directory_reroutes as f64);
    w.num(
        "update_delivery_failures",
        c.update_delivery_failures as f64,
    );
    w.num("handoff_failures", c.handoff_failures as f64);
    w.num("beacon_load_cov", c.beacon_load_cov);
    w.key("per_node");
    w.open_array();
    for node in &c.per_node {
        w.array_item();
        w.open();
        w.num("node", f64::from(node.node));
        w.num("requests", node.requests as f64);
        w.num("resident", node.resident as f64);
        w.num("beacon_load", node.beacon_load);
        w.close();
    }
    w.close_array();
    w.close();
}

fn write_pool(w: &mut JsonWriter, pool: Option<&PoolCounters>) {
    match pool {
        Some(p) => {
            w.open();
            w.num("opened", p.opened as f64);
            w.num("reused", p.reused as f64);
            w.num("discarded", p.discarded as f64);
            w.close();
        }
        None => w.null(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> LatencySummary {
        LatencySummary {
            count: 10,
            mean_ms: 1.5,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            p999_ms: 4.0,
            max_ms: 5.0,
        }
    }

    fn run(mode: &str) -> RunReport {
        RunReport {
            mode: mode.to_owned(),
            offered_qps: 100.0,
            achieved_qps: 99.5,
            wall_s: 10.0,
            measured_ops: 995,
            errors: 1,
            misses: 2,
            fetch: summary(),
            update: summary(),
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            schema: "cachecloud-loadgen/1".into(),
            seed: 42,
            nodes: 3,
            workload: "zipf".into(),
            theta: 0.9,
            docs: 60,
            offered_qps: 300.0,
            schedule_ops: 1500,
            schedule_digest: "00ff00ff00ff00ff".into(),
            digest_verified: true,
            populate: summary(),
            populate_errors: 0,
            open: run("open"),
            closed: Some(run("closed")),
            pipelined: Some(run("closed/pipelined")),
            ramp: vec![RampPoint {
                offered_qps: 200.0,
                achieved_qps: 199.0,
                p99_ms: 3.5,
                errors: 0,
            }],
            cluster: ClusterReport {
                requests: 1000,
                evictions: 0,
                local_hits: 600,
                cloud_hits: 300,
                origin_fetches: 100,
                hit_ratio: 0.9,
                rpc_retries: 0,
                rpc_errors: 0,
                rpc_timeouts: 0,
                unregister_failures: 0,
                update_delivery_failures: 0,
                handoff_failures: 0,
                directory_reroutes: 0,
                beacon_load_cov: 0.25,
                per_node: vec![NodeBrief {
                    node: 0,
                    requests: 500,
                    resident: 60,
                    beacon_load: 12.5,
                }],
            },
            pool: Some(PoolCounters {
                opened: 3,
                reused: 997,
                discarded: 0,
            }),
            comparison: Some(Comparison {
                pooled: run("open/pooled"),
                unpooled: run("open/unpooled"),
                pooled_pool: Some(PoolCounters {
                    opened: 3,
                    reused: 397,
                    discarded: 0,
                }),
            }),
            bounded: Some(BoundedReport {
                capacity_bytes: 16 * 1024,
                run: run("closed/bounded"),
                cluster: ClusterReport {
                    requests: 500,
                    evictions: 40,
                    local_hits: 200,
                    cloud_hits: 100,
                    origin_fetches: 200,
                    hit_ratio: 0.6,
                    rpc_retries: 0,
                    rpc_errors: 0,
                    rpc_timeouts: 0,
                    unregister_failures: 0,
                    update_delivery_failures: 0,
                    handoff_failures: 0,
                    directory_reroutes: 0,
                    beacon_load_cov: 0.3,
                    per_node: Vec::new(),
                },
            }),
            hotspot: Some(HotspotReport {
                offered_qps: 400.0,
                schedule_ops: 1500,
                schedule_digest: "1122334455667788".into(),
                digest_verified: true,
                hot_docs: 12,
                hot_fraction: 0.6,
                shift_at_s: 1.8,
                populate_errors: 0,
                phases: vec![
                    HotspotPhase {
                        name: "pre_shift".into(),
                        run: run("open/hotspot"),
                    },
                    HotspotPhase {
                        name: "post_shift".into(),
                        run: run("open/hotspot"),
                    },
                    HotspotPhase {
                        name: "post_rebalance".into(),
                        run: run("open/hotspot"),
                    },
                ],
                rebalances: vec![
                    RebalanceBrief {
                        after_phase: "pre_shift".into(),
                        version: 1,
                        cov_before: 0.8,
                        moved_ranges: 5,
                        handoff_records: 12,
                    },
                    RebalanceBrief {
                        after_phase: "post_shift".into(),
                        version: 2,
                        cov_before: 1.1,
                        moved_ranges: 7,
                        handoff_records: 9,
                    },
                ],
                cov_pre_shift: 0.8,
                cov_post_shift: 1.1,
                cov_post_rebalance: 0.4,
                sweep: vec![RampPoint {
                    offered_qps: 800.0,
                    achieved_qps: 795.0,
                    p99_ms: 2.5,
                    errors: 0,
                }],
                knee_qps: Some(800.0),
                cluster: ClusterReport {
                    requests: 1200,
                    evictions: 0,
                    local_hits: 900,
                    cloud_hits: 200,
                    origin_fetches: 100,
                    hit_ratio: 0.92,
                    rpc_retries: 0,
                    rpc_errors: 0,
                    rpc_timeouts: 0,
                    unregister_failures: 0,
                    update_delivery_failures: 0,
                    handoff_failures: 0,
                    directory_reroutes: 3,
                    beacon_load_cov: 0.4,
                    per_node: Vec::new(),
                },
            }),
        }
    }

    /// A tiny structural validator: balanced containers outside strings,
    /// no trailing commas, every key quoted. Not a full parser, but it
    /// catches the classes of bug a hand-rolled writer can introduce.
    fn check_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escaped = false;
        let mut last_significant = ' ';
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    assert_ne!(
                        last_significant, ',',
                        "trailing comma before container close"
                    );
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced containers");
                }
                _ => {}
            }
            if !c.is_whitespace() {
                last_significant = c;
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced containers");
    }

    #[test]
    fn report_renders_structurally_valid_json() {
        let json = report().to_json();
        check_json(&json);
        for key in [
            "\"schema\"",
            "\"digest_verified\": true",
            "\"open\"",
            "\"closed\"",
            "\"comparison\"",
            "\"p999_ms\"",
            "\"beacon_load_cov\"",
            "\"pooled\"",
            "\"unpooled\"",
            "\"reused\"",
            "\"bounded\"",
            "\"pipelined\"",
            "\"capacity_bytes\"",
            "\"evictions\"",
            "\"hotspot\"",
            "\"cov_pre_shift\"",
            "\"cov_post_shift\"",
            "\"cov_post_rebalance\"",
            "\"knee_qps\": 800",
            "\"after_phase\"",
            "\"handoff_records\"",
            "\"unregister_failures\"",
            "\"directory_reroutes\"",
            "\"update_delivery_failures\"",
            "\"handoff_failures\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn hotspot_null_knee_and_missing_pass_render() {
        let mut r = report();
        if let Some(h) = r.hotspot.as_mut() {
            h.knee_qps = None;
            h.sweep.clear();
        }
        let json = r.to_json();
        check_json(&json);
        assert!(json.contains("\"knee_qps\": null"));
        assert!(json.contains("\"sweep\": []"));
        r.hotspot = None;
        let json = r.to_json();
        check_json(&json);
        assert!(json.contains("\"hotspot\": null"));
    }

    #[test]
    fn optional_sections_render_as_null() {
        let mut r = report();
        r.closed = None;
        r.pipelined = None;
        r.pool = None;
        r.comparison = None;
        r.bounded = None;
        r.hotspot = None;
        r.ramp.clear();
        let json = r.to_json();
        check_json(&json);
        assert!(json.contains("\"closed\": null"));
        assert!(json.contains("\"pipelined\": null"));
        assert!(json.contains("\"pool\": null"));
        assert!(json.contains("\"comparison\": null"));
        assert!(json.contains("\"bounded\": null"));
        assert!(json.contains("\"ramp\": []"));
    }
}
