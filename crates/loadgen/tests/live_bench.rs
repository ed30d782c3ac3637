//! End-to-end: a tiny benchmark against a real loopback cluster.

use cachecloud_loadgen::driver::{BenchConfig, Driver, WorkloadKind};

fn tiny() -> BenchConfig {
    BenchConfig {
        nodes: 2,
        seed: 7,
        qps: 400.0,
        ops: 300,
        docs: 24,
        theta: 0.9,
        workload: WorkloadKind::Zipf,
        warmup_frac: 0.1,
        workers: 3,
        closed: true,
        think_ms: 0,
        compare_ops: 120,
        ramp: vec![200.0],
        body_cap: 512,
        bounded_capacity: 2 * 1024,
        bounded_ops: 150,
        pipeline_depth: 8,
        hotspot_ops: 400,
        hotspot_qps: 400.0,
        hot_docs: 6,
        hot_fraction: 0.6,
        sweep: vec![600.0],
        sweep_ops: 120,
    }
}

#[test]
fn tiny_bench_produces_a_sane_report() {
    let report = Driver::new(tiny()).run().expect("bench runs");

    assert!(report.digest_verified, "schedule must be deterministic");
    assert_eq!(report.schedule_ops, 300);
    assert_eq!(report.populate.count, 24);
    assert_eq!(report.populate_errors, 0);

    // Open loop: traffic flowed, loopback latencies are sane, quantiles
    // are ordered.
    let open = &report.open;
    assert!(open.measured_ops > 0, "no measured ops");
    assert_eq!(open.errors, 0, "loopback run must not error");
    assert!(open.achieved_qps > 0.0);
    assert!(open.fetch.count > 0);
    assert!(open.fetch.p50_ms > 0.0);
    assert!(open.fetch.p50_ms <= open.fetch.p99_ms);
    assert!(open.fetch.p99_ms <= open.fetch.p999_ms);
    assert!(open.fetch.p999_ms <= open.fetch.max_ms);
    assert!(open.update.count > 0, "origin injector must have run");

    // Closed loop ran and measured everything it sent.
    let closed = report.closed.as_ref().expect("closed-loop pass");
    assert!(closed.measured_ops > 0);
    assert_eq!(closed.errors, 0);

    // The pipelined ceiling pass: every fetch answered, none lost, and
    // the windowed pipeline beats one-in-flight throughput.
    let pipelined = report.pipelined.as_ref().expect("pipelined pass");
    assert!(pipelined.measured_ops > 0);
    assert_eq!(pipelined.errors, 0, "pipelined pass must not error");
    assert!(
        pipelined.achieved_qps > closed.achieved_qps,
        "pipelining ({:.0} qps) should beat one-in-flight ({:.0} qps)",
        pipelined.achieved_qps,
        closed.achieved_qps
    );

    // Cluster-side accounting reconciles with the paper's identity.
    let cluster = &report.cluster;
    assert!(cluster.requests > 0);
    assert_eq!(
        cluster.requests,
        cluster.local_hits + cluster.cloud_hits + cluster.origin_fetches,
        "every request is a local hit, a cloud hit, or an origin fetch"
    );
    assert!((0.0..=1.0).contains(&cluster.hit_ratio));
    assert!(cluster.beacon_load_cov.is_finite());
    assert_eq!(cluster.per_node.len(), 2);

    // Pooling did its job on the main run: connections were reused.
    let pool = report.pool.expect("main run pools");
    assert!(pool.reused > 0, "pooled run must reuse connections");

    // The comparison ran both regimes over the identical schedule.
    let cmp = report.comparison.as_ref().expect("comparison ran");
    assert_eq!(cmp.pooled.measured_ops, cmp.unpooled.measured_ops);
    let pooled_pool = cmp.pooled_pool.expect("pooled side reports counters");
    assert!(pooled_pool.reused > 0);

    assert_eq!(report.ramp.len(), 1);
    assert!(report.ramp[0].achieved_qps > 0.0);

    // The bounded pass actually hit capacity pressure: copies were
    // evicted and not every request could be answered from cache.
    let bounded = report.bounded.as_ref().expect("bounded pass ran");
    assert_eq!(bounded.capacity_bytes, 2 * 1024);
    assert!(bounded.cluster.evictions > 0, "cap must force evictions");
    assert!(
        bounded.cluster.hit_ratio < 1.0,
        "hit ratio {} should drop under eviction pressure",
        bounded.cluster.hit_ratio
    );
    assert_eq!(
        bounded.cluster.requests,
        bounded.cluster.local_hits + bounded.cluster.cloud_hits + bounded.cluster.origin_fetches,
        "the accounting identity holds under eviction pressure too"
    );

    // The moving-hotspot pass: deterministic schedule, three driven
    // windows bracketing two rebalances, fault-free directory traffic.
    let hotspot = report.hotspot.as_ref().expect("hotspot pass ran");
    assert!(hotspot.digest_verified, "hotspot schedule must reproduce");
    assert_eq!(hotspot.populate_errors, 0);
    assert_eq!(hotspot.phases.len(), 3);
    assert_eq!(hotspot.phases[0].name, "pre_shift");
    assert_eq!(hotspot.phases[1].name, "post_shift");
    assert_eq!(hotspot.phases[2].name, "post_rebalance");
    assert!(hotspot.phases.iter().all(|p| p.run.measured_ops > 0));
    assert_eq!(hotspot.rebalances.len(), 2);
    assert_eq!(hotspot.rebalances[0].version, 1);
    assert_eq!(hotspot.rebalances[1].version, 2);
    assert!(hotspot.cov_post_shift.is_finite());
    assert!(hotspot.cov_post_rebalance.is_finite());
    assert_eq!(hotspot.sweep.len(), 1);
    assert!(hotspot.sweep[0].achieved_qps > 0.0);
    assert_eq!(
        hotspot.cluster.unregister_failures, 0,
        "fault-free run must confirm every eviction deregistration"
    );
    assert_eq!(
        hotspot.cluster.update_delivery_failures, 0,
        "fault-free run must deliver every update"
    );
    assert_eq!(
        hotspot.cluster.handoff_failures, 0,
        "fault-free run must hand off every directory record"
    );

    // And the whole thing renders as JSON with the headline fields.
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"cachecloud-loadgen/1\""));
    assert!(json.contains("\"digest_verified\": true"));
    assert!(json.contains("\"p999_ms\""));
    assert!(json.contains("\"cov_post_rebalance\""));
}

#[test]
fn identical_seeds_reproduce_identical_schedules_across_drivers() {
    let a = Driver::new(tiny());
    let b = Driver::new(tiny());
    let sa = cachecloud_loadgen::Schedule::from_trace(&a.build_trace(), 400.0, 300);
    let sb = cachecloud_loadgen::Schedule::from_trace(&b.build_trace(), 400.0, 300);
    assert_eq!(sa.digest(), sb.digest());
    assert_eq!(sa.ops(), sb.ops());
}
