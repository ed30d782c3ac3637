//! The `loadgen` binary: benchmark a live cache cloud and emit
//! `BENCH_cluster.json`.
//!
//! ```text
//! loadgen [--smoke] [--out BENCH_cluster.json]
//!         [--nodes N] [--seed S] [--qps Q] [--ops N] [--docs N]
//!         [--theta T] [--workload zipf|sydney] [--workers N]
//!         [--warmup-frac F] [--no-closed] [--think-ms MS]
//!         [--compare-ops N] [--ramp Q1,Q2,...] [--body-cap BYTES]
//!         [--bounded-capacity BYTES] [--bounded-ops N]
//!         [--pipeline-depth N] [--min-closed-qps Q]
//!         [--min-pipelined-qps Q]
//!         [--hotspot-ops N] [--hotspot-qps Q] [--hot-docs N]
//!         [--hot-fraction F] [--sweep Q1,Q2,...] [--sweep-ops N]
//! ```
//!
//! `--smoke` selects the small CI preset and exits non-zero unless the
//! run produced a sane report (traffic flowed, error rate within bounds,
//! deterministic schedule digest verified).

use std::process::ExitCode;

use cachecloud_loadgen::driver::{BenchConfig, Driver, WorkloadKind};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--smoke] [--out FILE] [--nodes N] [--seed S] [--qps Q] \
         [--ops N] [--docs N] [--theta T] [--workload zipf|sydney] [--workers N] \
         [--warmup-frac F] [--no-closed] [--think-ms MS] [--compare-ops N] \
         [--ramp Q1,Q2,...] [--body-cap BYTES] [--bounded-capacity BYTES] \
         [--bounded-ops N] [--pipeline-depth N] [--min-closed-qps Q] \
         [--min-pipelined-qps Q] [--hotspot-ops N] [--hotspot-qps Q] \
         [--hot-docs N] [--hot-fraction F] [--sweep Q1,Q2,...] [--sweep-ops N]"
    );
    std::process::exit(2);
}

fn parse_args() -> (BenchConfig, String, bool, f64, f64) {
    let mut config = BenchConfig::standard();
    let mut out = "BENCH_cluster.json".to_owned();
    let mut smoke = false;
    let mut min_closed_qps = 0.0;
    let mut min_pipelined_qps = 0.0;
    let mut args = std::env::args().skip(1);

    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("loadgen: {flag} needs a value");
            std::process::exit(2);
        })
    }
    fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("loadgen: bad value {raw:?} for {flag}");
            std::process::exit(2);
        })
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                smoke = true;
                config = BenchConfig::smoke();
            }
            "--out" => out = value(&mut args, "--out"),
            "--nodes" => config.nodes = parse(&value(&mut args, "--nodes"), "--nodes"),
            "--seed" => config.seed = parse(&value(&mut args, "--seed"), "--seed"),
            "--qps" => config.qps = parse(&value(&mut args, "--qps"), "--qps"),
            "--ops" => config.ops = parse(&value(&mut args, "--ops"), "--ops"),
            "--docs" => config.docs = parse(&value(&mut args, "--docs"), "--docs"),
            "--theta" => config.theta = parse(&value(&mut args, "--theta"), "--theta"),
            "--workers" => config.workers = parse(&value(&mut args, "--workers"), "--workers"),
            "--warmup-frac" => {
                config.warmup_frac = parse(&value(&mut args, "--warmup-frac"), "--warmup-frac");
            }
            "--no-closed" => config.closed = false,
            "--think-ms" => config.think_ms = parse(&value(&mut args, "--think-ms"), "--think-ms"),
            "--compare-ops" => {
                config.compare_ops = parse(&value(&mut args, "--compare-ops"), "--compare-ops");
            }
            "--body-cap" => config.body_cap = parse(&value(&mut args, "--body-cap"), "--body-cap"),
            "--bounded-capacity" => {
                config.bounded_capacity = parse(
                    &value(&mut args, "--bounded-capacity"),
                    "--bounded-capacity",
                );
            }
            "--bounded-ops" => {
                config.bounded_ops = parse(&value(&mut args, "--bounded-ops"), "--bounded-ops");
            }
            "--pipeline-depth" => {
                config.pipeline_depth =
                    parse(&value(&mut args, "--pipeline-depth"), "--pipeline-depth");
            }
            "--min-closed-qps" => {
                min_closed_qps = parse(&value(&mut args, "--min-closed-qps"), "--min-closed-qps");
            }
            "--min-pipelined-qps" => {
                min_pipelined_qps = parse(
                    &value(&mut args, "--min-pipelined-qps"),
                    "--min-pipelined-qps",
                );
            }
            "--ramp" => {
                let raw = value(&mut args, "--ramp");
                config.ramp = raw
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| parse(s.trim(), "--ramp"))
                    .collect();
            }
            "--hotspot-ops" => {
                config.hotspot_ops = parse(&value(&mut args, "--hotspot-ops"), "--hotspot-ops");
            }
            "--hotspot-qps" => {
                config.hotspot_qps = parse(&value(&mut args, "--hotspot-qps"), "--hotspot-qps");
            }
            "--hot-docs" => config.hot_docs = parse(&value(&mut args, "--hot-docs"), "--hot-docs"),
            "--hot-fraction" => {
                config.hot_fraction = parse(&value(&mut args, "--hot-fraction"), "--hot-fraction");
            }
            "--sweep" => {
                let raw = value(&mut args, "--sweep");
                config.sweep = raw
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| parse(s.trim(), "--sweep"))
                    .collect();
            }
            "--sweep-ops" => {
                config.sweep_ops = parse(&value(&mut args, "--sweep-ops"), "--sweep-ops");
            }
            "--workload" => {
                config.workload = match value(&mut args, "--workload").as_str() {
                    "zipf" => WorkloadKind::Zipf,
                    "sydney" => WorkloadKind::Sydney,
                    other => {
                        eprintln!("loadgen: unknown workload {other:?} (zipf|sydney)");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("loadgen: unknown flag {other:?}");
                usage();
            }
        }
    }
    (config, out, smoke, min_closed_qps, min_pipelined_qps)
}

fn main() -> ExitCode {
    let (config, out, smoke, min_closed_qps, min_pipelined_qps) = parse_args();
    eprintln!(
        "loadgen: {} nodes, seed {}, {} ops at {} qps ({})",
        config.nodes,
        config.seed,
        config.ops,
        config.qps,
        config.workload.name()
    );

    let report = match Driver::new(config).run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("loadgen: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "loadgen: open loop achieved {:.0} qps (offered {:.0}), fetch p50 {:.2} ms / p99 {:.2} ms / p99.9 {:.2} ms, {} errors",
        report.open.achieved_qps,
        report.open.offered_qps,
        report.open.fetch.p50_ms,
        report.open.fetch.p99_ms,
        report.open.fetch.p999_ms,
        report.open.errors,
    );
    if let Some(closed) = &report.closed {
        eprintln!(
            "loadgen: closed loop achieved {:.0} qps, fetch p50 {:.2} ms / p99 {:.2} ms, {} errors",
            closed.achieved_qps, closed.fetch.p50_ms, closed.fetch.p99_ms, closed.errors,
        );
    }
    if let Some(p) = &report.pipelined {
        eprintln!(
            "loadgen: pipelined ceiling {:.0} qps, fetch p50 {:.2} ms / p99 {:.2} ms, {} errors",
            p.achieved_qps, p.fetch.p50_ms, p.fetch.p99_ms, p.errors,
        );
    }
    if let Some(b) = &report.bounded {
        eprintln!(
            "loadgen: bounded pass ({} B/node): {} evictions, hit ratio {:.3}",
            b.capacity_bytes, b.cluster.evictions, b.cluster.hit_ratio,
        );
    }
    if let Some(h) = &report.hotspot {
        eprintln!(
            "loadgen: hotspot pass: beacon-load CoV {:.3} pre-shift / {:.3} post-shift / {:.3} post-rebalance",
            h.cov_pre_shift, h.cov_post_shift, h.cov_post_rebalance
        );
        match h.knee_qps {
            Some(knee) if !h.sweep.is_empty() => {
                eprintln!("loadgen: hotspot sweep knee at {knee:.0} qps");
            }
            None if !h.sweep.is_empty() => {
                eprintln!("loadgen: hotspot sweep found no rate absorbed at >= 90%");
            }
            _ => {}
        }
    }
    if let Some(cmp) = &report.comparison {
        eprintln!(
            "loadgen: pooled p99 {:.2} ms vs unpooled p99 {:.2} ms",
            cmp.pooled.fetch.p99_ms, cmp.unpooled.fetch.p99_ms
        );
    }
    eprintln!("loadgen: report written to {out}");

    if smoke {
        // The CI gate: traffic flowed, the schedule was deterministic,
        // and the error rate stayed within bounds.
        let mut failures = Vec::new();
        if !report.digest_verified {
            failures.push("schedule digest did not reproduce".to_owned());
        }
        if report.open.achieved_qps <= 0.0 {
            failures.push("open loop achieved 0 qps".to_owned());
        }
        if report.open.measured_ops == 0 {
            failures.push("no measured operations".to_owned());
        }
        let total = report.open.measured_ops.max(1);
        let error_rate = report.open.errors as f64 / total as f64;
        if error_rate > 0.02 {
            failures.push(format!("error rate {error_rate:.4} exceeds 2%"));
        }
        if report.populate_errors > 0 {
            failures.push(format!("{} populate failures", report.populate_errors));
        }
        if report.cluster.requests == 0 {
            failures.push("cluster served no requests".to_owned());
        }
        if let Some(b) = &report.bounded {
            // Capacity pressure must actually bite: a bounded pass with
            // no evictions (or a perfect hit ratio) means the cap was
            // sized above the working set and the pass tested nothing.
            if b.cluster.evictions == 0 {
                failures.push("bounded pass produced no evictions".to_owned());
            }
            if b.cluster.hit_ratio >= 1.0 {
                failures.push(format!(
                    "bounded pass hit ratio {:.4} not under 1.0",
                    b.cluster.hit_ratio
                ));
            }
            // Every eviction deregisters its copy at the beacon; on a
            // fault-free loopback run every one of those must land.
            if b.cluster.unregister_failures > 0 {
                failures.push(format!(
                    "bounded pass left {} unconfirmed eviction deregistrations",
                    b.cluster.unregister_failures
                ));
            }
        }
        if let Some(h) = &report.hotspot {
            // The hotspot gate is deliberately loose: after the hot set
            // moves, a rebalance must leave beacon load flatter than the
            // stale table did — the direction of the effect, not its size.
            if !h.digest_verified {
                failures.push("hotspot schedule digest did not reproduce".to_owned());
            }
            if h.populate_errors > 0 {
                failures.push(format!("{} hotspot populate failures", h.populate_errors));
            }
            if h.cov_post_rebalance >= h.cov_post_shift {
                failures.push(format!(
                    "post-rebalance CoV {:.4} not below post-shift CoV {:.4}",
                    h.cov_post_rebalance, h.cov_post_shift
                ));
            }
            if h.cluster.unregister_failures > 0 {
                failures.push(format!(
                    "hotspot pass left {} unconfirmed deregistrations",
                    h.cluster.unregister_failures
                ));
            }
        }
        // Update fan-out and rebalance handoffs must land on a fault-free
        // loopback run: a failed delivery leaves a holder stale, a failed
        // handoff strands a directory record at its old beacon.
        let passes = [
            ("open", Some(&report.cluster)),
            ("bounded", report.bounded.as_ref().map(|b| &b.cluster)),
            ("hotspot", report.hotspot.as_ref().map(|h| &h.cluster)),
        ];
        for (pass, cluster) in passes {
            let Some(c) = cluster else { continue };
            if c.update_delivery_failures > 0 {
                failures.push(format!(
                    "{pass} pass left {} failed update deliveries",
                    c.update_delivery_failures
                ));
            }
            if c.handoff_failures > 0 {
                failures.push(format!(
                    "{pass} pass left {} failed directory handoffs",
                    c.handoff_failures
                ));
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("loadgen: smoke check failed: {f}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("loadgen: smoke checks passed");
    }
    if min_pipelined_qps > 0.0 {
        let Some(p) = &report.pipelined else {
            eprintln!("loadgen: --min-pipelined-qps requires a pipelined pass");
            return ExitCode::FAILURE;
        };
        if p.achieved_qps < min_pipelined_qps {
            eprintln!(
                "loadgen: pipelined ceiling {:.0} qps is below the {min_pipelined_qps:.0} qps floor",
                p.achieved_qps
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "loadgen: pipelined ceiling {:.0} qps clears the {min_pipelined_qps:.0} qps floor",
            p.achieved_qps
        );
    }
    if min_closed_qps > 0.0 {
        // The CI throughput gate: catches a server-side regression that
        // drops the closed-loop ceiling below the configured floor.
        let Some(closed) = &report.closed else {
            eprintln!("loadgen: --min-closed-qps requires a closed-loop pass");
            return ExitCode::FAILURE;
        };
        if closed.achieved_qps < min_closed_qps {
            eprintln!(
                "loadgen: closed-loop {:.0} qps is below the {min_closed_qps:.0} qps floor",
                closed.achieved_qps
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "loadgen: closed-loop {:.0} qps clears the {min_closed_qps:.0} qps floor",
            closed.achieved_qps
        );
    }
    ExitCode::SUCCESS
}
