#!/usr/bin/env bash
# The repository's CI gate, runnable locally: formatting, lints, tests.
#
#   ./ci.sh
#
# Mirrors .github/workflows/ci.yml exactly — if this passes, CI passes.
# Every cargo step runs --offline --locked: the workspace has no external
# crates, so it builds from the committed Cargo.lock with no network.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> workspace packages only"
meta=$(cargo metadata --format-version 1 --offline --locked)
if grep -q '"source":"' <<<"$meta"; then
  echo "a package outside the workspace is in the dependency graph" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --offline --locked --workspace

echo "==> chaos suite (pinned seeds, bounded)"
# The chaos tests run a live loopback cloud behind fault-injecting
# proxies; seeds are pinned so failures replay. `timeout` caps the whole
# suite well above its normal few-second runtime in case of a hang.
CHAOS_SEEDS="11,23" timeout 300 \
  cargo test -q --offline --locked -p cachecloud-cluster --test chaos

echo "==> pinned simulator outputs reproduce"
# The medium-scale ablations are seeded, so their tables must match the
# committed log exactly; only run times and output paths may differ.
cargo run --offline --locked --release -q -p cachecloud-bench --bin figures -- \
  ablation-consistent ablation-weights ablation-multicloud ablation-replacement \
  ablation-failure ablation-consistency --scale medium \
  --out target/figures-ablations >target/ablations_output.txt
pinned='^\[(wrote .*|.* took .*)\]$'
diff <(grep -Ev "$pinned" ablations_output.txt) \
  <(grep -Ev "$pinned" target/ablations_output.txt)

echo "==> smoke bench (pinned seed, bounded, throughput-gated)"
# A small live benchmark against a loopback cluster: exits non-zero
# unless traffic flowed, the deterministic schedule digest reproduced,
# the error rate stayed within bounds, the bounded pass evicted with
# zero unconfirmed eviction deregistrations, no pass left a failed
# update delivery or directory handoff, the moving-hotspot pass
# (pinned seed 42) left post-rebalance beacon-load CoV strictly below
# the stale-table CoV, AND throughput cleared the floors below. The
# floors are deliberately far under the dev-box numbers (~50k
# one-in-flight, ~94k pipelined on a single core) so only a real
# serving regression trips them, not a noisy shared runner; the hotspot
# gate checks the direction of the rebalance effect, not its size.
# Writes BENCH_cluster.json (archived as an artifact by the workflow).
timeout 300 cargo run --offline --locked --release -q -p cachecloud-loadgen --bin loadgen -- \
  --smoke --min-closed-qps 10000 --min-pipelined-qps 40000 \
  --out BENCH_cluster.json

echo "CI green."
