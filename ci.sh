#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must keep green.
#
# Usage: ./ci.sh
#
# The build environment is offline; all dependencies are intra-workspace
# (including the vendored shims under vendor/), so --offline is safe and
# catches any accidental registry dependency sneaking in.
set -euo pipefail
cd "$(dirname "$0")"

run() {
  echo
  echo "==> $*"
  "$@"
}

# 0. Formatting gate: rustfmt must be a no-op (style is pinned by
#    rustfmt.toml; `cargo fmt` fixes violations).
run cargo fmt --check

# 1. Release build of every workspace member (libs, bins).
run cargo build --release --offline

# 2. Full test suite: unit, integration, and doc tests.
run cargo test -q --offline

# 3. Bench and example targets must at least compile.
run cargo check --workspace --all-targets --offline

# 3b. The traffic subsystem smoke test: a tiny deterministic run of all
#     five workload scenarios (including the million-key paced-repair one),
#     with built-in SLO assertions (availability dips under churn and
#     recovers to 100% after re-stabilization; the million-key handoff
#     drains through the bounded repair budget).
run cargo run --release --offline --bin traffic -- --smoke

# 3c. The statistical SLO sweep (seeds × churn intensities × repair
#     bandwidths) on its smoke grid: every cell must re-stabilize and
#     recover, the repair timeline must be internally consistent
#     (keys moved <= backlog at start), the availability floor must degrade
#     monotonically as repair bandwidth shrinks, and the grid JSON with the
#     repair-backlog fields must be written.
run cargo run --release --offline --bin sweep -- --smoke

# 3d. The byzantine fault-injection scan on its smoke grid: protocol-layer
#     crimes (lies, rule suppression) scanned for convergence/ring
#     boundaries, request-path crimes (drops, misroutes, poisoned reads,
#     sybil waves, stalled heartbeats) scanned for availability floors —
#     with built-in assertions: fraction 0 reproduces the honest traces
#     byte-for-byte, mean availability degrades monotonically in the
#     corrupted fraction, and nothing panics at fraction 1/2.
run cargo run --release --offline --bin adversary -- --smoke

# 3e. The sharded data plane: the traffic smoke re-run with 4 worker
#     threads must pass the identical SLO gates (byte-parity across worker
#     counts is pinned by tests/shard_parity.rs in step 2; this leg proves
#     the threaded path drives the full scenario stack end to end).
run cargo run --release --offline --bin traffic -- --smoke --threads 4

# 3f. The shard bench trajectory on its smoke grid: the 1M-key and the
#     10M-key / 10k-peer scenarios at 1 and 4 workers, parity asserted
#     before any timing is reported (results/shard_smoke.json; the
#     committed BENCH_shard.json holds the full-grid trajectory).
run cargo run --release --offline --bin shard -- --smoke

# 3g. Placement-engine scale smoke in release mode: ≥100k keys / 256 peers,
#     a single join/leave must repair far less than 20% of the keys, and
#     the delta-vs-rebuild proptests must hold.
run cargo test -q --release --offline -p rechord_placement

# 3h. The real-process cluster smoke: build the `node` binary (a bin of a
#     dependency crate, so `cargo run --bin cluster` alone won't), then
#     spawn 3-process TCP loopback clusters and serve a 10k-RPC get/put
#     workload serially (window=1, the legacy closed loop), pipelined at
#     window=16, and pipelined from 4 concurrent clients — per-RPC results
#     asserted identical across the direct-call oracle, the in-memory
#     cluster, and the TCP processes at every setting, availability exactly
#     1.0, zero wire errors, orderly shutdown. Bounded by timeout in case a
#     process wedges. The emitted JSON must carry the pipelining schema
#     (window / clients / host_cores fields).
run cargo build --release --offline -p rechord_net --bin node
run timeout 600 cargo run --release --offline --bin cluster -- --smoke --window 16
for field in '"window"' '"clients"' '"host_cores"'; do
  if ! grep -q "$field" results/cluster_smoke.json; then
    echo "ci.sh: results/cluster_smoke.json lost the $field field" >&2
    exit 1
  fi
done

# 3i. The static-analysis gate: first prove the linter itself works (the
#     fixture corpus must match its goldens and every rule must fire on
#     the known-bad files), then lint the whole workspace — zero unwaived
#     findings allowed — and check the machine-readable report keeps its
#     schema keys.
run cargo run --release --offline -q -p rechord_lint --bin rechord-lint -- --fixtures-self-test
run cargo run --release --offline -q -p rechord_lint --bin rechord-lint -- --root .
for key in '"schema": "rechord-lint/v1"' '"total_unwaived": 0' '"determinism"' '"net_double_lock"' '"files_scanned"'; do
  if ! grep -qF "$key" results/lint.json; then
    echo "ci.sh: results/lint.json lost the $key key" >&2
    exit 1
  fi
done

# 3j. The repository benchmark's own smoke test: every perfbench workload
#     at smoke size, untraced and traced, must pass its correctness gates
#     and print exactly the metrics BENCHMARK.json names, with their units.
#     perfbench is a cargo workspace of its own, so it compiles its own
#     copy of the program crates (about 25 s, once). Pointing it at this
#     workspace's target directory keeps that build cached across runs
#     and reuses the `node` binary built in 3h; warm, the leg takes ~15 s.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" run python3 perfbench/test_smoke.py

# 4. Rustdoc must build warning-free (broken intra-doc links are bugs).
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace --offline

# 5. Lint wall: clippy clean across every target.
run cargo clippy --workspace --all-targets --offline -- -D warnings

echo
echo "ci.sh: all green"
