#!/usr/bin/env bash
# Pre-merge check: hermeticity gate + the tier-1 verify from ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

./ci/check_hermetic.sh

echo "== lint: cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests: every crate's unit and integration tests"
cargo test --workspace -q

echo "== crate tests: BST + Harris list unit tests (allocation and leak regressions)"
cargo test -q --release -p pto-bst -p pto-list

echo "== lincheck: linearizability of every structure variant (crates/check/tests)"
cargo test -q --release -p pto-check --test lincheck

echo "== benchmark check: smoke run of all four benchmark workloads"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check

# The smoke bins are built once and run directly: `timeout` around
# `cargo run` would kill cargo and leave a hung smoke spinning.
cargo build -q --release -p pto-bench --bins

echo "== obs smoke: one session's trace, counter tracks, attribution, overflow, SLO rails"
timeout 30 target/release/obs_smoke

echo "== perf smoke: wallclock hot paths + BENCH_sim.json structural check"
target/release/perf_smoke --check

echo "== adaptive smoke: self-tuning policy beats/matches static budgets per regime"
timeout 30 target/release/adaptive_sweep --smoke

echo "== lincheck smoke: linearizability sweep, variant cells sharded across cores"
timeout 30 target/release/lincheck --smoke

echo "== compose smoke: cross-structure scenarios (conservation + consistency rails)"
# Bank-transfer (two hash tables, token conservation under concurrent
# audits and abort injection) and order-book (mound + index agreement),
# each across the fallback/pto/adaptive series with SLO rails, plus the
# multi-object lincheck leg (pair/transfer product specs through the WGL
# checker).
timeout 30 target/release/bank_transfer --smoke
timeout 30 target/release/order_book --smoke
timeout 30 target/release/compose_smoke --smoke

echo "== 64-lane smoke: tournament-gate liveness + dual-profile golden makespans"
# Gate invariants at server scale (64/256-lane sched tests) and the
# 64-lane Haswell/NumaIsh golden pair; artifacts already built above, so
# this re-targets the scale tests by name in seconds.
cargo test -q -p pto-sim --lib lanes
cargo test -q --test golden_makespan golden_lane_private_64lane
