#!/usr/bin/env bash
# Pre-merge check: hermeticity gate + the tier-1 verify from ROADMAP.md.
#
# The hermetic gate and the builds stop the script at the first failure.
# Every later step runs even when an earlier one fails, so one flaky step
# cannot hide the rest; a PASS/FAIL summary ends the run, and the script
# exits non-zero if any step failed.
set -euo pipefail
cd "$(dirname "$0")/.."

./ci/check_hermetic.sh

echo "== build: cargo build --release (tier-1) + the smoke bins"
cargo build --release
# The smoke bins are built once and run directly: `timeout` around
# `cargo run` would kill cargo and leave a hung smoke spinning.
cargo build -q --release -p pto-bench --bins

summary=()
failures=0

# step NAME CMD...: run CMD, record PASS or FAIL (with its exit code).
step() {
    local name=$1
    shift
    echo "== $name"
    local code=0
    "$@" || code=$?
    if [ "$code" -eq 0 ]; then
        summary+=("PASS  $name")
    else
        summary+=("FAIL  $name (exit $code)")
        failures=$((failures + 1))
    fi
}

step "lint: cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings

step "tier-1: cargo test -q" cargo test -q

step "workspace tests: every crate's unit and integration tests" \
    cargo test --workspace -q

step "crate tests: BST, Harris list, hash table and Mound tests (allocation, leak and cost regressions)" \
    cargo test -q --release -p pto-bst -p pto-list -p pto-hashtable -p pto-mound

step "lincheck: linearizability of every structure variant (crates/check/tests)" \
    cargo test -q --release -p pto-check --test lincheck

step "benchmark check: smoke run of all four benchmark workloads" \
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check

step "obs smoke: one session's trace, counter tracks, attribution, overflow, SLO rails" \
    timeout 30 target/release/obs_smoke

step "gate scale: per-charge host cost at 256 lanes stays under 8x the 8-lane cost" \
    cargo test -q --release -p pto-sim --test gate_scale

step "adaptive smoke: self-tuning policy beats/matches static budgets per regime" \
    timeout 30 target/release/adaptive_sweep --smoke

step "lincheck smoke: linearizability sweep, variant cells sharded across cores" \
    timeout 30 target/release/lincheck --smoke

# The full sweep (5 schedules per variant, under a second): two hand-made
# lock-free BST bugs passed the smoke's 2 schedules and only this caught
# them.
step "lincheck full: every variant at 5 schedules" \
    timeout 30 target/release/lincheck

# Bank-transfer (two hash tables, token conservation under concurrent
# audits and abort injection) and order-book (mound + index agreement),
# each across the fallback/pto/adaptive series with SLO rails, plus the
# multi-object lincheck leg (pair/transfer product specs through the WGL
# checker).
step "compose smoke: bank_transfer (conservation + consistency rails)" \
    timeout 30 target/release/bank_transfer --smoke
step "compose smoke: order_book" \
    timeout 30 target/release/order_book --smoke
step "compose smoke: compose_smoke (multi-object lincheck)" \
    timeout 30 target/release/compose_smoke --smoke

# Gate invariants at server scale (64/256-lane sched tests) and the
# 64-lane Haswell/NumaIsh golden pair; artifacts already built above, so
# this re-targets the scale tests by name in seconds.
step "64-lane smoke: tournament-gate liveness (sched lanes tests)" \
    cargo test -q -p pto-sim --lib lanes
step "64-lane smoke: dual-profile golden makespans" \
    cargo test -q --test golden_makespan golden_lane_private_64lane

echo "== summary"
printf '%s\n' "${summary[@]}"
if [ "$failures" -ne 0 ]; then
    echo "premerge: $failures step(s) failed"
    exit 1
fi
echo "premerge: all steps passed"
