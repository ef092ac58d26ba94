#!/usr/bin/env bash
# Hermeticity gate: the default workspace must build fully offline and its
# dependency graph must contain only workspace-local packages.
#
# Fails if:
#   * any target of the default (no-feature) graph fails to build with
#     --offline, or
#   * `cargo metadata` resolves any package that is not `pto` or `pto-*`
#     (i.e. someone re-introduced a crates-io dependency).
#
# Run as part of pre-merge via ci/premerge.sh, or standalone:
#   ./ci/check_hermetic.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== check_hermetic: offline build of the default graph"
cargo build --release --offline --workspace --all-targets

echo "== check_hermetic: scanning the resolved dependency graph"
cargo metadata --format-version 1 --offline | python3 -c '
import json, sys

meta = json.load(sys.stdin)
bad = sorted(
    "{} {}".format(p["name"], p["version"])
    for p in meta["packages"]
    if p["name"] != "pto" and not p["name"].startswith("pto-")
)
if bad:
    print("non-workspace packages in the default dependency graph:")
    for b in bad:
        print("  " + b)
    print("the default build must stay hermetic; gate new dependencies")
    print("behind an off-by-default feature or vendor them into pto-sim.")
    sys.exit(1)
names = sorted(p["name"] for p in meta["packages"])
print("ok: {} packages, all workspace-local: {}".format(len(names), ", ".join(names)))

# The checking subsystem must itself stay hermetic: pto-check may depend
# only on pto-*-namespaced workspace crates (a checker that pulls in an
# external engine would undercut the "verify with what you ship" story).
check = next(p for p in meta["packages"] if p["name"] == "pto-check")
bad = sorted(d["name"] for d in check["dependencies"]
             if not d["name"].startswith("pto-"))
if bad:
    print("pto-check has non-workspace dependencies: " + ", ".join(bad))
    sys.exit(1)
print("ok: pto-check depends only on pto-* crates")

# The composition layer (pto_core::compose and the policies under it)
# must also verify with what it ships: pto-core may depend only on
# pto-*-namespaced workspace crates.
core = next(p for p in meta["packages"] if p["name"] == "pto-core")
bad = sorted(d["name"] for d in core["dependencies"]
             if not d["name"].startswith("pto-"))
if bad:
    print("pto-core has non-workspace dependencies: " + ", ".join(bad))
    sys.exit(1)
print("ok: pto-core depends only on pto-* crates")

# The simulator is the foundation everything instruments against (clock,
# observation, json); it must not grow dependencies at all — a pto-sim
# that pulls in siblings inverts the layering, and an external crate
# breaks hermeticity outright.
sim = next(p for p in meta["packages"] if p["name"] == "pto-sim")
bad = sorted(d["name"] for d in sim["dependencies"])
if bad:
    print("pto-sim must stay dependency-free, found: " + ", ".join(bad))
    sys.exit(1)
print("ok: pto-sim is dependency-free (foundation layer)")
'
