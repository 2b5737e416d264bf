#!/usr/bin/env bash
# Validates the batch_scaling BENCH JSON written by the CI bench-smoke job:
#
#   1. the telemetry-enabled run carries the full "telemetry" section
#      (stage time split, chunk-latency quantiles, DP cell totals, event
#      counters, software-vs-ASIC ratio) with "enabled": true, plus the
#      per-backend single-thread "backends" points (scalar and vector, each
#      with a positive cells_per_s),
#   2. the --no-default-features run reports "enabled": false (a regression
#      here means cargo feature unification silently re-enabled telemetry),
#   3. accuracy/TPR/FPR are identical across the two modes — telemetry is
#      observation only and must never change a verdict — and, in the
#      enabled run, across every worker count and backend, which must also
#      evaluate exactly the same DP cells,
#   4. the per-point timing overhead of the enabled run is reported (quick
#      runs on shared CI machines are too noisy to gate on, so the ≤2%
#      budget is enforced by local release-mode runs, not here).
#
# Usage: scripts/check-bench-schema.sh ENABLED.json DISABLED.json
set -u

if [ "$#" -ne 2 ]; then
    echo "usage: scripts/check-bench-schema.sh ENABLED.json DISABLED.json"
    exit 2
fi

python3 - "$1" "$2" <<'PY'
import json
import sys

enabled_path, disabled_path = sys.argv[1], sys.argv[2]
fail = 0


def broken(msg):
    global fail
    print(f"BROKEN: {msg}")
    fail = 1


with open(enabled_path) as f:
    enabled = json.load(f)
with open(disabled_path) as f:
    disabled = json.load(f)

# 1. Full telemetry section in the enabled run.
tel = enabled.get("telemetry")
if not isinstance(tel, dict):
    broken(f"{enabled_path}: no telemetry section")
    tel = {}
if tel.get("enabled") is not True:
    broken(f"{enabled_path}: telemetry.enabled is not true")
for section, keys in {
    "stage_ns": ["normalize", "dp", "decision"],
    "chunk_latency_ns": ["count", "p50", "p95", "p99", "max"],
    "dp": ["cells", "rows", "software_cells_per_s"],
    "counts": [
        "early_rejects",
        "stage_escalations",
        "calibrations",
        "recalibrations",
        "flowcell_ejects",
        "missed_eject_windows",
    ],
    "hardware_model": ["tiles", "asic_cells_per_s", "software_vs_asic_ratio"],
}.items():
    sub = tel.get(section)
    if not isinstance(sub, dict):
        broken(f"{enabled_path}: telemetry.{section} missing")
        continue
    for key in keys:
        if key not in sub:
            broken(f"{enabled_path}: telemetry.{section}.{key} missing")
if tel.get("dp", {}).get("cells", 0) <= 0:
    broken(f"{enabled_path}: telemetry.dp.cells is not positive")
if tel.get("chunk_latency_ns", {}).get("count", 0) <= 0:
    broken(f"{enabled_path}: telemetry.chunk_latency_ns.count is not positive")

# 1b. Per-backend single-thread points: both kernel backends must be
# measured, with the per-backend throughput keys the CI trend tracks. The
# cells_per_s rate needs telemetry, so it is only required positive in the
# enabled run.
backends = enabled.get("backends")
if not isinstance(backends, list):
    broken(f"{enabled_path}: no backends section")
    backends = []
names = [b.get("backend") for b in backends]
if names != ["scalar", "vector"]:
    broken(f"{enabled_path}: backends are {names}, expected ['scalar', 'vector']")
for b in backends:
    for key in ("backend", "threads", "seconds", "reads_per_s", "dp_cells",
                "cells_per_s", "speedup_vs_scalar"):
        if key not in b:
            broken(f"{enabled_path}: backends[{b.get('backend')}].{key} missing")
    if b.get("threads") != 1:
        broken(f"{enabled_path}: backends[{b.get('backend')}] is not single-thread")
    if b.get("cells_per_s", 0) <= 0:
        broken(f"{enabled_path}: backends[{b.get('backend')}].cells_per_s is not positive")

# 1c. The sharded pan-viral catalog section: present in both modes, with a
# >= 8-target panel and the full shard-count sweep. The telemetry-derived
# dp_cells must be positive only where telemetry can record it.
for path, run, has_tel in ((enabled_path, enabled, True),
                           (disabled_path, disabled, False)):
    sharding = run.get("sharding")
    if not isinstance(sharding, dict):
        broken(f"{path}: no sharding section")
        continue
    for key in ("targets", "genome_bp", "reads", "sweep"):
        if key not in sharding:
            broken(f"{path}: sharding.{key} missing")
    if sharding.get("targets", 0) < 8:
        broken(f"{path}: sharding.targets < 8 (not a pan-viral panel)")
    sweep = sharding.get("sweep", [])
    if [p.get("shards") for p in sweep] != [1, 2, 4, 8]:
        broken(f"{path}: sharding.sweep shard counts are not [1, 2, 4, 8]")
    for p in sweep:
        for key in ("shards", "seconds", "reads_per_s", "dp_cells",
                    "cells_per_s"):
            if key not in p:
                broken(f"{path}: sharding.sweep[{p.get('shards')}].{key} missing")
        if p.get("reads_per_s", 0) <= 0:
            broken(f"{path}: sharding.sweep[{p.get('shards')}].reads_per_s "
                   "is not positive")
        if has_tel and p.get("dp_cells", 0) <= 0:
            broken(f"{path}: sharding.sweep[{p.get('shards')}].dp_cells "
                   "is not positive")
        if not has_tel and p.get("dp_cells", 0) != 0:
            broken(f"{path}: sharding.sweep[{p.get('shards')}].dp_cells != 0 "
                   "with telemetry compiled out")

# 2. The disabled build really is disabled.
if disabled.get("telemetry", {}).get("enabled") is not False:
    broken(f"{disabled_path}: telemetry.enabled is not false "
           "(feature unification re-enabled telemetry?)")

# 3. Verdict parity across modes, point by point.
for pe, pd in zip(enabled.get("sweep", []), disabled.get("sweep", [])):
    for key in ("threads", "accuracy", "tpr", "fpr"):
        if pe.get(key) != pd.get(key):
            broken(f"sweep threads={pe.get('threads')}: {key} differs across "
                   f"modes ({pe.get(key)} vs {pd.get(key)})")
if len(enabled.get("sweep", [])) != len(disabled.get("sweep", [])):
    broken("sweep point counts differ across modes")

# 3b. Worker count and backend change neither a verdict nor the DP work.
sweep = enabled.get("sweep", [])
if sweep:
    first = sweep[0]
    for p in sweep[1:]:
        for key in ("accuracy", "tpr", "fpr", "dp_cells"):
            if p.get(key) != first.get(key):
                broken(f"{enabled_path}: sweep threads={p.get('threads')}: {key} "
                       f"differs from threads={first.get('threads')} "
                       f"({p.get(key)} vs {first.get(key)})")
    for b in enabled.get("backends", []):
        if b.get("dp_cells") != first.get("dp_cells"):
            broken(f"{enabled_path}: backends[{b.get('backend')}].dp_cells "
                   f"differs from sweep[0] ({b.get('dp_cells')} vs "
                   f"{first.get('dp_cells')})")

# 4. Informational overhead report (not gated: quick CI runs are noisy).
pairs = [
    (pe["threads"], pe["seconds"] / pd["seconds"] - 1.0)
    for pe, pd in zip(enabled.get("sweep", []), disabled.get("sweep", []))
    if pd.get("seconds", 0) > 0
]
for threads, overhead in pairs:
    print(f"overhead: threads={threads} telemetry {overhead * 100:+.2f}%")

if fail:
    print("bench schema check FAILED")
    sys.exit(1)
print(f"bench schema check OK ({enabled_path} vs {disabled_path})")
PY
