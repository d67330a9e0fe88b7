#!/usr/bin/env bash
# Kernel perf regression gate: the batched kernel's speedup over the
# forced interpreter, both measured in the same bench run
# (streaming_throughput.kernel_speedup_vs_interpreter), may be at most
# 25% below the baseline report's. A same-run ratio cancels the host's
# speed, so a baseline committed on one machine gates a run on another;
# absolute ns per chain-step does not. Baselines from a different bench
# mode (quick vs full) are not comparable, so a mode mismatch skips
# rather than fails.
#
#   scripts/bench_gate.sh BASELINE.json [CURRENT.json]
#
# CURRENT defaults to the BENCH_streaming.json a fresh bench run just
# wrote at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:?usage: scripts/bench_gate.sh BASELINE.json [CURRENT.json]}"
current="${2:-BENCH_streaming.json}"

python3 - "$baseline" "$current" <<'PY'
import json
import sys

KEY = "kernel_speedup_vs_interpreter"


def row(path):
    with open(path) as f:
        return json.load(f).get("streaming_throughput", {})


base, cur = row(sys.argv[1]), row(sys.argv[2])
b, c = base.get(KEY), cur.get(KEY)
if b is None or c is None:
    sys.exit(f"bench-gate: {KEY} missing (baseline={b}, current={c})")
if base.get("mode") != cur.get("mode"):
    print(
        "bench-gate: mode mismatch "
        f"({base.get('mode')} vs {cur.get('mode')}); not comparable, skipping"
    )
    sys.exit(0)
limit = b * 0.75
ok = c >= limit
print(
    f"bench-gate: {KEY} {c:.2f}x vs baseline {b:.2f}x "
    f"(floor {limit:.2f}x, mode {cur.get('mode')}) {'OK' if ok else 'FAIL'}"
)
sys.exit(0 if ok else 1)
PY
