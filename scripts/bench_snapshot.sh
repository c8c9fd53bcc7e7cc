#!/usr/bin/env bash
# Refreshes the committed behaviour snapshots: captures the headline
# numbers of fixed-seed CLI runs into BENCH_fleet.json (p50/p99 serve
# latency, fleet throughput, warm-start and transfer hit rates),
# BENCH_sched.json (deadline-miss rates and slowdowns per policy on the
# contended TX2 mix), BENCH_mem.json (the UM-vs-UPM page-size crossover
# on the coherent boards), BENCH_footprint.json (what a binding memory
# cap costs the pressure mix on a TX2: demotions, resident bytes, co-run
# wall) and BENCH_synth.json. Every capture uses fixed seeds, so that
# JSON is reproducible and diffs in it are real behavior changes.
# Wall-clock figures come from the repository benchmark's workloads and
# per-layer ledger (BENCHMARK.json), not from here.
#
# With --check, nothing is overwritten: the captures are regenerated
# into a temporary directory and compared byte for byte with the
# committed files, and the script exits non-zero if any differs, so it
# pins the simulator's outputs.
#
# Usage: ./scripts/bench_snapshot.sh [--check]
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK=0
case "${1:-}" in
    --check) CHECK=1 ;;
    "") ;;
    *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac

# Where the captures are written: the repository root, or a scratch
# directory under --check.
OUT=.
if [[ "$CHECK" -eq 1 ]]; then
    OUT="$(mktemp -d)"
    trap 'rm -rf "$OUT"' EXIT
fi
export OUT

echo "==> cargo build --release -p icomm-cli"
cargo build --release -p icomm-cli

echo "==> capturing BENCH_fleet.json (seed 7, 256 devices, nano,tx2,xavier)"
REPORT="$(target/release/icomm fleet nano,tx2,xavier --devices 256 --seed 7 --json)"
python3 - "$REPORT" <<'EOF'
import json
import os
import sys

report = json.loads(sys.argv[1])
baseline = {
    "source": "icomm fleet nano,tx2,xavier --devices 256 --seed 7 --json",
    "note": "deterministic virtual-time numbers; regenerate with scripts/bench_snapshot.sh",
    "devices": report["devices"],
    "seed": report["seed"],
    "latency_p50_us": report["latency_p50_us"],
    "latency_p99_us": report["latency_p99_us"],
    "throughput_rps": round(report["throughput_rps"], 1),
    "warm_start_pct": round(report["warm_start_pct"], 1),
    "transfer_hit_pct": round(report["transfer_hit_pct"], 1),
    "slo_attainment_pct": round(report["slo_attainment_pct"], 1),
    "mean_regret_pct": round(report["mean_regret_pct"], 2),
}
with open(os.path.join(os.environ["OUT"], "BENCH_fleet.json"), "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print(json.dumps(baseline, indent=2))
EOF

echo "baseline written to $OUT/BENCH_fleet.json"

echo "==> capturing BENCH_sched.json (seed 42, contended mix on tx2, both policies)"
FIFO="$(target/release/icomm sched tx2 --mix contended --policy fifo --seed 42 --json)"
DEADLINE="$(target/release/icomm sched tx2 --mix contended --policy deadline --seed 42 --json)"
python3 - "$FIFO" "$DEADLINE" <<'EOF'
import json
import os
import sys

fifo = json.loads(sys.argv[1])
deadline = json.loads(sys.argv[2])
def summarize(report):
    return {
        "deadline_miss_pct": report["deadline_miss_pct"],
        "mean_slowdown": report["mean_slowdown"],
        "makespan_us": report["makespan_us"],
        "throttles": sum(t["throttles"] for t in report["tenants"]),
    }
baseline = {
    "source": "icomm sched tx2 --mix contended --policy {fifo,deadline} --seed 42 --json",
    "note": "deterministic virtual-time numbers; regenerate with scripts/bench_snapshot.sh",
    "board": fifo["board"],
    "mix": fifo["mix"],
    "seed": fifo["seed"],
    "joint_total_us": fifo["joint_total_us"],
    "greedy_total_us": fifo["greedy_total_us"],
    "any_flip": fifo["any_flip"],
    "fifo": summarize(fifo),
    "deadline": summarize(deadline),
}
with open(os.path.join(os.environ["OUT"], "BENCH_sched.json"), "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print(json.dumps(baseline, indent=2))
EOF

echo "baseline written to $OUT/BENCH_sched.json"

echo "==> capturing BENCH_footprint.json (seed 42, pressure mix on tx2, stock vs 6 MiB cap)"
OPEN="$(target/release/icomm sched tx2 --mix pressure --seed 42 --json)"
CAPPED="$(target/release/icomm sched tx2 --mix pressure --seed 42 --mem-cap 6m --json)"
python3 - "$OPEN" "$CAPPED" <<'EOF'
import json
import os
import sys

open_report = json.loads(sys.argv[1])
capped = json.loads(sys.argv[2])
def summarize(report):
    return {
        "footprint_bytes": report["footprint_bytes"],
        "joint_total_us": report["joint_total_us"],
        "greedy_total_us": report["greedy_total_us"],
        "demotions": report["demotions"],
        "evictions": report["evictions"],
        "models": {t["name"]: t["model"] for t in report["tenants"]},
    }
baseline = {
    "source": "icomm sched tx2 --mix pressure --seed 42 [--mem-cap 6m] --json",
    "note": "deterministic virtual-time numbers; regenerate with scripts/bench_snapshot.sh",
    "board": open_report["board"],
    "mix": open_report["mix"],
    "seed": open_report["seed"],
    "mem_cap_bytes": capped["mem_cap_bytes"],
    "headroom_bytes": capped["headroom_bytes"],
    "uncapped": summarize(open_report),
    "capped": summarize(capped),
}
if capped["demotions"] == 0:
    sys.exit("the 6 MiB cap no longer binds on the pressure mix; baseline not captured")
with open(os.path.join(os.environ["OUT"], "BENCH_footprint.json"), "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print(json.dumps(baseline, indent=2))
EOF

echo "baseline written to $OUT/BENCH_footprint.json"

echo "==> capturing BENCH_mem.json (UM-vs-UPM crossover, coherent boards x page sizes)"
MI_4K="$(target/release/icomm tune mi300a-like orb --current um --pages 4k --json)"
MI_2M="$(target/release/icomm tune mi300a-like orb --current um --pages 2m --json)"
GH_4K="$(target/release/icomm tune gh-like orb --current um --pages 4k --json)"
GH_2M="$(target/release/icomm tune gh-like orb --current um --pages 2m --json)"
python3 - "$MI_4K" "$MI_2M" "$GH_4K" "$GH_2M" <<'EOF'
import json
import os
import sys

def summarize(raw):
    report = json.loads(raw)
    rec = report["recommendation"]
    speedup = rec.get("estimated_speedup")
    return {
        "recommended": rec["recommended"],
        "estimated_speedup": round(speedup["estimated"], 3) if speedup else None,
        "actual_speedup": round(report["actual_speedup"], 3),
    }

baseline = {
    "source": "icomm tune {mi300a-like,gh-like} orb --current um --pages {4k,2m} --json",
    "note": "deterministic virtual-time numbers; regenerate with scripts/bench_snapshot.sh",
    "mi300a_like": {"pages_4k": summarize(sys.argv[1]), "pages_2m": summarize(sys.argv[2])},
    "gh_like": {"pages_4k": summarize(sys.argv[3]), "pages_2m": summarize(sys.argv[4])},
}
with open(os.path.join(os.environ["OUT"], "BENCH_mem.json"), "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print(json.dumps(baseline, indent=2))
EOF

echo "baseline written to $OUT/BENCH_mem.json"

echo "==> capturing BENCH_synth.json (seed 42, all boards, full default sweep)"
SYNTH="$(target/release/icomm synth all --seed 42 --json)"
python3 - "$SYNTH" <<'EOF'
import json
import os
import sys

report = json.loads(sys.argv[1])
if report["disagreements"] != 0:
    sys.exit(f"rule set disagrees with the oracle {report['disagreements']} times; baseline not captured")
if report["uncovered"] != 0:
    sys.exit(f"{report['uncovered']} sweep samples uncovered; baseline not captured")
baseline = {
    "source": "icomm synth all --seed 42 --json",
    "note": "deterministic synthesis numbers; regenerate with scripts/bench_snapshot.sh",
    "boards": report["boards"],
    "seed": report["seed"],
    "max_size": report["max_size"],
    "samples": report["samples"],
    "rule_count": report["rule_count"],
    "uncovered": report["uncovered"],
    "disagreements": report["disagreements"],
    "scope_contexts": report["scope_contexts"],
    "sweep_bytes": report["sweep_bytes"],
    "ruleset_bytes": report["ruleset_bytes"],
    "compression": report["compression"],
    "rules": [{"pred": r["pred"], "model": r["model"], "support": r["support"]} for r in report["rules"]],
}
if baseline["compression"] < 5.0:
    sys.exit(f"compression {baseline['compression']}x under the 5x floor; baseline not captured")
with open(os.path.join(os.environ["OUT"], "BENCH_synth.json"), "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print(json.dumps(baseline, indent=2))
EOF

echo "baseline written to $OUT/BENCH_synth.json"

if [[ "$CHECK" -eq 1 ]]; then
    status=0
    for name in fleet sched footprint mem synth; do
        if cmp "$OUT/BENCH_$name.json" "BENCH_$name.json"; then
            echo "BENCH_$name.json: unchanged"
        else
            echo "BENCH_$name.json: differs from the committed capture" >&2
            diff "BENCH_$name.json" "$OUT/BENCH_$name.json" >&2 || true
            status=1
        fi
    done
    exit "$status"
fi
