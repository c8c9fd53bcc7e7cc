#!/usr/bin/env bash
# Runs every workload K times in rotating order, one seed per round, and
# summarizes each metric per workload (median, quartiles, spread).
#
#   bash crates/bench/examples/icomm_benchmark/run.sh [K] [OUT_DIR] [FIRST_SEED] [TRACE]
#       K           runs per workload (default 5)
#       OUT_DIR     where each run's log and JSON result go
#                   (default $CARGO_TARGET_DIR/icomm_benchmark_runs/<time>)
#       FIRST_SEED  round r uses seed FIRST_SEED + r (default 42)
#       TRACE       0 for end-to-end metrics, 1 for the per-layer ledger
#
#   bash crates/bench/examples/icomm_benchmark/run.sh compare DIR_A DIR_B
#       compares two sets of runs: for each workload and end-to-end
#       metric, the change of DIR_B's median against DIR_A's, next to the
#       metric's bound in BENCHMARK.json.
#
# Spread is the interquartile range over the median, as the bounds in
# BENCHMARK.json are: a metric's spread must stay under its bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
export CARGO_TARGET_DIR="$target"

summarize() {
    python3 - "$root/BENCHMARK.json" "$@" <<'EOF'
import json, pathlib, statistics, sys

manifest = json.load(open(sys.argv[1]))
bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}

def load(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload = path.stem.rsplit("-", 1)[0]
        try:
            result = json.loads(path.read_text())
        except ValueError:
            print(f"  {path.name}: no result line")
            continue
        if not result["correct"] or result["failed"]:
            print(f"  {path.name}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return runs

def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3

if len(sys.argv) == 3:
    for workload, metrics in sorted(load(sys.argv[2]).items()):
        print(f"{workload}:")
        for name, values in metrics.items():
            med, q1, q3 = stats(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + ("  SPREAD > BOUND/3" if spread > bound / 3 else "")
            print(f"  {name:<34} n={len(values):<3} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:7.2%}{flag}")
else:
    a, b = load(sys.argv[2]), load(sys.argv[3])
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    for workload in sorted(a):
        print(f"{workload}:")
        for name, values in a[workload].items():
            if name not in b.get(workload, {}):
                continue
            ma, mb = stats(values)[0], stats(b[workload][name])[0]
            worse = (mb - ma) / ma if better.get(name) == "lower" else (ma - mb) / ma
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if worse <= bound else "WORSE THAN BOUND")
            print(f"  {name:<34} A {ma:<14.6g} B {mb:<14.6g} worse by {worse:+7.2%}  bound {bound}  {verdict}")
EOF
}

if [[ "${1:-}" == "compare" ]]; then
    summarize "$2" "$3"
    exit 0
fi

runs="${1:-5}"
out="${2:-$target/icomm_benchmark_runs/$(date +%Y%m%d-%H%M%S)}"
first_seed="${3:-42}"
trace="${4:-0}"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p icomm-cli
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

workloads=(onboard plan serve-json serve-binary)
for ((r = 0; r < runs; r++)); do
    seed=$((first_seed + r))
    for ((j = 0; j < ${#workloads[@]}; j++)); do
        w="${workloads[$(((r + j) % ${#workloads[@]}))]}"
        log="$out/$w-$r.log"
        echo "round $r seed $seed: $w" >&2
        if "$target/release/icomm_benchmark" --icomm "$target/release/icomm" \
            --workload "$w" --seed "$seed" --trace "$trace" >"$log" 2>"$log.err"; then
            tail -n 1 "$log" >"$out/$w-$r.json"
        else
            echo "  run failed, see $log.err" >&2
            tail -n 1 "$log" >"$out/$w-$r.json" || true
        fi
    done
done
echo "runs in $out" >&2
summarize "$out"
