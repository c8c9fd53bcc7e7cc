#!/usr/bin/env bash
# The full CI gate, runnable locally: `./scripts/ci.sh`.
#
# Mirrors .github/workflows/ci.yml exactly so a green local run means a
# green CI run. The workspace is fully vendored (see vendor/), so every
# step works offline.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (tier 1: root package)"
cargo test -q

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> chaos smoke (fixed seed matrix + replay determinism)"
# Each campaign must terminate safely (non-zero exit means a panic, a
# wedge, or a non-safe termination), and a same-seed rerun must produce
# a byte-identical report.
ICOMM=target/release/icomm
CHAOS_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP"' EXIT
for plan in noise loss corrupt hostile full; do
    "$ICOMM" chaos tx2 --plan "$plan" --seed 42 --seed 1337 --windows 4 \
        --json >"$CHAOS_TMP/$plan-a.json"
    "$ICOMM" chaos tx2 --plan "$plan" --seed 42 --seed 1337 --windows 4 \
        --json >"$CHAOS_TMP/$plan-b.json"
    cmp "$CHAOS_TMP/$plan-a.json" "$CHAOS_TMP/$plan-b.json" || {
        echo "chaos replay diverged for plan '$plan'" >&2
        exit 1
    }
    echo "    plan '$plan': survived, replay byte-identical"
done

echo "==> fleet smoke (fixed seed, replay determinism, SLO report)"
# A small fleet run must complete without panicking, replay
# byte-identically for the same seed, and emit the latency/SLO numbers
# the acceptance gate is built on.
FLEET_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP"' EXIT
"$ICOMM" fleet nano,tx2,xavier --devices 120 --seed 7 --json \
    >"$FLEET_TMP/fleet-a.json"
"$ICOMM" fleet nano,tx2,xavier --devices 120 --seed 7 --json \
    >"$FLEET_TMP/fleet-b.json"
cmp "$FLEET_TMP/fleet-a.json" "$FLEET_TMP/fleet-b.json" || {
    echo "fleet replay diverged for seed 7" >&2
    exit 1
}
grep -q '"latency_p99_us"' "$FLEET_TMP/fleet-a.json"
grep -q '"slo_attainment_pct"' "$FLEET_TMP/fleet-a.json"
echo "    fleet 120 devices: completed, replay byte-identical, SLO report emitted"

echo "==> sched smoke (fixed seed, replay determinism, deadline report)"
# The contended co-run schedule must complete under both policies,
# replay byte-identically for the same seed, and emit the deadline-miss
# metric the acceptance gate is built on.
SCHED_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP" "$SCHED_TMP"' EXIT
for policy in fifo deadline; do
    "$ICOMM" sched tx2 --mix contended --policy "$policy" --seed 42 --json \
        >"$SCHED_TMP/sched-$policy-a.json"
    "$ICOMM" sched tx2 --mix contended --policy "$policy" --seed 42 --json \
        >"$SCHED_TMP/sched-$policy-b.json"
    cmp "$SCHED_TMP/sched-$policy-a.json" "$SCHED_TMP/sched-$policy-b.json" || {
        echo "sched replay diverged for policy '$policy'" >&2
        exit 1
    }
    grep -q '"deadline_miss_pct"' "$SCHED_TMP/sched-$policy-a.json"
    echo "    policy '$policy': completed, replay byte-identical, deadline report emitted"
done

echo "==> footprint smoke (cap-driven demotion + capped fleet accounting)"
# The memory cap — and nothing else — must reshape admission: the same
# board/mix/seed runs clean uncapped and demotes under a 6 MiB cap, each
# invocation replays byte-identically, and a capped 150-device
# multi-tenant fleet must report per-device budget accounting.
FP_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP" "$SCHED_TMP" "$FP_TMP"' EXIT
"$ICOMM" sched tx2 --mix pressure --seed 42 --json >"$FP_TMP/open-a.json"
"$ICOMM" sched tx2 --mix pressure --seed 42 --json >"$FP_TMP/open-b.json"
cmp "$FP_TMP/open-a.json" "$FP_TMP/open-b.json" || {
    echo "footprint smoke: uncapped sched replay diverged" >&2
    exit 1
}
"$ICOMM" sched tx2 --mix pressure --seed 42 --mem-cap 6m --json \
    >"$FP_TMP/capped-a.json"
"$ICOMM" sched tx2 --mix pressure --seed 42 --mem-cap 6m --json \
    >"$FP_TMP/capped-b.json"
cmp "$FP_TMP/capped-a.json" "$FP_TMP/capped-b.json" || {
    echo "footprint smoke: capped sched replay diverged" >&2
    exit 1
}
grep -q '"demotions":0' "$FP_TMP/open-a.json" || {
    echo "footprint smoke: the stock budget demoted a paper-scale mix" >&2
    exit 1
}
grep -Eq '"demotions":[1-9]' "$FP_TMP/capped-a.json" || {
    echo "footprint smoke: a 6 MiB cap no longer demotes the pressure mix" >&2
    exit 1
}
"$ICOMM" fleet nano,tx2,xavier --devices 150 --seed 7 --tenants 2 \
    --mem-cap 6m --json >"$FP_TMP/fleet-capped.json"
grep -q '"mem_cap_bytes":6291456' "$FP_TMP/fleet-capped.json" || {
    echo "footprint smoke: capped fleet run lost its budget accounting" >&2
    exit 1
}
grep -q '"corun_footprint_peak_bytes":' "$FP_TMP/fleet-capped.json" || {
    echo "footprint smoke: capped fleet run reports no footprint peak" >&2
    exit 1
}
echo "    uncapped clean, 6m cap demotes, capped 150-device fleet accounted, replays byte-identical"

echo "==> mem smoke (page-size crossover + replay determinism)"
# The memory-topology lever must actually move the verdict: the same
# workload on the same coherent board keeps UM at 4K pages and switches
# to coherent UPM at 2M pages, and each invocation must replay
# byte-identically.
MEM_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP" "$SCHED_TMP" "$FP_TMP" "$MEM_TMP"' EXIT
for pages in 4k 2m; do
    "$ICOMM" tune mi300a-like orb --current um --pages "$pages" --json \
        >"$MEM_TMP/mem-$pages-a.json"
    "$ICOMM" tune mi300a-like orb --current um --pages "$pages" --json \
        >"$MEM_TMP/mem-$pages-b.json"
    cmp "$MEM_TMP/mem-$pages-a.json" "$MEM_TMP/mem-$pages-b.json" || {
        echo "mem tune replay diverged for --pages $pages" >&2
        exit 1
    }
done
grep -q '"recommended":"UnifiedMemory"' "$MEM_TMP/mem-4k-a.json" || {
    echo "mem smoke: 4K pages no longer keep UM on mi300a-like" >&2
    exit 1
}
grep -q '"recommended":"CoherentUpm"' "$MEM_TMP/mem-2m-a.json" || {
    echo "mem smoke: 2M pages no longer flip UM to UPM on mi300a-like" >&2
    exit 1
}
echo "    pages 4k -> keep UM, pages 2m -> coherent UPM, replays byte-identical"

echo "==> net smoke (both codecs round-trip, JSON/binary parity, hostile survival)"
# The servebench harness runs a JSON and a binary listener over one
# shared service: every request must round-trip on both wires, the
# decision payloads must be byte-identical across them, and all nine
# hostile probes must be refused — six binary (garbage, oversized,
# truncated, CRC-corrupt) and three line-JSON (garbage lines, an
# over-long line, a mid-line stall) — with the faults showing up in the
# serve counters.
NET_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP" "$SCHED_TMP" "$FP_TMP" "$MEM_TMP" "$NET_TMP"' EXIT
"$ICOMM" servebench --requests 60 --conns 4 --workers 2 --batch 8 \
    --hostile --json >"$NET_TMP/net.json"
grep -q '"json_failed":0,' "$NET_TMP/net.json" || {
    echo "net smoke: JSON plane dropped requests" >&2
    exit 1
}
grep -q '"binary_failed":0,' "$NET_TMP/net.json" || {
    echo "net smoke: binary plane dropped requests" >&2
    exit 1
}
grep -q '"parity_mismatches":0,' "$NET_TMP/net.json" || {
    echo "net smoke: serving planes disagree on decision payloads" >&2
    exit 1
}
grep -q '"hostile_defended":9}' "$NET_TMP/net.json" || {
    echo "net smoke: a hostile client got through" >&2
    exit 1
}
if grep -q '"frame_faults":0,' "$NET_TMP/net.json"; then
    echo "net smoke: hostile frames were not counted in the serve metrics" >&2
    exit 1
fi
echo "    both codecs clean, decisions byte-identical, 9/9 hostile probes defended"

echo "==> resilience smoke (fleet chaos: churn + poisoning + shard panics)"
# A 1000-device fleet with 10 % churn, 10 % registry poisoning, and two
# injected shard panics on the supervised binary plane must survive:
# warm start >= 95 %, zero decision-regret disagreements, zero lost
# live-fire responses, both panicked shards restarted, at least one
# poison quarantined, and a same-seed rerun byte-identical. Gate on the
# JSON fields, not stderr — injected shard panics legitimately print
# backtraces there.
RES_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP" "$SCHED_TMP" "$FP_TMP" "$MEM_TMP" "$NET_TMP" "$RES_TMP"' EXIT
RES_FAULTS="none,churn_prob=0.1,poison_prob=0.1,shard_panics=2"
for seed in 42 43; do
    "$ICOMM" fleet nano,tx2,xavier --devices 1000 --seed "$seed" \
        --wire binary --faults "$RES_FAULTS" --json \
        >"$RES_TMP/res-$seed-a.json" 2>/dev/null
    "$ICOMM" fleet nano,tx2,xavier --devices 1000 --seed "$seed" \
        --wire binary --faults "$RES_FAULTS" --json \
        >"$RES_TMP/res-$seed-b.json" 2>/dev/null
    cmp "$RES_TMP/res-$seed-a.json" "$RES_TMP/res-$seed-b.json" || {
        echo "resilience replay diverged for seed $seed" >&2
        exit 1
    }
    grep -Eq '"livefire_failed":0[,}]' "$RES_TMP/res-$seed-a.json" || {
        echo "resilience smoke: lost live-fire responses (seed $seed)" >&2
        exit 1
    }
    grep -Eq '"livefire_shard_restarts":2[,}]' "$RES_TMP/res-$seed-a.json" || {
        echo "resilience smoke: supervisor did not restart both panicked shards (seed $seed)" >&2
        exit 1
    }
    grep -Eq '"regret_disagreements":0[,}]' "$RES_TMP/res-$seed-a.json" || {
        echo "resilience smoke: poisoning induced decision regret (seed $seed)" >&2
        exit 1
    }
    if grep -Eq '"quarantined_sources":0[,}]' "$RES_TMP/res-$seed-a.json"; then
        echo "resilience smoke: no poisoned sources quarantined (seed $seed)" >&2
        exit 1
    fi
    warm="$(grep -o '"warm_start_pct":[0-9.]*' "$RES_TMP/res-$seed-a.json" | cut -d: -f2)"
    awk -v w="$warm" 'BEGIN { exit !(w >= 95.0) }' || {
        echo "resilience smoke: warm start $warm% < 95% under chaos (seed $seed)" >&2
        exit 1
    }
    echo "    seed $seed: warm $warm%, 0 regret, 0 lost, 2 restarts, poisons quarantined, replay byte-identical"
done

echo "==> synth smoke (rule synthesis: oracle agreement + replay determinism)"
# Rule synthesis on two boards x two seeds must learn a non-empty rule
# set that reproduces the brute-force oracle exactly (0 disagreements,
# 0 uncovered samples), and a same-config rerun must replay
# byte-identically. A restricted mix list keeps each run to seconds;
# the full six-board sweep is gated by tests/synthesis.rs.
SYNTH_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP" "$SCHED_TMP" "$FP_TMP" "$MEM_TMP" "$NET_TMP" "$RES_TMP" "$SYNTH_TMP"' EXIT
SYNTH_MIXES="--mix solo:shwfs --mix duo --mix contended"
for board in tx2 nano; do
    for seed in 42 43; do
        # shellcheck disable=SC2086
        "$ICOMM" synth "$board" $SYNTH_MIXES --seed "$seed" --json \
            >"$SYNTH_TMP/synth-$board-$seed-a.json"
        # shellcheck disable=SC2086
        "$ICOMM" synth "$board" $SYNTH_MIXES --seed "$seed" --json \
            >"$SYNTH_TMP/synth-$board-$seed-b.json"
        cmp "$SYNTH_TMP/synth-$board-$seed-a.json" "$SYNTH_TMP/synth-$board-$seed-b.json" || {
            echo "synth replay diverged for $board seed $seed" >&2
            exit 1
        }
        grep -Eq '"rule_count":[1-9]' "$SYNTH_TMP/synth-$board-$seed-a.json" || {
            echo "synth smoke: empty rule set on $board (seed $seed)" >&2
            exit 1
        }
        grep -Eq '"uncovered":0[,}]' "$SYNTH_TMP/synth-$board-$seed-a.json" || {
            echo "synth smoke: uncovered sweep samples on $board (seed $seed)" >&2
            exit 1
        }
        grep -Eq '"disagreements":0[,}]' "$SYNTH_TMP/synth-$board-$seed-a.json" || {
            echo "synth smoke: rules disagree with the oracle on $board (seed $seed)" >&2
            exit 1
        }
        echo "    $board seed $seed: rules learned, 0 disagreements, 0 uncovered, replay byte-identical"
    done
done

echo "==> simulator pins (snapshots, benchmark self-check, held-out onboard digest)"
# The chaos/fleet/sched/synth stages above compare two runs of this
# commit. These pin the simulator to committed outputs instead: the
# deterministic BENCH_*.json captures must regenerate byte for byte, the
# benchmark's generator checks must pass, and an onboard run on the
# held-out seed must reproduce the decision and statistics digests in
# the benchmark's expected.json.
PIN_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP" "$FLEET_TMP" "$SCHED_TMP" "$FP_TMP" "$MEM_TMP" "$NET_TMP" "$RES_TMP" "$SYNTH_TMP" "$PIN_TMP"' EXIT
./scripts/bench_snapshot.sh --check
bash crates/bench/examples/icomm_benchmark/bench.sh --selfcheck
bash crates/bench/examples/icomm_benchmark/bench.sh --workload onboard --seed 1042 \
    >"$PIN_TMP/onboard.txt"
tail -n 1 "$PIN_TMP/onboard.txt" | grep -q '"correct": true' || {
    echo "simulator pins: onboard seed 1042 no longer matches its digests" >&2
    exit 1
}
echo "    snapshots byte-identical, self-check passed, onboard seed 1042 correct"

echo "CI gate passed."
