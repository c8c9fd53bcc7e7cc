#!/usr/bin/env bash
# The CI gate, runnable locally: `./scripts/ci.sh [STAGE...]`.
#
# Each gate is one stage function below, written once: every job of
# .github/workflows/ci.yml calls this script with its own stages, so a
# green local run means a green CI run. With no argument every stage runs,
# in the order listed in STAGES. The smoke stages (chaos onwards, except
# pins) drive target/release/icomm, so run them after `build`:
#
#     ./scripts/ci.sh build chaos fleet sched
#
# The workspace is fully vendored (see vendor/), so every stage works
# offline.
set -euo pipefail

cd "$(dirname "$0")/.."

STAGES=(fmt clippy doc build test chaos fleet sched footprint mem net resilience synth pins)
ICOMM=target/release/icomm
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

stage_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

stage_clippy() {
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_doc() {
    echo "==> cargo doc --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

stage_build() {
    echo "==> cargo build --release"
    cargo build --release --workspace
}

stage_test() {
    echo "==> cargo test (tier 1: root package)"
    cargo test -q

    echo "==> cargo test (workspace)"
    cargo test -q --workspace
}

stage_chaos() {
    echo "==> chaos smoke (fixed seed matrix + replay determinism)"
    # Each campaign must terminate safely (non-zero exit means a panic, a
    # wedge, or a non-safe termination), and a same-seed rerun must
    # produce a byte-identical report.
    local dir="$TMP/chaos"
    mkdir -p "$dir"
    for plan in noise loss corrupt hostile full; do
        "$ICOMM" chaos tx2 --plan "$plan" --seed 42 --seed 1337 --windows 4 \
            --json >"$dir/$plan-a.json"
        "$ICOMM" chaos tx2 --plan "$plan" --seed 42 --seed 1337 --windows 4 \
            --json >"$dir/$plan-b.json"
        cmp "$dir/$plan-a.json" "$dir/$plan-b.json" || {
            echo "chaos replay diverged for plan '$plan'" >&2
            exit 1
        }
        echo "    plan '$plan': survived, replay byte-identical"
    done
}

stage_fleet() {
    echo "==> fleet smoke (fixed seed, replay determinism, SLO report)"
    # A small fleet run must complete without panicking, replay
    # byte-identically for the same seed, and emit the latency/SLO
    # numbers the acceptance gate is built on.
    local dir="$TMP/fleet"
    mkdir -p "$dir"
    "$ICOMM" fleet nano,tx2,xavier --devices 120 --seed 7 --json \
        >"$dir/fleet-a.json"
    "$ICOMM" fleet nano,tx2,xavier --devices 120 --seed 7 --json \
        >"$dir/fleet-b.json"
    cmp "$dir/fleet-a.json" "$dir/fleet-b.json" || {
        echo "fleet replay diverged for seed 7" >&2
        exit 1
    }
    grep -q '"latency_p99_us"' "$dir/fleet-a.json"
    grep -q '"slo_attainment_pct"' "$dir/fleet-a.json"
    echo "    fleet 120 devices: completed, replay byte-identical, SLO report emitted"
}

stage_sched() {
    echo "==> sched smoke (fixed seed, replay determinism, deadline report)"
    # The contended co-run schedule must complete under both policies,
    # replay byte-identically for the same seed, and emit the
    # deadline-miss metric the acceptance gate is built on.
    local dir="$TMP/sched"
    mkdir -p "$dir"
    for policy in fifo deadline; do
        "$ICOMM" sched tx2 --mix contended --policy "$policy" --seed 42 --json \
            >"$dir/sched-$policy-a.json"
        "$ICOMM" sched tx2 --mix contended --policy "$policy" --seed 42 --json \
            >"$dir/sched-$policy-b.json"
        cmp "$dir/sched-$policy-a.json" "$dir/sched-$policy-b.json" || {
            echo "sched replay diverged for policy '$policy'" >&2
            exit 1
        }
        grep -q '"deadline_miss_pct"' "$dir/sched-$policy-a.json"
        echo "    policy '$policy': completed, replay byte-identical, deadline report emitted"
    done
}

stage_footprint() {
    echo "==> footprint smoke (cap-driven demotion + capped fleet accounting)"
    # The memory cap — and nothing else — must reshape admission: the
    # same board/mix/seed runs clean uncapped and demotes under a 6 MiB
    # cap, each invocation replays byte-identically, and a capped
    # 150-device multi-tenant fleet must report per-device budget
    # accounting.
    local dir="$TMP/footprint"
    mkdir -p "$dir"
    "$ICOMM" sched tx2 --mix pressure --seed 42 --json >"$dir/open-a.json"
    "$ICOMM" sched tx2 --mix pressure --seed 42 --json >"$dir/open-b.json"
    cmp "$dir/open-a.json" "$dir/open-b.json" || {
        echo "footprint smoke: uncapped sched replay diverged" >&2
        exit 1
    }
    "$ICOMM" sched tx2 --mix pressure --seed 42 --mem-cap 6m --json \
        >"$dir/capped-a.json"
    "$ICOMM" sched tx2 --mix pressure --seed 42 --mem-cap 6m --json \
        >"$dir/capped-b.json"
    cmp "$dir/capped-a.json" "$dir/capped-b.json" || {
        echo "footprint smoke: capped sched replay diverged" >&2
        exit 1
    }
    grep -q '"demotions":0' "$dir/open-a.json" || {
        echo "footprint smoke: the stock budget demoted a paper-scale mix" >&2
        exit 1
    }
    grep -Eq '"demotions":[1-9]' "$dir/capped-a.json" || {
        echo "footprint smoke: a 6 MiB cap no longer demotes the pressure mix" >&2
        exit 1
    }
    "$ICOMM" fleet nano,tx2,xavier --devices 150 --seed 7 --tenants 2 \
        --mem-cap 6m --json >"$dir/fleet-capped.json"
    grep -q '"mem_cap_bytes":6291456' "$dir/fleet-capped.json" || {
        echo "footprint smoke: capped fleet run lost its budget accounting" >&2
        exit 1
    }
    grep -q '"corun_footprint_peak_bytes":' "$dir/fleet-capped.json" || {
        echo "footprint smoke: capped fleet run reports no footprint peak" >&2
        exit 1
    }
    echo "    uncapped clean, 6m cap demotes, capped 150-device fleet accounted, replays byte-identical"
}

stage_mem() {
    echo "==> mem smoke (page-size crossover + replay determinism)"
    # The memory-topology lever must actually move the verdict: the same
    # workload on the same coherent board keeps UM at 4K pages and
    # switches to coherent UPM at 2M pages, and each invocation must
    # replay byte-identically.
    local dir="$TMP/mem"
    mkdir -p "$dir"
    for pages in 4k 2m; do
        "$ICOMM" tune mi300a-like orb --current um --pages "$pages" --json \
            >"$dir/mem-$pages-a.json"
        "$ICOMM" tune mi300a-like orb --current um --pages "$pages" --json \
            >"$dir/mem-$pages-b.json"
        cmp "$dir/mem-$pages-a.json" "$dir/mem-$pages-b.json" || {
            echo "mem tune replay diverged for --pages $pages" >&2
            exit 1
        }
    done
    grep -q '"recommended":"UnifiedMemory"' "$dir/mem-4k-a.json" || {
        echo "mem smoke: 4K pages no longer keep UM on mi300a-like" >&2
        exit 1
    }
    grep -q '"recommended":"CoherentUpm"' "$dir/mem-2m-a.json" || {
        echo "mem smoke: 2M pages no longer flip UM to UPM on mi300a-like" >&2
        exit 1
    }
    echo "    pages 4k -> keep UM, pages 2m -> coherent UPM, replays byte-identical"
}

stage_net() {
    echo "==> net smoke (both codecs round-trip, JSON/binary parity, hostile survival)"
    # The servebench harness runs a JSON and a binary listener over one
    # shared service: every request must round-trip on both wires, the
    # decision payloads must be byte-identical across them, and all nine
    # hostile probes must be refused — six binary (garbage, oversized,
    # truncated, CRC-corrupt) and three line-JSON (garbage lines, an
    # over-long line, a mid-line stall) — with the faults showing up in
    # the serve counters.
    local dir="$TMP/net"
    mkdir -p "$dir"
    "$ICOMM" servebench --requests 60 --conns 4 --workers 2 --batch 8 \
        --hostile --json >"$dir/net.json"
    grep -q '"json_failed":0,' "$dir/net.json" || {
        echo "net smoke: JSON plane dropped requests" >&2
        exit 1
    }
    grep -q '"binary_failed":0,' "$dir/net.json" || {
        echo "net smoke: binary plane dropped requests" >&2
        exit 1
    }
    grep -q '"parity_mismatches":0,' "$dir/net.json" || {
        echo "net smoke: serving planes disagree on decision payloads" >&2
        exit 1
    }
    grep -q '"hostile_defended":9}' "$dir/net.json" || {
        echo "net smoke: a hostile client got through" >&2
        exit 1
    }
    if grep -q '"frame_faults":0,' "$dir/net.json"; then
        echo "net smoke: hostile frames were not counted in the serve metrics" >&2
        exit 1
    fi
    echo "    both codecs clean, decisions byte-identical, 9/9 hostile probes defended"
}

stage_resilience() {
    echo "==> resilience smoke (fleet chaos: churn + poisoning + shard panics)"
    # A 1000-device fleet with 10 % churn, 10 % registry poisoning, and
    # two injected shard panics on the supervised binary plane must
    # survive: warm start >= 95 %, zero decision-regret disagreements,
    # zero lost live-fire responses, both panicked shards restarted, at
    # least one poison quarantined, and a same-seed rerun byte-identical.
    # Gate on the JSON fields, not stderr — injected shard panics
    # legitimately print backtraces there.
    local dir="$TMP/resilience"
    mkdir -p "$dir"
    local faults="none,churn_prob=0.1,poison_prob=0.1,shard_panics=2"
    for seed in 42 43; do
        "$ICOMM" fleet nano,tx2,xavier --devices 1000 --seed "$seed" \
            --wire binary --faults "$faults" --json \
            >"$dir/res-$seed-a.json" 2>/dev/null
        "$ICOMM" fleet nano,tx2,xavier --devices 1000 --seed "$seed" \
            --wire binary --faults "$faults" --json \
            >"$dir/res-$seed-b.json" 2>/dev/null
        cmp "$dir/res-$seed-a.json" "$dir/res-$seed-b.json" || {
            echo "resilience replay diverged for seed $seed" >&2
            exit 1
        }
        grep -Eq '"livefire_failed":0[,}]' "$dir/res-$seed-a.json" || {
            echo "resilience smoke: lost live-fire responses (seed $seed)" >&2
            exit 1
        }
        grep -Eq '"livefire_shard_restarts":2[,}]' "$dir/res-$seed-a.json" || {
            echo "resilience smoke: supervisor did not restart both panicked shards (seed $seed)" >&2
            exit 1
        }
        grep -Eq '"regret_disagreements":0[,}]' "$dir/res-$seed-a.json" || {
            echo "resilience smoke: poisoning induced decision regret (seed $seed)" >&2
            exit 1
        }
        if grep -Eq '"quarantined_sources":0[,}]' "$dir/res-$seed-a.json"; then
            echo "resilience smoke: no poisoned sources quarantined (seed $seed)" >&2
            exit 1
        fi
        local warm
        warm="$(grep -o '"warm_start_pct":[0-9.]*' "$dir/res-$seed-a.json" | cut -d: -f2)"
        awk -v w="$warm" 'BEGIN { exit !(w >= 95.0) }' || {
            echo "resilience smoke: warm start $warm% < 95% under chaos (seed $seed)" >&2
            exit 1
        }
        echo "    seed $seed: warm $warm%, 0 regret, 0 lost, 2 restarts, poisons quarantined, replay byte-identical"
    done
}

stage_synth() {
    echo "==> synth smoke (rule synthesis: oracle agreement + replay determinism)"
    # Rule synthesis on two boards x two seeds must learn a non-empty
    # rule set that reproduces the brute-force oracle exactly (0
    # disagreements, 0 uncovered samples), and a same-config rerun must
    # replay byte-identically. A restricted mix list keeps each run to
    # seconds; the full six-board sweep is gated by tests/synthesis.rs.
    local dir="$TMP/synth"
    mkdir -p "$dir"
    local mixes=(--mix solo:shwfs --mix duo --mix contended)
    for board in tx2 nano; do
        for seed in 42 43; do
            "$ICOMM" synth "$board" "${mixes[@]}" --seed "$seed" --json \
                >"$dir/synth-$board-$seed-a.json"
            "$ICOMM" synth "$board" "${mixes[@]}" --seed "$seed" --json \
                >"$dir/synth-$board-$seed-b.json"
            cmp "$dir/synth-$board-$seed-a.json" "$dir/synth-$board-$seed-b.json" || {
                echo "synth replay diverged for $board seed $seed" >&2
                exit 1
            }
            grep -Eq '"rule_count":[1-9]' "$dir/synth-$board-$seed-a.json" || {
                echo "synth smoke: empty rule set on $board (seed $seed)" >&2
                exit 1
            }
            grep -Eq '"uncovered":0[,}]' "$dir/synth-$board-$seed-a.json" || {
                echo "synth smoke: uncovered sweep samples on $board (seed $seed)" >&2
                exit 1
            }
            grep -Eq '"disagreements":0[,}]' "$dir/synth-$board-$seed-a.json" || {
                echo "synth smoke: rules disagree with the oracle on $board (seed $seed)" >&2
                exit 1
            }
            echo "    $board seed $seed: rules learned, 0 disagreements, 0 uncovered, replay byte-identical"
        done
    done
}

stage_pins() {
    echo "==> simulator pins (snapshots, benchmark self-check, held-out onboard digest)"
    # The smoke stages above compare two runs of this commit. These pin
    # the simulator to committed outputs instead: the deterministic
    # BENCH_*.json captures must regenerate byte for byte, the
    # benchmark's generator checks must pass, and an onboard run on the
    # held-out seed must reproduce the decision and statistics digests
    # in the benchmark's expected.json.
    ./scripts/bench_snapshot.sh --check
    bash crates/bench/examples/icomm_benchmark/bench.sh --selfcheck
    bash crates/bench/examples/icomm_benchmark/bench.sh --workload onboard --seed 1042 \
        >"$TMP/onboard.txt"
    tail -n 1 "$TMP/onboard.txt" | grep -q '"correct": true' || {
        echo "simulator pins: onboard seed 1042 no longer matches its digests" >&2
        exit 1
    }
    echo "    snapshots byte-identical, self-check passed, onboard seed 1042 correct"
}

if [[ $# -eq 0 ]]; then
    set -- "${STAGES[@]}"
fi
for stage in "$@"; do
    if [[ " ${STAGES[*]} " != *" $stage "* ]]; then
        echo "unknown stage '$stage' (stages: ${STAGES[*]})" >&2
        exit 2
    fi
done
for stage in "$@"; do
    "stage_$stage"
done
echo "CI stages passed: $*"
