#!/usr/bin/env bash
# Benchmark driver.
#
#   scripts/bench.sh              full run: the criterion groups
#                                 (engine_scaling, vector compare), then one
#                                 mdts-metrics/v1 document per experiment
#                                 under target/bench/: exp19.json,
#                                 exp18.json, bench_compare.json,
#                                 exp19_durable.json, exp20.json, exp21.json
#   scripts/bench.sh --telemetry  the same, plus exp19's window stream in
#                                 target/bench/exp19_timeseries.jsonl
#                                 (validated before the script exits)
#   scripts/bench.sh --smoke      CI-sized: every experiment's quick lane
#                                 with its document checked for schema and
#                                 lanes (exp19 also under --nocache, where
#                                 every compare walks the vectors), the
#                                 durability lanes (exp19
#                                 --durable, exp20, exp21), the telemetry
#                                 stream and stall fixtures, exp22_costmodel
#                                 --smoke, and two host-independent exp22
#                                 count gates — one client on
#                                 transfer_uniform_1t: counts.aborts and
#                                 counts.restarts are 0; two clients on a
#                                 traced transfer_uniform_2t:
#                                 admission.parked_frac and
#                                 admission.batches_per_txn are 0, and
#                                 storage.mv_max_chain is 1 (no snapshot
#                                 live, so every chain is pruned to its
#                                 newest version). Only temp files are
#                                 written.
#
# Run from the repo root (or anywhere — the script cd's home first).
set -euo pipefail
cd "$(dirname "$0")/.."

SCHEMA='mdts-metrics/v1'
OUT_DIR=target/bench
OUT_TS=$OUT_DIR/exp19_timeseries.jsonl

if [[ "${1:-}" == "--smoke" ]]; then
    echo "== bench smoke: exp19 --quick --json (scaling + read-heavy MV lane) =="
    doc=$(cargo run --release -q -p mdts-bench --bin exp19_scaling -- --quick --json)
    if [[ "$doc" != *"\"schema\":\"$SCHEMA\""* ]]; then
        echo "bench smoke: document is missing the $SCHEMA stamp" >&2
        exit 1
    fi
    if [[ "$doc" != *'"experiment":"exp19"'* ]]; then
        echo "bench smoke: document is not an exp19 run" >&2
        exit 1
    fi
    if [[ "$doc" != *'"sweep":"read-heavy'* ]]; then
        echo "bench smoke: exp19 document is missing the read-heavy sweep" >&2
        exit 1
    fi
    # The MV lane must be present; exp19 itself asserts the lane served
    # snapshot transactions (snapshot_txns > 0) before emitting the run.
    if [[ "$doc" != *'"protocol":"MV-MT(k)"'* ]]; then
        echo "bench smoke: read-heavy sweep is missing the MV snapshot lane" >&2
        exit 1
    fi
    echo "== bench smoke: exp19 --quick --json --nocache (every compare walks the vectors) =="
    doc_nc=$(cargo run --release -q -p mdts-bench --bin exp19_scaling -- --quick --json --nocache)
    if [[ "$doc_nc" != *'"order_cache":"off"'* ]]; then
        echo "bench smoke: --nocache document is missing the cache-off label" >&2
        exit 1
    fi
    echo "== bench smoke: bench_compare --json (SIMD single + one-vs-many lanes) =="
    doc_simd=$(cargo bench -q -p mdts-bench --bench bench_compare -- --json)
    if [[ "$doc_simd" != *"\"schema\":\"$SCHEMA\""* ]]; then
        echo "bench smoke: bench_compare document is missing the $SCHEMA stamp" >&2
        exit 1
    fi
    if [[ "$doc_simd" != *'"lane":"single_wide_k"'* || "$doc_simd" != *'"lane":"one_vs_many"'* ]]; then
        echo "bench smoke: bench_compare document is missing a SIMD lane" >&2
        exit 1
    fi
    echo "== bench smoke: exp19 --quick --durable (group-commit WAL lane + cold recovery) =="
    doc_dur=$(cargo run --release -q -p mdts-bench --bin exp19_scaling -- --quick --durable --json)
    if [[ "$doc_dur" != *'"sweep":"durable group commit'* ]]; then
        echo "bench smoke: --durable document is missing the group-commit sweep" >&2
        exit 1
    fi
    echo "== bench smoke: exp20 --smoke (crash matrix: injection sites + SIGKILL + auditor) =="
    cargo run --release -q -p mdts-bench --bin exp20_recovery -- --smoke
    echo "== bench smoke: exp21 --smoke (certified restart + truncation) =="
    cargo run --release -q -p mdts-bench --bin exp21_replay -- --smoke
    echo "== bench smoke: exp18 --json =="
    doc18=$(cargo run --release -q -p mdts-bench --bin exp18_multiversion -- --json)
    if [[ "$doc18" != *'"experiment":"exp18"'* || "$doc18" != *'"protocol":"MV-MT(2q-1)"'* ]]; then
        echo "bench smoke: exp18 --json document is malformed" >&2
        exit 1
    fi
    echo "== bench smoke: exp19 --telemetry (windowed sampler, strict stall gate) =="
    ts_file=$(mktemp /tmp/mdts_timeseries.XXXXXX.jsonl)
    dir22=$(mktemp -d /tmp/mdts_exp22.XXXXXX)
    trap 'rm -rf "$ts_file" "$dir22"' EXIT
    cargo run --release -q -p mdts-bench --bin exp19_scaling -- \
        --quick --telemetry "$ts_file" --telemetry-strict > /dev/null
    echo "== bench smoke: timeseries_check (schema + recomposition) =="
    cargo run --release -q -p mdts-bench --bin timeseries_check -- "$ts_file"
    echo "== bench smoke: stall-detector regression fixtures =="
    cargo run --release -q -p mdts-bench --bin timeseries_check -- --stall-fixture
    echo "== bench smoke: exp22_costmodel --smoke (the repo's benchmark: every workload, every check) =="
    cargo run --release -q -p mdts-bench --bin exp22_costmodel -- --smoke
    echo "== bench smoke: exp22 count gate (one client: no abort, no restart) =="
    doc22="$dir22/doc.json"
    cargo run --release -q -p mdts-bench --bin exp22_costmodel -- \
        --workload transfer_uniform_1t --seconds 1 --trace 0 --out "$doc22" > /dev/null
    if ! grep -qE '"counts":\{"commits":[1-9][0-9]*,"aborts":0,"restarts":0,' "$doc22"; then
        echo "bench smoke: transfer_uniform_1t aborted or restarted at zero concurrency:" >&2
        grep -oE '"counts":\{"commits":[0-9]+,"aborts":[0-9]+,"restarts":[0-9]+' "$doc22" >&2 || true
        exit 1
    fi
    echo "== bench smoke: exp22 count gate (two clients: nobody parks, every chain one version) =="
    line22=$(cargo run --release -q -p mdts-bench --bin exp22_costmodel -- \
        --workload transfer_uniform_2t --seconds 1 --trace 1 | tail -n 1)
    for gate in admission.parked_frac=0 admission.batches_per_txn=0 storage.mv_max_chain=1; do
        metric=${gate%=*} want=${gate#*=}
        if [[ "$line22" != *"\"$metric\":{\"value\":$want,"* ]]; then
            echo "bench smoke: transfer_uniform_2t reports $metric other than $want:" >&2
            grep -oE "\"$metric\":\{[^}]*\}" <<<"$line22" >&2 || true
            exit 1
        fi
    done
    echo "== bench smoke: criterion targets compile =="
    cargo bench -p mdts-bench --bench bench_scaling --no-run
    cargo bench -p mdts-bench --bench bench_compare --no-run
    echo "bench smoke: OK"
    exit 0
fi

mkdir -p "$OUT_DIR"

# write_doc <experiment> <command...>: the command's stdout is the
# experiment's mdts-metrics/v1 document.
write_doc() {
    local out="$OUT_DIR/$1.json"
    shift
    "$@" > "$out"
    grep -q "$SCHEMA" "$out"
    echo "bench: wrote $out"
}

TELEMETRY_ARGS=()
if [[ "${1:-}" == "--telemetry" ]]; then
    TELEMETRY_ARGS=(--telemetry "$OUT_TS")
fi

echo "== criterion: engine_scaling (sharded / sharded-nocache / serialized) =="
cargo bench -p mdts-bench --bench bench_scaling

echo "== criterion: vector compare (Figs. 6-7 + small-k representation sweep) =="
cargo bench -p mdts-bench --bench bench_compare

echo "== exp19 (full sweep incl. read-heavy MV lane) =="
write_doc exp19 cargo run --release -q -p mdts-bench --bin exp19_scaling -- --json "${TELEMETRY_ARGS[@]}"
if [[ ${#TELEMETRY_ARGS[@]} -gt 0 ]]; then
    cargo run --release -q -p mdts-bench --bin timeseries_check -- "$OUT_TS"
    echo "bench: wrote $OUT_TS"
fi

echo "== exp18 (MV acceptance grid) =="
write_doc exp18 cargo run --release -q -p mdts-bench --bin exp18_multiversion -- --json

echo "== bench_compare (SIMD acceptance lanes) =="
write_doc bench_compare cargo bench -q -p mdts-bench --bench bench_compare -- --json

echo "== exp19 --durable (group-commit WAL lane + oversubscribed acceptance) =="
write_doc exp19_durable cargo run --release -q -p mdts-bench --bin exp19_scaling -- --durable --json

echo "== exp20 (crash-recovery matrix + auditor certification) =="
write_doc exp20 cargo run --release -q -p mdts-bench --bin exp20_recovery -- --json

echo "== exp21 (certified restart + truncation) =="
write_doc exp21 cargo run --release -q -p mdts-bench --bin exp21_replay -- --json
