#!/usr/bin/env bash
# Benchmark driver.
#
#   scripts/bench.sh              full run: the vector-compare criterion
#                                 group, then one mdts-metrics/v1 document
#                                 per experiment under target/bench/:
#                                 exp17.json, exp18.json, bench_compare.json,
#                                 exp20.json, exp21.json
#   scripts/bench.sh --telemetry  the same, plus exp17's window stream in
#                                 target/bench/exp17_timeseries.jsonl
#                                 (validated before the script exits)
#   scripts/bench.sh --smoke      CI-sized: exp17's read-heavy MV telemetry
#                                 lane under the strict stall gate with its
#                                 document and window stream checked, the
#                                 stall fixtures, bench_compare --json (its
#                                 single_wide_k lane), the durability lanes
#                                 (exp20, exp21), exp18 --json,
#                                 exp22_costmodel --smoke, and two
#                                 host-independent exp22 count gates — one
#                                 client on transfer_uniform_1t:
#                                 counts.aborts and counts.restarts are 0;
#                                 two clients on a traced
#                                 transfer_uniform_2t: admission.parked_frac
#                                 and admission.batches_per_txn are 0, and
#                                 storage.mv_max_chain is 1 (no snapshot
#                                 live, so every chain is pruned to its
#                                 newest version); then every example
#                                 under examples/ runs to completion
#                                 (banking asserts conservation under
#                                 every protocol). Only temp files are
#                                 written.
#
# Run from the repo root (or anywhere — the script cd's home first).
set -euo pipefail
cd "$(dirname "$0")/.."

SCHEMA='mdts-metrics/v1'
OUT_DIR=target/bench
OUT_TS=$OUT_DIR/exp17_timeseries.jsonl

if [[ "${1:-}" == "--smoke" ]]; then
    echo "== bench smoke: exp17 --json --telemetry --telemetry-strict (read-heavy MV lane, strict stall gate) =="
    ts_file=$(mktemp /tmp/mdts_timeseries.XXXXXX.jsonl)
    dir22=$(mktemp -d /tmp/mdts_exp22.XXXXXX)
    trap 'rm -rf "$ts_file" "$dir22"' EXIT
    doc17=$(cargo run --release -q -p mdts-bench --bin exp17_throughput -- \
        --json --telemetry "$ts_file" --telemetry-strict)
    if [[ "$doc17" != *"\"schema\":\"$SCHEMA\""* || "$doc17" != *'"experiment":"exp17"'* ]]; then
        echo "bench smoke: exp17 document is missing the $SCHEMA stamp or its experiment" >&2
        exit 1
    fi
    if [[ "$doc17" != *'"contention":"read-heavy telemetry (sampled)"'* ]]; then
        echo "bench smoke: exp17 document is missing the telemetry lane" >&2
        exit 1
    fi
    echo "== bench smoke: timeseries_check (schema + recomposition) =="
    cargo run --release -q -p mdts-bench --bin timeseries_check -- "$ts_file"
    echo "== bench smoke: stall-detector regression fixtures =="
    cargo run --release -q -p mdts-bench --bin timeseries_check -- --stall-fixture
    echo "== bench smoke: bench_compare --json (wide-k scalar single-compare lane) =="
    doc_simd=$(cargo bench -q -p mdts-bench --bench bench_compare -- --json)
    if [[ "$doc_simd" != *"\"schema\":\"$SCHEMA\""* ]]; then
        echo "bench smoke: bench_compare document is missing the $SCHEMA stamp" >&2
        exit 1
    fi
    if [[ "$doc_simd" != *'"lane":"single_wide_k"'* ]]; then
        echo "bench smoke: bench_compare document is missing the single_wide_k lane" >&2
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
    echo "== bench smoke: examples run to completion =="
    for example in examples/*.rs; do
        example=$(basename "$example" .rs)
        echo "-- $example"
        cargo run --release -q --example "$example" > /dev/null
    done
    echo "== bench smoke: criterion targets compile =="
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

echo "== criterion: vector compare (Figs. 6-7 + small-k representation sweep) =="
cargo bench -p mdts-bench --bench bench_compare

echo "== exp17 (engine protocols + read-heavy MV telemetry lane) =="
write_doc exp17 cargo run --release -q -p mdts-bench --bin exp17_throughput -- --json "${TELEMETRY_ARGS[@]}"
if [[ ${#TELEMETRY_ARGS[@]} -gt 0 ]]; then
    cargo run --release -q -p mdts-bench --bin timeseries_check -- "$OUT_TS"
    echo "bench: wrote $OUT_TS"
fi

echo "== exp18 (MV acceptance grid) =="
write_doc exp18 cargo run --release -q -p mdts-bench --bin exp18_multiversion -- --json

echo "== bench_compare (wide-k scalar lane) =="
write_doc bench_compare cargo bench -q -p mdts-bench --bench bench_compare -- --json

echo "== exp20 (crash-recovery matrix + auditor certification) =="
write_doc exp20 cargo run --release -q -p mdts-bench --bin exp20_recovery -- --json

echo "== exp21 (certified restart + truncation) =="
write_doc exp21 cargo run --release -q -p mdts-bench --bin exp21_replay -- --json
