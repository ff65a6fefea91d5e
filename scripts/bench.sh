#!/usr/bin/env bash
# Benchmark driver for the engine-scaling experiment.
#
#   scripts/bench.sh           full run: the criterion engine_scaling group
#                              (sharded vs serialized vs cache-off) and the
#                              vector-compare groups (Figs. 6–7 plus the
#                              small-k inline/spilled/boxed sweep), then the
#                              full exp19 sweep (including the read-heavy
#                              MV serving-path lane) under --json, written
#                              to BENCH_pr6.json, the exp18 acceptance
#                              grid to BENCH_pr6_exp18.json, the SIMD
#                              comparator acceptance lanes (bench_compare
#                              --json) to BENCH_pr8.json, the durable
#                              group-commit lane (exp19 --durable) to
#                              BENCH_pr9.json, the crash-recovery
#                              matrix (exp20) to BENCH_pr9_exp20.json,
#                              and the parallel-replay /
#                              certified-restart / truncation matrix
#                              (exp21) to BENCH_pr10_exp21.json
#                              (all schema mdts-metrics/v1).
#   scripts/bench.sh --smoke   CI-sized: exp19 --quick --json validated for
#                              the schema stamp, the read-heavy MV lane
#                              (snapshot transactions actually served), the
#                              same sweep under --nocache (every compare
#                              walks the vectors; exp19 asserts the
#                              batched chain-walk lane still ran there), the
#                              bench_compare --json SIMD lanes (schema +
#                              lane presence), and exp18 --json, plus
#                              criterion build checks. The durability
#                              smoke runs too: exp19 --quick --durable
#                              (group-commit WAL lane with cold recovery)
#                              and exp20 --smoke (crash matrix: every
#                              injection site plus SIGKILL, recovery, and
#                              auditor certification), and exp21 --smoke
#                              runs the parallel-replay identity,
#                              certified restart, and
#                              checkpoint-truncation lanes.
#                              The telemetry lane always runs: exp19 emits
#                              an mdts-timeseries/v1 file under
#                              --telemetry-strict, timeseries_check
#                              validates it (schema, dense window indices,
#                              counter recomposition) and certifies the
#                              stall-detector regression fixtures. The
#                              repo's benchmark runs too: exp22_costmodel
#                              --smoke (all five workloads, untraced and
#                              traced, every output check), then a
#                              host-independent count gate — one client
#                              on transfer_uniform_1t must finish with
#                              counts.aborts == 0 and counts.restarts == 0
#                              (nothing is concurrent, so nothing may be
#                              refused), and two clients on a traced
#                              transfer_uniform_2t must report
#                              admission.parked_frac == 0 and
#                              admission.batches_per_txn == 0 (admission
#                              is serial: no queue, nobody parks). Only
#                              temp files are written.
#   scripts/bench.sh --telemetry
#                              full run as above, additionally passing
#                              --telemetry to exp19 so the window stream
#                              lands in BENCH_pr6_timeseries.jsonl
#                              (validated before the script exits).
#
# Run from the repo root (or anywhere — the script cd's home first).
set -euo pipefail
cd "$(dirname "$0")/.."

SCHEMA='mdts-metrics/v1'
OUT=BENCH_pr6.json
OUT18=BENCH_pr6_exp18.json
OUT_TS=BENCH_pr6_timeseries.jsonl
OUT8=BENCH_pr8.json
OUT9=BENCH_pr9.json
OUT9_20=BENCH_pr9_exp20.json
OUT10_21=BENCH_pr10_exp21.json

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
    echo "== bench smoke: exp21 --smoke (parallel replay identity + certified restart + truncation) =="
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
    echo "== bench smoke: exp22 count gate (two clients: no admission queue, nobody parks) =="
    line22=$(cargo run --release -q -p mdts-bench --bin exp22_costmodel -- \
        --workload transfer_uniform_2t --seconds 1 --trace 1 | tail -n 1)
    for metric in admission.parked_frac admission.batches_per_txn; do
        if [[ "$line22" != *"\"$metric\":{\"value\":0,"* ]]; then
            echo "bench smoke: transfer_uniform_2t reports a non-zero $metric:" >&2
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

TELEMETRY_ARGS=()
if [[ "${1:-}" == "--telemetry" ]]; then
    TELEMETRY_ARGS=(--telemetry "$OUT_TS")
fi

echo "== criterion: engine_scaling (sharded / sharded-nocache / serialized) =="
cargo bench -p mdts-bench --bench bench_scaling

echo "== criterion: vector compare (Figs. 6-7 + small-k representation sweep) =="
cargo bench -p mdts-bench --bench bench_compare

echo "== exp19 (full sweep incl. read-heavy MV lane) --json -> $OUT =="
cargo run --release -q -p mdts-bench --bin exp19_scaling -- --json "${TELEMETRY_ARGS[@]}" > "$OUT"
grep -q "$SCHEMA" "$OUT"
echo "bench: wrote $OUT"
if [[ ${#TELEMETRY_ARGS[@]} -gt 0 ]]; then
    cargo run --release -q -p mdts-bench --bin timeseries_check -- "$OUT_TS"
    echo "bench: wrote $OUT_TS"
fi

echo "== exp18 (MV acceptance grid) --json -> $OUT18 =="
cargo run --release -q -p mdts-bench --bin exp18_multiversion -- --json > "$OUT18"
grep -q "$SCHEMA" "$OUT18"
echo "bench: wrote $OUT18"

echo "== bench_compare --json (SIMD acceptance lanes) -> $OUT8 =="
cargo bench -q -p mdts-bench --bench bench_compare -- --json > "$OUT8"
grep -q "$SCHEMA" "$OUT8"
echo "bench: wrote $OUT8"

echo "== exp19 --durable (group-commit WAL lane + oversubscribed acceptance) --json -> $OUT9 =="
cargo run --release -q -p mdts-bench --bin exp19_scaling -- --durable --json > "$OUT9"
grep -q "$SCHEMA" "$OUT9"
echo "bench: wrote $OUT9"

echo "== exp20 (crash-recovery matrix + auditor certification) --json -> $OUT9_20 =="
cargo run --release -q -p mdts-bench --bin exp20_recovery -- --json > "$OUT9_20"
grep -q "$SCHEMA" "$OUT9_20"
echo "bench: wrote $OUT9_20"

echo "== exp21 (parallel replay + certified restart + truncation) --json -> $OUT10_21 =="
cargo run --release -q -p mdts-bench --bin exp21_replay -- --json > "$OUT10_21"
grep -q "$SCHEMA" "$OUT10_21"
echo "bench: wrote $OUT10_21"
