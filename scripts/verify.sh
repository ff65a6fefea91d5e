#!/usr/bin/env bash
# Full local verification gate: formatting, lints, release build, and the
# complete workspace test suite (tier-1 is the root package's tests; the
# workspace run is a superset). Run from the repo root.
#
#   --full   additionally regenerate every expout/*.txt fixture and fail
#            on diff (scripts/expout.sh — stale fixtures can't silently
#            mask behavior changes), then run the loom model-checking
#            suite (the shim's litmus certification plus the ordercache /
#            rowtable / read-bound / stripe-handoff / WakeSeq interleaving
#            models) — see
#            scripts/race.sh for the standalone race-hunting entry point.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
for arg in "$@"; do
  case "$arg" in
    --full) FULL=1 ;;
    *) echo "usage: $0 [--full]" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test --workspace =="
cargo test --workspace -q

# The zero-allocation gate runs inside the workspace suite too (it is a
# root-package integration test), but an explicit release-mode pass keeps
# the assertion meaningful under the optimizer as well: the scheduler
# paths, and a warmed Database::run transfer and run_read_only scan. The
# same file holds the memory-layout gate: inline MV chain records and
# zeroed id-index chunks.
echo "== alloc + memory-layout gate (release) =="
cargo test --release -q --test alloc_zero

# The row arena follows the live transactions: 2^20 MV transfers over
# 131,072 accounts grow the resident set by at most 4 MiB (a single-test
# binary, so no other test's memory moves the reading).
echo "== row-arena resident-set gate (release) =="
cargo test --release -q --test arena_rss

# Two clients on 16 hot MV accounts (2,000-iteration spin between reads
# and writes, 256 restarts allowed) give no transfer up: a long restart
# chain begins above committed history (a single-test binary, ≈ 3 s).
echo "== hot-set restart gate (release) =="
cargo test --release -q --test hot_restarts

# Likewise the placement tests: a chunk raced by eight begins is built
# once, and striped cells sum exactly. (The cache-line layout of every
# de-shared word is a `const` assertion: the build above checked it.)
echo "== single-construction + striped-cell tests (release) =="
cargo test --release -q -p mdts-core racing_threads_build_a_fresh_chunk_exactly_once
cargo test --release -q -p mdts-vector stripe

if [[ "$FULL" -eq 1 ]]; then
  echo "== expout fixtures (regenerate every expout/*.txt, fail on diff) =="
  ./scripts/expout.sh

  echo "== loom: shim litmus certification =="
  cargo test -q -p loom --release --test litmus

  echo "== loom: interleaving models (cfg loom) =="
  RUSTFLAGS="--cfg loom" cargo test -q --release --test loom_models
fi

echo "verify: OK"
