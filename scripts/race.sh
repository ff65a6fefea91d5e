#!/usr/bin/env bash
# Race-hunting entry point: every concurrency check the repo has, in
# increasing order of cost.
#
#   1. loom         — exhaustive interleaving models (always runs; pure
#                     stable cargo, uses the vendored shims/loom checker)
#   2. miri         — undefined-behavior / use-after-free detection on the
#                     core + vector unit tests, the row table's release
#                     sweep included (runs when the nightly `miri`
#                     component is installed; skipped otherwise)
#   3. tsan         — ThreadSanitizer over the engine stress suite in its
#                     `--cfg tsan` short mode, the MV-MT(k) leg and its
#                     chain-shard locking included (runs when a nightly
#                     toolchain with rust-src is available; skipped
#                     otherwise — TSan needs `-Z build-std`)
#
# The skips are deliberate: loom is the gate every environment can run
# (including this repo's offline build container); miri and TSan lanes
# also run in CI (.github/workflows/ci.yml) where the toolchains exist.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== loom: shim litmus certification =="
cargo test -q -p loom --release --test litmus

echo "== loom: ordercache / rowtable / read bound / stripe handoff / WakeSeq interleaving models =="
RUSTFLAGS="--cfg loom" cargo test -q --release --test loom_models

if rustup component list --toolchain nightly 2>/dev/null | grep -q '^miri.*(installed)'; then
  echo "== miri: core + vector unit tests =="
  # Isolation stays on: the one system call these tests make is the row
  # table's page-size query, which Miri answers itself; under Miri the
  # release sweep writes zeros where it would call `madvise`, so its page
  # arithmetic is checked against the chunk bounds. Seeds are varied in
  # the CI lane; locally one run keeps the loop tight.
  cargo +nightly miri test -p mdts-core -p mdts-vector --lib
  echo "== miri: the row table's release sweep, on a second seed =="
  MIRIFLAGS="-Zmiri-seed=2" cargo +nightly miri test -p mdts-core --lib -- \
    rowtable::tests::the_cursor_trails_the_oldest_linked_id_by_at_most_one_block \
    rowtable::tests::a_table_holding_only_t0_releases_everything_above_chunk_0
else
  echo "== miri: SKIPPED (install with: rustup +nightly component add miri) =="
fi

if rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
  echo "== tsan: engine stress suite, MV-MT(k) leg included (short mode) =="
  RUSTFLAGS="-Z sanitizer=thread --cfg tsan" \
    cargo +nightly test -Z build-std --target x86_64-unknown-linux-gnu \
    --release --test engine_stress
else
  echo "== tsan: SKIPPED (needs: rustup +nightly component add rust-src) =="
fi

echo "race: OK"
