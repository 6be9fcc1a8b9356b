#!/usr/bin/env bash
# Tier-1 verification: hermetic build + full test suite + dependency guard.
#
# The workspace must build and test with NO network access and NO external
# crates. This script is the single command CI (and humans) run to check
# that; it fails if any Cargo.toml reintroduces a registry dependency. The
# benchmark package (perfbench/, its own workspace, also built --offline
# below) is held to the same rule; the guard only reads its files.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dependency guard: no registry deps allowed =="
# Any `version = "..."` requirement in a dependency table means a registry
# dep (workspace-internal deps are path-only). `version.workspace = true`
# under [package] is fine, as is the workspace's own version key.
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml; do
    if awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /version[[:space:]]*=/ { found = 1 }
        END { exit !found }
    ' "$manifest"; then
        echo "registry dependency found in $manifest" >&2
        bad=1
    fi
done
for lock in Cargo.lock perfbench/Cargo.lock; do
    if grep -n 'crates-io\|registry+' "$lock" 2>/dev/null | head -1; then
        echo "$lock references a registry" >&2
        bad=1
    fi
done
[ "$bad" -eq 0 ] || exit 1
echo "ok: all dependencies are path dependencies"

echo "== tier-1: offline release build =="
cargo build --release --offline --workspace

echo "== tier-1: full test suite =="
cargo test -q --offline --workspace

echo "== lint gate: clippy clean at -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc gate: no broken intra-doc links =="
# Deleting or renaming an item must not leave a doc link dangling.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --offline --workspace --no-deps

echo "== benchmarks compile and smoke-run =="
cargo bench --offline -p kooza-bench --bench micro -- --mode smoke >/dev/null
cargo bench --offline -p kooza-bench --bench trace_ingest -- --mode smoke >/dev/null
cargo bench --offline -p kooza-bench --bench shard -- --mode smoke >/dev/null
# The fabric bench also asserts the incast curve degrades super-linearly
# past the timeout cliff — a semantic check, not just a compile check.
cargo bench --offline -p kooza-bench --bench fabric -- --mode smoke >/dev/null

echo "== hot-path gate: fabric re-rating and event queue vs their archives =="
# Every sample is preceded by a timed run of the harness's calibration
# loop, and --baseline compares median/calibration against the
# archive's ratio, so the host's speed cancels out and the code's cost
# does not. fabric_rerate_churn is mostly max-min re-rating;
# sim_engine_100k_events is the bare event queue. At 0.7, doing either
# one's work twice trips the gate and run-to-run noise on a shared
# 2-core host does not. Full mode (30 samples) keeps the medians
# steady; the name filters keep each run to one bench. The harness
# exits 0 either way, so grep the printed diffs for the flag, and
# require both diffs to have run (a renamed bench would otherwise match
# nothing and pass). Absolute paths: cargo runs the bench binaries from
# the crate root, not the workspace root.
gate_out=$(
    KOOZA_BENCH_TOLERANCE=0.7 cargo bench --offline -p kooza-bench --bench fabric -- \
        --mode full --baseline "$PWD/BENCH_fabric.json" fabric_rerate_churn
    KOOZA_BENCH_TOLERANCE=0.7 cargo bench --offline -p kooza-bench --bench micro -- \
        --mode full --baseline "$PWD/BENCH_micro.json" sim_engine_100k_events
)
echo "$gate_out" | sed -n '/vs baseline/,/against the baseline/p'
if grep -q "REGRESSION" <<<"$gate_out" ||
    [ "$(grep -c '^no regressions against the baseline$' <<<"$gate_out")" -ne 2 ]; then
    echo "hot path regressed against BENCH_fabric.json / BENCH_micro.json" >&2
    exit 1
fi

echo "== KTC trace format: property, corruption and golden-fixture suites =="
# The binary columnar format is gated on the JSONL oracle: round-trip
# identity and oracle agreement (properties), typed errors on every
# truncation/mutation of the stream (corruption sweep), and committed
# fixture bytes pinned exactly (golden).
cargo test -q --offline -p kooza-trace --test ktc_properties
cargo test -q --offline -p kooza-trace --test ktc_corrupt
cargo test -q --offline -p kooza-trace --test ktc_golden
cargo test -q --offline --test trace_roundtrip

echo "== thread-count determinism: tables identical at KOOZA_THREADS=8 =="
# The test itself sweeps 1/2/8 via the thread override (and, since the
# KTC format landed, direct vs JSONL vs KTC ingest at each count);
# running it under KOOZA_THREADS=8 additionally exercises the env-var
# sizing path.
KOOZA_THREADS=8 cargo test -q --offline --test determinism

echo "== observability determinism: stripped --obs report identical at KOOZA_THREADS=8 =="
# Same sweep pattern: the test compares stripped JSONL at 1/2/8 threads
# internally; the env var exercises the sizing path on top.
KOOZA_THREADS=8 cargo test -q --offline --test obs_determinism

echo "== fault determinism: outcomes and obs identical under a nonzero fault plan =="
# With crashes, retries, failovers and re-replication active, the
# per-request outcome log and stripped obs report must still be
# byte-identical at 1/2/8 threads.
KOOZA_THREADS=8 cargo test -q --offline --test fault_determinism

echo "== shard determinism: sharded tables/logs/obs identical at KOOZA_THREADS=8 =="
# The test sweeps 1/2/8 threads x 1/4 shards (healthy and fault-injected)
# internally; the env var exercises the sizing path on top. Shards=1 also
# pins the sharded entry point bit-identical to the single-engine path.
KOOZA_THREADS=8 cargo test -q --offline --test shard_determinism

echo "== fabric determinism: rack topology identical at KOOZA_THREADS=8, legacy path pinned to golden =="
# Rack mode sweeps 1/2/8 threads x 1/4 shards internally; --topology none
# is compared byte-for-byte against fixtures generated before the fabric
# landed (tests/fixtures/pre_fabric_*.golden), plus the fabric property
# suite (capacity bounds, permutation invariance, legacy-link agreement).
KOOZA_THREADS=8 cargo test -q --offline --test fabric_determinism
cargo test -q --offline --test fabric_properties

echo "== benchmark digests: perfbench reproduces perfbench/expected.txt =="
# Tier-1 tests pin shard counts 1 and 4; the benchmark's recorded digests
# also pin the 8-shard default that `kooza simulate --servers 64` runs,
# the rack/fault path and the model pipeline. Every line recorded for
# seeds 0-2 must appear verbatim in perfbench/expected.txt.
for workload in sim_traced sim_sharded sim_rack_faults model_pipeline; do
    recorded=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --record 0-2)
    if [ "$(grep -c . <<<"$recorded")" -ne 3 ]; then
        echo "$workload: expected 3 recorded digests, got: $recorded" >&2
        exit 1
    fi
    unexpected=$(grep -vxFf perfbench/expected.txt <<<"$recorded" || true)
    if [ -n "$unexpected" ]; then
        echo "$workload digests missing from perfbench/expected.txt:" >&2
        echo "$unexpected" >&2
        exit 1
    fi
    echo "ok: $workload seeds 0-2 match"
done

echo "== benchmark self-tests: perfbench's own suite =="
# Pins what the digests cannot: traced layer spans nest and cover the
# iteration, sharded digests match at 1 and 2 threads, and the printed
# metric names match BENCHMARK.json. Reads perfbench/ only.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "verify: OK"
