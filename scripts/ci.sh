#!/usr/bin/env bash
# The full CI gate: release build of every workspace binary, the
# complete workspace test suite, the gcs-mc model-checking gate (bound-1 interleaving
# exploration + seeded-bug detection), a deterministic-simulation smoke
# sweep, and clippy over all targets with warnings promoted to errors.
# Everything runs offline against the vendored dependency set; a clean
# exit here is the merge bar. It needs no prior build: every binary it
# runs is built by the build stage below, and the bench steps write
# their JSON under target/ so a CI run never rewrites the committed
# BENCH_*.json.
#
# NIGHTLY=1 adds the long stages: a 200-seed simulation sweep, the
# 200-seed hostile-network corpus (adaptive vs fixed detector gate),
# the injected-bug end-to-end check (the harness must catch and shrink
# a deliberately broken token path), bound-2 model checking, the
# ThreadSanitizer pass (loudly skipped offline), and a rerun of this
# whole gate from a clean `git archive` tree of HEAD.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The root package alone builds only `pgcs-sim`; the gates below run
# `gcs-sim` and `gcs-shard-bench` from other workspace members.
echo "==> cargo build --release --workspace --bins"
cargo build --release --workspace --bins

echo "==> gcs-lint --root . (project lints; see docs/LINTS.md)"
cargo build --release -p gcs-lint --quiet
./target/release/gcs-lint --root .

# The whole workspace, not just the root package: the net node/cluster
# (loopback, crash/restart, backpressure, obs reconciliation), the
# sharded cluster, sim determinism/hostile corpus, vsimpl and core.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test -q -p gcs-lint (lint fixture self-tests + workspace-clean meta-test)"
cargo test -q -p gcs-lint

# gcs-mc model-checking gate (see docs/CONCURRENCY.md): exhaustively
# explore every interleaving of the ported structures — obs trace ring,
# metrics registry/histogram, net send queue — within preemption bound
# 1 (the CHESS result: most real concurrency bugs need <=2 preemptions;
# bound 2 runs nightly). Zero races, zero deadlocks, zero assertion
# failures is the bar. Budget: <30 s total.
echo "==> gcs-mc models at preemption bound 1 (ring, registry, queue)"
GCS_MC_BOUND=1 cargo test -q -p gcs-mc
GCS_MC_BOUND=1 cargo test -q -p gcs-obs --test mc_ring --test mc_registry
GCS_MC_BOUND=1 cargo test -q -p gcs-net --test mc_queue

# Seeded-bug meta-test: with the mc-seeded-bug feature the trace ring's
# seq publish is downgraded AcqRel -> Relaxed; the happens-before
# checker must catch it (VacuousAcquire, file:line on both sides) and
# the failing schedule must replay. This proves the checker can see the
# class of bug the clean runs above claim is absent.
echo "==> gcs-mc seeded-bug detection (mc-seeded-bug feature)"
cargo test -q -p gcs-obs --features mc-seeded-bug --test mc_seeded_bug

echo "==> gcs-sim run --seeds 10 (smoke)"
./target/release/gcs-sim run --seeds 10

# Hostile-network corpus smoke: every regime (link flap at the
# detection threshold, asymmetric slowdown, bimodal WAN delays, split
# storms, 50-node churn) under BOTH detector policies. The gate inside
# the command: zero checker/monitor violations on every run, and the
# adaptive detector installs strictly fewer views than fixed timeouts
# on the flap/bimodal regimes (per seed).
echo "==> gcs-sim hostile --seeds 10 (adaptive-vs-fixed corpus smoke)"
./target/release/gcs-sim hostile --seeds 10

# Single-group throughput gate: one group over all 5 nodes (the G=1
# case of the sharded bench) must clear a floor of 25k ops/s (2x the
# pre-batching seed's 12.5k) with the VS/TO checkers, b/d monitors and
# per-key linearizability checker on. The floor is deliberately far
# below the ~125k+ headline so scheduler noise on loaded CI boxes never
# flakes it, while a regression that undoes the batched token path
# (which would land back near 12k) still fails loudly.
echo "==> gcs-shard-bench --groups 1 --members 5 --floor 25000 (single-group throughput gate)"
./target/release/gcs-shard-bench --groups 1 --members 5 --ops 20000 --window 1024 --warmup 2000 \
  --delta-ms 20 --no-partition --floor 25000 --out target/BENCH_single.json

# Sharded aggregate gate: 4 groups of 3 nodes over 5 hosts must clear
# 2x the single-group floor in aggregate, with every group's VS/TO
# checkers, b/d monitors, and the per-key linearizability checker on,
# through a one-group partition/merge. Measured headline is ~200k+
# aggregate; 50k keeps the same scheduler-noise margin as the 25k gate.
echo "==> gcs-shard-bench --floor 50000 (sharded aggregate gate)"
./target/release/gcs-shard-bench --ops 10000 --window 256 --warmup 1000 --delta-ms 60 --floor 50000 \
  --out target/BENCH_shard.json

# Test, bench and example targets too, not just the library and binary
# code: a warning in a test file fails the gate like any other.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${NIGHTLY:-0}" == "1" ]]; then
  echo "==> [nightly] gcs-sim run --seeds 200"
  ./target/release/gcs-sim run --seeds 200

  # The full hostile sweep: 200 seeds x 5 regimes x 2 policies. Fails
  # on any checker/monitor violation or any seed where the adaptive
  # detector does not hold membership strictly more stable than fixed
  # timeouts on the flap/bimodal regimes — the view-change-rate
  # regression gate for the accrual detector.
  echo "==> [nightly] gcs-sim hostile --seeds 200"
  ./target/release/gcs-sim hostile --seeds 200

  echo "==> [nightly] injected-bug catch + shrink (bug-hook feature)"
  cargo test -p gcs-sim --features bug-hook --test bug_catch -q

  # Deeper model-checking: preemption bound 2 explores the interleavings
  # tier-1's bound-1 pass cannot reach (schedules needing two forced
  # preemptions). Above the bound the checker falls back to seeded
  # pseudo-random sampling, so this also exercises the sampling paths.
  echo "==> [nightly] gcs-mc models at preemption bound 2"
  GCS_MC_BOUND=2 cargo test -q -p gcs-mc
  GCS_MC_BOUND=2 cargo test -q -p gcs-obs --test mc_ring --test mc_registry
  GCS_MC_BOUND=2 cargo test -q -p gcs-net --test mc_queue

  # ThreadSanitizer over the concurrency-heavy crates validates the
  # happens-before claims the `// ordering:` annotations make (the
  # atomics_order lint forces the claims; TSan checks them). Needs the
  # nightly toolchain with rust-src (-Zbuild-std rebuilds std with TSan
  # instrumentation); in offline containers the component cannot be
  # fetched, so skip with a notice instead of failing the run.
  echo "==> [nightly] ThreadSanitizer (gcs-obs, gcs-net)"
  if rustup component add rust-src --toolchain nightly >/dev/null 2>&1 \
     || ls "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/std/Cargo.toml" >/dev/null 2>&1; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
      -p gcs-obs -p gcs-net -q
  else
    echo "!!==================================================================!!"
    echo "!! SKIPPED: ThreadSanitizer stage (nightly rust-src unavailable —   !!"
    echo "!! offline container). The ordering: claims were NOT validated by   !!"
    echo "!! TSan this run; the gcs-mc happens-before checker remains the     !!"
    echo "!! only active validator. Run on a networked host to close this.    !!"
    echo "!!==================================================================!!"
  fi

  # The whole gate again from a clean checkout of HEAD: a `git archive`
  # tree with no target/ directory, so a warm build in this checkout can
  # never hide a binary or test target the gate forgot to build.
  echo "==> [nightly] scripts/ci.sh from a clean git archive of HEAD"
  tree=$(mktemp -d)
  trap 'rm -rf "$tree"' EXIT
  git archive HEAD | tar -x -C "$tree"
  (cd "$tree" && env -u NIGHTLY -u CARGO_TARGET_DIR bash scripts/ci.sh)
fi

echo "==> ci.sh: all green"
