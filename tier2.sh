#!/usr/bin/env bash
# Tier-2 verification: style and lint gates on top of the tier-1
# build+test cycle (ROADMAP.md). Run from the repo root.
#
#   ./tier2.sh
#
# Every gate is hard: formatting must be rustfmt-clean, the whole
# workspace (all targets, vendored stubs included) must be clippy-clean
# with warnings promoted to errors, its rustdoc must build without
# warnings (so no public doc links to a private item), and hostbench
# (its own workspace over the library crates) must build and pass its
# tests against its checked-in lock file, so a library API break or a
# dependency edit that would rewrite hostbench/Cargo.lock fails here
# rather than in a benchmark run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier2: cargo fmt --check =="
cargo fmt --check

echo "== tier2: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier2: cargo doc --workspace --no-deps (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier2: hostbench build and test (--locked) =="
cargo build --release --locked --manifest-path hostbench/Cargo.toml
cargo test --locked -q --manifest-path hostbench/Cargo.toml

echo "tier2 OK"
