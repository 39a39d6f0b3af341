#!/usr/bin/env bash
# Build, self-test and smoke-run the benchmark package. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline -q
# Every workload, both trace modes, tiny sizes: a few seconds in all.
./"${CARGO_TARGET_DIR:-target}"/release/benchmark run --smoke --out "${CARGO_TARGET_DIR:-target}/smoke-out" 2>/dev/null
echo "benchmark check: ok"
