#!/usr/bin/env bash
# Regenerate every table/figure of the paper into results/.
# Full-resolution runs; pass --fast through for reduced sweeps.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p mpichgq-bench --bin fig
target/release/fig all ${1:-}
if command -v python3 >/dev/null; then
  python3 scripts/check_metrics.py results/*/metrics.json results/*/timeline.json
fi
