#!/usr/bin/env bash
# Regenerate every table/figure of the paper into results/, then check the
# artifacts: metrics.json files and the qcheck summary with
# check_metrics.py, every timeline and trace with `qreport --check` (the
# sampled runs listed first must ship a timeline).
# Full-resolution runs; pass --fast through for reduced sweeps.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p mpichgq-bench --bin fig -p mpichgq-apps --bin qreport
target/release/fig all ${1:-}
for f in results/{fig1,fig7_10fps_40kb_frames,fig7_1fps_400kb_frame,chaos,chaos_ranks}/timeline.json \
  results/*/timeline.json results/*/trace.json; do
  target/release/qreport --check "$f"
done
if command -v python3 >/dev/null; then
  python3 scripts/check_metrics.py results/*/metrics.json results/qcheck/summary.json
fi
