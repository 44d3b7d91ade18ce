#!/usr/bin/env python3
"""Compare a fresh benchmark run against a committed baseline.

Usage: perf_gate.py BASELINE.json FRESH.json [--tolerance 0.25]

Understands both benchmark schemas and auto-detects each file's via its
"benchmark" field:

* bench_engine  — {"workloads": [{name, calendar}, ...]}; the calendar
  queue's events/sec is the gated number (baselines recorded before the
  heap backend was removed also carry an ignored "heap" entry).
* bench_parallel — {"engine_compat": ..., "scaling": {"runs": [...]}};
  engine_compat is the bench_engine transport_multiflow_bulk workload
  run monolithically (so it can be gated *across files* against a
  bench_engine baseline — that is the "single-thread within tolerance of
  the old engine" acceptance check), and each scaling run gates at its
  thread count.
* bench_gara — {"workloads": [{name, reservations_per_sec,
  admission_p99_us, ...}, ...]}; each workload gates two metrics:
  reservations/sec (higher is better) and the p99 admission latency
  (LOWER is better — the ratio is inverted before comparison, with
  +1 µs smoothing so sub-microsecond baselines never divide by zero).

Every workload present in both files is compared; ALL regressions beyond
the tolerance are reported with their deltas before the nonzero exit, so
one failure never masks another. Workloads present in only one file
(e.g. a --quick run emits a subset) are compared on the intersection.
"""

import argparse
import json
import sys


def load(path):
    """Normalize one benchmark file to
    {metric name: (value, unit, higher_is_better)}."""
    with open(path) as f:
        doc = json.load(f)
    kind = doc.get("benchmark", "bench_engine")
    rates = {}
    if kind == "bench_parallel":
        compat = doc["engine_compat"]
        rates[compat["name"]] = (compat["calendar"]["events_per_sec"], "ev/s", True)
        scaling = doc["scaling"]
        for run in scaling["runs"]:
            name = f"{scaling['name']}@{run['threads']}t"
            rates[name] = (run["events_per_sec"], "ev/s", True)
    elif kind == "bench_gara":
        for w in doc["workloads"]:
            rates[f"{w['name']}/rps"] = (w["reservations_per_sec"], "resv/s", True)
            rates[f"{w['name']}/p99"] = (w["admission_p99_us"], "us", False)
    else:
        for w in doc["workloads"]:
            # Entries labeled perf_gated: false (the instrumentation
            # overhead probe) are informative only — never compared.
            if not w.get("perf_gated", True):
                continue
            rates[w["name"]] = (w["calendar"]["events_per_sec"], "ev/s", True)
    return rates


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    common = sorted(set(base) & set(fresh))
    if not common:
        print("perf_gate: no common workloads between baseline and fresh run",
              file=sys.stderr)
        return 1

    failed = []
    for name in common:
        b, unit, higher_better = base[name]
        f = fresh[name][0]
        if higher_better:
            ratio = f / b
        else:
            # Lower is better (latency): invert so ratio > 1 still means
            # "fresh is better"; +1 smooths away zero-microsecond bases.
            ratio = (b + 1.0) / (f + 1.0)
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSED"
            failed.append((name, ratio))
        print(f"{name:28s} baseline {b:14,.0f} {unit:6s} fresh {f:14,.0f} {unit:6s}"
              f"  ({ratio:5.2f}x)  {status}")

    skipped = sorted((set(base) | set(fresh)) - set(common))
    if skipped:
        print(f"perf_gate: not in both files, skipped: {', '.join(skipped)}")

    if failed:
        deltas = ", ".join(f"{name} ({(1 - ratio):.1%} below baseline)"
                           for name, ratio in failed)
        print(f"perf_gate: FAIL — {len(failed)} of {len(common)} workload(s) "
              f"regressed more than {args.tolerance:.0%}: {deltas}",
              file=sys.stderr)
        return 1
    print(f"perf_gate: PASS — {len(common)} workload(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
