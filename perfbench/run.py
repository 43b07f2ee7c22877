"""Benchmark of the private-query stack: one command, three workloads.

    python3 perfbench/run.py --workload cold_release --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and prints its end-to-end metrics;
``--trace 1`` runs the separate traced pass and prints the per-layer metrics.
Standard output ends with two JSON lines: the full record (provenance, every
metric with its unit, check results, details) and, last, the summary
``{"correct", "attempted", "failed", "metrics"}``.  A run that cannot measure
(no program source, a server that never boots) exits non-zero and prints no
summary.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import traceback

import harness
import layers

WORKLOADS = ("cold_release", "cached_http", "cluster_group")

UNITS = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    **layers.UNITS,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminated(signum, frame):
    # Unwind through every ``finally``: servers, tiers and the work
    # directory are reaped on SIGTERM as on any other failure.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    args = parse_args(argv)
    try:
        harness.require_source()
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = importlib.import_module(args.workload)
    workdir = harness.make_workdir(args.workload)
    try:
        if args.trace:
            outcome = layers.traced(args.workload, args.seed, args.seconds, workdir)
        else:
            outcome = workload.measure(args.seed, args.seconds, workdir)
    except Exception:  # the benchmark boundary: report, print no result
        traceback.print_exc()
        return 1
    finally:
        harness.remove_workdir(workdir)
    metrics = {
        name: {"value": float(value), "unit": UNITS[name]}
        for name, value in outcome["metrics"].items()
    }
    problems = outcome["problems"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "provenance": harness.provenance(args.workload, args.seed, args.seconds, bool(args.trace)),
        "checks": {"passed": not problems, "problems": problems},
        "metrics": metrics,
        "detail": outcome.get("detail", {}),
    }
    print(json.dumps({"record": record}, default=float))
    print(json.dumps({
        "correct": not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
