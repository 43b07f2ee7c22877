"""cached_http: repeats of released answers through the default front-end.

``repro serve`` runs with no front-end set (the threaded server), tracing
ring and audit log on.  A catalogue of 24 queries is released once before
timing; then one client on one keep-alive connection sends a zipf-skewed
sequence of repeats, every one a cache hit at zero epsilon.  No estimator
runs in the timed phase: wire parsing, the transport, the answer cache and
the per-hit audit record are all the work.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

import checks
import harness
from harness import CheckFailed, Client

HEAVY_N = 20_000
SMALL_N = 4_000
KINDS = (("mean", ()), ("variance", ()), ("iqr", ()), ("quantile", (0.1, 0.5, 0.9)))
ROUND = 25
ZIPF_S = 1.1


def make_datasets(seed: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, 301])
    return {
        "heavy": 100.0 + 10.0 * rng.standard_t(3.0, HEAVY_N),
        "small": rng.normal(50.0, 5.0, SMALL_N),
    }


def serving_document(seed: int) -> Dict[str, Any]:
    return {
        "service": {"seed": seed, "workers": 1, "cache_size": 4096, "quiet": True},
        "datasets": [
            {"name": "heavy", "source": "heavy.npy", "budget": 1.0e4},
            {"name": "small", "source": "small.npy", "budget": 1.0e4},
        ],
        "observability": {"trace_ring": 256, "audit_log": "audit.jsonl"},
    }


def make_catalogue(seed: int) -> List[Dict[str, Any]]:
    """2 datasets x 4 kinds x 3 epsilons = 24 queries, in zipf rank order."""
    rng = np.random.default_rng([seed, 302])
    catalogue = []
    for dataset in ("heavy", "small"):
        for kind, levels in KINDS:
            for base in (0.5, 1.0, 2.0):
                query: Dict[str, Any] = {
                    "dataset": dataset, "kind": kind,
                    "epsilon": base * float(rng.uniform(0.9, 1.1)),
                }
                if levels:
                    query["params"] = {"levels": list(levels)}
                catalogue.append(query)
    return [catalogue[i] for i in rng.permutation(len(catalogue))]


def zipf_weights(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_S
    return weights / weights.sum()


def write_inputs(workdir, seed: int) -> Dict[str, np.ndarray]:
    return harness.write_inputs(workdir, make_datasets(seed), "serve.json", serving_document(seed))


def spent_by_dataset(stats: Dict[str, Any]) -> Dict[str, float]:
    return {entry["name"]: entry["budget"]["spent"] for entry in stats["datasets"]}


def release_catalogue(client: Client, catalogue) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    released = []
    for query in catalogue:
        status, document = client.post("/query", query)
        if status != 200 or document.get("status") != "ok" or document.get("cached"):
            raise harness.HarnessError(f"warm-up release failed: {status} {document}")
        released.append((query, document))
    return released


def measure(seed: int, seconds: float, workdir) -> Dict[str, Any]:
    datasets = write_inputs(workdir, seed)
    catalogue = make_catalogue(seed)
    weights = zipf_weights(len(catalogue))
    rng = np.random.default_rng([seed, 303])
    server, boot_times, logs = harness.boot_served(workdir)
    problems: List[str] = []
    latencies: List[float] = []
    failed = 0
    try:
        with Client(server.host, server.port) as client:
            released = release_catalogue(client, catalogue)
            values = [document["value"] for _, document in released]
            _, before = client.get("/datasets")

            def one_round(_: int) -> None:
                nonlocal failed
                for index in rng.choice(len(catalogue), size=ROUND, p=weights):
                    latency, status, document = client.timed_post("/query", catalogue[index])
                    latencies.append(latency)
                    if status != 200:
                        failed += 1
                        continue
                    try:
                        checks.check_cached(document, values[index])
                    except CheckFailed as exc:
                        if len(problems) < 5:
                            problems.append(str(exc))

            durations = harness.run_rounds(seconds, one_round)
            _, after = client.get("/datasets")
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    problems += [f"traceback in {name}" for name in harness.scan_tracebacks(logs)]
    try:
        checks.check_unchanged(spent_by_dataset(before), spent_by_dataset(after),
                               "ledger across the timed phase")
    except CheckFailed as exc:
        problems.append(str(exc))
    accuracy: Dict[str, float] = {}
    try:
        accuracy = checks.served_accuracy(datasets, released, beta=1.0 / 3.0)
    except CheckFailed as exc:
        problems.append(str(exc))
    live = {f"dataset:{name}": spent for name, spent in spent_by_dataset(after).items()}
    problems += harness.verify_audit(workdir / "audit.jsonl", live)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "p50_ms": harness.percentile(latencies, 50) * 1e3,
            "p90_ms": harness.percentile(latencies, 90) * 1e3,
            "queries_per_s": ROUND / float(np.median(durations)),
            "setup_s": float(np.median(boot_times)),
            "peak_rss_mb": rss,
        },
        "detail": {"rounds": len(durations), "boot_s": boot_times, "accuracy": accuracy,
                   "cache": after.get("cache")},
    }
