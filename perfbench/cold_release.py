"""cold_release: every request is a fresh private release.

One ``repro serve`` process shaped like ``examples/serving.toml`` (async
front-end, one engine worker, tracing ring and audit log on) serves a
heavy-tailed dataset (Student-t(3), n = 200k) and a small Gaussian one
(n = 20k).  One
client on one keep-alive connection sends a fixed round of thirteen requests:
single queries on the large dataset alternate with batch POSTs that sweep
epsilon over one kind on the small one (the grouped ``submit_many`` path).
Every epsilon is drawn fresh, so no query hits the cache.

The kinds' costs differ a hundredfold, so percentiles over single requests
sit on the edge between two kinds and jump with the machine's speed; the
reported latency is that of one whole round, and each request's own median
is kept in the record's detail.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

import checks
import harness
from harness import CheckFailed, Client

HEAVY_N = 200_000
SMALL_N = 20_000
BATCH = 4
LEVELS_A = (0.1, 0.5, 0.9)
LEVELS_B = (0.25, 0.5, 0.75)
KINDS = ("mean", "variance", "iqr", "quantile", "baseline.dwork_lei_iqr")
QUERIES_PER_ROUND = len(KINDS) * (1 + BATCH) + 3


def make_datasets(seed: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, 101])
    return {
        "heavy": 100.0 + 10.0 * rng.standard_t(3.0, HEAVY_N),
        "small": rng.normal(50.0, 5.0, SMALL_N),
    }


def serving_document(seed: int) -> Dict[str, Any]:
    return {
        "service": {"seed": seed, "workers": 1, "cache_size": 4096,
                    "frontend": "async", "quiet": True},
        "datasets": [
            {"name": "heavy", "source": "heavy.npy", "budget": 1.0e6},
            {"name": "small", "source": "small.npy", "budget": 1.0e6},
        ],
        "observability": {"trace_ring": 256, "audit_log": "audit.jsonl"},
    }


def _query(dataset: str, kind: str, epsilon: float, levels=()) -> Dict[str, Any]:
    query: Dict[str, Any] = {"dataset": dataset, "kind": kind, "epsilon": epsilon}
    if levels:
        query["params"] = {"levels": list(levels)}
    return query


def make_round(rng: np.random.Generator) -> List[Any]:
    """Thirteen requests (28 queries), each with a freshly drawn epsilon."""
    def eps() -> float:
        return float(rng.uniform(0.3, 1.0))

    requests: List[Any] = []
    for kind in KINDS:
        levels = LEVELS_A if kind == "quantile" else ()
        requests.append(_query("heavy", kind, eps(), levels))
        requests.append({"queries": [
            _query("small", kind, eps(), levels) for _ in range(BATCH)
        ]})
    requests.append(_query("heavy", "quantile", eps(), LEVELS_B))
    requests.append(_query("small", "mean", eps()))
    requests.append(_query("small", "variance", eps()))
    return requests


def request_label(request: Dict[str, Any]) -> str:
    first = queries_of(request)[0]
    levels = first.get("params", {}).get("levels")
    label = f"{first['dataset']}:{first['kind']}" + (f"{levels}" if levels else "")
    return f"batch{len(request['queries'])}:{label}" if "queries" in request else label


def queries_of(request: Dict[str, Any]) -> List[Dict[str, Any]]:
    return request["queries"] if "queries" in request else [request]


def answers_of(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    return document["answers"] if "answers" in document else [document]


def write_inputs(workdir, seed: int) -> Dict[str, np.ndarray]:
    return harness.write_inputs(workdir, make_datasets(seed), "serve.json", serving_document(seed))


def measure(seed: int, seconds: float, workdir) -> Dict[str, Any]:
    datasets = write_inputs(workdir, seed)
    rng = np.random.default_rng([seed, 202])
    server, boot_times, logs = harness.boot_served(workdir)
    problems: List[str] = []
    answered: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    by_request: Dict[str, List[float]] = {}
    failed = 0
    try:
        with Client(server.host, server.port) as client:
            def send(request) -> Tuple[float, bool]:
                latency, status, document = client.timed_post("/query", request)
                answers = answers_of(document) if isinstance(document, dict) else []
                ok = status == 200 and len(answers) == len(queries_of(request)) \
                    and all(a.get("status") == "ok" for a in answers)
                answered.extend(zip(queries_of(request), answers))
                return latency, ok

            for request in make_round(rng):  # warm-up round, untimed
                send(request)

            def one_round(_: int) -> None:
                nonlocal failed
                for request in make_round(rng):
                    latency, ok = send(request)
                    by_request.setdefault(request_label(request), []).append(latency)
                    failed += not ok

            durations = harness.run_rounds(seconds, one_round)
            _, stats = client.get("/datasets")
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    problems += [f"traceback in {name}" for name in harness.scan_tracebacks(logs)]
    found, accuracy = check_outputs(workdir, datasets, answered, stats)
    problems += found
    return {
        "attempted": sum(map(len, by_request.values())),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "p50_ms": harness.percentile(durations, 50) * 1e3,
            "p90_ms": harness.percentile(durations, 90) * 1e3,
            "queries_per_s": QUERIES_PER_ROUND / float(np.median(durations)),
            "setup_s": float(np.median(boot_times)),
            "peak_rss_mb": rss,
        },
        "detail": {"rounds": len(durations), "boot_s": boot_times, "accuracy": accuracy,
                   "request_p50_ms": {label: float(np.median(values)) * 1e3
                                      for label, values in by_request.items()}},
    }


def check_outputs(workdir, datasets, answered, stats) -> Tuple[List[str], Dict[str, float]]:
    """Accuracy per kind, ledgers against charges, and the audit chain."""
    problems: List[str] = []
    accuracy: Dict[str, float] = {}
    try:
        accuracy = checks.served_accuracy(datasets, answered, beta=1.0 / 3.0)
    except CheckFailed as exc:
        problems.append(str(exc))
    charges: Dict[str, List[float]] = {name: [] for name in datasets}
    for query, answer in answered:
        charges[query["dataset"]].append(answer.get("epsilon_charged", 0.0))
    live = {}
    for entry in stats["datasets"]:
        budget = entry["budget"]
        live[f"dataset:{entry['name']}"] = budget["spent"]
        try:
            checks.check_ledger(budget["spent"], charges[entry["name"]], budget["capacity"])
        except CheckFailed as exc:
            problems.append(f"{entry['name']}: {exc}")
    problems += harness.verify_audit(workdir / "audit.jsonl", live)
    return problems, accuracy
