"""cluster_group: fresh releases through the sharded tier.

``repro compose`` boots a budget coordinator, two async shards and the
router.  Four datasets (n = 20k each) belong to one joint budget group, so
every release makes reserve and commit RPCs to the coordinator.  One client
on one keep-alive connection to the router sends rounds of cheap queries
(``mean``, ``variance``) with freshly drawn epsilons; compute stays small, so
the router hop and the RPCs dominate.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

import checks
import harness
from harness import CheckFailed, Client

N = 20_000
DATASETS = ("g0", "g1", "g2", "g3")
KINDS = ("mean", "variance")
GROUP = "pilot"
GROUP_BUDGET = 1.0e4
SHARDS = 2


def make_datasets(seed: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, 401])
    return {
        "g0": rng.normal(170.0, 8.0, N),
        "g1": rng.lognormal(11.0, 0.5, N),
        "g2": 20.0 + 3.0 * rng.standard_t(3.0, N),
        "g3": rng.exponential(2.0, N),
    }


def cluster_document(seed: int) -> Dict[str, Any]:
    return {
        "service": {"seed": seed, "workers": 1, "cache_size": 4096,
                    "frontend": "async", "host": "127.0.0.1", "quiet": True},
        "groups": {GROUP: {"budget": GROUP_BUDGET}},
        "datasets": [
            {"name": name, "source": f"{name}.npy", "group": GROUP} for name in DATASETS
        ],
        "observability": {"trace_ring": 256},
        "cluster": {"shards": SHARDS},
    }


def make_round(rng: np.random.Generator) -> List[Dict[str, Any]]:
    return [
        {"dataset": name, "kind": kind, "epsilon": float(rng.uniform(0.3, 1.0))}
        for name in DATASETS for kind in KINDS
    ]


def write_inputs(workdir, seed: int) -> Dict[str, np.ndarray]:
    return harness.write_inputs(workdir, make_datasets(seed), "cluster.json", cluster_document(seed))


def compose(workdir, boots: int = 3):
    """``compose_up`` ``boots`` times, keeping the last tier; (handle, times)."""
    from repro.cluster.compose import compose_up

    times = []
    for index in range(boots):
        started = time.perf_counter()
        handle = compose_up(workdir / "cluster.json", workdir / f"compose{index}")
        times.append(time.perf_counter() - started)
        if index < boots - 1:
            handle.down()
    return handle, times


def coordinator_owner(handle) -> Dict[str, Any]:
    from repro.cluster.rpc import CoordinatorClient

    client = CoordinatorClient(*handle.coordinator_endpoint)
    try:
        return client.call("stats")["owners"][f"group:{GROUP}"]
    finally:
        client.close()


def in_process_values(workdir, queries) -> List[Any]:
    """The same queries through an in-process service built from the config."""
    import dataclasses

    from repro.service import build_service, wire
    from repro.service.config import load_serving_config

    config = load_serving_config(workdir / "cluster.json")
    config = dataclasses.replace(config, cluster=None, observability=None)
    with build_service(config) as built:
        return [
            wire.answer_document(built.service.submit(wire.parse_request(query)))["value"]
            for query in queries
        ]


def measure(seed: int, seconds: float, workdir) -> Dict[str, Any]:
    write_inputs(workdir, seed)
    rng = np.random.default_rng([seed, 402])
    handle, boot_times = compose(workdir)
    problems: List[str] = []
    answered: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    latencies: List[float] = []
    failed = 0
    try:
        host, port = handle.plan.host, handle.plan.router_port
        with Client(host, port) as client:
            def one_round(_: int) -> None:
                nonlocal failed
                for query in make_round(rng):
                    latency, status, document = client.timed_post("/query", query)
                    latencies.append(latency)
                    if status != 200 or document.get("status") != "ok":
                        failed += 1
                    answered.append((query, document))

            durations = harness.run_rounds(seconds, one_round)
            owner = coordinator_owner(handle)
            over = {"dataset": DATASETS[0], "kind": "mean",
                    "epsilon": owner["remaining"] + 1.0}
            status, refusal = client.post("/query", over)
            owner_after = coordinator_owner(handle)
        rss = sum(harness.peak_rss_mb(p.pid) for p in handle.processes.values())
    finally:
        handle.down()
    logs = sorted(workdir.glob("compose*/*.log"))
    problems += [f"traceback in {name}" for name in harness.scan_tracebacks(logs)]
    charges = [document.get("epsilon_charged", 0.0) for _, document in answered]
    for check, args in (
        (checks.check_ledger, (owner["spent"], charges, owner["capacity"])),
        (checks.check_refused, (status, refusal)),
        (checks.check_unchanged, (owner, owner_after, "coordinator ledger after a refusal")),
        (checks.check_parity, (
            [document.get("value") for _, document in answered],
            in_process_values(workdir, [query for query, _ in answered]),
            "cluster vs in-process answers",
        )),
    ):
        try:
            check(*args)
        except CheckFailed as exc:
            problems.append(str(exc))
    return {
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "p50_ms": harness.percentile(latencies, 50) * 1e3,
            "p90_ms": harness.percentile(latencies, 90) * 1e3,
            "queries_per_s": len(DATASETS) * len(KINDS) / float(np.median(durations)),
            "setup_s": float(np.median(boot_times)),
            "peak_rss_mb": rss,
        },
        "detail": {"rounds": len(durations), "boot_s": boot_times,
                   "coordinator": {k: owner[k] for k in ("spent", "releases", "remaining")}},
    }
