"""The traced run: per-layer metrics, timed from outside the program.

Spans are recorded by wrapping the public functions of each layer in the
benchmark's own process (every module attribute or class attribute that
holds the function is swapped for the wrapper for the length of one pass,
then restored).  A layer's self time is its wrapped time minus the wrapped
calls nested inside it.  Where the real server is another process, the pass
replays the same requests through an in-process replica of its config, and
reads the server's own ``/debug/traces`` and ``/datasets`` surfaces for what
only the server can say (time spent off the server, cache counters).

A traced run of one workload runs that workload's pass for the run length,
then a short pass of each other workload for the layers it alone exercises,
so every traced run reports every per-layer metric.  The ``paper_trials``
pass is one of those short passes in every traced run; it has no timed run
(see paper_trials.py).  Layer numbers never come from the timed run.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

import harness
from harness import Client

UNITS = {
    "mechanisms.exponential_ms": "ms",
    "mechanisms.exponential_calls": "count",
    "empirical.range_ms": "ms",
    "empirical.radius_ms": "ms",
    "core.mean_ms": "ms",
    "core.variance_ms": "ms",
    "core.iqr_ms": "ms",
    "core.quantiles_ms": "ms",
    "baselines.dwork_lei_iqr_ms": "ms",
    "kernels.release_share": "1",
    "dataview.precompute_s": "s",
    "engine.run_grid_overhead_ms": "ms",
    "distributions.sample_ms": "ms",
    "distributions.quantile_ms": "ms",
    "service.submit_self_us": "us",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.wire.parse_us": "us",
    "service.wire.answer_doc_us": "us",
    "service.registry.reserve_us": "us",
    "service.registry.commit_us": "us",
    "obs.audit_record_us": "us",
    "obs.audit_records": "count",
    "service.http.off_server_ms": "ms",
    "service.aio.off_server_ms": "ms",
    "cluster.router.hop_ms": "ms",
    "cluster.coordinator.rpc_ms": "ms",
    "cluster.coordinator.releases": "count",
    "cluster.compose.coordinator_boot_s": "s",
    "cluster.compose.shards_boot_s": "s",
    "cluster.compose.router_boot_s": "s",
}

#: Kernel layers whose self time makes up ``kernels.release_share``.
KERNELS = ("mechanisms.exponential", "empirical.range", "empirical.radius",
           "core.mean", "core.variance", "core.iqr", "core.quantiles",
           "baselines.dwork_lei_iqr")

#: Seconds each short pass gets in another workload's traced run.
FILL_SECONDS = 1.0


class Tracer:
    """Per-layer call counts, wall time and self time, kept in memory."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self.calls: Dict[str, int] = {}
        self.wall: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.wall[name] = self.wall.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - children[0]
        return traced

    def per_call(self, name: str, scale: float) -> float:
        return self.self_time[name] / self.calls[name] * scale

    def has(self, name: str) -> bool:
        return self.calls.get(name, 0) > 0


def _targets() -> List[Tuple[str, Any, str]]:
    """(layer name, owner, attribute) of every wrapped public function."""
    import repro.core.iqr
    import repro.core.mean
    import repro.core.quantiles
    import repro.core.variance
    import repro.empirical.radius
    import repro.empirical.range_finder
    import repro.engine.grid
    import repro.mechanisms.exponential
    import repro.service.wire
    from repro.baselines import DworkLeiIQR
    from repro.dataview import DatasetView
    from repro.distributions import base, continuous
    from repro.obs import AuditLog
    from repro.service import BudgetManager, QueryService

    targets = [
        ("mechanisms.exponential", repro.mechanisms.exponential, "finite_domain_quantile"),
        ("empirical.range", repro.empirical.range_finder, "estimate_range"),
        ("empirical.radius", repro.empirical.radius, "estimate_radius"),
        ("core.mean", repro.core.mean, "estimate_mean"),
        ("core.variance", repro.core.variance, "estimate_variance"),
        ("core.iqr", repro.core.iqr, "estimate_iqr"),
        ("core.quantiles", repro.core.quantiles, "estimate_quantiles"),
        ("engine.run_grid", repro.engine.grid, "run_grid"),
        ("service.wire.parse", repro.service.wire, "parse_request"),
        ("service.wire.answer_doc", repro.service.wire, "answer_document"),
        ("baselines.dwork_lei_iqr", DworkLeiIQR, "estimate"),
        ("dataview.precompute", DatasetView, "precompute"),
        ("service.submit", QueryService, "submit"),
        ("service.submit", QueryService, "submit_many"),
        ("service.registry.reserve", BudgetManager, "reserve"),
        ("service.registry.commit", BudgetManager, "commit"),
        ("obs.audit_record", AuditLog, "record"),
    ]
    for module in (base, continuous):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, base.Distribution):
                for method in ("sample", "quantile"):
                    if method in vars(value):
                        targets.append((f"distributions.{method}", value, method))
    return targets


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the body of the ``with``; always restore."""
    import sys

    restore: List[Tuple[Any, str, Any]] = []
    try:
        for name, owner, attribute in _targets():
            original = vars(owner)[attribute]
            wrapper = tracer.wrap(name, original)
            if name == "engine.run_grid":
                wrapper = _grid_wrapper(tracer, wrapper)
            if isinstance(owner, type):
                restore.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
                continue
            # Functions imported by name elsewhere are bound in those modules
            # too: swap every binding of the same object.
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and vars(module).get(attribute) is original:
                    restore.append((module, attribute, original))
                    setattr(module, attribute, wrapper)
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


def _grid_wrapper(tracer: Tracer, traced_grid: Callable) -> Callable:
    """run_grid with every cell's trial function traced as ``engine.trial``."""
    @functools.wraps(traced_grid)
    def run_grid(cells, *args, **kwargs):
        cells = [
            dataclasses.replace(cell, trial_fn=tracer.wrap("engine.trial", cell.trial_fn))
            for cell in cells
        ]
        return traced_grid(cells, *args, **kwargs)
    return run_grid


# ---------------------------------------------------------------------------
# turning spans into metrics


def kernel_metrics(tracer: Tracer, release_wall: float) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    names = {
        "mechanisms.exponential": "mechanisms.exponential_ms",
        "empirical.range": "empirical.range_ms",
        "empirical.radius": "empirical.radius_ms",
        "core.mean": "core.mean_ms",
        "core.variance": "core.variance_ms",
        "core.iqr": "core.iqr_ms",
        "core.quantiles": "core.quantiles_ms",
        "baselines.dwork_lei_iqr": "baselines.dwork_lei_iqr_ms",
    }
    for layer, metric in names.items():
        if tracer.has(layer):
            metrics[metric] = tracer.per_call(layer, 1e3)
    if tracer.has("mechanisms.exponential"):
        metrics["mechanisms.exponential_calls"] = tracer.calls["mechanisms.exponential"]
    if tracer.has("engine.run_grid"):
        metrics["engine.run_grid_overhead_ms"] = tracer.per_call("engine.run_grid", 1e3)
    kernel_self = sum(tracer.self_time.get(layer, 0.0) for layer in KERNELS)
    if release_wall > 0 and kernel_self > 0:
        metrics["kernels.release_share"] = kernel_self / release_wall
    return metrics


def service_metrics(tracer: Tracer) -> Dict[str, float]:
    pairs = {
        "service.submit": "service.submit_self_us",
        "service.wire.parse": "service.wire.parse_us",
        "service.wire.answer_doc": "service.wire.answer_doc_us",
        "service.registry.reserve": "service.registry.reserve_us",
        "service.registry.commit": "service.registry.commit_us",
        "obs.audit_record": "obs.audit_record_us",
    }
    metrics = {metric: tracer.per_call(layer, 1e6)
               for layer, metric in pairs.items() if tracer.has(layer)}
    if tracer.has("obs.audit_record"):
        metrics["obs.audit_records"] = tracer.calls["obs.audit_record"]
    if tracer.has("dataview.precompute"):
        metrics["dataview.precompute_s"] = tracer.wall["dataview.precompute"]
    return metrics


# ---------------------------------------------------------------------------
# in-process replicas of the served configs


def build_replica(config_path, workdir):
    """``build_service`` on the served config, one worker, audit log kept."""
    from repro.service import build_service
    from repro.service.config import ObservabilityConfig, load_serving_config

    config = load_serving_config(config_path)
    config = dataclasses.replace(
        config, workers=1, cluster=None,
        observability=ObservabilityConfig(
            trace_ring=0, audit_log=str(workdir / "replica-audit.jsonl")),
    )
    return build_service(config)


def replay(service, request: Dict[str, Any]) -> List[Any]:
    """One request through the replica as a front-end handles it: decode,
    parse, submit, build the answer documents, encode.  Returns the values."""
    from repro.service import wire

    payload = json.loads(json.dumps(request))
    if "queries" in payload:
        requests = [wire.parse_request(query) for query in payload["queries"]]
        documents = [wire.answer_document(a) for a in service.submit_many(requests)]
        json.dumps(wire.answers_document(documents))
    else:
        documents = [wire.answer_document(service.submit(wire.parse_request(payload)))]
        json.dumps(documents[0])
    return [document["value"] for document in documents]


def off_server(client: Client, requests: List[Dict[str, Any]]):
    """Client wall minus the server's own trace ``duration_ms``, per request.

    At most one ``/debug/traces`` page of requests: their traces are read
    back in one GET after the last of them.  Returns (gaps in ms, client
    walls in ms, answer documents, requests that failed).
    """
    from repro.obs import mint_trace_id

    sent, documents, failed = {}, [], 0
    for request in requests:
        trace_id = mint_trace_id()
        latency, status, document = client.timed_post(
            "/query", request, {"X-Repro-Trace-Id": trace_id})
        sent[trace_id] = latency * 1e3
        documents.append(document)
        failed += status != 200
    _, page = client.get("/debug/traces")
    server_ms = {trace["trace"]: trace["duration_ms"] for trace in page["traces"]}
    gaps = [wall - server_ms[tid] for tid, wall in sent.items() if tid in server_ms]
    return gaps, list(sent.values()), documents, failed


def cache_counts(client: Client) -> Dict[str, float]:
    _, stats = client.get("/datasets")
    return {"service.cache.hits": stats["cache"]["hits"],
            "service.cache.misses": stats["cache"]["misses"]}


def for_seconds(seconds: float, step: Callable[[], Any]) -> List[Any]:
    """Call ``step`` until ``seconds`` have passed (at least once)."""
    results: List[Any] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(step())
    return results


# ---------------------------------------------------------------------------
# one pass per workload


def cold_release_pass(seed: int, seconds: float, workdir) -> Dict[str, Any]:
    import cold_release

    cold_release.write_inputs(workdir, seed)
    rng = np.random.default_rng([seed, 202])
    server = harness.Served(workdir / "serve.json", workdir, "serve-traced")
    try:
        with Client(server.host, server.port) as client:
            requests = [r for _ in range(2) for r in cold_release.make_round(rng)]
            gaps, _, served, failed = off_server(client, requests)
            metrics = {"service.aio.off_server_ms": statistics.median(gaps)}
            metrics.update(cache_counts(client))
    finally:
        server.stop()
    tracer = Tracer()
    with installed(tracer):
        with build_replica(workdir / "serve.json", workdir) as built:
            release_start = tracer.wall.get("service.submit", 0.0)
            values = [v for request in requests for v in replay(built.service, request)]
            extra = for_seconds(seconds, lambda: [
                replay(built.service, request) for request in cold_release.make_round(rng)])
    metrics.update(kernel_metrics(tracer, tracer.wall["service.submit"] - release_start))
    metrics.update(service_metrics(tracer))
    served_values = [a.get("value") for doc in served for a in cold_release.answers_of(doc)]
    problems = [] if values == served_values else \
        ["cold_release: replica answers differ from the served answers"]
    problems += [f"traceback in {n}" for n in harness.scan_tracebacks([server.log_path])]
    return {"metrics": metrics, "attempted": len(requests) * 2 + sum(map(len, extra)),
            "failed": failed, "problems": problems}


def cached_http_pass(seed: int, seconds: float, workdir) -> Dict[str, Any]:
    import cached_http

    cached_http.write_inputs(workdir, seed)
    catalogue = cached_http.make_catalogue(seed)
    weights = cached_http.zipf_weights(len(catalogue))
    rng = np.random.default_rng([seed, 303])

    def repeats() -> List[Dict[str, Any]]:
        return [catalogue[i] for i in rng.choice(len(catalogue), cached_http.ROUND, p=weights)]

    server = harness.Served(workdir / "serve.json", workdir, "serve-traced")
    try:
        with Client(server.host, server.port) as client:
            cached_http.release_catalogue(client, catalogue)
            requests: List[Dict[str, Any]] = []

            def one_round():
                batch = repeats()
                requests.extend(batch)
                return off_server(client, batch)

            rounds = for_seconds(seconds, one_round)
            gaps = [gap for round_gaps, _, _, _ in rounds for gap in round_gaps]
            walls = [wall for _, round_walls, _, _ in rounds for wall in round_walls]
            failed = sum(round_failed for _, _, _, round_failed in rounds)
            metrics = {"service.http.off_server_ms": statistics.median(gaps),
                       "client_wall_ms": statistics.median(walls)}
            metrics.update(cache_counts(client))
    finally:
        server.stop()
    tracer = Tracer()
    with installed(tracer):
        with build_replica(workdir / "serve.json", workdir) as built:
            for query in catalogue:
                replay(built.service, query)
            tracer.calls.clear(), tracer.wall.clear(), tracer.self_time.clear()
            for request in requests:
                replay(built.service, request)
    metrics.update(service_metrics(tracer))
    metrics.pop("dataview.precompute_s", None)
    problems = [f"traceback in {n}" for n in harness.scan_tracebacks([server.log_path])]
    return {"metrics": metrics, "attempted": len(requests), "failed": failed,
            "problems": problems}


def cluster_group_pass(seed: int, seconds: float, workdir) -> Dict[str, Any]:
    import cluster_group
    import repro.cluster.compose as compose
    from repro.cluster.ring import HashRing, route_key
    from repro.cluster.rpc import CoordinatorClient

    cluster_group.write_inputs(workdir, seed)
    rng = np.random.default_rng([seed, 402])
    marks: List[Tuple[str, float]] = []
    waits = {name: getattr(compose, name)
             for name in ("_wait_coordinator_ready", "_wait_http_ready")}

    def marking(name: str) -> Callable:
        def wait(*args, **kwargs):
            waits[name](*args, **kwargs)
            marks.append((name, time.perf_counter()))
        return wait

    started = time.perf_counter()
    for name in waits:
        setattr(compose, name, marking(name))
    try:
        handle = compose.compose_up(workdir / "cluster.json", workdir / "compose-traced")
    finally:
        for name, original in waits.items():
            setattr(compose, name, original)
    # Boot order: coordinator, every shard, then the router.
    ready = [at for _, at in marks]
    metrics = {
        "cluster.compose.coordinator_boot_s": ready[0] - started,
        "cluster.compose.shards_boot_s": ready[-2] - ready[0],
        "cluster.compose.router_boot_s": ready[-1] - ready[-2],
    }
    try:
        with Client(handle.plan.host, handle.plan.router_port) as router:
            requests: List[Dict[str, Any]] = []
            failed = 0

            def one_round() -> None:
                nonlocal failed
                for query in cluster_group.make_round(rng):
                    status, document = router.post("/query", query)
                    failed += status != 200 or document.get("status") != "ok"
                    requests.append(query)

            for_seconds(seconds, one_round)
            probe = requests[0]
            owner = HashRing(range(handle.plan.shards)).owner(
                route_key(probe["dataset"], probe["kind"]))
            with Client(handle.plan.host, handle.plan.shard_ports[owner]) as shard:
                via_router = [router.timed_post("/query", probe)[0] for _ in range(30)]
                direct = [shard.timed_post("/query", probe)[0] for _ in range(30)]
        metrics["cluster.router.hop_ms"] = (statistics.median(via_router)
                                            - statistics.median(direct)) * 1e3
        metrics["direct_shard_ms"] = statistics.median(direct) * 1e3
        rpc = CoordinatorClient(*handle.coordinator_endpoint)
        try:
            pings = []
            for _ in range(50):
                start = time.perf_counter()
                rpc.ping()
                pings.append(time.perf_counter() - start)
            owners = rpc.call("stats")["owners"]
        finally:
            rpc.close()
        metrics["cluster.coordinator.rpc_ms"] = statistics.median(pings) * 1e3
        metrics["cluster.coordinator.releases"] = sum(o["releases"] for o in owners.values())
    finally:
        handle.down()
    tracer = Tracer()
    with installed(tracer):
        with build_replica(workdir / "cluster.json", workdir) as built:
            before = tracer.wall.get("service.submit", 0.0)
            for query in requests:
                replay(built.service, query)
    metrics.update(kernel_metrics(tracer, tracer.wall["service.submit"] - before))
    metrics.update(service_metrics(tracer))
    problems = [f"traceback in {n}" for n in
                harness.scan_tracebacks(sorted(workdir.glob("compose-traced/*.log")))]
    return {"metrics": metrics, "attempted": len(requests) + 60, "failed": failed,
            "problems": problems}


def paper_trials_pass(seed: int, seconds: float, workdir) -> Dict[str, Any]:
    import paper_trials

    grid = paper_trials.set_up(seed)
    rounds = itertools.count()
    tracer = Tracer()
    with installed(tracer):
        results = for_seconds(seconds, lambda: grid.run(next(rounds)))
    metrics = kernel_metrics(tracer, tracer.wall["engine.run_grid"])
    for layer in ("distributions.sample", "distributions.quantile"):
        metrics[f"{layer}_ms"] = tracer.per_call(layer, 1e3)
    failed = sum(any(cell.failures for cell in cells.values()) for cells in results)
    return {"metrics": metrics, "attempted": len(results), "failed": failed,
            "problems": paper_trials.check_outputs(grid)}


PASSES = {
    "cold_release": cold_release_pass,
    "cached_http": cached_http_pass,
    "cluster_group": cluster_group_pass,
    "paper_trials": paper_trials_pass,
}


def traced(workload: str, seed: int, seconds: float, workdir) -> Dict[str, Any]:
    """The workload's pass for ``seconds``, then short passes of the others."""
    order = [workload] + [name for name in PASSES if name != workload]
    metrics: Dict[str, float] = {}
    detail: Dict[str, Any] = {}
    attempted = failed = 0
    problems: List[str] = []
    for name in order:
        subdir = workdir / name
        subdir.mkdir()
        started = time.perf_counter()
        outcome = PASSES[name](seed, seconds if name == workload else FILL_SECONDS, subdir)
        detail[name] = {"seconds": time.perf_counter() - started, **outcome["metrics"]}
        for metric, value in outcome["metrics"].items():
            if metric in UNITS:
                metrics.setdefault(metric, value)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        problems += outcome["problems"]
    missing = sorted(set(UNITS) - set(metrics))
    if missing:
        raise harness.HarnessError(f"traced run produced no {missing}")
    return {"metrics": {name: metrics[name] for name in UNITS}, "attempted": attempted,
            "failed": failed, "problems": problems, "detail": {"passes": detail}}
