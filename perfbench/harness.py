"""Shared plumbing: the source tree, processes, a keep-alive client, timing.

Everything the workloads share lives here so that each workload module reads
as its inputs, its timed loop and its checks.  Nothing in this module knows
about a particular workload.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Seconds a served process gets to answer its first /health.
READY_TIMEOUT = 60.0
#: Seconds between SIGINT and SIGKILL when stopping a served process.
STOP_GRACE = 10.0
#: Seconds a server gets to finish closing a connection the client has
#: closed before it is stopped.  The async front-end prints a CancelledError
#: traceback when SIGINT lands while it is still in ``writer.wait_closed()``
#: (see README.md, "Known faults").
CLOSE_GRACE = 0.2


class HarnessError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


class CheckFailed(AssertionError):
    """A correctness check rejected the program's output."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or refuse to run.

    The benchmark measures the program in the checkout it sits in; an
    installed ``repro`` elsewhere must never stand in for a missing tree.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHASHSEED", None)
    return env


def make_workdir(workload: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass


# ---------------------------------------------------------------------------
# provenance


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# statistics


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated as ``statistics.quantiles``."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise HarnessError(f"process {pid} reports no VmHWM")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(seconds: float, one_round: Callable[[int], None]) -> List[float]:
    """Run whole rounds until ``seconds`` have passed; each round's duration.

    Throughput is reported from the median round, so a burst of noise from
    the rest of the machine moves one round, not the result.
    """
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_round(len(durations))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start >= seconds:
            return durations


# ---------------------------------------------------------------------------
# processes


class Served:
    """One ``repro serve`` process, its log, and its address."""

    def __init__(self, config_path: Path, workdir: Path, name: str):
        self.name = name
        self.log_path = workdir / f"{name}.log"
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--config",
                 str(config_path), "--port", "0", "--quiet"],
                stdout=self._log, stderr=subprocess.STDOUT,
                env=child_env(), cwd=str(workdir),
            )
        finally:
            self._log.close()
        try:
            self.host, self.port = self._wait_address(started)
            self._wait_health(started)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_address(self, started: float) -> Tuple[str, int]:
        marker = b"listening on http://"
        while time.perf_counter() - started < READY_TIMEOUT:
            text = self.log_path.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"\n" in text[at:]:
                address = text[at + len(marker):].split(b"\n", 1)[0].decode()
                host, _, port = address.rpartition(":")
                return host, int(port)
            if self.process.poll() is not None:
                raise HarnessError(f"{self.name} exited at boot:\n{text.decode()[-2000:]}")
            time.sleep(0.005)
        raise HarnessError(f"{self.name} printed no address")

    def _wait_health(self, started: float) -> None:
        while time.perf_counter() - started < READY_TIMEOUT:
            try:
                with Client(self.host, self.port) as client:
                    status, _ = client.get("/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise HarnessError(f"{self.name} never answered /health")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaped."""
        if self.process.poll() is None:
            time.sleep(CLOSE_GRACE)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_GRACE)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def scan_tracebacks(paths: Sequence[Path]) -> List[str]:
    """``name: last lines`` of every log holding a Python traceback."""
    found = []
    for path in paths:
        text = path.read_bytes() if path.exists() else b""
        at = text.find(b"Traceback")
        if at >= 0:
            tail = text[at:].decode(errors="replace").strip().splitlines()[-3:]
            found.append(f"{path.name}: {' | '.join(tail)}")
    return found


# ---------------------------------------------------------------------------
# client


class Client:
    """One keep-alive HTTP/1.1 connection; every call waits for its answer."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.connection = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(
        self, method: str, path: str, payload: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        sent = {"Content-Type": "application/json"} if body is not None else {}
        sent.update(headers or {})
        self.connection.request(method, path, body=body, headers=sent)
        response = self.connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None

    def get(self, path: str) -> Tuple[int, Any]:
        return self.request("GET", path)

    def post(self, path: str, payload: Any, headers=None) -> Tuple[int, Any]:
        return self.request("POST", path, payload, headers)

    def timed_post(self, path: str, payload: Any, headers=None) -> Tuple[float, int, Any]:
        start = time.perf_counter()
        status, document = self.request("POST", path, payload, headers)
        return time.perf_counter() - start, status, document

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def write_inputs(workdir: Path, datasets: Dict[str, Any], config_name: str,
                 document: Dict[str, Any]) -> Dict[str, Any]:
    """Each dataset as ``<name>.npy`` plus the serving config, in ``workdir``."""
    for name, values in datasets.items():
        np.save(workdir / f"{name}.npy", values)
    (workdir / config_name).write_text(json.dumps(document, indent=2) + "\n")
    return datasets


def boot_served(workdir: Path, boots: int = 3) -> Tuple[Served, List[float], List[Path]]:
    """Boot ``serve.json`` ``boots`` times and keep the last server running.

    Set-up time is the median of the boots; each earlier server is stopped
    and its audit chain removed before the next boots, so the kept server
    starts a fresh chain.  Returns (server, boot times, every log).
    """
    times, logs = [], []
    for index in range(boots):
        server = Served(workdir / "serve.json", workdir, f"serve{index}")
        times.append(server.boot_s)
        logs.append(server.log_path)
        if index < boots - 1:
            server.stop()
            (workdir / "audit.jsonl").unlink(missing_ok=True)
    return server, times, logs


def verify_audit(path: Path, live: Dict[str, float]) -> List[str]:
    """``repro audit verify`` passes and the replay equals the live ledgers."""
    import checks
    from repro.obs import replay_spend

    verify = subprocess.run(
        [sys.executable, "-m", "repro", "audit", "verify", str(path)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    problems = []
    if verify.returncode != 0 or "chain=ok" not in verify.stdout:
        problems.append(f"repro audit verify failed: {verify.stdout}{verify.stderr}")
    report = replay_spend(path)
    replayed = {owner: entry["spent"] for owner, entry in report["owners"].items()}
    try:
        checks.check_replay(replayed, live)
    except CheckFailed as exc:
        problems.append(str(exc))
    return problems
