"""Shared pieces of the end-to-end benchmark: paths, inputs, statistics,
the keep-alive load client and the handle on a server process."""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".e2ebench_work"

#: Population seeded before the HTTP workloads are timed.
HTTP_POPULATION = 10_000
OWNERS = 100
#: Instances per batchCreate/batchAdvance request.
BATCH_ITEMS = 1000
#: Resources the server pre-creates for the instances sessions create; a
#: resource may carry several instances, so sessions cycle through them.
SESSION_RESOURCES = 1000
#: A run is this many rounds of set-up -> a slice of the timed work ->
#: close and reopen.  A shared host's CPU speed drifts over tens of
#: seconds, so set-up and recovery samples spread over the whole run, not
#: taken back to back, give medians that one slow stretch does not move.
ROUNDS = 3
#: How many times each round reopens the durable directory, each in a
#: fresh interpreter.
RECOVERIES = 3
#: Phase deadlines (days) of the EU-deliverable model the workloads publish.
DEADLINE_DAYS = {"elaboration": 30, "internalreview": 14, "finalassembly": 7,
                 "eureview": 60, "publication": 3}


def load_program() -> None:
    """Put the program's source on the import path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write("e2ebench: no program source under {}; run from the "
                         "root of a full checkout\n".format(SRC))
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(name: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = WORK_ROOT / "{}-{}".format(name, os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


# ----------------------------------------------------------------- inputs
def owners(seed: int) -> List[str]:
    rng = random.Random(seed * 7919 + 1)
    return ["owner-{:03d}-{:04x}".format(index, rng.randrange(16 ** 4))
            for index in range(OWNERS)]


def titles(seed: int, count: int, prefix: str) -> List[str]:
    """Seeded resource titles; the server creates the documents they name."""
    rng = random.Random("{}:{}".format(seed, prefix))
    return ["{} D{}.{} {:06x}".format(prefix, rng.randint(1, 9), index,
                                      rng.randrange(16 ** 6))
            for index in range(count)]


def eu_model_document() -> Dict[str, Any]:
    """The EU-deliverable lifecycle (paper Fig. 1) with per-phase deadlines."""
    from repro.templates.eu_deliverable import eu_deliverable_lifecycle

    return eu_deliverable_lifecycle(deadline_days=DEADLINE_DAYS).to_dict()


def bulk_model_document() -> Dict[str, Any]:
    """Work -> Review -> End; entering Work or Review invokes one action."""
    from repro.actions import library
    from repro.model import LifecycleBuilder

    builder = LifecycleBuilder("Bulk dispatch lifecycle")
    builder.phase("Work")
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    builder.action("Work", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    builder.action("Review", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="consortium")
    return builder.build().to_dict()


def reviewer_parameters(model_document: Dict[str, Any],
                        reviewers: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Instantiation parameters binding the reviewers of every notify call
    the model leaves unbound, so no action fails for lack of them."""
    from repro.actions import library

    bindings = {}
    for phase in model_document["phases"]:
        for call in phase.get("actions", []):
            if (call["action_uri"] == library.NOTIFY_REVIEWERS
                    and "reviewers" not in call.get("parameters", {})):
                bindings[call["call_id"]] = {"reviewers": list(reviewers)}
    return bindings


#: bulk_dispatch runs the dispatch experiment's deployment shape.
BULK_SHARDS = 16
BULK_COMPLETION_WORKERS = 256
BULK_ACTION_LATENCY = (0.02, 0.03)


def persistence_config(workload: str, directory):
    """Where and how a workload's service keeps its durable state."""
    from repro.persistence import PersistenceConfig

    if workload == "replicated_writes":
        return PersistenceConfig(str(directory), backend="sqlite", fsync="always")
    return PersistenceConfig(str(directory))


def build_service(workload: str, seed: int, config, environment):
    """The service a workload runs, opened on ``config``'s directory."""
    from repro.runtime.sharding import ShardedLifecycleManager
    from repro.service import GeleeService

    if workload != "bulk_dispatch":
        return GeleeService(environment=environment, persistence=config)
    manager = ShardedLifecycleManager(
        environment, shard_count=BULK_SHARDS, rng_seed=seed,
        simulated_action_latency=BULK_ACTION_LATENCY,
        completion_workers=BULK_COMPLETION_WORKERS)
    return GeleeService(manager=manager, persistence=config)


def reopen(workload: str, seed: int, directory) -> Dict[str, Any]:
    """Reopen a closed service's directory in a fresh interpreter
    (``reopen.py``), as a restarted process would: its ``seconds``, the
    recovered ``state`` and the records ``replayed``."""
    finished = subprocess.run(
        [sys.executable, str(BENCH_DIR / "reopen.py"), workload, str(seed),
         str(directory)],
        capture_output=True, text=True, check=True, timeout=120, cwd=str(ROOT))
    return json.loads(finished.stdout)


def durable_state(service) -> Dict[str, Any]:
    """What a recovery must reproduce: every instance's position, log size."""
    return {
        "instances": {instance.instance_id: [instance.status.value,
                                             instance.current_phase_id]
                      for instance in service.manager.instances()},
        "log_entries": len(service.execution_log),
    }


# ------------------------------------------------------------- statistics
def tail_quantile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it (<= p99)."""
    if count <= 20:
        return 0.5
    return min(0.99, 1.0 - 10.0 / count)


def quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def timing(values: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a sample, with the tail's percentile and count."""
    if not values:
        return {"n": 0, "median": 0.0, "tail": 0.0, "tail_q": 0.0}
    q = tail_quantile(len(values))
    return {"n": len(values), "median": statistics.median(values),
            "tail": quantile(values, q), "tail_q": q}


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """How much slower the traced operations of a traced run were, in %."""
    base = median_or_zero(untraced)
    if not traced or not base:
        return 0.0
    return (median_or_zero(traced) - base) / base * 100.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------- load client
class KeepAliveClient:
    """One persistent HTTP/1.1 connection, the way an SDK with connection
    reuse talks to the service.  TCP_NODELAY is set on the client side, so
    any Nagle stall measured is the server's."""

    def __init__(self, port: int, actor: str, timeout: float = 120.0):
        self._port = port
        self._actor = actor
        self._timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None
        self.connects = 0
        self.requests = 0

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection("127.0.0.1", self._port,
                                                timeout=self._timeout)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1
        return connection

    def call(self, method: str, path: str, body: Any = None,
             request_id: str = None):
        """One request: ``(status, envelope, seconds)``; raises on I/O errors."""
        if self._connection is None:
            self._connection = self._connect()
        headers = {"X-Gelee-Actor": self._actor}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id:
            headers["X-Request-Id"] = request_id
        started = time.perf_counter()
        try:
            self._connection.request(method, path, body=payload, headers=headers)
            response = self._connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        elapsed = time.perf_counter() - started
        self.requests += 1
        return response.status, json.loads(data) if data else None, elapsed

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


# -------------------------------------------------------- server process
class ServerProcess:
    """The system under test in its own interpreter (``server.py``).

    Control commands travel as JSON lines over the child's stdin; each gets
    one JSON line back on its stdout.  The HTTP port is the only other
    channel.
    """

    def __init__(self, workload: str, seed: int, trace: bool, directory: Path):
        self._process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"),
             "--workload", workload, "--seed", str(seed),
             "--trace", "1" if trace else "0", "--dir", str(directory)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT))
        ready = self._read()
        self.port = ready["port"]
        self.resources = ready["resources"]

    def _read(self) -> Dict[str, Any]:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("server process exited (code {})".format(
                self._process.wait(timeout=30)))
        return json.loads(line)

    def command(self, name: str, **arguments: Any) -> Dict[str, Any]:
        arguments["command"] = name
        self._process.stdin.write(json.dumps(arguments) + "\n")
        self._process.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise RuntimeError("server command {} failed: {}".format(
                name, reply["error"]))
        return reply

    def close(self) -> None:
        """Stop the child and wait for it, however the run ended."""
        process = self._process
        if process.poll() is None:
            try:
                process.stdin.close()
            except OSError:
                pass
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        process.stdout.close()
