"""The two HTTP workloads: a load generator driving ``server.py``.

Both are closed loops: each client sends its next request only after the
previous reply, because Gelee's callers (the SDK, workflow tools, cockpit
widgets) each wait for their answer.
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import common
import layers
from repro.templates.eu_deliverable import EU_DELIVERABLE_PHASES

#: http_sessions: client threads, each on its own persistent connection.
SESSION_CLIENTS = 2
#: Sessions per second of ``--seconds``, about the seed commit's rate.  Every
#: workload does a fixed amount of work sized this way, so runs of one
#: program do identical work and a faster program simply finishes sooner.
SESSIONS_PER_SECOND = 3


class Tally:
    """Timed requests of one workload, with the checks they failed."""

    def __init__(self):
        self.lock = threading.Lock()
        self.samples: List[Tuple[str, float, bool, Optional[str]]] = []
        self.failed = 0
        self.problems: List[str] = []
        self.routes: Counter = Counter()

    def add(self, route: str, seconds: float, traced: bool,
            request_id: Optional[str], problem: Optional[str] = None,
            failures: int = 1) -> None:
        """One timed request; ``failures`` operations failed if ``problem``."""
        with self.lock:
            self.samples.append((route, seconds, traced, request_id))
            self.routes[route] += 1
        if problem is not None:
            self.fail(problem, failures)

    def fail(self, problem: str, count: int = 1) -> None:
        with self.lock:
            self.failed += count
            if len(self.problems) < 5:
                self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        """Add one round's requests and failures to the run's."""
        self.samples.extend(other.samples)
        self.routes.update(other.routes)
        for problem in other.problems:
            self.fail(problem, 0)
        self.failed += other.failed


def _ok(status: int, envelope: Any) -> bool:
    return status < 300 and isinstance(envelope, dict) and envelope.get("error") is None


def seed_population(client: common.KeepAliveClient, model: Dict[str, Any],
                    documents: List[Dict[str, Any]], seed: int,
                    parameters: Dict[str, Any] = None) -> Tuple[str, List[str]]:
    """Publish ``model`` and batchCreate one instance per document."""
    status, envelope, _ = client.call("POST", "/v2/models", {"model": model})
    if not _ok(status, envelope):
        raise RuntimeError("model publication failed: {}".format(envelope))
    model_uri = envelope["data"]["uri"]
    order = list(documents)
    random.Random("{}:instances".format(seed)).shuffle(order)
    ids = []
    for offset in range(0, len(order), common.BATCH_ITEMS):
        items = []
        for document in order[offset:offset + common.BATCH_ITEMS]:
            item = {"model_uri": model_uri, "resource": document,
                    "owner": document["owner"]}
            if parameters:
                item["parameters"] = parameters
            items.append(item)
        status, envelope, _ = client.call("POST", "/v2/instances:batchCreate",
                                          {"items": items})
        if not _ok(status, envelope) or envelope["data"]["failed"]:
            raise RuntimeError("batchCreate failed: {}".format(
                str(envelope)[:300]))
        ids.extend(result["instance_id"] for result in envelope["data"]["results"])
    return model_uri, ids


class Deployment:
    """One set-up of a workload's server: launch it, publish the model and
    seed the population, timed as ``setup_seconds``."""

    def __init__(self, workload: str, seed: int, trace: bool, directory,
                 model: Dict[str, Any], parameters: Dict[str, Any] = None):
        self.server = None
        started = time.perf_counter()
        try:
            self.server = common.ServerProcess(workload, seed, trace, directory)
            with open(self.server.resources) as handle:
                self.documents = json.load(handle)
            client = common.KeepAliveClient(self.server.port, "coordinator")
            try:
                self.model_uri, self.ids = seed_population(
                    client, model, self.documents["population"], seed,
                    parameters)
            finally:
                client.close()
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def _finish(deployment: Deployment, tally: Tally, ops: int, traced_ops: int,
            trace: bool, touched: int = 0) -> Dict[str, Any]:
    server = deployment.server
    server.command("end", ops=ops, traced_ops=traced_ops)
    check = server.command("check", ids=deployment.ids[:touched])
    if check["failed"]:
        tally.fail("; ".join(check["problems"]), check["failed"])
    traced_ids = [rid for _, _, traced, rid in tally.samples if traced and rid]
    return server.command("finish", request_ids=traced_ids if trace else [])


def _transport(tally: Tally, handle_seconds: Dict[str, float]) -> float:
    gaps = [seconds - handle_seconds[rid]
            for _, seconds, traced, rid in tally.samples
            if traced and rid in handle_seconds]
    return common.median_or_zero(gaps) * 1e3


def _layer_report(final: Dict[str, Any], tally: Tally,
                  clients: List[common.KeepAliveClient]) -> Dict[str, Any]:
    report = final["layers"]
    metrics = report["metrics"]
    metrics["http.transport_ms"] = _transport(tally, report["handle_seconds"])
    metrics["http.connects_per_request"] = (
        sum(c.connects for c in clients) / max(1, sum(c.requests for c in clients)))
    return {"metrics": metrics, "flags": report["flags"]}


class Rounds:
    """The rounds of one run, added up."""

    def __init__(self):
        self.tally = Tally()
        self.setups: List[float] = []
        self.recoveries: List[float] = []
        self.elapsed = 0.0
        self.attempted = 0
        self.advanced = 0
        self.peak_rss_mb = 0.0
        self.instances = 0
        self.reports: List[Dict[str, Any]] = []


def run_rounds(workload: str, seed: int, trace: bool, model: Dict[str, Any],
               parameters: Optional[Dict[str, Any]], play) -> Rounds:
    """``common.ROUNDS`` rounds of: set up a fresh server, ``play`` one slice
    of the timed work against it, stop it, then reopen its directory
    ``common.RECOVERIES`` times, verifying the recovered state.

    ``play(number, deployment, tally)`` returns the slice's timed
    ``elapsed`` seconds, ``attempted`` and ``advanced`` counts, the
    ``ops``/``traced_ops`` the per-op figures divide by, how many of the
    deployment's ids it ``touched`` and the ``clients`` it used.
    """
    directory = common.work_dir(workload)
    rounds = Rounds()
    try:
        for number in range(common.ROUNDS):
            round_directory = directory / "round-{}".format(number)
            deployment = Deployment(workload, seed, trace, round_directory,
                                    model, parameters)
            try:
                tally = Tally()
                deployment.server.command("begin")
                played = play(number, deployment, tally)
                final = _finish(deployment, tally, played["ops"],
                                played["traced_ops"], trace,
                                played.get("touched", 0))
            finally:
                deployment.close()
            for _ in range(common.RECOVERIES):
                reopened = common.reopen(workload, seed,
                                         round_directory / "durable")
                if reopened["state"] != final["expected"]:
                    tally.fail("recovered state differs from the closed service")
                rounds.recoveries.append(reopened["seconds"])
            rounds.tally.merge(tally)
            rounds.setups.append(deployment.setup_seconds)
            rounds.elapsed += played["elapsed"]
            rounds.attempted += played["attempted"]
            rounds.advanced += played["advanced"]
            rounds.peak_rss_mb = max(rounds.peak_rss_mb, final["peak_rss_mb"])
            rounds.instances = len(final["expected"]["instances"])
            if trace and played["traced_ops"]:
                report = _layer_report(final, tally, played["clients"])
                report["metrics"]["recovery.records_replayed"] = float(
                    reopened["replayed"])
                rounds.reports.append(report)
    finally:
        common.remove_work_dir(directory)
    return rounds


def _result(rounds: Rounds, trace: bool, mix: Dict[str, Any]) -> Dict[str, Any]:
    samples = rounds.tally.samples
    result = {
        "attempted": rounds.attempted, "failed": rounds.tally.failed,
        "problems": rounds.tally.problems,
        "latency": common.timing([s * 1e3 for _, s, t, _ in samples
                                  if not t or not trace]),
        "setup_s": rounds.setups,
        "requests_per_s": len(samples) / rounds.elapsed,
        "advances_per_s": rounds.advanced / rounds.elapsed,
        "recovery_s": rounds.recoveries,
        "peak_rss_mb": rounds.peak_rss_mb,
        "mix": dict(mix, rounds=common.ROUNDS, route_counts=dict(rounds.tally.routes)),
    }
    if trace:
        report = layers.combine_rounds(rounds.reports)
        # Traced and untraced requests may fall in different rounds, so the
        # overhead compares them over the whole run.
        report["metrics"]["trace.overhead_pct"] = common.overhead_pct(
            [s for _, s, traced, _ in samples if traced],
            [s for _, s, traced, _ in samples if not traced])
        result["layers"] = report
    return result


# ------------------------------------------------------------ http_sessions
def _session(client: common.KeepAliveClient, tally: Tally, number: int,
             seed: int, model_uri: str, documents, owners, parameters,
             traced: bool, thread: int) -> int:
    """One user session (15 requests, 7 writes and 8 reads); returns the
    number of token moves that succeeded."""
    rng = random.Random("{}:session:{}".format(seed, number))
    document = documents[rng.randrange(len(documents))]
    owner = rng.choice(owners)
    counter = [0]
    moves = 0

    def call(route, method, path, body=None, check=None):
        counter[0] += 1
        request_id = "e2e-{}-{}-{}-{}".format(int(traced), thread, number,
                                              counter[0])
        status, envelope, seconds = client.call(method, path, body, request_id)
        problem = None
        if not _ok(status, envelope):
            problem = "{} {} -> {} {}".format(method, path, status,
                                             str(envelope)[:200])
        elif check is not None:
            try:
                problem = check(envelope["data"], envelope)
            except (KeyError, IndexError, TypeError) as exc:
                problem = "{} {}: unexpected reply shape ({!r})".format(
                    method, path, exc)
        tally.add(route, seconds, traced, request_id, problem)
        return envelope["data"] if problem is None else None

    created = call("create", "POST", "/v2/instances", {
        "model_uri": model_uri, "resource": document, "owner": owner,
        "parameters": parameters})
    if created is None:
        return moves
    instance_id = created["instance_id"]
    path = "/v2/instances/" + instance_id
    phases = EU_DELIVERABLE_PHASES

    def actions_completed(data):
        statuses = [invocation["status"]
                    for invocation in data["visits"][-1]["invocations"]]
        return None if all(status == "completed" for status in statuses) else (
            "{} has actions {}".format(instance_id, statuses))

    def at(phase):
        return lambda data, _: None if data["current_phase_id"] == phase else (
            "{} at {} not {}".format(instance_id, data["current_phase_id"], phase))

    if call("start", "POST", path + ":start", {}, check=at(phases[0])) is None:
        return moves
    moves += 1
    call("get", "GET", path, check=at(phases[0]))
    for phase in phases[1:]:
        if call("advance", "POST", path + ":advance", {"to_phase_id": phase},
                check=at(phase)) is None:
            return moves
        moves += 1
        call("get", "GET", path, check=lambda data, _, phase=phase: (
            at(phase)(data, _) or actions_completed(data)))

    def history_check(data, envelope):
        entered = [entry["payload"].get("phase_id") for entry in data
                   if entry["kind"] == "instance.phase_entered"]
        return None if entered == phases else "history of {} enters {}".format(
            instance_id, entered)

    call("history", "GET", path + "/history?page_size=50", check=history_check)
    call("list", "GET", "/v2/instances?owner={}&page_size=20".format(owner),
         check=lambda data, _: None if data and all(
             item["owner"] == owner for item in data) else "owner page mixed")
    return moves


def http_sessions(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    model = common.eu_model_document()
    reviewers = ["reviewer-{}".format(random.Random(seed).randrange(1000)),
                 "reviewer-board"]
    parameters = common.reviewer_parameters(model, reviewers)
    owners = common.owners(seed)
    planned = max(SESSION_CLIENTS * common.ROUNDS,
                  round(seconds * SESSIONS_PER_SECOND))

    def play(number: int, deployment: Deployment, tally: Tally) -> Dict[str, Any]:
        first = planned * number // common.ROUNDS
        last = planned * (number + 1) // common.ROUNDS
        clients = [common.KeepAliveClient(deployment.server.port, "owner")
                   for _ in range(SESSION_CLIENTS)]
        moves = Counter()

        def loop(thread: int) -> None:
            session = first + thread
            while session < last:
                traced = trace and (session // SESSION_CLIENTS) % 2 == 0
                try:
                    moves[thread] += _session(
                        clients[thread], tally, session, seed,
                        deployment.model_uri, deployment.documents["sessions"],
                        owners, parameters, traced, thread)
                except Exception as exc:  # noqa: BLE001 - a failed session is counted
                    tally.fail("session {}: {!r}".format(session, exc))
                session += SESSION_CLIENTS

        started = time.perf_counter()
        threads = [threading.Thread(target=loop, args=(index,))
                   for index in range(SESSION_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for client in clients:
            client.close()
        requests = len(tally.samples)
        return {"elapsed": elapsed, "attempted": requests, "ops": requests,
                "traced_ops": sum(1 for sample in tally.samples if sample[2]),
                "advanced": sum(moves.values()), "clients": clients}

    rounds = run_rounds("http_sessions", seed, trace, model, parameters, play)
    requests = len(rounds.tally.samples)
    writes = sum(rounds.tally.routes[r] for r in ("create", "start", "advance"))
    return _result(rounds, trace, {
        "operation": "one HTTP request", "clients": SESSION_CLIENTS,
        "sessions": planned, "requests_per_session": 15,
        "write_share": writes / max(1, requests),
        "read_share": 1 - writes / max(1, requests),
        "items_per_request": 1,
        # A session enters every phase once.
        "actions_per_advance": sum(len(phase["actions"])
                                   for phase in model["phases"])
        / len(model["phases"]),
        "population": common.HTTP_POPULATION,
        "instances_at_end": rounds.instances})


# ------------------------------------------------------------ bulk_dispatch
BULK_PHASES = ("work", "review", "end")
#: Seconds of ``--seconds`` per group of instances taken through all phases.
SECONDS_PER_GROUP = 2.5


def _advance_batch(client, tally: Tally, chunk: List[str], phase: str,
                   traced: bool, request_id: str) -> int:
    """One batchAdvance of ``chunk`` to ``phase``; returns items moved."""
    status, envelope, elapsed = client.call(
        "POST", "/v2/instances:batchAdvance",
        {"items": [{"instance_id": iid, "to_phase_id": phase} for iid in chunk]},
        request_id)
    if _ok(status, envelope):
        bad = [item for item in envelope["data"]["results"]
               if not (item["ok"] and (item.get("data") or {}).get(
                   "current_phase_id") == phase and (
                   phase != "end" or item["data"]["status"] == "completed"))]
        problem = "item {}".format(str(bad[0])[:200]) if bad else None
    else:
        bad = chunk
        problem = "batchAdvance -> {} {}".format(status, str(envelope)[:200])
    tally.add("batchAdvance", elapsed, traced, request_id, problem,
              failures=len(bad))
    return len(chunk) - len(bad)


def bulk_dispatch(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Groups of ``BATCH_ITEMS`` instances go through work -> review -> end,
    one batchAdvance per step, the groups shared out over the rounds.  The
    number of groups is fixed by ``seconds`` (one per ``SECONDS_PER_GROUP``,
    about what a group takes at the seed commit), so every run does the
    same work and a faster program simply finishes sooner."""
    groups = max(common.ROUNDS, round(seconds / SECONDS_PER_GROUP))
    rng = random.Random("{}:items".format(seed))

    def play(number: int, deployment: Deployment, tally: Tally) -> Dict[str, Any]:
        first = groups * number // common.ROUNDS
        last = min(groups * (number + 1) // common.ROUNDS,
                   first + len(deployment.ids) // common.BATCH_ITEMS)
        client = common.KeepAliveClient(deployment.server.port, "coordinator")
        advanced = attempted = 0
        started = time.perf_counter()
        for group in range(first, last):
            offset = (group - first) * common.BATCH_ITEMS
            chunk = deployment.ids[offset:offset + common.BATCH_ITEMS]
            traced = trace and group % 2 == 0
            for phase in BULK_PHASES:
                rng.shuffle(chunk)
                attempted += len(chunk)
                advanced += _advance_batch(
                    client, tally, chunk, phase, traced,
                    "e2e-{}-{}-{}".format(int(traced), group, phase))
        elapsed = time.perf_counter() - started
        client.close()
        return {"elapsed": elapsed, "attempted": attempted, "ops": advanced,
                "traced_ops": sum(1 for sample in tally.samples if sample[2])
                * common.BATCH_ITEMS,
                "advanced": advanced, "touched": attempted // len(BULK_PHASES),
                "clients": [client]}

    rounds = run_rounds("bulk_dispatch", seed, trace,
                        common.bulk_model_document(), None, play)
    return _result(rounds, trace, {
        "operation": "one batchAdvance request", "clients": 1,
        "requests": len(rounds.tally.samples),
        "items_per_request": common.BATCH_ITEMS,
        "instances_advanced_to_end": rounds.attempted // len(BULK_PHASES),
        "write_share": 1.0, "read_share": 0.0,
        "actions_per_advance": 2.0 / len(BULK_PHASES),
        "population": common.HTTP_POPULATION})
