"""replicated_writes: a durable primary and a read replica following it
over loopback HTTP, both in this process (as ``examples/replicated_service.py``
runs them).

The writer acknowledges each write through the in-process SDK client, so
no HTTP sits on the write path: the acknowledgement is kernel plus an
fsync per journal append.  It then waits, on a condition the replica's
sync notifies (no polling thread), until the replica serves the new
phase.  A checkpoint runs after every ``CHECKPOINT_EVERY`` writes.  A run
is ``common.ROUNDS`` rounds, each on a cluster of its own that is closed
and reopened at the round's end.
"""

from __future__ import annotations

import bisect
import gc
import http.client
import random
import threading
import time
from typing import Any, Dict, List

import common
import layers
from repro.client import GeleeClient
from repro.plugins.setup import build_standard_environment
from repro.replication import (HttpReplicationSource, ReadReplica,
                               ReplicationPrimary, StreamFollower)
from repro.service import GeleeHttpServer, RestRouter

POPULATION = 2000
CHECKPOINT_EVERY = 100
#: Writes per second of ``--seconds``, about the seed commit's rate: each
#: round does this fixed number of writes, so every run does the same work
#: and a faster program simply finishes sooner.  Every round does all of
#: them, so the open journal segment, which each follower read re-scans,
#: grows as long in a round as in one long run.
WRITES_PER_SECOND = 30
#: A write not served by the replica within this many seconds has failed.
REPLICA_TIMEOUT = 10.0
#: How long one follower long-poll parks before it re-arms.
FOLLOWER_WAIT = 0.5


class Cluster:
    """Primary + HTTP follower, seeded and caught up."""

    def __init__(self, directory, seed: int):
        self.environment = build_standard_environment()
        self.service = common.build_service(
            "replicated_writes", seed,
            common.persistence_config("replicated_writes", directory),
            self.environment)
        ReplicationPrimary(self.service)
        self.router = RestRouter(self.service)
        self.http = GeleeHttpServer(self.router).start()
        self.client = GeleeClient.in_process(router=self.router, actor="coordinator")
        self.follower = None
        adapter = self.environment.adapter("Google Doc")
        owners = common.owners(seed)
        documents = [adapter.create_resource(title, owner=owners[index % len(owners)])
                     .to_dict() for index, title in
                     enumerate(common.titles(seed, POPULATION, "replicated"))]
        model = common.eu_model_document()
        parameters = common.reviewer_parameters(model, ["reviewer-board"])
        model_uri = self.client.publish_model(model=model)["uri"]
        random.Random("{}:instances".format(seed)).shuffle(documents)
        self.ids: List[str] = []
        for offset in range(0, len(documents), common.BATCH_ITEMS):
            created = self.client.batch_create([
                {"model_uri": model_uri, "resource": document,
                 "owner": document["owner"], "parameters": parameters}
                for document in documents[offset:offset + common.BATCH_ITEMS]])
            started = self.client.batch_advance(
                [result.instance_id for result in created.results])
            if created.failed or started.failed:
                raise RuntimeError("seeding the primary failed")
            self.ids.extend(result.instance_id for result in created.results)
        # Seal the seeding segment, as the journal-rotate maintenance job
        # would, so the checkpoint truncates it: the timed writes start on a
        # fresh segment in every run.
        self.service.persistence.journal.rotate()
        self.client.persistence_checkpoint()
        self.fetch_client = GeleeClient.connect(self.http.host, self.http.port,
                                                timeout=40.0)
        self.replica = ReadReplica(HttpReplicationSource(
            client=self.fetch_client, follower_id="e2e-replica"))
        self.replica.sync()
        self.applied = threading.Condition()

    def follow(self) -> None:
        """Notify the writer after every replica sync, then start following."""
        sync = self.replica.sync

        def notifying_sync(*args, **kwargs):
            try:
                return sync(*args, **kwargs)
            finally:
                with self.applied:
                    self.applied.notify_all()

        self.replica.sync = notifying_sync
        self.follower = StreamFollower(self.replica,
                                       wait_timeout=FOLLOWER_WAIT).start()

    def serves(self, instance_id: str, phase_id: str) -> bool:
        instance = self.replica.manager.peek_instance(instance_id)
        return instance is not None and instance.current_phase_id == phase_id

    def close(self) -> None:
        if self.follower is not None:
            self.follower.stop()
            self.follower = None
        self.http.stop()
        self.service.close()
        self.replica.service.close()


def _fetch_delays_ms(recorder: layers.Recorder) -> List[float]:
    """Per fetch that returned records: from the append of its first record
    on the primary until the follower holds the response."""
    appended = {span.extra.seq: span.start + span.duration
                for span in recorder.of("journal") if span.extra is not None}
    delays = []
    for span in recorder.of("fetch"):
        if span.extra is not None and span.extra in appended:
            delays.append((span.start + span.duration - appended[span.extra]) * 1e3)
    return delays


def _transport_ms(recorder: layers.Recorder) -> float:
    """Fetch time on the follower minus the primary's handle time, paired
    by the handle running inside the fetch's interval."""
    handles = sorted((span.start, span.duration) for span in recorder.of("gateway")
                     if span.extra and span.extra[0] == layers.STREAM_ROUTE)
    starts = [start for start, _ in handles]
    gaps = []
    for span in recorder.of("fetch"):
        index = bisect.bisect_left(starts, span.start)
        if index < len(handles):
            start, duration = handles[index]
            if start + duration <= span.start + span.duration:
                gaps.append(span.duration - duration)
    return common.median_or_zero(gaps) * 1e3


def _first_seq(args, data):
    records = (data or {}).get("records") or []
    return records[0]["seq"] if records else None


def _round(directory, seed: int, number: int, writes: int,
           trace: bool) -> Dict[str, Any]:
    """One round: set up a cluster, make ``writes`` writes, check the
    replica, close the primary and reopen it ``common.RECOVERIES`` times."""
    # The previous round's objects are the benchmark's garbage, not the
    # program's: collect them so each set-up, and the timed phase, starts
    # from the same heap.
    gc.collect()
    started = time.perf_counter()
    cluster = Cluster(directory, seed)
    setup = time.perf_counter() - started
    connect = http.client.HTTPConnection.connect
    try:
        recorder = layers.Recorder() if trace else None
        if recorder is not None:
            layers.install(recorder, cluster.service, cluster.router)
            recorder.wrap(cluster.replica, "sync", "replication",
                          extra=lambda args, result: (result or {}).get("applied", 0))
            recorder.wrap(cluster.fetch_client, "replication_stream", "fetch",
                          extra=_first_seq)
            recorder.count(cluster.fetch_client, "replication_stream", "fetches")
            recorder.wrap(cluster.service.replication, "read_batch", "stream")
            recorder.count(http.client.HTTPConnection, "connect", "connects")
        gc.collect()
        cluster.follow()
        order = list(cluster.ids)
        random.Random("{}:writes:{}".format(seed, number)).shuffle(order)
        acks, lags, traced_acks, untraced_acks = [], [], [], []
        request_ids = []
        failed, problems = 0, []
        before = layers.program_counts(cluster.service)
        began_at = cluster.service.manager.clock.now()
        if recorder is not None:
            recorder.counting = True
        written = 0
        started = time.perf_counter()
        if recorder is not None:
            # The follower and the primary's stream handlers always trace;
            # only the writer's own thread alternates traced and untraced
            # writes, for the tracing overhead on the acknowledgement.
            recorder.global_on = True
        while written < writes:
            instance_id = order[written]
            traced = trace and written % 2 == 0
            if recorder is not None:
                recorder.set_thread(traced)
            written += 1
            begun = time.perf_counter()
            data, envelope = cluster.client.call(
                "POST", "/v2/instances/{}:advance".format(instance_id), body={})
            acked = time.perf_counter()
            phase = data["current_phase_id"]
            with cluster.applied:
                served = cluster.applied.wait_for(
                    lambda: cluster.serves(instance_id, phase), REPLICA_TIMEOUT)
            seen = time.perf_counter()
            acks.append((acked - begun) * 1e3)
            (traced_acks if traced else untraced_acks).append((acked - begun) * 1e3)
            lags.append((seen - acked) * 1e3)
            if traced:
                request_ids.append(envelope.meta.request_id)
            if phase != "internalreview" or not served:
                failed += 1
                problems.append("{} at {} on the primary, served {}".format(
                    instance_id, phase, served))
            if written % CHECKPOINT_EVERY == 0:
                if recorder is not None:
                    recorder.set_thread(True)
                cluster.client.persistence_checkpoint()
        elapsed = time.perf_counter() - started
        if recorder is not None:
            recorder.counting = False
            recorder.set_thread(None)
            recorder.global_on = False
        cluster.follower.stop()
        cluster.follower = None
        peak_rss = common.peak_rss_mb()
        after = layers.program_counts(cluster.service)
        for instance_id in order[:written]:
            primary = cluster.service.manager.instance(instance_id)
            if not cluster.serves(instance_id, primary.current_phase_id):
                failed += 1
                problems.append("replica differs on {}".format(instance_id))
        layer_report = None
        if recorder is not None:
            layer_report = _layers(recorder, cluster, before, after, written,
                                   len(traced_acks), began_at, request_ids,
                                   lags, traced_acks, untraced_acks)
        expected = common.durable_state(cluster.service)
    finally:
        http.client.HTTPConnection.connect = connect
        cluster.close()
    recoveries, replayed = [], 0
    for _ in range(common.RECOVERIES):
        reopened = common.reopen("replicated_writes", seed, directory)
        if reopened["state"] != expected:
            failed += 1
            problems.append("recovered primary differs from the closed one")
        recoveries.append(reopened["seconds"])
        replayed = reopened["replayed"]
    if layer_report is not None:
        layer_report["metrics"]["recovery.records_replayed"] = float(replayed)
    return {"setup": setup, "elapsed": elapsed, "writes": written,
            "failed": failed, "problems": problems, "acks": acks,
            "traced_acks": traced_acks, "untraced_acks": untraced_acks,
            "lags": lags, "recoveries": recoveries, "peak_rss": peak_rss,
            "layers": layer_report}


def replicated_writes(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    directory = common.work_dir("replicated_writes")
    per_round = max(1, round(seconds * WRITES_PER_SECOND))
    try:
        rounds = [_round(directory / "round-{}".format(number), seed, number,
                         per_round, trace)
                  for number in range(common.ROUNDS)]
    finally:
        common.remove_work_dir(directory)

    def joined(key):
        return [value for played in rounds for value in played[key]]

    writes = sum(played["writes"] for played in rounds)
    elapsed = sum(played["elapsed"] for played in rounds)
    lags = joined("lags")
    result = {
        "attempted": writes, "failed": sum(played["failed"] for played in rounds),
        "problems": joined("problems")[:5],
        "latency": common.timing(joined("untraced_acks") if trace else joined("acks")),
        "lag": common.timing(lags),
        "setup_s": [played["setup"] for played in rounds],
        "requests_per_s": writes / elapsed,
        "advances_per_s": writes / elapsed,
        "recovery_s": joined("recoveries"),
        "peak_rss_mb": max(played["peak_rss"] for played in rounds),
        "mix": {"operation": "one single-instance advance (write ack)",
                "clients": 1, "writes": writes, "write_share": 1.0,
                "read_share": 0.0, "route_counts": {"advance": writes},
                "rounds": common.ROUNDS,
                "checkpoint_every": CHECKPOINT_EVERY,
                "checkpoints": sum(played["writes"] // CHECKPOINT_EVERY
                                   for played in rounds),
                "items_per_request": 1, "actions_per_advance": 2.0,
                "population": POPULATION},
    }
    if trace:
        report = layers.combine_rounds([played["layers"] for played in rounds])
        # Over the whole run, as the untraced latency is.
        report["metrics"]["replication.lag_p50_ms"] = common.timing(lags)["median"]
        report["metrics"]["replication.lag_p99_ms"] = common.timing(lags)["tail"]
        report["metrics"]["trace.overhead_pct"] = common.overhead_pct(
            joined("traced_acks"), joined("untraced_acks"))
        result["layers"] = report
    return result


def _layers(recorder, cluster, before, after, writes, traced_writes, began_at,
            request_ids, lags, traced_acks, untraced_acks) -> Dict[str, Any]:
    waits = layers.completed_waits_ms(cluster.service.manager, began_at)
    metrics = layers.layer_metrics(recorder, before, after, writes,
                                   traced_writes, waits)
    syncs = recorder.of("replication")
    applied = sum(span.extra for span in syncs if span.extra)
    fetches = recorder.counts["fetches"]
    metrics.update({
        "http.transport_ms": _transport_ms(recorder),
        "http.connects_per_request": recorder.counts["connects"] / max(1, fetches),
        "replication.fetch_ms": common.median_or_zero(_fetch_delays_ms(recorder)),
        "replication.requests_per_write": fetches / max(1, writes),
        "replication.read_batch_ms": common.median_or_zero(
            [span.duration for span in recorder.of("stream")]) * 1e3,
        "replication.apply_us_per_record": (
            sum(span.self_time for span in syncs) * 1e6 / applied if applied else 0.0),
        "replication.lag_p50_ms": common.timing(lags)["median"],
        "replication.lag_p99_ms": common.timing(lags)["tail"],
    })
    metrics["trace.overhead_pct"] = common.overhead_pct(traced_acks, untraced_acks)
    spans, flags = layers.program_span_metrics(request_ids, metrics,
                                               layers.handle_seconds(recorder))
    metrics.update(spans)
    return {"metrics": metrics, "flags": flags}
