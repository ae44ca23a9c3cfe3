"""E17 — completion-based dispatch: batch advance throughput and replica lag.

The dispatch refactor (docs/DISPATCH.md) split action execution into
*submit* (under the kernel lock, instantaneous) and *complete* (a callback
that re-acquires the lock only to apply the outcome), with the simulated
web-service round-trip sleeping on a worker pool in between.  Two figures
decide whether that bought anything:

* **batch advance throughput** — the same ``batchAdvance`` workload on two
  services that differ only in the completion executor.  Inline dispatch
  serialises every round-trip under the kernel lock (the batch takes
  ``instances x latency``); pooled dispatch overlaps all of them
  (the whole batch takes roughly ``instances / pool_size x latency`` plus
  the CPU cost).  At full size the pooled service must win by >= 5x.
* **replica apply lag** — a follower that polls ``sync()`` on a timer sees
  a write half a poll interval late on average; a push follower parked in
  ``wait_for`` is woken by the journal append itself.  The push follower's
  mean lag must beat the poll interval (and the measured polling lag).

Results are printed and appended to ``BENCH_dispatch.json``.  Workload
sizes scale down via ``BENCH_DISPATCH_INSTANCES`` / ``BENCH_DISPATCH_WRITES``
for CI smoke runs; the speedup floor relaxes below 5000 instances where
fixed costs dominate.
"""

import os
import shutil
import tempfile
import time

from repro.clock import SimulatedClock
from repro.model import LifecycleBuilder
from repro.actions import library
from repro.persistence import PersistenceConfig
from repro.replication import ReadReplica, ReplicationPrimary, StreamFollower
from repro.service import GeleeService
from repro.service.v2.dto import AdvanceItem

from .conftest import report

INSTANCES = int(os.environ.get("BENCH_DISPATCH_INSTANCES", 10_000))
WRITES = int(os.environ.get("BENCH_DISPATCH_WRITES", 10))
#: Simulated action round-trip (seconds); the paper's actions are web-service
#: calls, so tens of milliseconds is the realistic regime.
ACTION_LATENCY = (0.02, 0.03)
#: Completion pool size for the pooled run: how many round-trips may sleep
#: concurrently.
COMPLETION_WORKERS = int(os.environ.get("BENCH_DISPATCH_WORKERS", 256))
#: Timer cadence of the pre-push polling follower.
POLL_INTERVAL = 0.2
#: Fixed costs dominate small smoke workloads; only demand the full-size
#: speedup when the workload is big enough to amortise them.
REQUIRED_SPEEDUP = 5.0 if INSTANCES >= 5000 else 1.5


def _bench_model():
    builder = LifecycleBuilder("Dispatch bench lifecycle")
    builder.phase("Work")  # no actions: start stays cheap in both runs
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    builder.action("Review", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    return builder.build()


def _build_service(completion_workers):
    service = GeleeService(clock=SimulatedClock(),
                           completion_workers=completion_workers)
    model = _bench_model()
    service.manager.publish_model(model, actor="coordinator")
    # Reach into the kernel to set the simulated latency: the bench varies
    # only the executor, so both services must sleep identically per action.
    service.manager._dispatcher._latency = ACTION_LATENCY  # noqa: SLF001 - bench knob
    return service, model


def _populate_and_start(service, model, count):
    adapter = service.environment.adapter("Google Doc")
    requests = [
        {"model_uri": model.uri,
         "resource": adapter.create_resource("doc {}".format(index),
                                             owner="alice"),
         "owner": "alice"}
        for index in range(count)
    ]
    ids = [instance.instance_id
           for instance in service.manager.batch_instantiate(requests)]
    # Work has no actions, so starting is pure token mechanics.
    service.manager.map_instances(
        ids, lambda kernel, iid: kernel.start_async(iid, actor="alice"))
    service.manager.drain_in_flight(timeout=60.0)
    return ids


def _run_batch_advance(completion_workers):
    service, model = _build_service(completion_workers)
    try:
        ids = _populate_and_start(service, model, INSTANCES)
        items = [AdvanceItem(instance_id=iid, to_phase_id="review")
                 for iid in ids]
        started = time.perf_counter()
        result = service.batch_advance_instances(items, actor="alice")
        elapsed = time.perf_counter() - started
        assert all(item.ok for item in result.results)
        assert service.manager.in_flight_count() == 0
        mode = service.node_status()["dispatch"]["mode"]
        return elapsed, INSTANCES / elapsed, mode
    finally:
        service.close()


def test_bench_batch_advance_sync_vs_completion():
    """Pooled completions must beat lock-held inline dispatch >= 5x (full size)."""
    inline_elapsed, inline_ops, inline_mode = _run_batch_advance(0)
    pooled_elapsed, pooled_ops, pooled_mode = _run_batch_advance(COMPLETION_WORKERS)
    assert inline_mode == "inline" and pooled_mode == "pooled"
    speedup = pooled_ops / inline_ops
    rows = [
        "workload: batchAdvance over {} instances, "
        "action latency {:.0f}-{:.0f} ms".format(
            INSTANCES, ACTION_LATENCY[0] * 1000, ACTION_LATENCY[1] * 1000),
        "inline dispatch (round-trip under kernel lock): {:7.2f}s  {:7.0f} ops/s".format(
            inline_elapsed, inline_ops),
        "pooled dispatch ({} completion workers)      : {:7.2f}s  {:7.0f} ops/s".format(
            COMPLETION_WORKERS, pooled_elapsed, pooled_ops),
        "speedup: {:.2f}x (required: >= {:.1f}x at this size)".format(
            speedup, REQUIRED_SPEEDUP),
    ]
    report(
        "E17 — completion-based dispatch: batchAdvance, inline vs pooled",
        rows,
        slug="dispatch",
        data={
            "experiment": "batch_advance_sync_vs_completion",
            "instances": INSTANCES,
            "action_latency_seconds": list(ACTION_LATENCY),
            "completion_workers": COMPLETION_WORKERS,
            "inline": {"elapsed_s": round(inline_elapsed, 4),
                       "ops_per_s": round(inline_ops, 1)},
            "pooled": {"elapsed_s": round(pooled_elapsed, 4),
                       "ops_per_s": round(pooled_ops, 1)},
            "speedup": round(speedup, 3),
            "required_speedup": REQUIRED_SPEEDUP,
        })
    assert speedup >= REQUIRED_SPEEDUP, (
        "pooled dispatch only {:.2f}x faster than inline "
        "(required {:.1f}x)".format(speedup, REQUIRED_SPEEDUP))


def _measure_lags(service, model, replica, writes, on_write_settle):
    """Mean seconds from a primary write until the replica serves it."""
    adapter = service.environment.adapter("Google Doc")
    lags = []
    for index in range(writes):
        started = time.perf_counter()
        instance = service.manager.instantiate(
            model.uri,
            adapter.create_resource("lag probe {}".format(index), owner="alice"),
            owner="alice")
        deadline = started + 10.0
        while time.perf_counter() < deadline:
            if replica.manager.peek_instance(instance.instance_id) is not None:
                break
            time.sleep(0.001)
        lags.append(time.perf_counter() - started)
        on_write_settle()
    return sum(lags) / len(lags), max(lags)


def test_bench_replica_lag_push_vs_poll():
    """A push follower's mean apply lag must beat the poll interval."""
    import threading

    root = tempfile.mkdtemp(prefix="bench-dispatch-")
    try:
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config)
        primary = ReplicationPrimary(service)
        model = _bench_model()
        service.manager.publish_model(model, actor="coordinator")

        # Poll-driven follower: sync() on a POLL_INTERVAL timer, the
        # pre-push design.
        poll_replica = ReadReplica(primary, clock=SimulatedClock())
        poll_replica.sync()
        stop_polling = threading.Event()

        def poll_loop():
            while not stop_polling.is_set():
                poll_replica.sync()
                stop_polling.wait(POLL_INTERVAL)

        poller = threading.Thread(target=poll_loop, daemon=True)
        poller.start()
        # Desynchronise the writes from the poll cadence a little.
        poll_avg, poll_max = _measure_lags(
            service, model, poll_replica, WRITES,
            on_write_settle=lambda: time.sleep(POLL_INTERVAL / 3))
        stop_polling.set()
        poller.join(timeout=5.0)

        # Push follower: parked in wait_for, woken by the journal append.
        push_replica = ReadReplica(primary, clock=SimulatedClock())
        push_replica.sync()
        follower = StreamFollower(push_replica, wait_timeout=2.0).start()
        try:
            push_avg, push_max = _measure_lags(
                service, model, push_replica, WRITES,
                on_write_settle=lambda: None)
        finally:
            follower.stop()

        rows = [
            "workload: {} primary writes, poll interval {:.0f} ms".format(
                WRITES, POLL_INTERVAL * 1000),
            "poll follower: mean lag {:7.1f} ms  max {:7.1f} ms".format(
                poll_avg * 1000, poll_max * 1000),
            "push follower: mean lag {:7.1f} ms  max {:7.1f} ms".format(
                push_avg * 1000, push_max * 1000),
            "push vs poll interval: {:.1f} ms < {:.0f} ms".format(
                push_avg * 1000, POLL_INTERVAL * 1000),
        ]
        report(
            "E17 — replica apply lag: push (wait_for) vs timer polling",
            rows,
            slug="dispatch",
            data={
                "experiment": "replica_lag_push_vs_poll",
                "writes": WRITES,
                "poll_interval_seconds": POLL_INTERVAL,
                "poll": {"mean_lag_s": round(poll_avg, 5),
                         "max_lag_s": round(poll_max, 5)},
                "push": {"mean_lag_s": round(push_avg, 5),
                         "max_lag_s": round(push_max, 5)},
            })
        assert push_avg < POLL_INTERVAL, (
            "push follower mean lag {:.1f} ms is not below the {:.0f} ms "
            "poll interval".format(push_avg * 1000, POLL_INTERVAL * 1000))
        assert push_avg < poll_avg, (
            "push follower ({:.1f} ms) did not beat the polling follower "
            "({:.1f} ms)".format(push_avg * 1000, poll_avg * 1000))
        service.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
