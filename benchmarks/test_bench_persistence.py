"""E14 — durable runtime: journal overhead, checkpoint and cold recovery.

The runtime journals every kernel event through
:class:`~repro.persistence.PersistenceCoordinator`.  This experiment
quantifies what durability costs and what recovery buys:

* **journal-append overhead per op** — the same 10k-instance progression
  workload as E12, run bare and with persistence at each fsync policy
  (``never`` / ``interval`` / ``always``), reported as ops/s and the
  per-operation overhead in microseconds;
* **checkpoint latency** — flushing 10k dirty instances into the SQLite
  instance store plus the atomic manifest publish;
* **cold-recovery time** — rebuilding all 10k instances (snapshot + journal
  tail) into a fresh manager.

Results are printed and appended to ``BENCH_persistence.json``.  Size via
``BENCH_PERSISTENCE_INSTANCES`` (default 10000) so CI can smoke-run a small
deployment through the same checkpoint and recovery path.
"""

import os
import shutil
import tempfile
import time

from repro.actions import library
from repro.clock import SimulatedClock
from repro.events import EventBus
from repro.model import LifecycleBuilder
from repro.persistence import PersistenceConfig, PersistenceCoordinator, recover_into
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager
from repro.storage import ExecutionLog

from .conftest import report

INSTANCES = int(os.environ.get("BENCH_PERSISTENCE_INSTANCES", "10000"))


def _bench_model():
    builder = LifecycleBuilder("Persistence bench lifecycle")
    builder.phase("Work")
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    builder.action("Work", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    return builder.build()


def _build_runtime():
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    bus = EventBus()
    log = ExecutionLog(bus=bus)
    manager = LifecycleManager(environment, clock=clock, bus=bus)
    return environment, bus, log, manager


def _run_workload(environment, manager):
    """``INSTANCES`` created and started, then half advanced: 2.5 ops each."""
    model = _bench_model()
    manager.publish_model(model, actor="coordinator")
    adapter = environment.adapter("Google Doc")
    requests = [
        {"model_uri": model.uri,
         "resource": adapter.create_resource("doc {}".format(index), owner="alice"),
         "owner": "alice"}
        for index in range(INSTANCES)
    ]
    started = time.perf_counter()
    ids = [instance.instance_id for instance in manager.batch_instantiate(requests)]
    manager.map_instances(ids, lambda kernel, iid: kernel.start(iid, actor="alice"))
    manager.map_instances(ids[: INSTANCES // 2],
                          lambda kernel, iid: kernel.advance(iid, actor="alice",
                                                           to_phase_id="review"))
    elapsed = time.perf_counter() - started
    ops = INSTANCES * 2 + INSTANCES // 2
    return elapsed, ops / elapsed, model


def test_bench_persistence_overhead_checkpoint_recovery():
    root = tempfile.mkdtemp(prefix="bench-persistence-")
    rows = []
    data = {"experiment": "durable_runtime", "instances": INSTANCES,
            "journal": {}, "checkpoint": {}, "recovery": {}}
    try:
        # -- baseline: no persistence at all --------------------------------
        environment, bus, log, manager = _build_runtime()
        base_elapsed, base_ops, _ = _run_workload(environment, manager)
        rows.append("no persistence   : {:6.2f}s  {:8.0f} ops/s  (baseline)".format(
            base_elapsed, base_ops))
        data["journal"]["none"] = {"elapsed_s": round(base_elapsed, 4),
                                   "ops_per_s": round(base_ops, 1)}

        # -- journal overhead per fsync policy ------------------------------
        for policy in ("never", "interval", "always"):
            environment, bus, log, manager = _build_runtime()
            config = PersistenceConfig(os.path.join(root, "fsync-" + policy),
                                       fsync=policy)
            coordinator = PersistenceCoordinator(
                manager, log, config.open_journal(), config.open_snapshots(),
                config.open_store(), bus=bus)
            elapsed, ops, _ = _run_workload(environment, manager)
            overhead_us = (elapsed - base_elapsed) / (INSTANCES * 2.5) * 1e6
            rows.append(
                "fsync={:8s}: {:6.2f}s  {:8.0f} ops/s  ({:+5.1f} us/op, {:.2f}x)".format(
                    policy, elapsed, ops, overhead_us, elapsed / base_elapsed))
            data["journal"][policy] = {
                "elapsed_s": round(elapsed, 4), "ops_per_s": round(ops, 1),
                "overhead_us_per_op": round(overhead_us, 2),
                "slowdown": round(elapsed / base_elapsed, 3),
                "journal_records": coordinator.journal.last_seq,
            }
            coordinator.close()

        # -- checkpoint latency + cold recovery ----------------------------
        environment, bus, log, manager = _build_runtime()
        config = PersistenceConfig(os.path.join(root, "checkpoint"),
                                   fsync="interval")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        _run_workload(environment, manager)
        checkpoint = coordinator.checkpoint()
        rows.append("checkpoint      : {:7.0f} ms for {} instances".format(
            checkpoint["duration_ms"], checkpoint["instances_flushed"]))
        data["checkpoint"] = {
            "duration_ms": checkpoint["duration_ms"],
            "instances_flushed": checkpoint["instances_flushed"],
        }
        coordinator.close()
        del environment, bus, log, manager

        environment2, bus2, log2, manager2 = _build_runtime()
        started = time.perf_counter()
        recovery = recover_into(manager2, log2, config.open_journal(),
                                config.open_snapshots(), config.open_store())
        cold_ms = (time.perf_counter() - started) * 1000
        assert manager2.instance_count() == INSTANCES
        assert recovery.warnings == []
        rows.append("recovery        : {:7.0f} ms cold ({} instances, {} log entries)".format(
            cold_ms, recovery.instances_restored, recovery.log_entries_restored))
        data["recovery"] = {
            "duration_ms": round(cold_ms, 1),
            "instances_restored": recovery.instances_restored,
            "log_entries_restored": recovery.log_entries_restored,
            "records_replayed": recovery.records_replayed,
        }

        report(
            "E14 — durable runtime: journal overhead, checkpoint and cold recovery",
            rows, slug="persistence", data=data)
        # Durability must stay affordable: the buffered policies stay within
        # a small multiple of bare throughput (only fsync=always is allowed
        # to be expensive), and a 10k-instance cold start finishes in seconds.
        assert data["journal"]["never"]["slowdown"] < 2.5
        assert data["journal"]["interval"]["slowdown"] < 3.0
        assert data["recovery"]["duration_ms"] < 30_000
    finally:
        shutil.rmtree(root, ignore_errors=True)
