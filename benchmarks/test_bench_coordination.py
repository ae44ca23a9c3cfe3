"""E17 — coordination: lease throughput and detection-to-promotion latency.

The coordination subsystem (:mod:`repro.coordination`) adds two costs the
deployment pays continuously and one latency it pays per failure:

* **lease ops/s** — renewals are the heartbeat of leadership and
  ``latest_token`` reads are the fencing check on the write path; both run
  against the shared lease store (in-memory and SQLite CAS), so their
  throughput bounds how aggressively a deployment can heartbeat and how
  cheap per-write fencing is with ``fence_revalidate_seconds=0``;
* **detection → promotion latency** — kill the primary under a *real*
  clock with a tiny lease TTL: how long from the health monitor's verdict
  until the :class:`~repro.coordination.FailoverSupervisor` has won the
  lease and the standby serves writes.  The floor is the remaining lease
  TTL (nobody may usurp a lease that might still renew).

Results are printed and appended to ``BENCH_coordination.json``.  Scale
down via ``BENCH_COORDINATION_OPS`` / ``BENCH_COORDINATION_INSTANCES`` for
CI smoke runs.
"""

import os
import shutil
import tempfile
import time

from repro.coordination import (
    CoordinationConfig,
    FailoverSupervisor,
    HealthMonitor,
    MemoryLeaseStore,
    SQLiteLeaseStore,
)
from repro.model import LifecycleBuilder
from repro.persistence import PersistenceConfig
from repro.replication import JournalShippingSource, ReadReplica
from repro.service import GeleeService

from .conftest import report

OPS = int(os.environ.get("BENCH_COORDINATION_OPS", 5_000))
INSTANCES = int(os.environ.get("BENCH_COORDINATION_INSTANCES", 200))
#: Deliberately tiny so the wall-clock failover window stays benchable;
#: production TTLs are an order of magnitude larger.
TTL_SECONDS = float(os.environ.get("BENCH_COORDINATION_TTL", 0.4))


def _bench_model():
    builder = LifecycleBuilder("Coordination bench lifecycle")
    builder.phase("Work", deadline_days=5.0)
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    return builder.build()


def _seed(service, model, count):
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
    service.manager.map_instances(
        ids, lambda kernel, iid: kernel.start(iid, actor="alice"))
    return ids


def _lease_throughput(store, label, rows, data):
    lease = store.acquire("bench-primary", "node-a", ttl_seconds=60.0)
    started = time.perf_counter()
    for _ in range(OPS):
        store.renew("bench-primary", "node-a", lease.token, 60.0)
    renew_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(OPS):
        store.latest_token("bench-primary")
    read_elapsed = time.perf_counter() - started
    renew_rate = OPS / renew_elapsed
    read_rate = OPS / read_elapsed
    rows.append("{:<7} renews   : {:8d} in {:6.3f}s  {:9.0f} ops/s".format(
        label, OPS, renew_elapsed, renew_rate))
    rows.append("{:<7} fencing  : {:8d} in {:6.3f}s  {:9.0f} reads/s".format(
        label, OPS, read_elapsed, read_rate))
    data["lease_ops"][label] = {
        "ops": OPS,
        "renews_per_s": round(renew_rate, 1),
        "token_reads_per_s": round(read_rate, 1),
    }


def test_bench_coordination_leases_and_failover():
    root = tempfile.mkdtemp(prefix="bench-coordination-")
    rows = []
    data = {"experiment": "coordination", "ops": OPS,
            "instances": INSTANCES, "ttl_seconds": TTL_SECONDS,
            "lease_ops": {}, "failover": {}}
    try:
        # -- lease store throughput: renew (heartbeat) and token read
        #    (per-write fencing) on both backends ------------------------
        _lease_throughput(MemoryLeaseStore(), "memory", rows, data)
        sqlite_store = SQLiteLeaseStore(os.path.join(root, "leases.sqlite3"))
        _lease_throughput(sqlite_store, "sqlite", rows, data)
        sqlite_store.close()

        # -- failover: kill the primary under a real clock, measure the
        #    detection-to-promotion window ------------------------------
        store = MemoryLeaseStore()
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        primary = GeleeService(persistence=config,
                               coordination=CoordinationConfig(
                                   store=store, node_id="primary-node",
                                   ttl_seconds=TTL_SECONDS,
                                   fence_revalidate_seconds=0))
        model = _bench_model()
        primary.manager.publish_model(model, actor="coordinator")
        _seed(primary, model, INSTANCES)
        journal_head = primary.persistence.journal.last_seq

        replica = ReadReplica(JournalShippingSource(config), replica_id="standby-node")
        replica.sync()
        alive = {"up": True}
        monitor = HealthMonitor(lambda: alive["up"], failure_threshold=2,
                                probe_interval_seconds=0.02)
        supervisor = FailoverSupervisor(replica, monitor, store=store,
                                        ttl_seconds=TTL_SECONDS,
                                        fence_revalidate_seconds=0)
        assert supervisor.poll()["state"] == "watching"

        # The kill: heartbeats stop, probes fail; only the lease TTL keeps
        # the throne warm now.
        alive["up"] = False
        killed_at = time.perf_counter()
        deadline = killed_at + 30.0
        failover_report = None
        while time.perf_counter() < deadline:
            poll = supervisor.poll()
            if poll["state"] == "failover":
                failover_report = poll
                break
            time.sleep(0.01)
        assert failover_report is not None, "failover never happened"
        wall_seconds = time.perf_counter() - killed_at
        detection_seconds = failover_report["detection_to_promotion_seconds"]
        assert failover_report["promotion"]["journal_seq"] == journal_head

        rows.append("kill→promoted    : {:8.1f} ms wall "
                    "(ttl {:.2f}s)".format(wall_seconds * 1000, TTL_SECONDS))
        rows.append("detect→promoted  : {:8.1f} ms "
                    "(promotion {:.1f} ms)".format(
                        detection_seconds * 1000,
                        failover_report["promotion_ms"]))
        data["failover"] = {
            "kill_to_promotion_s": round(wall_seconds, 4),
            "detection_to_promotion_seconds": round(detection_seconds, 4),
            "promotion_ms": failover_report["promotion_ms"],
            "fencing_token": failover_report["token"],
            "journal_seq": failover_report["promotion"]["journal_seq"],
        }

        # The promoted node serves writes; the benchmark is honest only if
        # the failover actually completed.
        promoted = replica.service
        assert promoted.read_only is False
        assert promoted.manager.instance_count() == INSTANCES

        report("E17 — coordination: lease throughput and failover latency",
               rows, slug="coordination", data=data)
        # The whole window must stay within a few TTLs — detection, the
        # lease-expiry wait and the promotion drain together.
        assert wall_seconds < max(10.0, TTL_SECONDS * 40)
        promoted.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
