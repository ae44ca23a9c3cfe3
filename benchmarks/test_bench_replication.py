"""E16 — replication: apply throughput, replica lag and promotion latency.

The replication subsystem (:mod:`repro.replication`) keeps a warm standby
in sync by streaming the write-ahead journal through the recovery reducer.
This experiment quantifies the two figures that decide whether failover is
viable:

* **steady-state apply throughput** — how many journal records per second
  a replica reduces into its runtime (bootstrap-free, pure streaming
  apply).  The replica can only stay warm if this comfortably exceeds the
  primary's record production rate;
* **promotion latency** — kill the primary, promote the standby: the final
  stream drain plus scheduler re-arm plus the writable flip, i.e. the
  write-unavailability window of a failover;
* **tail fetch** — the median fetch of a caught-up follower when the open
  journal segment is 10% and 90% full.  A follower resumes from its read
  cursor, so the fetch should cost its batch, not the segment before it.

Results are printed and appended to ``BENCH_replication.json``.  The
workload size scales down via ``BENCH_REPLICATION_INSTANCES`` for CI smoke
runs (the stamped parameter set keeps those distinguishable).
"""

import os
import shutil
import statistics
import tempfile
import time

from repro.clock import SimulatedClock
from repro.model import LifecycleBuilder
from repro.persistence import PersistenceConfig
from repro.replication import JournalShippingSource, ReadReplica, ReplicationPrimary
from repro.service import GeleeService

from .conftest import report

INSTANCES = int(os.environ.get("BENCH_REPLICATION_INSTANCES", 10_000))
#: Records in the open segment of the tail-fetch run (``Journal``'s default
#: ``segment_max_records``), and fetches timed at each fill level.
TAIL_SEGMENT = 10_000
TAIL_FETCHES = 40
#: Journal records one replicated write appends (as e2ebench's
#: ``replicated_writes`` traces them).
RECORDS_PER_WRITE = 7


def _bench_model():
    builder = LifecycleBuilder("Replication bench lifecycle")
    builder.phase("Work", deadline_days=5.0)  # deadline => timer records too
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    return builder.build()


def _drive_wave(service, model, count, offset=0):
    """Create + start ``count`` instances, advance half: ~3.5 records each."""
    adapter = service.environment.adapter("Google Doc")
    requests = [
        {"model_uri": model.uri,
         "resource": adapter.create_resource("doc {}".format(offset + index),
                                             owner="alice"),
         "owner": "alice"}
        for index in range(count)
    ]
    ids = [instance.instance_id
           for instance in service.manager.batch_instantiate(requests)]
    service.manager.map_instances(
        ids, lambda kernel, iid: kernel.start(iid, actor="alice"))
    service.manager.map_instances(
        ids[: count // 2],
        lambda kernel, iid: kernel.advance(iid, actor="alice",
                                         to_phase_id="review"))
    return ids


def _tail_fetch_ms(directory):
    """Median ms of a caught-up follower's fetch of one write's records,
    with the open segment 10% and then 90% full."""
    clock = SimulatedClock()
    service = GeleeService(clock=clock, persistence=PersistenceConfig(
        directory, fsync="never", segment_max_records=TAIL_SEGMENT))
    primary = ReplicationPrimary(service)
    journal = service.persistence.journal

    def append(count):
        for _ in range(count):
            journal.append("instance.advanced", clock.now(), "inst-tail",
                           actor="alice",
                           payload={"from": "work", "to": "review",
                                    "origin_request_id": "req-tail"})

    medians = {}
    after = 0
    try:
        for share in (0.1, 0.9):
            append(int(TAIL_SEGMENT * share) - journal.last_seq)
            while True:  # catch up
                batch = primary.read_batch(after, follower_id="tail")
                after = batch.next_seq
                if batch.caught_up:
                    break
            samples = []
            for _ in range(TAIL_FETCHES):
                append(RECORDS_PER_WRITE)
                started = time.perf_counter()
                batch = primary.read_batch(after, follower_id="tail")
                samples.append(time.perf_counter() - started)
                assert batch.count == RECORDS_PER_WRITE
                after = batch.next_seq
            medians[share] = statistics.median(samples) * 1000
        assert len(journal.segment_files()) == 1
    finally:
        service.close()
    return medians


def test_bench_replication_apply_and_promotion():
    root = tempfile.mkdtemp(prefix="bench-replication-")
    rows = []
    data = {"experiment": "replication", "instances": INSTANCES,
            "apply": {}, "incremental": {}, "promotion": {}}
    try:
        clock = SimulatedClock()
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        primary = GeleeService(clock=clock,
                               persistence=config)
        ReplicationPrimary(primary)
        model = _bench_model()
        primary.manager.publish_model(model, actor="coordinator")
        _drive_wave(primary, model, INSTANCES)
        head = primary.persistence.journal.last_seq

        # -- steady-state apply: a fresh replica streams the whole journal --
        replica = ReadReplica(JournalShippingSource(config), clock=clock)
        started = time.perf_counter()
        sync = replica.sync()
        apply_elapsed = time.perf_counter() - started
        apply_rate = sync["applied"] / apply_elapsed
        rows.append("stream apply     : {:8d} records in {:6.2f}s  {:8.0f} rec/s".format(
            sync["applied"], apply_elapsed, apply_rate))
        data["apply"] = {"records": sync["applied"],
                         "elapsed_s": round(apply_elapsed, 4),
                         "records_per_s": round(apply_rate, 1),
                         "journal_head": head}
        assert sync["lag_records"] == 0
        assert replica.service.manager.instance_count() == INSTANCES

        # -- incremental catch-up: a second wave lands, the replica follows --
        wave = max(INSTANCES // 10, 10)
        _drive_wave(primary, model, wave, offset=INSTANCES)
        started = time.perf_counter()
        sync2 = replica.sync()
        inc_elapsed = time.perf_counter() - started
        inc_rate = sync2["applied"] / inc_elapsed
        rows.append("incremental sync : {:8d} records in {:6.2f}s  {:8.0f} rec/s".format(
            sync2["applied"], inc_elapsed, inc_rate))
        data["incremental"] = {"records": sync2["applied"],
                               "elapsed_s": round(inc_elapsed, 4),
                               "records_per_s": round(inc_rate, 1)}

        # -- failover: kill the primary, promote the standby ----------------
        tail = max(wave // 2, 5)
        tail_ids = _drive_wave(primary, model, tail, offset=INSTANCES * 2)
        journal_head = primary.persistence.journal.last_seq
        del primary  # the kill: no close, no checkpoint — journal files only
        started = time.perf_counter()
        promotion = replica.promote()
        promote_ms = (time.perf_counter() - started) * 1000
        rows.append("promotion        : {:8.1f} ms ({} records drained, {} timers)".format(
            promote_ms, promotion["records_drained"],
            promotion["pending_timers"]))
        data["promotion"] = {"duration_ms": round(promote_ms, 2),
                             "records_drained": promotion["records_drained"],
                             "journal_seq": promotion["journal_seq"],
                             "pending_timers": promotion["pending_timers"]}
        assert promotion["journal_seq"] == journal_head
        promoted = replica.service
        assert promoted.manager.instance_count() == INSTANCES + wave + tail
        promoted.manager.advance(tail_ids[-1], actor="alice",
                                 to_phase_id="review")

        # -- tail fetch: a caught-up follower, short and long open segment --
        fetch_ms = _tail_fetch_ms(os.path.join(root, "tail"))
        rows.append("tail fetch       : {:8.3f} ms at 10% / {:.3f} ms at 90% of "
                    "a {}-record segment".format(fetch_ms[0.1], fetch_ms[0.9],
                                                 TAIL_SEGMENT))
        data["tail_fetch"] = {"segment_records": TAIL_SEGMENT,
                              "fetches": TAIL_FETCHES,
                              "records_per_fetch": RECORDS_PER_WRITE,
                              "median_ms_at_10pct": round(fetch_ms[0.1], 4),
                              "median_ms_at_90pct": round(fetch_ms[0.9], 4)}

        report("E16 — replication: apply throughput and promotion latency",
               rows, slug="replication", data=data)
        # A standby is only warm if it applies far faster than one record
        # per millisecond, and failover must complete in seconds.
        assert apply_rate > 1_000
        assert promote_ms < 30_000
        # A fetch costs its batch, not the open segment before it.
        assert fetch_ms[0.9] < 3 * fetch_ms[0.1]
    finally:
        shutil.rmtree(root, ignore_errors=True)
