"""Warm standbys and read replicas: continuously apply the primary's stream.

:class:`ReadReplica` owns a complete, *read-only*
:class:`~repro.service.api.GeleeService` — kernel, execution log,
timer service, monitoring cockpit, v2 routes — and keeps it in sync with a
primary by pulling the journal stream through the recovery layer's
side-effect-free :class:`~repro.persistence.recovery.JournalReplayer`:

* **bootstrap** once from the primary's newest snapshot (manifest + instance
  documents), exactly like crash recovery restores a local snapshot;
* **sync** repeatedly: each :meth:`sync` drains stream batches into the
  replayer, which reduces records into instances, the execution log and the
  timer set without publishing a single event — so the replica's own
  scheduler and any subscribers observe nothing until promotion;
* **serve reads** meanwhile: v2 GET/listing/monitoring routes answer from
  the replica's indexes; every mutation is rejected with the typed
  ``REPLICA_READ_ONLY`` 409 carrying a hint where the primary lives;
* **promote** on failover: :meth:`promote` drains the remaining stream
  (loss is bounded to whatever the dead primary never wrote), wakes the
  dormant scheduler (deadlines/retries re-arm from the replicated timer
  set via ``resync_after_recovery``), and flips the runtime writable.

The replica tracks ``(applied_seq, lag)`` continuously: every batch carries
the journal head at read time, and :meth:`status` — also served as
``GET /v2/runtime/replication`` — reports both, plus a wall-clock lag
estimate from the newest applied record's event timestamp.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..errors import JournalTruncatedError, ReplicationError, StorageError
from ..identifiers import new_id
from ..persistence.recovery import JournalReplayer, restore_snapshot
from ..telemetry import (DEFAULT_SIZE_BUCKETS, ensure_trace, get_registry,
                         span_scope, trace_scope)
from .stream import ReplicationSource


class ReadReplica:
    """A warm standby serving reads, one :meth:`promote` away from primary."""

    def __init__(self, source: ReplicationSource, clock=None,
                 environment=None, scheduler=None,
                 replica_id: str = None, primary_hint: str = None,
                 batch_limit: int = None):
        """Build the standby runtime and wire it to ``source``.

        ``primary_hint`` (a URL, host:port or deployment name) is echoed in
        every 409 a rejected write receives.  The replica is not
        bootstrapped yet — the first :meth:`sync` (or an explicit
        :meth:`bootstrap`) does that.
        """
        from ..service.api import GeleeService

        self._source = source
        self.replica_id = replica_id or new_id("replica")
        self.service = GeleeService(
            environment=environment, clock=clock, scheduler=scheduler,
            read_only=True, primary_hint=primary_hint)
        self.service.replication = self
        self._replayer = JournalReplayer(
            self.service.manager, self.service.execution_log,
            timers=self.service.scheduler.timers)
        self._batch_limit = batch_limit
        self._head_seq = 0
        self._batches_applied = 0
        self._syncs = 0
        self._last_applied_event_at: Optional[str] = None
        self._bootstrapped = False
        self._promoted = False
        self._promotion_report: Optional[Dict[str, Any]] = None
        registry = get_registry()
        self._metric_batch = registry.histogram(
            "gelee_replication_batch_records",
            "Records per applied replication batch.",
            buckets=DEFAULT_SIZE_BUCKETS)
        self._metric_applied = registry.counter(
            "gelee_replication_records_applied_total",
            "Stream records applied on this replica.")
        self._metric_lag_records = registry.gauge(
            "gelee_replication_lag_records",
            "Known primary head minus the newest applied sequence number.")
        self._metric_lag_seconds = registry.gauge(
            "gelee_replication_lag_seconds",
            "Wall-clock staleness estimate of the newest applied record.")

    # ---------------------------------------------------------------- plumbing
    @property
    def manager(self):
        return self.service.manager

    @property
    def applied_seq(self) -> int:
        """The newest journal sequence number applied so far."""
        return self._replayer.applied_seq

    @property
    def lag_records(self) -> int:
        """How many records the primary's known head is ahead of us."""
        return max(0, self._head_seq - self._replayer.applied_seq)

    @property
    def is_promoted(self) -> bool:
        return self._promoted

    def router(self):
        """A REST router over this replica (reads served, writes 409)."""
        from ..service.rest import RestRouter

        return RestRouter(service=self.service)

    # --------------------------------------------------------------- bootstrap
    def bootstrap(self) -> Dict[str, Any]:
        """Restore the primary's newest snapshot into the empty runtime."""
        if self._bootstrapped:
            raise ReplicationError(
                "replica {} is already bootstrapped".format(self.replica_id))
        payload = self._source.bootstrap()
        base_seq = restore_snapshot(
            self.service.manager, self.service.execution_log,
            payload.manifest, payload.documents,
            timers=self.service.scheduler.timers, replayer=self._replayer)
        self._head_seq = max(self._head_seq, base_seq)
        self._bootstrapped = True
        report = self._replayer.report
        return {
            "snapshot_seq": base_seq,
            "models_restored": report.models_restored,
            "instances_restored": report.instances_restored,
            "timers_restored": report.timers_restored,
            "log_entries_restored": report.log_entries_restored,
        }

    # -------------------------------------------------------------------- sync
    def sync(self, max_batches: int = None,
             wait_timeout: float = None) -> Dict[str, Any]:
        """Pull and apply stream batches until caught up (or ``max_batches``).

        Bootstraps on first use.  With ``wait_timeout``, a caught-up
        replica first parks on :meth:`ReplicationSource.wait_for` until the
        primary appends something new (or the timeout elapses) — the
        long-poll half of push replication, which keeps apply lag at
        notification latency instead of a poll interval.  Raises
        :class:`~repro.errors.JournalTruncatedError` when the cursor fell
        behind the primary's retention window — this replica can no longer
        catch up and must be rebuilt from a fresh bootstrap.
        """
        if self._promoted:
            raise ReplicationError(
                "replica {} was promoted; it no longer consumes the "
                "stream".format(self.replica_id))
        if not self._bootstrapped:
            self.bootstrap()
        if wait_timeout is not None:
            head = self._source.wait_for(
                self._replayer.applied_seq + 1, timeout=wait_timeout)
            self._head_seq = max(self._head_seq, head)
        applied = 0
        batches = 0
        while max_batches is None or batches < max_batches:
            batch = self._source.read_batch(
                self._replayer.applied_seq, limit=self._batch_limit,
                follower_id=self.replica_id)
            self._head_seq = max(self._head_seq, batch.head_seq)
            for record in batch.records:
                # Records stamped with the gateway's origin_request_id get
                # their apply recorded as a span *in that trace*, so the
                # request's timeline extends onto the follower (and stays
                # queryable there after promotion).
                origin = record.payload.get("origin_request_id")
                if origin is not None:
                    with trace_scope(origin), span_scope(
                            "replication.apply", seq=record.seq,
                            kind=record.kind, replica_id=self.replica_id):
                        self._replayer.apply(record)
                else:
                    self._replayer.apply(record)
                self._last_applied_event_at = record.timestamp
            applied += batch.count
            if batch.count:
                batches += 1
                self._batches_applied += 1
                self._metric_batch.observe(batch.count)
                self._metric_applied.inc(batch.count)
            if batch.caught_up or not batch.count:
                break
        self._syncs += 1
        self._metric_lag_records.set(self.lag_records)
        lag_seconds = self._lag_seconds()
        if lag_seconds is not None:
            self._metric_lag_seconds.set(lag_seconds)
        return {
            "applied": applied,
            "batches": batches,
            "applied_seq": self._replayer.applied_seq,
            "head_seq": self._head_seq,
            "lag_records": self.lag_records,
        }

    # --------------------------------------------------------------- promotion
    def promote(self, final_sync: bool = True) -> Dict[str, Any]:
        """Seal replay and turn this standby into a writable primary.

        The promotion sequence: (1) a final drain of the stream picks up
        everything the (possibly dead) primary made durable — with a
        journal-shipping source that works even after the primary process
        is gone, so loss is bounded to the un-streamed tail that never
        reached the journal; (2) ``resync_after_recovery`` rebuilds
        retry/backoff state from the replicated timer set, so deadlines and
        retries fire from exactly where the primary left them; (3)
        :meth:`~repro.service.GeleeService.set_writable` flips the runtime
        writable and wakes the dormant scheduler, and the read-only guard
        stands down.  Promotion is once: a second call
        raises :class:`~repro.errors.ReplicationError`.
        """
        if self._promoted:
            raise ReplicationError(
                "replica {} is already promoted".format(self.replica_id))
        with ensure_trace("promote"), \
                span_scope("replication.promote", replica_id=self.replica_id):
            return self._promote(final_sync)

    def _promote(self, final_sync: bool) -> Dict[str, Any]:
        started = time.perf_counter()
        drained = 0
        final_sync_error = None
        if final_sync:
            if not self._bootstrapped:
                # A cold promote (replica built over a dead primary's
                # directory, never synced): bootstrap AND drain — with
                # nothing streamed yet there is no partial state worth
                # promoting on, so source errors propagate.
                drained = self.sync()["applied"]
            else:
                try:
                    drained = self.sync()["applied"]
                except JournalTruncatedError:
                    # A gap means records this replica never saw are gone
                    # for good; promoting would silently serve a hole in
                    # history.
                    raise
                except StorageError as exc:
                    # The source is unreachable (primary host gone with its
                    # disk): promote on what was already streamed — that is
                    # the failover contract — but say so.
                    final_sync_error = str(exc)
        # Invocations the dead primary submitted but never completed were
        # replicated as RUNNING; no completion callback will ever arrive on
        # this node, so resolve them to a deterministic FAILED before the
        # scheduler wakes — its retry policies then treat them like any
        # other failure and can re-invoke.
        from ..persistence.recovery import fail_interrupted_invocations

        self._replayer.warn_unresolved()
        interrupted = len(fail_interrupted_invocations(
            self.service.manager, report=self._replayer.report))
        scheduler = self.service.scheduler
        retry_states = scheduler.resync_after_recovery()
        self.service.set_writable(True)
        self._promoted = True
        report = {
            "promoted": True,
            "replica_id": self.replica_id,
            "journal_seq": self._replayer.applied_seq,
            "records_drained": drained,
            "invocations_interrupted": self._replayer.report.invocations_interrupted,
            "instances_with_interrupted_invocations": interrupted,
            "retry_states_rebuilt": retry_states,
            "pending_timers": scheduler.timers.pending_count,
            "instances": self.service.manager.instance_count(),
            "warnings": list(self._replayer.report.warnings),
            "duration_ms": round((time.perf_counter() - started) * 1000, 3),
        }
        if final_sync_error is not None:
            report["final_sync_error"] = final_sync_error
        self._promotion_report = report
        return dict(report)

    # ------------------------------------------------------------------ status
    @property
    def role(self) -> str:
        return "primary" if self._promoted else "replica"

    def status(self) -> Dict[str, Any]:
        """The ``GET /v2/runtime/replication`` body on this node."""
        report = self._replayer.report
        status: Dict[str, Any] = {
            "enabled": True,
            "role": self.role,
            "replica_id": self.replica_id,
            "bootstrapped": self._bootstrapped,
            "promoted": self._promoted,
            "read_only": self.service.read_only,
            "applied_seq": self._replayer.applied_seq,
            "head_seq": self._head_seq,
            "lag_records": self.lag_records,
            "lag_seconds": self._lag_seconds(),
            "last_applied_event_at": self._last_applied_event_at,
            "snapshot_seq": report.snapshot_seq,
            "records_applied": report.records_replayed,
            "records_skipped": report.records_skipped,
            "timer_records_applied": report.timer_records_replayed,
            "batches_applied": self._batches_applied,
            "syncs": self._syncs,
            "warnings": len(report.warnings),
            "instances": self.service.manager.instance_count(),
            "pending_timers": self.service.scheduler.timers.pending_count,
            "source": self._source.describe(),
        }
        if self._promotion_report is not None:
            status["promotion"] = dict(self._promotion_report)
        return status

    def _lag_seconds(self) -> Optional[float]:
        """Wall-clock staleness estimate from the newest applied record.

        Only meaningful when primary and replica share a clock domain (both
        wall-clock, or one simulated clock driving both); ``None`` when
        nothing was applied yet or the arithmetic is impossible.
        """
        if self._last_applied_event_at is None or self.lag_records == 0:
            return 0.0 if self._last_applied_event_at is not None else None
        try:
            from datetime import datetime

            applied_at = datetime.fromisoformat(self._last_applied_event_at)
            return max(0.0, (self.service.manager.clock.now() - applied_at)
                       .total_seconds())
        except (ValueError, TypeError):
            return None


class StreamFollower:
    """A background thread that keeps a :class:`ReadReplica` continuously
    synced through push/long-poll.

    The pre-push design ran :meth:`ReadReplica.sync` on a timer, so apply
    lag averaged half the poll interval.  The follower instead loops
    ``sync(wait_timeout=...)``: a caught-up replica parks inside the
    source's :meth:`~repro.replication.stream.ReplicationSource.wait_for`
    and is woken by the primary's journal append, so records land on the
    replica within notification latency.  ``wait_timeout`` is only the
    *re-arm* bound (how long one park lasts before the loop re-checks for
    shutdown), not the replication lag.
    """

    def __init__(self, replica: ReadReplica, wait_timeout: float = 1.0,
                 on_error=None):
        self._replica = replica
        self._wait_timeout = wait_timeout
        self._on_error = on_error
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._syncs = 0
        self._records_applied = 0
        self._errors = 0
        self._last_error: Optional[str] = None

    def start(self) -> "StreamFollower":
        if self._thread is not None:
            raise ReplicationError("stream follower is already running")
        self._thread = threading.Thread(
            target=self._run, name="gelee-stream-follower", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stats(self) -> Dict[str, Any]:
        return {
            "running": self.running,
            "syncs": self._syncs,
            "records_applied": self._records_applied,
            "errors": self._errors,
            "last_error": self._last_error,
            "wait_timeout": self._wait_timeout,
        }

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                result = self._replica.sync(wait_timeout=self._wait_timeout)
                self._syncs += 1
                self._records_applied += result["applied"]
            except ReplicationError:
                # Promotion raced the loop; the follower's job is done.
                break
            except Exception as exc:  # noqa: BLE001 - surfaced via stats()
                self._errors += 1
                self._last_error = str(exc)
                if self._on_error is not None:
                    self._on_error(exc)
                # Back off instead of spinning on a persistent failure.
                self._stop.wait(self._wait_timeout)
