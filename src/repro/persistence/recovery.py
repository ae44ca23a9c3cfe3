"""Crash recovery: rebuild a lifecycle runtime from snapshot + journal.

:func:`recover_into` takes a *freshly built, empty* manager and an empty
execution log,
and rebuilds the pre-crash state in three steps:

1. **Snapshot restore.**  The newest manifest provides the design-time
   models (re-installed version by version, in publication order) and the
   execution-log state; the instance store provides one full state document
   per instance.  Everything is installed through the silent recovery hooks
   (:meth:`~repro.runtime.manager.LifecycleManager.install_model` /
   ``install_instance``) — recovered state is *not* re-published on the
   bus, so an attached coordinator would not journal it again.  A document
   refers to its published model version by ``(uri, version)`` and shares
   the installed, frozen object; a version the manifest lacks (a document
   newer than the manifest) waits until journal replay installs it, and
   one that never arrives is a warning, never a substitute.
2. **Journal replay.**  Records with ``seq > manifest.journal_seq`` are
   applied in order.  Replay is a *state reducer*, not a re-execution: a
   ``instance.phase_entered`` record moves the token via
   ``record_entry`` — it does **not** re-dispatch phase actions, so
   recovery has no side effects and is deterministic for a given journal.
   Each restored instance document remembers the journal position it was
   flushed at (``journal_seq``); records at or below that position are
   skipped for that instance, which makes replay idempotent even when a
   crash interleaved a store flush with the manifest publish.
3. **Log append.**  Every replayed record is appended to the execution
   log, whose restored sequence counter continues the pre-crash numbering —
   after recovery the log's contents are identical to the pre-crash log.

Pending change proposals are the one piece of state that does not survive:
they are conversational (designer asked, owner has not decided) and are
simply re-opened after a restart.  Decided proposals already mutated their
instances, which *is* recovered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Dict, List, Tuple

from ..errors import GeleeError, LifecycleNotFoundError
from ..model.lifecycle import LifecycleModel
from ..model.annotation import Annotation
from ..resources.descriptor import ResourceDescriptor
from ..runtime.instance import LifecycleInstance
from .journal import Journal, JournalRecord
from .snapshot import SnapshotStore
from .store import SQLiteStore

#: Event kinds replay applies to instance state; everything else is either
#: design-time (handled separately), derived (``instance.completed``,
#: ``instance.phase_left``) or informational (``action.*`` statuses).
MUTATING_KINDS = frozenset((
    "instance.created",
    "instance.phase_entered",
    "instance.annotated",
    "instance.model_changed",
    "propagation.accepted",
))

#: Timer events replayed into a :class:`~repro.scheduler.timers.TimerService`
#: when one is passed to :func:`recover_into`.  ``timer.fired`` removes the
#: timer (a recurring timer's next occurrence arrives as its own
#: ``timer.scheduled`` record), so replay is a plain state reducer.
TIMER_KINDS = frozenset((
    "timer.scheduled",
    "timer.cancelled",
    "timer.fired",
))


@dataclass
class RecoveryReport:
    """What :func:`recover_into` rebuilt, for logs and the status endpoint."""

    snapshot_seq: int = 0
    models_restored: int = 0
    instances_restored: int = 0
    log_entries_restored: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    instances_created_from_journal: int = 0
    invocations_interrupted: int = 0
    timers_restored: int = 0
    timer_records_replayed: int = 0
    duration_ms: float = 0.0
    warnings: List[str] = field(default_factory=list)
    #: Instances the journal tail mutated beyond their stored documents.
    #: Whoever attaches a coordinator next MUST mark these dirty (the
    #: service tier does), or the next checkpoint would advance the
    #: manifest past their records while the store still holds stale state.
    touched_instance_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_seq": self.snapshot_seq,
            "models_restored": self.models_restored,
            "instances_restored": self.instances_restored,
            "log_entries_restored": self.log_entries_restored,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "instances_created_from_journal": self.instances_created_from_journal,
            "invocations_interrupted": self.invocations_interrupted,
            "timers_restored": self.timers_restored,
            "timer_records_replayed": self.timer_records_replayed,
            "instances_touched_by_replay": len(self.touched_instance_ids),
            "duration_ms": self.duration_ms,
            "warnings": list(self.warnings),
        }


class JournalReplayer:
    """Incremental, side-effect-free application of journal records.

    The reducer half of recovery, factored out so it can run in two modes:

    * **one-shot** — :func:`recover_into` drains the whole journal tail at
      boot;
    * **incremental** — a :class:`~repro.replication.ReadReplica` holds one
      replayer for its lifetime and feeds it stream batches as they arrive,
      keeping a warm standby continuously in sync.

    The replayer owns the ``covered`` map (instance id → journal seq its
    restored document already contains, making replay idempotent) and the
    ``touched`` set (instances mutated beyond their stored documents, which
    the next checkpoint must re-flush).  It never publishes on any bus:
    every mutation goes through the silent install/record hooks, so an
    attached coordinator — or a replica's own dormant scheduler — observes
    nothing.
    """

    def __init__(self, manager, log, timers=None, report: RecoveryReport = None):
        self._manager = manager
        self._log = log
        self._timers = timers
        self.report = report if report is not None else RecoveryReport()
        #: instance id -> journal seq its restored document already covers.
        self._covered: Dict[str, int] = {}
        self._touched: Dict[str, bool] = {}
        #: (model uri, version) -> state documents whose model reference
        #: waits for replay to install that version.
        self._waiting: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        #: Highest journal seq applied so far (replication lag tracking).
        self.applied_seq = 0

    def cover(self, instance_id: str, seq: int) -> None:
        """Mark an instance's restored document as covering ``seq``."""
        self._covered[instance_id] = seq

    def restore_document(self, document: Dict[str, Any], default_seq: int) -> None:
        """Install one instance store document, or hold it until its model
        version is installed (a document newer than the manifest may refer
        to a version only the journal tail publishes)."""
        state = document["state"]
        self.cover(state["instance_id"], int(document.get("journal_seq", default_seq)))
        try:
            self._install_state(state)
        except LifecycleNotFoundError:
            reference = state["model"]
            key = (reference["uri"], reference["version_number"])
            self._waiting.setdefault(key, []).append(state)

    def _install_state(self, state: Dict[str, Any]) -> None:
        self._manager.install_instance(
            LifecycleInstance.from_state_dict(state, catalog=self._manager.model))
        self.report.instances_restored += 1

    def _install_waiting(self) -> None:
        for key in list(self._waiting):
            try:
                self._manager.model(*key)
            except LifecycleNotFoundError:
                continue
            for state in self._waiting.pop(key):
                self._install_state(state)

    def warn_unresolved(self) -> None:
        """Report held documents whose model version never arrived."""
        for (uri, version), states in self._waiting.items():
            for state in states:
                self.report.warnings.append(
                    "instance {}: model {!r} version {} is not installed; the "
                    "instance was not restored".format(state["instance_id"], uri, version))

    def touched_instance_ids(self) -> List[str]:
        return list(self._touched)

    def apply(self, record: JournalRecord) -> bool:
        """Reduce one journal record into the runtime; ``True`` if it
        mutated instance/timer state (vs. being informational)."""
        self._log.record(record.kind, record.event_timestamp, record.subject_id,
                         record.actor, dict(record.payload))
        self.report.records_replayed += 1
        self.applied_seq = max(self.applied_seq, record.seq)
        if record.kind in TIMER_KINDS:
            if self._timers is not None:
                _apply_timer(self._timers, record)
                self.report.timer_records_replayed += 1
                return True
            return False
        if record.kind not in MUTATING_KINDS and not record.kind.startswith("model."):
            return False
        if self._covered.get(record.subject_id, 0) >= record.seq:
            self.report.records_skipped += 1
            return False
        try:
            _apply(self._manager, record, self.report)
        except GeleeError as exc:
            self.report.warnings.append("record #{} ({}): {}".format(
                record.seq, record.kind, exc))
            return False
        if record.kind in MUTATING_KINDS:
            self._touched[record.subject_id] = True
        elif self._waiting:  # a model.* record may install an awaited version
            self._install_waiting()
        return True


def recover_into(manager, log, journal: Journal, snapshots: SnapshotStore,
                 store: SQLiteStore, timers=None) -> RecoveryReport:
    """Rebuild ``manager`` and ``log`` from the durable state on disk.

    ``manager`` must be empty (fresh environment, no models or instances).

    ``timers`` is an optional, empty
    :class:`~repro.scheduler.timers.TimerService`: the manifest's pending
    set is restored into it and ``timer.*`` journal records are replayed
    through its silent hooks, so deadline, retry and maintenance schedules
    survive the restart alongside the instances they drive.
    """
    started = time.perf_counter()
    report = RecoveryReport()
    replayer = JournalReplayer(manager, log, timers=timers, report=report)
    base_seq = restore_snapshot(manager, log, snapshots.latest(), store.all(),
                                timers=timers, replayer=replayer)

    for record in journal.read(after_seq=base_seq):
        replayer.apply(record)
    replayer.warn_unresolved()

    interrupted = fail_interrupted_invocations(manager, report=report)
    report.touched_instance_ids = replayer.touched_instance_ids()
    for instance_id in interrupted:
        if instance_id not in report.touched_instance_ids:
            report.touched_instance_ids.append(instance_id)
    report.duration_ms = round((time.perf_counter() - started) * 1000, 3)
    return report


#: Error string stamped onto invocations that were in flight when the node
#: died.  Deterministic so a recovered runtime (or a promoted replica) is
#: bit-identical regardless of *when* the crash interrupted the round-trip.
INTERRUPTED_ERROR = "interrupted: node restarted while the action was in flight"


def fail_interrupted_invocations(manager, report: RecoveryReport = None,
                                 error: str = INTERRUPTED_ERROR) -> List[str]:
    """Deterministically fail every non-terminal action invocation.

    Completion-based dispatch persists an invocation as ``RUNNING`` the
    moment it is submitted; if the node dies before the completion callback
    runs, the recovered state document still says ``RUNNING`` even though no
    web service round-trip is in flight any more.  Recovery (and replica
    promotion — see :meth:`~repro.replication.ReadReplica.promote`) resolves
    these orphans by failing them with a fixed :data:`INTERRUPTED_ERROR`, so
    the scheduler's retry policies see an ordinary failure and can re-invoke.

    Returns the ids of instances that owned at least one interrupted
    invocation — their state documents changed and must be re-flushed.
    """
    from ..actions.invocation import ActionStatus, StatusMessage

    touched: List[str] = []
    count = 0
    for instance in manager.instances():
        dirty = False
        for invocation in instance.all_invocations():
            if invocation.status.is_terminal:
                continue
            now = manager.clock.now()
            invocation.record(StatusMessage(
                status=ActionStatus.FAILED.value, detail=error, timestamp=now))
            invocation.error = error
            if invocation.finished_at is None:
                invocation.finished_at = now
            count += 1
            dirty = True
        if dirty:
            touched.append(instance.instance_id)
    if report is not None:
        report.invocations_interrupted += count
    return touched


def restore_snapshot(manager, log, manifest, documents, timers=None, *,
                     replayer: JournalReplayer) -> int:
    """Restore a snapshot (manifest + instance documents) into ``manager``.

    Returns the journal sequence number the snapshot covers (0 without a
    manifest).  Shared by boot recovery and replication bootstrap: the
    ``manifest`` may come from the local snapshot store or shipped from a
    primary, and ``documents`` are the instance store documents either way.
    The coverage of each restored document is recorded on ``replayer`` so
    subsequent journal replay skips what the documents already contain, and
    ``replayer`` holds documents whose model version replay still has to
    install (see :meth:`JournalReplayer.restore_document`).
    """
    report = replayer.report
    base_seq = 0
    if manifest is not None:
        base_seq = manifest.journal_seq
        report.snapshot_seq = base_seq
        for group in manifest.models:
            for document in group.get("versions", []):
                if manager.install_model(LifecycleModel.from_dict(document)):
                    report.models_restored += 1
        log.restore_state(manifest.log)
        report.log_entries_restored = len(manifest.log.get("entries", []))
        if timers is not None and manifest.scheduler:
            report.timers_restored = timers.restore_state(manifest.scheduler)

    # Instance documents can be *newer* than the manifest (a crash between
    # the store flush and the manifest publish); their journal_seq makes
    # replay skip what they already contain.
    for document in documents:
        replayer.restore_document(document, base_seq)
    replayer.applied_seq = max(replayer.applied_seq, base_seq)
    return base_seq


# ---------------------------------------------------------------------- reducer
def _apply(manager, record: JournalRecord, report: RecoveryReport) -> None:
    kind = record.kind
    state = record.state or {}

    if kind in ("model.published", "model.updated"):
        document = state.get("model")
        if document is None:
            report.warnings.append(
                "record #{}: model event without embedded document".format(record.seq))
            return
        # Journals written by the former sharded runtime hold one publish
        # per shard; install_model is idempotent per version, so replaying
        # all of them is safe.
        if manager.install_model(LifecycleModel.from_dict(document)):
            report.models_restored += 1
        return

    if kind == "instance.created":
        creation = state.get("instance")
        if creation is None:
            report.warnings.append(
                "record #{}: instance.created without creation state".format(record.seq))
            return
        # A version that is not installed raises: the caller reports a
        # warning instead of attaching the instance to some other version.
        model = manager.model(creation["model_uri"],
                              version=creation.get("model_version"))
        instance = LifecycleInstance(
            model=model,
            resource=ResourceDescriptor.from_dict(creation["resource"]),
            owner=creation["owner"],
            created_at=record.event_timestamp,
            instance_id=record.subject_id,
            token_owners=list(creation.get("token_owners") or []),
            metadata=dict(creation.get("metadata") or {}),
        )
        for call_id, values in (creation.get("instantiation_parameters") or {}).items():
            instance.bind_instantiation_parameters(call_id, values)
        manager.install_instance(instance)
        report.instances_created_from_journal += 1
        return

    if kind == "instance.phase_entered":
        instance = manager.instance(record.subject_id)
        instance.record_entry(record.payload["phase_id"], record.event_timestamp,
                              record.actor or "", record.payload.get("followed_model", True))
        manager.reindex_instance(record.subject_id)
        return

    if kind == "instance.annotated":
        instance = manager.instance(record.subject_id)
        instance.annotate(Annotation(
            text=record.payload.get("text", ""),
            author=record.actor or "",
            created_at=record.event_timestamp,
            phase_id=record.payload.get("phase_id"),
            kind=record.payload.get("kind", "note"),
        ))
        return

    if kind in ("instance.model_changed", "propagation.accepted"):
        document = state.get("model")
        if document is None:
            report.warnings.append(
                "record #{}: {} without embedded model".format(record.seq, kind))
            return
        instance = manager.instance(record.subject_id)
        target = record.payload.get("target_phase")
        if target is None:
            target = record.payload.get("target_phase_id")
        instance.replace_model(LifecycleModel.from_dict(document), target)
        manager.reindex_instance(record.subject_id)
        return


def _apply_timer(timers, record: JournalRecord) -> None:
    """Reduce one ``timer.*`` record into the timer service (silently)."""
    if record.kind == "timer.scheduled":
        from ..scheduler.timers import Timer

        payload = record.payload
        timers.install_timer(Timer(
            timer_id=record.subject_id,
            fire_at=datetime.fromisoformat(payload["fire_at"]),
            kind=payload.get("timer_kind", "user"),
            subject_id=payload.get("timer_subject_id", ""),
            payload=dict(payload.get("timer_payload") or {}),
            interval_seconds=payload.get("interval_seconds"),
            attempts=int(payload.get("attempts", 0)),
        ))
    else:  # timer.cancelled / timer.fired both remove the pending timer.
        timers.remove_timer(record.subject_id)

