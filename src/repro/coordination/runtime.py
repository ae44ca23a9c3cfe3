"""Service-tier coordination wiring: one knob, full election semantics.

``GeleeService(coordination=CoordinationConfig(...))`` attaches a
:class:`Coordinator` to the deployment.  It owns this node's
:class:`~repro.coordination.LeaderElector` and reacts to the election
edges:

* **elected** — a :class:`~repro.coordination.FencingGuard` for the won
  epoch is installed on the write path (the journal's append fence and the
  runtime managers' write guard), and a previously demoted node flips back
  to writable;
* **deposed** — the guard latches invalid, the runtime flips read-only,
  the scheduler goes dormant, and ``primary_hint`` points at the new
  leader.  A deposed primary therefore answers reads, 409s writes with the
  stale fencing token, and stops ticking timers — the single-ticker
  guarantee from the losing side.

Heartbeats are *driven by the host*, not by a thread of this object: the
election-aware :class:`~repro.scheduler.SchedulerDaemon` calls
:meth:`Coordinator.heartbeat` on its poll cadence (simulated-clock tests
call it directly).  Fencing rejections observed on the journal path demote
lazily on the next heartbeat — never on the publisher's thread, which may
hold the kernel lock.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..clock import Clock
from ..errors import CoordinationError, StaleFencingTokenError
from .elector import LeaderElector
from .fencing import FencingGuard
from .lease import (
    DEFAULT_LEASE_NAME,
    Lease,
    LeaseStore,
    MemoryLeaseStore,
    SQLiteLeaseStore,
)

#: File name of the SQLite lease table under ``CoordinationConfig.directory``.
LEASE_DB_FILENAME = "leases.sqlite3"


@dataclass
class CoordinationConfig:
    """Everything needed to join (or re-join) a deployment's election.

    Attributes:
        store: a pre-built :class:`~repro.coordination.LeaseStore` shared
            with the other contenders (tests share a
            :class:`~repro.coordination.MemoryLeaseStore`).
        directory: alternative to ``store`` — the path under which the
            SQLite lease table lives (``leases.sqlite3``); every process
            of the deployment points here.
        lease_name: the contested name; one name = one leadership domain.
        node_id: this node's identity in the lease table (defaults to a
            generated ``node-...`` id).
        ttl_seconds: lease validity per acquisition/renewal.  Heartbeats
            must run several times per TTL; the failover detection floor
            is one TTL.
        acquire_on_start: run the first election round during service
            construction (on by default — a single-node deployment is
            leader before serving its first request).
        fence_writes: install the epoch's :class:`FencingGuard` on the
            journal and the runtime write path.
        fence_revalidate_seconds: how long the guard trusts its cached
            verdict between lease-store reads (``0`` = validate every
            write; deterministic tests use this).
        demote_on_lease_loss: flip the runtime read-only when deposed.
        resign_on_close: release the lease during ``service.close()`` so a
            standby can take over immediately instead of waiting out the
            TTL.
    """

    store: Optional[LeaseStore] = None
    directory: Optional[str] = None
    lease_name: str = DEFAULT_LEASE_NAME
    node_id: Optional[str] = None
    ttl_seconds: float = 15.0
    acquire_on_start: bool = True
    fence_writes: bool = True
    fence_revalidate_seconds: float = 1.0
    demote_on_lease_loss: bool = True
    resign_on_close: bool = True

    def __post_init__(self):
        if self.store is None and not self.directory:
            raise CoordinationError(
                "coordination needs a shared lease store: pass store=... or "
                "directory=... (electing against a private store would make "
                "every node 'leader')")
        if self.ttl_seconds <= 0:
            raise CoordinationError("ttl_seconds must be positive")

    def open_store(self, clock: Clock = None) -> LeaseStore:
        """The configured store (owned by the caller when built here)."""
        if self.store is not None:
            return self.store
        return SQLiteLeaseStore(
            os.path.join(self.directory, LEASE_DB_FILENAME), clock=clock)


class Coordinator:
    """One node's coordination runtime, attached as ``service.coordination``."""

    def __init__(self, service, config: CoordinationConfig,
                 clock: Clock = None):
        self._service = service
        self._config = config
        self._clock = clock
        self._store = config.open_store(clock=clock)
        self._owns_store = config.store is None
        self._lock = threading.RLock()
        self._guard: Optional[FencingGuard] = None
        self._demotions = 0
        self._demoted = False
        #: Set (cheaply, from any thread) when the journal fence rejected an
        #: append; the next heartbeat demotes.  Demotion takes the kernel
        #: lock, so it must never run on a bus handler's thread.
        self._fence_tripped = threading.Event()
        self.elector = LeaderElector(
            self._store, name=config.lease_name, node_id=config.node_id,
            ttl_seconds=config.ttl_seconds, clock=clock,
            on_elected=self._on_elected, on_deposed=self._on_deposed)
        if service.persistence is not None:
            service.persistence.on_fenced = self._on_journal_fenced
        if config.acquire_on_start:
            self.heartbeat()

    # ------------------------------------------------------------------ state
    @property
    def store(self) -> LeaseStore:
        return self._store

    @property
    def is_leader(self) -> bool:
        return self.elector.is_leader

    @property
    def node_id(self) -> str:
        return self.elector.node_id

    @property
    def token(self) -> int:
        return self.elector.token

    @property
    def guard(self) -> Optional[FencingGuard]:
        return self._guard

    # -------------------------------------------------------------- heartbeat
    def heartbeat(self) -> bool:
        """One election round; returns whether this node leads afterwards.

        The single periodic entry point (the election-aware
        :class:`~repro.scheduler.SchedulerDaemon` calls it every poll):
        processes a pending fence demotion first, then renews or campaigns.
        """
        with self._lock:
            if self._fence_tripped.is_set():
                self._fence_tripped.clear()
                if self._guard is not None:
                    self._guard.invalidate("journal append was fenced")
                self._demote()
                # The elector still thinks it leads; the renew below fails
                # against the newer epoch and records the deposition.
            return self.elector.heartbeat()

    # ------------------------------------------------------------- operations
    def resign(self) -> Dict[str, Any]:
        """Voluntarily hand leadership off (``:resign`` admin operation).

        Releases the lease (the next contender acquires immediately, with
        a fresh fencing token) and demotes this node to read-only.  Raises
        :class:`~repro.errors.NotLeaderError` when not leading.
        """
        with self._lock:
            lease = self.elector.resign()
            return {"resigned": True, "node_id": self.elector.node_id,
                    "lease": lease.to_dict()}

    def status(self) -> Dict[str, Any]:
        report = self.elector.status()
        report["enabled"] = True
        report["role"] = "leader" if report["is_leader"] else "standby"
        report["demoted"] = self._demoted
        report["demotions"] = self._demotions
        report["fencing"] = self._guard.status() if self._guard else None
        persistence = self._service.persistence
        if persistence is not None:
            report["fenced_appends"] = persistence.fenced_appends
        return report

    def close(self) -> None:
        """Resign (per config) and release the store handle."""
        with self._lock:
            if self._config.resign_on_close and self.elector.is_leader:
                try:
                    self.elector.resign()
                except CoordinationError:
                    pass  # lost the lease between the check and the release
            persistence = self._service.persistence
            if persistence is not None:
                persistence.journal.set_fence(None)
            if self._owns_store:
                self._store.close()

    # ------------------------------------------------------------------ edges
    def _on_elected(self, lease: Lease) -> None:
        if self._config.fence_writes:
            self._guard = FencingGuard(
                self._store, lease.name, lease.token,
                holder_id=self.elector.node_id,
                revalidate_seconds=self._config.fence_revalidate_seconds)
            check = self._guard.check
            persistence = self._service.persistence
            if persistence is not None:
                persistence.journal.set_fence(self._guard)
            self._service.manager.set_write_guard(lambda operation: check())
        if self._demoted:
            # Re-elected after a demotion: the new epoch makes this node
            # writable again (its journal fence now carries the new token).
            self._service.set_writable(True)
            self._demoted = False

    def _on_deposed(self, reason: str) -> None:
        if self._guard is not None:
            self._guard.invalidate(reason)
        if self._config.demote_on_lease_loss:
            self._demote()

    def _on_journal_fenced(self, exc: StaleFencingTokenError) -> None:
        # Runs on the publishing thread (possibly inside the kernel lock)
        # — only flag; heartbeat() does the heavy demotion.
        self._fence_tripped.set()

    def _demote(self) -> None:
        if self._demoted:
            return
        self._demoted = True
        self._demotions += 1
        leader = self._store.leader(self._config.lease_name)
        hint = self._service.primary_hint
        if leader is not None and leader.holder_id != self.elector.node_id:
            hint = leader.holder_id
        self._service.set_writable(False, primary_hint=hint)
