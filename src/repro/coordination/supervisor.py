"""Automatic failover: the daemon that decides when ``promote()`` runs.

The replication subsystem shipped zero-loss promotion (PR 5) but left the
*decision* to a human.  :class:`FailoverSupervisor` closes the loop for one
standby: it watches the primary through a
:class:`~repro.coordination.HealthMonitor`, and once the failure threshold
is crossed it campaigns for the leadership lease.  Winning proves two
things at once — the primary stopped renewing (it is dead or partitioned
away from the store, either way unfit to lead) and *this* standby, not a
sibling, owns the next epoch.  Only then does it drive
:meth:`~repro.replication.ReadReplica.promote`, which drains the dead
primary's journal tail, fails interrupted invocations, wakes the dormant
scheduler and flips the runtime writable.

The acquisition bumps the fencing token, so the moment the supervisor wins,
the old primary's epoch is dead on arrival: its journal fence and write
guard reject every late write with
:class:`~repro.errors.StaleFencingTokenError` — split-brain fenced from
both sides.

After promotion the supervisor stays on as the new primary's coordination
attachment (``service.coordination``): it keeps renewing the lease on every
poll, serves ``GET /v2/runtime/coordination`` and honours ``:resign``.

Deterministic hosts call :meth:`poll` with a
:class:`~repro.clock.SimulatedClock`; wall-clock deployments run
:meth:`start`'s daemon thread.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..clock import Clock
from ..errors import CoordinationError, NotLeaderError
from .elector import LeaderElector
from .fencing import FencingGuard
from .health import HealthMonitor
from .lease import DEFAULT_LEASE_NAME, LeaseStore


class FailoverSupervisor:
    """Watch the primary; on sustained failure, win the lease and promote."""

    def __init__(self, replica, monitor: HealthMonitor,
                 store: LeaseStore = None, elector: LeaderElector = None,
                 lease_name: str = DEFAULT_LEASE_NAME,
                 ttl_seconds: float = 15.0, node_id: str = None,
                 clock: Clock = None,
                 fence_revalidate_seconds: float = 1.0):
        if elector is None:
            if store is None:
                raise CoordinationError(
                    "the supervisor needs the deployment's lease store "
                    "(store=...) or a pre-built elector")
            elector = LeaderElector(
                store, name=lease_name, ttl_seconds=ttl_seconds,
                node_id=node_id or getattr(replica, "replica_id", None),
                clock=clock)
        self._replica = replica
        self._monitor = monitor
        self.elector = elector
        self._clock = clock
        self._fence_revalidate = fence_revalidate_seconds
        self._lock = threading.RLock()
        self._guard: Optional[FencingGuard] = None
        self._failovers = 0
        self._polls = 0
        self._last_report: Dict[str, Any] = {"state": "watching"}
        self._resigned = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ state
    @property
    def replica(self):
        return self._replica

    @property
    def monitor(self) -> HealthMonitor:
        return self._monitor

    @property
    def failovers(self) -> int:
        with self._lock:
            return self._failovers

    @property
    def is_leader(self) -> bool:
        return self.elector.is_leader

    @property
    def node_id(self) -> str:
        return self.elector.node_id

    # ------------------------------------------------------------------- poll
    def poll(self, now=None) -> Dict[str, Any]:
        """One supervision step; returns what happened.

        States: ``watching`` (primary healthy / threshold not crossed),
        ``waiting_for_lease`` (primary down but its lease has not expired,
        or a sibling standby won), ``failover`` (this poll promoted),
        ``promoted`` (steady state after failover; renews the lease),
        ``resigned`` (leadership given back; supervision over).
        """
        with self._lock:
            self._polls += 1
            if self._resigned:
                return dict(self._last_report)
            if self._replica.is_promoted:
                # Steady state: we are the primary now; keep the lease warm.
                leading = self.elector.heartbeat()
                report = {"state": "promoted", "is_leader": leading,
                          "failovers": self._failovers}
                self._last_report = report
                return dict(report)
            self._monitor.poll(now=now)
            if not self._monitor.is_unhealthy:
                report = {
                    "state": "watching",
                    "consecutive_failures": self._monitor.consecutive_failures,
                }
                self._last_report = report
                return dict(report)
            # The primary is judged dead; the lease store arbitrates.  The
            # acquisition only succeeds once the primary's lease ran out —
            # a live-but-slow primary keeps renewing and keeps us out.
            if not self.elector.try_acquire():
                report = {"state": "waiting_for_lease",
                          "unhealthy_since": self._unhealthy_since_iso()}
                self._last_report = report
                return dict(report)
            report = self._failover()
            self._last_report = report
            return dict(report)

    def _unhealthy_since_iso(self) -> Optional[str]:
        since = self._monitor.unhealthy_since
        return since.isoformat() if since is not None else None

    def _failover(self) -> Dict[str, Any]:
        detected_at = self._monitor.unhealthy_since
        started = time.perf_counter()
        promotion = self._replica.promote()
        service = self._replica.service
        lease = self.elector.lease
        if lease is not None:
            self._guard = FencingGuard(
                self.elector.store, lease.name, lease.token,
                holder_id=self.elector.node_id,
                revalidate_seconds=self._fence_revalidate)
            check = self._guard.check
            service.manager.set_write_guard(lambda operation: check())
        # The promoted service now answers /v2/runtime/coordination itself.
        service.coordination = self
        self._failovers += 1
        detection_seconds = None
        if detected_at is not None:
            now = self._clock.now() if self._clock is not None \
                else self.elector.store.now()
            detection_seconds = max(0.0, (now - detected_at).total_seconds())
        self._monitor.reset()
        return {
            "state": "failover",
            "token": self.elector.token,
            "promotion": promotion,
            "promotion_ms": round((time.perf_counter() - started) * 1000, 3),
            "detection_to_promotion_seconds": detection_seconds,
            "failovers": self._failovers,
        }

    # ------------------------------------------------- coordination attachment
    def heartbeat(self) -> bool:
        """Elector heartbeat (the election-aware daemon can drive this)."""
        return self.elector.heartbeat()

    def resign(self) -> Dict[str, Any]:
        """Give the won leadership back (``:resign`` on the promoted node).

        Releases the lease and flips the promoted runtime read-only again —
        promotion itself is one-way, but a resigned node must stop writing
        so the next epoch's winner is the only writer.
        """
        with self._lock:
            if not self.elector.is_leader:
                raise NotLeaderError(
                    "supervisor {!r} does not hold the lease; nothing to "
                    "resign".format(self.elector.node_id))
            lease = self.elector.resign()
            if self._guard is not None:
                self._guard.invalidate("resigned voluntarily")
            self._replica.service.set_writable(False)
            self._resigned = True
            self._last_report = {"state": "resigned"}
            return {"resigned": True, "node_id": self.elector.node_id,
                    "lease": lease.to_dict()}

    def status(self) -> Dict[str, Any]:
        report = self.elector.status()
        with self._lock:
            report.update({
                "enabled": True,
                "role": "leader" if report["is_leader"] else "standby",
                "supervisor": True,
                "polls": self._polls,
                "failovers": self._failovers,
                "last_report": dict(self._last_report),
                "monitor": self._monitor.status(),
                "fencing": self._guard.status() if self._guard else None,
            })
        return report

    # ---------------------------------------------------------------- daemon
    @property
    def is_running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self, poll_seconds: float = 0.5) -> "FailoverSupervisor":
        """Run :meth:`poll` on a daemon thread every ``poll_seconds``."""
        if poll_seconds <= 0:
            raise CoordinationError("poll_seconds must be positive")
        with self._lock:
            if self.is_running:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, args=(poll_seconds,), daemon=True,
                name="gelee-failover-supervisor")
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Idempotent, thread-safe shutdown; wakes a sleeping poll loop."""
        self._stop.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout)

    def _run(self, poll_seconds: float) -> None:
        while not self._stop.is_set():
            try:
                self.poll()
            except Exception:  # noqa: BLE001 - supervision must outlive bad polls
                pass
            self._stop.wait(poll_seconds)
