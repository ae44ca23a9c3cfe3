"""Replication: journal streaming, warm standbys, read replicas, failover.

The durable runtime (:mod:`repro.persistence`) made one process
restartable; this package makes the *deployment* survive losing that
process — and multiplies read throughput on the way:

* :mod:`~repro.replication.stream` — the journal as a resumable,
  rotation-safe record stream: per-segment cursors, snapshot bootstrap,
  typed staleness (:class:`~repro.errors.JournalTruncatedError`), and the
  log-shipping :class:`JournalShippingSource` that keeps working after the
  primary process dies;
* :mod:`~repro.replication.primary` — :class:`ReplicationPrimary`, the
  live primary's streaming endpoint with follower-lag tracking;
* :mod:`~repro.replication.replica` — :class:`ReadReplica`, a complete
  read-only service kept continuously in sync through the recovery
  reducer, serving the v2 read surface, promotable to primary;
* :mod:`~repro.replication.httpsource` — :class:`HttpReplicationSource`,
  the same stream consumed over the primary's v2 HTTP surface (bootstrap
  route + long-poll stream route), so followers run off-host with nothing
  shared but a TCP route.

Typical wiring (see ``docs/REPLICATION.md`` and
``examples/replicated_service.py``)::

    config = PersistenceConfig("/var/lib/gelee")
    primary = GeleeService(persistence=config)
    ReplicationPrimary(primary)                      # streaming endpoint

    replica = ReadReplica(JournalShippingSource(config),
                          primary_hint="https://gelee-primary:8080")
    replica.sync()                                   # bootstrap + catch up
    follower = StreamFollower(replica).start()       # push-driven tailing

    # primary dies →
    follower.stop()
    replica.promote()                                # drain, wake, go writable
"""

from .httpsource import HttpReplicationSource
from .primary import ReplicationPrimary
from .replica import ReadReplica, StreamFollower
from .stream import (
    DEFAULT_BATCH_LIMIT,
    BootstrapPayload,
    JournalShippingSource,
    ReplicationSource,
    StreamBatch,
)

__all__ = [
    "DEFAULT_BATCH_LIMIT",
    "BootstrapPayload",
    "HttpReplicationSource",
    "JournalShippingSource",
    "ReadReplica",
    "ReplicationPrimary",
    "ReplicationSource",
    "StreamBatch",
    "StreamFollower",
]
