"""Contention profiling: timed locks, queue-depth capture, stack sampling.

Open item 1 on the ROADMAP (cross-process scale-out) will live or die on
where the single process serialises today.  Two tools make that visible:

* :class:`TimedLock` — a drop-in wrapper around a ``threading`` lock
  that *samples* acquisition wait time into the shared
  ``gelee_lock_wait_seconds{site=...}`` histogram.  Sampling (default:
  one acquisition in 16, the first always included) keeps the wrapper
  cheap enough for the kernel-lock hot path while still drawing an
  honest wait distribution; the sample counter is updated without a
  lock — the benign race costs sampling accuracy, never correctness.
  The wrapper exposes ``acquire``/``release``/context-manager, so it
  can be handed anywhere a plain lock goes; ``threading.Condition``
  should be built over :attr:`TimedLock.wrapped` (conditions need the
  raw lock's owner bookkeeping, and condition waits are deliberate
  sleeps, not contention).

* :class:`SamplingProfiler` — an optional, off-by-default background
  thread that snapshots every thread's stack via
  ``sys._current_frames()`` at a low rate and folds the samples into a
  bounded flame tree (node-budgeted, so a pathological call graph
  cannot balloon memory).  Exposed at ``GET /v2/runtime/profile``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional

from .registry import DEFAULT_FAST_BUCKETS, MetricsRegistry, get_registry

__all__ = ["TimedLock", "SamplingProfiler", "lock_wait_histogram",
           "queue_depth_histogram"]

LOCK_WAIT_METRIC = "gelee_lock_wait_seconds"
QUEUE_DEPTH_METRIC = "gelee_queue_depth"

#: Depth counts, not latencies — 0 (idle pool) up to deep backlogs.
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                       250.0, 500.0)


def lock_wait_histogram(registry: Optional[MetricsRegistry] = None):
    """The shared lock-wait histogram (get-or-create, labelled by site)."""
    registry = registry or get_registry()
    return registry.histogram(
        LOCK_WAIT_METRIC,
        "Sampled lock acquisition wait time by contention site",
        labelnames=("site",), buckets=DEFAULT_FAST_BUCKETS)


def queue_depth_histogram(registry: Optional[MetricsRegistry] = None):
    """The shared queue-depth histogram (get-or-create, labelled by pool)."""
    registry = registry or get_registry()
    return registry.histogram(
        QUEUE_DEPTH_METRIC,
        "Tasks already waiting when one more was submitted, by worker pool",
        labelnames=("pool",), buckets=QUEUE_DEPTH_BUCKETS)


class TimedLock:
    """A lock wrapper that samples acquisition waits into a histogram."""

    __slots__ = ("_lock", "_observe", "_every", "_count")

    def __init__(self, lock=None, site: str = "lock",
                 registry: Optional[MetricsRegistry] = None,
                 sample_every: int = 16):
        self._lock = lock if lock is not None else threading.RLock()
        self._every = max(1, int(sample_every))
        self._count = 0
        self._observe = lock_wait_histogram(registry).bind(site=site).observe

    @property
    def wrapped(self):
        """The underlying lock — hand this to ``threading.Condition``."""
        return self._lock

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        count = self._count
        self._count = count + 1  # benign race: approximate sampling cadence
        if count % self._every:
            return self._lock.acquire(blocking, timeout)
        started = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        self._observe(time.perf_counter() - started)
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "TimedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release()


class _FlameNode:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.children: Dict[str, "_FlameNode"] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "value": self.value,
            "children": [child.to_dict() for child in sorted(
                self.children.values(), key=lambda node: -node.value)],
        }


class SamplingProfiler:
    """Low-rate stack sampler with a bounded flame-tree aggregate.

    ``start()`` spawns a daemon thread that wakes every
    ``interval_seconds`` (clamped to >= 5ms so a typo cannot spin a
    core), walks ``sys._current_frames()`` and folds each stack —
    root-first, frames labelled ``function (file:line)`` — into the
    tree.  ``max_nodes`` bounds the tree: once spent, samples are
    attributed to the deepest existing ancestor and counted as
    truncated.  The profiler's own thread is excluded.
    """

    def __init__(self, interval_seconds: float = 0.02, max_nodes: int = 4000,
                 max_depth: int = 64):
        self.interval_seconds = max(0.005, float(interval_seconds))
        self._max_nodes = max(16, int(max_nodes))
        self._max_depth = max(4, int(max_depth))
        self._root = _FlameNode("process")
        self._node_count = 1
        self._samples = 0
        self._truncated = 0
        self._started_at: Optional[float] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, interval_seconds: Optional[float] = None) -> bool:
        """Begin sampling; returns False when already running."""
        if self.running:
            return False
        if interval_seconds is not None:
            self.interval_seconds = max(0.005, float(interval_seconds))
        self._stop.clear()
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._run, name="gelee-profiler", daemon=True)
        self._thread.start()
        return True

    def stop(self) -> bool:
        """Stop sampling; returns False when not running."""
        thread = self._thread
        if thread is None:
            return False
        self._stop.set()
        thread.join(timeout=5)
        self._thread = None
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.sample_once()

    # -- sampling ----------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample of every thread; returns stacks folded."""
        own = threading.get_ident()
        frames = sys._current_frames()
        folded = 0
        with self._lock:
            for thread_id, frame in frames.items():
                if thread_id == own:
                    continue
                stack: List[str] = []
                current = frame
                while current is not None and len(stack) < self._max_depth:
                    code = current.f_code
                    stack.append("{} ({}:{})".format(
                        code.co_name, code.co_filename.rpartition("/")[2],
                        current.f_lineno))
                    current = current.f_back
                stack.reverse()
                self._fold_locked(stack)
                folded += 1
            self._samples += 1
        return folded

    def _fold_locked(self, stack: List[str]) -> None:
        node = self._root
        node.value += 1
        for label in stack:
            child = node.children.get(label)
            if child is None:
                if self._node_count >= self._max_nodes:
                    self._truncated += 1
                    return
                child = node.children[label] = _FlameNode(label)
                self._node_count += 1
            child.value += 1
            node = child

    # -- output ------------------------------------------------------------

    def flame(self) -> Dict[str, Any]:
        with self._lock:
            return self._root.to_dict()

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "running": self.running,
                "interval_seconds": self.interval_seconds,
                "samples": self._samples,
                "nodes": self._node_count,
                "truncated_stacks": self._truncated,
                "started_at": self._started_at,
                "flame": self._root.to_dict(),
            }

    def reset(self) -> None:
        with self._lock:
            self._root = _FlameNode("process")
            self._node_count = 1
            self._samples = 0
            self._truncated = 0
