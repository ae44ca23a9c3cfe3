"""A persistent worker pool for the runtime's background work.

Two subsystems would otherwise spawn a fresh daemon ``threading.Thread``
per unit of work: the v2 operation store (one thread per 202 operation) and
the completion-based dispatcher (one per in-flight action).  Thread
creation is cheap but not free (~50-100 µs plus scheduler churn), and a
bulk benchmark run creates tens of thousands of them.

:class:`WorkerPool` replaces those spawns with a fixed set of long-lived
daemon workers draining a shared queue.  Tasks are submitted as plain
callables and tracked through a :class:`TaskHandle`; a task that raises
never kills its worker — the exception is stored on the handle.  Each
task runs in a copy of the submitter's :mod:`contextvars` context, taken
at submit, so the request's trace and span ids
(:mod:`repro.telemetry.spans`) cross the hop without the call site
capturing anything.

The pool is deliberately tiny and dependency-free (no
``concurrent.futures``) so it can sit below every other module: the
kernel's pooled completion executor runs on one (see
:class:`~repro.runtime.manager.LifecycleManager`).
"""

from __future__ import annotations

import contextvars
import queue
import threading
from typing import Any, Callable, Dict, List, Optional


class TaskHandle:
    """Completion handle for one submitted task."""

    __slots__ = ("_done", "result", "exception")

    def __init__(self):
        self._done = threading.Event()
        self.result: Any = None
        self.exception: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float = None) -> bool:
        """Block until the task finished; True unless the wait timed out."""
        return self._done.wait(timeout)

    def get(self, timeout: float = None) -> Any:
        """Wait for the task and return its result, re-raising its error."""
        if not self._done.wait(timeout):
            raise TimeoutError("task did not finish within {}s".format(timeout))
        if self.exception is not None:
            raise self.exception
        return self.result


class WorkerPool:
    """A fixed-size pool of daemon threads draining one task queue.

    Workers are started eagerly so the first bulk call pays no warm-up, and
    they are daemons so an un-closed pool never blocks interpreter exit.
    ``close()`` exists for deterministic teardown (tests, service shutdown).
    """

    def __init__(self, size: int, name: str = "gelee-worker"):
        if size < 1:
            raise ValueError("a worker pool needs at least one worker")
        self._queue: "queue.Queue" = queue.Queue()
        self._name = name
        self._closed = False
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._active = 0
        # Queue depth observed at every submit: the distribution (not just
        # the scrape-time gauge) shows whether the pool is sized right —
        # imported here (not at module top) because this module sits below
        # telemetry in the layering.
        from .telemetry.profiling import queue_depth_histogram

        self._depth_observe = queue_depth_histogram().bind(pool=name).observe
        self._threads: List[threading.Thread] = []
        for index in range(size):
            thread = threading.Thread(target=self._work, daemon=True,
                                      name="{}-{}".format(name, index))
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------- submit
    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> TaskHandle:
        """Queue ``fn(*args, **kwargs)``; returns immediately with a handle.

        The task runs in a copy of the caller's context as it is now.
        """
        if self._closed:
            raise RuntimeError("worker pool {!r} is closed".format(self._name))
        handle = TaskHandle()
        with self._lock:
            self._submitted += 1
            depth = self._submitted - self._completed - self._active
        self._depth_observe(max(0, depth - 1))  # depth ahead of this task
        self._queue.put((handle, contextvars.copy_context(), fn, args, kwargs))
        return handle

    # -------------------------------------------------------------------- admin
    @property
    def size(self) -> int:
        return len(self._threads)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, int]:
        """Queue/progress counters for the node document's dispatch section."""
        with self._lock:
            submitted, completed, active = self._submitted, self._completed, self._active
        return {
            "workers": len(self._threads),
            "submitted": submitted,
            "completed": completed,
            "active": active,
            "queued": max(0, submitted - completed - active),
        }

    def close(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop the workers once the queue drains (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout)

    # ------------------------------------------------------------------ internal
    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            handle, context, fn, args, kwargs = item
            with self._lock:
                self._active += 1
            try:
                handle.result = context.run(fn, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - kept on the handle
                handle.exception = exc
            finally:
                with self._lock:
                    self._active -= 1
                    self._completed += 1
                handle._done.set()
