"""Completion executors: where an in-flight action spends its round-trip.

The paper's actions are *remote* web-service calls (§IV.C): the kernel
submits them and learns the outcome later, through the callback URI.  The
dispatcher mirrors that with a two-phase **submit/complete** protocol
(:meth:`~repro.actions.invocation.InvocationDispatcher.submit`): submit
marks the invocation RUNNING and hands a *completion task* — simulated
network wait, implementation call, completion callback — to one of the
executors below.  Where that task runs decides the concurrency model:

* :class:`InlineCompletionExecutor` runs it on the submitting thread, so
  submit returns with the invocation already terminal.  This is the
  default: single-threaded callers, tests and recovery see exactly the old
  synchronous behaviour.
* :class:`PooledCompletionExecutor` runs it on a shared
  :class:`~repro.workers.WorkerPool`.  Submit returns immediately and —
  crucially — the simulated latency is slept on a pool worker, *outside*
  the kernel lock, so one slow web service no longer stalls the whole
  kernel.  The completion callback re-acquires the kernel lock only for
  the brief moment it takes to apply the outcome.

Executors never interpret the task; sequencing, locking and event
publication live in the dispatcher and the manager.  A task must run in
the submitter's :mod:`contextvars` context — inline trivially, pooled
because :class:`~repro.workers.WorkerPool` copies it at submit — so the
terminal ``action.*`` events keep the request's ``origin_request_id``
and the dispatch spans parent under the submitting span.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..workers import WorkerPool


class CompletionExecutor:
    """Strategy interface: run one completion task (a zero-arg callable)."""

    #: Human-readable mode tag, surfaced by runtime stats.
    mode = "abstract"

    def submit(self, task: Callable[[], None]) -> None:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        return {"mode": self.mode}


class InlineCompletionExecutor(CompletionExecutor):
    """Run the completion task synchronously on the submitting thread.

    With this executor the two-phase protocol collapses back into the
    original blocking dispatch: by the time ``submit`` returns, the
    invocation has completed (or failed) and every ``action.*`` event has
    been published.  It is the default everywhere, which is what keeps the
    synchronous API a thin wrapper over submit+wait.
    """

    mode = "inline"

    def submit(self, task: Callable[[], None]) -> None:
        task()


class PooledCompletionExecutor(CompletionExecutor):
    """Run completion tasks on a persistent worker pool.

    The manager builds one for ``completion_workers > 0`` (see
    :class:`~repro.runtime.manager.LifecycleManager`).  A queued completion
    only needs the kernel lock, and every lock holder releases it without
    waiting on the pool, so completions always make progress.
    """

    mode = "pooled"

    def __init__(self, pool: WorkerPool):
        self._pool = pool

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    def submit(self, task: Callable[[], None]) -> None:
        self._pool.submit(task)

    def stats(self) -> Dict[str, Any]:
        data = {"mode": self.mode}
        data.update(self._pool.stats())
        return data
