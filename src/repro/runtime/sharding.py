"""Compatibility constructor for the retired sharded runtime.

The kernel is one :class:`~repro.runtime.manager.LifecycleManager` behind
one reentrant lock.  This name survives for callers written against the
former sharding facade; it builds that single locked kernel.
"""

from __future__ import annotations

import random

from ..plugins.setup import StandardEnvironment
from .manager import LifecycleManager


def ShardedLifecycleManager(environment: StandardEnvironment,  # noqa: N802
                            shard_count: int = 1, rng_seed: int = 0,
                            **options) -> LifecycleManager:
    """Build the locked kernel: ``LifecycleManager(environment, **options)``.

    ``shard_count`` is accepted and has no effect.  ``rng_seed`` seeds the
    manager's RNG; every other keyword (``clock``, ``bus``,
    ``simulated_action_latency``, ``completion_workers``, ...) is passed on.
    """
    return LifecycleManager(environment, rng=random.Random(rng_seed), **options)
