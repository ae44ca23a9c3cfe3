"""E13 — the v2 API gateway: bulk progression and paginated listings.

The kernel progresses thousands of ops/s, but the v0 service
dialect could only reach it one request at a time: progressing 10k instances
meant 10k sequential REST calls, each paying the full (simulated) action
round-trip before the next could start.  The v2 gateway closes that gap:

* ``POST /v2/instances:batchAdvance`` carries all 10k moves in one request
  and applies them in one kernel drain, overlapping the action waits on
  the completion pool;
* ``GET /v2/instances?owner=...`` answers one keyset page straight from the
  owner index, where the v1 listing serialised every instance in the system
  on every call.

Run with ``python -m repro.benchrunner api``; results are printed and
appended to ``BENCH_api.json``.
"""

import statistics
import time

from repro.actions import library
from repro.clock import SimulatedClock
from repro.events import EventBus
from repro.model import LifecycleBuilder
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager
from repro.service import GeleeService, RestRouter

from .conftest import report

INSTANCES = 10_000
OWNERS = 100
PAGE_SIZE = 100
#: Simulated action round-trip, uniform seconds (reproducible: seeded rng).
ACTION_LATENCY = (0.00015, 0.0003)
#: Completion-pool threads: batchAdvance overlaps the action round-trips
#: on them, while each v1 call waits for its own.
COMPLETION_WORKERS = 16
#: Fresh cohorts per dialect; the gate compares the medians.
ROUNDS = 3
#: batchAdvance must beat the per-call v1 loop by at least this factor.
REQUIRED_SPEEDUP = 3.0


def _bench_model():
    builder = LifecycleBuilder("API bench lifecycle")
    builder.phase("Work")
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    for phase in ("Work", "Review"):
        builder.action(phase, library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                       visibility="team")
    return builder.build()


def _deploy():
    """A hosted deployment with simulated action latency and pooled
    completions."""
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    manager = LifecycleManager(
        environment, clock=clock, bus=EventBus(),
        simulated_action_latency=ACTION_LATENCY,
        completion_workers=COMPLETION_WORKERS)
    service = GeleeService(manager=manager, clock=clock)
    router = RestRouter(service)
    model = _bench_model()
    manager.publish_model(model, actor="coordinator")
    return router, service, manager, model


def _populate(manager, environment, model, count):
    adapter = environment.adapter("Google Doc")
    requests = [
        {"model_uri": model.uri,
         "resource": adapter.create_resource("doc {}".format(index), owner="alice"),
         "owner": "owner-{}".format(index % OWNERS)}
        for index in range(count)
    ]
    instances = manager.batch_instantiate(requests)
    return [instance.instance_id for instance in instances]


def test_bench_batch_advance_vs_v1_loop():
    """One batchAdvance call must beat 10k sequential v1 calls by >= 3x."""
    router, service, manager, model = _deploy()
    environment = service.environment

    # Advancing an unstarted instance places the token on the initial phase,
    # so every cohort runs the same kernel work (enter "work", dispatch its
    # actions).  Each dialect is measured on ROUNDS fresh cohorts and the
    # median round is kept, so one lucky or unlucky round cannot decide it.
    def run_v1():
        ids = _populate(manager, environment, model, INSTANCES)
        started = time.perf_counter()
        for instance_id in ids:
            response = router.post("/instances/{}/advance".format(instance_id),
                                   actor="alice")
            assert response.ok, response.body
        return time.perf_counter() - started

    def run_v2():
        ids = _populate(manager, environment, model, INSTANCES)
        started = time.perf_counter()
        response = router.post("/v2/instances:batchAdvance", actor="alice",
                               body={"items": ids})
        elapsed = time.perf_counter() - started
        assert response.ok, response.body
        assert response.body["data"]["succeeded"] == INSTANCES
        assert response.body["data"]["failed"] == 0
        return elapsed

    try:
        v1_elapsed = statistics.median(run_v1() for _ in range(ROUNDS))
        v2_elapsed = statistics.median(run_v2() for _ in range(ROUNDS))
    finally:
        service.close()
    v1_ops = INSTANCES / v1_elapsed
    v2_ops = INSTANCES / v2_elapsed

    speedup = v2_ops / v1_ops
    report(
        "E13 — v2 bulk progression vs the per-call v1 loop",
        [
            "workload: {} instances, action latency {:.2f}-{:.2f} ms, "
            "{} completion workers, median of {} rounds".format(
                INSTANCES, ACTION_LATENCY[0] * 1000, ACTION_LATENCY[1] * 1000,
                COMPLETION_WORKERS, ROUNDS),
            "v1 per-call loop   : {:7.2f}s  {:8.0f} ops/s  (baseline)".format(
                v1_elapsed, v1_ops),
            "v2 batchAdvance    : {:7.2f}s  {:8.0f} ops/s  ({:4.2f}x)".format(
                v2_elapsed, v2_ops, speedup),
            "required speedup   : >= {:.1f}x".format(REQUIRED_SPEEDUP),
        ],
        slug="api",
        data={
            "experiment": "batch_advance_vs_v1_loop",
            "instances": INSTANCES,
            "action_latency_seconds": list(ACTION_LATENCY),
            "completion_workers": COMPLETION_WORKERS,
            "rounds": ROUNDS,
            "v1_loop": {"elapsed_s": round(v1_elapsed, 4),
                        "ops_per_s": round(v1_ops, 1)},
            "v2_batch_advance": {"elapsed_s": round(v2_elapsed, 4),
                                 "ops_per_s": round(v2_ops, 1),
                                 "speedup": round(speedup, 3)},
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        "batchAdvance reached only {:.2f}x the v1 per-call loop".format(speedup))


def test_bench_paginated_listing_vs_full_scan():
    """An index-backed keyset page must stay flat while v1 serialises everything."""
    router, service, manager, model = _deploy()
    _populate(manager, service.environment, model, INSTANCES)

    # Warm both paths once (route compilation, index touch).
    router.get("/v2/instances", owner="owner-3", page_size=PAGE_SIZE)
    router.get("/instances", owner="owner-3")

    started = time.perf_counter()
    page = router.get("/v2/instances", owner="owner-3", page_size=PAGE_SIZE)
    paged_ms = (time.perf_counter() - started) * 1000
    assert page.ok
    assert len(page.body["data"]) == PAGE_SIZE
    assert page.body["meta"]["pagination"]["total"] == INSTANCES // OWNERS

    started = time.perf_counter()
    full = router.get("/instances")
    full_ms = (time.perf_counter() - started) * 1000
    assert full.ok and len(full.body) == INSTANCES

    started = time.perf_counter()
    pages = 0
    token = None
    while True:
        query = {"owner": "owner-3", "page_size": PAGE_SIZE}
        if token:
            query["page_token"] = token
        response = router.get("/v2/instances", **query)
        pages += 1
        token = response.body["meta"]["pagination"]["next_page_token"]
        if token is None:
            break
    drain_ms = (time.perf_counter() - started) * 1000

    report(
        "E13b — paginated, index-backed listing vs the v1 full listing",
        [
            "{} instances, {} owners; page size {}".format(INSTANCES, OWNERS, PAGE_SIZE),
            "v2 one page (owner filter)   : {:8.2f} ms".format(paged_ms),
            "v2 drain owner ({} pages)     : {:8.2f} ms".format(pages, drain_ms),
            "v1 full listing ({} rows) : {:8.2f} ms".format(INSTANCES, full_ms),
        ],
        slug="api",
        data={
            "experiment": "paginated_listing_vs_full_scan",
            "instances": INSTANCES,
            "owners": OWNERS,
            "page_size": PAGE_SIZE,
            "v2_single_page_ms": round(paged_ms, 3),
            "v2_drain_owner_ms": round(drain_ms, 3),
            "v2_drain_pages": pages,
            "v1_full_listing_ms": round(full_ms, 3),
        },
    )
    service.close()
    # The filtered page must not pay for the whole corpus.
    assert paged_ms < full_ms
