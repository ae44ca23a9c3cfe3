"""E18 — telemetry overhead: the instrumented hot path must stay cheap.

PR 8 threads a metrics registry through dispatch (wait/execution
histograms, completion counter, the gateway, the trace scope); PR 9 adds
span recording on the same path (kernel write path, dispatch, journal).  Both
instruments take a lock per update, so the question is whether the hot
path got measurably slower.  The harness runs the same zero-latency
``batchAdvance`` workload three times per trial — instruments fully
disabled, metrics registry live, registry *plus* span recording —
interleaved so thermal/alloc drift hits all modes equally, and pairs
each mode's throughput with the disabled baseline of the same trial.
The registry's *median* paired overhead and the spans mode's best paired
overhead must each stay under ``BENCH_TELEMETRY_MAX_OVERHEAD_PCT``
(default 3%).

Zero action latency is the adversarial setting: with no simulated
web-service sleep, the per-op cost is pure CPU and the instrument updates
are at their *largest* relative share.  Any real deployment amortises
them further.  Every mode runs under an active ``trace_scope`` so the
span-enabled mode actually records (spans no-op without a trace id) and
the baselines pay the identical ambient-id cost — the A/B isolates the
recording itself.

PR 10 layers the flight recorder on top: history rings capturing every
registry series on a cadence, and the log ring every emitter fans out
into.  A fourth mode runs the same workload with registry + spans live
*plus* an aggressive history-capture loop (250ms cadence — 60-240x
hotter than the real maintenance job) feeding the process log
ring, and is held to two extra budgets: the history/logring layer may
add at most ``BENCH_TELEMETRY_MAX_HISTORY_EXTRA_PCT`` (default 1%) over
the spans mode, and the whole telemetry stack at most
``BENCH_TELEMETRY_MAX_TOTAL_PCT`` (default 4%) over the disabled
baseline.

Results are printed and appended to ``BENCH_telemetry.json``.  Workload
size scales down via ``BENCH_TELEMETRY_INSTANCES`` for CI smoke runs
(which also loosen the threshold — tiny workloads are noise-dominated).
"""

import os
import threading
import time

from repro.actions import library
from repro.clock import SimulatedClock
from repro.model import LifecycleBuilder
from repro.service import GeleeService
from repro.service.v2.dto import AdvanceItem
from repro.telemetry import (
    JsonLogEmitter,
    LogRing,
    MetricHistory,
    MetricsRegistry,
    SpanStore,
    get_log_ring,
    get_registry,
    get_span_store,
    new_trace_id,
    set_log_ring,
    set_registry,
    set_span_store,
    trace_scope,
)

from .conftest import report

INSTANCES = int(os.environ.get("BENCH_TELEMETRY_INSTANCES", 4000))
TRIALS = int(os.environ.get("BENCH_TELEMETRY_TRIALS", 5))
MAX_OVERHEAD_PCT = float(os.environ.get("BENCH_TELEMETRY_MAX_OVERHEAD_PCT", 3.0))
MAX_HISTORY_EXTRA_PCT = float(
    os.environ.get("BENCH_TELEMETRY_MAX_HISTORY_EXTRA_PCT", 1.0))
MAX_TOTAL_PCT = float(os.environ.get("BENCH_TELEMETRY_MAX_TOTAL_PCT", 4.0))


def _bench_model():
    builder = LifecycleBuilder("Telemetry bench lifecycle")
    builder.phase("Work")
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    builder.action("Review", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    return builder.build()


def _run_trial(registry_enabled, spans_enabled, recorder_enabled=False):
    """One batchAdvance run against fresh instruments; returns ops/s.

    The registry/store swaps happen *before* the service is built:
    components bind their instruments at construction, so build order is
    the isolation boundary between the live and the no-op modes.  The
    span store's per-trace cap is lifted — the whole batch shares one
    bench trace, and a capped store would stop paying recording cost
    mid-run and flatter the result.

    ``recorder_enabled`` additionally runs the PR 10 flight recorder
    during the timed window: a history-capture loop at a 250ms cadence
    (still 60-240x hotter than any real ``history_interval_seconds``)
    walking every live series, each iteration also pushing a log record through an
    emitter into a fresh process log ring.
    """
    previous_registry = set_registry(MetricsRegistry(enabled=registry_enabled))
    previous_store = set_span_store(SpanStore(enabled=spans_enabled,
                                              max_spans_per_trace=10 ** 9))
    previous_ring = set_log_ring(LogRing()) if recorder_enabled else None
    try:
        service = GeleeService(clock=SimulatedClock())
        try:
            model = _bench_model()
            service.manager.publish_model(model, actor="coordinator")
            adapter = service.environment.adapter("Google Doc")
            requests = [
                {"model_uri": model.uri,
                 "resource": adapter.create_resource("doc {}".format(index),
                                                     owner="alice"),
                 "owner": "alice"}
                for index in range(INSTANCES)
            ]
            ids = [instance.instance_id
                   for instance in service.manager.batch_instantiate(requests)]
            service.manager.map_instances(
                ids, lambda kernel, iid: kernel.start_async(iid, actor="alice"))
            service.manager.drain_in_flight(timeout=60.0)
            items = [AdvanceItem(instance_id=iid, to_phase_id="review")
                     for iid in ids]
            history = stop_capture = capture_thread = None
            if recorder_enabled:
                history = MetricHistory(get_registry())
                log = JsonLogEmitter("bench", sink=get_log_ring())
                stop_capture = threading.Event()

                def _capture_loop():
                    while not stop_capture.wait(0.25):
                        history.capture()
                        log.info("history.captured")

                capture_thread = threading.Thread(target=_capture_loop,
                                                  daemon=True)
            with trace_scope(new_trace_id("bench")):
                started = time.perf_counter()
                if capture_thread is not None:
                    capture_thread.start()
                result = service.batch_advance_instances(items, actor="alice")
                if history is not None:
                    # At least one capture always lands inside the window,
                    # whatever the workload size.
                    history.capture()
                    stop_capture.set()
                    capture_thread.join()
                elapsed = time.perf_counter() - started
            assert all(item.ok for item in result.results)
            if recorder_enabled:
                assert history.stats()["captures"] >= 1
                assert history.stats()["series"] > 0
            if registry_enabled:
                # The run must actually have hit the instruments.
                completed = get_registry().get("gelee_dispatch_completed_total")
                assert completed is not None and completed.value(
                    outcome="completed") >= INSTANCES
            if spans_enabled:
                assert get_span_store().stats()["spans_recorded"] >= INSTANCES
            return INSTANCES / elapsed
        finally:
            service.close()
    finally:
        set_registry(previous_registry)
        set_span_store(previous_store)
        if previous_ring is not None:
            set_log_ring(previous_ring)


def test_bench_telemetry_overhead():
    """Live instruments must cost < MAX_OVERHEAD_PCT vs a no-op baseline."""
    modes = [
        ("baseline", dict(registry_enabled=False, spans_enabled=False)),
        ("registry", dict(registry_enabled=True, spans_enabled=False)),
        ("spans", dict(registry_enabled=True, spans_enabled=True)),
        ("full", dict(registry_enabled=True, spans_enabled=True,
                      recorder_enabled=True)),
    ]
    ops = {name: [] for name, _ in modes}
    for trial in range(TRIALS):
        # Interleaved with a rotating start: every mode visits every
        # position in the trial, so monotone drift (thermal, a noisy
        # neighbour ramping up) cannot systematically tax the mode that
        # would otherwise always run last.
        for offset in range(len(modes)):
            name, kwargs = modes[(trial + offset) % len(modes)]
            ops[name].append(_run_trial(**kwargs))
    best_baseline = max(ops["baseline"])
    best_registry = max(ops["registry"])
    best_spans = max(ops["spans"])
    best_full = max(ops["full"])

    def paired_ratios(mode, reference):
        """Per-trial throughput ratios of ``mode`` against ``reference``.

        The four runs of one trial sit seconds apart, so pairing each
        mode with its own trial's reference cancels machine drift that a
        cross-trial best-of cannot.
        """
        return sorted(mode_ops / ref_ops for mode_ops, ref_ops
                      in zip(ops[mode], ops[reference]))

    def overhead_pct(mode, reference="baseline"):
        """The *quietest* paired overhead — gated for spans, history and
        the full stack.

        Interference from a noisy neighbour only ever slows a run down,
        so the pairing with the highest ratio is the best available
        estimate of the noise-free cost (the same reasoning behind
        best-of-N throughput; essential on a single-core box where the
        noise floor dwarfs a few percent).
        """
        return (1.0 - paired_ratios(mode, reference)[-1]) * 100.0

    def median_overhead_pct(mode, reference="baseline"):
        """Median paired overhead — the registry's gated figure: one lucky
        trial cannot pass it."""
        ratios = paired_ratios(mode, reference)
        mid = len(ratios) // 2
        median = (ratios[mid] if len(ratios) % 2
                  else (ratios[mid - 1] + ratios[mid]) / 2.0)
        return (1.0 - median) * 100.0

    registry_overhead_pct = overhead_pct("registry")
    registry_median_pct = median_overhead_pct("registry")
    spans_overhead_pct = overhead_pct("spans")
    full_overhead_pct = overhead_pct("full")
    history_extra_pct = overhead_pct("full", reference="spans")

    report(
        "E18 - telemetry: instrumented dispatch overhead "
        "({} instances x {} trials)".format(INSTANCES, TRIALS),
        [
            "all disabled      : {:8.0f} ops/s (best of {})".format(
                best_baseline, TRIALS),
            "registry enabled  : {:8.0f} ops/s ({:+.2f}%, median {:+.2f}%)".format(
                best_registry, registry_overhead_pct, registry_median_pct),
            "registry + spans  : {:8.0f} ops/s ({:+.2f}%)".format(
                best_spans, spans_overhead_pct),
            "+ history/logring : {:8.0f} ops/s ({:+.2f}%, extra {:+.2f}%)".format(
                best_full, full_overhead_pct, history_extra_pct),
            "budget            : {:.1f}% per mode, {:.1f}% history extra, "
            "{:.1f}% total".format(MAX_OVERHEAD_PCT, MAX_HISTORY_EXTRA_PCT,
                                   MAX_TOTAL_PCT),
        ],
        slug="telemetry",
        data={
            "instances": INSTANCES,
            "trials": TRIALS,
            "ops_per_s_disabled": best_baseline,
            "ops_per_s_enabled": best_registry,
            "ops_per_s_spans": best_spans,
            "ops_per_s_full": best_full,
            "overhead_pct": registry_overhead_pct,
            "spans_overhead_pct": spans_overhead_pct,
            "full_overhead_pct": full_overhead_pct,
            "history_extra_pct": history_extra_pct,
            "overhead_median_pct": registry_median_pct,
            "spans_overhead_median_pct": median_overhead_pct("spans"),
            "full_overhead_median_pct": median_overhead_pct("full"),
            "history_extra_median_pct": median_overhead_pct(
                "full", reference="spans"),
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "max_history_extra_pct": MAX_HISTORY_EXTRA_PCT,
            "max_total_pct": MAX_TOTAL_PCT,
        },
    )
    assert registry_median_pct <= MAX_OVERHEAD_PCT, (
        "metrics instrumentation costs {:.2f}% in the median trial "
        "(> {:.1f}% budget)".format(registry_median_pct, MAX_OVERHEAD_PCT))
    assert spans_overhead_pct <= MAX_OVERHEAD_PCT, (
        "span recording costs {:.2f}% (> {:.1f}% budget)".format(
            spans_overhead_pct, MAX_OVERHEAD_PCT))
    assert history_extra_pct <= MAX_HISTORY_EXTRA_PCT, (
        "history/logring layer costs {:.2f}% extra (> {:.1f}% budget)".format(
            history_extra_pct, MAX_HISTORY_EXTRA_PCT))
    assert full_overhead_pct <= MAX_TOTAL_PCT, (
        "full telemetry stack costs {:.2f}% (> {:.1f}% budget)".format(
            full_overhead_pct, MAX_TOTAL_PCT))
