"""E11 — scalability of the hosted kernel.

Parameter sweeps over the dimensions a hosted deployment cares about:
number of instances, phases per lifecycle, actions per phase, and the cost of
monitoring queries and execution-log growth.  Also times a template save
into the in-memory template store and ablates sequential vs. (shuffled)
independent action dispatch.
"""

import random

import pytest

from repro.actions import library
from repro.clock import SimulatedClock
from repro.model import LifecycleBuilder
from repro.monitoring import MonitoringCockpit
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager
from repro.storage import ExecutionLog, TemplateStore
from repro.templates import eu_deliverable_lifecycle

from .conftest import make_deliverable, report


def _stack():
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    manager = LifecycleManager(environment, clock=clock, rng=random.Random(0))
    model = eu_deliverable_lifecycle()
    manager.publish_model(model, actor="coordinator")
    return environment, manager, model, clock


def _synthetic_model(phases, actions_per_phase):
    builder = LifecycleBuilder("Synthetic {}x{}".format(phases, actions_per_phase))
    names = ["Phase {}".format(index) for index in range(phases)]
    for name in names:
        builder.phase(name)
    builder.terminal("End")
    builder.flow(*(names + ["End"]))
    for name in names:
        for _ in range(actions_per_phase):
            builder.action(name, library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                           visibility="team")
    return builder.build()


@pytest.mark.parametrize("instances", [10, 100, 500])
def test_bench_instantiation_scaling(benchmark, instances):
    environment, manager, model, clock = _stack()

    def create_portfolio():
        created = []
        for index in range(instances):
            created.append(make_deliverable(manager, environment, model,
                                            title="D{}".format(index)))
        return created

    result = benchmark.pedantic(create_portfolio, rounds=1, iterations=1)
    assert len(result) == instances


@pytest.mark.parametrize("instances", [10, 100, 500])
def test_bench_monitoring_scaling(benchmark, instances):
    environment, manager, model, clock = _stack()
    for index in range(instances):
        instance = make_deliverable(manager, environment, model, title="D{}".format(index))
        manager.start(instance.instance_id, actor="alice")
    cockpit = MonitoringCockpit(manager)

    def monitor():
        return cockpit.status_table(), cockpit.portfolio_summary()

    table, summary = benchmark(monitor)
    assert summary.total == instances


@pytest.mark.parametrize("phases,actions", [(5, 1), (20, 2), (50, 4)])
def test_bench_progression_vs_model_size(benchmark, phases, actions):
    environment, manager, _, clock = _stack()
    model = _synthetic_model(phases, actions)
    manager.publish_model(model, actor="coordinator")
    descriptor = environment.adapter("Google Doc").create_resource("big", owner="alice")
    instance = manager.instantiate(model.uri, descriptor, owner="alice")
    manager.start(instance.instance_id, actor="alice")
    phase_ids = [phase_id for phase_id in model.phase_ids if phase_id != "end"]
    cursor = {"index": 0}

    def advance_one():
        cursor["index"] = (cursor["index"] + 1) % len(phase_ids)
        manager.move_to(instance.instance_id, actor="alice",
                        phase_id=phase_ids[cursor["index"]])
        return instance

    result = benchmark(advance_one)
    assert result.visits


def test_bench_execution_log_query_growth(benchmark):
    environment, manager, model, clock = _stack()
    log = ExecutionLog(bus=manager.bus)
    instances = []
    for index in range(100):
        instance = make_deliverable(manager, environment, model, title="D{}".format(index))
        manager.start(instance.instance_id, actor="alice")
        manager.advance(instance.instance_id, actor="alice", to_phase_id="internalreview")
        instances.append(instance)
    target = instances[50].instance_id

    def query():
        return log.history_of(target)

    history = benchmark(query)
    assert history


def test_bench_repository_ablation_inmemory(benchmark):
    store = TemplateStore()
    model = eu_deliverable_lifecycle()
    counter = iter(range(100000))

    def save():
        return store.save(model, template_id="t{}".format(next(counter)))

    assert benchmark(save)


def test_bench_action_dispatch_parallel_semantics(benchmark):
    """Ablation: the shuffled, isolated dispatch of a many-action phase."""
    environment, manager, _, clock = _stack()
    model = _synthetic_model(2, 10)
    manager.publish_model(model, actor="coordinator")
    descriptor = environment.adapter("Google Doc").create_resource("many", owner="alice")
    instance = manager.instantiate(model.uri, descriptor, owner="alice")
    manager.start(instance.instance_id, actor="alice")
    targets = ["phase-1", "phase-0"]
    cursor = {"index": 0}

    def enter_heavy_phase():
        cursor["index"] = (cursor["index"] + 1) % 2
        manager.move_to(instance.instance_id, actor="alice", phase_id=targets[cursor["index"]])
        return instance.visits[-1]

    visit = benchmark(enter_heavy_phase)
    assert len(visit.invocations) == 10


def test_scalability_summary_report():
    """A compact, human-readable summary of how cost grows with portfolio size."""
    import time

    rows = []
    for instances in (10, 100, 300):
        environment, manager, model, clock = _stack()
        started = time.perf_counter()
        for index in range(instances):
            instance = make_deliverable(manager, environment, model,
                                        title="D{}".format(index))
            manager.start(instance.instance_id, actor="alice")
        build_seconds = time.perf_counter() - started
        cockpit = MonitoringCockpit(manager)
        started = time.perf_counter()
        cockpit.status_table()
        query_seconds = time.perf_counter() - started
        rows.append("instances={:<4d} build={:.3f}s monitoring query={:.4f}s".format(
            instances, build_seconds, query_seconds))
    report("E11 — scalability sweep (laptop-scale hosted kernel)", rows)
