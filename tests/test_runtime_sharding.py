"""Concurrency, bulk and event-delivery tests for the one locked kernel.

The kernel was once split into hash-routed shards behind a facade; these
tests kept their ids when the facade folded into
:class:`~repro.runtime.LifecycleManager`, and now run on the single manager
with its one reentrant lock.
"""

import threading

import pytest

from repro.errors import PropagationError, RuntimeStateError
from repro.events import EventBus, EventRecorder
from repro.monitoring import MonitoringCockpit
from repro.runtime import InstanceStatus, LifecycleManager
from repro.service import GeleeService, RestRouter
from repro.service.rest import Request
from repro.templates import eu_deliverable_lifecycle


@pytest.fixture
def sharded(environment, clock):
    manager = LifecycleManager(environment, clock=clock)
    model = eu_deliverable_lifecycle()
    manager.publish_model(model, actor="coordinator")
    return manager, model


def _docs(environment, count, owner="alice"):
    adapter = environment.adapter("Google Doc")
    return [adapter.create_resource("doc {}".format(i), owner=owner)
            for i in range(count)]


# ----------------------------------------------------------------- identity
class TestShardRouting:
    def test_explicit_instance_id_is_honoured_and_unique(self, sharded, environment):
        manager, model = sharded
        doc = _docs(environment, 1)[0]
        instance = manager.instantiate(model.uri, doc, owner="alice",
                                       instance_id="inst-fixed")
        assert instance.instance_id == "inst-fixed"
        assert manager.instance("inst-fixed") is instance
        with pytest.raises(RuntimeStateError):
            manager.instantiate(model.uri, doc, owner="alice",
                                instance_id="inst-fixed")


# ---------------------------------------------------------- cross-shard ops
class TestCrossShardQueries:
    def test_listing_merges_all_shards(self, sharded, environment):
        manager, model = sharded
        created = [manager.instantiate(model.uri, doc, owner="alice")
                   for doc in _docs(environment, 20)]
        assert manager.instance_count() == 20
        listed = {instance.instance_id for instance in manager.instances()}
        assert listed == {instance.instance_id for instance in created}

    def test_filtered_listing_and_distributions(self, sharded, environment):
        manager, model = sharded
        docs = _docs(environment, 12)
        for position, doc in enumerate(docs):
            owner = "alice" if position % 2 == 0 else "bob"
            instance = manager.instantiate(model.uri, doc, owner=owner)
            if position < 4:
                manager.start(instance.instance_id, actor=owner)
        assert len(manager.instances(owner="alice")) == 6
        assert len(manager.instances(status=InstanceStatus.ACTIVE)) == 4
        assert manager.owner_distribution() == {"alice": 6, "bob": 6}
        assert manager.phase_distribution()[None] == 8
        assert manager.status_distribution()[InstanceStatus.CREATED] == 8

    def test_cockpit_runs_unchanged_on_the_sharded_manager(self, sharded, environment):
        manager, model = sharded
        for doc in _docs(environment, 6):
            instance = manager.instantiate(model.uri, doc, owner="alice")
            manager.start(instance.instance_id, actor="alice")
        cockpit = MonitoringCockpit(manager)
        summary = cockpit.portfolio_summary()
        assert summary.total == 6
        assert summary.active == 6
        assert cockpit.phase_counts() == {"elaboration": 6}
        assert len(cockpit.status_table()) == 6
        assert cockpit.instances_in_phase("elaboration")[0].current_phase_id == "elaboration"

    def test_instances_for_resource_across_shards(self, sharded, environment):
        manager, model = sharded
        doc = _docs(environment, 1)[0]
        first = manager.instantiate(model.uri, doc, owner="alice")
        second = manager.instantiate(model.uri, doc, owner="bob")
        found = {i.instance_id for i in manager.instances_for_resource(doc.uri)}
        assert found == {first.instance_id, second.instance_id}


# ------------------------------------------------------------- progression
class TestConcurrentProgression:
    def test_threads_progress_disjoint_shards_safely(self, environment, clock):
        manager = LifecycleManager(environment, clock=clock)
        model = eu_deliverable_lifecycle()
        manager.publish_model(model, actor="coordinator")
        ids = [manager.instantiate(model.uri, doc, owner="alice").instance_id
               for doc in _docs(environment, 64)]

        errors = []

        def drive(instance_id):
            try:
                manager.start(instance_id, actor="alice")
                manager.advance(instance_id, actor="alice", to_phase_id="internalreview")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(instance_id,))
                   for instance_id in ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert all(manager.instance(i).current_phase_id == "internalreview" for i in ids)
        assert manager.phase_distribution() == {"internalreview": 64}

    def test_map_instances_returns_results_in_input_order(self, sharded, environment):
        manager, model = sharded
        ids = [manager.instantiate(model.uri, doc, owner="alice").instance_id
               for doc in _docs(environment, 16)]
        results = manager.map_instances(
            ids, lambda kernel, instance_id: kernel.start(instance_id, actor="alice"))
        assert [instance.instance_id for instance in results] == ids
        assert all(instance.current_phase_id == "elaboration" for instance in results)

    def test_map_instances_propagates_worker_errors(self, sharded, environment):
        manager, model = sharded
        ids = [manager.instantiate(model.uri, doc, owner="alice").instance_id
               for doc in _docs(environment, 4)]
        manager.map_instances(ids, lambda kernel, i: kernel.start(i, actor="alice"))
        with pytest.raises(RuntimeStateError):
            # Starting an already-started instance fails inside the workers.
            manager.map_instances(ids, lambda kernel, i: kernel.start(i, actor="alice"))


# ---------------------------------------------------------- model evolution
class TestShardedPropagation:
    def test_propose_accept_and_reject_route_to_the_right_shard(self, sharded, environment):
        manager, model = sharded
        ids = [manager.instantiate(model.uri, doc, owner="alice").instance_id
               for doc in _docs(environment, 8)]
        for instance_id in ids:
            manager.start(instance_id, actor="alice")
        revised = model.new_version(created_by="coordinator")
        proposals = manager.propose_change(revised, actor="coordinator")
        assert len(proposals) == 8
        accepted = manager.accept_change(proposals[0].proposal_id, "alice")
        assert accepted.to_version == revised.version.version_number
        rejected = manager.reject_change(proposals[1].proposal_id, "alice", reason="later")
        assert rejected.decision.value == "rejected"
        assert manager.instance(proposals[0].instance_id).model_version \
            == revised.version.version_number
        with pytest.raises(PropagationError):
            manager.accept_change("prop-missing", "alice")


# ----------------------------------------------------------- event delivery
class TestEventDelivery:
    def test_runtime_delivers_every_event_in_publish_order(self, environment, clock):
        """Delivery is synchronous: each event reaches the subscriber during
        its publish, so the recorder sees all of them, in kernel order."""
        bus = EventBus()
        recorder = EventRecorder(bus)
        manager = LifecycleManager(environment, clock=clock, bus=bus)
        model = eu_deliverable_lifecycle()
        manager.publish_model(model, actor="coordinator")
        ids = [manager.instantiate(model.uri, doc, owner="alice").instance_id
               for doc in _docs(environment, 10)]
        manager.map_instances(ids, lambda kernel, i: kernel.start(i, actor="alice"))
        assert len(recorder.events) == bus.published_count
        instance_events = [(e.kind, e.subject_id) for e in recorder.events
                           if e.kind in ("instance.created", "instance.phase_entered")]
        assert instance_events \
            == [("instance.created", i) for i in ids] \
            + [("instance.phase_entered", i) for i in ids]


# -------------------------------------------------------------- service tier
class TestShardedService:
    def test_service_accepts_an_injected_sharded_manager(self, environment, clock):
        bus = EventBus()
        manager = LifecycleManager(environment, clock=clock, bus=bus,
                                   completion_workers=2)
        service = GeleeService(clock=clock, manager=manager)
        assert service.manager is manager
        assert service.bus is bus
        # The service must reuse the kernel's environment, or resources
        # created through one would be unknown to the other.
        assert service.environment is manager.environment
        model = eu_deliverable_lifecycle()
        manager.publish_model(model, actor="coordinator")
        doc = service.environment.adapter("Google Doc").create_resource(
            "D1.1", owner="alice")
        created = service.create_instance(model.uri, doc.to_dict(), owner="alice")
        assert created["status"] == "created"
        assert service.node_status()["dispatch"]["mode"] == "pooled"
        service.close()
        assert manager.worker_pool is None

    def test_sharded_service_end_to_end_over_rest(self, clock):
        service = GeleeService(clock=clock)
        router = RestRouter(service)
        publish = router.handle(Request(
            "POST", "/templates/eu-deliverable/publish", body={"actor": "pm"}))
        assert publish.ok
        model_uri = publish.body["uri"]
        descriptor = service.environment.adapter("Google Doc").create_resource(
            "D1.1", owner="alice")
        create = router.handle(Request("POST", "/instances", body={
            "model_uri": model_uri,
            "owner": "alice",
            "resource": descriptor.to_dict(),
        }))
        assert create.ok
        instance_id = create.body["instance_id"]
        start = router.handle(Request(
            "POST", "/instances/{}/start".format(instance_id), body={"actor": "alice"}))
        assert start.ok
        stats = router.handle(Request("GET", "/runtime/stats")).body
        assert stats["instances"] == 1
        assert stats["by_status"] == {"active": 1}


# ------------------------------------------------------------------ bulk ops
class TestBulkRuntimeEntryPoints:
    def test_batch_instantiate_fans_out_and_keeps_order(self, sharded, environment):
        manager, model = sharded
        docs = _docs(environment, 12)
        instances = manager.batch_instantiate([
            {"model_uri": model.uri, "resource": doc, "owner": "alice"}
            for doc in docs])
        assert len(instances) == 12
        for doc, instance in zip(docs, instances):
            assert instance.resource.uri == doc.uri
        assert manager.instance_count() == 12

    def test_batch_instantiate_captures_per_item_errors(self, sharded, environment):
        manager, model = sharded
        docs = _docs(environment, 3)
        requests = [{"model_uri": model.uri, "resource": doc, "owner": "alice"}
                    for doc in docs]
        requests.insert(1, {"model_uri": "urn:missing", "resource": docs[0],
                            "owner": "alice"})
        results = manager.batch_instantiate(requests, capture_errors=True)
        assert [isinstance(result, BaseException) for result in results] == [
            False, True, False, False]
        assert manager.instance_count() == 3

    def test_batch_instantiate_raises_without_capture(self, sharded, environment):
        manager, model = sharded
        from repro.errors import LifecycleNotFoundError

        with pytest.raises(LifecycleNotFoundError):
            manager.batch_instantiate([
                {"model_uri": "urn:missing", "resource": _docs(environment, 1)[0],
                 "owner": "alice"}])

    def test_map_instances_captures_errors_and_continues(self, sharded, environment):
        manager, model = sharded
        instances = manager.batch_instantiate([
            {"model_uri": model.uri, "resource": doc, "owner": "alice"}
            for doc in _docs(environment, 6)])
        ids = [instance.instance_id for instance in instances]
        ids.insert(2, "inst-missing")
        results = manager.map_instances(
            ids, lambda kernel, iid: kernel.start(iid, actor="alice"),
            capture_errors=True)
        assert sum(1 for result in results if isinstance(result, BaseException)) == 1
        assert all(instance.current_phase_id == "elaboration"
                   for instance in instances)

    def test_single_manager_has_the_same_bulk_surface(self, manager, eu_model, environment):
        docs = _docs(environment, 3)
        instances = manager.batch_instantiate([
            {"model_uri": eu_model.uri, "resource": doc, "owner": "alice"}
            for doc in docs])
        assert len(instances) == 3
        results = manager.map_instances(
            [instance.instance_id for instance in instances] + ["inst-missing"],
            lambda kernel, iid: kernel.start(iid, actor="alice"),
            capture_errors=True)
        assert isinstance(results[-1], BaseException)
        assert all(not isinstance(result, BaseException) for result in results[:-1])
