"""Tests for action invocations, status messages and the dispatcher semantics."""

import random

import pytest

from repro.actions import library
from repro.actions.invocation import (
    ActionInvocation,
    ActionStatus,
    InvocationDispatcher,
    StatusMessage,
)
from repro.clock import SimulatedClock
from repro.errors import ActionInvocationError
from repro.model import LifecycleBuilder
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager


def _invocation(name="act", call_id="c1"):
    return ActionInvocation(
        action_uri="urn:{}".format(name),
        action_name=name,
        call_id=call_id,
        resource_uri="https://doc/1",
        resource_type="Google Doc",
        callback_uri="urn:gelee:runtime/callbacks/i/p/{}".format(call_id),
    )


class TestActionStatus:
    def test_terminal_flags(self):
        assert ActionStatus.COMPLETED.is_terminal
        assert ActionStatus.FAILED.is_terminal
        assert not ActionStatus.RUNNING.is_terminal
        assert not ActionStatus.PENDING.is_terminal


class TestStatusMessages:
    def test_model_defined_statuses(self):
        assert StatusMessage("completed").is_model_defined
        assert StatusMessage("failed").is_model_defined
        assert not StatusMessage("waiting for reviews").is_model_defined

    def test_record_updates_terminal_status(self):
        invocation = _invocation()
        invocation.record(StatusMessage("halfway"))
        assert invocation.status is ActionStatus.PENDING
        invocation.record(StatusMessage("completed"))
        assert invocation.status is ActionStatus.COMPLETED

    def test_record_failure(self):
        invocation = _invocation()
        invocation.record(StatusMessage("failed", detail="boom"))
        assert invocation.status is ActionStatus.FAILED


class TestDispatcher:
    def test_successful_dispatch(self):
        dispatcher = InvocationDispatcher(clock=SimulatedClock(), rng=random.Random(1))
        invocation = _invocation()
        assert dispatcher.submit(invocation, lambda inv: {"done": True}).wait()
        assert invocation.status is ActionStatus.COMPLETED
        assert invocation.result == {"done": True}
        assert invocation.finished_at is not None

    def test_failure_is_captured_not_raised(self):
        dispatcher = InvocationDispatcher(clock=SimulatedClock(), rng=random.Random(1))
        invocation = _invocation()

        def explode(inv):
            raise ActionInvocationError("service unavailable")

        dispatcher.submit(invocation, explode).wait()
        assert invocation.status is ActionStatus.FAILED
        assert "service unavailable" in invocation.error

    def test_unexpected_exception_also_captured(self):
        dispatcher = InvocationDispatcher(clock=SimulatedClock(), rng=random.Random(1))
        invocation = _invocation()

        def explode(inv):
            raise ValueError("bad input")

        dispatcher.submit(invocation, explode).wait()
        assert invocation.status is ActionStatus.FAILED
        assert "ValueError" in invocation.error

    def test_one_failure_does_not_block_others(self):
        dispatcher = InvocationDispatcher(clock=SimulatedClock(), rng=random.Random(1))
        invocations = [_invocation("a", "c1"), _invocation("b", "c2"), _invocation("c", "c3")]

        def executor(invocation):
            if invocation.action_name == "b":
                raise RuntimeError("boom")
            return {}

        for pending in [dispatcher.submit(inv, executor) for inv in invocations]:
            pending.wait()
        statuses = {inv.action_name: inv.status for inv in invocations}
        assert statuses["a"] is ActionStatus.COMPLETED
        assert statuses["b"] is ActionStatus.FAILED
        assert statuses["c"] is ActionStatus.COMPLETED

    def test_dispatch_order_is_shuffled_but_input_preserved(self):
        """The kernel shuffles a phase's actions (§IV.A: no order is
        guaranteed) under its seeded RNG; the visit keeps model order."""
        clock = SimulatedClock()
        environment = build_standard_environment(clock=clock)
        builder = LifecycleBuilder("Shuffled")
        builder.phase("Work")
        builder.terminal("End")
        builder.flow("Work", "End")
        names = ["step {}".format(index) for index in range(6)]
        for name in names:
            builder.action("Work", library.CHANGE_ACCESS_RIGHTS, name,
                           visibility="team")
        model = builder.build()
        manager = LifecycleManager(environment, clock=clock, rng=random.Random(3))
        manager.publish_model(model, actor="pm")
        dispatched = []
        manager.bus.subscribe("action.dispatched",
                              lambda event: dispatched.append(event.payload["action_name"]))
        resource = environment.adapter("Google Doc").create_resource("doc", owner="alice")
        instance = manager.instantiate(model.uri, resource, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        visit = manager.instance(instance.instance_id).current_visit()
        assert sorted(dispatched) == names
        assert dispatched != names  # shuffled with this seed
        assert [inv.action_name for inv in visit.invocations] == names
        assert {inv.status for inv in visit.invocations} == {ActionStatus.COMPLETED}

    def test_to_dict_includes_messages(self):
        dispatcher = InvocationDispatcher(clock=SimulatedClock(), rng=random.Random(1))
        invocation = _invocation()
        dispatcher.submit(invocation, lambda inv: {"x": 1}).wait()
        document = invocation.to_dict()
        assert document["status"] == "completed"
        assert document["messages"][-1]["status"] == "completed"
        assert document["result"] == {"x": 1}
