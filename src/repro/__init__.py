"""repro — a reproduction of "Universal Resource Lifecycle Management" (Gelee).

The package implements the lifecycle model, the human-driven execution
runtime, the action/plug-in framework, the hosted-service architecture, the
monitoring cockpit and the UI widgets described in the paper (Báez, Casati,
Marchese — WISS/ICDE 2009), together with simulated managing applications
(Google Docs, MediaWiki, Zoho, Subversion, photo albums, a project web site)
that stand in for the live services the prototype integrated with.

Quickstart::

    from repro import build_standard_environment, LifecycleManager
    from repro.templates import eu_deliverable_lifecycle

    env = build_standard_environment()
    manager = LifecycleManager(env)
    model = eu_deliverable_lifecycle()
    manager.publish_model(model, actor="coordinator")

    doc = env.adapter("Google Doc").create_resource("D1.1 State of the art", owner="alice")
    instance = manager.instantiate(model.uri, doc, owner="alice")
    manager.start(instance.instance_id, actor="alice")
    manager.advance(instance.instance_id, actor="alice", to_phase_id="internalreview")
"""

from .clock import Clock, SimulatedClock, SystemClock
from .errors import GeleeError
from .events import Event, EventBus, EventRecorder
from .model import (
    ActionCall,
    Annotation,
    BindingTime,
    Deadline,
    LifecycleBuilder,
    LifecycleModel,
    ParameterDefinition,
    Phase,
    Transition,
    VersionInfo,
)
from .actions import ActionRegistry, ActionType, ActionImplementation
from .resources import Credentials, ResourceDescriptor, ResourceManager
from .plugins import StandardEnvironment, build_standard_environment
from .runtime import InstanceStatus, LifecycleInstance, LifecycleManager
from .accesscontrol import AccessPolicy, Role, User, UserDirectory
from .storage import ExecutionLog, TemplateStore
from .monitoring import MonitoringCockpit, collect_alerts
from .widgets import DesignerSession, LifecycleWidget
from .scheduler import (LifecycleScheduler, SchedulerConfig, SchedulerDaemon,
                        TimerService)
from .service import GeleeService, RestRouter
from .client import GeleeApiError, GeleeClient
from .replication import (JournalShippingSource, ReadReplica,
                          ReplicationPrimary)

__version__ = "1.1.0"

__all__ = [
    "Clock",
    "SimulatedClock",
    "SystemClock",
    "GeleeError",
    "Event",
    "EventBus",
    "EventRecorder",
    "ActionCall",
    "Annotation",
    "BindingTime",
    "Deadline",
    "LifecycleBuilder",
    "LifecycleModel",
    "ParameterDefinition",
    "Phase",
    "Transition",
    "VersionInfo",
    "ActionRegistry",
    "ActionType",
    "ActionImplementation",
    "Credentials",
    "ResourceDescriptor",
    "ResourceManager",
    "StandardEnvironment",
    "build_standard_environment",
    "InstanceStatus",
    "LifecycleInstance",
    "LifecycleManager",
    "AccessPolicy",
    "Role",
    "User",
    "UserDirectory",
    "ExecutionLog",
    "TemplateStore",
    "MonitoringCockpit",
    "collect_alerts",
    "DesignerSession",
    "LifecycleWidget",
    "LifecycleScheduler",
    "SchedulerConfig",
    "SchedulerDaemon",
    "TimerService",
    "GeleeService",
    "RestRouter",
    "GeleeApiError",
    "GeleeClient",
    "JournalShippingSource",
    "ReadReplica",
    "ReplicationPrimary",
    "__version__",
]
