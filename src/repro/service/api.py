"""The Gelee hosted service facade.

Bundles the kernel (lifecycle manager, resource manager), the data tier
(template store, definition store, execution log, user directory) and the UI
helpers (cockpit, widgets) behind one object with operation-level methods.
Both the REST router and the SOAP endpoint delegate to this facade, so the
two wire formats expose exactly the same behaviour.
"""

from __future__ import annotations

import time
from datetime import datetime
from typing import Any, Dict, List, Optional, Tuple

from ..accesscontrol.policy import AccessPolicy
from ..accesscontrol.roles import Role, UserDirectory
from ..clock import Clock
from ..events import Event, EventBus
from ..errors import (
    CoordinationError,
    GeleeError,
    ReplicationError,
    SchedulerError,
    ServiceError,
    TimerNotFoundError,
    TraceNotFoundError,
)
from ..model.lifecycle import LifecycleModel
from ..monitoring.alerts import collect_alerts
from ..monitoring.cockpit import MonitoringCockpit
from ..persistence import PersistenceConfig, PersistenceCoordinator, recover_into
from ..plugins.setup import StandardEnvironment, build_standard_environment
from ..resources.descriptor import ResourceDescriptor
from ..runtime.instance import InstanceStatus
from ..runtime.manager import LifecycleManager
from ..scheduler import LifecycleScheduler, SchedulerConfig, TimerService
from ..serialization.json_codec import lifecycle_from_dict
from ..serialization.lifecycle_xml import lifecycle_from_xml, lifecycle_to_xml
from ..storage.logstore import ExecutionLog
from ..storage.templates import TemplateStore
from ..telemetry import SloEngine, SloRule, get_registry, get_span_store
from ..telemetry.history import MetricHistory
from ..telemetry.logring import get_log_ring
from ..telemetry.profiling import SamplingProfiler
from .cluster import KEY_DELTA_PREFIXES, ClusterView
from ..templates.common import builtin_templates
from ..widgets.widget import LifecycleWidget
from .v2.dto import AdvanceItem, BatchItemResult, BatchResult, CreateInstanceItem
from .v2.envelope import error_info_for
from .v2.operations import Operation, OperationStore
from .v2.pagination import PageInfo, PageRequest, decode_cursor, encode_cursor, paginate


#: The node document's sections that the monitoring summary embeds.
NODE_SECTIONS = ("replication", "coordination", "telemetry", "alerts",
                 "observability")
REPLICATION_KEYS = ("role", "applied_seq", "head_seq", "lag_records",
                    "lag_seconds", "promoted", "journal_seq", "followers",
                    "max_follower_lag")
COORDINATION_KEYS = ("role", "is_leader", "leader_id", "node_id", "token",
                     "latest_token", "ttl_seconds", "lease_expires_in",
                     "elections", "depositions", "failovers", "demotions",
                     "fenced_appends")


def _pick(status: Dict[str, Any], keys) -> Dict[str, Any]:
    return {key: status[key] for key in keys if key in status}


def _telemetry_section(registry) -> Dict[str, Any]:
    """Headline registry figures: volume, dispatch, journal, lag, churn."""

    def snapshot(name):
        instrument = registry.get(name)
        return None if instrument is None else instrument.snapshot()

    section: Dict[str, Any] = {"enabled": registry.enabled}
    for key, name in (
            ("api_requests", "gelee_api_requests_total"),
            ("actions_completed", "gelee_dispatch_completed_total"),
            ("timers_fired", "gelee_timers_fired_total"),
            ("fencing_rejections", "gelee_fencing_rejections_total"),
            ("election_transitions", "gelee_election_transitions_total")):
        cell = snapshot(name)
        section[key] = 0.0 if cell is None else sum(
            series["value"] for series in cell["series"])
    for key, name in (("in_flight", "gelee_dispatch_in_flight"),
                      ("journal_last_seq", "gelee_journal_last_seq"),
                      ("replication_lag_records",
                       "gelee_replication_lag_records")):
        cell = snapshot(name)
        if cell is not None and cell["series"]:
            section[key] = cell["series"][0]["value"]
    for key, name in (
            ("dispatch_wait_mean_seconds", "gelee_dispatch_wait_seconds"),
            ("lock_wait_mean_seconds", "gelee_lock_wait_seconds")):
        cell = snapshot(name)
        if cell is None:
            continue
        counts = sum(series["count"] for series in cell["series"])
        sums = sum(series["sum"] for series in cell["series"])
        section[key] = sums / counts if counts else 0.0
    return section


class GeleeService:
    """Application service: the operations the hosted platform offers."""

    def __init__(self, environment: StandardEnvironment = None, clock: Clock = None,
                 policy: AccessPolicy = None, with_builtin_templates: bool = True,
                 manager: LifecycleManager = None,
                 persistence: PersistenceConfig = None,
                 scheduler: SchedulerConfig = None,
                 read_only: bool = False, primary_hint: str = None,
                 completion_workers: int = 0,
                 coordination=None,
                 slo_rules: Optional[List[SloRule]] = None):
        """Assemble the hosted platform.

        ``manager`` injects a pre-built
        :class:`~repro.runtime.manager.LifecycleManager` (e.g. one wired to
        a simulated action latency or pooled completions); the service then
        shares that manager's environment, bus and clock.  Without it the
        service builds its own kernel.

        ``persistence`` makes the deployment durable: a
        :class:`~repro.persistence.PersistenceConfig` whose directory holds
        the write-ahead journal, the snapshots and the instance store.  When
        that directory already contains state (and the config keeps
        ``recover_on_start`` on), the kernel is rebuilt from it *before* the
        first request is served; either way a
        :class:`~repro.persistence.PersistenceCoordinator` is then attached
        to the bus so every subsequent operation is journaled.

        ``scheduler`` configures the temporal automation subsystem
        (:mod:`repro.scheduler`): deadline timers and retry-with-backoff
        are on by default; intervals for the recurring maintenance jobs
        (periodic checkpoints, journal rotation, log compaction) opt in
        per deployment.  Pass ``SchedulerConfig(enabled=False)`` for the
        pre-scheduler passive behaviour.

        ``completion_workers`` switches the service's own kernel to pooled
        completion-based dispatch (see ``docs/DISPATCH.md``): action
        round-trips sleep on a worker pool outside the kernel lock, so the
        kernel keeps serving requests while its instances wait on web
        services.  ``0`` (the default) keeps dispatch inline and
        synchronous; an injected ``manager`` keeps its own dispatch.

        ``read_only`` builds the service as a **read replica**
        (:mod:`repro.replication`): the runtime rejects mutations with a
        typed 409 (``primary_hint`` names where writes should go), the
        scheduler lies dormant until promotion, and state arrives through
        the replication stream instead of API writes.  A replica takes its
        durability from the primary's journal, so ``persistence`` cannot be
        combined with it.

        ``coordination`` enrols this node in lease-based leader election
        (:mod:`repro.coordination`): a
        :class:`~repro.coordination.CoordinationConfig` naming the shared
        lease store.  While this node holds the lease it serves writes with
        a fencing token on the journal path; on lease loss it demotes to
        read-only and points callers at the new leader.  Election is a
        primary-side concern — a replica joins through a
        :class:`~repro.coordination.FailoverSupervisor` instead, so
        ``read_only`` cannot be combined with it.

        ``slo_rules`` overrides the stock SLO catalog
        (:func:`~repro.telemetry.default_slo_rules`) evaluated by
        :meth:`evaluate_slos` — on demand, or periodically when
        ``SchedulerConfig.slo_interval_seconds`` is set.  Threshold edges
        publish ``alert.fired`` / ``alert.resolved`` on the kernel bus, so
        on a durable node they are journaled and replicated.
        """
        if read_only and persistence is not None:
            raise ServiceError(
                "a read replica takes its durability from the primary's "
                "journal; do not combine read_only with persistence")
        if read_only and coordination is not None:
            raise ServiceError(
                "a read replica does not campaign for the primary lease; "
                "attach a FailoverSupervisor to its ReadReplica instead of "
                "combining read_only with coordination")
        if environment is None and manager is not None:
            # Reuse the injected kernel's environment: a fresh one would
            # disagree with the manager about which resources exist.
            environment = manager.environment
        self.environment = environment or build_standard_environment(clock=clock)
        self.directory = policy.directory if policy is not None else UserDirectory()
        self.policy = policy
        if manager is not None:
            self.manager = manager
            self.bus = manager.bus
        else:
            self.bus = EventBus()
            self.manager = LifecycleManager(self.environment,
                                            clock=clock or self.environment.clock,
                                            bus=self.bus, access_policy=policy,
                                            completion_workers=completion_workers)
        self.cockpit = MonitoringCockpit(self.manager)
        # A durable deployment embeds the log in every snapshot manifest, so
        # honour the config's retention bound to keep checkpoints O(bound).
        self.execution_log = ExecutionLog(
            bus=self.bus,
            max_entries=persistence.log_max_entries if persistence else None)
        self.operations = OperationStore(clock=clock or self.environment.clock)
        self.templates = TemplateStore()
        if with_builtin_templates:
            for template_id, model in builtin_templates().items():
                self.templates.save(model, template_id=template_id)
        # The scheduler exists before persistence is wired so recovery can
        # restore pending timers into it; its bus subscriptions predate the
        # coordinator's, but recovery publishes nothing, so nothing is
        # double-journaled.
        self.scheduler = LifecycleScheduler(self.manager, bus=self.bus,
                                            config=scheduler)
        #: When set, the REST transport refuses requests declaring this
        #: actor — it only carries a value when the actor actually holds
        #: the elevated grant below, so disabled-scheduler or policy-less
        #: deployments keep the name usable like any other.
        self.system_actor_reserved: Optional[str] = None
        if policy is not None and self.scheduler.config.enabled:
            # The scheduler is a system principal: escalation moves,
            # annotations and retries run as its configured actor, which a
            # closed-world policy would otherwise deny — every escalation
            # would fail and re-arm forever.  The REST transport refuses
            # requests declaring this actor, so the grant is not reachable
            # from the wire; a *pre-existing* user of the same name must
            # not be silently elevated, though.
            system_actor = self.scheduler.config.actor
            if policy.directory.known(system_actor) and not policy.directory.has_role(
                    system_actor, Role.LIFECYCLE_MANAGER):
                raise ServiceError(
                    "SchedulerConfig.actor {!r} collides with an existing user "
                    "in the directory; configure a different system actor "
                    "name".format(system_actor))
            policy.grant_manager(system_actor)
            self.system_actor_reserved = system_actor
        self.persistence: Optional[PersistenceCoordinator] = None
        self.recovery_report = None
        #: The replication attachment — a
        #: :class:`~repro.replication.ReplicationPrimary` or the
        #: :class:`~repro.replication.ReadReplica` that owns this service;
        #: ``None`` on unreplicated deployments.
        self.replication = None
        self.set_writable(not read_only, primary_hint=primary_hint)
        if persistence is not None:
            self._wire_persistence(persistence)
        #: The SLO/alert engine: declarative rules over the process
        #: registry, with alert edges published through the kernel bus (and
        #: therefore journaled + replicated on durable deployments).
        self.slo = SloEngine(rules=slo_rules,
                             registry=get_registry(),
                             clock=clock or self.environment.clock,
                             publish=self._publish_alert,
                             refresh=self._refresh_telemetry_gauges)
        #: Time-series memory over the process registry, fed by the
        #: recurring ``maintenance:telemetry-history`` job (or on-demand
        #: captures) and served at ``GET /v2/runtime/telemetry/history``.
        self.history = MetricHistory(get_registry(),
                                     clock=clock or self.environment.clock)
        #: Optional low-rate stack sampler behind ``/v2/runtime/profile``;
        #: inert (no thread) until ``profile_start`` opts in.
        self.profiler = SamplingProfiler()
        #: Peer registry + fan-out behind ``GET /v2/runtime/cluster``.
        self.cluster = ClusterView(self)
        self._register_maintenance_jobs()
        #: The coordination attachment — a
        #: :class:`~repro.coordination.Coordinator` (lease election +
        #: fencing) on primaries built with ``coordination=``, or the
        #: :class:`~repro.coordination.FailoverSupervisor` that promoted
        #: this node; ``None`` on uncoordinated deployments.
        self.coordination = None
        if coordination is not None:
            from ..coordination import Coordinator

            # Built after persistence wiring: the fencing guard installs
            # onto the live journal, and the coordinator's demotion hook
            # subscribes to the persistence coordinator's fence trips.
            self.coordination = Coordinator(self, coordination)

    def _wire_persistence(self, config: PersistenceConfig) -> None:
        """Recover durable state (if any), then start journaling.

        Order matters: recovery rebuilds the manager, the execution log and
        the pending timers through the silent install hooks *before* the
        coordinator subscribes, so recovered state is never journaled a
        second time.
        """
        store = config.open_store()  # first: it refuses a file-store directory
        journal = config.open_journal()
        snapshots = config.open_snapshots()
        if config.recover_on_start:
            started = time.perf_counter()
            self.recovery_report = recover_into(
                self.manager, self.execution_log, journal, snapshots, store,
                timers=self.scheduler.timers)
            self.scheduler.resync_after_recovery()
            get_registry().histogram(
                "gelee_recovery_seconds",
                "Wall-clock time of boot recovery from journal + snapshots.",
                buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                         30.0, 60.0),
            ).observe(time.perf_counter() - started)
        self.persistence = PersistenceCoordinator(
            self.manager, self.execution_log, journal, snapshots, store,
            bus=self.bus, timers=self.scheduler.timers)
        if self.recovery_report is not None:
            # Instances the journal tail rebuilt have stale store documents;
            # dirty-marking them guarantees the next checkpoint re-flushes
            # their state before the journal is truncated past it.
            for instance_id in self.recovery_report.touched_instance_ids:
                self.persistence.mark_dirty(instance_id)

    def _register_maintenance_jobs(self) -> None:
        """Arm the recurring maintenance jobs the config asks for."""
        config = self.scheduler.config
        if not config.enabled:
            return
        if self.persistence is not None and config.checkpoint_interval_seconds:
            self.scheduler.register_job(
                "checkpoint", self.persistence.checkpoint,
                config.checkpoint_interval_seconds)
        if self.persistence is not None and config.journal_rotate_interval_seconds:
            self.scheduler.register_job(
                "journal-rotate",
                lambda: {"rotated": self.persistence.journal.rotate()},
                config.journal_rotate_interval_seconds)
        if config.log_compact_interval_seconds:
            self.scheduler.register_job(
                "log-compact",
                lambda: {"dropped": self.execution_log.compact(
                    config.log_compact_max_entries)},
                config.log_compact_interval_seconds)
        if config.slo_interval_seconds:
            self.scheduler.register_job(
                "slo-evaluate", self.evaluate_slos,
                config.slo_interval_seconds)
        if config.history_interval_seconds:
            self.scheduler.register_job(
                "telemetry-history", self.capture_telemetry_history,
                config.history_interval_seconds)
        # Recovered maintenance timers for jobs this config no longer asks
        # for must not keep firing into the void.
        self.scheduler.prune_orphan_jobs()

    @property
    def read_only(self) -> bool:
        """Whether this node refuses writes: the kernel's read-only mode."""
        return self.manager.read_only

    def set_writable(self, writable: bool, primary_hint: Optional[str] = None) -> None:
        """Flip this node between serving and refusing writes.

        The one switch for the node's writability: the kernel's read-only
        mode, the scheduler's dormancy (timers replicate in but deadline
        enforcement, retries and maintenance are the writer's job) and
        ``primary_hint``, the address a refused write is pointed at.
        Going read-only flips the kernel first, which stops new
        submissions and drains in-flight completions, so no action lands
        after the barrier.
        """
        self.primary_hint = primary_hint
        self.manager.set_read_only(not writable)
        self.scheduler.dormant = not writable

    def close(self) -> None:
        """Detach the scheduler, stop worker pools, flush persistence.

        Draining the runtime's in-flight completions comes first so the
        final journal fsync captures every outcome that was already
        submitted.
        """
        self.profiler.stop()
        if self.coordination is not None and hasattr(self.coordination, "close"):
            # Resign the lease before anything stops serving, so a standby
            # can take over without waiting out the TTL.
            self.coordination.close()
        self.scheduler.close()
        self.manager.close()
        self.operations.close()
        if self.persistence is not None:
            self.persistence.close()

    # ----------------------------------------------------------------- models
    def list_models(self) -> List[Dict[str, Any]]:
        return [self._model_summary(model) for model in self.manager.models()]

    def _model_summary(self, model: LifecycleModel) -> Dict[str, Any]:
        return {
            "uri": model.uri,
            "name": model.name,
            "version": model.version.version_number,
            "phases": len(model),
            "resource_types": self.manager.applicable_resource_types(model.uri),
        }

    def publish_model_json(self, document: Dict[str, Any], actor: str = "") -> Dict[str, Any]:
        model = lifecycle_from_dict(document)
        self.manager.publish_model(model, actor=actor)
        return {"uri": model.uri, "version": model.version.version_number}

    def publish_model_xml(self, xml_document: str, actor: str = "") -> Dict[str, Any]:
        model = lifecycle_from_xml(xml_document)
        self.manager.publish_model(model, actor=actor)
        return {"uri": model.uri, "version": model.version.version_number}

    def model_detail(self, model_uri: str, version: str = None,
                     as_xml: bool = False) -> Dict[str, Any]:
        model = self.manager.model(model_uri, version=version)
        if as_xml:
            return {"uri": model.uri, "xml": lifecycle_to_xml(model)}
        return model.to_dict()

    # -------------------------------------------------------------- templates
    def list_templates(self) -> List[Dict[str, Any]]:
        return self.templates.catalog()

    def publish_template(self, template_id: str, actor: str = "",
                         name: str = None) -> Dict[str, Any]:
        """Instantiate a stored template as a published model."""
        model = self.templates.instantiate(template_id, name=name)
        self.manager.publish_model(model, actor=actor)
        return {"uri": model.uri, "name": model.name,
                "version": model.version.version_number}

    # -------------------------------------------------------------- resources
    def register_resource(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Validate a resource descriptor and echo it (``POST /resources``,
        ``POST /v2/resources``).

        Despite the name nothing is stored: the descriptor is parsed, its
        resource must exist in its adapter (else
        :class:`~repro.errors.ResourceNotFoundError`), and the normalised
        descriptor comes back.  Resources are created through an
        environment adapter, and instances take the descriptor directly.
        """
        descriptor = ResourceDescriptor.from_dict(document)
        self.environment.resource_manager.require(descriptor)
        return descriptor.to_dict()

    def resource_types(self) -> List[str]:
        return self.environment.resource_manager.resource_types()

    # -------------------------------------------------------------- instances
    def create_instance(self, model_uri: str, resource: Dict[str, Any], owner: str,
                        actor: str = None, version: str = None,
                        parameters: Dict[str, Dict[str, Any]] = None,
                        token_owners: List[str] = None) -> Dict[str, Any]:
        descriptor = ResourceDescriptor.from_dict(resource)
        instance = self.manager.instantiate(
            model_uri, descriptor, owner, actor=actor, version=version,
            instantiation_parameters=parameters, token_owners=token_owners,
        )
        return instance.summary()

    def list_instances(self, model_uri: str = None, owner: str = None) -> List[Dict[str, Any]]:
        return [instance.summary()
                for instance in self.manager.instances(model_uri=model_uri, owner=owner)]

    def instance_detail(self, instance_id: str) -> Dict[str, Any]:
        return self.manager.instance(instance_id).to_dict()

    def start_instance(self, instance_id: str, actor: str, phase_id: str = None,
                       call_parameters: Dict[str, Dict[str, Any]] = None) -> Dict[str, Any]:
        return self.manager.start(instance_id, actor, phase_id=phase_id,
                                  call_parameters=call_parameters).summary()

    def advance_instance(self, instance_id: str, actor: str, to_phase_id: str = None,
                         annotation: str = None,
                         call_parameters: Dict[str, Dict[str, Any]] = None) -> Dict[str, Any]:
        return self.manager.advance(instance_id, actor, to_phase_id=to_phase_id,
                                    annotation=annotation,
                                    call_parameters=call_parameters).summary()

    def move_instance(self, instance_id: str, actor: str, phase_id: str,
                      annotation: str = None) -> Dict[str, Any]:
        return self.manager.move_to(instance_id, actor, phase_id,
                                    annotation=annotation).summary()

    def annotate_instance(self, instance_id: str, actor: str, text: str,
                          kind: str = "note") -> Dict[str, Any]:
        return self.manager.annotate(instance_id, actor, text, kind=kind).to_dict()

    def instance_history(self, instance_id: str) -> List[Dict[str, Any]]:
        return [entry.to_dict() for entry in self.execution_log.history_of(instance_id)]

    # ------------------------------------------------------------- propagation
    def propose_change_xml(self, xml_document: str, actor: str,
                           instance_ids: List[str] = None) -> List[Dict[str, Any]]:
        model = lifecycle_from_xml(xml_document)
        proposals = self.manager.propose_change(model, actor=actor, instance_ids=instance_ids)
        return [proposal.to_dict() for proposal in proposals]

    def decide_change(self, proposal_id: str, actor: str, accept: bool,
                      target_phase_id: str = None, reason: str = "") -> Dict[str, Any]:
        if accept:
            plan = self.manager.accept_change(proposal_id, actor, target_phase_id=target_phase_id)
            return plan.to_dict()
        return self.manager.reject_change(proposal_id, actor, reason=reason).to_dict()

    # --------------------------------------------------------------- callbacks
    def action_callback(self, instance_id: str, phase_id: str, call_id: str,
                        status: str, detail: str = "", **payload: Any) -> Dict[str, Any]:
        callback = "urn:gelee:runtime/callbacks/{}/{}/{}".format(instance_id, phase_id, call_id)
        message = self.manager.handle_callback(callback, status, detail=detail, **payload)
        return {"status": message.status, "detail": message.detail}

    # -------------------------------------------------------------- monitoring
    def monitoring_summary(self, model_uri: str = None) -> Dict[str, Any]:
        """The portfolio summary plus the node document's sections."""
        summary = self.cockpit.portfolio_summary(model_uri=model_uri).to_dict()
        node = self.node_status()
        summary.update((key, node[key]) for key in NODE_SECTIONS if key in node)
        return summary

    def monitoring_table(self, model_uri: str = None, owner: str = None) -> List[Dict[str, Any]]:
        return [row.to_dict() for row in self.cockpit.status_table(model_uri=model_uri,
                                                                   owner=owner)]

    def monitoring_alerts(self) -> List[Dict[str, Any]]:
        return [alert.to_dict() for alert in collect_alerts(self.manager)]

    def monitoring_deadlines(self, model_uri: str = None) -> Dict[str, Any]:
        """Deadline health roll-up (passive view + the scheduler's timers)."""
        return self.cockpit.deadline_rollup(model_uri=model_uri,
                                            scheduler=self.scheduler)

    # --------------------------------------------------------------- telemetry
    def _refresh_telemetry_gauges(self) -> None:
        """Stamp the sampled gauges from their authoritative sources.

        Counters and histograms accrue on the hot paths; these gauges are
        point-in-time readings that would need inc/dec bookkeeping there.
        Setting them at scrape time keeps the hot paths lean and the values
        exact.
        """
        registry = get_registry()
        registry.gauge(
            "gelee_dispatch_in_flight",
            "Actions submitted but not yet completed.",
        ).set(self.manager.in_flight_count())
        pool = self.manager.worker_pool
        queued = pool.stats()["queued"] if pool is not None else 0
        registry.gauge(
            "gelee_worker_pool_queued",
            "Completion tasks waiting for a dispatch worker.",
        ).set(queued)
        registry.gauge(
            "gelee_scheduler_pending_timers",
            "Timers armed and waiting to fire.",
        ).set(self.scheduler.timers.pending_count)
        if self.persistence is not None:
            registry.gauge(
                "gelee_journal_last_seq",
                "Sequence number of the last journaled record.",
            ).set(self.persistence.journal.last_seq)
        if self.replication is not None and hasattr(self.replication, "sync"):
            # A replica's lag gauges refresh on sync; a scrape between
            # syncs still reports the position-based lag exactly.
            lag = self.replication.status().get("lag_records")
            if lag is not None:
                registry.gauge(
                    "gelee_replication_lag_records",
                    "Journal records the primary has that this replica "
                    "has not applied.",
                ).set(lag)

    def metrics_exposition(self) -> str:
        """The process registry in Prometheus text format (``/v2/metrics``)."""
        self._refresh_telemetry_gauges()
        return get_registry().render_prometheus()

    def telemetry_status(self) -> Dict[str, Any]:
        """JSON snapshot of every instrument (``/v2/runtime/telemetry``).

        Stamped with ``captured_at`` (the deployment's injected clock, so
        simulated-time tests get deterministic stamps) and the node's
        coordination ``node_id`` — a fleet scraper aggregating several
        nodes' snapshots can attribute every sample.
        """
        self._refresh_telemetry_gauges()
        snapshot = get_registry().snapshot()
        snapshot["captured_at"] = self.manager.clock.now().isoformat()
        snapshot["node"] = {
            "node_id": self._node_id(),
            "read_only": self.read_only,
            "role": self._role(),
        }
        return snapshot

    def _node_id(self) -> Optional[str]:
        """This node's identity: its election name, or its replica id."""
        if self.coordination is not None:
            node_id = getattr(self.coordination, "node_id", None)
            if node_id is not None:
                return node_id
        return getattr(self.replication, "replica_id", None)

    def _role(self) -> str:
        """This node's replication role, or primary/replica by writability."""
        if self.replication is not None:
            return self.replication.role
        return "replica" if self.read_only else "primary"

    # ------------------------------------------------------------ span traces
    def traces_status(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Held trace summaries + store figures (``/v2/runtime/traces``)."""
        store = get_span_store()
        return {
            "store": store.stats(),
            "traces": store.traces(limit=limit),
        }

    def trace_detail(self, trace_id: str) -> Dict[str, Any]:
        """One trace's full span timeline and tree, by correlation id."""
        trace = get_span_store().trace(trace_id)
        if trace is None:
            raise TraceNotFoundError(
                "no retained trace {!r}: it was never sampled, or aged out "
                "of the span store's ring".format(trace_id))
        return trace

    # ------------------------------------------------------- telemetry history
    def capture_telemetry_history(self) -> Dict[str, Any]:
        """Sample every registry series into the history rings once.

        Runs on the recurring ``maintenance:telemetry-history`` job when
        ``SchedulerConfig.history_interval_seconds`` opts in, and on
        demand via ``POST /v2/runtime/telemetry/history:capture`` (how a
        dormant-scheduler replica keeps its rings warm).
        """
        self._refresh_telemetry_gauges()
        points = self.history.capture()
        return {"points_recorded": points, "stats": self.history.stats()}

    def telemetry_history(self, series: Optional[str] = None,
                          window_seconds: Optional[float] = None,
                          step_seconds: Optional[float] = None,
                          tier: Optional[str] = None,
                          max_series: Optional[int] = None) -> Dict[str, Any]:
        """Ring contents for ``GET /v2/runtime/telemetry/history``."""
        try:
            report = self.history.query(
                series=series, window_seconds=window_seconds,
                step_seconds=step_seconds, tier=tier or "raw",
                max_series=50 if max_series is None else max_series)
        except ValueError as exc:
            raise ServiceError(str(exc))
        report["node_id"] = self._node_id()
        report["stats"] = self.history.stats()
        return report

    # ------------------------------------------------------------------- logs
    def logs_status(self, trace_id: Optional[str] = None,
                    level: Optional[str] = None,
                    component: Optional[str] = None,
                    since: Optional[str] = None,
                    limit: Optional[int] = None) -> Dict[str, Any]:
        """Ring-buffered log records for ``GET /v2/runtime/logs``.

        Reads the *live* process ring (the same one every
        ``JsonLogEmitter`` fans out into), so records written before this
        service was built are still queryable.
        """
        ring = get_log_ring()
        try:
            records = ring.query(trace_id=trace_id, level=level,
                                 component=component, since=since,
                                 limit=200 if limit is None else limit)
        except ValueError as exc:
            raise ServiceError(str(exc))
        return {"node_id": self._node_id(), "stats": ring.stats(),
                "records": records}

    # ------------------------------------------------------------ node status
    def node_status(self) -> Dict[str, Any]:
        """This node's status document.

        The one projection of node state, served by ``GET
        /v2/runtime/cluster/self``, ``GET /v2/runtime/stats`` and v1 ``GET
        /runtime/stats``: the cluster view federates it row by row and
        :meth:`monitoring_summary` embeds its :data:`NODE_SECTIONS`.  Each
        section keeps only the at-a-glance figures; the full pictures live
        at ``/v2/runtime/replication``, ``/v2/runtime/coordination``,
        ``/v2/runtime/telemetry``, ``/v2/runtime/alerts`` and the
        observability routes.
        """
        self._refresh_telemetry_gauges()
        manager = self.manager
        pool = manager.worker_pool
        pool_stats = pool.stats() if pool is not None else None
        status: Dict[str, Any] = {
            "node_id": self._node_id(),
            "role": self._role(),
            "read_only": self.read_only,
            "primary_hint": self.primary_hint,
            "captured_at": manager.clock.now().isoformat(),
            "instances": manager.instance_count(),
            "events_published": self.bus.published_count,
            "by_status": {state.value: count for state, count
                          in manager.status_distribution().items()},
            "pending_timers": self.scheduler.timers.pending_count,
            # Same keys inline and pooled (docs/DISPATCH.md), so a
            # dashboard never branches on the deployment's shape.
            "dispatch": {
                "mode": manager.completion_executor.mode,
                "in_flight": manager.in_flight_count(),
                "queue_depth": pool_stats["queued"] if pool_stats else 0,
                "worker_pool": pool_stats,
                "operations_pool": self.operations.pool_stats(),
                "operations": len(self.operations.list()),
            },
        }
        if self.persistence is not None:
            status["journal_seq"] = self.persistence.journal.last_seq
        if self.replication is not None:
            status["replication"] = _pick(self.replication.status(),
                                          REPLICATION_KEYS)
        if self.coordination is not None:
            try:
                coordination = self.coordination.status()
            except GeleeError:
                coordination = {}
            status["coordination"] = _pick(coordination, COORDINATION_KEYS)
        status["telemetry"] = _telemetry_section(get_registry())
        alerts = self.slo.status()
        firing = [alert for alert in alerts["alerts"]
                  if alert["state"] == "firing"]
        status["alerts"] = {
            "rules": len(alerts["rules"]),
            "firing": len(firing),
            "firing_rules": [_pick(alert, ("rule", "severity", "value",
                                           "threshold", "fired_at"))
                             for alert in firing],
            "evaluations": alerts["evaluations"],
            "last_evaluated_at": alerts["last_evaluated_at"],
        }
        logs = get_log_ring().stats()
        status["observability"] = {
            "history": _pick(self.history.stats(), (
                "enabled", "captures", "series", "last_capture_at")),
            "logs": _pick(logs, ("enabled", "size", "capacity", "dropped")),
            "profiler": {"running": self.profiler.running,
                         "samples": self.profiler.status()["samples"]},
        }
        status["deltas"] = self.history.recent_deltas(KEY_DELTA_PREFIXES)
        return status

    # ---------------------------------------------------------------- cluster
    def cluster_status(self) -> Dict[str, Any]:
        """The merged multi-node view for ``GET /v2/runtime/cluster``."""
        return self.cluster.status()

    def cluster_register(self, node_id: str, url: Optional[str] = None,
                         host: Optional[str] = None,
                         port: Optional[int] = None,
                         router=None) -> Dict[str, Any]:
        """Register a peer for fan-out (``POST /v2/runtime/cluster:register``)."""
        return self.cluster.register(node_id, router=router, url=url,
                                     host=host, port=port)

    # ------------------------------------------------------------ profiling
    def profile_status(self) -> Dict[str, Any]:
        """Sampler state + flame tree for ``GET /v2/runtime/profile``."""
        status = self.profiler.status()
        status["node_id"] = self._node_id()
        return status

    def profile_start(self,
                      interval_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Start the sampling profiler (idempotent)."""
        started = self.profiler.start(interval_seconds=interval_seconds)
        return {"started": started, "running": True,
                "interval_seconds": self.profiler.interval_seconds}

    def profile_stop(self) -> Dict[str, Any]:
        """Stop the sampling profiler; the aggregate stays queryable."""
        stopped = self.profiler.stop()
        return {"stopped": stopped, "running": False,
                "samples": self.profiler.status()["samples"]}

    # ------------------------------------------------------------- SLO alerts
    def _publish_alert(self, kind: str, subject_id: str,
                       payload: Dict[str, Any]) -> None:
        """Alert edges travel the kernel bus: journaled + replicated."""
        self.bus.publish(Event(kind=kind, timestamp=self.manager.clock.now(),
                               subject_id=subject_id, actor="slo-engine",
                               payload=payload))

    def evaluate_slos(self) -> Dict[str, Any]:
        """Evaluate every SLO rule once; fire/resolve alerts on the edges.

        Runs on demand (``POST /v2/runtime/alerts:evaluate``) and on the
        recurring ``maintenance:slo-evaluate`` job when
        ``SchedulerConfig.slo_interval_seconds`` opts in.
        """
        return self.slo.evaluate()

    def alerts_status(self) -> Dict[str, Any]:
        """The alert surface (``/v2/runtime/alerts``): rules + states."""
        status = self.slo.status()
        status["node_id"] = self._node_id()
        return status

    # ------------------------------------------------------------- persistence
    def persistence_status(self) -> Dict[str, Any]:
        """Journal / snapshot / store figures, plus the boot recovery report."""
        if self.persistence is None:
            return {"enabled": False}
        status = self.persistence.status()
        if self.recovery_report is not None:
            status["recovery"] = self.recovery_report.to_dict()
        return status

    def persistence_checkpoint(self) -> Dict[str, Any]:
        """Flush dirty instances and publish a snapshot (admin operation)."""
        if self.persistence is None:
            raise ServiceError(
                "persistence is not enabled on this deployment; construct the "
                "service with persistence=PersistenceConfig(...)")
        return self.persistence.checkpoint()

    # ------------------------------------------------------------- replication
    def replication_status(self) -> Dict[str, Any]:
        """Stream position, lag and role for ``GET /v2/runtime/replication``."""
        if self.replication is not None:
            return self.replication.status()
        return {"enabled": False, "role": self._role()}

    def replication_promote(self) -> Dict[str, Any]:
        """Promote this read replica to primary (failover admin operation)."""
        if self.replication is None or not hasattr(self.replication, "promote"):
            raise ReplicationError(
                "this deployment is not a read replica; there is nothing to "
                "promote")
        return self.replication.promote()

    #: Upper bound on one long-poll park, so a stuck client cannot pin a
    #: request thread indefinitely; clients simply re-issue the request.
    REPLICATION_STREAM_MAX_WAIT = 30.0

    def replication_stream(self, after_seq: int = 0, limit: int = None,
                           wait_timeout: float = None,
                           follower_id: str = None) -> Dict[str, Any]:
        """One journal stream batch, optionally long-polling for it.

        The wire face of push replication
        (``GET /v2/runtime/replication/stream``): with ``wait_timeout`` a
        caught-up follower's request parks on the primary's journal-append
        notification and returns the moment new records exist (or empty at
        the timeout), so remote followers get push latency over plain HTTP
        without holding a poll loop against ``read_batch``.
        """
        source = self.replication
        if source is None or not hasattr(source, "read_batch"):
            raise ReplicationError(
                "this deployment does not serve a replication stream; attach "
                "a ReplicationPrimary")
        try:
            after_seq = int(after_seq)
        except (TypeError, ValueError):
            raise ServiceError("after_seq must be an integer") from None
        if wait_timeout is not None:
            try:
                wait_timeout = float(wait_timeout)
            except (TypeError, ValueError):
                raise ServiceError("wait_timeout must be a number") from None
            source.wait_for(after_seq + 1,
                            timeout=max(0.0, min(wait_timeout,
                                                 self.REPLICATION_STREAM_MAX_WAIT)))
        batch = source.read_batch(after_seq, limit=limit,
                                  follower_id=follower_id)
        return batch.to_dict()

    def replication_bootstrap(self) -> Dict[str, Any]:
        """The snapshot-plus-documents payload a brand-new follower restores
        (``GET /v2/runtime/replication/bootstrap``) — the wire face of
        :meth:`~repro.replication.ReplicationSource.bootstrap` that lets an
        off-host :class:`~repro.replication.HttpReplicationSource` join
        without filesystem access to this node."""
        source = self.replication
        if source is None or not hasattr(source, "bootstrap"):
            raise ReplicationError(
                "this deployment does not serve replication bootstrap; "
                "attach a ReplicationPrimary")
        return source.bootstrap().to_dict()

    # ------------------------------------------------------------ coordination
    def coordination_status(self) -> Dict[str, Any]:
        """Election / fencing figures for ``GET /v2/runtime/coordination``."""
        if self.coordination is not None:
            return self.coordination.status()
        return {"enabled": False, "role": self._role()}

    def coordination_resign(self) -> Dict[str, Any]:
        """Voluntarily release the primary lease (admin operation).

        The planned-maintenance half of failover: the lease transfers to
        the next campaigner immediately instead of after a TTL expiry, and
        this node demotes cleanly.
        """
        if self.coordination is None or not hasattr(self.coordination, "resign"):
            raise CoordinationError(
                "this deployment is not enrolled in leader election; "
                "construct the service with coordination=CoordinationConfig(...)")
        return self.coordination.resign()

    # --------------------------------------------------------------- scheduler
    def scheduler_status(self) -> Dict[str, Any]:
        """Timer-queue and automation figures for ``/v2/runtime/scheduler``."""
        return self.scheduler.status()

    def scheduler_tick(self, limit: int = None) -> Dict[str, Any]:
        """Fire every due timer now; the ops entry point for time.

        Hosted deployments either call this on a cadence (cron, the HTTP
        transport's idle loop) or run a
        :class:`~repro.scheduler.SchedulerDaemon`; tests and simulations
        call it right after advancing their :class:`SimulatedClock`.
        """
        firings = self.scheduler.tick(limit=limit)
        return {
            "fired": len(firings),
            "firings": [firing.to_dict() for firing in firings],
        }

    #: Timer-id namespaces and handler kinds owned by the scheduler's own
    #: automation.  API callers must not (re)schedule into the namespaces —
    #: the id is the idempotency key, so doing so would silently replace an
    #: internal timer — and must not use the kinds, whose handlers execute
    #: privileged operations (escalation moves, action dispatch,
    #: maintenance jobs) as the system actor.
    _RESERVED_TIMER_PREFIXES = ("deadline:", "retry:", "maintenance:")
    _RESERVED_TIMER_KINDS = ("deadline", "retry", "maintenance")

    def schedule_timer(self, timer_id: str, fire_at: str = None,
                       delay_seconds: float = None, kind: str = "user",
                       subject_id: str = "", payload: Dict[str, Any] = None,
                       interval_seconds: float = None) -> Dict[str, Any]:
        """Schedule (or replace) a named timer via the API surface."""
        self.require(timer_id, "timer_id")
        if str(timer_id).startswith(self._RESERVED_TIMER_PREFIXES):
            raise SchedulerError(
                "timer id {!r} is in a reserved namespace ({}); pick another "
                "name".format(timer_id, ", ".join(self._RESERVED_TIMER_PREFIXES)))
        if kind in self._RESERVED_TIMER_KINDS:
            raise SchedulerError(
                "timer kind {!r} is reserved for the scheduler's own "
                "automation; use a custom kind".format(kind))
        if payload is not None and not isinstance(payload, dict):
            raise SchedulerError("payload must be a JSON object")
        fire_at_dt = None
        if fire_at is not None:
            try:
                fire_at_dt = datetime.fromisoformat(fire_at)
            except ValueError:
                raise SchedulerError(
                    "fire_at must be an ISO-8601 timestamp, got {!r}".format(
                        fire_at)) from None
        if delay_seconds is not None:
            try:
                delay_seconds = float(delay_seconds)
            except (TypeError, ValueError):
                raise SchedulerError("delay_seconds must be a number") from None
        if interval_seconds is not None:
            try:
                interval_seconds = float(interval_seconds)
            except (TypeError, ValueError):
                raise SchedulerError("interval_seconds must be a number") from None
        timer = self.scheduler.timers.schedule(
            timer_id, fire_at=fire_at_dt, delay_seconds=delay_seconds,
            kind=kind or "user", subject_id=subject_id,
            payload=dict(payload or {}), interval_seconds=interval_seconds)
        return timer.to_dict()

    def cancel_timer(self, timer_id: str) -> Dict[str, Any]:
        if str(timer_id).startswith(self._RESERVED_TIMER_PREFIXES):
            # Cancelling an internal timer would silently disable a
            # deadline, a retry chain or a maintenance job.  Deadlines are
            # suppressed by moving the token (or changing the model), not
            # by deleting the enforcement mechanism.
            raise SchedulerError(
                "timer id {!r} is in a reserved namespace ({}); internal "
                "timers cannot be cancelled through the API".format(
                    timer_id, ", ".join(self._RESERVED_TIMER_PREFIXES)))
        if not self.scheduler.timers.cancel(timer_id):
            raise TimerNotFoundError("no pending timer named {!r}".format(timer_id))
        return {"timer_id": timer_id, "cancelled": True}

    def timers_page(self, kind: str = None, subject_id: str = None,
                    page: PageRequest = None) -> Tuple[List[Dict[str, Any]], PageInfo]:
        """One page of pending timers, soonest first."""
        page = page or PageRequest()
        field, descending = page.sort_field(("fire_at", "timer_id", "kind"),
                                            "fire_at")
        timers = self.scheduler.timers.pending(kind=kind, subject_id=subject_id)
        sort_keys = {
            "fire_at": lambda timer: timer.fire_at.isoformat(),
            "timer_id": lambda timer: timer.timer_id,
            "kind": lambda timer: timer.kind,
        }
        selected, info = paginate(timers, page,
                                  sort_key=sort_keys[field],
                                  tie_key=lambda timer: timer.timer_id,
                                  descending=descending,
                                  sort_label=("-" if descending else "") + field)
        return [timer.to_dict() for timer in selected], info

    # ================================================== v2 gateway operations
    # Collection reads are paginated with keyset cursors; the candidate sets
    # come from the runtime's secondary indexes (model/owner/status/phase),
    # so a filtered page request never scans instances that cannot match.

    _INSTANCE_SORTS = {
        "instance_id": lambda instance: instance.instance_id,
        "created_at": lambda instance: instance.created_at,
        "owner": lambda instance: instance.owner,
        "status": lambda instance: instance.status.value,
        "model_uri": lambda instance: instance.model.uri,
    }

    _MODEL_SORTS = {
        "uri": lambda model: model.uri,
        "name": lambda model: model.name,
        "version": lambda model: model.version.version_number,
    }

    def models_page(self, page: PageRequest = None) -> Tuple[List[Dict[str, Any]], PageInfo]:
        page = page or PageRequest()
        field, descending = page.sort_field(tuple(self._MODEL_SORTS), "uri")
        models, info = paginate(self.manager.models(), page,
                                sort_key=self._MODEL_SORTS[field],
                                tie_key=lambda model: model.uri,
                                descending=descending,
                                sort_label=("-" if descending else "") + field)
        return [self._model_summary(model) for model in models], info

    def templates_page(self, page: PageRequest = None) -> Tuple[List[Dict[str, Any]], PageInfo]:
        page = page or PageRequest()
        field, descending = page.sort_field(("template_id", "name"), "template_id")
        return paginate(self.templates.catalog(), page,
                        sort_key=lambda entry: entry.get(field, ""),
                        tie_key=lambda entry: entry["template_id"],
                        descending=descending,
                        sort_label=("-" if descending else "") + field)

    def instances_page(self, model_uri: str = None, owner: str = None,
                       status: str = None, phase_id: str = None,
                       page: PageRequest = None) -> Tuple[List[Dict[str, Any]], PageInfo]:
        page = page or PageRequest()
        field, descending = page.sort_field(tuple(self._INSTANCE_SORTS), "instance_id")
        candidates = self.manager.instances(
            model_uri=model_uri, owner=owner, phase_id=phase_id,
            status=self._parse_status(status))
        instances, info = paginate(candidates, page,
                                   sort_key=self._INSTANCE_SORTS[field],
                                   tie_key=lambda instance: instance.instance_id,
                                   descending=descending,
                                   sort_label=("-" if descending else "") + field)
        return [instance.summary() for instance in instances], info

    def history_page(self, instance_id: str,
                     page: PageRequest = None) -> Tuple[List[Dict[str, Any]], PageInfo]:
        """One page of an instance's event history, oldest first.

        The cursor is the log sequence number of the last entry served; the
        execution log resolves it with a binary search over the per-subject
        index, so paging through one instance's history never scans the log.
        """
        page = page or PageRequest()
        self.manager.instance(instance_id)  # 404 for unknown instances
        after_sequence = 0
        if page.page_token:
            payload = decode_cursor(page.page_token)
            after_sequence = payload.get("seq")
            if not isinstance(after_sequence, int):
                raise ServiceError("malformed page token {!r}".format(page.page_token))
        entries, next_cursor, total = self.execution_log.entries_page(
            subject_id=instance_id, after_sequence=after_sequence,
            limit=page.page_size)
        info = PageInfo(
            page_size=page.page_size, count=len(entries),
            next_page_token=encode_cursor({"seq": next_cursor})
            if next_cursor is not None else None,
            total=total, sort="sequence")
        return [entry.to_dict() for entry in entries], info

    def monitoring_table_page(self, model_uri: str = None, owner: str = None,
                              page: PageRequest = None) -> Tuple[List[Dict[str, Any]], PageInfo]:
        """One page of cockpit rows; rows are computed for the page only."""
        page = page or PageRequest()
        field, descending = page.sort_field(("instance_id", "owner", "created_at"),
                                            "instance_id")
        candidates = self.manager.instances(model_uri=model_uri, owner=owner)
        instances, info = paginate(candidates, page,
                                   sort_key=self._INSTANCE_SORTS[field],
                                   tie_key=lambda instance: instance.instance_id,
                                   descending=descending,
                                   sort_label=("-" if descending else "") + field)
        now = self.manager.clock.now()
        return [self.cockpit.status_row(instance, now).to_dict()
                for instance in instances], info

    # ------------------------------------------------------------- bulk calls
    def batch_create_instances(self, items: List[CreateInstanceItem],
                               actor: str = None) -> BatchResult:
        """Create many instances in one call, as one drain of the kernel.

        Partial failure is reported per item: a malformed resource or an
        unknown model fails that item only, never the batch.
        """
        results: List[Optional[BatchItemResult]] = [None] * len(items)
        requests: List[Tuple[int, Dict[str, Any]]] = []
        for position, item in enumerate(items):
            try:
                descriptor = ResourceDescriptor.from_dict(item.resource)
            except GeleeError as exc:
                results[position] = BatchItemResult(
                    index=position, ok=False, error=error_info_for(exc))
                continue
            requests.append((position, {
                "model_uri": item.model_uri,
                "resource": descriptor,
                "owner": item.owner,
                "actor": actor or item.owner,
                "version": item.version,
                "instantiation_parameters": item.parameters,
                "token_owners": item.token_owners,
            }))
        outcomes = self.manager.batch_instantiate(
            [request for _, request in requests], capture_errors=True)
        for (position, _), outcome in zip(requests, outcomes):
            if isinstance(outcome, BaseException):
                results[position] = BatchItemResult(
                    index=position, ok=False, error=error_info_for(outcome))
            else:
                results[position] = BatchItemResult(
                    index=position, ok=True, instance_id=outcome.instance_id,
                    data=outcome.summary())
        return BatchResult(results=results)

    def batch_advance_instances(self, items: List[AdvanceItem],
                                actor: str) -> BatchResult:
        """Advance many instances in one call, as one drain of the kernel.

        Rides the submit/complete dispatch protocol end to end: the per-item
        callback uses ``advance_async``, which *submits* the phase's action
        round-trips and returns without sleeping through them — so the drain
        holds the kernel lock only for the token moves, and every submitted
        action across the whole batch waits concurrently on the completion
        pool.  One ``drain_in_flight`` barrier at the end (outside the lock)
        makes the response read-your-writes: every reported status reflects
        applied action outcomes.  Per-item failures are captured, not raised.
        """
        self.require(actor, "actor")
        # map_instances applies the ids serially in request order, so the
        # n-th call belongs to the n-th item.
        pending = iter(items)

        def advance(manager: LifecycleManager, instance_id: str):
            item = next(pending)
            # Never the sync advance here: the callback runs under the kernel
            # lock, and waiting for completions while holding it would
            # deadlock a pooled executor (completions need that same lock).
            return manager.advance_async(
                instance_id, actor, to_phase_id=item.to_phase_id,
                call_parameters=item.call_parameters,
                annotation=item.annotation)

        outcomes = self.manager.map_instances(
            [item.instance_id for item in items], advance, capture_errors=True)
        self.manager.drain_in_flight(timeout=self.manager.quiesce_drain_timeout)
        results = []
        for position, (item, outcome) in enumerate(zip(items, outcomes)):
            if isinstance(outcome, BaseException):
                results.append(BatchItemResult(
                    index=position, ok=False, instance_id=item.instance_id,
                    error=error_info_for(outcome)))
            else:
                # A compact per-item payload: a bulk response carrying 10k
                # full summaries would dwarf the progression work itself;
                # clients fetch details for the items they actually inspect.
                results.append(BatchItemResult(
                    index=position, ok=True, instance_id=item.instance_id,
                    data={"instance_id": outcome.instance_id,
                          "status": outcome.status.value,
                          "current_phase_id": outcome.current_phase_id}))
        return BatchResult(results=results)

    # -------------------------------------------------------- async operations
    def submit_operation(self, kind: str, work) -> Operation:
        """Run ``work`` on a background thread; return the 202 handle."""
        return self.operations.submit(kind, work)

    def operation_view(self, operation_id: str) -> Dict[str, Any]:
        return self.operations.get(operation_id).to_dict()

    def operations_page(self, page: PageRequest = None) -> Tuple[List[Dict[str, Any]], PageInfo]:
        page = page or PageRequest()
        field, descending = page.sort_field(("operation_id", "created_at", "status"),
                                            "created_at")
        operations, info = paginate(
            self.operations.list(), page,
            sort_key=lambda operation: (operation.created_at if field == "created_at"
                                        else getattr(operation, field, None)
                                        if field != "status" else operation.status.value),
            tie_key=lambda operation: operation.operation_id,
            descending=descending,
            sort_label=("-" if descending else "") + field)
        return [operation.to_dict() for operation in operations], info

    @staticmethod
    def _parse_status(status: Optional[str]) -> Optional[InstanceStatus]:
        if status is None or status == "":
            return None
        try:
            return InstanceStatus(status)
        except ValueError:
            raise ServiceError("unknown instance status {!r}; expected one of {}".format(
                status, ", ".join(sorted(s.value for s in InstanceStatus)))) from None

    # ------------------------------------------------------------------ widgets
    def widget_view(self, instance_id: str, viewer: str = None) -> Dict[str, Any]:
        widget = LifecycleWidget(self.manager, instance_id, viewer=viewer, policy=self.policy)
        return widget.view_model().to_dict()

    # ------------------------------------------------------------------ helpers
    def require(self, value: Any, name: str) -> Any:
        if value is None or (isinstance(value, str) and not value.strip()):
            raise ServiceError("missing required field {!r}".format(name))
        return value
