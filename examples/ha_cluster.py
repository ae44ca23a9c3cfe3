"""A self-healing Gelee cluster: leases, fencing, automatic failover.

``examples/replicated_service.py`` showed manual failover — somebody runs
``promote()``.  This example takes the human out of the loop with the
coordination subsystem (:mod:`repro.coordination`):

* the **primary** enrols in leader election (a shared lease store with a
  short TTL) and serves writes fenced by its epoch's token;
* a **standby** streams the primary's journal and runs a
  :class:`~repro.coordination.FailoverSupervisor`: a health monitor probes
  the primary, and once the failure threshold is crossed *and* the
  primary's lease has expired, the supervisor wins the next epoch and
  promotes the replica on its own;
* the deposed primary's late write bounces off the **stale fencing
  token** — split-brain is fenced from both sides, automatically;
* one **span tree** follows the last pre-kill request from the gateway
  through dispatch and the journal onto the promoted node, and the
  **SLO engine** turns the killed primary's stalled election heartbeats
  into an ``alert.fired`` / ``alert.resolved`` pair.

Run with::

    python examples/ha_cluster.py
"""

import shutil
import tempfile
import time

from repro.client import GeleeClient
from repro.coordination import (
    CoordinationConfig,
    FailoverSupervisor,
    HealthMonitor,
    MemoryLeaseStore,
)
from repro.errors import StaleFencingTokenError
from repro.persistence import PersistenceConfig
from repro.persistence.journal import scan_records
from repro.replication import JournalShippingSource, ReadReplica, ReplicationPrimary
from repro.service import GeleeService, RestRouter

#: Deliberately tiny so the demo's failover window is sub-second;
#: production deployments use 10-30s.
LEASE_TTL = 0.5


def _assert_exposition(text, required):
    """Validate Prometheus text format 0.0.4 and require some series."""
    assert text.endswith("\n"), "exposition must end with a newline"
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
        elif line.startswith("#") or not line:
            continue
        else:
            _, _, value = line.rpartition(" ")
            float(value)  # every sample line ends in a parseable number
    for name in required:
        assert name in types, "missing metric family {}".format(name)
    return types


def main() -> None:
    directory = tempfile.mkdtemp(prefix="gelee-ha-")
    try:
        # -- the primary: durable, replicating, and *enrolled* --------------
        lease_store = MemoryLeaseStore()
        config = PersistenceConfig(directory, fsync="interval")
        # Pooled completions (completion_workers) put the dispatcher's
        # work through the shared worker pool, so the scrape below also
        # carries the pool's queue-depth distribution.
        primary = GeleeService(
            persistence=config, completion_workers=2,
            coordination=CoordinationConfig(store=lease_store,
                                            node_id="primary-node",
                                            ttl_seconds=LEASE_TTL,
                                            fence_revalidate_seconds=0))
        primary_router = RestRouter(service=primary)
        ReplicationPrimary(primary)
        election = primary.coordination_status()
        print("Primary elected itself: role={role} epoch={token}".format(
            **election))

        seed = GeleeClient.in_process(router=primary_router, actor="alice")
        model = seed.publish_template("eu-deliverable")
        adapter = primary.environment.adapter("Google Doc")
        instance_ids = []
        for index in range(8):
            descriptor = adapter.create_resource(
                "D2.{} Architecture".format(index + 1), owner="alice")
            instance = seed.create_instance(model["uri"], descriptor.to_dict(),
                                            owner="alice")
            instance_ids.append(instance["instance_id"])
        for instance_id in instance_ids:
            seed.start(instance_id)

        # -- the standby: stream + supervise --------------------------------
        replica = ReadReplica(JournalShippingSource(config),
                              clock=primary.manager.clock,
                              replica_id="standby-node")
        sync = replica.sync()
        print("Standby streamed {} journal records (lag {})".format(
            sync["applied"], sync["lag_records"]))

        alive = {"up": True}
        monitor = HealthMonitor(lambda: alive["up"], failure_threshold=2,
                                probe_interval_seconds=0.05)
        supervisor = FailoverSupervisor(replica, monitor, store=lease_store,
                                        ttl_seconds=LEASE_TTL,
                                        fence_revalidate_seconds=0)
        print("Supervisor watching: {}".format(supervisor.poll()["state"]))

        # -- kill the primary mid-traffic -----------------------------------
        # A last write the standby never streamed: durable in the journal
        # only.  Then the primary stops heartbeating and stops answering
        # probes — no clean shutdown, no resign.  Capture this request's
        # id: its span tree is fetched from the promoted node later.
        advance_response = primary_router.post(
            "/v2/instances/{}:advance".format(instance_ids[3]),
            body={"to_phase_id": "internalreview"}, actor="alice")
        assert advance_response.status == 200
        traced_request_id = advance_response.headers["X-Request-Id"]

        # While the cluster is healthy each node learns about the other,
        # and each rolls a first point into its history rings; the
        # federated view and the rings must both survive what follows.
        primary.cluster_register("standby-node", router=replica.router())
        replica.service.cluster_register("primary-node",
                                         router=primary_router)
        assert primary_router.post(
            "/v2/runtime/telemetry/history:capture").status == 200
        pre_kill_captures = replica.router().post(
            "/v2/runtime/telemetry/history:capture"
        ).body["data"]["stats"]["captures"]
        healthy_view = primary_router.get("/v2/runtime/cluster").body["data"]
        assert healthy_view["node_count"] == 2
        assert not healthy_view["partial"]
        print("Cluster view from the primary: {} nodes, all reachable".format(
            healthy_view["node_count"]))

        journal_head = primary.persistence.journal.last_seq
        alive["up"] = False
        print("-- primary killed (journal head seq {}) --".format(journal_head))

        # The supervisor does the rest on its own: detect, wait out the
        # dead primary's lease, win the next epoch, promote.
        killed_at = time.perf_counter()
        report = None
        while time.perf_counter() - killed_at < 30.0:
            poll = supervisor.poll()
            if poll["state"] == "failover":
                report = poll
                break
            time.sleep(0.02)
        assert report is not None, "automatic failover did not happen"
        print("Automatic failover in {:.0f} ms wall: epoch={} "
              "detect→promote={:.0f} ms".format(
                  (time.perf_counter() - killed_at) * 1000, report["token"],
                  report["detection_to_promotion_seconds"] * 1000))

        # -- zero journaled-record loss, no human involved ------------------
        promotion = report["promotion"]
        assert promotion["journal_seq"] == journal_head, \
            "journal records were lost in failover"
        promoted = GeleeClient.in_process(router=replica.router(),
                                          actor="alice")
        detail = promoted.instance(instance_ids[3])
        assert detail["current_phase_id"] == "internalreview"
        print("Zero loss: un-streamed write survived "
              "(phase {!r})".format(detail["current_phase_id"]))
        promoted.advance(instance_ids[2], to_phase_id="internalreview")
        print("New primary serves writes; coordination: role={role} "
              "epoch={token}".format(**promoted.coordination_status()))

        # -- the deposed primary's late write is fenced ---------------------
        try:
            primary.manager.advance(instance_ids[4], actor="alice",
                                    to_phase_id="internalreview")
            raise AssertionError("stale write was not fenced!")
        except StaleFencingTokenError as exc:
            print("Deposed primary fenced: {}".format(exc))
        assert primary.persistence.journal.last_seq == journal_head, \
            "a stale write reached the journal"
        print("Cluster healed itself; split-brain impossible.")

        # -- observability: both nodes scrape, one id is followable ---------
        # /v2/metrics must be valid Prometheus text on the old primary and
        # on the promoted node, with the core series of every subsystem.
        primary_scrape = primary_router.get("/v2/metrics")
        assert primary_scrape.headers["Content-Type"].startswith("text/plain")
        _assert_exposition(primary_scrape.body, (
            "gelee_api_requests_total",
            "gelee_dispatch_wait_seconds",
            "gelee_journal_append_seconds",
            "gelee_election_transitions_total",
            "gelee_lock_wait_seconds",
            "gelee_queue_depth",
        ))
        _assert_exposition(promoted.metrics(), (
            "gelee_dispatch_wait_seconds",
            "gelee_replication_lag_records",
            "gelee_replication_records_applied_total",
            "gelee_election_transitions_total",
        ))
        rollup = promoted.monitoring_summary()["telemetry"]
        print("Metrics scrape OK on both nodes; rollup: "
              "{} api requests, {} election transitions".format(
                  int(rollup["api_requests"]),
                  int(rollup["election_transitions"])))

        # One request id, followable across the cluster: ids the gateway
        # stamped on the dead primary's writes are in its journal *and* in
        # the promoted node's applied copies of the same records.
        journal_ids = {record.payload["origin_request_id"]
                       for record in scan_records(config.journal_directory)
                       if "origin_request_id" in record.payload}
        applied_ids = {entry.payload["origin_request_id"]
                       for entry in replica.service.execution_log.entries()
                       if "origin_request_id" in entry.payload}
        followable = journal_ids & applied_ids
        assert followable, "no request id survived journal -> replica"
        print("{} request ids followable from gateway through journal to "
              "the promoted node (e.g. {})".format(
                  len(followable), sorted(followable)[0]))

        # -- one request id, one span *tree*, across the failover -----------
        # The pre-kill advance was spanned from the gateway down to its
        # journal fsync; the promotion's final sync then extended the same
        # trace with the replica's apply spans.  The whole timeline is
        # retrievable from the *promoted* node under the original id.
        trace_response = replica.router().get(
            "/v2/runtime/traces/{}".format(traced_request_id))
        assert trace_response.status == 200, "span tree lost in failover"
        trace_doc = trace_response.body["data"]
        span_names = {span["name"] for span in trace_doc["spans"]}
        required_spans = {"gateway.request", "shard.apply", "action.dispatch",
                          "dispatch.wait", "dispatch.execute",
                          "journal.append", "replication.apply"}
        missing = required_spans - span_names
        assert not missing, "span tree incomplete: missing {}".format(missing)
        assert trace_doc["tree"][0]["name"] == "gateway.request"
        print("Span tree for {}: {} spans ({}) retrievable on the "
              "promoted node".format(traced_request_id,
                                     trace_doc["span_count"],
                                     ", ".join(sorted(span_names))))

        # -- the SLO engine notices what the kill broke ----------------------
        # The killed primary's election heartbeats stopped; the stock
        # ``election-heartbeat`` rule turns that stall into an
        # ``alert.fired`` bus event, and the new leader's next renewal
        # resolves it.  Alerts are ordinary kernel events, so they flow
        # through the promoted node's bus like everything else.
        alert_events = []
        replica.service.bus.subscribe("alert.", alert_events.append)
        baseline = promoted.evaluate_alerts()
        assert baseline["transitions"] == [], "healthy cluster must be quiet"
        stalled = promoted.evaluate_alerts()  # no renewals since baseline
        fired = [t for t in stalled["transitions"]
                 if t["kind"] == "alert.fired"]
        assert [t["rule"] for t in fired] == ["election-heartbeat"], \
            "the heartbeat stall should fire exactly one alert"
        print("SLO breach detected: {} ({})".format(
            fired[0]["rule"], fired[0]["payload"]["description"].strip()))
        supervisor.heartbeat()  # the new leader renews its lease
        recovered = promoted.evaluate_alerts()
        resolved = [t for t in recovered["transitions"]
                    if t["kind"] == "alert.resolved"]
        assert [t["rule"] for t in resolved] == ["election-heartbeat"]
        assert [event.kind for event in alert_events] == \
            ["alert.fired", "alert.resolved"], "alerts must ride the bus"
        alert_status = promoted.alerts()
        assert alert_status["firing"] == 0
        rollup = promoted.monitoring_summary()["alerts"]
        assert rollup["firing"] == 0 and rollup["rules"] == 5
        print("Alert resolved after the new leader's renewal; cockpit "
              "rollup clean ({} rules, {} firing)".format(
                  rollup["rules"], rollup["firing"]))

        # -- the flight recorder: logs, history, cluster view ----------------
        # The gateway logged every request into the process log ring; the
        # pre-kill advance's line is retrievable *by its request id* from
        # the promoted node, next to the span tree fetched above.
        log_doc = replica.router().get("/v2/runtime/logs",
                                       trace_id=traced_request_id).body["data"]
        records = log_doc["records"]
        assert records, "traced request left no log line"
        assert all(r["trace_id"] == traced_request_id for r in records)
        assert any(r["event"] == "request.handled" for r in records)
        print("Log ring: {} record(s) for {} ({})".format(
            len(records), traced_request_id,
            ", ".join(sorted({r["event"] for r in records}))))

        # The history rings captured before the kill are the same rings
        # the promoted node serves now — promotion does not rebuild the
        # service, so the pre-failover points are still there and new
        # captures keep extending them.
        capture = replica.router().post(
            "/v2/runtime/telemetry/history:capture").body["data"]
        assert capture["stats"]["captures"] > pre_kill_captures, \
            "history rings were reset by the promotion"
        history = replica.router().get(
            "/v2/runtime/telemetry/history",
            series="gelee_api_requests_total").body["data"]
        assert history["series"], "history rings empty after failover"
        print("History rings survived promotion: {} captures, {} series "
              "for gelee_api_requests_total".format(
                  capture["stats"]["captures"], history["series_matched"]))

        # The merged cluster view survives promotion too.  The deposed
        # primary still answers in-process, so the first look shows both
        # rows — with the coordination columns agreeing that the standby
        # now leads.
        view = replica.router().get("/v2/runtime/cluster").body["data"]
        rows = {row["node_id"]: row for row in view["nodes"]}
        assert view["reported_by"] == "standby-node"
        assert rows["standby-node"]["role"] == "primary"
        assert rows["standby-node"]["coordination"]["is_leader"]
        assert not rows["primary-node"]["coordination"]["is_leader"]
        print("Cluster view from the promoted node: {} nodes, leader={}".format(
            view["node_count"],
            rows["standby-node"]["coordination"]["leader_id"]))

        # In a real deployment the standby knows the old primary by its
        # network address — and that address died with the process.
        # Re-point the registration at the dead endpoint: the merged view
        # stays HTTP 200 but marks the row NODE_UNREACHABLE and the
        # envelope partial, which is exactly what a dashboard should show
        # while the dead node is the thing being debugged.
        replica.service.cluster_register("primary-node", host="127.0.0.1",
                                         port=9)
        view = replica.router().get("/v2/runtime/cluster").body["data"]
        assert view["partial"] and view["unreachable"] == 1
        dead = {row["node_id"]: row for row in view["nodes"]}["primary-node"]
        assert not dead["reachable"]
        assert dead["error"]["code"] == "NODE_UNREACHABLE"
        print("Dead primary reported, not hidden: partial view, "
              "primary-node -> {}".format(dead["error"]["code"]))

        # And the contention profile: a few sampler ticks on the promoted
        # node produce a bounded flame tree at /v2/runtime/profile.
        replica.router().post("/v2/runtime/profile:start",
                              body={"interval_seconds": 0.005})
        time.sleep(0.06)
        replica.router().post("/v2/runtime/profile:stop")
        profile = replica.router().get("/v2/runtime/profile").body["data"]
        assert profile["samples"] >= 1 and not profile["running"]
        print("Profiler: {} samples, {} flame nodes".format(
            profile["samples"], profile["nodes"]))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
