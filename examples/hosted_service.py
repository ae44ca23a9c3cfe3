"""The hosted service driven through the v2 client SDK: REST over HTTP,
typed envelopes, bulk/async operations, pagination, change propagation, SOAP.

Reproduces the Fig. 2 message flow end to end — now through
:class:`repro.client.GeleeClient`, the typed SDK over the versioned v2 API:

1. start the hosted Gelee service on localhost,
2. a composer designs a lifecycle through the designer session and publishes
   it via the client SDK,
3. a deliverable owner bulk-creates instances on simulated MediaWiki pages
   (``POST /v2/instances:batchCreate``) and drives one through its phases,
4. a whole cohort is progressed with one async bulk call (``202 Accepted`` +
   operation polling),
5. an action implementation reports progress through the callback endpoint,
6. the designer publishes a new model version and the owner accepts the
   propagated change (state migration),
7. the project manager pages through the monitoring cockpit,
8. the same kernel is also driven through the SOAP facade.

Run with::

    python examples/hosted_service.py
"""

from repro.actions import library
from repro.client import GeleeClient
from repro.serialization import lifecycle_to_xml
from repro.service import (
    GeleeHttpServer,
    GeleeService,
    RestRouter,
    SoapEndpoint,
    soap_envelope,
)
from repro.widgets import DesignerSession


def main() -> None:
    service = GeleeService()
    router = RestRouter(service)

    with GeleeHttpServer(router) as server:
        print("Gelee hosted at", server.base_url)
        coordinator = GeleeClient.connect(server.host, server.port, actor="coordinator")
        owner = GeleeClient.connect(server.host, server.port, actor="wiki-owner")

        # --- design time -----------------------------------------------------
        designer = DesignerSession("Wiki deliverable lifecycle",
                                   service.environment.registry, composer="coordinator")
        designer.add_phase("Drafting")
        designer.add_phase("Consortium Review")
        designer.add_phase("Published")
        designer.add_phase("Closed", terminal=True)
        designer.flow("Drafting", "Consortium Review", "Published", "Closed")
        designer.add_action("Consortium Review", library.NOTIFY_REVIEWERS,
                            reviewers=["partner-a", "partner-b"])
        designer.add_action("Published", library.POST_ON_WEBSITE)
        model = designer.build()
        published = coordinator.publish_model(model=model.to_dict())
        print("published model:", published["uri"])
        model_uri = published["uri"]

        # --- runtime: one bulk call creates the whole cohort -------------------
        wiki = service.environment.adapter("MediaWiki page")
        pages = [wiki.create_resource("D3.{} wiki page".format(index),
                                      owner="wiki-owner", content="== Draft ==")
                 for index in range(1, 6)]
        batch = owner.batch_create([
            {"model_uri": model_uri, "resource": page.to_dict(), "owner": "wiki-owner"}
            for page in pages])
        print("batch created: {} ok, {} failed".format(batch.succeeded, batch.failed))
        instance_ids = [item.instance_id for item in batch.results]
        instance_id = instance_ids[0]

        owner.start(instance_id)
        owner.advance(instance_id, to_phase_id="consortium-review")

        # the rest of the cohort progresses with one async bulk call
        handle = owner.batch_advance(instance_ids[1:], wait=False)
        operation = owner.wait_operation(handle.operation_id)
        print("async batchAdvance:", operation.status,
              "-", operation.result["succeeded"], "instances moved")

        # an action reporting progress through its callback URI
        detail = owner.instance(instance_id)
        call_id = detail["visits"][-1]["invocations"][0]["call_id"]
        phase_id = detail["visits"][-1]["phase_id"]
        callback = owner.action_callback(instance_id, phase_id, call_id,
                                         status="in progress",
                                         detail="2 of 3 reviews received")
        print("callback accepted:", callback["status"])

        # --- model evolution & propagation -------------------------------------
        revised = model.new_version(created_by="coordinator")
        revised.phase("published").description = "Published after quality check"
        proposals = coordinator.propose_change(lifecycle_to_xml(revised),
                                               instance_ids=[instance_id])
        decision = owner.decide_change(proposals[0]["proposal_id"], accept=True)
        print("owner accepted change -> version", decision["to_version"])

        owner.advance(instance_id, to_phase_id="published")

        # --- monitoring: paginated cockpit -------------------------------------
        rows = 0
        for row in coordinator.iter_pages(coordinator.monitoring_table, page_size=2):
            rows += 1
            print("  {} — {} (owner {})".format(row["resource_name"],
                                                row["phase_name"], row["owner"]))
        print("monitoring rows:", rows)

        widget = coordinator.widget(instance_id, viewer="coordinator")
        print("widget for coordinator — phases:", len(widget["phases"]))

        stats = coordinator.runtime_stats()
        print("runtime: {} instances, {} dispatch; {} API requests".format(
            stats["instances"], stats["dispatch"]["mode"],
            int(stats["telemetry"]["api_requests"])))

    # --- the same kernel through SOAP --------------------------------------------
    soap = SoapEndpoint(service)
    envelope = soap_envelope("MonitoringSummary", {})
    print("SOAP summary response:")
    print(" ", soap.handle(envelope)[:120], "...")


if __name__ == "__main__":
    main()
