"""A replicated Gelee deployment: primary, warm standby, failover.

One process is a durable primary serving writes; a second runtime is a
**read replica** streaming the primary's write-ahead journal
(:mod:`repro.replication`).  The replica serves every v2 read — listings,
monitoring, history — and rejects writes with a typed 409 pointing at the
primary.  When the primary dies, one ``promote()`` turns the standby into
the new primary: the remaining journal tail is drained, deadline timers
re-arm, and writes flow again.

The client demonstrates the read/write split: one
:class:`repro.client.GeleeClient` with a write endpoint (primary) and a
read endpoint (replica) routes each call to the right node automatically.

Run with::

    python examples/replicated_service.py
"""

import shutil
import tempfile

from repro.client import GeleeClient
from repro.persistence import PersistenceConfig
from repro.replication import JournalShippingSource, ReadReplica, ReplicationPrimary
from repro.service import RestRouter


def main() -> None:
    directory = tempfile.mkdtemp(prefix="gelee-replicated-")
    try:
        # -- the primary: durable, streaming its journal --------------------
        config = PersistenceConfig(directory, fsync="interval")
        primary_router = RestRouter(persistence=config)
        primary = primary_router.service
        ReplicationPrimary(primary)
        print("Primary persistence directory:", directory)

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

        # -- the warm standby: bootstrap + stream ---------------------------
        replica = ReadReplica(JournalShippingSource(config),
                              clock=primary.manager.clock,
                              primary_hint="gelee-primary:8080")
        sync = replica.sync()
        print("Replica streamed {} journal records (lag {} records)".format(
            sync["applied"], sync["lag_records"]))

        # -- one client, split endpoints: GETs -> replica, writes -> primary
        client = GeleeClient.in_process(router=primary_router,
                                        read_router=replica.router(),
                                        actor="alice")
        page = client.list_instances(page_size=100)
        print("Read endpoint (replica) lists {} deliverables".format(len(page)))
        client.advance(instance_ids[0], to_phase_id="internalreview")
        replica.sync()
        detail = client.instance(instance_ids[0])
        print("Write went to the primary; replica already serves phase {!r}".format(
            detail["current_phase_id"]))
        try:
            client.call("POST", "/v2/instances/{}:advance".format(instance_ids[1]),
                        body={"to_phase_id": "internalreview"}, endpoint="read")
        except Exception as exc:
            print("Replica rejects writes: {}".format(exc))
        lag = client.replication_status()
        print("Replication status: role={role} applied_seq={applied_seq} "
              "lag={lag_records}".format(**lag))

        # -- the failover ---------------------------------------------------
        # A last write lands on the primary that the standby never polled:
        # it is durable in the journal, so the promotion drain picks it up.
        client.advance(instance_ids[3], to_phase_id="internalreview")
        print("-- primary killed; only its journal files survive --")
        del seed, primary, primary_router

        report = client.promote_replica()
        print("Promoted the standby: {} records drained, {} timers re-armed, "
              "{:.1f} ms".format(report["records_drained"],
                                 report["pending_timers"],
                                 report["duration_ms"]))
        promoted = GeleeClient.in_process(router=replica.router(), actor="alice")
        print("Nothing journaled was lost: un-streamed deliverable is in "
              "phase {!r}".format(
                  promoted.instance(instance_ids[3])["current_phase_id"]))
        promoted.advance(instance_ids[2], to_phase_id="internalreview")
        print("Writes accepted after promotion: phase {!r}".format(
            promoted.instance(instance_ids[2])["current_phase_id"]))
        print("New primary role:", promoted.replication_status()["role"])
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
