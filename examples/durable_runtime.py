"""A durable Gelee deployment that survives being killed and restarted —
driven entirely through the v2 client SDK.

Lifecycles outlive processes: an EU deliverable takes months, a hosted
server restarts weekly.  This example runs the same deployment *twice* over
one persistence directory, every call going through
:class:`repro.client.GeleeClient` against the versioned v2 gateway (the
legacy v1 routes are deprecated and no example uses them any more):

1. **First life** — a durable router
   (``RestRouter(persistence=...)``) serves a client that
   publishes a model, creates deliverables, progresses some of them, takes
   a checkpoint over the wire (``client.persistence_checkpoint()``), then
   keeps working so the write-ahead journal has a tail beyond the snapshot.
2. **The crash** — every in-memory structure is dropped.
3. **Second life** — a fresh router on the *same* persistence config; before
   serving its first request it loads the latest snapshot and replays the
   journal tail, and the owners find their deliverables exactly where they
   left them — phases, statuses, history, even pending timers.

Run with::

    python examples/durable_runtime.py
"""

import shutil
import tempfile

from repro.client import GeleeClient
from repro.persistence import PersistenceConfig
from repro.service import RestRouter


def first_life(config: PersistenceConfig) -> list:
    router = RestRouter(persistence=config)
    client = GeleeClient.in_process(router=router, actor="alice")
    model = client.publish_template("eu-deliverable")
    adapter = router.service.environment.adapter("Google Doc")

    instance_ids = []
    for index in range(8):
        descriptor = adapter.create_resource(
            "D1.{} State of the art".format(index + 1), owner="alice")
        instance = client.create_instance(
            model["uri"], descriptor.to_dict(), owner="alice")
        instance_ids.append(instance["instance_id"])
    for instance_id in instance_ids:
        client.start(instance_id)

    checkpoint = client.persistence_checkpoint()
    print("Checkpoint: {} instances flushed to the instance store at journal seq {}".format(
        checkpoint["instances_flushed"], checkpoint["journal_seq"]))

    # Work that only the journal tail knows about.
    for instance_id in instance_ids[:3]:
        client.advance(instance_id, to_phase_id="internalreview")
    client.annotate(instance_ids[0], "sent to reviewers before the crash")

    status = client.persistence_status()
    print("Journal: {} records, {} since the snapshot".format(
        status["journal"]["last_seq"], status["journal_records_since_snapshot"]))
    router.service.close()  # final fsync; then the process "dies"
    return instance_ids


def second_life(config: PersistenceConfig, instance_ids: list) -> None:
    router = RestRouter(persistence=config)
    client = GeleeClient.in_process(router=router, actor="alice")
    recovery = client.persistence_status()["recovery"]
    print("Recovered: {} instances from the snapshot, {} journal records replayed".format(
        recovery["instances_restored"], recovery["records_replayed"]))

    for instance_id in instance_ids[:4]:
        detail = client.instance(instance_id)
        print("  {} -> phase {!r}, status {}".format(
            instance_id, detail["current_phase_id"], detail["status"]))
    history = client.history(instance_ids[0], page_size=100)
    print("History of the first deliverable survived: {} events, last: {}".format(
        len(history), history.items[-1]["kind"]))

    # The recovered deployment is fully operational — and still durable.
    client.advance(instance_ids[3], to_phase_id="internalreview")
    print("Advanced another deliverable after recovery: phase {!r}".format(
        client.instance(instance_ids[3])["current_phase_id"]))
    router.service.close()


def main() -> None:
    directory = tempfile.mkdtemp(prefix="gelee-durable-")
    try:
        config = PersistenceConfig(directory, fsync="interval")
        print("Persistence directory:", directory)
        instance_ids = first_life(config)
        print("-- process killed; every in-memory structure is gone --")
        second_life(config, instance_ids)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
