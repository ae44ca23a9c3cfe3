"""The serving process of the HTTP workloads.

Builds the workload's Gelee deployment, creates the documents its
instances will be attached to in the simulated managing applications (the
Google Docs the paper's users bring), serves the v2 API on a loopback port
and answers control commands, one JSON line each, on stdin:

* ``begin`` — the timed phase starts: snapshot the program's counters.
* ``end`` — it is over: snapshot them again (``ops``/``traced_ops`` give
  the operation counts the per-op figures divide by).
* ``check`` — workload-specific output checks against the live state.
* ``finish`` — stop serving and close the service; report peak memory,
  the durable state a recovery must reproduce (``reopen.py`` reopens the
  directory in fresh interpreters once this process has exited) and, in a
  traced run, the per-layer metrics.

Run only by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

common.load_program()

import layers  # noqa: E402
from repro.plugins.setup import build_standard_environment  # noqa: E402
from repro.service import GeleeHttpServer, RestRouter  # noqa: E402


def create_documents(environment, seed: int) -> dict:
    adapter = environment.adapter("Google Doc")
    owners = common.owners(seed)
    documents = {"population": [], "sessions": []}
    for key, count in (("population", common.HTTP_POPULATION),
                       ("sessions", common.SESSION_RESOURCES)):
        for index, title in enumerate(common.titles(seed, count, key)):
            owner = owners[index % len(owners)]
            descriptor = adapter.create_resource(title, owner=owner)
            documents[key].append(descriptor.to_dict())
    return documents


def check_bulk(service, instance_ids) -> dict:
    """Every instance the run advanced ended terminal with every
    invocation completed."""
    problems = []
    checked = 0
    for instance_id in instance_ids:
        instance = service.manager.instance(instance_id)
        checked += 1
        if instance.status.value != "completed":
            problems.append("{} ended {}".format(instance.instance_id,
                                                 instance.status.value))
            continue
        invocations = instance.all_invocations()
        if len(invocations) != 2 or any(
                invocation.status.value != "completed"
                for invocation in invocations):
            problems.append("{} has invocations {}".format(
                instance.instance_id,
                [invocation.status.value for invocation in invocations]))
    return {"checked": checked, "failed": len(problems), "problems": problems[:5]}


class Server:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.environment = build_standard_environment()
        self.config = common.persistence_config(self.workload,
                                                args.dir + "/durable")
        self.service = common.build_service(self.workload, self.seed,
                                            self.config, self.environment)
        self.documents_path = args.dir + "/documents.json"
        with open(self.documents_path, "w") as handle:
            json.dump(create_documents(self.environment, self.seed), handle)
        self.router = RestRouter(self.service)
        self.recorder = layers.Recorder() if args.trace else None
        if self.recorder is not None:
            layers.install(self.recorder, self.service, self.router)
        self.http = GeleeHttpServer(self.router).start()
        self.before = None
        self.after = None
        self.began_at = None
        self.ops = self.traced_ops = 0

    def begin(self, command):
        self.before = layers.program_counts(self.service)
        self.began_at = self.service.manager.clock.now()
        if self.recorder is not None:
            self.recorder.counting = True
        return {}

    def end(self, command):
        if self.recorder is not None:
            self.recorder.counting = False
            self.recorder.global_on = False
        self.service.manager.drain_in_flight(timeout=60.0)
        self.after = layers.program_counts(self.service)
        self.ops = command["ops"]
        self.traced_ops = command.get("traced_ops", 0)
        return {}

    def check(self, command):
        if self.workload == "bulk_dispatch":
            return check_bulk(self.service, command["ids"])
        return {"checked": 0, "failed": 0, "problems": []}

    def finish(self, command):
        self.http.stop()
        reply = {"peak_rss_mb": common.peak_rss_mb()}
        if self.recorder is not None:
            reply["layers"] = self.layer_report(command.get("request_ids", []))
        reply["expected"] = common.durable_state(self.service)
        self.service.close()
        self.service = None
        return reply

    def layer_report(self, request_ids):
        waits = layers.completed_waits_ms(self.service.manager, self.began_at)
        metrics = layers.layer_metrics(self.recorder, self.before, self.after,
                                       self.ops, self.traced_ops, waits)
        handles = layers.handle_seconds(self.recorder)
        spans, flags = layers.program_span_metrics(request_ids, metrics, handles)
        metrics.update(spans)
        return {"metrics": metrics, "flags": flags, "handle_seconds": handles}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("http_sessions", "bulk_dispatch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    server = Server(args)
    print(json.dumps({"port": server.http.port,
                      "resources": server.documents_path}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        name = command["command"]
        try:
            reply = getattr(server, name)(command)
        except Exception as exc:  # noqa: BLE001 - reported back to run.py
            reply = {"error": "{}: {}".format(type(exc).__name__, exc)}
        print(json.dumps(reply, default=str), flush=True)
        if name == "finish":
            if "error" not in reply:
                # The service is closed: tearing down its heap takes
                # seconds and measures nothing.
                os._exit(0)
            return 0
    server.http.stop(close_service=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
