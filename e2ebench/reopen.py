"""Reopen a workload's durable directory in a fresh interpreter, as a
restarted process would, and report how long it took to serve verified
state.

Usage: ``python3 e2ebench/reopen.py <workload> <seed> <directory>``; prints
one JSON object: ``seconds``, the recovered ``state`` and ``replayed``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import common

common.load_program()

from repro.plugins.setup import build_standard_environment  # noqa: E402


def main() -> int:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    config = common.persistence_config(workload, directory)
    environment = build_standard_environment()
    started = time.perf_counter()
    service = common.build_service(workload, seed, config, environment)
    state = common.durable_state(service)
    seconds = time.perf_counter() - started
    replayed = service.recovery_report.records_replayed
    service.close()
    print(json.dumps({"seconds": seconds, "state": state, "replayed": replayed}),
          flush=True)
    return 0


if __name__ == "__main__":
    main()
    # The service is closed: tearing down its heap measures nothing.
    os._exit(0)
