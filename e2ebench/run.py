"""End-to-end benchmark of the Gelee reproduction.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload http_sessions --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` gives the reason for each):

* ``http_sessions`` — two keep-alive HTTP clients running user sessions
  against a durable single-manager service in its own process;
* ``bulk_dispatch`` — one keep-alive client advancing groups of 1000
  instances through ``batchAdvance`` on the 16-shard, 256-completion-worker
  deployment with 20-30 ms simulated action latency;
* ``replicated_writes`` — fsync-per-append writes on a durable primary, each
  waited for on a read replica that follows over loopback HTTP.

A run is ``common.ROUNDS`` rounds.  Each sets the deployment up afresh,
runs its share of the timed work, closes the service and reopens its
directory ``common.RECOVERIES`` times in fresh interpreters.  ``setup_s``
and ``recovery_s`` are medians over all rounds, so their samples are
spread over the whole run.

With ``--trace 0`` the last line of stdout is one JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
measured with the benchmark's own wrappers around each layer's public
entry points.  The lines before it describe the run for a human reader:
the input mix, the percentile the tail figures stand for, the error rate
and any disagreement between the wrapper timings and the program's spans.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("http_sessions", "bulk_dispatch", "replicated_writes")


def spec():
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def end_to_end(result):
    latency = result["latency"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "latency_p50_ms": latency["median"],
        "latency_p99_ms": latency["tail"],
        "requests_per_s": result["requests_per_s"],
        "advances_per_s": result["advances_per_s"],
        "recovery_s": statistics.median(result["recovery_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def describe(workload, seed, result, metrics, units):
    latency = result["latency"]
    print("workload {} seed {}: {}".format(workload, seed, result["mix"]["operation"]))
    print("input mix: {}".format(json.dumps(result["mix"], sort_keys=True)))
    print("latency sample n={} tail percentile p{:.1f}".format(
        latency["n"], latency["tail_q"] * 100))
    if "lag" in result:
        lag = result["lag"]
        print("replica lag: p50 {:.3f} ms, p{:.1f} {:.3f} ms (n={})".format(
            lag["median"], lag["tail_q"] * 100, lag["tail"], lag["n"]))
    print("set-ups {} s; recoveries {} s".format(
        ["{:.3f}".format(v) for v in result["setup_s"]],
        ["{:.3f}".format(v) for v in result["recovery_s"]]))
    print("error_rate {:.6f} ratio ({} failed of {} attempted)".format(
        result["failed"] / max(1, result["attempted"]), result["failed"],
        result["attempted"]))
    for problem in result["problems"]:
        print("  problem: {}".format(problem))
    for flag in result.get("layers", {}).get("flags", []):
        print("  span disagreement: {}".format(flag))
    for name, value in metrics.items():
        print("{:36s} {:>14.4f} {}".format(name, value, units[name]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.load_program()
    import workloads
    import replicated

    run = {"http_sessions": workloads.http_sessions,
           "bulk_dispatch": workloads.bulk_dispatch,
           "replicated_writes": replicated.replicated_writes}[args.workload]
    result = run(args.seed, args.seconds, bool(args.trace))
    definition = spec()
    listed = definition["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    values = result["layers"]["metrics"] if args.trace else end_to_end(result)
    missing = [name for name in units if name not in values]
    if missing:
        sys.stderr.write("e2ebench: metrics not measured: {}\n".format(missing))
        return 3
    metrics = {name: float(values[name]) for name in units}
    describe(args.workload, args.seed, result, metrics, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
