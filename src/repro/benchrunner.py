"""Run the benchmark harness end to end: ``python -m repro.benchrunner``.

The benchmark suite lives in ``benchmarks/`` at the repository root and is
gated behind the ``bench`` pytest marker (the tier-1 test run collects but
skips it).  This entry point turns the gate off and runs the whole harness —
or a selection — writing the machine-readable ``BENCH_*.json`` trajectory
files next to the benchmarks.

Usage::

    python -m repro.benchrunner                 # full suite
    python -m repro.benchrunner persistence     # only test_bench_persistence.py
    python -m repro.benchrunner --list          # enumerate available benchmarks
    python -m repro.benchrunner -- -k widget    # extra pytest args after --

Exit code is pytest's exit code, so CI can consume it directly.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

#: Version of the ``BENCH_*.json`` record layout.  Bump when the shape of
#: the stamped metadata (or the harness-level record contract) changes, so
#: cross-PR trajectory tooling can branch on it.  v1: bare records; v2:
#: every record carries the :func:`bench_run_stamp` ``meta`` block.
BENCH_SCHEMA_VERSION = 2


def _git_commit() -> str:
    """The repository's HEAD commit, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", os.path.dirname(os.path.abspath(__file__)),
             "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def bench_run_stamp() -> Dict[str, Any]:
    """Attribution metadata stamped onto every ``BENCH_*.json`` record.

    The trajectory files accumulate across PRs; without a stamp a record
    is just numbers.  The stamp pins each entry to (a) the exact code
    (``git_commit``), (b) the record layout (``schema_version``) and (c)
    the parameter set (every ``BENCH_*`` environment override, which is
    how CI's smoke runs shrink the workloads) — so a regression seen in
    the trajectory is attributable to a commit and comparable only against
    runs with the same parameters.
    """
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_commit": _git_commit(),
        "recorded_at": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "parameters": {key: value for key, value in sorted(os.environ.items())
                       if key.startswith("BENCH_")},
    }


def available_benchmarks(bench_dir: str) -> List[str]:
    """The benchmark slugs runnable by name (``test_bench_<slug>.py``)."""
    return sorted(
        entry[len("test_bench_"):-len(".py")]
        for entry in os.listdir(bench_dir)
        if entry.startswith("test_bench_") and entry.endswith(".py")
    )


def find_benchmarks_dir(start: str = None) -> Optional[str]:
    """Locate the ``benchmarks/`` directory.

    Tries the repository layout this package ships in (``src/repro`` next to
    ``benchmarks/``), then walks up from the working directory — so the
    runner works both from a checkout and from an installed package run
    inside the repository.
    """
    candidates = []
    package_root = os.path.dirname(os.path.abspath(__file__))
    candidates.append(os.path.normpath(os.path.join(package_root, "..", "..", "benchmarks")))
    probe = os.path.abspath(start or os.getcwd())
    while True:
        candidates.append(os.path.join(probe, "benchmarks"))
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    for candidate in candidates:
        if os.path.isfile(os.path.join(candidate, "conftest.py")):
            return candidate
    return None


def main(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        import pytest
    except ImportError:
        print("repro.benchrunner requires pytest", file=sys.stderr)
        return 2

    bench_dir = find_benchmarks_dir()
    if bench_dir is None:
        print("repro.benchrunner: could not locate the benchmarks/ directory "
              "(run from inside the repository)", file=sys.stderr)
        return 2

    selections: List[str] = []
    passthrough: List[str] = []
    rest = selections
    for token in argv:
        if token == "--":
            rest = passthrough
            continue
        if token in ("--list", "-l") and rest is selections:
            # Only before "--": afterwards -l belongs to pytest (--showlocals).
            for name in available_benchmarks(bench_dir):
                print(name)
            return 0
        if token.startswith("-"):
            passthrough.append(token)
        else:
            rest.append(token)

    if selections:
        targets = [os.path.join(bench_dir, "test_bench_{}.py".format(name))
                   for name in selections]
        missing = [target for target in targets if not os.path.isfile(target)]
        if missing:
            print("repro.benchrunner: unknown benchmark(s): {}\navailable: {}".format(
                ", ".join(os.path.basename(m) for m in missing),
                ", ".join(available_benchmarks(bench_dir))), file=sys.stderr)
            return 2
    else:
        targets = [bench_dir]

    args = ["--run-bench", "-q", "-p", "no:cacheprovider"] + passthrough + targets
    print("repro.benchrunner: pytest {}".format(" ".join(args)))
    return int(pytest.main(args))


if __name__ == "__main__":
    raise SystemExit(main())
