"""Deterministic-counter regression gate over the session bench artifact.

Latency numbers in ``BENCH_session.json`` drift with the host, but the
I/O counters do not: for a fixed catalog seed, corpus and batch size,
``predicate_evals`` and ``containers_read`` per backend/query are exact
integers.  A silent change in either means the
execution engine started reading or evaluating differently — exactly
the regression class a wall-clock smoke pass cannot catch.

This script compares a freshly generated artifact against the committed
one (``git show HEAD:BENCH_session.json`` by default, or an explicit
``--committed`` file) and fails loudly on any gated-counter difference.
Counter-bearing scenarios that are *not* deterministic (the concurrent
shared-sweep scenario races jobs against one sweep) are not gated.

Run (after regenerating the artifact)::

    PYTHONPATH=src python benchmarks/bench_session.py --out BENCH_session.json
    PYTHONPATH=src python benchmarks/check_counters.py BENCH_session.json

Intentional counter changes are committed by regenerating the artifact
in the same change, which re-baselines the gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

#: exact-match counters per backends.<backend>.<query> entry
GATED_COUNTERS = ("predicate_evals", "containers_read")


def load_committed(path):
    """The artifact as committed at HEAD, or None when unavailable
    (fresh clone without the file, or not a git checkout)."""
    try:
        proc = subprocess.run(
            ["git", "show", f"HEAD:{path}"],
            capture_output=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return json.loads(proc.stdout)


def compare(committed, fresh):
    """Every gated-counter difference, as ``backend/query: detail`` lines."""
    failures = []
    for backend, queries in sorted(committed.get("backends", {}).items()):
        fresh_queries = fresh.get("backends", {}).get(backend, {})
        for name, entry in sorted(queries.items()):
            fresh_entry = fresh_queries.get(name)
            if fresh_entry is None:
                failures.append(f"{backend}/{name}: missing from fresh artifact")
                continue
            for counter in GATED_COUNTERS:
                if counter not in entry:
                    continue
                was, now = entry[counter], fresh_entry.get(counter)
                if was != now:
                    failures.append(
                        f"{backend}/{name}: {counter} changed {was} -> {now}"
                    )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "artifact",
        nargs="?",
        default="BENCH_session.json",
        help="freshly generated artifact to check",
    )
    parser.add_argument(
        "--committed",
        default=None,
        help="baseline artifact file (default: HEAD's copy via git show)",
    )
    args = parser.parse_args(argv)

    with open(args.artifact) as fh:
        fresh = json.load(fh)
    if args.committed is not None:
        with open(args.committed) as fh:
            committed = json.load(fh)
    else:
        committed = load_committed(args.artifact)
    if committed is None:
        print(
            f"check_counters: no committed baseline for {args.artifact}; "
            "skipping (first run?)"
        )
        return 0

    failures = compare(committed, fresh)
    if failures:
        print(
            f"check_counters: {len(failures)} deterministic counter(s) "
            "changed vs the committed baseline:"
        )
        for line in failures:
            print(f"  {line}")
        print(
            "If intentional, regenerate and commit BENCH_session.json to "
            "re-baseline."
        )
        return 1
    gated = sum(
        sum(1 for c in GATED_COUNTERS if c in entry)
        for queries in committed.get("backends", {}).values()
        for entry in queries.values()
    )
    print(f"check_counters: {gated} gated counters match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
