"""Compare two sets of benchmark runs: ``python3 -m bench.compare A/ B/``.

``A/`` and ``B/`` hold the result files of untraced runs
(``<workload>-seed<N>-trace0.json``, as ``python3 -m bench --out DIR``
writes them), several seeds each.  For every workload and end-to-end
metric it prints both sets' medians and quartiles and a verdict:

``same``        B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  a set's own spread (quartile distance / median) exceeds
                the bound, so the runs cannot resolve a change that size
``ungated``     the metric has no bound (``latency_ms_p90``)

Exits 1 when any verdict is ``worse``.  The same rule checks that two run
sets of one commit agree and that a change did not regress a workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from bench import config
from bench.metrics import END_TO_END


def load(directory):
    """``{workload: {metric: [values]}}`` of a directory's untraced runs."""
    values = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*-trace0.json")):
        with open(path) as fh:
            record = json.load(fh)
        for name, entry in record["end_to_end"].items():
            values[record["workload"]][name].append(entry["value"])
    return values


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, a, b):
    """``same`` / ``worse`` / ``unresolved`` for one metric's two samples."""
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    if metric.bound is None:
        return "ungated"
    if metric.bound == 0.0:
        # failed_share: must not rise at all.
        return "worse" if med_b > med_a else "same"
    for q1, med, q3 in ((q1a, med_a, q3a), (q1b, med_b, q3b)):
        if med and (q3 - q1) / abs(med) > metric.bound:
            return "unresolved"
    if metric.better == "lower":
        regressed = med_b > med_a * (1.0 + metric.bound)
    else:
        regressed = med_b < med_a * (1.0 - metric.bound)
    return "worse" if regressed else "same"


def _cell(values):
    q1, med, q3 = quartiles(values)
    return f"{q1:.5g} / {med:.5g} / {q3:.5g} ({len(values)})"


def compare(dir_a, dir_b):
    """Print the table; returns the number of ``worse`` verdicts."""
    a, b = load(dir_a), load(dir_b)
    worse = 0
    row = "{:<16} {:<22} {:>6} {:>34} {:>34}  {}"
    print(row.format("workload", "metric", "bound", "A q1 / median / q3 (n)",
                     "B q1 / median / q3 (n)", "verdict"))
    for workload in config.WORKLOADS:
        for metric in END_TO_END:
            va, vb = a[workload].get(metric.name), b[workload].get(metric.name)
            if not va or not vb:
                continue
            result = verdict(metric, va, vb)
            worse += result == "worse"

            bound = "-" if metric.bound is None else f"{metric.bound:g}"
            print(row.format(workload, metric.name, bound,
                             _cell(va), _cell(vb), result))
    return worse


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if compare(argv[0], argv[1]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
