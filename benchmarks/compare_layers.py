"""Where a saving appeared: two traced benchmark runs, layer by layer.

Reads the result files of two ``python3 -m bench --trace 1`` runs of one
workload and seed (a base and a head) and prints their per-layer
metrics and per-shape median latencies side by side, each with the
head/base factor.  The traced run's times are as the clock gave them,
not normalised, so the two runs' speed factors head the table: a factor
that differs between the sides moves every time with it.

Run::

    python3 benchmarks/compare_layers.py BASE.json HEAD.json

``make bench-layers BASE=<ref> WORKLOAD=<name> [SEED=21]`` makes the two
files and runs this.
"""

from __future__ import annotations

import argparse
import json
import sys


def _factor(base, head):
    if not base or head is None:
        return "-"
    return f"{head / base:.3f}x"


def _rows(base, head):
    """``(name, base value, head value, unit)`` for every name either
    side measured, base's order first."""
    for name in {**base, **head}:
        b, h = base.get(name, {}), head.get(name, {})
        yield name, b.get("value"), h.get("value"), b.get("unit") or h.get("unit", "")


def _value(value):
    return "-" if value is None else f"{value:.6g}"


def table(base, head):
    """The printed comparison of two traced result records, as lines."""
    lines = [
        f"# {head['workload']} seed={head['seed']}: base vs head, traced runs",
        "speed factor (per phase): base "
        + ", ".join(f"{s:.3f}" for s in base["speed_factor"])
        + "; head "
        + ", ".join(f"{s:.3f}" for s in head["speed_factor"]),
        "",
        f"{'per-layer':<42} {'base':>14} {'head':>14} {'head/base':>10}  unit",
    ]
    for name, b, h, unit in _rows(base["per_layer"], head["per_layer"]):
        lines.append(
            f"{name:<42} {_value(b):>14} {_value(h):>14} {_factor(b, h):>10}  {unit}"
        )
    lines += ["", f"{'per-shape latency_ms_p50':<42} {'base':>14} {'head':>14} {'head/base':>10}  ops"]
    shapes = {**base["per_shape"], **head["per_shape"]}
    for shape in shapes:
        b = base["per_shape"].get(shape, {})
        h = head["per_shape"].get(shape, {})
        b_ms, h_ms = b.get("latency_ms_p50"), h.get("latency_ms_p50")
        lines.append(
            f"{shape:<42} {_value(b_ms):>14} {_value(h_ms):>14} "
            f"{_factor(b_ms, h_ms):>10}  {b.get('ops', '-')} / {h.get('ops', '-')}"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="result file of the base run (--trace 1)")
    parser.add_argument("head", help="result file of the head run (--trace 1)")
    args = parser.parse_args(argv)
    records = []
    for path in (args.base, args.head):
        with open(path) as fh:
            record = json.load(fh)
        if not record.get("trace"):
            parser.error(f"{path} is not a traced run (--trace 1)")
        records.append(record)
    print("\n".join(table(*records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
