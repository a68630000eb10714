"""Command line of the benchmark.

One workload, in this process (what the driver runs)::

    python3 -m bench --workload cone_search --seed 7 --seconds 10 --trace 0

prints every metric by name with its unit and sample count and, as the
last line, the JSON object ``BENCHMARK.json`` promises: with ``--trace 0``
its ``end_to_end`` metrics, with ``--trace 1`` its ``per_layer`` metrics.

All five workloads, each in a fresh child process::

    python3 -m bench --seed 7 [--trace]

runs the line above per workload (with ``--trace``: once untraced for the
end-to-end numbers, once traced for the per-layer numbers and the span
files), then prints a summary that ends with ``"claim": null``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parser():
    from bench import config

    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="measured time (default: BENCHMARK.json run_seconds)"
    )
    parser.add_argument(
        "--ops", type=int, help="measure exactly this many ops instead of --seconds"
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", type=float, default=1.0, help="catalog size factor (smoke tests)"
    )
    parser.add_argument("--out", type=Path, help="directory for result and span files")
    return parser


def main(argv, started):
    args = _parser().parse_args(argv)
    # The program is the checkout's own source tree; every knob stays at
    # its default, so the worker-count override must not leak in.
    source = ROOT / "src"
    if source.is_dir():
        sys.path.insert(0, str(source))
    os.environ.pop("REPRO_WORKERS", None)

    from bench import catalog, metrics

    if args.seconds is None:
        args.seconds = float(metrics.contract()["run_seconds"])
    if args.out is None:
        args.out = catalog.OUT_DIR
    if args.workload is None:
        return _run_all(args)
    return _run_one(args, started)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def _header():
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_1min": os.getloadavg()[0],
        "commit": commit or "unknown",
    }


def _run_one(args, started):
    from bench import metrics
    from bench.serve import Guard, pin
    from bench.workloads import RUNNERS, Run

    # A terminated run unwinds like a failed one: children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin()
    run = Run(
        args.workload,
        args.seed,
        args.seconds,
        args.ops,
        bool(args.trace),
        args.scale,
        started,
    )
    with Guard():
        RUNNERS[args.workload](run)

    contract = metrics.contract()
    wanted = contract["per_layer" if run.traced else "end_to_end"]
    # The traced line may also name ungated end-to-end numbers.
    source = {**run.results.values, **(run.layers.values if run.traced else {})}
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"bench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2

    header = _header()
    length = f"ops={args.ops}" if args.ops else f"seconds={args.seconds:g}"
    print(
        f"# bench {run.workload} seed={run.seed} {length} trace={int(run.traced)} "
        f"scale={args.scale:g}"
    )
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    speeds = ", ".join(f"{s:.3f}" for s in run.speeds)
    print(
        f"end-to-end (attempted={run.attempted} failed={run.failed}; times and "
        f"rates at the reference machine speed, speed factor {speeds}, "
        f"of the set-up {run.setup_speed:.3f}):"
    )
    print("\n".join(run.results.lines()))
    print("as the clock gave them:")
    print("\n".join(run.raw.lines()))
    if run.traced:
        print("per-layer:")
        print("\n".join(run.layers.lines()))
        print("self-time share of request time by layer:")
        for layer, share in run.self_time_share.items():
            print(f"  {layer:<42} {share:>16.4f} share")
    for error in run.errors[:3]:
        print(f"failed op:\n{error}", file=sys.stderr)

    args.out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": int(run.traced),
        "seconds": args.seconds,
        "ops": args.ops,
        "scale": args.scale,
        "header": header,
        "attempted": run.attempted,
        "failed": run.failed,
        "catalog_build_s": run.catalog_build_s,
        "speed_factor": run.speeds,
        "setup_speed_factor": run.setup_speed,
        "end_to_end": run.results.values,
        "end_to_end_raw": run.raw.values,
        "per_layer": run.layers.values if run.traced else {},
        "self_time_share": run.self_time_share,
        "per_shape": run.per_shape,
        "children": run.children,
        "samples": run.sample_rows,
    }
    name = f"{run.workload}-seed{run.seed}-trace{int(run.traced)}.json"
    with open(args.out / name, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if run.traced:
        run.tracer.write(
            args.out / f"trace-{run.workload}.json",
            {"workload": run.workload, "seed": run.seed},
        )

    final = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {
                "value": source[m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in wanted
        },
    }
    print(json.dumps(final))
    return 0


# ----------------------------------------------------------------------
# all workloads
# ----------------------------------------------------------------------


def _run_all(args):
    from bench import config

    print("# " + " ".join(f"{k}={v}" for k, v in _header().items()), flush=True)
    records = {}
    status = 0
    for workload in config.WORKLOADS:
        for traced in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, "-m", "bench",
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(traced),
                "--scale", str(args.scale),
                "--out", str(args.out),
            ]  # fmt: skip
            if args.ops:
                command += ["--ops", str(args.ops)]
            print(flush=True)
            try:
                done = subprocess.run(
                    command, cwd=ROOT, timeout=config.WORKLOAD_GUARD_S + 30
                )
                code = done.returncode
            except subprocess.TimeoutExpired:
                code = 3
            if code != 0:
                print(f"bench: {workload} (trace={traced}) exited {code}", file=sys.stderr)
                status = 1
                continue
            path = args.out / f"{workload}-seed{args.seed}-trace{traced}.json"
            with open(path) as fh:
                records[workload, traced] = json.load(fh)

    print("\nsummary:")
    summary = {}
    for workload in config.WORKLOADS:
        plain = records.get((workload, 0))
        if plain is None:
            continue
        entry = {
            name: value["value"] for name, value in plain["end_to_end"].items()
        }
        traced = records.get((workload, 1))
        if traced is not None:
            # Tracing overhead: the same seed's ops, timed with and
            # without the spans and telemetry reads around them.
            slow = traced["end_to_end"]["latency_ms_p50"]["value"]
            fast = plain["end_to_end"]["latency_ms_p50"]["value"]
            entry["obs.trace_overhead_share"] = slow / fast - 1.0
        summary[workload] = entry
        print(f"  {workload}: " + " ".join(f"{k}={v:.6g}" for k, v in entry.items()))
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"seed": args.seed, "failed": failed, "workloads": summary, "claim": None}))
    return status or (1 if failed else 0)
