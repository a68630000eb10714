"""Per-layer probes of the traced run.

Each probe is a benchmark-side span around one call into a layer's
public function, fed with the workload's own ops, results and catalog
rows.  They run after the measured phase (so they never sit inside a
request's latency) and only in a traced run.
"""

from __future__ import annotations

import time

import numpy as np

from bench import config
from bench.metrics import quantile


def build_region(spec):
    """The program's ``Region`` for an op's region tuple."""
    from repro.geometry import (
        circle_region,
        latitude_band,
        polygon_region,
        rect_region,
    )

    kind = spec[0]
    if kind == "circle":
        return circle_region(*spec[1:])
    if kind == "rect":
        return rect_region(*spec[1:])
    if kind == "latband":
        return latitude_band(*spec[1:])
    return polygon_region(list(spec[1]))


def _timed(tracer, layer, name, op_id, fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    end = time.perf_counter()
    tracer.add(layer, name, start, end, op=op_id)
    return value, end - start


def probe_queries(results, tracer, session, samples):
    """``parse_query`` and ``executor.prepare`` over the measured texts."""
    from repro.query import parse_query

    parse_s, plan_s = [], []
    for sample in samples:
        text = sample.op.text
        _, spent = _timed(
            tracer, "query.parser", "probe:parse", sample.op_id, parse_query, text
        )
        parse_s.append(spent)
        _, spent = _timed(
            tracer,
            "query.optimizer",
            "probe:plan",
            sample.op_id,
            session.executor.prepare,
            text,
        )
        plan_s.append(spent)
    results.put_quantile_ms("query.parse_ms_p50", parse_s, 0.5)
    results.put_quantile_ms("query.plan_ms_p50", plan_s, 0.5)


def probe_regions(results, tracer, samples, xyz, container_ids, stores=()):
    """``cover_region``, the exact region test over partial-trixel rows,
    and one manually stepped sweep revolution with the cover as the
    candidate set (over each local store the workload owns)."""
    from repro.htm import cover_region
    from repro.machines.sweep import SweepScanner

    cover_s, ranges, skip_s = [], [], []
    tested_rows, tested_s = 0, 0.0
    for sample in samples:
        spec = sample.op.region
        candidates = None
        if spec is not None:
            region = build_region(spec)
            coverage, spent = _timed(
                tracer,
                "htm",
                "probe:cover_region",
                sample.op_id,
                cover_region,
                region,
                config.HTM_DEPTH,
            )
            cover_s.append(spent)
            candidates = coverage.candidates()
            ranges.append(len(candidates.intervals))
            rows = xyz[coverage.partial.contains_array(container_ids)]
            if len(rows):
                _, spent = _timed(
                    tracer,
                    "geometry",
                    "probe:region_test",
                    sample.op_id,
                    region.contains,
                    rows,
                )
                tested_rows += len(rows)
                tested_s += spent
        for store in stores:
            _, spent = _timed(
                tracer,
                "machines",
                "probe:sweep_revolution",
                sample.op_id,
                _revolution,
                SweepScanner(store),
                candidates,
            )
            skip_s.append(spent)
    results.put_quantile_ms("htm.cover_ms_p50", cover_s, 0.5)
    if ranges:
        results.put("htm.cover_ranges_mean", np.mean(ranges), samples=len(ranges))
    if tested_s > 0:
        results.put(
            "geometry.region_test_rows_per_s", tested_rows / tested_s, samples=tested_rows
        )
    results.put_quantile_ms("machines.sweep_skip_ms_p50", skip_s, 0.5)


def _revolution(scanner, candidates):
    """Step a private scanner once round the store for one subscriber."""
    subscription = scanner.attach(candidates=candidates, sink=lambda *_run: True)
    while not subscription.done:
        scanner.step(scanner.stride)


def probe_lookup(results, tracer, tables):
    """``lookup_ids`` over catalog rows (``ingest_mix``: over each chunk)."""
    from repro.htm import lookup_ids

    rows, spent_s = 0, 0.0
    for table in tables:
        _, spent = _timed(
            tracer,
            "htm",
            "probe:lookup_ids",
            None,
            lookup_ids,
            table["ra"],
            table["dec"],
            config.HTM_DEPTH,
        )
        rows += len(table["ra"])
        spent_s += spent
    if spent_s > 0:
        results.put("htm.lookup_rows_per_s", rows / spent_s, samples=rows)


def probe_wire(results, tracer, table, repeats=15):
    """``table_to_wire`` / ``table_from_wire`` on a morsel of the
    workload's own results (tiled up to ``WIRE_PROBE_ROWS`` rows)."""
    from repro.catalog import ObjectTable
    from repro.net.protocol import table_from_wire, table_to_wire

    morsel = ObjectTable(table.schema, np.resize(table.data, config.WIRE_PROBE_ROWS))
    megabytes = morsel.nbytes() / 1e6
    encode_s, decode_s = [], []
    for _ in range(repeats):
        (header, body), spent = _timed(
            tracer, "net", "probe:table_to_wire", None, table_to_wire, morsel
        )
        encode_s.append(spent)
        _, spent = _timed(
            tracer, "net", "probe:table_from_wire", None, table_from_wire, header, body
        )
        decode_s.append(spent)
    results.put("net.encode_mb_per_s", megabytes / quantile(encode_s, 0.5), repeats)
    results.put("net.decode_mb_per_s", megabytes / quantile(decode_s, 0.5), repeats)
