"""Why row subsets move as bytes: the record gather against numpy's
structured fancy indexing.

Paper: the central servers run *"a data pump that supports sweeping
searches that touch most of the data"*, and a filter that keeps an object
keeps the whole object.  numpy copies a structured array one field at a
time — 50 fields of the 839-byte photo record — where
:func:`~repro.catalog.table.take_records` gathers the same rows viewed as
opaque ``np.void`` records.  One lap of 4 096-row morsels over the
benchmark photo catalog with half of each morsel's rows kept must give
bit-identical rows, at least 2x sooner through the record gather.
"""

import time

import numpy as np
import pytest

from conftest import print_table
from repro.catalog.table import take_records

MORSEL_ROWS = 4096
REPEATS = 5


def _best_lap(select, morsels):
    """Seconds of the fastest of ``REPEATS`` laps selecting every morsel."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for data, mask in morsels:
            select(data, mask)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
def test_bench_record_gather_vs_structured_indexing(bench_photo):
    rng = np.random.default_rng(34)
    data = bench_photo.data
    morsels = [
        (morsel, rng.random(len(morsel)) < 0.5)
        for morsel in (
            data[start : start + MORSEL_ROWS]
            for start in range(0, len(data), MORSEL_ROWS)
        )
    ]
    for morsel, mask in morsels:
        gathered = take_records(morsel, mask)
        expected = morsel[mask]
        assert gathered.dtype == expected.dtype
        assert gathered.tobytes() == expected.tobytes()

    structured = _best_lap(lambda d, m: d[m], morsels)
    records = _best_lap(take_records, morsels)
    speedup = structured / records
    print_table(
        f"Record gather: {len(data)} photo rows, {data.dtype.itemsize} B, "
        f"{len(data.dtype.names)} fields, 50 % mask",
        ("path", "lap"),
        [
            ("structured data[mask]", f"{structured * 1e3:.2f} ms"),
            ("take_records", f"{records * 1e3:.2f} ms"),
            ("speedup", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 2.0
