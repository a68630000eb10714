"""SortNode, with and without a LIMIT, against a reference written
here: row for row, ties, DESC stability and NaN keys — while a limited
sort holds a bounded candidate buffer instead of the whole input."""

import math

import numpy as np
import pytest

from repro.catalog.schema import Field, Schema
from repro.catalog.table import ObjectTable
from repro.query.qet import MergeSortNode, QETNode, SortNode

SCHEMA = Schema(
    "t",
    [Field("objid", "i8"), Field("a", "f8"), Field("b", "i8")],
)


def make_batches(rng, n_rows, n_batches, tie_values=8):
    """Batches with heavy ties in both keys (the stability stressor)."""
    tables = []
    next_id = 0
    for _ in range(n_batches):
        ids = np.arange(next_id, next_id + n_rows, dtype=np.int64)
        next_id += n_rows
        tables.append(
            ObjectTable.from_columns(
                SCHEMA,
                {
                    "objid": ids,
                    "a": rng.integers(0, tie_values, n_rows).astype(np.float64),
                    "b": rng.integers(0, tie_values, n_rows),
                },
            )
        )
    return tables


class _ListSource(QETNode):
    def __init__(self, batches):
        super().__init__(())
        self.batches = batches

    def run(self):
        for batch in self.batches:
            if not self._emit(batch):
                return


def run_tree(root):
    for node in reversed(list(root.walk())):
        node.start()
    batches = list(root.output)
    root.join()
    return batches


def drain_table(batches):
    assert batches, "expected at least one output batch"
    return ObjectTable.concat_all(batches)


def _sortable(value):
    """A key value as Python orders it here: NaN after every number
    (+inf included), all NaNs tied."""
    value = float(value)
    return (1, 0.0) if math.isnan(value) else (0, value)


def reference_objids(batches, key_fns, descending, k=None):
    """The objids of ``ORDER BY ... LIMIT k`` over the batches in
    arrival order, by Python's stable sort: one pass per key from the
    last, so later keys break ties of earlier ones.  ``reverse=True``
    keeps equal keys in input order, so a DESC key reverses value
    groups, not the rows within them."""
    rows = []
    for batch in batches:
        keys = [np.broadcast_to(fn(batch), len(batch)).tolist() for fn in key_fns]
        rows.extend(zip(batch["objid"].tolist(), zip(*keys)))
    for position in reversed(range(len(key_fns))):
        rows.sort(key=lambda row: _sortable(row[1][position]), reverse=descending[position])
    return [objid for objid, _keys in rows[:k]]


def limited_sort(batches, key_fns, descending, k, prune_rows=None):
    node = SortNode(_ListSource(batches), key_fns, descending, k, prune_rows=prune_rows)
    out = run_tree(node)
    return out, node


def objids(batches):
    return drain_table(batches)["objid"].tolist()


KEY_CASES = [
    ([lambda t: t["a"]], [False]),
    ([lambda t: t["a"]], [True]),
    ([lambda t: t["a"], lambda t: t["b"]], [False, True]),
    ([lambda t: t["a"], lambda t: t["b"]], [True, False]),
    ([lambda t: 1.0, lambda t: t["a"]], [False, True]),
]


def nan_batches(rng, n_rows, n_batches, nan_share):
    """Batches whose ``a`` key is NaN-heavy (and ties heavily)."""
    batches = []
    for i in range(n_batches):
        a = rng.integers(0, 5, n_rows).astype(np.float64)
        a[rng.random(n_rows) < nan_share] = np.nan
        batches.append(
            ObjectTable.from_columns(
                SCHEMA,
                {
                    "objid": np.arange(i * n_rows, (i + 1) * n_rows, dtype=np.int64),
                    "a": a,
                    "b": rng.integers(0, 3, n_rows),
                },
            )
        )
    return batches


class TestTopKEquivalence:
    @pytest.mark.parametrize("key_fns,descending", KEY_CASES)
    @pytest.mark.parametrize("k", [1, 7, 50, 400])
    def test_matches_sort_limit_row_for_row(self, rng, key_fns, descending, k):
        batches = make_batches(rng, n_rows=120, n_batches=6)
        got_batches, _node = limited_sort(
            batches, key_fns, descending, k, prune_rows=2 * k
        )
        # Row-for-row including tie order: objid is unique, so equality
        # of the objid sequence pins the exact stable ordering.
        assert objids(got_batches) == reference_objids(batches, key_fns, descending, k)

    @pytest.mark.parametrize("key_fns,descending", KEY_CASES)
    def test_unlimited_sort_matches_reference(self, rng, key_fns, descending):
        batches = make_batches(rng, n_rows=120, n_batches=6)
        got = run_tree(SortNode(_ListSource(batches), key_fns, descending))
        assert objids(got) == reference_objids(batches, key_fns, descending)

    def test_ties_resolve_by_arrival_order(self, rng):
        """All-equal keys: top-k must be exactly the first k arrivals."""
        batches = [
            ObjectTable.from_columns(
                SCHEMA,
                {
                    "objid": np.arange(i * 10, i * 10 + 10, dtype=np.int64),
                    "a": np.zeros(10),
                    "b": np.zeros(10, dtype=np.int64),
                },
            )
            for i in range(5)
        ]
        for descending in (False, True):
            got_batches, _node = limited_sort(
                batches, [lambda t: t["a"]], [descending], 13, prune_rows=13
            )
            assert objids(got_batches) == list(range(13))

    def test_k_larger_than_input(self, rng):
        batches = make_batches(rng, n_rows=20, n_batches=2)
        got_batches, _node = limited_sort(batches, [lambda t: t["a"]], [False], 1000)
        assert objids(got_batches) == reference_objids(
            batches, [lambda t: t["a"]], [False]
        )

    def test_limit_zero_emits_nothing_and_cancels(self, rng):
        batches = make_batches(rng, n_rows=10, n_batches=2)
        source = _ListSource(batches)
        node = SortNode(source, [lambda t: t["a"]], [False], 0)
        assert run_tree(node) == []
        assert source.output.cancelled()

    def test_empty_input_emits_nothing(self):
        for limit in (None, 5):
            node = SortNode(_ListSource([]), [lambda t: t["a"]], [False], limit)
            assert run_tree(node) == []

    def test_a_limit_names_the_node_topk(self):
        key_fns, flags = [lambda t: t["a"]], [False]
        assert SortNode(_ListSource([]), key_fns, flags).name == "sort"
        assert SortNode(_ListSource([]), key_fns, flags, 3).name == "topk"
        merge = MergeSortNode([_ListSource([]), _ListSource([])], key_fns, flags)
        assert merge.name == "merge_sort"


class TestTopKNaNKeys:
    """NaN keys sort as +inf, all NaNs tied, and must survive the
    running-threshold filter."""

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("k", [3, 12])
    def test_nan_heavy_matches_sort_limit(self, rng, descending, k):
        batches = nan_batches(rng, n_rows=60, n_batches=6, nan_share=0.3)
        key_fns = [lambda t: t["a"], lambda t: t["b"]]
        flags = [descending, not descending]
        got_batches, _node = limited_sort(batches, key_fns, flags, k, prune_rows=k)
        assert objids(got_batches) == reference_objids(batches, key_fns, flags, k)

    def test_fuzz_against_reference(self, rng):
        """Differential fuzz: random keys (with NaNs), directions and
        limits — none included — over one child and over a two-child
        merge, whose children are drained in child order."""
        for _trial in range(40):
            n_keys = int(rng.integers(1, 3))
            batches = nan_batches(rng, n_rows=50, n_batches=4, nan_share=0.25)
            key_fns = [lambda t: t["a"], lambda t: t["b"]][:n_keys]
            flags = [bool(rng.integers(2)) for _ in range(n_keys)]
            k = None if rng.random() < 0.3 else int(rng.integers(1, 30))
            expected = reference_objids(batches, key_fns, flags, k)
            prune_rows = None if k is None else max(k, 8)
            got_batches, _node = limited_sort(batches, key_fns, flags, k, prune_rows)
            assert objids(got_batches) == expected, (flags, k)
            merge = MergeSortNode(
                [_ListSource(batches[:2]), _ListSource(batches[2:])], key_fns, flags
            )
            assert objids(run_tree(merge))[:k] == expected, (flags, k)


class TestTopKBoundedMemory:
    def test_peak_buffer_is_o_of_k_plus_batch(self, rng):
        """The acceptance bound: peak materialized rows is O(k + batch),
        never O(total rows)."""
        n_rows, n_batches, k = 500, 40, 10
        batches = make_batches(rng, n_rows=n_rows, n_batches=n_batches)
        total = n_rows * n_batches
        _got, node = limited_sort(
            batches, [lambda t: t["a"], lambda t: t["b"]], [False, False], k
        )
        peak = node.stats.peak_buffered_rows
        assert 0 < peak < total / 4
        assert peak <= node.prune_rows + n_rows

    def test_threshold_filters_hopeless_batches(self, rng):
        """Ascending input: once the buffer holds the global top-k, later
        batches are rejected wholesale by the running threshold."""
        k = 5
        batches = [
            ObjectTable.from_columns(
                SCHEMA,
                {
                    "objid": np.arange(i * 100, i * 100 + 100, dtype=np.int64),
                    "a": np.arange(i * 100, i * 100 + 100, dtype=np.float64),
                    "b": np.zeros(100, dtype=np.int64),
                },
            )
            for i in range(20)
        ]
        _got, node = limited_sort(batches, [lambda t: t["a"]], [False], k, prune_rows=k)
        # After the first batch is pruned to k, every later (strictly
        # worse) batch contributes nothing to the buffer.
        assert node.stats.peak_buffered_rows <= 100 + k


class TestEngineFusion:
    def test_fused_query_matches_unfused_prefix(self, session):
        """ORDER BY ... LIMIT k == first k rows of the same ORDER BY."""
        full = session.query_table(
            "SELECT objid, mag_r FROM photo ORDER BY mag_r, objid"
        )
        topk = session.query_table(
            "SELECT objid, mag_r FROM photo ORDER BY mag_r, objid LIMIT 40"
        )
        assert topk.data.tolist() == full.data[:40].tolist()

    def test_fused_query_desc_ties(self, session):
        full = session.query_table(
            "SELECT objid, objtype FROM photo ORDER BY objtype DESC, objid"
        )
        topk = session.query_table(
            "SELECT objid, objtype FROM photo ORDER BY objtype DESC, objid "
            "LIMIT 25"
        )
        assert topk.data.tolist() == full.data[:25].tolist()

    def test_fused_node_peak_stays_bounded(self, session):
        result = session.execute(
            "SELECT objid, mag_r FROM photo ORDER BY mag_r, objid LIMIT 10"
        )
        table = result.to_table()
        assert len(table) == 10
        stats = result.node_stats()
        topk_stats = [
            s for node, s in stats.items() if getattr(node, "name", "") == "topk"
        ]
        assert len(topk_stats) == 1
        total_rows = sum(
            s.rows_out
            for node, s in stats.items()
            if getattr(node, "name", "") == "scan"
        )
        assert 0 < topk_stats[0].peak_buffered_rows < total_rows
