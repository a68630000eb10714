"""TopKNode: the fused ORDER BY ... LIMIT k must be indistinguishable
from SortNode -> LimitNode — row for row, ties, DESC stability — while
holding a bounded candidate buffer instead of the whole input."""

import numpy as np
import pytest

from repro.catalog.schema import Field, Schema
from repro.catalog.table import ObjectTable
from repro.query.qet import LimitNode, QETNode, SortNode, TopKNode

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


def reference_topk(batches, key_fns, descending, k):
    """The unfused pipeline: full sort, then LIMIT."""
    node = SortNode(_ListSource(batches), key_fns, descending)
    node = LimitNode(node, k)
    return run_tree(node)


def fused_topk(batches, key_fns, descending, k, prune_rows=None):
    node = TopKNode(
        _ListSource(batches), key_fns, descending, k, prune_rows=prune_rows
    )
    out = run_tree(node)
    return out, node


KEY_CASES = [
    ([lambda t: t["a"]], [False]),
    ([lambda t: t["a"]], [True]),
    ([lambda t: t["a"], lambda t: t["b"]], [False, True]),
    ([lambda t: t["a"], lambda t: t["b"]], [True, False]),
    ([lambda t: 1.0, lambda t: t["a"]], [False, True]),
]


class TestTopKEquivalence:
    @pytest.mark.parametrize("key_fns,descending", KEY_CASES)
    @pytest.mark.parametrize("k", [1, 7, 50, 400])
    def test_matches_sort_limit_row_for_row(self, rng, key_fns, descending, k):
        batches = make_batches(rng, n_rows=120, n_batches=6)
        expected = drain_table(reference_topk(batches, key_fns, descending, k))
        got_batches, _node = fused_topk(
            batches, key_fns, descending, k, prune_rows=2 * k
        )
        got = drain_table(got_batches)
        # Row-for-row including tie order: objid is unique, so equality
        # of the objid sequence pins the exact stable ordering.
        assert got.data.tolist() == expected.data.tolist()

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
            got_batches, _node = fused_topk(
                batches, [lambda t: t["a"]], [descending], 13, prune_rows=13
            )
            got = drain_table(got_batches)
            assert np.asarray(got["objid"]).tolist() == list(range(13))

    def test_k_larger_than_input(self, rng):
        batches = make_batches(rng, n_rows=20, n_batches=2)
        expected = drain_table(
            reference_topk(batches, [lambda t: t["a"]], [False], 1000)
        )
        got_batches, _node = fused_topk(batches, [lambda t: t["a"]], [False], 1000)
        assert drain_table(got_batches).data.tolist() == expected.data.tolist()

    def test_limit_zero_emits_nothing_and_cancels(self, rng):
        batches = make_batches(rng, n_rows=10, n_batches=2)
        source = _ListSource(batches)
        node = TopKNode(source, [lambda t: t["a"]], [False], 0)
        assert run_tree(node) == []
        assert source.output.cancelled()

    def test_empty_input_emits_nothing(self):
        got = run_tree(TopKNode(_ListSource([]), [lambda t: t["a"]], [False], 5))
        assert got == []


class TestTopKNaNKeys:
    """NaN keys sort as +inf (SortNode's dense-rank semantics) and must
    survive the running-threshold filter identically in both plans."""

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("k", [3, 12])
    def test_nan_heavy_matches_sort_limit(self, rng, descending, k):
        batches = []
        for i in range(6):
            a = rng.integers(0, 5, 60).astype(np.float64)
            a[rng.random(60) < 0.3] = np.nan
            batches.append(
                ObjectTable.from_columns(
                    SCHEMA,
                    {
                        "objid": np.arange(i * 60, i * 60 + 60, dtype=np.int64),
                        "a": a,
                        "b": rng.integers(0, 3, 60),
                    },
                )
            )
        key_fns = [lambda t: t["a"], lambda t: t["b"]]
        flags = [descending, not descending]
        expected = drain_table(reference_topk(batches, key_fns, flags, k))
        got_batches, _node = fused_topk(
            batches, key_fns, flags, k, prune_rows=k
        )
        got = drain_table(got_batches)
        assert got["objid"].tolist() == expected["objid"].tolist()

    def test_fuzz_against_reference(self, rng):
        """Differential fuzz: random keys (with NaNs), directions and k."""
        for _trial in range(40):
            n_keys = int(rng.integers(1, 3))
            batches = []
            for i in range(4):
                a = rng.integers(0, 4, 50).astype(np.float64)
                a[rng.random(50) < 0.25] = np.nan
                batches.append(
                    ObjectTable.from_columns(
                        SCHEMA,
                        {
                            "objid": np.arange(i * 50, i * 50 + 50, dtype=np.int64),
                            "a": a,
                            "b": rng.integers(0, 4, 50),
                        },
                    )
                )
            key_fns = [lambda t: t["a"], lambda t: t["b"]][:n_keys]
            flags = [bool(rng.integers(2)) for _ in range(n_keys)]
            k = int(rng.integers(1, 30))
            expected = drain_table(reference_topk(batches, key_fns, flags, k))
            got_batches, _node = fused_topk(
                batches, key_fns, flags, k, prune_rows=max(k, 8)
            )
            got = drain_table(got_batches)
            assert got["objid"].tolist() == expected["objid"].tolist(), (
                flags,
                k,
            )


class TestTopKBoundedMemory:
    def test_peak_buffer_is_o_of_k_plus_batch(self, rng):
        """The acceptance bound: peak materialized rows is O(k + batch),
        never O(total rows)."""
        n_rows, n_batches, k = 500, 40, 10
        batches = make_batches(rng, n_rows=n_rows, n_batches=n_batches)
        total = n_rows * n_batches
        _got, node = fused_topk(
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
        _got, node = fused_topk(
            batches, [lambda t: t["a"]], [False], k, prune_rows=k
        )
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
