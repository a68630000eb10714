"""Unit tests for QET plumbing: streams, filter, aggregate internals,
and how an n-ary node waits on its children."""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Field, Schema
from repro.catalog.table import ObjectTable
from repro.query.errors import ExecutionError
from repro.query.engine import start_tree
from repro.query.qet import (
    AggregateNode,
    ExchangeNode,
    FilterNode,
    QETNode,
    Stream,
    UnionNode,
    _SeenIds,
)


def make_table(values):
    schema = Schema("t", [Field("objid", "i8"), Field("value", "f8")])
    return ObjectTable.from_columns(
        schema,
        {
            "objid": np.arange(len(values), dtype=np.int64),
            "value": np.asarray(values, dtype=np.float64),
        },
    )


class _ListSource(QETNode):
    """Test helper: emits a fixed list of batches."""

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


class TestStream:
    def test_push_iter_close(self):
        stream = Stream()
        table = make_table([1.0, 2.0])

        def produce():
            stream.push(table)
            stream.close()

        thread = threading.Thread(target=produce)
        thread.start()
        got = list(stream)
        thread.join()
        assert len(got) == 1

    def test_cancel_unblocks_producer(self):
        stream = Stream(maxsize=1)
        table = make_table([1.0])
        results = []

        def produce():
            results.append(stream.push(table))  # fills the queue
            results.append(stream.push(table))  # blocks until cancel

        thread = threading.Thread(target=produce)
        thread.start()
        import time

        time.sleep(0.05)
        stream.cancel()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert results[1] is False

    def test_fail_reraises_in_consumer(self):
        stream = Stream()
        stream.fail(RuntimeError("boom"))
        with pytest.raises(ExecutionError):
            list(stream)


class TestFilterNode:
    def test_filters_rows(self):
        source = _ListSource([make_table([1.0, 5.0, 3.0])])
        node = FilterNode(source, lambda t: np.asarray(t["value"]) > 2.0)
        batches = run_tree(node)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0]["value"], [5.0, 3.0])

    def test_scalar_mask_broadcasts(self):
        source = _ListSource([make_table([1.0, 2.0])])
        node = FilterNode(source, lambda t: np.bool_(False))
        assert run_tree(node) == []


class TestAggregateNode:
    def test_empty_input_emits_nothing(self):
        source = _ListSource([])
        node = AggregateNode(source, [], [("n", "COUNT", lambda t: t["value"])], ["n"])
        assert run_tree(node) == []

    def test_global_group(self):
        source = _ListSource([make_table([1.0, 2.0]), make_table([3.0])])
        node = AggregateNode(
            source,
            [],
            [
                ("n", "COUNT", lambda t: t["value"]),
                ("total", "SUM", lambda t: t["value"]),
            ],
            ["n", "total"],
        )
        batches = run_tree(node)
        assert int(batches[0]["n"][0]) == 3
        assert float(batches[0]["total"][0]) == 6.0

    def test_hidden_group_key(self):
        # A None-named group spec groups without emitting the key column.
        table = make_table([1.0, 1.0, 2.0])
        source = _ListSource([table])
        node = AggregateNode(
            source,
            [(None, lambda t: np.asarray(t["value"]))],
            [("n", "COUNT", lambda t: t["value"])],
            ["n"],
        )
        batches = run_tree(node)
        assert batches[0].schema.field_names() == ["n"]
        assert sorted(np.asarray(batches[0]["n"]).tolist()) == [1, 2]

    def test_multi_key_grouping(self):
        schema = Schema("m", [Field("a", "i8"), Field("b", "i8"), Field("v", "f8")])
        table = ObjectTable.from_columns(
            schema,
            {
                "a": np.array([0, 0, 1, 1, 0]),
                "b": np.array([0, 1, 0, 0, 0]),
                "v": np.arange(5, dtype=np.float64),
            },
        )
        source = _ListSource([table])
        node = AggregateNode(
            source,
            [("a", lambda t: t["a"]), ("b", lambda t: t["b"])],
            [("n", "COUNT", lambda t: t["v"])],
            ["a", "b", "n"],
        )
        batches = run_tree(node)
        result = batches[0]
        got = {
            (int(a), int(b)): int(n)
            for a, b, n in zip(result["a"], result["b"], result["n"])
        }
        assert got == {(0, 0): 2, (0, 1): 1, (1, 0): 2}


def id_table(objids):
    schema = Schema("t", [Field("objid", "i8"), Field("value", "f8")])
    return ObjectTable.from_columns(
        schema,
        {
            "objid": np.asarray(objids, dtype=np.int64),
            "value": np.arange(len(objids), dtype=np.float64),
        },
    )


class TestUnionNode:
    def test_the_first_occurrence_wins_within_a_batch(self):
        left = _ListSource([id_table([5, 3, 5, 7, 3]), id_table([7, 9, 9])])
        batches = run_tree(UnionNode(left, _ListSource([])))
        got = ObjectTable.concat_all(batches)
        assert np.asarray(got["objid"]).tolist() == [5, 3, 7, 9]
        assert np.asarray(got["value"]).tolist() == [0.0, 1.0, 3.0, 1.0]

    def test_both_sides_deduplicate_against_each_other(self):
        left = _ListSource([id_table([1, 2, 3]), id_table([4, 2])])
        right = _ListSource([id_table([3, 4, 5, 5]), id_table([1, 6])])
        got = ObjectTable.concat_all(run_tree(UnionNode(left, right)))
        assert sorted(np.asarray(got["objid"]).tolist()) == [1, 2, 3, 4, 5, 6]

    @given(
        st.lists(
            st.lists(st.integers(-(2**62), 2**62) | st.integers(0, 40)),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_seen_ids_are_a_set(self, batches):
        seen, reference = _SeenIds(), set()
        for ids in batches:
            expected = []
            for objid in ids:
                expected.append(objid not in reference)
                reference.add(objid)
            fresh = seen.first_unseen(np.asarray(ids, dtype=np.int64))
            assert fresh.tolist() == expected
        runs = seen._runs
        assert sum(len(run) for run in runs) == len(reference)
        for shorter, longer in zip(runs[1:], runs):
            assert 2 * len(shorter) <= len(longer)


class _GatedSource(QETNode):
    """Test helper: emits its batches once ``gate`` is set."""

    def __init__(self, batches, gate):
        super().__init__(())
        self.batches = batches
        self.gate = gate

    def run(self):
        self.gate.wait(10.0)
        for batch in self.batches:
            if not self._emit(batch):
                return


class _PacedSource(QETNode):
    """Test helper: a shard that streams ``batch`` every ``pace`` seconds
    for ``count`` batches, or until its consumer cancels."""

    def __init__(self, batch, pace=0.05, count=100):
        super().__init__(())
        self.batch = batch
        self.pace = pace
        self.count = count

    def run(self):
        for _ in range(self.count):
            if not self._emit(self.batch):
                return
            time.sleep(self.pace)


class _FailingSource(QETNode):
    def run(self):
        raise RuntimeError("shard died")


def _cpu_seconds(thread):
    """User plus system CPU time of a running thread, from procfs."""
    with open(f"/proc/self/task/{thread.native_id}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _all_end(root, timeout=5.0):
    for node in root.walk():
        node.join(timeout)
    return [node for node in root.walk() if node.is_alive()]


#: the n-ary streaming nodes, built over two children
NARY = {
    "exchange": lambda left, right: ExchangeNode([left, right]),
    "union": UnionNode,
}


@pytest.mark.parametrize("kind", NARY)
class TestNaryWait:
    """An n-ary node reads its children's streams on its own thread:
    whichever child is ready is forwarded, an idle one costs nothing."""

    def test_a_ready_batch_passes_a_blocked_sibling(self, kind):
        gate = threading.Event()
        root = NARY[kind](_GatedSource([id_table([1, 2])], gate), _ListSource([id_table([3])]))
        start_tree(root)
        try:
            first = next(iter(root.output))
            assert not gate.is_set()
        finally:
            gate.set()
        assert np.asarray(first["objid"]).tolist() == [3]
        rest = ObjectTable.concat_all(list(root.output))
        assert np.asarray(rest["objid"]).tolist() == [1, 2]
        assert _all_end(root) == []

    def test_a_failing_child_fails_the_node_while_its_sibling_streams(self, kind):
        paced = _PacedSource(id_table([1]))
        root = NARY[kind](_FailingSource(), paced)
        started = time.monotonic()
        start_tree(root)
        with pytest.raises(ExecutionError, match="shard died"):
            list(root.output)
        # The paced sibling would stream for 5 s: the error did not wait.
        assert time.monotonic() - started < 2.5
        assert _all_end(root) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs procfs")
    def test_a_node_waiting_on_idle_children_sleeps(self, kind):
        gate = threading.Event()
        root = NARY[kind](_GatedSource([], gate), _GatedSource([], gate))
        start_tree(root)
        try:
            time.sleep(0.5)
            cpu = _cpu_seconds(root._thread)
        finally:
            gate.set()
        assert list(root.output) == []
        assert cpu < 0.1
        assert _all_end(root) == []
