"""Tests for repro.htm.ranges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.ranges import RangeSet

id_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=40)


class TestConstruction:
    def test_merges_overlaps(self):
        rs = RangeSet([(1, 5), (4, 9), (20, 22)])
        assert rs.intervals == ((1, 9), (20, 22))

    def test_merges_adjacent(self):
        rs = RangeSet([(1, 5), (6, 9)])
        assert rs.intervals == ((1, 9),)

    def test_sorts(self):
        rs = RangeSet([(50, 60), (1, 2)])
        assert rs.intervals == ((1, 2), (50, 60))

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            RangeSet([(5, 1)])

    def test_from_ids(self):
        rs = RangeSet.from_ids([5, 3, 4, 10, 11, 20])
        assert rs.intervals == ((3, 5), (10, 11), (20, 20))

    def test_from_subtree(self):
        # Node 8 at depth 0, leaves at depth 2: ids 128..143.
        rs = RangeSet.from_subtree(8, 0, 2)
        assert rs.intervals == ((128, 143),)

    def test_from_subtree_same_depth(self):
        rs = RangeSet.from_subtree(33, 1, 1)
        assert rs.intervals == ((33, 33),)

    def test_from_subtree_bad_depth(self):
        with pytest.raises(ValueError):
            RangeSet.from_subtree(8, 3, 1)


class TestQueries:
    def test_count(self):
        assert RangeSet([(1, 5), (10, 10)]).count() == 6

    def test_empty(self):
        assert RangeSet().is_empty()
        assert RangeSet().count() == 0

    def test_contains(self):
        rs = RangeSet([(10, 20), (30, 40)])
        assert rs.contains(10) and rs.contains(20) and rs.contains(35)
        assert not rs.contains(9) and not rs.contains(25) and not rs.contains(41)

    def test_contains_array(self):
        rs = RangeSet([(10, 20), (30, 40)])
        values = np.array([5, 10, 25, 30, 40, 99])
        np.testing.assert_array_equal(
            rs.contains_array(values), [False, True, False, True, True, False]
        )

    def test_contains_array_empty_set(self):
        assert not RangeSet().contains_array(np.array([1, 2])).any()

    def test_iter_ids(self):
        rs = RangeSet([(2, 4), (9, 9)])
        assert list(rs.iter_ids()) == [2, 3, 4, 9]


class TestPointQueries:
    """``contains`` / ``contains_array`` / ``next_member`` against a
    brute-force ``set(iter_ids())``, probed where bisection goes wrong:
    on every interval edge, one step either side of it, below the first
    interval and above the last."""

    @staticmethod
    def _probes(rs):
        edges = [bound for interval in rs.intervals for bound in interval]
        return sorted({0, 302} | {e + d for e in edges for d in (-1, 0, 1) if e + d >= 0})

    @given(id_sets)
    @settings(max_examples=150, deadline=None)
    def test_contains_matches_set(self, ids):
        rs = RangeSet.from_ids(ids)
        probes = self._probes(rs)
        assert [rs.contains(v) for v in probes] == [v in ids for v in probes]
        np.testing.assert_array_equal(
            rs.contains_array(np.array(probes)), [v in ids for v in probes]
        )

    @given(id_sets)
    @settings(max_examples=150, deadline=None)
    def test_next_member_matches_set(self, ids):
        rs = RangeSet.from_ids(ids)
        for value in self._probes(rs):
            assert rs.next_member(value) == min(
                (i for i in ids if i >= value), default=None
            )

    def test_next_member_of_the_empty_set(self):
        assert RangeSet().next_member(0) is None
        assert RangeSet().next_member(10**9) is None


class TestSetAlgebra:
    @given(id_sets, id_sets)
    @settings(max_examples=150, deadline=None)
    def test_union_matches_sets(self, a, b):
        rs = RangeSet.from_ids(a) | RangeSet.from_ids(b)
        assert set(rs.iter_ids()) == a | b

    @given(id_sets, id_sets)
    @settings(max_examples=150, deadline=None)
    def test_intersect_matches_sets(self, a, b):
        rs = RangeSet.from_ids(a) & RangeSet.from_ids(b)
        assert set(rs.iter_ids()) == a & b

    @given(id_sets, id_sets)
    @settings(max_examples=150, deadline=None)
    def test_difference_matches_sets(self, a, b):
        rs = RangeSet.from_ids(a) - RangeSet.from_ids(b)
        assert set(rs.iter_ids()) == a - b

    @given(id_sets)
    @settings(max_examples=50, deadline=None)
    def test_self_difference_empty(self, a):
        rs = RangeSet.from_ids(a)
        assert (rs - rs).is_empty()

    @given(id_sets)
    @settings(max_examples=50, deadline=None)
    def test_normal_form_canonical(self, a):
        # Two constructions of the same set produce identical intervals.
        ids = sorted(a)
        pairs = [(i, i) for i in ids]
        assert RangeSet(pairs) == RangeSet.from_ids(a)

    def test_hashable(self):
        assert hash(RangeSet([(1, 2)])) == hash(RangeSet([(1, 1), (2, 2)]))
