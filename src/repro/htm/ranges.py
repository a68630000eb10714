"""Sorted interval sets over HTM ids.

A coverage computation returns *ranges* of depth-``d`` ids rather than
individual trixels: because child ids are ``4t..4t+3``, any subtree is a
contiguous interval at the leaf depth, and unions of subtrees compress to
a handful of intervals.  This is the representation the Science Archive
passes to the storage layer to decide which containers to touch.

Intervals are closed (``lo <= id <= hi``), kept sorted and mutually
disjoint with no two intervals adjacent (those are merged).
"""

from __future__ import annotations

import bisect

import numpy as np

__all__ = ["RangeSet"]


def _normalize_intervals(intervals):
    """Sort, validate, and merge overlapping/adjacent closed intervals."""
    cleaned = []
    for lo, hi in intervals:
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"interval lo {lo} exceeds hi {hi}")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


class RangeSet:
    """An immutable set of non-negative integers stored as closed intervals."""

    __slots__ = ("intervals", "_lows", "_highs")

    def __init__(self, intervals=()):
        self.intervals = tuple(_normalize_intervals(intervals))
        # The interval bounds as two sorted lists, built once because
        # the set never changes: every point query is a bisection.
        self._lows = [lo for lo, _ in self.intervals]
        self._highs = [hi for _, hi in self.intervals]

    @classmethod
    def from_ids(cls, ids):
        """Build from an iterable of individual ids."""
        ids = sorted(set(int(i) for i in ids))
        intervals = []
        for value in ids:
            if intervals and value == intervals[-1][1] + 1:
                intervals[-1][1] = value
            else:
                intervals.append([value, value])
        return cls(tuple((lo, hi) for lo, hi in intervals))

    @classmethod
    def from_subtree(cls, htm_id, node_depth, leaf_depth):
        """All leaf-depth ids under a node: the interval of its subtree.

        ``node_depth`` is the depth of ``htm_id``; ``leaf_depth >= node_depth``.
        """
        if leaf_depth < node_depth:
            raise ValueError("leaf_depth must be >= node_depth")
        shift = 2 * (leaf_depth - node_depth)
        lo = int(htm_id) << shift
        hi = ((int(htm_id) + 1) << shift) - 1
        return cls(((lo, hi),))

    def is_empty(self):
        """True when the set contains no ids."""
        return len(self.intervals) == 0

    def count(self):
        """Total number of ids in the set."""
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def contains(self, value):
        """Membership test for a single id (binary search)."""
        value = int(value)
        idx = bisect.bisect_right(self._lows, value) - 1
        return idx >= 0 and value <= self._highs[idx]

    def next_member(self, value):
        """Smallest id in the set that is ``>= value``, or ``None``.

        The query an ordered walk needs to go from one wanted id
        straight to the next (the shared sweep's jump).
        """
        value = int(value)
        idx = bisect.bisect_left(self._highs, value)
        if idx == len(self._highs):
            return None
        return max(value, self._lows[idx])

    def overlaps(self, other):
        """Whether the sets share an id (a bisection per interval of ``other``)."""
        return any(
            (member := self.next_member(lo)) is not None and member <= hi
            for lo, hi in other.intervals
        )

    def contains_array(self, values):
        """Vectorized membership mask for an integer array."""
        values = np.asarray(values, dtype=np.int64)
        if not self.intervals:
            return np.zeros(values.shape, dtype=bool)
        lows = np.array(self._lows, dtype=np.int64)
        highs = np.array(self._highs, dtype=np.int64)
        idx = np.searchsorted(lows, values, side="right") - 1
        valid = idx >= 0
        idx_clipped = np.clip(idx, 0, len(lows) - 1)
        return valid & (values <= highs[idx_clipped]) & (values >= lows[idx_clipped])

    def iter_ids(self):
        """Generator over every id (use only for small sets/tests)."""
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def union(self, other):
        """Set union."""
        return RangeSet(self.intervals + other.intervals)

    def intersect(self, other):
        """Set intersection by interval sweep."""
        result = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                result.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return RangeSet(result)

    def difference(self, other):
        """Ids in self but not in other."""
        result = []
        other_iter = iter(other.intervals)
        current_cut = next(other_iter, None)
        for lo, hi in self.intervals:
            start = lo
            while current_cut is not None and current_cut[1] < start:
                current_cut = next(other_iter, None)
            while current_cut is not None and current_cut[0] <= hi:
                cut_lo, cut_hi = current_cut
                if cut_lo > start:
                    result.append((start, cut_lo - 1))
                start = max(start, cut_hi + 1)
                if cut_hi >= hi:
                    break
                current_cut = next(other_iter, None)
            if start <= hi:
                result.append((start, hi))
        return RangeSet(result)

    def __eq__(self, other):
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersect(other)

    def __sub__(self, other):
        return self.difference(other)

    def __repr__(self):
        preview = ", ".join(f"[{lo},{hi}]" for lo, hi in self.intervals[:4])
        suffix = ", ..." if len(self.intervals) > 4 else ""
        return f"RangeSet({preview}{suffix} n_intervals={len(self.intervals)})"
