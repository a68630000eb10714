"""Numpy ground truth over the raw catalog for every op shape.

The oracle shares no code with the system under test: it reads the
catalog's columns (``objid``, ``cx``/``cy``/``cz``, ``ra``, ``dec``, the
magnitudes, ``objtype``) and evaluates an op's ``Select`` fields directly.
An answer is reduced to a small *digest* the moment it arrives (row
count, an order-insensitive checksum of ``objid``, the exact ``objid``
sequence for ``ORDER BY``, the group rows for aggregates), so results
are not kept in memory; digests are compared with the oracle's after the
timed phase.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

_MASK64 = (1 << 64) - 1
#: relative tolerance of aggregate averages (the program may sum in
#: another order and precision than the oracle)
_AVG_RTOL = 1e-5


def _unit(ra_deg, dec_deg):
    ra, dec = math.radians(ra_deg), math.radians(dec_deg)
    return np.array(
        [math.cos(dec) * math.cos(ra), math.cos(dec) * math.sin(ra), math.sin(dec)]
    )


def region_mask(region, xyz):
    """Boolean membership of unit vectors ``xyz`` (n, 3) in ``region``."""
    kind = region[0]
    if kind == "circle":
        _, ra, dec, radius = region
        return xyz @ _unit(ra, dec) >= math.cos(math.radians(radius))
    if kind == "latband":
        _, dec_min, dec_max = region
        z = xyz[:, 2]
        return (z >= math.sin(math.radians(dec_min))) & (
            z <= math.sin(math.radians(dec_max))
        )
    if kind == "rect":
        _, ra_min, ra_max, dec_min, dec_max = region
        span = (ra_max - ra_min) % 360.0
        if span > 180.0:
            raise ValueError("the oracle handles RECT spans up to 180 degrees")
        # East of the ra_min meridian and west of the ra_max meridian.
        lo, hi = math.radians(ra_min), math.radians(ra_min + span)
        east = xyz[:, 1] * math.cos(lo) - xyz[:, 0] * math.sin(lo) >= 0.0
        west = xyz[:, 1] * math.cos(hi) - xyz[:, 0] * math.sin(hi) <= 0.0
        return east & west & region_mask(("latband", dec_min, dec_max), xyz)
    if kind == "polygon":
        vertices = [_unit(ra, dec) for ra, dec in region[1]]
        if np.dot(np.cross(vertices[0], vertices[1]), vertices[2]) < 0.0:
            vertices.reverse()
        mask = np.ones(len(xyz), dtype=bool)
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            mask &= xyz @ np.cross(a, b) >= 0.0
        return mask
    raise ValueError(f"unknown region kind {kind!r}")


def _checksum(objid):
    """Order-insensitive ``(sum, xor)`` of an int64 id column."""
    ids = np.ascontiguousarray(objid, dtype=np.int64).view(np.uint64)
    if len(ids) == 0:
        return (0, 0)
    total = int(ids.sum(dtype=np.uint64)) & _MASK64
    return (total, int(np.bitwise_xor.reduce(ids)))


def _rows_digest(objid, ordered):
    ids = np.ascontiguousarray(objid, dtype=np.int64)
    if ordered:
        return ("ordered", len(ids), zlib.crc32(ids.tobytes()))
    return ("rows", len(ids)) + _checksum(ids)


def digest_answer(op, tables):
    """Digest of the program's answer: ``tables`` are the result batches
    (``ObjectTable``-like: ``len()`` and column access by name)."""
    select = op.selects[0]
    tables = [t for t in tables if t is not None and len(t)]
    if select.aggregate == "count":
        return ("count", tuple(int(n) for t in tables for n in t["n"]))
    if select.aggregate == "group":
        rows = sorted(
            (int(k), int(n), float(m))
            for t in tables
            for k, n, m in zip(t["objtype"], t["n"], t["m"])
        )
        return ("group", tuple(rows))
    if tables:
        objid = np.concatenate([np.asarray(t["objid"]) for t in tables])
    else:
        objid = np.empty(0, dtype=np.int64)
    return _rows_digest(objid, ordered=bool(select.order))


def same_answer(expected, got):
    """Whether a program digest matches the oracle's."""
    if expected[0] != got[0]:
        return False
    if expected[0] != "group":
        return expected == got
    if len(expected[1]) != len(got[1]):
        return False
    for (k0, n0, m0), (k1, n1, m1) in zip(expected[1], got[1]):
        if k0 != k1 or n0 != n1 or not math.isclose(m0, m1, rel_tol=_AVG_RTOL):
            return False
    return True


class Oracle:
    """Expected digests for ops over one catalog.

    ``chunk_rows`` (``ingest_mix`` only) is ``(base_rows, [chunk_rows,
    ...])``: index arrays into the catalog of the rows the store starts
    with and of each chunk, so an op that ran after ``k`` loads is
    checked against exactly the rows loaded so far.
    """

    def __init__(self, data, chunk_rows=None):
        self.data = data
        self.xyz = np.stack([data["cx"], data["cy"], data["cz"]], axis=-1)
        self.chunk_rows = chunk_rows

    def _visible(self, op):
        if op.chunks_loaded is None:
            return None
        base, chunks = self.chunk_rows
        mask = np.zeros(len(self.data), dtype=bool)
        mask[base] = True
        for rows in chunks[: op.chunks_loaded]:
            mask[rows] = True
        return mask

    def select_rows(self, select, visible=None):
        """Catalog row indices a select's WHERE/ORDER/LIMIT keep (its
        aggregate, if any, is applied by the caller), in result order when
        the select is ordered."""
        data = self.data
        mask = np.ones(len(data), dtype=bool) if visible is None else visible.copy()
        if select.region is not None:
            mask &= region_mask(select.region, self.xyz)
        for column, comparison, value in select.cuts:
            if comparison != "<":
                raise ValueError(f"unsupported comparison {comparison!r}")
            mask &= data[column] < value
        if select.linear is not None:
            a, b, value = select.linear
            mask &= data[a] + data[b] > value
        rows = np.nonzero(mask)[0]
        if select.order:
            keys = tuple(data[name][rows] for name in reversed(select.order))
            rows = rows[np.lexsort(keys)]
        if select.limit is not None:
            rows = rows[: select.limit]
        return rows

    def expect(self, op):
        """The digest a correct answer to ``op`` has."""
        visible = self._visible(op)
        select = op.selects[0]
        if op.mydb_def is not None:
            # A read of mydb.x: the table holds what its defining select
            # returned; the read filters those rows again.
            table_rows = self.select_rows(op.mydb_def, visible)
            inside = np.zeros(len(self.data), dtype=bool)
            inside[table_rows] = True
            visible = inside
        if len(op.selects) == 2:
            left = self.data["objid"][self.select_rows(op.selects[0], visible)]
            right = self.data["objid"][self.select_rows(op.selects[1], visible)]
            return _rows_digest(np.intersect1d(left, right), ordered=False)
        rows = self.select_rows(select, visible)
        if select.aggregate is None:
            return _rows_digest(self.data["objid"][rows], bool(select.order))
        if select.aggregate == "count":
            return ("count", (len(rows),))
        kinds = self.data["objtype"][rows]
        mags = self.data["mag_r"][rows].astype(np.float64)
        groups = []
        for kind in np.unique(kinds):
            members = kinds == kind
            groups.append(
                (int(kind), int(members.sum()), float(mags[members].mean()))
            )
        return ("group", tuple(groups))

