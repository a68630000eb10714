"""Columnar object tables backed by numpy structured arrays.

The archive moves data in bulk (scans, hash redistributions, river
streams); a structured array with schema metadata is our in-memory unit of
exchange.  Row subsets and column projections return *new* tables that
share no mutable state with the source, so query nodes can run
concurrently without locking.

A row subset or a concatenation moves whole records as bytes
(:func:`take_records`, :func:`concat_records`): numpy copies a
structured array one field at a time, 3–5× slower over the 50-field
photo record than a gather of the same rows viewed as opaque
``np.void`` records.  A scan keeping a few columns gathers only those
(:func:`take_columns`).  Every row copy in the engine goes through
these three functions.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.schema import Schema

__all__ = ["ObjectTable", "concat_records", "take_columns", "take_records"]


def _records(dtype):
    """One opaque ``np.void`` of ``dtype``'s size: a whole record."""
    return np.dtype((np.void, dtype.itemsize))


def take_records(data, index):
    """Rows of a structured array by index array, boolean mask or slice,
    as a new writeable array bit-identical to ``data[index]`` — gathered
    as whole records, not field by field.  Bad indices and masks of the
    wrong length raise ``IndexError`` as ``data[index]`` does.
    """
    records = data.view(_records(data.dtype))[index]
    if isinstance(index, slice):  # a basic slice is a view: copy it
        records = records.copy()
    return records.view(data.dtype)


def concat_records(arrays, dtype):
    """Same-``dtype`` structured arrays, in order, as one new array —
    bit-identical to ``np.concatenate``, copied as whole records
    (strided inputs included) where numpy's structured concatenation
    pays ~60 µs per input and copies field by field."""
    records = _records(dtype)
    return np.concatenate([a.view(records) for a in arrays]).view(dtype)


#: Below this share of a morsel's rows kept, :func:`take_columns` indexes
#: each strided field directly, reading only the kept rows; at or above
#: it, ``np.take``, which first copies the whole field contiguous, is
#: faster.  Three photo columns of a 9 700-row morsel on a 2-CPU Xeon:
#: 1 % kept 0.068 ms with ``np.take`` against 0.008 ms indexed, 12.5 %
#: 0.088 against 0.049 ms, 50 % 0.127 against 0.185 ms; two tag columns
#: cross near 20 %.
SPARSE_SHARE = 1 / 8


def take_columns(data, mask, dtype):
    """The rows ``mask`` keeps of ``dtype``'s fields of ``data``, packed:
    one gather per column.  A sparse selection (under
    :data:`SPARSE_SHARE` of the rows) reads no other byte of a row."""
    out = np.empty(np.count_nonzero(mask), dtype)
    index = None if len(out) == len(data) else np.flatnonzero(mask)
    sparse = len(out) < len(data) * SPARSE_SHARE
    for name in dtype.names:
        if index is None:
            out[name] = data[name]
        elif sparse:
            out[name] = data[name][index]
        else:  # "clip": take writes into the strided field unbuffered
            np.take(data[name], index, axis=0, out=out[name], mode="clip")
    return out


class ObjectTable:
    """A schema-typed table of catalog objects.

    Parameters
    ----------
    schema:
        The :class:`Schema` describing the columns.
    data:
        A numpy structured array with exactly the schema's dtype, or
        ``None`` for an empty table.

    ``delivered`` is an optional execution annotation (a tuple of
    closed ``(lo, hi)`` container-id intervals) stamped on batches by
    delivery-tracked shard scans: every container whose selected rows
    are fully contained in the stream *up to and including this batch*.
    Derived tables (``take``/``select``/``concat``/...) never inherit
    it — the annotation is only meaningful on the exact batch it was
    stamped on.
    """

    __slots__ = ("schema", "data", "delivered")

    def __init__(self, schema, data=None):
        if not isinstance(schema, Schema):
            raise TypeError("schema must be a Schema")
        dtype = schema.numpy_dtype()
        if data is None:
            data = np.empty(0, dtype=dtype)
        else:
            data = np.asarray(data)
            if data.dtype != dtype:
                raise ValueError(
                    f"data dtype does not match schema {schema.name!r}: "
                    f"{data.dtype} != {dtype}"
                )
        self.schema = schema
        self.data = data
        self.delivered = None

    @classmethod
    def from_columns(cls, schema, columns):
        """Build from a dict of column name -> array (all same length)."""
        names = schema.field_names()
        missing = [n for n in names if n not in columns]
        if missing:
            raise KeyError(f"missing columns {missing} for schema {schema.name!r}")
        lengths = {len(np.atleast_1d(columns[n])) for n in names}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        n = lengths.pop()
        data = np.empty(n, dtype=schema.numpy_dtype())
        for name in names:
            data[name] = columns[name]
        return cls(schema, data)

    def __len__(self):
        return self.data.shape[0]

    def __getitem__(self, column):
        """Column access by name (returns the underlying array view)."""
        return self.data[column]

    def column(self, name):
        """Column array by name (alias of ``table[name]``)."""
        return self.data[name]

    def positions_xyz(self):
        """``(n, 3)`` array of the Cartesian unit vectors (cx, cy, cz)."""
        return np.stack([self.data["cx"], self.data["cy"], self.data["cz"]], axis=-1)

    def nbytes(self):
        """Bytes of packed record storage."""
        return int(self.data.nbytes)

    def take(self, indices_or_mask):
        """Row subset (index array, boolean mask or slice) as a new
        table: one gather of whole records (:func:`take_records`),
        never a view of the source."""
        return ObjectTable(self.schema, take_records(self.data, indices_or_mask))

    def select(self, mask):
        """Alias of :meth:`take` for boolean masks."""
        return self.take(np.asarray(mask, dtype=bool))

    def project(self, names, schema_name=None):
        """Column projection as a new table with a projected schema."""
        projected_schema = self.schema.project(names, schema_name)
        out = np.empty(len(self), dtype=projected_schema.numpy_dtype())
        for name in names:
            out[name] = self.data[name]
        return ObjectTable(projected_schema, out)

    def concat(self, other):
        """Row concatenation; schemas must match by name and dtype."""
        if other.schema.numpy_dtype() != self.schema.numpy_dtype():
            raise ValueError("cannot concat tables with different layouts")
        return ObjectTable(
            self.schema, concat_records([self.data, other.data], self.data.dtype)
        )

    def sort_by(self, column, descending=False):
        """New table sorted by one column."""
        order = np.argsort(self.data[column], kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    def iter_chunks(self, chunk_rows):
        """Yield consecutive row-slices as tables (no copies of the source)."""
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        for start in range(0, len(self), chunk_rows):
            yield ObjectTable(self.schema, self.data[start : start + chunk_rows])

    @staticmethod
    def concat_all(tables):
        """Concatenate a non-empty sequence of compatible tables.

        A single-table sequence returns that table as-is (no copy); more
        are copied by :func:`concat_records` (the dtypes are validated
        equal first).
        """
        tables = list(tables)
        if not tables:
            raise ValueError("concat_all needs at least one table")
        first = tables[0]
        if len(tables) == 1:
            return first
        dtype = first.schema.numpy_dtype()
        for t in tables:
            if t.schema is not first.schema and t.schema.numpy_dtype() != dtype:
                raise ValueError("cannot concat tables with different layouts")
        data = concat_records([t.data for t in tables], dtype)
        return ObjectTable(first.schema, data)

    def __repr__(self):
        return (
            f"ObjectTable({self.schema.name!r}, rows={len(self)}, "
            f"bytes={self.nbytes()})"
        )
