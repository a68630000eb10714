"""Operations the generators emit: a query's text for the program and the
same query as plain data for the oracle.

The program under test sees only ``Op.text`` (and, for ``ingest_mix``,
the chunk tables).  The oracle never parses the text: it evaluates the
``Select`` fields with numpy over the raw catalog.
"""

from __future__ import annotations

from dataclasses import dataclass


def _number(value):
    """A literal the query lexer reads back as exactly ``value``."""
    return repr(float(value)) if isinstance(value, float) else repr(int(value))


@dataclass(frozen=True)
class Select:
    """One SELECT.

    ``region`` is ``("circle", ra, dec, radius)``, ``("rect", ra_min,
    ra_max, dec_min, dec_max)``, ``("latband", dec_min, dec_max)`` or
    ``("polygon", ((ra, dec), ...))``, all in degrees.  ``cuts`` are
    ``(column, "<", value)`` conjuncts; ``linear`` is ``(a, b, value)``
    meaning ``a + b > value``.  ``aggregate`` is ``"group"`` (``AVG(mag_r)``
    and ``COUNT(objid)`` per ``objtype``) or ``"count"``.
    """

    columns: tuple = ("objid",)
    source: str = "photo"
    region: tuple | None = None
    cuts: tuple = ()
    linear: tuple | None = None
    aggregate: str | None = None
    order: tuple = ()
    limit: int | None = None
    into: str | None = None

    def sql(self):
        if self.aggregate == "group":
            columns = "objtype, AVG(mag_r) AS m, COUNT(objid) AS n"
        elif self.aggregate == "count":
            columns = "COUNT(objid) AS n"
        else:
            columns = ", ".join(self.columns)
        parts = [f"SELECT {columns}"]
        if self.into:
            parts.append(f"INTO {self.into}")
        parts.append(f"FROM {self.source}")
        where = []
        if self.region is not None:
            where.append(_region_sql(self.region))
        where.extend(f"{col} {op} {_number(val)}" for col, op, val in self.cuts)
        if self.linear is not None:
            a, b, value = self.linear
            where.append(f"{a} + {b} > {_number(value)}")
        if where:
            parts.append("WHERE " + " AND ".join(where))
        if self.aggregate == "group":
            parts.append("GROUP BY objtype")
        if self.order:
            parts.append("ORDER BY " + ", ".join(self.order))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


def _region_sql(region):
    kind = region[0]
    if kind == "circle":
        return "CIRCLE({}, {}, {})".format(*map(_number, region[1:]))
    if kind == "rect":
        return "RECT({}, {}, {}, {})".format(*map(_number, region[1:]))
    if kind == "latband":
        return "LATBAND({}, {})".format(*map(_number, region[1:]))
    if kind == "polygon":
        flat = [_number(x) for vertex in region[1] for x in vertex]
        return "POLYGON({})".format(", ".join(flat))
    raise ValueError(f"unknown region kind {kind!r}")


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``shape`` names the op shape (reported per shape in the result file).
    A query op carries one ``Select`` (two for ``INTERSECT``).  A
    ``mydb`` read also carries ``mydb_def``, the select that last wrote
    the table it reads.  ``ingest_mix`` ops carry ``chunks_loaded``: how
    many chunks the store holds when the op runs; its load ops carry the
    index of the chunk to load and no select.
    """

    shape: str
    selects: tuple = ()
    #: every container of the source is swept (no spatial pruning)
    whole_catalog: bool = False
    mydb_def: Select | None = None
    chunks_loaded: int | None = None
    load_chunk: int | None = None

    @property
    def text(self):
        if len(self.selects) == 2:
            left, right = (s.sql() for s in self.selects)
            return f"({left}) INTERSECT ({right})"
        return self.selects[0].sql()

    @property
    def region(self):
        """The spatial predicate of the op, or ``None``."""
        return self.selects[0].region if self.selects else None
