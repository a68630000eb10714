"""Set-op fusion: a UNION, INTERSECT or EXCEPT of two bare SELECTs over
one source is one SELECT (``repro.query.physical.fuse_set_op``).

* the rule — which ASTs it rewrites, into what, and which it leaves to
  the set nodes;
* differential — fused queries (NaN-valued terms, a region on either
  side, an empty side, EXCEPT of a region) on a store mapping, a
  partitioned archive, a 2-endpoint cluster and one ``archive://``
  server, in both query classes, against a numpy reference written
  here; shapes the rule leaves alone still build their set node and
  answer the same, and a fused UNION answers row for row as the
  ``UnionNode`` it replaces;
* refused — a UNION whose sides select different columns is a
  ``PlanError`` at planning on every backend;
* one scan — a fused query's EXPLAIN is one scan (or one exchange)
  naming the rule, and the cluster coordinator sends each endpoint one
  shard ``submit`` for it.
"""

from __future__ import annotations

import contextlib
import threading
import warnings

import numpy as np
import pytest

from repro.catalog.schema import ObjectType
from repro.net import ArchiveServer
from repro.net.faults import FaultPolicy
from repro.query import parse_query
from repro.query.ast_nodes import BinaryOp, Select, UnaryOp
from repro.query.errors import ExecutionError, PlanError
from repro.query import physical
from repro.query.parser import parse_expression
from repro.query.physical import SET_OP_FUSION, fuse_set_op, query_selects
from repro.session import Archive
from repro.storage import DistributedArchive

BRIGHT = "SELECT objid FROM photo WHERE mag_r < 18"
BLUE = "SELECT objid FROM photo WHERE mag_g < 19"


def fused(text):
    return fuse_set_op(parse_query(text))


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------


class TestRule:
    def test_intersect_is_the_conjunction_with_the_left_select_list(self):
        select = fused(
            "(SELECT objid, mag_r FROM photo WHERE mag_r < 18) INTERSECT "
            "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 5))"
        )
        left = parse_query("SELECT objid, mag_r FROM photo WHERE mag_r < 18")
        assert isinstance(select, Select)
        assert select.columns == left.columns and select.source == "photo"
        assert select.where == BinaryOp(
            "AND", parse_expression("mag_r < 18"), parse_expression("CIRCLE(40, 30, 5)")
        )

    def test_except_negates_the_right_where(self):
        select = fused(f"({BRIGHT}) EXCEPT ({BLUE})")
        assert select.where == BinaryOp(
            "AND",
            parse_expression("mag_r < 18"),
            UnaryOp("NOT", parse_expression("mag_g < 19")),
        )

    def test_union_is_the_disjunction(self):
        select = fused(f"({BRIGHT}) UNION (SELECT objid FROM photo WHERE CIRCLE(40, 30, 5))")
        assert select.columns == parse_query(BRIGHT).columns
        assert select.where == BinaryOp(
            "OR", parse_expression("mag_r < 18"), parse_expression("CIRCLE(40, 30, 5)")
        )
        assert fused(f"(SELECT objid FROM photo) UNION ({BLUE})").where is None
        assert fused(f"({BRIGHT}) UNION (SELECT objid FROM photo)").where is None

    def test_a_side_without_where_is_every_row(self):
        assert fused(f"({BRIGHT}) INTERSECT (SELECT objid FROM photo)") == parse_query(
            BRIGHT
        )
        everything = fused(f"({BRIGHT}) EXCEPT (SELECT objid FROM photo)")
        assert everything.where.right == UnaryOp("NOT", parse_expression("TRUE"))

    def test_nested_set_operations_fuse_from_the_inside(self):
        text = (
            f"(({BRIGHT}) INTERSECT ({BLUE})) EXCEPT "
            "(SELECT objid FROM photo WHERE objtype = QUASAR)"
        )
        assert len(query_selects(parse_query(text))) == 1
        # The inner INTERSECT fuses even when the outer UNION cannot.
        union = (
            f"(({BRIGHT}) INTERSECT ({BLUE})) UNION "
            "(SELECT objid FROM tag WHERE mag_r < 18)"
        )
        assert fused(union) is None
        assert len(query_selects(parse_query(union))) == 2
        # ... and an outer UNION of one source and one select list fuses.
        assert len(query_selects(parse_query(f"(({BRIGHT}) INTERSECT ({BLUE})) UNION ({BRIGHT})"))) == 1

    @pytest.mark.parametrize(
        "text",
        [
            f"(SELECT objid, mag_r FROM photo WHERE mag_r < 18) UNION ({BLUE})",
            f"({BRIGHT}) UNION (SELECT objid, mag_g FROM photo WHERE mag_g < 19)",
            f"({BRIGHT}) UNION ({BLUE} ORDER BY mag_g)",
            f"({BRIGHT}) INTERSECT ({BLUE} ORDER BY mag_g)",
            f"({BRIGHT} LIMIT 5) INTERSECT ({BLUE})",
            f"({BRIGHT}) EXCEPT (SELECT objid FROM tag WHERE mag_g < 19)",
            "(SELECT mag_r FROM photo WHERE mag_r < 18) INTERSECT "
            "(SELECT mag_r FROM photo WHERE mag_g < 19)",
            "(SELECT mag_r AS objid FROM photo) INTERSECT (SELECT mag_r AS objid FROM photo)",
            "(SELECT objtype, COUNT(objid) AS objid FROM photo GROUP BY objtype) "
            "INTERSECT (SELECT objid FROM photo)",
            "(SELECT COUNT(objid) AS n, objid FROM photo) INTERSECT (SELECT objid FROM photo)",
            # B's select list must be a part of A's, so B plans where A does.
            f"({BRIGHT}) INTERSECT (SELECT objid, mag_g FROM photo WHERE mag_g < 19)",
        ],
        ids=[
            "union-wider-left",
            "union-wider-right",
            "union-ordered-side",
            "ordered-side",
            "limited-side",
            "two-sources",
            "no-objid",
            "objid-alias",
            "grouped-side",
            "aggregate-side",
            "wider-right",
        ],
    )
    def test_other_shapes_do_not_fire(self, text):
        assert fused(text) is None


# ----------------------------------------------------------------------
# differential: three backends, two query classes, a numpy reference
# ----------------------------------------------------------------------


def _circle(data, ra, dec, radius):
    """Rows within ``radius`` degrees of ``(ra, dec)``."""
    ra0, dec0 = np.radians(ra), np.radians(dec)
    ra1, dec1 = np.radians(data["ra"]), np.radians(data["dec"])
    cosine = np.sin(dec0) * np.sin(dec1) + np.cos(dec0) * np.cos(dec1) * np.cos(ra1 - ra0)
    return cosine >= np.cos(np.radians(radius))


def _nan_term(values):
    """``SQRT(values - 20) < 1``: NaN, hence false, below 20."""
    with np.errstate(invalid="ignore"):
        return np.sqrt(values.astype(np.float64) - 20.0) < 1.0


#: name -> (query, reference(data) -> the rows the answer holds)
FUSED = {
    "intersect_nan": (
        "(SELECT objid, mag_r FROM photo WHERE SQRT(mag_r - 20) < 1) INTERSECT "
        "(SELECT objid FROM photo WHERE mag_g < 22)",
        lambda d: _nan_term(d["mag_r"]) & (d["mag_g"] < 22),
    ),
    "except_nan": (
        "(SELECT objid FROM photo WHERE mag_r < 21) EXCEPT "
        "(SELECT objid FROM photo WHERE SQRT(mag_g - 20) < 1)",
        lambda d: (d["mag_r"] < 21) & ~_nan_term(d["mag_g"]),
    ),
    "region_left": (
        "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 25)) INTERSECT "
        "(SELECT objid FROM photo WHERE mag_r < 20)",
        lambda d: _circle(d, 40, 30, 25) & (d["mag_r"] < 20),
    ),
    "region_right": (
        "(SELECT objid, ra, dec FROM photo WHERE mag_r < 20) INTERSECT "
        "(SELECT objid FROM photo WHERE CIRCLE(200, -10, 30))",
        lambda d: (d["mag_r"] < 20) & _circle(d, 200, -10, 30),
    ),
    "empty_right": (
        f"({BRIGHT}) INTERSECT (SELECT objid FROM photo WHERE mag_r < 0)",
        lambda d: np.zeros(len(d), dtype=bool),
    ),
    "except_empty_right": (
        f"({BRIGHT}) EXCEPT (SELECT objid FROM photo WHERE mag_r < 0)",
        lambda d: d["mag_r"] < 18,
    ),
    "empty_left": (
        f"(SELECT objid FROM photo WHERE mag_r < 0) EXCEPT ({BLUE})",
        lambda d: np.zeros(len(d), dtype=bool),
    ),
    "except_region": (
        "(SELECT objid FROM photo WHERE mag_r < 19) EXCEPT "
        "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 25))",
        lambda d: (d["mag_r"] < 19) & ~_circle(d, 40, 30, 25),
    ),
    "except_region_from_region": (
        "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 30)) EXCEPT "
        "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 10) AND mag_r < 21)",
        lambda d: _circle(d, 40, 30, 30) & ~(_circle(d, 40, 30, 10) & (d["mag_r"] < 21)),
    ),
    "union_overlap": (
        "(SELECT objid, mag_r FROM photo WHERE mag_r < 19) UNION "
        "(SELECT objid, mag_r FROM photo WHERE mag_r > 17 AND mag_g < 20)",
        lambda d: (d["mag_r"] < 19) | ((d["mag_r"] > 17) & (d["mag_g"] < 20)),
    ),
    "union_without_where": (
        f"({BRIGHT}) UNION (SELECT objid FROM photo)",
        lambda d: np.ones(len(d), dtype=bool),
    ),
    "union_regions": (
        "(SELECT objid, ra, dec FROM photo WHERE CIRCLE(40, 30, 20)) UNION "
        "(SELECT objid, ra, dec FROM photo WHERE CIRCLE(50, 35, 15) AND mag_r < 21)",
        lambda d: _circle(d, 40, 30, 20) | (_circle(d, 50, 35, 15) & (d["mag_r"] < 21)),
    ),
    "union_nan": (
        "(SELECT objid FROM photo WHERE SQRT(mag_r - 20) < 1) UNION "
        "(SELECT objid FROM photo WHERE mag_g < 18)",
        lambda d: _nan_term(d["mag_r"]) | (d["mag_g"] < 18),
    ),
    "chain": (
        f"(({BRIGHT}) INTERSECT ({BLUE})) EXCEPT "
        "(SELECT objid FROM photo WHERE objtype = GALAXY)",
        lambda d: (d["mag_r"] < 18)
        & (d["mag_g"] < 19)
        & (d["objtype"] != ObjectType.GALAXY.value),
    ),
}

#: shapes the rule leaves to a set node: name -> (query, node kind,
#: reference(data) as above)
UNFUSED = {
    "ordered_side": (
        f"({BRIGHT} ORDER BY mag_r) INTERSECT ({BLUE})",
        "intersect",
        lambda d: (d["mag_r"] < 18) & (d["mag_g"] < 19),
    ),
    "limited_side": (
        f"({BRIGHT}) EXCEPT (SELECT objid FROM photo WHERE mag_g < 19 "
        "ORDER BY objid LIMIT 40)",
        "difference",
        lambda d: (d["mag_r"] < 18)
        & ~np.isin(d["objid"], np.sort(d["objid"][d["mag_g"] < 19])[:40]),
    ),
    "two_sources": (
        f"({BRIGHT}) INTERSECT (SELECT objid FROM tag WHERE mag_g < 19)",
        "intersect",
        lambda d: (d["mag_r"] < 18) & (d["mag_g"] < 19),
    ),
    "union_two_sources": (
        f"({BRIGHT}) UNION (SELECT objid FROM tag WHERE mag_g < 19)",
        "union",
        lambda d: (d["mag_r"] < 18) | (d["mag_g"] < 19),
    ),
}


class _OpLog(FaultPolicy):
    """Records every wire op a server dispatches."""

    def __init__(self):
        self.ops = []
        self._lock = threading.Lock()

    def on_op(self, op, header):
        with self._lock:
            self.ops.append(op)

    def take(self):
        with self._lock:
            ops, self.ops = self.ops, []
        return ops


@pytest.fixture(scope="module")
def backends(photo, tags, photo_store, tag_store):
    """A session per backend shape, and the cluster servers' op logs."""
    archive = DistributedArchive.from_table(photo, depth=5, n_servers=3)
    archive.attach_source("tag", tags)
    halves = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    halves.attach_source("tag", tags)
    logs = [_OpLog() for _ in halves.servers]
    with contextlib.ExitStack() as stack:
        servers = [
            stack.enter_context(ArchiveServer(stores=node.stores(), fault_policy=log))
            for node, log in zip(halves.servers, logs)
        ]
        whole = stack.enter_context(
            ArchiveServer(stores={"photo": photo_store, "tag": tag_store})
        )
        sessions = {
            "stores": stack.enter_context(
                Archive.connect(stores={"photo": photo_store, "tag": tag_store})
            ),
            "archive": stack.enter_context(Archive.connect(archive=archive)),
            "cluster": stack.enter_context(
                Archive.connect([server.url for server in servers])
            ),
            # one server that plans the text itself: EXPLAIN is its plan
            "remote": stack.enter_context(Archive.connect(whole.url)),
        }
        yield sessions, logs


def _answer(session, text, query_class):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # SQRT of a negative
        job = session.submit(text, query_class=query_class)
        if query_class == "batch":
            assert job.wait(timeout=30).value == "done"
        return job.cursor.to_table()


def _check(photo, table, reference):
    data = photo.data
    expected = np.sort(data["objid"][reference(data)])
    got = np.sort(np.asarray(table["objid"])) if table is not None else np.empty(0)
    np.testing.assert_array_equal(got, expected)


BACKENDS = ["stores", "archive", "cluster", "remote"]
CLASSES = ["interactive", "batch"]


@pytest.mark.parametrize("query_class", CLASSES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(FUSED))
def test_a_fused_query_answers_as_the_reference(backends, photo, backend, query_class, name):
    text, reference = FUSED[name]
    sessions, _logs = backends
    _check(photo, _answer(sessions[backend], text, query_class), reference)


@pytest.mark.parametrize("query_class", CLASSES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(UNFUSED))
def test_an_unfused_query_keeps_its_set_node(backends, photo, backend, query_class, name):
    text, kind, reference = UNFUSED[name]
    sessions, _logs = backends
    session = sessions[backend]
    tree = session.explain(text)
    assert tree.kind == kind and "rule" not in tree.detail
    _check(photo, _answer(session, text, query_class), reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_side_without_objid_keeps_its_execution_error(backends, backend):
    sessions, _logs = backends
    text = (
        "(SELECT mag_r FROM photo WHERE mag_r < 18) INTERSECT "
        "(SELECT mag_r FROM photo WHERE mag_g < 19)"
    )
    assert sessions[backend].explain(text).kind == "intersect"
    with pytest.raises(ExecutionError, match="objid"):
        sessions[backend].query_table(text)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_union_of_different_columns_is_a_plan_error(backends, backend):
    """Sides whose rows cannot make one table are refused at planning,
    by EXPLAIN and by a submit alike, naming both column lists — over
    the wire too, with the error's class."""
    sessions, _logs = backends
    session = sessions[backend]
    for right in ("objid", "objid, mag_g"):
        text = (
            "(SELECT objid, mag_r FROM photo WHERE mag_r < 18) UNION "
            f"(SELECT {right} FROM photo WHERE mag_g < 23)"
        )
        with pytest.raises(PlanError, match=r"\['objid <i8', 'mag_r <f4'\] and") as caught:
            session.explain(text)
        assert "objid <i8" in str(caught.value).split(" and ")[1]
        with pytest.raises(PlanError, match="UNION sides select different columns"):
            session.submit(text)


def _rows(table):
    """The table's columns in ``objid`` order."""
    order = np.argsort(np.asarray(table["objid"]))
    return {name: np.asarray(table[name])[order] for name in table.data.dtype.names}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", [name for name in FUSED if name.startswith("union")])
def test_a_fused_union_answers_as_the_union_node(backends, backend, name, monkeypatch):
    text, _reference = FUSED[name]
    session = backends[0][backend]
    fused_rows = _rows(_answer(session, text, "interactive"))
    assert len(fused_rows["objid"])
    # Both ends of the wire run in this process, so switching the rule
    # off for UNION makes every backend plan the UnionNode.
    monkeypatch.setattr(
        physical,
        "fuse_set_op",
        lambda setop: None if setop.op == "UNION" else fuse_set_op(setop),
    )
    assert session.explain(text).kind == "union"
    node_rows = _rows(_answer(session, text, "interactive"))
    assert list(fused_rows) == list(node_rows)
    for column in fused_rows:
        np.testing.assert_array_equal(fused_rows[column], node_rows[column])


# ----------------------------------------------------------------------
# one scan
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(FUSED))
def test_a_fused_query_explains_as_one_scan_naming_the_rule(backends, name):
    text, _reference = FUSED[name]
    sessions, _logs = backends
    for backend, session in sessions.items():
        tree = session.explain(text)
        assert tree.detail["rule"] == SET_OP_FUSION, backend
        for kind in ("union", "intersect", "difference"):
            assert not tree.find(kind), backend
        merges = tree.find("exchange")
        assert len(merges) == (1 if backend in ("archive", "cluster") else 0), backend
    scans = sessions["archive"].explain(text).find("scan")
    assert len(scans) == len({scan.detail["server"] for scan in scans})


def test_the_cover_of_a_fused_query_is_the_intersection_or_the_left_sides(backends):
    sessions, _logs = backends
    archive = sessions["archive"]
    # INTERSECT: B's region narrows the cover, pruning servers.
    narrowed = archive.explain(
        "(SELECT objid FROM photo WHERE mag_r < 20) INTERSECT "
        "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 5))"
    )
    assert narrowed.detail.get("pruned")
    assert all(scan.detail.get("spatial_index") for scan in narrowed.find("scan"))
    # EXCEPT: B's region is negated, so it never becomes a cover.
    negated = archive.explain(
        "(SELECT objid FROM photo WHERE mag_r < 20) EXCEPT "
        "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 5))"
    )
    assert "pruned" not in negated.detail
    assert not any(scan.detail.get("spatial_index") for scan in negated.find("scan"))


def test_the_coordinator_sends_each_endpoint_one_submit_for_a_fused_query(backends, photo):
    sessions, logs = backends
    for log in logs:
        log.take()
    text, reference = FUSED["intersect_nan"]
    _check(photo, _answer(sessions["cluster"], text, "interactive"), reference)
    for log in logs:
        assert log.take().count("submit") == 1
    # The same query unfused (an ordered side) sends one per SELECT.
    sessions["cluster"].query_table(f"({BRIGHT} ORDER BY mag_r) INTERSECT ({BLUE})")
    for log in logs:
        assert log.take().count("submit") == 2
