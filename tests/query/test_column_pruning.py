"""A scan gathers only the columns read above it, and no answer changes.

Every query of ``CORPUS`` runs over one store, an in-process partitioned
archive and a 2-endpoint cluster.  What each returns — the result's
schema, the statically declared schema, the row count and a digest of
the rows' bytes (in result order for an ``ORDER BY``, sorted otherwise)
— must equal ``golden_pruned_answers.json``, captured before scans
gathered column subsets, when every scan emitted whole rows and every
select list ran a projection over them.

The corpus is the pruning's corner cases: an ORDER BY key that is not
projected, a duplicated and an aliased column, select lists of
literals only (nothing to gather), a hidden GROUP BY key and HAVING,
the positions a spatial sort key reads, tag-routed queries and
``SELECT *``.

A shard server's declared schema is what the wire and the coordinator's
merge trust, so every batch a shard half streams must carry exactly it.

To re-capture (at the commit whose answers are the reference): delete
the JSON file and run this module once; the run writes it and skips.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.htm.ranges import RangeSet
from repro.net import ArchiveServer
from repro.query.engine import start_tree
from repro.query.errors import PlanError
from repro.session import Archive
from repro.storage import DistributedArchive

GOLDEN = pathlib.Path(__file__).with_name("golden_pruned_answers.json")

#: (query, ordered): an ordered answer is compared row for row, any
#: other one as a sorted bag of rows
CORPUS = [
    ("SELECT objid FROM photo WHERE mag_r < 17 ORDER BY mag_r, objid", True),
    (
        "SELECT objid, ra FROM photo WHERE petro_r90 > 3 "
        "ORDER BY dec DESC, objid LIMIT 20",
        True,
    ),
    ("SELECT objid, mag_r, objid AS again FROM photo WHERE mag_r < 16.5", False),
    ("SELECT mag_r AS m, objid FROM photo WHERE mag_r < 16.5", False),
    ("SELECT 1 AS one FROM photo WHERE mag_r < 16.5", False),
    ("SELECT 2.5, STAR FROM photo WHERE mag_u < 18", False),
    ("SELECT 1 AS one FROM photo WHERE mag_r < 16.5 ORDER BY one", True),
    ("SELECT COUNT(objid) AS n FROM photo GROUP BY objtype", True),
    (
        "SELECT objtype, MAX(mag_r) AS hi FROM photo "
        "GROUP BY objtype HAVING hi > 20",
        True,
    ),
    (
        "SELECT COUNT(objid) AS n FROM photo WHERE mag_r < 20 "
        "GROUP BY FLOOR(mag_r) HAVING n > 10",
        True,
    ),
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 17", False),
    ("SELECT objid, mag_g FROM photo", False),
    ("SELECT objid, ra, dec FROM photo WHERE ra + dec > 300", False),
    ("SELECT objid, petro_r90 FROM photo WHERE CIRCLE(40, 30, 10)", False),
    (
        "SELECT objid FROM photo WHERE CIRCLE(40, 30, 2) "
        "ORDER BY DIST_ARCMIN(40, 30), objid LIMIT 10",
        True,
    ),
    (
        "SELECT objid, DIST_ARCMIN(40, 30) AS d FROM photo "
        "WHERE CIRCLE(40, 30, 3) ORDER BY d, objid",
        True,
    ),
    ("SELECT * FROM photo WHERE mag_r < 15.5", False),
    ("SELECT * FROM photo WHERE CIRCLE(40, 30, 2) ORDER BY objid", True),
    (
        "(SELECT objid FROM photo WHERE mag_r < 17) INTERSECT "
        "(SELECT objid FROM photo WHERE ra > 180 ORDER BY dec)",
        False,
    ),
]
BACKENDS = ("stores", "archive", "cluster")


def describe(schema):
    """``name(field dtype[shape], ...)``: everything of a schema a table's
    bytes and the wire depend on."""
    if schema is None:
        return None
    fields = (
        f"{f.name} {np.dtype(f.dtype).str}{list(f.shape) if f.shape else ''}"
        for f in schema.fields
    )
    return f"{schema.name}({', '.join(fields)})"


def answer(session, text, ordered):
    job = session.submit(text)
    table = job.cursor.to_table()
    record = {"static": describe(job.static_schema), "rows": 0}
    if table is not None:
        rows = [row.tobytes() for row in table.data]
        if not ordered:
            rows.sort()
        record.update(
            schema=describe(table.schema),
            rows=len(rows),
            digest=hashlib.sha256(b"".join(rows)).hexdigest(),
        )
    return record


@pytest.fixture(scope="module")
def sessions(photo, tags, photo_store, tag_store):
    """One session per backend, keyed as in ``BACKENDS``."""
    archive = DistributedArchive.from_table(photo, depth=5, n_servers=3)
    archive.attach_source("tag", tags)
    halves = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    halves.attach_source("tag", tags)
    with contextlib.ExitStack() as stack:
        servers = [
            stack.enter_context(ArchiveServer(stores=node.stores()))
            for node in halves.servers
        ]
        sessions = {
            "stores": Archive.connect(stores={"photo": photo_store, "tag": tag_store}),
            "archive": Archive.connect(archive=archive),
            "cluster": Archive.connect([server.url for server in servers]),
        }
        for session in sessions.values():
            stack.enter_context(session)
        yield sessions


@pytest.fixture(scope="module")
def answers(sessions):
    got = {
        text: {
            backend: answer(session, text, ordered)
            for backend, session in sessions.items()
        }
        for text, ordered in CORPUS
    }
    if not GOLDEN.exists():
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"captured {GOLDEN.name}; run again to compare")
    return got


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("text", [text for text, _ordered in CORPUS])
def test_answer_matches_the_whole_row_answer(answers, text, backend):
    golden = json.loads(GOLDEN.read_text())[text][backend]
    assert answers[text][backend] == golden
    assert golden["rows"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "text",
    [
        "SELECT objid, objid FROM photo WHERE mag_r < 15",
        "SELECT COUNT(objid) AS n, MAX(mag_r) AS n FROM photo",
    ],
)
def test_a_column_named_twice_is_a_plan_error(sessions, text, backend):
    # An alias tells two copies apart: the corpus's `objid AS again`.
    with pytest.raises(PlanError, match="rename one with AS"):
        sessions[backend].submit(text)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT objtype, AVG(mag_r) AS m, SUM(mag_r) AS m__sum, "
        "COUNT(objid) AS m__count FROM photo GROUP BY objtype",
        "SELECT COUNT(objid) AS __group0, AVG(mag_r) AS group0 FROM photo "
        "GROUP BY objtype",
    ],
)
def test_no_alias_clashes_with_a_partial_column(sessions, text):
    # A split aggregate ships AVG as sum(m) / count(m) and a hidden key
    # as group(0): names no alias can spell.
    tables = {backend: session.query_table(text) for backend, session in sessions.items()}
    want = tables["stores"]
    assert len(want) > 0
    for table in tables.values():
        assert describe(table.schema) == describe(want.schema)
        for name in want.schema.field_names():
            np.testing.assert_allclose(table[name], want[name], rtol=1e-5)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT objid, mag_r FROM photo WHERE mag_r < 19",
        "SELECT objid FROM photo WHERE mag_r < 19 ORDER BY mag_r",
        "SELECT mag_r AS m FROM photo WHERE mag_r < 19 ORDER BY objid DESC",
        "SELECT 1 AS one FROM photo WHERE mag_r < 19 ORDER BY one",
        "SELECT objtype, AVG(mag_r) AS m FROM photo GROUP BY objtype",
        "SELECT COUNT(objid) AS n FROM photo GROUP BY objtype",
        "SELECT COUNT(objid) AS n, SUM(mag_r) AS s, AVG(mag_r) AS m FROM photo",
        "SELECT objtype, AVG(objid) AS m FROM photo GROUP BY objtype",
        "SELECT objtype, MIN(mag_r) AS lo, MAX(mag_g) AS hi FROM photo "
        "GROUP BY objtype",
        "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype "
        "HAVING n > 10 ORDER BY n DESC LIMIT 2",
        "SELECT objid, petro_r90 FROM photo WHERE CIRCLE(40, 30, 10) ORDER BY ra",
        "SELECT * FROM photo WHERE mag_r < 17 ORDER BY mag_r",
    ],
)
def test_a_shard_streams_the_schema_it_declares(engine, photo_store, text):
    everything = RangeSet.from_ids(photo_store.occupied_ids()).intervals
    prepared = engine.prepare_shard(text, 0, everything)
    root = prepared.root
    start_tree(root)
    batches = list(root.output)
    for node in root.walk():
        node.join(timeout=10.0)
        assert not node.is_alive()
    assert batches
    for batch in batches:
        assert describe(batch.schema) == describe(prepared.schema)
        assert batch.data.dtype == prepared.schema.numpy_dtype()
