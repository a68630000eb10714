"""The session differential corpus — the acceptance gate of the API.

Two references, one way in:

* a hand-written corpus of representative queries runs through the
  :class:`Session` facade over both in-process backends in *both* query
  classes (interactive streaming and batch-queued), asserting
  row-for-row identical results backend to backend; every query must
  also explain to a non-empty structured plan tree on both;
* seeded, generated operations (the gated benchmark's generators,
  imported, not copied) run on every backend shape — a store mapping, a
  partitioned archive, a cluster of archive servers — in both query
  classes, and each answer is checked row-exact and order-exact against
  the benchmark's numpy oracle, which shares no code with the archive.
"""

import itertools

import numpy as np
import pytest

from bench import gen
from bench.oracle import Oracle, digest_answer, same_answer
from repro.net import ArchiveServer
from repro.session import Archive, PlanTree
from repro.storage import DistributedArchive

# (query, mode): mode 'rows' compares canonically sorted rows, 'ordered'
# compares positionally (deterministic output order on both sides),
# 'count' checks cardinality only (LIMIT without ORDER BY picks
# implementation-defined rows).
CORPUS = [
    ("SELECT objid FROM photo WHERE mag_r < 16", "rows"),
    ("SELECT * FROM photo WHERE mag_r < 15", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 10) AND objtype = GALAXY", "rows"),
    ("SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 16.5", "rows"),
    ("SELECT objid FROM photo WHERE RECT(20, 60, 10, 40) AND mag_g < 18", "rows"),
    ("SELECT objid FROM photo WHERE mag_r < 0", "rows"),  # empty bag
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r, objid", "ordered"),
    ("SELECT objid, mag_r FROM photo ORDER BY mag_r DESC, objid LIMIT 25", "ordered"),
    (
        "SELECT objid, DIST_ARCMIN(40, 30) AS d FROM photo "
        "WHERE CIRCLE(40, 30, 3) ORDER BY d, objid",
        "ordered",
    ),
    ("SELECT objid FROM photo LIMIT 7", "count"),
    ("SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype", "ordered"),
    (
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype",
        "ordered",
    ),
    (
        "SELECT objtype, MIN(mag_r) AS lo, MAX(mag_r) AS hi, SUM(mag_g) AS s "
        "FROM photo GROUP BY objtype",
        "ordered",
    ),
    (
        "SELECT objtype, COUNT(objid) AS n FROM photo "
        "GROUP BY objtype HAVING n > 100 ORDER BY n DESC",
        "ordered",
    ),
    (
        "SELECT FLOOR(mag_r) AS bin, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 20 GROUP BY FLOOR(mag_r) ORDER BY bin",
        "ordered",
    ),
    (
        "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)",
        "rows",
    ),
    (
        "(SELECT objid FROM photo WHERE mag_r < 18) INTERSECT "
        "(SELECT objid FROM photo WHERE objtype = QUASAR)",
        "rows",
    ),
    (
        "((SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)) EXCEPT "
        "(SELECT objid FROM photo WHERE objtype = GALAXY)",
        "rows",
    ),
]


def _compare(expected, got, mode, same_rows):
    if mode == "count":
        n_expected = 0 if expected is None else len(expected)
        n_got = 0 if got is None else len(got)
        assert n_expected == n_got
        return
    same_rows(expected, got, ordered=(mode == "ordered"))


@pytest.mark.parametrize("query,mode", CORPUS)
def test_all_entry_points_agree(
    local_session, dist_session, same_rows, query, mode
):
    """Session over both backends in both query classes, row for row."""
    # Interactive class: the single-store answer is the reference.
    expected = local_session.query_table(query)
    _compare(expected, dist_session.query_table(query), mode, same_rows)

    # Session facade, batch class, both backends: queued on the
    # session's fair-share queue, results delivered on completion.
    for session in (local_session, dist_session):
        job = session.submit(query, query_class="batch")
        assert job.wait(timeout=30).value == "done"
        _compare(expected, job.cursor.to_table(), mode, same_rows)


@pytest.mark.parametrize("query,_mode", CORPUS)
def test_explain_is_structured_everywhere(
    local_session, dist_session, query, _mode
):
    """Every corpus query explains to a non-empty structured plan tree
    with the same representation on both backends."""
    for session in (local_session, dist_session):
        tree = session.explain(query)
        assert isinstance(tree, PlanTree)
        nodes = list(tree.walk())
        assert len(nodes) >= 1
        assert tree.find("scan"), "every plan bottoms out in scans"
        rendering = tree.render()
        assert rendering.strip()
        assert "scan" in rendering
    # The distributed tree additionally records the fan-out on at least
    # one merge point (exchange or merge_sort) or annotated shard root.
    dist_tree = dist_session.explain(query)
    fanout_nodes = [
        node for node in dist_tree.walk() if "servers" in node.detail
    ]
    assert fanout_nodes, "distributed explain must surface the fan-out"


# ----------------------------------------------------------------------
# one oracle, every backend
# ----------------------------------------------------------------------

ORACLE_SEED = 17


def _answer_rows(digest):
    return digest[1] if digest[0] in ("rows", "ordered") else len(digest[1])


@pytest.fixture(scope="module")
def oracle_ops(photo):
    """~40 generated ops with the digest a correct answer has.

    The suite's catalog is 6.7 k rows over the whole sky, so most of the
    generators' small cones are empty here: of 80 draws per spatial
    generator the ops with rows are kept (capped), plus two empty ones —
    an empty answer has to be right too.
    """
    oracle = Oracle(photo.data)
    rng = np.random.default_rng(ORACLE_SEED)
    ops = [(op, oracle.expect(op)) for op in itertools.islice(gen.scan_sweep(rng), 12)]
    for generator, cap in ((gen.cone_search, 12), (gen.cluster_gather, 9)):
        drawn = [
            (op, oracle.expect(op)) for op in itertools.islice(generator(rng), 80)
        ]
        whole = [pair for pair in drawn if pair[0].region is None]
        spatial = [pair for pair in drawn if pair[0].region is not None]
        with_rows = [pair for pair in spatial if _answer_rows(pair[1])]
        empty = [pair for pair in spatial if not _answer_rows(pair[1])]
        ops += whole[:3] + with_rows[:cap] + empty[:2]
    assert len(ops) >= 36
    return ops


@pytest.fixture(scope="module")
def oracle_backends(photo, tags, photo_store, tag_store, dist_archive):
    """A session per backend shape."""
    cluster_archive = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    cluster_archive.attach_source("tag", tags)
    servers = [
        ArchiveServer(stores=node.stores()).start()
        for node in cluster_archive.servers
    ]
    sessions = {
        "stores": Archive.connect(stores={"photo": photo_store, "tag": tag_store}),
        "archive": Archive.connect(archive=dist_archive),
        "cluster": Archive.connect([server.url for server in servers]),
    }
    yield sessions
    for session in sessions.values():
        session.close()
    for server in servers:
        server.stop()


def _wrong_answers(oracle_ops, run):
    wrong = []
    for op, expected in oracle_ops:
        got = digest_answer(op, run(op.text))
        if not same_answer(expected, got):
            wrong.append((op.text, expected[:2], got[:2]))
    return wrong


@pytest.mark.parametrize("backend", ["stores", "archive", "cluster"])
def test_generated_ops_match_the_numpy_oracle(oracle_ops, oracle_backends, backend):
    session = oracle_backends[backend]
    assert _wrong_answers(oracle_ops, lambda text: list(session.execute(text))) == []


@pytest.mark.parametrize("backend", ["stores", "archive", "cluster"])
def test_generated_ops_match_the_numpy_oracle_in_the_batch_class(
    oracle_ops, oracle_backends, backend
):
    """The same ops queued through the batch class: run to completion
    by the session's dispatcher, delivered from the cursor's buffer."""
    session = oracle_backends[backend]

    def run(text):
        job = session.submit(text, query_class="batch")
        assert job.wait(timeout=30).value == "done"
        return list(job.cursor)

    assert _wrong_answers(oracle_ops, run) == []
