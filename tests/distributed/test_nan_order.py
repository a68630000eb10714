"""NaN sort keys through every ORDER BY path.

``SQRT(mag_r - 20)`` is NaN for every object brighter than 20th
magnitude — a computed sort key of the kind SkyServer users write every
day.  Every ORDER BY, on one store or fanned out, sorts NaN as the
largest value (last ascending, first descending, all NaNs tied), so the
answer on the in-process archive (1, 2 and 5 servers) and on a
two-endpoint remote cluster must equal the single-store answer position
for position.  Each query runs as a batch job with a bounded wait, so a
merge that never finishes fails in seconds.
"""

import numpy as np
import pytest

from repro.net import ArchiveServer
from repro.session import Archive

#: seconds a query may take before the test gives up on it
WAIT_S = 10.0

KEY = "SQRT(mag_r - 20) AS s"
#: each mixes NaN and numbers (459 of the 6 732 test objects are
#: brighter than 20th magnitude): a LIMIT reaches past the NaN block
#: descending and into it ascending
NAN_QUERIES = [
    pytest.param(f"SELECT objid, {KEY} FROM photo ORDER BY s", id="asc"),
    pytest.param(f"SELECT objid, {KEY} FROM photo ORDER BY s DESC", id="desc"),
    pytest.param(
        f"SELECT objid, {KEY} FROM photo ORDER BY s LIMIT 6500", id="asc-limit"
    ),
    pytest.param(
        f"SELECT objid, {KEY} FROM photo ORDER BY s DESC LIMIT 600", id="desc-limit"
    ),
    pytest.param(
        f"SELECT objid, {KEY} FROM photo WHERE mag_r < 21 ORDER BY s DESC, objid",
        id="two-keys",
    ),
    pytest.param(
        f"SELECT objid, {KEY} FROM photo ORDER BY s, objid DESC LIMIT 6400",
        id="two-keys-limit",
    ),
]


def run_bounded(session, query):
    """The query's table, or a test failure once ``WAIT_S`` passed."""
    job = session.submit(query, query_class="batch")
    if not job.wait(timeout=WAIT_S).is_terminal():
        job.cancel()
        pytest.fail(f"{query!r} did not finish within {WAIT_S} s")
    assert job.state.value == "done", job.error
    return job.cursor.to_table()


def assert_nan_placed(values, descending):
    """NaNs form one block at the end (ascending) or the start
    (descending), and the other values are in order."""
    nan = np.isnan(values)
    assert nan.any() and not nan.all(), "the query must mix NaN and numbers"
    count = int(nan.sum())
    block = nan[:count] if descending else nan[len(nan) - count:]
    assert block.all()
    numbers = values[~nan]
    steps = np.diff(numbers)
    assert bool(np.all(steps <= 0 if descending else steps >= 0))


@pytest.fixture(scope="module")
def expected(engine):
    """Each query's single-store answer."""
    with Archive.connect(engine) as session:
        yield {
            param.values[0]: run_bounded(session, param.values[0])
            for param in NAN_QUERIES
        }


@pytest.fixture(scope="module")
def cluster_session(make_archive):
    """A two-endpoint remote cluster over a 2-server partitioning."""
    archive = make_archive(2)
    servers = [ArchiveServer(stores=node.stores()).start() for node in archive.servers]
    try:
        with Archive.connect([server.url for server in servers]) as session:
            yield session
    finally:
        for server in servers:
            server.stop()


def check(expected_table, got):
    assert len(got) == len(expected_table)
    np.testing.assert_array_equal(got["objid"], expected_table["objid"])
    np.testing.assert_array_equal(got["s"], expected_table["s"])


@pytest.mark.parametrize("query", NAN_QUERIES)
def test_single_store_places_nan_last_ascending_first_descending(expected, query):
    assert_nan_placed(np.asarray(expected[query]["s"]), "ORDER BY s DESC" in query)


@pytest.mark.parametrize("n_servers", (1, 2, 5))
@pytest.mark.parametrize("query", NAN_QUERIES)
def test_in_process_archive_matches_single_store(expected, dsessions, n_servers, query):
    check(expected[query], run_bounded(dsessions[n_servers], query))


@pytest.mark.parametrize("query", NAN_QUERIES)
def test_remote_cluster_matches_single_store(expected, cluster_session, query):
    check(expected[query], run_bounded(cluster_session, query))
