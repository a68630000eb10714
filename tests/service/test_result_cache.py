"""The generation-validated result cache: the deterministic CI gate.

The load-bearing assertions are counter-based, never timed: a valid
repeat is answered by a replay tree that reads *zero* containers, a
loader mutation flips the next lookup to a miss with exactly one
invalidation, and a corpus of representative queries returns
row-for-row identical tables with the cache on and off.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.query.parser import normalize_query
from repro.service import ResultCache, ServiceTier
from repro.session import Archive
from repro.storage.loader import ChunkLoader


def _owner(array):
    """The array that owns ``array``'s memory."""
    while array.base is not None:
        array = array.base
    return array

QUERY = "SELECT objid, mag_r FROM photo WHERE mag_r < 16"

# Representative shapes: filter, projection+arithmetic, geometry,
# aggregation, having, top-k, set ops — every one must be byte-stable
# under caching.
CORPUS = [
    "SELECT objid FROM photo WHERE mag_r < 16",
    "SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 16.5",
    "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)",
    "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype",
    (
        "SELECT objtype, COUNT(objid) AS n FROM photo "
        "GROUP BY objtype HAVING n > 100 ORDER BY n DESC"
    ),
    "SELECT objid, mag_r FROM photo ORDER BY mag_r, objid LIMIT 25",
    (
        "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)"
    ),
]


def _containers_read(job):
    return sum(
        stats.containers_read for stats in job.cursor.node_stats().values()
    )


class TestKeying:
    def test_normalization_folds_spelling(self):
        variants = [
            "SELECT objid FROM photo WHERE mag_r <> 16",
            "select objid from photo where mag_r != 16",
            "SELECT  objid\nFROM photo -- trailing comment\nWHERE mag_r != 16",
        ]
        keys = {ResultCache.key(text) for text in variants}
        assert len(keys) == 1

    def test_scope_and_options_split_keys(self):
        text = "SELECT objid FROM mydb.x"
        assert ResultCache.key(text, scope="alice") != ResultCache.key(
            text, scope="bob"
        )
        assert ResultCache.key(text, allow_tag_route=True) != ResultCache.key(
            text, allow_tag_route=False
        )

    def test_normalize_is_not_identity(self):
        assert (
            normalize_query("SELECT  objid FROM photo\nWHERE mag_r <> 2")
            == "SELECT objid FROM photo WHERE mag_r != 2"
        )


class TestCacheUnit:
    def test_fill_lookup_roundtrip(self, photo):
        cache = ResultCache()
        generations = {"photo": (1, 0)}
        key = ResultCache.key(QUERY)
        assert cache.fill(
            key, [photo], photo.schema, ["photo"], generations
        )
        entry = cache.lookup(key, lambda sources: generations)
        assert entry is not None and entry.batches == (photo,)
        assert cache.stats.hits == 1 and cache.stats.fills == 1

    def test_generation_move_invalidates(self, photo):
        cache = ResultCache()
        key = ResultCache.key(QUERY)
        cache.fill(key, [photo], photo.schema, ["photo"], {"photo": (1, 0)})
        assert cache.lookup(key, lambda sources: {"photo": (1, 1)}) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_mid_query_mutation_skips_fill(self, photo):
        cache = ResultCache()
        key = ResultCache.key(QUERY)
        assert not cache.fill(
            key,
            [photo],
            photo.schema,
            ["photo"],
            {"photo": (1, 0)},
            current_generations={"photo": (1, 3)},
        )
        assert len(cache) == 0

    def test_byte_budget_evicts_lru(self, photo):
        one = photo.take(np.arange(100))
        cache = ResultCache(max_bytes=one.nbytes() * 2 + 1)
        generations = {"photo": (1, 0)}
        for index in range(3):
            cache.fill(
                ResultCache.key(f"SELECT objid FROM photo WHERE mag_r < {index}"),
                [one],
                one.schema,
                ["photo"],
                generations,
            )
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert cache.total_bytes() <= cache.max_bytes

    def test_oversized_result_not_cached(self, photo):
        cache = ResultCache(max_bytes=8)
        assert not cache.fill(
            ResultCache.key(QUERY), [photo], photo.schema, ["photo"],
            {"photo": (1, 0)},
        )


class TestSessionCache:
    def test_repeat_reads_zero_containers(self, cached_session, same_rows):
        first = cached_session.submit(QUERY)
        table_first = first.cursor.to_table()
        assert not first.cache_hit
        assert _containers_read(first) > 0

        second = cached_session.submit(QUERY)
        table_second = second.cursor.to_table()
        assert second.cache_hit
        assert _containers_read(second) == 0  # the deterministic gate
        same_rows(table_first, table_second)

    def test_spelling_variant_still_hits(self, cached_session):
        cached_session.execute(QUERY).to_table()
        variant = cached_session.submit(
            "select objid,  mag_r from photo -- same query\n where mag_r <> 16"
        )
        variant.cursor.to_table()
        assert not variant.cache_hit  # <> vs < differ...
        hit = cached_session.submit(
            "select objid,  mag_r\nfrom photo where mag_r < 16"
        )
        hit.cursor.to_table()
        assert hit.cache_hit

    def test_io_report_carries_cache_counters(self, cached_session, tier):
        cached_session.execute(QUERY).to_table()
        job = cached_session.submit(QUERY)
        job.cursor.to_table()
        report = job.io_report()["cache"]
        assert report["hit"] is True
        assert report["hits"] == tier.cache.stats.hits >= 1
        assert 0.0 < report["hit_rate"] <= 1.0

    def test_loader_mutation_invalidates(
        self, cached_session, fresh_stores, tier, photo
    ):
        # Pin the route to the photo store (tag routing would make the
        # tag store this query's cached source instead).
        before = cached_session.submit(QUERY, allow_tag_route=False)
        rows_before = len(before.cursor.to_table())
        warm = cached_session.submit(QUERY, allow_tag_route=False)
        warm.cursor.to_table()
        assert warm.cache_hit and tier.cache.stats.hits == 1

        # One ordinary chunk load through the storage layer's mutation
        # seam — no cache-specific hooks anywhere near the call site.
        bright = photo.select(photo["mag_r"] < 16)
        assert len(bright) > 0
        bright.data["objid"] += photo["objid"].max()  # new objects
        ChunkLoader(fresh_stores["photo"]).load_chunk(bright)

        after = cached_session.submit(QUERY, allow_tag_route=False)
        table = after.cursor.to_table()
        assert not after.cache_hit
        assert tier.cache.stats.invalidations == 1
        # The re-executed result reflects the mutation: every loaded
        # row passes the predicate again, doubling the matches.
        assert len(table) == rows_before + len(bright)

    def test_a_cached_result_never_pins_a_superseded_arena(
        self, cached_session, fresh_stores, tier, photo
    ):
        # A scan whose WHERE passes every row hands out views of the
        # store's runs; the cached entry holds copies, so a load that
        # rewrites a run lets the memory under it go.
        store = fresh_stores["photo"]
        held = [run.data for run in store.snapshot.runs]
        job = cached_session.submit("SELECT * FROM photo")
        assert len(job.cursor.to_table()) == len(photo)
        assert len(tier.cache) == 1
        chunk = photo.take(np.arange(10))
        chunk.data["objid"] += photo["objid"].max()  # new objects
        ChunkLoader(store).load_chunk(chunk)
        runs = [run.data for run in store.snapshot.runs]
        superseded = [
            weakref.ref(_owner(run))
            for run in held
            if not any(np.shares_memory(run, kept) for kept in runs)
        ]
        assert superseded
        del job, held
        gc.collect()
        assert all(arena() is None for arena in superseded)

    def test_batch_class_also_cached(self, cached_session, same_rows):
        baseline = cached_session.execute(QUERY).to_table()
        job = cached_session.submit(QUERY, query_class="batch")
        assert job.wait(timeout=30).value == "done"
        assert job.cache_hit
        same_rows(baseline, job.cursor.to_table())

    @pytest.mark.parametrize("query", CORPUS)
    def test_corpus_identical_cache_on_off(
        self, cached_session, plain_session, same_rows, query
    ):
        """Row-for-row differential: cache off == cold miss == warm hit."""
        expected = plain_session.query_table(query)
        cold = cached_session.submit(query)
        same_rows(expected, cold.cursor.to_table())
        assert not cold.cache_hit
        warm = cached_session.submit(query)
        same_rows(expected, warm.cursor.to_table())
        assert warm.cache_hit


class TestRemoteCache:
    def test_cache_counters_cross_the_wire(self, fresh_stores, same_rows):
        from repro.net.server import ArchiveServer

        with ArchiveServer(stores=fresh_stores, cache=True) as server:
            with Archive.connect(server.url) as session:
                first = session.submit(QUERY)
                baseline = first.cursor.to_table()
                assert first.io_report()["cache"]["hit"] is False

                second = session.submit(QUERY)
                same_rows(baseline, second.cursor.to_table())
                report = second.io_report()["cache"]
                assert report["hit"] is True
                assert report["hits"] >= 1
                # The replay read nothing server-side either: the
                # remote node folds the server's per-node counters.
                reads = sum(
                    stats.containers_read
                    for stats in second.cursor.node_stats().values()
                )
                assert reads == 0

    def test_server_cache_defaults_off(self, fresh_stores):
        from repro.net.server import ArchiveServer

        with ArchiveServer(stores=fresh_stores) as server:
            with Archive.connect(server.url) as session:
                session.execute(QUERY).to_table()
                job = session.submit(QUERY)
                job.cursor.to_table()
                assert job.io_report()["cache"] is None
