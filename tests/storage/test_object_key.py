"""``objid`` is a key: every way rows enter a store refuses a repeat.

A store's ``objid`` values are the object pointers the set operations
intersect and the tag dereference follows, so a build, an append, a
chunk load, a partitioned archive's load and a MyDB ``INTO`` each raise
:class:`~repro.storage.DuplicateKeyError` — naming the store and the
ids — for rows whose ``objid`` is held already or repeats among them,
and leave what was there untouched.  Replicas are copies on purpose and
are not repeats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.table import ObjectTable
from repro.service import ServiceTier
from repro.session import Archive
from repro.storage import ChunkLoader, ContainerStore, DistributedArchive, DuplicateKeyError
from repro.storage.replication import replicate_archive


def renumbered(table, first):
    """A copy of ``table`` whose objids run from ``first``: new objects
    at the same positions."""
    data = table.data.copy()
    data["objid"] = np.arange(first, first + len(data))
    return ObjectTable(table.schema, data)


def _state(store):
    return store.generation, store.total_objects(), store.snapshot


class TestStore:
    def test_a_table_that_repeats_an_objid_is_refused(self, photo):
        table = photo.take(np.concatenate([np.arange(50), [7, 9]]))
        with pytest.raises(DuplicateKeyError) as excinfo:
            ContainerStore.from_table(table, depth=4)
        assert excinfo.value.objids == [7 + 1, 9 + 1]  # objids count from 1
        assert "photo_obj" in excinfo.value.store

    def test_a_repeated_chunk_is_refused_and_changes_nothing(self, photo):
        store = ContainerStore.from_table(photo.take(np.arange(200)), depth=4)
        loader = ChunkLoader(store)
        chunk = photo.take(np.arange(200, 260))
        loader.load_chunk(chunk)
        before = _state(store)
        with pytest.raises(DuplicateKeyError) as excinfo:
            loader.load_chunk(chunk)
        assert excinfo.value.objids == chunk["objid"][:5].tolist()
        assert str(excinfo.value).endswith("and 55 more already held or repeated")
        assert _state(store) == before
        assert len(loader.history) == 1

    def test_a_chunk_that_repeats_an_objid_within_itself_is_refused(self, photo):
        store = ContainerStore.from_table(photo.take(np.arange(100)), depth=4)
        chunk = photo.take(np.array([150, 151, 152, 151]))
        before = _state(store)
        with pytest.raises(DuplicateKeyError) as excinfo:
            ChunkLoader(store).load_chunk(chunk)
        assert excinfo.value.objids == [152]
        assert _state(store) == before

    def test_an_append_of_one_held_row_is_refused(self, photo):
        store = ContainerStore.from_table(photo.take(np.arange(100)), depth=4)
        row = photo.take(np.array([42]))
        with pytest.raises(DuplicateKeyError):
            store.append(row, store.container_ids_for(row))

    def test_keys_stay_sorted_through_loads_and_removals(self, photo):
        store = ContainerStore.from_table(photo.take(np.arange(0, 300, 2)), depth=4)
        ChunkLoader(store).load_chunk(photo.take(np.arange(1, 300, 2)))
        np.testing.assert_array_equal(store.snapshot.keys, np.sort(photo["objid"][:300]))
        store.remove(store.occupied_ids()[:3])
        np.testing.assert_array_equal(
            store.snapshot.keys, np.sort(store.rows()[0]["objid"])
        )

    def test_a_schema_without_objid_keeps_no_keys(self, photo):
        table = photo.project(["ra", "dec", "cx", "cy", "cz", "mag_r"])
        doubled = ObjectTable(table.schema, np.concatenate([table.data, table.data]))
        store = ContainerStore.from_table(doubled, depth=4)
        assert store.snapshot.keys is None
        assert store.total_objects() == 2 * len(photo)


class TestDistributedArchive:
    def test_a_row_held_by_another_server_is_refused(self, photo, tags):
        archive = DistributedArchive.from_table(photo, depth=4, n_servers=3)
        archive.attach_source("tag", tags)
        # The same objid at a position far away: it would land on a
        # server that does not hold it.
        first, far = 0, int(np.argmax(np.abs(photo["ra"] - photo["ra"][0])))
        moved = photo.take(np.array([far]))
        moved.data["objid"] = photo["objid"][first]
        owners = archive.partition_map.server_for_array(
            archive.servers[0].store.container_ids_for(photo.take(np.array([first, far])))
        )
        assert owners[0] != owners[1]
        loads = archive.server_loads()
        with pytest.raises(DuplicateKeyError) as excinfo:
            archive.load(moved)
        assert excinfo.value.objids == [int(photo["objid"][first])]
        assert "'photo'" in excinfo.value.store
        assert archive.server_loads() == loads

    def test_a_table_that_repeats_an_objid_across_servers_is_refused(self, photo):
        archive = DistributedArchive.from_table(photo.take(np.arange(100)), depth=4, n_servers=2)
        far = int(np.argmax(np.abs(photo["ra"] - photo["ra"][200])))
        chunk = photo.take(np.array([200, far]))
        chunk.data["objid"] = 10**9
        with pytest.raises(DuplicateKeyError):
            archive.load(chunk)
        assert archive.total_objects() == 100

    def test_replicas_are_not_repeats(self, photo):
        archive = DistributedArchive.from_table(photo.take(np.arange(2000)), depth=4, n_servers=3)
        assert replicate_archive(archive, replication_factor=2) > 0
        archive.load(photo.take(np.arange(2000, 2500)))
        with pytest.raises(DuplicateKeyError):
            archive.load(photo.take(np.arange(1990, 2010)))
        # The load dropped the replicas; every row is held once.
        assert archive.total_objects() == 2500


class TestMyDB:
    def test_an_into_whose_result_repeats_objid_is_refused(self, photo_store, tag_store):
        engine_stores = {"photo": photo_store, "tag": tag_store}
        with Archive.connect(stores=engine_stores, service=ServiceTier()) as session:
            with pytest.raises(DuplicateKeyError) as excinfo:
                session.execute(
                    "SELECT FLOOR(mag_r) AS objid, mag_r INTO mydb.binned FROM photo"
                ).to_table()
            assert excinfo.value.store == "mydb.binned"
            assert session.my_tables() == []
            session.execute("SELECT objid, mag_r INTO mydb.kept FROM photo").to_table()
            assert session.my_tables() == ["kept"]
