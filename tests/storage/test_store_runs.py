"""A load rewrites only where it lands, drawn.

A store's rows are a few immutable runs: a build is one, and a load
copies the stored rows of its *extent* — from the first trixel it
touches to the last — with its chunk into one new run and shares every
other run with the snapshot before it.  Drawn here: a page size so small
that a sweep step (``STEP_PAGES`` pages, the shortest run a load leaves)
is a few rows, a base store, and a sequence of chunks, some spatially
coherent, some scattered, some landing on trixels the store lacks.
After every load:

* the rows in sweep order are byte-identical to a fresh build of every
  row in load order, under the same index;
* every run but the new one shares memory with the previous snapshot,
  and the new one holds every touched trixel;
* the bytes copied (``LoadReport.bytes_rewritten``, the new run) are at
  most the extent plus two steps and one trixel — a run holds whole
  trixels, so a new run shorter than a step grows by whole trixels;
* no run is shorter than a step unless it is the whole store, so the
  store holds at most ``bytes / step + 1`` runs;
* the previous snapshot's runs hold the bytes they held, read-only.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.table import ObjectTable, concat_records
from repro.storage import ChunkLoader, ContainerStore, StoreSnapshot
import repro.storage.containers as containers_module


def _new_rows(photo, picks, objids):
    """Catalog rows ``picks`` as new objects (objid is a store's key)."""
    table = photo.take(np.asarray(picks, dtype=np.int64))
    table.data["objid"] = objids
    return table


def _check_load(store, chunk, step):
    before = store.snapshot
    held = [run.tobytes() for run in before.runs]
    touched = np.unique(store.container_ids_for(chunk))
    report = ChunkLoader(store).load_chunk(chunk)
    after = store.snapshot

    # The previous snapshot is as it was.
    assert [run.tobytes() for run in before.runs] == held
    assert not any(run.flags.writeable for run in before.runs + after.runs)

    # One new run, holding every touched trixel; the rest are shared.
    fresh = [
        r for r, run in enumerate(after.runs)
        if not any(np.shares_memory(run, old) for old in before.runs)
    ]
    assert len(fresh) == 1
    (r,) = fresh
    k = np.searchsorted(after.ids, touched)
    assert after.run_first[r] <= k.min() and k.max() < after.run_first[r + 1]
    assert report.bytes_rewritten == after.runs[r].nbytes

    # At most the extent, two steps and one trixel copied.
    row = after.dtype.itemsize
    at = np.searchsorted(before.ids, touched)
    end = at[-1] + np.isin(touched[-1], before.ids)
    extent = (before.offsets[end] - before.offsets[at[0]] + len(chunk)) * row
    least = -(-step // row) * row
    assert report.bytes_rewritten <= extent + 2 * least + after.sizes.max() * row

    # No run is shorter than a step unless it is the whole store.
    assert len(after.runs) == 1 or min(run.nbytes for run in after.runs) >= step
    assert len(after.runs) <= store.total_bytes() // step + 1
    assert after.run_rows == after.offsets[after.run_first].tolist()
    assert sum(len(run) for run in after.runs) == store.total_objects()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_load_copies_its_extent_and_shares_the_rest(photo, data):
    row = photo.data.dtype.itemsize
    step_rows = data.draw(st.integers(1, 12), label="step_rows")
    page_bytes = max(step_rows * row // containers_module.STEP_PAGES, 1)
    depth = data.draw(st.sampled_from([3, 4]), label="depth")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    order = np.argsort(photo.data["htmid"], kind="stable")
    n_base = data.draw(st.integers(0, 300), label="base")
    next_objid = 1
    with mock.patch.object(containers_module, "PAGE_BYTES", page_bytes):
        step = containers_module.STEP_PAGES * page_bytes
        picks = rng.choice(len(photo), size=n_base, replace=False)
        base = _new_rows(photo, picks, np.arange(next_objid, next_objid + n_base))
        next_objid += n_base
        store = ContainerStore.from_table(base, depth)
        loaded = [base.data]
        for kind in data.draw(
            st.lists(st.sampled_from(["coherent", "scattered"]), min_size=1, max_size=8),
            label="chunks",
        ):
            size = data.draw(st.integers(1, 40), label="size")
            if kind == "coherent":  # neighbours in sweep order
                start = data.draw(st.integers(0, len(photo) - size), label="start")
                picks = order[start : start + size]
            else:
                picks = rng.choice(len(photo), size=size, replace=False)
            chunk = _new_rows(photo, picks, np.arange(next_objid, next_objid + size))
            next_objid += size
            _check_load(store, chunk, step)
            loaded.append(chunk.data)

            # The rows in sweep order are a fresh build's, byte for byte.
            rows = np.concatenate(loaded)
            ids = store.container_ids_for(ObjectTable(chunk.schema, rows))
            fresh = StoreSnapshot.build(rows, ids)
            snapshot = store.snapshot
            got = concat_records(snapshot.runs, snapshot.dtype)
            assert got.tobytes() == fresh.runs[0].tobytes()
            np.testing.assert_array_equal(snapshot.ids, fresh.ids)
            np.testing.assert_array_equal(snapshot.offsets, fresh.offsets)
            np.testing.assert_array_equal(snapshot.keys, fresh.keys)


def test_a_build_is_one_run_and_rewrites_every_byte(photo):
    store = ContainerStore.from_table(photo, depth=5)
    snapshot = store.snapshot
    assert len(snapshot.runs) == 1 and snapshot.run_first == [0, len(snapshot.ids)]
    assert snapshot.rewritten == store.total_bytes() == photo.nbytes()
    assert "runs=1" in repr(store)
