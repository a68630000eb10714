"""A load rewrites only where it lands, drawn.

A store's rows are a few immutable runs, each with its own index and
pages: a build is one, and a load copies the stored rows of its
*extent* — from the first trixel it touches to the last, out to whole
pages — with its chunk into one new run and shares every other run with
the snapshot before it.  Drawn here: a page size so small that a sweep
step (``STEP_PAGES`` pages, the shortest run a load leaves) is a few
rows, a base store, and a sequence of chunks, some spatially coherent,
some scattered, some landing on trixels the store lacks.  After every
load:

* the rows in sweep order are byte-identical to a fresh build of every
  row in load order, under the same index, and the runs' own index
  pieces, concatenated, are that index;
* every run but the new one shares memory with the previous snapshot —
  and its index pieces are the previous snapshot's objects — and the new
  one holds every touched trixel;
* the load invalidates exactly the pool pages of the rows its new run
  took over, and a lap right after it misses exactly the new run's
  pages;
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
from repro.machines.sweep import SweepScanner
from repro.storage import ChunkLoader, ContainerStore, StoreSnapshot
import repro.storage.containers as containers_module


def _new_rows(photo, picks, objids):
    """Catalog rows ``picks`` as new objects (objid is a store's key)."""
    table = photo.take(np.asarray(picks, dtype=np.int64))
    table.data["objid"] = objids
    return table


def _lap(store):
    """One whole-catalog lap of a private sweep through the store's
    pool: the keys of the pages it missed."""
    pool, missed = store.buffer_pool, []
    fetch_many = pool.fetch_many

    def recording(owner, pages):
        flags = fetch_many(owner, pages)
        missed.extend(key for (key, _nbytes), hit in zip(pages, flags) if not hit)
        return flags

    with mock.patch.object(pool, "fetch_many", recording):
        scanner = SweepScanner(store)
        scanner.attach(sink=lambda _run: True)
        while scanner.step(containers_module.STEP_PAGES) is not None:
            pass
    return missed


def _keys(snapshot):
    return [page for page, _nbytes in snapshot.pages()]


def _check_load(store, chunk, step):
    _lap(store)  # every page resident
    before = store.snapshot
    held = [run.rows.tobytes() for run in before.runs]
    touched = np.unique(store.container_ids_for(chunk))
    pool = store.buffer_pool
    invalidations = pool.stats.invalidations
    with mock.patch.object(pool, "invalidate", wraps=pool.invalidate) as invalidate:
        report = ChunkLoader(store).load_chunk(chunk)
    after = store.snapshot

    # The previous snapshot is as it was.
    assert [run.rows.tobytes() for run in before.runs] == held
    assert not any(run.data.flags.writeable for run in before.runs + after.runs)

    # One new run, holding every touched trixel; the rest are shared,
    # and so are their index pieces.
    tokens = {run.token: run for run in before.runs}
    fresh = [r for r, run in enumerate(after.runs) if run.token not in tokens]
    assert len(fresh) == 1
    (r,) = fresh
    made = after.runs[r]
    assert not any(np.shares_memory(made.data, old.data) for old in before.runs)
    k = np.searchsorted(after.ids, touched)
    assert after.run_first[r] <= k.min() and k.max() < after.run_first[r + 1]
    assert report.bytes_rewritten == made.data.nbytes
    for run in after.runs:
        if run is not made:
            old = tokens[run.token]
            assert run.data is old.data and run.ids is old.ids and run.offsets is old.offsets
            assert run.id_list is old.id_list and run.offset_list is old.offset_list
            assert run.page_of is old.page_of and run.page_first is old.page_first
            assert run.before is old.before

    # The pool forgot exactly the pages of the rows the new run took
    # over, and a lap misses exactly the new run's pages.
    replaced = set(_keys(before)) - set(_keys(after))
    gone = [page for call in invalidate.call_args_list for page in call.args[1]]
    assert len(gone) == len(set(gone)) and set(gone) == replaced
    assert pool.stats.invalidations - invalidations == len(replaced)
    missed = _lap(store)
    assert len(missed) == len(set(missed))
    assert set(missed) == {made.token + p for p in made.pages(made.lo, made.hi)}

    # At most the extent, two steps and one trixel copied (the pages are
    # smaller than a row here, so whole pages are whole trixels).
    row = after.dtype.itemsize
    at = np.searchsorted(before.ids, touched)
    end = at[-1] + np.isin(touched[-1], before.ids)
    extent = (before.offsets[end] - before.offsets[at[0]] + len(chunk)) * row
    least = -(-step // row) * row
    assert report.bytes_rewritten <= extent + 2 * least + after.sizes.max() * row

    # No run is shorter than a step unless it is the whole store.
    assert len(after.runs) == 1 or min(run.rows.nbytes for run in after.runs) >= step
    assert len(after.runs) <= store.total_bytes() // step + 1
    assert after.run_rows == after.offsets[after.run_first].tolist()
    assert sum(len(run.rows) for run in after.runs) == store.total_objects()


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
            got = concat_records([run.rows for run in snapshot.runs], snapshot.dtype)
            assert got.tobytes() == fresh.runs[0].rows.tobytes()
            np.testing.assert_array_equal(snapshot.ids, fresh.ids)
            np.testing.assert_array_equal(snapshot.offsets, fresh.offsets)
            np.testing.assert_array_equal(snapshot.keys, fresh.keys)
            # The runs' own index pieces, concatenated, are that index.
            runs = snapshot.runs
            ids = np.concatenate([run.ids[run.lo : run.hi] for run in runs])
            sizes = np.concatenate([np.diff(run.offsets)[run.lo : run.hi] for run in runs])
            np.testing.assert_array_equal(ids, fresh.ids)
            np.testing.assert_array_equal(sizes, fresh.sizes)
            for run in runs:
                assert run.id_list == run.ids.tolist()
                assert run.offset_list == run.offsets.tolist()


def test_a_build_is_one_run_and_rewrites_every_byte(photo):
    store = ContainerStore.from_table(photo, depth=5)
    snapshot = store.snapshot
    assert len(snapshot.runs) == 1 and snapshot.run_first == [0, len(snapshot.ids)]
    assert (snapshot.runs[0].lo, snapshot.runs[0].hi) == (0, len(snapshot.ids))
    assert snapshot.rewritten == store.total_bytes() == photo.nbytes()
    assert "runs=1" in repr(store)
