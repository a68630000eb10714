"""Process-based partition shards: one OS process per server.

*"Splitting the data among multiple servers enables parallel, scalable
I/O"* — and on one machine the only way N shard sweeps actually use N
cores is N *processes*: threads sharing the coordinator's interpreter
serialize their predicate evaluation on the GIL.
:class:`ProcessShardCluster` turns each :class:`~repro.storage.cluster.
ServerNode` of a :class:`~repro.storage.cluster.DistributedArchive`
into a child process hosting that shard's containers behind an
:class:`~repro.net.server.ArchiveServer`, so the existing remote
scatter-gather coordinator (:class:`~repro.net.cluster.
RemotePartitionedExecutor`) drives them unchanged over ``archive://``
URLs.

The children are started with the ``spawn`` method, so nothing that
crosses the process boundary may depend on the parent's address space:
each shard travels as a *spawn-safe handle* — the shard's rows per
source as plain :class:`~repro.catalog.table.ObjectTable` pickles plus
the container depth — and the child re-clusters them with
:meth:`~repro.storage.containers.ContainerStore.from_table`.
Re-clustering is deterministic (container ids are a pure function of
object positions), so the child's containers are exactly the parent
shard's containers.

Wire-up lives in :meth:`~repro.session.core.Archive.connect`::

    session = Archive.connect(archive=dist, process_shards=True)

which builds the cluster, wraps it in a ``RemotePartitionedExecutor``,
and ties the cluster's lifetime to the session via ``Session.adopt``.

Like all ``spawn`` multiprocessing, this requires an importable
``__main__`` (a real script or test module behind an ``if __name__ ==
"__main__"`` guard) — children of an interactive/stdin parent die at
startup re-import, surfacing as the startup ``RuntimeError``.
"""

from __future__ import annotations

import multiprocessing
import queue
import time

__all__ = ["ProcessShardCluster", "shard_handles"]

#: seconds a child gets to report its bound port before startup fails
_START_TIMEOUT = 60.0
#: seconds a child gets to exit cleanly before it is terminated
_STOP_TIMEOUT = 10.0


def shard_handles(archive):
    """Spawn-safe handles for every server of a ``DistributedArchive``.

    One handle per :class:`~repro.storage.cluster.ServerNode`: a dict of
    ``{"depth": int, "sources": {name: ObjectTable}}`` holding exactly
    that shard's rows (every hosted source, tag tables included).  Each
    table is the store's rows in container order — its arena when it has
    no overflow — so the handle pickles without dragging the parent's
    stores, sweepers, or buffer pools across the spawn boundary.
    """
    return [
        {
            "depth": archive.depth,
            "sources": {name: s.rows()[0] for name, s in server.stores().items()},
        }
        for server in archive.servers
    ]


def _shard_main(shard_id, handle, ready, stop):
    """Child entry point: host one shard until told to stop.

    Module-level (spawn pickles it by qualified name).  Reports
    ``(shard_id, "ok", port)`` or ``(shard_id, "error", message)`` on
    ``ready``, then serves until ``stop`` is set.
    """
    try:
        from repro.net.server import ArchiveServer
        from repro.storage.containers import ContainerStore

        depth = handle["depth"]
        stores = {
            name: ContainerStore.from_table(table, depth)
            for name, table in handle["sources"].items()
        }
        server = ArchiveServer(stores=stores, port=0)
        server.start()
    except Exception as exc:  # startup failure -> structured report
        ready.put((shard_id, "error", f"{type(exc).__name__}: {exc}"))
        return
    ready.put((shard_id, "ok", server.port))
    try:
        stop.wait()
    finally:
        server.stop()


class ProcessShardCluster:
    """A ``DistributedArchive``'s shards, each hosted by its own process.

    Build with :meth:`from_archive`; :attr:`urls` lists one
    ``archive://127.0.0.1:<port>`` endpoint per shard, ready for
    :class:`~repro.net.cluster.RemotePartitionedExecutor` (or any
    ``Archive.connect`` URL-list backend).  ``close()`` signals every
    child, joins with a bounded timeout, and terminates stragglers —
    idempotent, and also run by a session that adopted the cluster.
    """

    def __init__(self, processes, stop_events, urls):
        self._processes = list(processes)
        self._stop_events = list(stop_events)
        self.urls = list(urls)
        self._closed = False

    @classmethod
    def from_archive(cls, archive, start_timeout=_START_TIMEOUT):
        """Spawn one shard server process per server of ``archive``.

        Each shard process is one more core's worth of scanning: this is
        how a query uses more than one core (every QET node is one
        thread).  Blocks until every child reports its bound port; a
        child that fails to start (or dies silently) tears the partial
        cluster down and raises :class:`RuntimeError`.
        """
        ctx = multiprocessing.get_context("spawn")
        ready = ctx.Queue()
        processes = []
        stop_events = []
        for index, handle in enumerate(shard_handles(archive)):
            stop = ctx.Event()
            process = ctx.Process(
                target=_shard_main,
                args=(index, handle, ready, stop),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            processes.append(process)
            stop_events.append(stop)
        cluster = cls(processes, stop_events, [])
        try:
            for process in processes:
                process.start()
            ports = {}
            deadline = time.monotonic() + float(start_timeout)
            while len(ports) < len(processes):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"shard processes failed to start within "
                        f"{start_timeout:.0f}s ({len(ports)}/{len(processes)} "
                        "reported)"
                    )
                try:
                    shard_id, status, value = ready.get(
                        timeout=min(remaining, 0.5)
                    )
                except queue.Empty:
                    # A child that died before reporting would otherwise
                    # hang this loop until the deadline.
                    dead = [
                        p.name
                        for i, p in enumerate(processes)
                        if i not in ports and not p.is_alive()
                    ]
                    if dead:
                        raise RuntimeError(
                            "shard process(es) died before reporting a "
                            f"port: {', '.join(dead)}"
                        ) from None
                    continue
                if status != "ok":
                    raise RuntimeError(
                        f"shard process {shard_id} failed to start: {value}"
                    )
                ports[shard_id] = value
        except BaseException:
            cluster.close()
            raise
        cluster.urls = [
            f"archive://127.0.0.1:{ports[i]}" for i in range(len(processes))
        ]
        return cluster

    def __len__(self):
        return len(self._processes)

    def alive(self):
        """Number of shard processes still running."""
        return sum(1 for p in self._processes if p.is_alive())

    def close(self):
        """Stop every shard process; bounded, idempotent."""
        if self._closed:
            return
        self._closed = True
        for stop in self._stop_events:
            stop.set()
        for process in self._processes:
            if process.pid is not None:
                process.join(timeout=_STOP_TIMEOUT)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=_STOP_TIMEOUT)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self._closed else f"alive={self.alive()}"
        return f"ProcessShardCluster(shards={len(self)}, {state})"
