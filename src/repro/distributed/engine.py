"""The distributed query executor: full QET queries, scatter-gather.

*"The base-data objects will be spatially partitioned among the servers
... Splitting the data among multiple servers enables parallel, scalable
I/O"* — and the query system rides that split: every parsed query is
planned once, the plan is divided by
:func:`~repro.query.optimizer.split_plan` into a per-shard sub-plan
(scan + filter + the partial half of an aggregate + top-k/limit/
projection pushdown) and a coordinator merge, and the sub-plan is
*shipped* to each partition server whose HTM range intersects the
plan's cover.  Every shard runs the paper's multi-threaded QET locally.
The coordinator's exchange (:class:`~repro.query.qet.ExchangeNode`)
preserves the ASAP-push contract — the user sees the first batch while
the slowest shard is still scanning; its ORDER BY
(:class:`~repro.query.qet.MergeSortNode`, the ordinary sort over every
shard stream) and its aggregate
(:class:`~repro.query.qet.MergeAggregateNode`, which folds the shards'
partial states) are pipeline breakers, as on one store.

The trees are built by :mod:`repro.query.physical` — the same
``select_tree`` of the shard half and ``merge_tree`` a remote cluster
uses; this engine contributes only the in-process fan-out
(:func:`~repro.distributed.routing.route_plan`, which assigns each
touched server the ids it owns under the cover, plus a shard tree over
that server's store reading its assignment) and is itself the
:class:`~repro.query.physical.Executor` a session drives.

Nothing about the server set is cached between queries: each ``prepare``
reads the archive's current partition map and container placement, so
execution stays correct across ``add_servers`` repartitioning.
"""

from __future__ import annotations

from repro.distributed.routing import route_plan
from repro.query.parser import parse_query
from repro.query.physical import (
    Executor,
    prepare_query,
    scatter_gather_tree,
    select_tree,
)

__all__ = ["DistributedQueryEngine"]


class DistributedQueryEngine(Executor):
    """The executor over a :class:`~repro.storage.cluster.DistributedArchive`.

    Same protocol as the single-store engine — ``prepare`` on the same
    query language, with tag routing and cost estimation; a session
    (``Archive.connect(archive=...)``) runs what it prepares — but each
    SELECT fans out to the partition servers: shard sub-QETs run in
    parallel against each touched server's container stores and a
    coordinator merge tree recombines the streams (union, one sort over
    the shard streams, or one aggregate over their partial states).  Servers
    outside the plan's HTM cover are pruned and never read; each touched
    server's shard scan reads only the containers it owns under the
    cover (a replica another server owns is never read twice) and rides
    that server's shared sweep.

    Parameters
    ----------
    archive:
        A :class:`DistributedArchive`; secondary sources (the tag table)
        must have been attached with ``attach_source`` for tag routing.
    batch_rows:
        As for :class:`~repro.query.engine.QueryEngine`, applied inside
        every shard's scan.

    Physically, each partition server runs *one* shared sweep per
    hosted store: every shard :class:`~repro.query.qet.ScanNode`
    subscribes to the server store's
    :class:`~repro.machines.sweep.SweepScanner`, so concurrent
    distributed queries share each server's circular read (and its
    :class:`~repro.storage.buffer.BufferPool`) instead of multiplying
    physical I/O by the number of in-flight queries.
    """

    kind = "distributed"
    parse = staticmethod(parse_query)
    #: per-user store overlays do not partition across shards (yet)
    supports_mydb = False

    def __init__(self, archive, batch_rows=4096):
        if not archive.servers:
            raise ValueError("archive has no servers")
        self.archive = archive
        self.batch_rows = int(batch_rows)
        if self.batch_rows <= 0:
            raise ValueError(f"batch_rows must be positive, not {batch_rows!r}")

    @property
    def schemas(self):
        """Current source schemas (live view — repartition/attach safe)."""
        return self.archive.source_schemas()

    # ------------------------------------------------------------------
    # planning and tree construction
    # ------------------------------------------------------------------

    def _select_root(self, plan, _select_index):
        """One SELECT fanned out over the archive's current servers."""

        def fan_out(sharded, candidates):
            assignments, report = route_plan(
                self.archive, plan.routed_source, candidates
            )
            shard_roots = []
            for server, assigned in assignments:
                shard_root = select_tree(
                    server.stores()[plan.routed_source],
                    sharded.shard,
                    candidates=assigned,
                    batch_rows=self.batch_rows,
                )
                # Annotation consumed by the session layer's structured
                # explain: which server this sub-tree runs on.
                shard_root.server_id = server.server_id
                shard_roots.append(shard_root)
            return shard_roots, report

        return scatter_gather_tree(plan, self.archive.depth, fan_out)

    def prepare(self, text, allow_tag_route=True, ast=None):
        """Plan, split and route without starting: a
        :class:`~repro.query.physical.PreparedQuery` holding the
        unstarted coordinator tree, the static output schema, and one
        :class:`~repro.distributed.routing.ShardFanoutReport` per SELECT.
        The session layer builds on this to control the job lifecycle.
        """
        return prepare_query(
            text,
            self.schemas,
            self._select_root,
            ast=ast,
            allow_tag_route=allow_tag_route,
        )

    def generations_for(self, sources, extra_stores=None):
        """Per-source tuples of every shard's ``(store_uid, generation)``
        — a mutation on *any* partition server invalidates."""
        generations = {}
        for source in sources:
            pairs = []
            for server in self.archive.servers:
                store = server.stores().get(source)
                if store is None:
                    return None
                pairs.append((store.store_uid, store.generation))
            generations[source] = tuple(pairs)
        return generations
