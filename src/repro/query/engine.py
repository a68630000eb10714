"""The multi-threaded query engine with ASAP data push.

*"The multi-threaded Query Engine executes in parallel at all the nodes at
a given level of the QET.  Results from child nodes are passed up the tree
as soon as they are generated. ... even in the case of a query that takes
a very long time to complete, the user starts seeing results almost
immediately."*

:class:`QueryEngine` owns the physical sources (container stores) and is
the single-store :class:`~repro.query.physical.Executor`: ``prepare``
builds an unstarted QET from query text.  It does not run queries.  The
one way to run one is a session — ``repro.session.Archive.connect(engine)``
admits the prepared tree, starts every node's thread
(:func:`start_tree`), and its :class:`~repro.session.Job` streams the
root's batches to the job's :class:`~repro.session.Cursor` while
recording time-to-first-row — the measurable form of the ASAP claim.
"""

from __future__ import annotations

import time

from repro.htm.ranges import RangeSet
from repro.query.errors import PlanError
from repro.query.optimizer import output_schema_for, plan_query, split_plan
from repro.query.parser import parse_query
from repro.query.physical import (
    Executor,
    PreparedQuery,
    prepare_query,
    query_selects,
    select_tree,
)

__all__ = ["QueryEngine", "start_tree"]


def start_tree(root):
    """Start every node thread of an unstarted QET, leaves last.

    Returns the ``perf_counter`` start time, which a job uses as the
    zero point for time-to-first-row.
    """
    started_at = time.perf_counter()
    for node in reversed(list(root.walk())):
        node.start()
    return started_at


class QueryEngine(Executor):
    """The executor over the archive's physical stores.

    Parameters
    ----------
    stores:
        Mapping of source name -> :class:`ContainerStore`; conventional
        names are ``photo``, ``tag`` and ``spectro``.  A ``tag`` store
        enables automatic tag routing of eligible photo queries.
    batch_rows:
        Target rows per execution morsel: scans coalesce delivered
        containers into batches of roughly this size before each
        vectorized predicate pass (and emit batches of at most this
        size).  Must be positive.

    Every QET node runs on one thread; more cores come from splitting
    the data across partition-server processes
    (``Archive.connect(archive=..., process_shards=True)``).
    """

    kind = "local"
    parse = staticmethod(parse_query)
    #: this backend can overlay per-user MyDB stores and run INTO
    supports_mydb = True

    def __init__(self, stores, batch_rows=4096):
        if not stores:
            raise ValueError("QueryEngine needs at least one store")
        self.stores = dict(stores)
        self.batch_rows = int(batch_rows)
        if self.batch_rows <= 0:
            raise ValueError(f"batch_rows must be positive, not {batch_rows!r}")
        self.schemas = {name: store.schema for name, store in self.stores.items()}

    # ------------------------------------------------------------------
    # planning and tree construction
    # ------------------------------------------------------------------

    def prepare(self, text, allow_tag_route=True, ast=None, extra_stores=None):
        """Plan and build without starting: a :class:`PreparedQuery`.

        ``extra_stores`` overlays additional sources (e.g. a user's
        ``mydb.*`` workspace tables) for this query only, without
        mutating the engine's catalog.
        """
        stores = self.stores
        schemas = self.schemas
        if extra_stores:
            stores = {**stores, **extra_stores}
            schemas = {name: store.schema for name, store in stores.items()}
        return prepare_query(
            text,
            schemas,
            lambda plan, _select_index: select_tree(
                stores[plan.routed_source], plan, batch_rows=self.batch_rows
            ),
            ast=ast,
            allow_tag_route=allow_tag_route,
        )

    def prepare_shard(self, text, select_index, ranges, allow_tag_route=True, ast=None):
        """Only the pushed-down shard half of SELECT ``select_index``.

        The server side of remote scatter-gather: both ends derive the
        same :func:`~repro.query.optimizer.split_plan` from the text, so
        this builds ``sharded.shard`` over the engine's own containers
        and the coordinator's merge tree finishes the job.

        ``ranges`` (closed ``[lo, hi]`` intervals) is the coordinator's
        disjoint container assignment — its cover already applied, so
        the scan covers nothing — and every batch is stamped with the
        cumulative delivered claim, so a failover can resume exactly
        where this stream died.
        """
        selects = query_selects(ast if ast is not None else parse_query(text))
        index = int(select_index)
        if not 0 <= index < len(selects):
            raise PlanError(
                f"select_index {index} out of range: query has "
                f"{len(selects)} SELECTs"
            )
        sharded = split_plan(plan_query(selects[index], self.schemas, allow_tag_route))
        return PreparedQuery(
            text=text,
            root=select_tree(
                self.stores[sharded.base.routed_source],
                sharded.shard,
                candidates=RangeSet(ranges),
                batch_rows=self.batch_rows,
                track_delivery=True,
            ),
            schema=output_schema_for(sharded.shard, self.schemas),
            sources=[sharded.base.routed_source],
        )

    def generations_for(self, sources, extra_stores=None):
        """``{source: (store_uid, generation)}`` snapshot for cache
        validation, or ``None`` when a source does not resolve."""
        stores = self.stores
        if extra_stores:
            stores = {**stores, **extra_stores}
        generations = {}
        for source in sources:
            store = stores.get(source)
            if store is None:
                return None
            generations[source] = (store.store_uid, store.generation)
        return generations
