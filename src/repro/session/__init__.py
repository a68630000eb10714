"""repro.session — the unified Archive session API.

The paper's archive serves every user through one *query agent*: a
query arrives, is classified (interactive vs. batch), scheduled against
the archive's machines, and its results stream back as soon as possible.
This package is that layer for the reproduction.  One facade —
:meth:`Archive.connect` — drives **any** execution backend (a
single-store :class:`~repro.query.engine.QueryEngine`, a scatter-gather
:class:`~repro.distributed.engine.DistributedQueryEngine`, a raw
:class:`~repro.storage.cluster.DistributedArchive` or a plain mapping of
container stores — an engine is built over either — or anything else
implementing the small :class:`~repro.query.physical.Executor`
protocol, which the engines implement themselves) behind one
:class:`Session` / :class:`Job` / :class:`Cursor` surface.

Quickstart
----------

Connect over container stores (a single-store engine is built for you)::

    >>> from repro import ContainerStore, SkySimulator, SurveyParameters
    >>> from repro.catalog import make_tag_table
    >>> from repro.session import Archive
    >>> photo = SkySimulator(SurveyParameters(n_galaxies=20000)).generate()
    >>> session = Archive.connect(stores={
    ...     "photo": ContainerStore.from_table(photo, depth=6),
    ...     "tag": ContainerStore.from_table(make_tag_table(photo), depth=6),
    ... })

...or over a partitioned archive — the session API is identical::

    >>> from repro.storage import DistributedArchive
    >>> archive = DistributedArchive.from_table(photo, depth=6, n_servers=4)
    >>> session = Archive.connect(archive=archive)

Run queries.  ``query_table`` materializes (empty results are
well-formed empty tables — never ``None``); ``execute`` returns a
streaming :class:`Cursor` with ``fetchmany`` pagination::

    >>> table = session.query_table(
    ...     "SELECT objid, mag_r FROM photo WHERE mag_r < 18 ORDER BY mag_r")
    >>> cursor = session.execute("SELECT objid FROM photo WHERE mag_r < 21")
    >>> page = cursor.fetchmany(100)          # first 100 rows
    >>> rest = cursor.to_table()              # everything after the page

Query lifecycle is first-class.  ``submit`` classifies the query:
interactive jobs stream ASAP; batch jobs queue on the session's
fair-share queue and run one at a time, so interactive queries keep
their paper-mandated priority::

    >>> job = session.submit(
    ...     "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype",
    ...     query_class="batch")
    >>> job.state                             # QUEUED -> RUNNING -> DONE
    >>> job.wait()                            # block until terminal
    >>> job.cursor.to_table()                 # results delivered on completion
    >>> job.rows, job.time_to_first_row       # live progress counters
    >>> job.cancel()                          # stops every QET node thread

Inspect plans — the *same* structured tree for local and distributed
execution::

    >>> print(session.explain(
    ...     "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5) ORDER BY objid"))
    merge_sort fanout=2 keys=1 ... servers=[0, 1] pruned=[2, 3]
      sort keys=1 ... server=0
        scan source=photo spatial_index=True ...
      ...

Use ``with`` for deterministic teardown (cancels outstanding jobs)::

    >>> with Archive.connect(archive=archive) as session:
    ...     session.query_table("SELECT COUNT(objid) AS n FROM photo")

A session is the only way to run a query: the engines are executors
(``prepare`` builds the tree, the session admits, starts, streams and
cancels it) and the stores answer nothing on their own.
"""

from repro.session.core import (
    Archive,
    Job,
    JobCancelledError,
    JobState,
    Session,
    SessionError,
    connect,
)
from repro.query.physical import Executor, PreparedQuery
from repro.session.cursor import Cursor
from repro.session.plan import PlanTree, plan_tree

__all__ = [
    "Archive",
    "Session",
    "Job",
    "JobState",
    "Cursor",
    "SessionError",
    "JobCancelledError",
    "connect",
    "Executor",
    "PreparedQuery",
    "PlanTree",
    "plan_tree",
]
