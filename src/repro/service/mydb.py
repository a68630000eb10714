"""Per-user MyDB workspaces: ``SELECT ... INTO mydb.x`` destinations.

CasJobs (the production service built on the paper's archive) gave
every astronomer a private *MyDB* database: query results materialize
into it and later queries join against them, all without touching the
shared catalog.  :class:`MyDBManager` reproduces the shape: per-user
namespaces of :class:`~repro.storage.containers.ContainerStore` tables,
byte quotas, and DROP-style cleanup.  A saved table is an ordinary
container store, so later queries scan it through the exact same QET
machinery (shared sweep, buffer pool, morsel batches) as the catalog
sources — ``FROM mydb.x`` is just another entry in the engine's store
mapping, overlaid per query for the owning user only.
"""

from __future__ import annotations

import threading

from repro.catalog.table import ObjectTable
from repro.service.errors import MyDBError, QuotaExceededError
from repro.storage.containers import ContainerStore, DuplicateKeyError

__all__ = ["MyDBManager", "MYDB_PREFIX", "DEFAULT_MYDB_QUOTA"]

#: namespace prefix of every workspace table, as spelled in queries
MYDB_PREFIX = "mydb."

#: default per-user byte quota
DEFAULT_MYDB_QUOTA = 32 * 1024 * 1024

#: container depth of materialized tables that carry positions
_MYDB_DEPTH = 6


def _bare_name(name):
    """'mydb.x' or 'x' -> 'x', validated as an identifier."""
    name = str(name).lower()
    if name.startswith(MYDB_PREFIX):
        name = name[len(MYDB_PREFIX):]
    if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
        raise MyDBError(f"bad MyDB table name {name!r}")
    return name


class MyDBManager:
    """All users' workspace tables, quota-checked and namespaced.

    Thread-safe.  Replacing a table (re-running ``SELECT INTO mydb.x``)
    builds a *new* store with a fresh ``store_uid``, so any cached
    result derived from the old table fails generation validation
    automatically.
    """

    def __init__(self, quota_bytes=DEFAULT_MYDB_QUOTA, depth=_MYDB_DEPTH):
        self.quota_bytes = int(quota_bytes)
        self.depth = int(depth)
        self._tables = {}  # user -> {bare name: ContainerStore}
        self._lock = threading.Lock()

    # -- query-side -----------------------------------------------------

    def stores_for(self, user):
        """The user's tables as a ``{'mydb.<name>': store}`` overlay for
        the engine's catalog (empty dict for unknown users)."""
        with self._lock:
            tables = self._tables.get(user, {})
            return {MYDB_PREFIX + name: store for name, store in tables.items()}

    def tables(self, user):
        """Sorted bare table names of one user."""
        with self._lock:
            return sorted(self._tables.get(user, {}))

    def usage(self, user):
        """``{'tables', 'bytes', 'quota_bytes'}`` for one user."""
        with self._lock:
            tables = self._tables.get(user, {})
            return {
                "tables": len(tables),
                "bytes": sum(s.total_bytes() for s in tables.values()),
                "quota_bytes": self.quota_bytes,
            }

    # -- mutation -------------------------------------------------------

    def save(self, user, name, table):
        """Materialize ``table`` as the user's ``mydb.<name>``.

        Quota-checks against the user's byte budget (a replaced table's
        bytes are credited back first); raises
        :class:`~repro.service.errors.QuotaExceededError` over budget,
        and :class:`~repro.storage.containers.DuplicateKeyError` for a
        result that repeats an ``objid``.  Returns the new
        :class:`ContainerStore`.
        """
        bare = _bare_name(name)
        nbytes = table.nbytes()
        with self._lock:
            tables = self._tables.setdefault(user, {})
            held = sum(
                store.total_bytes()
                for held_name, store in tables.items()
                if held_name != bare
            )
            if held + nbytes > self.quota_bytes:
                raise QuotaExceededError(
                    f"mydb.{bare} ({nbytes} B) would put user {user!r} over "
                    f"the {self.quota_bytes} B MyDB quota ({held} B held)"
                )
            try:
                tables[bare] = self._materialize(table)
            except DuplicateKeyError as exc:
                raise DuplicateKeyError.refusing(f"mydb.{bare}", exc.objids) from None
            return tables[bare]

    def drop(self, user, name):
        """Delete the user's ``mydb.<name>`` (raises
        :class:`MyDBError` when it does not exist)."""
        bare = _bare_name(name)
        with self._lock:
            tables = self._tables.get(user, {})
            if bare not in tables:
                raise MyDBError(f"user {user!r} has no mydb.{bare}")
            del tables[bare]

    def _materialize(self, table):
        """A queryable ContainerStore for one result table.

        Results that still carry positions cluster spatially like any
        catalog source; position-less results (projections that dropped
        ``cx/cy/cz``) land in a single container — they can never be
        spatially queried anyway, and a full sweep reads them fine.
        """
        schema = table.schema
        spatial = all(col in schema for col in ("cx", "cy", "cz"))
        if spatial and len(table):
            return ContainerStore.from_table(table, self.depth)
        store = ContainerStore(schema, self.depth)
        if len(table):
            store.append(table, [store._lo] * len(table))
        return store
