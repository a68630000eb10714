"""Server-side result cache keyed by normalized query text + store generations.

The SkyServer workload the paper's archive grew into was dominated by
thousands of astronomers re-running the same handful of query shapes;
its service tier answered repeats from a result cache instead of the
disks.  :class:`ResultCache` reproduces that: entries are keyed by the
query's *normalized* text (whitespace/keyword-case/comment insensitive,
see :func:`~repro.query.parser.normalize_query`) plus a scope, and are
validated against the ``(store_uid, generation)`` pairs of every source
the result was computed from.  A loader mutation bumps the store
generation (:meth:`~repro.storage.containers.ContainerStore.note_mutation`),
so the next lookup sees the mismatch and drops the stale entry — no
explicit invalidation hooks to forget.

A cache hit replays the stored batches through a
:class:`CachedResultNode`, an ordinary QET leaf that touches no store:
``containers_read`` stays zero, which is the deterministic evidence the
CI gate asserts on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.query.parser import normalize_query
from repro.query.qet import QETNode

__all__ = [
    "CacheStats",
    "ResultCache",
    "CachedResultNode",
    "DEFAULT_CACHE_BYTES",
]

#: default byte budget of a :class:`ResultCache`
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


@dataclass
class CacheStats:
    """Counters of one cache's lifetime behavior."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    #: entries dropped because a source store's generation moved
    invalidations: int = 0
    #: entries dropped to fit the byte budget (LRU order)
    evictions: int = 0
    #: result bytes answered from the cache instead of execution
    bytes_served: int = 0

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "bytes_served": self.bytes_served,
            "hit_rate": self.hit_rate(),
        }


class _Entry:
    __slots__ = ("batches", "schema", "sources", "generations", "nbytes")

    def __init__(self, batches, schema, sources, generations, nbytes):
        self.batches = batches
        self.schema = schema
        self.sources = sources
        self.generations = generations
        self.nbytes = nbytes


class ResultCache:
    """LRU result cache with generation validation.

    Thread-safe; shared by every user of one archive server.  Entries
    for queries touching a user's private ``mydb.*`` tables are scoped
    to that user (the scope is part of the key), so one tenant can never
    be served another tenant's rows.
    """

    def __init__(self, max_bytes=DEFAULT_CACHE_BYTES):
        self.max_bytes = int(max_bytes)
        self.stats = CacheStats()
        from repro.obs.metrics import registry as _obs_registry

        #: weakly-held publication into the process-wide metrics
        #: registry; a collected cache drops out of snapshots
        self._metrics_ref = _obs_registry().add_source(self._published_metrics)
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def _published_metrics(self):
        """Registry source: this cache's lifetime counters (summed with
        every other cache's at snapshot; ``cache.hit_rate`` is derived
        there from the summed hits/misses)."""
        stats = self.stats
        return {
            "cache.hits": stats.hits,
            "cache.misses": stats.misses,
            "cache.fills": stats.fills,
            "cache.invalidations": stats.invalidations,
            "cache.evictions": stats.evictions,
            "cache.bytes_served": stats.bytes_served,
        }

    # -- keying ---------------------------------------------------------

    @staticmethod
    def key(text, scope=None, allow_tag_route=True):
        """Cache key for query text: normalized text + scope + planning
        options that change the answer's provenance."""
        return (scope, normalize_query(text), bool(allow_tag_route))

    # -- lookup / fill --------------------------------------------------

    def lookup(self, key, current_generations):
        """The valid entry for ``key``, or ``None``.

        ``current_generations`` is a callable mapping the entry's source
        list to the *present* ``{source: (store_uid, generation)}`` (or
        ``None`` when a source no longer resolves, e.g. a dropped MyDB
        table).  Any difference from the generations captured at fill
        time drops the entry and counts an invalidation.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            current = current_generations(list(entry.sources))
            if current != entry.generations:
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.bytes_served += entry.nbytes
            return entry

    def fill(self, key, batches, schema, sources, generations,
             current_generations=None):
        """Store one finished result; returns True when cached.

        ``generations`` is the source-generation snapshot taken when the
        query was *prepared*; ``current_generations`` (when given) is
        the snapshot at fill time — a difference means a mutation landed
        while the query ran, and the result is not cached rather than
        cached stale.  Oversized results are skipped.  A read-only batch
        (a view of one of a store's runs) is copied, so an entry never
        keeps a superseded run alive beyond the bytes it counts.
        """
        if generations is None:
            return False
        if current_generations is not None and current_generations != generations:
            return False
        batches = tuple(batches)
        nbytes = sum(batch.nbytes() for batch in batches)
        if nbytes > self.max_bytes:
            return False
        batches = tuple(
            b if b.data.flags.writeable else b.take(slice(None)) for b in batches
        )
        entry = _Entry(batches, schema, tuple(sources), generations, nbytes)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.fills += 1
            total = sum(e.nbytes for e in self._entries.values())
            while total > self.max_bytes:
                _oldest, evicted = self._entries.popitem(last=False)
                total -= evicted.nbytes
                self.stats.evictions += 1
        return True

    # -- introspection --------------------------------------------------

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def total_bytes(self):
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def clear(self):
        with self._lock:
            self._entries.clear()


class CachedResultNode(QETNode):
    """QET leaf replaying a cached result — no store is touched.

    Slots into the ordinary job lifecycle (thread start, streaming,
    cancellation) so a cache hit is indistinguishable from execution to
    the cursor, except that ``containers_read`` stays zero.
    """

    name = "cached"

    def __init__(self, batches):
        super().__init__()
        self._batches = batches

    def run(self):
        for batch in self._batches:
            if not self._emit(batch):
                return
