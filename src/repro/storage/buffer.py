"""The buffer pool: every container read flows through here.

*"Our simplest approach is to run a scan machine that continuously scans
the dataset"* — and the follow-up systems (the Grid and SkyServer papers)
make the complementary point: a multi-terabyte archive serves heavy
interactive traffic only when hot containers stay cached and concurrent
scans share physical reads.  :class:`BufferPool` is the read path under
the shared sweep: a byte-budgeted LRU over containers with
hit/miss/eviction accounting, so every query riding a sweep shares one
notion of "physically read" vs. "served from memory".

The pool holds no rows (they stay in each store's arena): an entry is a
container's key and byte count, so the budget models a disk cache — a
miss is a simulated physical read, a hit a page already resident.  An
entry stays valid until the store's ``note_mutation`` invalidates it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

__all__ = ["BufferPool", "BufferPoolStats"]


@dataclass
class BufferPoolStats:
    """Accounting for one buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: bytes physically read (misses)
    bytes_read: int = 0
    #: bytes served out of the pool (hits)
    bytes_from_pool: int = 0
    #: high-water mark of transient budget overshoot: ``fetch_many``
    #: defers eviction to the end of the run, so residency may exceed
    #: the budget by at most that run's bytes before the end-of-run
    #: eviction restores the invariant (asserted there)
    peak_overshoot_bytes: int = 0

    def accesses(self):
        """Total reads answered by the pool."""
        return self.hits + self.misses

    def hit_rate(self):
        """Fraction of reads served without a physical read."""
        total = self.accesses()
        if total == 0:
            return 0.0
        return self.hits / total


class BufferPool:
    """Byte-budgeted LRU of ``(store, htm_id) -> nbytes`` (never rows).

    Parameters
    ----------
    byte_budget:
        Maximum resident bytes, or ``None`` for an unbounded pool (the
        default: the reproduction's datasets fit in memory, so the whole
        store becomes hot after one sweep — exactly the regime the
        SkyServer follow-up describes for its cached hot containers).

    Keys are ``(store_uid, htm_id)`` so one pool may be shared by
    several stores (e.g. every source hosted on one partition server)
    without id collisions.  All methods are thread-safe: the pool sits
    under the concurrent sweep threads of every store that shares it.
    """

    def __init__(self, byte_budget: Optional[int] = None):
        if byte_budget is not None and byte_budget < 0:
            raise ValueError("byte_budget must be non-negative or None")
        self.byte_budget = byte_budget
        self.stats = BufferPoolStats()
        from repro.obs.metrics import registry as _obs_registry

        #: weakly-held publication into the process-wide metrics
        #: registry; a collected pool drops out of snapshots
        self._metrics_ref = _obs_registry().add_source(self._published_metrics)
        self._lock = threading.Lock()
        #: key -> nbytes, in LRU order (oldest first)
        self._entries = OrderedDict()
        self._resident_bytes = 0

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------

    def fetch_many(self, store, containers):
        """Read a run of containers under one lock acquisition.

        The sweep scanner's batched read path: ``containers`` are
        ``(htm_id, nbytes)`` pairs; returns, in input order, whether each
        was served from the pool (hit) or physically read (miss).  The
        budget check runs once per run, not once per
        container — transiently holding one run over budget is the cost
        of not re-walking the LRU for every tiny container in a
        coalesced read.  The overshoot is *bounded*
        (at most the run's own bytes, recorded in
        ``stats.peak_overshoot_bytes``) and the end-of-run eviction
        restores ``resident <= budget`` before the lock is released, so
        no other reader can ever observe an over-budget pool.
        """
        uid = store.store_uid
        with self._lock:
            results = [self._fetch_locked((uid, h), n) for h, n in containers]
            self._evict_over_budget()
            if self.byte_budget is not None:
                assert self._resident_bytes <= self.byte_budget, (
                    f"buffer pool over budget after end-of-run eviction: "
                    f"{self._resident_bytes} > {self.byte_budget}"
                )
            return results

    def _fetch_locked(self, key, nbytes):
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.bytes_from_pool += self._entries[key]
            return True
        self.stats.misses += 1
        self.stats.bytes_read += nbytes
        self._entries[key] = nbytes
        self._resident_bytes += nbytes
        if self.byte_budget is not None:
            # Eviction is deferred to the end of the run: track how far
            # the run transiently overshoots the budget.
            overshoot = self._resident_bytes - self.byte_budget
            if overshoot > self.stats.peak_overshoot_bytes:
                self.stats.peak_overshoot_bytes = overshoot
        return False

    def _published_metrics(self):
        """Registry source: this pool's counters (summed with every
        other pool's at snapshot; ``buffer_pool.hit_rate`` is derived
        there from the summed hits/misses)."""
        stats = self.stats
        return {
            "buffer_pool.hits": stats.hits,
            "buffer_pool.misses": stats.misses,
            "buffer_pool.evictions": stats.evictions,
            "buffer_pool.invalidations": stats.invalidations,
            "buffer_pool.bytes_read": stats.bytes_read,
            "buffer_pool.bytes_from_pool": stats.bytes_from_pool,
        }

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------

    def _drop(self, key):
        self._resident_bytes -= self._entries.pop(key)

    def _evict_over_budget(self):
        if self.byte_budget is None:
            return
        while self._resident_bytes > self.byte_budget and self._entries:
            _key, nbytes = self._entries.popitem(last=False)
            self._resident_bytes -= nbytes
            self.stats.evictions += 1

    def invalidate(self, store, htm_id=None):
        """Forget one container, or every container of a store."""
        with self._lock:
            if htm_id is not None:
                key = (store.store_uid, int(htm_id))
                if key in self._entries:
                    self._drop(key)
                    self.stats.invalidations += 1
                return
            token = store.store_uid
            for key in [k for k in self._entries if k[0] == token]:
                self._drop(key)
                self.stats.invalidations += 1

    def resident_bytes(self):
        """Bytes currently held by the pool."""
        with self._lock:
            return self._resident_bytes

    def resident_containers(self):
        """Number of containers currently resident."""
        with self._lock:
            return len(self._entries)

    def __repr__(self):
        return (
            f"BufferPool(budget={self.byte_budget}, "
            f"resident={self.resident_containers()}, "
            f"hit_rate={self.stats.hit_rate():.2f})"
        )
