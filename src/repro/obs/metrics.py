"""The process-wide metrics registry: one place every counter lives.

The SkyServer's operators ran the archive as a public service on the
strength of its instrumentation — per-query elapsed time, CPU and row
counts logged for every submission ("Data Mining the SDSS SkyServer
Database").  Our reproduction accumulated the same telemetry as eight
disconnected ``*Stats`` dataclasses; this module gives them one home.

:class:`MetricsRegistry` holds three primitive kinds:

* **counters** — monotonically increasing named values
  (``registry.counter("session.queries_submitted").inc()``);
* **gauges** — values read at snapshot time from a callable;
* **histograms** — streaming summaries (count/sum/min/max/mean) of
  observed samples, e.g. per-query completion latency.

Existing ``*Stats`` owners (:class:`~repro.storage.buffer.BufferPool`,
:class:`~repro.machines.sweep.SweepScanner`,
:class:`~repro.service.cache.ResultCache`, :class:`~repro.session.Session`,
:class:`~repro.net.server.ArchiveServer`) publish by registering a
*source*: a bound method returning ``{metric_name: value}``, held via
:class:`weakref.WeakMethod` so a dead pool or closed session silently
drops out of the snapshot instead of leaking.  :meth:`snapshot` merges
all live sources with :func:`merge_metrics` — numeric values of the
same name **sum** across instances (three shard servers' sweeps roll up
into one ``sweep.containers_swept``), flags OR, dict values merge
key-wise — and then :func:`derive_rates` adds the ratios
(``buffer_pool.hit_rate``, ``cache.hit_rate``, ``sweep.sharing_factor``)
from the summed counters, so a rate is never a meaningless average of
averages.  Both are plain functions over a flat ``{metric name: value}``
dict, and everything else that combines statistics calls them too: a
job's metrics across its nodes, stores and caches, and across the wire
(:mod:`repro.obs.report`).

One process-wide default registry is reachable via :func:`registry`;
the class stays instantiable for isolated tests.
"""

from __future__ import annotations

import math
import threading
import weakref

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_metrics",
    "derive_rates",
    "registry",
]


class Counter:
    """A named, monotonically increasing value (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n=1):
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self):
        with self._lock:
            return self._value

    def __repr__(self):
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A named value read at snapshot time.

    Backed by a callable (``fn``) or an explicitly :meth:`set` value;
    a callable that raises degrades to the last set value rather than
    poisoning the whole snapshot.
    """

    __slots__ = ("name", "_fn", "_value")

    def __init__(self, name, fn=None):
        self.name = name
        self._fn = fn
        self._value = 0.0

    def set(self, value):
        self._value = value

    def set_function(self, fn):
        self._fn = fn

    @property
    def value(self):
        if self._fn is not None:
            try:
                return self._fn()
            except Exception:
                pass
        return self._value

    def __repr__(self):
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A streaming summary of observed samples (thread-safe).

    Keeps count/sum/min/max — enough for the mean and the artifact
    trajectory without retaining every sample.
    """

    __slots__ = ("name", "_lock", "count", "total", "minimum", "maximum")

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value):
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value

    def summary(self):
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": None}
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.total / self.count,
            }

    def __repr__(self):
        return f"Histogram({self.name!r}, n={self.count})"


#: ``(derived rate name, numerator, denominators summed, value while the
#: denominators are still zero)``
_DERIVED_RATES = (
    ("buffer_pool.hit_rate", "buffer_pool.hits", ("buffer_pool.hits", "buffer_pool.misses"), 0.0),
    ("cache.hit_rate", "cache.hits", ("cache.hits", "cache.misses"), 0.0),
    ("sweep.sharing_factor", "sweep.deliveries", ("sweep.containers_swept",), 1.0),
)


def merge_metrics(out, metrics):
    """Fold the flat dict ``metrics`` into ``out`` (returned): same-named
    numbers sum, flags OR, dicts merge key-wise, anything else is
    replaced.  A rate folded this way is meaningless until
    :func:`derive_rates` recomputes it from the summed counters."""
    for name, value in metrics.items():
        existing = out.get(name)
        if isinstance(value, dict):
            bucket = existing if isinstance(existing, dict) else {}
            out[name] = merge_metrics(bucket, value)
        elif isinstance(value, bool):
            out[name] = value or existing is True
        elif isinstance(value, (int, float)) and isinstance(existing, (int, float)):
            out[name] = existing + value
        else:
            out[name] = value
    return out


def derive_rates(out):
    """Set every derived rate whose counters ``out`` carries (in place;
    returns ``out``)."""
    for rate_name, numerator, denominator, unset in _DERIVED_RATES:
        if any(part in out for part in denominator):
            total = sum(out.get(part, 0) for part in denominator)
            out[rate_name] = out.get(numerator, 0) / total if total else unset
    return out


class MetricsRegistry:
    """Named counters/gauges/histograms plus weakly-held stat sources."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        #: weakref.WeakMethod list of bound methods -> {name: value}
        self._sources = []

    # -- primitive accessors (create on first use) ----------------------

    def counter(self, name):
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name, fn=None):
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name, fn)
            elif fn is not None:
                gauge.set_function(fn)
            return gauge

    def histogram(self, name):
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            return histogram

    # -- stat sources ----------------------------------------------------

    def add_source(self, method):
        """Register a *bound method* returning ``{metric_name: value}``.

        Held via :class:`weakref.WeakMethod`: when the owning object
        (a buffer pool, a session, a server) is garbage-collected, the
        source vanishes from later snapshots — publication never extends
        an object's lifetime.
        """
        ref = weakref.WeakMethod(method)
        with self._lock:
            self._sources.append(ref)
        return ref

    def remove_source(self, ref):
        """Drop a source registered by :meth:`add_source` (idempotent)."""
        with self._lock:
            try:
                self._sources.remove(ref)
            except ValueError:
                pass

    # -- snapshot --------------------------------------------------------

    def snapshot(self):
        """One flat ``{metric_name: value}`` view of everything.

        Counters and gauges appear by name, histograms as summary dicts,
        and live sources merge in (same-named numerics summed across
        instances).  Dead sources are pruned as a side effect.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            sources = list(self._sources)
        out = {}
        merge_metrics(out, {counter.name: counter.value for counter in counters})
        merge_metrics(out, {gauge.name: gauge.value for gauge in gauges})
        for histogram in histograms:
            out[histogram.name] = histogram.summary()
        dead = []
        for ref in sources:
            method = ref()
            if method is None:
                dead.append(ref)
                continue
            try:
                published = method()
            except Exception:
                continue
            merge_metrics(out, published or {})
        for ref in dead:
            self.remove_source(ref)
        return derive_rates(out)

    def __repr__(self):
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, "
                f"sources={len(self._sources)})"
            )


_GLOBAL = MetricsRegistry()


def registry():
    """The process-wide default registry."""
    return _GLOBAL
