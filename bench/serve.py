"""Child-process archive server for ``remote_tenants``, and the run guard.

The server runs in its own ``spawn``-ed process (its own GIL, like a
deployed server), builds its stores from the cached catalog, and serves
``ArchiveServer(auth=..., cache=<byte budget>)`` with MyDB until told to
stop.  :class:`ChildServer` gives the parent a ready handshake with a
timeout and a ``close()`` that ends the child on every exit path: stop
event, bounded join, then terminate, then kill.

:class:`Guard` is the per-workload wall-clock limit: when it fires it
kills every child process of the run and exits the run non-zero, so a
hang ends as a failed run and never as an orphan.

:func:`adopt_orphans` and :func:`end_children` are the last line: the run
makes itself the reaper of every descendant (shard processes the program
spawns, ``multiprocessing``'s resource tracker, anything a killed child
leaves behind) and, on every way out, ends and waits for each of them, so
that no process of a run is alive, or a zombie, once the run has exited.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback

from bench import config


#: The CPUs this process could use when the benchmark was imported, that
#: is before it pinned itself.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(pid=None, everywhere=False):
    """Pin every thread of process ``pid`` (default: this one) to
    ``config.MEASURE_CPU``, or with ``everywhere`` let it use every CPU
    again.  Threads started later inherit the mask.  Does nothing where
    affinity is not supported."""
    if not _CPUS:
        return
    mask = set(_CPUS) if everywhere else {_CPUS[config.MEASURE_CPU]}
    pid = os.getpid() if pid is None else pid
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), mask)
        except ProcessLookupError:
            pass  # the thread ended while we walked the list


_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_orphans():
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so :func:`end_children` sees them as its
    own children and can wait for them.  Does nothing where unsupported."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children():
    """Pids of the live or zombie children of this process, from /proc."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and ')'
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we walked the list
        if fields[1] == me:
            found.append(int(entry))
    return found


def _end(spare, grace):
    """SIGTERM every child but ``spare``, SIGKILL those still there after
    ``grace`` seconds, and wait until only ``spare`` is left.  Orphans that
    arrive while we wait (a killed child's own children) are ended too."""
    kill_after = time.monotonic() + grace
    while True:
        pids = [pid for pid in _children() if pid != spare]
        if not pids:
            return
        late = time.monotonic() > kill_after
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.01)


def end_children(grace=config.SERVER_STOP_TIMEOUT_S):
    """End every child process of the run and wait until each has ended.

    The orderly paths (``ChildServer.close``, the session's shard
    cluster) have run by now; what is left is ``multiprocessing``'s
    resource tracker and whatever an error path orphaned.  The tracker
    ignores SIGTERM and ends when the last holder of its pipe closes it,
    so the others go first and the tracker is stopped once they are gone.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    _end(getattr(tracker, "_pid", None), grace)
    try:
        tracker._stop()
    except Exception:
        pass  # no such method on this Python: killed below
    _end(None, 0.0)


def _serve(ready, stop, scale, cache_bytes):
    """Child entry point (module-level: ``spawn`` pickles it by name).  The
    child inherits the parent's CPU mask, so it is pinned like the parent."""
    try:
        from repro import ContainerStore
        from repro.catalog import make_tag_table
        from repro.net import ArchiveServer

        from bench.catalog import load_catalog

        photo, _ = load_catalog(scale)
        started = time.perf_counter()
        stores = {
            "photo": ContainerStore.from_table(photo, config.HTM_DEPTH),
            "tag": ContainerStore.from_table(make_tag_table(photo), config.HTM_DEPTH),
        }
        build_s = time.perf_counter() - started
        server = ArchiveServer(
            stores=stores, auth=dict(config.TENANTS), cache=int(cache_bytes)
        ).start()
    except Exception:
        ready.send(("error", traceback.format_exc()))
        return
    photo_store = stores["photo"]
    ready.send(
        (
            "ok",
            {
                "port": server.port,
                "pid": os.getpid(),
                "build_s": build_s,
                "build_rows": len(photo) * len(stores),
                "bytes_per_row": photo_store.total_bytes() / photo_store.total_objects(),
            },
        )
    )
    try:
        stop.wait()
    finally:
        server.stop()


class ChildServer:
    """The archive server process of one run."""

    def __init__(self, scale, cache_bytes):
        ctx = multiprocessing.get_context("spawn")
        self._ready, child_end = ctx.Pipe(duplex=False)
        self._stop = ctx.Event()
        self.process = ctx.Process(
            target=_serve,
            args=(child_end, self._stop, scale, cache_bytes),
            name="bench-archive-server",
            daemon=True,
        )
        self.info = None

    def start(self, timeout=config.SERVER_START_TIMEOUT_S):
        """Start the child and wait for its ready message.

        Raises ``RuntimeError`` (after ending the child) when it reports
        an error, dies silently or stays quiet past ``timeout``.
        """
        self.process.start()
        deadline = time.monotonic() + timeout
        try:
            while not self._ready.poll(0.2):
                if not self.process.is_alive():
                    raise RuntimeError("archive server child died before reporting")
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"archive server child not ready within {timeout:.0f}s"
                    )
            status, value = self._ready.recv()
            if status != "ok":
                raise RuntimeError(f"archive server child failed to start:\n{value}")
        except BaseException:
            self.close()
            raise
        self.info = value
        return self

    @property
    def host_port(self):
        return f"127.0.0.1:{self.info['port']}"

    def close(self, timeout=config.SERVER_STOP_TIMEOUT_S):
        """End the child: ask, wait, terminate, kill.  Idempotent."""
        if self.process.pid is None:
            return
        self._stop.set()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class Guard:
    """Wall-clock limit of one workload run."""

    def __init__(self, seconds=config.WORKLOAD_GUARD_S):
        self._timer = threading.Timer(seconds, self._expire)
        self._timer.daemon = True
        self._seconds = seconds

    def _expire(self):
        print(
            f"bench: workload exceeded its {self._seconds:.0f}s guard; "
            "killing children and exiting",
            file=sys.stderr,
            flush=True,
        )
        end_children(grace=0.0)
        os._exit(3)

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._timer.cancel()
        return False
