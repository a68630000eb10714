"""A counter is declared once: ``NodeStats.COUNTERS`` is the only list.

Adding a counter must take one line in the declaration plus the
increment where the work happens.  The first test does exactly that —
it declares ``cover_calls`` and patches the scan to count — and then
looks for the number on every surface that carries a node's or a job's
statistics, locally and across the wire, with nothing else touched.
The second keeps a private field list from growing back: outside
``query/qet.py`` no module may spell a declared counter's name.
"""

import ast
import io
import json
import pathlib

import repro
from repro.net import ArchiveServer
from repro.net.protocol import node_stats_from_wire, node_stats_to_wire
from repro.obs import QueryLog
from repro.query.qet import NodeStats, ScanNode
from repro.session import Archive

SRC = pathlib.Path(repro.__file__).parent
QUERY = "SELECT objid, mag_r FROM photo WHERE mag_r < 15"


def run_logged(backend):
    """Run QUERY under EXPLAIN ANALYZE on a session over ``backend``:
    ``(job, analyzed plan tree, the query log's record of it)``."""
    stream = io.StringIO()
    with Archive.connect(backend, query_log=QueryLog(stream=stream)) as session:
        tree = session.explain_analyze(QUERY)
        job = session.jobs[-1]
    (record,) = [json.loads(line) for line in stream.getvalue().splitlines()]
    return job, tree, record


def test_a_declared_counter_reaches_every_surface(engine, monkeypatch):
    monkeypatch.setitem(NodeStats.COUNTERS, "cover_calls", "sum")
    real_run = ScanNode.run

    def counting_run(self):
        self.stats.cover_calls += 2
        real_run(self)

    monkeypatch.setattr(ScanNode, "run", counting_run)

    job, tree, record = run_logged(engine)
    (scan,) = [node for node in job.node_stats() if node.name == "scan"]
    (span,) = [s for s in job.trace().spans if s.name == "node:scan"]
    assert span.attrs["cover_calls"] == 2
    assert tree.find("scan")[0].detail["cover_calls"] == 2
    assert record["io"]["cover_calls"] == 2
    (wire,) = node_stats_to_wire({scan: scan.stats})
    assert wire["cover_calls"] == 2
    back = node_stats_from_wire(json.loads(json.dumps(wire)))
    assert vars(back) == vars(scan.stats)

    with ArchiveServer(backend=engine) as server:
        job, tree, record = run_logged(server.url)
    (leaf,) = job.node_stats()
    assert leaf.name == "remote"
    # the client's fold of the server's nodes, and everything downstream
    assert leaf.stats.cover_calls == 2
    assert job.trace().first("node:remote").attrs["cover_calls"] == 2
    assert tree.detail["cover_calls"] == 2
    assert tree.find("scan")[0].detail["cover_calls"] == 2
    assert record["io"]["cover_calls"] == 2


def test_no_module_keeps_a_counter_list_of_its_own():
    names = set(NodeStats.COUNTERS)
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "query/qet.py":
            continue
        # (equality, not containment: prose that mentions a counter —
        # a docstring, a comment, an error message — is not a field list)
        offenders += [
            f"{relative}:{node.lineno} {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and node.value in names
        ]
    assert offenders == []
