"""The one physical planner: ``repro.query.physical``.

Three checks that the AST -> QET decision lives in one module:

* golden plan shapes — ``session.explain`` over a store mapping, an
  in-process partitioned archive and a 2-endpoint remote cluster renders
  exactly the trees captured before the four per-backend builders were
  folded into one (``golden_physical_plans.json``);
* ``select_index`` numbering — the order ``build_query_tree`` numbers
  the SELECTs of a nested set operation is the order a shard server
  resolves a ``select_index`` in;
* structure — the set-operation and order/limit nodes are constructed
  nowhere in ``src/repro`` but ``query/physical.py`` (and ``qet.py``);
  trees are started by ``session/core.py`` only, containers are read
  out of a pool by the sweep only, and neither the engines nor the
  stores define a way to run a query of their own; every QET node runs
  on the one thread it is started on — no worker pool, no ``workers``
  keyword, no ``REPRO_WORKERS``.
"""

from __future__ import annotations

import ast
import contextlib
import json
import pathlib

import pytest

from repro.net import ArchiveServer
from repro.session import Archive
from repro.storage import DistributedArchive

GOLDEN = pathlib.Path(__file__).with_name("golden_physical_plans.json")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

CORPUS = {
    "scan": "SELECT * FROM photo",
    "filter": "SELECT objid, mag_r FROM photo WHERE mag_r < 18",
    "cone": "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)",
    "order": "SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r, objid",
    "order_limit": "SELECT objid, mag_r FROM photo ORDER BY mag_r DESC, objid LIMIT 25",
    "limit": "SELECT objid FROM photo WHERE mag_r < 19 LIMIT 10",
    "aggregate": (
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype"
    ),
    "aggregate_having_order_limit": (
        "SELECT objtype, COUNT(objid) AS n FROM photo "
        "GROUP BY objtype HAVING n > 100 ORDER BY n DESC LIMIT 2"
    ),
    "union": (
        "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)"
    ),
    "intersect": (
        "(SELECT objid FROM photo WHERE mag_r < 18) INTERSECT "
        "(SELECT objid FROM photo WHERE objtype = QUASAR)"
    ),
    "nested_except": (
        "((SELECT objid FROM photo WHERE mag_r < 18) UNION "
        "(SELECT objid FROM photo WHERE CIRCLE(40, 30, 5))) EXCEPT "
        "(SELECT objid FROM photo WHERE mag_r < 15 ORDER BY mag_r LIMIT 5)"
    ),
    "no_tag_route": "SELECT objid, petro_r90 FROM photo WHERE mag_r < 18",
}

#: plan details that are a property of the tree, not of the run (the
#: remote leaves' ``endpoint`` carries an ephemeral port)
STABLE_DETAILS = (
    "source",
    "routed",
    "tag_route",
    "spatial_index",
    "limit",
    "keys",
    "descending",
    "fanout",
    "columns",
    "groups",
    "aggregates",
    "predicate",
    "mode",
    "servers",
    "pruned",
    "server",
)


def kind_tree(tree, indent=0):
    """``PlanTree.render`` without the run-dependent details."""
    parts = [tree.kind] + [
        f"{key}={tree.detail[key]}" for key in STABLE_DETAILS if key in tree.detail
    ]
    lines = ["  " * indent + " ".join(parts)]
    lines += [kind_tree(child, indent + 1) for child in tree.children]
    return "\n".join(lines)


@contextlib.contextmanager
def open_backends(photo, tags, photo_store, tag_store):
    """The three backends of the golden comparison, keyed by name."""
    dist = DistributedArchive.from_table(photo, depth=5, n_servers=3)
    dist.attach_source("tag", tags)
    halves = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    halves.attach_source("tag", tags)
    with contextlib.ExitStack() as stack:
        servers = [
            stack.enter_context(ArchiveServer(stores=node.stores()))
            for node in halves.servers
        ]
        yield {
            "stores": stack.enter_context(
                Archive.connect(stores={"photo": photo_store, "tag": tag_store})
            ),
            "archive": stack.enter_context(Archive.connect(archive=dist)),
            "cluster": stack.enter_context(
                Archive.connect([server.url for server in servers])
            ),
        }


def render_corpus(sessions):
    return {
        backend: {
            name: kind_tree(session.explain(text)) for name, text in CORPUS.items()
        }
        for backend, session in sessions.items()
    }


# ----------------------------------------------------------------------
# (a) golden plan shapes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def rendered(photo, tags, photo_store, tag_store):
    with open_backends(photo, tags, photo_store, tag_store) as sessions:
        return render_corpus(sessions)


@pytest.mark.parametrize("backend", ["stores", "archive", "cluster"])
@pytest.mark.parametrize("name", list(CORPUS))
def test_plan_shape_matches_golden(rendered, backend, name):
    golden = json.loads(GOLDEN.read_text())
    assert rendered[backend][name] == golden[backend][name]


# ----------------------------------------------------------------------
# (b) select_index numbering
# ----------------------------------------------------------------------

NESTED = (
    "((SELECT objid FROM photo WHERE mag_r < 14) UNION "
    "((SELECT objid FROM photo WHERE mag_r < 15) INTERSECT "
    "(SELECT objid FROM photo WHERE mag_r < 16))) EXCEPT "
    "((SELECT objid FROM photo WHERE mag_r < 17) UNION "
    "(SELECT objid FROM photo WHERE mag_r < 18))"
)


def test_select_index_numbering_matches_shard_resolution(engine, photo):
    from repro.query import parse_query
    from repro.query.errors import PlanError
    from repro.query.physical import build_query_tree, query_selects
    from repro.query.qet import QETNode

    numbered = {}

    def note(select, select_index):
        numbered[select_index] = select
        return QETNode()

    root = build_query_tree(parse_query(NESTED), note)
    assert [node.name for node in root.walk() if node.children] == [
        "difference",
        "union",
        "intersect",
        "union",
    ]
    # Left-to-right depth-first: the thresholds 14..18 in textual order.
    assert sorted(numbered) == [0, 1, 2, 3, 4]
    assert query_selects(parse_query(NESTED)) == [numbered[i] for i in range(5)]

    # The shard half a server builds for select_index i scans with
    # exactly the i-th SELECT's predicate.
    mag_r = photo.data["mag_r"]
    for index in range(5):
        prepared = engine.prepare_shard(NESTED, select_index=index)
        rows = sum(len(batch) for batch in _run(prepared.root))
        assert rows == int((mag_r < 14 + index).sum())
    with pytest.raises(PlanError, match="select_index 5 out of range"):
        engine.prepare_shard(NESTED, select_index=5)


def _run(root):
    from repro.query.engine import start_tree

    start_tree(root)
    yield from root.output
    for node in root.walk():
        node.join()


# ----------------------------------------------------------------------
# (c) one builder, structurally
# ----------------------------------------------------------------------

PLANNER_ONLY_NODES = {
    "UnionNode",
    "IntersectNode",
    "DifferenceNode",
    "TopKNode",
    "SortNode",
    "LimitNode",
}


def _calls():
    """``(relative path, line, callee name)`` of every call in src/repro."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(
                callee, "id", None
            )
            yield relative, node.lineno, name


def test_set_and_tail_nodes_are_built_only_by_the_physical_planner():
    offenders = [
        f"{relative}:{line} {name}"
        for relative, line, name in _calls()
        if name in PLANNER_ONLY_NODES
        and relative not in ("query/physical.py", "query/qet.py")
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# (d) one way in, one way down, structurally
# ----------------------------------------------------------------------

#: callee -> the only places in src/repro that may call it: a session
#: starts trees, the sweep (and the store under it) reads containers
ONLY_CALLED_FROM = {
    "start_tree": ("session/core.py",),
    "fetch_many": ("machines/sweep.py", "storage/"),
    "fetch": ("machines/sweep.py", "storage/"),
}


def _defined_names(relative):
    tree = ast.parse((SRC / relative).read_text())
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_a_session_is_the_only_way_to_run_a_query():
    offenders = [
        f"{relative}:{line} {name}"
        for relative, line, name in _calls()
        if name in ONLY_CALLED_FROM
        and not relative.startswith(ONLY_CALLED_FROM[name])
    ]
    assert offenders == []
    # The engines are executors: they prepare trees and run nothing.
    for relative in ("query/engine.py", "distributed/engine.py"):
        assert not _defined_names(relative) & {"execute", "query_table", "explain"}
    # The stores place data and answer nothing on their own.
    for path in sorted((SRC / "storage").glob("*.py")):
        defined = _defined_names(path.relative_to(SRC).as_posix())
        assert not defined & {"query_region", "scan_all", "query_engine"}, path.name
    import repro.distributed
    import repro.storage

    for module, name in (
        (repro.storage, "QueryStats"),
        (repro.storage, "DistributedQueryReport"),
        (repro.distributed, "DistributedQueryResult"),
        (repro.distributed, "admit_scan_jobs"),
    ):
        assert not hasattr(module, name), name


def test_every_qet_node_runs_on_one_thread():
    """No in-process worker pool: no module, no ``workers`` keyword on
    the way from a session to a node, no environment knob for it."""
    import importlib
    import inspect

    from repro.distributed import DistributedQueryEngine
    from repro.distributed.process import ProcessShardCluster
    from repro.query import QueryEngine
    from repro.query.physical import select_tree
    from repro.query.qet import AggregateNode, ScanNode, TopKNode

    with pytest.raises(ImportError):
        importlib.import_module("repro.machines.workers")
    for entry in (
        Archive.connect,
        QueryEngine,
        DistributedQueryEngine,
        ArchiveServer,
        ProcessShardCluster.from_archive,
        select_tree,
        ScanNode,
        TopKNode,
        AggregateNode,
    ):
        assert "workers" not in inspect.signature(entry).parameters, entry
    readers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "REPRO_WORKERS" in path.read_text()
    ]
    assert readers == []
