"""Structured plan trees: one explain representation for every backend.

The paper's query agent lets users inspect a query's cost before
committing to it; our reproduction previously answered ``explain`` with
raw :class:`~repro.query.optimizer.QueryPlan` objects for local
execution and :class:`~repro.query.optimizer.ShardedPlan` objects for
distributed execution — different shapes for the same question.
:func:`plan_tree` instead renders the *actual* (unstarted) Query
Execution Tree as a :class:`PlanTree` of plain ``kind``/``detail``
nodes, so ``session.explain(text)`` produces the same structure whether
the query would run on one store or fan out across partition servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.qet import (
    AggregateNode,
    ExchangeNode,
    FilterNode,
    LimitNode,
    MergeAggregateNode,
    MergeSortNode,
    ProjectNode,
    ScanNode,
    SortNode,
)

__all__ = ["PlanTree", "plan_tree", "analyzed_plan_tree"]


@dataclass
class PlanTree:
    """One node of a structured query plan.

    ``kind`` is the QET node kind (``scan``, ``sort``, ``topk``,
    ``limit``, ``project``, ``aggregate``, ``filter``, ``union``,
    ``intersect``, ``difference``, ``exchange``, ``merge_sort``);
    ``detail`` holds the
    node's interesting properties (source and routing for scans, fan-out
    and server pruning for merge points, the partials a split
    aggregate's shard half ``emits`` and its coordinator half ``folds``,
    ...).
    """

    kind: str
    detail: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def walk(self):
        """Generator over the subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind):
        """All nodes of one kind in the subtree."""
        return [node for node in self.walk() if node.kind == kind]

    def _line(self):
        parts = [self.kind]
        for key, value in self.detail.items():
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def render(self, indent=0):
        """Indented multi-line rendering of the whole subtree."""
        lines = ["  " * indent + self._line()]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __str__(self):
        return self.render()


def _scan_detail(node):
    plan = node.plan
    detail = {"source": plan.source}
    if plan.routed_source != plan.source:
        detail["routed"] = plan.routed_source
    if plan.used_tag_route:
        detail["tag_route"] = True
    if plan.used_spatial_index:
        detail["spatial_index"] = True
    # Every scan rides its store's one shared sweep machine.
    detail["sweep"] = f"sweep:{plan.routed_source}"
    return detail


def _detail_for(node):
    if isinstance(node, ScanNode):
        return _scan_detail(node)
    if isinstance(node, SortNode):
        detail = {} if node.limit is None else {"limit": node.limit}
        if isinstance(node, MergeSortNode):
            detail["fanout"] = len(node.children)
        detail.update(keys=len(node.key_fns), descending=list(node.descending_flags))
        return detail
    if type(node) is ExchangeNode:  # not a UnionNode, which is one too
        return {"fanout": len(node.children)}
    if isinstance(node, LimitNode):
        return {"limit": node.limit}
    if isinstance(node, ProjectNode):
        return {"columns": [name for name, _hint, _fn in node.projection]}
    if isinstance(node, AggregateNode):
        detail = {
            "groups": [name for name, _fn in node.group_specs if name is not None],
            "aggregates": [f"{kind}->{name}" for name, kind, _fn in node.aggregate_specs],
        }
        finished = set(detail["groups"]) | {n for n, _k, _fn in node.aggregate_specs}
        if isinstance(node, MergeAggregateNode):
            # The coordinator's half folds the shards' partial states.
            detail["folds"] = node.state_names
        elif not finished.issuperset(node.output_order):
            # A shard's half emits partials, not the finished columns.
            detail["emits"] = node.output_order
        return detail
    if isinstance(node, FilterNode):
        return {"predicate": "having"}
    return {}


def _annotated_detail(root):
    """:func:`_detail_for` plus what the builders hang on a node: the
    remote endpoint, the fan-out report of a merge root, the partition
    server of a shard sub-tree and the rewrite rule that made it."""
    detail = dict(_detail_for(root))
    endpoint = getattr(root, "endpoint", None)
    if endpoint is not None:
        host, port = endpoint
        detail["endpoint"] = f"archive://{host}:{port}"
    report = getattr(root, "fanout_report", None)
    if report is not None:
        detail["servers"] = list(report.touched_server_ids)
        if report.pruned_server_ids:
            detail["pruned"] = list(report.pruned_server_ids)
    server_id = getattr(root, "server_id", None)
    if server_id is not None:
        detail["server"] = server_id
    rule = getattr(root, "rule", None)
    if rule is not None:
        detail["rule"] = rule
    return detail


def plan_tree(root):
    """Map an (unstarted) QET to its :class:`PlanTree`.

    Because the tree is derived from the executable nodes themselves —
    not from a parallel description — explain output can never drift
    from what execution would actually do.  Distributed merge roots
    carry their :class:`~repro.distributed.routing.ShardFanoutReport`
    (``servers``/``pruned``), each shard sub-tree is labelled with the
    partition server it would run on, and the root of a SELECT that a
    rewrite made names its rule (``rule=set_op_fusion``: a set
    operation of two bare SELECTs over one source, fused into one scan
    by :func:`~repro.query.physical.fuse_set_op`).

    A remote node (the leaf of an ``archive://`` session) carries the
    *server-rendered* plan tree — derived from the server's executable
    QET by this same function, fetched with a ``prepare`` exchange when
    read here — so explaining a remote query shows the real scans and
    merges that would run in the server process, annotated with the
    endpoint.
    """
    remote_plan = getattr(root, "remote_plan", None)
    endpoint = getattr(root, "endpoint", None)
    if remote_plan is not None:
        annotated = PlanTree(
            kind=remote_plan.kind,
            detail=dict(remote_plan.detail),
            children=list(remote_plan.children),
        )
        if endpoint is not None:
            host, port = endpoint
            annotated.detail["endpoint"] = f"archive://{host}:{port}"
        return annotated
    detail = _annotated_detail(root)
    mode = getattr(root, "mode", None)
    if endpoint is not None and mode is not None:
        # A shard-mode remote leaf (no server plan shipped): record the
        # subquery it fans out to.
        detail["mode"] = mode
    return PlanTree(
        kind=root.name,
        detail=detail,
        children=[plan_tree(child) for child in root.children],
    )


def _measured_detail(stats):
    """EXPLAIN ANALYZE annotations from one node's :class:`NodeStats`.

    Unset timestamps surface as ``None`` (a node that never started has
    no elapsed time — not a zero-based nonsense delta).
    """
    detail = {"rows": stats.rows_out, "batches": stats.batches_out}
    if stats.started_at is None or stats.finished_at is None:
        detail["time_ms"] = None
    else:
        detail["time_ms"] = round((stats.finished_at - stats.started_at) * 1e3, 3)
    if stats.first_output_at is not None and stats.started_at is not None:
        detail["first_row_ms"] = round(
            (stats.first_output_at - stats.started_at) * 1e3, 3
        )
    detail.update(stats.counters())
    return detail


def analyzed_plan_tree(root):
    """Map an *executed* QET to its measured :class:`PlanTree`.

    The static :func:`plan_tree` details are kept and the per-node
    measurements appended (rows/batches out, wall ``time_ms``,
    ``first_row_ms``, container and predicate counters) — the EXPLAIN
    ANALYZE shape.  A remote leaf that received its server-executed
    subtree over the wire (``remote_analyzed_plan``, from the ``done``
    frame) carries it as a child, so the analyzed tree covers the
    server-side scans too.
    """
    detail = _annotated_detail(root)
    detail.update(_measured_detail(root.stats))
    children = [analyzed_plan_tree(child) for child in root.children]
    remote_analyzed = getattr(root, "remote_analyzed_plan", None)
    if remote_analyzed is not None:
        children.append(
            PlanTree(
                kind=remote_analyzed.kind,
                detail=dict(remote_analyzed.detail),
                children=list(remote_analyzed.children),
            )
        )
    return PlanTree(kind=root.name, detail=detail, children=children)
