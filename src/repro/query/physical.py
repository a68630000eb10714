"""The physical planner: one AST -> Query Execution Tree builder.

*"Each query received from the User Interface is parsed into a Query
Execution Tree (QET) ... Each node of the QET is either a query or a
set-operation node"* — and the same tree runs whether the data sits on
one server or is split among many.  This module alone decides which QET
nodes a planned SELECT or a set operation becomes:

* :func:`build_query_tree` is the only walker of
  :class:`~repro.query.ast_nodes.SetOp`; it numbers the SELECTs — the
  ``select_index`` a coordinator sends and a shard server resolves —
  after :func:`fuse_set_op` has rewritten a set operation of two bare
  SELECTs over one source into one SELECT, so both ends number the
  fused query alike.
* :func:`select_tree` (one store, or the shard half of a split plan)
  and :func:`merge_tree` (the coordinator half) build one SELECT and
  share one aggregate -> HAVING -> :func:`order_limit_tail` tail: a
  shard's aggregate emits its partial state, and the coordinator's
  (:class:`~repro.query.qet.MergeAggregateNode`) folds those states and
  finishes the base plan; :func:`scatter_gather_tree` is
  plan -> split -> candidates -> fan-out -> merge, the fan-out passed in.
* :func:`prepare_query` runs the pipeline for a backend and returns the
  :class:`PreparedQuery` — an **unstarted** tree — that the session
  layer admits, starts, streams and cancels.

A backend is an :class:`Executor`; the engines implement it themselves,
so a rewriting optimizer or a join operator has this one seam to extend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.query.ast_nodes import BinaryOp, Column, Literal, Select, SetOp, UnaryOp
from repro.query.errors import PlanError
from repro.query.optimizer import (
    _contains_aggregate,
    output_schema_for,
    plan_query,
    shard_candidates,
    split_plan,
)
from repro.query.parser import extract_into, parse_query
from repro.query.qet import (
    AggregateNode,
    DifferenceNode,
    ExchangeNode,
    FilterNode,
    IntersectNode,
    LimitNode,
    MergeAggregateNode,
    MergeSortNode,
    ProjectNode,
    QETNode,
    ScanNode,
    SortNode,
    UnionNode,
)

__all__ = [
    "PreparedQuery",
    "Executor",
    "fuse_set_op",
    "build_query_tree",
    "query_selects",
    "plan_selects",
    "order_limit_tail",
    "select_tree",
    "merge_tree",
    "scatter_gather_tree",
    "prepare_query",
]


@dataclass
class PreparedQuery:
    """Everything the session needs to run one query.

    Attributes
    ----------
    text:
        The original query text.
    root:
        The unstarted QET root; starting its threads begins execution.
    schema:
        Statically-derived output schema (``None`` only when unknowable
        without data).
    reports:
        One :class:`~repro.distributed.routing.ShardFanoutReport` per
        SELECT for distributed backends; empty for single-store ones.
    sources:
        The routed physical source of every SELECT (e.g. ``['tag']``
        after tag routing) — the stores whose shared sweeps this query
        rides; the session reads their generations to key and validate
        cached results.
    into:
        The ``SELECT ... INTO mydb.x`` destination, or ``None`` for
        ordinary queries.  The session layer materializes the drained
        result into the submitting user's MyDB workspace.
    """

    text: str
    root: object
    schema: object = None
    reports: list = field(default_factory=list)
    sources: list = field(default_factory=list)
    into: str | None = None


class Executor:
    """The protocol a session drives any backend through.

    Subclassing is optional; duck-typing with a ``prepare`` method and
    a ``kind`` attribute is enough.  ``prepare`` plans, (for
    distributed backends) splits and routes, and builds the execution
    tree **without starting any thread**: the session owns admission,
    thread start, streaming and cancellation from there, and an
    executor has no way to run what it prepares.  The engines implement
    this directly; there is no adapter layer.

    Beyond ``prepare``, ``kind`` and ``parse`` the session probes for
    ``supports_mydb`` (per-user MyDB overlays and INTO),
    ``generations_for`` (result-cache validation), ``stats`` and
    ``mydb_op``.
    """

    #: short backend label (``"local"``, ``"distributed"``, ...)
    kind = "abstract"
    #: ``parse(text) -> AST`` of a backend that plans from the parsed
    #: query: the session calls it once, inside its ``parse`` span, and
    #: hands the result to ``prepare(..., ast=ast)``.  ``None`` means
    #: the text is opaque here (a far server parses it) and ``prepare``
    #: receives no ``ast``.
    parse = None

    def prepare(self, text, allow_tag_route=True, ast=None):
        raise NotImplementedError


# ----------------------------------------------------------------------
# set operations: the one SetOp walker
# ----------------------------------------------------------------------

_SET_NODES = {
    "UNION": UnionNode,
    "INTERSECT": IntersectNode,
    "EXCEPT": DifferenceNode,
}


#: the name ``EXPLAIN`` gives a root that :func:`fuse_set_op` built
SET_OP_FUSION = "set_op_fusion"

_OBJID = Column("objid")


def _bare(select):
    """A SELECT of rows and nothing else, that returns the object
    pointer under its own name."""
    return (
        isinstance(select, Select)
        and any(e == _OBJID and alias in (None, "objid") for e, alias in select.columns)
        and not any(_contains_aggregate(e) for e, _alias in select.columns)
        and not (select.group_by or select.having or select.order_by)
        and select.limit is None
        and select.into is None
    )


def _conjoin(left, right):
    """``left AND right``, where an absent term is true."""
    if left is None or right is None:
        return right if left is None else left
    return BinaryOp("AND", left, right)


def fuse_set_op(setop):
    """``A UNION B``, ``A INTERSECT B`` or ``A EXCEPT B`` as one SELECT,
    or ``None``.

    The rule fires when both sides are bare SELECTs (no aggregate,
    GROUP BY, HAVING, ORDER BY, LIMIT or INTO; nested set operations are
    fused first) over the same source that return ``objid``, and B's
    select list is a part of A's (so B plans wherever A does) — for a
    UNION, the same list.  Because ``objid`` is a key of every store,
    the pointer union is the row disjunction, A's select list ``WHERE
    A.where OR B.where`` (an absent WHERE is true); the intersection is
    the conjunction ``A.where AND B.where`` — B's region narrows the
    cover — and the difference ``A.where AND NOT (B.where)``, whose
    negated region never becomes a cover.  One scan then replaces two
    laps and the set node.  Every other set operation keeps its node.
    """
    if setop.op not in _SET_NODES:
        return None
    left, right = (
        (fuse_set_op(side) or side) if isinstance(side, SetOp) else side
        for side in (setop.left, setop.right)
    )
    if not (
        _bare(left)
        and _bare(right)
        and left.source == right.source
        and set(right.columns) <= set(left.columns)
        and (setop.op != "UNION" or right.columns == left.columns)
    ):
        return None
    if setop.op == "UNION":
        if left.where is None or right.where is None:
            return replace(left, where=None)
        return replace(left, where=BinaryOp("OR", left.where, right.where))
    where = right.where
    if setop.op == "EXCEPT":
        where = UnaryOp("NOT", Literal(True) if where is None else where)
    return replace(left, where=_conjoin(left.where, where))


def build_query_tree(ast, build_select):
    """Build (but do not start) the QET of a parsed query.

    ``build_select(select, select_index)`` returns the root of one
    SELECT's sub-tree; set operations combine them, unless
    :func:`fuse_set_op` makes one SELECT of them (its root names the
    rule as ``rule``).  SELECTs are numbered left-to-right depth-first
    after the rewrite, so ``select_index`` names the same subquery on
    both ends of the wire.
    """
    numbering = itertools.count()

    def build(node):
        if isinstance(node, SetOp):
            fused = fuse_set_op(node)
            if fused is not None:
                root = build_select(fused, next(numbering))
                root.rule = SET_OP_FUSION
                return root
            left = build(node.left)
            right = build(node.right)
            if node.op not in _SET_NODES:
                raise PlanError(f"unknown set operator {node.op}")
            return _SET_NODES[node.op](left, right)
        if not isinstance(node, Select):
            raise PlanError(f"cannot execute {type(node).__name__}")
        return build_select(node, next(numbering))

    return build(ast)


def query_selects(ast):
    """Every SELECT of a parsed query, in ``select_index`` order."""
    selects = []

    def note(select, _select_index):
        selects.append(select)
        return QETNode()  # never started: only the numbering matters

    build_query_tree(ast, note)
    return selects


def plan_selects(ast, schemas, allow_tag_route=True):
    """The :class:`~repro.query.optimizer.QueryPlan` of every SELECT, in
    ``select_index`` order — the optimizer's view of a query, for tests
    and benchmarks that inspect plans without building a tree."""
    return [
        plan_query(select, schemas, allow_tag_route)
        for select in query_selects(ast)
    ]


# ----------------------------------------------------------------------
# one SELECT
# ----------------------------------------------------------------------


def order_limit_tail(node, plan):
    """``ORDER BY`` / ``LIMIT`` over ``node``: one :class:`SortNode`
    (limited or not) when there are keys, else a limit."""
    if plan.order_key_fns:
        return SortNode(node, plan.order_key_fns, plan.order_descending, plan.limit)
    if plan.limit is not None:
        return LimitNode(node, plan.limit)
    return node


def _aggregate_tail(node_class, child, plan):
    """``plan``'s aggregate over ``child``, then HAVING and
    :func:`order_limit_tail` (a shard's partial half has none of them)."""
    node = node_class(child, plan.group_specs, plan.aggregate_specs, plan.output_order)
    if plan.having_fn is not None:
        node = FilterNode(node, plan.having_fn)
    return order_limit_tail(node, plan)


def select_tree(store, plan, batch_rows=4096, **scan_options):
    """The QET of one planned SELECT over one store (``scan_options`` go
    to the :class:`~repro.query.qet.ScanNode`).

    A split plan's shard half (``sharded.shard``: an aggregate emits its
    partial state and keeps no HAVING, ORDER BY or LIMIT, and a LIMIT
    copy rides the shard's own sort) is an ordinary plan, built here
    over one partition server's store with ``candidates=`` its
    assignment, and ``track_delivery=True`` on a shard server.
    """
    node = ScanNode(store, plan, batch_rows=batch_rows, **scan_options)
    if plan.is_aggregate:
        return _aggregate_tail(AggregateNode, node, plan)
    node = order_limit_tail(node, plan)
    if plan.projection:
        node = ProjectNode(node, plan.projection)
    return node


def merge_tree(shard_roots, sharded):
    """The coordinator half: recombine shard streams and finish the base
    plan as its ``kind`` says.

    ``shard_roots`` may be local sub-trees *or* remote nodes streaming a
    far server's shard half (:class:`~repro.net.client.RemoteRootNode`)
    — the merge logic is identical, which is exactly why scatter-gather
    survives the move across process boundaries unchanged.  A failed-over
    shard stream's segments each keep up to LIMIT rows: the LIMIT here caps them.
    """
    base = sharded.base
    if sharded.kind == "aggregate":
        return _aggregate_tail(MergeAggregateNode, ExchangeNode(shard_roots), base)
    if sharded.kind == "ordered":
        # Each shard sorted and LIMIT-trimmed its own rows; only a sort
        # of them all gives the global order the LIMIT cuts.
        node = MergeSortNode(shard_roots, base.order_key_fns, base.order_descending)
        if base.limit is not None:
            node = LimitNode(node, base.limit)
        if base.projection:
            node = ProjectNode(node, base.projection)
        return node
    return order_limit_tail(ExchangeNode(shard_roots), base)


def scatter_gather_tree(plan, depth, fan_out):
    """One SELECT split across partition servers.

    ``fan_out(sharded, candidates)`` returns ``(shard_roots,
    report)``: the sub-tree (or remote leaf) of every touched server and
    the :class:`~repro.distributed.routing.ShardFanoutReport`; servers
    whose holdings miss ``candidates`` are pruned there.  The report
    rides on the merge root as ``fanout_report``.
    """
    sharded = split_plan(plan)
    shard_roots, report = fan_out(sharded, shard_candidates(plan, depth))
    root = merge_tree(shard_roots, sharded)
    root.fanout_report = report
    return root


# ----------------------------------------------------------------------
# the whole query
# ----------------------------------------------------------------------


def _check_union_columns(union, plan_of, schemas):
    """Refuse a UNION whose sides' output columns differ in name or
    dtype: their rows make no one table.  A side is its leftmost SELECT
    (a set node returns its left side's rows); an unknowable one passes."""
    sides = []
    for side in union.children:
        while side not in plan_of:
            side = side.children[0]
        sides.append(output_schema_for(plan_of[side], schemas))
    if None in sides or sides[0].numpy_dtype() == sides[1].numpy_dtype():
        return
    left, right = ([f"{f.name} {f.dtype}" for f in schema.fields] for schema in sides)
    raise PlanError(f"UNION sides select different columns: {left} and {right}")


def prepare_query(text, schemas, select_root, ast=None, allow_tag_route=True):
    """Parse (unless ``ast`` is given), plan and build, without starting.

    ``select_root(plan, select_index)`` builds one planned SELECT's
    sub-tree — the only thing that differs between backends.  A set
    operation reports its leftmost SELECT's schema.
    """
    if ast is None:
        ast = parse_query(text)
    plans = []
    roots = []

    def build_select(select, select_index):
        plan = plan_query(select, schemas, allow_tag_route)
        plans.append(plan)
        roots.append(select_root(plan, select_index))
        return roots[-1]

    root = build_query_tree(ast, build_select)
    plan_of = dict(zip(roots, plans))
    for node in root.walk():
        if isinstance(node, UnionNode):
            _check_union_columns(node, plan_of, schemas)
    return PreparedQuery(
        text=text,
        root=root,
        schema=output_schema_for(plans[0], schemas),
        reports=[r.fanout_report for r in roots if hasattr(r, "fanout_report")],
        sources=[plan.routed_source for plan in plans],
        into=extract_into(ast),
    )
