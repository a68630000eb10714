"""Query planning: index selection, tag routing, aggregation.

Decisions the paper describes:

* **spatial index use** — the WHERE clause's positive spatial terms become
  a region whose HTM cover prunes containers: the inside and partial
  (bisected) trixels are the scan's candidates, the rest are never
  delivered, and the compiled WHERE — spatial terms included — tests
  every delivered row;
* **tag routing** — "small tag objects consisting of the most popular
  attributes speed up frequent searches": if every referenced column is
  available on the tag table, the plan reads tags instead of full records;
* **aggregation** — GROUP BY selects plan an aggregate node (one of the
  paper's pipeline-breaking QET node kinds) with HAVING as a post-filter.

A plan is made from the SELECT and the schemas alone.  The paper's cost
prediction ("a prediction of the output data volume and search time can be
computed from the intersection volume") is
:meth:`~repro.htm.depthmap.DensityMap.estimate`, reproduced by the volume
prediction figure test; no plan carries one.

Distributed splitting ("Splitting the data among multiple servers enables
parallel, scalable I/O"): :func:`split_plan` divides a single-store
:class:`QueryPlan` into the per-shard sub-plan — scan + filter + the
partial half of an aggregate + sort/limit/projection pushdown, executed
unchanged on every partition server — and names how the coordinator
recombines the shard streams from the plan itself (a
:class:`ShardedPlan`'s ``kind``); :func:`shard_candidates` turns the
plan's region into the HTM :class:`~repro.htm.ranges.RangeSet` used to
*prune* servers whose id ranges cannot hold a matching object and the
containers each scan is delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.catalog.schema import Field as SchemaField
from repro.catalog.schema import Schema
from repro.query.ast_nodes import Column, FuncCall, OrderTerm, Select, walk_expr
from repro.query.errors import PlanError
from repro.query.predicates import (
    compile_predicate,
    compile_scalar,
    extract_spatial_region,
    referenced_columns,
)
from repro.query.qet import _GroupedAccumulator

__all__ = [
    "QueryPlan",
    "plan_query",
    "output_schema_for",
    "AGGREGATE_FUNCTIONS",
    "ShardedPlan",
    "split_plan",
    "shard_candidates",
]

#: Aggregate function names recognized in select lists.
AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass
class QueryPlan:
    """Executable plan for one SELECT.

    Attributes
    ----------
    source:
        Logical table name requested in the query.
    routed_source:
        Physical table chosen by the optimizer (may be ``'tag'``).
    region:
        Spatial region for the HTM cover, or ``None`` (full scan).
    predicate:
        Compiled WHERE mask function.
    projection:
        ``(name, hint, fn)`` triples for the ProjectNode; empty = the
        scan's rows (``*`` or bare columns).  Unused when ``is_aggregate``.
    gathered:
        Schema of the rows the scan emits: the columns the nodes above it
        read (projection, ORDER BY keys, GROUP BY, aggregate arguments;
        not WHERE-only ones), or ``None`` for whole rows (``SELECT *``).
    order_key_fns / order_descending:
        Compiled ORDER BY keys (against the output schema for
        aggregates).
    limit:
        Row limit or ``None``.
    is_aggregate / group_specs / aggregate_specs / output_order / having_fn:
        Aggregation plan parts for the AggregateNode and HAVING filter.
        The shard half of a split aggregate lists its accumulator's
        ``state_names`` as ``output_order``: it emits its partials.
    """

    source: str
    routed_source: str
    region: object
    predicate: object
    projection: list
    order_key_fns: list = field(default_factory=list)
    order_descending: list = field(default_factory=list)
    limit: int | None = None
    is_aggregate: bool = False
    group_specs: list = field(default_factory=list)
    aggregate_specs: list = field(default_factory=list)
    output_order: list = field(default_factory=list)
    having_fn: object = None
    used_tag_route: bool = False
    used_spatial_index: bool = False
    gathered: Schema | None = None


def _projection_name(expr, alias, index):
    if alias:
        return alias
    if isinstance(expr, Column):
        return expr.name
    if isinstance(expr, FuncCall):
        return f"{expr.name.lower()}{index}"
    return f"col{index}"


def _contains_aggregate(expr):
    return any(
        isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS
        for node in walk_expr(expr)
    )


def _plan_aggregation(select, schema, order_terms):
    """Build group/aggregate specs and output-schema-based compilations."""
    if not select.columns:
        raise PlanError("aggregate queries must list explicit select columns")

    group_specs = []
    aggregate_specs = []
    output_order = []
    matched_group_exprs = set()

    for index, (expr, alias) in enumerate(select.columns):
        name = _projection_name(expr, alias, index)
        output_order.append(name)
        if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
            if len(expr.args) != 1:
                raise PlanError(f"{expr.name} takes exactly one argument")
            if _contains_aggregate(expr.args[0]):
                raise PlanError("nested aggregates are not supported")
            aggregate_specs.append(
                (name, expr.name, compile_scalar(expr.args[0], schema))
            )
        elif expr in select.group_by:
            matched_group_exprs.add(expr)
            group_specs.append((name, compile_scalar(expr, schema)))
        elif _contains_aggregate(expr):
            raise PlanError(
                "aggregates must be the whole select expression "
                "(e.g. MAX(mag_r), not MAX(mag_r) - 1)"
            )
        else:
            raise PlanError(
                f"column {name!r} must appear in GROUP BY or be an aggregate"
            )

    # Grouping keys not in the select list still group (name=None).
    for expr in select.group_by:
        if expr not in matched_group_exprs:
            group_specs.append((None, compile_scalar(expr, schema)))

    output_schema = Schema(
        "aggregation_output", [SchemaField(n, "f8") for n in output_order]
    )
    having_fn = (
        compile_predicate(select.having, output_schema)
        if select.having is not None
        else None
    )
    order_key_fns = [
        compile_scalar(term.expr, output_schema) for term in order_terms
    ]
    order_descending = [term.descending for term in order_terms]
    return (
        group_specs,
        aggregate_specs,
        output_order,
        having_fn,
        order_key_fns,
        order_descending,
    )


def plan_query(select, schemas, allow_tag_route=True):
    """Plan one :class:`~repro.query.ast_nodes.Select`.

    Parameters
    ----------
    select:
        The parsed Select node.
    schemas:
        Mapping of source name -> :class:`Schema` for the available
        physical tables (e.g. ``{'photo': ..., 'tag': ..., 'spectro': ...}``).
    allow_tag_route:
        Disable to benchmark the un-routed plan.
    """
    if not isinstance(select, Select):
        raise PlanError(f"expected a Select, got {type(select).__name__}")
    if select.source not in schemas:
        raise PlanError(
            f"unknown source {select.source!r}; have {sorted(schemas)}"
        )

    is_aggregate = bool(select.group_by) or any(
        _contains_aggregate(expr) for expr, _alias in select.columns
    )
    if select.having is not None and not is_aggregate:
        raise PlanError("HAVING requires GROUP BY or aggregate columns")
    # The columns of one table need distinct names.
    names = [_projection_name(e, alias, i) for i, (e, alias) in enumerate(select.columns)]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise PlanError(
            f"column names {repeated} appear twice in the select list; "
            "rename one with AS"
        )

    # ORDER BY may name select-list aliases; substitute them up front.
    # (Aggregate plans sort on output columns instead, no substitution.)
    aliases = {
        alias: expr for expr, alias in select.columns if alias is not None
    }
    order_terms = [
        OrderTerm(aliases[term.expr.name], term.descending)
        if not is_aggregate
        and isinstance(term.expr, Column)
        and term.expr.name in aliases
        else term
        for term in select.order_by
    ]

    # Which source columns does the query touch?  SELECT * touches
    # everything in the requested source, so it can never be tag-routed
    # to a narrower physical table.  For aggregates, HAVING and ORDER BY
    # reference *output* names and are excluded here.
    exprs = [expr for expr, _alias in select.columns]
    exprs.extend(select.group_by)
    if not is_aggregate:
        exprs.extend(term.expr for term in order_terms)
    read_above = referenced_columns(exprs)
    needed = read_above | referenced_columns(select.where)
    if not select.columns:
        needed |= set(schemas[select.source].field_names())

    # Tag routing: photo queries touching only tag attributes read tags.
    routed = select.source
    used_tag_route = False
    if (
        allow_tag_route
        and select.source == "photo"
        and "tag" in schemas
        and needed <= set(schemas["tag"].field_names())
    ):
        routed = "tag"
        used_tag_route = True

    schema = schemas[routed]
    missing = sorted(needed - set(schema.field_names()))
    if missing:
        raise PlanError(
            f"columns {missing} not available on source {routed!r}"
        )

    region = extract_spatial_region(select.where)
    predicate = compile_predicate(select.where, schema)
    # The scan gathers what the nodes above it read.  A select list of
    # exactly those columns, bare and distinct, is the scan's output (in
    # select-list order), and no projection runs over it.
    bare = [e.name for e, alias in select.columns if isinstance(e, Column) and not alias]
    is_bare = not is_aggregate and len(bare) == len(select.columns) and (
        sorted(bare) == sorted(read_above)
    )
    dtype = schema.numpy_dtype()
    names = bare if is_bare else [n for n in dtype.names if n in read_above]
    fields = [SchemaField(n, dtype[n].base.str, shape=dtype[n].shape) for n in names]

    plan = QueryPlan(
        source=select.source,
        routed_source=routed,
        region=region,
        predicate=predicate,
        projection=[],
        limit=select.limit,
        used_tag_route=used_tag_route,
        used_spatial_index=region is not None,
        gathered=Schema("projection", fields) if select.columns else None,
    )

    if is_aggregate:
        (
            plan.group_specs,
            plan.aggregate_specs,
            plan.output_order,
            plan.having_fn,
            plan.order_key_fns,
            plan.order_descending,
        ) = _plan_aggregation(select, schema, order_terms)
        plan.is_aggregate = True
    else:
        if not is_bare:
            for index, (expr, alias) in enumerate(select.columns):
                name = _projection_name(expr, alias, index)
                plan.projection.append((name, None, compile_scalar(expr, schema)))
        plan.order_key_fns = [
            compile_scalar(term.expr, schema) for term in order_terms
        ]
        plan.order_descending = [term.descending for term in order_terms]
    return plan


# ----------------------------------------------------------------------
# static output schema
# ----------------------------------------------------------------------


def output_schema_for(plan, schemas):
    """Static output :class:`Schema` of one plan, or ``None`` if unknowable.

    Derived by evaluating the plan's compiled expressions over a zero-row
    table of the routed schema, so an empty result carries the same
    dtypes a non-empty result of the same query would.  Every engine
    threads this into its results so that *empty bags are well-formed
    empty tables* — the same contract for local and distributed
    execution.
    """
    from repro.catalog.table import ObjectTable

    routed = schemas[plan.routed_source]
    if not plan.is_aggregate and not plan.projection:
        return routed if plan.gathered is None else plan.gathered
    try:
        empty = ObjectTable(routed)
        if plan.is_aggregate:
            accumulator = _GroupedAccumulator(plan.group_specs, plan.aggregate_specs)
            return accumulator.schema(empty, plan.output_order)
        fields = []
        for name, _hint, fn in plan.projection:
            array = np.asarray(fn(empty))
            if array.shape == ():
                array = np.full(0, array)
            fields.append(
                SchemaField(name, array.dtype.str, shape=array.shape[1:])
            )
        return Schema("projection", fields)
    except Exception:
        return None


# ----------------------------------------------------------------------
# distributed plan splitting
# ----------------------------------------------------------------------


@dataclass
class ShardedPlan:
    """A :class:`QueryPlan` split for scatter-gather execution.

    ``shard`` runs unchanged on every touched partition server; ``base``
    is the original single-store plan, whose ORDER BY, LIMIT, projection
    and aggregate the coordinator finishes; ``kind`` says how it
    recombines the shard streams:

    * ``'stream'`` — an unordered union (projection and LIMIT were pushed
      down; the coordinator's LIMIT also caps a failed-over stream);
    * ``'ordered'`` — one sort of every shard's rows (each shard sorted
      and LIMIT-trimmed its own), then the LIMIT and the projection
      (sort keys reference source columns);
    * ``'aggregate'`` — every shard emits its aggregate's partial state;
      the coordinator folds the states and finishes the aggregate, then
      HAVING / ORDER BY / LIMIT exactly as the single-store plan would.
    """

    base: QueryPlan
    shard: QueryPlan
    kind: str


def split_plan(plan):
    """Split a single-store :class:`QueryPlan` into its shard half.

    Everything that can run against one server's containers alone is
    pushed down: the indexed scan, the WHERE filter, the partial half of
    an aggregate, the per-shard sort, a copy of the LIMIT (each shard
    needs at most the global top-k), and — when no reorder follows —
    the projection.
    """
    if plan.is_aggregate:
        # The shard's output is the accumulator's state: its partials.
        state = _GroupedAccumulator(plan.group_specs, plan.aggregate_specs)
        shard = replace(
            plan,
            output_order=state.state_names,
            having_fn=None,
            order_key_fns=[],
            order_descending=[],
            limit=None,
        )
        return ShardedPlan(base=plan, shard=shard, kind="aggregate")
    if plan.order_key_fns:
        return ShardedPlan(base=plan, shard=replace(plan, projection=[]), kind="ordered")
    return ShardedPlan(base=plan, shard=replace(plan), kind="stream")


def shard_candidates(plan, depth):
    """The container ids at ``depth`` a plan's scan may read.

    Where a query's scans get their HTM cover: a
    :class:`~repro.htm.ranges.RangeSet` of the cover's inside+partial
    leaf ids, or ``None`` when the plan has no spatial region (every
    container must be scanned).  Conservative by the cover's contract,
    so neither the sweep's skipping nor intersecting it with a server's
    :class:`~repro.storage.partition.PartitionMap` range ever drops a
    container that could hold a matching object.
    """
    if plan.region is None:
        return None
    from repro.htm.cover import cover_region

    return cover_region(plan.region, depth).candidates()
