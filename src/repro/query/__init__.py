"""The parallel, streaming query system of the Science Archive.

*"Each query received from the User Interface is parsed into a Query
Execution Tree (QET) that is then executed by the Query Engine.  Each node
of the QET is either a query or a set-operation node, and returns a bag of
object-pointers upon execution.  The multi-threaded Query Engine executes
in parallel at all the nodes at a given level of the QET.  Results from
child nodes are passed up the tree as soon as they are generated."*

Pipeline: SQL-ish text -> :mod:`lexer` -> :mod:`parser` (AST in
:mod:`ast_nodes`) -> :mod:`optimizer` (spatial-region extraction, tag
routing, aggregation) -> :mod:`physical` (the one plan -> execution
tree builder) -> :mod:`qet` (the tree's nodes) -> :mod:`engine` (threads
+ ASAP push).
"""

from repro.query.errors import QueryError, ParseError, PlanError
from repro.query.parser import parse_query
from repro.query.engine import QueryEngine
from repro.query.optimizer import (
    QueryPlan,
    ShardedPlan,
    plan_query,
    shard_candidates,
    split_plan,
)
from repro.query.predicates import compile_predicate, extract_spatial_region

__all__ = [
    "QueryError",
    "ParseError",
    "PlanError",
    "parse_query",
    "QueryEngine",
    "QueryPlan",
    "plan_query",
    "ShardedPlan",
    "split_plan",
    "shard_candidates",
    "compile_predicate",
    "extract_spatial_region",
]
