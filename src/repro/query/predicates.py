"""Expression compilation: AST -> vectorized table functions + spatial regions.

Two consumers:

* the QET query nodes need ``fn(table) -> bool mask`` (predicates) and
  ``fn(table) -> array`` (select-list / order-by scalars), evaluated with
  numpy over whole containers;
* the optimizer needs the *spatial part* of a WHERE clause as a
  :class:`~repro.geometry.region.Region` to drive the HTM cover.  Only
  positive top-level AND-ed spatial terms are extracted — the index is a
  superset filter, and every spatial function is *also* compiled into the
  point-wise mask, so answers stay exact no matter what the extractor
  misses.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.schema import ObjectType
from repro.geometry.coords import get_frame
from repro.geometry.region import Region
from repro.geometry.shapes import (
    circle_region,
    latitude_band,
    longitude_wedge,
    polygon_region,
    rect_region,
)
from repro.geometry.vector import radec_to_vector
from repro.query.ast_nodes import (
    BinaryOp,
    Column,
    FuncCall,
    Literal,
    UnaryOp,
    walk_expr,
)
from repro.query.errors import PlanError

__all__ = [
    "SPATIAL_FUNCTIONS",
    "compile_predicate",
    "compile_scalar",
    "extract_spatial_region",
    "referenced_columns",
    "region_for_spatial_call",
]

#: Names of spatial predicate functions (argument shapes documented in
#: :func:`region_for_spatial_call`).
SPATIAL_FUNCTIONS = {"CIRCLE", "RECT", "LATBAND", "LONWEDGE", "POLYGON"}

#: Object-class name constants usable as bare identifiers in queries
#: (e.g. ``objtype = QUASAR``).
_CLASS_CONSTANTS = {t.name: int(t.value) for t in ObjectType}


def _literal_number(expr, function_name):
    """Extract a numeric literal argument of a spatial function."""
    if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(expr.operand, Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -float(value)
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    raise PlanError(f"{function_name} arguments must be numeric literals")


def region_for_spatial_call(call):
    """Build the :class:`Region` for a spatial :class:`FuncCall`.

    Shapes::

        CIRCLE(ra, dec, radius_deg)
        RECT(lon_min, lon_max, lat_min, lat_max [, 'frame'])
        LATBAND(lat_min, lat_max [, 'frame'])
        LONWEDGE(lon_min, lon_max [, 'frame'])
        POLYGON(ra1, dec1, ra2, dec2, ra3, dec3 [, ...])
    """
    name = call.name
    args = call.args

    def frame_arg(index, default="equatorial"):
        if len(args) > index:
            frame_expr = args[index]
            if not isinstance(frame_expr, Literal) or not isinstance(frame_expr.value, str):
                raise PlanError(f"{name} frame argument must be a string literal")
            return get_frame(frame_expr.value)
        return get_frame(default)

    if name == "CIRCLE":
        if len(args) != 3:
            raise PlanError("CIRCLE needs (ra, dec, radius_deg)")
        ra, dec, radius = (_literal_number(a, name) for a in args)
        return circle_region(ra, dec, radius)
    if name == "RECT":
        if len(args) not in (4, 5):
            raise PlanError("RECT needs (lon_min, lon_max, lat_min, lat_max [, frame])")
        lon_min, lon_max, lat_min, lat_max = (_literal_number(a, name) for a in args[:4])
        return rect_region(lon_min, lon_max, lat_min, lat_max, frame=frame_arg(4))
    if name == "LATBAND":
        if len(args) not in (2, 3):
            raise PlanError("LATBAND needs (lat_min, lat_max [, frame])")
        lat_min, lat_max = (_literal_number(a, name) for a in args[:2])
        return latitude_band(lat_min, lat_max, frame=frame_arg(2))
    if name == "LONWEDGE":
        if len(args) not in (2, 3):
            raise PlanError("LONWEDGE needs (lon_min, lon_max [, frame])")
        lon_min, lon_max = (_literal_number(a, name) for a in args[:2])
        return longitude_wedge(lon_min, lon_max, frame=frame_arg(2))
    if name == "POLYGON":
        if len(args) < 6 or len(args) % 2 != 0:
            raise PlanError("POLYGON needs an even number (>= 6) of coordinates")
        values = [_literal_number(a, name) for a in args]
        vertices = list(zip(values[0::2], values[1::2]))
        return polygon_region(vertices)
    raise PlanError(f"unknown spatial function {name}")


def _compile_function(call, schema):
    """Compile a non-Boolean function call to ``fn(table) -> array``."""
    name = call.name
    if name in SPATIAL_FUNCTIONS:
        region = region_for_spatial_call(call)

        def spatial_mask(table, _region=region):
            return _region.contains(table.positions_xyz())

        return spatial_mask

    if name == "DIST_ARCMIN":
        # DIST_ARCMIN(ra, dec): angular distance from a fixed point, in
        # arcminutes — the paper's "special operators related to angular
        # distances" as an expression usable in WHERE and ORDER BY.
        if len(call.args) != 2:
            raise PlanError("DIST_ARCMIN needs (ra, dec)")
        ra = _literal_number(call.args[0], name)
        dec = _literal_number(call.args[1], name)
        center = radec_to_vector(ra, dec)

        def distance(table, _center=center):
            xyz = table.positions_xyz()
            cross_norm = np.linalg.norm(np.cross(xyz, _center), axis=-1)
            dot_val = xyz @ _center
            return np.rad2deg(np.arctan2(cross_norm, dot_val)) * 60.0

        return distance

    simple = {
        "ABS": np.abs,
        "SQRT": np.sqrt,
        "LOG10": np.log10,
        "FLOOR": np.floor,
        "CEIL": np.ceil,
    }
    if name in simple:
        if len(call.args) != 1:
            raise PlanError(f"{name} needs exactly one argument")
        inner = compile_scalar(call.args[0], schema)
        op = simple[name]

        def unary_math(table, _inner=inner, _op=op):
            # SQRT or LOG10 out of its domain is NaN (or -inf), which
            # every comparison already treats as false: not a warning.
            with np.errstate(invalid="ignore", divide="ignore"):
                return _op(_inner(table))

        return unary_math

    if name in ("LEAST", "GREATEST"):
        if len(call.args) < 2:
            raise PlanError(f"{name} needs at least two arguments")
        parts = [compile_scalar(a, schema) for a in call.args]
        reducer = np.minimum if name == "LEAST" else np.maximum

        def variadic(table, _parts=parts, _reducer=reducer):
            result = _parts[0](table)
            for part in _parts[1:]:
                result = _reducer(result, part(table))
            return result

        return variadic

    raise PlanError(f"unknown function {name}")


def compile_scalar(expr, schema):
    """Compile an expression to ``fn(table) -> numpy array`` (or scalar)."""
    if isinstance(expr, Literal):
        value = expr.value

        def literal(table, _value=value):
            return _value

        return literal

    if isinstance(expr, Column):
        name = expr.name
        if name.upper() in _CLASS_CONSTANTS:
            code = _CLASS_CONSTANTS[name.upper()]

            def class_constant(table, _code=code):
                return _code

            return class_constant
        if name not in schema:
            raise PlanError(f"unknown column {name!r} in schema {schema.name!r}")

        def column(table, _name=name):
            return table[_name]

        return column

    if isinstance(expr, UnaryOp):
        inner = compile_scalar(expr.operand, schema)
        if expr.op == "-":

            def negate(table, _inner=inner):
                return -np.asarray(_inner(table))

            return negate
        if expr.op == "NOT":

            def logical_not(table, _inner=inner):
                return ~np.asarray(_inner(table), dtype=bool)

            return logical_not
        raise PlanError(f"unknown unary operator {expr.op}")

    if isinstance(expr, BinaryOp):
        left = compile_scalar(expr.left, schema)
        right = compile_scalar(expr.right, schema)
        op = expr.op
        arithmetic = {
            "+": np.add,
            "-": np.subtract,
            "*": np.multiply,
            "/": np.divide,
        }
        comparisons = {
            "=": np.equal,
            "!=": np.not_equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }
        if op in arithmetic:
            fn = arithmetic[op]
        elif op in comparisons:
            fn = comparisons[op]
        elif op == "AND":

            def logical_and(table, _l=left, _r=right):
                return np.asarray(_l(table), dtype=bool) & np.asarray(_r(table), dtype=bool)

            return logical_and
        elif op == "OR":

            def logical_or(table, _l=left, _r=right):
                return np.asarray(_l(table), dtype=bool) | np.asarray(_r(table), dtype=bool)

            return logical_or
        else:
            raise PlanError(f"unknown binary operator {op}")

        def binary(table, _l=left, _r=right, _fn=fn):
            return _fn(_l(table), _r(table))

        return binary

    if isinstance(expr, FuncCall):
        return _compile_function(expr, schema)

    raise PlanError(f"cannot compile expression node {type(expr).__name__}")


def compile_predicate(expr, schema):
    """Compile a WHERE expression to ``fn(table) -> bool mask``.

    A ``None`` expression compiles to the all-true mask.
    """
    if expr is None:

        def always(table):
            return np.ones(len(table), dtype=bool)

        return always

    scalar = compile_scalar(expr, schema)

    def predicate(table, _scalar=scalar):
        result = _scalar(table)
        mask = np.asarray(result, dtype=bool)
        if mask.shape == ():
            mask = np.full(len(table), bool(mask))
        return mask

    return predicate


def extract_spatial_region(expr):
    """Spatial region implied by the positive AND-ed terms of ``expr``.

    Returns ``None`` when no index-usable constraint exists (the query
    must scan).  Conservative: OR branches are only used when *both*
    sides yield regions (then the union bounds the disjunction); NOT-ed
    and nested spatial terms are ignored rather than risk wrong pruning.
    """
    if expr is None:
        return None
    if isinstance(expr, FuncCall) and expr.name in SPATIAL_FUNCTIONS:
        return region_for_spatial_call(expr)
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        left = extract_spatial_region(expr.left)
        right = extract_spatial_region(expr.right)
        if left is not None and right is not None:
            return left.intersect(right)
        return left if left is not None else right
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        left = extract_spatial_region(expr.left)
        right = extract_spatial_region(expr.right)
        if left is not None and right is not None:
            return left.union(right)
        return None
    return None


def referenced_columns(expr_or_exprs):
    """Set of column names referenced by one or more expressions.

    Class constants (STAR, GALAXY, ...) are not columns and are excluded;
    a spatial term or ``DIST_ARCMIN`` reads the position columns
    ``cx, cy, cz`` without naming them.
    """
    exprs = expr_or_exprs if isinstance(expr_or_exprs, (list, tuple)) else [expr_or_exprs]
    names = set()
    for expr in exprs:
        if expr is None:
            continue
        for node in walk_expr(expr):
            if isinstance(node, Column) and node.name.upper() not in _CLASS_CONSTANTS:
                names.add(node.name)
            elif isinstance(node, FuncCall) and (
                node.name in SPATIAL_FUNCTIONS or node.name == "DIST_ARCMIN"
            ):
                names.update(("cx", "cy", "cz"))
    return names
