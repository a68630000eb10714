"""Seeded workload generators.

Each generator is an endless iterator of :class:`~bench.ops.Op`; the
harness takes ops from it until the run's time (or ``--ops`` count) is
used up.  The same seed gives the same ops.  Parameters are drawn
*stratified* (every block of draws covers the whole range once, in a
shuffled order), so a run of a few hundred ops sees the same mix of
cheap and expensive queries whatever the seed, while two seeds never
produce the same query texts.

Cut values lie on a binary grid (multiples of 1/64 magnitude), exactly
representable in the float32 magnitude columns, so the oracle and the
program cannot disagree over a rounding of the literal.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from bench import config
from bench.ops import Op, Select

_TOPK = (10, 50, 100, 500)


def make_rng(seed, workload):
    """The workload's generator for ``--seed``."""
    return np.random.default_rng([int(seed), config.WORKLOADS.index(workload)])


# ----------------------------------------------------------------------
# draws
# ----------------------------------------------------------------------


def _stratified(rng, block):
    """Endless uniforms in [0, 1): each block of ``block`` draws holds one
    value from each of ``block`` equal strata, shuffled."""
    while True:
        values = (np.arange(block) + rng.random(block)) / block
        rng.shuffle(values)
        yield from (float(v) for v in values)


def _shuffled_blocks(rng, items):
    """Endless stream repeating ``items``, each repeat freshly shuffled."""
    items = list(items)
    while True:
        order = rng.permutation(len(items))
        yield from (items[i] for i in order)


def _grid(u, lo, hi, step):
    """The multiple of ``step`` in [lo, hi] that the uniform ``u`` selects."""
    cells = int(round((hi - lo) / step))
    return lo + step * min(cells, int(u * (cells + 1)))


def _mag_cut(u, lo=17.0, hi=21.5):
    return _grid(u, lo, hi, 1.0 / 64.0)


def _log_uniform(u, lo, hi):
    return round(lo * (hi / lo) ** u, 4)


def _sphere_point(rng):
    """Uniform point on the sphere as ``(ra, dec)`` degrees, 4 decimals."""
    ra = round(float(rng.random()) * 360.0, 4) % 360.0
    dec = round(math.degrees(math.asin(2.0 * float(rng.random()) - 1.0)), 4)
    return ra, max(-89.0, min(89.0, dec))


def _offset(ra, dec, bearing_deg, distance_deg):
    """The point ``distance_deg`` from ``(ra, dec)`` along ``bearing_deg``."""
    lat, lon = math.radians(dec), math.radians(ra)
    theta, delta = math.radians(bearing_deg), math.radians(distance_deg)
    lat2 = math.asin(
        math.sin(lat) * math.cos(delta)
        + math.cos(lat) * math.sin(delta) * math.cos(theta)
    )
    lon2 = lon + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat),
        math.cos(delta) - math.sin(lat) * math.sin(lat2),
    )
    return round(math.degrees(lon2) % 360.0, 4) % 360.0, round(math.degrees(lat2), 4)


def _zipf_cdf(n, s):
    weights = 1.0 / np.arange(1, n + 1) ** s
    return np.cumsum(weights / weights.sum())


# ----------------------------------------------------------------------
# regions
# ----------------------------------------------------------------------


def _circle(centre, radius):
    return ("circle", centre[0], centre[1], radius)


def _rect(centre, half_ra, half_dec):
    ra, dec = centre
    dec_min = max(-89.0, round(dec - half_dec, 4))
    dec_max = min(89.0, round(dec + half_dec, 4))
    return (
        "rect",
        round((ra - half_ra) % 360.0, 4) % 360.0,
        round((ra + half_ra) % 360.0, 4) % 360.0,
        dec_min,
        dec_max,
    )


def _latband(centre, half_width):
    dec = centre[1]
    return (
        "latband",
        max(-89.0, round(dec - half_width, 4)),
        min(89.0, round(dec + half_width, 4)),
    )


def _polygon(rng, centre, radius):
    """A convex polygon: 4-6 vertices on a small circle about ``centre``,
    in bearing order (kept away from the poles, where bearings fold).

    The seed's ``polygon_region`` tests every vertex against its own two
    edges with no tolerance, so rounding makes it reject most valid convex
    polygons.  A workload may hold no op that fails, so candidates are
    redrawn, from a generator of their own (the main stream does not
    depend on how many were refused), until the program's public
    constructor accepts one.
    """
    from repro.geometry import polygon_region

    ra, dec = centre
    dec = max(-80.0, min(80.0, dec))
    own = np.random.default_rng(rng.integers(1 << 62))
    for _ in range(2000):
        count = int(own.integers(4, 7))
        bearings = [(i + 0.5 * float(own.random())) * 360.0 / count for i in range(count)]
        vertices = tuple(_offset(ra, dec, b, radius) for b in bearings)
        try:
            polygon_region(list(vertices))
        except ValueError:
            continue
        return ("polygon", vertices)
    raise RuntimeError("no polygon the program accepts in 2000 draws")


# ----------------------------------------------------------------------
# scan_sweep
# ----------------------------------------------------------------------


def scan_sweep(rng):
    """Whole-catalog shapes, every lap one of each in a shuffled order."""
    u = _stratified(rng, 8)
    shapes = _shuffled_blocks(
        rng, ("stream", "tag_filter", "wide_filter", "topk", "group", "intersect")
    )
    for shape in shapes:
        yield _whole_catalog_op(shape, rng, u)


def _whole_catalog_op(shape, rng, u):
    if shape == "stream":
        # The only shape no parameter varies: pick the projected columns.
        select = Select(columns=(("objid",), ("objid", "mag_r"))[int(rng.integers(2))])
    elif shape == "tag_filter":
        select = Select(
            columns=("objid", "mag_r"), cuts=(("mag_r", "<", _mag_cut(next(u))),)
        )
    elif shape == "wide_filter":
        select = Select(
            columns=("objid", "ra", "dec"),
            linear=("ra", "dec", _grid(next(u), 60.0, 300.0, 0.25)),
        )
    elif shape == "topk":
        select = Select(
            columns=("objid", "mag_r"),
            cuts=(("mag_g", "<", _mag_cut(next(u), 20.0, 24.0)),),
            order=("mag_r", "objid"),
            limit=_TOPK[int(rng.integers(len(_TOPK)))],
        )
    elif shape == "group":
        select = Select(aggregate="group", cuts=(("mag_r", "<", _mag_cut(next(u))),))
    elif shape == "intersect":
        left = Select(cuts=(("mag_r", "<", _mag_cut(next(u), 17.0, 19.5)),))
        right = Select(cuts=(("mag_g", "<", _mag_cut(next(u), 18.0, 20.5)),))
        return Op(shape, (left, right), whole_catalog=True)
    else:
        raise ValueError(shape)
    return Op(shape, (select,), whole_catalog=True)


# ----------------------------------------------------------------------
# cone_search
# ----------------------------------------------------------------------


def _spatial_op(rng, kind, centre, u_radius, u_cut, radius_range, columns=None):
    """One spatial select about ``centre``; half carry a magnitude cut and
    a quarter an ``ORDER BY ... LIMIT``."""
    lo, hi = radius_range
    radius = _log_uniform(next(u_radius), lo, hi)
    if kind == "circle":
        region = _circle(centre, radius)
    elif kind == "rect":
        region = _rect(centre, min(radius, 10.0), min(radius / 2.0, 5.0))
    elif kind == "latband":
        region = _latband(centre, min(radius / 4.0, 1.5))
    else:
        region = _polygon(rng, centre, max(radius, 0.5))
    if columns is None:
        columns = (("objid",), ("objid", "mag_r"), ("objid", "ra", "dec"))[
            int(rng.integers(3))
        ]
    select = Select(columns=columns, region=region)
    flavour = int(rng.integers(4))
    if flavour >= 2:
        select = replace(select, cuts=(("mag_r", "<", _mag_cut(next(u_cut), 19.0)),))
    if flavour == 3:
        select = replace(
            select,
            columns=("objid", "mag_r"),
            order=("mag_r", "objid"),
            limit=_TOPK[int(rng.integers(3))],
        )
    return Op(kind, (select,))


def _centres(rng):
    """Endless centres: most from zipf-ranked hot fields (jittered by up
    to half a degree, so texts differ but the working set repeats), the
    rest uniform on the sphere."""
    fixed = np.random.default_rng(config.HOT_FIELD_SEED)
    fields = [_sphere_point(fixed) for _ in range(config.HOT_FIELDS)]
    cdf = _zipf_cdf(config.HOT_FIELDS, config.ZIPF_S)
    u_field = _stratified(rng, 32)
    hot_of_ten = round(10 * config.HOT_SHARE)
    for hot in _shuffled_blocks(rng, [True] * hot_of_ten + [False] * (10 - hot_of_ten)):
        if not hot:
            yield _sphere_point(rng)
            continue
        ra, dec = fields[int(np.searchsorted(cdf, next(u_field)))]
        yield _offset(ra, dec, float(rng.random()) * 360.0, 0.5 * float(rng.random()))


def cone_search(rng):
    """Seeded spatial ops: 70 % circles, 20 % rect/latband, 10 % polygon.

    Only one op in twenty is a latitude band: covering a band right round
    the sky costs ten times a cone, and at one in ten the 90th percentile
    would sit on the step between the two.
    """
    kinds = _shuffled_blocks(
        rng, ["circle"] * 14 + ["rect"] * 3 + ["latband"] + ["polygon"] * 2
    )
    u_radius, u_cut = _stratified(rng, 20), _stratified(rng, 10)
    centres = _centres(rng)
    for kind in kinds:
        yield _spatial_op(
            rng, kind, next(centres), u_radius, u_cut, config.CONE_RADIUS_DEG
        )


# ----------------------------------------------------------------------
# remote_tenants
# ----------------------------------------------------------------------


#: Kind of the catalog query at each popularity rank (repeating): which
#: kinds are popular is fixed, so every seed sees the same mix of cheap
#: cones and whole-catalog queries among its hits and misses.
_REMOTE_KINDS = (
    "circle", "circle", "tag_filter", "circle", "topk", "circle",
    "group", "circle", "tag_filter", "topk", "circle", "group",
)  # fmt: skip


def remote_texts(rng):
    """The ``REMOTE_TEXTS`` catalog queries of a run, most popular first."""
    u_radius, u_cut = _stratified(rng, 20), _stratified(rng, 12)
    u = _stratified(rng, 8)
    ops = []
    for rank in range(config.REMOTE_TEXTS):
        kind = _REMOTE_KINDS[rank % len(_REMOTE_KINDS)]
        if kind == "circle":
            ops.append(
                _spatial_op(
                    rng, kind, _sphere_point(rng), u_radius, u_cut, (0.5, 8.0)
                )
            )
        elif kind == "tag_filter":
            cut = _mag_cut(next(u_cut), 17.0, 20.0)
            select = Select(columns=("objid", "mag_r"), cuts=(("mag_r", "<", cut),))
            ops.append(Op(kind, (select,), whole_catalog=True))
        else:
            ops.append(_whole_catalog_op(kind, rng, u))
    return ops


def remote_tenant(rng, texts):
    """One tenant's endless op stream: per block of ten, the configured
    shares of ``INTO mydb.t*`` writes and reads of a ``mydb`` table, the
    rest catalog queries drawn zipf-ranked from ``texts``."""
    writes = round(10 * config.MYDB_WRITE_SHARE)
    reads = round(10 * config.MYDB_READ_SHARE)
    block = ["write"] * writes + ["read"] * reads
    block += ["catalog"] * (10 - len(block))
    cdf = _zipf_cdf(len(texts), config.ZIPF_S)
    u_rank = _stratified(rng, 40)
    u_radius, u_cut = _stratified(rng, 10), _stratified(rng, 10)
    tables = {}
    # First the writes that create every table, so no read can fail.
    for index in range(config.MYDB_TABLES):
        yield _mydb_write(rng, index, tables, u_radius, u_cut)
    for kind in _shuffled_blocks(rng, block):
        if kind == "catalog":
            yield texts[int(np.searchsorted(cdf, next(u_rank)))]
        elif kind == "write":
            index = int(rng.integers(config.MYDB_TABLES))
            yield _mydb_write(rng, index, tables, u_radius, u_cut)
        else:
            index = int(rng.integers(config.MYDB_TABLES))
            # Three read cuts only, so a repeated read of an unchanged
            # table is a cache hit and a read after a write is not.
            cut = (20.0, 21.0, 22.0)[int(rng.integers(3))]
            select = Select(
                columns=("objid", "mag_r"),
                source=f"mydb.t{index}",
                cuts=(("mag_r", "<", cut),),
            )
            yield Op("mydb_read", (select,), mydb_def=tables[index])


def _mydb_write(rng, index, tables, u_radius, u_cut):
    """A replacing write of ``mydb.t<index>``: a cone wide and deep enough
    that the table is never empty."""
    select = Select(
        columns=("objid", "mag_r"),
        region=_circle(_sphere_point(rng), _log_uniform(next(u_radius), 2.0, 8.0)),
        cuts=(("mag_r", "<", _mag_cut(next(u_cut), 21.0, 22.5)),),
    )
    # The table holds what the select returns, INTO aside.
    tables[index] = select
    return Op("mydb_write", (replace(select, into=f"mydb.t{index}"),))


# ----------------------------------------------------------------------
# cluster_gather
# ----------------------------------------------------------------------


def cluster_gather(rng):
    """Whole-catalog merges and spatial ops that prune shards.

    Three merges to five spatial ops, not half and half: the merges cost
    three times a pruned cone, and at half and half the median latency
    would sit on the step between the two.
    """
    u = _stratified(rng, 8)
    u_radius, u_cut = _stratified(rng, 12), _stratified(rng, 6)
    shapes = _shuffled_blocks(
        rng,
        ("stream", "topk", "group", "circle", "circle", "circle", "rect", "polygon"),
    )
    for shape in shapes:
        if shape in ("stream", "topk", "group"):
            yield _whole_catalog_op(shape, rng, u)
        else:
            yield _spatial_op(
                rng,
                shape,
                _sphere_point(rng),
                u_radius,
                u_cut,
                (0.5, 8.0),
                columns=("objid", "ra", "dec"),
            )


# ----------------------------------------------------------------------
# ingest_mix
# ----------------------------------------------------------------------


def ingest_mix(rng, chunk_centres):
    """Rounds of one chunk load and three queries that must see it.

    ``chunk_centres[i]`` is the ``(ra, dec)`` of the mean position of the
    ``i``-th chunk to arrive (the workload shuffles the arrival order with
    the seed); the seed also picks the radius of each cone.  Ends when
    every chunk is loaded.
    """
    u_radius = _stratified(rng, 10)
    aggregate = Select(aggregate="group")
    count = Select(aggregate="count")
    for chunk, (ra, dec) in enumerate(chunk_centres):
        loaded = chunk + 1
        yield Op("load", load_chunk=chunk, chunks_loaded=loaded)
        cone = Select(
            columns=("objid", "ra", "dec"),
            region=_circle(
                (round(ra, 4), round(dec, 4)), _log_uniform(next(u_radius), 2.0, 6.0)
            ),
        )
        yield Op("cone", (cone,), chunks_loaded=loaded)
        yield Op("group", (aggregate,), whole_catalog=True, chunks_loaded=loaded)
        yield Op("count", (count,), whole_catalog=True, chunks_loaded=loaded)
