"""Spatial joins and nearest neighbors over catalogs.

The paper calls these "special operators ... related to angular distances"
and notes that "preprocessing, like creating regions of attraction is not
practical" because the operand sets are produced dynamically by other
predicates.  Accordingly these functions operate on arbitrary
:class:`~repro.catalog.table.ObjectTable` operands (typically query
results) and bucket the right side with the hash machine's phase 1,
:meth:`~repro.machines.hash.HashMachine.hash_objects`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.catalog.schema import ObjectType
from repro.htm.mesh import lookup_ids_from_vectors
from repro.machines.hash import HashMachine

__all__ = [
    "neighbor_pairs",
    "nearest_neighbor",
    "quasars_with_faint_blue_neighbors",
]


def _auto_depth(radius_arcsec):
    """Bucket depth whose trixel scale is comfortably above the radius.

    Level-d trixels have a characteristic scale of roughly 60/2^d
    degrees.  The near-edge fraction of a bucket scales like
    ``6 * radius / scale``, and each near-edge object pays a per-object
    cover call, so we keep the scale ~50x the search radius (a few
    percent replication) while staying deep enough that buckets hold few
    objects.  Clamped to [4, 12].
    """
    radius_deg = radius_arcsec / 3600.0
    depth = 4
    while depth < 12 and 60.0 / (2 ** (depth + 1)) > 50.0 * radius_deg:
        depth += 1
    return depth


def neighbor_pairs(left, right, radius_arcsec, depth=None):
    """All cross-table pairs within ``radius_arcsec``.

    Returns ``(left_indices, right_indices, separations_arcsec)`` arrays.
    Self-joins (``left is right``) exclude the trivial i == i matches but
    report both (i, j) and (j, i) orderings, matching SQL join semantics.

    The join buckets both sides on HTM trixels at ``depth`` (auto-chosen
    from the radius when omitted); the right side goes through the hash
    machine's phase 1, which replicates each object to every trixel
    within the radius, so no cross-boundary pair is missed.
    """
    if radius_arcsec <= 0:
        raise ValueError("radius must be positive")
    if depth is None:
        depth = _auto_depth(radius_arcsec)

    left_xyz = left.positions_xyz()
    right_xyz = right.positions_xyz()
    cos_limit = math.cos(math.radians(radius_arcsec / 3600.0))

    left_ids = lookup_ids_from_vectors(left_xyz, depth)
    right_buckets, _replicated = HashMachine(depth).hash_objects(right, radius_arcsec)

    out_left = []
    out_right = []
    out_sep = []
    order = np.argsort(left_ids, kind="stable")
    sorted_ids = left_ids[order]
    boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
    for group in np.split(order, boundaries):
        bucket_id = int(left_ids[group[0]])
        right_rows = right_buckets.get(bucket_id)
        if right_rows is None:
            continue
        gram = left_xyz[group] @ right_xyz[right_rows].T
        ii, jj = np.nonzero(gram >= cos_limit)
        if ii.size == 0:
            continue
        li = group[ii]
        rj = right_rows[jj]
        if left is right:
            keep = li != rj
            li, rj = li[keep], rj[keep]
        out_left.append(li)
        out_right.append(rj)
        # Chord-length form: well conditioned at the small separations
        # these joins run at (arccos of the dot product is not).
        chord = np.linalg.norm(left_xyz[li] - right_xyz[rj], axis=-1)
        out_sep.append(
            np.degrees(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))) * 3600.0
        )

    if not out_left:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0)
    return (
        np.concatenate(out_left),
        np.concatenate(out_right),
        np.concatenate(out_sep),
    )


def nearest_neighbor(left, right, max_radius_arcsec=60.0, depth=None):
    """Nearest right-table object for each left row within a search cap.

    Returns ``(neighbor_indices, separations_arcsec)``; rows with no
    neighbor within ``max_radius_arcsec`` get index -1 and separation NaN.
    """
    li, rj, sep = neighbor_pairs(left, right, max_radius_arcsec, depth=depth)
    n = len(left)
    best_index = np.full(n, -1, dtype=np.int64)
    best_sep = np.full(n, np.nan)
    order = np.argsort(sep, kind="stable")
    for k in order[::-1]:
        best_index[li[k]] = rj[k]
        best_sep[li[k]] = sep[k]
    return best_index, best_sep


def quasars_with_faint_blue_neighbors(
    table,
    quasar_r_limit=22.0,
    neighbor_radius_arcsec=5.0,
    faint_r_min=21.0,
    blue_gr_max=0.4,
):
    """The paper's non-local query, verbatim.

    *"Find all the quasars brighter than r=22, which have a faint blue
    galaxy within 5 arcsec on the sky."*

    Returns ``(quasar_rows, galaxy_rows, separations_arcsec)`` index
    arrays into ``table``.
    """
    objtype = np.asarray(table["objtype"])
    r_mag = np.asarray(table["mag_r"], dtype=np.float64)
    g_mag = np.asarray(table["mag_g"], dtype=np.float64)

    quasar_mask = (objtype == ObjectType.QUASAR.value) & (r_mag < quasar_r_limit)
    galaxy_mask = (
        (objtype == ObjectType.GALAXY.value)
        & (r_mag >= faint_r_min)
        & ((g_mag - r_mag) <= blue_gr_max)
    )
    quasar_rows = np.nonzero(quasar_mask)[0]
    galaxy_rows = np.nonzero(galaxy_mask)[0]
    if quasar_rows.size == 0 or galaxy_rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0)

    quasars = table.take(quasar_rows)
    galaxies = table.take(galaxy_rows)
    qi, gi, sep = neighbor_pairs(quasars, galaxies, neighbor_radius_arcsec)
    return quasar_rows[qi], galaxy_rows[gi], sep
