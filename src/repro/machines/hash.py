"""The hash machine: spatial hash + per-bucket pairwise comparison.

*"The hash phase scans the entire dataset, selects a subset of the objects
based on some predicate, and 'hashes' each object to the appropriate
buckets — a single object may go to several buckets (to allow objects near
the edges of a region to go to all the neighboring regions as well).  In a
second phase all the objects in a bucket are compared to one another. ...
These operations are analogous to relational hash-join."*

Buckets are HTM trixels at a chosen depth.  Edge replication is exact:
every object is hashed to *all* trixels within ``margin`` of its position
(computed by covering a small cap around objects that sit near a trixel
boundary), so any pair with separation <= margin shares at least one
bucket — the correctness invariant the lens search depends on.  Pairs
found in several shared buckets are deduplicated by pointer pair.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.halfspace import Halfspace
from repro.geometry.region import Region
from repro.geometry.vector import cross
from repro.htm.cover import cover_region
from repro.htm.mesh import lookup_ids_from_vectors, trixel_corners
from repro.storage.diskmodel import PAPER_CLUSTER

__all__ = ["PairPredicate", "HashReport", "HashMachine"]


@dataclass
class PairPredicate:
    """Configurable pair test used by the second phase.

    ``max_separation_arcsec`` bounds the angular separation;
    ``max_color_difference`` (if given) bounds the L-infinity distance of
    the color vectors (u-g, g-r, r-i, i-z); ``min_magnitude_difference``
    (if given) demands the pair differ in r brightness — together these
    express the paper's gravitational-lens query.
    """

    max_separation_arcsec: float
    max_color_difference: float = None
    min_magnitude_difference: float = None

    #: Row-block size bounding the memory of the pairwise test to
    #: ``block * n`` temporaries instead of ``n^2``.
    block_rows = 2048

    def pairs_in_bucket(self, table):
        """Indices (i, j), i < j, of qualifying pairs within one bucket.

        Processed in row blocks so arbitrarily large operands (e.g. the
        naive whole-catalog baseline) stay within memory.
        """
        n = len(table)
        if n < 2:
            return []
        xyz = table.positions_xyz()
        cos_limit = math.cos(math.radians(self.max_separation_arcsec / 3600.0))

        colors = None
        if self.max_color_difference is not None:
            colors = np.stack(
                [
                    table["mag_u"] - table["mag_g"],
                    table["mag_g"] - table["mag_r"],
                    table["mag_r"] - table["mag_i"],
                    table["mag_i"] - table["mag_z"],
                ],
                axis=-1,
            ).astype(np.float64)
        r_mag = None
        if self.min_magnitude_difference is not None:
            r_mag = np.asarray(table["mag_r"], dtype=np.float64)

        pairs = []
        for start in range(0, n, self.block_rows):
            stop = min(start + self.block_rows, n)
            # Only the j > i upper triangle: block rows vs columns >= start.
            gram = xyz[start:stop] @ xyz[start:].T
            candidate = gram >= cos_limit
            # Mask the diagonal and lower triangle within the block.
            local = stop - start
            candidate[:, :local] = np.triu(candidate[:, :local], k=1)
            ii, jj = np.nonzero(candidate)
            ii = ii + start
            jj = jj + start

            # Attribute tests run only on the (sparse) spatial survivors.
            if colors is not None and ii.size:
                diff = np.abs(colors[ii] - colors[jj]).max(axis=-1)
                keep = diff <= self.max_color_difference
                ii, jj = ii[keep], jj[keep]
            if r_mag is not None and ii.size:
                keep = np.abs(r_mag[ii] - r_mag[jj]) >= self.min_magnitude_difference
                ii, jj = ii[keep], jj[keep]
            pairs.extend(zip(ii.tolist(), jj.tolist()))
        return pairs


@dataclass
class HashReport:
    """Work accounting for one hash-machine run."""

    objects_selected: int = 0
    objects_replicated: int = 0
    buckets: int = 0
    largest_bucket: int = 0
    comparisons: int = 0
    naive_comparisons: int = 0
    pairs_found: int = 0
    simulated_shuffle_seconds: float = 0.0
    simulated_scan_seconds: float = 0.0

    def comparison_savings(self):
        """Naive all-pairs comparisons per actual comparison."""
        if self.comparisons == 0:
            return float("inf") if self.naive_comparisons else 1.0
        return self.naive_comparisons / self.comparisons


class HashMachine:
    """Two-phase pairwise-comparison machine over spatial buckets."""

    def __init__(self, bucket_depth=8, cluster=PAPER_CLUSTER):
        self.bucket_depth = int(bucket_depth)
        self.cluster = cluster

    # ------------------------------------------------------------------
    # phase 1: hashing with edge replication
    # ------------------------------------------------------------------

    def hash_objects(self, table, margin_arcsec):
        """Map bucket id -> row indices, replicating near-edge objects.

        Primary assignment is the vectorized HTM lookup.  Objects whose
        distance to the nearest trixel edge is below the margin get the
        exact cover of a ``margin``-radius cap around them, landing in
        every neighboring trixel that cap intersects.
        """
        xyz = table.positions_xyz()
        primary = lookup_ids_from_vectors(xyz, self.bucket_depth)
        margin_rad = math.radians(margin_arcsec / 3600.0)
        buckets = {}
        replicated = 0

        order = np.argsort(primary, kind="stable")
        sorted_ids = primary[order]
        boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
        groups = np.split(order, boundaries)

        for group in groups:
            bucket_id = int(primary[group[0]])
            buckets.setdefault(bucket_id, []).append(group)
            # Edge proximity: |asin(p . edge_normal)| < margin for any edge.
            corners = trixel_corners(bucket_id)
            edges = cross(corners, np.roll(corners, -1, axis=0))
            edges /= np.linalg.norm(edges, axis=1, keepdims=True)
            dots = xyz[group] @ edges.T
            near_edge = np.abs(np.arcsin(np.clip(dots, -1.0, 1.0))).min(axis=1) < margin_rad
            for row in group[near_edge]:
                cap = Halfspace(xyz[row], math.cos(margin_rad))
                coverage = cover_region(Region.from_halfspace(cap), self.bucket_depth)
                for extra_id in coverage.candidates().iter_ids():
                    if extra_id != bucket_id:
                        buckets.setdefault(int(extra_id), []).append(
                            np.array([row], dtype=np.int64)
                        )
                        replicated += 1

        merged = {
            bucket_id: np.unique(np.concatenate(groups_list))
            for bucket_id, groups_list in buckets.items()
        }
        return merged, replicated

    # ------------------------------------------------------------------
    # phase 2: per-bucket comparison
    # ------------------------------------------------------------------

    def run(self, table, pair_predicate, select_mask_fn=None, margin_arcsec=None,
            workers=4):
        """Full hash-machine run; returns ``(pairs, report)``.

        ``pairs`` is a sorted list of ``(objid_a, objid_b)`` with
        ``objid_a < objid_b``.  ``select_mask_fn`` is the phase-1
        selection predicate.  ``margin_arcsec`` defaults to the pair
        predicate's separation bound (the smallest correct margin).
        """
        if margin_arcsec is None:
            margin_arcsec = pair_predicate.max_separation_arcsec
        if margin_arcsec < pair_predicate.max_separation_arcsec:
            raise ValueError(
                "edge-replication margin smaller than the pair separation "
                "bound loses cross-bucket pairs"
            )

        report = HashReport()
        if select_mask_fn is not None:
            mask = np.asarray(select_mask_fn(table), dtype=bool)
            selected = table.select(mask)
        else:
            selected = table
        report.objects_selected = len(selected)
        report.naive_comparisons = len(selected) * (len(selected) - 1) // 2

        buckets, replicated = self.hash_objects(selected, margin_arcsec)
        report.objects_replicated = replicated
        report.buckets = len(buckets)
        report.largest_bucket = max((len(v) for v in buckets.values()), default=0)

        objids = np.asarray(selected["objid"], dtype=np.int64)
        pair_set = set()

        def process(bucket_rows):
            bucket_table = selected.take(bucket_rows)
            local_pairs = pair_predicate.pairs_in_bucket(bucket_table)
            n = len(bucket_rows)
            return local_pairs, bucket_rows, n * (n - 1) // 2

        # Singleton buckets cannot produce pairs; skip them up front.
        busy_buckets = [rows for rows in buckets.values() if rows.shape[0] >= 2]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for local_pairs, bucket_rows, n_comparisons in pool.map(
                process, busy_buckets
            ):
                report.comparisons += n_comparisons
                for i, j in local_pairs:
                    a = int(objids[bucket_rows[i]])
                    b = int(objids[bucket_rows[j]])
                    if a == b:
                        continue
                    pair_set.add((min(a, b), max(a, b)))

        report.pairs_found = len(pair_set)
        total_bytes = table.nbytes()
        report.simulated_scan_seconds = self.cluster.scan_seconds(total_bytes)
        moved_fraction = len(selected) / max(len(table), 1)
        report.simulated_shuffle_seconds = self.cluster.shuffle_seconds(
            total_bytes, fraction_moved=moved_fraction
        )
        return sorted(pair_set), report
