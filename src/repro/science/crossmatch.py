"""Cross-identification between surveys.

*"As the reference astronomical data set, each subsequent astronomical
survey will want to cross-identify its objects with the SDSS catalog."*

:func:`crossmatch` matches an external catalog against the reference by
nearest neighbor within a radius, reporting matches, unmatched sources on
both sides, and ambiguity (external sources with several reference
objects in the radius).  The HTM hierarchy makes the join cheap, and —
per the paper's "shoe that fits all" argument — the same trixel ids mean
areas of the two catalogs "map either directly onto one another, or one
is fully contained by another".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.science.neighbors import neighbor_pairs

__all__ = ["MatchResult", "crossmatch"]


@dataclass
class MatchResult:
    """Outcome of one cross-identification run.

    ``pairs`` maps external-row -> (reference-row, separation_arcsec) for
    the accepted nearest-neighbor matches.
    """

    external_rows: np.ndarray
    reference_rows: np.ndarray
    separations_arcsec: np.ndarray
    unmatched_external_rows: np.ndarray
    #: external rows with more than one reference candidate in the radius
    ambiguous_external_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def match_count(self):
        """Accepted one-to-one matches."""
        return int(self.external_rows.shape[0])

    def identification_table(self, external, reference):
        """(extid, objid, separation) triples for the matched pairs."""
        extids = np.asarray(external["extid"], dtype=np.int64)[self.external_rows]
        objids = np.asarray(reference["objid"], dtype=np.int64)[self.reference_rows]
        return list(zip(extids.tolist(), objids.tolist(),
                        self.separations_arcsec.tolist()))


def crossmatch(external, reference, radius_arcsec=3.0, depth=None):
    """Nearest-neighbor cross-identification within ``radius_arcsec``.

    Every external source is matched to its nearest reference object
    within the radius (one-to-one is *not* enforced on the reference
    side: two external detections may legitimately resolve to the same
    reference object).  Returns a :class:`MatchResult`.
    """
    if radius_arcsec <= 0:
        raise ValueError("radius must be positive")
    li, rj, sep = neighbor_pairs(external, reference, radius_arcsec, depth=depth)

    n_external = len(external)
    best_ref = np.full(n_external, -1, dtype=np.int64)
    best_sep = np.full(n_external, np.inf)
    candidate_counts = np.zeros(n_external, dtype=np.int64)
    for ext_row, ref_row, separation in zip(li, rj, sep):
        candidate_counts[ext_row] += 1
        if separation < best_sep[ext_row]:
            best_sep[ext_row] = separation
            best_ref[ext_row] = ref_row

    matched_mask = best_ref >= 0
    matched_external = np.nonzero(matched_mask)[0]
    return MatchResult(
        external_rows=matched_external,
        reference_rows=best_ref[matched_external],
        separations_arcsec=best_sep[matched_external],
        unmatched_external_rows=np.nonzero(~matched_mask)[0],
        ambiguous_external_rows=np.nonzero(candidate_counts > 1)[0],
    )
