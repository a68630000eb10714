"""Regions: unions (OR) of convexes, closing the Boolean algebra.

With half-spaces as literals, convexes as AND-clauses and regions as
OR-of-ANDs we obtain a disjunctive normal form for arbitrary Boolean
combinations of spherical constraints — exactly the query shapes the
paper's cover algorithm consumes ("a set of half-space constraints,
connected by Boolean operators").

Complementation uses De Morgan expansion, so deeply negated expressions
can grow; catalog queries in practice use shallow nesting, matching the
paper's use.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.geometry.convex import Convex
from repro.geometry.halfspace import Halfspace

__all__ = ["Region"]

#: Safety valve for De Morgan expansion blow-up.
_MAX_COMPLEMENT_CONVEXES = 4096


class Region:
    """Union of :class:`Convex` clauses (disjunctive normal form)."""

    __slots__ = ("convexes",)

    def __init__(self, convexes=()):
        kept = []
        for convex in convexes:
            if not isinstance(convex, Convex):
                raise TypeError(f"expected Convex, got {type(convex).__name__}")
            if convex.is_empty():
                continue
            kept.append(convex)
        self.convexes = tuple(kept)

    @classmethod
    def empty(cls):
        """The region containing nothing."""
        return cls(())

    @classmethod
    def full_sphere(cls):
        """The region containing the whole sphere."""
        return cls((Convex.full_sphere(),))

    @classmethod
    def from_halfspace(cls, halfspace):
        """Region of a single cap."""
        return cls((Convex((halfspace,)),))

    @classmethod
    def from_convex(cls, convex):
        """Region of a single convex."""
        return cls((convex,))

    def is_empty(self):
        """True when the region syntactically contains nothing."""
        return len(self.convexes) == 0

    def is_full_sphere(self):
        """True when some clause is the full sphere."""
        return any(c.is_full_sphere() for c in self.convexes)

    def contains(self, xyz):
        """Boolean mask of which vector(s) lie in at least one convex."""
        xyz = np.asarray(xyz, dtype=np.float64)
        leading_shape = xyz.shape[:-1]
        mask = np.zeros(leading_shape, dtype=bool)
        for convex in self.convexes:
            mask |= convex.contains(xyz)
        return mask

    def union(self, other):
        """Region OR region."""
        return Region(self.convexes + other.convexes)

    def intersect(self, other):
        """Region AND region — distribute over the clauses."""
        products = []
        for a, b in itertools.product(self.convexes, other.convexes):
            combined = a.intersect(b)
            if not combined.is_empty():
                products.append(combined)
        return Region(products)

    def complement(self):
        """NOT region via De Morgan: AND over clauses of OR of negated caps.

        Raises :class:`ValueError` if the expansion exceeds the safety
        bound (pathological for hand-written catalog queries).
        """
        if self.is_empty():
            return Region.full_sphere()
        # NOT (C1 OR C2 ...) = NOT C1 AND NOT C2 ...
        # NOT convex(h1..hk)  = OR of single-complemented-cap convexes.
        result = Region.full_sphere()
        for convex in self.convexes:
            if convex.is_full_sphere():
                return Region.empty()
            negated = Region(tuple(Convex((hs.complement(),)) for hs in convex))
            result = result.intersect(negated)
            if len(result.convexes) > _MAX_COMPLEMENT_CONVEXES:
                raise ValueError(
                    "region complement expansion exceeded "
                    f"{_MAX_COMPLEMENT_CONVEXES} convexes"
                )
        return result

    def difference(self, other):
        """Region AND NOT other."""
        return self.intersect(other.complement())

    def area_estimate_sqdeg(self, samples=20000, rng=0):
        """Monte-Carlo area estimate in square degrees.

        Not used on hot paths (the HTM cover gives deterministic bounds);
        provided for sanity checks and the Figure 4 benchmark narrative.
        """
        from repro.geometry.vector import random_unit_vectors

        points = random_unit_vectors(samples, rng=rng)
        fraction = float(np.count_nonzero(self.contains(points))) / samples
        whole_sky_sqdeg = 4.0 * np.pi * (180.0 / np.pi) ** 2
        return fraction * whole_sky_sqdeg

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersect(other)

    def __sub__(self, other):
        return self.difference(other)

    def __invert__(self):
        return self.complement()

    def __len__(self):
        return len(self.convexes)

    def __iter__(self):
        return iter(self.convexes)

    def __repr__(self):
        return f"Region({len(self.convexes)} convexes)"
