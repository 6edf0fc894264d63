"""Projective plane points in two flavours: exact integer and unit-norm float.

Exact points are integer triples normalized to content 1 with the first
nonzero coordinate positive, so equal points have equal tuples and plain
dict lookup is a complete identity test.  Only ``normalize_exact`` makes
such a canonical point: it returns a private tuple subclass, and handing
one back to it is free, so a point is canonicalised once, where a
transport or a registration creates it.  Plain tuples, lists and parsed
documents are always normalised in full.  Float points are unit vectors
with the first coordinate of magnitude above the resolution threshold
made positive; antipodal representatives are reconciled by the distance
helper, not by the normal form, because a sign flip of a coordinate near
zero is not stable under perturbation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, isfinite, lcm, sqrt
from typing import Tuple

from .errors import IndeterminatePoint

ExactCoords = Tuple[int, int, int]
FloatCoords = Tuple[float, float, float]


class _Canonical(tuple):
    """An exact triple in normal form; made only by ``normalize_exact``."""

    __slots__ = ()


def normalize_exact(coords) -> ExactCoords:
    """Canonical integer representative: content 1, first nonzero entry positive.

    Its own output comes back unchanged; every other input is normalised.
    """
    if type(coords) is _Canonical:
        return coords
    if not all(type(c) is int for c in coords):
        fracs = [Fraction(c) for c in coords]
        den = lcm(*(c.denominator for c in fracs))
        coords = [int(c * den) for c in fracs]
    g = _igcd(*coords)
    if g == 0:
        raise IndeterminatePoint("all three coordinates vanish")
    if next(v for v in coords if v != 0) < 0:
        g = -g
    return _Canonical(v // g for v in coords)


def normalize_float(coords, eps: float = 1e-9) -> FloatCoords:
    """Canonical unit vector: norm 1, first coordinate above eps made positive."""
    c = [float(v) for v in coords]
    if not all(isfinite(v) for v in c):
        raise IndeterminatePoint("non-finite coordinate")
    norm = sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    if norm == 0.0:
        raise IndeterminatePoint("all three coordinates vanish")
    u = [v / norm for v in c]
    lead = next(v for v in u if abs(v) > eps)
    if lead < 0:
        u = [-v for v in u]
    return (u[0] + 0.0, u[1] + 0.0, u[2] + 0.0)


def cross(a, b):
    """Coefficient triple of the line through two points (or the meet of two lines)."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def chordal_distance(a, b) -> float:
    """Distance between projective points as lines: min over the sign choice.

    Accepts unit float triples; antipodal representatives are identified.
    """
    d_minus = sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)
    d_plus = sqrt((a[0] + b[0]) ** 2 + (a[1] + b[1]) ** 2 + (a[2] + b[2]) ** 2)
    return min(d_minus, d_plus)
