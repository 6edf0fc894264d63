"""Projective plane points in two flavours: exact integer and unit-norm float.

Exact points are integer triples normalized to content 1 with the first
nonzero coordinate positive, so equal points have equal tuples and plain
dict lookup is a complete identity test.  Float points are unit vectors
with the first coordinate of magnitude above the resolution threshold
made positive; antipodal representatives are reconciled by the distance
helper, not by the normal form, because a sign flip of a coordinate near
zero is not stable under perturbation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, isfinite, sqrt
from typing import Tuple

from .errors import IndeterminatePoint

ExactCoords = Tuple[int, int, int]
FloatCoords = Tuple[float, float, float]


def normalize_exact(coords) -> ExactCoords:
    """Canonical integer representative: content 1, first nonzero entry positive."""
    fracs = [Fraction(c) for c in coords]
    if all(c == 0 for c in fracs):
        raise IndeterminatePoint("all three coordinates vanish")
    den = 1
    for c in fracs:
        den = den * c.denominator // _igcd(den, c.denominator)
    ints = [int(c * den) for c in fracs]
    g = 0
    for v in ints:
        g = _igcd(g, abs(v))
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


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
