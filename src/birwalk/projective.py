"""Projective plane points in two flavours: exact integer and unit-norm float.

Exact points are integer triples up to a nonzero scalar.  Their normal
form, made only by ``normalize_exact``, has content 1 and its first
nonzero coordinate positive; it is a private tuple subclass that comes
back unchanged when handed in again.  The walk itself never pays for
that content gcd: a transport hands on the integer triple divided only
by its gcd with a small number fixed by the letter, and the registry
tells points apart by ``fingerprint``, a scale-free residue key,
confirmed exactly by ``same_point``, the vanishing of the cross
product.  Canonical forms are made when a point is read out for
printing or for a document, and whenever a plain list, a ``Fraction``
or a parsed document comes in.  Float points are unit vectors with the
first coordinate of magnitude above the resolution threshold made
positive; antipodal representatives are reconciled by the distance
helper, not by the normal form, because a sign flip of a coordinate near
zero is not stable under perturbation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, isfinite, lcm, sqrt
from typing import Optional, Tuple

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


# CPython stores ints in 30-bit digits, so reducing by a prime below 2^30
# takes the single-digit remainder loop whatever the coordinate's size
FINGERPRINT_P = 1073741789  # the largest prime below 2^30


def fingerprint(coords) -> Optional[int]:
    """Scale-free key of an integer triple: its residues mod FINGERPRINT_P,
    divided by the first nonzero residue, packed into one int.

    A triple and its multiples by a scalar prime to FINGERPRINT_P share
    the key; distinct points may share it too, so a hit is only a
    candidate for ``same_point``.  None when every residue is 0.
    """
    x, y, z = coords
    x %= FINGERPRINT_P
    y %= FINGERPRINT_P
    z %= FINGERPRINT_P
    if x:
        inv = pow(x, -1, FINGERPRINT_P)
        return ((FINGERPRINT_P + y * inv % FINGERPRINT_P) * FINGERPRINT_P
                + z * inv % FINGERPRINT_P)
    if y:
        return FINGERPRINT_P + z * pow(y, -1, FINGERPRINT_P) % FINGERPRINT_P
    return 1 if z else None


def same_point(a, b) -> bool:
    """Whether two nonzero exact triples name one point: a x b = 0."""
    return (a[0] * b[1] == a[1] * b[0]
            and a[0] * b[2] == a[2] * b[0]
            and a[1] * b[2] == a[2] * b[1])


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
