"""Projective plane points as integer triples, and their residue keys.

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
or a parsed document comes in.

``FINGERPRINT_P`` is also the prime the point registry (``picard``)
carries points by: it hops on residues mod this prime and keys a point
by their fingerprint.  ``fingerprint`` reads the prime when it is
called, as the registry does, so the two always agree.  A walk report
deeper than reduced length 16 names its points by these keys, whose
integers it never builds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm
from typing import Optional, Tuple

from .errors import IndeterminatePoint

ExactCoords = Tuple[int, int, int]


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


def fingerprint(coords, p: Optional[int] = None) -> Optional[ExactCoords]:
    """Scale-free key of an integer triple: its residues mod the prime p,
    by default ``FINGERPRINT_P`` as it stands at the call, divided by the
    first nonzero residue.

    A triple and its multiples by a scalar prime to p share the key;
    distinct points may share it too, so in the exact registry a hit is
    only a candidate for ``same_point``.  None when every residue is 0.
    """
    if p is None:
        p = FINGERPRINT_P
    x, y, z = coords
    x %= p
    y %= p
    z %= p
    if x:
        inv = pow(x, -1, p)
        return (1, y * inv % p, z * inv % p)
    if y:
        return (0, 1, z * pow(y, -1, p) % p)
    return (0, 0, 1) if z else None


def same_point(a, b) -> bool:
    """Whether two nonzero exact triples name one point: a x b = 0."""
    return (a[0] * b[1] == a[1] * b[0]
            and a[0] * b[2] == a[2] * b[0]
            and a[1] * b[2] == a[2] * b[1])

