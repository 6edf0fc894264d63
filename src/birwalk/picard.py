"""Classes over the tower of all blowups, and how letters act on them.

A class is stored as ``line_coeff * [line] - sum point_part[p] * [exc_p]``
over point ids issued by a registry.  The intersection pairing in these
coordinates is ``line_coeff * line_coeff' - sum point_part * point_part'``
over shared ids.  Coefficients stay integers in both arithmetic modes;
only point identification ever touches floats, so every pairing value is
exact and normalisations by powers of two happen scalar-side.

A letter (a generator or its inverse) acts on classes by pullback.  The
action is a finite table on the letter's own data - the line class picks
up degree 2 minus the table coefficients, the three table points trade
places with the letter's indeterminacy points - plus point transport by
the inverse letter everywhere else.  Transport refuses, by raising
``DegenerateConfiguration``, whenever a carried point sits on a curve the
evaluating map contracts, because the honest image of such a point is not
a point of the plane at all.

The exact registry keys each point by its residue fingerprint mod a
prime below 2^30 (``projective.fingerprint``), which needs no content
gcd and does not change when the triple is scaled.  A fingerprint hit
counts only after the exact cross-product test ``same_point``; distinct
points that share a fingerprint fall back to a small dict keyed by the
canonical form, and a triple whose residues all vanish is canonicalised
before it is keyed.  The registry keeps the first integer representative
it sees, which transport chains read and extend, and hands out the
canonical form on read, so everything printed or written is canonical.

Exact transport takes one inner product ``v = inner * x`` per hop and
reads every verdict off its zeros: one zero puts the point on a
contracted line, two make it a table point, none lets it move on to
``outer * sigma(v)``.  The image is then divided by its gcd with the
operator's fixed ``D = det(inner)^2 * |det(outer)|``, which strips the
content the letter itself puts in.  That gcd is linear in the size of
the image, where a full content gcd is quadratic; a prime outside D
divides an image only where the source point meets a table point mod
that prime, so the representatives stay within a few percent of the
canonical bit length.

In exact mode each operator memoises its point images: a dict from
source point id to image point id, filled by every transport that
succeeds.  The memo is exact.  A point id's stored representative never
changes, transport of the same triple is deterministic, and the exact
registry returns the same id for the same point, so a repeat would
register the very id stored.  A transport that raises stores nothing,
so a point on a contracted line raises again every time.  The float
registry counts a merge at every registration of a nearby point, and
walk artifacts report that count, so float operators keep no memo.

The float registry hashes unit vectors on a grid of cell size ten times
the merge radius and compares a query against both sign lifts, so
antipodal representatives land together.  Two distinct registered points
closer than the ambiguity band abort the run rather than silently fuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, gcd, sqrt
from typing import Dict, List, Optional, Tuple

from .errors import DegenerateConfiguration, TablePointHit
from .maps import GeneratorData, Mat3, det3, matvec
from .projective import (
    chordal_distance,
    cross,
    fingerprint,
    normalize_exact,
    normalize_float,
    same_point,
)


# -- point registry -----------------------------------------------------


class PointRegistry:
    """Issues stable integer ids for plane points in one arithmetic mode."""

    def __init__(self, mode: str = "exact", eps: float = 1e-9):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.eps = eps
        self._points: List[tuple] = []
        self._by_fingerprint: Dict[int, int] = {}
        self._clashes: Dict[tuple, int] = {}
        self._grid: Dict[Tuple[int, int, int], List[int]] = {}
        self.merge_count = 0
        self.min_separation = float("inf")

    def __len__(self) -> int:
        return len(self._points)

    def coords_of(self, pid: int) -> tuple:
        """The point's normal form: canonical in exact mode, a unit vector in float."""
        if self.mode == "exact":
            return normalize_exact(self._points[pid])
        return self._points[pid]

    def representative(self, pid: int) -> tuple:
        """The stored coordinates, which transport reads; internal to the class walk.

        In exact mode this is the first integer triple registered for the
        point, a multiple of its normal form by any nonzero scalar.
        """
        return self._points[pid]

    def register(self, coords) -> int:
        if self.mode != "exact":
            return self._register_float(coords)
        if type(coords) is not tuple or not all(type(c) is int for c in coords):
            coords = normalize_exact(coords)
        key = fingerprint(coords)
        if key is None:  # a multiple of the prime: its normal form has a key
            coords = normalize_exact(coords)
            key = fingerprint(coords)
        pid = self._by_fingerprint.get(key)
        if pid is None:
            self._by_fingerprint[key] = pid = self._append(coords)
            return pid
        if same_point(coords, self._points[pid]):
            return pid
        # a distinct point with the same residues: identify it exactly
        canon = normalize_exact(coords)
        pid = self._clashes.get(canon)
        if pid is None:
            self._clashes[canon] = pid = self._append(coords)
        return pid

    def _append(self, coords) -> int:
        self._points.append(coords)
        return len(self._points) - 1

    def _cell_of(self, u) -> Tuple[int, int, int]:
        h = 10.0 * self.eps
        return (floor(u[0] / h), floor(u[1] / h), floor(u[2] / h))

    def _candidates(self, u):
        seen = set()
        for rep in (u, (-u[0], -u[1], -u[2])):
            cx, cy, cz = self._cell_of(rep)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        for pid in self._grid.get((cx + dx, cy + dy, cz + dz), ()):
                            if pid not in seen:
                                seen.add(pid)
                                yield pid
    def _register_float(self, coords) -> int:
        u = normalize_float(coords, self.eps)
        best_pid, best_d = None, float("inf")
        for pid in self._candidates(u):
            d = chordal_distance(u, self._points[pid])
            if d < best_d:
                best_pid, best_d = pid, d
        if best_pid is not None:
            if best_d < self.eps:
                if best_d > 0.0:
                    self.merge_count += 1
                return best_pid
            # closest approach between points kept distinct: the health metric
            self.min_separation = min(self.min_separation, best_d)
            if best_d < 10.0 * self.eps:
                raise DegenerateConfiguration(
                    f"points separated by {best_d:.3e}, inside the ambiguity band "
                    f"[{self.eps:.1e}, {10 * self.eps:.1e})")
        pid = self._append(u)
        self._grid.setdefault(self._cell_of(u), []).append(pid)
        return pid


# -- class vectors ------------------------------------------------------


class WeilClass:
    """line_coeff * [line] - sum point_part[pid] * [exc_pid], integer coefficients."""

    __slots__ = ("line_coeff", "point_part")

    def __init__(self, line_coeff: int, point_part: Dict[int, int]):
        self.line_coeff = line_coeff
        self.point_part = {p: c for p, c in point_part.items() if c != 0}

    @staticmethod
    def line_class() -> "WeilClass":
        return WeilClass(1, {})

    @staticmethod
    def exceptional_class(pid: int) -> "WeilClass":
        return WeilClass(0, {pid: -1})

    def intersect(self, other: "WeilClass") -> int:
        total = self.line_coeff * other.line_coeff
        a, b = self.point_part, other.point_part
        if len(b) < len(a):
            a, b = b, a
        for pid, c in a.items():
            oc = b.get(pid)
            if oc is not None:
                total -= c * oc
        return total

    def self_intersection(self) -> int:
        return self.line_coeff ** 2 - sum(c * c for c in self.point_part.values())

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.point_part))

    def __eq__(self, other):
        if not isinstance(other, WeilClass):
            return NotImplemented
        return (self.line_coeff == other.line_coeff
                and self.point_part == other.point_part)

    def __repr__(self):
        return f"WeilClass({self.line_coeff}, {self.point_part})"


def coefficient_l2_diff(c1: WeilClass, scale1: int,
                        c2: WeilClass, scale2: int) -> float:
    """Euclidean norm of the coefficient difference of two rescaled classes.

    Integer scales keep each quotient an int/int division, which Python
    rounds correctly and which cannot overflow at any walk length.
    """
    total = (c1.line_coeff / scale1 - c2.line_coeff / scale2) ** 2
    for pid in set(c1.point_part) | set(c2.point_part):
        d = c1.point_part.get(pid, 0) / scale1 - c2.point_part.get(pid, 0) / scale2
        total += d * d
    return sqrt(total)


# -- letter action ------------------------------------------------------


_COMPLEMENT = ((1, 2), (0, 2), (0, 1))


@dataclass
class LetterOperator:
    """Pullback action of one letter over a shared registry.

    Pushforward by the same letter is pullback by the opposite sign, so a
    walk keeps one operator per (generator, sign) pair and never needs a
    separate pushforward object.
    """

    gen: GeneratorData
    sign: int
    registry: PointRegistry
    base_ids: Tuple[int, int, int] = field(init=False)
    table_ids: Tuple[int, int, int] = field(init=False)
    table_points: Tuple[tuple, tuple, tuple] = field(init=False)
    eval_matrices: Tuple[Mat3, Mat3] = field(init=False)
    contracted_forms: Tuple[tuple, tuple, tuple] = field(init=False)
    # exact mode: D = det(inner)^2 * |det(outer)|, the letter's content bound
    content_bound: int = field(init=False, repr=False)
    # exact mode: source pid -> image pid of every transport that succeeded
    images: Optional[Dict[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        reg = self.registry
        self.images = {} if reg.mode == "exact" else None
        own = self.gen.letter_base_pts(self.sign)
        table = self.gen.letter_base_pts(-self.sign)
        self.base_ids = tuple(reg.register(p) for p in own)
        self.table_ids = tuple(reg.register(q) for q in table)
        # a self-inverse letter may share the two triples wholesale; what the
        # table algebra cannot survive is a collapse inside either triple
        if len(set(self.base_ids)) != 3 or len(set(self.table_ids)) != 3:
            raise DegenerateConfiguration(
                "a letter's indeterminacy triple collapsed in the registry")
        self.table_points = tuple(reg.coords_of(tid) for tid in self.table_ids)
        self.eval_matrices = self.gen.letter_matrices(-self.sign)
        forms = []
        for i in range(3):
            j, k = _COMPLEMENT[i]
            form = cross(self.table_points[j], self.table_points[k])
            if reg.mode == "float":
                n = sqrt(sum(v * v for v in form))
                if n < reg.eps:
                    raise DegenerateConfiguration("contracted line form degenerates")
                form = tuple(v / n for v in form)
            forms.append(form)
        self.contracted_forms = tuple(forms)
        self._check_forms()
        if reg.mode == "exact":
            outer, inner = self.eval_matrices
            self.content_bound = det3(inner) ** 2 * abs(det3(outer))
            # transport names a table hit by the one nonzero of inner * x
            for t, q in enumerate(self.table_points):
                v = matvec(inner, q)
                if [a for a in range(3) if v[a]] != [t]:
                    raise DegenerateConfiguration(
                        "a table point misses its axis of the inner matrix")

    def _check_forms(self):
        reg = self.registry
        for i in range(3):
            j, k = _COMPLEMENT[i]
            form = self.contracted_forms[i]
            for t, expect_zero in ((j, True), (k, True), (i, False)):
                val = sum(f * c for f, c in zip(form, self.table_points[t]))
                on_line = (val == 0) if reg.mode == "exact" else (abs(val) < reg.eps)
                if on_line != expect_zero:
                    raise DegenerateConfiguration(
                        "contracted line of the inverse letter misses its defining points")

    # transport of a single carried point by the inverse letter

    def table_index_of(self, coords) -> Optional[int]:
        """Float mode: index 0..2 if coords names a table point, else None.

        Exact transport reports a table point itself, by ``TablePointHit``.
        """
        reg = self.registry
        u = normalize_float(coords, reg.eps)
        for t, q in enumerate(self.table_points):
            if chordal_distance(u, q) < reg.eps:
                return t
        return None

    def transport(self, coords):
        """Image of a carried point under the inverse letter, guarded.

        Raises DegenerateConfiguration when the point sits on a curve the
        inverse letter contracts (the class of such a point does not move
        to the class of a plane point).  In exact mode a table point
        raises ``TablePointHit`` with its index, and an image is the
        integer triple outer * sigma(inner * coords) divided by its gcd
        with ``content_bound``, never by its full content.
        """
        outer, inner = self.eval_matrices
        reg = self.registry
        if reg.mode != "exact":
            for form in self.contracted_forms:
                val = form[0] * coords[0] + form[1] * coords[1] + form[2] * coords[2]
                if abs(val) < reg.eps:
                    raise DegenerateConfiguration(
                        "carried point lies on a contracted line of the evaluating letter")
            v = matvec(inner, coords)
            return normalize_float(
                matvec(outer, (v[1] * v[2], v[0] * v[2], v[0] * v[1])), reg.eps)
        x, y, z = coords
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = inner
        v0 = a0 * x + a1 * y + a2 * z
        v1 = b0 * x + b1 * y + b2 * z
        v2 = c0 * x + c1 * y + c2 * z
        if not (v0 and v1 and v2):
            if (v0 == 0) + (v1 == 0) + (v2 == 0) == 2:
                raise TablePointHit(0 if v0 else 1 if v1 else 2)
            raise DegenerateConfiguration(
                "carried point lies on a contracted line of the evaluating letter")
        s0, s1, s2 = v1 * v2, v0 * v2, v0 * v1
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = outer
        x = a0 * s0 + a1 * s1 + a2 * s2
        y = b0 * s0 + b1 * s1 + b2 * s2
        z = c0 * s0 + c1 * s1 + c2 * s2
        g = gcd(self.content_bound, x, y, z)
        return (x // g, y // g, z // g)

    # full class action

    def pullback(self, cls: WeilClass) -> WeilClass:
        entries = dict(cls.point_part)
        t = [entries.pop(tid, 0) for tid in self.table_ids]
        new_line = 2 * cls.line_coeff - t[0] - t[1] - t[2]
        out: Dict[int, int] = {}
        for i in range(3):
            j, k = _COMPLEMENT[i]
            coeff = cls.line_coeff - t[j] - t[k]
            if coeff != 0:
                out[self.base_ids[i]] = coeff
        reg, images = self.registry, self.images
        for pid, coeff in entries.items():
            new_pid = None if images is None else images.get(pid)
            if new_pid is None:
                new_pid = reg.register(self.transport(reg.representative(pid)))
                if images is not None:
                    images[pid] = new_pid
            if new_pid in out:
                raise DegenerateConfiguration(
                    "transported point collides with another carried point")
            out[new_pid] = coeff
        return WeilClass(new_line, out)


class OperatorCache:
    """Lazily built (generator, sign) -> LetterOperator map over one registry."""

    def __init__(self, gens: Tuple[GeneratorData, ...], registry: PointRegistry):
        self.gens = gens
        self.registry = registry
        self._ops: Dict[Tuple[int, int], LetterOperator] = {}

    def get(self, gen_index: int, sign: int) -> LetterOperator:
        key = (gen_index, sign)
        op = self._ops.get(key)
        if op is None:
            op = LetterOperator(self.gens[gen_index], sign, self.registry)
            self._ops[key] = op
        return op


# -- serialisation ------------------------------------------------------


def class_to_jsonable(cls: WeilClass, registry: PointRegistry) -> dict:
    entries = []
    for pid in sorted(cls.point_part):
        coords = registry.coords_of(pid)
        entries.append([list(coords), cls.point_part[pid]])
    entries.sort(key=lambda e: e[0])
    return {"line_coeff": cls.line_coeff, "point_entries": entries}


def class_from_jsonable(data: dict, registry: PointRegistry) -> WeilClass:
    part: Dict[int, int] = {}
    for coords, coeff in data["point_entries"]:
        pid = registry.register(tuple(coords))
        part[pid] = part.get(pid, 0) + coeff
    return WeilClass(data["line_coeff"], part)
