"""Classes over the tower of all blowups, and how letters act on them.

A class is stored as ``line_coeff * [line] - sum point_part[p] * [exc_p]``
over point ids issued by a registry.  The intersection pairing in these
coordinates is ``line_coeff * line_coeff' - sum point_part * point_part'``
over shared ids.  Coefficients are integers, so every pairing value is
exact and normalisations by powers of two happen scalar-side.

A letter (a generator or its inverse) acts on classes by pullback.  The
action is a finite table on the letter's own data - the line class picks
up degree 2 minus the table coefficients, the three table points trade
places with the letter's indeterminacy points - plus point transport by
the inverse letter everywhere else.  Transport refuses, by raising
``DegenerateConfiguration``, whenever a carried point sits on a curve the
evaluating map contracts, because the honest image of such a point is not
a point of the plane at all.

One ``PointRegistry`` owns a computation's class space: it issues point
ids, makes each letter operator once per generator object and sign
(``operator``), and moves every point through a run of operators
(``carry``), a walk's chains and each pullback alike.  An operator holds
its registry weakly, so a registry, its operators and the recipes that
name them are freed as soon as the caller drops the registry.

An exact point is keyed by its residue fingerprint mod
``projective.FINGERPRINT_P``, a prime below 2^30, which needs no content
gcd and does not change when the triple is scaled.  ``carry`` hops from
that key mod the prime, so a point is never built just to be moved.  The
residue triple is the integer triple's residues times a product of
powers of the strip gcds the integer hops divide by: a unit mod q while
q divides none of them, and once it does, every residue is 0.  So a hop
with no zero mod q has no zero over the integers, and any zero mod q, a
table point, a contracted line or a false zero, reruns the hops on the
integers, which decide it exactly.  A chain end is registered with its
recipe, the source id and the hops, and no integers while its
fingerprint is new.  The registry keeps the first integer representative
registered for a point and hands out the canonical form on read.

A point's history is its root, the point registered with its integers
that its recipes lead back to, and their hops, freely reduced; it is
traced on demand and never stored.  Chain ends of one history are one
point: every recipe hop met no zero mod q, so none over the integers,
and a hop with no zero in ``inner * x`` leaves the point off the
letter's contracted lines, where the inverse letter's hop meets no zero
either and returns the same point.  So ``carry`` takes a point back
through the inverse of its recipe's one hop to the recipe's source, and
a point is built on first read in one loop along its reduced history
from the nearest point whose integers are held.  Any other fingerprint
hit, or a chain end whose residues all vanish, is built and counts only
after the exact cross-product test ``same_point``; distinct points that
share a fingerprint fall back to a dict keyed by the canonical form.

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

A chain needs integers only where a hop meets a zero mod q, where its
end lands on a fingerprint of another history, or where a point is
read, and a point l letters deep has coordinates of about c * 2^l bits.
So building stops once a coordinate passes ``BUILD_BITS``: it raises a
``DegenerateConfiguration`` that says the event is undecided and names
the event, the prime and the budget.  A walk reports it as an abort, so
nothing merges silently at any depth.

Each operator memoises its point images, source id to image id, for
every pullback transport that succeeds.  The memo is exact: a stored
representative never changes and transport is deterministic, so a
repeat would register the very id stored.  A transport that raises
stores nothing, so a point on a contracted line raises again.
"""

from __future__ import annotations

import weakref
from math import frexp, gcd, ldexp, sqrt
from sys import float_info
from typing import Dict, List, Optional, Tuple

from . import projective
from .errors import DegenerateConfiguration, TablePointHit
from .maps import GeneratorData, det3, matvec
from .projective import fingerprint, normalize_exact, same_point

# the most bits a built coordinate may take.  The largest built in the
# tests and the benchmark has 273,068 bits (walk seed 126, reduced
# length 16), so the budget leaves a margin of 15
BUILD_BITS = 1 << 22


# -- point registry -----------------------------------------------------


class PointRegistry:
    """Issues stable integer ids for plane points, carries them through
    letters and owns the letter operators."""

    def __init__(self):
        self._points: List[Optional[tuple]] = []  # None: not yet built
        self._keys: List[tuple] = []  # pid -> fingerprint, where carry starts
        self._recipes: Dict[int, tuple] = {}  # pid -> (base, hops)
        self._by_fingerprint: Dict[tuple, int] = {}
        self._clashes: Dict[tuple, int] = {}
        self._operators: Dict[Tuple[int, int], "LetterOperator"] = {}

    def __len__(self) -> int:
        return len(self._points)

    def operator(self, gen: GeneratorData, sign: int) -> "LetterOperator":
        """The pullback operator of the letter (gen, sign) over this
        registry, made on first use and kept for the registry's life."""
        key = id(gen), sign  # the operator keeps gen, so its id stays put
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = LetterOperator(gen, sign, self)
        return op

    def coords_of(self, pid: int) -> tuple:
        """The point's canonical integers."""
        return normalize_exact(self.representative(pid))

    def residues(self, pid: int) -> tuple:
        """The point's fingerprint mod ``FINGERPRINT_P``, as registered."""
        return self._keys[pid]

    def representative(self, pid: int,
                       event: str = "reading a point's coordinates") -> tuple:
        """The first integer triple registered for the point, built along
        its history on first read; ``event`` names what needed it."""
        coords = self._points[pid]
        if coords is None:
            coords = self._points[pid] = self._build(
                *self._history(pid, held=True), event)
        return coords

    def _build(self, base: int, hops: tuple, event: str) -> tuple:
        """The integers of ``base`` carried through ``hops``, refused past
        ``BUILD_BITS``."""
        coords = self.representative(base, event)
        for i, op in enumerate(hops):
            try:
                coords = op.transport(coords)
            except TablePointHit as hit:
                hit.hop = i
                raise
            if max(map(abs, coords)).bit_length() > BUILD_BITS:
                raise DegenerateConfiguration(
                    f"undecided: {event} needs integers past the build "
                    f"budget of {BUILD_BITS} bits, and residues mod p = "
                    f"{projective.FINGERPRINT_P} do not decide it")
        return coords

    def _history(self, pid: int, hops: tuple = (), held: bool = False):
        """(root, freely reduced hops) of the point ``pid`` carried through
        ``hops``, or with ``held`` from the nearest point with integers."""
        word: List[LetterOperator] = []  # newest hop first
        while True:
            for op in reversed(hops):
                if word and word[-1].undoes(op):
                    word.pop()
                else:
                    word.append(op)
            recipe = self._recipes.get(pid)
            if recipe is None or held and self._points[pid] is not None:
                return pid, tuple(reversed(word))
            pid, hops = recipe

    def carry(self, pid: int, hops: tuple) -> int:
        """The id of point ``pid`` transported through ``hops`` in turn.

        Raises ``DegenerateConfiguration`` at a contracted line, and
        ``TablePointHit`` with ``hop`` set to the position of the hop that
        met a table point.  Hops run from the point's key mod
        ``FINGERPRINT_P``, and on the integers only after a zero there.
        """
        if not hops:
            return pid
        base, last = self._recipes.get(pid, (pid, ()))
        if len(last) == len(hops) == 1 and hops[0].undoes(last[0]):
            return base  # the inverse hop takes it back
        residues, q = self._keys[pid], projective.FINGERPRINT_P
        try:
            for op in hops:
                residues = op.transport(residues, q)
        except DegenerateConfiguration:  # a zero mod q, true or false
            return self.register(self._build(pid, hops, "a zero mod p"))
        return self.register(residues, (pid, hops))

    def register(self, coords, recipe: Optional[tuple] = None) -> int:
        """The id of the point ``coords``, issued on its first registration.

        ``coords`` is any nonzero triple of the point, normalised where
        needed; with ``carry``'s ``recipe`` (base id, hops), the residues
        mod ``FINGERPRINT_P`` of the base carried through the hops.
        """
        if recipe is not None:
            key = fingerprint(coords)
            pid = self._by_fingerprint.get(key)
            if key is not None and pid is None:  # a new point
                self._by_fingerprint[key] = pid = self._append(None, key)
                self._recipes[pid] = recipe
                return pid
            if key and self._history(pid) == self._history(*recipe):
                return pid
            coords = self._build(*recipe, "a fingerprint hit" if key
                                 else "a chain end whose residues all vanish")
        elif type(coords) is not tuple \
                or not all(type(c) is int for c in coords):
            coords = normalize_exact(coords)
        key = fingerprint(coords)
        if key is None:  # a multiple of the prime: its normal form has a key
            coords = normalize_exact(coords)
            key = fingerprint(coords)
        pid = self._by_fingerprint.get(key)
        if pid is None:
            self._by_fingerprint[key] = pid = self._append(coords, key)
            return pid
        if same_point(coords, self.representative(pid, "a fingerprint hit")):
            return pid
        # a distinct point with the same residues: identify it exactly
        canon = normalize_exact(coords)
        pid = self._clashes.get(canon)
        if pid is None:
            self._clashes[canon] = pid = self._append(coords, key)
        return pid

    def _append(self, coords, key) -> int:
        self._points.append(coords)
        self._keys.append(key)
        return len(self._points) - 1


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
                        c2: WeilClass, scale2: int) -> Optional[float]:
    """Euclidean norm of the coefficient difference of two rescaled classes.

    Integer scales keep each quotient an int/int division, which Python
    rounds correctly and which cannot overflow at any walk length.  The
    differences are scaled by a power of two that brings the largest to
    [0.5, 1) before they are squared, so a difference far below 1e-154
    does not square to 0.0; where the unscaled sum stays normal the
    scaling changes no bit.  None once a nonzero coefficient's quotient
    falls below the least normal float (for scale 2^len, a coefficient 1
    past len 1022): that quotient is subnormal or 0.0, and the norm would
    lose its precision without a sign.
    """
    for cls, scale in ((c1, scale1), (c2, scale2)):
        least = min((abs(c) for c in (cls.line_coeff, *cls.point_part.values())
                     if c), default=0)
        if least and least / scale < float_info.min:
            return None
    diffs = [c1.line_coeff / scale1 - c2.line_coeff / scale2]
    for pid in set(c1.point_part) | set(c2.point_part):
        diffs.append(c1.point_part.get(pid, 0) / scale1
                     - c2.point_part.get(pid, 0) / scale2)
    top = max(abs(d) for d in diffs)
    if top == 0.0:
        return 0.0
    e = frexp(top)[1]
    return ldexp(sqrt(sum(ldexp(d, -e) ** 2 for d in diffs)), e)


# -- letter action ------------------------------------------------------


_COMPLEMENT = ((1, 2), (0, 2), (0, 1))


class LetterOperator:
    """Pullback action of one letter over a registry, which it holds weakly.

    Pushforward by the same letter is pullback by the opposite sign, so a
    registry keeps one operator per (generator, sign) pair, made by
    ``PointRegistry.operator``, and never needs a pushforward object.
    """

    def __init__(self, gen: GeneratorData, sign: int, registry: PointRegistry):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.gen = gen
        self.sign = sign
        # weak: the registry keeps its operators and its recipes name them
        self._registry = weakref.ref(registry)
        # source pid -> image pid of every pullback transport that succeeded
        self.images: Dict[int, int] = {}
        own = gen.letter_base_pts(sign)
        table = gen.letter_base_pts(-sign)
        self.base_ids = tuple(registry.register(q) for q in own)
        self.table_ids = tuple(registry.register(q) for q in table)
        # a self-inverse letter may share the two triples wholesale; what the
        # table algebra cannot survive is a collapse inside either triple
        if len(set(self.base_ids)) != 3 or len(set(self.table_ids)) != 3:
            raise DegenerateConfiguration(
                "a letter's indeterminacy triple collapsed in the registry")
        self.table_points = tuple(registry.coords_of(tid)
                                  for tid in self.table_ids)
        self.eval_matrices = outer, inner = gen.letter_matrices(-sign)
        # D = det(inner)^2 * |det(outer)|, the letter's content bound
        self.content_bound = det3(inner) ** 2 * abs(det3(outer))
        # transport names a table hit by the one nonzero of inner * x, and a
        # contracted line by a single zero
        for t, q in enumerate(self.table_points):
            v = matvec(inner, q)
            if [a for a in range(3) if v[a]] != [t]:
                raise DegenerateConfiguration(
                    "a table point misses its axis of the inner matrix")

    def undoes(self, other: "LetterOperator") -> bool:
        """Whether this is the operator of ``other``'s inverse letter."""
        return self.gen is other.gen and self.sign == -other.sign

    # transport of a single carried point by the inverse letter

    def transport(self, coords, modulus: Optional[int] = None):
        """Image of a carried point under the inverse letter, guarded.

        Raises DegenerateConfiguration when the point sits on a curve the
        inverse letter contracts (the class of such a point does not move
        to the class of a plane point), and ``TablePointHit`` with its
        index at a table point.  An image is the integer triple
        outer * sigma(inner * coords) divided by its gcd with
        ``content_bound``, never by its full content.  With a ``modulus``
        (``carry``'s residue hop), v and the image are reduced mod that
        prime, and the image is not normalised.
        """
        outer, inner = self.eval_matrices
        x, y, z = coords
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = inner
        v0 = a0 * x + a1 * y + a2 * z
        v1 = b0 * x + b1 * y + b2 * z
        v2 = c0 * x + c1 * y + c2 * z
        if modulus:
            v0 %= modulus
            v1 %= modulus
            v2 %= modulus
        if not (v0 and v1 and v2):
            if (v0 == 0) + (v1 == 0) + (v2 == 0) == 2:
                raise TablePointHit(0 if v0 else 1 if v1 else 2)
            raise DegenerateConfiguration(
                "carried point lies on a contracted line of the evaluating "
                "letter")
        s0, s1, s2 = v1 * v2, v0 * v2, v0 * v1
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = outer
        x = a0 * s0 + a1 * s1 + a2 * s2
        y = b0 * s0 + b1 * s1 + b2 * s2
        z = c0 * s0 + c1 * s1 + c2 * s2
        if modulus:
            return (x % modulus, y % modulus, z % modulus)
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
        reg, images = self._registry(), self.images
        for pid, coeff in entries.items():
            new_pid = images.get(pid)
            if new_pid is None:
                new_pid = images[pid] = reg.carry(pid, (self,))
            if new_pid in out:
                raise DegenerateConfiguration(
                    "transported point collides with another carried point")
            out[new_pid] = coeff
        return WeilClass(new_line, out)


# -- serialisation ------------------------------------------------------


def class_to_jsonable(cls: WeilClass, registry: PointRegistry,
                      residues: bool = False) -> dict:
    """The class with each point named by its canonical integers, or with
    ``residues`` by its fingerprint mod ``FINGERPRINT_P``."""
    name = registry.residues if residues else registry.coords_of
    entries = []
    for pid in sorted(cls.point_part):
        entries.append([list(name(pid)), cls.point_part[pid]])
    entries.sort(key=lambda e: e[0])
    return {"line_coeff": cls.line_coeff, "point_entries": entries}
