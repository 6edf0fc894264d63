"""Plane birational maps as coprime homogeneous component triples.

A map is three forms of one common degree with no common factor, read as
projective coordinates of the image point.  Composition substitutes one
triple into the other and then strips the common factor that substitution
creates; the stripped triple's degree is the honest algebraic degree of
the composite.

The random generators used by the walk have the shape
``linear ∘ quadratic-involution ∘ linear`` with integer matrices.  That
shape fixes everything the class calculus needs in closed form: the
indeterminacy points of the map are the adjugate columns of the inner
matrix, those of the inverse are the columns of the outer matrix, and the
jacobian splits into the three lines joining pairs of indeterminacy
points.  Composing a generator onto an arbitrary triple therefore costs
three large polynomial multiplications plus linear combinations, and the
specialised ``compose_letter`` below does exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .errors import (
    DegenerateComposition,
    IndeterminatePoint,
    MissingInverse,
    SamplingExhausted,
)
from .poly import (
    HomPoly,
    ONE,
    X,
    Y,
    Z,
    canonical_components,
    div_exact,
    is_squarefree,
    jacobian_det,
    linear_combination,
    triple_gcd,
)
from .projective import ExactCoords, normalize_exact

Mat3 = Tuple[Tuple[int, int, int], Tuple[int, int, int], Tuple[int, int, int]]
Components = Tuple[HomPoly, HomPoly, HomPoly]

IDENTITY_COMPONENTS: Components = (X, Y, Z)


# -- integer 3x3 linear algebra -----------------------------------------


def det3(m: Mat3) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adj3(m: Mat3) -> Mat3:
    (a, b, c), (d, e, f), (g, h, i) = m
    return ((e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d))


def matvec(m: Mat3, v) -> tuple:
    return tuple(m[r][0] * v[0] + m[r][1] * v[1] + m[r][2] * v[2] for r in range(3))


def matcol(m: Mat3, j: int) -> tuple:
    return (m[0][j], m[1][j], m[2][j])


# -- canonical component triples ----------------------------------------


def strip_common_factor(comps: Sequence[HomPoly]) -> Tuple[Components, HomPoly]:
    """Divide out the gcd of a raw triple; returns (stripped triple, factor)."""
    g = triple_gcd(*comps)
    if g.degree == 0:
        return canonical_components(comps), ONE
    stripped = tuple(div_exact(p, g) for p in comps)
    return canonical_components(stripped), g


# -- the map object -----------------------------------------------------


@dataclass(frozen=True)
class BirMap:
    """Coprime component triple, optionally bundled with its inverse triple."""

    components: Components
    inverse_components: Optional[Components] = None

    def __post_init__(self):
        if len(self.components) != 3:
            raise ValueError("exactly three components required")
        nz = [p for p in self.components if not p.is_zero]
        if not nz:
            raise ValueError("all components vanish")
        if len({p.degree for p in nz}) != 1:
            raise ValueError("components of unequal degree")

    @property
    def degree(self) -> int:
        return next(p.degree for p in self.components if not p.is_zero)

    @cached_property
    def jacobian(self) -> HomPoly:
        return jacobian_det(*self.components)

    def inverse(self) -> "BirMap":
        if self.inverse_components is None:
            raise MissingInverse("no inverse components attached")
        return BirMap(self.inverse_components, self.components)

    def evaluate_exact(self, coords) -> ExactCoords:
        vals = tuple(p.eval(coords) for p in self.components)
        if all(v == 0 for v in vals):
            raise IndeterminatePoint(f"map is indeterminate at {tuple(coords)}")
        return normalize_exact(vals)


def sigma_map() -> BirMap:
    """The standard quadratic involution sending [x:y:z] to [yz:xz:xy]."""
    comps = (Y * Z, X * Z, X * Y)
    return BirMap(comps, comps)


IDENTITY = BirMap(IDENTITY_COMPONENTS, IDENTITY_COMPONENTS)


# -- composition --------------------------------------------------------


def _mono_product(memo, triple, e) -> HomPoly:
    """triple[0]^i * triple[1]^j * triple[2]^k for e = (i, j, k), memoised."""
    val = memo.get(e)
    if val is not None:
        return val
    i, j, k = e
    if i > 0:
        val = _mono_product(memo, triple, (i - 1, j, k)) * triple[0]
    elif j > 0:
        val = _mono_product(memo, triple, (i, j - 1, k)) * triple[1]
    else:
        val = _mono_product(memo, triple, (i, j, k - 1)) * triple[2]
    memo[e] = val
    return val


def substitute_map(p: HomPoly, triple: Components,
                   memo: Optional[dict] = None) -> HomPoly:
    """The form p with the triple substituted for the three variables."""
    if memo is None:
        memo = {(0, 0, 0): ONE}
    inner_deg = next((q.degree for q in triple if not q.is_zero), 0)
    return linear_combination([(c, _mono_product(memo, triple, e)) for e, c in p.terms],
                              p.degree * inner_deg)


def compose(f: BirMap, g: BirMap) -> BirMap:
    """The composite map applying g first and f second."""
    memo = {(0, 0, 0): ONE}
    raw = tuple(substitute_map(p, g.components, memo) for p in f.components)
    if all(p.is_zero for p in raw):
        raise DegenerateComposition("composite collapses to the zero triple")
    comps, _ = strip_common_factor(raw)
    inverse = None
    if f.inverse_components is not None and g.inverse_components is not None:
        memo_inv = {(0, 0, 0): ONE}
        raw_inv = tuple(substitute_map(p, f.inverse_components, memo_inv)
                        for p in g.inverse_components)
        inverse, _ = strip_common_factor(raw_inv)
    return BirMap(comps, inverse)


def compose_letter(a_rows: Mat3, b_rows: Mat3, comps: Components) -> Components:
    """One generator composed onto an arbitrary triple, exploiting its shape.

    Computes outer ∘ involution ∘ inner applied after the given triple with
    three polynomial multiplications; strips the common factor of the raw
    result so the answer is again a coprime triple.
    """
    d = next(p.degree for p in comps if not p.is_zero)
    t = [linear_combination(zip(b_rows[i], comps), d) for i in range(3)]
    s = (t[1] * t[2], t[0] * t[2], t[0] * t[1])
    raw = tuple(linear_combination(zip(a_rows[i], s), 2 * d) for i in range(3))
    if all(p.is_zero for p in raw):
        raise DegenerateComposition("letter composition collapsed")
    stripped, _ = strip_common_factor(raw)
    return stripped


# -- random generators --------------------------------------------------


@dataclass(frozen=True)
class GeneratorData:
    """One sampled generator with all derived data the walk layer needs."""

    index: int
    a_rows: Mat3
    b_rows: Mat3
    a_adj_rows: Mat3
    b_adj_rows: Mat3
    fwd: BirMap
    base_pts: Tuple[ExactCoords, ExactCoords, ExactCoords]
    inv_base_pts: Tuple[ExactCoords, ExactCoords, ExactCoords]

    def letter_matrices(self, sign: int) -> Tuple[Mat3, Mat3]:
        """(outer, inner) matrix pair realising the letter with this sign."""
        if sign > 0:
            return self.a_rows, self.b_rows
        return self.b_adj_rows, self.a_adj_rows

    def letter_base_pts(self, sign: int):
        """Indeterminacy points of the letter map itself (not of its inverse)."""
        return self.base_pts if sign > 0 else self.inv_base_pts


_VERIFY_POINTS = ((1, 1, 1), (1, 2, 3), (2, -1, 5), (1, 0, 0), (0, 1, 1),
                  (3, 5, 7), (1, -1, 2), (2, 3, -1), (5, 1, 4), (1, 4, 9))


def generator_from_matrices(index: int, a_rows: Mat3,
                            b_rows: Mat3) -> GeneratorData:
    a_rows = tuple(tuple(int(v) for v in row) for row in a_rows)
    b_rows = tuple(tuple(int(v) for v in row) for row in b_rows)
    if det3(a_rows) == 0:
        raise DegenerateComposition("outer matrix is singular")
    if det3(b_rows) == 0:
        raise DegenerateComposition("inner matrix is singular")
    a_adj = adj3(a_rows)
    b_adj = adj3(b_rows)
    fwd_comps = compose_letter(a_rows, b_rows, IDENTITY_COMPONENTS)
    inv_comps = compose_letter(b_adj, a_adj, IDENTITY_COMPONENTS)
    if fwd_comps[0].degree != 2 or inv_comps[0].degree != 2:
        raise DegenerateComposition("generator degree is not 2 after stripping")
    fwd = BirMap(fwd_comps, inv_comps)
    base_pts = tuple(normalize_exact(matcol(b_adj, j)) for j in range(3))
    inv_base_pts = tuple(normalize_exact(matcol(a_rows, j)) for j in range(3))
    gen = GeneratorData(index, a_rows, b_rows, a_adj, b_adj, fwd,
                        base_pts, inv_base_pts)
    _verify_generator(gen)
    return gen


def _verify_generator(gen: GeneratorData) -> None:
    fwd, inv = gen.fwd, gen.fwd.inverse()
    checks = 0
    for pt in _VERIFY_POINTS:
        try:
            img = fwd.evaluate_exact(pt)
            back = inv.evaluate_exact(img)
        except IndeterminatePoint:
            continue
        if back != normalize_exact(pt):
            raise DegenerateComposition(
                f"inverse round trip failed at {pt}: got {back}")
        checks += 1
        if checks >= 3:
            break
    if checks == 0:
        raise DegenerateComposition("every probe point hit the exceptional locus")
    # the map must blow up exactly its advertised points
    for p in gen.base_pts:
        vals = [c.eval(p) for c in fwd.components]
        if any(v != 0 for v in vals):
            raise DegenerateComposition(f"advertised indeterminacy point {p} is not one")
    for q in gen.inv_base_pts:
        vals = [c.eval(q) for c in inv.components]
        if any(v != 0 for v in vals):
            raise DegenerateComposition(f"advertised inverse indeterminacy point {q} is not one")


def _random_matrix(rng: random.Random, height: int) -> Mat3:
    return tuple(tuple(rng.randint(-height, height) for _ in range(3))
                 for _ in range(3))


def sample_generators(count: int, height: int, rng: random.Random,
                      retry_budget: int = 2000) -> Tuple[GeneratorData, ...]:
    """Rejection-sample generators whose 6 indeterminacy points per map are
    pairwise distinct across the whole tuple."""
    if count < 1:
        raise ValueError("need at least one generator")
    if height < 1:
        raise ValueError("matrix height must be positive")
    gens = []
    seen = set()
    attempts = 0
    while len(gens) < count:
        if attempts >= retry_budget:
            raise SamplingExhausted(
                f"no admissible tuple of {count} generators within "
                f"{retry_budget} attempts at height {height}")
        attempts += 1
        a = _random_matrix(rng, height)
        b = _random_matrix(rng, height)
        if det3(a) == 0 or det3(b) == 0:
            continue
        try:
            gen = generator_from_matrices(len(gens), a, b)
        except DegenerateComposition:
            continue
        pts = gen.base_pts + gen.inv_base_pts
        if len(set(pts)) < 6 or any(p in seen for p in pts):
            continue
        seen.update(pts)
        gens.append(gen)
    return tuple(gens)


def has_only_proper_base_points(m: BirMap) -> bool:
    """Whether every indeterminacy point of m lies in the plane itself.

    Detected through the inverse: the curves the inverse contracts land on
    the indeterminacy points of m, and coincident or infinitely-near
    behaviour shows up as a repeated factor of the inverse's jacobian.
    """
    if m.inverse_components is None:
        raise MissingInverse("properness test needs the inverse components")
    return is_squarefree(jacobian_det(*m.inverse_components))
