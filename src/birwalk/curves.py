"""Exact curve pullback by words: strict transforms and multiplicity checks.

Pulling a reduced plane curve back through a word means substituting the
word's composite components into the defining form and then removing the
factors the word contracts.  Every curve the composite contracts divides
its jacobian determinant, so repeated exact gcd division against the
jacobian peels exactly the contracted part and no factorization is ever
needed.  What remains is the strict transform: the honest image curve.

The multiplicities of the strict transform at the word's indeterminacy
points tie the polynomial geometry to the class calculus: the same
numbers must come out of pure linear algebra, pairing the curve's class
data with the pushforward of each exceptional class under the word.
Both routes are computed independently here and reported side by side;
agreement is the deepest cross-module check the package has.

The equidistribution diagnostic compares, over a growing itinerary
prefix, the normalized truncated class of the pulled-back curve with
the walk's own boundary approximant at a fixed reference horizon: the
curve series must sink toward the boundary class at the same geometric
speed the walk itself converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import modp
from .errors import CurveContracted, DegenerateConfiguration, NonExactDivision
from .genericity import Word, _exact_word_components
from .maps import IDENTITY_COMPONENTS, compose_letter, substitute_map
from .picard import (
    OperatorCache,
    PointRegistry,
    WeilClass,
    coefficient_l2_diff,
)
from .poly import (
    HomPoly,
    div_exact,
    format_poly,
    is_squarefree,
    jacobian_det,
    multiplicity_at,
    parse_poly,
    poly_gcd,
)
from .walk import WalkState, run_walk


def _canonical_poly(p: HomPoly) -> HomPoly:
    """Integer-primitive representative with positive leading coefficient."""
    if p.is_zero:
        return p
    den = 1
    for _e, c in p.terms:
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    scaled = [int(c * den) for _e, c in p.terms]
    content = 0
    for v in scaled:
        content = math.gcd(content, v)
    if scaled[0] < 0:
        content = -content
    return p.scale(Fraction(den, content))


@dataclass(frozen=True)
class PlaneCurve:
    """A reduced plane curve, held as its squarefree defining form."""

    poly: HomPoly

    def __post_init__(self):
        if self.poly.is_zero or self.poly.degree < 1:
            raise ValueError("a curve needs a nonconstant defining form")
        if not is_squarefree(self.poly):
            raise ValueError("defining form must be squarefree (reduced curve)")
        object.__setattr__(self, "poly", _canonical_poly(self.poly))

    @property
    def degree(self) -> int:
        return self.poly.degree

    @classmethod
    def parse(cls, text: str) -> "PlaneCurve":
        return cls(parse_poly(text))

    def multiplicity_at(self, coords) -> int:
        return multiplicity_at(self.poly, coords)

    def __str__(self) -> str:
        return format_poly(self.poly)


@dataclass(frozen=True)
class PullbackCurveReport:
    word: Word
    curve_degree: int
    raw_degree: int
    strict_poly: HomPoly
    strict_degree: int
    base_points: Tuple[Tuple[tuple, int, int], ...]  # (coords, word mult, curve mult)
    removed: Tuple[Tuple[HomPoly, int], ...]

    def multiplicities(self) -> List[int]:
        return [nu for _c, _m, nu in self.base_points]


def _strict_transform(comps, curve: PlaneCurve):
    """Substitute, then peel contracted factors; returns (strict, removed, raw deg)."""
    raw = substitute_map(curve.poly, comps)
    if raw.is_zero:
        raise CurveContracted("curve pullback vanishes identically")
    jac = jacobian_det(*comps)
    cur = raw
    peeled: List[HomPoly] = []
    if jac.degree > 0:
        while cur.degree > 0:
            g = poly_gcd(cur, jac)
            if g.degree == 0:
                break
            cur = div_exact(cur, g)
            peeled.append(_canonical_poly(g))
    if cur.degree == 0:
        raise CurveContracted(
            "the word contracts the whole curve; nothing survives stripping")
    grouped: Dict[HomPoly, int] = {}
    for g in peeled:
        grouped[g] = grouped.get(g, 0) + 1
    removed = tuple(grouped.items())
    total = sum(g.degree * e for g, e in removed)
    if raw.degree != cur.degree + total:
        raise AssertionError("stripping lost track of the degree bookkeeping")
    return _canonical_poly(cur), removed, raw.degree


def _word_walk(gens, word: Word, registry: PointRegistry,
               cache: OperatorCache) -> WalkState:
    """Class state of the word as a composite: last letter applied first."""
    state = WalkState(gens, mode="exact", exact_len_cap=max(16, len(word)),
                      registry=registry, cache=cache)
    for letter in reversed(word):
        state.step(letter)
    return state


def pullback_curve(gens, word: Word, curve: PlaneCurve, *,
                   degree_cap: int = 256) -> PullbackCurveReport:
    """Strict transform of the curve under the word, with its multiplicities."""
    comps = _exact_word_components(gens, word)
    word_degree = next(p.degree for p in comps if not p.is_zero)
    if word_degree * curve.degree > degree_cap:
        raise ValueError(
            f"pullback degree {word_degree * curve.degree} exceeds the cap {degree_cap}")
    strict, removed, raw_degree = _strict_transform(comps, curve)
    registry = PointRegistry("exact")
    cache = OperatorCache(gens, registry)
    state = _word_walk(gens, word, registry, cache)
    if word_degree != 1 << state.reduced_len:
        raise DegenerateConfiguration(
            f"word composes to degree {word_degree} but the class calculus "
            f"predicts {1 << state.reduced_len}; the generator tuple is not "
            f"generic along this word")
    pts = []
    for pid, m in sorted(state.pull_class.point_part.items()):
        coords = registry.coords_of(pid)
        pts.append((coords, m, multiplicity_at(strict, coords)))
    return PullbackCurveReport(
        word=tuple(word),
        curve_degree=curve.degree,
        raw_degree=raw_degree,
        strict_poly=strict,
        strict_degree=strict.degree,
        base_points=tuple(pts),
        removed=removed,
    )


@dataclass(frozen=True)
class LelongRow:
    coords: tuple
    word_multiplicity: int
    nu_poly: int
    nu_class: int

    @property
    def match(self) -> bool:
        return self.nu_poly == self.nu_class


def lelong_crosscheck(gens, word: Word, curve: PlaneCurve, *,
                      degree_cap: int = 256,
                      report: Optional[PullbackCurveReport] = None) -> List[LelongRow]:
    """Both multiplicity routes at every base point of the word.

    The polynomial route reads the multiplicity off the strict transform.
    The class route never touches the pulled-back polynomial: it expands
    the pushforward of the base point's exceptional class under the word
    in the canonical basis and pairs the result with the original curve's
    class data.  The two columns must agree, value by value.

    A report computed earlier for the same word and curve can be passed
    in to reuse its strict transform.
    """
    if report is None:
        report = pullback_curve(gens, word, curve, degree_cap=degree_cap)
    elif report.word != tuple(word):
        raise ValueError("precomputed report is for a different word")
    registry = PointRegistry("exact")
    cache = OperatorCache(gens, registry)
    state = _word_walk(gens, word, registry, cache)
    rows = []
    for pid, m in sorted(state.pull_class.point_part.items()):
        coords = registry.coords_of(pid)
        nu_poly = multiplicity_at(report.strict_poly, coords)
        v = WeilClass.exceptional_class(pid)
        for letter in reversed(word):
            v = cache.get(letter[0], -letter[1]).pullback(v)
        nu_class = curve.degree * v.line_coeff - sum(
            coeff * curve.multiplicity_at(registry.coords_of(p))
            for p, coeff in v.point_part.items())
        rows.append(LelongRow(coords, m, nu_poly, nu_class))
    return rows


def guedj_bound_check(report: PullbackCurveReport) -> Tuple[int, int, bool]:
    """(sum of squared multiplicities, squared strict degree, bound holds)."""
    lhs = sum(nu * nu for _c, _m, nu in report.base_points)
    rhs = report.strict_degree ** 2
    return lhs, rhs, lhs <= rhs


# -- incremental strict transforms over a growing word ------------------


class StageStricts:
    """Strict transforms over a word that grows by one outer letter at a time.

    Every irreducible curve a composite contracts is the strict transform,
    under some inner suffix of the word, of one of the three lines the next
    letter contracts (the lines cut out by its inner matrix rows).  Keeping
    those strict transforms as a candidate list turns stripping into exact
    trial division: no composite jacobian, no gcd of huge forms.  The
    jacobian-gcd route recomputes the same strict transform from scratch
    and stays as an independent cross-check on short words.
    """

    def __init__(self, gens):
        self.gens = gens
        self.comps = IDENTITY_COMPONENTS
        self.candidates: List[HomPoly] = []
        self._cand_images: List[Optional[List[int]]] = []

    @property
    def word_degree(self) -> int:
        return next(p.degree for p in self.comps if not p.is_zero)

    def push_outer_letter(self, letter) -> None:
        """Extend the word on the outside; the old word becomes its suffix."""
        outer, inner = self.gens[letter[0]].letter_matrices(letter[1])
        for row in inner:
            line = HomPoly({(1, 0, 0): row[0], (0, 1, 0): row[1],
                            (0, 0, 1): row[2]})
            strict, _removed = self.strip(substitute_map(line, self.comps))
            # a degree-0 residue means the suffix already contracts this
            # line backwards; no source curve lands on it
            if strict.degree > 0:
                cand = _canonical_poly(strict)
                self.candidates.append(cand)
                self._cand_images.append(modp.restrict(cand, modp.FILTER_LINE))
        self.comps = compose_letter(outer, inner, self.comps)

    def strip(self, raw: HomPoly):
        """Remove every candidate factor; returns (strict, removed list).

        Trial division is filtered through the restrictions to modp's
        generic line: a restriction that does not divide proves the form
        does not, so exact division runs only on likely hits.
        """
        cur = raw
        cur_image = modp.restrict(cur, modp.FILTER_LINE)
        removed: List[HomPoly] = []
        changed = True
        while changed and cur.degree > 0:
            changed = False
            for cand, cand_image in zip(self.candidates, self._cand_images):
                while cur.degree >= cand.degree:
                    if not modp.divides(cur_image, cand_image):
                        break
                    try:
                        nxt = div_exact(cur, cand)
                    except NonExactDivision:
                        break
                    cur = nxt
                    cur_image = modp.restrict(cur, modp.FILTER_LINE)
                    removed.append(cand)
                    changed = True
        return cur, removed

    def strict_of(self, curve: PlaneCurve) -> HomPoly:
        raw = substitute_map(curve.poly, self.comps)
        strict, _removed = self.strip(raw)
        if strict.degree == 0:
            raise CurveContracted(
                "the word contracts the whole curve; nothing survives stripping")
        return _canonical_poly(strict)


# -- convergence of curve pullbacks toward the walk boundary ------------


@dataclass(frozen=True)
class EquidistRow:
    prefix_len: int
    reduced_len: int
    raw_degree: int
    strict_degree: int
    distance: float        # to the reference-horizon boundary approximant
    distance_step: float   # to the same-prefix approximant (exactness witness)
    bound_lhs: int
    bound_rhs: int


def equidist_diagnostic(gens, itinerary, curve: PlaneCurve, *,
                        max_len: int = 6,
                        degree_cap: int = 256,
                        on_contracted: str = "raise") -> List[EquidistRow]:
    """Distance series of normalized curve-pullback classes over prefixes.

    The reference distance compares each prefix's truncated curve class
    with the deepest computed boundary approximant; for a curve the walk
    treats generically the series shrinks at the walk's own convergence
    speed.  The per-step distance compares against the same prefix's
    approximant instead and is an exactness witness: for a fully generic
    curve the truncated class is that approximant on the nose.

    on_contracted chooses what a fully contracted prefix does: "raise"
    propagates CurveContracted, "truncate" returns the rows computed so
    far so a caller can record the partial series with a warning.
    """
    if on_contracted not in ("raise", "truncate"):
        raise ValueError(f"unknown on_contracted {on_contracted!r}")
    walk = run_walk(gens, max_len, itinerary=tuple(itinerary[:max_len]),
                    mode="exact", checkpoint_every=1, keep_classes=True,
                    exact_len_cap=max(16, max_len))
    if walk.aborted is not None:
        raise DegenerateConfiguration(walk.aborted)
    kept = {n: (ln, c) for n, ln, c, _e in walk.checkpoint_classes}
    ref_len, ref_class = kept[max_len]
    registry = walk.registry
    stages = StageStricts(gens)
    rows: List[EquidistRow] = []
    for k in range(max_len + 1):
        if k > 0:
            # prefix k of the itinerary is the word with the newest letter
            # outermost, which is exactly how the stage machinery grows
            stages.push_outer_letter(walk.itinerary[k - 1])
        word_degree = stages.word_degree
        if word_degree * curve.degree > degree_cap:
            raise ValueError(
                f"pullback degree {word_degree * curve.degree} exceeds the cap "
                f"{degree_cap}")
        try:
            strict = stages.strict_of(curve)
        except CurveContracted:
            if on_contracted == "raise":
                raise
            break
        raw_degree = word_degree * curve.degree
        red_len, c_k = kept[k]
        if word_degree != 1 << red_len:
            raise DegenerateConfiguration(
                f"prefix of length {k} composes to degree {word_degree} but "
                f"the class calculus predicts {1 << red_len}")
        part = {pid: multiplicity_at(strict, registry.coords_of(pid))
                for pid in c_k.point_part}
        u = WeilClass(strict.degree, {p: v for p, v in part.items() if v})
        scale_u = float(curve.degree * 2 ** red_len)
        rows.append(EquidistRow(
            prefix_len=k,
            reduced_len=red_len,
            raw_degree=raw_degree,
            strict_degree=strict.degree,
            distance=coefficient_l2_diff(u, scale_u,
                                         ref_class, float(2 ** ref_len)),
            distance_step=coefficient_l2_diff(u, scale_u,
                                              c_k, float(2 ** red_len)),
            bound_lhs=sum(v * v for v in part.values()),
            bound_rhs=strict.degree ** 2,
        ))
    return rows


EQUIDIST_CSV_COLUMNS = ("l", "deg", "distance", "bound_lhs", "bound_rhs",
                        "distance_step")


def write_equidist_csv(rows, path) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EQUIDIST_CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.prefix_len, r.strict_degree, repr(r.distance),
                             r.bound_lhs, r.bound_rhs, repr(r.distance_step)])
