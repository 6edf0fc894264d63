"""Exact curve pullback by words: strict transforms and multiplicity checks.

Pulling a reduced plane curve back through a word means substituting the
word's composite components into the defining form and then removing the
factors the word contracts.  Every irreducible curve a generic word
contracts is the strict transform, under an inner suffix of the word, of
one of the three lines the next letter contracts.  ``StageStricts``
collects those curves while it composes the word one letter at a time,
so stripping is exact trial division by known factors: no jacobian, no
gcd and no factorization of the pulled-back form.  What remains is the
strict transform: the honest image curve.

The multiplicities of the strict transform at the word's indeterminacy
points tie the polynomial geometry to the class calculus: the same
numbers must come out of pure linear algebra, pairing the curve's class
data with the pushforward of each exceptional class under the word.
``pullback_curve`` computes the polynomial route and ``lelong_crosscheck``
the class route from its report; agreement is the deepest cross-module
check the package has.

The equidistribution diagnostic compares, over a growing itinerary
prefix, the normalized truncated class of the pulled-back curve with
the walk's own boundary approximant at a fixed reference horizon: the
curve series must sink toward the boundary class at the same geometric
speed the walk itself converges.  It works on classes alone.  For the
freely reduced prefix w and a curve C of degree d, the strict transform
has class S = d * w^*L - sum_p m_p(C) * w^*E_p, where p runs over the
points of the push class w_*L (the points w^-1 blows up) at which C has
multiplicity m_p(C) > 0.  S's line coefficient is the strict degree, and
its coefficient at each base point q of w is the strict transform's
multiplicity there, which by adjunction is w_*E_q paired with C.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

from . import modp
from .errors import (CurveContracted, DegenerateConfiguration, DegreeCapExceeded,
                     NonExactDivision)
from .genericity import Word
from .maps import IDENTITY_COMPONENTS, compose_letter, substitute_map
from .picard import PointRegistry, WeilClass, coefficient_l2_diff, pull
from .poly import (
    HomPoly,
    div_exact,
    format_poly,
    is_squarefree,
    multiplicity_at,
    parse_poly,
    primitive,
)
from .walk import WalkState, assert_class_health


@dataclass(frozen=True)
class PlaneCurve:
    """A reduced plane curve, held as its squarefree defining form."""

    poly: HomPoly

    def __post_init__(self):
        if self.poly.is_zero or self.poly.degree < 1:
            raise ValueError("a curve needs a nonconstant defining form")
        if not is_squarefree(self.poly):
            raise ValueError("defining form must be squarefree (reduced curve)")
        object.__setattr__(self, "poly", primitive(self.poly))

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
    """Strict transform of one curve under one word.

    removed lists each contracted curve stripped from the raw pullback,
    canonical and irreducible over the rationals, with its exponent, so
    strict_degree + sum(deg * e) == raw_degree.
    """

    word: Word
    curve_degree: int
    raw_degree: int
    strict_poly: HomPoly
    strict_degree: int
    base_points: Tuple[Tuple[tuple, int, int], ...]  # (coords, word mult, curve mult)
    removed: Tuple[Tuple[HomPoly, int], ...]

    def multiplicities(self) -> List[int]:
        return [nu for _c, _m, nu in self.base_points]


def pullback_curve(gens, word: Word, curve: PlaneCurve, *,
                   degree_cap: int = 256) -> PullbackCurveReport:
    """Strict transform of the curve under the word, with its multiplicities."""
    stages = StageStricts(gens)
    for left in range(len(word), -1, -1):
        if left < len(word):
            stages.push_outer_letter(word[left])
        # the stage is the inverse of the letters still to come (degree
        # at most 2^left) composed with the word, so the word's degree is
        # at least the stage's over 2^left
        raw = stages.word_degree * curve.degree
        if raw > degree_cap << left:
            bound = f"at least {-(-raw >> left)}" if left else str(raw)
            raise DegreeCapExceeded(
                f"pullback degree {bound} exceeds the cap {degree_cap}")
    word_degree = stages.word_degree
    # class state of the word as a composite: last letter applied first
    state = WalkState(gens)
    for letter in reversed(word):
        state.step(letter)
    # the stage candidates are exactly the contracted curves only when the
    # word is generic, so the degree check comes before stripping
    if word_degree != 1 << state.reduced_len:
        raise DegenerateConfiguration(
            f"word composes to degree {word_degree} but the class calculus "
            f"predicts {1 << state.reduced_len}; the generator tuple is not "
            f"generic along this word")
    strict, stripped = stages.strict_of(curve)
    pts = []
    for pid, m in sorted(state.pull_class.point_part.items()):
        coords = state.registry.coords_of(pid)
        pts.append((coords, m, multiplicity_at(strict, coords)))
    return PullbackCurveReport(
        word=tuple(word),
        curve_degree=curve.degree,
        raw_degree=word_degree * curve.degree,
        strict_poly=strict,
        strict_degree=strict.degree,
        base_points=tuple(pts),
        removed=tuple(Counter(stripped).items()),
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
                      report: PullbackCurveReport) -> List[LelongRow]:
    """Both multiplicity routes at every base point of the word.

    The polynomial route is the report's: the word multiplicity and the
    multiplicity of the strict transform at each base point.  The class
    route never touches the pulled-back polynomial: it expands the
    pushforward of the base point's exceptional class under the word in
    the canonical basis and pairs the result with the original curve's
    class data.  The two columns must agree, value by value.
    """
    if report.word != tuple(word):
        raise ValueError("report is for a different word")
    registry = PointRegistry()
    rows = []
    for coords, m, nu_poly in report.base_points:
        v = WeilClass.exceptional_class(registry.register(coords))
        for gen, sign in reversed(word):
            v = registry.push(v, gens[gen], sign)
        nu_class = curve.degree * v.line_coeff - sum(
            coeff * curve.multiplicity_at(registry.representative(p))
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
    trial division: no composite jacobian, no gcd of huge forms.
    ``pullback_curve`` strips this way; the tests check the result against
    sympy factoring of the raw pullback.
    """

    def __init__(self, gens):
        self.gens = gens
        self.comps = IDENTITY_COMPONENTS
        self.candidates: List[HomPoly] = []
        self._cand_images: List[List[int]] = []

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
                cand = primitive(strict)
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

    def strict_of(self, curve: PlaneCurve):
        """Canonical strict transform of the curve; returns (strict, removed)."""
        strict, removed = self.strip(substitute_map(curve.poly, self.comps))
        if strict.degree == 0:
            raise CurveContracted(
                "the word contracts the whole curve; nothing survives stripping")
        return primitive(strict), removed


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
                        degree_cap: int = 256) -> List[EquidistRow]:
    """Distance series of normalized curve-pullback classes over prefixes.

    The reference distance compares each prefix's truncated curve class
    with the deepest computed boundary approximant; for a curve the walk
    treats generically the series shrinks at the walk's own convergence
    speed.  The per-step distance compares against the same prefix's
    approximant instead and is an exactness witness: for a fully generic
    curve the truncated class is that approximant on the nose.

    Every row is read off classes, and no polynomial is composed or
    stripped.  With w the freely reduced prefix, the strict transform's
    class is d * w^*L - sum_p m_p(C) * w^*E_p over the points p of the
    push class w_*L where the curve has multiplicity m_p(C) > 0, read at
    the registry's integer representative of p, since a multiplicity does
    not change with scale; so a generic curve costs one pushforward step
    per row.  degree_cap still bounds the raw pullback degree
    d * 2^(reduced length); the walk checks it as it reaches each prefix,
    so a prefix past it raises DegreeCapExceeded, naming the prefix, the
    degree and the cap, before any later step is taken.

    The series stops at the first prefix that contracts the whole curve,
    so fewer than max_len + 1 rows mean the curve was contracted; the walk
    still steps on to max_len for the reference approximant.  Contraction
    is not absorbing: a longer prefix may pull the curve back to a curve
    again, but the series does not resume.
    """
    if len(itinerary) < max_len:
        raise ValueError("itinerary shorter than requested steps")
    state = WalkState(gens, track_pushforward=True)
    registry = state.registry
    curve_mult = {}
    # (prefix length, reduced length, raw degree, strict class, w^*L) of
    # each prefix w before the first contracted one
    series = []
    contracted = False
    for k in range(max_len + 1):
        if k > 0:
            state.step(itinerary[k - 1])
        red_len, c_k = state.reduced_len, state.pull_class
        assert_class_health(c_k, k, "pullback")
        assert_class_health(state.push_class, k, "pushforward")
        if contracted:
            continue
        raw_degree = curve.degree << red_len
        if raw_degree > degree_cap:
            raise DegreeCapExceeded(
                f"pullback degree {raw_degree} exceeds the cap {degree_cap} "
                f"at prefix length {k}")
        # the strict transform's class, d * c_k minus the total transform
        # of each exceptional curve of w^-1 the curve passes through
        line = curve.degree * c_k.line_coeff
        part = {q: curve.degree * m for q, m in c_k.point_part.items()}
        for p in state.push_class.point_part:
            m_p = curve_mult.get(p)
            if m_p is None:
                m_p = curve_mult[p] = curve.multiplicity_at(
                    registry.representative(p))
            if m_p == 0:
                continue
            e = pull(WeilClass.exceptional_class(p), state.hops)
            line -= m_p * e.line_coeff
            for q, v in e.point_part.items():
                part[q] = part.get(q, 0) - m_p * v
        if line == 0:
            contracted = True
            continue
        stray = [q for q, v in part.items() if v and q not in c_k.point_part]
        if stray:
            raise DegenerateConfiguration(
                f"strict transform at prefix length {k} has multiplicity at "
                f"{len(stray)} point(s) outside the prefix's base points")
        series.append((k, red_len, raw_degree, WeilClass(line, part), c_k))
    ref_len, ref_class = state.reduced_len, state.pull_class
    return [EquidistRow(
        prefix_len=k,
        reduced_len=red_len,
        raw_degree=raw_degree,
        strict_degree=u.line_coeff,
        distance=coefficient_l2_diff(u, raw_degree, ref_class, 1 << ref_len),
        distance_step=coefficient_l2_diff(u, raw_degree, c_k, 1 << red_len),
        bound_lhs=sum(v * v for v in u.point_part.values()),
        bound_rhs=u.line_coeff ** 2,
    ) for k, red_len, raw_degree, u, c_k in series]


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
