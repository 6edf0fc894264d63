"""Curve pullback: strict transforms, dual-route multiplicities, decay series."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

import birwalk.curves as curves_mod
from birwalk.curves import (
    EQUIDIST_CSV_COLUMNS,
    EquidistRow,
    PlaneCurve,
    StageStricts,
    equidist_diagnostic,
    guedj_bound_check,
    lelong_crosscheck,
    pullback_curve,
    write_equidist_csv,
)
from birwalk.errors import (CurveContracted, DegenerateConfiguration,
                            DegreeCapExceeded)
from birwalk.maps import generator_from_matrices, sample_generators
from birwalk.picard import (LetterOperator, PointRegistry, WeilClass,
                            coefficient_l2_diff)
from birwalk.poly import HomPoly, parse_poly
from birwalk.walk import WalkState, random_itinerary, run_walk

from form_oracles import cross

IDENTITY_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.fixture(scope="module")
def gens():
    return sample_generators(2, 5, random.Random(1))


@pytest.fixture(scope="module")
def sigma_gens():
    # outer and inner matrices trivial: the letter is the involution itself
    return (generator_from_matrices(0, IDENTITY_ROWS, IDENTITY_ROWS),)


@pytest.fixture(scope="module")
def line():
    return PlaneCurve.parse("x + y + z")


@pytest.fixture(scope="module")
def conic():
    return PlaneCurve.parse("x^2 + y*z")


# -- curve construction -------------------------------------------------


def test_curve_rejects_nonreduced_and_trivial():
    with pytest.raises(ValueError):
        PlaneCurve.parse("x^2")
    with pytest.raises(ValueError):
        PlaneCurve(HomPoly({}))
    with pytest.raises(ValueError):
        PlaneCurve(HomPoly({(0, 0, 0): 3}))


def test_curve_canonicalizes_scaling():
    c = PlaneCurve(HomPoly({(1, 0, 0): Fraction(-2, 3), (0, 1, 0): Fraction(-4, 3)}))
    assert c.poly == parse_poly("x + 2*y")
    assert str(c) == "x + 2*y"


# -- hand-checked involution pullbacks ----------------------------------


def test_involution_generic_line(sigma_gens, line):
    report = pullback_curve(sigma_gens, ((0, 1),), line)
    assert report.raw_degree == 2
    assert report.strict_degree == 2
    assert report.strict_poly == parse_poly("x*y + x*z + y*z")
    assert report.removed == ()
    assert [m for _c, m, _nu in report.base_points] == [1, 1, 1]
    assert report.multiplicities() == [1, 1, 1]


def test_involution_contracts_coordinate_line(sigma_gens):
    with pytest.raises(CurveContracted):
        pullback_curve(sigma_gens, ((0, 1),), PlaneCurve.parse("x"))


def test_involution_strips_one_contracted_factor(sigma_gens):
    report = pullback_curve(sigma_gens, ((0, 1),), PlaneCurve.parse("x + z"))
    assert report.raw_degree == 2
    assert report.strict_poly == parse_poly("x + z")
    assert report.strict_degree == 1
    assert report.removed == ((parse_poly("y"), 1),)
    assert report.multiplicities() == [0, 1, 0]


def test_involution_crosscheck_agrees(sigma_gens):
    for text in ("x + y + z", "x + z", "x^2 + y*z"):
        curve = PlaneCurve.parse(text)
        report = pullback_curve(sigma_gens, ((0, 1),), curve)
        rows = lelong_crosscheck(sigma_gens, ((0, 1),), curve, report=report)
        assert len(rows) == 3
        assert all(r.match for r in rows)


def test_empty_word_is_identity(gens, conic):
    report = pullback_curve(gens, (), conic)
    assert report.raw_degree == 2
    assert report.strict_poly == conic.poly
    assert report.base_points == ()
    assert report.removed == ()


def test_squared_involution_is_flagged(sigma_gens, line):
    # the composite is the identity, so degree 1 against a stack of length 2:
    # honest degeneracy, not a silent wrong answer
    with pytest.raises(DegenerateConfiguration):
        pullback_curve(sigma_gens, ((0, 1), (0, 1)), line)


def test_degree_cap_enforced(gens, conic):
    word = ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        pullback_curve(gens, word, conic, degree_cap=7)


def test_degree_cap_refuses_before_composing_the_word(gens, line):
    # composed in full, this word took seconds to refuse; the stage
    # outgrows the cap times 2^(letters left) after five letters
    word = random_itinerary(2, 7, random.Random(2))
    start = time.perf_counter()
    with pytest.raises(DegreeCapExceeded, match="pullback degree at least"):
        pullback_curve(gens, word, line, degree_cap=4)
    assert time.perf_counter() - start < 1.0


def test_degree_cap_refuses_exactly_the_words_over_it(gens, sigma_gens, line):
    # the early refusal is sound: a word is refused iff its composed
    # degree times the curve's exceeds the cap, as with one check at the end
    for letters, word in [(gens, w) for n in (1, 2, 3)
                          for w in _reduced_words(2, n)] + \
            [(sigma_gens, ((0, 1), (0, 1)))]:
        stages = StageStricts(letters)
        for letter in reversed(word):
            stages.push_outer_letter(letter)
        raw = stages.word_degree * line.degree
        with pytest.raises(DegreeCapExceeded):
            pullback_curve(letters, word, line, degree_cap=raw - 1)
        try:
            report = pullback_curve(letters, word, line, degree_cap=raw)
        except DegenerateConfiguration:
            assert letters is sigma_gens  # refused as before, not for the cap
        else:
            assert report.raw_degree == raw


# -- dual-route agreement over sampled words ----------------------------


def _reduced_words(letter_count, length):
    letters = [(i, s) for i in range(letter_count) for s in (1, -1)]
    words = [[]]
    for _ in range(length):
        words = [w + [lt] for w in words for lt in letters
                 if not w or w[-1] != (lt[0], -lt[1])]
    return [tuple(w) for w in words]


def test_dual_route_agreement(gens, line, conic):
    for word in _reduced_words(2, 1):
        for curve in (line, conic):
            rows = lelong_crosscheck(gens, word, curve,
                                     report=pullback_curve(gens, word, curve))
            assert len(rows) == 3
            assert all(r.match for r in rows)
    for word in _reduced_words(2, 2):
        rows = lelong_crosscheck(gens, word, line,
                                 report=pullback_curve(gens, word, line))
        assert rows and all(r.match for r in rows)


def test_degree_bookkeeping_invariant(gens, line, conic):
    for word in _reduced_words(2, 2):
        for curve in (line, conic):
            report = pullback_curve(gens, word, curve)
            stripped = sum(g.degree * e for g, e in report.removed)
            assert report.raw_degree == report.strict_degree + stripped
            assert report.raw_degree == curve.degree * (1 << len(word))


def test_guedj_bound_on_sampled_words(gens, line, conic):
    for word in _reduced_words(2, 2):
        for curve in (line, conic):
            lhs, rhs, ok = guedj_bound_check(pullback_curve(gens, word, curve))
            assert ok and lhs <= rhs


def _sympy_form(sp, p):
    x, y, z = sp.symbols("x y z")
    return sp.Poly(sum(sp.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       * x ** i * y ** j * z ** k for (i, j, k), c in p.terms),
                   x, y, z)


def _sympy_strict(sp, gens, word, curve):
    """(strict transform, jacobian) of the word by sympy composition and factoring.

    One letter sends a triple T to outer . sigma(inner . T) with
    sigma(u, v, w) = (v w, u w, u v); the last letter of the word acts
    first.  The strict transform keeps the factors of the raw pullback
    that do not divide the composite's jacobian.
    """
    x, y, z = sp.symbols("x y z")
    zero = sp.Poly(0, x, y, z)
    comps = [sp.Poly(v, x, y, z) for v in (x, y, z)]
    for gen, sign in reversed(word):
        outer, inner = gens[gen].letter_matrices(sign)
        t = [sum((c * q for c, q in zip(row, comps)), zero) for row in inner]
        s = (t[1] * t[2], t[0] * t[2], t[0] * t[1])
        raw = [sum((c * q for c, q in zip(row, s)), zero) for row in outer]
        g = sp.gcd(sp.gcd(raw[0], raw[1]), raw[2])
        comps = [sp.div(q, g)[0] for q in raw]
    m = [[q.diff(v) for v in (x, y, z)] for q in comps]
    jac = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    raw = zero
    for (i, j, k), c in _sympy_form(sp, curve.poly).terms():
        raw += c * comps[0] ** i * comps[1] ** j * comps[2] ** k
    strict = sp.Poly(1, x, y, z)
    for factor, e in sp.factor_list(raw)[1]:
        if factor.total_degree() > 0 and not sp.div(jac, factor)[1].is_zero:
            strict = strict * factor ** e
    return strict, jac


def _conic_through(sp, pts):
    expos = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    rows = [[sp.Rational(str(Fraction(p[0]) ** i * Fraction(p[1]) ** j
                             * Fraction(p[2]) ** k)) for i, j, k in expos]
            for p in pts]
    basis = sp.Matrix(rows).nullspace()
    v = sum(((n + 1) * b for n, b in enumerate(basis)), sp.zeros(6, 1))
    return PlaneCurve(HomPoly({e: Fraction(int(c.p), int(c.q))
                               for e, c in zip(expos, v)}))


def test_strict_transform_matches_sympy_factoring(gens, line, conic):
    # an independent oracle: sympy composes the word from the letter
    # matrices, factors the raw pullback and drops the jacobian's factors
    sp = pytest.importorskip("sympy")
    prs_line = PlaneCurve.parse("2*x - 3*y + z")
    cases = [(curve, word) for curve in (line, conic)
             for word in _reduced_words(2, 1) + _reduced_words(2, 2)]
    cases += [(prs_line, ((1, -1), (1, -1), (0, 1))),
              (prs_line, ((1, -1), (0, -1), (1, -1))),
              (PlaneCurve.parse("x^2 + y*z - 2*z^2"), ((0, 1), (0, 1), (0, 1)))]
    # a conic through the three points the outer letter contracts its lines
    # to loses three distinct contracted factors in one strip
    for gen, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
        through = _conic_through(sp, gens[gen].letter_base_pts(-sign))
        cases += [(through, ((gen, sign),)), (through, ((gen, sign),) * 2)]
    for curve, word in cases:
        report = pullback_curve(gens, word, curve)
        want, jac = _sympy_strict(sp, gens, word, curve)
        assert _sympy_form(sp, report.strict_poly).monic() == want.monic(), \
            (str(curve), word)
        for g, _e in report.removed:
            assert sp.div(jac, _sympy_form(sp, g))[1].is_zero, (str(curve), word)
        assert report.strict_degree + sum(g.degree * e for g, e in report.removed) \
            == report.raw_degree


def test_lelong_crosscheck_reads_the_report(monkeypatch, gens, line, conic):
    word = ((0, 1), (1, -1))
    reports = [(curve, pullback_curve(gens, word, curve)) for curve in (line, conic)]
    polys, steps = [], []
    real_mult, real_step = curves_mod.multiplicity_at, WalkState.step
    monkeypatch.setattr(curves_mod, "multiplicity_at",
                        lambda p, c: polys.append(p) or real_mult(p, c))
    monkeypatch.setattr(WalkState, "step",
                        lambda self, lt: steps.append(lt) or real_step(self, lt))
    for curve, report in reports:
        assert report.strict_poly != curve.poly
        polys.clear()
        rows = lelong_crosscheck(gens, word, curve, report=report)
        # no walk, and no multiplicity of the strict transform: the class
        # route's pairing with the original curve is all that is left
        assert steps == []
        assert polys and all(p == curve.poly for p in polys)
        assert [(r.coords, r.word_multiplicity, r.nu_poly) for r in rows] == \
            list(report.base_points)
        assert all(r.match for r in rows)


def test_lelong_crosscheck_rejects_a_report_for_another_word(gens, line):
    report = pullback_curve(gens, ((0, 1),), line)
    with pytest.raises(ValueError):
        lelong_crosscheck(gens, ((1, 1),), line, report=report)


# -- boundary convergence of the pullback series ------------------------


def test_equidist_series_structure(gens, line):
    itinerary = random_itinerary(2, 6, random.Random(97))
    rows = equidist_diagnostic(gens, itinerary, line, max_len=6)
    assert len(rows) == 7
    first = rows[0]
    assert (first.prefix_len, first.reduced_len) == (0, 0)
    assert first.strict_degree == 1
    assert first.distance_step == 0.0
    assert first.distance > 0.0
    for r in rows:
        assert r.bound_lhs <= r.bound_rhs
        assert r.distance >= 0.0 and r.distance_step >= 0.0
    assert rows[-1].distance == rows[-1].distance_step


def test_equidist_generic_line_converges(gens, line):
    # frozen seed with a cancellation-free 6-step itinerary for this tuple
    itinerary = random_itinerary(2, 6, random.Random(2))
    rows = equidist_diagnostic(gens, itinerary, line, max_len=6)
    assert [r.reduced_len for r in rows] == list(range(7))
    for r in rows[1:]:
        # the truncated curve class IS the walk class at every prefix
        assert r.distance_step == 0.0
    dists = [r.distance for r in rows[1:]]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert rows[-1].distance == 0.0
    # with no cancellation each step subtracts three fresh unit points, so
    # consecutive normalized classes differ by disjointly supported vectors
    # of norm sqrt(3)/2^(l+1) and the distance to the horizon telescopes
    for r in rows:
        expect = math.sqrt(4.0 ** -r.prefix_len - 4.0 ** -6)
        assert abs(r.distance - expect) < 1e-12


def test_equidist_csv(tmp_path, gens, line):
    itinerary = random_itinerary(2, 4, random.Random(5))
    rows = equidist_diagnostic(gens, itinerary, line, max_len=4)
    out = tmp_path / "series.csv"
    write_equidist_csv(rows, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(EQUIDIST_CSV_COLUMNS)
    assert len(lines) == len(rows) + 1


# -- the class route against strict transforms --------------------------


def _line_through(p, q):
    a, b, c = cross(p, q)
    return PlaneCurve(HomPoly({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}))


def _oracle_rows(gens, itinerary, curve, max_len):
    """equidist rows rebuilt from pullback_curve on each freely reduced prefix.

    The multiplicities of the strict transform are matched to the walk's
    checkpoint classes by coordinates, and a prefix that contracts the
    whole curve ends the series, as on_contracted="truncate" does.
    """
    walk = run_walk(gens, max_len, itinerary=tuple(itinerary[:max_len]),
                    checkpoint_every=1, keep_classes=True)
    kept = {n: (ln, c) for n, ln, c, _e in walk.checkpoint_classes}
    ref_len, ref_class = kept[max_len]
    reduced, rows = [], []
    for k in range(max_len + 1):
        if k:
            gen, sign = itinerary[k - 1]
            if reduced and reduced[-1] == (gen, -sign):
                reduced.pop()
            else:
                reduced.append((gen, sign))
        red_len, c_k = kept[k]
        try:
            # pullback_curve takes the outermost letter first
            report = pullback_curve(gens, tuple(reversed(reduced)), curve)
        except CurveContracted:
            break
        nu = {coords: n for coords, _m, n in report.base_points}
        assert set(nu) == {walk.registry.coords_of(p) for p in c_k.point_part}
        part = {p: nu[walk.registry.coords_of(p)] for p in c_k.point_part}
        u = WeilClass(report.strict_degree, part)
        scale = curve.degree << red_len
        rows.append(EquidistRow(
            prefix_len=k, reduced_len=red_len, raw_degree=report.raw_degree,
            strict_degree=report.strict_degree,
            distance=coefficient_l2_diff(u, scale, ref_class, 1 << ref_len),
            distance_step=coefficient_l2_diff(u, scale, c_k, 1 << red_len),
            bound_lhs=sum(v * v for v in part.values()),
            bound_rhs=report.strict_degree ** 2))
    return rows


def test_equidist_matches_strict_transforms_row_for_row(gens):
    g0, g1 = gens
    lines = [PlaneCurve.parse("x + y + z"), PlaneCurve.parse("2*x - 3*y + z"),
             _line_through(g0.base_pts[0], (3, -7, 11)),
             _line_through(g0.base_pts[0], g1.inv_base_pts[1]),
             _line_through(g0.base_pts[0], g0.base_pts[1]),
             _line_through(g0.inv_base_pts[0], g0.inv_base_pts[1]),
             _line_through(g1.base_pts[0], g1.base_pts[1]),
             _line_through(g1.inv_base_pts[0], g1.inv_base_pts[1])]
    cases = [(curve, 5) for curve in lines]
    cases.append((PlaneCurve.parse("x^2 + y*z - 2*z^2"), 4))
    # seeds 2, 4, 5, 7, 11 and 13 are cancellation free at depth 5; the
    # other ten cancel at least one letter
    for seed in range(1, 17):
        for curve, max_len in cases:
            itinerary = random_itinerary(2, max_len, random.Random(seed))
            rows = equidist_diagnostic(gens, itinerary, curve, max_len=max_len,
                                       on_contracted="truncate")
            assert rows == _oracle_rows(gens, itinerary, curve, max_len), \
                (seed, str(curve))


def test_equidist_cancelled_letter_does_not_strip_the_curve(gens):
    # the line through two inverse base points of gens[1]; the itinerary
    # starts (1, -1), (1, 1), so prefix 2 is the empty word and the strict
    # transform there is the line itself, not a contracted curve
    curve = _line_through(gens[1].inv_base_pts[0], gens[1].inv_base_pts[1])
    itinerary = random_itinerary(2, 5, random.Random(9))
    assert itinerary[:2] == ((1, -1), (1, 1))
    rows = equidist_diagnostic(gens, itinerary, curve, max_len=5,
                               on_contracted="truncate")
    assert (rows[2].reduced_len, rows[2].strict_degree) == (0, 1)
    assert len(rows) == 3  # prefix 3 is the letter (1, 1), which contracts it
    assert rows == _oracle_rows(gens, itinerary, curve, 5)


def test_equidist_cancelling_letter_reuses_the_stored_push(monkeypatch, gens,
                                                          line):
    # pushing a letter and its inverse composes to the identity on classes,
    # so only the work done shows whether a cancellation popped the stacks
    # or grew them.  The walk tracks the pushforward w_*L, so equidist's
    # own frame asks for no operator on a generic line, whose exceptional
    # classes it never pulls back, and the cancelling step transports nothing
    calls, transported, per_step = [], [], []
    operator, transport = PointRegistry.operator, LetterOperator.transport
    step = WalkState.step

    def counting(registry, gen, sign):
        if sys._getframe(1).f_code is equidist_diagnostic.__code__:
            calls.append((gen.index, sign))
        return operator(registry, gen, sign)

    def counted_hop(op, coords, modulus=None):
        transported.append(coords)
        return transport(op, coords, modulus)

    def counted_step(state, letter):
        before = len(transported)
        step(state, letter)
        per_step.append(len(transported) - before)

    monkeypatch.setattr(PointRegistry, "operator", counting)
    monkeypatch.setattr(LetterOperator, "transport", counted_hop)
    monkeypatch.setattr(WalkState, "step", counted_step)
    itinerary = random_itinerary(2, 5, random.Random(9))
    assert itinerary == ((1, -1), (1, 1), (1, 1), (0, -1), (0, -1))
    rows = equidist_diagnostic(gens, itinerary, line, max_len=5)
    assert [r.reduced_len for r in rows] == [0, 1, 0, 1, 2, 3]
    assert calls == []
    assert per_step[1] == 0 and sum(per_step) > 0


def test_equidist_at_depth_twelve(gens):
    special = _line_through(gens[0].base_pts[0], gens[1].inv_base_pts[1])
    # a letter whose inverse has a base point on the special line halves
    # the strict degree of the newest step
    halving = {(i, s) for i in range(2) for s in (1, -1)
               if any(special.multiplicity_at(p)
                      for p in gens[i].letter_base_pts(-s))}
    assert halving == {(0, -1), (1, 1)}
    for seed in (119, 126):  # cancellation free for 12 steps
        itinerary = random_itinerary(2, 12, random.Random(seed))
        rows = equidist_diagnostic(gens, itinerary, PlaneCurve.parse("x + y + z"),
                                   max_len=12, degree_cap=1 << 12)
        assert [r.reduced_len for r in rows] == list(range(13))
        for r in rows:
            expect = math.sqrt(4.0 ** -r.prefix_len - 4.0 ** -12)
            assert abs(r.distance - expect) < 1e-12
            assert r.distance_step == 0.0
        rows = equidist_diagnostic(gens, itinerary, special,
                                   max_len=12, degree_cap=1 << 12)
        assert len(rows) == 13 and rows[0].strict_degree == 1
        for r in rows[1:]:
            halved = itinerary[r.prefix_len - 1] in halving
            assert r.strict_degree == 1 << (r.reduced_len - halved)
        assert all(r.bound_lhs <= r.bound_rhs for r in rows)
