"""Exact polynomial core: frozen examples plus algebraic property tests."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from birwalk import modp, poly
from birwalk.errors import HeuristicGcdFailed, NonExactDivision
from birwalk.poly import (
    ONE,
    HomPoly,
    X,
    Y,
    Z,
    certainly_coprime,
    div_exact,
    format_poly,
    is_squarefree,
    jacobian_det,
    linear_combination,
    monomial,
    multiplicity_at,
    parse_poly,
    poly_gcd,
    primitive,
    triple_gcd,
)

from form_oracles import (
    assert_same_form,
    exact_coeffs,
    exact_forms,
    naive_product,
    naive_sum,
    sympy_gcd,
)


# -- strategies ---------------------------------------------------------


@st.composite
def hom_polys(draw, max_degree=4, max_terms=5, nonzero=False):
    d = draw(st.integers(min_value=0, max_value=max_degree))
    n = draw(st.integers(min_value=1 if nonzero else 0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=d))
        j = draw(st.integers(min_value=0, max_value=d - i))
        c = draw(st.integers(min_value=-5, max_value=5))
        terms[(i, j, d - i - j)] = terms.get((i, j, d - i - j), 0) + c
    p = HomPoly(terms, d)
    if nonzero and p.is_zero:
        p = p + monomial(d, 0, 0)
    return p


exact_points = st.tuples(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
).filter(lambda t: any(c != 0 for c in t))


# -- construction and representation ------------------------------------


def test_mixed_degree_rejected():
    with pytest.raises(ValueError):
        HomPoly({(1, 0, 0): 1, (2, 0, 0): 1})


def test_zero_terms_dropped_and_merged():
    p = HomPoly([((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), 3)])
    assert p.as_dict() == {(0, 1, 0): 3}


@pytest.mark.parametrize("coeff", [Fraction(4, 2), Fraction(1, 2), 2.0, True])
def test_coefficients_other_than_int_are_refused(coeff):
    with pytest.raises(TypeError):
        HomPoly({(1, 0, 0): coeff})
    with pytest.raises(TypeError):
        X.scale(coeff)


def test_grlex_leading_term():
    p = parse_poly("y^2 + x*z + x*y")
    assert p.leading() == ((1, 1, 0), 1)


def test_format_examples():
    assert format_poly(HomPoly({})) == "0"
    assert format_poly(X * X - 2 * X * Y + Z * Z) == "x^2 - 2*x*y + z^2"


@given(hom_polys())
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p)) == p


def test_parse_reads_fractions_up_to_scale():
    # the written form times the lcm of its denominators: the same curve
    assert parse_poly("1/2*x + y") == X + Y.scale(2)
    assert parse_poly("-2/3*x - 4/3*y") == parse_poly("-2*x - 4*y")
    assert parse_poly("3/2*x*y - 1/3*z^2") == parse_poly("9*x*y - 2*z^2")
    # denominators count as written: 2*1/4 is over 4
    assert parse_poly("2*1/4*x + y") == parse_poly("2*x + 4*y")


def test_parse_rejects_garbage():
    for bad in ["", "x + w", "x^", "2**x", "1/0*x"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


# -- arithmetic ---------------------------------------------------------


def test_sigma_style_products():
    yz, xz, xy = Y * Z, X * Z, X * Y
    assert yz * xz == parse_poly("x*y*z^2")
    assert yz * xz * xy == parse_poly("x^2*y^2*z^2")


def test_power_and_scale():
    p = (X + Y) ** 2
    assert p == parse_poly("x^2 + 2*x*y + y^2")
    assert p.scale(2) == parse_poly("2*x^2 + 4*x*y + 2*y^2")


def test_add_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        (X + Y) + (X * X)


@given(hom_polys(), hom_polys())
def test_mul_matches_schoolbook(a, b):
    ref = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            ref[e] = ref.get(e, 0) + ca * cb
    assert (a * b).as_dict() == {e: c for e, c in ref.items() if c != 0}


@given(hom_polys(nonzero=True), exact_points)
def test_eval_homogeneity(p, pt):
    lam = 3
    scaled = tuple(lam * c for c in pt)
    assert p.eval(scaled) == lam ** p.degree * p.eval(pt)


@given(hom_polys(nonzero=True))
def test_euler_identity(p):
    d = p.degree
    lhs = X * p.derivative(0) + Y * p.derivative(1) + Z * p.derivative(2)
    assert lhs == p.scale(d)


# -- trusted construction matches the validating constructor -------------
#
# Arithmetic results skip HomPoly's validation; each must still come out
# exactly as HomPoly(dict) builds the naive dict sum or product.

@st.composite
def combinations(draw):
    d = draw(st.integers(min_value=0, max_value=3))
    pairs = draw(st.lists(st.tuples(exact_coeffs, exact_forms(d)), max_size=4))
    if draw(st.booleans()):
        pairs += [(-c, p) for c, p in pairs]  # cancels to the zero form
    return pairs, d


@settings(deadline=None, max_examples=200)
@given(combinations())
def test_linear_combination_matches_validating_constructor(case):
    pairs, d = case
    assert_same_form(linear_combination(pairs, d), naive_sum(pairs, d))


def test_total_cancellation_keeps_the_declared_degree():
    p = parse_poly("1/2*x^2 - y*z")
    zero = linear_combination([(2, p), (-1, p.scale(2))], 2)
    assert zero.is_zero and zero.degree == 2
    assert (p - p).degree == 2 and (p * (p - p)).degree == 4


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda d: st.tuples(exact_forms(d), exact_forms(d), exact_forms(d))))
def test_arithmetic_matches_validating_constructor(forms):
    a, b, c = forms
    d = a.degree
    assert_same_form(a + b, naive_sum([(1, a), (1, b)], d))
    assert_same_form(a - b, naive_sum([(1, a), (-1, b)], d))
    assert_same_form(-a, naive_sum([(-1, a)], d))
    assert_same_form(a * b, naive_product(a, b))
    assert_same_form((a + c) * (b - c), naive_product(a + c, b - c))


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=3).flatmap(exact_forms), exact_coeffs)
def test_scale_matches_validating_constructor(p, c):
    assert_same_form(p.scale(c), naive_sum([(c, p)], p.degree))
    assert_same_form(p * c, naive_sum([(c, p)], p.degree))


# -- division -----------------------------------------------------------


def test_div_exact_example():
    num = (X + Y) * (X - Y)
    assert div_exact(num, X + Y) == X - Y


def test_div_exact_rejects_inexact():
    with pytest.raises(NonExactDivision):
        div_exact(X * X + Y * Y, X + Y)
    # the quotient over Q, x/2, is not over Z
    with pytest.raises(NonExactDivision):
        div_exact(X.scale(2), X.scale(4))


@given(hom_polys(nonzero=True), hom_polys(nonzero=True))
def test_div_undoes_mul(a, b):
    assert div_exact(a * b, b) == a


# -- gcd ----------------------------------------------------------------


def test_gcd_frozen_examples():
    assert poly_gcd(parse_poly("x^2*y"), parse_poly("x*y^2")) == X * Y
    assert poly_gcd(X + Y, X - Y) == ONE
    s = X + Y + Z
    assert poly_gcd(s * s, s * (X - Z)) == s
    assert poly_gcd(HomPoly({}), s) == s
    # sigma composed with itself: componentwise products share x*y*z
    comps = (parse_poly("x^2*y*z"), parse_poly("x*y^2*z"), parse_poly("x*y*z^2"))
    assert triple_gcd(*comps) == X * Y * Z


@given(hom_polys(nonzero=True, max_degree=3, max_terms=3),
       hom_polys(nonzero=True, max_degree=3, max_terms=3),
       hom_polys(nonzero=True, max_degree=2, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_gcd_multiplicative_on_planted_factor(a, b, g):
    res = poly_gcd(a * g, b * g)
    assert res == primitive(g) * poly_gcd(a, b)
    div_exact(a * g, res)
    div_exact(b * g, res)


@given(hom_polys(nonzero=True, max_degree=4, max_terms=4),
       hom_polys(nonzero=True, max_degree=4, max_terms=4))
@settings(max_examples=60, deadline=None)
def test_fast_certificate_is_sound(a, b):
    if certainly_coprime(a, b):
        slow = sympy_gcd(a, b)
        assert slow.degree == 0


def test_gcd_of_zero_pair_is_zero():
    assert poly_gcd(HomPoly({}), HomPoly({})).is_zero


def test_gcd_keeps_inner_integer_content():
    # with z = 1 and y at xi, y + z is the integer xi + 1 one level down:
    # its content is the whole gcd there
    assert poly_gcd(Y + Z, Y + Z) == Y + Z
    assert poly_gcd(X * (Y + Z), (X - Y) * (Y + Z)) == Y + Z
    assert poly_gcd(Y.scale(2) + Z.scale(4), (Y + Z.scale(2)) * X) == Y + Z.scale(2)


def test_gcd_refuses_a_candidate_that_divides_one_input():
    # at y = xi = 31 (z = 1) both forms are x + 1, which divides only a;
    # the next point proves the gcd constant
    a, b = X + Z, X * Y - (X * Z).scale(30) + Z * Z
    assert poly._gcd_forms(a, b).degree == 0
    assert poly._gcd_forms(b, a).degree == 0


@st.composite
def exact_nonzero_forms(draw, max_degree=3, max_terms=4):
    p = draw(exact_forms(draw(st.integers(min_value=0, max_value=max_degree)),
                         max_terms))
    return p if not p.is_zero else monomial(p.degree, 0, 0, 2)


def _monomials(max_exponent=2):
    e = st.integers(min_value=0, max_value=max_exponent)
    return st.builds(monomial, e, e, e)


@given(exact_nonzero_forms(), exact_nonzero_forms(),
       exact_nonzero_forms(max_degree=2), _monomials(), _monomials())
@settings(max_examples=60, deadline=None)
@example(a=ONE, b=ONE, g=Y + Z, ma=ONE, mb=ONE)
@example(a=X, b=X - Y, g=Y + Z, ma=Z, mb=Z * Z)
@example(a=Z, b=X, g=(X + Y).scale(3), ma=X * Y, mb=Y * Y * Z)
def test_gcd_matches_sympy_on_planted_factor(a, b, g, ma, mb):
    # g is a non-monomial factor; ma and mb put monomial content in each variable
    assume(len(g.terms) >= 2)
    fa, fb = a * g * ma, b * g * mb
    assert poly_gcd(fa, fb) == sympy_gcd(fa, fb)


@st.composite
def certificate_blind_pairs(draw):
    """(g*u + P*v, g*w): g divides both mod the certificate prime P only."""
    dg, du, dw = (draw(st.integers(min_value=lo, max_value=2)) for lo in (1, 0, 0))
    g = draw(exact_forms(dg).filter(lambda p: len(p.terms) >= 2))
    u, w = (draw(exact_forms(d).filter(lambda p: not p.is_zero)) for d in (du, dw))
    v = draw(exact_forms(dg + du))
    return g * u + v.scale(modp.P), g * w


@given(certificate_blind_pairs())
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy_where_the_certificate_abstains(pair):
    a, b = pair
    assume(not certainly_coprime(a, b))
    assert poly_gcd(a, b) == sympy_gcd(a, b)


def test_heuristic_give_up_raises_and_returns_nothing(monkeypatch):
    monkeypatch.setattr(poly, "HEU_GCD_TRIES", 0)
    s = X + Y + Z
    result = None
    with pytest.raises(HeuristicGcdFailed):
        result = poly_gcd(s * (X - Y), s * (X + Z))
    assert result is None
    with pytest.raises(HeuristicGcdFailed):
        triple_gcd(s * X, s * Y, s * Z)
    with pytest.raises(HeuristicGcdFailed):
        is_squarefree(s * s)


# -- jacobian and squarefreeness ----------------------------------------


def test_jacobian_of_quadratic_involution():
    jac = jacobian_det(Y * Z, X * Z, X * Y)
    assert jac == parse_poly("2*x*y*z")


def test_jacobian_of_linear_map_is_constant():
    jac = jacobian_det(X + Y, Y + Z, Z)
    assert jac == ONE


def test_squarefree_frozen_examples():
    assert is_squarefree(parse_poly("2*x*y*z"))
    assert is_squarefree(X * X + Y * Y)
    assert not is_squarefree(parse_poly("x^2*y"))
    assert not is_squarefree(parse_poly("2*z^3"))
    assert is_squarefree(X + Y + Z)


@given(hom_polys(nonzero=True, max_degree=2, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_square_never_squarefree(p):
    if p.degree >= 1:
        assert not is_squarefree(p * p)


# -- multiplicity -------------------------------------------------------


def _multiplicity_by_translation(p, pt):
    """Independent oracle: expand p(pt + local offsets) and take the minimal
    total degree in the offset variables of the non-chart coordinates."""
    chart = next(v for v in (0, 1, 2) if pt[v] != 0)
    others = [v for v in (0, 1, 2) if v != chart]
    acc = {}
    for e, c in p.terms:
        base = c * pt[chart] ** e[chart]
        u, w = others
        for a in range(e[u] + 1):
            for b in range(e[w] + 1):
                coeff = (base * comb(e[u], a) * pt[u] ** (e[u] - a)
                         * comb(e[w], b) * pt[w] ** (e[w] - b))
                acc[(a, b)] = acc.get((a, b), 0) + coeff
    live = [a + b for (a, b), c in acc.items() if c != 0]
    return min(live)


def test_multiplicity_frozen_examples():
    assert multiplicity_at(Y * Z, (1, 0, 0)) == 2
    assert multiplicity_at(Y * Z, (1, 1, 0)) == 1
    cusp = parse_poly("y^2*z - x^3")
    assert multiplicity_at(cusp, (0, 0, 1)) == 2
    assert multiplicity_at(cusp, (1, 1, 1)) == 1
    assert multiplicity_at(cusp, (1, 2, 1)) == 0
    conic = X * X + Y * Y - Z * Z
    assert multiplicity_at(conic, (3, 4, 5)) == 1


@given(hom_polys(nonzero=True, max_degree=3), exact_points)
def test_multiplicity_matches_translation_oracle(p, pt):
    assert multiplicity_at(p, pt) == _multiplicity_by_translation(p, pt)


@given(hom_polys(nonzero=True, max_degree=2, max_terms=3),
       hom_polys(nonzero=True, max_degree=2, max_terms=3),
       exact_points)
@settings(max_examples=60, deadline=None)
def test_multiplicity_additive_under_product(a, b, pt):
    assert multiplicity_at(a * b, pt) == multiplicity_at(a, pt) + multiplicity_at(b, pt)


def test_multiplicity_rejects_zero_inputs():
    with pytest.raises(ValueError):
        multiplicity_at(HomPoly({}), (1, 0, 0))
    with pytest.raises(ValueError):
        multiplicity_at(X, (0, 0, 0))


# -- multiplicity at big points, beyond degree 3 -------------------------

# one point per chart: the first nonzero coordinate decides the chart
CHART_SHAPES = ("cab", "0bc", "00c")


def _big_point(rng, shape):
    """Coordinates of at least 200 bits, zero where the shape says 0."""
    def big():
        return rng.choice((1, -1)) * rng.randrange(2 ** 200, 2 ** 220)
    return tuple(0 if ch == "0" else big() for ch in shape)


def _line_through(rng, pt):
    """A linear form vanishing at pt: its coefficients are pt x v."""
    while True:
        if rng.random() < 0.3:
            # the coordinate lines through pt, which meet the chart's
            # shift directions head on
            v = [0, 0, 0]
            v[rng.randrange(3)] = 1
        else:
            v = [rng.randrange(-9, 10) for _ in range(3)]
        coef = (pt[1] * v[2] - pt[2] * v[1],
                pt[2] * v[0] - pt[0] * v[2],
                pt[0] * v[1] - pt[1] * v[0])
        if any(coef):
            line = HomPoly({(1, 0, 0): coef[0], (0, 1, 0): coef[1],
                            (0, 0, 1): coef[2]})
            if rng.random() < 0.3:
                line = line.scale(rng.randrange(2, 50))
            return line


def _unit_at(rng, pt, max_degree):
    """A random form of degree at most max_degree, nonzero at pt."""
    while True:
        d = rng.randrange(max_degree + 1)
        terms = {(i, j, d - i - j): rng.randrange(-9, 10)
                 for i in range(d + 1) for j in range(d + 1 - i)}
        g = HomPoly(terms, d)
        if rng.random() < 0.3:
            g = g.scale(rng.randrange(1, 30) * rng.randrange(2, 30))
        if not g.is_zero and g.eval(pt) != 0:
            return g


def _planted(rng, pt, k, unit_degree):
    p = _unit_at(rng, pt, unit_degree)
    for _ in range(k):
        p = p * _line_through(rng, pt)
    return p


@pytest.mark.parametrize("shape", CHART_SHAPES)
def test_multiplicity_of_planted_lines_at_big_points(shape):
    rng = random.Random(f"planted-{shape}")
    for k in (0, 1, 2, 3, 5, 8, 13, 20):
        for _ in range(3):
            pt = _big_point(rng, shape)
            p = _planted(rng, pt, k, 4)
            assert multiplicity_at(p, pt) == k, (shape, k, p.degree)
            # a projective point: rescaling the coordinates changes nothing
            assert multiplicity_at(p, tuple(-3 * c for c in pt)) == k


@pytest.mark.parametrize("shape", CHART_SHAPES)
def test_multiplicity_matches_translation_oracle_to_degree_eight(shape):
    rng = random.Random(f"oracle-{shape}")
    for _ in range(40):
        pt = _big_point(rng, shape)
        k = rng.randrange(0, 7)
        p = _planted(rng, pt, k, min(4, 8 - k))
        assert p.degree <= 8
        assert multiplicity_at(p, pt) == _multiplicity_by_translation(p, pt) == k
        # a perturbed form mostly stops vanishing at pt; both routes agree
        q = p + monomial(p.degree, 0, 0, rng.randrange(1, 10))
        assert multiplicity_at(q, pt) == _multiplicity_by_translation(q, pt)
