"""Prime-field kernel: restrictions against substitution, and soundness."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from birwalk import modp
from birwalk.poly import HomPoly, X, Y, Z, certainly_coprime, poly_gcd, triple_gcd

P = modp.P

# Each line parametrised independently of the module: the images of x, y, z
# as linear forms (coefficient of s, coefficient of t), so a restriction
# lists the coefficients of t^k s^(d-k) for k = 0..d.
_T, _S, _Z = (0, 1), (1, 0), (0, 0)
LINE_PARAMS = {
    "z0": (_T, _S, _Z),
    "y0": (_T, _Z, _S),
    "x0": (_Z, _T, _S),
    "z=x": (_T, _S, _T),
    "z=y": (_T, _S, _S),
    "y=x": (_T, _T, _S),
}
# x = 3s + 5t, y = 7s + t, z = 2s + 11t
FILTER_PARAMS = ((3, 5), (7, 1), (2, 11))


@st.composite
def rational_forms(draw, max_degree=4, max_terms=5, denominators=(1, 2, 3, 7)):
    d = draw(st.integers(min_value=0, max_value=max_degree))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        i = draw(st.integers(min_value=0, max_value=d))
        j = draw(st.integers(min_value=0, max_value=d - i))
        c = Fraction(draw(st.integers(min_value=-9, max_value=9)),
                     draw(st.sampled_from(denominators)))
        terms[(i, j, d - i - j)] = terms.get((i, j, d - i - j), 0) + c
    p = HomPoly(terms, d)
    return p if not p.is_zero else HomPoly({(d, 0, 0): 1})


def _umul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _substituted(p, forms):
    """Exact restriction over Q by substitution, then reduced mod P."""
    acc = [Fraction(0)] * (p.degree + 1)
    for exps, c in p.terms:
        term = [c]
        for form, e in zip(forms, exps):
            for _ in range(e):
                term = _umul(term, list(form))
        acc = [a + b for a, b in zip(acc, term)]
    return [a.numerator * pow(a.denominator, P - 2, P) % P for a in acc]


@given(rational_forms())
@settings(max_examples=60, deadline=None)
def test_restrict_matches_substitution_on_every_line(p):
    assert tuple(modp.CERT_LINES) == tuple(LINE_PARAMS)
    for name, forms in LINE_PARAMS.items():
        assert modp.restrict(p, modp.CERT_LINES[name]) == _substituted(p, forms)
    assert modp.restrict(p, modp.FILTER_LINE) == _substituted(p, FILTER_PARAMS)


@given(rational_forms(max_degree=3, max_terms=3),
       rational_forms(max_degree=3, max_terms=3),
       rational_forms(max_degree=3, max_terms=3),
       rational_forms(max_degree=2, max_terms=3,
                      denominators=(1, 2, 5, P)))
@settings(max_examples=80, deadline=None)
@example(a=X + Y, b=X - Y, c=Z, g=Y + Z)  # y + z restricts to s on z0
@example(a=X, b=Y, c=Z, g=X + Y + Z)
def test_planted_factor_is_never_certified_away(a, b, c, g):
    if g.degree == 0:
        return
    assert not certainly_coprime(a * g, b * g)
    assert triple_gcd(a * g, b * g, c * g).degree >= g.degree


@given(rational_forms(max_degree=3, max_terms=4),
       rational_forms(max_degree=3, max_terms=4))
@settings(max_examples=60, deadline=None)
def test_divides_never_refutes_a_true_divisor(a, g):
    f_image = modp.restrict(a * g, modp.FILTER_LINE)
    assert modp.divides(f_image, modp.restrict(g, modp.FILTER_LINE))


def test_divides_refutes_a_non_divisor():
    x_plus_y = modp.restrict(X + Y, modp.FILTER_LINE)
    assert not modp.divides(modp.restrict(X * Z, modp.FILTER_LINE), x_plus_y)
    assert modp.divides(modp.restrict((X + Y) * Z, modp.FILTER_LINE), x_plus_y)


def test_denominator_divisible_by_p_abstains():
    # g = P*x + y divides both forms; read with the coefficient 1/P dropped
    # they would be x*z and x^2 + y^2, which are coprime
    g = X.scale(P) + Y
    f1 = g * Z.scale(Fraction(1, P))
    f2 = g * (X.scale(Fraction(1, P)) + Y)
    assert Fraction(1, P) in dict(f1.terms).values()
    assert modp.residue(Fraction(1, P)) is None
    assert modp.residue(Fraction(3, 2)) == 3 * pow(2, P - 2, P) % P
    for line in (*modp.CERT_LINES.values(), modp.FILTER_LINE):
        assert modp.restrict(f1, line) is None
    assert not certainly_coprime(f1, f2)
    assert poly_gcd(f1, f2) == g.monic()
    assert triple_gcd(f1, f2, g * Z) == g.monic()


# -- lanes: lockstep Euclid against the scalar one -------------------------


def _mod_mul(u, v):
    return [c % P for c in _umul(u, v)] if u and v else []


@st.composite
def lane_pairs(draw):
    """(u, v) coefficient lists, low to high: unequal degrees, zero
    polynomials, planted common factors, and top entries that are
    multiples of P, so the leading coefficient vanishes mod P."""
    coeffs = st.one_of(st.integers(min_value=0, max_value=P - 1),
                       st.sampled_from([0, 1, P - 1]))
    polys = st.lists(coeffs, max_size=6)
    u, v = draw(polys), draw(polys)
    if draw(st.booleans()):
        h = draw(st.lists(coeffs, min_size=1, max_size=3))
        u, v = _mod_mul(u, h), _mod_mul(v, h)
    u = u + [P * draw(st.integers(min_value=0, max_value=2))
             for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    return u, v


@given(st.lists(st.tuples(lane_pairs(), lane_pairs()), min_size=1,
                max_size=5))
@settings(max_examples=100, deadline=None)
@example([(([], []), ([3], [])), (([], [0, 5]), ([1, 2, 1], [1, 1])),
          (([], []), ([], []))])
@example([(([6, 5, 1], [2, 1, P]), ([1, 1, 2 * P], [1, 0, 0, 1]))])
def test_coprime_lanes_matches_scalar_coprime(lanes):
    triples = [[u, v, w] for (u, v), (w, _) in lanes]
    width = max(len(p) for t in triples for p in t) or 1
    arr = np.array([[p + [0] * (width - len(p)) for p in t] for t in triples],
                   dtype=np.int64) % P
    got = modp.coprime_lanes(arr)
    assert got == [modp.coprime(t) for t in arr.tolist()]
