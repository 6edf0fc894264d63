"""Hypothesis strategies and naive oracles for exactly built forms.

Arithmetic results skip HomPoly's validation; the tests compare each one
with what HomPoly(dict) builds from the naive dict sum or product.
"""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from birwalk.poly import HomPoly


exact_coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.sampled_from([2, 3])),
)


@st.composite
def exact_forms(draw, degree, max_terms=5):
    """A form of the given degree whose coefficients may be halves and thirds."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        i = draw(st.integers(min_value=0, max_value=degree))
        j = draw(st.integers(min_value=0, max_value=degree - i))
        terms[(i, j, degree - i - j)] = draw(exact_coeffs)
    return HomPoly(terms, degree)


def assert_invariant(p):
    """The shape every stored form has, however it was built."""
    assert isinstance(p.terms, tuple)
    keys = [(-e[0], -e[1]) for e, _ in p.terms]
    assert keys == sorted(set(keys))  # strictly grlex-descending
    for (i, j, k), c in p.terms:
        assert min(i, j, k) >= 0 and i + j + k == p.degree
        assert type(c) in (int, Fraction)  # no bool, no float
        assert c != 0
        assert type(c) is int or c.denominator != 1


def assert_same_form(got, want):
    """Same terms, same degree and the same coefficient types."""
    assert_invariant(got)
    assert got.degree == want.degree
    assert got.terms == want.terms
    assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]


def naive_sum(pairs, degree):
    acc = {}
    for c, p in pairs:
        for e, cc in p.terms:
            acc[e] = acc.get(e, 0) + c * cc
    return HomPoly(acc, degree)


def naive_product(a, b):
    acc = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc[e] = acc.get(e, 0) + ca * cb
    return HomPoly(acc, a.degree + b.degree)


def sympy_gcd(a, b):
    """The monic gcd of two forms by ``sympy.gcd``, an independent oracle.

    Each form's power of x is set aside and x set to 1: a form that x does
    not divide keeps its factors and its degree there, so sympy's gcd of
    the parts in y and z, made homogeneous again, times the least power
    of x, is the gcd.  sympy takes over 10 s on the degree-32 forms of the
    genericity hang tuple in three variables, and 0.03 s in two.
    """
    sp = pytest.importorskip("sympy")
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    low = [min(e[0] for e, _ in p.terms) for p in (a, b)]
    pa, pb = (sp.Poly.from_dict({e[1:]: sp.Rational(c.numerator, c.denominator)
                                 for e, c in p.terms},
                                *sp.symbols("y z"), domain="QQ")
              for p in (a, b))
    g = sp.gcd(pa, pb).as_dict()
    d = max(j + k for j, k in g)
    return HomPoly({(d - j - k + min(low), j, k): Fraction(int(c.p), int(c.q))
                    for (j, k), c in g.items()}).monic()


def cross(a, b):
    """Coefficient triple of the line through two points."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])
