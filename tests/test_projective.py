"""Normal forms and distances for plane points."""

from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import given, strategies as st

from birwalk.errors import IndeterminatePoint
from birwalk.projective import (
    chordal_distance,
    normalize_exact,
    normalize_float,
)


def test_exact_normal_form_examples():
    assert normalize_exact((2, 4, 6)) == (1, 2, 3)
    assert normalize_exact((-2, 4, 6)) == (1, -2, -3)
    assert normalize_exact((0, -5, 10)) == (0, 1, -2)
    assert normalize_exact((Fraction(1, 2), Fraction(1, 3), 0)) == (3, 2, 0)


def test_exact_normal_form_rejects_origin():
    with pytest.raises(IndeterminatePoint):
        normalize_exact((0, 0, 0))


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
       .filter(lambda t: any(t)),
       st.integers(min_value=1, max_value=9))
def test_exact_normal_form_scale_invariant(pt, k):
    assert normalize_exact(pt) == normalize_exact(tuple(k * c for c in pt))
    assert normalize_exact(pt) == normalize_exact(tuple(-k * c for c in pt))


def test_float_normal_form_unit_and_sign():
    u = normalize_float((-3.0, 0.0, 4.0))
    assert u == pytest.approx((0.6, 0.0, -0.8))
    assert sqrt(sum(c * c for c in u)) == pytest.approx(1.0)


def test_float_normal_form_skips_tiny_lead():
    u = normalize_float((1e-12, -2.0, 0.0))
    assert u[1] > 0


def test_float_normal_form_rejects_bad_input():
    with pytest.raises(IndeterminatePoint):
        normalize_float((0.0, 0.0, 0.0))
    with pytest.raises(IndeterminatePoint):
        normalize_float((float("nan"), 1.0, 0.0))


def test_chordal_distance_identifies_antipodes():
    u = normalize_float((1.0, 2.0, 2.0))
    v = tuple(-c for c in u)
    assert chordal_distance(u, v) == 0.0
    assert chordal_distance(u, u) == 0.0


@given(st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
       .filter(lambda t: sum(c * c for c in t) > 1e-6))
def test_float_normal_form_idempotent(pt):
    u = normalize_float(pt)
    assert normalize_float(u) == pytest.approx(u)
    assert sqrt(sum(c * c for c in u)) == pytest.approx(1.0)
