"""Normal forms and residue keys for plane points."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from birwalk import projective
from birwalk.errors import IndeterminatePoint
from birwalk.projective import (
    FINGERPRINT_P,
    fingerprint,
    normalize_exact,
    same_point,
)


def test_exact_normal_form_examples():
    assert normalize_exact((2, 4, 6)) == (1, 2, 3)
    assert normalize_exact((-2, 4, 6)) == (1, -2, -3)
    assert normalize_exact((0, -5, 10)) == (0, 1, -2)


def test_exact_normal_form_takes_integers_only():
    with pytest.raises(TypeError):
        normalize_exact((Fraction(1, 2), Fraction(1, 3), 0))
    with pytest.raises(TypeError):
        normalize_exact((1.0, 2, 3))


def test_exact_normal_form_rejects_origin():
    with pytest.raises(IndeterminatePoint):
        normalize_exact((0, 0, 0))


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
       .filter(lambda t: any(t)),
       st.integers(min_value=1, max_value=9))
def test_exact_normal_form_scale_invariant(pt, k):
    assert normalize_exact(pt) == normalize_exact(tuple(k * c for c in pt))
    assert normalize_exact(pt) == normalize_exact(tuple(-k * c for c in pt))


def test_exact_normal_form_returns_its_own_output_unchanged():
    p = normalize_exact((2, 4, 6))
    assert normalize_exact(p) is p
    # a canonical point is a tuple to every reader: equality, hash, repr, JSON
    assert isinstance(p, tuple)
    assert p == (1, 2, 3) and hash(p) == hash((1, 2, 3))
    assert repr(p) == "(1, 2, 3)"
    assert json.dumps(p) == "[1, 2, 3]"


def test_exact_normal_form_still_normalises_every_other_input():
    assert normalize_exact((2, 4, 6)) == (1, 2, 3)
    assert normalize_exact([-2, 4, 6]) == (1, -2, -3)
    assert normalize_exact(json.loads("[0, -6, 9]")) == (0, 2, -3)
    plain = (1, 2, 3)
    out = normalize_exact(plain)
    assert out == plain and out is not plain
    assert normalize_exact(out) is out


def _reference_normal_form(pt):
    g = 0
    for c in pt:
        g = gcd(g, abs(c))
    out = [c // g for c in pt]
    if next(c for c in out if c != 0) < 0:
        out = [-c for c in out]
    return tuple(out)


_BIG = st.one_of(st.just(0), st.integers(-(2 ** 300), 2 ** 300),
                 st.integers(-50, 50))


@given(st.tuples(_BIG, _BIG, _BIG).filter(lambda t: any(t)),
       st.integers(min_value=1, max_value=2 ** 16))
def test_exact_normal_form_matches_reference(pt, k):
    scaled = tuple(k * c for c in pt)
    out = normalize_exact(scaled)
    assert out == _reference_normal_form(scaled)
    assert out == normalize_exact(tuple(-c for c in pt))
    assert all(type(c) is int for c in out)
    assert normalize_exact(out) is out


@given(st.tuples(_BIG, _BIG, _BIG).filter(lambda t: any(t)),
       st.integers(-(2 ** 300), 2 ** 300).filter(lambda k: k % FINGERPRINT_P),
       st.integers(0, 2))
def test_fingerprint_is_scale_free_and_same_point_is_exact(pt, k, i):
    scaled = tuple(k * c for c in pt)
    assert same_point(pt, scaled) and same_point(scaled, pt)
    if fingerprint(pt) is not None:
        assert fingerprint(scaled) == fingerprint(pt)
    # shifting one coordinate by the prime keeps every residue
    shifted = tuple(c + FINGERPRINT_P * (j == i) for j, c in enumerate(pt))
    assert same_point(pt, shifted) == \
        (normalize_exact(pt) == normalize_exact(shifted))


# any prime works; the second is the Mersenne prime 2^61 - 1
@pytest.mark.parametrize("p", [FINGERPRINT_P, (1 << 61) - 1])
def test_fingerprint_is_the_residue_triple_led_by_one(p, monkeypatch):
    monkeypatch.setattr(projective, "FINGERPRINT_P", p)
    assert fingerprint((2, 4, 6)) == (1, 2, 3)
    assert fingerprint((0, -3, 6)) == (0, 1, p - 2)
    assert fingerprint((0, 0, -5)) == (0, 0, 1)
    assert fingerprint((p, 2 * p, 3 * p)) is None
    # inverting the lead residue: 3 * (1, y, z) has residues (3, 1, 2)
    x, y, z = fingerprint((3, 1, 2))
    assert (x, 3 * y % p, 3 * z % p) == (1, 1, 2)


@given(st.tuples(_BIG, _BIG, _BIG).filter(lambda t: any(t)),
       st.integers(-(2 ** 300), 2 ** 300).filter(lambda k: k % FINGERPRINT_P))
def test_fingerprint_mod_the_walk_prime_is_scale_free(pt, k):
    key = fingerprint(pt)
    assert fingerprint(tuple(k * c for c in pt)) == key
    assert key is None or all(0 <= c < FINGERPRINT_P for c in key)
