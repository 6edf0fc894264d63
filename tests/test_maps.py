"""Birational map layer: the quadratic involution, generators, composition."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from birwalk.errors import (
    DegenerateComposition,
    IndeterminatePoint,
    MissingInverse,
    SamplingExhausted,
)
from birwalk.maps import (
    BirMap,
    IDENTITY,
    IDENTITY_COMPONENTS,
    adj3,
    canonical_components,
    compose,
    compose_letter,
    det3,
    generator_from_matrices,
    has_only_proper_base_points,
    matvec,
    sample_generators,
    sigma_map,
    substitute_map,
)
from birwalk.poly import (
    ONE,
    HomPoly,
    div_exact,
    jacobian_det,
    multiplicity_at,
    parse_poly,
    triple_gcd,
)
from birwalk.projective import normalize_exact

from form_oracles import assert_same_form, exact_forms, naive_product, naive_sum

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_det_and_adjugate():
    m = ((2, 1, 0), (0, 1, 3), (1, 0, 1))
    assert det3(m) == 2 * 1 - 1 * (-3) + 0  # 2*(1-0) - 1*(0-3)
    prod = tuple(matvec(m, col) for col in zip(*adj3(m)))
    # m * adj(m) = det(m) * identity, read off column by column
    d = det3(m)
    for j, col in enumerate(prod):
        assert col == tuple(d if r == j else 0 for r in range(3))


def test_sigma_basics():
    s = sigma_map()
    assert s.degree == 2
    assert s.jacobian == parse_poly("2*x*y*z")
    assert s.evaluate_exact((2, 1, 1)) == (1, 2, 2)
    with pytest.raises(IndeterminatePoint):
        s.evaluate_exact((1, 0, 0))


def test_sigma_composed_with_itself_is_identity():
    s = sigma_map()
    c = compose(s, s)
    assert c.components == IDENTITY_COMPONENTS
    assert c.inverse_components == IDENTITY_COMPONENTS


def test_compose_against_letter_path():
    rng = random.Random(7)
    g, h = sample_generators(2, 5, rng)
    via_letter = compose_letter(g.a_rows, g.b_rows, h.fwd.components)
    assert via_letter == compose(g.fwd, h.fwd).components


def test_letter_inverse_undoes_letter():
    rng = random.Random(11)
    (g,) = sample_generators(1, 5, rng)
    back = compose_letter(*g.letter_matrices(-1), g.fwd.components)
    assert back == IDENTITY_COMPONENTS


def test_identity_from_sigma_generator():
    gen = generator_from_matrices(0, I3, I3)
    assert gen.fwd.components == sigma_map().components
    assert gen.base_pts == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert gen.inv_base_pts == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_generator_rejects_singular_matrices():
    singular = ((1, 2, 3), (2, 4, 6), (0, 1, 1))
    with pytest.raises(DegenerateComposition):
        generator_from_matrices(0, singular, I3)
    with pytest.raises(DegenerateComposition):
        generator_from_matrices(0, I3, singular)


def test_generator_jacobian_vanishes_doubly_at_base_points():
    rng = random.Random(3)
    (g,) = sample_generators(1, 5, rng)
    jac = g.fwd.jacobian
    assert jac.degree == 3
    for p in g.base_pts:
        assert multiplicity_at(jac, p) == 2
    inv_jac = jacobian_det(*g.fwd.inverse_components)
    for q in g.inv_base_pts:
        assert multiplicity_at(inv_jac, q) == 2


def test_generator_round_trip_on_probe_orbit():
    rng = random.Random(5)
    (g,) = sample_generators(1, 5, rng)
    pt = (1, 7, 2)
    img = g.fwd.evaluate_exact(pt)
    assert g.fwd.inverse().evaluate_exact(img) == normalize_exact(pt)


def test_sampling_is_deterministic_and_generic():
    gens1 = sample_generators(3, 5, random.Random(42))
    gens2 = sample_generators(3, 5, random.Random(42))
    assert [g.a_rows for g in gens1] == [g.a_rows for g in gens2]
    assert [g.b_rows for g in gens1] == [g.b_rows for g in gens2]
    pts = [p for g in gens1 for p in g.base_pts + g.inv_base_pts]
    assert len(set(pts)) == 18


def test_sampling_exhaustion():
    with pytest.raises(SamplingExhausted):
        sample_generators(1, 5, random.Random(0), retry_budget=0)


def test_proper_base_point_classification():
    assert has_only_proper_base_points(sigma_map())
    fwd = tuple(parse_poly(s) for s in ("y*z", "y^2 + z^2 - x*z", "z^2"))
    inv = tuple(parse_poly(s) for s in ("x^2 + z^2 - y*z", "x*z", "z^2"))
    m = BirMap(fwd, inv)
    assert compose(m, m.inverse()).components == IDENTITY_COMPONENTS
    assert jacobian_det(*inv) == parse_poly("2*z^3")
    assert not has_only_proper_base_points(m)
    with pytest.raises(MissingInverse):
        has_only_proper_base_points(BirMap(fwd))


def test_random_generators_have_proper_base_points():
    for seed in (1, 2, 3):
        (g,) = sample_generators(1, 5, random.Random(seed))
        assert has_only_proper_base_points(g.fwd)
        assert has_only_proper_base_points(g.fwd.inverse())


def test_identity_map_constant():
    assert IDENTITY.degree == 1
    assert IDENTITY.evaluate_exact((4, -2, 6)) == (2, -1, 3)


# -- trusted construction matches the validating constructor -------------


def naive_canonical(comps):
    """The joint primitive rescale, spelled out term by term."""
    coeffs = [c for p in comps for _, c in p.terms]
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    scale = Fraction(den, gcd(*(int(c * den) for c in coeffs)))
    if next(p for p in comps if not p.is_zero).terms[0][1] < 0:
        scale = -scale
    return tuple(HomPoly({e: c * scale for e, c in p.terms}, p.degree)
                 for p in comps)


def naive_substitute(p, triple, degree):
    pairs = []
    for (i, j, k), c in p.terms:
        mono = ONE
        for q, n in zip(triple, (i, j, k)):
            for _ in range(n):
                mono = naive_product(mono, q)
        pairs.append((c, mono))
    return naive_sum(pairs, degree)


def triples(degrees):
    return degrees.flatmap(lambda d: st.tuples(
        exact_forms(d, 4), exact_forms(d, 4), exact_forms(d, 4)))


matrices = st.tuples(*[st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)] * 3)


@settings(deadline=None, max_examples=150)
@given(triples(st.integers(min_value=0, max_value=3)),
       st.integers(min_value=-6, max_value=6).filter(bool))
def test_canonical_components_matches_naive_rescale(comps, content):
    comps = tuple(p.scale(content) for p in comps)
    assume(not all(p.is_zero for p in comps))
    got = canonical_components(comps)
    for have, want in zip(got, naive_canonical(comps)):
        assert_same_form(have, want)


def test_canonical_components_returns_primitive_input_unchanged():
    comps = (parse_poly("x^2 - 3*y*z"), parse_poly("2*x*y"), HomPoly({}, 2))
    assert canonical_components(comps) is comps
    assert canonical_components(tuple(-p for p in comps)) == comps
    assert canonical_components(tuple(p.scale(4) for p in comps)) == comps


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=3).flatmap(lambda d: exact_forms(d, 4)),
       triples(st.integers(min_value=1, max_value=2)))
def test_substitute_map_matches_naive_expansion(p, triple):
    inner = next((q.degree for q in triple if not q.is_zero), 0)
    assert_same_form(substitute_map(p, triple),
                     naive_substitute(p, triple, p.degree * inner))


@settings(deadline=None, max_examples=100)
@given(matrices, matrices, triples(st.integers(min_value=1, max_value=2)))
def test_compose_letter_matches_naive_composition(a_rows, b_rows, comps):
    assume(not all(p.is_zero for p in comps))
    d = comps[0].degree
    t = [naive_sum(zip(row, comps), d) for row in b_rows]
    s = (naive_product(t[1], t[2]), naive_product(t[0], t[2]),
         naive_product(t[0], t[1]))
    raw = tuple(naive_sum(zip(row, s), 2 * d) for row in a_rows)
    assume(not all(p.is_zero for p in raw))
    g = triple_gcd(*raw)
    stripped = raw if g.degree == 0 else tuple(div_exact(p, g) for p in raw)
    got = compose_letter(a_rows, b_rows, comps)
    for have, want in zip(got, naive_canonical(stripped)):
        assert_same_form(have, want)
