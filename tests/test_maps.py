"""Birational map layer: the quadratic involution, generators, composition."""

import random

import pytest

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
    compose,
    compose_letter,
    det3,
    generator_from_matrices,
    has_only_proper_base_points,
    matvec,
    sample_generators,
    sigma_map,
)
from birwalk.poly import jacobian_det, multiplicity_at, parse_poly
from birwalk.projective import normalize_exact

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
