"""Registry, class vectors, and letter actions on them."""

import random
from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import given, settings, strategies as st

from birwalk import picard, projective
from birwalk.genericity import all_letters, check_genericity
from birwalk.errors import (
    DegenerateConfiguration,
    IndeterminatePoint,
    TablePointHit,
)
from birwalk.maps import (
    det3,
    generator_from_matrices,
    matvec,
    sample_generators,
)
from birwalk.picard import (
    LetterOperator,
    PointRegistry,
    WeilClass,
    class_to_jsonable,
    coefficient_l2_diff,
)
from birwalk.walk import WalkState, crosscheck_words, random_itinerary, run_walk

from form_oracles import cross
from spies import integer_work

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def sigma_generator():
    return generator_from_matrices(0, I3, I3)


# -- registry -----------------------------------------------------------


def test_exact_registry_identifies_rescalings():
    reg = PointRegistry()
    a = reg.register((2, 4, 6))
    b = reg.register((-1, -2, -3))
    c = reg.register((1, 2, 4))
    assert a == b
    assert a != c
    # a plain tuple already in normal form is still normalised and looked up
    assert reg.register((1, 2, 3)) == a
    assert reg.coords_of(a) == (1, 2, 3)
    assert len(reg) == 2


def test_walk_path_takes_no_content_gcd(certified_tuple, monkeypatch):
    # seed 126 reaches reduced length 16.  Transport reads its verdicts off
    # one inner product and registration tells points apart by fingerprint
    # and cross product, so the only content gcds left are the normal forms
    # coords_of reads out; the strip gcd of transport takes the letter's D
    scopes, gcd_scopes, strips, calls = [], [], [], {}
    igcd = projective._igcd

    def counted_gcd(*args):
        gcd_scopes.append(scopes[-1][0] if scopes else None)
        return igcd(*args)

    def strip_gcd(*args):
        name, owner = scopes[-1]
        strips.append((name, args[0] == owner.content_bound))
        return igcd(*args)

    def scoped(name, fn):
        def wrapper(self, *args, **kwargs):
            # a hop given a modulus is a residue hop, which strips nothing
            modulus = args[1] if name == "transport" and len(args) > 1 \
                else kwargs.get("modulus")
            key = name if modulus is None else name + " mod q"
            calls[key] = calls.get(key, 0) + 1
            scopes.append((name, self))
            try:
                return fn(self, *args, **kwargs)
            finally:
                scopes.pop()
        return wrapper

    monkeypatch.setattr(projective, "_igcd", counted_gcd)
    monkeypatch.setattr(picard, "gcd", strip_gcd)
    for cls, name in ((LetterOperator, "transport"),
                      (PointRegistry, "register"),
                      (PointRegistry, "coords_of")):
        monkeypatch.setattr(cls, name, scoped(name, getattr(cls, name)))
    report = run_walk(certified_tuple, 16, seed=126,
                      keep_classes=True)
    assert report.final_reduced_len == 16
    assert min(calls[n] for n in ("transport mod q", "register")) > 0
    assert set(gcd_scopes) <= {"coords_of"}
    assert len(strips) == calls.get("transport", 0)
    # reading the final class out canonicalises its points, in coords_of
    walked = len(gcd_scopes)
    doc = class_to_jsonable(report.final_class, report.registry)
    report.top_coefficients()
    assert len(gcd_scopes) > walked
    assert set(gcd_scopes) == {"coords_of"}
    assert len(strips) == calls["transport"]
    assert set(strips) == {("transport", True)}
    assert all(list(projective.normalize_exact(c)) == c
               for c, _coeff in doc["point_entries"])


def _bits(coords):
    return sum(abs(c).bit_length() for c in coords)


def test_stripped_representatives_stay_near_canonical(certified_tuple):
    # the strip takes only the letter's content out of an image, so a
    # representative keeps any factor its point shares with a table point
    # mod a prime outside D.  Frozen: seed 126's largest coordinate is the
    # canonical 273,068 bits (383,735 unstripped), and over walk seeds
    # 1-32 the representatives carry 1.02% more bits than the normal
    # forms (1.22% over seeds 1-128, 28% unstripped); the bound is 2%
    reg = run_walk(certified_tuple, 16, seed=126).registry
    assert max(max(abs(c).bit_length() for c in reg.representative(p))
               for p in range(len(reg))) == 273068
    held = canonical = 0
    for seed in range(1, 33):
        reg = run_walk(certified_tuple, 16, seed=seed).registry
        for pid in range(len(reg)):
            held += _bits(reg.representative(pid))
            canonical += _bits(reg.coords_of(pid))
    assert canonical <= held <= 1.02 * canonical


P = projective.FINGERPRINT_P


def test_fingerprint_clash_keeps_points_apart():
    # (1, 0, 0) and (1, P, 0) have equal residues but are distinct points
    reg = PointRegistry()
    a = reg.register((1, 0, 0))
    b = reg.register((1, P, 0))
    assert projective.fingerprint((1, 0, 0)) == projective.fingerprint((1, P, 0))
    assert a != b
    assert reg.register((2, 2 * P, 0)) == b
    assert reg.register((-3, 0, 0)) == a
    assert reg.coords_of(a) == (1, 0, 0)
    assert reg.coords_of(b) == (1, P, 0)
    assert len(reg) == 2


def test_multiples_of_the_prime_are_canonicalised_first():
    # every residue of (P, 2P, 3P) is 0, so only its normal form has a key
    reg = PointRegistry()
    pid = reg.register((1, 2, 3))
    assert reg.register((P, 2 * P, 3 * P)) == pid
    assert reg.register((-1, -2, -3)) == pid
    assert reg.register((-P * P, -2 * P * P, -3 * P * P)) == pid
    assert reg.coords_of(pid) == (1, 2, 3)
    fresh = PointRegistry()
    first = fresh.register((P, 2 * P, 3 * P))
    assert fresh.register((1, 2, 3)) == first
    assert fresh.coords_of(first) == (1, 2, 3)


def test_zero_triple_is_refused():
    reg = PointRegistry()
    with pytest.raises(IndeterminatePoint):
        reg.register((0, 0, 0))
    with pytest.raises(IndeterminatePoint):
        reg.register([0, 0, 0])
    assert len(reg) == 0


# a coordinate shifted by a multiple of P keeps its residue, so triples
# of shifted coordinates often share fingerprints without being one point
_SHIFTED = st.builds(lambda a, b: a + P * b, st.integers(-1, 1),
                     st.one_of(st.just(0), st.integers(-2, 2),
                               st.integers(-(2 ** 270), 2 ** 270)))
_BIG = st.integers(-(2 ** 300), 2 ** 300)
_TRIPLE = st.one_of(st.tuples(_SHIFTED, _SHIFTED, _SHIFTED),
                    st.tuples(_BIG, _BIG, _BIG)).filter(lambda t: any(t))
_SCALAR = st.one_of(
    _BIG,
    st.builds(lambda m, e: m * P ** e,
              st.sampled_from([1, -1, 2, -7]), st.integers(1, 3)),
).filter(lambda k: k != 0)


@given(st.lists(st.tuples(_TRIPLE, _SCALAR), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_exact_registry_ids_match_normal_forms(scaled):
    reg = PointRegistry()
    ids, forms = [], []
    for pt, k in scaled:
        for q in (pt, tuple(k * c for c in pt)):
            ids.append(reg.register(q))
            forms.append(projective.normalize_exact(q))
    for i in range(len(ids)):
        assert reg.coords_of(ids[i]) == forms[i]
        for j in range(i):
            assert (ids[i] == ids[j]) == (forms[i] == forms[j])
    assert len(reg) == len(set(forms))


# -- class vectors ------------------------------------------------------


def test_basis_intersections():
    reg = PointRegistry()
    p = reg.register((1, 1, 1))
    q = reg.register((1, 2, 3))
    L = WeilClass.line_class()
    Ep = WeilClass.exceptional_class(p)
    Eq = WeilClass.exceptional_class(q)
    assert L.intersect(L) == 1
    assert Ep.intersect(Ep) == -1
    assert L.intersect(Ep) == 0
    assert Ep.intersect(Eq) == 0


def test_worked_class_identities():
    reg = PointRegistry()
    ids = [reg.register(p) for p in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    L = WeilClass.line_class()
    c = WeilClass(2, {i: 1 for i in ids})  # 2[line] - three exceptionals
    assert c.self_intersection() == 1
    assert c.intersect(L) == 2
    assert coefficient_l2_diff(c, 1.0, L, 1.0) == pytest.approx(2.0)


def test_coefficient_l2_diff_at_reduced_length_1100():
    # float(2 ** 1100) overflows; integer scales give the correctly rounded
    # quotient of every coefficient
    s1, s2 = 1 << 1100, 1 << 1099
    c1 = WeilClass(s1, {0: 3 * (1 << 1098) + 12345})
    c2 = WeilClass(s2, {0: (1 << 1097) - 777})
    expect = sqrt((float(Fraction(c1.line_coeff, s1))
                   - float(Fraction(c2.line_coeff, s2))) ** 2
                  + (float(Fraction(c1.point_part[0], s1))
                     - float(Fraction(c2.point_part[0], s2))) ** 2)
    assert coefficient_l2_diff(c1, s1, c2, s2) == expect
    assert coefficient_l2_diff(c1, s1, c1, s1) == 0.0


@pytest.mark.parametrize("ln, k", [(538, 538), (1100, 600)])
def test_coefficient_l2_diff_does_not_square_to_zero(ln, k):
    # classes at reduced length ln that share a point of weight 3/4 and
    # differ at two points of weights 3 and 4 times 2^-k, as a walk's
    # checkpoints differ at its newest points: each difference squares
    # below the least float, the scaled sum keeps them
    s = 1 << ln
    c1 = WeilClass(s, {0: 3 << (ln - 2), 1: 3 << (ln - k)})
    c2 = WeilClass(s, {0: 3 << (ln - 2), 2: 4 << (ln - k)})
    assert coefficient_l2_diff(c1, s, c2, s) == 5.0 * 2.0 ** -k
    assert coefficient_l2_diff(c2, s, c1, s) == 5.0 * 2.0 ** -k
    assert coefficient_l2_diff(c1, s, c1, s) == 0.0


@pytest.mark.parametrize("ln", [1030, 1100])
def test_coefficient_l2_diff_refuses_quotients_below_the_float_range(ln):
    # a coefficient 1 over 2^ln is subnormal at 1030 and 0.0 at 1100: the
    # norm is refused rather than read off lost bits, whichever class holds it
    s = 1 << ln
    c1 = WeilClass(s, {0: 3 << (ln - 2), 1: 1})
    c2 = WeilClass(s, {0: 3 << (ln - 2)})
    assert coefficient_l2_diff(c1, s, c2, s) is None
    assert coefficient_l2_diff(c2, s, c1, s) is None
    # at 1022 the same quotient is the least normal float and still counts
    s = 1 << 1022
    c1 = WeilClass(s, {0: 3 << 1020, 1: 1})
    c2 = WeilClass(s, {0: 3 << 1020})
    assert coefficient_l2_diff(c1, s, c2, s) == 2.0 ** -1022


def test_coefficient_l2_diff_integer_scales_match_float_scales():
    # below the float range's edge the exact scales change no bit
    rng = random.Random(5)

    def coeff(ln):
        return rng.choice((1, -1)) * rng.getrandbits(ln + 2)

    for _ in range(500):
        l1, l2 = rng.randrange(501), rng.randrange(501)
        ids = range(rng.randrange(1, 5))
        c1 = WeilClass(1 << l1, {p: coeff(l1) for p in ids})
        c2 = WeilClass(1 << l2, {p: coeff(l2) for p in ids})
        assert coefficient_l2_diff(c1, 1 << l1, c2, 1 << l2) == \
            coefficient_l2_diff(c1, float(2 ** l1), c2, float(2 ** l2))


def test_zero_coefficients_dropped():
    c = WeilClass(3, {0: 0, 1: 2})
    assert c.point_part == {1: 2}


# -- involution operator: frozen table behaviour ------------------------


def test_involution_pullback_of_line():
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg)
    c = op.pullback(WeilClass.line_class())
    assert c.line_coeff == 2
    assert sorted(c.point_part.values()) == [1, 1, 1]
    assert set(c.point_part) == set(op.base_ids)
    assert c.self_intersection() == 1


def test_involution_pullback_squares_to_identity():
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg)
    L = WeilClass.line_class()
    assert op.pullback(op.pullback(L)) == L
    e = WeilClass.exceptional_class(op.table_ids[1])
    back = op.pullback(op.pullback(e))
    assert back == e


def test_involution_table_row():
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg)
    row = op.pullback(WeilClass.exceptional_class(op.table_ids[0]))
    assert row.line_coeff == 1
    assert row.point_part == {op.base_ids[1]: 1, op.base_ids[2]: 1}


def test_involution_moves_generic_point():
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg)
    x = reg.register((2, 1, 1))
    moved = op.pullback(WeilClass.exceptional_class(x))
    assert moved.line_coeff == 0
    (pid,) = moved.point_part
    assert reg.coords_of(pid) == (1, 2, 2)
    assert moved.point_part[pid] == -1


def test_involution_rejects_point_on_contracted_line():
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg)
    x = reg.register((0, 1, 1))
    with pytest.raises(DegenerateConfiguration):
        op.pullback(WeilClass.exceptional_class(x))


def _kernel_verdict(op, x):
    try:
        return "image", op.transport(x)
    except TablePointHit as hit:
        return "table", hit.index
    except DegenerateConfiguration:
        return "line", None


def test_transport_and_table_lookup():
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg)
    assert op.transport((2, 1, 1)) == (1, 2, 2)
    assert _kernel_verdict(op, (0, 1, 0)) == ("table", 1)
    assert _kernel_verdict(op, (5, 1, 1))[0] == "image"
    assert _kernel_verdict(op, (1, 0, 1)) == ("line", None)


_BIG_SCALARS = (3 ** 200, -(2 ** 127 - 1), P, -7 * P, P * P)


@pytest.mark.parametrize("letter", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_transport_does_not_depend_on_scale(certified_tuple, letter):
    reg = PointRegistry()
    op = reg.operator(certified_tuple[letter[0]], letter[1])
    for p in ((3, 7, 11), (2, -5, 13), (17, 1, -6), (1, 0, 0)):
        image = reg.register(op.transport(p))
        for k in _BIG_SCALARS:
            assert reg.register(op.transport(tuple(k * c for c in p))) == image
    for t, q in enumerate(op.table_points):
        for k in _BIG_SCALARS:
            assert _kernel_verdict(op, tuple(k * c for c in q)) == ("table", t)
    # a point of a contracted line other than the table points spanning it
    for j, k in ((1, 2), (0, 2), (0, 1)):
        q = tuple(a + b for a, b in zip(op.table_points[j], op.table_points[k]))
        for scale in _BIG_SCALARS:
            assert _kernel_verdict(op, tuple(scale * c for c in q)) == ("line", None)


def _contracted_forms(op):
    """The lines through two of the letter's table points: the curves its
    inverse contracts."""
    q = op.table_points
    return [cross(q[j], q[k]) for j, k in ((1, 2), (0, 2), (0, 1))]


def _cross_product_verdict(op, x):
    """Reference transport: table points by cross product, contracted
    lines by their forms, and the unstripped image."""
    for t, q in enumerate(op.table_points):
        if projective.same_point(q, x):
            return "table", t
    if any(sum(f * c for f, c in zip(form, x)) == 0
           for form in _contracted_forms(op)):
        return "line", None
    outer, inner = op.eval_matrices
    v = matvec(inner, x)
    return "image", matvec(outer, (v[1] * v[2], v[0] * v[2], v[0] * v[1]))


def _kernel_test_points(op, rng):
    q = op.table_points
    points = list(q)
    for j, k in ((1, 2), (0, 2), (0, 1)):
        points.append(tuple(a + b for a, b in zip(q[j], q[k])))
        points.append(tuple(3 * a - 7 * b for a, b in zip(q[j], q[k])))
    points += [tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(20)]
    points += [tuple(rng.getrandbits(200) - rng.getrandbits(200)
                     for _ in range(3)) for _ in range(5)]
    points = [p for p in points if any(p)]
    return points + [tuple(k * c for c in p) for p in points for k in _BIG_SCALARS]


@pytest.mark.parametrize("letter", [None, (0, 1), (0, -1), (1, 1), (1, -1)])
def test_kernel_agrees_with_cross_product_transport(certified_tuple, letter):
    # None is the standard involution, whose table is the coordinate axes
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg) if letter is None \
        else reg.operator(certified_tuple[letter[0]], letter[1])
    outer, inner = op.eval_matrices
    assert op.content_bound == det3(inner) ** 2 * abs(det3(outer))
    seen = set()
    for x in _kernel_test_points(op, random.Random(3)):
        kind, got = _kernel_verdict(op, x)
        want_kind, want = _cross_product_verdict(op, x)
        assert kind == want_kind, x
        seen.add(kind)
        if kind == "table":
            assert got == want
        elif kind == "image":
            assert projective.same_point(got, want)
            # the strip divides by a factor of D and by nothing else
            g = next(w // c for w, c in zip(want, got) if c)
            assert g > 0 and op.content_bound % g == 0
            assert tuple(g * c for c in got) == want
    assert seen == {"table", "line", "image"}


def test_chained_table_hit_fans_out():
    # pushing the standard involution onto itself carries each of its base
    # points onto its own table: the fan-out gives 2(2L - E) - (3L - 2E) = L
    state = WalkState((sigma_generator(),))
    state.step((0, 1))
    with pytest.raises(DegenerateConfiguration,
                       match="line coefficient 1 vs reduced length 2"):
        state.step((0, 1))


def test_table_hit_mid_chain_fans_out_through_the_hops_below():
    # on the word sigma sigma g the top sigma's base points hit the table of
    # the sigma below it, and the fan-out is then pulled back through g: the
    # class gets line coefficient 2, the true degree of sigma o sigma o g
    (g,) = sample_generators(1, 5, random.Random(3))
    state = WalkState((sigma_generator(),
                       generator_from_matrices(1, g.a_rows, g.b_rows)))
    state.step((1, 1))
    state.step((0, 1))
    with pytest.raises(DegenerateConfiguration,
                       match="line coefficient 2 vs reduced length 3"):
        state.step((0, 1))


def _pulled_back_one_letter_at_a_time(state, pid):
    cls = WeilClass.exceptional_class(pid)
    for op in state.hops:
        cls = op.pullback(cls)
    return cls


def test_chained_classes_are_pullbacks_through_the_stack_at_a_table_hit():
    # the sigma sigma g stack above, before the step that raises: each
    # chain meets the lower sigma's table, whose fan-out L - E - E' (line
    # coefficient 1) g pulls back to line coefficient 2
    (g,) = sample_generators(1, 5, random.Random(3))
    state = WalkState((sigma_generator(),
                       generator_from_matrices(1, g.a_rows, g.b_rows)))
    state.step((1, 1))
    state.step((0, 1))
    op = state._op((0, 1))
    chained = state._chained_base_classes(op)
    assert [c.line_coeff for c in chained] == [2, 2, 2]
    assert chained == [_pulled_back_one_letter_at_a_time(state, pid)
                       for pid in op.base_ids]


def test_chained_classes_are_pullbacks_through_a_deep_stack(certified_tuple):
    state = WalkState(certified_tuple)
    for letter in random_itinerary(2, 8, random.Random(2)):
        state.step(letter)
    assert state.reduced_len >= 6
    assert len(state.hops) == state.reduced_len
    for letter in all_letters(2):
        op = state._op(letter)
        assert state._chained_base_classes(op) == \
            [_pulled_back_one_letter_at_a_time(state, pid)
             for pid in op.base_ids]


# -- sampled generator operators ----------------------------------------


def _random_class(rng, reg, pool):
    part = {}
    for pid in pool:
        if rng.random() < 0.6:
            part[pid] = rng.randint(-3, 3)
    return WeilClass(rng.randint(-4, 4), part)


def _generic_pool(rng, reg, ops, count=6):
    """Registered points staying clear of every operator's contracted lines."""
    pool = []
    while len(pool) < count:
        coords = tuple(rng.randint(1, 30) for _ in range(3))
        if any(sum(f * c for f, c in zip(form, coords)) == 0
               for op in ops for form in _contracted_forms(op)):
            continue
        pool.append(reg.register(coords))
    return pool


def test_sampled_operator_is_isometry_and_adjoint_to_inverse():
    rng = random.Random(17)
    (gen,) = sample_generators(1, 5, rng)
    reg = PointRegistry()
    fwd = reg.operator(gen, 1)
    bwd = reg.operator(gen, -1)
    pool = _generic_pool(rng, reg, (fwd, bwd))
    for _ in range(50):
        u = _random_class(rng, reg, pool)
        v = _random_class(rng, reg, pool)
        assert fwd.pullback(u).intersect(fwd.pullback(v)) == u.intersect(v)
        # pushforward by the letter is pullback by the opposite sign
        assert fwd.pullback(u).intersect(v) == u.intersect(bwd.pullback(v))


def test_pullback_then_pushforward_restores_class():
    rng = random.Random(23)
    (gen,) = sample_generators(1, 5, rng)
    reg = PointRegistry()
    fwd, bwd = reg.operator(gen, 1), reg.operator(gen, -1)
    pool = _generic_pool(rng, reg, (fwd, bwd), count=4)
    c = WeilClass(3, {pool[0]: 1, pool[1]: -2, pool[2]: 1})
    assert bwd.pullback(fwd.pullback(c)) == c
    assert fwd.pullback(bwd.pullback(c)) == c


def test_registry_reuses_operator_instances():
    (gen,) = sample_generators(1, 5, random.Random(2))
    reg = PointRegistry()
    assert reg.operator(gen, 1) is reg.operator(gen, 1)
    assert reg.operator(gen, 1) is not reg.operator(gen, -1)
    assert reg.operator(gen, 1)._registry() is reg


@given(st.integers(-5, 5), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_intersection_symmetric(line_coeff, coeffs):
    reg = PointRegistry()
    ids = [reg.register(p) for p in [(1, 1, 1), (1, 2, 3), (2, 1, 5)]]
    u = WeilClass(line_coeff, dict(zip(ids, coeffs)))
    v = WeilClass(2, {ids[0]: 1, ids[2]: -2})
    assert u.intersect(v) == v.intersect(u)


# -- memoised point images --------------------------------------------------


def _pullback_without_memo(op, cls):
    """The letter action with every carried point transported afresh."""
    entries = dict(cls.point_part)
    t = [entries.pop(tid, 0) for tid in op.table_ids]
    out = {}
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        if cls.line_coeff - t[j] - t[k] != 0:
            out[op.base_ids[i]] = cls.line_coeff - t[j] - t[k]
    reg = op._registry()
    for pid, coeff in entries.items():
        new_pid = reg.register(op.transport(reg.representative(pid)))
        if new_pid in out:
            raise DegenerateConfiguration(
                "transported point collides with another carried point")
        out[new_pid] = coeff
    return WeilClass(2 * cls.line_coeff - sum(t), out)


def _class_results(gens):
    walks = []
    for seed in range(1, 33):
        report = run_walk(gens, 16, seed=seed, checkpoint_every=4,
                          keep_classes=True, track_pushforward=True)
        push = report.final_push_class
        walks.append((report.to_jsonable(), report.rows,
                      None if push is None
                      else class_to_jsonable(push, report.registry)))
    return walks, check_genericity(gens, 5), crosscheck_words(gens, 4)


@pytest.mark.parametrize("seed", [1, 2])
def test_memoised_images_change_no_class_or_report(seed, monkeypatch):
    # seed 1 is the certified pair; seed 2 fails at depth 5 on the class side
    gens = sample_generators(2, 5, random.Random(seed))
    with_memo = _class_results(gens)
    monkeypatch.setattr(LetterOperator, "pullback", _pullback_without_memo)
    assert _class_results(gens) == with_memo


def test_certificate_transports_each_point_once_per_letter(certified_tuple,
                                                           monkeypatch):
    seen = []
    transport = LetterOperator.transport

    def recording(op, coords, modulus=None):
        # a point's stored key or representative names it: equal
        # coordinates register to one id
        seen.append((id(op), coords, modulus))
        return transport(op, coords, modulus)

    monkeypatch.setattr(LetterOperator, "transport", recording)
    assert check_genericity(certified_tuple, 6).ok
    assert seen and len(set(seen)) == len(seen)
    # every pullback carries its point from the key mod the filter prime,
    # so no hop needs the integers (4,356 did when pullback took them)
    assert {modulus for _op, _coords, modulus in seen} \
        == {projective.FINGERPRINT_P}


def test_degenerate_transport_raises_again_on_repeat():
    reg = PointRegistry()
    op = LetterOperator(sigma_generator(), 1, reg)
    x = reg.register((0, 1, 1))  # on a contracted line of sigma
    y = reg.register((2, 1, 1))
    for _ in range(2):
        with pytest.raises(DegenerateConfiguration):
            op.pullback(WeilClass(0, {y: -1, x: -1}))
    # the transport that succeeded beside it is kept, the failed one is not
    assert op.images == {y: reg.register((1, 2, 2))}


def test_cancelling_carry_returns_the_source(certified_tuple, monkeypatch):
    # pulling back by a letter and then by its inverse takes every carried
    # point back to its recipe's source: a hop that met no zero is undone
    # by the inverse hop, so the way back transports nothing, and each
    # pullback writes only its own operator's images
    reg = PointRegistry()
    state = WalkState(certified_tuple, registry=reg)
    for letter in ((0, 1), (1, 1), (0, -1), (1, 1)):
        state.step(letter)
    cls = state.pull_class
    op = reg.operator(certified_tuple[1], -1)
    back = reg.operator(certified_tuple[1], 1)

    def other_images(own):
        return {key: dict(o.images) for key, o in reg._operators.items()
                if o is not own}

    untouched = other_images(op)
    image = op.pullback(cls)
    assert other_images(op) == untouched
    moved = {pid: op.images[pid] for pid in cls.point_part
             if pid not in op.table_ids}
    assert moved and all(reg._recipes[new] == (pid, (op,))
                         for pid, new in moved.items())
    transported = []
    transport = LetterOperator.transport

    def counted(self, coords, modulus=None):
        transported.append(coords)
        return transport(self, coords, modulus)

    monkeypatch.setattr(LetterOperator, "transport", counted)
    untouched = other_images(back)
    assert back.pullback(image) == cls
    assert other_images(back) == untouched
    assert all(reg.carry(new, (back,)) == pid for pid, new in moved.items())
    assert transported == []


# -- histories ---------------------------------------------------------------


def test_cancelling_histories_land_on_the_chain_end(certified_tuple):
    # a walk's chain carries a base point of the newest letter down the
    # stack in one carry; every route whose hops reduce freely to that
    # chain's is the same point, decided on residues alone
    reg = PointRegistry()
    state = WalkState(certified_tuple, registry=reg)
    for letter in ((0, 1), (1, 1), (0, 1)):
        state.step(letter)
    top = state.stack[-1]
    hops = tuple(e.pull_op for e in reversed(state.stack[:-1]))
    (end, _), = top.chained[0].point_part.items()
    base = top.pull_op.base_ids[0]
    assert reg._recipes[end] == (base, hops)
    a, b = hops
    x, x_inv = (reg.operator(certified_tuple[1], s) for s in (1, -1))
    with integer_work() as work:
        assert reg.carry(base, (a, b, x, x_inv)) == end
        assert reg.carry(reg.carry(base, (a, x)), (x_inv, b)) == end
        assert reg.carry(reg.carry(reg.carry(base, (a, b)), (x,)),
                         (x_inv,)) == end
        point = base  # a word pulled back letter by letter
        for op in (x, x_inv, a, x_inv, x, b):
            point = reg.carry(point, (op,))
        assert point == end
    assert work == ([], [])


def test_crosscheck_takes_no_integer_work(certified_tuple):
    # the forward classes reach the chain ends of the pullback track by
    # other routes with the same histories (1,656 integer hops and 900
    # builds when identity asked for equal recipes)
    with integer_work() as work:
        counts, failures = crosscheck_words(certified_tuple, 4)
    assert failures == [] and counts["degree"] > 0
    assert work == ([], [])


def test_reading_a_deep_chain_is_undecided_not_a_recursion(certified_tuple,
                                                          monkeypatch):
    # a point 1,200 recipe links deep is built by one loop along its
    # history, which stops at the build budget; a budget of 4,096 bits
    # stops it within a few letters, where 2^22 takes seconds
    monkeypatch.setattr(picard, "BUILD_BITS", 1 << 12)
    reg = PointRegistry()
    ops = [reg.operator(certified_tuple[g], 1) for g in (0, 1)]
    cls = WeilClass.exceptional_class(reg.register((1, 2, 3)))
    for i in range(1200):
        cls = ops[i % 2].pullback(cls)
    (deep, _), = cls.point_part.items()
    with pytest.raises(DegenerateConfiguration) as refused:
        reg.coords_of(deep)
    assert str(refused.value).startswith(
        "undecided: reading a point's coordinates needs integers past the "
        "build budget")


def test_residue_names_are_the_fingerprints_of_the_integers(certified_tuple):
    # a deep report names a point by the key the registry stored; wherever
    # the integers exist too, that key is their fingerprint
    report = run_walk(certified_tuple, 16, seed=126)
    reg = report.registry
    assert all(reg.residues(pid) == projective.fingerprint(reg.coords_of(pid))
               for pid in range(len(reg)))


@pytest.mark.parametrize("event", ["a zero mod p", "a fingerprint hit",
                                   "reading a point's coordinates"])
def test_builds_past_the_budget_are_undecided(certified_tuple, monkeypatch,
                                              event):
    # seed 126 reaches reduced length 16 with 273,068-bit coordinates; a
    # budget of 1,000 bits refuses each event that would build them
    report = run_walk(certified_tuple, 16, seed=126)
    reg = report.registry
    deep = max((pid for pid in range(len(reg)) if reg._points[pid] is None),
               key=lambda pid: len(reg._recipes[pid][1]))
    monkeypatch.setattr(picard, "BUILD_BITS", 1000)
    with pytest.raises(DegenerateConfiguration) as refused:
        if event == "a zero mod p":
            # at this prime some hop of the walk meets a zero, which is
            # decided on the integers
            monkeypatch.setattr(projective, "FINGERPRINT_P", 101)
            reg = PointRegistry()
            for seed in range(1, 33):
                aborted = run_walk(certified_tuple, 16, seed=seed,
                                   registry=reg).aborted
                if aborted:
                    raise DegenerateConfiguration(aborted)
        elif event == "a fingerprint hit":
            # a small point with the deep point's residues
            reg.register(reg.residues(deep))
        else:
            reg.coords_of(deep)
    assert str(refused.value) == (
        f"undecided: {event} needs integers past the build budget of 1000 "
        f"bits, and residues mod p = {projective.FINGERPRINT_P} do not "
        f"decide it")


def test_build_budget_leaves_a_margin_over_the_deepest_frozen_build(
        certified_tuple):
    # the largest coordinate any frozen walk of the tests and the benchmark
    # builds is seed 126's at reduced length 16; the budget is 8 times
    # that or more, and one letter deeper roughly doubles it
    reg = run_walk(certified_tuple, 16, seed=126).registry
    deepest = max(max(abs(c) for c in reg.representative(pid)).bit_length()
                  for pid in range(len(reg)))
    assert deepest == 273068
    assert picard.BUILD_BITS >= 8 * deepest
