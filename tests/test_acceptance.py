"""Top-level acceptance checks, one test per promised behavior.

Each test is self-contained and repeatable bit for bit: seeds, step
counts, and thresholds are frozen, the integer identities carry no
tolerance at all, and the statistical checks state the margins that
held when their thresholds were frozen.  Numbering only fixes the
report order; every test names the behavior it certifies.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from birwalk.curves import (
    PlaneCurve,
    equidist_diagnostic,
    guedj_bound_check,
    lelong_crosscheck,
    pullback_curve,
)
from birwalk.errors import DegenerateConfiguration
from birwalk.genericity import all_letters, check_genericity, reduced_word_count
from birwalk.maps import (
    BirMap,
    IDENTITY_COMPONENTS,
    compose,
    compose_letter,
    generator_from_matrices,
    has_only_proper_base_points,
    sigma_map,
)
from birwalk.picard import PointRegistry, WeilClass
from birwalk.poly import HomPoly, is_squarefree, jacobian_det, parse_poly
from birwalk.walk import (
    WalkState,
    boundary_compare,
    fit_geometric_rate,
    random_itinerary,
    reduced_middle_length,
    run_walk,
    transversality_ratio_series,
)

from spies import integer_work

IDENTITY_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
HALF_LOG2 = 0.5 * math.log(2.0)


def _inv(letter):
    return (letter[0], -letter[1])


def _reduced_words(generator_count, max_len):
    """All nonempty reduced words up to max_len, leftmost letter outermost."""
    letters = all_letters(generator_count)
    words = []

    def extend(prefix):
        if len(prefix) == max_len:
            return
        for letter in letters:
            if prefix and letter == _inv(prefix[-1]):
                continue
            word = prefix + (letter,)
            words.append(word)
            extend(word)

    extend(())
    return words


def test_criterion_01_involution_acts_exactly_and_fast():
    started = time.monotonic()
    sigma = sigma_map()
    # self-composition collapses to the identity triple after stripping
    assert compose(sigma, sigma).components == IDENTITY_COMPONENTS
    gen = generator_from_matrices(0, IDENTITY_ROWS, IDENTITY_ROWS)
    assert compose_letter(*gen.letter_matrices(1),
                          sigma.components) == IDENTITY_COMPONENTS
    registry = PointRegistry()
    op = registry.operator(gen, 1)
    e0, e1, e2 = op.base_ids
    # line class: degree doubles and all three coordinate points appear
    assert op.pullback(WeilClass.line_class()) == WeilClass(2, {e0: 1, e1: 1, e2: 1})
    # one exceptional maps to the line through the other two base points
    assert op.pullback(WeilClass.exceptional_class(op.table_ids[0])) == \
        WeilClass(1, {e1: 1, e2: 1})
    jac = jacobian_det(*sigma.components)
    assert jac == parse_poly("2*x*y*z")
    assert is_squarefree(jac)
    assert time.monotonic() - started < 1.0


def test_criterion_02_frozen_pair_certified_free_to_depth_six(certified_tuple):
    report = check_genericity(certified_tuple, 6)
    assert report.distinct_points_ok
    assert report.failures == ()
    assert report.ok
    assert report.words_checked == reduced_word_count(2, 6) == 1456


def test_criterion_03_operators_preserve_and_adjoin_the_pairing(certified_tuple):
    rng = random.Random(7)
    registry = PointRegistry()
    pids = []
    while len(pids) < 12:
        coords = (rng.randrange(-9, 10), rng.randrange(-9, 10),
                  rng.randrange(-9, 10))
        if any(coords):
            pids.append(registry.register(coords))

    def rand_class():
        part = {}
        for pid in rng.sample(pids, rng.randrange(1, 5)):
            v = rng.randrange(-2, 3)
            if v:
                part[pid] = v
        return WeilClass(rng.randrange(-3, 4), part)

    checked = 0
    for gi in range(len(certified_tuple)):
        for k in range(1000):
            sign = 1 if k % 2 == 0 else -1
            op = registry.operator(certified_tuple[gi], sign)
            adj = registry.operator(certified_tuple[gi], -sign)
            c1, c2, d = rand_class(), rand_class(), rand_class()
            assert op.pullback(c1).intersect(op.pullback(c2)) == c1.intersect(c2)
            assert op.pullback(c1).intersect(d) == c1.intersect(adj.pullback(d))
            checked += 1
    assert checked == 2000


def test_criterion_04_every_short_word_class_satisfies_the_two_identities(
        certified_tuple):
    state = WalkState(certified_tuple)
    letters = all_letters(len(certified_tuple))
    prefix = []
    seen = 0

    def visit(depth):
        nonlocal seen
        for letter in letters:
            if prefix and letter == _inv(prefix[-1]):
                continue
            state.step(letter)
            prefix.append(letter)
            seen += 1
            cls = state.pull_class
            d = cls.line_coeff
            mults = list(cls.point_part.values())
            assert d * d - sum(m * m for m in mults) == 1
            assert sum(mults) == 3 * (d - 1)
            if depth < 6:
                visit(depth + 1)
            state.step(_inv(letter))
            prefix.pop()

    visit(1)
    assert seen == reduced_word_count(2, 6) == 1456


def test_criterion_05_checkpoint_pairings_are_exact_powers_of_two(
        certified_tuple):
    pairs = 0
    for seed in range(1, 6):
        report = run_walk(certified_tuple, 16, seed=seed,
                          checkpoint_every=1, keep_classes=True)
        assert report.aborted is None
        kept = report.checkpoint_classes
        assert len(kept) == 17
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                n1, _l1, c1, _e1 = kept[i]
                n2, _l2, c2, _e2 = kept[j]
                middle = reduced_middle_length(report.itinerary, n1, n2)
                assert c1.intersect(c2) == 2 ** middle
                pairs += 1
    assert pairs == 5 * (17 * 16 // 2)


def test_criterion_06_drift_matches_the_free_group_statistic(certified_tuple):
    started = time.monotonic()
    drifts = []
    for seed in range(1, 11):
        report = run_walk(certified_tuple, 2000, seed=seed,
                          track_classes=False)
        assert report.aborted is None and report.steps_done == 2000
        # integer-only replica of the itinerary and its cancellation stack:
        # the walk's reduced length is a pure free-group statistic, so the
        # replica must land on the same value letter for letter
        rng = random.Random(seed)
        stack = []
        for _ in range(2000):
            idx = rng.randrange(4)
            if stack and stack[-1] == idx ^ 1:
                stack.pop()
            else:
                stack.append(idx)
        assert report.final_reduced_len == len(stack)
        drifts.append(report.rows[-1].drift_estimate)
    mean = sum(drifts) / len(drifts)
    # ten frozen seeds land at 0.34491, within half a percent of the
    # predicted (1/2) log 2 = 0.34657; the bar is five percent
    assert abs(mean - HALF_LOG2) / HALF_LOG2 < 0.05
    assert time.monotonic() - started < 60.0


def test_criterion_07_approximants_contract_and_norms_decay_exactly(
        certified_tuple):
    # trend reading of the per-checkpoint coefficient increments: fitted
    # geometric rate at least halves over every five checkpoint steps;
    # with these frozen seeds nine of ten walks clear the bar (seed 6
    # sits at 0.523 after a late cancellation burst) and eight suffice
    passing = 0
    for seed in range(1, 11):
        report = run_walk(certified_tuple, 32, seed=seed, checkpoint_every=1)
        assert report.aborted is None
        series = [(r.n, r.cauchy_increment) for r in report.rows
                  if r.cauchy_increment is not None]
        _scale, rho = fit_geometric_rate(series)
        if rho ** 5 <= 0.5:
            passing += 1
    assert passing >= 8

    # the normalized class norm is exactly 4^-(reduced length)
    for seed in (1, 2, 3):
        report = run_walk(certified_tuple, 16, seed=seed,
                          checkpoint_every=1, keep_classes=True)
        assert report.aborted is None
        by_n = {row.n: row for row in report.rows}
        for n, ln, cls, _push in report.checkpoint_classes:
            assert cls.self_intersection() == 1
            assert cls.line_coeff == 2 ** ln
            assert cls.self_intersection() / float(cls.line_coeff) ** 2 \
                == 4.0 ** (-ln)
            assert by_n[n].self_intersection == 4.0 ** (-ln)


def test_criterion_08_independent_walks_reach_distinct_boundaries(
        certified_tuple):
    floors = []
    walk_a = None
    for k in range(20):
        registry = PointRegistry()
        walk_a = run_walk(certified_tuple, 26, seed=100 + 2 * k,
                          checkpoint_every=1, keep_classes=True,
                          track_pushforward=True, registry=registry)
        walk_b = run_walk(certified_tuple, 26, seed=101 + 2 * k,
                          registry=registry)
        assert walk_a.aborted is None and walk_b.aborted is None
        result = boundary_compare(walk_a, walk_b)
        # a pairing an order of magnitude above both coincidence controls
        # certifies the two normalized limits are distinct
        assert result["pairing"] > 10.0 * max(result["control_a"],
                                              result["control_b"])
        ratios = [v for _n, v in transversality_ratio_series(
            walk_b.final_class, walk_b.final_reduced_len, walk_a)]
        assert all(v > 0.0 for v in ratios)
        floors.append(min(ratios))
    # observed floor across all twenty frozen pairs is 2.4e-4
    assert min(floors) >= 1e-5

    # on the diagonal the same ratio collapses: pairing the walk's own
    # pushforward limit against its track starts at one and ends exactly
    # at the self-intersection value 4^-(reduced length)
    diag = transversality_ratio_series(
        walk_a.final_push_class, walk_a.final_reduced_len, walk_a)
    assert diag[0][1] == 1.0
    final_len = walk_a.final_reduced_len
    assert final_len >= 4
    assert diag[-1][1] == 4.0 ** (-final_len)


@pytest.fixture(scope="module")
def deep_walks(certified_tuple):
    """Walk seeds 1-3 at 600 steps over one registry: reduced lengths 306,
    280 and 320, about 0.5 s each, with no integer hop and no build."""
    registry = PointRegistry()
    with integer_work() as (hops, builds):
        walks = [run_walk(certified_tuple, 600, seed=seed,
                          checkpoint_every=1, registry=registry)
                 for seed in (1, 2, 3)]
    assert (hops, builds) == ([], [])
    return walks


def test_depth_walks_keep_the_degree_invariant(deep_walks):
    # the walk checks the degree invariant at every step and aborts when
    # it breaks; far past reduced length 16 the classes still obey it
    for report in deep_walks:
        assert report.aborted is None and report.steps_done == 600
        assert report.final_reduced_len >= 280
        stack = []
        for row, letter in zip(report.rows[1:], report.itinerary):
            if stack and stack[-1] == _inv(letter):
                stack.pop()
            else:
                stack.append(letter)
            assert row.reduced_len == len(stack)
        cls = report.final_class
        assert cls.line_coeff == 2 ** report.final_reduced_len
        assert cls.self_intersection() == 1
        assert min(cls.point_part.values()) > 0
        assert report.rows[-1].self_intersection == \
            4.0 ** -report.final_reduced_len


def test_depth_approximants_contract_at_the_predicted_rate(deep_walks):
    # increments shrink like 2^-(reduced length), which grows half a letter
    # per step: rho^5 near 2^-2.5 = 0.177.  Frozen seeds 1-3 fit 0.166,
    # 0.200 and 0.160; each clears criterion 07's bar of 0.5 and lies
    # within a factor sqrt(2) of the prediction
    for report in deep_walks:
        series = [(r.n, r.cauchy_increment) for r in report.rows
                  if r.cauchy_increment is not None]
        assert len(series) == 600 and all(v > 0.0 for _n, v in series)
        _scale, rho = fit_geometric_rate(series)
        assert 2 ** -3 <= rho ** 5 <= 2 ** -2 <= 0.5


def test_depth_walks_reach_distinct_boundaries(deep_walks):
    # criterion 08's bar is ten times the larger control; every pair of
    # frozen seeds pairs at exactly 1.0, 3.8e168 times its larger control
    # 4^-280 or more
    for i, walk_a in enumerate(deep_walks):
        for walk_b in deep_walks[i + 1:]:
            result = boundary_compare(walk_a, walk_b)
            assert result["pairing"] > 10.0 * max(result["control_a"],
                                                  result["control_b"])
            assert result["pairing"] == 1.0


def _random_curve(rng, degree):
    expos = [(i, j, degree - i - j) for i in range(degree + 1)
             for j in range(degree + 1 - i)]
    while True:
        terms = {e: rng.randrange(-9, 10) for e in expos}
        try:
            return PlaneCurve(HomPoly(terms))
        except ValueError:
            continue


@pytest.fixture(scope="module")
def curve_reports(certified_tuple):
    """Strict transforms of five random curves under every word to length 4."""
    rng = random.Random(11)
    curves = [_random_curve(rng, 1) for _ in range(3)] + \
             [_random_curve(rng, 2) for _ in range(2)]
    words = _reduced_words(len(certified_tuple), 4)
    assert len(words) == reduced_word_count(2, 4) == 160
    out = []
    for ci, curve in enumerate(curves):
        for word in words:
            report = pullback_curve(certified_tuple, word, curve)
            rows = lelong_crosscheck(certified_tuple, word, curve,
                                     report=report)
            out.append((word, ci, report, rows))
    return out


def test_criterion_09_polynomial_and_class_multiplicities_agree(curve_reports):
    assert len(curve_reports) == 160 * 5
    total_rows = 0
    for word, ci, _report, rows in curve_reports:
        assert len(rows) >= 3
        for row in rows:
            assert row.nu_poly == row.nu_class, (word, ci, row)
        total_rows += len(rows)
    assert total_rows >= 160 * 5 * 3


def test_criterion_10_squared_multiplicities_never_exceed_squared_degree(
        curve_reports):
    assert len(curve_reports) == 160 * 5
    for word, ci, report, _rows in curve_reports:
        lhs, rhs, ok = guedj_bound_check(report)
        assert ok, (word, ci, lhs, rhs)


def test_criterion_11_curve_class_series_sinks_toward_the_boundary(
        certified_tuple):
    curve = PlaneCurve.parse("x + y + z")
    # frozen seeds whose six-step itineraries are cancellation free, so
    # the distance series follows the closed form sqrt(4^-l - 4^-6)
    for seed in (2, 4, 7, 11, 13):
        itinerary = random_itinerary(len(certified_tuple), 6,
                                     random.Random(seed))
        rows = equidist_diagnostic(certified_tuple, itinerary, curve,
                                   max_len=6)
        assert len(rows) == 7
        distances = [r.distance for r in rows]
        for earlier, later in zip(distances, distances[1:]):
            assert later < earlier
        for r in rows:
            expected = math.sqrt(4.0 ** -r.prefix_len - 4.0 ** -6)
            assert abs(r.distance - expected) < 1e-12


def test_criterion_12_degenerate_inputs_are_rejected():
    # a pair of identical involutions: mixed two-letter words collapse
    sig0 = generator_from_matrices(0, IDENTITY_ROWS, IDENTITY_ROWS)
    sig1 = generator_from_matrices(1, IDENTITY_ROWS, IDENTITY_ROWS)
    report = check_genericity((sig0, sig1), 2)
    assert not report.ok
    assert report.failures

    # transporting a point that sits on a contracted line must refuse
    registry = PointRegistry()
    op = registry.operator(sig0, 1)
    with pytest.raises(DegenerateConfiguration):
        op.transport((0, 1, 1))

    # squarefree jacobian test sorts proper from infinitely near points:
    # the involution passes, a quadratic shear map fails
    assert has_only_proper_base_points(sigma_map())
    henon = BirMap(
        (parse_poly("y*z"), parse_poly("y^2 + z^2 - x*z"), parse_poly("z^2")),
        (parse_poly("x^2 + z^2 - y*z"), parse_poly("x*z"), parse_poly("z^2")),
    )
    assert compose(henon, henon.inverse()).components == IDENTITY_COMPONENTS
    assert not is_squarefree(jacobian_det(*henon.inverse_components))
    assert not has_only_proper_base_points(henon)
