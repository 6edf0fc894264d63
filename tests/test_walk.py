"""Walk engine: invariants, rollback exactness, frozen small-case oracles."""

import csv
import hashlib
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birwalk import genericity, picard, projective
from birwalk.config import dumps_json
from birwalk.errors import DegenerateConfiguration
from birwalk.genericity import _exact_word_components, check_genericity
from birwalk.maps import (
    IDENTITY_COMPONENTS,
    compose_letter,
    generator_from_matrices,
    sample_generators,
)
from birwalk.picard import (
    LetterOperator,
    PointRegistry,
    WeilClass,
    class_to_jsonable,
)
from birwalk.walk import (
    CSV_COLUMNS,
    LOG2,
    StepRow,
    WalkReport,
    WalkState,
    boundary_compare,
    crosscheck_words,
    fit_geometric_rate,
    transversality_ratio_series,
    normalized_pairing,
    normalized_self_pairing,
    random_itinerary,
    reduced_middle_length,
    run_walk,
    write_rows_csv,
)

from spies import integer_work


@pytest.fixture(scope="module")
def gens():
    return sample_generators(2, 5, random.Random(1))


def _stack_lengths(itinerary):
    """Independent integer-only simulation of the reduced length."""
    stack = []
    out = []
    for idx, sign in itinerary:
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
        out.append(len(stack))
    return out


# -- reduction bookkeeping ----------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_middle_length_matches_fixpoint_reduction(letters):
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == (word[i + 1][0], -word[i + 1][1]):
                del word[i:i + 2]
                changed = True
                break
    assert reduced_middle_length(tuple(letters), 0, len(letters)) == len(word)


def test_middle_length_orientation_free():
    it = ((0, 1), (1, 1), (1, -1), (0, 1))
    assert reduced_middle_length(it, 1, 3) == 0
    assert reduced_middle_length(it, 3, 1) == 0
    assert reduced_middle_length(it, 0, 4) == 2


# -- single steps and rollback ------------------------------------------


def test_first_step_is_degree_two_with_three_base_points(gens):
    state = WalkState(gens)
    state.step((0, 1))
    c = state.pull_class
    assert c.line_coeff == 2
    op = state.registry.operator(gens[0], 1)
    assert dict(c.point_part) == {pid: 1 for pid in op.base_ids}


def test_cancellation_restores_exact_class(gens):
    state = WalkState(gens, track_pushforward=True)
    state.step((0, 1))
    c1, e1 = state.pull_class, state.push_class
    state.step((1, 1))
    state.step((1, -1))
    assert state.reduced_len == 1
    assert state.pull_class == c1
    assert state.push_class == e1
    state.step((0, -1))
    assert state.reduced_len == 0
    assert state.pull_class == WeilClass.line_class()
    assert state.push_class == WeilClass.line_class()


def test_cancelling_step_reuses_its_push(gens, monkeypatch):
    # a pop adds back the chained classes its push kept: on the pullback
    # track only pushing steps transport points, and each pop restores
    # the class from before its push.  Every hop of a chain is one call
    # of the transport kernel, table points included
    transports = []
    transport = LetterOperator.transport

    def counted(self, coords, modulus=None):
        transports.append(coords)
        return transport(self, coords, modulus)

    monkeypatch.setattr(LetterOperator, "transport", counted)
    state = WalkState(gens)
    before_push = []
    pushed = popped = 0
    for letter in random_itinerary(2, 30, random.Random(5)):
        depth, seen, prior = state.reduced_len, len(transports), state.pull_class
        state.step(letter)
        if state.reduced_len < depth:
            popped += 1
            assert len(transports) == seen
            assert state.pull_class == before_push.pop()
        else:
            pushed += len(transports) - seen
            before_push.append(prior)
    assert popped >= 5
    assert pushed > 0
    # pushing the letter just popped again reuses the chains it kept
    top = state.stack[-1].letter
    after_push = state.pull_class
    state.step(genericity.inverse_letter(top))
    seen = len(transports)
    state.step(top)
    assert len(transports) == seen
    assert state.pull_class == after_push
    # push a, push b, pop b, pop a, push a: the second push of b reuses
    # the entry filed under a, which came back with a
    a, b = (0, 1), (1, 1)
    state = WalkState(gens)
    state.step(a)
    seen = len(transports)
    state.step(b)
    assert len(transports) > seen
    after_push = state.pull_class
    seen = len(transports)
    for letter in (genericity.inverse_letter(b),
                   genericity.inverse_letter(a), a):
        state.step(letter)
    assert len(transports) == seen  # pops, and a comes back filed
    state.step(b)
    assert len(transports) == seen
    assert state.pull_class == after_push


_BACKTRACKING = (
    ((0, 1), (1, 1), (1, -1), (1, 1), (0, 1), (0, -1), (0, 1), (1, -1)),
    # every pop lands on the empty stack, whose root slot keeps the chains
    ((0, 1), (0, -1), (1, 1), (1, -1), (0, 1), (0, -1), (1, 1), (0, 1)),
    ((1, -1), (0, 1), (0, 1), (0, -1), (0, -1), (0, 1), (0, 1), (1, 1),
     (1, -1), (1, 1), (0, -1), (0, 1), (0, -1), (1, 1), (1, 1)),
)


def test_replayed_reduced_word_gives_same_class(gens, monkeypatch):
    # walked-with-cancellations state must equal the state of its reduced
    # word, also where a push reuses the chains a pop left behind
    chains = []
    compute = WalkState._chained_base_classes

    def counted(self, op):
        chains.append(op)
        return compute(self, op)

    monkeypatch.setattr(WalkState, "_chained_base_classes", counted)
    for it in (random_itinerary(2, 30, random.Random(5)), *_BACKTRACKING):
        chains.clear()
        report = run_walk(gens, len(it), itinerary=it, checkpoint_every=0)
        assert report.aborted is None
        lengths = _stack_lengths(it)
        pushes = sum(1 for a, b in zip(lengths, [0, *lengths]) if a > b)
        assert len(chains) < pushes
        state = WalkState(gens)
        for letter in it:
            state.step(letter)
        reduced = tuple(e.letter for e in state.stack)
        assert len(reduced) == report.final_reduced_len
        fresh = run_walk(gens, len(reduced), itinerary=reduced,
                         checkpoint_every=0)
        a = class_to_jsonable(report.final_class, report.registry)
        b = class_to_jsonable(fresh.final_class, fresh.registry)
        assert a == b


def test_reduced_length_matches_integer_oracle_exact(gens):
    steps = 30
    it = random_itinerary(2, steps, random.Random(5))
    oracle = _stack_lengths(it)
    state = WalkState(gens)
    for k, letter in enumerate(it):
        state.step(letter)
        assert state.reduced_len == oracle[k]
        assert state.pull_class.line_coeff == 1 << oracle[k]


def test_walk_degree_matches_polynomial_composition(gens):
    # the composite map of the reduced word, with common factors stripped,
    # must have exactly the degree the class bookkeeping advertises
    steps = 8
    it = random_itinerary(2, steps, random.Random(3))
    state = WalkState(gens)
    for letter in it:
        state.step(letter)
    word = tuple(e.letter for e in reversed(state.stack))
    comps = _exact_word_components(gens, word)
    assert comps[0].degree == 1 << state.reduced_len
    assert state.pull_class.line_coeff == comps[0].degree


# -- the constant-itinerary frozen oracle -------------------------------


def test_constant_itinerary_cauchy_increments(gens):
    steps = 10
    it = tuple((0, 1) for _ in range(steps))
    report = run_walk(gens, steps, itinerary=it, checkpoint_every=1)
    assert report.aborted is None
    assert report.rows[0].n == 0
    assert report.rows[0].cauchy_increment is None
    for row in report.rows[1:]:
        n = row.n
        assert row.reduced_len == n
        assert row.cauchy_increment == pytest.approx(
            math.sqrt(3.0) / 2 ** n, rel=1e-12)
        assert row.self_intersection == 4.0 ** (-n)
        assert row.drift_estimate == pytest.approx(LOG2)


def test_pushforward_track_invariants(gens):
    steps = 8
    it = tuple((0, 1) for _ in range(steps))
    report = run_walk(gens, steps, itinerary=it, track_pushforward=True)
    assert report.aborted is None
    e = report.final_push_class
    assert e.line_coeff == 2 ** steps
    assert e.self_intersection() == 1


# -- pairing identities -------------------------------------------------


def test_gram_identity_on_checkpoints(gens):
    steps = 26
    it = random_itinerary(2, steps, random.Random(5))
    assert max(_stack_lengths(it)) <= 16
    report = run_walk(gens, steps, itinerary=it, checkpoint_every=4,
                      keep_classes=True)
    assert report.aborted is None
    kept = report.checkpoint_classes
    assert len(kept) >= 3
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            n1, _, c1, _ = kept[i]
            n2, _, c2, _ = kept[j]
            middle = reduced_middle_length(it, n1, n2)
            assert c1.intersect(c2) == 2 ** middle


def test_transversality_ratio_for_partner_and_for_self(gens):
    registry = PointRegistry()
    ra = run_walk(gens, 12, seed=31, checkpoint_every=2, keep_classes=True,
                  track_pushforward=True, registry=registry)
    rb = run_walk(gens, 12, seed=32, checkpoint_every=2, keep_classes=True,
                  track_pushforward=True, registry=registry)
    assert ra.aborted is None and rb.aborted is None
    cross = transversality_ratio_series(rb.final_class, rb.final_reduced_len, ra)
    assert all(v > 0.0 for _, v in cross)
    diag = transversality_ratio_series(ra.final_push_class, ra.final_reduced_len, ra)
    assert all(v > 0.0 for _, v in diag)


def test_fit_geometric_rate_recovers_planted_series():
    series = [(n, 3.0 * 0.5 ** n) for n in range(0, 12, 2)]
    c, rho = fit_geometric_rate(series)
    assert c == pytest.approx(3.0, rel=1e-9)
    assert rho == pytest.approx(0.5, rel=1e-9)


def test_normalized_pairing_scale():
    a = WeilClass(4, {0: 2})
    b = WeilClass(2, {0: 1})
    # pairing (4*2 - 2*1) / 2^(2+1)
    assert normalized_pairing(a, 2, b, 1) == 6 / 8


def _report_with_final_class(cls, reduced_len, registry):
    return WalkReport(
        seed=None, steps_requested=reduced_len,
        steps_done=reduced_len, checkpoint_every=0, generator_count=2,
        track_classes=True, itinerary=(), rows=(),
        final_reduced_len=reduced_len, aborted=None, aborted_at=None,
        registry_points=len(registry), final_class=cls, registry=registry)


def test_normalized_diagnostics_at_reduced_length_1100():
    # float(2 ** n) overflows past n = 1023; the quotients are still the
    # correctly rounded values of the exact fractions
    registry = PointRegistry()
    p, q = registry.register((1, 2, 3)), registry.register((0, 1, 5))
    big = 1 << 1100
    a = WeilClass(big, {p: 3 * (1 << 1098) + 12345, q: (1 << 1097) - 777})
    b = WeilClass(big, {p: (1 << 1099) + 1})
    assert normalized_pairing(a, 1100, b, 1100) == \
        float(Fraction(a.intersect(b), 1 << 2200))
    a540 = WeilClass(1 << 540, {p: (3 << 538) + 5})
    assert normalized_pairing(a540, 540, a540, 540) == \
        float(Fraction(a540.intersect(a540), 1 << 1080))
    top = _report_with_final_class(a, 1100, registry).top_coefficients()
    assert top == [(float(Fraction(3 * (1 << 1098) + 12345, big)), (1, 2, 3)),
                   (float(Fraction((1 << 1097) - 777, big)), (0, 1, 5))]


def test_normalized_diagnostics_match_float_scales_below_length_500():
    rng = random.Random(3)
    registry = PointRegistry()
    pids = [registry.register((1, k, k * k + 1)) for k in range(4)]
    for _ in range(1000):
        l1, l2 = rng.randrange(251), rng.randrange(251)
        a = WeilClass(1 << l1, {pid: rng.getrandbits(l1 + 1) for pid in pids})
        b = WeilClass(1 << l2, {pid: rng.getrandbits(l2 + 1) for pid in pids})
        assert normalized_pairing(a, l1, b, l2) == \
            a.intersect(b) / float(2 ** (l1 + l2))
        ln = rng.randrange(501)
        c = WeilClass(1 << ln, {pid: rng.getrandbits(ln + 1) for pid in pids})
        top = _report_with_final_class(c, ln, registry).top_coefficients()
        assert [v for v, _ in top] == sorted(
            (v / float(2 ** ln) for v in c.point_part.values()), reverse=True)


def test_self_pairing_controls_stop_at_length_537():
    # 4^-537 = 2^-1074 is the least float; past it the control is None, not
    # 0.0, and so is a row's self_intersection
    assert normalized_self_pairing(537) == 2.0 ** -1074
    assert normalized_self_pairing(16) == 4.0 ** -16
    registry = PointRegistry()
    p = registry.register((1, 2, 3))
    for ln in (538, 1100):
        assert normalized_self_pairing(ln) is None
        # planted final classes of degree 2^ln at reduced length ln
        a = WeilClass(1 << ln, {p: 1})
        b = WeilClass(1 << ln, {p: -1})
        ra = _report_with_final_class(a, ln, registry)
        rb = _report_with_final_class(b, ln, registry)
        out = boundary_compare(ra, rb)
        assert out["control_a"] is None and out["control_b"] is None
        assert out["pairing"] == 1.0
        assert json.loads(dumps_json(out))["control_a"] is None
    assert boundary_compare(_report_with_final_class(a, 537, registry),
                            rb)["control_a"] == 2.0 ** -1074


def test_rows_past_length_537_write_an_empty_self_intersection(tmp_path):
    rows = [StepRow(n=n, reduced_len=ln, log2_deg=ln, cauchy_increment=None,
                    drift_estimate=0.5, self_intersection=
                    normalized_self_pairing(ln))
            for n, ln in ((1074, 537), (1076, 538), (2200, 1100))]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert [line.split(",")[-1] for line in lines[1:]] == \
        [repr(2.0 ** -1074), "", ""]


def _oracle_rows_csv(rows, path) -> None:
    """The rows' CSV with every field formatted by hand: an empty cell
    for None and ``repr`` for a float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([
                r.n, r.reduced_len, r.log2_deg,
                "" if r.cauchy_increment is None else repr(r.cauchy_increment),
                repr(r.drift_estimate),
                "" if r.self_intersection is None else repr(r.self_intersection),
            ])


def _assert_csv_matches_oracle(rows, tmp_path) -> None:
    written, oracle = tmp_path / "written.csv", tmp_path / "oracle.csv"
    write_rows_csv(rows, written)
    _oracle_rows_csv(rows, oracle)
    assert written.read_bytes() == oracle.read_bytes()


def test_rows_csv_matches_the_per_field_oracle_on_planted_rows(tmp_path):
    floats = (0.0, 0.1 + 0.2, 1e-300, 2.0 ** -1074, 1 / 3, 123456.789e10,
              LOG2 / 2)
    rows = [StepRow(n=n, reduced_len=ln, log2_deg=ln,
                    cauchy_increment=None if n % 3 == 0 else floats[n % 7],
                    drift_estimate=floats[(n + 2) % 7],
                    self_intersection=normalized_self_pairing(ln))
            for n, ln in ((0, 0), (1, 1), (2, 2), (5, 3), (1073, 536),
                          (1074, 537), (1075, 538), (2200, 1100))]
    assert [r.self_intersection for r in rows[-3:]] == \
        [2.0 ** -1074, None, None]
    _assert_csv_matches_oracle(rows, tmp_path)


def test_rows_csv_matches_the_per_field_oracle_on_a_deep_walk(gens, tmp_path):
    report = run_walk(gens, 600, seed=1)
    assert report.aborted is None and report.final_reduced_len == 306
    assert any(r.cauchy_increment is not None for r in report.rows)
    _assert_csv_matches_oracle(report.rows, tmp_path)


def test_step_rows_are_immutable():
    row = StepRow(n=1, reduced_len=1, log2_deg=1, cauchy_increment=None,
                  drift_estimate=LOG2, self_intersection=0.25)
    for name in CSV_COLUMNS:
        with pytest.raises(AttributeError):
            setattr(row, name, 0)


def test_boundary_compare_self_equals_control(gens):
    registry = PointRegistry()
    r = run_walk(gens, 10, seed=41, registry=registry)
    out = boundary_compare(r, r)
    assert out["pairing"] == out["control_a"] == out["control_b"]


# -- depth ----------------------------------------------------------------


def test_deep_walk_matches_integer_oracle_and_is_deterministic(gens):
    steps = 40
    r1 = run_walk(gens, steps, seed=11, checkpoint_every=8)
    r2 = run_walk(gens, steps, seed=11, checkpoint_every=8)
    assert r1.aborted is None
    assert r1.to_jsonable() == r2.to_jsonable()
    assert r1.rows == r2.rows
    oracle = _stack_lengths(r1.itinerary)
    for row in r1.rows[1:]:
        assert row.reduced_len == oracle[row.n - 1]


def _exact_walks_read_out(gens, seeds):
    """Per seed: what an exact 16-step walk decides (ids included) and
    what is read out of it, and the integer hops and builds the walks
    took before anything was read."""
    with integer_work() as (hops, builds):
        reports = [run_walk(gens, 16, seed=seed,
                            checkpoint_every=4, keep_classes=True)
                   for seed in seeds]
        walked = len(hops), len(builds)
    out = []
    for r in reports:
        assert r.aborted is None
        cps = r.checkpoint_classes
        out.append((r.final_reduced_len, r.registry_points,
                    [(n, ln, c.line_coeff, c.point_part)
                     for n, ln, c, _e in cps],
                    [class_to_jsonable(c, r.registry) for _n, _l, c, _e in cps],
                    r.top_coefficients()))
    return out, walked


def _push_tracked_pair(gens, steps, registry=None):
    """Criterion 08's pair 10, walk seeds 120 and 121, at ``steps`` steps
    over one registry: the push-tracked walk's rows and checkpoint
    classes, the partner's final class and their pairing."""
    registry = PointRegistry() if registry is None else registry
    a = run_walk(gens, steps, seed=120, checkpoint_every=1,
                 keep_classes=True, track_pushforward=True,
                 registry=registry)
    b = run_walk(gens, steps, seed=121, registry=registry)
    assert a.aborted is None and b.aborted is None
    return (a.rows, a.checkpoint_classes, b.final_class,
            boundary_compare(a, b))


def test_exact_walks_do_not_depend_on_the_filter_prime(gens, monkeypatch):
    # exact chains hop on residues mod projective.FINGERPRINT_P and go back
    # to the integers at any zero; at a small prime zeros and fingerprint
    # clashes are common, and every decision and every read-out stays put
    seeds = range(1, 129)
    want, walked = _exact_walks_read_out(gens, seeds)
    # no hop of these walks meets a zero mod the prime, and every chain
    # starts from its point's key, so they take no integer hop and build
    # no point until a coordinate is read (507 builds when chains started
    # from the integers)
    assert walked == (0, 0)
    # the pair at 16 steps, whose integers a small prime still reaches
    pair = _push_tracked_pair(gens, 16)
    for prime in (101, 1009):
        monkeypatch.setattr(projective, "FINGERPRINT_P", prime)
        got, (hops, _builds) = _exact_walks_read_out(gens, seeds)
        assert hops > 0  # chains went back to the integers
        assert got == want
        assert _push_tracked_pair(gens, 16) == pair


def test_cancelling_push_steps_take_their_images_back(gens, monkeypatch):
    # a cancelling step carries the push class back through the letter
    # that just moved it.  The inverse hop of a point's one-hop recipe
    # returns the recipe's source, so the step lands on the old point
    # without building it under a second recipe.  Criterion 08's pair 10
    # then builds nothing; a registry that built both points at every
    # cancelling step ran for minutes
    def no_build(self, base, hops, event):
        raise AssertionError(f"built {event}: a recipe of {len(hops)} hops")

    monkeypatch.setattr(PointRegistry, "_build", no_build)
    registry = PointRegistry()
    result = _push_tracked_pair(gens, 26, registry)[3]
    assert result["pairing"] > 10.0 * max(result["control_a"],
                                          result["control_b"])
    for gen in gens:
        for sign in (1, -1):
            assert registry.operator(gen, sign).images


def _exact_pullbacks(gens):
    """The certificate to depth 4, the crosscheck to depth 3 and the push
    classes of exact walks, with the integer hops they took before
    anything was read."""
    with integer_work() as (hops, _builds):
        certificate = check_genericity(gens, 4)
        crosscheck = crosscheck_words(gens, 3)
        walks = [run_walk(gens, 16, seed=seed,
                          track_pushforward=True) for seed in range(1, 33)]
        taken = len(hops)
    pushes = [(r.aborted, r.final_push_class.line_coeff,
               r.final_push_class.point_part,
               class_to_jsonable(r.final_push_class, r.registry))
              for r in walks]
    return (certificate, crosscheck, pushes), taken


def test_exact_pullbacks_do_not_depend_on_the_filter_prime(gens, monkeypatch):
    # a pullback carries each point from its key mod the filter prime and
    # goes back to the integers at any zero, like a walk's chains.  At the
    # real prime the integer hops are the builds that confirm a chain end
    # landing on a point another route registered
    want, taken = _exact_pullbacks(gens)
    for prime in (101, 1009):
        monkeypatch.setattr(projective, "FINGERPRINT_P", prime)
        got, small_taken = _exact_pullbacks(gens)
        assert small_taken > taken  # zeros and clashes sent hops back
        assert got == want


def test_deep_reports_name_points_by_residues(gens):
    # past reduced length 16 a report names each point by its fingerprint
    # mod FINGERPRINT_P, which it records, and reading it builds nothing
    with integer_work() as (hops, builds):
        deep = run_walk(gens, 40, seed=11, checkpoint_every=8,
                        keep_classes=True)
        doc = deep.to_jsonable()
    assert (hops, builds) == ([], [])
    assert deep.final_reduced_len > 16
    p = projective.FINGERPRINT_P
    assert doc["mode"] == "exact" and doc["residue_prime"] == p
    names = {deep.registry.residues(pid) for pid in deep.final_class.point_part}
    assert all(tuple(map(int, coords)) in names
               for _v, coords in doc["top_coefficients"])
    entries = [coords for cp in doc["checkpoint_classes"]
               for coords, _coeff in cp["class"]["point_entries"]]
    assert entries and all(0 <= c < p for coords in entries for c in coords)
    # a walk that stays within 16 names its points by their integers
    shallow = run_walk(gens, 12, seed=9, keep_classes=True)
    assert "residue_prime" not in shallow.to_jsonable()
    names = {shallow.registry.coords_of(pid)
             for pid in shallow.final_class.point_part}
    assert all(coords in names for _v, coords in shallow.top_coefficients())


def test_deep_push_tracked_walk_builds_no_point(gens):
    # the pushforward track meets pull-track chain ends under other
    # recipes; each has the history of the point it lands on, so none is
    # built (seed 4 at 600 steps built 54 points when identity asked for
    # equal recipes)
    with integer_work() as (hops, builds):
        report = run_walk(gens, 600, seed=4, checkpoint_every=50,
                          track_pushforward=True)
    assert report.aborted is None and report.final_reduced_len == 294
    assert (hops, builds) == ([], [])
    push = report.final_push_class
    assert push.line_coeff == 2 ** report.final_reduced_len
    assert push.self_intersection() == 1


def test_shared_registry_walks_can_be_paired(gens):
    registry = PointRegistry()
    ra = run_walk(gens, 40, seed=21, registry=registry)
    rb = run_walk(gens, 40, seed=22, registry=registry)
    assert ra.aborted is None and rb.aborted is None
    out = boundary_compare(ra, rb)
    assert out["pairing"] > 0.0


def test_classfree_walk_runs_deep_and_fast(gens):
    report = run_walk(gens, 2000, seed=6, checkpoint_every=100,
                      track_classes=False)
    assert report.aborted is None
    assert report.steps_done == 2000
    assert report.registry_points == 0
    oracle = _stack_lengths(report.itinerary)
    assert report.final_reduced_len == oracle[-1]
    drift = report.rows[-1].drift_estimate
    assert drift == pytest.approx((oracle[-1] / 2000) * LOG2)


# -- caps and aborts ----------------------------------------------------


@pytest.mark.parametrize("mode", ["modp", "float"])
def test_run_walk_refuses_retired_modes(gens, mode):
    with pytest.raises(ValueError, match=f"{mode} mode is retired"):
        run_walk(gens, 6, seed=1, mode=mode)


def test_events_past_the_build_budget_abort_undecided(gens, monkeypatch):
    # at the prime 101 zeros and fingerprint hits are common, and each is
    # decided on the integers; a budget of 200 bits leaves the first steps
    # decided and stops the walk once an event needs more
    steps, seed = 40, 11
    monkeypatch.setattr(projective, "FINGERPRINT_P", 101)
    monkeypatch.setattr(picard, "BUILD_BITS", 200)
    report = run_walk(gens, steps, seed=seed)
    assert report.aborted_at == report.steps_done + 1 > 1
    assert re.fullmatch(
        r"undecided: (a zero mod p|a fingerprint hit) needs integers past "
        r"the build budget of 200 bits, and residues mod p = 101 do not "
        r"decide it", report.aborted)
    before = run_walk(gens, report.steps_done, seed=seed)
    monkeypatch.undo()
    # no two distinct points shared an id on the steps before the abort
    exact = run_walk(gens, report.steps_done, seed=seed)
    assert before.registry_points == exact.registry_points
    assert before.final_class == exact.final_class


def test_walk_stops_at_an_abort_and_records_it():
    # on this height-1 pair, walk seed 2 carries a point onto a contracted
    # line at step 5: the walk must stop there and say so rather than go on
    # with a class it cannot carry; the failed step is not done
    pair = sample_generators(2, 1, random.Random(2))
    report = run_walk(pair, 200, seed=2)
    assert report.aborted is not None
    assert report.aborted_at == report.steps_done + 1 == 5
    assert [row.n for row in report.rows] == [0, 1, 2, 3, 4]
    assert report.aborted.startswith(
        "carried point lies on a contracted line")
    blob = report.to_jsonable()
    assert (blob["aborted"], blob["aborted_at"]) == (report.aborted, 5)
    # the sigma pair's second letter undoes the first, which the degree
    # check catches once the step is done
    report = run_walk(_sigma_pair(), 200, seed=2)
    assert report.aborted_at == report.steps_done + 1 == 2
    assert [row.n for row in report.rows] == [0, 1]
    assert report.aborted.startswith("degree invariant broken at step 2")


def test_an_aborted_walk_reports_its_last_completed_step():
    # walk seed 1 on the sigma pair fails at step 4: what the report calls
    # final is step 3's reduced length and classes, not the failed step's
    report = run_walk(_sigma_pair(), 6, seed=1, checkpoint_every=1,
                      keep_classes=True, track_pushforward=True)
    assert report.aborted_at == 4 and report.steps_done == 3
    assert report.final_reduced_len == report.rows[-1].reduced_len == 1
    for cls in (report.final_class, report.final_push_class):
        assert cls.line_coeff == 1 << report.final_reduced_len
        assert cls.self_intersection() == 1
    n, _, cls, push = report.checkpoint_classes[-1]
    assert n == 3 and (cls, push) == (report.final_class,
                                      report.final_push_class)


# -- artifacts ----------------------------------------------------------


def test_report_jsonable_and_csv(tmp_path, gens):
    report = run_walk(gens, 16, seed=9, checkpoint_every=4,
                      keep_classes=True)
    assert report.aborted is None
    blob = report.to_jsonable()
    text = json.dumps(blob, sort_keys=True)
    back = json.loads(text)
    assert back["format"] == "birwalk-walk"
    assert back["steps_done"] == 16
    assert "rows" not in back  # the per-step rows go to the CSV only
    assert [cp["n"] for cp in back["checkpoint_classes"]] == [0, 4, 8, 12, 16]
    assert len(back["top_coefficients"]) == 5
    path = tmp_path / "rows.csv"
    write_rows_csv(report.rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("n,reduced_len,log2_deg,cauchy_increment,"
                       "drift_estimate,self_intersection")
    assert len(lines) == len(report.rows) + 1
    assert len(report.rows) == 17  # the n=0 state plus one row per step


def test_zero_steps_report(gens):
    report = run_walk(gens, 0, seed=1)
    assert report.steps_done == 0
    assert report.final_reduced_len == 0
    assert report.final_class == WeilClass.line_class()
    assert report.rows[0].n == 0
    assert report.rows[0].log2_deg == 0


def _backtracking_itinerary(steps, rng):
    """A word that takes back its newest letter at about every other step."""
    word = [(0, 1)]
    while len(word) < steps:
        i, s = word[-1]
        word.append((i, -s) if rng.random() < 0.5
                    else (rng.randrange(2), rng.choice((1, -1))))
    return tuple(word)


@pytest.mark.parametrize("seed, itinerary", [
    (1, None), (2, None),
    (None, _backtracking_itinerary(600, random.Random(3)))])
def test_classfree_rows_match_the_stepped_walk(gens, seed, itinerary):
    # the push-tracked walk steps WalkState; the class-free one only a
    # letter stack
    free = run_walk(gens, 600, seed=seed, itinerary=itinerary,
                    track_classes=False)
    stepped = run_walk(gens, 600, seed=seed, itinerary=itinerary,
                       track_classes=False, track_pushforward=True)
    assert stepped.aborted is None
    assert free.itinerary == stepped.itinerary
    assert free.final_reduced_len == stepped.final_reduced_len
    for column in CSV_COLUMNS:
        assert [getattr(r, column) for r in free.rows] == \
            [getattr(r, column) for r in stepped.rows], column
    assert all(type(r) is StepRow for r in free.rows)
    if itinerary is not None:
        assert free.final_reduced_len < 100  # the backtracks did cancel


def test_middle_length_keeps_its_values():
    it = random_itinerary(2, 600, random.Random(7))
    assert [reduced_middle_length(it, lo, hi) for lo, hi in
            [(0, 600), (600, 0), (17, 431), (250, 251), (300, 300),
             (599, 13)]] == [256, 256, 180, 1, 0, 246]
    rng = random.Random(8)
    for _ in range(50):
        lo, hi = rng.randrange(601), rng.randrange(601)
        block = it[min(lo, hi):max(lo, hi)]
        assert reduced_middle_length(it, lo, hi) == \
            (_stack_lengths(block) or [0])[-1]


def test_drift_estimate_short_classfree_run(gens):
    # crude sanity only; the long-run statistics live in the acceptance suite
    report = run_walk(gens, 2000, seed=2, checkpoint_every=100,
                      track_classes=False)
    assert report.aborted is None
    drift = report.rows[-1].drift_estimate
    assert abs(drift - LOG2 / 2) < 0.05


# -- crosscheck tree against exact composition --------------------------


def _exact_crosscheck(gens, max_len, failure_cap=50):
    """The crosscheck tree with every node composed exactly: compose_letter
    onto the parent's stripped triple.  Returns (counts, failures, the
    (word, polynomial degree) of every word whose degree is checked)."""
    state = WalkState(gens)
    registry = state.registry
    probe = WeilClass.exceptional_class(
        registry.operator(gens[0], 1).base_ids[0])
    counts = dict.fromkeys(("degree", "isometry", "noether", "adjoint",
                            "gram"), 0)
    failures, degrees = [], []
    letters = [(i, s) for i in range(len(gens)) for s in (1, -1)]

    def fail(word, check, detail):
        failures.append({"word": [list(l) for l in word], "check": check,
                         "detail": detail})

    def visit(word, comps, pushed, push_line, ancestors):
        if len(word) >= max_len or len(failures) >= failure_cap:
            return
        for letter in letters:
            if word and letter == (word[0][0], -word[0][1]):
                continue
            new_word = (letter,) + word
            undo = (letter[0], -letter[1])
            prev_line = state.pull_class.line_coeff
            depth_before = len(state.stack)
            try:
                op = registry.operator(gens[letter[0]], letter[1])
                base_mult = sum(push_line.point_part.get(pid, 0)
                                for pid in op.base_ids)
                state.step(letter)
            except DegenerateConfiguration as exc:
                fail(new_word, "degree", f"degenerate: {exc}")
                if len(state.stack) > depth_before:
                    state.step(undo)
                continue
            cls = state.pull_class
            new_comps = compose_letter(
                *gens[letter[0]].letter_matrices(letter[1]), comps)
            poly_degree = next(p.degree for p in new_comps if not p.is_zero)
            try:
                inv = registry.operator(gens[undo[0]], undo[1])
                new_pushed = inv.pullback(pushed)
                new_push_line = inv.pullback(push_line)
            except DegenerateConfiguration as exc:
                fail(new_word, "adjoint", f"probe transport degenerate: {exc}")
                state.step(undo)
                continue
            degrees.append((new_word, poly_degree))
            counts["degree"] += 1
            if poly_degree != cls.line_coeff \
                    or poly_degree != new_push_line.line_coeff \
                    or poly_degree != 2 ** len(new_word):
                fail(new_word, "degree",
                     f"poly {poly_degree} vs class {cls.line_coeff} "
                     f"vs forward class {new_push_line.line_coeff} "
                     f"vs expected {2 ** len(new_word)}")
            counts["isometry"] += 1
            if cls.self_intersection() != 1:
                fail(new_word, "isometry",
                     f"self-intersection {cls.self_intersection()}")
            counts["noether"] += 1
            if cls.line_coeff != 2 * prev_line - base_mult:
                fail(new_word, "noether",
                     f"degree recursion broken: {cls.line_coeff} != "
                     f"2*{prev_line} - {base_mult}")
            counts["adjoint"] += 1
            left, right = cls.intersect(probe), new_pushed.line_coeff
            if left != right:
                fail(new_word, "adjoint",
                     f"<w*L, E> = {left} but <L, w_*E> = {right}")
            counts["gram"] += 1
            for anc_len, anc_class in ancestors:
                middle = len(new_word) - anc_len
                if cls.intersect(anc_class) != 2 ** middle:
                    fail(new_word, "gram",
                         f"pairing with length-{anc_len} ancestor is "
                         f"{cls.intersect(anc_class)}, expected 2^{middle}")
            visit(new_word, new_comps, new_pushed, new_push_line,
                  ancestors + [(len(new_word), cls)])
            state.step(undo)

    visit((), IDENTITY_COMPONENTS, probe, WeilClass.line_class(),
          [(0, WeilClass.line_class())])
    return counts, failures, degrees


def _sigma_pair():
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return (generator_from_matrices(0, rows, rows),
            generator_from_matrices(1, rows, rows))


def test_crosscheck_keeps_no_filed_entries(gens, monkeypatch):
    # the word tree never pushes a popped word again, so it drops what each
    # pop files: after the walk no entry holds a filing
    states = []
    init = WalkState.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        states.append(self)

    monkeypatch.setattr(WalkState, "__init__", kept)
    counts, failures = crosscheck_words(gens, 4)
    assert counts["degree"] == 160 and failures == []
    (state,) = states
    assert state._root_popped == {}
    assert all(not e.popped for e in state.stack)


@pytest.mark.parametrize("name", ["certified", "sigma_pair", "height1_seed38",
                                  "height2_seed86"])
def test_crosscheck_words_match_exact_composition(name, gens, monkeypatch):
    # the height-1 pair needs one exact decision, on a one-letter word; the
    # height-2 pair needs ten, on words of length 1 to 4
    tuples = {"certified": lambda: gens, "sigma_pair": _sigma_pair,
              "height1_seed38":
                  lambda: sample_generators(2, 1, random.Random(38)),
              "height2_seed86":
                  lambda: sample_generators(2, 2, random.Random(86))}
    tup = tuples[name]()
    counts, failures, degrees = _exact_crosscheck(tup, 4)
    # the degree of every checked word, in DFS order, as the tree reads it:
    # off a certifying line step, or off the lines of the exact triple
    seen, exact_words = [], []
    modp_step = genericity._modp_step
    lines_from = genericity._lines_from_components
    exact = genericity._exact_word_components

    def spy_step(*args):
        node = modp_step(*args)
        if node is not None:
            seen.append(node[1])
        return node

    def spy_lines(comps):
        node = lines_from(comps)
        seen.append(node[1])
        return node

    def spy_exact(gens_, word):
        exact_words.append((len(seen) - 1, word))  # index of the word checked
        return exact(gens_, word)

    monkeypatch.setattr(genericity, "_modp_step", spy_step)
    monkeypatch.setattr(genericity, "_lines_from_components", spy_lines)
    monkeypatch.setattr(genericity, "_exact_word_components", spy_exact)
    assert crosscheck_words(tup, 4) == (counts, failures)
    assert seen[0] == 1  # the identity triple at the root
    assert seen[1:] == [d for _word, d in degrees]
    # exact decisions read their words with the outermost (newest) letter
    # first
    assert bool(exact_words) == (name != "certified")
    for at, word in exact_words:
        assert word == degrees[at][0]
