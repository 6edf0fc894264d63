"""Free-growth certification over the reduced-word tree."""

import importlib
import importlib.util
import json
import random
import signal
from pathlib import Path

import numpy as np
import pytest

import birwalk.genericity as genericity
from birwalk import modp, poly, walk
from birwalk.genericity import (
    GenericityReport,
    all_letters,
    check_genericity,
    reduced_word_count,
)
from birwalk.errors import DegenerateComposition
from birwalk.maps import (
    IDENTITY_COMPONENTS,
    generator_from_matrices,
    sample_generators,
)
from birwalk.poly import HomPoly, triple_gcd
from birwalk.walk import crosscheck_words

from form_oracles import sympy_gcd

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_reduced_word_count_closed_form():
    assert reduced_word_count(1, 3) == 2 + 2 + 2
    assert reduced_word_count(2, 6) == 4 + 12 + 36 + 108 + 324 + 972
    assert reduced_word_count(2, 6) == 1456


def test_letters_enumeration():
    assert all_letters(2) == ((0, 1), (0, -1), (1, 1), (1, -1))


def test_involution_tuple_fails_certification():
    sigma = generator_from_matrices(0, I3, I3)
    report = check_genericity((sigma,), 2)
    assert not report.ok
    # the involution is self-inverse, so its six points collapse to three
    assert not report.distinct_points_ok
    bad_words = {f.word for f in report.failures}
    # the reduced word "letter twice" composes to the identity: degree drop
    assert ((0, 1), (0, 1)) in bad_words or ((0, -1), (0, -1)) in bad_words


def test_involution_failure_degrees_recorded():
    sigma = generator_from_matrices(0, I3, I3)
    report = check_genericity((sigma,), 2)
    for f in report.failures:
        if f.word == ((0, 1), (0, 1)):
            assert f.expected_degree == 4
            assert f.poly_degree == 1
            assert f.class_degree == 1 or f.class_degree is None


def test_sampled_pair_certifies_to_length_three():
    gens = sample_generators(2, 5, random.Random(1))
    report = check_genericity(gens, 3)
    assert isinstance(report, GenericityReport)
    assert report.distinct_points_ok
    assert report.ok, [f.reason for f in report.failures]
    assert report.words_checked == reduced_word_count(2, 3)


def test_single_generator_certifies():
    (gen,) = sample_generators(1, 5, random.Random(4))
    report = check_genericity((gen,), 4)
    assert report.ok
    assert report.words_checked == reduced_word_count(1, 4)


# -- the mod-p fast path on line restrictions -----------------------------
# Each certificate line parametrised independently of the module: the images
# of x, y, z as linear forms in (t, s), written (coefficient of s,
# coefficient of t), so a restriction lists the coefficients of t^k s^(d-k).
_T, _S, _Z = (0, 1), (1, 0), (0, 0)
LINE_PARAMS = {
    "z0": (_T, _S, _Z),
    "y0": (_T, _Z, _S),
    "x0": (_Z, _T, _S),
    "z=x": (_T, _S, _T),
    "z=y": (_T, _S, _S),
    "y=x": (_T, _T, _S),
}


def _umul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _restrictions(comps):
    """Mod-p restrictions of an exact triple, by substituting each line."""
    d = next(p.degree for p in comps if not p.is_zero)
    p = modp.P
    out = []
    for forms in LINE_PARAMS.values():
        per_line = []
        for comp in comps:
            acc = [0] * (d + 1)
            for exps, c in comp.terms:
                term = [int(c)]
                for form, e in zip(forms, exps):
                    for _ in range(e):
                        term = _umul(term, list(form))
                acc = [a + b for a, b in zip(acc, term)]
            per_line.append([a % p for a in acc])
        out.append(per_line)
    return out


def _raw_letter(gen, sign, comps):
    """One letter composed onto a triple with no common factor stripped."""
    a_rows, b_rows = gen.letter_matrices(sign)

    def combo(row, polys):
        acc = HomPoly({})
        for c, q in zip(row, polys):
            acc = acc + q.scale(c)
        return acc

    t = [combo(row, comps) for row in b_rows]
    s = (t[1] * t[2], t[0] * t[2], t[0] * t[1])
    return tuple(combo(row, s) for row in a_rows)


def _proportional(carried, exact, p):
    """carried == lam * exact mod p for one nonzero lam shared by all entries."""
    a = [x for line in carried for comp in line for x in comp]
    b = [x for line in exact for comp in line for x in comp]
    pivot = next(i for i, x in enumerate(b) if x)
    lam = a[pivot] * pow(b[pivot], p - 2, p) % p
    return lam != 0 and all(x == lam * y % p for x, y in zip(a, b))


def test_carried_residues_are_restrictions_of_the_exact_triple(
        certified_tuple):
    # the fast path carries the raw composite, which differs from the
    # canonical exact triple by its content and sign: one common scalar
    gens = certified_tuple
    p = modp.P
    assert tuple(LINE_PARAMS) == tuple(modp.CERT_LINES)
    root = _restrictions(IDENTITY_COMPONENTS)
    assert genericity._lines_from_components(IDENTITY_COMPONENTS)[0].tolist() \
        == root
    seen = 0

    def visit(word, lines, d):
        nonlocal seen
        for letter in all_letters(len(gens)):
            if word and letter == (word[0][0], -word[0][1]):
                continue
            new_word = (letter,) + word
            gen = gens[letter[0]]
            fast = genericity._modp_step(gen, letter[1], lines, d)
            assert fast is not None, new_word
            new_lines, nd = fast
            assert nd == 2 ** len(new_word)
            exact = genericity._exact_word_components(gens, new_word)
            assert next(q.degree for q in exact if not q.is_zero) == nd
            assert _proportional(new_lines.tolist(), _restrictions(exact), p), \
                new_word
            # certified coprime: composing the letter creates no common factor
            suffix = genericity._exact_word_components(gens, word)
            assert triple_gcd(*_raw_letter(gen, letter[1], suffix)).degree == 0
            seen += 1
            if len(new_word) < 3:
                visit(new_word, new_lines, nd)

    visit((), np.array(root, dtype=np.int64), 1)
    assert seen == reduced_word_count(2, 3)


def _count_exact_calls(monkeypatch):
    calls = []
    original = genericity._exact_word_components

    def counting(gens, word):
        calls.append(word)
        return original(gens, word)

    monkeypatch.setattr(genericity, "_exact_word_components", counting)
    return calls


def test_fast_path_certifies_the_frozen_pair_alone(certified_tuple,
                                                   monkeypatch):
    calls = _count_exact_calls(monkeypatch)
    report = check_genericity(certified_tuple, 5)
    assert report.ok
    assert not report.truncated
    assert calls == []


def test_failure_cap_marks_the_report_truncated():
    report = check_genericity(sample_generators(2, 5, random.Random(2)), 5)
    assert len(report.failures) == 20
    assert report.words_checked == 142 < reduced_word_count(2, 5)
    assert report.truncated


def test_identical_involutions_need_exact_adjudication(monkeypatch):
    # every word of the pair of identical involutions stalls the fast path
    calls = _count_exact_calls(monkeypatch)
    pair = (generator_from_matrices(0, I3, I3), generator_from_matrices(1, I3, I3))
    report = check_genericity(pair, 2)
    assert len(report.failures) == 12
    assert len(calls) == report.words_checked == 16


# -- the exact gcd on a hard tuple ------------------------------------------
# The word (1-)(0+)(0+)(0+) of this tuple needs an exact decision: the gcd
# of degree-16 forms with 76-bit coefficients, a linear factor; at depth 5
# one of degree-32 forms.  A pseudo-remainder sequence over Fractions gave
# no answer in 60 s there.
HANG_TUPLE = (2, 3, 16)


def _within(seconds, fn, *args):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("max_len, failure_cap, seconds", [(4, 3, 10), (5, 2, 20)])
def test_hang_tuple_answers_as_with_the_sympy_gcd(max_len, failure_cap, seconds,
                                                   monkeypatch):
    r, height, seed = HANG_TUPLE
    gens = sample_generators(r, height, random.Random(seed))
    report = _within(seconds, check_genericity, gens, max_len, failure_cap)
    calls = []

    def oracle(a, b):
        calls.append(1)
        return sympy_gcd(a, b)

    monkeypatch.setattr(poly, "poly_gcd", oracle)
    assert check_genericity(gens, max_len, failure_cap) == report
    assert calls  # the exact decisions went through the oracle


# -- frozen reports: deferred leaf verdicts replay in DFS order -----------
# Recorded from the scalar tree, which judged every word as it visited it.
# Each case fails somewhere: involutions and small-height tuples whose
# class transport degenerates, leaves whose fast check needs an exact
# decision that passes, and caps that cut the tree between such leaves.
# Real failures all come from the class side, which is judged at once, so
# the last cases make every exact leaf composition fail: deferred leaves
# then fail too, between the immediate failures, and the cap cuts there.
FROZEN_DOC = json.loads(
    (Path(__file__).parent / "data" / "frozen_genericity_reports.json")
    .read_text())


def _case_id(case):
    spec = case["tuple"]
    name = "involutions" if spec[0] == "involutions" else \
        f"r{spec[1]}-height{spec[2]}-seed{spec[3]}"
    injected = "-injected" if case["inject_leaf_failures"] else ""
    return f"{name}-len{case['max_len']}-cap{case['failure_cap']}{injected}"


def _frozen_tuple(spec):
    if spec[0] == "involutions":
        return (generator_from_matrices(0, I3, I3),
                generator_from_matrices(1, I3, I3))
    _, r, height, seed = spec
    return sample_generators(r, height, random.Random(seed))


def _word_text(word):
    return "".join(f"{i}{'+' if s > 0 else '-'}" for i, s in word)


@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("case", FROZEN_DOC["cases"], ids=_case_id)
def test_reports_match_the_frozen_scalar_tree(case, batch, monkeypatch):
    if batch is not None:
        # flushes then fall inside subtrees, between a leaf and its siblings
        monkeypatch.setattr(genericity, "LEAF_BATCH", batch)
    if case["inject_leaf_failures"]:
        exact = genericity._exact_word_components

        def failing_leaves(gens, word):
            if len(word) == case["max_len"]:
                raise DegenerateComposition("injected")
            return exact(gens, word)

        monkeypatch.setattr(genericity, "_exact_word_components",
                            failing_leaves)
    report = check_genericity(_frozen_tuple(case["tuple"]), case["max_len"],
                              case["failure_cap"])
    assert report.max_len == case["max_len"]
    assert report.generator_count == case["generator_count"]
    assert report.words_checked == case["words_checked"]
    assert report.distinct_points_ok == case["distinct_points_ok"]
    assert report.truncated == case["truncated"]
    assert len(report.failures) == len(case["failures"])
    for got, (word, expected, poly, cls, reason) in zip(report.failures,
                                                         case["failures"]):
        assert _word_text(got.word) == word
        assert got.expected_degree == expected
        assert got.poly_degree == poly
        assert got.class_degree == cls
        assert got.reason == FROZEN_DOC["reasons"][reason]


# -- leaves-only pass: a failing inner word is traced by the per-word tree --


def _dfs_words(generator_count, max_len, word=()):
    """Reduced words in the tree's visiting order, outermost letter first."""
    if len(word) == max_len:
        return
    for letter in all_letters(generator_count):
        if word and letter == (word[0][0], -word[0][1]):
            continue
        yield (letter,) + word
        yield from _dfs_words(generator_count, max_len, (letter,) + word)


@pytest.mark.parametrize("batch", [None, 1, 7])
def test_inner_polynomial_failure_gives_up_the_leaves_only_pass(
        certified_tuple, batch, monkeypatch):
    # the frozen reports fail on the class side only: here an inner word's
    # polynomial side fails while its class side passes, and its leaves,
    # whose triples then share its factor, fail with it
    if batch is not None:
        monkeypatch.setattr(genericity, "LEAF_BATCH", batch)
    gens, max_len = certified_tuple, 4
    u = ((1, 1), (0, 1))
    below = [w for w in _dfs_words(2, max_len) if w[-len(u):] == u and w != u]
    leaves = [w for w in below if len(w) == max_len]

    def raw_lines(word):
        lines, d = genericity._lines_from_components(IDENTITY_COMPONENTS)
        for letter in reversed(word):
            lines, d = genericity._letter_step(
                genericity._letter_mats(gens[letter[0]], letter[1]),
                lines), 2 * d
        return lines.tobytes()

    stalled = {raw_lines(w) for w in [u] + leaves}
    modp_step, leaf_verdicts = genericity._modp_step, genericity._leaf_verdicts
    exact = genericity._exact_word_components
    calls = []

    def no_verdict(gen, sign, lines, d):
        if genericity._letter_step(genericity._letter_mats(gen, sign),
                                   lines).tobytes() in stalled:
            return None
        return modp_step(gen, sign, lines, d)

    def leaf_lanes(gens, queue):
        return [ok and item[0] not in leaves
                for item, ok in zip(queue, leaf_verdicts(gens, queue))]

    def failing_exact(gens, word):
        calls.append(word)
        if word == u or word in leaves:
            raise DegenerateComposition("injected")
        return exact(gens, word)

    monkeypatch.setattr(genericity, "_modp_step", no_verdict)
    monkeypatch.setattr(genericity, "_leaf_verdicts", leaf_lanes)
    monkeypatch.setattr(genericity, "_exact_word_components", failing_exact)
    report = check_genericity(gens, max_len)
    assert [f.word for f in report.failures] == [u]
    assert report.failures[0].class_degree == 4
    assert report.failures[0].reason == "exact composition failed: injected"
    assert report.words_checked == reduced_word_count(2, max_len) - len(below)
    assert not report.truncated
    # the first pass stops at u's first leaf; the rerun decides u itself
    assert calls == [leaves[0], u]


# -- the one word tree ----------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3])
def test_walk_words_visits_the_reduced_words_in_dfs_order(r):
    seen = []

    def step(word, parent):
        assert parent == word[1:]  # the state the parent's step returned
        seen.append(word)
        return word

    genericity.walk_words(all_letters(r), 4, step, ())
    assert seen == list(_dfs_words(r, 4))
    assert len(seen) == reduced_word_count(r, 4)


@pytest.mark.parametrize("skipped", [((0, 1),), ((1, -1), (0, 1)),
                                     ((0, -1), (1, 1), (1, 1)),
                                     ((1, 1), (0, 1), (0, 1), (1, 1))])
def test_walk_words_skips_exactly_the_subtree_of_a_none_step(skipped):
    seen = []

    def step(word, parent):
        seen.append(word)
        return None if word == skipped else word

    genericity.walk_words(all_letters(2), 4, step, ())
    assert seen == [w for w in _dfs_words(2, 4)
                    if w == skipped or w[-len(skipped):] != skipped]


def _convolved_step(mats, lines):
    """The letter step line by line with np.convolve, as an oracle."""
    a, b = mats
    t = b @ lines % modp.P
    s = np.array([[np.convolve(t1, t2), np.convolve(t0, t2),
                   np.convolve(t0, t1)] for t0, t1, t2 in t])
    return a @ (s % modp.P) % modp.P


@pytest.mark.parametrize("d", [1, 2, 5, 16, 32])
def test_batched_letter_step_equals_single_node_steps(certified_tuple, d):
    gens = certified_tuple
    rng = np.random.default_rng(d)
    letters = all_letters(len(gens))
    picks = [letters[i] for i in rng.integers(0, len(letters), size=9)]
    mats = np.array([genericity._letter_mats(gens[i], s) for i, s in picks])
    lines = rng.integers(0, modp.P, size=(9, 3, d + 1), dtype=np.int64)
    lines[0] = 0
    lines[1, :, -1] = 0  # a lane whose forms lose their top coefficient
    lanes = genericity._letter_step(mats, lines)
    assert lanes.dtype == np.int64 and lanes.shape == (9, 3, 2 * d + 1)
    for lane, m, node in zip(lanes, mats, lines):
        single = genericity._letter_step(m, node[None])
        assert single.tobytes() == lane[None].tobytes()
        assert np.array_equal(single, _convolved_step(m, node[None]))
    # one node's six certificate lines share the letter's matrices
    node = lines[:6]
    assert np.array_equal(genericity._letter_step(mats[0], node),
                          _convolved_step(mats[0], node))


def test_crosscheck_failures_use_the_certificate_word_order():
    pair = (generator_from_matrices(0, I3, I3), generator_from_matrices(1, I3, I3))
    _counts, failures = crosscheck_words(pair, 2)
    words = [tuple(tuple(letter) for letter in f["word"]) for f in failures]
    assert len(words) == 12
    assert words == [f.word for f in check_genericity(pair, 2).failures]


# -- what perfbench's traced mode patches ----------------------------------


def _perfbench_tracer():
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_perfbench_spans_resolve_in_birwalk():
    tracer = _perfbench_tracer()
    assert tracer.SPANS
    for mod_name, attr, _span, _home_only in tracer.SPANS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_crosscheck_calls_the_exact_composition_through_the_module(
        monkeypatch):
    # the traced run counts exact decisions by replacing this module global
    calls = []
    exact = genericity._exact_word_components

    def spy(gens, word):
        calls.append(word)
        return exact(gens, word)

    monkeypatch.setattr(genericity, "_exact_word_components", spy)
    crosscheck_words(sample_generators(2, 1, random.Random(38)), 2)
    assert calls
    assert "_exact_word_components" not in vars(walk)
