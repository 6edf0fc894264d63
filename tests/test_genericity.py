"""Free-growth certification over the reduced-word tree."""

import random

import numpy as np

import birwalk.genericity as genericity
from birwalk.genericity import (
    GenericityReport,
    all_letters,
    check_genericity,
    reduced_word_count,
)
from birwalk.maps import (
    IDENTITY_COMPONENTS,
    generator_from_matrices,
    sample_generators,
)
from birwalk.poly import HomPoly, triple_gcd

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
    p = genericity._P
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
    p = genericity._P
    assert tuple(LINE_PARAMS) == tuple(genericity._CERT_LINES)
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
    assert calls == []


def test_identical_involutions_need_exact_adjudication(monkeypatch):
    # every word of the pair of identical involutions stalls the fast path
    calls = _count_exact_calls(monkeypatch)
    pair = (generator_from_matrices(0, I3, I3), generator_from_matrices(1, I3, I3))
    report = check_genericity(pair, 2)
    assert len(report.failures) == 12
    assert len(calls) == report.words_checked == 16
