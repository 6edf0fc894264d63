"""Correctness checks for the benchmark, computed apart from the program.

Each check takes plain data (documents the CLI wrote, or fields of the
library's result objects) and raises ``CheckFailed`` on a wrong answer.
The references are either recomputed here by independent means (a
free-group replica of the seeded itineraries, the intersection form
evaluated from raw class entries, sympy composition and factoring) or
properties the mathematics forces (degree doubling, the two Noether
identities, the pairing identity, the closed-form distance series).
Nothing is compared against a stored copy of an earlier output.
"""

from __future__ import annotations

import ast
import math
import random
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Letter = Tuple[int, int]

# the mean class-free drift must lie within this share of (1/2) log 2
DRIFT_TOLERANCE = 0.05


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- free groups ----------------------------------------------------------


def letters_of(generator_count: int) -> Tuple[Letter, ...]:
    return tuple((i, s) for i in range(generator_count) for s in (1, -1))


def reduced_words(generator_count: int, max_len: int) -> List[Tuple[Letter, ...]]:
    """Every nonempty reduced word up to max_len, shortest first."""
    letters = letters_of(generator_count)
    layer: List[Tuple[Letter, ...]] = [()]
    out: List[Tuple[Letter, ...]] = []
    for _ in range(max_len):
        layer = [w + (l,) for w in layer for l in letters
                 if not (w and l == (w[-1][0], -w[-1][1]))]
        out.extend(layer)
    return out


def reduced_word_total(generator_count: int, max_len: int) -> int:
    """Sum over k = 1..max_len of 2r (2r - 1)^(k - 1)."""
    n = 2 * generator_count
    return sum(n * (n - 1) ** (k - 1) for k in range(1, max_len + 1))


def replica_itinerary(generator_count: int, steps: int,
                      seed: int) -> Tuple[Letter, ...]:
    """The seeded itinerary: one uniform draw among the 2r letters per step."""
    letters = letters_of(generator_count)
    rng = random.Random(seed)
    return tuple(letters[rng.randrange(len(letters))] for _ in range(steps))


def free_reduce(word: Iterable[Letter]) -> List[Letter]:
    stack: List[Letter] = []
    for letter in word:
        letter = (letter[0], letter[1])
        if stack and letter == (stack[-1][0], -stack[-1][1]):
            stack.pop()
        else:
            stack.append(letter)
    return stack


def is_cancellation_free(word: Sequence[Letter]) -> bool:
    return len(free_reduce(word)) == len(word)


# -- classes over blown-up points -----------------------------------------
# A class is (line coefficient d, {point key: multiplicity m}); the form is
# d1 d2 - sum m1 m2 over shared points (exceptional classes square to -1).


def pairing(a: Tuple[int, Dict], b: Tuple[int, Dict]) -> int:
    da, ma = a
    db, mb = b
    return da * db - sum(v * mb[k] for k, v in ma.items() if k in mb)


def check_class(cls: Tuple[int, Dict], reduced_len: int, where: str) -> None:
    d, mults = cls
    require(d == 2 ** reduced_len,
            f"{where}: degree {d}, expected 2^{reduced_len}")
    require(all(m >= 0 for m in mults.values()),
            f"{where}: negative multiplicity")
    require(d * d - sum(m * m for m in mults.values()) == 1,
            f"{where}: d^2 - sum m^2 != 1")
    require(sum(mults.values()) == 3 * (d - 1),
            f"{where}: sum m != 3(d - 1)")


def check_checkpoints(itinerary: Sequence[Letter],
                      checkpoints: Sequence[Tuple[int, int, Tuple[int, Dict]]],
                      where: str) -> None:
    """Noether identities per checkpoint and the pairing identity per pair."""
    for n, ln, cls in checkpoints:
        require(ln == len(free_reduce(itinerary[:n])),
                f"{where}: reduced length {ln} at step {n} disagrees with "
                f"the free-group replica")
        check_class(cls, ln, f"{where} step {n}")
    for i, (ni, _li, ci) in enumerate(checkpoints):
        for nj, _lj, cj in checkpoints[i + 1:]:
            middle = len(free_reduce(itinerary[ni:nj]))
            require(pairing(ci, cj) == 2 ** middle,
                    f"{where}: pairing of steps {ni} and {nj} is "
                    f"{pairing(ci, cj)}, expected 2^{middle}")


def class_from_entries(entry: dict) -> Tuple[int, Dict]:
    """A class as a walk artifact stores it: coordinates, not point ids."""
    mults: Dict[tuple, int] = {}
    for coords, coeff in entry["point_entries"]:
        key = tuple(coords)
        require(key not in mults, "artifact class repeats a point")
        mults[key] = coeff
    return entry["line_coeff"], mults


# -- certify ------------------------------------------------------------------


def check_certificate(doc: dict, generator_count: int, max_len: int) -> None:
    cert = doc["certificate"]
    expected = reduced_word_total(generator_count, max_len)
    require(cert["words_checked"] == expected,
            f"certificate checked {cert['words_checked']} words, "
            f"expected {expected}")
    require(cert["ok"] and not cert["failures"] and cert["distinct_points_ok"],
            "certificate is not clean")
    require(cert["max_len"] == max_len, "certificate depth differs")


def check_round_trip(doc: dict, reread: dict, matrices) -> None:
    """The document re-read by the program re-serialises to itself."""
    require(reread["generators"] == doc["generators"],
            "generator document does not round-trip")
    got = [(g["a"], g["b"]) for g in doc["generators"]]
    want = [([list(r) for r in a], [list(r) for r in b]) for a, b in matrices]
    require(got == want, "document matrices differ from the sampled pair")


def check_crosscheck(doc: dict, generator_count: int, max_len: int) -> None:
    expected = reduced_word_total(generator_count, max_len)
    require(doc["ok"] and not doc["failures"],
            f"crosscheck reported {len(doc['failures'])} failures")
    require(set(doc["checks"]) == {"degree", "isometry", "noether",
                                   "adjoint", "gram"},
            f"unexpected crosscheck checks {sorted(doc['checks'])}")
    for name, count in doc["checks"].items():
        require(count == expected,
                f"crosscheck {name} ran {count} times, expected {expected}")


def check_refused(rc: int, wrote: bool, stderr: str,
                  generator_count: int) -> None:
    """The pair of identical involutions, sampled to depth 2, is refused by
    its certificate.

    Both generators are sigma, an involution, so every reduced word of
    length 2 composes to the identity and must fail the degree check,
    while the words of length 1 (sigma itself) pass.
    """
    require(rc == 1 and not wrote,
            f"degenerate pair was not refused (exit {rc}, wrote {wrote})")
    require("refusing to emit an uncertified tuple" in stderr,
            "degenerate pair was not refused by its certificate")
    failing = {tuple(tuple(l) for l in ast.literal_eval(m))
               for m in re.findall(r"^certificate failure on word (\[.*\]):",
                                   stderr, re.M)}
    want = {w for w in reduced_words(generator_count, 2) if len(w) == 2}
    require(failing == want,
            f"certificate failed {len(failing)} words, expected the "
            f"{len(want)} reduced words of length 2")


# -- curves -------------------------------------------------------------------


def check_pullback(word_len: int, curve_degree: int, strict_degree: int,
                   removed: Sequence[Tuple[int, int]],
                   base_points: Sequence[Tuple[int, int]],
                   lelong: Sequence[Tuple[int, int]], where: str) -> None:
    """removed: (factor degree, exponent); base_points: (word mult, nu);
    lelong: (nu_poly, nu_class) per base point."""
    raw = curve_degree * 2 ** word_len
    require(strict_degree + sum(d * e for d, e in removed) == raw,
            f"{where}: strict {strict_degree} + removed != {raw}")
    require(len(lelong) == len(base_points) and lelong,
            f"{where}: multiplicity routes cover different point sets")
    for nu_poly, nu_class in lelong:
        require(nu_poly == nu_class,
                f"{where}: nu_poly {nu_poly} != nu_class {nu_class}")
    require([nu for _m, nu in base_points] == [p for p, _c in lelong],
            f"{where}: report and crosscheck multiplicities differ")
    require(sum(nu * nu for _m, nu in base_points) <= strict_degree ** 2,
            f"{where}: sum of squared multiplicities exceeds degree^2")
    require(all(nu >= 0 for _m, nu in base_points),
            f"{where}: negative multiplicity")


def check_equidist(doc: dict, generator_count: int, seed: int,
                   max_len: int) -> None:
    itinerary = replica_itinerary(generator_count, max_len, seed)
    require([tuple(l) for l in doc["itinerary"]] == list(itinerary),
            f"equidist seed {seed}: itinerary differs from the replica")
    rows = doc["rows"]
    require(rows and rows[0]["prefix_len"] == 0,
            f"equidist seed {seed}: no rows")
    for r in rows:
        k = r["prefix_len"]
        require(r["reduced_len"] == len(free_reduce(itinerary[:k])),
                f"equidist seed {seed}: reduced length at prefix {k}")
        require(r["distance_step"] == 0.0,
                f"equidist seed {seed}: distance_step {r['distance_step']} "
                f"at prefix {k}")
        require(r["bound_lhs"] <= r["bound_rhs"],
                f"equidist seed {seed}: squared multiplicities exceed "
                f"degree^2 at prefix {k}")
    if is_cancellation_free(itinerary):
        require(len(rows) == max_len + 1 and not doc["warnings"],
                f"equidist seed {seed}: series truncated")
        for r in rows:
            want = math.sqrt(4.0 ** -r["prefix_len"] - 4.0 ** -max_len)
            require(abs(r["distance"] - want) < 1e-12,
                    f"equidist seed {seed}: distance {r['distance']} at "
                    f"prefix {r['prefix_len']}, closed form {want}")


# -- walks --------------------------------------------------------------------


def check_walk_artifact(doc: dict, generator_count: int, steps: int,
                        tracked: bool) -> None:
    require(not doc["aborts"], f"walk artifact records aborts {doc['aborts']}")
    for trial in doc["trials"]:
        where = f"walk seed {trial['seed']}"
        itinerary = replica_itinerary(generator_count, steps, trial["seed"])
        require([tuple(l) for l in trial["itinerary"]] == list(itinerary),
                f"{where}: itinerary differs from the replica")
        require(trial["steps_done"] == steps, f"{where}: stopped early")
        require(trial["final_reduced_len"] == len(free_reduce(itinerary)),
                f"{where}: final reduced length disagrees with the replica")
        if tracked:
            check_checkpoints(
                itinerary,
                [(c["n"], c["reduced_len"], class_from_entries(c["class"]))
                 for c in trial["checkpoint_classes"]], where)


def final_class(trial: dict) -> Tuple[int, Dict]:
    last = trial["checkpoint_classes"][-1]
    require(last["n"] == trial["steps_done"], "final class not kept")
    return class_from_entries(last["class"])


def check_compare(result: dict, trial_a: dict, trial_b: dict) -> None:
    la, lb = trial_a["final_reduced_len"], trial_b["final_reduced_len"]
    want = pairing(final_class(trial_a), final_class(trial_b)) \
        / float(2 ** (la + lb))
    require(abs(result["pairing"] - want) <= 1e-12 * max(1.0, abs(want)),
            f"compare pairing {result['pairing']}, expected {want}")
    require(result["control_a"] == 4.0 ** -la
            and result["control_b"] == 4.0 ** -lb,
            "compare controls are not 4^-length")
    require(result["reduced_len"] == [la, lb],
            "compare replayed to other lengths")


def check_drift(doc: dict, steps: int) -> float:
    lengths = [t["final_reduced_len"] for t in doc["trials"]]
    mean = sum(lengths) / (len(lengths) * steps) * math.log(2.0)
    want = 0.5 * math.log(2.0)
    require(abs(mean - want) <= DRIFT_TOLERANCE * want,
            f"mean drift {mean:.5f} is not within {DRIFT_TOLERANCE:.0%} of "
            f"{want:.5f}")
    return mean


# -- sympy oracles ------------------------------------------------------------


def _sympy():
    import sympy
    return sympy


def sympy_word_map(letter_matrices: Dict[Letter, Tuple], word):
    """Components of the composite as sympy Polys, common factor removed.

    letter_matrices maps a letter to its (outer, inner) integer matrices;
    one letter sends a triple T to outer . sigma(inner . T) with
    sigma(u, v, w) = (v w, u w, u v); the last letter of the word acts first.
    """
    sp = _sympy()
    x, y, z = sp.symbols("x y z")
    comps = [sp.Poly(v, x, y, z) for v in (x, y, z)]
    for letter in reversed(word):
        outer, inner = letter_matrices[letter]
        t = [sum((c * p for c, p in zip(row, comps)), sp.Poly(0, x, y, z))
             for row in inner]
        s = (t[1] * t[2], t[0] * t[2], t[0] * t[1])
        raw = [sum((c * p for c, p in zip(row, s)), sp.Poly(0, x, y, z))
               for row in outer]
        g = sp.gcd(sp.gcd(raw[0], raw[1]), raw[2])
        comps = [sp.div(p, g)[0] for p in raw]
    return comps


def _total_degree(comps) -> int:
    return max(p.total_degree() for p in comps if not p.is_zero)


def check_sympy_degrees(letter_matrices, words) -> None:
    """Degree 2^len on recomposition, and each letter undone by its inverse."""
    sp = _sympy()
    x, y, z = sp.symbols("x y z")
    for word in words:
        deg = _total_degree(sympy_word_map(letter_matrices, word))
        require(deg == 2 ** len(word),
                f"sympy recomposes {list(word)} to degree {deg}")
    for letter in letter_matrices:
        comps = sympy_word_map(letter_matrices, (letter, (letter[0], -letter[1])))
        ratios = [sp.cancel(p.as_expr() / v) for p, v in zip(comps, (x, y, z))]
        require(all(r == ratios[0] for r in ratios) and ratios[0] != 0,
                f"letter {letter} is not undone by its inverse")


def sympy_jacobian(comps):
    """Determinant of the matrix of partials of a Poly triple."""
    sp = _sympy()
    x, y, z = sp.symbols("x y z")
    m = [[p.diff(v) for v in (x, y, z)] for p in comps]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def sympy_strict_transform(comps, jac, curve):
    """Raw pullback with every factor of the jacobian removed, by factoring.

    comps and jac come from sympy_word_map and sympy_jacobian; curve is a
    sympy Poly in x, y, z.
    """
    sp = _sympy()
    raw = sp.Poly(0, *curve.gens)
    for (i, j, k), c in curve.terms():
        raw += c * comps[0] ** i * comps[1] ** j * comps[2] ** k
    strict = sp.Poly(1, *curve.gens)
    for factor, exp in sp.factor_list(raw)[1]:
        if factor.total_degree() > 0 and not sp.div(jac, factor)[1].is_zero:
            strict = strict * factor ** exp
    return strict


def homogeneous_to_sympy(terms):
    """A form given as ((i, j, k), coefficient) pairs, as a sympy Poly."""
    sp = _sympy()
    x, y, z = sp.symbols("x y z")
    expr = sum(sp.Rational(Fraction(c).numerator, Fraction(c).denominator)
               * x ** i * y ** j * z ** k for (i, j, k), c in terms)
    return sp.Poly(expr, x, y, z)


def check_strict_sympy(letter_matrices, word, curve_text: str, strict_terms,
                       where: str, cache: dict) -> None:
    """cache keeps each word's sympy composite and jacobian across curves."""
    sp = _sympy()
    x, y, z = sp.symbols("x y z")
    if word not in cache:
        comps = sympy_word_map(letter_matrices, word)
        cache[word] = comps, sympy_jacobian(comps)
    curve = sp.Poly(sp.sympify(curve_text.replace("^", "**"),
                               locals={"x": x, "y": y, "z": z}), x, y, z)
    want = sympy_strict_transform(*cache[word], curve)
    got = homogeneous_to_sympy(strict_terms)
    require(want.monic() == got.monic(),
            f"{where}: strict transform differs from sympy factoring")
