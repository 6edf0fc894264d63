"""Certification that a generator tuple behaves freely up to a word length.

The certificate enumerates every reduced word over the letters (each
generator and its inverse, with no letter immediately followed by its
formal inverse) and verifies on each that the algebraic degree doubles
per letter, in two independent ways at once:

* polynomial side: the composed component triple, with the common factor
  composition creates stripped, has degree exactly 2^length;
* class side: the pushforward of the line class along the word has line
  coefficient exactly 2^length, which by adjunction equals the
  intersection of the pulled-back line class with the line class.

The polynomial side runs over a prime field and only on the six lines
of `_CERT_LINES`: each node of the word tree carries the restrictions mod
p of its raw composed triple to those lines, never the bivariate triple.
"Some line where the three restrictions are nonzero and coprime" is a
sound certificate that the exact stripped degree is the full 2^length:

* restriction commutes with composition, (letter o G)|_L = letter o (G|_L),
  so a letter acts on the restrictions directly: two linear combinations
  and three univariate products per line;
* a component that is nonzero on a line is nonzero over the rationals,
  and being homogeneous it keeps its exact degree;
* a common factor h of the exact triple is a primitive integer form, so
  h mod p is nonzero of the same degree and h|_L divides all three
  restrictions.  It can only hide in two ways, and each is skipped: the
  line lies in the zero set of h mod p (then the restrictions vanish), or
  h|_L is a power of s, a factor sitting at the line's point at infinity
  (then all three top coefficients vanish).

Words where the fast check cannot certify (a genuine degree drop, or the
rare prime mishap) are recomposed exactly over the integers and judged on
the true triple; a word that passes reseeds its subtree from the
restrictions of that exact triple.  Class transport degeneracies and
degree drops on either side are recorded in the report; the tree is
pruned below a failing word but sibling branches keep being checked.

`perfbench`'s tracer wraps `check_genericity` and `_exact_word_components`
by replacing them in this module's namespace, so both stay module-level
names and every call to them goes through the module globals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateComposition, DegenerateConfiguration
from .maps import Components, GeneratorData, IDENTITY_COMPONENTS, Mat3, compose_letter
from .picard import OperatorCache, PointRegistry, WeilClass

Letter = Tuple[int, int]  # (generator index, sign)
Word = Tuple[Letter, ...]

# Modulus for the fast path.  Residues lie in [0, p) with p < 2^20, so one
# slot of the convolution of two length-(d+1) restrictions is at most
# (d+1)(p-1)^2, inside int64 for every degree up to 2^22, and a linear
# combination of three residues is at most 3(p-1)^2.  Large enough that
# spurious vanishing is rare; spurious events only cost an exact recheck,
# never soundness.
_P = 1048573


@dataclass(frozen=True)
class WordCheck:
    """One failed word with what each side reported."""

    word: Word
    expected_degree: int
    poly_degree: Optional[int]
    class_degree: Optional[int]
    reason: str


@dataclass(frozen=True)
class GenericityReport:
    max_len: int
    generator_count: int
    words_checked: int
    distinct_points_ok: bool
    failures: Tuple[WordCheck, ...]

    @property
    def ok(self) -> bool:
        return self.distinct_points_ok and not self.failures


def reduced_word_count(generator_count: int, max_len: int) -> int:
    """Number of nonempty reduced words up to the given length."""
    n = 2 * generator_count
    total = 0
    block = n
    for _ in range(max_len):
        total += block
        block *= n - 1
    return total


def _inverse_letter(letter: Letter) -> Letter:
    return (letter[0], -letter[1])


def all_letters(generator_count: int) -> Tuple[Letter, ...]:
    out = []
    for i in range(generator_count):
        out.append((i, 1))
        out.append((i, -1))
    return tuple(out)


# -- certificate lines ---------------------------------------------------
# Each line is given by the images of x, y, z as binary forms in (t, s):
# "t", "s" or "0".  A component of degree d restricted to a line is the
# length-(d+1) coefficient vector of t^k s^(d-k), k = 0..d.  A node of the
# tree carries a (lines, 3, d+1) int64 array of these restrictions mod p.

_CERT_LINES = {
    "z0": "ts0",
    "y0": "t0s",
    "x0": "0ts",
    "z=x": "tst",
    "z=y": "tss",
    "y=x": "tts",
}


def _lines_from_components(comps: Components):
    """Mod-p restrictions of an exact triple to every certificate line."""
    d = next(p.degree for p in comps if not p.is_zero)
    out = np.zeros((len(_CERT_LINES), 3, d + 1), dtype=np.int64)
    for li, images in enumerate(_CERT_LINES.values()):
        for ci, p in enumerate(comps):
            for exps, c in p.terms:
                if any(e and v == "0" for e, v in zip(exps, images)):
                    continue
                k = sum(e for e, v in zip(exps, images) if v == "t")
                out[li, ci, k] = (int(out[li, ci, k]) + int(c)) % _P
    return out, d


def _mat_modp(rows: Mat3):
    return np.array([[c % _P for c in row] for row in rows], dtype=np.int64)


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _modp_gcd(u: list, v: list) -> list:
    """Gcd of univariate coefficient lists (low to high) over the prime field."""
    u = _trim([x % _P for x in u])
    v = _trim([x % _P for x in v])
    while v:
        if len(u) < len(v):
            u, v = v, u
            continue
        inv = pow(v[-1], _P - 2, _P)
        r = list(u)
        while len(r) >= len(v):
            f = (r[-1] * inv) % _P
            off = len(r) - len(v)
            if f:
                for idx, bv in enumerate(v):
                    r[idx + off] = (r[idx + off] - f * bv) % _P
            r.pop()
            _trim(r)
        u, v = v, _trim(r)
    return u if u else [0]


def _modp_coprime(lines, d) -> bool:
    """True certifies the exact triple is coprime; False is merely no verdict."""
    for rs in lines.tolist():
        if not all(any(r) for r in rs):
            continue  # the line lies in a component's zero set mod p
        if all(r[d] == 0 for r in rs):
            continue  # the restrictions share the line's point at infinity
        g = rs[0]
        for other in rs[1:]:
            g = _modp_gcd(g, other)
            if len(g) == 1:
                return True
    return False


def _modp_step(gen: GeneratorData, sign: int, lines, d):
    """Fast certified step on the line restrictions; None means no verdict."""
    a_rows, b_rows = gen.letter_matrices(sign)
    t = _mat_modp(b_rows) @ lines % _P
    s = np.empty((len(_CERT_LINES), 3, 2 * d + 1), dtype=np.int64)
    for li, (t0, t1, t2) in enumerate(t):
        s[li, 0] = np.convolve(t1, t2)
        s[li, 1] = np.convolve(t0, t2)
        s[li, 2] = np.convolve(t0, t1)
    new_lines = _mat_modp(a_rows) @ (s % _P) % _P
    if not _modp_coprime(new_lines, 2 * d):
        return None
    return new_lines, 2 * d


def _exact_word_components(gens, word: Word) -> Components:
    comps = IDENTITY_COMPONENTS
    for letter in reversed(word):
        comps = compose_letter(*gens[letter[0]].letter_matrices(letter[1]), comps)
    return comps


# -- the certification tree ---------------------------------------------


def check_genericity(gens: Tuple[GeneratorData, ...], max_len: int,
                     failure_cap: int = 20) -> GenericityReport:
    """Walk the reduced-word tree and certify free degree growth on it."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    pts = [p for g in gens for p in g.base_pts + g.inv_base_pts]
    distinct_ok = len(set(pts)) == 6 * len(gens)
    registry = PointRegistry("exact")
    cache = OperatorCache(tuple(gens), registry)
    letters = all_letters(len(gens))
    failures: List[WordCheck] = []
    checked = 0

    def visit(word: Word, lines, d: int, push: WeilClass) -> None:
        nonlocal checked
        for letter in letters:
            if len(failures) >= failure_cap:
                return
            if word and letter == _inverse_letter(word[0]):
                continue
            new_word = (letter,) + word
            expected = 2 ** len(new_word)
            checked += 1
            transport_fail = None
            class_degree = None
            new_push = None
            try:
                # prepending the letter pushes the class forward once
                # more; pushforward is pullback by the opposite sign
                new_push = cache.get(letter[0], -letter[1]).pullback(push)
                class_degree = new_push.line_coeff
            except DegenerateConfiguration as exc:
                transport_fail = str(exc)
            fast = None
            if transport_fail is None and class_degree == expected:
                fast = _modp_step(gens[letter[0]], letter[1], lines, d)
            if fast is None:
                # adjudicate this word exactly over the integers
                try:
                    comps = _exact_word_components(gens, new_word)
                    poly_degree = next(p.degree for p in comps if not p.is_zero)
                except (DegenerateComposition, DegenerateConfiguration) as exc:
                    failures.append(WordCheck(
                        new_word, expected, None, class_degree,
                        f"exact composition failed: {exc}"))
                    continue
                if transport_fail is not None:
                    failures.append(WordCheck(
                        new_word, expected, poly_degree, None,
                        f"class transport degenerated: {transport_fail}"))
                    continue
                if poly_degree != expected and class_degree != expected:
                    failures.append(WordCheck(
                        new_word, expected, poly_degree, class_degree,
                        "degree dropped on both sides"))
                    continue
                if poly_degree != expected:
                    failures.append(WordCheck(
                        new_word, expected, poly_degree, class_degree,
                        "polynomial degree dropped"))
                    continue
                if class_degree != expected:
                    failures.append(WordCheck(
                        new_word, expected, poly_degree, class_degree,
                        "class-side degree dropped"))
                    continue
                # rare prime mishap: the exact triple is fine, reseed and go on
                fast = _lines_from_components(comps)
            new_lines, nd = fast
            if len(new_word) < max_len:
                visit(new_word, new_lines, nd, new_push)

    visit((), *_lines_from_components(IDENTITY_COMPONENTS),
          WeilClass.line_class())
    return GenericityReport(
        max_len=max_len,
        generator_count=len(gens),
        words_checked=checked,
        distinct_points_ok=distinct_ok,
        failures=tuple(failures),
    )
