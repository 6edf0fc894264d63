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
of `modp.CERT_LINES`: each node of the word tree carries the restrictions
mod p of its raw composed triple to those lines, never the bivariate
triple.  Restriction commutes with composition, (letter o G)|_L =
letter o (G|_L), so a letter acts on the restrictions directly: two
linear combinations and three univariate products per line.  A line on
which `modp.coprime` certifies the three restrictions proves the raw
triple coprime, so its exact stripped degree is the full 2^length; the
`modp` docstring gives the argument.

Only the leaves (words of length max_len) need a polynomial verdict.  A
common factor h of a word u's raw triple divides every component of b.u
for the letter's inner matrix b, so h^2 divides each of the three
products in sigma(b.u), and hence every component of the raw triple of
f o u.  By induction a coprime leaf proves every inner word on its path
coprime, and with it each inner word's degree 2^length.  A leaf the
exact decision passes proves as much, since a factor stripped anywhere on
its path would leave it short of degree 2^length.  So the first pass
carries the inner words' line restrictions with no verdict and
judges the leaves alone; the class side still runs on every node.

Leaves are most of the tree and gate nothing below them, so their
verdicts are deferred.  A leaf whose class side passes joins a queue with
its DFS index; every `LEAF_BATCH` leaves, and at the end of the tree, the
queue is judged at once: one batched letter step gives each leaf's
restrictions to the first certificate line, and `modp.coprime_lanes`
runs the gcds in lockstep.  That is exactly the first `modp.coprime`
call of the scalar step, so a lane that certifies needs nothing more,
and a lane that does not goes through the scalar step on all six lines
and then the exact decision.  Words where the fast check cannot certify
(a genuine degree drop, or the rare prime mishap) are recomposed exactly
over the integers and judged on the true triple.

The first pass gives up at the first sign of failure: a class-side miss,
before any exact decision, or a leaf the exact decision rejects.  The
tree then reruns with a verdict on every word, which traces a failure to
the shortest failing word: an inner word without a fast verdict is
decided exactly, and one that passes reseeds its subtree from the
restrictions of its exact triple.  Class transport degeneracies and
degree drops on either side are recorded in the report; the rerun prunes
the tree below a failing word but keeps checking sibling branches.  Its
failures carry their DFS index and are kept in that order; the report is
then cut at the `failure_cap`-th one, which gives the `words_checked`,
`failures` and `truncated` a tree judging each word as it visits it
would give.  The rerun stops once it knows of `failure_cap` failures,
and queued leaves past the cut are not adjudicated.  Both passes share
one operator cache, whose memoised point images (the `picard` docstring)
spare the rerun the class side's transports.

`perfbench`'s tracer wraps `check_genericity` and `_exact_word_components`
by replacing them in this module's namespace, so both stay module-level
names and every call to them, `walk.crosscheck_words`'s too, goes
through the module globals.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Tuple

import numpy as np

from . import modp
from .errors import DegenerateComposition, DegenerateConfiguration
from .maps import Components, GeneratorData, IDENTITY_COMPONENTS, Mat3, compose_letter
from .picard import OperatorCache, PointRegistry, WeilClass

Letter = Tuple[int, int]  # (generator index, sign)
Word = Tuple[Letter, ...]


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
    truncated: bool  # the tree stopped at failure_cap with words unchecked

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
# A node of the tree carries a (lines, 3, d+1) int64 array of the mod-p
# restrictions of its raw composed triple to the lines of modp.CERT_LINES.


def _lines_from_components(comps: Components):
    """Mod-p restrictions of an exact triple to every certificate line."""
    d = next(p.degree for p in comps if not p.is_zero)
    lines = [[modp.restrict(p, line) for p in comps]
             for line in modp.CERT_LINES.values()]
    return np.array(lines, dtype=np.int64), d


def _mat_modp(rows: Mat3):
    return np.array([[c % modp.P for c in row] for row in rows], dtype=np.int64)


def _letter_step(gen: GeneratorData, sign: int, lines, d: int):
    """The letter composed onto the line restrictions: those of the new raw
    triple, of degree 2d, with no verdict on them."""
    a_rows, b_rows = gen.letter_matrices(sign)
    t = _mat_modp(b_rows) @ lines % modp.P
    s = np.empty((len(modp.CERT_LINES), 3, 2 * d + 1), dtype=np.int64)
    for li, (t0, t1, t2) in enumerate(t):
        s[li, 0] = np.convolve(t1, t2)
        s[li, 1] = np.convolve(t0, t2)
        s[li, 2] = np.convolve(t0, t1)
    return _mat_modp(a_rows) @ (s % modp.P) % modp.P


def _modp_step(gen: GeneratorData, sign: int, lines, d):
    """Fast certified step on the line restrictions; None means no verdict."""
    new_lines = _letter_step(gen, sign, lines, d)
    if not any(modp.coprime(rs) for rs in new_lines.tolist()):
        return None  # no line certifies the raw triple coprime
    return new_lines, 2 * d


def _exact_word_components(gens, word: Word) -> Components:
    comps = IDENTITY_COMPONENTS
    for letter in reversed(word):
        comps = compose_letter(*gens[letter[0]].letter_matrices(letter[1]), comps)
    return comps


def _adjudicate(gens, word: Word, class_degree: Optional[int],
                transport_fail: Optional[str]):
    """Exact verdict on a word the fast path left open: the failure, or
    the exact triple of a word that passes."""
    expected = 2 ** len(word)
    try:
        comps = _exact_word_components(gens, word)
        poly_degree = next(p.degree for p in comps if not p.is_zero)
    except (DegenerateComposition, DegenerateConfiguration) as exc:
        return WordCheck(word, expected, None, class_degree,
                         f"exact composition failed: {exc}")
    if transport_fail is not None:
        return WordCheck(word, expected, poly_degree, None,
                         f"class transport degenerated: {transport_fail}")
    if poly_degree != expected and class_degree != expected:
        reason = "degree dropped on both sides"
    elif poly_degree != expected:
        reason = "polynomial degree dropped"
    elif class_degree != expected:
        reason = "class-side degree dropped"
    else:
        return comps  # rare prime mishap: the exact triple is fine
    return WordCheck(word, expected, poly_degree, class_degree, reason)


# -- deferred leaves ------------------------------------------------------
# A leaf whose class side passes waits in a queue as
# (seq, word, parent lines, parent degree); a flush judges the whole
# queue on the first certificate line in numpy lanes.

# Leaves per flush.  Lane temporaries grow with it; BENCH_certify_lanes.json
# records the sizing against time and peak resident set.
LEAF_BATCH = 81


def _leaf_verdicts(gens, queue) -> List[bool]:
    """`modp.coprime` on the first certificate line of every queued leaf,
    whose restrictions come from its parent's in one batched letter step."""
    mats = {letter: [_mat_modp(rows) for rows in
                     gens[letter[0]].letter_matrices(letter[1])]
            for letter in {item[1][0] for item in queue}}
    t = np.array([mats[item[1][0]][1] for item in queue]) \
        @ np.array([item[2][0] for item in queue])
    t %= modp.P
    # the products t1*t2, t0*t2, t0*t1, by shift and add
    width = t.shape[2]
    s = np.zeros((len(t), 3, 2 * width - 1), dtype=np.int64)
    for out, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
        for k in range(width):
            s[:, out, k:k + width] += t[:, i, k:k + 1] * t[:, j]
    s %= modp.P
    s = np.array([mats[item[1][0]][0] for item in queue]) @ s
    s %= modp.P
    return modp.coprime_lanes(s)


# -- the certification tree ---------------------------------------------


class _GiveUp(Exception):
    """The leaves-only pass met a failure: the per-word tree traces it."""


def check_genericity(gens: Tuple[GeneratorData, ...], max_len: int,
                     failure_cap: int = 20) -> GenericityReport:
    """Walk the reduced-word tree and certify free degree growth on it."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    pts = [p for g in gens for p in g.base_pts + g.inv_base_pts]
    distinct_ok = len(set(pts)) == 6 * len(gens)
    # one cache for both passes: its memoised images stay exact
    cache = OperatorCache(tuple(gens), PointRegistry("exact"))
    try:
        checked, failures, truncated = _tree(gens, cache, max_len,
                                             failure_cap, leaves_only=True)
    except _GiveUp:
        checked, failures, truncated = _tree(gens, cache, max_len,
                                             failure_cap, leaves_only=False)
    return GenericityReport(
        max_len=max_len,
        generator_count=len(gens),
        words_checked=checked,
        distinct_points_ok=distinct_ok,
        failures=failures,
        truncated=truncated,
    )


def _tree(gens, cache: OperatorCache, max_len: int, failure_cap: int,
          leaves_only: bool):
    """One DFS over the reduced words: (words checked, failures, truncated).

    With `leaves_only`, inner words carry their line restrictions with no
    polynomial verdict, and the first failure raises `_GiveUp`."""
    letters = all_letters(len(gens))
    failures: List[Tuple[int, WordCheck]] = []  # (seq, check), by seq
    queue = []
    checked = 0
    truncated = False

    def fail(seq: int, check: WordCheck) -> None:
        if leaves_only:
            raise _GiveUp
        insort(failures, (seq, check), key=itemgetter(0))

    def flush() -> None:
        verdicts = _leaf_verdicts(gens, queue)
        for (seq, word, lines, d), ok in zip(queue, verdicts):
            if ok:
                continue
            if bisect_left(failures, seq, key=itemgetter(0)) >= failure_cap:
                break  # this leaf and the rest lie past the cap
            if _modp_step(gens[word[0][0]], word[0][1], lines, d) is None:
                verdict = _adjudicate(gens, word, 2 ** len(word), None)
                if isinstance(verdict, WordCheck):
                    fail(seq, verdict)
        queue.clear()

    def visit(word: Word, lines, d: int, push: WeilClass) -> None:
        nonlocal checked, truncated
        leaf = len(word) + 1 == max_len
        for letter in letters:
            if word and letter == _inverse_letter(word[0]):
                continue
            if len(failures) >= failure_cap:
                truncated = True
                return
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
            class_ok = transport_fail is None and class_degree == expected
            if leaves_only and not class_ok:
                raise _GiveUp  # before any exact decision
            if leaf and class_ok:
                queue.append((checked, new_word, lines, d))
                if len(queue) >= LEAF_BATCH:
                    flush()
                continue
            gen = gens[letter[0]]
            if leaves_only:
                fast = _letter_step(gen, letter[1], lines, d), 2 * d
            else:
                fast = _modp_step(gen, letter[1], lines, d) \
                    if class_ok else None
            if fast is None:
                # a leaf gets here only with a failing class side, which
                # the exact decision always reports
                verdict = _adjudicate(gens, new_word, class_degree,
                                      transport_fail)
                if isinstance(verdict, WordCheck):
                    fail(checked, verdict)
                    continue
                fast = _lines_from_components(verdict)
            visit(new_word, *fast, new_push)

    try:
        visit((), *_lines_from_components(IDENTITY_COMPONENTS),
              WeilClass.line_class())
        if queue:
            flush()
    finally:
        del visit  # the closure refers to itself: free the tree state now
    # replay in DFS order: the tree as the scalar walk would have cut it
    if 0 < failure_cap <= len(failures):
        cut = failures[failure_cap - 1][0]
        truncated = truncated or checked > cut
        checked = cut
        del failures[failure_cap:]
    return checked, tuple(check for _seq, check in failures), truncated
