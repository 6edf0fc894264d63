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

Leaves are most of the tree and gate nothing below them, so they are
judged in batches.  A leaf whose class side passes joins a queue; every
`LEAF_BATCH` leaves, and at the end of the tree, the queue is judged at
once: one batched letter step gives each leaf's restrictions to the
first certificate line, and `modp.coprime_lanes` runs the gcds in
lockstep.  That is exactly the first `modp.coprime` call of the scalar
step, so a lane that certifies needs nothing more, and a lane that does
not goes through the scalar step on all six lines and then the exact
decision.  Words where the fast check cannot certify (a genuine degree
drop, or the rare prime mishap) are recomposed exactly over the integers
and judged on the true triple.

The first pass gives up at the first sign of failure: a class-side miss,
before any exact decision, or a leaf the exact decision rejects.  The
tree then reruns judging every word as it visits it, which traces a
failure to the shortest failing word: a word the scalar step leaves
without a verdict is decided exactly, and one that passes reseeds its
subtree from the restrictions of its exact triple.  Class transport
degeneracies and degree drops on either side are recorded in the report
in DFS order; the rerun prunes the tree below a failing word but keeps
checking sibling branches, and stops at the `failure_cap`-th failure.
Both passes share one registry, whose operators' memoised point images
(the `picard` docstring) spare the rerun the class side's transports.

Both passes, and `walk.crosscheck_words`, go through the one DFS of
`walk_words`, which hands each word the state its step made for the
word's parent, and read its polynomial degree with one `word_lines`.

`perfbench`'s tracer wraps `check_genericity` and `_exact_word_components`
by replacing them in this module's namespace, so both stay module-level
names and every call to them, `walk.crosscheck_words`'s too, goes
through the module globals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import modp
from .errors import DegenerateComposition, DegenerateConfiguration
from .maps import Components, GeneratorData, IDENTITY_COMPONENTS, compose_letter
from .picard import PointRegistry, WeilClass

Letter = Tuple[int, int]  # (generator index, sign)
# outermost letter first; itineraries are in time order
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


def inverse_letter(letter: Letter) -> Letter:
    return (letter[0], -letter[1])


def all_letters(generator_count: int) -> Tuple[Letter, ...]:
    out = []
    for i in range(generator_count):
        out.append((i, 1))
        out.append((i, -1))
    return tuple(out)


def walk_words(letters: Sequence[Letter], max_len: int,
               step: Callable[[Word, Any], Any], state: Any,
               word: Word = ()) -> None:
    """Visit the reduced words below `word` up to length max_len in DFS
    order, outermost letter first.  Each word w goes to step(w, state of
    w's parent), which returns w's own state, or None to skip w's subtree."""
    if len(word) == max_len:
        return
    for letter in letters:
        if word and letter == inverse_letter(word[0]):
            continue
        new_word = (letter,) + word
        new_state = step(new_word, state)
        if new_state is not None:
            walk_words(letters, max_len, step, new_state, new_word)


# -- certificate lines ---------------------------------------------------
# A node of the tree carries a (lines, 3, d+1) int64 array of the mod-p
# restrictions of its raw composed triple to the lines of modp.CERT_LINES.


def _lines_from_components(comps: Components):
    """Mod-p restrictions of an exact triple to every certificate line."""
    d = next(p.degree for p in comps if not p.is_zero)
    lines = [[modp.restrict(p, line) for p in comps]
             for line in modp.CERT_LINES.values()]
    return np.array(lines, dtype=np.int64), d


def identity_lines():
    """The certificate-line node (lines, degree) of the empty word."""
    return _lines_from_components(IDENTITY_COMPONENTS)


def _letter_mats(gen: GeneratorData, sign: int):
    """The letter's (outer, inner) matrices mod p, as a (2, 3, 3) array."""
    return np.array([[[c % modp.P for c in row] for row in rows]
                     for rows in gen.letter_matrices(sign)], dtype=np.int64)


def _letter_step(mats, lines):
    """Letters composed onto line restrictions, lane by lane: those of the
    new raw triples, of degree 2d, with no verdict on them.  `lines` is a
    (lanes, 3, d+1) residue array; `mats` is one `_letter_mats` array for
    every lane, or a (lanes, 2, 3, 3) stack of them."""
    t = mats[..., 1, :, :] @ lines % modp.P
    w = t.shape[2]
    # window j of a row v zero-padded by w-1 on each side holds
    # v[j-w+1 .. j], so slot j of u*v is that window times u reversed;
    # t1 and t2 alone need windows, a strided view made here because
    # numpy's sliding_window_view raised peak memory round by round
    padded = np.zeros((len(t), 2, 3 * w - 2), dtype=np.int64)
    padded[:, :, w - 1:2 * w - 1] = t[:, 1:]
    windows = np.ndarray((len(t), 2, 2 * w - 1, w), np.int64, padded, 0,
                         padded.strides + padded.strides[2:])
    rev = t[:, :2, ::-1, None]
    s = np.stack([(windows[:, v] @ rev[:, u])[..., 0]
                  for u, v in ((1, 1), (0, 1), (0, 0))], axis=1)
    s %= modp.P
    return mats[..., 0, :, :] @ s % modp.P


def _modp_step(gen: GeneratorData, sign: int, lines, d):
    """Fast certified step on the line restrictions; None means no verdict."""
    new_lines = _letter_step(_letter_mats(gen, sign), lines)
    if not any(modp.coprime(rs) for rs in new_lines.tolist()):
        return None  # no line certifies the raw triple coprime
    return new_lines, 2 * d


def _exact_word_components(gens, word: Word) -> Components:
    comps = IDENTITY_COMPONENTS
    for letter in reversed(word):
        comps = compose_letter(*gens[letter[0]].letter_matrices(letter[1]), comps)
    return comps


def word_lines(gens, word: Word, lines, d):
    """A word's certificate-line node (lines, degree) from its parent's
    (lines, d): the fast letter step where a line certifies the raw triple
    coprime, else the node of the exactly composed, stripped triple, whose
    degree is the honest one.  Raises what exact composition raises."""
    return _modp_step(gens[word[0][0]], word[0][1], lines, d) \
        or _lines_from_components(_exact_word_components(gens, word))


def _judge(gens, word: Word, lines, d, class_degree: Optional[int],
           transport_fail: Optional[str]):
    """The word's node, or its failure record.  The polynomial degree is
    `word_lines`' where the class side passed, and the exact composition's
    where it did not, for the record."""
    expected = 2 ** len(word)
    try:
        if class_degree == expected:
            node = word_lines(gens, word, lines, d)
        else:
            comps = _exact_word_components(gens, word)
            node = None, next(p.degree for p in comps if not p.is_zero)
    except (DegenerateComposition, DegenerateConfiguration) as exc:
        return WordCheck(word, expected, None, class_degree,
                         f"exact composition failed: {exc}")
    poly_degree = node[1]
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
        return node  # composed exactly, a rare prime mishap: the triple is fine
    return WordCheck(word, expected, poly_degree, class_degree, reason)


def _push_letter(gens, registry, letter: Letter, push: WeilClass):
    """The class side of prepending a letter: (pushed class, its line
    coefficient, None), or (None, None, the transport failure)."""
    try:
        # prepending the letter pushes the class forward once more
        new_push = registry.push(push, gens[letter[0]], letter[1])
    except DegenerateConfiguration as exc:
        return None, None, str(exc)
    return new_push, new_push.line_coeff, None


# -- batched leaves -------------------------------------------------------
# A leaf whose class side passes waits in a queue as
# (word, parent lines, parent degree); a flush judges the whole queue on
# the first certificate line in numpy lanes.

# Leaves per flush.  Lane temporaries grow with it; BENCH_certify_lanes.json
# records the sizing against time and peak resident set.
LEAF_BATCH = 81


def _leaf_verdicts(gens, queue) -> List[bool]:
    """`modp.coprime` on the first certificate line of every queued leaf,
    whose restrictions come from its parent's in one batched letter step."""
    mats = {letter: _letter_mats(gens[letter[0]], letter[1])
            for letter in {word[0] for word, _lines, _d in queue}}
    lanes = _letter_step(np.array([mats[word[0]] for word, _l, _d in queue]),
                         np.array([lines[0] for _w, lines, _d in queue]))
    return modp.coprime_lanes(lanes)


# -- the certification tree ---------------------------------------------


class _Stop(Exception):
    """Ends a pass over the tree: the leaves-only pass met a failure, or
    the per-word tree reached its failure cap."""


def check_genericity(gens: Tuple[GeneratorData, ...], max_len: int,
                     failure_cap: int = 20) -> GenericityReport:
    """Walk the reduced-word tree and certify free degree growth on it."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    pts = [p for g in gens for p in g.base_pts + g.inv_base_pts]
    distinct_ok = len(set(pts)) == 6 * len(gens)
    # one registry for both passes: its operators' memoised images stay exact
    registry = PointRegistry()
    root = (*identity_lines(), WeilClass.line_class())
    try:
        if failure_cap < 1:
            raise _Stop  # the per-word tree stops before its first word
        _leaf_pass(gens, registry, max_len, root)
        checked, failures, truncated = \
            reduced_word_count(len(gens), max_len), (), False
    except _Stop:
        checked, failures, truncated = _word_pass(gens, registry, max_len,
                                                  failure_cap, root)
    return GenericityReport(
        max_len=max_len,
        generator_count=len(gens),
        words_checked=checked,
        distinct_points_ok=distinct_ok,
        failures=failures,
        truncated=truncated,
    )


def _leaf_pass(gens, registry: PointRegistry, max_len: int, root) -> None:
    """The tree with a polynomial verdict on the leaves alone: inner words
    carry their line restrictions, and any failure raises `_Stop`."""
    queue = []

    def flush() -> None:
        for (word, lines, d), ok in zip(queue, _leaf_verdicts(gens, queue)):
            verdict = ok or _judge(gens, word, lines, d, 2 ** len(word), None)
            if isinstance(verdict, WordCheck):
                raise _Stop
        queue.clear()

    def step(word: Word, node):
        lines, d, push = node
        push, class_degree, _ = _push_letter(gens, registry, word[0], push)
        if class_degree != 2 ** len(word):
            raise _Stop  # before any exact decision
        if len(word) < max_len:
            return (_letter_step(_letter_mats(gens[word[0][0]], word[0][1]),
                                 lines), 2 * d, push)
        queue.append((word, lines, d))
        if len(queue) >= LEAF_BATCH:
            flush()
        return None

    walk_words(all_letters(len(gens)), max_len, step, root)
    if queue:
        flush()


def _word_pass(gens, registry: PointRegistry, max_len: int,
               failure_cap: int, root):
    """The tree judging every word as it visits it: (words checked,
    failures in DFS order, truncated)."""
    failures: List[WordCheck] = []
    checked = 0

    def step(word: Word, node):
        nonlocal checked
        if len(failures) >= failure_cap:
            raise _Stop  # this word and any after it stay unchecked
        checked += 1
        lines, d, push = node
        push, class_degree, transport_fail = _push_letter(gens, registry,
                                                          word[0], push)
        verdict = _judge(gens, word, lines, d, class_degree, transport_fail)
        if isinstance(verdict, WordCheck):
            failures.append(verdict)
            return None
        return (*verdict, push)

    try:
        walk_words(all_letters(len(gens)), max_len, step, root)
    except _Stop:
        return checked, tuple(failures), True
    return checked, tuple(failures), False
