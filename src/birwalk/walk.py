"""Random left-products of generators acting on classes at infinity.

The walk multiplies a fresh random letter onto the left of the running
composite and tracks two class sequences over one point registry:

* the pullback track c_n, the pullback of the line class under the
  composite, whose normalization is the boundary approximant; and
* optionally the pushforward track e_n, the pushforward of the line
  class under the composite, which feeds the lower-bound ratio and
  decay diagnostics.

Formal cancellation is handled on a stack: a letter that is the formal
inverse of the newest stacked letter pops it instead of pushing, and
the pullback class is rolled back by inverting the linear update.  Each
stack entry keeps the three chained classes its push subtracted, so the
rollback adds back exactly those classes, with no transport at all.  The
pop also files the popped entry itself, under its letter, with the entry
below it (or a root slot under an empty stack), and pushing that letter
onto that entry again pushes the filed entry back instead of
transporting anything: the chains depend only on the letter and the
stack below.  The entry keeps what was filed under it in turn, so after
pushes a, b and pops b, a, pushing a and then b transports nothing.
Each filed entry was made by one push, so the filed entries are bounded
by the pushes made.

One append step with letter f on composite w (reduced stack bottom to
top f_1 .. f_n) updates c by

    c'  =  2 c - sum_i  w^* [exc at p_i]

over the three indeterminacy points p_i of f, because the pullback of
the line class under f is twice the line class minus those three
exceptionals, and pullback along the composite applies letter by
letter, newest letter first.  Each w^*[exc] starts as a single carried
point and is moved down the stack by one ``PointRegistry.carry`` until
it either survives to the bottom (one new exceptional class) or hits a
stacked letter's table (``carry`` raises ``TablePointHit`` naming the
hop) and fans out: ``picard.pull`` takes the table point's exceptional
class through that hop and the ones below it.  Walks over one registry
share its letter operators.

Points are exact plane points, whose integers about double their bits
per reduced letter.  ``carry`` hops on residues and builds integers only
where a zero or a fingerprint hit needs them, so a table point, a
contracted line or a false zero is decided and reported as by an
all-integer walk, and a walk runs to any depth: a 2000-step pullback
walk reaches reduced length about 1000 with no integer built.  An event
that would need integers past ``picard.BUILD_BITS`` aborts the walk as
undecided.  A report names its points by their canonical integers while
its reduced length stays at most ``INTEGER_NAMES_LEN`` (16); a deeper
one names them by their fingerprints mod ``FINGERPRINT_P``, which it
records as ``residue_prime``.

The pushforward track needs no chains: the new letter acts outermost, so
e' is one ``PointRegistry.push`` of e by the letter, and on a
cancelling letter ``carry`` returns each point to its recipe's source.

The degree invariant (line coefficient equals 2^reduced-length), the
unit self-intersection, and the nonnegativity of the point
multiplicities are asserted as the walk runs, so a silent breakdown of
the free-basis bookkeeping cannot pass.  Class tracking can also be
switched off entirely, which is all the degree-growth and drift
statistics need: the degree of the composite is exactly
2^reduced-length, so deep runs do not pay for (or abort on) geometry
they never consult.  A walk that tracks neither class steps no
``WalkState``: its rows come from the reduced lengths of a plain letter
stack, the free reduction ``reduced_middle_length`` runs too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import projective
from .config import WALK_ARTIFACT_VERSION
from .errors import DegenerateConfiguration, TablePointHit
from .genericity import (Letter, Word, all_letters, identity_lines,
                         inverse_letter, walk_words, word_lines)
from .maps import GeneratorData
from .picard import (
    LetterOperator,
    PointRegistry,
    WeilClass,
    class_to_jsonable,
    coefficient_l2_diff,
    pull,
)

LOG2 = math.log(2.0)
# the deepest reduced length whose reports name points by their integers,
# which reach about 2^18 bits there
INTEGER_NAMES_LEN = 16
# crosscheck_words stops its word tree at this many failure records
CROSSCHECK_FAILURE_CAP = 50


def random_itinerary(generator_count: int, steps: int,
                     rng: random.Random) -> Word:
    letters = all_letters(generator_count)
    # choice draws the stream of randrange(len(letters)), one call cheaper
    return tuple([rng.choice(letters) for _ in range(steps)])


def _reduced_lengths(letters: Sequence[Letter]) -> List[int]:
    """The freely reduced length of each nonempty prefix of ``letters``."""
    # each stacked letter's slot holds the inverse of the letter below it
    stack: List[Optional[Letter]] = []
    top = None  # the inverse of the newest stacked letter
    lengths = []
    for letter in letters:
        if letter == top:
            top = stack.pop()
        else:
            stack.append(top)
            top = inverse_letter(letter)
        lengths.append(len(stack))
    return lengths


def reduced_middle_length(itinerary: Word, lo: int, hi: int) -> int:
    """Reduced length of the letter block strictly between positions lo and hi.

    The pairing of the pullback-track classes at times lo and hi equals
    two to this power, by the isometry property of each letter's action.
    """
    if lo > hi:
        lo, hi = hi, lo
    return (_reduced_lengths(itinerary[lo:hi]) or [0])[-1]


def normalized_pairing(c1: WeilClass, len1: int, c2: WeilClass, len2: int) -> float:
    """Pairing of two tracked classes after dividing each by its degree."""
    return c1.intersect(c2) / (1 << (len1 + len2))


# 4^-537 = 2^-1074 is the least positive float
_LAST_POW4_LEN = 537


def normalized_self_pairing(reduced_len: int) -> Optional[float]:
    """4^-reduced_len, the pairing of a walk's normalized class with
    itself, or None past length 537, where it underflows to 0.0."""
    return 4.0 ** -reduced_len if reduced_len <= _LAST_POW4_LEN else None


# -- the stacked state --------------------------------------------------


@dataclass
class _StackEntry:
    letter: Letter
    pull_op: Optional[LetterOperator]
    # the chained base classes the push subtracted; the pop adds them back
    chained: Optional[List[WeilClass]]
    # letter -> the entry popped off this one, with its own filings
    popped: Optional[Dict[Letter, "_StackEntry"]] = None


class WalkState:
    """Mutable walk state over a registry, which may be shared."""

    def __init__(self, gens: Tuple[GeneratorData, ...],
                 track_classes: bool = True,
                 track_pushforward: bool = False,
                 registry: Optional[PointRegistry] = None):
        self.gens = gens
        self.track_classes = track_classes
        self.track_pushforward = track_pushforward
        self.registry = registry if registry is not None else PointRegistry()
        self.stack: List[_StackEntry] = []
        self._root_popped: Dict[Letter, _StackEntry] = {}
        self.n = 0
        self.pull_class = WeilClass.line_class() if track_classes else None
        self.push_class = WeilClass.line_class() if track_pushforward else None

    @property
    def reduced_len(self) -> int:
        return len(self.stack)

    @property
    def hops(self) -> Tuple[LetterOperator, ...]:
        """The stack's pullback operators, newest (outermost) first."""
        return tuple(e.pull_op for e in reversed(self.stack))

    def _op(self, letter: Letter) -> LetterOperator:
        return self.registry.operator(self.gens[letter[0]], letter[1])

    # a single carried point moved through a run of operators (newest first)

    def _chain_point(self, hops: Tuple[LetterOperator, ...],
                     base: int) -> WeilClass:
        try:
            return WeilClass(0, {self.registry.carry(base, hops): -1})
        except TablePointHit as hit:
            table = hops[hit.hop].table_ids[hit.index]
            return pull(WeilClass.exceptional_class(table), hops[hit.hop:])

    def _assemble(self, base: WeilClass, chained: List[WeilClass]) -> WeilClass:
        line = 2 * base.line_coeff
        part = {pid: 2 * v for pid, v in base.point_part.items()}
        for u in chained:
            line -= u.line_coeff
            for pid, coeff in u.point_part.items():
                nv = part.get(pid, 0) - coeff
                if nv == 0:
                    part.pop(pid, None)
                else:
                    part[pid] = nv
        return WeilClass(line, part)

    def _disassemble(self, cur: WeilClass, chained: List[WeilClass]) -> WeilClass:
        line = cur.line_coeff
        part = dict(cur.point_part)
        for u in chained:
            line += u.line_coeff
            for pid, coeff in u.point_part.items():
                nv = part.get(pid, 0) + coeff
                if nv == 0:
                    part.pop(pid, None)
                else:
                    part[pid] = nv
        if line % 2:
            raise AssertionError("rollback produced an odd line coefficient")
        half = {}
        for pid, coeff in part.items():
            if coeff % 2:
                raise AssertionError("rollback produced an odd point coefficient")
            half[pid] = coeff // 2
        return WeilClass(line // 2, half)

    def _chained_base_classes(self, op: LetterOperator) -> List[WeilClass]:
        hops = self.hops
        return [self._chain_point(hops, pid) for pid in op.base_ids]

    def _popped_here(self) -> Dict[Letter, _StackEntry]:
        """The entries popped off the current stack top, by letter."""
        if not self.stack:
            return self._root_popped
        top = self.stack[-1]
        if top.popped is None:  # made on demand: push-only walks file nothing
            top.popped = {}
        return top.popped

    def step(self, letter: Letter) -> None:
        """One letter onto the walk.  The state changes only once the
        step's invariants hold: a step that raises leaves the last
        completed one in place."""
        cancelling = bool(self.stack) and \
            letter == inverse_letter(self.stack[-1].letter)
        pull, push = self.pull_class, self.push_class
        if cancelling:
            entry = self.stack[-1]
            if self.track_classes:
                pull = self._disassemble(pull, entry.chained)
        elif self.track_classes:
            entry = self._popped_here().get(letter)
            if entry is None:
                pull_op = self._op(letter)
                entry = _StackEntry(letter, pull_op,
                                    self._chained_base_classes(pull_op))
            pull = self._assemble(pull, entry.chained)
        else:
            entry = _StackEntry(letter, None, None)
        if self.track_pushforward:
            # the new letter acts outermost on the pushforward track, and a
            # cancelling letter's operator undoes its partner exactly
            push = self.registry.push(push, self.gens[letter[0]], letter[1])
        # a mismatch here means overlapping indeterminacy collapsed the
        # degree: the generator tuple is not generic along the walked word
        depth = len(self.stack) + (-1 if cancelling else 1)
        expect = 1 << depth
        if self.track_classes and pull.line_coeff != expect:
            raise DegenerateConfiguration(
                f"degree invariant broken at step {self.n + 1}: line "
                f"coefficient {pull.line_coeff} vs reduced length {depth}")
        if push is not None and push.line_coeff != expect:
            raise DegenerateConfiguration(
                f"pushforward degree invariant broken at step {self.n + 1}")
        if cancelling:
            self.stack.pop()
            if self.track_classes:
                self._popped_here()[entry.letter] = entry
        else:
            self.stack.append(entry)
        self.pull_class, self.push_class = pull, push
        self.n += 1


# -- crosscheck tree ------------------------------------------------------


def crosscheck_words(gens: Tuple[GeneratorData, ...], max_len: int):
    """DFS over reduced words verifying the class calculus word by word;
    returns (words checked per check name, failure records in DFS order).

    The tree is `walk_words`'s: words, failure records' too,
    put the outermost (newest) letter first.  One walk state carries the
    pullback class; each word's step first pops it back to the word's
    parent, and popping by the formal inverse restores it bit-exactly.
    Each word checks: polynomial degree vs class degree on both the
    pullback and forward tracks, unit self-intersection, the one-letter
    degree recursion against the forward image's multiplicities at the
    new letter's base points, adjointness through a probe exceptional
    class, and the two-walk pairing identity against every ancestor.

    The polynomial degree is read by `genericity.word_lines`, as
    `check_genericity` reads it, off the mod-p restrictions of a word's
    raw triple to the certificate lines: a line where they are coprime
    proves the triple coprime (the `modp` docstring), so its degree is
    twice the parent's.  Only a word no line certifies is composed
    exactly; its stripped triple gives the degree and reseeds the subtree.
    """
    state = WalkState(gens)
    probe = WeilClass.exceptional_class(state._op((0, 1)).base_ids[0])
    checked = 0  # every check runs once on each word that reaches them
    failures: List[dict] = []

    def fail(word, check, detail):
        failures.append({"word": [list(l) for l in word], "check": check,
                         "detail": detail})

    def step(word: Word, node):
        nonlocal checked
        lines, d, pushed, push_line, ancestors = node
        letter = word[0]
        gen, sign = gens[letter[0]], letter[1]
        while len(state.stack) >= len(word):  # back to the word's parent
            state.step(inverse_letter(state.stack[-1].letter))
            # the tree never pushes a popped word again: drop its filing
            state._popped_here().clear()
        prev_line = state.pull_class.line_coeff
        try:
            op = state._op(letter)
            # the degree recursion consumes the multiplicities the forward
            # image class carries at the new letter's own indeterminacy
            # points
            base_mult = sum(push_line.point_part.get(pid, 0)
                            for pid in op.base_ids)
            state.step(letter)
        except DegenerateConfiguration as exc:
            fail(word, "degree", f"degenerate: {exc}")
            return None
        cls = state.pull_class
        try:
            new_pushed = state.registry.push(pushed, gen, sign)
            new_push_line = state.registry.push(push_line, gen, sign)
        except DegenerateConfiguration as exc:
            fail(word, "adjoint", f"probe transport degenerate: {exc}")
            return None
        # the fast letter step, and with no verdict, exact composition
        node = word_lines(gens, word, lines, d)
        poly_degree = node[1]
        checked += 1
        if poly_degree != cls.line_coeff \
                or poly_degree != new_push_line.line_coeff \
                or poly_degree != 2 ** len(word):
            fail(word, "degree",
                 f"poly {poly_degree} vs class {cls.line_coeff} "
                 f"vs forward class {new_push_line.line_coeff} "
                 f"vs expected {2 ** len(word)}")
        if cls.self_intersection() != 1:
            fail(word, "isometry",
                 f"self-intersection {cls.self_intersection()}")
        if cls.line_coeff != 2 * prev_line - base_mult:
            fail(word, "noether",
                 f"degree recursion broken: {cls.line_coeff} != "
                 f"2*{prev_line} - {base_mult}")
        # <w*[L], E_q> = <[L], w_* E_q>: pullback multiplicity at the
        # probe point vs line coefficient of the pushed probe
        left = cls.intersect(probe)
        right = new_pushed.line_coeff
        if left != right:
            fail(word, "adjoint",
                 f"<w*L, E> = {left} but <L, w_*E> = {right}")
        for anc_len, anc_class in ancestors:
            middle = len(word) - anc_len
            if cls.intersect(anc_class) != 2 ** middle:
                fail(word, "gram",
                     f"pairing with length-{anc_len} ancestor is "
                     f"{cls.intersect(anc_class)}, expected 2^{middle}")
        if len(failures) >= CROSSCHECK_FAILURE_CAP:
            return None
        return (*node, new_pushed, new_push_line,
                ancestors + [(len(word), cls)])

    root = (*identity_lines(), probe, WeilClass.line_class(),
            [(0, WeilClass.line_class())])
    walk_words(all_letters(len(gens)), max_len, step, root)
    names = ("degree", "isometry", "noether", "adjoint", "gram")
    return dict.fromkeys(names, checked), failures


# -- driver and report --------------------------------------------------


class StepRow(NamedTuple):
    n: int
    reduced_len: int
    log2_deg: int
    cauchy_increment: Optional[float]
    drift_estimate: float
    # 4^-reduced_len, None past 537 where it underflows
    self_intersection: Optional[float]


@dataclass
class WalkReport:
    seed: Optional[int]
    steps_requested: int
    steps_done: int  # completed steps, aborted_at - 1 after an abort
    checkpoint_every: int
    generator_count: int
    track_classes: bool
    itinerary: Word
    rows: Tuple[StepRow, ...]
    final_reduced_len: int
    aborted: Optional[str]
    aborted_at: Optional[int]
    registry_points: int
    final_class: Optional[WeilClass] = field(repr=False, default=None)
    final_push_class: Optional[WeilClass] = field(repr=False, default=None)
    checkpoint_classes: Optional[Tuple[Tuple[int, int, WeilClass, Optional[WeilClass]], ...]] \
        = field(repr=False, default=None)
    registry: Optional[PointRegistry] = field(repr=False, default=None)

    def final_support_size(self) -> int:
        return 0 if self.final_class is None else len(self.final_class.point_part)

    def by_residues(self) -> bool:
        """Whether the walk went deeper than ``INTEGER_NAMES_LEN``, so its
        points are named by their fingerprints mod ``FINGERPRINT_P``."""
        return max((row.reduced_len for row in self.rows),
                   default=self.final_reduced_len) > INTEGER_NAMES_LEN

    def top_coefficients(self, count: int = 5) -> List[Tuple[float, tuple]]:
        """Largest normalized point multiplicities of the final class, each
        with its point, named as ``by_residues`` says."""
        if self.final_class is None:
            return []
        scale = 1 << self.final_reduced_len
        items = sorted(self.final_class.point_part.items(),
                       key=lambda kv: (-abs(kv[1]), kv[0]))
        name = self.registry.residues if self.by_residues() \
            else self.registry.coords_of
        return [(coeff / scale, name(pid)) for pid, coeff in items[:count]]

    def to_jsonable(self) -> dict:
        out = {
            "format": "birwalk-walk",
            "version": WALK_ARTIFACT_VERSION,
            "mode": "exact",
            "seed": self.seed,
            "steps_requested": self.steps_requested,
            "steps_done": self.steps_done,
            "checkpoint_every": self.checkpoint_every,
            "generator_count": self.generator_count,
            "track_classes": self.track_classes,
            "itinerary": [[i, s] for i, s in self.itinerary],
            "final_reduced_len": self.final_reduced_len,
            "final_support_size": self.final_support_size(),
            "aborted": self.aborted,
            "aborted_at": self.aborted_at,
            "registry_points": self.registry_points,
        }
        residues = self.final_class is not None and self.by_residues()
        if residues:
            # every coordinate below is a residue mod this prime
            out["residue_prime"] = projective.FINGERPRINT_P
        if self.final_class is not None:
            out["top_coefficients"] = [
                [v, [str(c) for c in coords]]
                for v, coords in self.top_coefficients()
            ]
        if self.checkpoint_classes is not None:
            out["checkpoint_classes"] = [
                {"n": n, "reduced_len": ln,
                 "class": class_to_jsonable(c, self.registry, residues)}
                for n, ln, c, _ in self.checkpoint_classes
            ]
        return out


CSV_COLUMNS = ("n", "reduced_len", "log2_deg", "cauchy_increment",
               "drift_estimate", "self_intersection")


def write_rows_csv(rows: Sequence[StepRow], path) -> None:
    """The rows as the ``csv`` module writes them: CRLF line ends, None
    as an empty cell and a float by its repr."""
    text = "".join([",".join(CSV_COLUMNS), "\r\n", *[
        f"{n},{ln},{deg},{'' if inc is None else repr(inc)},{drift!r},"
        f"{'' if pair is None else repr(pair)}\r\n"
        for n, ln, deg, inc, drift, pair in rows]])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def assert_class_health(cls: WeilClass, n: int, label: str) -> None:
    """A tracked class at step n has self-intersection 1, no negative part."""
    if cls.self_intersection() != 1:
        raise AssertionError(
            f"{label} class lost unit self-intersection at step {n}")
    if any(v < 0 for v in cls.point_part.values()):
        raise AssertionError(
            f"{label} class grew a negative multiplicity at step {n}")


def _classfree_rows(itinerary: Word) -> Tuple[StepRow, ...]:
    """The rows of a walk that tracks no class: reduced lengths only."""
    lengths = _reduced_lengths(itinerary)
    pairing = [normalized_self_pairing(ln)
               for ln in range(max(lengths, default=0) + 1)]
    new = tuple.__new__  # a row without StepRow's Python-level __new__
    return (StepRow(0, 0, 0, None, 0.0, pairing[0]), *[
        new(StepRow, (n, ln, ln, None, ln / n * LOG2, pairing[ln]))
        for n, ln in enumerate(lengths, 1)])


def run_walk(gens: Tuple[GeneratorData, ...], steps: int, *,
             seed: Optional[int] = None,
             itinerary: Optional[Word] = None,
             mode: str = "exact",
             checkpoint_every: int = 8,
             track_classes: bool = True,
             track_pushforward: bool = False,
             keep_classes: bool = False,
             registry: Optional[PointRegistry] = None) -> WalkReport:
    """Drive a walk for the requested number of steps and collect records.

    A row is recorded at every step (plus the starting state); Cauchy
    increments and retained class snapshots appear on checkpoint steps.
    A transport degeneracy, or an event past the build budget, aborts the
    walk and is reported in the result rather than raised, so a partial
    series stays usable.  ``mode`` accepts only "exact": the ``modp`` and
    float walks are retired.
    """
    if mode != "exact":
        raise ValueError(f"{mode} mode is retired: every class walk is exact "
                         f"at any depth")
    if keep_classes and not track_classes:
        raise ValueError("keep_classes needs track_classes")
    if itinerary is None:
        if seed is None:
            raise ValueError("need a seed or an explicit itinerary")
        itinerary = random_itinerary(len(gens), steps, random.Random(seed))
    if len(itinerary) < steps:
        raise ValueError("itinerary shorter than requested steps")
    itinerary = tuple(itinerary[:steps])
    if not (track_classes or track_pushforward):
        rows = _classfree_rows(itinerary)
        return WalkReport(
            seed=seed, steps_requested=steps, steps_done=steps,
            checkpoint_every=checkpoint_every, generator_count=len(gens),
            track_classes=False, itinerary=itinerary, rows=rows,
            final_reduced_len=rows[-1].reduced_len, aborted=None,
            aborted_at=None, registry_points=0)
    state = WalkState(gens, track_classes=track_classes,
                      track_pushforward=track_pushforward,
                      registry=registry)
    stack = state.stack
    kept: List[Tuple[int, int, WeilClass, Optional[WeilClass]]] = []
    prev_cp: Optional[Tuple[WeilClass, int]] = None
    aborted = None
    aborted_at = None

    def checkpoint() -> Optional[float]:
        """Check the tracked classes, keep them if asked, and return the
        Cauchy increment from the previous checkpoint's class."""
        nonlocal prev_cp
        cls, ln = state.pull_class, len(stack)
        inc = None
        if prev_cp is not None:
            inc = coefficient_l2_diff(cls, 1 << ln,
                                      prev_cp[0], 1 << prev_cp[1])
        assert_class_health(cls, state.n, "pullback")
        if state.push_class is not None:
            assert_class_health(state.push_class, state.n, "pushforward")
        prev_cp = (cls, ln)
        if keep_classes:
            kept.append((state.n, ln, cls, state.push_class))
        return inc

    # the n=0 state: the line class itself
    rows = [StepRow(0, 0, 0, checkpoint() if track_classes else None, 0.0,
                    normalized_self_pairing(0))]
    for k in range(steps):
        try:
            state.step(itinerary[k])
            n, ln = k + 1, len(stack)
            at_cp = track_classes and (
                n == steps or checkpoint_every and n % checkpoint_every == 0)
            rows.append(StepRow(n, ln, ln, checkpoint() if at_cp else None,
                                ln / n * LOG2, normalized_self_pairing(ln)))
        except DegenerateConfiguration as exc:
            aborted = str(exc)
            aborted_at = k + 1
            break

    return WalkReport(
        seed=seed,
        steps_requested=steps,
        steps_done=rows[-1].n,
        checkpoint_every=checkpoint_every,
        generator_count=len(gens),
        track_classes=track_classes,
        itinerary=itinerary,
        rows=tuple(rows),
        final_reduced_len=state.reduced_len,
        aborted=aborted,
        aborted_at=aborted_at,
        registry_points=len(state.registry),
        final_class=state.pull_class,
        final_push_class=state.push_class,
        checkpoint_classes=tuple(kept) if keep_classes else None,
        registry=state.registry,
    )


# -- cross-walk and asymptotic diagnostics ------------------------------


def boundary_compare(report_a: WalkReport, report_b: WalkReport) -> dict:
    """Pairing of the two normalized final classes over one shared registry.

    The self-pairings 4^-len come along as the coincidence controls: a
    walk paired with itself lands exactly there, so a cross pairing well
    above both witnesses distinct limits.  A control past length 537 is
    None, not a float 0.0.
    """
    if report_a.registry is not report_b.registry:
        raise ValueError("walks were not run over a shared registry")
    if report_a.final_class is None or report_b.final_class is None:
        raise ValueError("both walks need tracked classes")
    la, lb = report_a.final_reduced_len, report_b.final_reduced_len
    return {
        "pairing": normalized_pairing(report_a.final_class, la,
                                      report_b.final_class, lb),
        "control_a": normalized_self_pairing(la),
        "control_b": normalized_self_pairing(lb),
    }


def transversality_ratio_series(theta_class: WeilClass, theta_len: int,
                        report: WalkReport) -> List[Tuple[int, float]]:
    """Normalized pairings of a reference class with the pushforward track.

    By adjointness these are the degree-normalized pairings of the
    pullback of the reference class under the step-n composite with
    the line class: bounded below by a positive constant when the
    reference is transverse to the walk's backward boundary, decaying
    to zero when the reference IS that backward boundary.
    """
    if report.checkpoint_classes is None:
        raise ValueError("walk was not run with keep_classes")
    out = []
    for n, ln, _c, e in report.checkpoint_classes:
        if e is None:
            raise ValueError("walk was not run with track_pushforward")
        out.append((n, normalized_pairing(theta_class, theta_len, e, ln)))
    return out


def fit_geometric_rate(series: Sequence[Tuple[int, float]]) -> Tuple[float, float]:
    """Least-squares fit of s_n ~ C * rho^n; returns (C, rho)."""
    pts = [(n, math.log(v)) for n, v in series if v > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two positive samples to fit")
    count = len(pts)
    sx = sum(n for n, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(n * n for n, _ in pts)
    sxy = sum(n * y for n, y in pts)
    denom = count * sxx - sx * sx
    slope = (count * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / count
    return math.exp(intercept), math.exp(slope)
