"""Error taxonomy shared across the package.

Every refusal the library makes is a typed exception, so callers (and the
CLI exit-code logic) can tell an expected degeneracy abort apart from a
broken invariant.
"""


class BirwalkError(Exception):
    """Base class for all package errors."""


class NonExactDivision(BirwalkError):
    """Polynomial division left a remainder where exactness was required."""


class HeuristicGcdFailed(BirwalkError):
    """The heuristic gcd ran out of evaluation points without a proven divisor."""


class DegenerateComposition(BirwalkError):
    """A composed map collapsed to a constant triple and defines no map."""


class IndeterminatePoint(BirwalkError):
    """A map was evaluated at one of its base points."""


class MissingInverse(BirwalkError):
    """An operation needed the inverse components and none were stored."""


class SamplingExhausted(BirwalkError):
    """Rejection sampling hit its retry budget without a valid draw."""


class DegenerateConfiguration(BirwalkError):
    """A point collision or contracted-curve hit that the exact model
    refuses, or an event it cannot decide within the build budget."""


class TablePointHit(DegenerateConfiguration):
    """A carried point is the evaluating letter's table point ``index``.

    Transport raises it so that a class walk can fan the point out
    through the letter's table; anywhere else it is a degenerate hit.
    ``PointRegistry.carry`` sets ``hop``, the position of that letter.
    """

    def __init__(self, index: int):
        super().__init__(f"carried point is table point {index}")
        self.index = index
        self.hop = None


class CurveContracted(BirwalkError):
    """A curve pullback stripped down to a constant: the curve is contracted."""


class DegreeCapExceeded(BirwalkError, ValueError):
    """A curve pullback would pass the configured polynomial degree cap."""


class IncompatibleArtifacts(BirwalkError):
    """Two run artifacts cannot be compared (different generator tuples, a
    retired mode, or no classes)."""
