"""Exact arithmetic for random products of quadratic plane birational maps.

The package composes the standard quadratic involution conjugated by
invertible integer matrices, tracks the induced action on classes over
all points of the plane with the exact integer intersection form, and
drives seeded random reduced-word walks whose degree growth, drift,
boundary convergence, and curve-pullback multiplicities are checked
against each other by independent routes.

The package root exports the three names of the README's library
sketch; every other name is imported from its module.
"""

from .genericity import check_genericity
from .maps import sample_generators
from .walk import run_walk

__version__ = "0.1.0"
