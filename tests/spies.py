"""A spy on the integer work of exact point registries."""

from contextlib import contextmanager

import pytest

from birwalk.picard import LetterOperator, PointRegistry


@contextmanager
def integer_work():
    """Lists that fill, while the block runs, with every integer hop (a
    transport given no modulus) and every build of a lazy point."""
    hops, builds = [], []
    transport, build = LetterOperator.transport, PointRegistry._build

    def counted_hop(self, coords, modulus=None):
        if modulus is None:
            hops.append(coords)
        return transport(self, coords, modulus)

    def counted_build(self, base, chain, event):
        builds.append((base, chain))
        return build(self, base, chain, event)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LetterOperator, "transport", counted_hop)
        mp.setattr(PointRegistry, "_build", counted_build)
        yield hops, builds
