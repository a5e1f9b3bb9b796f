"""Eventually periodic infinite paths.

An infinite path is represented by a finite prefix rho and a loop gamma
with r(gamma) = s(gamma) = s(rho); the path is rho.gamma.gamma...  The
loop degree must be >= 1 in every coordinate, so that finitely many
copies of the loop cover any requested degree.

Two representations can denote the same path, and the library does not
decide that in general.  The one comparison it needs, in
`analysis.verify_annihilation`, is between two paths that end in the
same loop, where one finite prefix decides it; the general equality
lives in the test suite's oracles.
"""

from itertools import product as _iproduct

from .errors import ContractViolationError
from .factorization import Path


class EventuallyPeriodicPath:
    """The representation rho.gamma^infinity."""

    __slots__ = ("prefix", "loop")

    def __init__(self, prefix, loop):
        if not (isinstance(prefix, Path) and isinstance(loop, Path)):
            raise ContractViolationError("prefix and loop must be Paths")
        if prefix.graph is not loop.graph:
            raise ContractViolationError("prefix and loop belong to different graphs")
        if loop.range_vertex != loop.source_vertex:
            raise ContractViolationError("loop must start and end at the same vertex")
        if loop.range_vertex != prefix.source_vertex:
            raise ContractViolationError("loop must sit at the prefix's source")
        if any(c < 1 for c in loop.degree):
            raise ContractViolationError(f"loop degree {loop.degree!r} must be >= 1 in every coordinate")
        self.prefix = prefix
        self.loop = loop

    def __repr__(self):
        return f"EP<{self.prefix!r}.({self.loop!r})^inf>"


def ep_samples(g, v, prefix_bound, loop_bound):
    """Deterministic generator of eventually periodic paths from v.

    Prefix degrees range over entries <= prefix_bound, loop degrees over
    entries in 1..loop_bound; loops are filtered to actual cycles.  A
    bound that is not an int, or that leaves its range empty, is refused.
    """
    g.require_vertex(v)
    for name, bound, least in (("prefix", prefix_bound, 0), ("loop", loop_bound, 1)):
        if type(bound) is not int or bound < least:
            raise ContractViolationError(f"{name} bound {bound!r} is not an int >= {least}")
    k = g.k
    cycles = {}  # prefix source vertex -> its cycles, in canonical order
    for pdeg in _iproduct(range(prefix_bound + 1), repeat=k):
        for rho in g.paths_from(v, pdeg):
            w = rho.source_vertex
            if w not in cycles:
                ldegs = _iproduct(range(1, loop_bound + 1), repeat=k)
                cycles[w] = [c for d in ldegs for c in g.paths_from(w, d) if c.source_vertex == w]
            for gam in cycles[w]:
                yield EventuallyPeriodicPath(rho, gam)
