"""Eventually periodic infinite paths.

An infinite path is represented by a finite prefix rho and a loop gamma
with r(gamma) = s(gamma) = s(rho); the path is rho.gamma.gamma...  The
loop degree must be >= 1 in every coordinate so that unrolling it covers
any requested degree: a cut of x into degrees summing to n unrolls the
least t copies with n <= d(rho) + t d(gamma), t computed in closed form,
and cuts rho.gamma^t once.  Two representations can denote the same
path; `ep_equal` decides that exactly.

Equality works block by block.  After cutting both paths at the join of
the prefix degrees, the tails are purely periodic, and a purely periodic
tail is determined by the cycle formed by its next loop-degree worth of
edges.  Comparing the two tails over blocks of degree g1 + g2 and
memoizing the visited cycle pairs terminates (finitely many cycles of a
fixed degree) and is exact: a difference at any degree shows up in some
block, and a revisited pair means the comparison has entered a cycle that
can never produce a difference.
"""

from itertools import product as _iproduct

from .degrees import add, join, leq, subtract
from .errors import ContractViolationError
from .factorization import compose, factor


class EventuallyPeriodicPath:
    """The representation rho.gamma^infinity; compare denoted paths with `ep_equal`."""

    __slots__ = ("prefix", "loop")

    def __init__(self, prefix, loop):
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

    @property
    def graph(self):
        return self.prefix.graph

    @property
    def range_vertex(self):
        return self.prefix.range_vertex

    def __repr__(self):
        return f"EP<{self.prefix!r}.({self.loop!r})^inf>"

    def minimized(self):
        """Peel whole loop copies off the prefix tail; same infinite path."""
        rho, gam = self.prefix, self.loop
        g = gam.degree
        while leq(g, rho.degree):
            head, tail = factor(rho, subtract(rho.degree, g))
            if tail != gam:
                break
            rho = head
        return EventuallyPeriodicPath(rho, gam)


def _unrolled_cut(rho, gam, *degrees):
    """Cut rho.gam^t once into `degrees` plus the rest, for the least t that covers them."""
    top = [sum(c) for c in zip(*degrees)]
    t = max(0, *(-((r - n) // c) for r, n, c in zip(rho.degree, top, gam.degree)))
    rest = tuple(r + t * c - n for r, n, c in zip(rho.degree, top, gam.degree))
    return rho.graph._cut(rho.range_vertex, rho.edges + gam.edges * t, degrees + (rest,))


def ep_equal(x, y, cycle_cache=None):
    """Exact equality of the denoted infinite paths.

    `cycle_cache` may be a dict shared across calls on one graph; it
    memoizes verdicts for pure-cycle pairs.
    """
    if x.graph is not y.graph:
        return False
    if x.range_vertex != y.range_vertex:
        return False
    cut = join(x.prefix.degree, y.prefix.degree)
    hx, cx, _ = _unrolled_cut(x.prefix, x.loop, cut, x.loop.degree)
    hy, cy, _ = _unrolled_cut(y.prefix, y.loop, cut, y.loop.degree)
    return hx == hy and _cycles_equal(cx, cy, cycle_cache)


def _cycles_equal(cx, cy, cache=None):
    """Whether cx^inf = cy^inf; both must be cycles at the same vertex."""
    start = (cx, cy)
    if cache is not None and start in cache:
        return cache[start]
    seen = set()
    state = start
    verdict = True
    while state not in seen:
        seen.add(state)
        a, b = state
        at = a.graph.vertex_path(a.range_vertex)
        block = add(a.degree, b.degree)
        ha, a, _ = _unrolled_cut(at, a, block, a.degree)
        hb, b, _ = _unrolled_cut(at, b, block, b.degree)
        if ha != hb:
            verdict = False
            break
        state = (a, b)
    if cache is not None:
        cache[start] = verdict
    return verdict


def ep_compose(mu, x):
    """mu.x as an eventually periodic path; needs s(mu) = r(x)."""
    return EventuallyPeriodicPath(compose(mu, x.prefix), x.loop)


def ep_samples(g, v, prefix_bound, loop_bound):
    """Deterministic generator of eventually periodic paths from v.

    Prefix degrees range over entries <= prefix_bound, loop degrees over
    entries in 1..loop_bound; loops are filtered to actual cycles.
    """
    g.require_vertex(v)
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
