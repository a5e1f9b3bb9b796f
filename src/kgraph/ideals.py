"""Saturated hereditary vertex sets, cofinality, and quotient graphs.

A vertex set H is hereditary when reachability out of H stays in H:
whenever a path has range in H its source is in H too.  Paths factor
into edges, so checking single edges suffices.  H is saturated when a
vertex all of whose degree-n continuations land in H is itself in H for
some n; testing the single-color degrees e_i and iterating captures the
general rule, since vLambda^n factors through vLambda^(e_i) step by
step.  The two closure rules interleave to a least fixpoint.

Nontrivial saturated hereditary sets are exactly what blocks cofinality:
any such H traps the vertices it contains, and conversely the closure of
any single vertex that fails to reach everything is such a set.  The
quotient by H keeps the vertices outside H and the edges whose source
survives; the result is rebuilt through full validation rather than
assumed correct.
"""

import os

import numpy as np

from .errors import ContractViolationError, LimitExceededError
from .factorization import KGraph, SquareTable
from .skeleton import Skeleton

DEFAULT_ENUM_LIMIT = 20
ENUM_LIMIT_ENV = "KGRAPH_MAX_VERTICES"


def vertex_set_to_json(h):
    return sorted(h)


def _as_set(g, vertices):
    h = frozenset(vertices)
    for v in h:
        g.require_vertex(v)
    return h


def is_hereditary(g, h):
    """Every edge with range in h has source in h."""
    h = _as_set(g, h)
    return all(
        e.source in h for e in g.skeleton.edges.values() if e.range in h
    )


def is_saturated(g, h):
    """No vertex outside h has all its color-i out-edges landing in h."""
    h = _as_set(g, h)
    for v in g.vertices:
        if v in h:
            continue
        for color in range(1, g.k + 1):
            if all(g.edge(eid).source in h for eid in g.skeleton.out_edges(v, color)):
                return False
    return True


def sat_her_closure(g, seed):
    """Least saturated hereditary superset of seed."""
    h = set(_as_set(g, seed))
    changed = True
    while changed:
        changed = False
        for e in g.skeleton.edges.values():
            if e.range in h and e.source not in h:
                h.add(e.source)
                changed = True
        for v in g.vertices:
            if v in h:
                continue
            for color in range(1, g.k + 1):
                if all(g.edge(eid).source in h for eid in g.skeleton.out_edges(v, color)):
                    h.add(v)
                    changed = True
                    break
    return frozenset(h)


def _enum_limit():
    raw = os.environ.get(ENUM_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ENUM_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise LimitExceededError(f"{ENUM_LIMIT_ENV}={raw!r} is not an integer") from None


def enumerate_sat_her(g, limit=None):
    """All saturated hereditary sets, sorted by size then contents.

    Every such set is a join of singleton closures, so the lattice is
    grown from those under union-then-closure.  Refuses graphs larger
    than the limit (default 20 vertices, env KGRAPH_MAX_VERTICES).
    """
    if limit is None:
        limit = _enum_limit()
    if len(g.vertices) > limit:
        raise LimitExceededError(
            f"{len(g.vertices)} vertices exceeds enumeration limit {limit}"
        )
    generators = [sat_her_closure(g, {v}) for v in g.vertices]
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        base = frontier.pop()
        for gen in generators:
            joined = base | gen
            if joined not in found:
                joined = sat_her_closure(g, joined)
            if joined not in found:
                found.add(joined)
                frontier.append(joined)
    return sorted(found, key=lambda h: (len(h), sorted(h)))


class Cofinal:
    cofinal = True

    def to_json(self):
        return {"verdict": "cofinal"}

    def __repr__(self):
        return "Cofinal()"


class NotCofinal:
    cofinal = False

    def __init__(self, certificate):
        self.certificate = certificate

    def to_json(self):
        return {"verdict": "not_cofinal", "certificate": vertex_set_to_json(self.certificate)}

    def __repr__(self):
        return f"NotCofinal({sorted(self.certificate)!r})"


def is_cofinal(g):
    """Cofinal iff every singleton closure is everything.

    Otherwise the least nontrivial closure (fewest vertices, then
    lexicographically) is returned as the obstruction certificate.
    """
    everything = frozenset(g.vertices)
    obstructions = []
    for v in g.vertices:
        closure = sat_her_closure(g, {v})
        if closure != everything:
            obstructions.append(closure)
    if not obstructions:
        return Cofinal()
    least = min(obstructions, key=lambda h: (len(h), sorted(h)))
    return NotCofinal(least)


def quotient(g, h):
    """The graph left after deleting H and everything it absorbs.

    Keeps vertices outside H and edges whose source survives; hereditary
    H then cannot leave a dangling range.  The result passes the whole
    validation stack or the call fails loudly.
    """
    h = _as_set(g, h)
    if not is_hereditary(g, h):
        raise ContractViolationError(f"{sorted(h)!r} is not hereditary")
    if not is_saturated(g, h):
        raise ContractViolationError(f"{sorted(h)!r} is not saturated")
    keep_vertices = [v for v in g.vertices if v not in h]
    if not keep_vertices:
        raise ContractViolationError("cannot quotient by the full vertex set")
    keep_edges = [e for e in g.skeleton.edges.values() if e.source not in h]
    keep_ids = {e.id for e in keep_edges}
    entries = [
        (pair, image)
        for pair, image in g.squares.entries
        if all(eid in keep_ids for eid in pair + image)
    ]
    skel = Skeleton(g.k, keep_vertices, keep_edges)
    return KGraph.build(skel, SquareTable(entries))


def core_dimensions(g, n):
    """|Lambda^n v| for every v, via products of the vertex matrices."""
    g.require_rank(n)
    mats = g.skeleton.vertex_matrices()
    size = len(g.vertices)
    acc = np.identity(size, dtype=object)
    for color, power in enumerate(n):
        for _ in range(power):
            acc = acc @ mats[color]
    return {v: int(sum(acc[:, i])) for i, v in enumerate(g.vertices)}
