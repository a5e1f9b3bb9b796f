"""Saturated hereditary vertex sets, cofinality, and quotient graphs.

A vertex set H is hereditary when reachability out of H stays in H:
whenever a path has range in H its source is in H too.  Paths factor
into edges, so checking single edges suffices.  H is saturated when a
vertex all of whose degree-n continuations land in H is itself in H for
some n; testing the single-color degrees e_i and iterating captures the
general rule, since vLambda^n factors through vLambda^(e_i) step by
step.  The two closure rules interleave to a least fixpoint, which a
worklist reaches in O(|E| + k|V|): each vertex joins H once, and each
edge is looked at once for heredity and once for saturation.

Nontrivial saturated hereditary sets are exactly what blocks cofinality:
any such H traps the vertices it contains, and conversely the closure of
any single vertex that fails to reach everything is such a set.  One
closure per terminal strongly connected component of v -> s(e),
e in vLambda^(e_i), settles cofinality.  If w is the source of a path
with range v, the closure of {v} is hereditary, so it contains w and
hence the closure of {w}.  Every vertex reaches a terminal component,
and the vertices of one component share a closure.  So the least
nontrivial singleton closure, by size and then contents, is a terminal
component's closure, and the graph is cofinal exactly when every
terminal closure is everything.

The same argument shrinks the lattice's generators.  A saturated
hereditary H is the closure of the union of its vertices' closures, and
the vertices of one component share a closure, so `enumerate_sat_her`
joins one closure per component, terminal or not, instead of one per
vertex.  One Tarjan pass, `_components`, serves both.  The lattice can
still be exponential in the number of components (n disjoint copies of
one graph have 2^n sets), so the enumeration counts the sets it finds
and refuses past ENUM_LIMIT; the number of vertices does not matter.

The quotient by H keeps the vertices outside H and the edges whose source
survives; the result is rebuilt through full validation rather than
assumed correct.
"""

from .errors import ContractViolationError, LimitExceededError
from .factorization import KGraph, SquareTable
from .skeleton import Skeleton

ENUM_LIMIT = 2**16


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
            if all(g.skeleton.edges[eid].source in h for eid in g.skeleton.by_range.get((v, color), ())):
                return False
    return True


def sat_her_closure(g, seed):
    """Least saturated hereditary superset of seed.

    `outside[(v, color)]` counts the edges of vLambda^(e_color) whose
    source is not yet in H, and `lowers[x]` names the counts that drop
    when x joins H.  Validation gives every vertex an edge of every
    color, so a count reaching 0 is what saturation adds.
    """
    sources = {v: [] for v in g.vertices}
    lowers = {v: [] for v in g.vertices}
    for e in g.skeleton.edges.values():
        sources[e.range].append(e.source)
        lowers[e.source].append((e.range, e.color))
    outside = {key: len(ids) for key, ids in g.skeleton.by_range.items()}
    h = set()
    pending = list(_as_set(g, seed))
    while pending:
        x = pending.pop()
        if x in h:
            continue
        h.add(x)
        pending += sources[x]
        for key in lowers[x]:
            outside[key] -= 1
            if not outside[key]:
                pending.append(key[0])
    return frozenset(h)


def enumerate_sat_her(g):
    """All saturated hereditary sets, sorted by size then contents.

    Every such set is a join of singleton closures, and the vertices of
    one strongly connected component share theirs, so the lattice is
    grown from one closure per component under union-then-closure.
    Refuses a lattice of more than ENUM_LIMIT sets.
    """
    generators = {sat_her_closure(g, c) for c, _ in _components(g)}
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        base = frontier.pop()
        for gen in generators:
            joined = base | gen
            if base and joined not in found:  # a generator is closed already
                joined = sat_her_closure(g, joined)
            if joined not in found:
                if len(found) == ENUM_LIMIT:
                    raise LimitExceededError(f"more than {ENUM_LIMIT} saturated hereditary sets")
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
    """A nontrivial saturated hereditary set, re-validated on construction."""

    cofinal = False

    def __init__(self, g, certificate):
        certificate = _as_set(g, certificate)
        if not certificate or len(certificate) == len(g.vertices):
            raise ContractViolationError("cofinality certificate must be nontrivial")
        if not (is_hereditary(g, certificate) and is_saturated(g, certificate)):
            raise ContractViolationError("cofinality certificate is not saturated hereditary")
        self.certificate = certificate

    def to_json(self):
        return {"verdict": "not_cofinal", "certificate": vertex_set_to_json(self.certificate)}

    def __repr__(self):
        return f"NotCofinal({sorted(self.certificate)!r})"


def _components(g):
    """Strongly connected components of v -> s(e), each as (vertices, terminal).

    Tarjan (1972) with an explicit stack, so long chains cannot hit the
    recursion limit.  Components come out after every component they
    reach, so a component is terminal, with no way out, when no
    successor lies outside it.
    """
    succ = {v: [] for v in g.vertices}
    for e in g.skeleton.edges.values():
        succ[e.range].append(e.source)
    index, low, done = {}, {}, set()
    stack, components = [], []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in done:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = set()
                    while v not in component:
                        component.add(stack.pop())
                    done |= component
                    terminal = all(w in component for u in component for w in succ[u])
                    components.append((component, terminal))
    return components


def is_cofinal(g):
    """Cofinal iff every singleton closure is everything.

    Otherwise the least nontrivial closure (fewest vertices, then
    lexicographically) is returned as the obstruction certificate.  Only
    terminal components need a closure (module docstring).
    """
    everything = frozenset(g.vertices)
    closures = [sat_her_closure(g, c) for c, terminal in _components(g) if terminal]
    obstructions = [h for h in closures if h != everything]
    if not obstructions:
        return Cofinal()
    least = min(obstructions, key=lambda h: (len(h), sorted(h)))
    return NotCofinal(g, least)


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
    return KGraph(skel, SquareTable(entries))
