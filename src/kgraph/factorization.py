"""Commuting squares, canonical path form, and unique factorization.

A rank-k graph is presented by a valid skeleton plus one commuting
square per composable two-color pair of edges: for colors i < j, the
square table is a bijection sending each pair (f, g) with f of color i,
g of color j and s(f) = r(g) to a pair (g', f') with the colors reversed,
r(g') = r(f) and s(f') = s(g).  The two-edge paths f.g and g'.f' are
declared equal, and every path then has a unique normal form in which
edge colors appear in ascending blocks (all color-1 edges first, then
color-2, and so on).  One routine, `KGraph._rewrite`, does every cut and
composition: adjacent swaps, each applying the matching square, move an
edge sequence to a target color word (the normal form for `compose`).
`KGraph._cut` takes every piece of a cut from one rewrite: the word for
degrees d1, d2, ... is the normal form of d1, then of d2, and so on, and
the result is sliced into one path per degree.  So `factor(lam, m)` cuts
into (m, d(lam) - m) and `segment(lam, m, n)` is the middle piece of
(m, n - m, d(lam) - n).  The square bijections make every swap well
defined and, for k >= 3, the cube condition checked below makes the
result independent of swap order.  For k >= 4 coherence over all color
triples is sufficient (higher cubes follow from the three-color ones);
the test suite cross-checks this claim against two other swap schedules.
Each triple c1 < c2 < c3 is checked once, from its ascending order: once
the squares are bijections, the six orders of a triple form a hexagon
whose loop maps are conjugate, so one order decides all six.
`KGraph.paths_from` walks vLambda^n lazily in canonical (lexicographic)
order and caches nothing: it holds one path and its pending edges.

Equality of presentations with the abstract unique-factorization
definition of a rank-k graph is a standard fact assumed here, not
re-proved.

Degree-0 paths are vertices.  A path's edge sequence is written with the
range end first: edges[0] has range r(lambda) and edges[-1] has source
s(lambda), and compose(mu, nu) requires s(mu) = r(nu).
"""

from .degrees import MAX_ENTRY, add, subtract, zero
from .errors import CompositionError, ContractViolationError, DegreeError, ValidationError
from .skeleton import ValidationReport


class SquareTable:
    """The square bijections, keyed by ordered edge-id pairs.

    `forward` maps an ascending-color pair (f, g) to its image (g', f');
    `backward` is the inverse.  `entries` keeps the (pair, image) tuples as
    given, so an invalid table can still be serialized and reported on.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.forward = {}
        self.backward = {}
        self.duplicate_keys = []
        self.duplicate_images = []
        for pair, image in self.entries:
            if pair in self.forward:
                self.duplicate_keys.append(pair)
            else:
                self.forward[pair] = image
            if image in self.backward:
                self.duplicate_images.append(image)
            else:
                self.backward[image] = pair


def _composable_pairs(skeleton, edges, cj):
    """All (e1, e2) with e1 in `edges`, e2 of color cj and s(e1) = r(e2), in order."""
    return [(e.id, gid) for e in edges for gid in skeleton.by_range.get((e.source, cj), ())]


def validate_squares(skeleton, table):
    """Check the square table against the skeleton, every violation named.

    Each square passes one combined test of its edges' ids, colors and
    endpoints, or is examined for the reasons.  If every square passes and
    no pair or image repeats, the keys of `forward` are distinct ascending
    composable pairs and those of `backward` distinct descending ones.  A
    subset of a finite set is all of it exactly when the sizes agree, so
    the table is total both ways exactly when len(forward) is the sum over
    edges e and colors c > color(e) of |by_range[(s(e), c)]|, the number
    of ascending pairs, and len(backward) the same sum over c < color(e).
    Otherwise the pairs are listed, to name the first missing and the count.
    Precondition: `skeleton.validate()` has passed, so every color and
    endpoint indexes: `validation_reports` runs this check only then.
    """
    problems = []
    for pair in table.duplicate_keys:
        problems.append(f"square {pair!r}: pair listed more than once")
    for image in table.duplicate_images:
        problems.append(f"square image {image!r}: hit by more than one pair")
    edges = skeleton.edges
    for (fid, gid), (g2id, f2id) in table.forward.items():
        f, g, g2, f2 = edges.get(fid), edges.get(gid), edges.get(g2id), edges.get(f2id)
        if (f and g and g2 and f2 and f.color < g.color == g2.color and f2.color == f.color
                and f.source == g.range and g2.source == f2.range
                and g2.range == f.range and f2.source == g.source):
            continue
        missing = [eid for eid in (fid, gid, g2id, f2id) if eid not in edges]
        if missing:
            problems.append(f"square {(fid, gid)!r}: unknown edge id(s) {missing!r}")
            continue
        if not f.color < g.color:
            problems.append(f"square {(fid, gid)!r}: pair colors ({f.color},{g.color}) not ascending")
            continue
        if f.source != g.range:
            problems.append(f"square {(fid, gid)!r}: pair not composable (s({fid})={f.source}, r({gid})={g.range})")
        if (g2.color, f2.color) != (g.color, f.color):
            problems.append(f"square {(fid, gid)!r}: image colors ({g2.color},{f2.color}) do not mirror ({g.color},{f.color})")
            continue
        if g2.source != f2.range:
            problems.append(f"square {(fid, gid)!r}: image not composable")
        if g2.range != f.range:
            problems.append(f"square {(fid, gid)!r}: image range {g2.range!r} != pair range {f.range!r}")
        if f2.source != g.source:
            problems.append(f"square {(fid, gid)!r}: image source {f2.source!r} != pair source {g.source!r}")
    if not problems:
        k, by_range = skeleton.k, skeleton.by_range  # widths[v][c - 1] is |by_range[(v, c)]|
        widths = {v: [len(by_range.get((v, c), ())) for c in range(1, k + 1)] for v in skeleton.vertices}
        ascending = sum(sum(widths[e.source][e.color:]) for e in edges.values())
        descending = sum(sum(widths[e.source][:e.color - 1]) for e in edges.values())
        if len(table.forward) == ascending and len(table.backward) == descending:
            return ValidationReport("squares", problems)
    # Totality and bijectivity, color pair by color pair.  Each kind of
    # violation is reported once, by its first instance and its count, so
    # the report stays bounded in k.
    no_square, not_image = [], []
    by_color = {}  # edges of each color, in id order: one index for every color pair
    for e in edges.values():
        by_color.setdefault(e.color, []).append(e)
    for ci in range(1, skeleton.k + 1):
        for cj in range(ci + 1, skeleton.k + 1):
            pairs = _composable_pairs(skeleton, by_color.get(ci, ()), cj)
            images = _composable_pairs(skeleton, by_color.get(cj, ()), ci)
            no_square += [(ci, cj, p) for p in pairs if p not in table.forward]
            not_image += [(ci, cj, q) for q in images if q not in table.backward]
    for instances, kind in (
        (no_square, "composable pair {!r} has no square"),
        (not_image, "composable pair {!r} is not the image of any square"),
    ):
        if instances:
            ci, cj, first = instances[0]
            problems.append(f"colors ({ci},{cj}): {kind.format(first)} (first of {len(instances)})")
    return ValidationReport("squares", problems)


def validate_cubes(skeleton, table):
    """Check swap-order confluence on every cube, once, from its ascending order.

    For a composable triple (e1, e2, e3) with colors c1 < c2 < c3,
    reversing the color order by swaps at positions (1,2),(0,1),(1,2)
    must agree with swapping at (0,1),(1,2),(0,1).  The two schedules are
    the two halves of the hexagon whose corners are the six orders of the
    three colors.  Precondition: `validate_squares` has passed, so every
    square is a bijection of composable pairs.  Each swap then carries the
    triples of one order bijectively onto those of the next, so the loop
    around the hexagon at any order is conjugate to the loop at the
    ascending order, and it is the identity at one order exactly when it
    is at all six.  From the ascending order every swap is of an
    ascending composable pair, a plain `table.forward` lookup that
    totality guarantees: `validation_reports`, the one caller, runs this
    check only after `validate_squares` passes.  Trivially true for k < 3.
    """
    problems = []
    k, edges, by_range, fwd = skeleton.k, skeleton.edges, skeleton.by_range, table.forward
    for e1 in edges:
        for color2 in range(edges[e1].color + 1, k + 1):
            for e2 in by_range.get((edges[e1].source, color2), ()):
                for color3 in range(color2 + 1, k + 1):
                    for e3 in by_range.get((edges[e2].source, color3), ()):
                        b1, c1 = fwd[(e2, e3)]
                        a1, b2 = fwd[(e1, b1)]
                        c2, b3 = fwd[(b2, c1)]
                        x1, y1 = fwd[(e1, e2)]
                        y2, z1 = fwd[(y1, e3)]
                        x2, y3 = fwd[(x1, y2)]
                        if (a1, c2, b3) != (x2, y3, z1):
                            problems.append(
                                f"cube ({e1},{e2},{e3}): swap schedules disagree "
                                f"({(a1, c2, b3)!r} vs {(x2, y3, z1)!r})"
                            )
    return ValidationReport("cubes", problems)


def validation_reports(skeleton, squares):
    """Skeleton, squares, then cubes: each report in turn, up to the first failure."""
    report = skeleton.validate()
    yield report
    for check in (validate_squares, validate_cubes):
        if not report.ok:
            return
        report = check(skeleton, squares)
        yield report


class Path:
    """A path in canonical (colors ascending) form.  Treat as immutable."""

    __slots__ = ("graph", "range_vertex", "source_vertex", "degree", "edges")

    def __init__(self, graph, range_vertex, source_vertex, degree, edges):
        self.graph = graph
        self.range_vertex = range_vertex
        self.source_vertex = source_vertex
        self.degree = degree
        self.edges = tuple(edges)

    def is_vertex(self):
        return not self.edges

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.graph is other.graph
            and self.range_vertex == other.range_vertex
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.range_vertex, self.edges))

    def __repr__(self):
        if self.is_vertex():
            return f"Path<{self.range_vertex}>"
        return f"Path<{self.range_vertex}:{'.'.join(self.edges)}>"

    def to_json(self):
        return {"range": self.range_vertex, "edges": list(self.edges)}


class KGraph:
    """Skeleton plus square table, refused by `ValidationError` unless every validation report passes."""

    def __init__(self, skeleton, squares):
        for report in validation_reports(skeleton, squares):
            if not report.ok:
                raise ValidationError(report)
        self.skeleton = skeleton
        self.squares = squares
        self.k = skeleton.k
        self._colors = {eid: e.color for eid, e in skeleton.edges.items()}

    @property
    def vertices(self):
        return self.skeleton.vertices

    def require_vertex(self, v):
        if not self.skeleton.has_vertex(v):
            raise ContractViolationError(f"unknown vertex {v!r}")

    def require_rank(self, n):
        """Guard a degree tuple from a caller: rank k, int entries in 0..MAX_ENTRY."""
        if len(n) != self.k:
            raise DegreeError(f"degree rank {len(n)} does not match graph rank {self.k}")
        for c in n:
            if type(c) is not int or c < 0 or c > MAX_ENTRY:
                raise DegreeError(f"degree {n!r} needs int entries in 0..{MAX_ENTRY}")

    def vertex_path(self, v):
        self.require_vertex(v)
        return Path(self, v, v, zero(self.k), ())

    def _rewrite(self, seq, *degrees):
        """Swap a composable edge sequence into the color word of `degrees`.

        The word is each degree's colors ascending, the degrees in turn;
        slot by slot, the first edge of the slot's color is swapped down.
        """
        arr = list(seq)
        colors = self._colors
        forward, backward = self.squares.forward, self.squares.backward
        i = 0
        for d in degrees:
            for color, count in enumerate(d, 1):
                for _ in range(count):
                    j = i
                    while colors[arr[j]] != color:
                        j += 1
                    e = arr[j]
                    while j > i:
                        a = arr[j - 1]
                        e, arr[j] = (forward if colors[a] < color else backward)[a, e]
                        j -= 1
                    arr[i] = e
                    i += 1
        return tuple(arr)

    def _cut(self, range_vertex, seq, degrees):
        """One `_rewrite` of seq into the word of `degrees`; one Path per degree."""
        edges = self._rewrite(seq, *degrees)
        pieces, at, start = [], range_vertex, 0
        for d in degrees:
            end = start + sum(d)
            source = self.skeleton.edges[edges[end - 1]].source if end > start else at
            pieces.append(Path(self, at, source, d, edges[start:end]))
            at, start = source, end
        return pieces

    def path(self, range_vertex, edge_ids):
        """Build a path from an arbitrary composable edge sequence."""
        self.require_vertex(range_vertex)
        edge_ids = tuple(edge_ids)
        at = range_vertex
        counts = [0] * self.k
        for eid in edge_ids:
            e = self.skeleton.edges[eid]
            if e.range != at:
                raise CompositionError(f"edge {eid!r} has range {e.range!r}, expected {at!r}")
            at = e.source
            counts[e.color - 1] += 1
        degree = tuple(counts)
        return Path(self, range_vertex, at, degree, self._rewrite(edge_ids, degree))

    # -- enumeration ---------------------------------------------------

    def paths_from(self, v, n):
        """vLambda^n, lazily: canonical paths with range v and degree n.

        v and n are checked at the call; the paths then come one at a
        time from a depth-first walk on an explicit stack (no recursion,
        memory linear in |n|), and nothing is kept between calls.  The
        order is lexicographic on the canonical edge-id sequence: each
        position takes the least remaining color, then `by_range` (id) order.
        Downstream "canonically least" choices rely on it.
        """
        self.require_vertex(v)
        self.require_rank(n)
        return self._walk(v, n)

    def _walk(self, v, n):
        word = [c for c, count in enumerate(n, 1) for _ in range(count)]
        by_range, edges = self.skeleton.by_range, self.skeleton.edges
        # Entries are (vertex, depth, edge into it), least edge pushed last;
        # prefix[1:] leads to the entry just popped: memory linear in depth.
        prefix, stack = [], [(v, 0, None)]
        while stack:
            at, depth, eid = stack.pop()
            del prefix[depth:]
            prefix.append(eid)
            if depth == len(word):
                yield Path(self, v, at, n, prefix[1:])
                continue
            for f in reversed(by_range.get((at, word[depth]), ())):
                stack.append((edges[f].source, depth + 1, f))


def _same_graph(*paths):
    g = paths[0].graph
    for p in paths[1:]:
        if p.graph is not g:
            raise CompositionError("paths belong to different graphs")
    return g


def compose(mu, nu):
    """mu then nu; needs s(mu) = r(nu)."""
    g = _same_graph(mu, nu)
    if mu.source_vertex != nu.range_vertex:
        raise CompositionError(
            f"cannot compose: s={mu.source_vertex!r} vs r={nu.range_vertex!r}"
        )
    if mu.is_vertex():
        return nu
    if nu.is_vertex():
        return mu
    return g._cut(mu.range_vertex, mu.edges + nu.edges, (add(mu.degree, nu.degree),))[0]


def _rest_after(lam, m):
    """d(lam) - m, refusing an m that is not below d(lam)."""
    lam.graph.require_rank(m)
    try:
        return subtract(lam.degree, m)
    except DegreeError:
        raise DegreeError(f"factor degree {m!r} exceeds path degree {lam.degree!r}") from None


def factor(lam, m):
    """The unique (mu, nu) with d(mu) = m and lam = mu.nu; needs m <= d(lam)."""
    return tuple(lam.graph._cut(lam.range_vertex, lam.edges, (m, _rest_after(lam, m))))


def segment(lam, m, n):
    """lam(m, n): the piece of lam between degrees m and n (m <= n <= d)."""
    try:
        middle = subtract(n, m)
    except DegreeError:
        raise DegreeError(f"segment needs m <= n, got {m!r}, {n!r}") from None
    pieces = (m, middle, _rest_after(lam, n))
    lam.graph.require_rank(m)
    return lam.graph._cut(lam.range_vertex, lam.edges, pieces)[1]
