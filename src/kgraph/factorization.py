"""Commuting squares, canonical path form, and unique factorization.

A rank-k graph is presented by a valid skeleton plus one commuting
square per composable two-color pair of edges: for colors i < j, the
square table is a bijection sending each pair (f, g) with f of color i,
g of color j and s(f) = r(g) to a pair (g', f') with the colors reversed,
r(g') = r(f) and s(f') = s(g).  The two-edge paths f.g and g'.f' are
declared equal, and every path then has a unique normal form in which
edge colors appear in ascending blocks (all color-1 edges first, then
color-2, and so on).  One routine, `KGraph._cut`, does every cut and
composition: adjacent swaps, each applying the matching square, move an
edge sequence to the color word for degrees d1, d2, ..., the normal form
of d1, then of d2, and so on, and it returns that word as a tuple of edge
ids.  One loop walks the word's slots and passes every slot whose edge
already has the slot's color; only the others bubble an edge down, each
swap one lookup in a per-edge table of both square directions.  The
table is built at the graph's first cut, because the build side
(validation, closures, quotients) never cuts and would only pay its
memory.  `KGraph._slice` turns a word into one path per degree, for the
callers that return paths (one degree, the path's own, gives the normal
form for `compose`); the periodicity decision works on the words alone.
So `factor(lam, m)` cuts into (m, d(lam) - m), and `factor(lam, m, q)`
into (m, q, d(lam) - m - q), whose middle piece is lam(m, m + q).  The
square bijections make every swap well defined and, for k >= 3, the cube
condition checked below makes the result independent of swap order.
For k >= 4 coherence over all color triples is sufficient (higher cubes
follow from the three-color ones); the test suite cross-checks this
claim against two other swap schedules.  Each triple c1 < c2 < c3 is
checked once, from its ascending order: once the squares are bijections,
the six orders of a triple form a hexagon whose loop maps are conjugate,
so one order decides all six.
`KGraph.paths_from` walks vLambda^n lazily in canonical (lexicographic)
order and caches nothing: it holds one path and its pending edges.

Equality of presentations with the abstract unique-factorization
definition of a rank-k graph is a standard fact assumed here, not
re-proved.

Degree-0 paths are vertices.  A path's edge sequence is written with the
range end first: edges[0] has range r(lambda) and edges[-1] has source
s(lambda), and compose(mu, nu) requires s(mu) = r(nu).
"""

from .degrees import MAX_ENTRY, add, subtract
from .errors import ContractViolationError, ValidationError
from .skeleton import ValidationReport


class SquareTable:
    """The square bijections, keyed by ordered edge-id pairs.

    `forward` maps an ascending-color pair (f, g) to its image (g', f');
    `backward` is the inverse.  `entries` keeps the (pair, image) tuples as
    given, so an invalid table can still be reported on (the test oracles
    serialize one).  An entry whose pair or image is not a hashable tuple of
    two ids is refused.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.forward = {}
        self.backward = {}
        self.duplicate_keys = []
        self.duplicate_images = []
        for entry in self.entries:
            try:
                pair, image = entry
                if type(pair) is type(image) is tuple and len(pair) == len(image) == 2:
                    if pair in self.forward:
                        self.duplicate_keys.append(pair)
                    else:
                        self.forward[pair] = image
                    if image in self.backward:
                        self.duplicate_images.append(image)
                    else:
                        self.backward[image] = pair
                    continue
            except (TypeError, ValueError):  # not two items, or an unhashable pair or image
                pass
            raise ContractViolationError(f"square entry {entry!r} is not a (pair, image) of two edge-id tuples")


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
    k, by_range = skeleton.k, skeleton.by_range  # widths[v][c - 1] is |by_range[(v, c)]|
    if not problems:
        widths = {v: [len(by_range.get((v, c), ())) for c in range(1, k + 1)] for v in skeleton.vertices}
        ascending = sum(sum(widths[e.source][e.color:]) for e in edges.values())
        descending = sum(sum(widths[e.source][:e.color - 1]) for e in edges.values())
        if len(table.forward) == ascending and len(table.backward) == descending:
            return ValidationReport("squares", problems)
    # Totality and bijectivity in one walk over the composable pairs (e, g),
    # e in id order, then g's color, then g in id order: an ascending pair
    # needs a square and a descending one must be an image.  Each kind of
    # violation is reported once, by its least instance (first in color
    # pair, then id, order) and its count, so the report stays bounded in k.
    no_square, not_image = [], []
    for e in edges.values():
        for c in range(1, k + 1):
            for gid in by_range.get((e.source, c), ()):
                if c > e.color and (e.id, gid) not in table.forward:
                    no_square.append((e.color, c, (e.id, gid)))
                elif c < e.color and (e.id, gid) not in table.backward:
                    not_image.append((c, e.color, (e.id, gid)))
    for instances, kind in (
        (no_square, "composable pair {!r} has no square"),
        (not_image, "composable pair {!r} is not the image of any square"),
    ):
        if instances:
            ci, cj, first = min(instances)
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
        for color2 in range(edges[e1].color + 1, k):  # leaves room for a color3 above
            for e2 in by_range.get((edges[e1].source, color2), ()):
                x1, y1 = fwd[(e1, e2)]
                for color3 in range(color2 + 1, k + 1):
                    for e3 in by_range.get((edges[e2].source, color3), ()):
                        b1, c1 = fwd[(e2, e3)]
                        a1, b2 = fwd[(e1, b1)]
                        c2, b3 = fwd[(b2, c1)]
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
    """A path in canonical (colors ascending) form.  Treat as immutable; not hashable."""

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
        self._swaps = None

    @property
    def vertices(self):
        return self.skeleton.vertices

    def require_vertex(self, v):
        try:
            known = self.skeleton.has_vertex(v)
        except TypeError:  # an unhashable vertex
            known = False
        if not known:
            raise ContractViolationError(f"unknown vertex {v!r}")

    def require_rank(self, n):
        """Guard a degree from a caller: a tuple of rank k, int entries in 0..MAX_ENTRY."""
        if type(n) is not tuple:
            raise ContractViolationError(f"degree {n!r} is not a tuple")
        if len(n) != self.k:
            raise ContractViolationError(f"degree rank {len(n)} does not match graph rank {self.k}")
        for c in n:
            if type(c) is not int or c < 0 or c > MAX_ENTRY:
                raise ContractViolationError(f"degree {n!r} needs int entries in 0..{MAX_ENTRY}")

    def _cut(self, seq, degrees):
        """Swap a composable edge sequence into the color word of `degrees`, as a tuple.

        The word is each degree's colors ascending, the degrees in turn;
        each color's run of slots ends at a running `stop`.  A slot whose
        edge has its color is passed; otherwise the first later edge of
        that color is swapped down to it.  `swaps[a][e]` is the image of
        the pair (a, e) under either square bijection, built at the first
        cut so that a graph that never cuts builds none.  The degrees may
        sum to less than the sequence: slots are filled from the left, so
        the word up to their sum is the same as for any longer cut, and
        the ids past it are left in some order, unread.  The annihilation
        audit and the witness constructor cut only as far as they compare.
        """
        swaps = self._swaps
        if swaps is None:
            swaps = self._swaps = {}
            for table in (self.squares.forward, self.squares.backward):
                for (a, e), image in table.items():
                    swaps.setdefault(a, {})[e] = image
        arr = list(seq)
        colors = self._colors
        i = 0
        for d in degrees:
            color = 0
            for count in d:
                color += 1
                stop = i + count
                while i < stop:
                    if colors[arr[i]] != color:
                        j = i + 1
                        while colors[arr[j]] != color:
                            j += 1
                        e = arr[j]
                        while j > i:
                            a = arr[j - 1]
                            e, arr[j] = swaps[a][e]
                            j -= 1
                        arr[i] = e
                    i += 1
        return tuple(arr)

    def _slice(self, range_vertex, word, degrees, start=0):
        """One Path per degree, in turn, from position `start` of a cut word with range `range_vertex`.

        A piece's range is the source of the word's edge just before it.
        """
        edges = self.skeleton.edges
        at = edges[word[start - 1]].source if start else range_vertex
        pieces = []
        for d in degrees:
            end = start + sum(d)
            source = edges[word[end - 1]].source if end > start else at
            pieces.append(Path(self, at, source, d, word[start:end]))
            at, start = source, end
        return pieces

    def path(self, range_vertex, edge_ids):
        """Build a path from an arbitrary composable edge sequence."""
        self.require_vertex(range_vertex)
        if isinstance(edge_ids, str):
            raise ContractViolationError(f"edge ids {edge_ids!r} is a string, not a sequence of edge ids")
        try:
            edge_ids = tuple(edge_ids)
        except TypeError:
            raise ContractViolationError(f"edge ids {edge_ids!r} are not a sequence of edge ids") from None
        at = range_vertex
        counts = [0] * self.k
        for eid in edge_ids:
            try:
                e = self.skeleton.edges[eid]
            except (KeyError, TypeError):  # TypeError: an unhashable id
                raise ContractViolationError(f"unknown edge {eid!r}") from None
            if e.range != at:
                raise ContractViolationError(f"edge {eid!r} has range {e.range!r}, expected {at!r}")
            at = e.source
            counts[e.color - 1] += 1
        d = tuple(counts)
        return self._slice(range_vertex, self._cut(edge_ids, (d,)), (d,))[0]

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


def compose(mu, nu):
    """mu then nu; needs s(mu) = r(nu)."""
    if not (isinstance(mu, Path) and isinstance(nu, Path)):
        raise ContractViolationError("compose needs two Paths")
    if mu.graph is not nu.graph:
        raise ContractViolationError("paths belong to different graphs")
    if mu.source_vertex != nu.range_vertex:
        raise ContractViolationError(
            f"cannot compose: s={mu.source_vertex!r} vs r={nu.range_vertex!r}"
        )
    if mu.is_vertex():
        return nu
    if nu.is_vertex():
        return mu
    d = add(mu.degree, nu.degree)
    return mu.graph._slice(mu.range_vertex, mu.graph._cut(mu.edges + nu.edges, (d,)), (d,))[0]


def factor(lam, m, *more):
    """The unique pieces of lam of degrees m, *more, then the rest; the degrees sum to <= d(lam)."""
    if not isinstance(lam, Path):
        raise ContractViolationError(f"factored path {lam!r} is not a Path")
    degrees = (m, *more)
    for d in degrees:
        lam.graph.require_rank(d)
    rest = lam.degree
    try:
        for d in degrees:
            rest = subtract(rest, d)
    except ContractViolationError:
        named = " + ".join(map(repr, degrees))
        raise ContractViolationError(f"factor degree {named} exceeds path degree {lam.degree!r}") from None
    degrees += (rest,)
    return tuple(lam.graph._slice(lam.range_vertex, lam.graph._cut(lam.edges, degrees), degrees))
