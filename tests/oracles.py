"""Brute-force cross-checks, written independently of the library's search.

The periodicity oracle enumerates finite paths outright (no pair
propagation, no memoization) and looks for a separating pair of segments.
Finding a witness proves aperiodicity; exhausting the depth box proves
nothing, so the test harness treats oracle-no-witness plus a periodic
verdict (a PeriodicityTuple) as agreement.  Paths are generated without calling the library's
enumerator so a bug there cannot mask itself; `paths_from_by_levels`
builds vLambda^n in canonical order by filling levels bottom-up, which
pins the order of `KGraph.paths_from`'s depth-first walk.

Three oracles pin other facts: `refute_first_witness` runs the definition
of the decision's canonical witness one seed at a time,
`scan_every_triple` is the scan deciding every triple from scratch,
mirrors included, and `k1_scan_finds_periodicity` predicts a 1-graph
scan at any bound from the graph's cycles alone.  `fixed_point_closure` and
`least_singleton_obstruction` are the ideals layer's definitions run
literally: whole-graph passes to a fixpoint, one closure per vertex.
`enumerate_sat_her_per_vertex` grows the ideal lattice from one
generator per vertex, with no limit, as the library did before it took
one per strongly connected component.
`segment(lam, m, n)` is lam(m, n) from the library's one three-piece
`factor`; the oracles read their segments through it.
`ep_equal` decides equality of any two eventually periodic paths, block
by block over their cycles, and the generator action sits on it:
`rep_apply` prepends a path, `rep_apply_adjoint` peels one off and
`minimized` drops whole loop copies from the prefix, with `None` as the
zero vector off their domain.  `annihilates` is the defect element's
action on one basis vector by that definition, the reference for
`verify_annihilation`'s single finite comparison.
The `*_by_compose` functions are the path layers' definitions one cut
at a time: a segment from two `factor` calls, an eventually periodic
path unrolled one `compose` per loop copy, and cycle equality stepped
on `EventuallyPeriodicPath` wrappers.  `validate_squares_reference` is
the square check as first written: it lists every composable pair of
every color pair and looks each one up, where the library counts them.
`validate_cubes_all_orders` is the cube check run from every one of a
triple's six color orders, with backward square lookups for descending
pairs.
`parse_graph_document_reference` is the document parser with its key
and row checks written out once per section, as they were before the
library shared them.  `canonical_json_reference` is the standard
library's indented, key-sorted JSON, whose bytes `canonical_json` must
reproduce.

The rest are test helpers that the library does not need.
`path_key` keys sets and caches of Paths, which are not hashable.
`vertex_matrices` gives the commuting vertex matrices of Kumjian and
Pask (NYJM 2000) as exact int lists; `core_dimensions` counts
|Lambda^n v| through their products, and `path_count_row` the
|vLambda^n w| that periodicity at v equalizes.  `ep_samples_unique` deduplicates
sampled infinite paths, and `aperiodic_prefix` chains one separating
witness per pair, the way the paper's proof builds an aperiodic path.
"""

import json
from collections import deque
from itertools import product

from kgraph import (
    ContractViolationError,
    DocumentError,
    EventuallyPeriodicPath,
    Path,
    SquareTable,
    add,
    compose,
    ep_samples,
    factor,
    join,
    leq,
    local_periodicity_at,
    positive_part,
    subtract,
)
from kgraph.infinite import _unrolled_cut
from kgraph.periodicity import AperiodicReport, PeriodicReport, resolve_bound, signed_vectors
from kgraph.skeleton import Edge, Skeleton, ValidationReport


def path_key(*paths):
    """A hashable key for Paths of one graph: the (range, edges) that `Path.__eq__` compares, per path."""
    return tuple((p.range_vertex, p.edges) for p in paths)


def _chains(g, v, color, length):
    """Edge-id tuples of one color, range end first, starting at v."""
    if length == 0:
        yield (), v
        return
    for eid in g.skeleton.by_range.get((v, color), ()):
        src = g.skeleton.edges[eid].source
        for rest, end in _chains(g, src, color, length - 1):
            yield (eid,) + rest, end


def iter_paths(g, v, n):
    """All paths in vLambda^n, canonical form, built without caching."""

    def blocks(vertex, color):
        if color > g.k:
            yield (), vertex
            return
        for chain, end in _chains(g, vertex, color, n[color - 1]):
            for rest, final in blocks(end, color + 1):
                yield chain + rest, final

    for edge_ids, source in blocks(v, 1):
        yield Path(g, v, source, n, edge_ids)


def paths_from_by_levels(g, v, n):
    """vLambda^n in canonical order, filled level by level from the deepest.

    The order `KGraph.paths_from` must walk in, built the other way round:
    walk down n one edge of the least remaining color at a time, collecting
    the (vertex, degree) keys of each level, then fill every key's tuple of
    paths from the deepest level up, each from the tuples one level below.
    """
    table = {}
    levels = []  # (degree, color, rest, vertices to fill), top level first
    deg, todo = n, [v]
    while any(deg):
        color = next(i + 1 for i, c in enumerate(deg) if c > 0)
        rest = subtract(deg, tuple(int(i == color - 1) for i in range(g.k)))
        levels.append((deg, color, rest, todo))
        todo = list(dict.fromkeys(
            g.skeleton.edges[eid].source for u in todo for eid in g.skeleton.by_range.get((u, color), ())
        ))
        deg = rest
    for w in todo:  # deg is zero here
        table[(w, deg)] = (Path(g, w, w, deg, ()),)
    for level, color, rest, verts in reversed(levels):
        for u in verts:
            table[(u, level)] = tuple(
                Path(g, u, tail.source_vertex, level, (eid,) + tail.edges)
                for eid in g.skeleton.by_range.get((u, color), ())
                for tail in table[(g.skeleton.edges[eid].source, rest)]
            )
    return table[(v, n)]


def degrees_up_to(max_degree):
    """All degrees <= max_degree, sorted by total size then coordinates."""
    spans = [range(c + 1) for c in max_degree]
    return sorted(product(*spans), key=lambda d: (sum(d), d))


def _separating_path(g, v, m, n, total):
    """First lambda in vLambda^total whose m- and n-segments differ, or None."""
    ext = subtract(total, join(m, n))
    for lam in iter_paths(g, v, total):
        if segment(lam, m, add(m, ext)) != segment(lam, n, add(n, ext)):
            return lam
    return None


def brute_force_witness(g, v, m, n, depth):
    """First path whose m- and n-segments differ, or None at this depth.

    Scans lambda in vLambda^(j+q) for the top of the box only,
    q = depth*(1,...,1), where j = m v n.  That finds a witness exactly
    when some q <= depth*(1,...,1) has one (brute_force_witness_full_box),
    because validation gives every vertex an out-edge of every color: a
    separating lambda of degree j+q extends at its source to some lambda'
    of degree j+depth*(1,...,1), and lambda'(m, m+depth*1) factors at q
    with head lambda'(m, m+q) = lambda(m, m+q), likewise for n.  Unique
    factorization then makes the longer segments differ whenever the
    shorter ones do.
    """
    return _separating_path(g, v, m, n, add(join(m, n), (depth,) * g.k))


def brute_force_witness_full_box(g, v, m, n, depth):
    """Reference search: every q with entries <= depth, smallest |q| first."""
    j = join(m, n)
    for q in degrees_up_to((depth,) * g.k):
        lam = _separating_path(g, v, m, n, add(j, q))
        if lam is not None:
            return lam
    return None


def refute_first_witness(g, v, m, n):
    """The witness refute-first propagation must pick, or None when periodic.

    The definition, run literally: seeds lam in vLambda^(m v n) in
    canonical order, each with a breadth-first search of its own over
    tail pairs (L, R) = (lam(m, m v n), lam(n, m v n)) and its own seen
    set, nothing shared between seeds, the whole path carried along.
    A seed with r(L) != r(R) is its own witness; otherwise extensions
    kappa in s(L)Lambda^s go in canonical order, with block
    s = (a v b) v (1,...,1), and the first kappa whose degree-s prefixes
    of L.kappa and R.kappa differ ends the search with lam.kappa_1...kappa_t.
    """
    j = join(m, n)
    block = join(join(subtract(j, m), subtract(j, n)), (1,) * g.k)
    zero = (0,) * g.k
    for lam in iter_paths(g, v, j):
        seed = (segment(lam, m, j), segment(lam, n, j))
        if seed[0].range_vertex != seed[1].range_vertex:
            return lam
        seen = {path_key(*seed)}
        queue = deque([(seed, lam)])
        while queue:
            (left, right), path = queue.popleft()
            for kappa in iter_paths(g, left.source_vertex, block):
                lk, rk = compose(left, kappa), compose(right, kappa)
                if segment(lk, zero, block) != segment(rk, zero, block):
                    return compose(path, kappa)
                succ = (segment(lk, block, lk.degree), segment(rk, block, rk.degree))
                if path_key(*succ) not in seen:
                    seen.add(path_key(*succ))
                    queue.append((succ, compose(path, kappa)))
    return None


def scan_every_triple(g, bound):
    """`scan_aperiodicity` deciding every (vertex, p) from scratch, with no mirror memo."""
    bound = resolve_bound(g, bound)
    entries = []
    for v in g.vertices:
        for p in signed_vectors(g.k, bound):
            m, n = positive_part(p)
            res = local_periodicity_at(g, v, m, n)
            if res.periodic:
                return PeriodicReport(bound, p, res)
            entries.append((v, p, res))
    return AperiodicReport(bound, entries)


def k1_scan_finds_periodicity(g, bound):
    """Whether scan_aperiodicity(g, bound) is periodic, for k = 1, with no search.

    Claim: it is exactly when some cycle of length <= bound has every
    vertex on it the range of exactly one edge (a cycle without an
    entrance; Kumjian-Pask-Raeburn's Condition (L) fails on it).

    For k = 1 each signed p = +-d reduces to the pair {d, 0}, so the
    scan asks, for each vertex v and 1 <= d <= bound, whether
    sigma^d(x) = x for every infinite path x with range v.  Validation
    makes every vertex the range of some edge, so every finite path
    extends to an infinite one.

    If: a cycle mu of length l <= bound through v whose every vertex is
    the range of exactly one edge leaves one infinite path from v,
    mu.mu.mu..., and sigma^l fixes it.

    Only if: suppose sigma^d(x) = x for every x from v.  For lam in
    vLambda^d and any infinite y from s(lam), x = lam.y gives
    y = sigma^d(x) = x, so s(lam) = r(y) = v: every such lam is a cycle
    at v.  Two of them, lam != lam', would give x = lam'.lam.lam...
    with sigma^d(x) = lam.lam... != x; so vLambda^d = {lam}.  If a
    vertex lam(i), 0 <= i < d, were the range of an edge e other than
    lam's edge there, then lam(0, i).e would extend to a second path in
    vLambda^d.  So lam is a cycle of length d <= bound whose every
    vertex is the range of exactly one edge.

    Following the only edge into each such vertex is a partial map, and
    the forced walk from a vertex on such a cycle returns to it first
    after the cycle's least length, so walking at most `bound` steps
    from each vertex decides the claim.
    """
    if g.k != 1:
        raise ValueError("the cycle criterion is for 1-graphs")
    only = {}
    for u in g.vertices:
        eids = g.skeleton.by_range.get((u, 1), ())
        if len(eids) == 1:
            only[u] = g.skeleton.edges[eids[0]].source
    for u in only:
        w = u
        for _ in range(bound):
            w = only.get(w)
            if w is None:
                break
            if w == u:
                return True
    return False


def pairs_up_to(k, entry_bound):
    """Unordered {m, n} pairs with entries <= entry_bound, m != n, as a list."""
    degrees = list(product(range(entry_bound + 1), repeat=k))
    return [(m, n) for i, m in enumerate(degrees) for n in degrees[i + 1 :]]


def brute_force_sat_her_sets(g):
    """All saturated hereditary vertex sets by testing every subset."""
    from kgraph import is_hereditary, is_saturated

    verts = list(g.vertices)
    out = []
    for mask in range(1 << len(verts)):
        h = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if is_hereditary(g, h) and is_saturated(g, h):
            out.append(h)
    return sorted(out, key=lambda h: (len(h), sorted(h)))


def fixed_point_closure(g, seed):
    """Least saturated hereditary superset of seed, by whole-graph passes.

    The plain definition: add sources of edges with range in H, add
    vertices some color of whose edges all have source in H, and repeat
    until a pass changes nothing.
    """
    for v in seed:
        g.require_vertex(v)
    h = set(seed)
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
                if all(g.skeleton.edges[eid].source in h for eid in g.skeleton.by_range.get((v, color), ())):
                    h.add(v)
                    changed = True
                    break
    return frozenset(h)


def enumerate_sat_her_per_vertex(g):
    """All saturated hereditary sets, joined from every singleton closure."""
    from kgraph import sat_her_closure

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


def least_singleton_obstruction(g):
    """Least nontrivial fixed_point_closure({v}) by (size, contents), or None.

    None means every singleton closure is everything, that is, g is
    cofinal; otherwise the set is the expected cofinality certificate.
    """
    everything = frozenset(g.vertices)
    closures = [fixed_point_closure(g, {v}) for v in g.vertices]
    obstructions = [h for h in closures if h != everything]
    return min(obstructions, key=lambda h: (len(h), sorted(h)), default=None)


def normalize_by_schedule(g, edge_ids, schedule):
    """Normalize with an explicit swap order; for cross-checking only.

    `schedule` picks which out-of-order adjacent position to swap next,
    given the list of current positions; normalization must not care.
    Only descending pairs are swapped, so each swap reads `backward`.
    """
    arr = list(edge_ids)
    colors = g._colors
    while True:
        spots = [i for i in range(len(arr) - 1) if colors[arr[i]] > colors[arr[i + 1]]]
        if not spots:
            break
        i = schedule(spots)
        arr[i], arr[i + 1] = g.squares.backward[arr[i], arr[i + 1]]
    return tuple(arr)


def _composable_pairs(skeleton, edges, cj):
    """All (e1, e2) with e1 in `edges`, e2 of color cj and s(e1) = r(e2), in order."""
    return [(e.id, gid) for e in edges for gid in skeleton.by_range.get((e.source, cj), ())]


def validate_squares_reference(skeleton, table):
    """Exhaustively check the square table against a skeleton that passes validation."""
    problems = []
    for pair in table.duplicate_keys:
        problems.append(f"square {pair!r}: pair listed more than once")
    for image in table.duplicate_images:
        problems.append(f"square image {image!r}: hit by more than one pair")
    for (fid, gid), (g2id, f2id) in table.forward.items():
        missing = [eid for eid in (fid, gid, g2id, f2id) if eid not in skeleton.edges]
        if missing:
            problems.append(f"square {(fid, gid)!r}: unknown edge id(s) {missing!r}")
            continue
        f, g = skeleton.edges[fid], skeleton.edges[gid]
        g2, f2 = skeleton.edges[g2id], skeleton.edges[f2id]
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
    # Totality and bijectivity, color pair by color pair.  Each kind of
    # violation is reported once, by its first instance and its count, so
    # the report stays bounded in k.
    no_square, not_image = [], []
    by_color = {}  # edges of each color, sorted by id: one index for every color pair
    for eid in sorted(skeleton.edges):
        by_color.setdefault(skeleton.edges[eid].color, []).append(skeleton.edges[eid])
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


def validate_cubes_all_orders(skeleton, table):
    """Swap-order confluence on every composable triple of three distinct colors.

    Every color order of every cube is checked: reversing the order by
    swaps at positions (1,2),(0,1),(1,2) must agree with swapping at
    (0,1),(1,2),(0,1).  A swap of a descending pair looks up
    `table.backward`.  Needs a skeleton that passes validation.  Trivially
    true for k < 3.
    """
    problems = []
    colors = {eid: e.color for eid, e in skeleton.edges.items()}

    def swap(a, b):
        return (table.forward if colors[a] < colors[b] else table.backward)[(a, b)]

    for e1 in sorted(skeleton.edges):
        for color2 in range(1, skeleton.k + 1):
            if color2 == colors[e1]:
                continue
            for e2 in skeleton.by_range.get((skeleton.edges[e1].source, color2), ()):
                for color3 in range(1, skeleton.k + 1):
                    if color3 in (colors[e1], color2):
                        continue
                    for e3 in skeleton.by_range.get((skeleton.edges[e2].source, color3), ()):
                        try:
                            b1, c1 = swap(e2, e3)
                            a1, b2 = swap(e1, b1)
                            c2, b3 = swap(b2, c1)
                            x1, y1 = swap(e1, e2)
                            y2, z1 = swap(y1, e3)
                            x2, y3 = swap(x1, y2)
                        except KeyError as missing:
                            problems.append(f"cube ({e1},{e2},{e3}): square lookup failed for {missing}")
                            continue
                        if (a1, c2, b3) != (x2, y3, z1):
                            problems.append(
                                f"cube ({e1},{e2},{e3}): swap schedules disagree "
                                f"({(a1, c2, b3)!r} vs {(x2, y3, z1)!r})"
                            )
    return ValidationReport("cubes", problems)


_TOP_KEYS = ("k", "vertices", "edges", "squares")
_EDGE_KEYS = ("id", "color", "range", "source")


def _is_int(x):
    # bool is an int subclass; a color of `true` must not slip through.
    return isinstance(x, int) and not isinstance(x, bool)


def _check_id_pair(row, key, problems, where):
    val = row.get(key)
    if not (isinstance(val, list) and len(val) == 2 and all(isinstance(s, str) for s in val)):
        problems.append(f"{where}.{key}: expected a pair of edge ids, got {val!r}")
        return None
    return tuple(val)


def canonical_json_reference(obj):
    """Indented, key-sorted JSON from the standard library's encoder."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_graph_document_reference(data):
    """The document parser as first written, one hand-rolled key check per row kind."""
    problems = []
    if not isinstance(data, dict):
        raise DocumentError([f"document: expected a JSON object, got {type(data).__name__}"])
    for key in _TOP_KEYS:
        if key not in data:
            problems.append(f"document: missing key {key!r}")
    for key in sorted(set(data) - set(_TOP_KEYS)):
        problems.append(f"document: unknown key {key!r}")
    if problems:
        raise DocumentError(problems)

    k = data["k"]
    if not _is_int(k):
        problems.append(f"k: expected an integer, got {k!r}")
        k = 0

    vertices = data["vertices"]
    if not (isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)):
        problems.append("vertices: expected a list of strings")
        vertices = []
    else:
        seen = set()
        for v in vertices:
            if v in seen:
                problems.append(f"vertices: duplicate id {v!r}")
            seen.add(v)

    edges = []
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        problems.append("edges: expected a list")
        raw_edges = []
    edge_ids = set()
    for i, row in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: expected an object")
            continue
        bad = False
        for key in _EDGE_KEYS:
            if key not in row:
                problems.append(f"{where}: missing key {key!r}")
                bad = True
        for key in sorted(set(row) - set(_EDGE_KEYS)):
            problems.append(f"{where}: unknown key {key!r}")
            bad = True
        if bad:
            continue
        if not isinstance(row["id"], str):
            problems.append(f"{where}.id: expected a string, got {row['id']!r}")
            bad = True
        if not _is_int(row["color"]):
            problems.append(f"{where}.color: expected an integer, got {row['color']!r}")
            bad = True
        for key in ("range", "source"):
            if not isinstance(row[key], str):
                problems.append(f"{where}.{key}: expected a string, got {row[key]!r}")
                bad = True
        if bad:
            continue
        if row["id"] in edge_ids:
            problems.append(f"{where}.id: duplicate edge id {row['id']!r}")
            continue
        edge_ids.add(row["id"])
        edges.append(Edge(row["id"], row["color"], row["range"], row["source"]))

    entries = []
    raw_squares = data["squares"]
    if not isinstance(raw_squares, list):
        problems.append("squares: expected a list")
        raw_squares = []
    for i, row in enumerate(raw_squares):
        where = f"squares[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: expected an object")
            continue
        bad = False
        for key in ("pair", "image"):
            if key not in row:
                problems.append(f"{where}: missing key {key!r}")
                bad = True
        for key in sorted(set(row) - {"pair", "image"}):
            problems.append(f"{where}: unknown key {key!r}")
            bad = True
        if bad:
            continue
        pair = _check_id_pair(row, "pair", problems, where)
        image = _check_id_pair(row, "image", problems, where)
        if pair is not None and image is not None:
            entries.append((pair, image))

    if problems:
        raise DocumentError(problems)
    return Skeleton(k, vertices, edges), SquareTable(entries)


def condition_b_oracle(g, v, depth):
    """Brute-force check: does some sampled x separate all bounded pairs?

    Samples eventually periodic x from v (prefix/loop entries <= depth)
    and returns True when one of them satisfies mu.x != nu.x for every
    distinct mu, nu with source v and |d| <= depth.  Exponential and
    proud of it.
    """
    g.require_vertex(v)
    into = []
    for n in product(range(depth + 1), repeat=g.k):
        if sum(n) <= depth:
            for u in g.vertices:
                into.extend(p for p in iter_paths(g, u, n) if p.source_vertex == v)
    cache = {}
    for x in ep_samples(g, v, depth, depth):
        ok = True
        for i, mu in enumerate(into):
            for nu in into[i + 1 :]:
                if ep_equal(ep_compose(mu, x), ep_compose(nu, x), cache):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _reachable_from(g, v):
    """Vertices reachable from v walking edges range -> source."""
    seen = {v}
    stack = [v]
    while stack:
        cur = stack.pop()
        for color in range(1, g.k + 1):
            for eid in g.skeleton.by_range.get((cur, color), ()):
                nxt = g.skeleton.edges[eid].source
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def cofinality_oracle(g, depth):
    """Sampled cross-check: every vertex meets every sampled path.

    For each eventually periodic x (prefix/loop entries <= depth, from
    every start vertex) and each vertex v, look for n <= depth*(1,..,1)
    with x(n) reachable from v.

    The verdict for x depends only on the box segment x(0, depth*1):
    every position searched lies inside it.  Samples sharing that
    segment are checked once.  A vertex whose forward reach is the
    whole graph meets any sample (hits contain the start vertex), so
    when every vertex has full reach the loop cannot fail at all.
    """
    reach = {v: _reachable_from(g, v) for v in g.vertices}
    need = [v for v in g.vertices if len(reach[v]) < len(g.vertices)]
    if not need:
        return True
    zero = (0,) * g.k
    top = (depth,) * g.k
    boxes = list(product(range(depth + 1), repeat=g.k))
    for start in g.vertices:
        seen = set()
        for x in ep_samples(g, start, depth, depth):
            lam = ep_segment_by_compose(x, zero, top)
            key = path_key(lam)
            if key in seen:
                continue
            seen.add(key)
            hits = {segment(lam, n, n).range_vertex for n in boxes}
            for v in need:
                if not (hits & reach[v]):
                    return False
    return True


def minimized(x):
    """Peel whole loop copies off the prefix tail; the same infinite path."""
    rho, gam = x.prefix, x.loop
    g = gam.degree
    while leq(g, rho.degree):
        head, tail = factor(rho, subtract(rho.degree, g))
        if tail != gam:
            break
        rho = head
    return EventuallyPeriodicPath(rho, gam)


def ep_equal(x, y, cycle_cache=None):
    """Exact equality of the denoted infinite paths, block by block.

    After cutting both paths at the join of the prefix degrees, the tails
    are purely periodic, and a purely periodic tail is determined by the
    cycle formed by its next loop-degree worth of edges.  Comparing the
    two tails over blocks of degree g1 + g2 and memoizing the visited
    cycle pairs terminates (finitely many cycles of a fixed degree) and is
    exact: a difference at any degree shows up in some block, and a
    revisited pair means the comparison has entered a cycle that can never
    produce a difference.  `cycle_cache` may be a dict shared across calls
    on one graph; it memoizes verdicts for pure-cycle pairs.
    """
    if x.prefix.graph is not y.prefix.graph:
        return False
    if x.prefix.range_vertex != y.prefix.range_vertex:
        return False
    cut = join(x.prefix.degree, y.prefix.degree)
    hx, cx, _ = _unrolled_cut(x.prefix, x.loop, cut, x.loop.degree)
    hy, cy, _ = _unrolled_cut(y.prefix, y.loop, cut, y.loop.degree)
    return hx == hy and _cycles_equal(cx, cy, cycle_cache)


def _cycles_equal(cx, cy, cache=None):
    """Whether cx^inf = cy^inf; both must be cycles at the same vertex."""
    start = path_key(cx, cy)
    if cache is not None and start in cache:
        return cache[start]
    seen = set()
    state = (cx, cy)
    verdict = True
    while path_key(*state) not in seen:
        seen.add(path_key(*state))
        a, b = state
        block = add(a.degree, b.degree)
        # a^inf is a.a^inf, so each side unrolls from its own cycle.
        ha, a, _ = _unrolled_cut(a, a, block, a.degree)
        hb, b, _ = _unrolled_cut(b, b, block, b.degree)
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


def rep_apply(g, eta, x):
    """The generator for eta applied to the basis vector of x, or None (the zero vector)."""
    if eta.graph is not g:
        raise ContractViolationError("eta belongs to a different graph")
    if x.prefix.range_vertex != eta.source_vertex:
        return None
    return ep_compose(eta, x)


def rep_apply_adjoint(g, eta, x):
    """The adjoint generator: strips eta off the front of x, or None."""
    if eta.graph is not g:
        raise ContractViolationError("eta belongs to a different graph")
    if x.prefix.range_vertex != eta.range_vertex:
        return None
    head, rest = _unrolled_cut(x.prefix, x.loop, eta.degree)
    if head != eta:
        return None
    return minimized(EventuallyPeriodicPath(rest, x.loop))


def annihilates(g, elem, x, cycle_cache=None):
    """Whether the defect element sends the basis vector of x to zero."""
    y = rep_apply_adjoint(g, elem.mu_alpha, x)
    if y is None:
        return True
    # mu.alpha.y denotes x, and y starts at s(nu.alpha), so that prepend is not zero.
    return ep_equal(x, rep_apply(g, elem.nu_alpha, y), cycle_cache)


def segment(lam, m, n):
    """lam(m, n) (m <= n <= d(lam)): the middle piece of one three-piece `factor`."""
    return factor(lam, m, subtract(n, m))[1]


def segment_by_compose(lam, m, n):
    """lam(m, n) as the tail of the head: factor at n, then at m."""
    if not leq(m, n):
        raise ContractViolationError(f"segment needs m <= n, got {m!r}, {n!r}")
    head, _ = factor(lam, n)
    _, mid = factor(head, m)
    return mid


def unrolled_by_compose(x, n):
    """A finite prefix of x of degree >= n, one loop copy composed at a time."""
    full = x.prefix
    while not leq(n, full.degree):
        full = compose(full, x.loop)
    return full


def ep_segment_by_compose(x, m, n):
    return segment_by_compose(unrolled_by_compose(x, n), m, n)


def ep_shift_by_compose(x, p):
    _, rho = factor(unrolled_by_compose(x, p), p)
    return minimized(EventuallyPeriodicPath(rho, x.loop))


def rep_apply_adjoint_by_compose(g, eta, x):
    if x.prefix.range_vertex != eta.range_vertex:
        return None
    if ep_segment_by_compose(x, (0,) * g.k, eta.degree) != eta:
        return None
    return ep_shift_by_compose(x, eta.degree)


def ep_equal_by_compose(x, y):
    """Equality of the denoted paths: the prefix block, then the cycles."""
    if x.prefix.graph is not y.prefix.graph or x.prefix.range_vertex != y.prefix.range_vertex:
        return False
    cut = join(x.prefix.degree, y.prefix.degree)
    zero = (0,) * len(cut)
    if ep_segment_by_compose(x, zero, cut) != ep_segment_by_compose(y, zero, cut):
        return False
    cx = ep_segment_by_compose(x, cut, add(cut, x.loop.degree))
    cy = ep_segment_by_compose(y, cut, add(cut, y.loop.degree))
    return cycles_equal_by_compose(cx, cy)


def cycles_equal_by_compose(cx, cy):
    """Whether cx^inf = cy^inf, stepping on pure-cycle wrappers."""
    seen = set()
    state = (cx, cy)
    while path_key(*state) not in seen:
        seen.add(path_key(*state))
        a, b = state
        xa = EventuallyPeriodicPath(a.graph.path(a.range_vertex, ()), a)
        xb = EventuallyPeriodicPath(b.graph.path(b.range_vertex, ()), b)
        block = add(a.degree, b.degree)
        zero = (0,) * len(block)
        if ep_segment_by_compose(xa, zero, block) != ep_segment_by_compose(xb, zero, block):
            return False
        state = (
            ep_segment_by_compose(xa, block, add(block, a.degree)),
            ep_segment_by_compose(xb, block, add(block, b.degree)),
        )
    return True


def vertex_matrices(skeleton):
    """One matrix per color: entry (v, w) counts color-i edges v <- w.

    Rows and columns follow sorted vertex order; a matrix is a list of
    rows of Python ints, so products are exact.  A skeleton that fails
    validation is refused.
    """
    if not skeleton.validate().ok:
        raise ContractViolationError("skeleton fails validation")
    index = {v: i for i, v in enumerate(skeleton.vertices)}
    size = len(skeleton.vertices)
    mats = [[[0] * size for _ in range(size)] for _ in range(skeleton.k)]
    for e in skeleton.edges.values():
        mats[e.color - 1][index[e.range]][index[e.source]] += 1
    return mats


def matmul(a, b):
    """Product of two square int matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matrix_power(m, e):
    out = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    for _ in range(e):
        out = matmul(out, m)
    return out


def core_dimensions(g, n):
    """|Lambda^n v| for every v: column sums of the product of matrix powers."""
    g.require_rank(n)
    acc = None
    for m, power in zip(vertex_matrices(g.skeleton), n):
        p = matrix_power(m, power)
        acc = p if acc is None else matmul(acc, p)
    return {v: sum(row[i] for row in acc) for i, v in enumerate(g.vertices)}


def path_count_row(g, v, n):
    """|vLambda^n w| for every w in `g.vertices` order: row v of the product of matrix powers."""
    g.require_rank(n)
    row = [int(w == v) for w in g.vertices]
    for m, power in zip(vertex_matrices(g.skeleton), n):
        for _ in range(power):
            row = [sum(x * y for x, y in zip(row, col)) for col in zip(*m)]
    return row


def ep_samples_unique(g, v, prefix_bound, loop_bound):
    """Like ep_samples but deduplicated by minimized representation."""
    seen = set()
    for x in ep_samples(g, v, prefix_bound, loop_bound):
        m = minimized(x)
        key = path_key(m.prefix, m.loop)
        if key not in seen:
            seen.add(key)
            yield m


def aperiodic_prefix(g, v, pairs):
    """Chain one separating witness per pair into a single path from v.

    Raises if any pair turns out periodic at the reached vertex.
    """
    eta = g.path(v, ())
    for idx, (m, n) in enumerate(pairs):
        res = local_periodicity_at(g, eta.source_vertex, m, n)
        if res.periodic:
            raise ContractViolationError(
                f"pair #{idx} {(m, n)!r} is periodic at {eta.source_vertex!r}"
            )
        eta = compose(eta, res.lam)
    return eta
