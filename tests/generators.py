"""Seeded random valid graphs for property tests.

Validity is by construction, not rejection sampling:

k = 1   any skeleton works (no squares).
k = 2   color 2 copies the shape of color 1 (same range/source multiset,
        fresh ids), which makes the vertex matrices equal and hence
        commuting; the square bijection is then a uniformly random
        endpoint-preserving matching per (range, source) block.
k = 3   every color is functional (exactly one out-edge per vertex) with
        source maps drawn as powers of one random self-map, so the maps
        commute, every square is forced, and the cube condition holds
        because each degree has a unique path.

`twisted_product_k3` adds k = 3 graphs with non-trivial cubes: products
of 1-graphs with parallel edges, twisted in colors (1, 2).
`twisted_product_k2` is the k = 2 product of two such 1-graphs: its
vertex matrices commute but are not equal.
`exchanged_tables` mutates a valid square table into others that are
still bijections but may break cubes.
`disjoint_union` puts graphs of one rank side by side, which gives a
graph several terminal components.  `cycle_product` is an untwisted
product of two cycles, a graph of any size with one component, and
`wide_graph` is one with more than 20 vertices and a small lattice.
"""

import random
from itertools import combinations, product

from kgraph import Edge, KGraph, Skeleton, SquareTable


def _vertex_names(n):
    return [f"v{i}" for i in range(n)]


def _random_shape(rng, vertices, max_edges=3):
    """(range, source) pairs: every vertex gets an out-edge, then extras."""
    shape = [(v, rng.choice(vertices)) for v in vertices]
    while len(shape) < max_edges and rng.random() < 0.5:
        shape.append((rng.choice(vertices), rng.choice(vertices)))
    return shape[:max_edges]


def _copy_shape_edges(shape, k):
    edges = []
    for color in range(1, k + 1):
        for t, (rv, sv) in enumerate(shape):
            edges.append(Edge(f"e{color}_{t}", color, rv, sv))
    return edges


def _block_bijection(rng, skel):
    """Random square table for k=2 copy-shape skeletons."""
    lhs = {}
    rhs = {}
    for eid, e in skel.edges.items():
        if e.color != 1:
            continue
        for gid in skel.by_range.get((e.source, 2), ()):
            g = skel.edges[gid]
            lhs.setdefault((e.range, g.source), []).append((eid, gid))
    for gid, g in skel.edges.items():
        if g.color != 2:
            continue
        for fid in skel.by_range.get((g.source, 1), ()):
            f = skel.edges[fid]
            rhs.setdefault((g.range, f.source), []).append((gid, fid))
    entries = []
    for key in sorted(lhs):
        left = sorted(lhs[key])
        right = sorted(rhs[key])
        assert len(left) == len(right)  # equal matrices commute
        rng.shuffle(right)
        entries.extend(zip(left, right))
    return SquareTable(entries)


def _functional_k3(rng, vertices):
    """Three functional colors with commuting source maps (powers of h)."""
    h = {v: rng.choice(vertices) for v in vertices}

    def power(v, a):
        for _ in range(a):
            v = h[v]
        return v

    exps = [rng.randrange(3) for _ in range(3)]
    edges = []
    for color, a in enumerate(exps, start=1):
        for i, v in enumerate(vertices):
            edges.append(Edge(f"e{color}_{i}", color, v, power(v, a)))
    skel = Skeleton(3, vertices, edges)
    entries = []
    for ci in range(1, 4):
        for cj in range(ci + 1, 4):
            for eid in sorted(skel.edges):
                f = skel.edges[eid]
                if f.color != ci:
                    continue
                (gid,) = skel.by_range.get((f.source, cj), ())
                (g2id,) = skel.by_range.get((f.range, cj), ())
                (f2id,) = skel.by_range.get((skel.edges[g2id].source, ci), ())
                entries.append(((eid, gid), (g2id, f2id)))
    return skel, SquareTable(entries)


def random_kgraph(seed):
    """A validated KGraph; the shape mix is controlled by the seed."""
    rng = random.Random(seed)
    k = rng.choice([1, 2, 2, 2, 3])
    vertices = _vertex_names(rng.randint(1, 3))
    if k == 3:
        skel, squares = _functional_k3(rng, vertices)
    else:
        shape = _random_shape(rng, vertices)
        skel = Skeleton(k, vertices, _copy_shape_edges(shape, k))
        squares = _block_bijection(rng, skel) if k == 2 else SquareTable([])
    return KGraph(skel, squares)


def corpus(count, base_seed=20260819):
    return [random_kgraph(base_seed + i) for i in range(count)]


def _one_graph(rng, tag, nv):
    """Random 1-graph (vertices, [(id, range, source)]) with a parallel pair."""
    verts = [f"{tag}{i}" for i in range(nv)]
    pairs = [(v, rng.choice(verts)) for v in verts]
    pairs.append(rng.choice(pairs))
    return verts, [(f"{tag}e{i}", r, s) for i, (r, s) in enumerate(pairs)]


def _twisted_product(rng, factors):
    """The product of the 1-graphs `factors`, twisted in colors (1, 2).

    A vertex is a coordinate tuple and a color-i edge has its factor edge
    in coordinate i.  For colors i < j the square swaps the two factor
    edges, except that in colors (1, 2) the image's first-factor edge is
    tau(e), the next edge of e's parallel class, for f in a random
    nonempty set of second-factor edges.
    """
    classes = {}
    for eid, r, s in factors[0][1]:
        classes.setdefault((r, s), []).append(eid)
    tau = {c[i - 1]: c[i] for c in classes.values() for i in range(len(c))}
    f_ids = [fid for fid, _, _ in factors[1][1]]
    twisted = {fid for fid in f_ids if rng.random() < 0.5} or {f_ids[0]}
    points = list(product(*(verts for verts, _ in factors)))

    def at(point, changes):
        return ".".join(changes.get(t, c) for t, c in enumerate(point))

    edges = [
        Edge(at(p, {i: eid}), i + 1, at(p, {}), at(p, {i: s}))
        for i, (_, factor_edges) in enumerate(factors)
        for eid, r, s in factor_edges
        for p in points
        if p[i] == r
    ]
    entries = []
    for i, j in combinations(range(len(factors)), 2):
        for eid, er, es in factors[i][1]:
            for fid, fr, fs in factors[j][1]:
                e2 = tau[eid] if (i, j) == (0, 1) and fid in twisted else eid
                for p in points:
                    if p[i] == er and p[j] == fr:
                        pair = (at(p, {i: eid}), at(p, {i: es, j: fid}))
                        entries.append((pair, (at(p, {j: fid}), at(p, {i: e2, j: fs}))))
    skeleton = Skeleton(len(factors), [at(p, {}) for p in points], edges)
    return KGraph(skeleton, SquareTable(entries))


def cycle_product(m, n):
    """The 2-graph product of an m-cycle and an n-cycle: m*n vertices, one component."""
    factors = []
    for tag, size in (("x", m), ("y", n)):
        verts = [f"{tag}{i}" for i in range(size)]
        factors.append((verts, [(f"{tag}e{i}", v, verts[i - 1]) for i, v in enumerate(verts)]))
    # Every parallel class has one edge, so the twist changes nothing.
    return _twisted_product(random.Random(0), factors)


def wide_graph():
    """A 4x5 cycle product beside three k = 2 products: 32 vertices, 64 ideals."""
    return disjoint_union([cycle_product(4, 5)] + k2_products(3))


def twisted_product_k2(seed):
    """E x_tau F for random 1-graphs E on two vertices and F, each with a parallel pair.

    The vertex matrices A_E (x) I and I (x) A_F commute, and they are
    equal only if A_E and A_F are one multiple of the identity.  A_E is
    not: its two rows (the edges with range at each vertex) sum to 2 and 1.
    """
    rng = random.Random(seed)
    return _twisted_product(rng, [_one_graph(rng, "x", 2), _one_graph(rng, "y", rng.randint(1, 2))])


def twisted_product_k3(seed):
    """(E x_tau F) x G for random 1-graphs E, F, G, each with a parallel pair.

    The parallel edges make squares and cubes non-trivial; the cubes
    commute because a 2-graph times a 1-graph is a 3-graph.
    """
    rng = random.Random(seed)
    return _twisted_product(rng, [_one_graph(rng, tag, rng.randint(1, 2)) for tag in "xyz"])


def k2_products(count, base_seed=20261018):
    return [twisted_product_k2(base_seed + i) for i in range(count)]


def k3_products(count, base_seed=20261018):
    return [twisted_product_k3(base_seed + i) for i in range(count)]


def exchanged_tables(g):
    """Square tables of g with the images of two squares in one block exchanged.

    A block is the squares of one color pair sharing range and source;
    every pair of squares in each block is exchanged in turn.
    """
    skel, entries = g.skeleton, g.squares.entries
    blocks = {}
    for idx, ((a, b), _) in enumerate(entries):
        key = (skel.edges[a].color, skel.edges[b].color, skel.edges[a].range, skel.edges[b].source)
        blocks.setdefault(key, []).append(idx)
    for ids in blocks.values():
        for i, j in combinations(ids, 2):
            swapped = list(entries)
            swapped[i], swapped[j] = (entries[i][0], entries[j][1]), (entries[j][0], entries[i][1])
            yield SquareTable(swapped)


def disjoint_union(graphs):
    """One graph holding a renamed copy of each graph, all of one rank.

    Copy t prefixes every vertex and edge id with `c<t>.`, so a graph may
    appear more than once and its copies tie in size.
    """
    (k,) = {g.k for g in graphs}
    vertices, edges, entries = [], [], []
    for t, g in enumerate(graphs):
        c = f"c{t}."
        vertices += [c + v for v in g.vertices]
        edges += [Edge(c + e.id, e.color, c + e.range, c + e.source) for e in g.skeleton.edges.values()]
        entries += [
            (tuple(c + eid for eid in pair), tuple(c + eid for eid in image))
            for pair, image in g.squares.entries
        ]
    return KGraph(Skeleton(k, vertices, edges), SquareTable(entries))
