"""Seeded inputs for the kgraph benchmark.

Every input is a graph document in the package's JSON interchange shape
(`k`, `vertices`, `edges`, `squares`).  The documents are built here, not
taken from the package's fixtures or from `tests/generators.py`, so that
edits to either cannot shift what the benchmark runs.  Each workload's
inputs are a pure function of the seed; `digest` hashes the serialized
documents so a run can show which inputs it measured.

Graph families, all valid by construction:

* k=1: random 1-graphs (every vertex is the range of some edge).
* k=2 copy-shape: color 2 repeats the shape of color 1, so the two vertex
  matrices are equal; each square block is a random bijection.
* k=2 twisted product E x_tau F of two 1-graphs.  The squares send the
  pair (e, f) to (f, tau_f(e)), where tau_f permutes every parallel class
  of E at random for f in a random subset of F's edges and is the
  identity otherwise.  The vertex matrices A (x) I and I (x) B commute but
  differ.
* k=3 functional: one out-edge per vertex and color, source maps drawn as
  powers of one self-map, so every square and cube is forced.
* k=3 product (E x_tau F) x G: a twisted 2-graph times a 1-graph.  With
  parallel edges the cube condition is exercised on non-trivial squares,
  and it holds because a product of a 2-graph and a 1-graph is a 3-graph.
"""

import hashlib
import json
import random
from itertools import product as _iproduct

# Fixtures F and D2 of the package (see kgraph/fixtures.py), copied as data.
_F = {
    "k": 2,
    "vertices": ["v"],
    "edges": [("b0", 1, "v", "v"), ("b1", 1, "v", "v"), ("r0", 2, "v", "v"), ("r1", 2, "v", "v")],
    "squares": [
        (("b0", "r0"), ("r0", "b1")),
        (("b0", "r1"), ("r1", "b1")),
        (("b1", "r0"), ("r0", "b0")),
        (("b1", "r1"), ("r1", "b0")),
    ],
}
_D2 = {
    "k": 2,
    "vertices": ["u", "w"],
    "edges": [
        ("bu0", 1, "u", "u"),
        ("bu1", 1, "u", "u"),
        ("ru0", 2, "u", "u"),
        ("ru1", 2, "u", "u"),
        ("bw", 1, "w", "w"),
        ("rw", 2, "w", "w"),
        ("cb", 1, "w", "u"),
        ("cr", 2, "w", "u"),
    ],
    "squares": [
        (("bu0", "ru0"), ("ru0", "bu1")),
        (("bu0", "ru1"), ("ru1", "bu1")),
        (("bu1", "ru0"), ("ru0", "bu0")),
        (("bu1", "ru1"), ("ru1", "bu0")),
        (("bw", "rw"), ("rw", "bw")),
        (("cb", "ru0"), ("cr", "bu0")),
        (("cb", "ru1"), ("cr", "bu1")),
        (("bw", "cr"), ("rw", "cb")),
    ],
}

SCAN_FIXTURES = {"F": _F, "D2": _D2}

# corpus strata: name -> (graphs drawn per seed, heaviest graphs always drawn).
# The pool of a stratum holds `always + CELL * (drawn - always)` graphs.
CORPUS_STRATA = {
    "k1": (70, 0),
    "k2_copy": (30, 0),
    "k2_twist": (50, 2),
    "k3_functional": (20, 0),
    "k3_product": (30, 1),
}
CELL = 3


def document(k, vertices, edges, squares):
    """Interchange dict from (id, color, range, source) rows and square pairs."""
    return {
        "k": k,
        "vertices": sorted(vertices),
        "edges": [
            {"id": i, "color": c, "range": r, "source": s} for i, c, r, s in sorted(edges)
        ],
        "squares": [
            {"pair": list(p), "image": list(q)} for p, q in sorted(squares)
        ],
    }


def dumps(doc):
    """The serialization every workload feeds to the package."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def digest(texts):
    """sha256 over a sequence of serialized documents, order included."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def text_key(text):
    """Short content key of one serialized document."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


# -- 1-graphs ----------------------------------------------------------------


def _one_graph(rng, vprefix, eprefix, nv, extra, parallel):
    """Random 1-graph as (vertices, [(id, range, source)]).

    Every vertex is the range of an edge (the validator needs an outgoing
    edge of each color at every vertex); `parallel` extra copies of
    existing edges create the parallel classes that twists permute.
    """
    verts = [f"{vprefix}{i}" for i in range(nv)]
    pairs = [(v, rng.choice(verts)) for v in verts]
    pairs += [(rng.choice(verts), rng.choice(verts)) for _ in range(extra)]
    pairs += [rng.choice(pairs) for _ in range(parallel)]
    return verts, [(f"{eprefix}{i}", r, s) for i, (r, s) in enumerate(pairs)]


def _strong_one_graph(rng, vprefix, eprefix, nv, extra, parallel, start=0):
    """Strongly connected 1-graph: a cycle through every vertex plus extras."""
    verts = [f"{vprefix}{start + i}" for i in range(nv)]
    pairs = [(verts[i], verts[(i + 1) % nv]) for i in range(nv)]
    pairs += [(rng.choice(verts), rng.choice(verts)) for _ in range(extra)]
    pairs += [rng.choice(pairs) for _ in range(parallel)]
    return verts, [(f"{eprefix}{start + i}", r, s) for i, (r, s) in enumerate(pairs)]


def _layered_one_graph(rng, vprefix, eprefix, blocks, extra, parallel, links):
    """Strongly connected blocks with edges only from lower blocks into higher.

    The union of the lowest blocks is hereditary and saturated in the
    1-graph, for every number of them short of all, so products with
    this factor are not cofinal and have several obstructions.
    """
    verts, edges, below = [], [], []
    for level, size in enumerate(blocks):
        block, block_edges = _strong_one_graph(
            rng, vprefix, f"{eprefix}{level}_", size, extra, parallel, start=len(verts)
        )
        if below:
            edges += [
                (f"{eprefix}{level}x{i}", rng.choice(block), rng.choice(below)) for i in range(links)
            ]
        verts += block
        edges += block_edges
        below += block
    return verts, edges


# -- products ----------------------------------------------------------------


def product_document(factors, twist):
    """Document of the product of 1-graphs, twisted in colors (1, 2).

    `factors[i]` is the 1-graph of color i+1.  Names join coordinates with
    dots: a color-i edge has its factor edge in coordinate i and vertices
    elsewhere.  For colors i < j the square sends the pair (e, f) to
    (f, e) with the other coordinates fixed, except that in colors (1, 2)
    the image's E-edge is `twist[f][e]`, a parallel of e, when f is
    twisted.
    """
    k = len(factors)
    vertex_lists = [verts for verts, _ in factors]

    def name(rest, placed):
        """Join `rest` (coordinates in order) with {position: value} inserted."""
        coords = list(rest)
        for pos in sorted(placed):
            coords.insert(pos, placed[pos])
        return ".".join(coords)

    def others(*skip):
        return _iproduct(*(vl for t, vl in enumerate(vertex_lists) if t not in skip))

    vertices = [".".join(c) for c in _iproduct(*vertex_lists)]
    edges = [
        (name(rest, {i: eid}), i + 1, name(rest, {i: r}), name(rest, {i: s}))
        for i, (_, factor_edges) in enumerate(factors)
        for eid, r, s in factor_edges
        for rest in others(i)
    ]
    squares = []
    for i in range(k):
        for j in range(i + 1, k):
            for fid, fr, fs in factors[j][1]:
                tau = twist.get(fid, {}) if (i, j) == (0, 1) else {}
                for eid, er, es in factors[i][1]:
                    for rest in others(i, j):
                        pair = (name(rest, {i: eid, j: fr}), name(rest, {i: es, j: fid}))
                        image = (name(rest, {i: er, j: fid}), name(rest, {i: tau.get(eid, eid), j: fs}))
                        squares.append((pair, image))
    return document(k, vertices, edges, squares)


def _random_twist(rng, e_graph, f_graph):
    """For about half of F's edges, a random permutation of every parallel class of E."""
    classes = {}
    for eid, r, s in e_graph[1]:
        classes.setdefault((r, s), []).append(eid)
    twist = {}
    for fid, _, _ in f_graph[1]:
        if rng.random() < 0.5:
            tau = {}
            for members in classes.values():
                shuffled = list(members)
                rng.shuffle(shuffled)
                tau.update(zip(members, shuffled))
            twist[fid] = tau
    return twist


# -- small corpus graphs -----------------------------------------------------


def _k1(rng):
    verts, edges = _one_graph(rng, "x", "a", rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 1))
    return document(1, verts, [(i, 1, r, s) for i, r, s in edges], [])


def _k2_copy(rng):
    """Equal vertex matrices; a random bijection on every square block."""
    verts, shape = _one_graph(rng, "x", "a", rng.randint(1, 3), rng.randint(0, 1), 0)
    edges = [(f"p{t}", 1, r, s) for t, (_, r, s) in enumerate(shape)]
    edges += [(f"q{t}", 2, r, s) for t, (_, r, s) in enumerate(shape)]
    ones = [e for e in edges if e[1] == 1]
    twos = [e for e in edges if e[1] == 2]
    lhs, rhs = {}, {}
    for f in ones:
        for g in twos:
            if f[3] == g[2]:
                lhs.setdefault((f[2], g[3]), []).append((f[0], g[0]))
    for g in twos:
        for f in ones:
            if g[3] == f[2]:
                rhs.setdefault((g[2], f[3]), []).append((g[0], f[0]))
    squares = []
    for key in sorted(lhs):
        left = sorted(lhs[key])
        right = sorted(rhs[key])
        rng.shuffle(right)
        squares.extend(zip(left, right))
    return document(2, verts, edges, squares)


def _product_sizes(rng, k):
    """Vertex counts of the k factors: at most 4 vertices for k=2, 2 for k=3."""
    choices = {
        2: [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1)],
        3: [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)],
    }
    return rng.choice(choices[k])


def _k2_twist(rng):
    ne, nf = _product_sizes(rng, 2)
    e = _one_graph(rng, "x", "a", ne, rng.randint(0, 1), rng.randint(0, 2))
    f = _one_graph(rng, "y", "b", nf, rng.randint(0, 1), rng.randint(0, 1))
    return product_document([e, f], _random_twist(rng, e, f))


def _k3_functional(rng):
    verts = [f"x{i}" for i in range(rng.randint(1, 4))]
    h = {v: rng.choice(verts) for v in verts}

    def power(v, a):
        for _ in range(a):
            v = h[v]
        return v

    exps = [rng.randrange(3) for _ in range(3)]
    out = {}
    edges = []
    for color, a in enumerate(exps, start=1):
        for i, v in enumerate(verts):
            eid = f"e{color}_{i}"
            edges.append((eid, color, v, power(v, a)))
            out[(v, color)] = eid
    source = {e[0]: e[3] for e in edges}
    squares = []
    for ci in range(1, 4):
        for cj in range(ci + 1, 4):
            for eid, color, r, s in edges:
                if color != ci:
                    continue
                gid = out[(s, cj)]
                g2 = out[(r, cj)]
                f2 = out[(source[g2], ci)]
                squares.append(((eid, gid), (g2, f2)))
    return document(3, verts, edges, squares)


def _k3_product(rng):
    ne, nf, ng = _product_sizes(rng, 3)
    e = _one_graph(rng, "x", "a", ne, rng.randint(0, 1), rng.randint(0, 1))
    f = _one_graph(rng, "y", "b", nf, 0, rng.randint(0, 1))
    g = _one_graph(rng, "z", "c", ng, 0, 0)
    return product_document([e, f, g], _random_twist(rng, e, f))


_CORPUS_BUILDERS = {
    "k1": _k1,
    "k2_copy": _k2_copy,
    "k2_twist": _k2_twist,
    "k3_functional": _k3_functional,
    "k3_product": _k3_product,
}


def corpus_pool_entry(stratum, index):
    """Serialized document of one pool graph; fixed for all seeds."""
    rng = random.Random(f"kgraph-bench corpus {stratum} {index}")
    return dumps(_CORPUS_BUILDERS[stratum](rng))


def _pool_size(drawn, always):
    return always + CELL * (drawn - always)


def corpus_pool():
    """Every (stratum, index) of the pool, in a fixed order."""
    return [(s, i) for s, spec in CORPUS_STRATA.items() for i in range(_pool_size(*spec))]


def corpus_selection(seed, work):
    """The (stratum, index) list a seed draws, in seeded order.

    Within each stratum the pool is sorted by `work` (a per-graph cost
    recorded with the expected verdicts).  The `always` heaviest graphs
    are drawn by every seed; the rest is cut into cells of CELL graphs of
    neighbouring cost, and a seed takes one graph from each cell.  Seeds
    then differ in which graphs they measure but hardly in how much work
    a pass holds.
    """
    rng = random.Random(f"kgraph-bench corpus pick {seed}")
    picked = []
    for stratum, (drawn, always) in CORPUS_STRATA.items():
        size = _pool_size(drawn, always)
        ranked = sorted(range(size), key=lambda i: (work[(stratum, i)], i))
        picked += [(stratum, i) for i in ranked[size - always :]]
        picked += [
            (stratum, rng.choice(ranked[c * CELL : (c + 1) * CELL])) for c in range(drawn - always)
        ]
    rng.shuffle(picked)
    return picked


# -- large presentations -----------------------------------------------------


def _large_k2_plain(shape, rng):
    """Untwisted product, E layered: not cofinal."""
    e = _layered_one_graph(shape, "x", "a", [6, 6], extra=3, parallel=9, links=5)
    f = _strong_one_graph(shape, "y", "b", 16, extra=4, parallel=14)
    return product_document([e, f], {})


def _large_k2_twisted(shape, rng):
    """Twisted product of two strongly connected 1-graphs: cofinal."""
    e = _strong_one_graph(shape, "x", "a", 14, extra=4, parallel=14)
    f = _strong_one_graph(shape, "y", "b", 14, extra=4, parallel=10)
    return product_document([e, f], _random_twist(rng, e, f))


def _large_k3_layered(shape, rng):
    """(E x_tau F) x G with G layered: not cofinal."""
    e = _strong_one_graph(shape, "x", "a", 6, extra=2, parallel=5)
    f = _strong_one_graph(shape, "y", "b", 6, extra=2, parallel=4)
    g = _layered_one_graph(shape, "z", "c", [3, 3], extra=1, parallel=2, links=2)
    return product_document([e, f, g], _random_twist(rng, e, f))


def _large_k3_strong(shape, rng):
    """(E x_tau F) x G of strongly connected 1-graphs: cofinal."""
    e = _strong_one_graph(shape, "x", "a", 6, extra=2, parallel=5)
    f = _strong_one_graph(shape, "y", "b", 5, extra=2, parallel=4)
    g = _strong_one_graph(shape, "z", "c", 6, extra=2, parallel=3)
    return product_document([e, f, g], _random_twist(rng, e, f))


def _large_k2_wide(shape, rng):
    """The largest twisted product, F in three layers: not cofinal."""
    e = _strong_one_graph(shape, "x", "a", 20, extra=5, parallel=19)
    f = _layered_one_graph(shape, "y", "b", [8, 6, 6], extra=3, parallel=6, links=4)
    return product_document([e, f], _random_twist(rng, e, f))


# Five presentations make 15 requests per pass.  With 15 request kinds
# that each appear once per pass, the run's p50 and p90 fall in the middle
# of one kind's latencies rather than on the edge between two kinds.
PRESENTATION_SLOTS = {
    "k2_plain": _large_k2_plain,
    "k2_twisted": _large_k2_twisted,
    "k3_layered": _large_k3_layered,
    "k3_strong": _large_k3_strong,
    "k2_wide": _large_k2_wide,
}


def presentations(seed):
    """[(slot, serialized document)] for one seed, one per slot.

    Each slot's skeleton is fixed; the seed draws the twisted square
    blocks.  Seeds then give different square tables on the same
    skeleton, so the closure work of `kgraph cofinal`, which reads only
    the skeleton, does not move between seeds.
    """
    out = []
    for slot, build in PRESENTATION_SLOTS.items():
        shape = random.Random(f"kgraph-bench presentation {slot} shape")
        rng = random.Random(f"kgraph-bench presentation {slot} {seed}")
        out.append((slot, dumps(build(shape, rng))))
    return out


def scan_inputs(seed):
    """[(name, serialized document)] for scan-deep, in seeded order."""
    out = [
        (name, dumps(document(fx["k"], fx["vertices"], fx["edges"], fx["squares"])))
        for name, fx in SCAN_FIXTURES.items()
    ]
    random.Random(f"kgraph-bench scan order {seed}").shuffle(out)
    return out
