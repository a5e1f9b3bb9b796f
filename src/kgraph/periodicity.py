"""Deciding local periodicity and producing checkable certificates.

A vertex v is locally periodic for a pair m != n when every infinite
path x from v satisfies sigma^m(x) = sigma^n(x).  Writing j = m v n,
every such x splits as lam.y with lam in vLambda^j, and the condition
becomes: for each lam, the two tails L = lam(m, j) and R = lam(n, j)
give L.y = R.y for every infinite y from s(lam).

That tail condition is decided by pair propagation.  A state is the
ordered pair (L, R); it refutes immediately when r(L) != r(R).  For a
block degree s that covers every coordinate (see below), extend by each
kappa in s(L)Lambda^s and compare the degree-s prefixes of L.kappa and
R.kappa.  A mismatch refutes; otherwise the residual tails form the
successor state, with the same degrees as (L, R).  A state is held as
the edge-id tuples of L and R alone: m != n, so one tail has edges, its
first edge fixes its range, and a consistent state's tails share it.
The heads compare as slices of the two cut words.  A tail's range is the
source of the last edge of the head before it in that cut word, which
need not be the edge at the same place in lam's canonical order (or v
when the head is a vertex).  So a decision builds Paths only for the
paths that `paths_from` walks and for the certificate it returns: a
witness is lam and its two segments.  States are pairs of
bounded-degree paths, so the space is finite: breadth-first search with
memoization terminates, any reachable refutation yields a finite path
witnessing aperiodicity (each state's discovery path from v, re-validated
on construction), and if no refutation is reachable every revisited state
is consistent, which is exactly periodicity.  The decision returns its
certificate either way: the witness, or the least tuple (mu, alpha, nu)
with mu and alpha the first paths of their degrees in canonical order.

The search is refute-first.  Seeds lam are taken one at a time in
canonical order; each gets the range check as it is built and, if its
state is new, a breadth-first propagation from that state at once, so
the first refutation ends the triple.  All seeds share one `paths`
map, from each state to its discovery path.  The witness is therefore
canonical: lam.kappa_1...kappa_t, where lam is the first seed in
canonical order from which a refutation is reachable, and
kappa_1...kappa_t is the first refutation of the breadth-first search
from lam's state alone (states expanded in discovery order, each
state's extensions kappa in canonical order).  Sharing `paths` does not
change that choice.  When seed lam_i is reached, the visited states are
exactly the closure C of the earlier seeds' states, and C holds no
refutation, or the search would have stopped.  A successor of a state
in C is in C, so the search from lam_i's state alone never discovers a
state outside C through one in C.  Skipping C therefore drops only
states that refute nothing, keeps the order in which the other states
are discovered and expanded, and keeps their discovery paths, so the
witness is the same.  A seed whose state is already in C has no
reachable refutation and is skipped.

The block degree is s = (a v b) v (1,...,1) where a = j - m, b = j - n.
Full support is what makes the block chain t*s cofinal in N^k; comparing
along a non-cofinal chain can miss differences hiding in an untouched
coordinate (one blue loop plus two flip-squared red loops separates
sigma^(1,0) from sigma^(2,0) only through red edges).

Bounded scans report "aperiodic up to B", never more: nothing here
assumes that periods found at one scale generate anything at another.
"""

from collections import deque
from itertools import product as _iproduct, takewhile

from .degrees import MAX_ENTRY, join, leq, ones, positive_part, subtract
from .errors import ContractViolationError
from .factorization import Path, compose, factor


class AperiodicityWitness:
    """A finite path separating sigma^m from sigma^n at its range vertex.

    Construction cuts both segments out of lam, lam(m, m + q) and
    lam(n, n + q) with q = d(lam) - (m v n): one cut of lam each, into
    (m, q) and (n, q), which stops where the segment ends and leaves the
    rest of lam uncut, with only the segment made a Path.  It refuses a
    path that does not actually separate, so a witness object is always
    trustworthy.  `mirrored` gives the (vertex, n, m) witness of the same
    lam without cutting: m v n and so q are symmetric in m and n, so the
    constructor would cut the same two segments, swapped.
    """

    periodic = False

    def __init__(self, vertex, m, n, lam):
        if not isinstance(lam, Path):
            raise ContractViolationError(f"witness path {lam!r} is not a Path")
        g = lam.graph
        g.require_rank(m)
        g.require_rank(n)
        j = join(m, n)
        if lam.range_vertex != vertex:
            raise ContractViolationError("witness path does not start at the claimed vertex")
        if not leq(j, lam.degree):
            raise ContractViolationError("witness path shorter than m v n")
        q = tuple(a - b for a, b in zip(lam.degree, j))
        self.vertex = vertex
        self.m = m
        self.n = n
        self.lam = lam
        self.segment_m, = g._slice(vertex, g._cut(lam.edges, (m, q)), (q,), sum(m))
        self.segment_n, = g._slice(vertex, g._cut(lam.edges, (n, q)), (q,), sum(n))
        if self.segment_m == self.segment_n:
            raise ContractViolationError("witness path does not separate the two shifts")

    def mirrored(self):
        """The (vertex, n, m) witness of the same lam: this one's segments, swapped."""
        mirror = object.__new__(AperiodicityWitness)
        mirror.vertex, mirror.m, mirror.n, mirror.lam = self.vertex, self.n, self.m, self.lam
        mirror.segment_m, mirror.segment_n = self.segment_n, self.segment_m
        return mirror

    def to_json(self):
        return {
            "vertex": self.vertex,
            "m": list(self.m),
            "n": list(self.n),
            "lambda": self.lam.to_json(),
            "segment_m": self.segment_m.to_json(),
            "segment_n": self.segment_n.to_json(),
        }


class PeriodicityTuple:
    """(mu, alpha, nu) certifying local periodicity at a vertex.

    mu in vLambda^m, alpha in s(mu)Lambda^(m v n - m), nu = (mu.alpha)(0, n);
    then mu.alpha.y = nu.alpha.y for every infinite y while the degrees of
    mu.alpha and nu.alpha differ, which is what downstream analysis needs.
    Construction re-derives nu and checks the degree inequality.
    """

    periodic = True

    def __init__(self, vertex, m, n, mu, alpha):
        if not (isinstance(mu, Path) and isinstance(alpha, Path)):
            raise ContractViolationError("mu and alpha must be Paths")
        mu.graph.require_rank(m)
        mu.graph.require_rank(n)
        if mu.range_vertex != vertex:
            raise ContractViolationError("mu does not start at the claimed vertex")
        if mu.degree != m:
            raise ContractViolationError("d(mu) != m")
        if alpha.degree != subtract(join(m, n), m):
            raise ContractViolationError("d(alpha) != (m v n) - m")
        mu_alpha = compose(mu, alpha)
        nu, _ = factor(mu_alpha, n)
        nu_alpha = compose(nu, alpha)  # raises if s(nu) != r(alpha)
        if mu_alpha.degree == nu_alpha.degree:
            raise ContractViolationError("tuple degrees collapse; m and n must differ")
        self.vertex = vertex
        self.m = m
        self.n = n
        self.mu = mu
        self.alpha = alpha
        self.nu = nu
        self.mu_alpha = mu_alpha
        self.nu_alpha = nu_alpha

    def to_json(self):
        return {
            "vertex": self.vertex,
            "m": list(self.m),
            "n": list(self.n),
            "mu": self.mu.to_json(),
            "alpha": self.alpha.to_json(),
            "nu": self.nu.to_json(),
        }


def local_periodicity_at(g, v, m, n):
    """Exact decision for one (vertex, m, n) triple; m != n required.

    Returns the certificate: an AperiodicityWitness, or the least
    PeriodicityTuple.  Either one's `periodic` attribute is the verdict.
    """
    g.require_vertex(v)
    g.require_rank(m)
    g.require_rank(n)
    if m == n:
        raise ContractViolationError("local periodicity needs two distinct degrees")
    j = join(m, n)
    a = subtract(j, m)
    b = subtract(j, n)
    block = join(join(a, b), ones(g.k))
    hm, hn, hb = sum(m), sum(n), sum(block)  # word positions where the tails start
    edges = g.skeleton.edges
    paths = {}  # state -> edge ids of its discovery path from v
    for lam in g.paths_from(v, j):
        # j = d(lam), so lam(m, j) is the tail of lam after degree m.
        left = g._cut(lam.edges, (m, a))
        right = g._cut(lam.edges, (n, b))
        at = edges[left[hm - 1]].source if hm else v
        if at != (edges[right[hn - 1]].source if hn else v):
            return AperiodicityWitness(v, m, n, lam)
        seed = (left[hm:], right[hn:])
        if seed in paths:
            continue  # its closure is explored and consistent
        paths[seed] = lam.edges
        queue = deque([(seed, lam.source_vertex)])
        while queue:
            state, source = queue.popleft()
            left, right = state  # both tails end at `source`: s(lam), or s(kappa) after a step
            for kappa in g.paths_from(source, block):
                # L.kappa cut at the block; the tail keeps d(L) = a (d(R) = b).
                lk = g._cut(left + kappa.edges, (block, a))
                rk = g._cut(right + kappa.edges, (block, b))
                if lk[:hb] != rk[:hb]:
                    return AperiodicityWitness(v, m, n, g.path(v, paths[state] + kappa.edges))
                succ = (lk[hb:], rk[hb:])
                if succ not in paths:
                    paths[succ] = paths[state] + kappa.edges
                    queue.append((succ, kappa.source_vertex))
    # No refutation is reachable: periodic, certified by the least mu and alpha.
    mu = next(g.paths_from(v, m))
    return PeriodicityTuple(v, m, n, mu, next(g.paths_from(mu.source_vertex, a)))


class AperiodicReport:
    """Scan outcome: no periodic pair up to the bound; witnesses for each."""

    def __init__(self, bound, entries):
        self.bound = bound
        self.entries = list(entries)  # (vertex, p, witness)

    periodic = False

    def to_json(self):
        return {
            "verdict": "aperiodic",
            "bound": self.bound,
            "witnesses": [
                {"vertex": v, "p": list(p), "witness": w.to_json()}
                for v, p, w in self.entries
            ],
        }


class PeriodicReport:
    """Scan outcome: first periodic hit in (vertex, p) lexicographic order."""

    def __init__(self, bound, p, tup):
        self.bound = bound
        self.p = p
        self.tuple = tup
        self.vertex, self.m, self.n = tup.vertex, tup.m, tup.n

    periodic = True

    def to_json(self):
        return {
            "verdict": "periodic",
            "bound": self.bound,
            "vertex": self.vertex,
            "p": list(self.p),
            "m": list(self.m),
            "n": list(self.n),
            "tuple": self.tuple.to_json(),
        }


def default_bound(g):
    """|vertices| + the largest single-color edge count."""
    per_color = [0] * g.k
    for e in g.skeleton.edges.values():
        per_color[e.color - 1] += 1
    return len(g.vertices) + max(per_color)


def resolve_bound(g, bound):
    """The scan bound to use: `default_bound(g)` for None, else an int checked in 1..MAX_ENTRY."""
    if bound is None:
        bound = default_bound(g)
    if type(bound) is not int:
        raise ContractViolationError(f"scan bound {bound!r} is not an int")
    if bound < 1:
        raise ContractViolationError("scan bound must be >= 1")
    if bound > MAX_ENTRY:
        raise ContractViolationError(f"scan bound must be <= {MAX_ENTRY}")
    return bound


def signed_vectors(k, bound):
    """Nonzero vectors with entries in [-bound, bound], lexicographic."""
    for p in _iproduct(range(-bound, bound + 1), repeat=k):
        if any(c != 0 for c in p):
            yield p


_P = 2**61 - 1  # a Mersenne prime: path counts are compared modulo it
_MIX = 0x1E3779B97F4A7C19  # the golden-ratio constant mod _P; h(v_i) = _MIX^(i + 1) mod _P


def _path_counts(g):
    """A lazy table d -> c_d = A^d h mod _P, one entry per vertex in `g.vertices` order.

    A_i(v, w) = |v Lambda^(e_i) w| and h is a fixed pseudo-random vertex
    weight, so c_d[v] hashes row v of A^d: equal rows give equal entries
    whatever h is, and entries that differ prove the rows differ.  A
    missing degree d is filled from its predecessor d - e_i, i the last
    nonzero coordinate of d, by one pass over the color-i edges.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    sources = [[[] for _ in index] for _ in range(g.k)]  # [i][r]: sources of the color-(i+1) edges into r
    for e in g.skeleton.edges.values():
        sources[e.color - 1][index[e.range]].append(index[e.source])
    h = [pow(_MIX, i + 1, _P) for i in range(len(index))]
    table = {(0,) * g.k: h}

    def counts(d):
        missing = []
        while d not in table:
            i = len(d) - 1
            while not d[i]:
                i -= 1
            missing.append((d, i))
            d = (*d[:i], d[i] - 1, *d[i + 1 :])
        row = table[d]
        for d, i in reversed(missing):
            row = table[d] = [sum(row[s] for s in into) % _P for into in sources[i]]
        return row

    return counts


def scan_aperiodicity(g, bound=None):
    """Test every vertex against every difference vector up to the bound.

    Each signed p is reduced to its minimal pair (m, n) = positive_part(p);
    testing minimal pairs at every vertex is equivalent to testing all
    pairs (docs/minimal-pairs.md).  The pair and its two count rows are
    worked out at the first vertex that reaches p and kept for the scan.
    Returns the first periodic hit in (vertex, p) lexicographic order, or
    an AperiodicReport carrying one witness per (vertex, p).

    The range of `signed_vectors` is symmetric, so its first half is the
    p < 0 (first nonzero entry negative) and its second half is their
    negations in reverse order.  The triples for p and -p are mirrors,
    decided alike with the same witness lambda, and -p's witness is p's
    `mirrored()` (docs/minimal-pairs.md), so only the p < 0 are decided.

    Periodicity at v forces |v Lambda^m w| = |v Lambda^n w| for every w
    (docs/terminal-components.md), so a triple whose hashed path counts
    differ is aperiodic.  The first walk decides every other triple at
    once, so its first hit is that of deciding every triple in turn, and
    leaves these undecided.  Only if it ends without a hit does the
    second walk decide them, in scan order, and write each vertex's row
    and then the row mirrored.
    A periodic one among them would contradict the lemma; it is reported
    as the hit all the same, which is exact, since every triple before
    it decided aperiodic.
    """
    bound = resolve_bound(g, bound)
    counts = _path_counts(g)
    zero = (0,) * g.k
    pairs = {}  # p -> (m, n, counts(m), counts(n))
    rows = []  # per vertex: (p, m, n, witness or None) for each p < 0
    for i, v in enumerate(g.vertices):
        row = []
        for p in takewhile(zero.__gt__, signed_vectors(g.k, bound)):
            pair = pairs.get(p)
            if pair is None:
                m, n = positive_part(p)
                pair = pairs[p] = (m, n, counts(m), counts(n))
            m, n, count_m, count_n = pair
            res = None
            if count_m[i] == count_n[i]:
                res = local_periodicity_at(g, v, m, n)
                if res.periodic:
                    return PeriodicReport(bound, p, res)
            row.append((p, m, n, res))
        rows.append(row)
    entries = []
    for v, row in zip(g.vertices, rows):
        decided = []
        for p, m, n, res in row:
            if res is None:
                res = local_periodicity_at(g, v, m, n)
                if res.periodic:
                    return PeriodicReport(bound, p, res)
            decided.append((v, p, res))
        entries += decided
        entries += [(v, tuple(-c for c in p), res.mirrored()) for v, p, res in reversed(decided)]
    return AperiodicReport(bound, entries)
