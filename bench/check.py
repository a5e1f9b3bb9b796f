"""Independent re-validation of what the package emits.

Certificates are checked from their JSON against the input document with a
path calculus written here, not with the package's: a path is rebuilt edge
by edge, and any piece of it is cut out by rewriting its edge sequence
through the square table until its colors read in the wanted order (unique
factorization makes the result independent of the rewrite order).  Which
witness or tuple the package picks is not pinned; only verdicts are.

Every check raises `CheckError` with a message on the first problem.
"""

from itertools import product


class CheckError(Exception):
    """An output of the package failed re-validation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def positive_part(p):
    return [-c if c < 0 else 0 for c in p], [c if c > 0 else 0 for c in p]


def signed_vectors(k, bound):
    return [list(p) for p in product(range(-bound, bound + 1), repeat=k) if any(p)]


class DocGraph:
    """A graph document indexed for certificate checks."""

    def __init__(self, doc):
        self.doc = doc
        self.k = doc["k"]
        self.vertices = list(doc["vertices"])
        self.vertex_set = set(self.vertices)
        self.edges = {e["id"]: (e["color"], e["range"], e["source"]) for e in doc["edges"]}
        self.swap = {}
        for row in doc["squares"]:
            pair, image = tuple(row["pair"]), tuple(row["image"])
            self.swap[pair] = image
            self.swap[image] = pair
        self.out = {}  # (vertex, color) -> sources of the edges with that range
        self.into = {}  # vertex -> sources of the edges with that range
        for color, rng, src in self.edges.values():
            self.out.setdefault((rng, color), []).append(src)
            self.into.setdefault(rng, []).append(src)

    # -- paths -----------------------------------------------------------

    def path(self, obj):
        """(range, edges) of a path's JSON, after checking that it composes."""
        rng, edges = obj["range"], tuple(obj["edges"])
        require(rng in self.vertex_set, f"path range {rng!r} is not a vertex")
        at = rng
        for eid in edges:
            require(eid in self.edges, f"unknown edge {eid!r}")
            _, er, es = self.edges[eid]
            require(er == at, f"edge {eid!r} has range {er!r}, expected {at!r}")
            at = es
        return rng, edges

    def source(self, rng, edges):
        return self.edges[edges[-1]][2] if edges else rng

    def degree(self, edges):
        d = [0] * self.k
        for eid in edges:
            d[self.edges[eid][0] - 1] += 1
        return d

    def reorder(self, edges, word):
        """The same path with its edge colors reading `word`."""
        arr = list(edges)
        for i, want in enumerate(word):
            j = i
            while self.edges[arr[j]][0] != want:
                j += 1
            while j > i:
                arr[j - 1], arr[j] = self.swap[(arr[j - 1], arr[j])]
                j -= 1
        return tuple(arr)

    def canonical(self, edges):
        return self.reorder(edges, sorted(self.edges[e][0] for e in edges))

    def segment(self, rng, edges, m, n):
        """(range, canonical edges) of the piece between degrees m <= n."""
        d = self.degree(edges)
        word = _word(m) + _word([b - a for a, b in zip(m, n)]) + _word([c - b for b, c in zip(n, d)])
        arr = self.reorder(edges, word)
        lo, hi = sum(m), sum(n)
        start = self.source(rng, arr[:lo])
        return start, self.canonical(arr[lo:hi])

    # -- vertex sets -----------------------------------------------------

    def is_hereditary(self, h):
        return all(src in h for _, rng, src in self.edges.values() if rng in h)

    def is_saturated(self, h):
        return not any(
            all(src in h for src in self.out[(v, c)])
            for v in self.vertices
            if v not in h
            for c in range(1, self.k + 1)
        )

    def closure(self, seed):
        """Least saturated hereditary superset of seed."""
        h = set(seed)
        stack = list(h)
        while True:
            while stack:
                for src in self.into.get(stack.pop(), ()):
                    if src not in h:
                        h.add(src)
                        stack.append(src)
            for v in self.vertices:
                if v not in h and any(
                    all(src in h for src in self.out[(v, c)]) for c in range(1, self.k + 1)
                ):
                    h.add(v)
                    stack.append(v)
            if not stack:
                return frozenset(h)

    def least_obstruction(self):
        """The cofinality certificate: least proper singleton closure, or None."""
        everything = frozenset(self.vertices)
        found = [c for c in (self.closure({v}) for v in self.vertices) if c != everything]
        return sorted(min(found, key=lambda h: (len(h), sorted(h)))) if found else None

    def sat_her_sets(self):
        """Every saturated hereditary set, by brute force over subsets."""
        out = []
        for bits in product((0, 1), repeat=len(self.vertices)):
            h = {v for v, b in zip(self.vertices, bits) if b}
            if self.is_hereditary(h) and self.is_saturated(h):
                out.append(sorted(h))
        return sorted(out, key=lambda h: (len(h), h))

    def quotient_doc(self, h):
        """The document of the quotient by h, built from this document."""
        h = set(h)
        kept = [e for e in self.doc["edges"] if e["source"] not in h]
        ids = {e["id"] for e in kept}
        return {
            "k": self.k,
            "vertices": [v for v in self.vertices if v not in h],
            "edges": sorted(kept, key=lambda e: e["id"]),
            "squares": sorted(
                (r for r in self.doc["squares"] if all(e in ids for e in r["pair"] + r["image"])),
                key=lambda r: (r["pair"], r["image"]),
            ),
        }


def _word(d):
    return [c + 1 for c, times in enumerate(d) for _ in range(times)]


# -- certificates ------------------------------------------------------------


def check_path_json(obj, rng, edges, what):
    require(obj == {"range": rng, "edges": list(edges)}, f"{what} is {obj!r}, expected {rng!r} {list(edges)!r}")


def check_witness(g, vertex, p, w):
    """An aperiodicity witness: lambda separates the two shifts at vertex."""
    m, n = positive_part(p)
    require(w["vertex"] == vertex and w["m"] == m and w["n"] == n, f"witness header {w['vertex']!r} {w['m']} {w['n']}")
    rng, edges = g.path(w["lambda"])
    require(rng == vertex, "witness path starts elsewhere")
    require(g.canonical(edges) == edges, "witness path is not in normal form")
    d = g.degree(edges)
    j = [max(a, b) for a, b in zip(m, n)]
    require(all(a <= b for a, b in zip(j, d)), "witness path shorter than m v n")
    q = [b - a for a, b in zip(j, d)]
    seg_m = g.segment(rng, edges, m, [a + b for a, b in zip(m, q)])
    seg_n = g.segment(rng, edges, n, [a + b for a, b in zip(n, q)])
    require(seg_m != seg_n, "witness does not separate the shifts")
    check_path_json(w["segment_m"], *seg_m, "segment_m")
    check_path_json(w["segment_n"], *seg_n, "segment_n")


def check_tuple(g, vertex, m, n, t):
    """A periodicity tuple (mu, alpha, nu), rebuilt from its JSON."""
    require(t["vertex"] == vertex and t["m"] == m and t["n"] == n, "tuple header mismatch")
    require(m != n, "tuple degrees collapse")
    mu_r, mu = g.path(t["mu"])
    al_r, alpha = g.path(t["alpha"])
    require(mu_r == vertex and g.degree(mu) == m, "mu is not in vLambda^m")
    j = [max(a, b) for a, b in zip(m, n)]
    require(al_r == g.source(mu_r, mu), "alpha does not start at s(mu)")
    require(g.degree(alpha) == [a - b for a, b in zip(j, m)], "d(alpha) != (m v n) - m")
    require(g.canonical(mu) == mu and g.canonical(alpha) == alpha, "tuple paths not in normal form")
    mu_alpha = g.canonical(mu + alpha)
    nu = g.segment(vertex, mu_alpha, [0] * g.k, n)
    check_path_json(t["nu"], *nu, "nu")
    require(g.source(*nu) == al_r, "s(nu) != r(alpha)")


def check_scan(g, report, bound, expected):
    """A scan report: the pinned verdict plus every certificate in it."""
    require(report["bound"] == bound, "scan bound mismatch")
    if expected[0] == "aperiodic":
        require(report["verdict"] == "aperiodic", f"expected aperiodic, got {report['verdict']}")
        cells = [(v, p) for v in g.vertices for p in signed_vectors(g.k, bound)]
        got = [(w["vertex"], w["p"]) for w in report["witnesses"]]
        require(got == cells, "witness list does not cover every (vertex, p) in order")
        for w in report["witnesses"]:
            check_witness(g, w["vertex"], w["p"], w["witness"])
    else:
        _, vertex, p = expected
        require(report["verdict"] == "periodic", f"expected periodic, got {report['verdict']}")
        require(report["vertex"] == vertex and report["p"] == p, f"periodic hit {report['vertex']} {report['p']}, expected {vertex} {p}")
        m, n = positive_part(p)
        require(report["m"] == m and report["n"] == n, "hit degrees are not the minimal pair of p")
        check_tuple(g, vertex, m, n, report["tuple"])


def scan_expectation(report):
    """The pinned part of a scan report."""
    if report["verdict"] == "aperiodic":
        return ["aperiodic"]
    return ["periodic", report["vertex"], report["p"]]


def check_cofinality(g, report, expected):
    if expected is None:
        require(report == {"verdict": "cofinal"}, f"expected cofinal, got {report!r}")
        return
    require(report.get("verdict") == "not_cofinal", "expected not cofinal")
    h = set(report["certificate"])
    require(report["certificate"] == expected, f"certificate {report['certificate']}, expected {expected}")
    require(h and h != g.vertex_set, "certificate is trivial")
    require(g.is_hereditary(h) and g.is_saturated(h), "certificate is not saturated hereditary")


def check_analysis(g, report, bound, expected):
    """An analyze() report (timing removed) against the pinned verdicts."""
    require(report["bound"] == bound, "analysis bound mismatch")
    check_cofinality(g, report["cofinality"], expected["cofinality"])
    check_scan(g, report["aperiodicity"], bound, expected["scan"])
    simple = report["simplicity"]
    if expected["cofinality"] is not None:
        require((simple["verdict"], simple["reason"]) == ("not_simple", "not_cofinal"), "simplicity verdict")
        require(simple["not_cofinal"] == expected["cofinality"], "simplicity certificate")
    elif expected["scan"][0] == "periodic":
        require((simple["verdict"], simple["reason"]) == ("not_simple", "locally_periodic"), "simplicity verdict")
        require(simple["periodic"] == report["aperiodicity"], "simplicity hit differs from the scan")
    else:
        require((simple["verdict"], simple["reason"]) == ("simple", None), "simplicity verdict")
    gauge = report["gauge_invariance"]
    proper = [h for h in g.sat_her_sets() if len(h) < len(g.vertices)]
    require([row["H"] for row in gauge["table"]] == proper, "gauge rows are not the proper saturated hereditary sets")
    offender = None
    for row in gauge["table"]:
        if row["verdict"] == "periodic":
            sub = DocGraph(g.quotient_doc(row["H"])) if row["H"] else g
            t = row["tuple"]
            check_tuple(sub, t["vertex"], t["m"], t["n"], t)
            if offender is None:
                offender = row
        else:
            require(row["verdict"] == "aperiodic" and "tuple" not in row, "gauge row verdict")
    require(gauge["table"][0]["verdict"] == report["aperiodicity"]["verdict"], "H=[] row disagrees with the scan")
    if offender is None:
        require(expected["offender"] is None and gauge["verdict"] == "all_gauge_invariant", "gauge verdict")
        require("offender" not in gauge, "offender without a periodic row")
    else:
        require(offender["H"] == expected["offender"], f"offender {offender['H']}, expected {expected['offender']}")
        require(gauge["verdict"] == "not_all_gauge_invariant", "gauge verdict")
        require(gauge["offender"] == {"H": offender["H"], "tuple": offender["tuple"]}, "offender is not the first periodic row")


def analysis_expectation(report):
    """The pinned verdicts of an analyze() report."""
    cof = report["cofinality"]
    offender = report["gauge_invariance"].get("offender")
    return {
        "scan": scan_expectation(report["aperiodicity"]),
        "cofinality": cof.get("certificate"),
        "offender": offender["H"] if offender else None,
    }


def check_validate(report):
    require(report["verdict"] == "valid", f"validate says {report['verdict']}")
    subjects = [(r["subject"], r["ok"], r["violations"]) for r in report["reports"]]
    require(subjects == [("skeleton", True, []), ("squares", True, []), ("cubes", True, [])], "validate reports")


def check_quotient(g, h, doc):
    require(doc == g.quotient_doc(h), "quotient document differs from the independent quotient")
