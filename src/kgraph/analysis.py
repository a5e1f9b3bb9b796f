"""End-to-end analysis: simplicity, gauge invariance, and spot checks.

The headline results are conditional on bounded scans, and every verdict
says so: "Simple (up to bound B)" means cofinal plus no locally periodic
pair with difference entries bounded by B.  A verdict holds the
certificates it was decided from (cofinality obstruction, scan report)
and derives its text and JSON from them; each certificate re-validates
in its constructor, so a verdict does not rest on trusting the search
that found it.  Nothing reads a stored report back yet.

Gauge invariance scans the quotient by every proper saturated
hereditary set, so `all_ideals_gauge_invariant` and `analyze` run on any
graph whose ideal lattice has at most `ideals.ENUM_LIMIT` sets, however
many vertices it has.

The representation-theoretic spot check works on the basis of eventually
periodic infinite paths, with None as the zero vector.  A path eta acts
by prepending (zero when the range does not match) and its adjoint by
peeling eta off the front (zero when the prefix disagrees).  For a
periodicity tuple, the defect element built from mu.alpha and nu.alpha
annihilates every basis vector exactly because mu.alpha.y = nu.alpha.y
for all y, so `annihilates` peels mu.alpha off x and compares x with
nu.alpha.y; the degree inequality d(mu.alpha) != d(nu.alpha) is the
finite certificate that the element is nevertheless a nonzero obstruction.
"""

import time

from .errors import ContractViolationError
from .ideals import Cofinal, NotCofinal, enumerate_sat_her, is_cofinal, quotient, vertex_set_to_json
from .infinite import EventuallyPeriodicPath, _unrolled_cut, ep_compose, ep_equal, ep_samples
from .periodicity import resolve_bound, scan_aperiodicity


class RepElement:
    """The defect s_(mu.alpha) s*_(mu.alpha) - s_(nu.alpha) s*_(mu.alpha).

    Holds the two composed paths; they must share a source and differ in
    degree (the degree gap is the nonvanishing certificate).
    """

    def __init__(self, mu_alpha, nu_alpha):
        if mu_alpha.graph is not nu_alpha.graph:
            raise ContractViolationError("paths from different graphs")
        if mu_alpha.source_vertex != nu_alpha.source_vertex:
            raise ContractViolationError("mu.alpha and nu.alpha must share a source")
        if mu_alpha.degree == nu_alpha.degree:
            raise ContractViolationError("degrees must differ for the defect to be nonzero")
        self.mu_alpha = mu_alpha
        self.nu_alpha = nu_alpha

    @classmethod
    def from_tuple(cls, tup):
        return cls(tup.mu_alpha, tup.nu_alpha)


def rep_apply(g, eta, x):
    """The generator for eta applied to the basis vector of x, or None."""
    if eta.graph is not g:
        raise ContractViolationError("eta belongs to a different graph")
    if x.range_vertex != eta.source_vertex:
        return None
    return ep_compose(eta, x)


def rep_apply_adjoint(g, eta, x):
    """The adjoint generator: strips eta off the front of x, or None."""
    if eta.graph is not g:
        raise ContractViolationError("eta belongs to a different graph")
    if x.range_vertex != eta.range_vertex:
        return None
    head, rest = _unrolled_cut(x.prefix, x.loop, eta.degree)
    if head != eta:
        return None
    return EventuallyPeriodicPath(rest, x.loop).minimized()


def annihilates(g, elem, x, cycle_cache=None):
    """Whether the defect element sends the basis vector of x to zero."""
    y = rep_apply_adjoint(g, elem.mu_alpha, x)
    if y is None:
        return True
    # mu.alpha.y denotes x, and y starts at s(nu.alpha), so that prepend is not zero.
    return ep_equal(x, rep_apply(g, elem.nu_alpha, y), cycle_cache)


def verify_annihilation(g, elem, samples):
    """True when the defect annihilates every sampled basis vector."""
    cache = {}
    return all(annihilates(g, elem, x, cache) for x in samples)


def sample_family(g, depth):
    """Eventually periodic paths from every vertex, entries <= depth."""
    for v in g.vertices:
        yield from ep_samples(g, v, depth, depth)


def _periodic_text(hit):
    return f"locally periodic at {hit.vertex} for m={list(hit.m)}, n={list(hit.n)}"


class SimplicityVerdict:
    """Simple = cofinal + no periodic hit, read off the two certificates.

    `cofinality` is a Cofinal or NotCofinal, `scan` the scan report of the
    graph itself, or None when the graph is not cofinal and was not scanned.
    """

    def __init__(self, bound, cofinality, scan):
        self.bound = bound
        self.cofinality = cofinality
        self.scan = scan
        self.simple = cofinality.cofinal and not scan.periodic

    def text(self):
        if self.simple:
            return f"Simple (up to bound {self.bound})"
        if not self.cofinality.cofinal:
            return f"Not simple: not cofinal, obstruction {sorted(self.cofinality.certificate)}"
        return f"Not simple: {_periodic_text(self.scan)}"

    def to_json(self):
        out = {
            "verdict": "simple" if self.simple else "not_simple",
            "bound": self.bound,
            "reason": None,
            "summary": self.text(),
        }
        if not self.cofinality.cofinal:
            out["reason"] = "not_cofinal"
            out["not_cofinal"] = vertex_set_to_json(self.cofinality.certificate)
        elif self.scan.periodic:
            out["reason"] = "locally_periodic"
            out["periodic"] = self.scan.to_json()
        return out


def is_simple(g, bound=None):
    """Cofinality first, then the bounded periodicity scan."""
    bound = resolve_bound(g, bound)
    cof = is_cofinal(g)
    return SimplicityVerdict(bound, cof, scan_aperiodicity(g, bound) if cof.cofinal else None)


class GaugeInvarianceReport:
    """Periodicity scans of every proper quotient; the offender is the first periodic row."""

    def __init__(self, bound, rows):
        self.bound = bound
        self.rows = rows  # (H, scan result)
        self.offender = next(((h, scan) for h, scan in rows if scan.periodic), None)

    @property
    def all_invariant(self):
        return self.offender is None

    def text(self):
        if self.all_invariant:
            return f"All ideals gauge-invariant (up to bound {self.bound})"
        h, hit = self.offender
        return f"Gauge invariance fails at H={sorted(h)}: quotient {_periodic_text(hit)}"

    def to_json(self):
        table = []
        for h, scan in self.rows:
            row = {
                "H": vertex_set_to_json(h),
                "verdict": "periodic" if scan.periodic else "aperiodic",
            }
            if scan.periodic:
                row["tuple"] = scan.tuple.to_json()
            table.append(row)
        out = {
            "verdict": "all_gauge_invariant" if self.all_invariant else "not_all_gauge_invariant",
            "bound": self.bound,
            "summary": self.text(),
            "table": table,
        }
        if self.offender is not None:
            h, hit = self.offender
            out["offender"] = {"H": vertex_set_to_json(h), "tuple": hit.tuple.to_json()}
        return out


def all_ideals_gauge_invariant(g, bound=None):
    """Scan the quotient by every proper saturated hereditary set.

    The empty set is included (the quotient is the graph itself); the
    full vertex set is not (no quotient remains).  Rows are ordered by
    (size, contents).
    """
    bound = resolve_bound(g, bound)
    rows = []
    for h in enumerate_sat_her(g):
        if set(h) == set(g.vertices):
            continue
        sub = quotient(g, h) if h else g
        rows.append((h, scan_aperiodicity(sub, bound)))
    return GaugeInvarianceReport(bound, rows)


class AnalysisReport:
    """Everything about one graph in a single document."""

    def __init__(self, source, simplicity, gauge, seconds):
        self.source = source
        self.simplicity = simplicity
        self.gauge = gauge
        self.seconds = seconds

    @property
    def scan(self):
        return self.simplicity.scan

    def to_json(self):
        verdict = self.simplicity
        return {
            "graph": self.source,
            "bound": verdict.bound,
            "cofinality": verdict.cofinality.to_json(),
            "aperiodicity": verdict.scan.to_json(),
            "simplicity": verdict.to_json(),
            "gauge_invariance": self.gauge.to_json(),
            "timing": {"seconds": self.seconds},
        }


def analyze(g, bound=None, source=None):
    """Run every decision at one bound and bundle the certificates."""
    start = time.monotonic()
    bound = resolve_bound(g, bound)
    gauge = all_ideals_gauge_invariant(g, bound)
    # Row 0 is H = {}, whose quotient is g itself: that scan is g's scan.
    # Row 1 is the least nonempty proper saturated hereditary set.  It holds
    # a terminal closure, which is one too, so it is that closure: the least
    # terminal closure that is not all of V, is_cofinal's certificate.
    cofinality = NotCofinal(g, gauge.rows[1][0]) if len(gauge.rows) > 1 else Cofinal()
    verdict = SimplicityVerdict(bound, cofinality, gauge.rows[0][1])
    return AnalysisReport(source, verdict, gauge, time.monotonic() - start)
