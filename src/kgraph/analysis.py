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

The representation-theoretic spot check works on the basis of
eventually periodic infinite paths rho.gamma^inf: a finite prefix rho
and a loop gamma at s(rho) whose degree is >= 1 in every coordinate, so
that finitely many copies of the loop cover any requested degree.  For
a periodicity tuple, the defect element
s_(mu.alpha) s*_(mu.alpha) - s_(nu.alpha) s*_(mu.alpha) kills a basis
vector x exactly when x does not start with mu.alpha, or x = mu.alpha.y
and nu.alpha.y = x; the degree inequality d(mu.alpha) != d(nu.alpha) is
the finite certificate that the element is nevertheless a nonzero
obstruction.  Two representations can denote the same path, and the
library does not decide that in general: it compares only two paths
that end in the same loop, as `verify_annihilation` sets out, and the
general equality lives in the test suite's oracles.  The check is exact
per sample, but it is a spot check all the same: the samples are
finitely many.
"""

import time
from itertools import product as _iproduct

from .degrees import add, join, subtract
from .errors import ContractViolationError
from .factorization import Path
from .ideals import Cofinal, NotCofinal, enumerate_sat_her, is_cofinal, quotient
from .periodicity import resolve_bound, scan_aperiodicity


class EventuallyPeriodicPath:
    """The representation rho.gamma^infinity."""

    __slots__ = ("prefix", "loop")

    def __init__(self, prefix, loop):
        if not (isinstance(prefix, Path) and isinstance(loop, Path)):
            raise ContractViolationError("prefix and loop must be Paths")
        if prefix.graph is not loop.graph:
            raise ContractViolationError("prefix and loop belong to different graphs")
        if loop.range_vertex != loop.source_vertex:
            raise ContractViolationError("loop must start and end at the same vertex")
        if loop.range_vertex != prefix.source_vertex:
            raise ContractViolationError("loop must sit at the prefix's source")
        if any(c < 1 for c in loop.degree):
            raise ContractViolationError(f"loop degree {loop.degree!r} must be >= 1 in every coordinate")
        self.prefix = prefix
        self.loop = loop

    def __repr__(self):
        return f"EP<{self.prefix!r}.({self.loop!r})^inf>"


def ep_samples(g, v, prefix_bound, loop_bound):
    """Deterministic generator of eventually periodic paths from v.

    Prefix degrees range over entries <= prefix_bound, loop degrees over
    entries in 1..loop_bound; loops are filtered to actual cycles.  A
    bound that is not an int, or that leaves its range empty, is refused.
    """
    g.require_vertex(v)
    for name, bound, least in (("prefix", prefix_bound, 0), ("loop", loop_bound, 1)):
        if type(bound) is not int or bound < least:
            raise ContractViolationError(f"{name} bound {bound!r} is not an int >= {least}")
    k = g.k
    cycles = {}  # prefix source vertex -> its cycles, in canonical order
    for pdeg in _iproduct(range(prefix_bound + 1), repeat=k):
        for rho in g.paths_from(v, pdeg):
            w = rho.source_vertex
            if w not in cycles:
                ldegs = _iproduct(range(1, loop_bound + 1), repeat=k)
                cycles[w] = [c for d in ldegs for c in g.paths_from(w, d) if c.source_vertex == w]
            for gam in cycles[w]:
                yield EventuallyPeriodicPath(rho, gam)


class RepElement:
    """The defect s_(mu.alpha) s*_(mu.alpha) - s_(nu.alpha) s*_(mu.alpha).

    Holds the two composed paths; they must share a source and differ in
    degree (the degree gap is the nonvanishing certificate).
    """

    def __init__(self, mu_alpha, nu_alpha):
        if not (isinstance(mu_alpha, Path) and isinstance(nu_alpha, Path)):
            raise ContractViolationError("mu.alpha and nu.alpha must be Paths")
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


def _covering(base, target, step):
    """The least t >= 0 with base + t.step >= target, and base + t.step; step is >= 1 everywhere."""
    t = max(0, *(-((b - n) // c) for b, n, c in zip(base, target, step)))
    return t, tuple(b + t * c for b, c in zip(base, step))


def verify_annihilation(g, elem, samples):
    """True when the defect annihilates every sampled basis vector.

    A sample x = rho.gamma^inf that starts with mu.alpha is
    mu.alpha.rest.gamma^inf, for `rest` the remainder of rho.gamma^t with
    t the least count that covers d(mu.alpha), and the defect sends it
    to x - y with y = nu.alpha.rest.gamma^inf.  Past
    D = d(mu.alpha.rest) v d(nu.alpha.rest), x and y are both shifts of
    gamma^inf, which sigma^d(gamma) fixes, so each is its first d(gamma)
    block repeated: x = y exactly when they agree up to top = D + d(gamma).

    So each sample is decided on two edge-id words, cut once each into
    the one degree sequence (d(mu.alpha), top - d(mu.alpha)): x's word
    rho.gamma^tx, whose first block is the head test, and y's word
    nu.alpha, then x's word past that block, then gamma^ty, with tx and
    ty the least copies that reach `top`.  By unique factorization a
    path of degree `top` has one word for a fixed degree sequence, so
    x = y exactly when the words agree on their first |top| ids; what
    lies past `top` is left uncut.  The copies and degrees depend only
    on (d(rho), d(gamma)), and are worked out once per pair in a call.
    An element or a sample on another graph, or a sample that is not an
    `EventuallyPeriodicPath`, is refused.
    """
    mu_alpha, nu_alpha = elem.mu_alpha, elem.nu_alpha
    if mu_alpha.graph is not g:
        raise ContractViolationError("the element belongs to a different graph")
    dmu, dnu = mu_alpha.degree, nu_alpha.degree
    reach = join(dmu, dnu)
    head, mu_edges, nu_edges = sum(dmu), mu_alpha.edges, nu_alpha.edges
    plans = {}  # (d(rho), d(gamma)) -> (tx, ty, cut degrees, |top|)
    for x in samples:
        if not isinstance(x, EventuallyPeriodicPath):
            raise ContractViolationError(f"sample {x!r} is not an EventuallyPeriodicPath")
        rho, gam = x.prefix, x.loop
        if rho.graph is not g:
            raise ContractViolationError("a sample belongs to a different graph")
        if rho.range_vertex != mu_alpha.range_vertex:
            continue
        key = (rho.degree, gam.degree)
        plan = plans.get(key)
        if plan is None:
            drho, dgam = key
            _, unrolled = _covering(drho, dmu, dgam)
            top = add(add(reach, subtract(unrolled, dmu)), dgam)
            tx, x_degree = _covering(drho, top, dgam)
            ty, _ = _covering(add(dnu, subtract(x_degree, dmu)), top, dgam)
            plan = plans[key] = (tx, ty, (dmu, subtract(top, dmu)), sum(top))
        tx, ty, degrees, size = plan
        wx = g._cut(rho.edges + gam.edges * tx, degrees)
        if wx[:head] != mu_edges:
            continue
        wy = g._cut(nu_edges + wx[head:] + gam.edges * ty, degrees)
        if wx[:size] != wy[:size]:
            return False
    return True


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
            out["not_cofinal"] = sorted(self.cofinality.certificate)
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
                "H": sorted(h),
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
            out["offender"] = {"H": sorted(h), "tuple": hit.tuple.to_json()}
        return out


def all_ideals_gauge_invariant(g, bound=None):
    """Scan the quotient by every proper saturated hereditary set.

    The empty set is included (the quotient is the graph itself); the
    full vertex set is not (no quotient remains).  Rows are ordered by
    (size, contents).
    """
    bound = resolve_bound(g, bound)
    rows = []
    # V is in the lattice (each vertex lies in its component's closure) and
    # is its unique largest set, so it comes last in (size, contents) order.
    for h in enumerate_sat_her(g)[:-1]:
        rows.append((h, scan_aperiodicity(quotient(g, h), bound)))
    return GaugeInvarianceReport(bound, rows)


class AnalysisReport:
    """Everything about one graph in a single document."""

    def __init__(self, simplicity, gauge, seconds):
        self.simplicity = simplicity
        self.gauge = gauge
        self.seconds = seconds

    @property
    def scan(self):
        return self.simplicity.scan

    def to_json(self):
        verdict = self.simplicity
        return {
            "graph": None,  # nothing names the graph; the key keeps the report's shape
            "bound": verdict.bound,
            "cofinality": verdict.cofinality.to_json(),
            "aperiodicity": verdict.scan.to_json(),
            "simplicity": verdict.to_json(),
            "gauge_invariance": self.gauge.to_json(),
            "timing": {"seconds": self.seconds},
        }


def analyze(g, bound=None):
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
    return AnalysisReport(verdict, gauge, time.monotonic() - start)
