"""End-to-end analysis: simplicity, gauge invariance, and spot checks.

The headline results are conditional on bounded scans, and every verdict
says so: "Simple (up to bound B)" means cofinal plus no locally periodic
pair with difference entries bounded by B.  Every certificate a verdict
carries (aperiodicity witness, periodicity tuple, cofinality obstruction)
re-validates in its constructor, so a verdict does not rest on trusting
the search that found it.  Nothing reads a stored report back yet.

Gauge invariance scans the quotient by every proper saturated
hereditary set, so `all_ideals_gauge_invariant` and `analyze` run on any
graph whose ideal lattice has at most `ideals.ENUM_LIMIT` sets, however
many vertices it has.

The representation-theoretic spot check works on the basis of eventually
periodic infinite paths.  A path eta acts by prepending (zero when the
range does not match) and its adjoint by peeling eta off the front (zero
when the prefix disagrees).  For a periodicity tuple, the defect element
built from mu.alpha and nu.alpha annihilates every basis vector exactly
because mu.alpha.y = nu.alpha.y for all y; the degree inequality
d(mu.alpha) != d(nu.alpha) is the finite certificate that the element is
nevertheless a nonzero obstruction.
"""

import time

from .errors import ContractViolationError
from .ideals import enumerate_sat_her, is_cofinal, quotient, vertex_set_to_json
from .infinite import EventuallyPeriodicPath, _unrolled_cut, ep_compose, ep_equal, ep_samples
from .periodicity import resolve_bound, scan_aperiodicity


class _Zero:
    """Absorbing result of applying a generator off its domain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Zero"


ZERO = _Zero()


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

    def to_json(self):
        return {"mu_alpha": self.mu_alpha.to_json(), "nu_alpha": self.nu_alpha.to_json()}


def rep_apply(g, eta, x):
    """The generator for eta applied to the basis vector of x."""
    if eta.graph is not g:
        raise ContractViolationError("eta belongs to a different graph")
    if x.range_vertex != eta.source_vertex:
        return ZERO
    return ep_compose(eta, x)


def rep_apply_adjoint(g, eta, x):
    """The adjoint generator: strips eta off the front of x, or zero."""
    if eta.graph is not g:
        raise ContractViolationError("eta belongs to a different graph")
    if x.range_vertex != eta.range_vertex:
        return ZERO
    head, rest = _unrolled_cut(x.prefix, x.loop, eta.degree)
    if head != eta:
        return ZERO
    return EventuallyPeriodicPath(rest, x.loop).minimized()


def annihilates(g, elem, x, cycle_cache=None):
    """Whether the defect element sends the basis vector of x to zero."""
    y = rep_apply_adjoint(g, elem.mu_alpha, x)
    if y is ZERO:
        return True
    # y starts at s(mu.alpha) = s(nu.alpha), so neither prepend is zero.
    t1 = rep_apply(g, elem.mu_alpha, y)
    t2 = rep_apply(g, elem.nu_alpha, y)
    return ep_equal(t1, t2, cycle_cache)


def verify_annihilation(g, elem, samples):
    """True when the defect annihilates every sampled basis vector."""
    cache = {}
    return all(annihilates(g, elem, x, cache) for x in samples)


def sample_family(g, depth):
    """Eventually periodic paths from every vertex, entries <= depth."""
    for v in g.vertices:
        yield from ep_samples(g, v, depth, depth)


class SimplicityVerdict:
    """Outcome of the simplicity test at a bound."""

    def __init__(self, status, bound, reason=None, not_cofinal=None, periodic=None, scan=None):
        self.status = status  # "simple" | "not_simple"
        self.bound = bound
        self.reason = reason  # None | "not_cofinal" | "locally_periodic"
        self.not_cofinal = not_cofinal  # NotCofinal certificate set
        self.periodic = periodic  # PeriodicReport
        self.scan = scan  # AperiodicReport when simple

    def text(self):
        if self.status == "simple":
            return f"Simple (up to bound {self.bound})"
        if self.reason == "not_cofinal":
            return f"Not simple: not cofinal, obstruction {sorted(self.not_cofinal)}"
        hit = self.periodic
        return (
            f"Not simple: locally periodic at {hit.vertex} "
            f"for m={list(hit.m)}, n={list(hit.n)}"
        )

    def to_json(self):
        out = {
            "verdict": self.status,
            "bound": self.bound,
            "reason": self.reason,
            "summary": self.text(),
        }
        if self.not_cofinal is not None:
            out["not_cofinal"] = vertex_set_to_json(self.not_cofinal)
        if self.periodic is not None:
            out["periodic"] = self.periodic.to_json()
        return out


def _simplicity_verdict(bound, cof, scan):
    """Simple = cofinal + no periodic hit; scan is unused when not cofinal."""
    if not cof.cofinal:
        return SimplicityVerdict(
            "not_simple", bound, reason="not_cofinal", not_cofinal=cof.certificate
        )
    if scan.periodic:
        return SimplicityVerdict(
            "not_simple", bound, reason="locally_periodic", periodic=scan
        )
    return SimplicityVerdict("simple", bound, scan=scan)


def is_simple(g, bound=None):
    """Cofinality first, then the bounded periodicity scan."""
    bound = resolve_bound(g, bound)
    cof = is_cofinal(g)
    scan = scan_aperiodicity(g, bound) if cof.cofinal else None
    return _simplicity_verdict(bound, cof, scan)


class GaugeInvarianceReport:
    """Periodicity scans of every proper quotient, and the verdict."""

    def __init__(self, bound, rows, offender):
        self.bound = bound
        self.rows = rows  # (H, scan result)
        self.offender = offender  # (H, PeriodicReport) or None

    @property
    def all_invariant(self):
        return self.offender is None

    def text(self):
        if self.all_invariant:
            return f"All ideals gauge-invariant (up to bound {self.bound})"
        h, hit = self.offender
        return (
            f"Gauge invariance fails at H={sorted(h)}: quotient locally periodic "
            f"at {hit.vertex} for m={list(hit.m)}, n={list(hit.n)}"
        )

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
    (size, contents), and the offender is the first periodic row.
    """
    bound = resolve_bound(g, bound)
    rows = []
    offender = None
    for h in enumerate_sat_her(g):
        if set(h) == set(g.vertices):
            continue
        sub = quotient(g, h) if h else g
        scan = scan_aperiodicity(sub, bound)
        rows.append((h, scan))
        if scan.periodic and offender is None:
            offender = (h, scan)
    return GaugeInvarianceReport(bound, rows, offender)


class AnalysisReport:
    """Everything about one graph in a single document."""

    def __init__(self, source, bound, cofinality, scan, simplicity, gauge, seconds):
        self.source = source
        self.bound = bound
        self.cofinality = cofinality
        self.scan = scan
        self.simplicity = simplicity
        self.gauge = gauge
        self.seconds = seconds

    def to_json(self):
        return {
            "graph": self.source,
            "bound": self.bound,
            "cofinality": self.cofinality.to_json(),
            "aperiodicity": self.scan.to_json(),
            "simplicity": self.simplicity.to_json(),
            "gauge_invariance": self.gauge.to_json(),
            "timing": {"seconds": self.seconds},
        }


def analyze(g, bound=None, source=None):
    """Run every decision at one bound and bundle the certificates."""
    start = time.monotonic()
    bound = resolve_bound(g, bound)
    cof = is_cofinal(g)
    gauge = all_ideals_gauge_invariant(g, bound)
    # Row 0 is H = {}, whose quotient is g itself: that scan is g's scan.
    _, scan = gauge.rows[0]
    verdict = _simplicity_verdict(bound, cof, scan)
    seconds = time.monotonic() - start
    return AnalysisReport(source, bound, cof, scan, verdict, gauge, seconds)
