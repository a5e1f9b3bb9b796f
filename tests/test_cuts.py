"""One rewrite per cut: the path layers against their one-cut-at-a-time definitions.

`segment`, `ep_equal` and `rep_apply_adjoint` take every piece of a cut
from a single `KGraph._rewrite`.  The oracles in `oracles.py` build the
same values the old way (two `factor` calls, one `compose` per loop
copy, pure-cycle wrappers), and by unique factorization both must give
the same canonical paths.  The count tests pin the mechanism: they fail
when a caller goes back to cutting one piece at a time.
"""

from functools import cache
from itertools import islice, product

import pytest
from generators import corpus, k3_products
from oracles import (
    ep_equal_by_compose,
    rep_apply_adjoint_by_compose,
    segment_by_compose,
)

from kgraph import (
    EventuallyPeriodicPath,
    compose,
    ep_equal,
    fixture_parts,
    leq,
    local_periodicity_at,
    rep_apply_adjoint,
    sample_family,
    segment,
)
from kgraph.factorization import KGraph

SAMPLES_PER_GRAPH = 12


@cache
def graphs():
    named = [KGraph(*fixture_parts(name)) for name in ("T2", "F", "D", "D2")]
    return named + corpus(40) + k3_products(4)


def box(g):
    """Every degree up to (2, 2) for k <= 2, up to (1, 1, 1) for k = 3."""
    top = 2 if g.k <= 2 else 1
    return [tuple(t) for t in product(range(top + 1), repeat=g.k)]


def ordered_pairs(degrees):
    return [(m, n) for m in degrees for n in degrees if leq(m, n)]


def samples(g):
    """Evenly spaced members of sample_family(g, 2), at most SAMPLES_PER_GRAPH."""
    family = list(sample_family(g, 2))
    step = max(1, len(family) // SAMPLES_PER_GRAPH)
    return family[::step][:SAMPLES_PER_GRAPH]


def test_segment_matches_two_factors():
    checked = 0
    for g in graphs():
        degrees = box(g)
        for v in g.vertices:
            for lam in islice(g.paths_from(v, degrees[-1]), 4):
                for m, n in ordered_pairs(degrees):
                    assert segment(lam, m, n) == segment_by_compose(lam, m, n)
                    checked += 1
    assert checked > 4_000


def test_ep_equal_matches_wrapper_definition():
    verdicts = {True: 0, False: 0}
    for g in graphs():
        xs = samples(g)
        for x in xs:
            # Three other representations of the same path, then the
            # samples from the same vertex, mostly different paths.
            same = [
                x.minimized(),
                EventuallyPeriodicPath(compose(x.prefix, x.loop), x.loop),
                EventuallyPeriodicPath(x.prefix, compose(x.loop, x.loop)),
            ]
            for y in same:
                assert ep_equal(x, y) and ep_equal_by_compose(x, y)
            cache = {}
            for y in [y for y in xs if y.range_vertex == x.range_vertex][:4]:
                want = ep_equal_by_compose(x, y)
                assert ep_equal(x, y) == want
                assert ep_equal(x, y, cache) == want
                verdicts[want] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_rep_apply_adjoint_matches_segment_then_shift():
    outcomes = {"zero": 0, "shifted": 0}
    for g in graphs():
        degrees = box(g)
        for x in samples(g):
            for d in degrees:
                for eta in islice(g.paths_from(x.range_vertex, d), 3):
                    got = rep_apply_adjoint(g, eta, x)
                    want = rep_apply_adjoint_by_compose(g, eta, x)
                    # the same representation, not only the same infinite path
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert (got.prefix, got.loop) == (want.prefix, want.loop)
                    outcomes["zero" if got is None else "shifted"] += 1
    assert outcomes["zero"] > 100 and outcomes["shifted"] > 100


@pytest.fixture
def rewrites(monkeypatch):
    """The degrees of every KGraph._rewrite call, in order."""
    calls = []
    real = KGraph._rewrite

    def counted(self, seq, *degrees):
        calls.append(degrees)
        return real(self, seq, *degrees)

    monkeypatch.setattr(KGraph, "_rewrite", counted)
    return calls


def ep(g, vertex, prefix_edges, loop_edges):
    rho = g.path(vertex, prefix_edges)
    return EventuallyPeriodicPath(rho, g.path(rho.source_vertex, loop_edges))


class TestOneRewritePerCut:
    def test_segment(self, f, rewrites):
        lam = f.path("v", ["b0", "b1", "r0", "r1"])
        rewrites.clear()
        assert segment(lam, (1, 0), (2, 1)).edges == ("b1", "r0")
        assert rewrites == [((1, 0), (1, 1), (0, 1))]

    def test_adjoint_on_a_non_matching_path(self, f, rewrites):
        x = ep(f, "v", ["b1"], ["b0", "r0"])
        eta = f.path("v", ["b0", "r0"])
        rewrites.clear()
        assert rep_apply_adjoint(f, eta, x) is None
        assert len(rewrites) == 1

    @pytest.mark.parametrize(
        "one, two",
        [
            (["b0", "r0"], ["b0", "r0", "b0", "r0"]),
            (["b0", "r1"], ["b0", "r1"]),
            (["b0", "b1", "r0", "r1"], ["b0", "b1", "r0", "r1"]),
        ],
    )
    def test_equal_pure_cycles(self, f, rewrites, one, two):
        x, y = ep(f, "v", [], one), ep(f, "v", [], two)
        rewrites.clear()
        assert ep_equal(x, y)
        # One cut per side for the prefix block and first cycle, then two
        # per step of the cycle comparison.  Equal cycles take one step:
        # sigma^(d(b)) fixes a^inf = b^inf, so the successor of (a, b) is
        # (a, b) again.
        assert len(rewrites) == 2 + 2 * 1

    def test_periodicity_propagation(self, f, rewrites):
        m, n = (1, 0), (0, 1)
        block = (1, 1)
        res = local_periodicity_at(f, "v", m, n)
        assert not res.periodic
        # Seed: lam cut at m and at n.  Each extension kappa: L.kappa and
        # R.kappa, one cut each.  Witness: the assembled path, then its
        # two segments.
        seed, steps, witness = rewrites[:2], rewrites[2:-3], rewrites[-3:]
        assert seed == [(m, (0, 1)), (n, (1, 0))]
        assert steps and len(steps) % 2 == 0
        assert steps == [(block, (0, 1)), (block, (1, 0))] * (len(steps) // 2)
        assert witness == [(res.lam.degree,), (m, (1, 1), (0, 1)), (n, (1, 1), (1, 0))]
