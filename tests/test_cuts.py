"""One rewrite per cut: the path layers against their one-cut-at-a-time definitions.

The library's three-piece `factor`, and the general infinite-path
oracles `ep_equal` and `rep_apply_adjoint` in `oracles.py`, take every
piece of a cut from a single `KGraph._cut`.  The `*_by_compose` oracles
build the same values the old way (two two-piece `factor` calls, one
`compose` per loop copy, pure-cycle wrappers), and by unique
factorization both must give the same canonical paths.  The count tests
pin the mechanism: they fail when a caller goes back to cutting one
piece at a time.

`KGraph._cut` itself is checked against `cut_by_bubbling`, the kernel
as first written, on every split of every short path and on the long
witness paths of a bound-20 scan; the swap table it reads is built at
a graph's first cut and not before.
"""

from functools import cache
from itertools import islice, product

import pytest
from generators import corpus, k3_products
from oracles import (
    cut_by_bubbling,
    degrees_up_to,
    descending_form,
    ep_equal,
    ep_equal_by_compose,
    minimized,
    rep_apply_adjoint,
    rep_apply_adjoint_by_compose,
    segment_by_compose,
)

from kgraph import (
    compose,
    factor,
    fixture_parts,
    is_cofinal,
    join,
    leq,
    local_periodicity_at,
    quotient,
    scan_aperiodicity,
    subtract,
)
from kgraph.analysis import EventuallyPeriodicPath, sample_family
from kgraph.documents import graph_document_text
from kgraph.factorization import KGraph, Path

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


@cache
def splits(n, pieces):
    """Every tuple of `pieces` degrees summing to n, zero pieces included."""
    if pieces == 1:
        return ((n,),)
    return tuple((m, *rest) for m in degrees_up_to(n) for rest in splits(subtract(n, m), pieces - 1))


def test_cut_matches_bubbling_on_every_split():
    checked = 0
    for g in graphs():
        for n in box(g):
            for v in g.vertices:
                for lam in g.paths_from(v, n):
                    for seq in (lam.edges, descending_form(g, lam)):
                        for degrees in splits(n, 2) + splits(n, 3):
                            assert g._cut(seq, degrees) == cut_by_bubbling(g, seq, degrees)
                            checked += 1
    assert checked > 30_000


@pytest.mark.parametrize("name", ["F", "D2"])
def test_cut_matches_bubbling_on_long_witnesses(name):
    g = KGraph(*fixture_parts(name))
    witnesses = {(w.lam.edges, frozenset((w.m, w.n))): w for _, _, w in scan_aperiodicity(g, 20).entries}
    longest = 0
    for w in witnesses.values():
        lam, j = w.lam, join(w.m, w.n)
        q = subtract(lam.degree, j)
        cuts = [(lam.degree,), (w.m, subtract(lam.degree, w.m)), (w.n, subtract(lam.degree, w.n))]
        cuts += [(w.m, q, subtract(j, w.m)), (w.n, q, subtract(j, w.n))]
        for seq in (lam.edges, descending_form(g, lam)):
            for degrees in cuts:
                assert g._cut(seq, degrees) == cut_by_bubbling(g, seq, degrees)
            # The constructor's cuts stop at the segment's end: their first
            # |m| + |q| ids are the three-piece cut's.
            for start, end in ((w.m, subtract(j, w.m)), (w.n, subtract(j, w.n))):
                at = sum(start) + sum(q)
                assert g._cut(seq, (start, q))[:at] == g._cut(seq, (start, q, end))[:at]
        longest = max(longest, len(lam.edges))
    assert longest == 80


def test_swap_table_is_built_at_the_first_cut():
    g = k3_products(4)[3]  # a fresh graph, not one that graphs() has cut
    obstruction = is_cofinal(g)
    assert not obstruction.cofinal
    rest = quotient(g, obstruction.certificate)
    graph_document_text(g)
    graph_document_text(rest)
    assert g._swaps is None and rest._swaps is None
    factor(next(g.paths_from(g.vertices[0], (1, 1, 1))), (0, 0, 1))
    pairs = [((a, e), image) for a, row in g._swaps.items() for e, image in row.items()]
    assert sorted(pairs) == sorted([*g.squares.forward.items(), *g.squares.backward.items()])


def test_segment_matches_two_factors():
    checked = 0
    for g in graphs():
        degrees = box(g)
        for v in g.vertices:
            for lam in islice(g.paths_from(v, degrees[-1]), 4):
                for m, n in ordered_pairs(degrees):
                    assert factor(lam, m, subtract(n, m))[1] == segment_by_compose(lam, m, n)
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
                minimized(x),
                EventuallyPeriodicPath(compose(x.prefix, x.loop), x.loop),
                EventuallyPeriodicPath(x.prefix, compose(x.loop, x.loop)),
            ]
            for y in same:
                assert ep_equal(x, y) and ep_equal_by_compose(x, y)
            cache = {}
            for y in [y for y in xs if y.prefix.range_vertex == x.prefix.range_vertex][:4]:
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
                for eta in islice(g.paths_from(x.prefix.range_vertex, d), 3):
                    got = rep_apply_adjoint(g, eta, x)
                    want = rep_apply_adjoint_by_compose(g, eta, x)
                    # the same representation, not only the same infinite path
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert (got.prefix, got.loop) == (want.prefix, want.loop)
                    outcomes["zero" if got is None else "shifted"] += 1
    assert outcomes["zero"] > 100 and outcomes["shifted"] > 100


def ep(g, vertex, prefix_edges, loop_edges):
    rho = g.path(vertex, prefix_edges)
    return EventuallyPeriodicPath(rho, g.path(rho.source_vertex, loop_edges))


class TestOneRewritePerCut:
    def test_segment(self, f, rewrites):
        lam = f.path("v", ["b0", "b1", "r0", "r1"])
        rewrites.clear()
        assert factor(lam, (1, 0), (1, 1))[1].edges == ("b1", "r0")
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
        # two segments, each cut stopping where its segment ends.
        seed, steps, witness = rewrites[:2], rewrites[2:-3], rewrites[-3:]
        assert seed == [(m, (0, 1)), (n, (1, 0))]
        assert steps and len(steps) % 2 == 0
        assert steps == [(block, (0, 1)), (block, (1, 0))] * (len(steps) // 2)
        assert witness == [(res.lam.degree,), (m, (1, 1)), (n, (1, 1))]

    def test_no_path_per_state(self, f, monkeypatch):
        built, walked = [], []
        real_init, real_paths_from = Path.__init__, KGraph.paths_from

        def counted_init(self, *args):
            built.append(args)
            real_init(self, *args)

        def counted_paths_from(self, v, n):
            for path in real_paths_from(self, v, n):
                walked.append(path)
                yield path

        monkeypatch.setattr(Path, "__init__", counted_init)
        monkeypatch.setattr(KGraph, "paths_from", counted_paths_from)
        res = local_periodicity_at(f, "v", (5, 0), (0, 5))
        assert not res.periodic and res.lam.degree != (5, 5)  # refuted after propagation steps
        # The seeds and kappas walked, then lam and its two segments; seed
        # cuts, kappa steps and states are edge-id tuples.
        assert len(built) == len(walked) + 3
