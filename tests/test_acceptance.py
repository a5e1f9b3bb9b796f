"""Acceptance gate: one test per numbered criterion.

The terminal summary hook in conftest prints a [PASS]/[FAIL] line per
criterion number.  Expected values come from hand checks and from the
independent brute-force oracles in oracles.py, never from the code
under test.  Criteria 3 and 4 share one sweep: the decision-vs-oracle
pass emits the periodicity tuples that the representation pass replays.
Criterion 3 also sweeps twisted k = 2 and k = 3 products; criterion 4
replays the 54 fixture and corpus graphs only, since its audit of the
products takes minutes.
"""

import time
from functools import lru_cache
from itertools import product

from generators import corpus, k2_products, k3_products
from oracles import (
    brute_force_witness,
    cofinality_oracle,
    ep_samples_unique,
    matmul,
    pairs_up_to,
    vertex_matrices,
)

from kgraph.analysis import (
    RepElement,
    all_ideals_gauge_invariant,
    is_simple,
    rep_apply,
    sample_family,
    verify_annihilation,
)
from kgraph.degrees import add, join, subtract
from kgraph.factorization import KGraph, compose, factor, segment
from kgraph.fixtures import fixture_parts
from kgraph.ideals import is_cofinal, is_hereditary, is_saturated, quotient
from kgraph.infinite import ep_equal, ep_samples
from kgraph.periodicity import (
    AperiodicityWitness,
    PeriodicityTuple,
    local_periodicity_at,
)

FIXTURE_NAMES = ("T2", "F", "D", "D2")


@lru_cache(maxsize=1)
def graphs():
    # indices 0-3 are the named fixtures, 4-53 the random corpus
    return [KGraph(*fixture_parts(name)) for name in FIXTURE_NAMES] + corpus(50)


def products():
    return k2_products(4) + k3_products(2)


@lru_cache(maxsize=None)
def sub_degrees(n):
    return list(product(*(range(a + 1) for a in n)))


def test_criterion_1():
    t0 = time.monotonic()
    paths = 0
    for g in graphs():
        zero = (0,) * g.k
        degs = [t for t in product(range(5), repeat=g.k) if sum(t) <= 4]
        for v in g.vertices:
            for full in degs:
                for lam in g.paths_from(v, full):
                    paths += 1
                    for m in sub_degrees(full):
                        assert compose(*factor(lam, m)) == lam
                    for n in sub_degrees(full):
                        tail = segment(lam, n, full)
                        for m in sub_degrees(n):
                            head = compose(segment(lam, zero, m), segment(lam, m, n))
                            assert compose(head, tail) == lam
    assert paths > 0
    assert time.monotonic() - t0 < 30.0


def test_criterion_2():
    for g in graphs():
        mats = vertex_matrices(g.skeleton)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert matmul(mats[i], mats[j]) == matmul(mats[j], mats[i])


@lru_cache(maxsize=None)
def periodicity_survey(graph_list):
    """Decision vs depth-4 witness search on every graph, vertex, small pair.

    Disagreement means the decision said periodic while the oracle holds a
    separating path.  Witnesses from either side are re-validated through
    the checking constructor.  Returns (elapsed, decided, disagreements,
    emitted) with decided the number of triples and emitted mapping graph
    index to the periodicity tuples found.  `graph_list` is `graphs` or
    `products`.
    """
    t0 = time.monotonic()
    decided = 0
    disagreements = []
    emitted = {}
    for gi, g in enumerate(graph_list()):
        pairs = pairs_up_to(g.k, 2)
        for v in g.vertices:
            for m, n in pairs:
                decided += 1
                res = local_periodicity_at(g, v, m, n)
                lam = brute_force_witness(g, v, m, n, 4)
                if res.periodic:
                    if lam is not None:
                        disagreements.append((gi, v, m, n))
                        continue
                    mu = next(g.paths_from(v, m))
                    alpha = next(g.paths_from(mu.source_vertex, subtract(join(m, n), m)))
                    tup = PeriodicityTuple(v, m, n, mu, alpha)
                    # the decision's own certificate is this least tuple
                    assert res.to_json() == tup.to_json()
                    emitted.setdefault(gi, []).append(tup)
                else:
                    AperiodicityWitness(res.vertex, res.m, res.n, res.lam)
                    if lam is not None:
                        AperiodicityWitness(v, m, n, lam)
    return time.monotonic() - t0, decided, disagreements, emitted


def test_criterion_3():
    elapsed, decided, disagreements, emitted = periodicity_survey(graphs)
    # every vertex of all 54 graphs against every pair with entries <= 2
    assert decided == 9030
    assert disagreements == []
    # the known-periodic fixtures T2 and D must appear in the stash
    assert 0 in emitted and 2 in emitted
    assert elapsed < 300.0
    elapsed, decided, disagreements, _ = periodicity_survey(products)
    # every vertex of the 4 + 2 twisted products, same pairs
    assert decided == 3384
    assert disagreements == []
    assert elapsed < 300.0


def test_criterion_4():
    _, _, _, emitted = periodicity_survey(graphs)
    assert emitted
    checked = 0
    for gi, tuples in emitted.items():
        g = graphs()[gi]
        single = all(
            len(g.skeleton.by_range.get((v, c), ())) == 1
            for v in g.vertices
            for c in range(1, g.k + 1)
        )
        if single:
            # one out-edge per color everywhere leaves exactly one infinite
            # path from each vertex, and the action reads y only through
            # the path it denotes, so one representative per vertex covers
            # the whole depth-3 family
            samples = [next(iter(ep_samples(g, v, 3, 3))) for v in g.vertices]
        else:
            samples = [y for v in g.vertices for y in ep_samples_unique(g, v, 3, 3)]
        assert samples
        cache = {}
        for tup in tuples:
            elem = RepElement.from_tuple(tup)
            for y in samples:
                left = rep_apply(g, elem.mu_alpha, y)
                right = rep_apply(g, elem.nu_alpha, y)
                assert (left is None) == (right is None)
                if left is not None:
                    assert ep_equal(left, right, cache)
                    checked += 1
    assert checked > 0


def test_criterion_5():
    gl = graphs()
    for g in gl:
        assert is_cofinal(g).cofinal == cofinality_oracle(g, 3)
    t2, f, d = gl[0], gl[1], gl[2]
    verdict = is_cofinal(d)
    assert not verdict.cofinal
    assert verdict.certificate == frozenset({"u"})
    assert is_cofinal(t2).cofinal
    assert is_cofinal(f).cofinal


def test_criterion_6():
    gl = graphs()
    t2, f, d = gl[0], gl[1], gl[2]

    v1 = is_simple(t2)
    assert not v1.simple and v1.cofinality.cofinal
    assert (v1.to_json()["verdict"], v1.to_json()["reason"]) == ("not_simple", "locally_periodic")
    hit = v1.scan
    assert hit.periodic
    tup = hit.tuple
    PeriodicityTuple(tup.vertex, tup.m, tup.n, tup.mu, tup.alpha)
    assert local_periodicity_at(t2, hit.vertex, hit.m, hit.n).periodic

    v2 = is_simple(d)
    assert not v2.simple and not v2.cofinality.cofinal
    assert (v2.to_json()["verdict"], v2.to_json()["reason"]) == ("not_simple", "not_cofinal")
    h = v2.cofinality.certificate
    assert h and set(h) < set(d.vertices)
    assert is_hereditary(d, h) and is_saturated(d, h)

    v3 = is_simple(f, 2)
    assert v3.simple and v3.bound == 2
    assert v3.to_json()["verdict"] == "simple"
    assert v3.text() == "Simple (up to bound 2)"
    assert v3.scan is not None and v3.scan.entries
    for vertex, p, wit in v3.scan.entries:
        assert wit.vertex == vertex
        assert tuple(wit.n[i] - wit.m[i] for i in range(f.k)) == tuple(p)
        AperiodicityWitness(wit.vertex, wit.m, wit.n, wit.lam)


def test_criterion_7():
    expected = {"T2": 36, "F": 0, "D": 72, "D2": 0}
    for name, g in zip(FIXTURE_NAMES, graphs()):
        found = 0
        for v in g.vertices:
            for m, n in pairs_up_to(g.k, 2):
                res = local_periodicity_at(g, v, m, n)
                if not res.periodic:
                    continue
                found += 1
                elem = RepElement.from_tuple(res)
                assert elem.mu_alpha.degree != elem.nu_alpha.degree
                assert verify_annihilation(g, elem, sample_family(g, 3))
        assert found == expected[name]


def test_criterion_8():
    gl = graphs()
    f, d2 = gl[1], gl[3]

    rep = all_ideals_gauge_invariant(d2, 2)
    assert not rep.all_invariant
    h, hit = rep.offender
    assert sorted(h) == ["u"]
    tup = hit.tuple
    assert tup.mu.graph is not d2  # the tuple lives on the quotient
    PeriodicityTuple(tup.vertex, tup.m, tup.n, tup.mu, tup.alpha)
    q = quotient(d2, h)
    assert local_periodicity_at(q, hit.vertex, hit.m, hit.n).periodic

    frep = all_ideals_gauge_invariant(f, 2)
    assert frep.all_invariant
    assert frep.bound == 2


def test_criterion_9():
    m, n = (10, 2), (5, 6)
    frame = join(m, n)
    assert frame == (10, 6)
    assert add(frame, (2, 3)) == (12, 9)
