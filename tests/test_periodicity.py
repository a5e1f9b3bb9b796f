"""Local periodicity decisions, certificates, and the bounded scan."""

import tracemalloc

import pytest

from kgraph import (
    AperiodicityWitness,
    ContractViolationError,
    KGraph,
    PeriodicityTuple,
    Skeleton,
    SquareTable,
    fixture_parts,
    local_periodicity_at,
    scan_aperiodicity,
    segment,
)
from kgraph.degrees import positive_part
from kgraph.periodicity import default_bound, signed_vectors
from kgraph.skeleton import Edge

from generators import corpus, k2_products, k3_products
from oracles import (
    aperiodic_prefix,
    brute_force_witness,
    brute_force_witness_full_box,
    condition_b_oracle,
    k1_scan_finds_periodicity,
    pairs_up_to,
    refute_first_witness,
)


class TestLocalDecision:
    def test_t2_is_periodic_everywhere(self, t2):
        for m, n in [((1, 0), (0, 1)), ((1, 1), (0, 0)), ((2, 1), (0, 2))]:
            res = local_periodicity_at(t2, "v", m, n)
            assert isinstance(res, PeriodicityTuple)
            assert res.periodic
            assert (res.m, res.n) == (m, n)

    def test_f_is_aperiodic(self, f):
        for m, n in [((1, 0), (0, 0)), ((2, 0), (0, 0)), ((0, 1), (0, 2)), ((1, 0), (0, 1))]:
            res = local_periodicity_at(f, "v", m, n)
            assert isinstance(res, AperiodicityWitness)
            assert not res.periodic

    def test_equal_degrees_rejected(self, t2):
        with pytest.raises(ContractViolationError):
            local_periodicity_at(t2, "v", (1, 0), (1, 0))

    def test_unknown_vertex_rejected(self, t2):
        with pytest.raises(ContractViolationError):
            local_periodicity_at(t2, "x", (1, 0), (0, 1))

    def test_d2_vertices_disagree(self, d2):
        # red shifts at w escape through the connector into the u part
        at_u = local_periodicity_at(d2, "u", (0, 1), (0, 2))
        at_w = local_periodicity_at(d2, "w", (0, 1), (0, 2))
        assert not at_u.periodic
        assert not at_w.periodic

    def test_d_w_vertex_is_periodic(self, d):
        res = local_periodicity_at(d, "w", (1, 0), (0, 1))
        assert res.periodic

    def test_plain_tuple_degrees_decide(self, f, t2):
        res = local_periodicity_at(f, "v", (1, 0), (0, 1))
        assert not res.periodic
        same = local_periodicity_at(f, "v", (1, 0), (0, 1))
        assert res.to_json() == same.to_json()
        assert local_periodicity_at(t2, "v", (1, 0), (0, 1)).periodic


class TestRefuteFirst:
    def test_one_triple_stops_at_its_first_refutation(self, f, monkeypatch):
        import kgraph.periodicity as periodicity

        real_factor = periodicity.factor
        calls = []

        def counted(*args):
            calls.append(args)
            return real_factor(*args)

        monkeypatch.setattr(periodicity, "factor", counted)
        res = local_periodicity_at(f, "v", (5, 0), (0, 5))
        assert not res.periodic
        assert len(calls) < len(tuple(f.paths_from("v", (5, 5))))

    def test_witness_matches_the_definition(self, t2, f, d, d2):
        # Bound 3 covers the triples of bounds 1 and 2.
        by_rank = {1: [], 2: [], 3: []}
        for g in corpus(200):
            by_rank[g.k].append(g)
        graphs = [t2, f, d, d2] + by_rank[1][:7] + by_rank[2][:7] + by_rank[3][:6]
        graphs += k2_products(4) + k3_products(4)
        outcomes = set()
        for g in graphs:
            for v in g.vertices:
                for p in signed_vectors(g.k, 3):
                    m, n = positive_part(p)
                    res = local_periodicity_at(g, v, m, n)
                    got = None if res.periodic else res.lam
                    assert got == refute_first_witness(g, v, m, n), (g.k, v, p)
                    outcomes.add(res.periodic)
        assert outcomes == {True, False}


class TestWitness:
    def test_witness_separates_by_construction(self, f):
        res = local_periodicity_at(f, "v", (1, 0), (0, 0))
        w = res
        assert w.vertex == "v"
        assert w.segment_m != w.segment_n
        # independent recomputation from the carried path
        from kgraph import add, join, subtract

        j = join(w.m, w.n)
        q = subtract(w.lam.degree, j)
        assert segment(w.lam, w.m, add(w.m, q)) == w.segment_m
        assert segment(w.lam, w.n, add(w.n, q)) == w.segment_n

    def test_non_separating_path_refused(self, t2):
        lam = t2.path("v", ["b", "r"])
        with pytest.raises(ContractViolationError):
            AperiodicityWitness("v", (1, 0), (0, 1), lam)

    def test_short_path_refused(self, f):
        lam = f.path("v", ["b0"])
        with pytest.raises(ContractViolationError):
            AperiodicityWitness("v", (1, 1), (0, 0), lam)

    def test_wrong_vertex_refused(self, d2):
        lam = d2.path("u", ["bu0", "ru0"])
        with pytest.raises(ContractViolationError):
            AperiodicityWitness("w", (1, 0), (0, 0), lam)


class TestTuple:
    def test_t2_canonical_tuple(self, t2):
        tup = local_periodicity_at(t2, "v", (1, 0), (0, 1))
        assert tup.mu.edges == ("b",)
        assert tup.alpha.edges == ("r",)
        assert tup.nu.edges == ("r",)
        assert tup.mu_alpha.degree != tup.nu_alpha.degree
        assert tup.mu_alpha.source_vertex == tup.nu_alpha.source_vertex

    def test_tuple_json_fields(self, t2):
        data = local_periodicity_at(t2, "v", (1, 1), (0, 0)).to_json()
        assert set(data) == {"vertex", "m", "n", "mu", "alpha", "nu"}
        assert data["m"] == [1, 1]

    def test_aperiodic_triple_has_no_tuple(self, f):
        res = local_periodicity_at(f, "v", (1, 0), (0, 0))
        assert isinstance(res, AperiodicityWitness)

    def test_validation_rejects_wrong_alpha(self, t2):
        mu = t2.path("v", ["b"])
        bad_alpha = t2.path("v", ["b", "r"])  # degree (1,1), not (0,1)
        with pytest.raises(ContractViolationError):
            PeriodicityTuple("v", (1, 0), (0, 1), mu, bad_alpha)

    def test_validation_rejects_mu_at_another_vertex(self, d2):
        mu = d2.path("u", ["bu0"])  # range u
        with pytest.raises(ContractViolationError, match="claimed vertex"):
            PeriodicityTuple("w", (1, 0), (0, 1), mu, d2.path("u", ["ru0"]))

    def test_validation_rejects_wrong_mu_degree(self, t2):
        mu = t2.path("v", ["r"])  # degree (0,1), not (1,0)
        with pytest.raises(ContractViolationError, match=r"d\(mu\) != m"):
            PeriodicityTuple("v", (1, 0), (0, 1), mu, t2.path("v", ["r"]))

    def test_validation_rejects_equal_degrees(self, t2):
        mu = t2.vertex_path("v")
        alpha = t2.vertex_path("v")
        with pytest.raises(ContractViolationError):
            PeriodicityTuple("v", (0, 0), (0, 0), mu, alpha)


class TestScan:
    def test_default_bounds(self, t2, f, d, d2):
        assert default_bound(t2) == 2
        assert default_bound(f) == 3
        assert default_bound(d) == 4
        assert default_bound(d2) == 6

    def test_signed_vector_order(self):
        vecs = list(signed_vectors(2, 1))
        assert vecs[0] == (-1, -1)
        assert (0, 0) not in vecs
        assert len(vecs) == 8

    def test_t2_first_hit(self, t2):
        rep = scan_aperiodicity(t2, 1)
        assert rep.periodic
        assert rep.bound == 1
        assert rep.vertex == "v"
        assert rep.p == (-1, -1)
        assert rep.m == (1, 1)
        assert rep.n == (0, 0)
        assert rep.tuple.mu.edges == ("b", "r")
        data = rep.to_json()
        assert data["verdict"] == "periodic"
        assert data["bound"] == 1
        assert data["p"] == [-1, -1]

    def test_f_clean_scan(self, f):
        rep = scan_aperiodicity(f, 2)
        assert not rep.periodic
        assert rep.bound == 2
        assert len(rep.entries) == 24  # one vertex, 5^2 - 1 vectors
        data = rep.to_json()
        assert data["verdict"] == "aperiodic"
        assert data["bound"] == 2
        assert len(data["witnesses"]) == 24

    def test_periodic_hit_decided_once(self, t2, monkeypatch):
        import kgraph.periodicity as periodicity

        calls = []

        def counted(*args):
            calls.append(args)
            return local_periodicity_at(*args)

        monkeypatch.setattr(periodicity, "local_periodicity_at", counted)
        rep = scan_aperiodicity(t2, 1)
        assert rep.periodic
        assert len(calls) == 1

    def test_deep_scan_memory_is_bounded(self):
        # vLambda^(8,8) of F holds 2^16 paths; the scan must not hold them.
        f = KGraph(*fixture_parts("F"))
        tracemalloc.start()
        try:
            rep = scan_aperiodicity(f, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not rep.periodic
        assert peak < 8_000_000

    def test_zero_bound_rejected(self, t2):
        with pytest.raises(ContractViolationError):
            scan_aperiodicity(t2, 0)


def flip_red_graph():
    """One blue loop, two red loops; crossing the blue edge swaps the reds."""
    skel = Skeleton(
        2,
        ["v"],
        [Edge("b", 1, "v", "v"), Edge("r0", 2, "v", "v"), Edge("r1", 2, "v", "v")],
    )
    squares = SquareTable([(("b", "r0"), ("r1", "b")), (("b", "r1"), ("r0", "b"))])
    return KGraph(skel, squares)


class TestBlockSupportRegression:
    # The (1,0)/(2,0) pair here is aperiodic, but the two shifts agree on
    # every pure-blue segment; the difference lives entirely in the red
    # coordinate.  Propagating with blocks supported only on the compared
    # color would declare this pair periodic.

    def test_difference_is_red_only(self):
        g = flip_red_graph()
        res = local_periodicity_at(g, "v", (1, 0), (2, 0))
        assert not res.periodic
        w = res
        blue = [e for e in w.segment_m.edges if g.skeleton.edges[e].color == 1]
        assert blue == [e for e in w.segment_n.edges if g.skeleton.edges[e].color == 1]
        assert w.segment_m != w.segment_n

    def test_double_blue_shift_is_identity(self):
        g = flip_red_graph()
        res = local_periodicity_at(g, "v", (2, 0), (0, 0))
        assert res.periodic
        rep = scan_aperiodicity(g, 2)
        assert rep.periodic
        assert rep.p == (-2, 0)


class TestOracleAgreement:
    def test_fixture_spot_checks(self, t2, f, d2):
        cases = [
            (t2, "v", (1, 0), (0, 1)),
            (t2, "v", (2, 0), (0, 0)),
            (f, "v", (1, 0), (0, 0)),
            (f, "v", (0, 2), (0, 1)),
            (d2, "w", (0, 1), (0, 2)),
        ]
        for g, v, m, n in cases:
            res = local_periodicity_at(g, v, m, n)
            lam = brute_force_witness(g, v, m, n, depth=4)
            if lam is not None:
                assert not res.periodic
            if res.periodic:
                assert lam is None

    def test_top_box_search_matches_full_box(self, t2, f, d, d2):
        sample = corpus(11)
        graphs = [t2, f, d, d2] + [sample[i] for i in (0, 2, 8, 10)]
        assert {g.k for g in graphs} == {1, 2, 3}
        outcomes = set()
        for g in graphs:
            for v in g.vertices:
                for m, n in pairs_up_to(g.k, 1):
                    top = brute_force_witness(g, v, m, n, depth=2)
                    full = brute_force_witness_full_box(g, v, m, n, depth=2)
                    assert (top is None) == (full is None), (g.k, v, m, n)
                    outcomes.add(top is None)
        assert outcomes == {True, False}

    def test_pairs_up_to_shape(self):
        pairs = pairs_up_to(2, 1)
        assert ((0, 0), (0, 0)) not in pairs
        for m, n in pairs:
            assert m != n
            assert (n, m) not in pairs

    def test_k1_scan_matches_cycles_without_entrance(self):
        verdicts = []
        for g in corpus(400):
            if g.k != 1:
                continue
            for bound in range(1, 5):
                periodic = scan_aperiodicity(g, bound).periodic
                assert periodic == k1_scan_finds_periodicity(g, bound), (g.vertices, bound)
                verdicts.append(periodic)
        assert len(verdicts) == 352
        assert set(verdicts) == {True, False}


class TestConditionB:
    def test_t2_fails(self, t2):
        assert not condition_b_oracle(t2, "v", 2)

    def test_f_holds(self, f):
        assert condition_b_oracle(f, "v", 1)


class TestAperiodicPrefix:
    def test_chains_witnesses(self, f):
        pairs = [((1, 0), (0, 0)), ((0, 1), (0, 0))]
        eta = aperiodic_prefix(f, "v", pairs)
        assert eta.range_vertex == "v"
        assert sum(eta.degree) > 0

    def test_periodic_pair_refused(self, t2):
        with pytest.raises(ContractViolationError):
            aperiodic_prefix(t2, "v", [((1, 0), (0, 1))])
