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
)
from kgraph.degrees import positive_part
from kgraph.documents import canonical_json
from kgraph.periodicity import _path_counts, default_bound, signed_vectors
from kgraph.skeleton import Edge

from generators import corpus, disjoint_union, k2_products, k3_products
from oracles import (
    aperiodic_prefix,
    brute_force_witness,
    brute_force_witness_full_box,
    condition_b_oracle,
    k1_scan_finds_periodicity,
    pairs_up_to,
    path_count_row,
    refute_first_witness,
    scan_every_triple,
    segment_by_compose,
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
    def test_one_triple_stops_at_its_first_refutation(self, f, rewrites):
        # Range-checking every seed first would take two cuts per seed.
        seeds = len(tuple(f.paths_from("v", (5, 5))))
        res = local_periodicity_at(f, "v", (5, 0), (0, 5))
        assert not res.periodic
        assert len(rewrites) < seeds

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
    def test_witness_separates_by_construction(self, t2, f, d, d2):
        # Each witness's segments against the definition, recomputed from
        # the carried path by two two-piece cuts instead of one three-piece one,
        # and each witness, mirrors included, against the constructor's own
        # witness for the same path.
        from kgraph import add, join, subtract

        witnesses = 0
        for g in [t2, f, d, d2] + corpus(40) + k2_products(3) + k3_products(2):
            scan = scan_aperiodicity(g, 2)
            for v, _, w in [] if scan.periodic else scan.entries:
                assert w.vertex == v and w.lam.range_vertex == v
                assert w.segment_m != w.segment_n
                q = subtract(w.lam.degree, join(w.m, w.n))
                assert segment_by_compose(w.lam, w.m, add(w.m, q)) == w.segment_m
                assert segment_by_compose(w.lam, w.n, add(w.n, q)) == w.segment_n
                assert AperiodicityWitness(v, w.m, w.n, w.lam).to_json() == w.to_json()
                witnesses += 1
        assert witnesses == 628

    @pytest.mark.parametrize(
        "m, n",
        [
            ([1, 0], (0, 1)),
            ((1, 0), [0, 1]),
            ((-1, 0), (0, 1)),
            ((1, 0), (0, -1)),
            ((True, 0), (0, 1)),
            ((1, 0), (0, True)),
            ((1, 0, 0), (0, 1)),
            ((1, 0), (0, 1, 0)),
        ],
    )
    def test_degree_that_is_not_a_rank_k_tuple_refused(self, f, m, n):
        lam = local_periodicity_at(f, "v", (1, 0), (0, 1)).lam
        with pytest.raises(ContractViolationError, match="degree"):
            AperiodicityWitness("v", m, n, lam)

    def test_path_that_is_not_a_path_refused(self):
        with pytest.raises(ContractViolationError, match="not a Path"):
            AperiodicityWitness("v", (1, 0), (0, 1), None)

    def test_non_separating_path_refused(self, t2):
        lam = t2.path("v", ["b", "r"])
        with pytest.raises(ContractViolationError):
            AperiodicityWitness("v", (1, 0), (0, 1), lam)

    def test_short_path_refused(self, f):
        lam = f.path("v", ["b0"])
        with pytest.raises(ContractViolationError, match="shorter than m v n"):
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

    @pytest.mark.parametrize("which", ["mu", "alpha"])
    def test_validation_rejects_what_is_not_a_path(self, t2, which):
        paths = {"mu": t2.path("v", ["b"]), "alpha": t2.path("v", ["r"])}
        paths[which] = None
        with pytest.raises(ContractViolationError, match="must be Paths"):
            PeriodicityTuple("v", (1, 0), (0, 1), paths["mu"], paths["alpha"])

    @pytest.mark.parametrize("n", [("a", 1), None], ids=["str-entry", "none"])
    def test_validation_rejects_a_malformed_degree(self, t2, n):
        # A malformed degree breaks the precondition; it must not reach join as a TypeError.
        with pytest.raises(ContractViolationError, match="degree|rank"):
            PeriodicityTuple("v", (1, 0), n, t2.path("v", ["b"]), t2.path("v", ["r"]))

    def test_validation_rejects_equal_degrees(self, t2):
        mu = t2.path("v", ())
        alpha = t2.path("v", ())
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
        # The scan relies on the order's symmetry: the vectors before 0 are
        # those whose first nonzero entry is negative, and the rest are
        # their negations in reverse order.
        for k in (1, 2, 3):
            for bound in (1, 2, 3):
                vecs = list(signed_vectors(k, bound))
                half = len(vecs) // 2
                earlier = [p for p in vecs if p < (0,) * k]
                assert earlier == vecs[:half]
                assert all(next(c for c in p if c) < 0 for p in earlier)
                assert vecs[half:] == [tuple(-c for c in p) for p in reversed(earlier)]
                assert len(vecs) == (2 * bound + 1) ** k - 1

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

    @pytest.fixture
    def decisions(self, monkeypatch):
        """The arguments of every `local_periodicity_at` call a scan makes."""
        import kgraph.periodicity as periodicity

        calls = []

        def counted(*args):
            calls.append(args)
            return local_periodicity_at(*args)

        monkeypatch.setattr(periodicity, "local_periodicity_at", counted)
        return calls

    def test_periodic_hit_decided_once(self, t2, decisions):
        rep = scan_aperiodicity(t2, 1)
        assert rep.periodic
        assert len(decisions) == 1

    def test_mirrored_triple_takes_the_earlier_lambda(self, f, decisions):
        rep = scan_aperiodicity(f, 2)
        assert not rep.periodic
        assert len(decisions) == len(f.vertices) * ((2 * 2 + 1) ** 2 - 1) // 2
        by_key = {(v, p): w for v, p, w in rep.entries}
        later = [(v, p) for v, p in by_key if next(c for c in p if c) > 0]
        assert len(later) == len(decisions)
        for v, p in later:
            w, mirror = by_key[v, p], by_key[v, tuple(-c for c in p)]
            assert w.lam == mirror.lam
            assert (w.segment_m, w.segment_n) == (mirror.segment_n, mirror.segment_m)

    def test_mirrors_cut_nothing(self, f, rewrites, decisions):
        # The scan's cuts are exactly those of its decisions, in the order
        # the scan made them: a mirror's witness takes the earlier
        # witness's segments uncut.
        rep = scan_aperiodicity(f, 2)
        scan_cuts = list(rewrites)
        rewrites.clear()
        decided = [(v, w.m, w.n) for v, p, w in rep.entries if next(c for c in p if c) < 0]
        assert len(decided) == 12
        assert sorted(args[1:] for args in decisions) == sorted(decided)
        for args in list(decisions):
            local_periodicity_at(*args)
        assert scan_cuts == rewrites

    def test_periodic_scan_decides_only_triples_the_counts_allow(self, decisions):
        # Periodicity equalizes path counts (docs/terminal-components.md),
        # so a scan that ends periodic decides, up to its hit, only the
        # earlier triple of each mirrored pair whose rows of counts agree.
        def plan(g, rep):
            allowed, refuted = [], 0
            for v in g.vertices:
                for p in signed_vectors(g.k, 2):
                    m, n = positive_part(p)
                    if next(c for c in p if c) < 0:
                        if path_count_row(g, v, m) == path_count_row(g, v, n):
                            allowed.append((v, m, n))
                        else:
                            refuted += 1
                    if (v, p) == (rep.vertex, rep.p):
                        return allowed, refuted

        for g in corpus(200):
            decisions.clear()
            rep = scan_aperiodicity(g, 2)
            if rep.periodic:
                allowed, refuted = plan(g, rep)
                if refuted:
                    break
        else:
            pytest.fail("no corpus scan ends periodic after a refuted triple")
        assert [args[1:] for args in decisions] == allowed

    def test_scan_matches_deciding_every_triple(self, t2, f, d, d2):
        def same(g, bound):
            return canonical_json(scan_aperiodicity(g, bound).to_json()) == canonical_json(
                scan_every_triple(g, bound).to_json()
            )

        for g in (t2, f, d, d2):
            for bound in range(1, 6):
                assert same(g, bound)
        for g in corpus(40) + k2_products(3) + k3_products(2):
            for bound in (1, 2):
                assert same(g, bound)

    def test_scan_matches_deciding_every_triple_on_generated_graphs(self):
        # The count test reorders decisions; the first hit and the entry
        # order stay those of the scan deciding every triple in turn.
        cases = [(g, 2) for g in corpus(200) + k2_products(6)] + [(g, 1) for g in k3_products(4)]
        for g, bound in cases:
            assert canonical_json(scan_aperiodicity(g, bound).to_json()) == canonical_json(
                scan_every_triple(g, bound).to_json()
            )

    def test_second_walk_reports_a_periodic_hit(self, t2, f, d, d2, monkeypatch):
        # Count rows that differ for every pair leave every triple to the
        # second walk, so T2's and D's periodic hits come from it.
        import kgraph.periodicity as periodicity

        monkeypatch.setattr(periodicity, "_path_counts", lambda g: lambda deg: [deg] * len(g.vertices))
        for g, bound in ((t2, 2), (d, 2), (f, 3), (d2, 3)):
            rep = scan_aperiodicity(g, bound)
            assert rep.periodic == (g in (t2, d))
            assert canonical_json(rep.to_json()) == canonical_json(scan_every_triple(g, bound).to_json())

    def test_periodic_scan_pulls_only_the_vectors_it_tests(self, t2, monkeypatch):
        # The scan walks the difference vectors lazily: T2's first vector
        # at bound 2000 is a periodic hit, so it pulls one of 16,008,000.
        import kgraph.periodicity as periodicity

        pulled = []
        real = periodicity.signed_vectors

        def counted(k, bound):
            for p in real(k, bound):
                pulled.append(p)
                yield p

        monkeypatch.setattr(periodicity, "signed_vectors", counted)
        rep = scan_aperiodicity(t2, 2000)
        assert rep.periodic
        assert rep.p == (-2000, -2000)
        assert pulled == [(-2000, -2000)]

    def test_each_pair_is_worked_out_once_per_scan(self, d2, monkeypatch):
        # D2 has two vertices and 24 vectors p < 0 at bound 3: one pair each.
        import kgraph.periodicity as periodicity

        split = []
        real = periodicity.positive_part

        def counted(p):
            split.append(p)
            return real(p)

        monkeypatch.setattr(periodicity, "positive_part", counted)
        rep = scan_aperiodicity(d2, 3)
        assert not rep.periodic and len(d2.vertices) == 2
        assert sorted(split) == [p for p in signed_vectors(2, 3) if p < (0, 0)]

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

    def test_periodic_scan_at_a_huge_bound_stays_lazy(self):
        # T2 is periodic at its first triple; the scan must not list the
        # 4001^2 - 1 signed vectors of bound 2000 to find it.
        t2 = KGraph(*fixture_parts("T2"))
        tracemalloc.start()
        try:
            rep = scan_aperiodicity(t2, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.periodic
        assert peak < 4_000_000

    def test_zero_bound_rejected(self, t2):
        with pytest.raises(ContractViolationError):
            scan_aperiodicity(t2, 0)

    def test_mirrored_triples_are_decided_alike(self, t2, f, d, d2):
        # (v, m, n) and (v, n, m) walk the same states with the pair swapped
        # (docs/minimal-pairs.md), so they share a verdict and an aperiodic
        # witness's lambda, and a scan's periodic hit is the earlier of p, -p.
        # The triples of bound 2 hold those of bound 1, and every scan's.
        graphs = [t2, f, d, d2] + corpus(40) + k2_products(3) + k3_products(2)
        triples = periodic = hits = 0
        for g in graphs:
            for bound in (1, 2):
                scan = scan_aperiodicity(g, bound)
                if scan.periodic:
                    assert next(c for c in scan.p if c) < 0
                    hits += 1
            for v in g.vertices:
                for p in signed_vectors(g.k, 2):
                    if next(c for c in p if c) > 0:
                        continue
                    m, n = positive_part(p)
                    res, mirror = local_periodicity_at(g, v, m, n), local_periodicity_at(g, v, n, m)
                    assert res.periodic == mirror.periodic
                    if res.periodic:
                        periodic += 2
                    else:
                        assert mirror.lam == res.lam
                        assert (mirror.segment_m, mirror.segment_n) == (res.segment_n, res.segment_m)
                    triples += 2
        assert (triples, periodic, hits) == (4404, 2362, 81)  # 17 of 98 scans aperiodic


def flip_red_graph():
    """One blue loop, two red loops; crossing the blue edge swaps the reds."""
    skel = Skeleton(
        2,
        ["v"],
        [Edge("b", 1, "v", "v"), Edge("r0", 2, "v", "v"), Edge("r1", 2, "v", "v")],
    )
    squares = SquareTable([(("b", "r0"), ("r1", "b")), (("b", "r1"), ("r0", "b"))])
    return KGraph(skel, squares)


class TestPathCounts:
    """The scan's count table: differing counts prove a triple aperiodic."""

    @staticmethod
    def refuted(g, bound):
        counts = _path_counts(g)
        return [
            (v, m, n)
            for i, v in enumerate(g.vertices)
            for m, n in map(positive_part, signed_vectors(g.k, bound))
            if counts(m)[i] != counts(n)[i]
        ]

    def test_refuted_triples_decide_aperiodic(self, t2, f, d, d2):
        # The triples up to bound 8 hold those of every smaller bound.
        fixtures = [t2, f, d, d2]
        cases = (
            [(g, 8) for g in fixtures]
            + [(g, 2) for g in corpus(200) + k2_products(6)]
            + [(g, 1) for g in k3_products(4)]
            + [(disjoint_union(fixtures), 2)]
        )
        for g, bound in cases:
            for v, m, n in self.refuted(g, bound):
                assert not local_periodicity_at(g, v, m, n).periodic

    def test_table_refutes_where_exact_counts_differ(self, t2, f, d, d2):
        for g in (t2, f, d, d2):
            exact = [
                (v, m, n)
                for v in g.vertices
                for m, n in map(positive_part, signed_vectors(g.k, 5))
                if path_count_row(g, v, m) != path_count_row(g, v, n)
            ]
            assert self.refuted(g, 5) == exact

    def test_counts_refute_most_triples_of_f(self, f):
        # F's one vertex has two edges of each color, so |vLambda^m| =
        # 2^(m_1 + m_2): only the 10 vectors p = (a, -a) keep equal counts.
        assert len(self.refuted(f, 5)) == 120 - 10


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
            # Aperiodic, but a pair state keyed on its left tail alone skips every refutation.
            (k2_products(4)[1], "x1.y1", (0, 1), (0, 0)),
        ]
        for g, v, m, n in cases:
            res = local_periodicity_at(g, v, m, n)
            lam = brute_force_witness(g, v, m, n, depth=4)
            if lam is not None:
                assert not res.periodic
            if res.periodic:
                assert lam is None
        assert not local_periodicity_at(*cases[-1]).periodic

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

    def test_k1_verdict_is_exact_from_the_vertex_count(self):
        # A cycle without an entrance is at most |V| long, and default_bound
        # is at least |V|, so bounds past |V| change nothing for k = 1
        # (docs/terminal-components.md).
        graphs = [g for g in corpus(300) if g.k == 1]
        periodic = 0
        for g in graphs:
            at_vertex_count = scan_aperiodicity(g, len(g.vertices)).periodic
            assert default_bound(g) >= len(g.vertices)
            assert scan_aperiodicity(g, 2 * default_bound(g)).periodic == at_vertex_count
            assert k1_scan_finds_periodicity(g, 10 * len(g.vertices)) == at_vertex_count
            periodic += at_vertex_count
        assert (len(graphs), periodic) == (66, 46)


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
