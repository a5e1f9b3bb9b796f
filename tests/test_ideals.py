"""Saturated hereditary sets, cofinality, quotients."""

import random

import pytest

import kgraph.ideals
from kgraph import (
    ContractViolationError,
    Edge,
    KGraph,
    LimitExceededError,
    Skeleton,
    SquareTable,
    enumerate_sat_her,
    is_cofinal,
    is_hereditary,
    is_saturated,
    quotient,
    sat_her_closure,
)
from kgraph.ideals import NotCofinal
from generators import corpus, cycle_product, disjoint_union, k2_products, k3_products, wide_graph
from oracles import (
    brute_force_sat_her_sets,
    cofinality_oracle,
    core_dimensions,
    dump_graph_document,
    enumerate_sat_her_per_vertex,
    fixed_point_closure,
    least_singleton_obstruction,
)


def fs(*vs):
    return frozenset(vs)


def unions():
    """Disjoint unions of corpus graphs: several terminal components each.

    Per rank: every graph beside itself (copies tie in size, so only the
    contents order them), neighbouring pairs, and one triple.
    """
    by_rank = {}
    for g in corpus(30):
        by_rank.setdefault(g.k, []).append(g)
    out = []
    for graphs in by_rank.values():
        out += [disjoint_union([g, g]) for g in graphs[:6]]
        out += [disjoint_union(pair) for pair in zip(graphs, graphs[1:6])]
        out.append(disjoint_union(graphs[:3]))
    return out


def reference_graphs(fixtures):
    return list(fixtures) + corpus(200) + k3_products(8) + unions()


def one_graph(names, sources):
    """k = 1 graph on `names` with one edge names[i] <- sources[i] each."""
    edges = [Edge(f"e{v}", 1, v, s) for v, s in zip(names, sources)]
    return KGraph(Skeleton(1, names, edges), SquareTable([]))


def chain(n, ascending):
    """v0 <- v1 <- ... <- v(n-1), which has a loop; names run either way."""
    names = [f"v{i:05d}" for i in range(n)]
    if not ascending:
        names.reverse()
    return one_graph(names, names[1:] + names[-1:])


def cycle(n):
    names = [f"v{i:05d}" for i in range(n)]
    return one_graph(names, names[1:] + names[:1])


class TestPredicates:
    def test_d2_hand_checked(self, d2):
        assert is_hereditary(d2, fs("u"))
        assert is_saturated(d2, fs("u"))
        # the connector has range w and source u
        assert not is_hereditary(d2, fs("w"))
        assert is_hereditary(d2, fs())
        assert is_saturated(d2, fs("u", "w"))

    def test_d_both_halves_qualify(self, d):
        for h in (fs("u"), fs("w")):
            assert is_hereditary(d, h)
            assert is_saturated(d, h)

    def test_unknown_vertex_rejected(self, t2):
        with pytest.raises(ContractViolationError):
            is_hereditary(t2, fs("x"))


class TestVertexIdIsNotAVertexSet:
    """A str is one vertex id, not the set of its characters, so it is refused."""

    # a, b and ab, one loop each: read as a set of characters, "ab" is {a, b}.
    ab = one_graph(["a", "ab", "b"], ["a", "ab", "b"])

    def test_is_hereditary(self):
        assert is_hereditary(self.ab, ["ab"])
        with pytest.raises(ContractViolationError, match="string"):
            is_hereditary(self.ab, "ab")

    def test_is_saturated(self):
        assert is_saturated(self.ab, ["ab"])
        with pytest.raises(ContractViolationError, match="string"):
            is_saturated(self.ab, "ab")

    def test_sat_her_closure(self):
        assert sat_her_closure(self.ab, ["ab"]) == fs("ab")
        with pytest.raises(ContractViolationError, match="string"):
            sat_her_closure(self.ab, "ab")

    def test_quotient(self):
        assert list(quotient(self.ab, ["ab"]).vertices) == ["a", "b"]
        with pytest.raises(ContractViolationError, match="string"):
            quotient(self.ab, "ab")

    def test_not_cofinal(self, d2):
        assert NotCofinal(d2, ["u"]).certificate == fs("u")
        with pytest.raises(ContractViolationError, match="string"):
            NotCofinal(d2, "u")


def test_quotient_refuses_an_unhashable_vertex(f):
    with pytest.raises(ContractViolationError, match=r"^vertex set \[\['v'\]\] is not a collection of vertex ids$"):
        quotient(f, [["v"]])


class TestClosure:
    def test_extensive_monotone_idempotent(self, d2):
        graphs = [d2] + corpus(6)
        for g in graphs:
            singles = [frozenset({v}) for v in g.vertices]
            for seed in [frozenset()] + singles:
                c = sat_her_closure(g, seed)
                assert seed <= c
                assert sat_her_closure(g, c) == c
                for bigger in singles:
                    assert c <= sat_her_closure(g, seed | bigger)

    def test_d2_w_pulls_in_u(self, d2):
        assert sat_her_closure(d2, fs("w")) == fs("u", "w")
        assert sat_her_closure(d2, fs("u")) == fs("u")

    def test_closure_output_is_sat_her(self, d2):
        c = sat_her_closure(d2, fs("w"))
        assert is_hereditary(d2, c)
        assert is_saturated(d2, c)

    def test_matches_fixed_point_definition(self, t2, f, d, d2):
        rng = random.Random(7)
        cases = 0
        for g in reference_graphs([t2, f, d, d2]):
            vs = list(g.vertices)
            seeds = [fs()] + [fs(v) for v in vs]
            seeds += [frozenset(rng.sample(vs, rng.randint(2, len(vs)))) for _ in range(3) if len(vs) > 1]
            for seed in seeds:
                assert sat_her_closure(g, seed) == fixed_point_closure(g, seed), (g.vertices, seed)
                cases += 1
        assert cases > 1000


class TestEnumeration:
    def test_fixture_lattices(self, t2, f, d, d2):
        assert enumerate_sat_her(t2) == [fs(), fs("v")]
        assert enumerate_sat_her(f) == [fs(), fs("v")]
        assert enumerate_sat_her(d) == [fs(), fs("u"), fs("w"), fs("u", "w")]
        assert enumerate_sat_her(d2) == [fs(), fs("u"), fs("u", "w")]

    def test_matches_brute_force(self, t2, f, d, d2):
        for g in [t2, f, d, d2] + corpus(10):
            assert enumerate_sat_her(g) == brute_force_sat_her_sets(g)

    def test_matches_per_vertex_generators(self, t2, f, d, d2):
        graphs = [t2, f, d, d2, wide_graph()] + corpus(200) + k2_products(6) + k3_products(6) + unions()
        for g in graphs:
            assert enumerate_sat_her(g) == enumerate_sat_her_per_vertex(g), g.vertices

    def test_more_than_20_vertices(self):
        g = wide_graph()
        assert (len(g.vertices), len(enumerate_sat_her(g))) == (32, 64)
        g = cycle_product(4, 6)
        assert enumerate_sat_her(g) == [fs(), frozenset(g.vertices)]

    def test_one_generator_per_component(self, monkeypatch):
        calls = []
        closure = kgraph.ideals.sat_her_closure
        monkeypatch.setattr(kgraph.ideals, "sat_her_closure", lambda g, seed: calls.append(seed) or closure(g, seed))
        # One component: one generator's closure, and its join with the
        # empty set is not closed again.  A generator per vertex would take 50.
        assert enumerate_sat_her(cycle(50)) == [fs(), frozenset(cycle(50).vertices)]
        assert len(calls) == 1

    def test_refuses_at_the_first_set_past_the_limit(self, f, monkeypatch):
        # 5 copies of F: 5 generator closures, then at most one closure per
        # set found before the refusal.  Closing a whole round before
        # counting it would make 16.
        calls = []
        closure = kgraph.ideals.sat_her_closure
        monkeypatch.setattr(kgraph.ideals, "sat_her_closure", lambda g, seed: calls.append(seed) or closure(g, seed))
        monkeypatch.setattr(kgraph.ideals, "ENUM_LIMIT", 8)
        with pytest.raises(LimitExceededError, match="more than 8 saturated hereditary sets"):
            enumerate_sat_her(disjoint_union([f] * 5))
        assert len(calls) <= 8 + 5

    def test_limit_counts_sets(self, d, monkeypatch):
        # D has exactly 4 sets: at the limit it enumerates, one below it refuses.
        monkeypatch.setattr(kgraph.ideals, "ENUM_LIMIT", 4)
        assert len(enumerate_sat_her(d)) == 4
        monkeypatch.setattr(kgraph.ideals, "ENUM_LIMIT", 3)
        with pytest.raises(LimitExceededError, match="more than 3 saturated hereditary sets"):
            enumerate_sat_her(d)


class TestCofinality:
    def test_single_vertex_graphs(self, t2, f):
        assert is_cofinal(t2).cofinal
        assert is_cofinal(f).cofinal
        assert is_cofinal(t2).to_json() == {"verdict": "cofinal"}

    def test_d_obstruction(self, d):
        res = is_cofinal(d)
        assert not res.cofinal
        assert res.certificate == fs("u")
        assert res.to_json() == {"verdict": "not_cofinal", "certificate": ["u"]}

    def test_d2_obstruction(self, d2):
        res = is_cofinal(d2)
        assert not res.cofinal
        assert res.certificate == fs("u")

    @pytest.mark.parametrize("certificate", [fs(), fs("u", "w"), fs("w")], ids=["empty", "everything", "not-hereditary"])
    def test_certificate_revalidated(self, d2, certificate):
        with pytest.raises(ContractViolationError):
            NotCofinal(d2, certificate)

    def test_certificate_must_be_saturated(self):
        # a <- a and b <- a: {a} is hereditary, but b's one edge comes from a.
        g = one_graph(["a", "b"], ["a", "a"])
        assert is_hereditary(g, fs("a")) and not is_saturated(g, fs("a"))
        with pytest.raises(ContractViolationError):
            NotCofinal(g, fs("a"))

    def test_oracle_agreement(self, t2, f, d, d2):
        assert cofinality_oracle(t2, 2)
        assert cofinality_oracle(f, 2)
        assert not cofinality_oracle(d, 2)
        assert not cofinality_oracle(d2, 2)

    def test_oracle_on_corpus(self):
        # k2_products: commuting but unequal vertex matrices
        for g in corpus(40) + k2_products(4):
            assert cofinality_oracle(g, 2) == is_cofinal(g).cofinal

    def test_matches_singleton_definition(self, t2, f, d, d2):
        verdicts = set()
        for g in reference_graphs([t2, f, d, d2]):
            res = is_cofinal(g)
            least = least_singleton_obstruction(g)
            assert res.cofinal == (least is None), g.vertices
            if least is not None:
                assert res.certificate == least, g.vertices
            verdicts.add(res.cofinal)
        assert verdicts == {True, False}

    def test_unions_tie_in_size(self):
        # Two different least-size obstructions, so the certificate in
        # test_matches_singleton_definition is decided by contents.
        ties = 0
        for g in unions():
            everything = frozenset(g.vertices)
            closures = {fixed_point_closure(g, {v}) for v in g.vertices} - {everything}
            sizes = sorted(len(h) for h in closures)
            ties += len(sizes) > 1 and sizes[0] == sizes[1]
        assert ties >= 10

    def test_one_closure_per_terminal_component(self, d, d2, f, monkeypatch):
        calls = []
        closure = kgraph.ideals.sat_her_closure
        monkeypatch.setattr(kgraph.ideals, "sat_her_closure", lambda g, seed: calls.append(seed) or closure(g, seed))
        # A 50-cycle is one component; a closure per vertex would make 50.
        for g, expected in [(cycle(50), 1), (disjoint_union([cycle(4)] * 3), 3), (d, 2), (d2, 1), (f, 1)]:
            calls.clear()
            is_cofinal(g)
            assert len(calls) == expected, g.vertices

    @pytest.mark.parametrize("ascending", [True, False])
    def test_long_chain(self, ascending):
        assert is_cofinal(chain(5000, ascending)).cofinal

    def test_long_cycle(self):
        assert is_cofinal(cycle(5000)).cofinal


class TestQuotient:
    def test_d_collapses_to_one_copy(self, d):
        q = quotient(d, fs("u"))
        assert list(q.vertices) == ["w"]
        assert sorted(q.skeleton.edges) == ["bw", "rw"]
        assert q.squares.entries == ((("bw", "rw"), ("rw", "bw")),)

    def test_d2_drops_connectors_too(self, d2):
        q = quotient(d2, fs("u"))
        assert list(q.vertices) == ["w"]
        assert sorted(q.skeleton.edges) == ["bw", "rw"]

    def test_empty_set_is_identity_shaped(self, d2):
        q = quotient(d2, fs())
        assert list(q.vertices) == list(d2.vertices)
        assert sorted(q.skeleton.edges) == sorted(d2.skeleton.edges)

    def test_empty_set_gives_the_graph_itself(self, t2, f, d, d2):
        # Deleting nothing leaves g, so g is returned as is; the document
        # is the one a rebuild of g's own edges and squares would write.
        for g in [t2, f, d, d2] + corpus(200) + k2_products(6) + k3_products(6) + [wide_graph()]:
            assert quotient(g, set()) is g
            rebuilt = KGraph(Skeleton(g.k, g.vertices, g.skeleton.edges.values()), SquareTable(g.squares.entries))
            assert dump_graph_document(g.skeleton, g.squares) == dump_graph_document(rebuilt.skeleton, rebuilt.squares)
        with pytest.raises(ContractViolationError, match="is a string"):
            quotient(t2, "")

    def test_full_set_refused(self, t2):
        with pytest.raises(ContractViolationError):
            quotient(t2, fs("v"))

    def test_non_hereditary_refused(self, d2):
        with pytest.raises(ContractViolationError):
            quotient(d2, fs("w"))

    def test_non_saturated_refused(self):
        g = one_graph(["a", "b"], ["a", "a"])  # as in test_certificate_must_be_saturated
        with pytest.raises(ContractViolationError, match=r"\['a'\] is not saturated"):
            quotient(g, fs("a"))

    def test_squares_kept_by_their_source(self, t2, f, d, d2):
        # A square f.g = g'.f' keeps its four edges exactly when s(g)
        # survives (module docstring): the reference tests all four ids.
        fixtures = [t2, f, d, d2]
        graphs = fixtures + corpus(200) + k2_products(6) + k3_products(6) + [wide_graph(), disjoint_union(fixtures)]
        sets = 0
        for g in graphs:
            for h in enumerate_sat_her(g)[:-1]:
                keep_ids = {e.id for e in g.skeleton.edges.values() if e.source not in h}
                want = tuple((pair, image) for pair, image in g.squares.entries if set(pair + image) <= keep_ids)
                assert quotient(g, h).squares.entries == want, (g.vertices, h)
                sets += 1
        assert sets == 446

    def test_quotient_revalidates(self, d):
        # the result is a fully built graph, so its paths factor correctly
        q = quotient(d, fs("u"))
        lam = q.path("w", ["bw", "rw"])
        assert lam.degree == (1, 1)


class TestCoreDimensions:
    def test_t2(self, t2):
        assert core_dimensions(t2, (2, 3)) == {"v": 1}

    def test_f(self, f):
        assert core_dimensions(f, (2, 1)) == {"v": 8}

    def test_d2_counts_connectors(self, d2):
        assert core_dimensions(d2, (1, 0)) == {"u": 3, "w": 1}
        assert core_dimensions(d2, (0, 1)) == {"u": 3, "w": 1}

    def test_zero_degree(self, d2):
        assert core_dimensions(d2, (0, 0)) == {"u": 1, "w": 1}
