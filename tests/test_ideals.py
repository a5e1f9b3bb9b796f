"""Saturated hereditary sets, cofinality, quotients."""

import pytest

from kgraph import (
    ContractViolationError,
    Degree,
    LimitExceededError,
    core_dimensions,
    enumerate_sat_her,
    is_cofinal,
    is_hereditary,
    is_saturated,
    quotient,
    sat_her_closure,
)
from generators import corpus
from oracles import brute_force_sat_her_sets, cofinality_oracle


def fs(*vs):
    return frozenset(vs)


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


class TestEnumeration:
    def test_fixture_lattices(self, t2, f, d, d2):
        assert enumerate_sat_her(t2) == [fs(), fs("v")]
        assert enumerate_sat_her(f) == [fs(), fs("v")]
        assert enumerate_sat_her(d) == [fs(), fs("u"), fs("w"), fs("u", "w")]
        assert enumerate_sat_her(d2) == [fs(), fs("u"), fs("u", "w")]

    def test_matches_brute_force(self, t2, f, d, d2):
        for g in [t2, f, d, d2] + corpus(10):
            assert enumerate_sat_her(g) == brute_force_sat_her_sets(g)

    def test_limit_enforced(self, d):
        with pytest.raises(LimitExceededError):
            enumerate_sat_her(d, limit=1)

    def test_limit_from_environment(self, d, monkeypatch):
        monkeypatch.setenv("KGRAPH_MAX_VERTICES", "1")
        with pytest.raises(LimitExceededError):
            enumerate_sat_her(d)
        monkeypatch.setenv("KGRAPH_MAX_VERTICES", "junk")
        with pytest.raises(LimitExceededError):
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

    def test_oracle_agreement(self, t2, f, d, d2):
        assert cofinality_oracle(t2, 2)
        assert cofinality_oracle(f, 2)
        assert not cofinality_oracle(d, 2)
        assert not cofinality_oracle(d2, 2)

    def test_oracle_on_corpus(self):
        for g in corpus(6):
            assert cofinality_oracle(g, 2) == is_cofinal(g).cofinal


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

    def test_full_set_refused(self, t2):
        with pytest.raises(ContractViolationError):
            quotient(t2, fs("v"))

    def test_non_hereditary_refused(self, d2):
        with pytest.raises(ContractViolationError):
            quotient(d2, fs("w"))

    def test_quotient_revalidates(self, d):
        # the result is a fully built graph, so its paths factor correctly
        q = quotient(d, fs("u"))
        lam = q.path("w", ["bw", "rw"])
        assert lam.degree == Degree((1, 1))


class TestCoreDimensions:
    def test_t2(self, t2):
        assert core_dimensions(t2, Degree((2, 3))) == {"v": 1}

    def test_f(self, f):
        assert core_dimensions(f, Degree((2, 1))) == {"v": 8}

    def test_d2_counts_connectors(self, d2):
        assert core_dimensions(d2, Degree((1, 0))) == {"u": 3, "w": 1}
        assert core_dimensions(d2, Degree((0, 1))) == {"u": 3, "w": 1}

    def test_zero_degree(self, d2):
        assert core_dimensions(d2, Degree((0, 0))) == {"u": 1, "w": 1}
