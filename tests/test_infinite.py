"""Eventually periodic paths: representation and samples, then exact equality.

Minimization, composition and equality are the general oracles in
`oracles.py`; the library compares infinite paths only inside
`verify_annihilation`.
"""

import pytest

from kgraph import ContractViolationError
from kgraph.analysis import EventuallyPeriodicPath, ep_samples

from oracles import ep_compose, ep_equal, ep_samples_unique, minimized, path_key


def ep(g, vertex, prefix_edges, loop_edges):
    rho = g.path(vertex, prefix_edges)
    gam = g.path(rho.source_vertex, loop_edges)
    return EventuallyPeriodicPath(rho, gam)


class TestConstruction:
    def test_loop_must_have_full_support(self, f):
        rho = f.path("v", ())
        with pytest.raises(ContractViolationError, match="must be >= 1 in every coordinate"):
            EventuallyPeriodicPath(rho, f.path("v", ["b0"]))
        with pytest.raises(ContractViolationError, match="must be >= 1 in every coordinate"):
            EventuallyPeriodicPath(rho, f.path("v", ["r0", "r1"]))

    def test_loop_must_be_a_cycle(self, d2):
        rho = d2.path("w", ())
        # the connector leaves w for u and u never leads back
        not_loop = d2.path("w", ["cb", "ru0"])
        assert not_loop.source_vertex != not_loop.range_vertex
        with pytest.raises(ContractViolationError, match="loop must start and end at the same vertex"):
            EventuallyPeriodicPath(rho, not_loop)

    def test_loop_must_sit_at_prefix_source(self, d):
        rho = d.path("u", ())
        gam = d.path("w", ["bw", "rw"])
        with pytest.raises(ContractViolationError, match="loop must sit at the prefix's source"):
            EventuallyPeriodicPath(rho, gam)

    def test_cross_graph_mix_rejected(self, t2, f):
        rho = t2.path("v", ())
        gam = f.path("v", ["b0", "r0"])
        with pytest.raises(ContractViolationError, match="prefix and loop belong to different graphs"):
            EventuallyPeriodicPath(rho, gam)


class TestMinimized:
    def test_peels_whole_loop_copies(self, f):
        x = ep(f, "v", ["b0", "r0"], ["b0", "r0"])
        m = minimized(x)
        assert m.prefix == f.path("v", ())
        assert m.loop == x.loop

    def test_keeps_genuinely_different_prefix(self, f):
        x = ep(f, "v", ["b1", "r0"], ["b0", "r0"])
        m = minimized(x)
        assert (m.prefix, m.loop) == (x.prefix, x.loop)

    def test_same_infinite_path(self, f):
        x = ep(f, "v", ["b0", "r0", "b0", "r0"], ["b0", "r0"])
        assert ep_equal(x, minimized(x))


class TestEquality:
    def test_unrolled_loop_same_path(self, f):
        one = ep(f, "v", [], ["b0", "r0"])
        two = ep(f, "v", [], ["b0", "r0", "b0", "r0"])
        assert (one.prefix, one.loop) != (two.prefix, two.loop)  # different representations
        assert ep_equal(one, two)
        assert ep_equal(two, one)

    def test_prefix_rotation_same_path(self, t2):
        x = ep(t2, "v", [], ["b", "r"])
        y = ep(t2, "v", ["b"], ["b", "r"])
        assert ep_equal(x, y)

    def test_different_first_block(self, f):
        x = ep(f, "v", [], ["b0", "r0"])
        z = ep(f, "v", [], ["b1", "r0"])
        assert not ep_equal(x, z)

    def test_difference_past_the_prefix_join(self, f):
        x = ep(f, "v", ["b0"], ["b0", "r0"])
        y = ep(f, "v", ["b0"], ["b1", "r0"])
        assert not ep_equal(x, y)

    def test_different_range_vertex(self, d):
        x = ep(d, "u", [], ["bu", "ru"])
        y = ep(d, "w", [], ["bw", "rw"])
        assert not ep_equal(x, y)

    def test_different_graphs(self, t2, f):
        x = ep(t2, "v", [], ["b", "r"])
        y = ep(f, "v", [], ["b0", "r0"])
        assert not ep_equal(x, y)

    def test_shared_cycle_cache(self, f):
        cache = {}
        one = ep(f, "v", [], ["b0", "r0"])
        two = ep(f, "v", [], ["b0", "r0", "b0", "r0"])
        assert ep_equal(one, two, cache)
        assert cache
        before = dict(cache)
        assert ep_equal(one, two, cache)
        assert cache == before


class TestCompose:
    def test_prepends_to_prefix(self, f):
        x = ep(f, "v", [], ["b0", "r0"])
        mu = f.path("v", ["b1"])
        y = ep_compose(mu, x)
        assert y.prefix == mu
        assert y.loop == x.loop

    def test_source_must_match_range(self, d):
        x = ep(d, "w", [], ["bw", "rw"])
        mu = d.path("u", ["bu"])
        with pytest.raises(ContractViolationError, match="cannot compose: s='u' vs r='w'"):
            ep_compose(mu, x)


class TestSampling:
    def test_t2_counts(self, t2):
        assert len(list(ep_samples(t2, "v", 1, 1))) == 4
        # dedup is by minimized representation; only the (1,1) prefix peels
        unique = list(ep_samples_unique(t2, "v", 1, 1))
        assert len(unique) == 3
        # yet all of them denote the one infinite path T2 has
        for x in unique[1:]:
            assert ep_equal(unique[0], x)

    def test_f_loops_at_depth_one(self, f):
        xs = list(ep_samples(f, "v", 0, 1))
        assert len(xs) == 4
        reps = [(x.prefix, x.loop) for x in xs]
        assert len({path_key(*r) for r in reps}) == 4
        assert [(x.prefix, x.loop) for x in ep_samples_unique(f, "v", 0, 1)] == reps

    @pytest.mark.parametrize(
        "prefix_bound, loop_bound",
        [(-1, 1), (0, 0), (True, 1), (0, True), ("a", 1), (0, 1.5)],
    )
    def test_unusable_bound_refused(self, f, prefix_bound, loop_bound):
        with pytest.raises(ContractViolationError, match="bound"):
            list(ep_samples(f, "v", prefix_bound, loop_bound))

    def test_all_loops_have_full_support(self, d2):
        for x in ep_samples(d2, "u", 1, 1):
            assert all(c >= 1 for c in x.loop.degree)

    def test_unknown_vertex_rejected(self, t2):
        with pytest.raises(ContractViolationError):
            list(ep_samples(t2, "nope", 1, 1))
