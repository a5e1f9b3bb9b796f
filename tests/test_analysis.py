"""Representation spot checks, simplicity verdicts, gauge invariance."""

import sys
from itertools import islice, product

import pytest
from generators import corpus, k2_products, k3_products
from oracles import annihilates, ep_equal, rep_apply, rep_apply_adjoint

from kgraph import (
    ContractViolationError,
    KGraph,
    all_ideals_gauge_invariant,
    analyze,
    fixture_parts,
    is_cofinal,
    is_simple,
    local_periodicity_at,
    scan_aperiodicity,
)
from kgraph.analysis import EventuallyPeriodicPath, RepElement, ep_samples, sample_family, verify_annihilation


def ep(g, vertex, prefix_edges, loop_edges):
    rho = g.path(vertex, prefix_edges)
    gam = g.path(rho.source_vertex, loop_edges)
    return EventuallyPeriodicPath(rho, gam)


class TestRepElement:
    def test_from_tuple(self, t2):
        tup = local_periodicity_at(t2, "v", (1, 0), (0, 1))
        elem = RepElement.from_tuple(tup)
        assert elem.mu_alpha == tup.mu_alpha
        assert elem.nu_alpha == tup.nu_alpha
        assert elem.mu_alpha.degree != elem.nu_alpha.degree

    def test_equal_degrees_refused(self, f):
        with pytest.raises(ContractViolationError):
            RepElement(f.path("v", ["b0"]), f.path("v", ["b1"]))

    def test_source_mismatch_refused(self, d2):
        # cb ends at u, bw ends at w
        with pytest.raises(ContractViolationError):
            RepElement(d2.path("w", ["cb"]), d2.path("w", ["bw", "rw"]))

    def test_paths_from_different_graphs_refused(self, t2, f):
        with pytest.raises(ContractViolationError, match="different graphs"):
            RepElement(t2.path("v", ["b"]), f.path("v", ["b0", "r0"]))


class TestAction:
    def test_apply_prepends(self, f):
        x = ep(f, "v", [], ["b0", "r0"])
        eta = f.path("v", ["b1"])
        y = rep_apply(f, eta, x)
        assert y is not None
        assert y.prefix == eta

    def test_apply_off_domain_is_zero(self, d):
        x = ep(d, "w", [], ["bw", "rw"])
        eta = d.path("u", ["bu"])  # source u, x sits at w
        assert rep_apply(d, eta, x) is None

    def test_adjoint_strips_prefix(self, f):
        eta = f.path("v", ["b0", "r0"])
        x = ep(f, "v", ["b0", "r0"], ["b1", "r1"])
        y = rep_apply_adjoint(f, eta, x)
        assert y is not None
        assert ep_equal(rep_apply(f, eta, y), x)

    def test_adjoint_wrong_prefix_is_zero(self, f):
        eta = f.path("v", ["b0"])
        x = ep(f, "v", ["b1"], ["b0", "r0"])
        assert rep_apply_adjoint(f, eta, x) is None

    def test_adjoint_wrong_range_is_zero(self, d):
        eta = d.path("u", ["bu"])
        x = ep(d, "w", [], ["bw", "rw"])
        assert rep_apply_adjoint(d, eta, x) is None

    def test_foreign_path_rejected(self, t2, f):
        x = ep(t2, "v", [], ["b", "r"])
        with pytest.raises(ContractViolationError):
            rep_apply(t2, f.path("v", ["b0"]), x)
        with pytest.raises(ContractViolationError):
            rep_apply_adjoint(t2, f.path("v", ["b0"]), x)


class TestAnnihilation:
    def test_genuine_tuple_annihilates(self, t2):
        tup = local_periodicity_at(t2, "v", (1, 0), (0, 1))
        elem = RepElement.from_tuple(tup)
        assert verify_annihilation(t2, elem, ep_samples(t2, "v", 2, 2))

    def test_fabricated_pair_caught(self, f):
        fake = RepElement(f.path("v", ["b0"]), f.path("v", ["b0", "r0"]))
        assert not verify_annihilation(f, fake, ep_samples(f, "v", 1, 1))

    def test_zero_branch_counts_as_annihilated(self, d2):
        # x sits at u, the element at w: the adjoint hits zero immediately
        elem = RepElement(d2.path("w", ["bw", "rw"]), d2.path("w", ["bw"]))
        x = ep(d2, "u", [], ["bu0", "ru0"])
        assert annihilates(d2, elem, x)

    def test_vacuous_on_empty_samples(self, t2):
        tup = local_periodicity_at(t2, "v", (1, 0), (0, 1))
        assert verify_annihilation(t2, RepElement.from_tuple(tup), [])

    def test_only_the_loop_block_separates(self, f):
        # x = (b0.r0)^inf starts with the vertex v, so rest = v and the two
        # sides agree up to d(mu.alpha) v d(nu.alpha) = (0, 1): both start
        # r0.  They part in the next d(gamma) = (1, 1) block.
        elem = RepElement(f.path("v", ()), f.path("v", ["r0"]))
        x = ep(f, "v", [], ["b0", "r0"])
        assert not annihilates(f, elem, x)
        assert not verify_annihilation(f, elem, [x])

    def test_foreign_element_refused(self, t2, f):
        elem = RepElement(f.path("v", ()), f.path("v", ["r0"]))
        for samples in ([], ep_samples(t2, "v", 1, 1)):
            with pytest.raises(ContractViolationError, match="different graph"):
                verify_annihilation(t2, elem, samples)

    def test_foreign_sample_refused(self, f):
        # A copy of F has the same vertex names, so its samples pass the
        # range test; only the graph check tells them apart.
        elem = RepElement(f.path("v", ()), f.path("v", ["r0"]))
        assert not verify_annihilation(f, elem, sample_family(f, 1))
        copy = KGraph(*fixture_parts("F"))
        with pytest.raises(ContractViolationError, match="different graph"):
            verify_annihilation(f, elem, sample_family(copy, 1))

    @pytest.mark.parametrize("depth", [0, -3, True, "a", 1.5])
    def test_unusable_depth_refused(self, f, depth):
        # Depth 0 or below would yield no sample, and the audit would pass
        # an element that sample_family(f, 1) refutes.
        elem = RepElement(f.path("v", ()), f.path("v", ["r0"]))
        assert not verify_annihilation(f, elem, sample_family(f, 1))
        with pytest.raises(ContractViolationError, match="bound"):
            verify_annihilation(f, elem, sample_family(f, depth))

    @pytest.mark.parametrize("sample", ["x", None])
    def test_sample_that_is_not_an_eventually_periodic_path_refused(self, f, sample):
        elem = RepElement(f.path("v", ()), f.path("v", ["r0"]))
        with pytest.raises(ContractViolationError, match="is not an EventuallyPeriodicPath"):
            verify_annihilation(f, elem, [sample])

    def test_sample_family_covers_all_vertices(self, d):
        xs = list(sample_family(d, 1))
        assert len(xs) == 8
        assert {x.prefix.range_vertex for x in xs} == {"u", "w"}


class TestSimplicity:
    def test_t2_locally_periodic(self, t2):
        v = is_simple(t2)
        assert not v.simple
        assert v.cofinality.cofinal and v.scan.periodic
        assert v.bound == 2
        assert v.text() == "Not simple: locally periodic at v for m=[2, 2], n=[0, 0]"
        data = v.to_json()
        assert data["verdict"] == "not_simple"
        assert data["reason"] == "locally_periodic"
        assert data["bound"] == 2
        assert data["periodic"]["tuple"]["vertex"] == "v"
        assert "not_cofinal" not in data

    def test_d_not_cofinal(self, d):
        v = is_simple(d)
        assert not v.simple
        assert not v.cofinality.cofinal
        assert v.scan is None  # not cofinal decides it; the scan is skipped
        assert v.text() == "Not simple: not cofinal, obstruction ['u']"
        data = v.to_json()
        assert data["verdict"] == "not_simple"
        assert data["reason"] == "not_cofinal"
        assert data["not_cofinal"] == ["u"]
        assert "periodic" not in data

    def test_f_simple_at_two(self, f):
        v = is_simple(f, 2)
        assert v.simple
        assert v.cofinality.cofinal and not v.scan.periodic
        assert v.text() == "Simple (up to bound 2)"
        data = v.to_json()
        assert data["verdict"] == "simple"
        assert data["reason"] is None
        assert data["bound"] == 2
        assert data["summary"] == "Simple (up to bound 2)"
        assert "periodic" not in data and "not_cofinal" not in data

    def test_bound_always_reported(self, t2, f):
        for verdict in (is_simple(t2, 1), is_simple(f, 1)):
            assert "bound" in verdict.to_json()


class TestGaugeInvariance:
    def test_d2_offender(self, d2):
        rep = all_ideals_gauge_invariant(d2, 2)
        assert not rep.all_invariant
        assert [sorted(h) for h, _ in rep.rows] == [[], ["u"]]
        h, hit = rep.offender
        assert sorted(h) == ["u"]
        assert hit.vertex == "w"
        assert (list(hit.m), list(hit.n)) == ([2, 2], [0, 0])
        data = rep.to_json()
        assert data["verdict"] == "not_all_gauge_invariant"
        assert data["bound"] == 2
        assert data["offender"]["H"] == ["u"]
        assert [row["verdict"] for row in data["table"]] == ["aperiodic", "periodic"]

    def test_d2_text(self, d2):
        rep = all_ideals_gauge_invariant(d2, 2)
        assert rep.text() == (
            "Gauge invariance fails at H=['u']: quotient locally periodic "
            "at w for m=[2, 2], n=[0, 0]"
        )

    def test_f_all_invariant(self, f):
        rep = all_ideals_gauge_invariant(f, 2)
        assert rep.all_invariant
        assert len(rep.rows) == 1  # only the empty set is proper here
        assert rep.text() == "All ideals gauge-invariant (up to bound 2)"
        assert rep.to_json()["verdict"] == "all_gauge_invariant"

    def test_d_fails_already_at_empty_set(self, d):
        rep = all_ideals_gauge_invariant(d, 2)
        assert sorted(rep.offender[0]) == []


class TestAnalyze:
    def test_report_shape(self, f):
        rep = analyze(f, bound=2)
        data = rep.to_json()
        assert set(data) == {
            "graph",
            "bound",
            "cofinality",
            "aperiodicity",
            "simplicity",
            "gauge_invariance",
            "timing",
        }
        assert data["graph"] is None
        assert data["bound"] == 2
        assert data["simplicity"]["verdict"] == "simple"
        assert data["timing"]["seconds"] >= 0

    def test_not_simple_graph(self, t2):
        data = analyze(t2, bound=1).to_json()
        assert data["simplicity"]["verdict"] == "not_simple"
        assert data["aperiodicity"]["verdict"] == "periodic"

    def test_graph_scanned_once(self, d2, monkeypatch):
        import kgraph.analysis as analysis

        calls = []

        def counted(g, *args, **kwargs):
            calls.append(g)
            return scan_aperiodicity(g, *args, **kwargs)

        monkeypatch.setattr(analysis, "scan_aperiodicity", counted)
        report = analyze(d2, bound=1)
        assert len(calls) == len(report.gauge.rows)
        assert report.scan is report.gauge.rows[0][1]


def test_analyze_verdict_matches_is_simple():
    # analyze hands the verdict g's scan even when g is not cofinal, where
    # is_simple skips the scan: the JSON must not tell the two apart.
    graphs = [KGraph(*fixture_parts(name)) for name in ("T2", "F", "D", "D2")] + corpus(40) + k2_products(3)
    unscanned = 0
    for g in graphs:
        for bound in (1, 2):
            verdict = analyze(g, bound).simplicity
            assert verdict.to_json() == is_simple(g, bound).to_json()
            unscanned += not verdict.cofinality.cofinal and verdict.scan.periodic
    assert unscanned > 0


def test_analyze_reads_cofinality_off_the_gauge_rows():
    # The least nonempty proper saturated hereditary set is is_cofinal's
    # certificate, the least terminal closure that is not all of V.
    graphs = [KGraph(*fixture_parts(name)) for name in ("T2", "F", "D", "D2")]
    graphs += corpus(200) + k2_products(3) + k3_products(2)
    not_cofinal = 0
    for g in graphs:
        ours, theirs = analyze(g, 1).simplicity.cofinality, is_cofinal(g)
        assert (type(ours), ours.to_json()) == (type(theirs), theirs.to_json())
        not_cofinal += not theirs.cofinal
    assert 0 < not_cofinal < len(graphs)


MAX_FABRICATED = 12
MAX_SAMPLES = 200


def _evenly(items, most):
    return items[:: max(1, len(items) // most)][:most]


def _elements(g):
    """(graph, element): the periodic tuples of analyze(g, 2), then fabricated ones.

    A fabricated element pairs two paths from one vertex, with the same
    source and different degrees, entries <= 1; some of them annihilate
    the samples and some do not.
    """
    tuples = [scan.tuple for _, scan in analyze(g, 2).gauge.rows if scan.periodic]
    out = [(t.mu.graph, RepElement.from_tuple(t)) for t in tuples]
    fabricated = []
    for v in g.vertices:
        by_source = {}
        for d in product(range(2), repeat=g.k):
            for lam in islice(g.paths_from(v, d), 2):
                by_source.setdefault(lam.source_vertex, []).append(lam)
        for paths in by_source.values():
            fabricated += [(g, RepElement(a, b)) for a in paths for b in paths if a.degree != b.degree]
    return out + _evenly(fabricated, MAX_FABRICATED)


def test_verify_annihilation_matches_the_oracle():
    # The finite comparison against the general one: ep_equal on the
    # oracle's generator action, per sample and per sample list.
    graphs = [KGraph(*fixture_parts(name)) for name in ("T2", "F", "D", "D2")]
    graphs += corpus(40) + k2_products(3) + k3_products(2)
    lists, samples = {True: 0, False: 0}, {True: 0, False: 0}
    for g in graphs:
        for h, elem in _elements(g):
            for depth in (1, 2):
                xs = _evenly(list(sample_family(h, depth)), MAX_SAMPLES)
                cache = {}
                verdicts = [annihilates(h, elem, x, cache) for x in xs]
                for x, want in zip(xs, verdicts):
                    assert verify_annihilation(h, elem, [x]) == want, (elem.mu_alpha, elem.nu_alpha, x)
                    samples[want] += 1
                want = all(verdicts)
                assert verify_annihilation(h, elem, xs) == want
                lists[want] += 1
    assert lists[True] > 500 and lists[False] > 100
    assert samples[True] > 10_000 and samples[False] > 1_000


def test_per_degree_plan_matches_the_oracle():
    # The audit works out loop counts and cut degrees once per
    # (d(rho), d(gamma)) in a call.  Each sample is audited last in a call
    # whose earlier samples annihilate: one with its d(rho) and another
    # d(gamma), one the other way round.  A plan keyed on part of the pair
    # is then read for the wrong sample.
    graphs = [KGraph(*fixture_parts(name)) for name in ("T2", "F", "D", "D2")]
    graphs += k2_products(2) + k3_products(1)
    shared = {"rho": 0, "gamma": 0}
    verdicts = {True: 0, False: 0}
    for g in graphs:
        for h, elem in _elements(g):
            xs = _evenly(list(sample_family(h, 2)), MAX_SAMPLES)
            cache = {}
            wants = [annihilates(h, elem, x, cache) for x in xs]
            assert verify_annihilation(h, elem, xs) == all(wants)
            primers = {}  # one annihilated sample per degree pair, at r(mu.alpha)
            for x, want in zip(xs, wants):
                if want and x.prefix.range_vertex == elem.mu_alpha.range_vertex:
                    primers.setdefault((x.prefix.degree, x.loop.degree), x)
            for x, want in zip(xs, wants):
                r, c = x.prefix.degree, x.loop.degree
                same_rho = [p for (pr, pc), p in primers.items() if pr == r and pc != c][:1]
                same_gamma = [p for (pr, pc), p in primers.items() if pr != r and pc == c][:1]
                shared["rho"] += len(same_rho)
                shared["gamma"] += len(same_gamma)
                got = verify_annihilation(h, elem, same_rho + same_gamma + [x])
                assert got == want, (elem.mu_alpha, elem.nu_alpha, x)
                verdicts[want] += 1
    assert shared["rho"] > 5_000 and shared["gamma"] > 5_000
    assert verdicts[True] > 5_000 and verdicts[False] > 1_000


def test_audit_cuts_each_sample_at_most_twice(monkeypatch):
    # A sample at another vertex is not cut, one that does not start with
    # mu.alpha is cut once, and any other twice at most; no Path is sliced
    # or composed.  Every sample of these periodic tuples at r(mu.alpha)
    # starts with mu.alpha, so the fabricated elements bring the others.
    graphs = [KGraph(*fixture_parts(name)) for name in ("T2", "F", "D", "D2")]
    graphs += corpus(40) + k2_products(3) + k3_products(2)
    audits = []
    for g in graphs:
        for h, elem in _elements(g):
            mu_alpha = elem.mu_alpha
            for x in sample_family(h, 1):
                if x.prefix.range_vertex != mu_alpha.range_vertex:
                    most = 0
                else:
                    most = 1 if rep_apply_adjoint(h, mu_alpha, x) is None else 2
                audits.append((h, elem, x, most))
    calls = {"_cut": 0, "_slice": 0, "compose": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("_cut", "_slice"):
        monkeypatch.setattr(KGraph, name, counted(name, getattr(KGraph, name)))
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "kgraph"]:
        if hasattr(module, "compose"):
            monkeypatch.setattr(module, "compose", counted("compose", module.compose))
    seen = {0: 0, 1: 0, 2: 0}
    for h, elem, x, most in audits:
        calls["_cut"] = 0
        verify_annihilation(h, elem, [x])
        assert calls["_cut"] <= most, (elem.mu_alpha, elem.nu_alpha, x)
        if most < 2:
            assert calls["_cut"] == most
        seen[most] += 1
    assert calls["_slice"] == calls["compose"] == 0
    assert min(seen.values()) > 500
