import pytest

from kgraph import Edge, KGraph, Skeleton, SquareTable
from kgraph.errors import ContractViolationError, ValidationError

from generators import corpus
from oracles import matmul, vertex_matrices


def _loops(k, v="v"):
    return [Edge(f"e{c}", c, v, v) for c in range(1, k + 1)]


def test_valid_skeleton_passes():
    skel = Skeleton(2, ["v"], _loops(2))
    report = skel.validate()
    assert report.ok
    skel.require_validated()


def test_duplicate_edge_id_rejected_at_construction():
    with pytest.raises(ValueError):
        Skeleton(1, ["v"], [Edge("e", 1, "v", "v"), Edge("e", 1, "v", "v")])


def test_validation_reports_every_problem():
    skel = Skeleton(
        2,
        ["v", "w"],
        [
            Edge("a", 0, "v", "v"),  # color out of range
            Edge("b", 1, "v", "x"),  # dangling source
            Edge("c", 2, "v", "v"),
        ],
    )
    report = skel.validate()
    assert not report.ok
    text = "\n".join(report.violations)
    assert "color" in text
    assert "source 'x'" in text
    # w has no outgoing edge of either color
    assert "vertex 'w': no outgoing color-1 edge" in report.violations
    assert "vertex 'w': no outgoing color-2 edge" in report.violations


def test_more_colors_than_edges_reported_once():
    # One message, not one per (vertex, color): the report stays bounded in k.
    report = Skeleton(100_000, ["v", "w"], _loops(2)).validate()
    assert not report.ok
    assert report.violations == ["rank: k = 100000 but 2 edge(s), so some color has none"]


@pytest.mark.parametrize("k", [1.7, True, "2"], ids=repr)
def test_rank_that_is_not_exactly_an_int_is_a_violation(k):
    # int() would read 1.7 and True as rank 1, and "2" as rank 2.
    skel = Skeleton(k, ["v"], [Edge("e", 1, "v", "v")])
    assert skel.validate().violations == [f"rank: expected an integer, got {k!r}"]
    with pytest.raises(ValidationError):
        KGraph.build(skel, SquareTable([]))


def test_bool_color_is_a_violation():
    skel = Skeleton(1, ["v"], [Edge("e", True, "v", "v")])
    assert skel.validate().violations == ["edge 'e': color True is not an integer"]
    with pytest.raises(ValidationError):
        KGraph.build(skel, SquareTable([]))


def test_empty_graph_is_invalid():
    report = Skeleton(1, [], []).validate()
    assert not report.ok
    assert any("no vertices" in v for v in report.violations)


def test_sinks_are_allowed():
    # w emits edges (range w) but nothing flows out of it source-side
    skel = Skeleton(
        1,
        ["v", "w"],
        [Edge("a", 1, "v", "v"), Edge("b", 1, "w", "v")],
    )
    assert skel.validate().ok


def test_indexes_sorted_and_consistent():
    skel = Skeleton(
        1,
        ["v"],
        [Edge("z", 1, "v", "v"), Edge("a", 1, "v", "v")],
    )
    assert skel.out_edges("v", 1) == ("a", "z")
    assert skel.out_edges("v", 9) == ()


def test_vertex_matrices_require_validation():
    skel = Skeleton(2, ["v"], _loops(2))
    with pytest.raises(ContractViolationError):
        vertex_matrices(skel)
    skel.validate()
    m1, m2 = vertex_matrices(skel)
    assert m1 == [[1]] and m2 == [[1]]


def test_matrix_counts_match_by_hand():
    skel = Skeleton(
        2,
        ["u", "w"],
        [
            Edge("a", 1, "u", "w"),
            Edge("b", 1, "u", "w"),
            Edge("c", 1, "w", "u"),
            Edge("d", 2, "u", "u"),
            Edge("e", 2, "w", "w"),
        ],
    )
    skel.validate()
    m1, m2 = vertex_matrices(skel)
    # vertex order is sorted: u, w
    assert m1 == [[0, 2], [1, 0]]
    assert m2 == [[1, 0], [0, 1]]


def test_random_corpus_matrices_commute():
    for g in corpus(15):
        mats = vertex_matrices(g.skeleton)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert matmul(mats[i], mats[j]) == matmul(mats[j], mats[i])
