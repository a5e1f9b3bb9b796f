import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraph import Edge, KGraph, Skeleton, SquareTable, canonical_json
from kgraph.errors import ContractViolationError, ValidationError

from generators import corpus, k2_products, k3_products
from oracles import dump_graph_document, matmul, vertex_matrices


def _loops(k, v="v"):
    return [Edge(f"e{c}", c, v, v) for c in range(1, k + 1)]


def test_valid_skeleton_passes():
    skel = Skeleton(2, ["v"], _loops(2))
    report = skel.validate()
    assert report.ok


def test_duplicate_edge_id_rejected_at_construction():
    with pytest.raises(ContractViolationError, match="^duplicate edge id 'e'$"):
        Skeleton(1, ["v"], [Edge("e", 1, "v", "v"), Edge("e", 1, "v", "v")])
    # A repeated vertex id is refused too, as the parser refuses it, not kept once.
    with pytest.raises(ContractViolationError, match="^duplicate vertex id 'a'$"):
        Skeleton(1, ["a", "a"], [Edge("e", 1, "a", "a")])


class Name(str):
    pass


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["v", 1], [Edge("e", 1, "v", "v")], "vertex id 1 is not a string"),
        (["v", Name("w")], [Edge("e", 1, "v", "v")], "vertex id 'w' is not a string"),
        (["v"], [Edge(2, 1, "v", "v")], "edge id 2 is not a string"),
        # Read as its characters, "ab" would make the vertices ('a', 'b').
        ("ab", [Edge("e", 1, "a", "b")], "vertices 'ab' is a string, not a collection of vertex ids"),
        # An endpoint names a vertex; a list one would fail to index by range.
        (["v"], [Edge("e", 1, ["v"], "v")], "edge 'e': range ['v'] is not a string"),
        (["v"], [Edge("e", 1, "v", ["v"])], "edge 'e': source ['v'] is not a string"),
        (["v"], [Edge("e", 1, 5, "v")], "edge 'e': range 5 is not a string"),
        (["v"], [Edge("e", 1, "v", Name("v"))], "edge 'e': source 'v' is not a string"),
        (["v"], [Edge("e", [1], "v", "v")], "edge 'e': color [1] cannot be hashed"),
    ],
)
def test_id_that_is_not_exactly_a_string_rejected_at_construction(vertices, edges, message):
    # Edges are kept in id order, so an id that does not sort with strings is
    # refused by name rather than by a TypeError from sorting, or let through.
    with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
        Skeleton(1, vertices, edges)


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
        KGraph(skel, SquareTable([]))


def test_bool_color_is_a_violation():
    skel = Skeleton(1, ["v"], [Edge("e", True, "v", "v")])
    assert skel.validate().violations == ["edge 'e': color True is not an integer"]
    with pytest.raises(ValidationError):
        KGraph(skel, SquareTable([]))


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
    assert list(skel.edges) == ["a", "z"]
    assert skel.by_range == {("v", 1): ("a", "z")}


PERMUTED = corpus(20) + k2_products(2) + k3_products(2)


@st.composite
def permuted_edges(draw):
    """A generated graph and its edges in any order, up to two of them dropped."""
    g = draw(st.sampled_from(PERMUTED))
    edges = draw(st.permutations(list(g.skeleton.edges.values())))
    return g, edges[draw(st.integers(0, 2)):]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(permuted_edges())
def test_edge_order_does_not_depend_on_the_input_order(case):
    g, edges = case
    skel = Skeleton(g.k, g.vertices, edges)
    ref = Skeleton(g.k, g.vertices, sorted(edges, key=lambda e: e.id))
    assert list(skel.edges) == sorted(e.id for e in edges)
    index = {}
    for e in sorted(edges, key=lambda e: e.id):
        index[e.range, e.color] = index.get((e.range, e.color), ()) + (e.id,)
    assert skel.by_range == ref.by_range == index
    assert skel.validate().to_json() == ref.validate().to_json()
    dumped = canonical_json(dump_graph_document(skel, g.squares))
    assert dumped == canonical_json(dump_graph_document(ref, g.squares))
    if len(edges) == len(g.skeleton.edges):
        assert skel.validate().ok
        assert dumped == canonical_json(dump_graph_document(g.skeleton, g.squares))


def test_vertex_matrices_require_validation():
    # Color 3 has no matrix in rank 2: the skeleton is refused, not indexed.
    with pytest.raises(ContractViolationError):
        vertex_matrices(Skeleton(2, ["v"], _loops(2) + [Edge("e3", 3, "v", "v")]))
    m1, m2 = vertex_matrices(Skeleton(2, ["v"], _loops(2)))
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
