import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraph import (
    Edge,
    KGraph,
    Skeleton,
    SquareTable,
    compose,
    factor,
    fixture_parts,
    leq,
    segment,
    zero,
)
from kgraph.errors import CompositionError, DegreeError, ValidationError
from kgraph.factorization import validate_cubes, validate_squares

from generators import corpus, exchanged_tables, k2_products, k3_products, wide_graph
from oracles import (
    degrees_up_to,
    iter_paths,
    matmul,
    matrix_power,
    normalize_by_schedule,
    paths_from_by_levels,
    validate_cubes_all_orders,
    validate_squares_reference,
    vertex_matrices,
)


def test_build_refuses_invalid_squares():
    skel, _ = fixture_parts("T2")
    with pytest.raises(ValidationError):
        KGraph(skel, SquareTable([]))  # missing the only square


def test_unknown_fixture_name():
    with pytest.raises(KeyError, match="unknown fixture 'T3'"):
        fixture_parts("T3")


def test_build_refuses_non_bijective_table():
    skel, _ = fixture_parts("F")
    squares = SquareTable(
        [
            (("b0", "r0"), ("r0", "b1")),
            (("b0", "r1"), ("r1", "b1")),
            (("b1", "r0"), ("r0", "b1")),  # image repeated
            (("b1", "r1"), ("r1", "b0")),
        ]
    )
    with pytest.raises(ValidationError):
        KGraph(skel, squares)


def test_missing_square_named(t2):
    report = validate_squares(t2.skeleton, SquareTable([]))
    assert report.violations == [
        "colors (1,2): composable pair ('b', 'r') has no square (first of 1)",
        "colors (1,2): composable pair ('r', 'b') is not the image of any square (first of 1)",
    ]


@pytest.mark.parametrize("k", [50, 200])
def test_missing_squares_reported_once_per_kind(k):
    # One loop per color and no squares: every color pair misses one
    # square, yet the report has one line per kind of violation.
    skel = Skeleton(k, ["v"], [Edge(f"l{c}", c, "v", "v") for c in range(1, k + 1)])
    assert skel.validate().ok
    report = validate_squares(skel, SquareTable([]))
    pairs = k * (k - 1) // 2
    assert report.violations == [
        f"colors (1,2): composable pair ('l1', 'l2') has no square (first of {pairs})",
        f"colors (1,2): composable pair ('l2', 'l1') is not the image of any square (first of {pairs})",
    ]


# Each case drops the squares of some pairs from a fixture's table and adds
# others; the report lists every violation, sorted.  The junk-image case
# pins that an image which is not a composable pair needs no check of its
# own: the per-square checks and the missing image name it.
SQUARE_VIOLATIONS = {
    "duplicated-pair": (
        "F",
        [],
        [(("b0", "r0"), ("r1", "b0"))],
        [
            "square ('b0', 'r0'): pair listed more than once",
            "square image ('r1', 'b0'): hit by more than one pair",
        ],
    ),
    "unknown-id": (
        "T2",
        [("b", "r")],
        [(("b", "x"), ("r", "b"))],
        [
            "colors (1,2): composable pair ('b', 'r') has no square (first of 1)",
            "square ('b', 'x'): unknown edge id(s) ['x']",
        ],
    ),
    "descending-pair": (
        "T2",
        [],
        [(("r", "b"), ("b", "r"))],
        ["square ('r', 'b'): pair colors (2,1) not ascending"],
    ),
    "pair-not-composable": (
        "D2",
        [("bw", "cr")],
        [(("bw", "ru0"), ("rw", "cb"))],
        [
            "colors (1,2): composable pair ('bw', 'cr') has no square (first of 1)",
            "square ('bw', 'ru0'): pair not composable (s(bw)=w, r(ru0)=u)",
        ],
    ),
    "image-colors": (
        "F",
        [("b0", "r0")],
        [(("b0", "r0"), ("r0", "r1"))],
        [
            "colors (1,2): composable pair ('r0', 'b1') is not the image of any square (first of 1)",
            "square ('b0', 'r0'): image colors (2,2) do not mirror (2,1)",
        ],
    ),
    "junk-image": (
        "T2",
        [("b", "r")],
        [(("b", "r"), ("q", "q"))],
        [
            "colors (1,2): composable pair ('r', 'b') is not the image of any square (first of 1)",
            "square ('b', 'r'): unknown edge id(s) ['q', 'q']",
        ],
    ),
    "image-not-composable": (
        "D2",
        [("bw", "rw")],
        [(("bw", "rw"), ("rw", "bu0"))],
        [
            "colors (1,2): composable pair ('rw', 'bw') is not the image of any square (first of 1)",
            "square ('bw', 'rw'): image not composable",
            "square ('bw', 'rw'): image source 'u' != pair source 'w'",
        ],
    ),
    "image-range": (
        "D2",
        [("cb", "ru0")],
        [(("cb", "ru0"), ("ru0", "bu0"))],
        [
            "colors (1,2): composable pair ('cr', 'bu0') is not the image of any square (first of 1)",
            "square ('cb', 'ru0'): image range 'u' != pair range 'w'",
            "square image ('ru0', 'bu0'): hit by more than one pair",
        ],
    ),
    "image-source": (
        "D2",
        [("bw", "cr")],
        [(("bw", "cr"), ("rw", "bw"))],
        [
            "colors (1,2): composable pair ('rw', 'cb') is not the image of any square (first of 1)",
            "square ('bw', 'cr'): image source 'w' != pair source 'u'",
            "square image ('rw', 'bw'): hit by more than one pair",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(SQUARE_VIOLATIONS))
def test_square_violations_named(case):
    name, dropped, added, expected = SQUARE_VIOLATIONS[case]
    skel, table = fixture_parts(name)
    assert skel.validate().ok
    entries = [e for e in table.entries if e[0] not in dropped] + added
    assert validate_squares(skel, SquareTable(entries)).violations == expected


def test_vertex_and_edge_paths(t2):
    v = t2.vertex_path("v")
    assert v.degree == zero(2)
    assert v.is_vertex()
    b = t2.path("v", ["b"])
    assert b.degree == (1, 0)
    assert b.range_vertex == b.source_vertex == "v"


def test_compose_normalizes_to_color_order(t2):
    b, r = t2.path("v", ["b"]), t2.path("v", ["r"])
    br = compose(b, r)
    rb = compose(r, b)
    assert br == rb
    assert br.edges == ("b", "r")


def test_compose_requires_matching_endpoints(d):
    bu, bw = d.path("u", ["bu"]), d.path("w", ["bw"])
    with pytest.raises(CompositionError):
        compose(bu, bw)
    with pytest.raises(CompositionError, match="has range 'w', expected 'u'"):
        d.path("u", ["bw"])


def test_compose_requires_one_graph(t2, f):
    # both graphs have a vertex v, so only the graph check tells them apart
    with pytest.raises(CompositionError, match="different graphs"):
        compose(t2.path("v", ["b"]), f.path("v", ["b0"]))


def test_factor_flip_square(f):
    lam = compose(f.path("v", ["b0"]), f.path("v", ["r0"]))
    head, tail = factor(lam, (0, 1))
    assert head.edges == ("r0",)
    assert tail.edges == ("b1",)


def test_factor_identity_prefixes(f):
    lam = compose(f.path("v", ["b0"]), f.path("v", ["b1"]))
    head, tail = factor(lam, (0, 0))
    assert head.is_vertex() and tail == lam
    head, tail = factor(lam, lam.degree)
    assert head == lam and tail.is_vertex()


def test_segment_t2(t2):
    lam = compose(t2.path("v", ["b"]), t2.path("v", ["r"]))
    seg = segment(lam, (1, 0), (1, 1))
    assert seg.edges == ("r",)


def test_paths_from_t2_unique(t2):
    found = tuple(t2.paths_from("v", (1, 1)))
    assert len(found) == 1
    assert found[0].edges == ("b", "r")


def test_paths_from_walks_in_level_order():
    box = {1: (6,), 2: (3, 3), 3: (2, 2, 2)}
    graphs = [KGraph(*fixture_parts(n)) for n in ("T2", "F", "D", "D2")] + corpus(40) + k3_products(4)
    checked = 0
    for g in graphs:
        for n in degrees_up_to(box[g.k]):
            for v in g.vertices:
                assert tuple(g.paths_from(v, n)) == paths_from_by_levels(g, v, n)
                checked += 1
    assert checked > 1_800


def _graph_corpus():
    graphs = [KGraph(*fixture_parts(n)) for n in ("T2", "F", "D", "D2")]
    graphs += corpus(8)
    return graphs


def test_factor_compose_round_trip_everywhere():
    for g in _graph_corpus():
        top = (2,) * g.k
        for v in g.vertices:
            for lam in iter_paths(g, v, top):
                for m in degrees_up_to(lam.degree):
                    head, tail = factor(lam, m)
                    assert head.degree == m
                    assert compose(head, tail) == lam


def test_three_segment_identity(f, d2):
    for g in (f, d2, *k3_products(3)):
        l = (2, 2) + (1,) * (g.k - 2)
        for v in g.vertices:
            for lam in iter_paths(g, v, l):
                for m in degrees_up_to(l):
                    for n in degrees_up_to(l):
                        if not leq(m, n):
                            continue
                        first = segment(lam, zero(g.k), m)
                        mid = segment(lam, m, n)
                        last = segment(lam, n, l)
                        assert compose(compose(first, mid), last) == lam


def test_counting_identity_matrices_vs_enumeration():
    for g in _graph_corpus():
        mats = vertex_matrices(g.skeleton)
        index = {v: i for i, v in enumerate(g.vertices)}
        for n in degrees_up_to((2,) * g.k):
            prod_matrix = None
            for color, m in enumerate(mats, start=1):
                p = matrix_power(m, n[color - 1])
                prod_matrix = p if prod_matrix is None else matmul(prod_matrix, p)
            for v in g.vertices:
                expected = sum(prod_matrix[index[v]])
                assert len(tuple(g.paths_from(v, n))) == expected


def _descending_form(g, lam):
    """Edge list of lam rearranged into descending color blocks."""
    parts = []
    rest = lam
    for color in range(g.k, 0, -1):
        block_degree = tuple(rest.degree[c] if c == color - 1 else 0 for c in range(g.k))
        block, rest = factor(rest, block_degree)
        parts.extend(block.edges)
    return tuple(parts)


def test_normalization_idempotent_and_schedule_independent():
    for g in _graph_corpus() + k3_products(6):
        for v in g.vertices:
            for lam in iter_paths(g, v, (2,) * g.k):
                again = g.path(lam.range_vertex, lam.edges)
                assert again == lam
                scrambled = _descending_form(g, lam)
                fwd = normalize_by_schedule(g, scrambled, min)
                rev = normalize_by_schedule(g, scrambled, max)
                assert fwd == rev == lam.edges


SQUARE_GRAPHS = [KGraph(*fixture_parts(n)) for n in ("T2", "F", "D", "D2")] + k2_products(4) + k3_products(4)
SQUARE_GRAPHS += [wide_graph()] + [g for g in corpus(30) if g.k > 1]
SQUARE_EDITS = ["drop", "duplicate", "exchange images", "reverse", "unknown id", "other color", "other end", "parallel edge"]


@st.composite
def edited_tables(draw):
    """A generated graph's skeleton and square table after up to three edits.

    An edit drops, duplicates or reverses one entry, exchanges the images
    of two, or puts in one of an entry's four places an unknown id, an
    edge of another color, or an edge of the same color that differs in
    one endpoint.  A parallel edge, added to the skeleton with no square,
    can leave the pairs counted one way and not the other.
    """
    g = draw(st.sampled_from(SQUARE_GRAPHS))
    edges, entries = dict(g.skeleton.edges), list(g.squares.entries)
    for n in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(SQUARE_EDITS))
        if how == "parallel edge":
            e = edges[draw(st.sampled_from(sorted(edges)))]
            edges[f"new{n}"] = Edge(f"new{n}", e.color, e.range, e.source)
            continue
        if not entries:
            continue
        i = draw(st.integers(0, len(entries) - 1))
        pair, image = entries[i]
        if how == "drop":
            del entries[i]
        elif how == "duplicate":
            entries.insert(draw(st.integers(0, len(entries))), entries[i])
        elif how == "exchange images":
            j = draw(st.integers(0, len(entries) - 1))
            entries[i], entries[j] = (pair, entries[j][1]), (entries[j][0], image)
        elif how == "reverse":
            entries[i] = (image, pair)
        else:
            ends = list(pair + image)
            place = draw(st.integers(0, 3))
            old = edges.get(ends[place])
            others = [
                eid for eid, e in sorted(edges.items())
                if old and (e.color != old.color if how == "other color"
                            else e.color == old.color and (e.range == old.range) != (e.source == old.source))
            ]
            ends[place] = draw(st.sampled_from(others)) if how != "unknown id" and others else "unknown"
            entries[i] = (tuple(ends[:2]), tuple(ends[2:]))
    skel = Skeleton(g.k, g.vertices, edges.values())
    assert skel.validate().ok
    return skel, SquareTable(entries)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(edited_tables())
def test_square_check_matches_the_reference_on_edited_tables(case):
    skel, table = case
    assert validate_squares(skel, table).violations == validate_squares_reference(skel, table).violations


def test_k3_products_have_non_trivial_cubes():
    # Exchanging the images of two squares in one block keeps a valid
    # square table but breaks some cube, so the cubes constrain the table.
    for g in k3_products(6):
        broken = False
        for table in exchanged_tables(g):
            assert validate_squares(g.skeleton, table).ok
            broken = broken or not validate_cubes(g.skeleton, table).ok
        assert broken


def test_ascending_cube_check_matches_all_orders():
    # One color order per cube decides the same as all six, on valid
    # tables and on tables with one exchanged pair of square images.
    outcomes = []
    for g in k3_products(6):
        for table in (g.squares, *exchanged_tables(g)):
            assert validate_squares(g.skeleton, table).ok
            ok = validate_cubes(g.skeleton, table).ok
            assert ok == validate_cubes_all_orders(g.skeleton, table).ok
            outcomes.append(ok)
    assert set(outcomes) == {True, False}


def test_unique_factorization_exhaustive(f):
    # no two distinct canonical (head, tail) pairs of fixed degrees compose
    # to the same path
    l = (2, 1)
    m = (1, 1)
    rest = (1, 0)
    seen = {}
    for head in iter_paths(f, "v", m):
        for tail in iter_paths(f, head.source_vertex, rest):
            whole = compose(head, tail)
            key = whole.edges
            assert key not in seen, "two factorizations hit the same path"
            seen[key] = (head, tail)
    assert len(seen) == len(list(iter_paths(f, "v", l)))


def test_plain_tuple_degrees_checked_at_entry(f):
    lam = next(f.paths_from("v", (1, 1)))
    with pytest.raises(DegreeError):
        f.paths_from("v", (0, -1))
    with pytest.raises(DegreeError):
        factor(lam, (-1, 1))
    with pytest.raises(DegreeError, match="exceeds path degree"):
        factor(lam, (2, 0))
    with pytest.raises(DegreeError, match="segment needs m <= n"):
        segment(lam, (1, 0), (0, 0))
    with pytest.raises(DegreeError):
        f.paths_from("v", (1,))
    with pytest.raises(DegreeError):
        f.paths_from("v", (1.0, 0))  # would leak 1.0 into the JSON of its paths
    with pytest.raises(DegreeError):
        f.paths_from("v", (2**31, 0))  # past MAX_ENTRY; the walk would build a 2**31-entry word
