"""JSON interchange: parsing with addressed problems, deterministic dumps."""

import copy
import enum
import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraph import (
    DocumentError,
    Edge,
    KGraph,
    Skeleton,
    SquareTable,
    ValidationError,
    canonical_json,
    enumerate_sat_her,
    fixture_parts,
    graph_from_json,
    load_graph_document,
    parse_graph_document,
    quotient,
)
from kgraph.documents import graph_document_text, scan_report_text
from kgraph.periodicity import AperiodicReport, AperiodicityWitness, scan_aperiodicity

from generators import corpus, disjoint_union, k2_products, k3_products, wide_graph
from oracles import canonical_json_reference, dump_graph_document, parse_graph_document_reference


def t2_doc():
    return {
        "k": 2,
        "vertices": ["v"],
        "edges": [
            {"id": "b", "color": 1, "range": "v", "source": "v"},
            {"id": "r", "color": 2, "range": "v", "source": "v"},
        ],
        "squares": [{"pair": ["b", "r"], "image": ["r", "b"]}],
    }


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
VERTEX = st.sampled_from(["u", "v", "w"])
EDGE_ID = st.sampled_from(["a", "b", "c", "d"])
ID_PAIRS = st.lists(EDGE_ID, min_size=2, max_size=2)
# Well-shaped documents, so that validation is reached and some pass it.
DOCUMENTS = st.fixed_dictionaries(
    {
        "k": st.integers(0, 2),
        "vertices": st.lists(VERTEX, min_size=1, max_size=2, unique=True),
        "edges": st.lists(
            st.fixed_dictionaries(
                {"id": EDGE_ID, "color": st.integers(0, 2), "range": VERTEX, "source": VERTEX}
            ),
            max_size=4,
            unique_by=lambda e: e["id"],
        ),
        "squares": st.lists(st.fixed_dictionaries({"pair": ID_PAIRS, "image": ID_PAIRS}), max_size=2),
    }
)
# The fixtures, valid, and with their first squares dropped, invalid.
FIXTURES = st.builds(
    lambda doc, drop: {**doc, "squares": doc["squares"][drop:]},
    st.sampled_from([dump_graph_document(*fixture_parts(n)) for n in ("T2", "F", "D", "D2")]),
    st.integers(0, 2),
)
# A well-shaped document with one field replaced by any JSON value.
ONE_FIELD_OFF = st.builds(
    lambda doc, key, value: {**doc, key: value},
    DOCUMENTS | FIXTURES,
    st.sampled_from(["k", "vertices", "edges", "squares"]),
    JSON_VALUES,
)


def problems_of(data):
    with pytest.raises(DocumentError) as info:
        parse_graph_document(data)
    return info.value.problems


class TestParse:
    def test_well_formed(self):
        skel, squares = parse_graph_document(t2_doc())
        assert skel.k == 2
        assert sorted(skel.edges) == ["b", "r"]
        assert squares.entries == ((("b", "r"), ("r", "b")),)

    def test_not_an_object(self):
        assert problems_of([1, 2]) == ["document: expected a JSON object, got list"]

    def test_missing_and_unknown_top_keys(self):
        doc = t2_doc()
        del doc["squares"]
        doc["extra"] = 1
        probs = problems_of(doc)
        assert "document: missing key 'squares'" in probs
        assert "document: unknown key 'extra'" in probs

    def test_bool_is_not_an_integer(self):
        doc = t2_doc()
        doc["k"] = True
        assert any(p.startswith("k: expected an integer") for p in problems_of(doc))
        doc = t2_doc()
        doc["edges"][0]["color"] = True
        assert any("edges[0].color" in p for p in problems_of(doc))

    def test_every_problem_reported_at_once(self):
        doc = t2_doc()
        doc["k"] = "two"
        doc["edges"][1]["color"] = None
        doc["squares"][0]["pair"] = ["b"]
        probs = problems_of(doc)
        assert len(probs) == 3
        assert any(p.startswith("k:") for p in probs)
        assert any(p.startswith("edges[1].color:") for p in probs)
        assert any(p.startswith("squares[0].pair:") for p in probs)

    def test_duplicate_ids(self):
        doc = t2_doc()
        doc["vertices"] = ["v", "v"]
        doc["edges"].append({"id": "b", "color": 1, "range": "v", "source": "v"})
        probs = problems_of(doc)
        assert "vertices: duplicate id 'v'" in probs
        assert "edges[2].id: duplicate edge id 'b'" in probs

    def test_unknown_keys_of_mixed_types(self):
        # json.loads makes str keys only; another dict is refused, not a TypeError from sorting.
        doc = {"k": 1, "vertices": [], "edges": [], "squares": [], 2: 0, "z": 0}
        assert problems_of(doc) == ["document: unknown key 'z'", "document: unknown key 2"]

    def test_unknown_edge_key(self):
        doc = t2_doc()
        doc["edges"][0]["weight"] = 3
        assert "edges[0]: unknown key 'weight'" in problems_of(doc)

    def test_square_row_shape(self):
        doc = t2_doc()
        doc["squares"] = [["b", "r"]]
        assert problems_of(doc) == ["squares[0]: expected an object"]

    def test_non_list_sections(self):
        doc = t2_doc()
        doc["edges"] = {}
        doc["squares"] = 0
        probs = problems_of(doc)
        assert "edges: expected a list" in probs
        assert "squares: expected a list" in probs


class _Str(str):
    pass


class _Color(enum.IntEnum):
    BLUE = 1


class TestExactTypes:
    """A document is what `json.loads` makes; a subclass is refused at its address."""

    def test_dict_subclass_as_the_document(self):
        assert problems_of(OrderedDict(t2_doc())) == [
            "document: expected a JSON object, got OrderedDict"
        ]

    def test_dict_subclass_as_a_row(self):
        doc = t2_doc()
        doc["edges"][0] = OrderedDict(doc["edges"][0])
        doc["squares"][0] = OrderedDict(doc["squares"][0])
        assert problems_of(doc) == ["edges[0]: expected an object", "squares[0]: expected an object"]

    def test_str_subclass_as_an_id(self):
        doc = t2_doc()
        doc["edges"][1]["id"] = _Str("r")
        assert problems_of(doc) == ["edges[1].id: expected a string, got 'r'"]

    def test_color_that_is_not_exactly_an_int(self):
        for color, shown in ((_Color.BLUE, "<_Color.BLUE: 1>"), (True, "True")):
            doc = t2_doc()
            doc["edges"][0]["color"] = color
            assert problems_of(doc) == [f"edges[0].color: expected an integer, got {shown}"]

    def test_str_subclass_in_a_square_pair(self):
        doc = t2_doc()
        doc["squares"][0]["pair"] = ["b", _Str("r")]
        assert problems_of(doc) == ["squares[0].pair: expected a pair of edge ids, got ['b', 'r']"]


class TestLoad:
    def test_json_error_is_addressed(self):
        with pytest.raises(DocumentError) as info:
            load_graph_document("{\n  \"k\": 2,,\n}")
        (msg,) = info.value.problems
        assert msg.startswith("line 2 column ")

    def test_deep_nesting_is_one_document_problem(self):
        for text in ("[" * 200_000, '{"k": ' * 200_000):
            with pytest.raises(DocumentError) as info:
                load_graph_document(text)
            assert info.value.problems == ["document: nested too deeply to parse"]

    def test_lone_surrogate_without_an_escape_is_refused(self):
        # What standard input decoded with surrogateescape makes of byte 0xff.
        doc = t2_doc()
        doc["vertices"] = ["\udcff"]
        doc["edges"][0]["id"] = "\udcff"
        text = json.dumps(doc, ensure_ascii=False)
        assert "\\u" not in text
        with pytest.raises(DocumentError) as info:
            load_graph_document(text)
        assert info.value.problems == [
            "vertices[0]: '\\udcff' holds a lone surrogate",
            "edges[0].id: '\\udcff' holds a lone surrogate",
        ]

    @pytest.mark.parametrize("load", [load_graph_document, graph_from_json])
    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_text_that_is_not_a_str_is_one_document_problem(self, load, kind):
        text = json.dumps(t2_doc())
        assert load(text)  # the same document, decoded, loads
        with pytest.raises(DocumentError) as info:
            load(kind(text.encode()))
        assert info.value.problems == [f"document: expected str text, got {kind.__name__}"]

    def test_graph_from_json_validates(self):
        g = graph_from_json(json.dumps(t2_doc()))
        assert list(g.vertices) == ["v"]

    def test_graph_from_json_rejects_unsound_table(self):
        from kgraph import ValidationError

        doc = t2_doc()
        doc["squares"] = []
        with pytest.raises(ValidationError):
            graph_from_json(json.dumps(doc))


class TestEscapes:
    """The lone-surrogate search runs on text with a backslash: escapes load, `\\ud800` does not."""

    def test_escaped_ids_load_and_round_trip(self):
        text = (
            '{"k": 2, "vertices": ["v\\/w"], "edges": ['
            '{"id": "b\\"", "color": 1, "range": "v\\/w", "source": "v\\/w"}, '
            '{"id": "r\\\\", "color": 2, "range": "v\\/w", "source": "v\\/w"}], '
            '"squares": [{"pair": ["b\\"", "r\\\\"], "image": ["r\\\\", "b\\""]}]}'
        )
        assert text.isascii() and "\\u" not in text
        g = graph_from_json(text)
        assert g.vertices == ("v/w",)
        assert list(g.skeleton.edges) == ['b"', "r\\"]
        out = graph_document_text(g)
        assert graph_document_text(graph_from_json(out)) == out
        assert json.loads(out) == json.loads(text)

    def test_escaped_lone_surrogate_is_refused(self):
        doc = t2_doc()
        doc["vertices"] = ["\ud800"]
        text = json.dumps(doc)
        assert text.isascii() and "\\ud800" in text
        with pytest.raises(DocumentError) as info:
            load_graph_document(text)
        assert info.value.problems == ["vertices[0]: '\\ud800' holds a lone surrogate"]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(FIXTURES | DOCUMENTS | ONE_FIELD_OFF | JSON_VALUES)
def test_any_json_value_gives_a_graph_or_a_reported_problem(value):
    try:
        g = graph_from_json(json.dumps(value))
    except (DocumentError, ValidationError):
        return
    assert isinstance(g, KGraph)


# The product union has 382 rows, so most edits land in a long run of rows
# that the parser accepts by its one-test path.
LARGE = disjoint_union(k3_products(8))
FIXTURE_DOCS = [dump_graph_document(*fixture_parts(n)) for n in ("T2", "F", "D", "D2")]
FIXTURE_DOCS.append(dump_graph_document(LARGE.skeleton, LARGE.squares))
ODD_VALUES = [None, True, 1, 2.5, "x", [], ["a"], ["a", 1], {}]
ADDED_KEYS = ["extra", "k", "id", "color", "pair", "image"]


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def mutated_documents(draw):
    """A fixture document after one to three edits of keys, values or rows."""
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if isinstance(node, dict):
            how = draw(st.sampled_from(["delete", "add", "replace"] if node else ["add"]))
            if how == "delete":
                del node[draw(st.sampled_from(sorted(node)))]
            elif how == "add":
                node[draw(st.sampled_from(ADDED_KEYS))] = value
            else:
                node[draw(st.sampled_from(sorted(node)))] = value
        elif node:
            i = draw(st.integers(0, len(node) - 1))
            how = draw(st.sampled_from(["replace", "duplicate", "drop"]))
            if how == "replace":
                node[i] = value
            elif how == "duplicate":
                node.insert(i, copy.deepcopy(node[i]))
            else:
                del node[i]
        else:
            node.append(value)
    return doc


def parse_outcome(parse, data):
    try:
        skel, squares = parse(data)
    except DocumentError as exc:
        return exc.problems
    return skel.k, skel.vertices, list(skel.edges.items()), squares.entries


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(mutated_documents())
def test_parser_matches_the_reference_on_mutated_documents(doc):
    assert parse_outcome(parse_graph_document, doc) == parse_outcome(
        parse_graph_document_reference, doc
    )


class TestRowSizeTest:
    """A row of the right size with a wrong field is reported as the reference reports it."""

    @staticmethod
    def refused_alike(doc):
        problems = parse_outcome(parse_graph_document, doc)
        assert type(problems) is list and problems
        assert problems == parse_outcome(parse_graph_document_reference, doc)
        return problems

    @pytest.mark.parametrize("key", ["id", "color", "range", "source"])
    def test_edge_row_with_a_renamed_key(self, key):
        doc = t2_doc()
        row = doc["edges"][1]
        row[key + "_"] = row.pop(key)
        assert len(row) == 4
        assert f"edges[1]: missing key {key!r}" in self.refused_alike(doc)

    @pytest.mark.parametrize("key", ["id", "color", "range", "source"])
    def test_edge_row_with_a_null_field(self, key):
        doc = t2_doc()
        doc["edges"][0][key] = None
        kind = "an integer" if key == "color" else "a string"
        assert self.refused_alike(doc) == [f"edges[0].{key}: expected {kind}, got None"]

    @pytest.mark.parametrize("key", ["pair", "image"])
    def test_square_row_with_a_renamed_key(self, key):
        doc = t2_doc()
        row = doc["squares"][0]
        row[key[:-1]] = row.pop(key)
        assert len(row) == 2
        assert self.refused_alike(doc) == [
            f"squares[0]: missing key {key!r}",
            f"squares[0]: unknown key {key[:-1]!r}",
        ]


class TestDump:
    def test_round_trip(self, d2):
        text = canonical_json(dump_graph_document(d2.skeleton, d2.squares))
        again = graph_from_json(text)
        assert canonical_json(dump_graph_document(again.skeleton, again.squares)) == text

    def test_edges_sorted_by_id(self, d2):
        doc = dump_graph_document(d2.skeleton, d2.squares)
        ids = [e["id"] for e in doc["edges"]]
        assert ids == sorted(ids)

    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1, "a": [2, 3]})
        assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
        assert a.endswith("\n")

    def test_canonical_json_refuses_what_json_refuses(self):
        for bad in ({1, 2}, b"ab"):
            for doc in (bad, {"a": [0, {"b": bad}]}):
                with pytest.raises(TypeError):
                    canonical_json(doc)
                with pytest.raises(TypeError):
                    canonical_json_reference(doc)

    def test_parse_dump_fixed_point(self, t2, f):
        for g in (t2, f):
            doc = dump_graph_document(g.skeleton, g.squares)
            skel, squares = parse_graph_document(doc)
            assert dump_graph_document(skel, squares) == doc


def _renamed_f():
    """F with every id renamed: a quote, a backslash, an accent, a line break and, for the vertex, a lone surrogate."""
    names = {"v": "\ud800", "b0": '"', "b1": "\\", "r0": "\u00e9", "r1": "\n"}
    skel, table = fixture_parts("F")
    edges = [Edge(names[e.id], e.color, names[e.range], names[e.source]) for e in skel.edges.values()]
    entries = [(tuple(names[x] for x in pair), tuple(names[x] for x in image)) for pair, image in table.entries]
    return KGraph(Skeleton(2, [names["v"]], edges), SquareTable(entries))


class TestGraphDocumentText:
    """The row writer prints the bytes of the standard library's encoder."""

    @staticmethod
    def reference(g):
        return canonical_json_reference(dump_graph_document(g.skeleton, g.squares))

    def test_graphs_and_their_quotients(self, t2, f, d, d2):
        fixtures = [t2, f, d, d2]
        graphs = fixtures + corpus(200) + k2_products(6) + k3_products(6) + [wide_graph(), disjoint_union(fixtures)]
        quotients = [quotient(g, h) for g in graphs for h in enumerate_sat_her(g)[1:-1]]
        assert len(quotients) == 228
        for g in graphs + quotients:
            assert graph_document_text(g) == self.reference(g)

    def test_rank_one_has_no_squares(self):
        g = KGraph(Skeleton(1, ["v"], [Edge("e", 1, "v", "v")]), SquareTable([]))
        text = graph_document_text(g)
        assert '\n  "squares": [],\n' in text
        assert text == self.reference(g)

    def test_ids_that_need_escaping(self):
        g = _renamed_f()
        text = graph_document_text(g)
        assert text.isascii() and "\\ud800" in text and "\\u00e9" in text
        assert text == self.reference(g)


class TestScanReportText:
    """The witness row writer prints the bytes of the standard library's encoder."""

    @staticmethod
    def check(scans):
        """Each aperiodic scan's text against the reference; whether its segments are vertex paths."""
        vertex_segments = set()
        for scan in scans:
            if not scan.periodic:
                assert scan_report_text(scan) == canonical_json_reference(scan.to_json())
                vertex_segments.update(w.segment_m.is_vertex() for _, _, w in scan.entries)
        return vertex_segments

    def test_fixtures(self, t2, f, d, d2):
        # A witness cut from a seed has vertex segments (`"edges": []`); a propagated one has paths.
        scans = [scan_aperiodicity(g, bound) for g in (t2, f, d, d2) for bound in range(1, 9)]
        assert sum(not scan.periodic for scan in scans) == 16
        assert self.check(scans) == {True, False}

    def test_generated_graphs(self):
        scans = [scan_aperiodicity(g, 2) for g in corpus(200) + k2_products(6)]
        scans += [scan_aperiodicity(g, 1) for g in k3_products(4)]
        assert self.check(scans) == {True, False}

    def test_rank_one_with_two_loops(self):
        g = KGraph(Skeleton(1, ["v"], [Edge("e", 1, "v", "v"), Edge("f", 1, "v", "v")]), SquareTable([]))
        assert self.check([scan_aperiodicity(g, 3)]) == {False}

    def test_rows_that_share_no_paths(self, f, d2):
        # A fresh witness per row: no mirrored row holds its twin's Paths,
        # so the writer's path memo never hits.
        scans = [scan_aperiodicity(g, 5) for g in (f, d2)]
        fresh = [
            AperiodicReport(scan.bound, [(v, p, AperiodicityWitness(w.vertex, w.m, w.n, w.lam))
                                         for v, p, w in scan.entries])
            for scan in scans
        ]
        assert self.check(fresh) == {True, False}

    def test_ids_that_need_escaping(self):
        scan = scan_aperiodicity(_renamed_f(), 3)
        text = scan_report_text(scan)
        assert text.isascii() and "\\ud800" in text and "\\u00e9" in text
        assert self.check([scan]) == {False}


class KeyedDict(dict):
    """A dict subclass: canonical_json must treat it as the encoder does."""


# Characters the C string escaper handles specially: quotes, backslashes,
# control characters, non-ASCII, astral and lone surrogates.
_SPECIAL = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff"]
)
_TEXT = st.text(st.characters(exclude_categories=()) | _SPECIAL, max_size=6)
_LEAVES = (
    _TEXT
    | st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(max_value=-1)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
)


def _json_containers(kids):
    return (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.lists(_TEXT, max_size=4)
        | st.dictionaries(_TEXT, kids, max_size=4)
        | st.dictionaries(_TEXT, kids, max_size=3).map(KeyedDict)
        | st.dictionaries(st.integers(), kids, max_size=3)
    )


_VALUES = st.recursive(_LEAVES, _json_containers, max_leaves=20)


@st.composite
def json_values(draw):
    """A random value, wrapped at least 5 levels deep half the time."""
    value = draw(_VALUES)
    if draw(st.booleans()):
        for key in draw(st.lists(_TEXT, min_size=5, max_size=8)):
            value = {key: value} if draw(st.booleans()) else [draw(_LEAVES), value]
    if draw(st.integers(0, 9)) == 0:  # an unserializable leaf after the value
        value = [value, {"x": draw(st.sampled_from([{1, 2}, b"ab"]))}]
    return value


def _outcome(writer, obj):
    try:
        return "ok", writer(obj)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(json_values())
def test_canonical_json_matches_the_standard_library(obj):
    assert _outcome(canonical_json, obj) == _outcome(canonical_json_reference, obj)
