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
    KGraph,
    ValidationError,
    canonical_json,
    dump_graph_document,
    fixture_parts,
    graph_from_json,
    load_graph_document,
    parse_graph_document,
)

from generators import disjoint_union, k3_products
from oracles import canonical_json_reference, parse_graph_document_reference


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

    def test_graph_from_json_validates(self):
        g = graph_from_json(json.dumps(t2_doc()))
        assert list(g.vertices) == ["v"]

    def test_graph_from_json_rejects_unsound_table(self):
        from kgraph import ValidationError

        doc = t2_doc()
        doc["squares"] = []
        with pytest.raises(ValidationError):
            graph_from_json(json.dumps(doc))


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
