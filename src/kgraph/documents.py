"""JSON interchange for graphs.

The document shape is fixed:

    {
      "k": 2,
      "vertices": ["v", "w"],
      "edges": [{"id": "b", "color": 1, "range": "v", "source": "w"}],
      "squares": [{"pair": ["b", "r"], "image": ["r2", "b2"]}]
    }

This layer checks shape and types only and reports every problem it finds
at once, each addressed to the field it concerns ("edges[3].color: ...").
A document is what `json.loads` makes: every type test is exact (`type(x)
is dict`), so a subclass of dict, list, str or int, a bool included, is
refused.  A row is accepted in one place, by one test: a dict of the
row's size (four fields for an edge, two for a square) whose fields, read
by name with `.get`, have the right types.  A missing field reads as
None, which no type passes, so a row of the right size with a renamed
key is refused too.  A row that fails the test is only reported, with at
least one addressed problem, and only a problem builds an address.  JSON
nested deeper than the decoder can follow, or an integer literal longer
than the interpreter converts, is one "document:" problem.  An id
holding a lone surrogate (from a \\u escape, or from a non-UTF-8 byte on
stdin) is refused: no UTF-8 output prints it.  Only a text with a
backslash or a character outside ASCII is searched for one.  Structural
soundness (colors in range, endpoints exist, square table laws) is the
job of the validation that `KGraph` runs on construction.

`canonical_json` writes the bytes of `json.dumps(obj, indent=2,
sort_keys=True) + "\\n"` (ASCII only), pinned by the test oracle
`canonical_json_reference`.  It does not call that, because `indent` turns
CPython's C encoder off; it writes strings (through the C escaper), ints,
lists and str-keyed dicts itself and hands any other value to that call.
`graph_document_text` writes those bytes for a validated graph's
document from one template per edge row and per square row, quoting ids
with the same escaper; a test oracle's dict writer, which also writes
invalid tables, pins it.  Validation makes `k` and every color an exact
int and every id a str, which makes the templates exact.
`scan_report_text` writes the bytes of an aperiodic scan report's
`to_json()` from one template per witness row, with the same escaper and
list layout.  Its ids come from a validated graph, so they are str;
`resolve_bound` makes the bound an exact int, `signed_vectors` makes each
earlier p a tuple of them and the scan negates it into a tuple for the
later one, and the witness constructor checks m and n the same
way (`require_rank`), which makes that template exact too.  It writes
each text once per call, in two dicts local to the call.  A path's text
is keyed by `id(path)`: a mirrored row holds its twin's lambda and
segments, and `report.entries` keeps every path alive until the call
returns, so no id is reused for another path.  The key is not the edge
ids, since vertex segments at two vertices have equal empty edges.  An
int list's text (p, m or n) is keyed by the tuple and the pad of its
depth, since p sits one level above m and n.
"""

import json
import re
from json.encoder import encode_basestring_ascii as _quote

from .errors import DocumentError
from .factorization import KGraph, SquareTable
from .skeleton import Edge, Skeleton

_TOP_KEYS = ("k", "vertices", "edges", "squares")
_EDGE_KEYS = ("id", "color", "range", "source")
_SQUARE_KEYS = ("pair", "image")
_ID_KEYS = ("id", "range", "source")
_SURROGATE = re.compile(r"[\ud800-\udfff]")
# Line breaks and indents that close a list at each depth of a scan report.
_TOP, _ROW, _WITNESS, _PATH = "\n  ", "\n      ", "\n        ", "\n          "


def _has_keys(obj, keys, where, problems):
    """Whether obj is an object with exactly `keys`; reports each way it is not."""
    if type(obj) is not dict:
        problems.append(f"{where}: expected an object")
        return False
    ok = True
    for key in keys:
        if key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            ok = False
    # Str keys in order, then any other key (only a dict not from json.loads has one) by repr.
    for key in sorted(set(obj) - set(keys), key=lambda key: (0, key) if type(key) is str else (1, repr(key))):
        problems.append(f"{where}: unknown key {key!r}")
        ok = False
    return ok


def _rows(data, name, problems):
    """data[name] if it is a list; otherwise report it and give no rows."""
    rows = data[name]
    if type(rows) is list:
        return rows
    problems.append(f"{name}: expected a list")
    return ()


def parse_graph_document(data):
    """Dict -> (Skeleton, SquareTable), or DocumentError listing every problem."""
    if type(data) is not dict:
        raise DocumentError([f"document: expected a JSON object, got {type(data).__name__}"])
    problems = []
    if not _has_keys(data, _TOP_KEYS, "document", problems):
        raise DocumentError(problems)

    k = data["k"]
    if type(k) is not int:
        problems.append(f"k: expected an integer, got {k!r}")
        k = 0

    vertices = data["vertices"]
    if not (type(vertices) is list and all(type(v) is str for v in vertices)):
        problems.append("vertices: expected a list of strings")
        vertices = []
    else:
        seen = set()
        for v in vertices:
            if v in seen:
                problems.append(f"vertices: duplicate id {v!r}")
            seen.add(v)

    edges = {}
    for i, row in enumerate(_rows(data, "edges", problems)):
        if type(row) is dict and len(row) == 4:
            eid, color, rng, src = row.get("id"), row.get("color"), row.get("range"), row.get("source")
            if type(eid) is type(rng) is type(src) is str and type(color) is int and eid not in edges:
                edges[eid] = Edge(eid, color, rng, src)
                continue
        # Refused, so only reported: keys and types that pass leave a duplicate id.
        where = f"edges[{i}]"
        if _has_keys(row, _EDGE_KEYS, where, problems):
            wrong = [key for key in _EDGE_KEYS
                     if type(row[key]) is not (int if key == "color" else str)]
            for key in wrong:
                kind = "an integer" if key == "color" else "a string"
                problems.append(f"{where}.{key}: expected {kind}, got {row[key]!r}")
            if not wrong:
                problems.append(f"{where}.id: duplicate edge id {row['id']!r}")

    entries = []
    for i, row in enumerate(_rows(data, "squares", problems)):
        if type(row) is dict and len(row) == 2:
            pair, image = row.get("pair"), row.get("image")
            if (type(pair) is type(image) is list and len(pair) == len(image) == 2
                    and type(pair[0]) is type(pair[1]) is type(image[0]) is type(image[1]) is str):
                entries.append(((pair[0], pair[1]), (image[0], image[1])))
                continue
        # Refused, so only reported: keys that pass leave a field that is not an id pair.
        where = f"squares[{i}]"
        if _has_keys(row, _SQUARE_KEYS, where, problems):
            for key in _SQUARE_KEYS:
                val = row[key]
                if not (type(val) is list and len(val) == 2 and type(val[0]) is type(val[1]) is str):
                    problems.append(f"{where}.{key}: expected a pair of edge ids, got {val!r}")

    if problems:
        raise DocumentError(problems)
    return Skeleton(k, vertices, edges.values()), SquareTable(entries)


def _lone_surrogates(data):
    """A problem for each id holding a lone surrogate, which no UTF-8 output can carry."""
    found = [(f"vertices[{i}]", v) for i, v in enumerate(data["vertices"]) if _SURROGATE.search(v)]
    for i, row in enumerate(data["edges"]):
        found += [(f"edges[{i}].{key}", row[key]) for key in _ID_KEYS if _SURROGATE.search(row[key])]
    return [f"{where}: {val!r} holds a lone surrogate" for where, val in found]


def load_graph_document(text):
    """JSON text -> (Skeleton, SquareTable); parse errors come back addressed."""
    if type(text) is not str:
        raise DocumentError([f"document: expected str text, got {type(text).__name__}"])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"line {exc.lineno} column {exc.colno}: {exc.msg}"]) from exc
    except ValueError:  # an integer literal over the interpreter's digit limit
        raise DocumentError(["document: an integer has too many digits to parse"]) from None
    except RecursionError:
        raise DocumentError(["document: nested too deeply to parse"]) from None
    parts = parse_graph_document(data)
    # A \u escape or a byte decoded with surrogateescape makes a lone
    # surrogate.  ASCII text without a backslash has no escape and holds none,
    # so it skips the search; finding a backslash is one memchr.
    problems = _lone_surrogates(data) if "\\" in text or not text.isascii() else []
    if problems:
        raise DocumentError(problems)
    return parts


def graph_from_json(text):
    """JSON text -> validated KGraph (DocumentError or ValidationError)."""
    return KGraph(*load_graph_document(text))


def _rows_text(rows):
    """A list in a top-level field of the document, from its items' written rows."""
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def graph_document_text(g):
    """g's graph document as `canonical_json` writes it, one template per row."""
    skel = g.skeleton
    edges = [
        f'    {{\n      "color": {e.color},\n      "id": {_quote(eid)},\n'
        f'      "range": {_quote(e.range)},\n      "source": {_quote(e.source)}\n    }}'
        for eid, e in skel.edges.items()
    ]
    squares = [
        f'    {{\n      "image": [\n        {_quote(c)},\n        {_quote(d)}\n      ],\n'
        f'      "pair": [\n        {_quote(a)},\n        {_quote(b)}\n      ]\n    }}'
        for (a, b), (c, d) in sorted(g.squares.entries)
    ]
    vertices = ["    " + _quote(v) for v in skel.vertices]
    return (f'{{\n  "edges": {_rows_text(edges)},\n  "k": {g.k},\n  "squares": {_rows_text(squares)},\n'
            f'  "vertices": {_rows_text(vertices)}\n}}\n')


def _list_text(items, pad):
    """Written items as `_dumps` lays out a list that closes at `pad`, or `[]`."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(items)}{pad}]"


def _path_text(path):
    """A witness path's `to_json()`, at its depth in a scan report."""
    return (f'{{\n          "edges": {_list_text([_quote(e) for e in path.edges], _PATH)},\n'
            f'          "range": {_quote(path.range_vertex)}\n        }}')


def scan_report_text(report):
    """`canonical_json(report.to_json())` for an `AperiodicReport`, one template per witness row."""
    paths, ints = {}, {}  # id(path) -> text; (int tuple, pad) -> text

    def path_text(path):
        text = paths.get(id(path))
        if text is None:
            text = paths[id(path)] = _path_text(path)
        return text

    def ints_text(t, pad):
        text = ints.get((t, pad))
        if text is None:
            text = ints[t, pad] = _list_text([str(c) for c in t], pad)
        return text

    rows = [
        f'{{\n      "p": {ints_text(p, _ROW)},\n      "vertex": {_quote(v)},\n'
        f'      "witness": {{\n        "lambda": {path_text(w.lam)},\n'
        f'        "m": {ints_text(w.m, _WITNESS)},\n'
        f'        "n": {ints_text(w.n, _WITNESS)},\n'
        f'        "segment_m": {path_text(w.segment_m)},\n        "segment_n": {path_text(w.segment_n)},\n'
        f'        "vertex": {_quote(w.vertex)}\n      }}\n    }}'
        for v, p, w in report.entries
    ]
    return (f'{{\n  "bound": {report.bound},\n  "verdict": "aperiodic",\n'
            f'  "witnesses": {_list_text(rows, _TOP)}\n}}\n')


def _dumps(x, pad):
    """x as indented JSON; `pad` is a line break and the indent of x's depth."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if t is dict and all(type(key) is str for key in x):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [_quote(key) + ": " + _dumps(x[key], inner) for key in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = pad + "  "
        items = [_dumps(item, inner) for item in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", pad)


def canonical_json(obj):
    return _dumps(obj, "\n") + "\n"
