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
refused.  A row is accepted in one place, by one test of its key set and
its field types; a row that fails it is only reported, with at least one
addressed problem, and only a problem builds an address.  JSON nested
deeper than the decoder can follow, or an integer literal longer than the
interpreter converts, is one "document:" problem.  An id holding a lone
surrogate (from a \\u escape, or from a non-UTF-8 byte on stdin) is
refused: no UTF-8 output prints it.  Structural soundness (colors in
range, endpoints exist, square table laws) is the job of the validation
that `KGraph` runs on construction.

`canonical_json` writes the bytes of `json.dumps(obj, indent=2,
sort_keys=True) + "\\n"` (ASCII only), pinned by the test oracle
`canonical_json_reference`.  It does not call that, because `indent` turns
CPython's C encoder off; it writes strings (through the C escaper), ints,
lists and str-keyed dicts itself and hands any other value to that call.
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
_EDGE_KEY_SET = frozenset(_EDGE_KEYS)
_SQUARE_KEY_SET = frozenset(_SQUARE_KEYS)
_ID_KEYS = ("id", "range", "source")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


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
        if type(row) is dict and row.keys() == _EDGE_KEY_SET:
            eid, color, rng, src = row["id"], row["color"], row["range"], row["source"]
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
        if type(row) is dict and row.keys() == _SQUARE_KEY_SET:
            pair, image = row["pair"], row["image"]
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
    # surrogate; ASCII text without an escape holds none, so it skips the search.
    problems = _lone_surrogates(data) if "\\u" in text or not text.isascii() else []
    if problems:
        raise DocumentError(problems)
    return parts


def graph_from_json(text):
    """JSON text -> validated KGraph (DocumentError or ValidationError)."""
    return KGraph(*load_graph_document(text))


def dump_graph_document(skel, squares):
    """(Skeleton, SquareTable) -> the interchange dict, deterministically ordered."""
    return {
        "k": skel.k,
        "vertices": list(skel.vertices),
        "edges": [
            {"id": e.id, "color": e.color, "range": e.range, "source": e.source}
            for e in skel.edges.values()
        ],
        "squares": [{"pair": list(p), "image": list(i)} for p, i in sorted(squares.entries)],
    }


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
