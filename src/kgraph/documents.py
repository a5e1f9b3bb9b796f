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
Structural soundness (colors in range, endpoints exist, square table laws)
is the job of the validation pass behind KGraph.build.
"""

import json

from .errors import DocumentError
from .factorization import KGraph, SquareTable
from .skeleton import Edge, Skeleton

_TOP_KEYS = ("k", "vertices", "edges", "squares")
_EDGE_KEYS = ("id", "color", "range", "source")


def _is_int(x):
    # bool is an int subclass; a color of `true` must not slip through.
    return isinstance(x, int) and not isinstance(x, bool)


def _check_id_pair(row, key, problems, where):
    val = row.get(key)
    if not (isinstance(val, list) and len(val) == 2 and all(isinstance(s, str) for s in val)):
        problems.append(f"{where}.{key}: expected a pair of edge ids, got {val!r}")
        return None
    return tuple(val)


def parse_graph_document(data):
    """Dict -> (Skeleton, SquareTable), or DocumentError listing every problem."""
    problems = []
    if not isinstance(data, dict):
        raise DocumentError([f"document: expected a JSON object, got {type(data).__name__}"])
    for key in _TOP_KEYS:
        if key not in data:
            problems.append(f"document: missing key {key!r}")
    for key in sorted(set(data) - set(_TOP_KEYS)):
        problems.append(f"document: unknown key {key!r}")
    if problems:
        raise DocumentError(problems)

    k = data["k"]
    if not _is_int(k):
        problems.append(f"k: expected an integer, got {k!r}")
        k = 0

    vertices = data["vertices"]
    if not (isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)):
        problems.append("vertices: expected a list of strings")
        vertices = []
    else:
        seen = set()
        for v in vertices:
            if v in seen:
                problems.append(f"vertices: duplicate id {v!r}")
            seen.add(v)

    edges = []
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        problems.append("edges: expected a list")
        raw_edges = []
    edge_ids = set()
    for i, row in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: expected an object")
            continue
        bad = False
        for key in _EDGE_KEYS:
            if key not in row:
                problems.append(f"{where}: missing key {key!r}")
                bad = True
        for key in sorted(set(row) - set(_EDGE_KEYS)):
            problems.append(f"{where}: unknown key {key!r}")
            bad = True
        if bad:
            continue
        if not isinstance(row["id"], str):
            problems.append(f"{where}.id: expected a string, got {row['id']!r}")
            bad = True
        if not _is_int(row["color"]):
            problems.append(f"{where}.color: expected an integer, got {row['color']!r}")
            bad = True
        for key in ("range", "source"):
            if not isinstance(row[key], str):
                problems.append(f"{where}.{key}: expected a string, got {row[key]!r}")
                bad = True
        if bad:
            continue
        if row["id"] in edge_ids:
            problems.append(f"{where}.id: duplicate edge id {row['id']!r}")
            continue
        edge_ids.add(row["id"])
        edges.append(Edge(row["id"], row["color"], row["range"], row["source"]))

    entries = []
    raw_squares = data["squares"]
    if not isinstance(raw_squares, list):
        problems.append("squares: expected a list")
        raw_squares = []
    for i, row in enumerate(raw_squares):
        where = f"squares[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: expected an object")
            continue
        bad = False
        for key in ("pair", "image"):
            if key not in row:
                problems.append(f"{where}: missing key {key!r}")
                bad = True
        for key in sorted(set(row) - {"pair", "image"}):
            problems.append(f"{where}: unknown key {key!r}")
            bad = True
        if bad:
            continue
        pair = _check_id_pair(row, "pair", problems, where)
        image = _check_id_pair(row, "image", problems, where)
        if pair is not None and image is not None:
            entries.append((pair, image))

    if problems:
        raise DocumentError(problems)
    return Skeleton(k, vertices, edges), SquareTable(entries)


def load_graph_document(text):
    """JSON text -> (Skeleton, SquareTable); parse errors come back addressed."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"line {exc.lineno} column {exc.colno}: {exc.msg}"]) from exc
    return parse_graph_document(data)


def graph_from_json(text):
    """JSON text -> validated KGraph (DocumentError or ValidationError)."""
    skel, squares = load_graph_document(text)
    return KGraph.build(skel, squares)


def dump_graph_document(skel, squares):
    """(Skeleton, SquareTable) -> the interchange dict, deterministically ordered."""
    return {
        "k": skel.k,
        "vertices": list(skel.vertices),
        "edges": [
            {"id": e.id, "color": e.color, "range": e.range, "source": e.source}
            for e in (skel.edges[eid] for eid in sorted(skel.edges))
        ],
        "squares": squares.to_json()["squares"],
    }


def canonical_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
