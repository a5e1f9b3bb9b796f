"""Colored directed multigraphs underlying a rank-k graph.

Vertices are opaque strings.  Edges carry a 1-based color in 1..k plus a
range and source vertex.  Paths traverse from source toward range, and
edge sequences are written range end first, so the out-neighborhood used
everywhere below is "edges whose range is v".

Construction refuses only what it cannot index, with
`ContractViolationError`: vertices given as one string, a vertex id,
edge id or endpoint that is not exactly a `str`, a color that cannot be
hashed, or a repeated vertex or edge id.  It keeps the edges in id
order, so every pass over them and every report follows that order.
`validate` reports every other violation, and `KGraph` runs it before
anything reads the skeleton.
"""

from dataclasses import dataclass

from .errors import ContractViolationError


@dataclass(frozen=True)
class Edge:
    id: str
    color: int
    range: str
    source: str


class ValidationReport:
    """Outcome of a validation pass: a (possibly empty) list of violations."""

    def __init__(self, subject, violations=()):
        self.subject = subject
        self.violations = sorted(violations)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {"subject": self.subject, "ok": self.ok, "violations": list(self.violations)}

    def __str__(self):
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    def __repr__(self):
        return f"ValidationReport({self.subject!r}, ok={self.ok})"


class Skeleton:
    """k-colored multigraph: `edges` in id order, indexed by (range vertex, color).

    `by_range[(v, c)]` holds the ids of the color-c edges with range v, in
    id order; a pair with no edge has no key.
    """

    def __init__(self, k, vertices, edges):
        self.k = k
        if isinstance(vertices, str):
            raise ContractViolationError(f"vertices {vertices!r} is a string, not a collection of vertex ids")
        seen = set()
        for v in vertices:
            if type(v) is not str:
                raise ContractViolationError(f"vertex id {v!r} is not a string")
            if v in seen:
                raise ContractViolationError(f"duplicate vertex id {v!r}")
            seen.add(v)
        self.vertices = tuple(sorted(seen))
        self._vertex_set = seen
        by_id = {}
        for e in edges:
            if not type(e.id) is type(e.range) is type(e.source) is str:
                if type(e.id) is not str:
                    raise ContractViolationError(f"edge id {e.id!r} is not a string")
                end = "range" if type(e.range) is not str else "source"
                raise ContractViolationError(f"edge {e.id!r}: {end} {getattr(e, end)!r} is not a string")
            if e.id in by_id:
                raise ContractViolationError(f"duplicate edge id {e.id!r}")
            by_id[e.id] = e
        self.edges = {eid: by_id[eid] for eid in sorted(by_id)}
        # The index tolerates hashable invalid colors and unknown endpoints; validate() reports them.
        by_range = {}
        for eid, e in self.edges.items():
            try:
                by_range.setdefault((e.range, e.color), []).append(eid)
            except TypeError:  # the endpoints are strs, so the color cannot be hashed
                raise ContractViolationError(f"edge {eid!r}: color {e.color!r} cannot be hashed") from None
        self.by_range = {key: tuple(ids) for key, ids in by_range.items()}

    def has_vertex(self, v):
        return v in self._vertex_set

    def validate(self):
        """Report dangling endpoints, bad colors, and missing out-colors."""
        problems = []
        # Exact ints, so a rank or color of 1.7 or True is reported, not read as 1.
        # A rank that is not an int reads as 0: nothing is checked against it.
        rank_ok = type(self.k) is int
        k = self.k if rank_ok else 0
        if not rank_ok:
            problems.append(f"rank: expected an integer, got {self.k!r}")
        elif k < 1:
            problems.append(f"rank: expected k >= 1, got {k}")
        for eid, e in self.edges.items():
            if type(e.color) is not int:
                problems.append(f"edge {eid!r}: color {e.color!r} is not an integer")
            elif rank_ok and not 1 <= e.color <= k:
                problems.append(f"edge {eid!r}: color {e.color!r} outside 1..{k}")
            if e.range not in self._vertex_set:
                problems.append(f"edge {eid!r}: range {e.range!r} is not a vertex")
            if e.source not in self._vertex_set:
                problems.append(f"edge {eid!r}: source {e.source!r} is not a vertex")
        if not self.vertices:
            problems.append("vertices: graph has no vertices")
        # Every vertex needs an outgoing edge of every color; sinks are fine.
        # With more colors than edges some color has none at all: say so
        # once, so the report stays bounded in k.
        if k > len(self.edges) and self.vertices:
            problems.append(f"rank: k = {k} but {len(self.edges)} edge(s), so some color has none")
        elif k >= 1:
            for v in self.vertices:
                for color in range(1, k + 1):
                    if (v, color) not in self.by_range:
                        problems.append(f"vertex {v!r}: no outgoing color-{color} edge")
        return ValidationReport("skeleton", problems)
