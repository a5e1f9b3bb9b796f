"""Colored directed multigraphs underlying a rank-k graph.

Vertices are opaque strings.  Edges carry a 1-based color in 1..k plus a
range and source vertex.  Paths traverse from source toward range, and
edge sequences are written range end first, so the out-neighborhood used
everywhere below is "edges whose range is v".

Validation is a separate mandatory step: construction accepts whatever it
is given, `validate` reports every violation, and the downstream layers
refuse skeletons that have not passed it.
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
    """k-colored multigraph with a (range vertex, color) edge index."""

    def __init__(self, k, vertices, edges):
        self.k = int(k)
        self.vertices = tuple(sorted(set(vertices)))
        self._vertex_set = set(self.vertices)
        by_id = {}
        for e in edges:
            if e.id in by_id:
                raise ValueError(f"duplicate edge id {e.id!r}")
            by_id[e.id] = e
        self.edges = by_id
        # The index tolerates invalid colors/endpoints; validate() reports them.
        self.by_range = {}
        for eid in sorted(by_id):
            e = by_id[eid]
            self.by_range.setdefault((e.range, e.color), []).append(eid)
        self.by_range = {key: tuple(v) for key, v in self.by_range.items()}
        self._validated = False

    def edge(self, eid):
        return self.edges[eid]

    def has_vertex(self, v):
        return v in self._vertex_set

    def out_edges(self, v, color):
        """Edge ids with range v and the given color, sorted."""
        return self.by_range.get((v, color), ())

    def validate(self):
        """Report dangling endpoints, bad colors, and missing out-colors."""
        problems = []
        if self.k < 1:
            problems.append(f"rank: expected k >= 1, got {self.k}")
        for eid in sorted(self.edges):
            e = self.edges[eid]
            if not (isinstance(e.color, int) and 1 <= e.color <= self.k):
                problems.append(f"edge {eid!r}: color {e.color!r} outside 1..{self.k}")
            if e.range not in self._vertex_set:
                problems.append(f"edge {eid!r}: range {e.range!r} is not a vertex")
            if e.source not in self._vertex_set:
                problems.append(f"edge {eid!r}: source {e.source!r} is not a vertex")
        if not self.vertices:
            problems.append("vertices: graph has no vertices")
        # Every vertex needs an outgoing edge of every color; sinks are fine.
        # With more colors than edges some color has none at all: say so
        # once, so the report stays bounded in k.
        if self.k > len(self.edges) and self.vertices:
            problems.append(f"rank: k = {self.k} but {len(self.edges)} edge(s), so some color has none")
        elif self.k >= 1:
            for v in self.vertices:
                for color in range(1, self.k + 1):
                    if not self.out_edges(v, color):
                        problems.append(f"vertex {v!r}: no outgoing color-{color} edge")
        report = ValidationReport("skeleton", problems)
        self._validated = report.ok
        return report

    def require_validated(self):
        if not self._validated:
            raise ContractViolationError("skeleton has not passed validation")
