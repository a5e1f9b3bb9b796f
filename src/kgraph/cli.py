"""Command-line front end.

Exit codes are uniform across commands: 0 the property holds (or the
command simply succeeded), 1 it fails and the report carries the
certificate, 3 the input could not be used (unreadable file, malformed
JSON, structural validation failure outside `validate` itself, bad
flags, input too big to fit in memory).  No command exits 2.

Reports are JSON on standard output with sorted keys; --text renders the
same object line for line as indented `key: value` text.
"""

import argparse
import json
import sys

from .analysis import is_simple
from .documents import (
    canonical_json,
    dump_graph_document,
    graph_from_json,
    load_graph_document,
)
from .errors import ContractViolationError, DocumentError, LimitExceededError, ValidationError
from .factorization import KGraph, validation_reports
from .fixtures import FIXTURE_NAMES, fixture_parts
from .ideals import enumerate_sat_her, is_cofinal, quotient, vertex_set_to_json
from .periodicity import scan_aperiodicity


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad flags are unusable input here, so 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _scalar(v):
    return v if isinstance(v, str) else json.dumps(v)


def render_text(obj, indent=0):
    """One line per JSON leaf, keys sorted, nesting as indentation."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(val)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")
    return lines


def _emit(report, as_text):
    if as_text:
        sys.stdout.write("\n".join(render_text(report)) + "\n")
    else:
        sys.stdout.write(canonical_json(report))


def _fail(problems):
    for p in problems:
        sys.stderr.write(f"error: {p}\n")
    return 3


def _load_graph(path):
    """Validated KGraph, or an exit code after printing diagnostics."""
    try:
        text = _read(path)
    except OSError as exc:
        return _fail([f"{path}: {exc.strerror or exc}"])
    try:
        return graph_from_json(text)
    except DocumentError as exc:
        return _fail(exc.problems)
    except ValidationError as exc:
        return _fail(exc.report.violations)


def cmd_validate(args):
    try:
        text = _read(args.file)
    except OSError as exc:
        return _fail([f"{args.file}: {exc.strerror or exc}"])
    try:
        skel, squares = load_graph_document(text)
    except DocumentError as exc:
        return _fail(exc.problems)
    reports = list(validation_reports(skel, squares))
    ok = all(r.ok for r in reports)
    _emit(
        {"verdict": "valid" if ok else "invalid", "reports": [r.to_json() for r in reports]},
        args.text,
    )
    return 0 if ok else 1


def cmd_aperiodic(args):
    g = _load_graph(args.file)
    if not isinstance(g, KGraph):
        return g
    try:
        scan = scan_aperiodicity(g, args.bound)
    except ContractViolationError as exc:
        return _fail([str(exc)])
    _emit(scan.to_json(), args.text)
    return 0 if not scan.periodic else 1


def cmd_cofinal(args):
    g = _load_graph(args.file)
    if not isinstance(g, KGraph):
        return g
    verdict = is_cofinal(g)
    _emit(verdict.to_json(), args.text)
    return 0 if verdict.cofinal else 1


def cmd_simple(args):
    g = _load_graph(args.file)
    if not isinstance(g, KGraph):
        return g
    try:
        verdict = is_simple(g, args.bound)
    except ContractViolationError as exc:
        return _fail([str(exc)])
    _emit(verdict.to_json(), args.text)
    return 0 if verdict.status == "simple" else 1


def cmd_ideals(args):
    g = _load_graph(args.file)
    if not isinstance(g, KGraph):
        return g
    try:
        sets = enumerate_sat_her(g)
    except LimitExceededError as exc:
        return _fail([str(exc)])
    _emit(
        {"count": len(sets), "sets": [vertex_set_to_json(h) for h in sets]},
        args.text,
    )
    return 0


def cmd_quotient(args):
    g = _load_graph(args.file)
    if not isinstance(g, KGraph):
        return g
    names = [s.strip() for s in args.set.split(",") if s.strip()]
    unknown = [v for v in names if not g.skeleton.has_vertex(v)]
    if unknown:
        return _fail([f"unknown vertex {v!r}" for v in unknown])
    try:
        sub = quotient(g, names)
    except ContractViolationError as exc:
        _emit({"verdict": "error", "message": str(exc)}, args.text)
        return 1
    _emit(dump_graph_document(sub.skeleton, sub.squares), args.text)
    return 0


def cmd_fixture(args):
    skel, squares = fixture_parts(args.name)
    _emit(dump_graph_document(skel, squares), args.text)
    return 0


def _add_common(sub, bound=False):
    sub.add_argument("file", help="graph JSON file, or - for standard input")
    if bound:
        sub.add_argument("--bound", type=int, default=None, help="scan bound (default: derived)")
    sub.add_argument("--text", action="store_true", help="plaintext summary instead of JSON")


def build_parser():
    parser = _Parser(prog="kgraph", description="rank-k graph analysis")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a graph document end to end")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("aperiodic", help="scan for local periodicity up to a bound")
    _add_common(p, bound=True)
    p.set_defaults(func=cmd_aperiodic)

    p = subs.add_parser("cofinal", help="decide cofinality")
    _add_common(p)
    p.set_defaults(func=cmd_cofinal)

    p = subs.add_parser("simple", help="cofinality plus bounded aperiodicity")
    _add_common(p, bound=True)
    p.set_defaults(func=cmd_simple)

    p = subs.add_parser("ideals", help="enumerate saturated hereditary vertex sets")
    _add_common(p)
    p.set_defaults(func=cmd_ideals)

    p = subs.add_parser("quotient", help="delete a saturated hereditary set")
    _add_common(p)
    p.add_argument("--set", required=True, help="comma-separated vertex ids (may be empty)")
    p.set_defaults(func=cmd_quotient)

    p = subs.add_parser("fixture", help="print a built-in example graph")
    p.add_argument("name", choices=list(FIXTURE_NAMES))
    p.add_argument("--text", action="store_true", help="plaintext summary instead of JSON")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        pass  # report outside the handler, once the traceback's frames are freed
    return _fail(["out of memory: the input is too big for this implementation"])


if __name__ == "__main__":
    sys.exit(main())
