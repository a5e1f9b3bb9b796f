"""Command-line front end.

Exit codes are uniform across commands: 0 the property holds (or the
command simply succeeded), 1 it fails and the report carries the
certificate, 3 the input could not be used or the report could not be
written.  No command exits 2.  Each `cmd_*` returns its report's JSON
text and whether the property holds, and raises on unusable input; `main`
alone turns that into an exit code.  `main` writes the text as it is;
--text renders the object that text holds.  Exit 3,
with one `error:` line per problem on standard error (unless it is
closed), covers:

- bad flags (argparse usage errors);
- a file that cannot be read, standard input closed, or bytes that are
  not UTF-8;
- malformed JSON, JSON nested too deeply to parse, or an integer
  literal with more digits than the interpreter converts;
- a document of the wrong shape (`DocumentError`), or an id holding a
  lone surrogate, which no UTF-8 output could print;
- a structural validation failure outside `validate` (`ValidationError`);
- a scan bound that is not an int in range (`ContractViolationError`),
  such as `--bound=--`, which argparse before Python 3.13 stores as [];
- a `quotient --set` name that is not a vertex, `--set=--` included;
- an `ideals` lattice of more than `ENUM_LIMIT` sets (`LimitExceededError`);
- any other error the library raises on purpose (a `KGraphError`), so
  none escapes as a traceback with exit 1;
- input too big to fit in memory (`MemoryError`);
- a report that cannot be written: to a closed pipe or a full disk
  (`OSError`), to a standard output the process started with closed, or
  a --text report holding a character the output encoding cannot hold.

Reports are JSON on standard output with sorted keys; --text renders the
same object line for line as indented `key: value` text; a string leaf
that does not print as itself (`str.isprintable`: a line break, say) is
written as a JSON string, so an id cannot forge a line.

`main` may be called repeatedly in one process: the parser is built once,
and each command dispatches by name to this module's `cmd_<command>`.
"""

import argparse
import functools
import json
import os
import sys

from .analysis import is_simple
from .documents import canonical_json, graph_document_text, load_graph_document, scan_report_text
from .errors import ContractViolationError, DocumentError, KGraphError, ValidationError
from .factorization import KGraph, validation_reports
from .fixtures import FIXTURE_NAMES, fixture_parts
from .ideals import enumerate_sat_her, is_cofinal, quotient
from .periodicity import scan_aperiodicity

_OUT_OF_MEMORY = ("out of memory: the input is too big for this implementation",)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad flags are unusable input here, so 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _scalar(v):
    return v if isinstance(v, str) and v.isprintable() else json.dumps(v)


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
    return lines


def _read_document(path):
    """(Skeleton, SquareTable) from a file, or from standard input for `-`."""
    if path == "-" and sys.stdin is None:  # the process started with it closed
        raise DocumentError(["-: standard input is closed"])
    try:
        if path == "-" and hasattr(sys.stdin, "buffer"):
            # UTF-8 whatever the locale's encoding.  A byte that is not UTF-8 fails
            # here, or under surrogateescape (C locale, UTF-8 mode) in the loader.
            errors = "surrogateescape" if sys.stdin.errors == "surrogateescape" else "strict"
            text = sys.stdin.buffer.read().decode("utf-8", errors)
        elif path == "-":  # io.StringIO, which has no buffer
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError([f"{path}: {getattr(exc, 'strerror', None) or exc}"]) from None
    return load_graph_document(text)


def cmd_validate(args):
    reports = list(validation_reports(*_read_document(args.file)))
    ok = all(r.ok for r in reports)
    report = {"verdict": "valid" if ok else "invalid", "reports": [r.to_json() for r in reports]}
    return canonical_json(report), ok


def cmd_aperiodic(args):
    scan = scan_aperiodicity(KGraph(*_read_document(args.file)), args.bound)
    text = canonical_json(scan.to_json()) if scan.periodic else scan_report_text(scan)
    return text, not scan.periodic


def cmd_cofinal(args):
    verdict = is_cofinal(KGraph(*_read_document(args.file)))
    return canonical_json(verdict.to_json()), verdict.cofinal


def cmd_simple(args):
    verdict = is_simple(KGraph(*_read_document(args.file)), args.bound)
    return canonical_json(verdict.to_json()), verdict.simple


def cmd_ideals(args):
    sets = enumerate_sat_her(KGraph(*_read_document(args.file)))
    return canonical_json({"count": len(sets), "sets": [sorted(h) for h in sets]}), True


def cmd_quotient(args):
    g = KGraph(*_read_document(args.file))
    # argparse before Python 3.13 drops the value of `--set=--` and stores [].
    text = "--" if args.set == [] else args.set
    names = [s for s in text.split(",") if s]
    unknown = [v for v in names if not g.skeleton.has_vertex(v)]
    if unknown:
        raise DocumentError([f"unknown vertex {v!r}" for v in unknown])
    try:
        sub = quotient(g, names)
    except ContractViolationError as exc:
        return canonical_json({"verdict": "error", "message": str(exc)}), False
    return graph_document_text(sub), True


def cmd_fixture(args):
    return graph_document_text(KGraph(*fixture_parts(args.name))), True


def _add_common(sub, bound=False):
    sub.add_argument("file", help="graph JSON file, or - for standard input")
    if bound:
        sub.add_argument("--bound", type=int, default=None, help="scan bound (default: derived)")
    sub.add_argument("--text", action="store_true", help="plaintext summary instead of JSON")


@functools.cache
def build_parser():
    parser = _Parser(prog="kgraph", description="rank-k graph analysis")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a graph document end to end")
    _add_common(p)

    p = subs.add_parser("aperiodic", help="scan for local periodicity up to a bound")
    _add_common(p, bound=True)

    p = subs.add_parser("cofinal", help="decide cofinality")
    _add_common(p)

    p = subs.add_parser("simple", help="cofinality plus bounded aperiodicity")
    _add_common(p, bound=True)

    p = subs.add_parser("ideals", help="enumerate saturated hereditary vertex sets")
    _add_common(p)

    p = subs.add_parser("quotient", help="delete a saturated hereditary set")
    _add_common(p)
    p.add_argument("--set", required=True, help="comma-separated vertex ids, each as written (may be empty)")

    p = subs.add_parser("fixture", help="print a built-in example graph")
    p.add_argument("name", choices=list(FIXTURE_NAMES))
    p.add_argument("--text", action="store_true", help="plaintext summary instead of JSON")

    return parser


def _write_report(out):
    """Write `out` to standard output; the problems that kept it from being written."""
    if sys.stdout is None:  # the process started with it closed
        return ["cannot write the report: standard output is closed"]
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except UnicodeEncodeError as exc:  # only --text: JSON reports are ASCII
        return [f"cannot write the report: the output encoding {exc.encoding} cannot hold "
                f"{exc.object[exc.start:exc.end]!r}"]
    except OSError as exc:
        # Python's closed-pipe recipe: stdout to devnull, so the flush at exit is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return [f"cannot write the report: {exc.strerror or exc}"]
    return []


def main(argv=None):
    """Run one command and return its exit code: 0 holds, 1 fails, 3 unusable input."""
    args = build_parser().parse_args(argv)
    try:
        out, holds = globals()[f"cmd_{args.command}"](args)
        if args.text:
            out = "\n".join(render_text(json.loads(out))) + "\n"
    except DocumentError as exc:
        problems = exc.problems
    except ValidationError as exc:
        problems = exc.report.violations
    except KGraphError as exc:
        problems = [str(exc)]
    except MemoryError:
        # No allocation in the handler; the report waits until the traceback's frames are freed.
        problems = _OUT_OF_MEMORY
    else:
        problems = _write_report(out)
        if not problems:
            return 0 if holds else 1
    if sys.stderr is not None:  # started with it closed, only the exit code tells
        for p in problems:
            sys.stderr.write(f"error: {p}\n")
    return 3


if __name__ == "__main__":
    sys.exit(main())
