"""Every function in the library serves the CLI, `analyze` or the benchmark.

The test drives the product's entry points under `sys.setprofile` and
records which `def` bodies of `src/kgraph` get entered: `main` over every
command on the four fixtures (with and without `--text`, at the derived
bound), plus one bad flag, one invalid graph and one lone-surrogate
document; then `graph_from_json`, `analyze` and the benchmark's
annihilation audit.  A function none of them enters is code only tests
reach, and belongs in `tests/oracles.py` or nowhere.  The one exception
is the `__repr__`s, for debugging.
"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

import kgraph
from kgraph.analysis import RepElement, analyze, sample_family, verify_annihilation
from kgraph.cli import build_parser, main
from kgraph.documents import canonical_json, graph_from_json

PACKAGE = Path(kgraph.__file__).resolve().parent
FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
QUOTIENT_SETS = {"T2": "", "F": "", "D": "u", "D2": "u"}  # u is hereditary and saturated in D, D2


def _defs():
    """(file, first line, name) -> qualified name, for every def in the package.

    Lambdas, comprehensions and class bodies are not defs; a class body
    only adds its name to the qualified names of the defs inside it.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not inspect.iscode(const):
                    continue
                if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
                    stack.append((const, f"{prefix}{const.co_name}."))
                elif const.co_name.startswith("<"):
                    stack.append((const, prefix))
                else:
                    name = f"{path.stem}.{prefix}{const.co_name}"
                    found[path, const.co_firstlineno, const.co_name] = name
                    stack.append((const, f"{prefix}{const.co_name}.<locals>."))
    return found


def _drive(tmp_path):
    """Run the CLI, `analyze` and the benchmark's audit; quiet, exit codes unchecked."""
    # `main` builds its parser once per process; an earlier test may have built it.
    build_parser.cache_clear()
    doc = json.loads((FIXDIR / "T2.json").read_text())
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(dict(doc, squares=[])))
    surrogate = tmp_path / "surrogate.json"
    surrogate.write_text(json.dumps(dict(doc, vertices=["\ud800"])))
    runs = [["aperiodic", str(FIXDIR / "F.json"), "--bound", "x"]]
    runs += [["cofinal", str(invalid)], ["validate", str(surrogate)]]
    for name, h in QUOTIENT_SETS.items():
        path = str(FIXDIR / f"{name}.json")
        for command in ("validate", "aperiodic", "cofinal", "simple", "ideals"):
            runs += [[command, path], [command, path, "--text"]]
        runs += [["quotient", path, "--set", h], ["fixture", name, "--text"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            try:
                main(argv)
            except SystemExit:  # argparse usage errors exit 3 from inside main
                pass
    for name in ("T2", "D2"):
        report = analyze(graph_from_json((FIXDIR / f"{name}.json").read_text()), 2)
        canonical_json(report.to_json())
        # The benchmark audits the graph's own scan and every gauge row.
        for scan in [report.scan] + [scan for _, scan in report.gauge.rows]:
            if scan.periodic:
                t = scan.tuple
                verify_annihilation(t.mu.graph, RepElement.from_tuple(t), sample_family(t.mu.graph, 1))


def test_every_function_is_reached_by_the_product(tmp_path):
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        _drive(tmp_path)
    finally:
        sys.setprofile(None)
    defs = _defs()
    reprs = {name for name in defs.values() if name.endswith(".__repr__")}
    for code in entered:
        defs.pop((Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name), None)
    assert set(defs.values()) == reprs
