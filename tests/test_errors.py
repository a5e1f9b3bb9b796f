"""The library's errors: every raise names one of the classes in `kgraph.errors`."""

import ast
from pathlib import Path

import kgraph
import kgraph.errors

PACKAGE = Path(kgraph.__file__).resolve().parent
ERRORS = {name for name, obj in vars(kgraph.errors).items()
          if isinstance(obj, type) and obj.__module__ == "kgraph.errors"}


def test_every_raise_names_a_library_error():
    # A bare ValueError or KeyError would get past the CLI's exit-3 clause;
    # only a bare `raise`, which re-raises what was caught, is exempt.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in ERRORS):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.exc)}")
    assert found == []
