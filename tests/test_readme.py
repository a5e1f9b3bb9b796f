"""README's examples run as written.

The `python` block under "Library" runs from the repository root and
must print the line its comment promises; the `kgraph fixture T2 |
kgraph simple - --bound 1 --text` round trip runs in-process and must
print the `summary:` line the README shows.
"""

import io
import re
import sys
from pathlib import Path

from kgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_library_example(capsys, monkeypatch):
    (code,) = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)
    assert "print(verdict.text())        # Simple (up to bound 2)" in code
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "Simple (up to bound 2)\n"


def test_round_trip(capsys, monkeypatch):
    assert "kgraph fixture T2 | kgraph simple - --bound 1 --text\n" in README
    shown = re.search(r"^summary: .*$", README, flags=re.M).group()
    assert main(["fixture", "T2"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(["simple", "-", "--bound", "1", "--text"]) == 1
    assert shown in capsys.readouterr().out.splitlines()
