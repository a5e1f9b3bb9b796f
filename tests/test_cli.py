"""Command-line behavior: exit codes, report shapes, text rendering."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgraph.errors
import kgraph.ideals
from kgraph.cli import main, render_text
from kgraph.documents import canonical_json
from kgraph.skeleton import ValidationReport

from generators import exchanged_tables, k3_products, wide_graph
from oracles import dump_graph_document

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def fixture_path(name):
    return str(FIXDIR / f"{name}.json")


class TestFixtureCommand:
    @pytest.mark.parametrize("name", ["T2", "F", "D", "D2"])
    def test_matches_checked_in_file(self, capsys, name):
        code, out, _ = run(capsys, "fixture", name)
        assert code == 0
        assert out == (FIXDIR / f"{name}.json").read_text()

    def test_unknown_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fixture", "T3"])
        assert info.value.code == 3

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kgraph.cli", "fixture", "T2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == (FIXDIR / "T2.json").read_text()


def test_import_loads_no_numpy():
    # The library is stdlib-only; numpy alone would double the start-up time.
    code = "import sys, kgraph, kgraph.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestValidate:
    def test_valid_graph(self, capsys):
        code, data, _ = run_json(capsys, "validate", fixture_path("F"))
        assert code == 0
        assert data["verdict"] == "valid"
        assert len(data["reports"]) == 3

    def test_unsound_square_table(self, capsys, tmp_path):
        doc = json.loads((FIXDIR / "T2.json").read_text())
        doc["squares"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, data, _ = run_json(capsys, "validate", str(bad))
        assert code == 1
        assert data["verdict"] == "invalid"
        # skeleton report passed, square report did not, cubes never ran
        assert len(data["reports"]) == 2

    def test_junk_square_image(self, capsys, tmp_path):
        doc = json.loads((FIXDIR / "T2.json").read_text())
        doc["squares"][0]["image"] = ["q", "q"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, data, _ = run_json(capsys, "validate", str(bad))
        assert code == 1
        assert data["verdict"] == "invalid"
        assert data["reports"][1]["violations"] == [
            "colors (1,2): composable pair ('r', 'b') is not the image of any square (first of 1)",
            "square ('b', 'r'): unknown edge id(s) ['q', 'q']",
        ]

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("error: line 1 column ")

    def test_large_rank_report_is_short(self, capsys, monkeypatch):
        doc = {"k": 100_000, "vertices": ["v"], "edges": [], "squares": []}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, data, _ = run_json(capsys, "validate", "-")
        assert code == 1
        (report,) = data["reports"]
        assert report["violations"] == ["rank: k = 100000 but 0 edge(s), so some color has none"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 3
        assert "error:" in err

    def test_broken_cube_is_named_by_its_ascending_order(self, capsys, tmp_path):
        # Exchanging the images of two squares in one block of a k = 3
        # product keeps every square a bijection but breaks some cubes.
        g = k3_products(1)[0]
        table = next(exchanged_tables(g))
        bad = tmp_path / "bad.json"
        bad.write_text(canonical_json(dump_graph_document(g.skeleton, table)))
        code, data, _ = run_json(capsys, "validate", str(bad))
        assert code == 1
        assert data["verdict"] == "invalid"
        skeleton_report, squares_report, cubes_report = data["reports"]
        assert skeleton_report["ok"] and squares_report["ok"]
        assert not cubes_report["ok"]
        for problem in cubes_report["violations"]:
            triple = problem[len("cube (") : problem.index(")")].split(",")
            assert [g.skeleton.edges[e].color for e in triple] == [1, 2, 3], problem


class TestScans:
    def test_periodic_graph_exits_one(self, capsys):
        code, data, _ = run_json(capsys, "aperiodic", fixture_path("T2"), "--bound", "1")
        assert code == 1
        assert data["verdict"] == "periodic"
        assert data["bound"] == 1
        assert data["p"] == [-1, -1]

    def test_aperiodic_graph_exits_zero(self, capsys):
        code, data, _ = run_json(capsys, "aperiodic", fixture_path("F"), "--bound", "1")
        assert code == 0
        assert data["verdict"] == "aperiodic"
        assert data["bound"] == 1

    def test_deep_bound_decides_without_recursion_error(self, capsys):
        code, data, _ = run_json(capsys, "aperiodic", fixture_path("T2"), "--bound", "520")
        assert code == 1
        assert data["verdict"] == "periodic"
        assert data["p"] == [-520, -520]

    def test_default_bound_is_reported(self, capsys):
        code, data, _ = run_json(capsys, "aperiodic", fixture_path("T2"))
        assert code == 1
        assert data["bound"] == 2

    def test_structurally_invalid_input_exits_three(self, capsys, tmp_path):
        doc = json.loads((FIXDIR / "T2.json").read_text())
        doc["squares"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "aperiodic", str(bad))
        assert code == 3
        assert out == ""
        assert err


class TestSimple:
    def test_f_simple(self, capsys):
        code, data, _ = run_json(capsys, "simple", fixture_path("F"), "--bound", "2")
        assert code == 0
        assert data["summary"] == "Simple (up to bound 2)"
        assert data["bound"] == 2

    def test_t2_not_simple(self, capsys):
        code, data, _ = run_json(capsys, "simple", fixture_path("T2"), "--bound", "1")
        assert code == 1
        assert data["verdict"] == "not_simple"
        assert data["reason"] == "locally_periodic"

    def test_d_not_cofinal(self, capsys):
        code, data, _ = run_json(capsys, "simple", fixture_path("D"))
        assert code == 1
        assert data["reason"] == "not_cofinal"
        assert data["not_cofinal"] == ["u"]


class TestCofinal:
    def test_cofinal_graph(self, capsys):
        code, data, _ = run_json(capsys, "cofinal", fixture_path("F"))
        assert code == 0
        assert data == {"verdict": "cofinal"}

    def test_obstructed_graph(self, capsys):
        code, data, _ = run_json(capsys, "cofinal", fixture_path("D"))
        assert code == 1
        assert data == {"verdict": "not_cofinal", "certificate": ["u"]}

    def test_reads_standard_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO((FIXDIR / "F.json").read_text()))
        code, data, _ = run_json(capsys, "cofinal", "-")
        assert code == 0
        assert data["verdict"] == "cofinal"


class TestIdeals:
    def test_d_lattice(self, capsys):
        code, data, _ = run_json(capsys, "ideals", fixture_path("D"))
        assert code == 0
        assert data == {"count": 4, "sets": [[], ["u"], ["w"], ["u", "w"]]}

    def test_d2_lattice(self, capsys):
        code, data, _ = run_json(capsys, "ideals", fixture_path("D2"))
        assert code == 0
        assert data["sets"] == [[], ["u"], ["u", "w"]]

    def test_more_than_20_vertices(self, capsys, tmp_path):
        g = wide_graph()
        path = tmp_path / "big.json"
        path.write_text(canonical_json(dump_graph_document(g.skeleton, g.squares)))
        code, data, _ = run_json(capsys, "ideals", str(path))
        assert code == 0
        assert len(g.vertices) == 32 and data["count"] == 64

    @pytest.mark.parametrize("limit, code", [(4, 0), (3, 3)])
    def test_lattice_over_the_limit_exits_3(self, capsys, monkeypatch, limit, code):
        monkeypatch.setattr(kgraph.ideals, "ENUM_LIMIT", limit)
        assert run(capsys, "ideals", fixture_path("D"))[0] == code


class TestQuotient:
    def test_collapse_d2(self, capsys):
        code, data, _ = run_json(capsys, "quotient", fixture_path("D2"), "--set", "u")
        assert code == 0
        assert data["vertices"] == ["w"]
        assert [e["id"] for e in data["edges"]] == ["bw", "rw"]
        assert data["squares"] == [{"pair": ["bw", "rw"], "image": ["rw", "bw"]}]

    def test_empty_set_reprints_the_graph(self, capsys):
        code, out, _ = run(capsys, "quotient", fixture_path("D"), "--set", "")
        assert code == 0
        assert out == (FIXDIR / "D.json").read_text()

    def test_non_hereditary_set(self, capsys):
        code, data, _ = run_json(capsys, "quotient", fixture_path("D2"), "--set", "w")
        assert code == 1
        assert data["verdict"] == "error"

    def test_full_set(self, capsys):
        code, data, _ = run_json(capsys, "quotient", fixture_path("T2"), "--set", "v")
        assert code == 1
        assert data["verdict"] == "error"

    def test_non_saturated_set(self, capsys, tmp_path):
        # l: a <- a and e: b <- a; {a} is hereditary, but b's one edge comes from a.
        edges = [
            {"id": "l", "color": 1, "range": "a", "source": "a"},
            {"id": "e", "color": 1, "range": "b", "source": "a"},
        ]
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"k": 1, "vertices": ["a", "b"], "edges": edges, "squares": []}))
        code, data, _ = run_json(capsys, "quotient", str(path), "--set", "a")
        assert code == 1
        assert data == {"message": "['a'] is not saturated", "verdict": "error"}

    def test_names_are_taken_as_written(self, capsys, tmp_path):
        # ' u' is not the vertex u of D; in a graph with both a and ' a',
        # ' a' deletes ' a' and leaves a, the sets that `ideals` names.
        code, out, err = run(capsys, "quotient", fixture_path("D"), "--set", " u")
        assert (code, out, err) == (3, "", "error: unknown vertex ' u'\n")
        edges = [
            {"id": "e", "color": 1, "range": "a", "source": "a"},
            {"id": "f", "color": 1, "range": " a", "source": " a"},
        ]
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"k": 1, "vertices": ["a", " a"], "edges": edges, "squares": []}))
        code, data, _ = run_json(capsys, "ideals", str(path))
        assert data["sets"] == [[], [" a"], ["a"], [" a", "a"]]
        code, data, _ = run_json(capsys, "quotient", str(path), "--set", " a")
        assert code == 0
        assert data["vertices"] == ["a"] and [e["id"] for e in data["edges"]] == ["e"]

    def test_unknown_vertex_is_unusable_input(self, capsys):
        code, out, err = run(capsys, "quotient", fixture_path("D"), "--set", "zz,u,yy")
        assert code == 3
        assert out == ""
        assert err == "error: unknown vertex 'zz'\nerror: unknown vertex 'yy'\n"


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 3

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["simple", "x.json", "--frobnicate"])
        assert info.value.code == 3

    @pytest.mark.parametrize("command", ["aperiodic", "simple"])
    def test_jobs_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, fixture_path("F"), "--jobs", "2"])
        assert info.value.code == 3
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    # argparse before Python 3.13 stores [] for a lone `--` value without
    # calling `type`; 3.13 rejects the bound itself.
    @pytest.mark.parametrize(
        "argv",
        [["aperiodic", "F", "--bound=--"], ["simple", "F", "--bound=--"], ["quotient", "D", "--set=--"]],
        ids=["aperiodic", "simple", "quotient"],
    )
    def test_double_dash_value_exits_3(self, capsys, argv):
        command, name, flag = argv
        try:
            code = main([command, fixture_path(name), flag])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert "Traceback" not in out.err
        if command == "quotient":
            assert out.err == "error: unknown vertex '--'\n"

    def test_non_integer_bound(self):
        with pytest.raises(SystemExit) as info:
            main(["simple", "x.json", "--bound", "soon"])
        assert info.value.code == 3

    # an integer bound below 1 passes argparse but is still bad input,
    # not a scan verdict
    def test_zero_bound_exits_3(self, capsys):
        code, _, err = run(capsys, "aperiodic", fixture_path("T2"), "--bound", "0")
        assert code == 3
        assert err.startswith("error: ")

    # D is not cofinal, so `simple` never reaches its scan: the bound is
    # checked before cofinality
    @pytest.mark.parametrize("name", ["F", "D"])
    def test_zero_bound_on_simple_exits_3(self, capsys, name):
        code, _, err = run(capsys, "simple", fixture_path(name), "--bound", "0")
        assert code == 3
        assert err.startswith("error: ")

    # rejected before the scan builds a vector; the stub proves it
    @pytest.mark.parametrize(
        "command, name",
        [("aperiodic", "T2"), ("simple", "T2"), ("simple", "D")],
        ids=["aperiodic", "simple", "simple-D"],
    )
    def test_bound_past_max_entry_exits_3(self, capsys, monkeypatch, command, name):
        import kgraph.periodicity as periodicity

        def refuse(*args):
            raise AssertionError("the scan built difference vectors")

        monkeypatch.setattr(periodicity, "signed_vectors", refuse)
        code, _, err = run(capsys, command, fixture_path(name), "--bound", "3000000000")
        assert code == 3
        assert err.startswith("error: ")
        assert "2147483647" in err


def test_out_of_memory_exits_3_without_a_traceback(capsys, monkeypatch):
    # Exit 1 means "fails, certificate attached"; running out of memory
    # is input too big for the implementation.
    import kgraph.cli as cli

    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "scan_aperiodicity", exhaust)
    code, out, err = run(capsys, "aperiodic", fixture_path("F"), "--bound", "10000000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def _library_errors(cls=kgraph.errors.KGraphError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _library_errors(sub)


@pytest.mark.parametrize("error", list(_library_errors()), ids=lambda cls: cls.__name__)
def test_every_library_error_exits_3_without_a_traceback(capsys, monkeypatch, error):
    # One clause maps every error the library raises on purpose to exit 3,
    # so none that a command reaches can end in a traceback and exit 1.
    import kgraph.cli as cli

    problems = ["first", "second"]
    if error is kgraph.errors.DocumentError:
        exc = error(problems)
    elif error is kgraph.errors.ValidationError:
        exc = error(ValidationReport("skeleton", problems))
    else:
        exc, problems = error("first"), ["first"]

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_validate", fail)
    code, out, err = run(capsys, "validate", fixture_path("T2"))
    assert (code, out) == (3, "")
    assert err == "".join(f"error: {p}\n" for p in problems)


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors exit 3 from inside main
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_reused_parser_carries_nothing_between_calls(capsys):
    # `main` builds its parser once per process; each call must answer as
    # it would on a parser built for it alone.
    import kgraph.cli as cli

    f, d, t2 = fixture_path("F"), fixture_path("D"), fixture_path("T2")
    calls = [
        ["aperiodic", f, "--bound", "3"], ["aperiodic", f],
        ["simple", d, "--text"], ["simple", d],
        ["aperiodic", f, "--bound", "1.5"],
        ["quotient", d, "--set", "u"], ["quotient", t2, "--set", ""],
        ["validate", t2], ["fixture", "D2", "--text"],
    ]
    reused = [_outcome(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    code, out, err = reused[4]
    assert (code, out) == (3, "") and err.startswith("usage: kgraph aperiodic")
    assert cli.build_parser() is cli.build_parser()


READING_COMMANDS = [
    ["validate"],
    ["aperiodic"],
    ["cofinal"],
    ["simple"],
    ["ideals"],
    ["quotient", "--set", ""],
]


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", READING_COMMANDS, ids=lambda c: c[0])
def test_bytes_that_are_not_utf8_exit_3(capsys, monkeypatch, tmp_path, command, source):
    raw = b"\xff\xfe{}"
    if source == "file":
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        name = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        name = "-"
    code, out, err = run(capsys, command[0], name, *command[1:])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {name}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_deep_nesting_exits_3_without_a_traceback(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "\n")
    code, out, err = run(capsys, "simple", str(path))
    assert code == 3
    assert out == ""
    assert err == "error: document: nested too deeply to parse\n"


SURROGATE_ID = (
    r'{"k": 1, "vertices": ["\ud800"], "squares": [],'
    r' "edges": [{"id": "e", "color": 1, "range": "\ud800", "source": "\ud800"}]}'
)
UNUSABLE_DOCUMENTS = {
    # json.loads refuses an integer literal over the interpreter's digit limit with a ValueError.
    "long_integer": (
        '{"k": ' + "1" * 5000 + ', "vertices": [], "edges": [], "squares": []}',
        "error: document: an integer has too many digits to parse\n",
    ),
    # A lone surrogate decodes from JSON but cannot be written as UTF-8 by --text.
    "lone_surrogate": (
        SURROGATE_ID,
        "error: vertices[0]: '\\ud800' holds a lone surrogate\n"
        "error: edges[0].range: '\\ud800' holds a lone surrogate\n"
        "error: edges[0].source: '\\ud800' holds a lone surrogate\n",
    ),
}


@pytest.mark.parametrize("command", READING_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("name", sorted(UNUSABLE_DOCUMENTS))
def test_unusable_document_exits_3(capsys, tmp_path, name, command):
    text, expected = UNUSABLE_DOCUMENTS[name]
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command[0], str(path), *command[1:], "--text")
    assert code == 3
    assert out == ""
    assert err == expected


@pytest.mark.parametrize("name", sorted(UNUSABLE_DOCUMENTS))
def test_unusable_document_exits_3_in_a_process(tmp_path, name):
    # The --text crash happened when writing to a real UTF-8 standard output.
    path = tmp_path / "bad.json"
    path.write_text(UNUSABLE_DOCUMENTS[name][0])
    for argv in (["validate", str(path)], ["ideals", str(path), "--text"]):
        proc = subprocess.run(
            [sys.executable, "-m", "kgraph.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


def test_undecodable_standard_input_exits_3_in_a_process():
    # In UTF-8 mode (as in the C and POSIX locales) standard input decodes
    # with surrogateescape: byte 0xff arrives as a lone surrogate, no \u escape.
    data = SURROGATE_ID.replace(r"\ud800", "\udcff").encode("utf-8", "surrogateescape")
    assert b"\xff" in data and b"\\u" not in data
    env = dict(os.environ, PYTHONUTF8="1")
    for argv in (["validate", "-"], ["ideals", "-", "--text"]):
        proc = subprocess.run(
            [sys.executable, "-m", "kgraph.cli", *argv],
            input=data,
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr == (
            b"error: vertices[0]: '\\udcff' holds a lone surrogate\n"
            b"error: edges[0].range: '\\udcff' holds a lone surrogate\n"
            b"error: edges[0].source: '\\udcff' holds a lone surrogate\n"
        )


def test_standard_input_is_utf_8_under_any_locale_encoding():
    # Decoded as Latin-1, byte 0xff would be the id "\xff" and the document
    # valid; the same file given by path exits 3, and so must standard input.
    data = SURROGATE_ID.replace(r"\ud800", "\udcff").encode("utf-8", "surrogateescape")
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUTF8"}
    env["PYTHONIOENCODING"] = "latin-1"
    for argv in (["validate", "-"], ["ideals", "-", "--text"]):
        proc = subprocess.run(
            [sys.executable, "-m", "kgraph.cli", *argv],
            input=data,
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith(b"error: ") for line in lines)


def test_surrogate_pair_is_one_character(capsys, tmp_path):
    # An escaped pair decodes to one astral character, which prints.
    path = tmp_path / "astral.json"
    path.write_text(SURROGATE_ID.replace(r"\ud800", r"\ud83d\ude00"))
    code, out, err = run(capsys, "ideals", str(path), "--text")
    assert code == 0
    assert err == ""
    assert "\U0001f600" in out


FORGING_ID = "a\nerror: x"


@pytest.mark.parametrize("command", [["ideals"], ["quotient", "--set=b"]], ids=lambda c: c[0])
def test_text_quotes_an_id_holding_a_line_break(capsys, tmp_path, command):
    # {b} is hereditary: the only edge with range b is b's loop.
    doc = {
        "k": 1,
        "vertices": [FORGING_ID, "b"],
        "edges": [
            {"id": "e", "color": 1, "range": FORGING_ID, "source": FORGING_ID},
            {"id": "f", "color": 1, "range": "b", "source": "b"},
            {"id": "g", "color": 1, "range": FORGING_ID, "source": "b"},
        ],
        "squares": [],
    }
    path = tmp_path / "forging.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(path), *command[1:], "--text")
    assert (code, err) == (0, "")
    assert not [line for line in out.splitlines() if line.lstrip().startswith("error:")]
    assert '- "a\\nerror: x"' in out


class _FailingStdout:
    """A standard output whose writes raise `error`; its descriptor is a scratch file's."""

    def __init__(self, error, target):
        self.error = error
        self.target = target

    def write(self, text):
        raise self.error

    def fileno(self):
        return self.target.fileno()


@pytest.mark.parametrize(
    "error",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left on device")],
    ids=["closed-pipe", "full-disk"],
)
def test_unwritable_report_exits_3(capsys, monkeypatch, tmp_path, error):
    # F is cofinal: exit 1 would claim it is not, with no report to show.
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(error, target))
        code = main(["cofinal", fixture_path("F")])
    assert code == 3
    assert capsys.readouterr().err == f"error: cannot write the report: {error.strerror}\n"


@pytest.mark.parametrize(
    "sink, reason",
    [
        ("closed-pipe", "Broken pipe"),
        pytest.param(
            "/dev/full",
            "No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
    ids=["closed-pipe", "full-disk"],
)
def test_unwritable_report_exits_3_in_a_process(sink, reason):
    if sink == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)  # no reader from the start, so the first write fails
    else:
        stdout = os.open(sink, os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kgraph.cli", "cofinal", fixture_path("F")],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 3
    assert proc.stderr == f"error: cannot write the report: {reason}\n"


ACCENTED_ID = {
    "k": 1,
    "vertices": ["\u00e9"],
    "edges": [{"id": "e", "color": 1, "range": "\u00e9", "source": "\u00e9"}],
    "squares": [],
}


@pytest.mark.parametrize(
    "argv, closed, env, expected",
    [
        (["validate", "-"], 0, {}, "error: -: standard input is closed\n"),
        (
            ["validate", fixture_path("F")],
            1,
            {},
            "error: cannot write the report: standard output is closed\n",
        ),
        (
            ["ideals", "{tmp}/accented.json", "--text"],
            None,
            {"PYTHONIOENCODING": "ascii"},
            "error: cannot write the report: the output encoding ascii cannot hold '\\xe9'\n",
        ),
        (["validate", "{tmp}/missing.json"], 2, {}, ""),
    ],
    ids=["closed-stdin", "closed-stdout", "ascii-text-output", "closed-stderr"],
)
def test_unusable_standard_stream_exits_3_in_a_process(tmp_path, argv, closed, env, expected):
    # Each of these once ended in a traceback and exit 1, which claims "fails";
    # with standard error closed, the exit code is all that can tell.
    (tmp_path / "accented.json").write_text(json.dumps(ACCENTED_ID))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "kgraph.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, **env),
        preexec_fn=None if closed is None else lambda: os.close(closed),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == expected


class TestTextRendering:
    # An aperiodic scan's JSON comes from its row writer, a graph document's from
    # graph_document_text, and any other report's from canonical_json; --text renders
    # the object that printed text holds.
    @pytest.mark.parametrize(
        "argv, holds, line",
        [
            pytest.param(["simple", "F", "--bound", "2"], True, "summary: Simple (up to bound 2)", id="simple"),
            pytest.param(["aperiodic", "F", "--bound", "2"], True, "verdict: aperiodic", id="aperiodic"),
            pytest.param(["aperiodic", "T2", "--bound", "1"], False, "verdict: periodic", id="periodic"),
            *[pytest.param(["aperiodic", name, "--bound", "5"], True, "verdict: aperiodic", id=f"aperiodic-{name}-5")
              for name in ("F", "D2")],
            *[pytest.param([command, name], None, None, id=f"{command}-{name}")
              for command in ("validate", "cofinal", "ideals", "fixture") for name in ("T2", "F", "D", "D2")],
            *[pytest.param(["quotient", name, "--set", "u"], None, None, id=f"quotient-{name}") for name in ("D", "D2")],
        ],
    )
    def test_mirrors_the_json_object(self, capsys, argv, holds, line):
        command, name, *rest = argv
        argv = [command, name if command == "fixture" else fixture_path(name), *rest]
        json_code, data, _ = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--text")
        assert code == json_code
        if holds is not None:
            assert code == (0 if holds else 1)
        assert out.splitlines() == render_text(data)
        if line is not None:
            assert line in out.splitlines()

    def test_lists_render_as_items(self):
        lines = render_text({"xs": [1, {"a": 2}]})
        assert lines == ["xs:", "  - 1", "  -", "    a: 2"]

    def test_scalar_roundtrip(self):
        assert render_text(["plain id", "\u00e9t\u00e9"]) == ["- plain id", "- \u00e9t\u00e9"]
        assert render_text({"id": "a\rb\x1b"}) == ['id: "a\\rb\\u001b"']


FIXTURE_NAMES = ("T2", "F", "D", "D2")
FIXTURE_TEXTS = {name: (FIXDIR / f"{name}.json").read_text() for name in FIXTURE_NAMES}
VERTEX_NAMES = sorted({v for text in FIXTURE_TEXTS.values() for v in json.loads(text)["vertices"]})


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


@st.composite
def garbled(draw):
    """A fixture document as is, truncated, or with one character changed."""
    text = FIXTURE_TEXTS[draw(st.sampled_from(FIXTURE_NAMES))]
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["as is", "truncated", "replaced", "dropped", "inserted"]))
    if how == "truncated":
        return text[:at]
    if how == "replaced":
        return text[:at] + draw(st.characters()) + text[at + 1 :]
    if how == "dropped":
        return text[:at] + text[at + 1 :]
    if how == "inserted":
        return text[:at] + draw(st.characters()) + text[at:]
    return text


# Integer bounds stay small or pass the entry cap, where the scan refuses
# before any work; other text never parses as an int.
BOUNDS = (
    st.none()
    | st.integers(-3, 3).map(str)
    | st.integers(2**31, 2**64).map(str)
    | st.text(max_size=4).filter(_not_an_int)
    | st.just("--")
)
SETS = (
    st.lists(st.sampled_from(VERTEX_NAMES + ["zz", "", " "]), max_size=4).map(",".join)
    | st.text(max_size=4)
    | st.just("--")
)
FILES = st.sampled_from(["-", "missing.json"] + [f"fixtures/{name}.json" for name in FIXTURE_NAMES])


@st.composite
def invocations(draw):
    """(argv, stdin text) for one CLI run."""
    command = draw(
        st.sampled_from(["validate", "aperiodic", "cofinal", "simple", "ideals", "quotient", "fixture"])
    )
    if command == "fixture":
        argv = [command, draw(st.sampled_from(list(FIXTURE_NAMES) + ["T3", ""]))]
    else:
        name = draw(FILES)
        argv = [command, name if name == "-" else str(FIXDIR.parent / name)]
    bound = draw(BOUNDS)
    if command in ("aperiodic", "simple") and bound is not None:
        argv.append(f"--bound={bound}")
    if command == "quotient":
        argv.append(f"--set={draw(SETS)}")
    if draw(st.booleans()):
        argv.append("--text")
    return argv, draw(garbled())


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(invocations())
def test_every_run_exits_0_1_or_3_without_a_traceback(invocation):
    argv, stdin_text = invocation
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    assert code in (0, 1, 3), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
