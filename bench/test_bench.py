"""Self-check of the benchmark at a tiny size.

    python3 -m pytest bench -q

Confirms that every metric BENCHMARK.json names is emitted by every
workload (traced and untraced), that no request fails at this package
version, that a fixed seed reproduces the recorded input digests, that the
checker rejects a corrupted certificate, and that the benchmark refuses to
run without the package source beside it.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SEED = 7
# inputs.digest of each workload's documents for SEED; a change here means
# the generators changed and every baseline taken with them is void.
DIGESTS = {
    "scan-deep": "60036f105fc24224c468f65144e51e72aa795a59ab3efc30cf2bda8a0f360e04",
    "corpus-analyze": "f172bab5fcb51d27a8101120106844d973b06507e0f9d636ddd56c3ff46cbf11",
    "presentations-large": "91b2c18d7fbb9a1af9a7fc0a93d0d986bb34fac939f99839222288d22b62fccc",
}
TINY_REQUESTS = 3


@pytest.fixture(scope="module")
def kgraph():
    return run.import_package()


@pytest.fixture(scope="module")
def spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_emitted_without_failures(kgraph, spec, monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "SCAN_BOUND", 2)  # F and D2 stay aperiodic below bound 5
    workload = run.WORKLOADS[name](kgraph, SEED)
    workload.prepare_checks(run.load_expected())
    full = workload.requests
    monkeypatch.setattr(workload, "requests", lambda: full()[:TINY_REQUESTS])
    tally = run.Tally()
    args = argparse.Namespace(workload=name, seed=SEED, seconds=0, trace=trace)
    metrics = run.measure(args, kgraph, workload, tally)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in metrics.values())
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_fixed_seed_reproduces_input_digest(kgraph, name):
    first = run.WORKLOADS[name](kgraph, SEED).digest
    assert first == run.WORKLOADS[name](kgraph, SEED).digest == DIGESTS[name]


def test_checker_rejects_corrupted_witness(kgraph):
    _, text = inputs.scan_inputs(SEED)[0]
    rc, out = run.cli_call(kgraph, ["aperiodic", "-", "--bound", "1"], text)
    report = json.loads(out)
    g = check.DocGraph(json.loads(text))
    check.check_scan(g, report, 1, ["aperiodic"])
    witness = report["witnesses"][0]["witness"]
    witness["segment_n"] = witness["segment_m"]
    with pytest.raises(check.CheckError):
        check.check_scan(g, report, 1, ["aperiodic"])


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
