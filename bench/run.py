"""The kgraph benchmark: one workload in one process, metrics on the last line.

    python3 bench/run.py --workload scan-deep --seed 1 --seconds 20 --trace 0

Run from a checkout holding `src/kgraph`.  The package is driven only
through its public entry points (`kgraph.cli.main` in-process with stdin
and stdout swapped for strings, `analyze`, `verify_annihilation`), single
threaded with `--jobs` unset and `KGRAPH_MAX_VERTICES` removed from the
environment.

A run sets up (imports the package, generates the seeded inputs, parses and
builds every input graph once), then repeats passes over the workload's
requests until `--seconds` have elapsed.  Every request's output is
re-validated after its pass, outside the timed region (see check.py).

Every time the end-to-end metrics report is wall time read at a fixed
reference processor speed (speed.py): the host's speed changes from moment
to moment, and a probe timed every 5 ms while a pass runs tells how fast
it was.  The raw wall times are printed on the lines before the result.

`--trace 0` prints the end-to-end metrics.  `setup_s` is the median over
fresh child processes of the time from spawning the process to the end of
its set-up.  `--trace 1` spends half the time on untraced passes and half
on passes with every public function of the package wrapped (spans.py), and
prints the per-layer metrics of the traced passes, per pass; the spans of
the last traced pass are written to bench/out/.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_RUNS = 5
SCAN_BOUND = 5
CORPUS_BOUND = 2


def import_package():
    """Import kgraph from this checkout's source tree, or exit non-zero."""
    if not (SRC / "kgraph" / "__init__.py").is_file():
        sys.exit(f"bench: package source {SRC / 'kgraph'} not found")
    sys.path.insert(0, str(SRC))
    import kgraph
    import kgraph.cli

    if Path(kgraph.__file__).resolve().parent != (SRC / "kgraph").resolve():
        sys.exit(f"bench: imported kgraph from {kgraph.__file__}, not from {SRC}")
    return kgraph


def load_expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_call(kgraph, argv, stdin_text):
    """kgraph.cli.main(argv) with stdin and stdout swapped for strings."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = kgraph.cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


# -- workloads -----------------------------------------------------------------


class ScanDeep:
    """`kgraph aperiodic` on fixtures F and D2 at --bound 5."""

    def __init__(self, kgraph, seed):
        self.kgraph = kgraph
        self.inputs = inputs.scan_inputs(seed)
        self.digest = inputs.digest(text for _, text in self.inputs)
        # Built once as part of set-up; each request builds its own, as a CLI call does.
        self.graphs = [kgraph.graph_from_json(text) for _, text in self.inputs]

    def requests(self):
        argv = ["aperiodic", "-", "--bound", str(SCAN_BOUND)]
        return [
            (name, lambda text=text: cli_call(self.kgraph, argv, text))
            for name, text in self.inputs
        ]

    def prepare_checks(self, expected):
        table = expected["scan"]
        self.checks = [
            (check.DocGraph(json.loads(text)), table[inputs.text_key(text)])
            for _, text in self.inputs
        ]

    def check(self, i, result):
        rc, out = result
        g, want = self.checks[i]
        check.require(rc == 0, f"exit code {rc}")
        check.check_scan(g, json.loads(out), SCAN_BOUND, want)


def analyze_request(kgraph, g):
    """analyze at bound 2, its JSON without timing, and the annihilation audit."""
    analysis = kgraph.analysis
    report = analysis.analyze(g, bound=CORPUS_BOUND)
    doc = report.to_json()
    del doc["timing"]
    text = kgraph.documents.canonical_json(doc)
    tuples = [report.scan.tuple] if report.scan.periodic else []
    tuples += [scan.tuple for _, scan in report.gauge.rows if scan.periodic]
    audit = all(
        analysis.verify_annihilation(
            t.mu.graph, analysis.RepElement.from_tuple(t), analysis.sample_family(t.mu.graph, 1)
        )
        for t in tuples
    )
    return audit, len(tuples), text


class CorpusAnalyze:
    """analyze(g, bound=2) + canonical JSON + annihilation audit, ~200 small graphs."""

    def __init__(self, kgraph, seed):
        self.kgraph = kgraph
        work = {
            (entry["stratum"], entry["index"]): entry["work"]
            for entry in load_expected()["corpus"].values()
        }
        self.selection = inputs.corpus_selection(seed, work)
        self.texts = [inputs.corpus_pool_entry(s, i) for s, i in self.selection]
        self.digest = inputs.digest(self.texts)
        self.graphs = [kgraph.graph_from_json(text) for text in self.texts]
        self.fresh = True

    def requests(self):
        # Each pass analyzes graphs nobody has queried yet, as one call per
        # graph would: a reused graph keeps its paths_from cache warm.
        if not self.fresh:
            self.graphs = [self.kgraph.graph_from_json(text) for text in self.texts]
        self.fresh = False
        return [
            (str(i), lambda g=g: analyze_request(self.kgraph, g))
            for i, g in enumerate(self.graphs)
        ]

    def prepare_checks(self, expected):
        table = expected["corpus"]
        self.checks = []
        for (stratum, index), text in zip(self.selection, self.texts):
            want = table[f"{stratum}:{index}"]
            self.checks.append((check.DocGraph(json.loads(text)), want, inputs.text_key(text)))

    def check(self, i, result):
        audit, n_tuples, text = result
        g, want, doc_key = self.checks[i]
        check.require(doc_key == want["doc"], "input differs from the one the verdicts were recorded for")
        check.require(audit, f"a periodicity tuple failed the annihilation audit ({n_tuples} tuples)")
        check.check_analysis(g, json.loads(text), CORPUS_BOUND, want)


class PresentationsLarge:
    """validate, cofinal and quotient --set <certificate> on large presentations."""

    def __init__(self, kgraph, seed):
        self.kgraph = kgraph
        self.inputs = inputs.presentations(seed)
        self.digest = inputs.digest(text for _, text in self.inputs)
        # Built once as part of set-up; each request builds its own, as a CLI call does.
        self.graphs = [kgraph.graph_from_json(text) for _, text in self.inputs]

    def prepare_checks(self, expected):
        # Presentations are seeded without a pool, so the expected
        # certificate comes from the checker's own closure computation.
        self.docs = [check.DocGraph(json.loads(text)) for _, text in self.inputs]
        self.certs = [g.least_obstruction() for g in self.docs]

    def requests(self):
        out = []
        for j, (slot, text) in enumerate(self.inputs):
            cert = ",".join(self.certs[j] or [])
            for argv in (["validate", "-"], ["cofinal", "-"], ["quotient", "-", "--set", cert]):
                out.append((f"{slot}:{argv[0]}", lambda a=argv, t=text: cli_call(self.kgraph, a, t)))
        return out

    def check(self, i, result):
        rc, out = result
        j, step = divmod(i, 3)
        g, cert = self.docs[j], self.certs[j]
        report = json.loads(out)
        if step == 0:
            check.require(rc == 0, f"validate exit code {rc}")
            check.check_validate(report)
        elif step == 1:
            check.require(rc == (0 if cert is None else 1), f"cofinal exit code {rc}")
            check.check_cofinality(g, report, cert)
        else:
            check.require(rc == 0, f"quotient exit code {rc}")
            check.check_quotient(g, cert or [], report)


WORKLOADS = {
    "scan-deep": ScanDeep,
    "corpus-analyze": CorpusAnalyze,
    "presentations-large": PresentationsLarge,
}


# -- measuring -----------------------------------------------------------------


class Tally:
    """Requests attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, label, message):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{label}: {message}")


def run_pass(workload, tally, probe, tracer=None):
    """One timed pass, then its checks.

    Returns (pass seconds, request latencies, raw pass wall seconds), the
    first two read at the reference speed.
    """
    requests = workload.requests()
    gc.collect()
    results = []
    stamps = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    probe.start()
    try:
        start = time.perf_counter()
        for i, (_, call) in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                results.append((call(), None))
            except Exception:  # a raising request is a failed request
                results.append((None, traceback.format_exc(limit=3)))
            stamps.append((t0, time.perf_counter()))
        end = time.perf_counter()
    finally:
        probe.stop()
        if tracer is not None:
            tracer.remove()
    elapsed = probe.adjusted(start, end)
    latencies = [probe.adjusted(t0, t1) for t0, t1 in stamps]
    for i, ((label, _), (result, error)) in enumerate(zip(requests, results)):
        tally.attempted += 1
        if error is not None:
            tally.fail(label, error)
            continue
        try:
            workload.check(i, result)
        except Exception as exc:  # any problem in an output fails its request
            tally.fail(label, f"{type(exc).__name__}: {exc}")
    return elapsed, latencies, end - start


def run_passes(workload, tally, seconds, probe, tracer=None, on_pass=None):
    """Passes until `seconds` have gone by (at least one).

    Returns (pass seconds, request latencies, raw pass wall seconds).
    """
    passes, latencies, raw = [], [], []
    start = time.perf_counter()
    while True:
        elapsed, lat, wall = run_pass(workload, tally, probe, tracer)
        passes.append(elapsed)
        latencies += lat
        raw.append(wall)
        if on_pass is not None:
            on_pass()
        if time.perf_counter() - start >= seconds:
            return passes, latencies, raw


def setup_seconds(workload_name, seed, digest):
    """Set-up time of a fresh process, spawn to end of set-up: (reference, raw) seconds.

    The child probes its own speed from the start of main() and reports the
    probe seconds and the mean reference speed on its `ready` line.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload_name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT)) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    words = line.split()
    if rc != 0 or words[:2] != ["ready", digest] or len(words) != 4:
        raise RuntimeError(f"set-up run failed: exit {rc}, said {line!r}")
    busy, speed = float(words[2]), float(words[3])
    return (elapsed - busy) * speed, elapsed


def quantile(values, q):
    """q-quantile (0 < q < 1) by the inclusive method, as statistics computes it."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(totals, n, untraced_pass_s, traced_pass_s):
    """Per-layer metrics, per pass, from the totals of n traced passes (see NOTES.md)."""
    spans = totals.totals

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / n

    def incl(*names):
        return sum(spans.get(x, (0, 0.0, 0.0))[1] for x in names) / n

    def own(*names):
        return sum(spans.get(x, (0, 0.0, 0.0))[2] for x in names) / n

    def own_module(prefix):
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix)) / n

    def calls_module(prefix):
        return sum(v[0] for k, v in spans.items() if k.startswith(prefix)) / n

    triple = "periodicity.local_periodicity_at"
    pf_calls = calls("factorization.KGraph.paths_from")
    triples = calls(triple)
    s, cnt, ratio = "s", "count", "ratio"
    return {
        "documents.parse_s": metric(incl("documents.load_graph_document"), s),
        "documents.canonical_json_s": metric(incl("documents.canonical_json"), s),
        "skeleton.validate_s": metric(incl("skeleton.Skeleton.validate"), s),
        "factorization.validate_squares_s": metric(incl("factorization.validate_squares"), s),
        "factorization.validate_cubes_s": metric(incl("factorization.validate_cubes"), s),
        "factorization.factor_calls": metric(calls("factorization.factor"), cnt),
        "factorization.factor_s": metric(incl("factorization.factor"), s),
        "factorization.compose_calls": metric(calls("factorization.compose"), cnt),
        "factorization.compose_s": metric(incl("factorization.compose"), s),
        "factorization.segment_calls": metric(calls("factorization.segment"), cnt),
        "factorization.segment_s": metric(incl("factorization.segment"), s),
        "factorization.paths_from_calls": metric(pf_calls, cnt),
        "factorization.paths_from_hit_ratio": metric(
            1.0 - totals.misses_total / n / pf_calls if pf_calls else 0.0, ratio
        ),
        "degrees.calls": metric(calls_module("degrees."), cnt),
        "degrees.self_s": metric(own_module("degrees."), s),
        "periodicity.triple_calls": metric(triples, cnt),
        "periodicity.triple_s": metric(incl(triple), s),
        "periodicity.seed_s": metric(totals.under_totals["seed"] / n, s),
        "periodicity.propagate_s": metric(totals.under_totals["propagate"] / n, s),
        "periodicity.certify_s": metric(
            incl("periodicity.AperiodicityWitness.__init__", "periodicity.PeriodicityTuple.__init__"), s
        ),
        "periodicity.distinct_triple_ratio": metric(
            totals.distinct_total / n / triples if triples else 0.0, ratio
        ),
        "scan.calls": metric(calls("periodicity.scan_aperiodicity"), cnt),
        "scan.self_s": metric(own("periodicity.scan_aperiodicity"), s),
        "ideals.closure_calls": metric(calls("ideals.sat_her_closure"), cnt),
        "ideals.closure_s": metric(incl("ideals.sat_her_closure"), s),
        "ideals.cofinal_s": metric(incl("ideals.is_cofinal"), s),
        "ideals.enumerate_s": metric(incl("ideals.enumerate_sat_her"), s),
        "ideals.quotient_self_s": metric(own("ideals.quotient"), s),
        "infinite.ep_equal_calls": metric(calls("infinite.ep_equal"), cnt),
        "infinite.ep_equal_s": metric(incl("infinite.ep_equal"), s),
        "analysis.audit_s": metric(incl("analysis.verify_annihilation"), s),
        "analysis.analyze_self_s": metric(own("analysis.analyze"), s),
        "analysis.gauge_s": metric(incl("analysis.all_ideals_gauge_invariant"), s),
        "cli.main_self_s": metric(own_module("cli."), s),
        "trace.overhead_ratio": metric(traced_pass_s / untraced_pass_s, ratio),
    }


class LayerTotals:
    """Span totals summed over traced passes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.totals = {}
        self.under_totals = {"seed": 0.0, "propagate": 0.0}
        self.misses_total = 0
        self.distinct_total = 0

    def add_pass(self):
        tracer = self.tracer
        summary, name, parent, dur = tracer.summary()
        for label, (c, i, o) in summary.items():
            c0, i0, o0 = self.totals.get(label, (0, 0.0, 0.0))
            self.totals[label] = (c0 + c, i0 + i, o0 + o)
        triple = "periodicity.local_periodicity_at"
        self.under_totals["seed"] += tracer.time_under(["factorization.segment"], triple, name, parent, dur)
        self.under_totals["propagate"] += tracer.time_under(
            ["factorization.compose", "factorization.factor"], triple, name, parent, dur
        )
        self.misses_total += tracer.paths_from_misses
        self.distinct_total += len(tracer.triples)


def measure(args, kgraph, workload, tally):
    """Timed passes for the chosen mode; returns the metrics dict."""
    probe = SpeedProbe()
    if not args.trace:
        setups, setups_raw = zip(*(setup_seconds(args.workload, args.seed, workload.digest) for _ in range(SETUP_RUNS)))
        passes, latencies, raw = run_passes(workload, tally, args.seconds, probe)
        print(f"passes {len(passes)} requests {len(latencies)} set-up runs {len(setups)}")
        print(f"raw wall: pass_s median {statistics.median(raw):.4f} setup_s median {statistics.median(setups_raw):.4f}")
        return {
            "setup_s": metric(statistics.median(setups), "s"),
            "pass_s": metric(statistics.median(passes), "s"),
            "request_p50_ms": metric(1000 * quantile(latencies, 0.5), "ms"),
            "request_p90_ms": metric(1000 * quantile(latencies, 0.9), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    plain, _, _ = run_passes(workload, tally, args.seconds / 2, probe)
    tracer = Tracer()
    totals = LayerTotals(tracer)
    traced, _, _ = run_passes(workload, tally, args.seconds / 2, probe, tracer, on_pass=totals.add_pass)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    print(f"untraced passes {len(plain)} traced passes {len(traced)} spans in last pass {len(tracer.span_name)}")
    return layer_metrics(totals, len(traced), statistics.median(plain), statistics.median(traced))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("KGRAPH_MAX_VERTICES", None)

    if args.setup_only:
        probe = SpeedProbe()
        probe.start()
        t0 = time.perf_counter()
    kgraph = import_package()
    workload = WORKLOADS[args.workload](kgraph, args.seed)
    if args.setup_only:
        t1 = time.perf_counter()
        probe.stop()
        busy, speed = probe.stretch(t0, t1)
        print("ready", workload.digest, repr(busy), repr(speed), flush=True)
        return 0
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {workload.digest}")
    workload.prepare_checks(load_expected())
    tally = Tally()
    metrics = measure(args, kgraph, workload, tally)
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
