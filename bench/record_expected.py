"""Record the verdicts the benchmark expects, as this package version gives them.

    python3 bench/record_expected.py

Writes bench/expected.json:

* "scan": for each scan-deep document, the pinned part of its
  `kgraph aperiodic --bound 5` report (the verdict, and on a periodic hit
  its vertex and p).
* "corpus": for each graph of the corpus pool, keyed "stratum:index", a
  hash of its document (so a changed generator is caught), the pinned verdicts of `analyze(g, bound=2)` (scan verdict and hit, the
  cofinality certificate, the gauge offender H), and `work`, the number of
  package calls the request makes, which `inputs.corpus_selection` uses to
  draw seeds of equal weight.

Every certificate is re-validated by check.py before it is recorded.  The
file is data of the benchmark: re-record it only in a change to the
benchmark itself, never in a change that claims a speedup.
"""

import json
import sys

import check
import inputs
import run
from spans import Tracer


def dump_table(tables):
    """JSON with one line per entry, so a re-recording diffs line by line."""
    parts = []
    for name in sorted(tables):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(tables[name].items())]
        parts.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main():
    kgraph = run.import_package()
    scan = {}
    for name, text in inputs.scan_inputs(0):
        rc, out = run.cli_call(kgraph, ["aperiodic", "-", "--bound", str(run.SCAN_BOUND)], text)
        report = json.loads(out)
        want = check.scan_expectation(report)
        check.check_scan(check.DocGraph(json.loads(text)), report, run.SCAN_BOUND, want)
        scan[inputs.text_key(text)] = want
        print(name, rc, want, flush=True)

    corpus = {}
    tracer = Tracer()
    for stratum, index in inputs.corpus_pool():
        text = inputs.corpus_pool_entry(stratum, index)
        g = kgraph.graph_from_json(text)
        tracer.reset()
        tracer.install()
        try:
            audit, _, out = run.analyze_request(kgraph, g)
        finally:
            tracer.remove()
        report = json.loads(out)
        want = check.analysis_expectation(report)
        check.require(audit, f"{stratum} {index}: annihilation audit failed")
        check.check_analysis(check.DocGraph(json.loads(text)), report, run.CORPUS_BOUND, want)
        corpus[f"{stratum}:{index}"] = dict(
            stratum=stratum, index=index, doc=inputs.text_key(text), work=len(tracer.span_name), **want
        )

    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        fh.write(dump_table({"corpus": corpus, "scan": scan}))
    print(f"recorded {len(scan)} scan and {len(corpus)} corpus expectations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
