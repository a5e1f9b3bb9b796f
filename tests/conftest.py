import re

import pytest

from kgraph import KGraph, fixture_parts

CRITERIA = {
    1: "factorization soundness (fixtures + random corpus, |d| <= 4)",
    2: "vertex matrices commute pairwise",
    3: "periodicity decision vs brute-force oracle, entries <= 2, depth 4 (+ twisted products)",
    4: "emitted tuples annihilate on all eventually periodic paths, entries <= 3",
    5: "cofinality vs oracle (depth 3); D NotCofinal({u}), T2/F Cofinal",
    6: "is_simple end-to-end: T2 locally periodic, D NotCofinal, F simple at B=2",
    7: "defect elements annihilate the depth-3 sample family on periodic fixtures",
    8: "gauge invariance: D2 offender {u} with tuple, F all-invariant at B=2",
    9: "join((10,2),(5,6)) = (10,6) and (m v n)+(2,3) = (12,9), exact",
}

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


@pytest.fixture(scope="session")
def t2():
    return KGraph(*fixture_parts("T2"))


@pytest.fixture(scope="session")
def f():
    return KGraph(*fixture_parts("F"))


@pytest.fixture(scope="session")
def d():
    return KGraph(*fixture_parts("D"))


@pytest.fixture(scope="session")
def d2():
    return KGraph(*fixture_parts("D2"))


def pytest_terminal_summary(terminalreporter):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, ()):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if match:
                num = int(match.group(1))
                ok = status == "passed" and outcomes.get(num, True)
                outcomes[num] = ok
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcomes):
        flag = "PASS" if outcomes[num] else "FAIL"
        desc = CRITERIA.get(num, "")
        terminalreporter.write_line(f"[{flag}] criterion {num}: {desc}")
