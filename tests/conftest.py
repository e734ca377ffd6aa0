"""Per-criterion verdict lines for the acceptance suite.

Each acceptance test is named test_c<n>_...; after the run this hook prints
one PASS/FAIL line per criterion, so the verdicts survive output capture.
Tests may attach a short note to their line via `acceptance_notes`.
"""

import re

import pytest

acceptance_notes: dict[int, str] = {}

_LABELS = {
    1: "mask cells equal forced-placement metrics",
    2: "bound blocks touch their terminals, no relaxation",
    3: "every solver run ends overlap-free and in-bounds",
    4: "grouping masks at least double adjacency",
    5: "alignment pairs all satisfied on stackable fixtures",
    6: "rewards telescope to the weighted final score",
    7: "annealing never ends above its greedy start",
    8: "bench reruns are byte-identical",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts: dict[int, bool] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            # stats also hold deselected items and warnings; judge test reports
            if not isinstance(rep, pytest.TestReport):
                continue
            if "test_acceptance" not in rep.nodeid:
                continue
            m = re.search(r"::test_c(\d+)_", rep.nodeid)
            if m is None:
                continue
            # one report per phase; judge the call, or any failed phase
            if rep.when == "call" or rep.outcome == "failed":
                n = int(m.group(1))
                verdicts[n] = verdicts.get(n, True) and rep.outcome == "passed"
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(verdicts):
        word = "PASS" if verdicts[n] else "FAIL"
        note = f" [{acceptance_notes[n]}]" if n in acceptance_notes else ""
        terminalreporter.write_line(f"criterion {n}, {_LABELS[n]}: {word}{note}")
