"""The syscall-discipline pass of ``repro check`` (SAN101–SAN104)."""

import re
import textwrap

from repro.staticcheck import RULES, run_check, write_baseline

from .test_fixtures import FIXTURES

DISCIPLINE = FIXTURES / "discipline"

HEADER = """\
from repro.sanitizer.annotations import atomic_cell, guarded_by, shared_state
from repro.sim.syscalls import Acquire, GuardedWrite, Read, Release, TryAcquire, Write
"""


def _check_source(tmp_path, body):
    path = tmp_path / "probe.py"
    path.write_text(HEADER + textwrap.dedent(body))
    return run_check([path])


def _rules(report):
    return [f.rule for f in report.findings]


class TestRulesFire:
    def test_san101_unguarded_write(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    yield Write(self._cells[0], 1)
            """,
        )
        assert _rules(report) == ["SAN101"]
        assert report.findings[0].symbol == "probe.P.f"
        assert report.findings[0].file == "probe.py"

    def test_san101_wrong_guard_named(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    yield Acquire(self._other[0])
                    yield GuardedWrite(self._cells[0], 1, self._other[0])
                    yield Release(self._other[0])
            """,
        )
        assert _rules(report) == ["SAN101"]

    def test_san102_plain_write_to_lease_guarded_cell(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks", lease_guarded=True)})
            class P:
                def f(self):
                    yield Acquire(self._locks[0])
                    yield Write(self._tops[0], 1)
                    yield Release(self._locks[0])
            """,
        )
        assert _rules(report) == ["SAN102"]

    def test_san103_unordered_blocking_acquires(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, i, j):
                    yield Acquire(self._locks[i])
                    yield Acquire(self._locks[j])
            """,
        )
        assert _rules(report) == ["SAN103"]

    def test_san103_loop_without_sorted_evidence(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, queues):
                    for q in queues:
                        yield Acquire(self._locks[q])
            """,
        )
        assert _rules(report) == ["SAN103"]

    def test_san104_raw_mutation(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    self._tops[0].value = 1
            """,
        )
        assert _rules(report) == ["SAN104"]
        assert {"SAN101", "SAN102", "SAN103", "SAN104"} <= set(RULES)


class TestDisciplineAccepted:
    def test_try_lock_idiom_is_clean(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks", lease_guarded=True)})
            class P:
                def f(self, q):
                    while True:
                        ok = yield TryAcquire(self._locks[q])
                        if ok:
                            break
                    yield GuardedWrite(self._tops[q], 1, self._locks[q])
                    yield Release(self._locks[q])
            """,
        )
        assert report.ok, report.describe()

    def test_sorted_loop_acquire_is_clean(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, queues):
                    indices = sorted(set(queues))
                    for q in indices:
                        yield Acquire(self._locks[q])
                    for q in reversed(indices):
                        yield Release(self._locks[q])
            """,
        )
        assert report.ok, report.describe()

    def test_min_max_ordering_evidence_is_accepted(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, i, j):
                    first, second = min(i, j), max(i, j)
                    yield Acquire(self._locks[first])
                    yield Acquire(self._locks[second])
                    yield Release(self._locks[second])
                    yield Release(self._locks[first])
            """,
        )
        assert report.ok, report.describe()

    def test_atomic_cells_are_exempt(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_regions": atomic_cell()})
            class P:
                def f(self):
                    yield Write(self._regions[0], 1)
            """,
        )
        assert report.ok, report.describe()


class TestSuppression:
    def test_suppression_on_the_line_above(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    # staticcheck: allow(SAN104) probe fixture
                    self._tops[0].value = 1
            """,
        )
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].finding.rule == "SAN104"
        assert report.suppressed[0].reason == "probe fixture"

    def test_suppression_for_the_wrong_rule_does_not_apply(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    # staticcheck: allow(SAN101) wrong rule
                    self._tops[0].value = 1
            """,
        )
        assert _rules(report) == ["SAN104"]
        assert report.suppressed == []

    def test_reasonless_suppression_is_void(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    # staticcheck: allow(SAN104)
                    self._tops[0].value = 1
            """,
        )
        assert _rules(report) == ["SAN104"]
        assert report.suppressed == []
        assert [f.rule for f in report.void_suppressions] == ["SAN104"]

    def test_findings_can_be_baselined(self, tmp_path):
        flagged = DISCIPLINE / "flagged.py"
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, run_check([flagged]).findings, "fixture debt")
        report = run_check([flagged], baseline=baseline)
        assert report.ok, report.describe()
        assert {s.source for s in report.suppressed} == {"baseline"}
        assert {s.finding.rule for s in report.suppressed} == {
            "SAN101", "SAN102", "SAN103", "SAN104",
        }


class TestFixtures:
    def test_flagged_fixture_reports_exactly_the_marked_lines(self):
        """Each ``# flag: RULE`` line, including the writes inside
        except/else/with blocks, is reported, and nothing else is."""
        path = DISCIPLINE / "flagged.py"
        expected = {
            (match.group(1), lineno)
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            for match in [re.search(r"# flag: (SAN\d{3})$", line)]
            if match
        }
        report = run_check([path])
        assert {(f.rule, f.line) for f in report.findings} == expected
        assert {rule for rule, _ in expected} == {"SAN101", "SAN102", "SAN103", "SAN104"}

    def test_clean_fixture_has_no_findings(self):
        report = run_check([DISCIPLINE / "clean.py"])
        assert report.findings == [], report.describe()
        assert report.suppressed == []
