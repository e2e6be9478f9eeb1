"""The checker against the real tree, and the `repro check` command
surface."""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.staticcheck import load_project, run_check
from repro.staticcheck.discipline import shared_state_specs

from .test_fixtures import FIXTURES


class TestRealTree:
    def test_tree_is_clean(self):
        """ISSUE 7 acceptance: the shipped tree checks clean, and every
        suppression carries a written reason."""
        report = run_check()
        assert report.ok, report.describe()
        assert report.void_suppressions == []
        for sup in report.suppressed:
            assert sup.reason.strip(), sup.describe()

    def test_suppressions_are_counted_not_silent(self):
        """Exactly seven inline waivers, each with a reason: the five
        DET102 timing sites and the two SAN104 prefill publishes."""
        report = run_check()
        assert report.findings == []
        assert len(report.suppressed) == 7, report.describe()
        assert all(s.source == "inline" and s.reason.strip() for s in report.suppressed)
        assert Counter(s.finding.rule for s in report.suppressed) == {
            "DET102": 5, "SAN104": 2,
        }
        assert sorted(
            (s.finding.file, s.finding.line)
            for s in report.suppressed
            if s.finding.rule == "SAN104"
        ) == [
            ("src/repro/concurrent/klsm.py", 84),
            ("src/repro/concurrent/multiqueue.py", 203),
        ]
        assert "7 suppression(s)" in report.describe()

    def test_concurrent_package_checks_clean(self):
        """The four annotated structures pass SAN101-104 with no finding;
        the only waivers there are the two reasoned SAN104 prefills."""
        report = run_check()
        concurrent = "src/repro/concurrent/"
        assert not [f for f in report.findings if f.file.startswith(concurrent)]
        waived = [s.finding for s in report.suppressed if s.finding.file.startswith(concurrent)]
        assert [f.rule for f in waived] == ["SAN104", "SAN104"]
        project = load_project()
        methods_of = {
            fn.qualname.rsplit(".", 1)[0]
            for fn in project.functions.values()
            if fn.class_name
        }
        specs = shared_state_specs(project)
        assert len(specs) == 4 and set(specs) <= methods_of

    def test_pass_reads_the_four_shared_state_specs(self):
        """The discipline pass sees the cell policies of every annotated
        structure: MultiQueue, SprayList, k-LSM and Linden-Jonsson."""
        specs = shared_state_specs(load_project())
        assert set(specs) == {
            "repro.concurrent.multiqueue.ConcurrentMultiQueue",
            "repro.concurrent.spraylist.SprayListPQ",
            "repro.concurrent.klsm.KLSMPQ",
            "repro.concurrent.linden_jonsson.LindenJonssonPQ",
        }
        assert specs["repro.concurrent.multiqueue.ConcurrentMultiQueue"]["_tops"].lease_guarded
        assert all(specs.values())

    def test_tree_roots_include_the_sweep_cells(self):
        roots = run_check().roots
        assert "repro.vector.sweep.sweep_cell_backend" in roots
        assert "repro.vector.sweep.sweep_cell_compare" in roots

    def test_tree_roots_include_the_service_entry_points(self):
        roots = run_check().roots
        assert "repro.service.server.run_service" in roots
        assert "repro.service.validate.compare_service_and_sim" in roots

    def test_wall_clock_boundary_masks_the_service_modules(self):
        """The live service's wall-clock reads are its product (latency,
        heartbeats), exempted by the declared boundary.  Dropping the
        declaration must unmask them — proving the boundary, not a hole
        in DET102, is what keeps the tree clean."""
        unmasked = run_check(wall_clock_boundary=())
        service_hits = [
            f
            for f in unmasked.findings
            if f.rule == "DET102" and "repro/service/" in f.file
        ]
        assert service_hits, "boundary removal should unmask service wall-clock reads"
        # Only DET102 reachability findings appear; no other rule regresses.
        assert all(f.rule == "DET102" for f in unmasked.findings)


class TestCheckCli:
    def test_check_clean_fixture_exits_zero(self, capsys):
        assert main(["check", str(FIXTURES / "clean")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_check_flagging_fixture_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(FIXTURES / "locks")])
        assert exc.value.code == 1
        assert "SAN106" in capsys.readouterr().out

    def test_check_json_output(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--json", str(FIXTURES / "locks")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert {f["rule"] for f in payload["findings"]} == {"SAN105", "SAN106"}

    def test_check_discipline_fixture_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(FIXTURES / "discipline")])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        for rule in ("SAN101", "SAN102", "SAN103", "SAN104"):
            assert f" {rule} [" in out

    def test_check_json_lists_rules_and_reasoned_suppressions(self, capsys):
        """The real-tree JSON report names every SAN rule and lists the
        two SAN104 waivers: a discipline pass that stopped running would
        show up here."""
        assert main(["check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert {f"SAN10{i}" for i in range(1, 7)} <= set(payload["rules"])
        san104 = [s for s in payload["suppressed"] if s["rule"] == "SAN104"]
        assert len(san104) == 2
        assert all(s["reason"] for s in payload["suppressed"])

    def test_write_baseline_then_check_against_it(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "check",
                    str(FIXTURES / "locks"),
                    "--write-baseline",
                    str(baseline),
                    "--reason",
                    "fixture debt, tracked",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["check", str(FIXTURES / "locks"), "--baseline", str(baseline)]) == 0
        )
        out = capsys.readouterr().out
        assert "suppressed (baseline) — fixture debt, tracked" in out
