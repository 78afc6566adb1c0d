import argparse
import dataclasses
import json
import sys
from fractions import Fraction

import pytest

import ssdopt.designio
from ssdopt import FAMILIES, SINGLE_PARENT, ColumnLabel, GwpVector, SignMatrix, verify_lemma1
from ssdopt.cli import _build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_full_family_writes_design_and_reports(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            ["generate", "--n", "12", "--construction", "paley", "--family", "full",
             "--drop", "0", "--out", str(out), "--report", str(report)],
            capsys,
        )
        assert code == 0
        assert "es2=144/13" in stdout and "optimal=yes" in stdout
        assert out.exists() and report.exists()
        sidecar = json.loads((tmp_path / "d.meta.json").read_text())
        assert sidecar["report"]["lb"] == {"num": 144, "den": 13, "decimal": "11.0769230769"}
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 66

    def test_single_parent_with_drop2(self, tmp_path, capsys):
        out = tmp_path / "sp.csv"
        code, stdout, _ = run(
            ["generate", "--n", "12", "--construction", "paley",
             "--family", "single-parent", "--parent", "1", "--drop", "2",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "m=17" in stdout and "optimal=no" in stdout
        sidecar = json.loads((tmp_path / "sp.meta.json").read_text())
        assert sidecar["design"]["cols"] == 17
        assert sidecar["d"] is not None

    def test_minus_one_interaction(self, tmp_path, capsys):
        out = tmp_path / "m1.csv"
        code, stdout, _ = run(
            ["generate", "--n", "12", "--family", "minus-one", "--delete", "c2*c5",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "m=65" in stdout and "optimal=yes" in stdout
        assert "c2*c5" not in out.read_text().splitlines()[0].split(",")

    def test_drop_cols_are_one_based_labels(self, tmp_path, capsys):
        out = tmp_path / "dc.csv"
        code, stdout, _ = run(
            ["generate", "--n", "12", "--family", "full", "--drop-cols", "2,5",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "c2" not in header and "c5" not in header and "c1" in header

    def test_single_build_tabulates_no_anchored_sums(self, tmp_path, capsys, monkeypatch):
        """A lone build's verdict enumerates only its own J terms: its
        start's memo holds exactly the (s, F) keys of the build's terms."""
        import ssdopt.cli

        builds = []
        real_verdict = ssdopt.cli.verdict

        def recording(build):
            builds.append(build)
            return real_verdict(build)

        monkeypatch.setattr(ssdopt.cli, "verdict", recording)
        for args in (["--family", "minus-one", "--drop", "1", "--delete", "c2*c5"],
                     ["--family", "minus-one", "--delete", "c3"],
                     ["--family", "single-parent", "--drop", "2", "--parent", "4"]):
            argv = ["generate", "--n", "24", *args, "--out", str(tmp_path / "x.csv")]
            assert run(argv, capsys)[0] == 0
        assert len(builds) == 3
        for build in builds:
            assert any(fixed for _, _, fixed in build.j_terms)
            own = {(s, fixed) for _, s, fixed in build.j_terms}
            assert set(build.start.j_squared_sums) == own

    def test_invalid_n_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            ["generate", "--n", "6", "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        assert "multiple of 4" in stderr

    def test_missing_family_argument_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            ["generate", "--n", "12", "--family", "minus-one",
             "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "--delete" in stderr

    @pytest.mark.parametrize("family,flag", [
        ("full", ["--delete", "c3"]),
        ("interactions-only", ["--delete", "c1*c2"]),
        ("single-parent", ["--parent", "1", "--delete", "c3"]),
        ("full", ["--parent", "2"]),
        ("minus-one", ["--delete", "c3", "--parent", "2"]),
    ])
    def test_flag_of_another_family_exits_2(self, tmp_path, capsys, family, flag):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            ["generate", "--n", "12", "--family", family, *flag, "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert stderr.count("\n") == 1 and "error: " + flag[-2] in stderr

    @pytest.mark.parametrize("flag, args", [
        ("--parent", ["--family", "single-parent", "--parent", "0"]),
        ("--parent", ["--family", "single-parent", "--drop", "2", "--parent", "12"]),
        ("--drop-cols", ["--drop-cols", "0"]),
        ("--drop-cols", ["--drop-cols", "3,12"]),
    ])
    def test_factor_index_outside_the_array_exits_2(self, tmp_path, capsys, flag, args):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(["generate", "--n", "12", *args, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "") and not out.exists()
        assert stderr == f"error: {flag} must be in 1..11, got {args[-1].split(',')[-1]}\n"

    @pytest.mark.parametrize("args, message", [
        (["--family", "single-parent", "--drop", "2", "--parent", "11"],
         "--parent 11 names c11, which --drop 2 removed"),
        (["--drop-cols", "3", "--family", "single-parent", "--parent", "3"],
         "--parent 3 names c3, which --drop-cols 3 removed"),
        (["--drop-cols", "3", "--family", "minus-one", "--delete", "c3"],
         "--delete c3 names c3, which --drop-cols 3 removed"),
        (["--drop", "1", "--family", "minus-one", "--delete", "c1*c11"],
         "--delete c1*c11 names c11, which --drop 1 removed"),
    ], ids=["parent-drop", "parent-drop-cols", "delete-drop-cols", "delete-interaction-drop"])
    def test_factor_a_drop_removed_exits_2(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(["generate", "--n", "12", *args, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "") and not out.exists()
        assert stderr == f"error: {message}\n"

    def test_family_choices_are_the_family_table(self):
        sub = next(
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        family = next(a for a in sub.choices["generate"]._actions if a.dest == "family")
        assert tuple(family.choices) == tuple(FAMILIES)

    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run(
                ["generate", "--n", "12", "--family", "interactions-only",
                 "--drop", "1", "--out", str(path)],
                capsys,
            )[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        meta = [p.with_suffix(".meta.json").read_bytes() for p in paths]
        assert meta[0] == meta[1]


class TestEvaluate:
    def test_round_trip_reproduces_core_report(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run(
            ["generate", "--n", "12", "--family", "full", "--out", str(out)], capsys
        )[0] == 0
        eval_report = tmp_path / "e.json"
        code, _, _ = run(["evaluate", str(out), "--report", str(eval_report)], capsys)
        assert code == 0
        sidecar = json.loads(out.with_suffix(".meta.json").read_text())
        evaluated = json.loads(eval_report.read_text())
        core = evaluated["es2_report"]
        for key, value in core.items():
            assert sidecar["report"][key] == value, key

    def test_stdout_json_when_no_report_path(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run(
            ["generate", "--n", "12", "--family", "single-parent", "--parent", "3",
             "--out", str(out)],
            capsys,
        )[0] == 0
        code, stdout, _ = run(["evaluate", str(out)], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["es2_report"]["optimal"] is True
        assert stdout == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_stdout_json_lists_aliased_pairs_as_the_report_file(self, tmp_path, capsys):
        out, report = tmp_path / "d.csv", tmp_path / "e.json"
        argv = ["generate", "--n", "16", "--construction", "sylvester", "--family", "full"]
        assert run([*argv, "--out", str(out)], capsys)[0] == 0
        code, stdout, _ = run(["evaluate", str(out)], capsys)
        assert code == 0
        assert run(["evaluate", str(out), "--report", str(report)], capsys)[0] == 0
        assert stdout.encode("utf-8") == report.read_bytes()
        payload = json.loads(stdout)
        assert len(payload["aliased_pairs"]) == 420
        assert payload["aliased_pairs"][0] == {
            "i": 0, "inner": 16, "j": 29, "label_i": "c1", "label_j": "c2*c3"
        }
        assert stdout == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("+1,-1\n+1,2\n")
        code, _, stderr = run(["evaluate", str(bad)], capsys)
        assert code == 2
        assert "line 2" in stderr

    def test_repeated_header_label_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "repeat.csv"
        bad.write_text("c1,c1\n+1,-1\n-1,+1\n")
        code, stdout, stderr = run(["evaluate", str(bad)], capsys)
        assert code == 2 and stdout == ""
        assert stderr == "error: column label 'c1' repeats column 1 (line 1, column 2)\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["evaluate", str(tmp_path / "absent.csv")], capsys)
        assert code == 2

    def test_generate_and_evaluate_never_form_the_column_gram(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(self):
            raise AssertionError("SignMatrix.gram was called")

        monkeypatch.setattr(SignMatrix, "gram", refuse)
        # The Krawtchouk GWP costs O(m^2 * distinct row distances) comb terms
        # (minutes at m = 2016, with two distances) and reads only the row
        # Gram, so it is stubbed to keep this test fast. The stub's A_2 is the
        # one evaluate's E(s^2) cross-check expects: the squared off-diagonal
        # total of X^T X over 2 n^2.
        def stub(design):
            n, m = design.rows, design.cols
            a2 = Fraction(design.gram_square_sum - m * n * n, 2 * n * n)
            return GwpVector((Fraction(0), a2) + (Fraction(0),) * (m - 2))

        monkeypatch.setattr(ssdopt.designio, "gwp_via_krawtchouk", stub)
        out = tmp_path / "d.csv"
        argv = ["generate", "--n", "64", "--family", "full", "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        report = tmp_path / "e.json"
        assert run(["evaluate", str(out), "--report", str(report)], capsys)[0] == 0
        payload = json.loads(report.read_text())
        assert payload["oa_strength_2"] is False
        assert len(payload["aliased_pairs"]) == 31248


# The whole stdout of two default-cap verify runs: line order and check counts
# are part of the output contract, not only the PASS status of each name.
THEOREMS_12_16 = """\
PASS theorem1.es2 n=12 checks=3 failures=0
PASS theorem1.lb n=12 checks=3 failures=0
PASS theorem1.gap n=12 checks=3 failures=0
PASS theorem1.optimal n=12 checks=3 failures=0
PASS theorem2.es2 n=12 checks=121 failures=0
PASS theorem2.lb n=12 checks=121 failures=0
PASS theorem2.gap n=12 checks=121 failures=0
PASS theorem2.optimal n=12 checks=121 failures=0
PASS theorem3.es2 n=12 checks=3 failures=0
PASS theorem3.lb n=12 checks=3 failures=0
PASS theorem3.gap n=12 checks=3 failures=0
PASS theorem3.optimal n=12 checks=3 failures=0
PASS theorem4.es2 n=12 checks=30 failures=0
PASS theorem4.lb n=12 checks=30 failures=0
PASS theorem4.gap n=12 checks=30 failures=0
PASS theorem4.optimal n=12 checks=30 failures=0
PASS theorem1.es2 n=16 checks=3 failures=0
PASS theorem1.lb n=16 checks=3 failures=0
PASS theorem1.gap n=16 checks=3 failures=0
PASS theorem1.optimal n=16 checks=3 failures=0
PASS theorem2.es2 n=16 checks=225 failures=0
PASS theorem2.lb n=16 checks=225 failures=0
PASS theorem2.gap n=16 checks=225 failures=0
PASS theorem2.optimal n=16 checks=225 failures=0
PASS theorem3.es2 n=16 checks=3 failures=0
PASS theorem3.lb n=16 checks=3 failures=0
PASS theorem3.gap n=16 checks=3 failures=0
PASS theorem3.optimal n=16 checks=3 failures=0
PASS theorem4.es2 n=16 checks=42 failures=0
PASS theorem4.lb n=16 checks=42 failures=0
PASS theorem4.gap n=16 checks=42 failures=0
PASS theorem4.optimal n=16 checks=42 failures=0
"""

LEMMAS_12 = """\
PASS lemma1.item1 n=12 checks=1 failures=0
PASS lemma1.item5 n=12 checks=1 failures=0
PASS lemma1.item2 n=12 checks=11 failures=0
PASS lemma1.item6 n=12 checks=11 failures=0
PASS lemma1.item3 n=12 checks=55 failures=0
PASS lemma1.item7 n=12 checks=55 failures=0
PASS lemma1.item4 n=12 checks=165 failures=0
PASS lemma1.item8 n=12 checks=165 failures=0
PASS lemma2.item1 n=12 checks=11 failures=0
PASS lemma2.item6 n=12 checks=11 failures=0
PASS lemma2.item4 n=12 checks=55 failures=0
PASS lemma2.item9 n=12 checks=55 failures=0
PASS lemma2.item2 n=12 checks=110 failures=0
PASS lemma2.item7 n=12 checks=110 failures=0
PASS lemma2.item5 n=12 checks=495 failures=0
PASS lemma2.item10 n=12 checks=495 failures=0
PASS lemma2.item3 n=12 checks=495 failures=0
PASS lemma2.item8 n=12 checks=495 failures=0
"""


class TestVerifyCommands:
    def test_verify_lemmas_small_grid(self, capsys):
        code, stdout, _ = run(["verify-lemmas", "--n", "12", "--cap", "25"], capsys)
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 18
        assert all(ln.startswith("PASS") for ln in lines)

    def test_verify_theorems_small_grid(self, capsys):
        code, stdout, _ = run(["verify-theorems", "--n", "12", "--cap", "10"], capsys)
        assert code == 0
        assert "theorem4.gap" in stdout
        assert "FAIL" not in stdout

    @pytest.mark.parametrize(
        "argv, expected",
        [(["verify-theorems", "--n", "12", "16"], THEOREMS_12_16),
         (["verify-lemmas", "--n", "12"], LEMMAS_12)],
        ids=["verify-theorems", "verify-lemmas"],
    )
    def test_default_cap_stdout_is_pinned(self, capsys, argv, expected):
        assert run(argv, capsys) == (0, expected, "")

    @pytest.mark.parametrize("command", ["verify-lemmas", "verify-theorems"])
    def test_negative_cap_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--n", "12", "--cap", "-1"])
        assert err.value.code == 2
        assert "--cap" in capsys.readouterr().err
        with pytest.raises(ValueError, match="cap"):
            verify_lemma1(12, cap=-1)

    def test_cap_zero_is_exhaustive(self, capsys):
        code, stdout, _ = run(["verify-theorems", "--n", "12", "--cap", "0"], capsys)
        assert code == 0
        # every label of the q = n-1 and q = n-2 full augmentations: 66 + 55
        assert "PASS theorem2.es2 n=12 checks=121 failures=0" in stdout

    @pytest.mark.parametrize("ns", [["4"], ["8", "4"]])
    def test_too_small_n_exits_2_before_any_output(self, capsys, ns):
        code, stdout, stderr = run(["verify-theorems", "--n", *ns], capsys)
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert "n=4" in stderr and "q=2" in stderr

    def test_verify_unreachable_n_exits_2(self, capsys):
        code, _, stderr = run(["verify-lemmas", "--n", "40", "--cap", "5"], capsys)
        assert code == 2
        assert "40" in stderr

    @pytest.mark.parametrize("command", ["verify-lemmas", "verify-theorems"])
    def test_unreachable_n_exits_2_before_any_output(self, capsys, command):
        code, stdout, stderr = run([command, "--n", "12", "40", "--cap", "1"], capsys)
        assert code == 2
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert "40" in stderr

    def test_failures_produce_machine_readable_list(self, capsys):
        from ssdopt.cli import _finish_verification, _print_results
        from ssdopt.verify import CheckResult

        results = [
            CheckResult("some.item", 12, "ctx-ok", "1", "1", True),
            CheckResult("some.item", 12, "ctx-bad", "1", "2", False),
        ]
        failures = _print_results(results)
        code = _finish_verification(failures)
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL some.item n=12 checks=2 failures=1" in out
        payload = json.loads(out[out.index("[") :])
        assert payload == [
            {
                "name": "some.item",
                "n": 12,
                "context": "ctx-bad",
                "expected": "1",
                "actual": "2",
                "ok": False,
            }
        ]


class TestCertificationFailure:
    def test_arithmetic_error_from_verdict_exits_3(self, tmp_path, capsys, monkeypatch):
        import ssdopt.cli

        def disagreeing_verdict(build):
            raise ArithmeticError("inner-product and J-characteristic routes disagree")

        monkeypatch.setattr(ssdopt.cli, "verdict", disagreeing_verdict)
        code, stdout, stderr = run(
            ["generate", "--n", "12", "--out", str(tmp_path / "d.csv")], capsys
        )
        assert code == 3
        assert stdout == ""
        assert stderr == (
            "error: certification failed: "
            "inner-product and J-characteristic routes disagree\n"
        )

    def test_evaluate_with_a_corrupt_a2_exits_3(self, tmp_path, capsys, monkeypatch):
        """E(s^2) from the row Gram disagrees with 2 n^2 A_2 / (m(m-1)) from a
        GWP whose A_2 is off by one, and evaluate exits 3 before writing."""
        design = tmp_path / "d.csv"
        assert run(["generate", "--n", "12", "--out", str(design)], capsys)[0] == 0
        gwp = ssdopt.designio.gwp_via_krawtchouk

        def corrupt(design):
            values = gwp(design).values
            return GwpVector((values[0], values[1] + 1, *values[2:]))

        monkeypatch.setattr(ssdopt.designio, "gwp_via_krawtchouk", corrupt)
        report = tmp_path / "e.json"
        code, stdout, stderr = run(["evaluate", str(design), "--report", str(report)], capsys)
        assert code == 3 and stdout == "" and not report.exists()
        assert stderr == (
            "error: certification failed: E(s^2) = 144/13 from the row Gram, "
            "but 2n^2 A_2 / (m(m-1)) = 7968/715\n"
        )

    def test_corrupt_anchored_tally_exits_3(self, capsys, monkeypatch):
        """A corrupt sum in every batch of fixed sets fails the verdict's
        direct versus J check, and the theorem sweep exits 3."""
        import ssdopt.spectral

        real_batch = ssdopt.spectral.sum_j_squared_batch

        def corrupt(design, s, deleted, fixed):
            sums = real_batch(design, s, deleted, fixed)
            if len(fixed[0]):
                sums += 4
            return sums

        monkeypatch.setattr(ssdopt.spectral, "sum_j_squared_batch", corrupt)
        code, _, stderr = run(["verify-theorems", "--n", "12", "--cap", "1"], capsys)
        assert code == 3
        assert "certification failed" in stderr and "routes disagree" in stderr


@pytest.fixture
def wrong_single_parent_k2(monkeypatch):
    """FAMILIES[SINGLE_PARENT][2] with its E(s^2) claim off by one; its bound
    and gap claims are untouched."""
    cell = FAMILIES[SINGLE_PARENT][2]
    wrong = dataclasses.replace(cell, es2=lambda n, d: cell.es2(n, d) + 1)
    monkeypatch.setitem(FAMILIES[SINGLE_PARENT], 2, wrong)
    return cell


class TestWrongCellClaim:
    def test_verify_theorems_prints_fail_and_exits_1(self, capsys, wrong_single_parent_k2):
        code, stdout, stderr = run(["verify-theorems", "--n", "12"], capsys)
        assert (code, stderr) == (1, "")
        table, listing = stdout[: stdout.index("[")], stdout[stdout.index("[") :]
        expected = THEOREMS_12_16[: THEOREMS_12_16.index("PASS theorem1.es2 n=16")]
        assert table == expected.replace(
            "PASS theorem4.es2 n=12 checks=30 failures=0",
            "FAIL theorem4.es2 n=12 checks=30 failures=10",
        )
        failures = json.loads(listing)
        assert [f["context"] for f in failures] == [
            f"q=n-2 parent=c{p}" for p in range(1, 11)
        ]
        for failure in failures:
            assert failure["name"] == "theorem4.es2" and not failure["ok"]
            actual = Fraction(failure["actual"])
            assert actual == wrong_single_parent_k2.es2(12, None)
            assert Fraction(failure["expected"]) == actual + 1

    def test_generate_exits_3_and_writes_no_file(
        self, tmp_path, capsys, wrong_single_parent_k2
    ):
        argv = ["generate", "--n", "12", "--drop", "1", "--family", "single-parent",
                "--parent", "1", "--out", str(tmp_path / "d.csv"),
                "--report", str(tmp_path / "r.json")]
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout) == (3, "")
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: certification failed: the cell states es2 = ")
        assert list(tmp_path.iterdir()) == []


class TestAliasingOnDemand:
    def test_verify_theorems_never_computes_aliasing(self, capsys, monkeypatch):
        import ssdopt.core

        original, calls = ssdopt.core.aliasing_report, []

        def counting(design):
            calls.append(design)
            return original(design)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ssdopt") and getattr(
                module, "aliasing_report", None
            ) is original:
                monkeypatch.setattr(module, "aliasing_report", counting)
        assert run(["verify-theorems", "--n", "12", "16"], capsys) == (0, THEOREMS_12_16, "")
        assert calls == []

    def test_generate_still_reports_sylvester_16_aliasing(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["generate", "--n", "16", "--construction", "sylvester", "--out", str(out)]
        code, stdout, _ = run(argv, capsys)
        assert code == 0 and "aliased_pairs=420 " in stdout
        report = json.loads(out.with_suffix(".meta.json").read_text())["report"]
        assert len(report["aliased_pairs"]) == 420
        assert report["notes"].startswith("420 fully aliased column pair(s) present;")


class TestColumnLabelsOnDemand:
    """generate labels its columns from factor-index arrays: the only
    ColumnLabel it creates is the one parsed from --delete."""

    @pytest.mark.parametrize("family, parsed", [
        (["--family", "full"], []),
        (["--family", "minus-one", "--delete", "c2*c5"], ["c2*c5"]),
    ])
    def test_generate_creates_only_parsed_labels(self, family, parsed, tmp_path, capsys,
                                                 monkeypatch):
        created, original = [], ColumnLabel.__post_init__

        def counting(label):
            created.append(label)
            original(label)

        monkeypatch.setattr(ColumnLabel, "__post_init__", counting)
        out = tmp_path / "d.csv"
        argv = ["generate", "--n", "32", "--construction", "sylvester", *family,
                "--out", str(out), "--report", str(tmp_path / "r.json")]
        assert run(argv, capsys)[0] == 0
        assert [str(label) for label in created] == parsed
        header = out.read_text().split("\n", 1)[0].split(",")
        assert len(header) == 496 - len(parsed) and ("c2*c5" in header) == (not parsed)


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestRepeatedMain:
    """main(argv) runs any sequence of commands in one process, on a parser
    built once."""

    def test_commands_in_sequence_leave_no_state(self, tmp_path, capsys, monkeypatch):
        import ssdopt.cli

        argv = ["generate", "--n", "12", "--family", "single-parent", "--drop", "1",
                "--parent", "3", "--out", str(tmp_path / "d.csv"),
                "--report", str(tmp_path / "r.json")]

        def generate():
            result = run(argv, capsys)
            return result, {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        first = generate()
        assert first[0][0] == 0 and len(first[1]) == 3
        with pytest.raises(SystemExit) as err:
            main(["generate", "--n", "12", "--family", "nope", "--drop-cols", "1,2"])
        assert err.value.code == 2
        capsys.readouterr()
        assert run(["generate", "--n", "6", "--family", "minus-one", "--delete", "c1",
                    "--out", str(tmp_path / "x.csv")], capsys)[0] == 2

        def disagreeing_verdict(build):
            raise ArithmeticError("routes disagree")

        with monkeypatch.context() as patch:
            patch.setattr(ssdopt.cli, "verdict", disagreeing_verdict)
            assert run([*argv[:-4], "--out", str(tmp_path / "y.csv")], capsys)[0] == 3
        assert generate() == first

    def test_parser_is_built_at_most_once(self, tmp_path, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(10):
            assert run(["generate", "--n", "6", "--out", str(tmp_path / "x.csv")], capsys)[0] == 2
        assert built.count("ssdopt") <= 1

    def test_verify_n_defaults_to_a_tuple(self):
        for command in ("verify-lemmas", "verify-theorems"):
            assert _build_parser().parse_args([command]).n == (12, 16, 20, 24)
