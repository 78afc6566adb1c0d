import json
from fractions import Fraction

import numpy as np
import pytest

from ssdopt import (
    ColumnLabel,
    CsvFormatError,
    SignMatrix,
    build_full,
    build_minus_one,
    build_single_parent,
    decimal_str,
    design_csv_text,
    drop_columns,
    dump_json,
    evaluate_report,
    fraction_json,
    hadamard_design,
    json_text,
    parse_design_csv,
    read_design_csv,
    report_json,
    sidecar_json,
    verdict,
    write_design_csv,
)
from ssdopt.cli import main

from _reference import aliased_records
from _texts import assert_same_text


class TestCsvRoundTrip:
    def test_text_round_trip_is_bit_exact(self):
        build = build_full(hadamard_design(12))
        text = design_csv_text(build.design)
        parsed = parse_design_csv(text)
        assert np.array_equal(parsed.entries, build.design.entries)
        assert parsed.labels == build.design.labels
        assert design_csv_text(parsed) == text

    def test_file_round_trip(self, tmp_path):
        design = hadamard_design(12)
        path = tmp_path / "design.csv"
        write_design_csv(path, design)
        again = read_design_csv(path)
        assert np.array_equal(again.entries, design.entries)
        assert again.labels == design.labels

    def test_header_is_always_written(self):
        design, _ = drop_columns(hadamard_design(12), [0, 1])
        first_line = design_csv_text(design).splitlines()[0]
        assert first_line == ",".join(str(lb) for lb in design.labels)

    def test_headerless_files_accepted(self):
        design = hadamard_design(12)
        text = "\n".join(design_csv_text(design).splitlines()[1:]) + "\n"
        parsed = parse_design_csv(text)
        assert np.array_equal(parsed.entries, design.entries)
        assert parsed.labels == tuple(ColumnLabel.main(i) for i in range(1, 12))


class TestCsvErrors:
    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(CsvFormatError) as err:
            parse_design_csv("c1,c2\n+1,-1\n+1,1\n")
        assert err.value.line == 3 and err.value.column == 2
        assert "line 3" in str(err.value)

    def test_ragged_rows_rejected(self):
        with pytest.raises(CsvFormatError) as err:
            parse_design_csv("+1,-1\n+1,-1,+1\n")
        assert err.value.line == 2

    def test_empty_and_header_only(self):
        with pytest.raises(CsvFormatError):
            parse_design_csv("")
        with pytest.raises(CsvFormatError):
            parse_design_csv("c1,c2\n")

    def test_bad_header_label(self):
        with pytest.raises(CsvFormatError) as err:
            parse_design_csv("c1,weird\n+1,-1\n")
        assert err.value.line == 1 and err.value.column == 2

    @pytest.mark.parametrize("label", [f"c1*c{2**63}", f"c{2**64}"])
    def test_header_label_past_int64_is_a_bad_label(self, label):
        # Factor indices are held as int64, so larger ones are bad labels.
        with pytest.raises(CsvFormatError) as err:
            parse_design_csv(f"c1,{label}\n+1,-1\n")
        assert str(err.value) == f"bad column label {label!r} (line 1, column 2)"

    def test_bad_entry_on_first_line_is_an_entry_error(self):
        with pytest.raises(CsvFormatError) as err:
            parse_design_csv("+1,-1,+x\n+1,+1,-1\n")
        assert str(err.value) == (
            "invalid entry '+x', expected \"+1\" or \"-1\" (line 1, column 3)"
        )

    def test_first_line_without_signs_is_a_header(self):
        with pytest.raises(CsvFormatError) as err:
            parse_design_csv("c1,c2,x3\n+1,-1,+1\n")
        assert str(err.value) == "bad column label 'x3' (line 1, column 3)"

    def test_repeated_header_label_names_label_line_and_column(self):
        with pytest.raises(CsvFormatError) as err:
            parse_design_csv("c1,c2,c1\n+1,-1,+1\n")
        assert err.value.line == 1 and err.value.column == 3
        assert str(err.value) == "column label 'c1' repeats column 1 (line 1, column 3)"

    def test_strict_tokens_only(self):
        for bad in ("1", "-1.0", "+ 1", ""):
            with pytest.raises(CsvFormatError):
                parse_design_csv(f"+1,{bad}\n")


class TestJsonRendering:
    def test_fraction_json_fields(self):
        payload = fraction_json(Fraction(144, 13))
        assert payload["num"] == 144 and payload["den"] == 13
        assert payload["decimal"] == "11.0769230769"
        assert fraction_json(Fraction(0))["decimal"] == "0"

    def test_twelve_significant_digits(self):
        assert decimal_str(Fraction(32, 3)) == "10.6666666667"
        assert decimal_str(Fraction(1, 3)) == "0.333333333333"

    def test_report_json_schema(self):
        build = build_full(hadamard_design(12))
        payload = report_json(verdict(build))
        for key in ("n", "m", "a", "r", "sign", "D", "lb", "es2", "gap",
                    "optimal", "aliased_pairs", "family", "d", "notes"):
            assert key in payload
        assert payload["es2"] == {"num": 144, "den": 13, "decimal": "11.0769230769"}
        assert payload["optimal"] is True
        assert payload["family"]["kind"] == "full"

    def test_sidecar_json_schema(self):
        start, removed = drop_columns(hadamard_design(12), [9, 10])
        from ssdopt import build_single_parent

        build = build_single_parent(start, 0, removed)
        payload = sidecar_json(build, verdict(build))
        assert payload["start"]["cols"] == 9
        assert payload["design"]["cols"] == 17
        assert payload["family"]["parent"] == 0
        assert payload["d"] == build.d is not None
        assert payload["report"]["m"] == 17


def _sylvester_32_full():
    return build_full(hadamard_design(32, "sylvester"))


def _paley_12_minus_c3():
    start, removed = drop_columns(hadamard_design(12), [])
    return build_minus_one(start, ColumnLabel.parse("c3"), removed)


def stdlib_bytes(payload) -> bytes:
    text = json.dumps(payload, indent=2, sort_keys=True, default=aliased_records)
    return (text + "\n").encode("utf-8")


class TestJsonFilesMatchStdlib:
    @pytest.mark.parametrize(
        "argv, make_build, aliased",
        [
            (["--n", "32", "--construction", "sylvester", "--family", "full"],
             _sylvester_32_full, True),
            (["--n", "12", "--family", "minus-one", "--delete", "c3"],
             _paley_12_minus_c3, False),
        ],
        ids=["n32-sylvester-full", "n12-minus-one"],
    )
    def test_generate_files_are_stdlib_bytes(self, tmp_path, argv, make_build, aliased):
        out, report_path = tmp_path / "d.csv", tmp_path / "r.json"
        assert main(["generate", *argv, "--out", str(out),
                     "--report", str(report_path)]) == 0
        build = make_build()
        report = verdict(build)
        assert bool(report.aliased) == aliased
        assert_same_text((tmp_path / "d.meta.json").read_bytes(),
                         stdlib_bytes(sidecar_json(build, report)))
        assert_same_text(report_path.read_bytes(), stdlib_bytes(report_json(report)))


class TestOnePairListAtTwoDepths:
    """One AliasedPairs object, whose record lines are encoded once, written
    at two depths in either order gives the stdlib's bytes of its expanded
    records (``aliased_records``) at both."""

    @staticmethod
    def check(first, second, pairs, aliased):
        assert bool(pairs) == aliased
        for payload in (first, second):
            expected = json.dumps(payload, indent=2, sort_keys=True, default=aliased_records)
            assert_same_text(json_text(payload), expected + "\n")

    @pytest.mark.parametrize("n, construction, aliased",
                             [(16, "sylvester", True), (12, "auto", False)])
    @pytest.mark.parametrize("report_first", [False, True])
    def test_generate_sidecar_and_report(self, n, construction, aliased, report_first, tmp_path):
        build = build_full(hadamard_design(n, construction))
        report = verdict(build)
        sidecar = sidecar_json(build, report)
        assert sidecar["report"]["aliased_pairs"] is report.aliased
        payloads = (sidecar["report"], sidecar)[:: 1 if report_first else -1]
        self.check(*payloads, report.aliased, aliased)
        dump_json(sidecar, tmp_path / "s.json")
        assert_same_text((tmp_path / "s.json").read_text(encoding="utf-8"), json_text(sidecar))

    @pytest.mark.parametrize("n, construction, aliased",
                             [(16, "sylvester", True), (12, "auto", False)])
    @pytest.mark.parametrize("core_first", [False, True])
    def test_evaluate_top_level_and_core(self, n, construction, aliased, core_first):
        payload = evaluate_report(build_single_parent(hadamard_design(n, construction), 0).design)
        core = payload["es2_report"]
        assert core["aliased_pairs"] is payload["aliased_pairs"]
        self.check(*(core, payload)[:: 1 if core_first else -1], core["aliased_pairs"], aliased)


class TestEvaluateReport:
    def test_orthogonal_array_scores_zero(self):
        design, _ = drop_columns(hadamard_design(12), [10])
        payload = evaluate_report(design)
        assert payload["balanced"] and payload["oa_strength_2"]
        core = payload["es2_report"]
        assert core["es2"]["num"] == 0
        assert core["gap"]["num"] == 0

    def test_duplicated_column_inflates_gap(self):
        design, _ = drop_columns(hadamard_design(12), [10])
        doubled = np.hstack([design.entries, design.entries[:, :1]])
        labels = design.labels + (ColumnLabel.main(99),)
        payload = evaluate_report(SignMatrix(doubled, labels))
        assert payload["aliased_pairs"]
        core = payload["es2_report"]
        assert Fraction(core["gap"]["num"], core["gap"]["den"]) > 0

    def test_gwp_zeroes_for_strength2(self):
        design = hadamard_design(12)
        payload = evaluate_report(design)
        assert payload["gwp"][0]["num"] == 0 and payload["gwp"][1]["num"] == 0
        assert payload["gwp"][2] == fraction_json(Fraction(55, 3))

    def test_unbalanced_design_skips_bound(self):
        entries = np.ones((4, 3), dtype=int)
        entries[0, 0] = -1
        payload = evaluate_report(SignMatrix.with_main_labels(entries))
        assert not payload["balanced"]
        assert payload["es2_report"] is None
        assert "balanced" in payload["es2_report_skipped"]
