import contextlib
import dataclasses
import gc
import io
import json
import subprocess
import re
import signal
import sys
from pathlib import Path

import pytest

from rareval.cli import build_parser, iter_flags, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv, check=True):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "rareval.cli", *map(str, argv)],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def synth_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "pop.csv"
    run_cli(
        "synth", "--out", out, "--n", 2000, "--prevalence", 0.1, "--separation", 3.0, "--seed", 5
    )
    return out


class TestSmallCommands:
    def test_adjust_precision_reproduces_counterfactual(self):
        _, stdout, _ = run_cli(
            "adjust-precision",
            "--sensitivity", 0.9944,
            "--specificity", 0.98,
            "--prevalence", 0.000679,
        )
        payload = json.loads(stdout)
        assert payload["adjusted_precision"] == pytest.approx(0.033, abs=0.005)

    def test_pair_prevalence_reproduces_published_number(self):
        _, stdout, _ = run_cli("pair-prevalence", "--n", 40_000_000, "--duplicate-fraction", 0.2)
        assert json.loads(stdout)["pair_prevalence"] == 5e-9

    def test_size_study_simulate(self):
        _, stdout, _ = run_cli(
            "size-study",
            "--sample-size", 30_000,
            "--flag-rate-a", 0.00995, "--flag-rate-b", 0.00995,
            "--overlap-rate", 0.5,
            "--precision-a", 0.95, "--precision-b", 0.855,
            "--replicates", 300, "--seed", 7,
        )
        payload = json.loads(stdout)
        assert set(payload) == {"power", "mc_stderr", "n_replicates", "seed"}
        assert 0.5 < payload["power"] < 1.0

    def test_size_study_config_file_overrides_flags(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_text(
            "# assumptions\n"
            "flag_rate_a = 0.00995\n"
            "flag_rate_b = 0.00995\n"
            "overlap_rate = 0.5\n"
            "precision_a = 0.95\n"
            "precision_b = 0.855\n"
            "sample_size = 30000\n"
            "n_replicates = 200\n"
        )
        _, stdout, _ = run_cli(
            "size-study", "--config", config, "--sample-size", 10, "--seed", 7,
            "--flag-rate-a", 0.5, "--flag-rate-b", 0.5, "--overlap-rate", 0.0,
            "--precision-a", 0.5, "--precision-b", 0.5,
        )
        payload = json.loads(stdout)
        assert payload["n_replicates"] == 200


class TestErrorContract:
    def test_missing_file_is_input_error(self, tmp_path):
        code, _, stderr = run_cli("evaluate", "--input", tmp_path / "nope.csv", check=False)
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["exit_code"] == 2
        assert "no such file" in error["message"]

    def test_usage_error_json(self):
        code, _, stderr = run_cli("evaluate", check=False)
        assert code == 2
        assert json.loads(stderr)["error"]["type"] == "usage"

    def test_infeasible_request_exit_3(self):
        code, _, stderr = run_cli(
            "size-study",
            "--target-power", 0.99,
            "--flag-rate-a", 0.00995, "--flag-rate-b", 0.00995,
            "--overlap-rate", 0.5,
            "--precision-a", 0.95, "--precision-b", 0.9495,
            "--replicates", 100,
            check=False,
        )
        assert code == 3
        assert json.loads(stderr)["error"]["type"] == "infeasible"


class TestExitCodes:
    """Unreadable or malformed user files exit 2; any other exception is a defect (exit 4)."""

    @staticmethod
    def _exit(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        return exc.value.code, json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("exc_type", [ValueError, KeyError, OSError])
    def test_internal_error_exits_4(self, exc_type, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise exc_type("internal slip")

        monkeypatch.setattr("rareval.metrics.bayes_adjusted_precision", broken)
        code, error = self._exit(
            ["adjust-precision", "--sensitivity", 0.9, "--specificity", 0.9, "--prevalence", 0.1], capsys
        )
        assert (code, error["type"]) == (4, "internal")
        assert "internal slip" in error["message"]

    @pytest.mark.parametrize("where", ["sheet_row_checks", "sidecar_record"])
    def test_a_defect_in_the_code_that_uses_a_read_file_exits_4(self, where, monkeypatch, capsys, tmp_path):
        def broken(*args, **kwargs):
            raise (KeyError if where == "sheet_row_checks" else TypeError)("internal slip")

        data = tmp_path / "d.csv"
        data.write_text("case_id,reference,score\np,positive,0.9\nn,negative,0.1\n")
        if where == "sheet_row_checks":
            with contextlib.redirect_stdout(io.StringIO()):
                main(["scle", "sample", "--input", str(data), "--threshold", "0.5", "--n-tp", "1",
                      "--out-dir", str(tmp_path)])
            monkeypatch.setattr("rareval.datamodel._report_rows", broken)
            argv = ["scle", "ingest", "--sheet", tmp_path / "review_sheet.csv", "--sample",
                    tmp_path / "scle_sample.json", "--out", tmp_path / "ann.json"]
        else:
            Path(f"{data}.design.json").write_text('{"kind": "dataset_design", "design": []}')
            monkeypatch.setattr("rareval.datamodel.read_record", broken)
            argv = ["evaluate", "--input", data, "--threshold", 0.5, "--out-dir", tmp_path / "out"]
        code, error = self._exit(argv, capsys)
        assert (code, error["type"]) == (4, "internal"), error
        assert "internal slip" in error["message"]

    def test_internal_error_after_ingest_exits_4(self, monkeypatch, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("case_id,reference,score\np,positive,0.9\nn,negative,0.1\n")
        monkeypatch.setattr("rareval.curves.pr_curve", lambda ds: {}["missing"])
        code, error = self._exit(["evaluate", "--input", data, "--threshold", 0.5, "--out-dir", tmp_path], capsys)
        assert (code, error["type"]) == (4, "internal")

    @pytest.mark.parametrize(
        "case",
        [
            "input_is_directory",
            "input_not_utf8",
            "malformed_design_sidecar",
            "out_dir_is_a_file",
            "config_not_json",
            "config_value_not_a_number",
            "outputs_not_json",
            "outputs_not_an_object",
            "missing_sample",
        ],
    )
    def test_unreadable_or_malformed_user_file_exits_2(self, case, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("case_id,reference,score\np,positive,0.9\nn,negative,0.1\n")
        bad = tmp_path / "bad.json"
        evaluate = ["evaluate", "--input", data, "--threshold", 0.5, "--out-dir", tmp_path / "out"]
        study = ["size-study", "--config", bad, "--sample-size", 100]
        if case == "input_is_directory":
            argv = ["evaluate", "--input", tmp_path, "--threshold", 0.5]
        elif case == "input_not_utf8":
            data.write_bytes("case_id,reference,score\n\xe9,positive,0.9\n".encode("latin-1"))
            argv = evaluate
        elif case == "malformed_design_sidecar":
            Path(f"{data}.design.json").write_text('{"kind": "dataset_design", "design": [{}]}')
            argv = evaluate
        elif case == "out_dir_is_a_file":
            (tmp_path / "out").write_text("")
            argv = evaluate
        elif case == "config_not_json":
            bad.write_text("{flag_rate_a: 0.1")
            argv = study
        elif case == "config_value_not_a_number":
            bad.write_text('{"flag_rate_a": "often", "flag_rate_b": 0.1, "overlap_rate": 0.5, '
                           '"precision_a": 0.9, "precision_b": 0.8}')
            argv = study
        elif case == "outputs_not_json":
            bad.write_text("{")
            argv = ["checklist", "--outputs", bad, "--out-dir", tmp_path]
        elif case == "outputs_not_an_object":
            bad.write_text("[]")
            argv = ["checklist", "--outputs", bad, "--out-dir", tmp_path]
        else:
            argv = ["scle", "aggregate", "--annotations", bad, "--sample", tmp_path / "nope.json"]
        code, error = self._exit(argv, capsys)
        assert (code, error["type"]) == (2, "input"), error

    @pytest.mark.parametrize("case", ["sidecar_nan_metadata", "sample_nan_weight", "sheet_oversized_note"])
    def test_non_standard_json_and_oversized_fields_exit_2_naming_the_file(self, case, capsys, tmp_path):
        data = tmp_path / "d.csv"
        rows = (f"c{i},{('negative', 'positive')[i % 2]},{i / 10}\n" for i in range(10))
        data.write_text("case_id,reference,score\n" + "".join(rows))
        if case == "sidecar_nan_metadata":
            bad = Path(f"{data}.design.json")
            bad.write_text('{"kind": "dataset_design", "design": [], "metadata": {"x": NaN}}')
            argv = ["evaluate", "--input", data, "--threshold", 0.5, "--reproducible", "--out-dir", tmp_path / "out"]
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                main(["scle", "sample", "--input", str(data), "--threshold", "0.5", "--n-fp", "2", "--n-tp", "2",
                      "--reproducible", "--out-dir", str(tmp_path)])
            sample, sheet = tmp_path / "scle_sample.json", tmp_path / "review_sheet.csv"
            if case == "sample_nan_weight":
                bad = sample
                bad.write_text(bad.read_text().replace('"sampling_weight": 1.0', '"sampling_weight": NaN'))
                (tmp_path / "ann.json").write_text('{"kind": "scle_annotations", "annotations": []}')
                argv = ["scle", "aggregate", "--annotations", tmp_path / "ann.json", "--sample", bad,
                        "--out-dir", tmp_path]
            else:
                bad = sheet
                lines = bad.read_text().splitlines()
                lines[4] = lines[4][:-1] + "x" * 200_000 + ","  # the note field, before the empty verdict
                bad.write_text("\n".join(lines) + "\n")
                argv = ["scle", "ingest", "--sheet", bad, "--sample", sample, "--out", tmp_path / "ann.json"]
        code, error = self._exit(argv, capsys)
        assert (code, error["type"]) == (2, "input"), error
        assert str(bad) in error["message"]

    @pytest.mark.parametrize("where", ["jsonl_record", "sidecar_design_entry"])
    def test_non_string_stratum_id_exits_2(self, where, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        stratum = {"x": 1} if where == "jsonl_record" else "s"
        records = [{"case_id": f"c{i}", "reference": "positive", "score": 0.5, "stratum_id": stratum} for i in (1, 2)]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        design = [{"stratum_id": ["s"] if where == "sidecar_design_entry" else "s", "inclusion_probability": 0.5}]
        Path(f"{data}.design.json").write_text(json.dumps({"kind": "dataset_design", "design": design}))
        argv = ["evaluate", "--input", data, "--format", "jsonl", "--threshold", 0.5, "--out-dir", tmp_path / "out"]
        code, error = self._exit(argv, capsys)
        assert (code, error["type"]) == (2, "input"), error
        if where == "jsonl_record":
            assert error["message"] == "row 1: field 'stratum_id': expected a string; " \
                                       "row 2: field 'stratum_id': expected a string"
        else:
            assert error["message"] == f"{data}.design.json: malformed design sidecar: " \
                                       "field 'design[0].stratum_id': expected a string, got [\"s\"]"

    @pytest.mark.parametrize("argv, code, message", [
        (["synth", "--n", 10**20, "--prevalence", 0.1], 2, "n must be at most"),
        (["synth", "--n", 2**62, "--prevalence", 0.1], 2, "n must be at most"),
        (["size-study", "--flag-rate-a", 0.05, "--flag-rate-b", 0.06, "--overlap-rate", 0.5, "--precision-a", 0.7,
          "--precision-b", 0.85, "--replicates", 10, "--sample-size", 10**20], 2, "size-study: sample_size must be"),
        (["synth", "--n", 2**50, "--prevalence", 0.1], 3, "out of memory: "),  # 8 PiB: no allocation succeeds
        (["resample", "--metric", "recall", "--n", 10**30], 2, "bootstrap n must be at most"),
        (["resample", "--metric", "recall", "--n", 2**62], 2, "bootstrap n must be at most"),
        (["pair-prevalence", "--n", 10**400, "--duplicate-fraction", 0.5], 2, "n_records must be at most"),
        (["scle", "sample", "--n-fp", 1, "--boundary-bins", 10**30], 2, "boundary_bins must be at most"),
    ], ids=["n-beyond-an-array-dimension", "n-beyond-an-array-size", "sample-size-beyond-64-bits", "n-beyond-memory",
            "resamples-beyond-an-array-dimension", "resamples-beyond-an-array-size", "records-beyond-a-float",
            "bins-beyond-64-bits"])
    def test_a_size_the_program_cannot_hold_is_no_internal_error(self, argv, code, message, capsys, tmp_path):
        out = ["--out", tmp_path / "s.csv"] if argv[0] == "synth" else []
        if argv[0] in ("resample", "scle"):  # commands that read a dataset
            out = ["--input", tmp_path / "d.csv"]
            out[1].write_text("case_id,reference,score,predicted\np,positive,0.9,1\nn,negative,0.1,0\n")
        exit_code, error = self._exit([*argv, *out], capsys)
        assert exit_code == code and error["message"].startswith(message), error

    @pytest.mark.parametrize("prevalence", [-3, 0, 1, 1.5])
    @pytest.mark.parametrize("selection", ["threshold", "k", "costs", "predictions"])
    def test_assumed_prevalence_outside_unit_interval_exits_2(self, selection, prevalence, capsys, tmp_path):
        data = tmp_path / "d.csv"
        if selection == "predictions":
            data.write_text("case_id,reference,predicted\np,positive,1\nn,negative,0\n")
        else:
            data.write_text("case_id,reference,score\np,positive,0.9\nn,negative,0.1\n")
        flags = {"threshold": ["--threshold", 0.5], "k": ["--k", 1], "costs": ["--cost-fp", 1, "--cost-fn", 5]}
        out = tmp_path / "out"
        argv = ["evaluate", "--input", data, *flags.get(selection, []), "--assumed-prevalence", prevalence,
                "--out-dir", out]
        code, error = self._exit(argv, capsys)
        assert (code, error["type"]) == (2, "input"), error
        assert "--assumed-prevalence must be in (0, 1)" in error["message"]
        assert not out.exists()



class TestOperatingPoint:
    """`evaluate` checks its flags before it reads the input, and applies a chosen threshold as every command does."""

    _exit = staticmethod(TestExitCodes._exit)
    BLANK_B = "case_id,reference,score,predicted,sg_site\na,positive,0.9,1,x\nb,positive,,1,x\nc,negative,0.2,0,y\n" \
              "d,negative,0.6,1,y\n"
    COSTS = ["--cost-fp", 1, "--cost-fn", 5, "--assumed-prevalence", 0.1]

    @pytest.mark.parametrize("command", [
        ["evaluate", "--out-dir"], ["subsets", "--attribute", "site", "--out-dir"], ["resample", "--metric", "recall",
        "--out"], ["scle", "sample", "--n-fp", 1, "--out-dir"]], ids=["evaluate", "subsets", "resample", "scle-sample"])
    def test_a_threshold_needs_every_case_scored_in_every_command(self, command, capsys, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "out"
        data.write_text(self.BLANK_B)
        code, error = self._exit([*command[:-1], "--input", data, "--threshold", 0.5, command[-1], out], capsys)
        assert (code, error["message"]) == (2, "case 'b' has no score; cannot apply a threshold")
        assert not out.exists()

    @pytest.mark.parametrize("selection, file, message", [
        (["--k", 1], BLANK_B, "case 'b' has no score"),
        (COSTS, BLANK_B, "case 'b' has no score"),
        (["--threshold", 0.5], "case_id,reference,predicted\np,positive,1\nn,negative,0\n", "case 'p' has no score"),
        (["--threshold", 0.5, "--k", 1], "case_id,reference,predicted\np,positive,1\nn,negative,0\n",
         "exactly one of threshold/k/cost selection may be given"),
    ], ids=["k", "costs", "threshold-on-predictions", "two-selectors-on-predictions"])
    def test_a_selector_on_an_unscored_file_exits_2(self, selection, file, message, capsys, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "out"
        data.write_text(file)
        code, error = self._exit(["evaluate", "--input", data, *selection, "--out-dir", out], capsys)
        assert code == 2 and error["message"].startswith(message), error
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--k", 1], ["evaluate", "--threshold", 0.5], ["evaluate", *COSTS],
        ["subsets", "--attribute", "site", "--threshold", 0.5],
    ], ids=["k", "threshold", "costs", "subsets"])
    def test_an_excluded_case_needs_no_score(self, argv, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "out"
        data.write_text("case_id,reference,score,predicted,sg_site\na,positive,0.9,,n\nb,negative,0.2,,s\n"
                        "x,excluded,,1,n\n")
        assert main([str(a) for a in [*argv, "--input", data, "--out-dir", out]]) == 0
        if argv[0] == "evaluate":
            assert json.loads((out / "report.json").read_text())["dataset"]["n_excluded"] == 1

    @pytest.mark.parametrize("argv, message", [
        (["--threshold", 0.5, "--k", 1], "exactly one of threshold/k/cost selection may be given"),
        (["--cost-fp", 1], "cost-based selection needs both --cost-fp and --cost-fn"),
        (["--cost-fp", 1, "--cost-fn", 5], "cost-based selection needs --assumed-prevalence"),
        (["--cost-fp", 0, "--cost-fn", 5, "--assumed-prevalence", 0.1], "error costs must be strictly positive"),
        (["--attest", "bogus=x"], "unknown checklist consideration 'bogus'"),
        (["--assumed-prevalence", 2], "--assumed-prevalence must be in (0, 1)"),
        (["--seed", -1], "seed must be an integer in [0, 9223372036854775807], got -1"),
        (["scle", "sample", "--n-fp", -1], "n_fp must be >= 0"),
        (["scle", "sample", "--n-fp", 1, "--seed", -1], "seed must be an integer in [0, 9223372036854775807], got -1"),
    ], ids=["two-selectors", "one-cost", "costs-without-prevalence", "zero-cost", "bad-attestation",
            "prevalence-outside-unit-interval", "negative-seed", "scle-negative-request", "scle-negative-seed"])
    def test_a_bad_flag_exits_2_before_the_input_is_read(self, argv, message, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr("rareval.datamodel.ingest", lambda *a, **k: pytest.fail("the input was read"))
        command, flags = (argv[:2], argv[2:]) if argv[0] == "scle" else (["evaluate"], argv)
        code, error = self._exit([*command, "--input", tmp_path / "absent.csv", *flags, "--out-dir", tmp_path], capsys)
        assert code == 2 and error["message"].startswith(message), error

    @pytest.mark.parametrize("argv, seed", [
        (["scle", "sample", "--n-fp", 1], -1),
        (["resample", "--metric", "recall"], 2**63),
    ], ids=["scle-sample", "resample"])
    def test_a_seed_outside_63_bits_exits_2(self, argv, seed, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("case_id,reference,score,predicted\np,positive,0.9,1\nn,negative,0.1,0\n")
        code, error = self._exit([*argv, "--input", data, "--seed", seed], capsys)
        assert (code, error["message"]) == (2, f"seed must be an integer in [0, {2**63 - 1}], got {seed}")

    def test_precision_at_k_reports_ties_straddling_the_cut(self, capsys, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "out"
        data.write_text("case_id,reference,score\na,positive,0.9\nb,negative,0.5\nc,positive,0.5\nd,negative,0.5\n"
                        "e,negative,0.1\n")
        assert main(["evaluate", "--input", str(data), "--k", "2", "--out-dir", str(out), "--reproducible"]) == 0
        documents = [json.loads((out / name).read_text()) for name in ("metrics.json", "report.json", "outputs.json")]
        for entries in (documents[0], documents[1]["metrics"], documents[2]["metrics"]):
            by_name = {m["metric"]: m for m in entries}
            assert by_name["precision"]["n_effective"] == 4  # the tied cut score predicts 4 cases positive
            entry = by_name["precision_at_2"]
            assert (entry["n_effective"], entry["k"], entry["ties_straddle_cut"], entry["n_unlabeled_in_top_k"]) == \
                (2, 2, True, 0)

class TestHelpGolden:
    def test_every_flag_enumerated(self):
        golden = json.loads((GOLDEN / "cli_flags.json").read_text())
        assert iter_flags() == golden

    def test_help_renders_each_flag(self):
        parser = build_parser()
        text = parser.format_help()
        assert "evaluate" in text and "pair-prevalence" in text
        for sub in ("evaluate", "scle", "synth", "checklist"):
            code, stdout, _ = run_cli(sub, "--help", check=False)
            assert code == 0
            for flag in json.loads((GOLDEN / "cli_flags.json").read_text())[f"rareval {sub}"]:
                assert flag in stdout


class TestSynthCommand:
    def test_a_flag_fills_a_key_the_spec_lacks(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("prevalence = 0.2\nseed = 3\n", encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--n", "50", "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["synth", "--n", "50", "--prevalence", "0.2", "--seed", "3", "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_the_spec_overrides_a_flag(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        enrichment = [{"select": "negative", "inclusion_probability": 0.5}]
        spec.write_text(json.dumps({"n": 40, "prevalence": 0.2, "enrichment": enrichment}), encoding="utf-8")
        argv = ["synth", "--spec", spec, "--n", 500, "--seed", 7, "--enrich", "positive:0.5",
                "--out", tmp_path / "s.csv"]
        assert main([str(a) for a in argv]) == 0
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert (printed["n_population"], printed["seed"]) == (40, 7)
        design = json.loads((tmp_path / "s.csv.design.json").read_text(encoding="utf-8"))["design"]
        assert [stratum["stratum_id"] for stratum in design] == ["enriched_negative", "rest"]

    def test_a_hash_inside_a_json_value_is_part_of_it(self, tmp_path, capsys):
        enrichment = [{"select": "negative", "inclusion_probability": 0.5, "stratum_id": "neg#1"}]
        (tmp_path / "spec.json").write_text(json.dumps({"n": 200, "prevalence": 0.2, "enrichment": enrichment}))
        (tmp_path / "spec.cfg").write_text(
            f"# a comment = no setting\nn = 200  # rows\nprevalence = 0.2\n"
            f"enrichment = {json.dumps(enrichment)}  # one rule\n"
        )
        for name in ("spec.json", "spec.cfg"):
            assert main(["synth", "--spec", str(tmp_path / name), "--out", str(tmp_path / f"{name}.csv")]) == 0
            assert json.loads(capsys.readouterr().out.splitlines()[-1])["n_population"] == 200
        for suffix in (".csv", ".csv.design.json"):
            assert (tmp_path / f"spec.json{suffix}").read_bytes() == (tmp_path / f"spec.cfg{suffix}").read_bytes()

    def test_a_form_feed_or_line_separator_in_a_comment_or_json_string_does_not_end_the_line(self, tmp_path, capsys):
        # str.splitlines broke these lines there; a raw form feed is no JSON text, so the string holds U+2028 and NEL
        enrichment = [{"select": "negative", "inclusion_probability": 0.5, "stratum_id": "neg\u2028one\x85two"}]
        (tmp_path / "spec.json").write_text(json.dumps({"n": 200, "prevalence": 0.2, "enrichment": enrichment}))
        (tmp_path / "spec.cfg").write_text(
            "# assumptions\x0c for the pilot\u2028 study\nn = 200\nprevalence = 0.2\n"
            f"enrichment = {json.dumps(enrichment, ensure_ascii=False)}  # one rule\x0c of\u2028 two\n",
            encoding="utf-8",
        )
        for name in ("spec.json", "spec.cfg"):
            assert main(["synth", "--spec", str(tmp_path / name), "--out", str(tmp_path / f"{name}.csv")]) == 0
            assert json.loads(capsys.readouterr().out.splitlines()[-1])["n_population"] == 200
        for suffix in (".csv", ".csv.design.json"):
            assert (tmp_path / f"spec.json{suffix}").read_bytes() == (tmp_path / f"spec.cfg{suffix}").read_bytes()
        design = json.loads((tmp_path / "spec.cfg.csv.design.json").read_text(encoding="utf-8"))["design"]
        assert design[0]["stratum_id"] == "neg\u2028one\x85two"

    @pytest.mark.parametrize("line, message", [
        ("separation = NaN", "field 'separation': expected a number, got 'NaN'"),
        ("spread = Infinity", "field 'spread': expected a number, got 'Infinity'"),
    ])
    def test_a_non_finite_value_in_a_spec_is_text_and_nothing_is_written(self, tmp_path, capsys, line, message):
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"n = 50\nprevalence = 0.2\n{line}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--spec", str(spec), "--out", str(tmp_path / "s.csv")])
        assert (exc.value.code, json.loads(capsys.readouterr().err)["error"]["message"]) == (2, f"{spec}: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.cfg"]

    def test_writes_dataset_and_truth_sidecar(self, synth_dataset):
        assert synth_dataset.exists()
        truth = Path(str(synth_dataset) + ".truth.json")
        assert truth.exists()
        payload = json.loads(truth.read_text())
        assert payload["kind"] == "truth_sidecar"

    def test_truth_sidecar_rejected_by_evaluate(self, synth_dataset, tmp_path):
        truth = Path(str(synth_dataset) + ".truth.json")
        code, _, stderr = run_cli(
            "evaluate", "--input", truth, "--threshold", 0.5, "--out-dir", tmp_path, check=False
        )
        assert code == 2
        assert "truth sidecar" in json.loads(stderr)["error"]["message"]


class TestEvaluate:
    def test_run_with_threshold_writes_tree(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            "evaluate",
            "--input", synth_dataset,
            "--threshold", 0.5,
            "--assumed-prevalence", 0.001,
            "--seed", 3,
            "--out-dir", out_dir,
            "--reproducible",
        )
        assert code == 0
        for name in ("report.json", "report.md", "metrics.json", "outputs.json", "pr_curve.csv", "warnings.json"):
            assert (out_dir / name).exists(), name
        assert not (out_dir / "roc_curve.csv").exists()
        assert "recall" in stdout
        warnings = json.loads((out_dir / "warnings.json").read_text())
        codes = {w["code"] for w in warnings}
        assert "auc_low_prevalence" in codes
        assert "enrichment_optimism" in codes

    def test_reproducible_runs_byte_identical(self, synth_dataset, tmp_path):
        trees = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run_cli(
                "evaluate", "--input", synth_dataset, "--threshold", 0.5,
                "--seed", 11, "--out-dir", out_dir, "--reproducible",
            )
            trees.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert trees[0] == trees[1]

    def test_report_json_validates_against_schema(self, synth_dataset, tmp_path):
        import jsonschema

        from rareval.report import load_report_schema

        out_dir = tmp_path / "run"
        run_cli(
            "evaluate", "--input", synth_dataset, "--threshold", 0.5,
            "--seed", 1, "--out-dir", out_dir, "--reproducible",
        )
        doc = json.loads((out_dir / "report.json").read_text())
        jsonschema.validate(doc, load_report_schema())

    def test_conflicting_drivers_rejected(self, synth_dataset, tmp_path):
        code, _, stderr = run_cli(
            "evaluate", "--input", synth_dataset, "--threshold", 0.5, "--k", 10,
            "--out-dir", tmp_path, check=False,
        )
        assert code == 2
        assert "exactly one" in json.loads(stderr)["error"]["message"]

    def test_k_driver(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "runk"
        run_cli(
            "evaluate", "--input", synth_dataset, "--k", 50, "--seed", 2,
            "--out-dir", out_dir, "--reproducible",
        )
        metrics = json.loads((out_dir / "metrics.json").read_text())
        names = {m["metric"] for m in metrics}
        assert "precision_at_50" in names

    def test_cost_driver_selects_operating_point(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "runc"
        run_cli(
            "evaluate", "--input", synth_dataset,
            "--cost-fp", 1.0, "--cost-fn", 50.0, "--assumed-prevalence", 0.1,
            "--seed", 2, "--out-dir", out_dir, "--reproducible",
        )
        report = json.loads((out_dir / "report.json").read_text())
        assert report["curves"]["operating_point"] is not None

    def test_prediction_only_dataset_runs_without_curves(self, tmp_path):
        data = tmp_path / "pred.csv"
        data.write_text(
            "case_id,reference,predicted\n"
            + "".join(f"p{i},positive,{int(i < 15)}\n" for i in range(20))
            + "".join(f"n{i},negative,{int(i < 5)}\n" for i in range(40))
        )
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            "evaluate", "--input", data, "--out-dir", out_dir, "--reproducible",
        )
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        by_name = {m["metric"]: m for m in metrics}
        assert by_name["recall"]["value"] == pytest.approx(0.75)
        assert not (out_dir / "pr_curve.csv").exists()

    @pytest.mark.parametrize("label, metric", [("positive", "recall"), ("negative", "specificity")])
    def test_a_labelled_set_of_one_class_runs_without_curves(self, label, metric, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("case_id,reference,score\n" + "".join(f"c{i},{label},{i / 10}\n" for i in range(10))
                        + "a,ambiguous,0.9\n")
        out_dir = tmp_path / "run"
        run_cli("evaluate", "--input", data, "--threshold", 0.55, "--out-dir", out_dir, "--reproducible")
        by_name = {m["metric"]: m for m in json.loads((out_dir / "metrics.json").read_text())}
        assert by_name[metric]["value"] == pytest.approx(0.4 if label == "positive" else 0.6)
        assert sorted(p.name for p in out_dir.iterdir()) == ["metrics.json", "outputs.json", "report.json", "report.md",
                                                             "warnings.json"]
        assert json.loads((out_dir / "report.json").read_text())["curves"]["file"] is None

    @staticmethod
    def _appraise(tmp_path, text, *selector):
        """Run evaluate in process at an assumed prevalence of 0.001 on a CSV of ``text``; its output directory."""
        data, out_dir = tmp_path / "data.csv", tmp_path / "run"
        data.write_text(text)
        argv = ["evaluate", "--input", str(data), *selector, "--assumed-prevalence", "0.001", "--out-dir", str(out_dir)]
        assert main([*argv, "--reproducible"]) == 0
        return out_dir

    def test_a_predictions_only_file_is_appraised_against_the_deployment_prevalence(self, tmp_path):
        out_dir = self._appraise(tmp_path, "case_id,reference,predicted\n"
                                 + "".join(f"p{i},positive,{int(i < 250)}\n" for i in range(300))
                                 + "".join(f"n{i},negative,{int(i < 48)}\n" for i in range(700)))
        warnings = json.loads((out_dir / "warnings.json").read_text())
        assert [w["code"] for w in warnings] == ["enrichment_optimism", "f1_without_costs"]
        assert warnings[0]["details"]["ratio"] == 300.0
        checklist = json.loads((out_dir / "report.json").read_text())["checklist"]
        assert next(row for row in checklist if row["consideration"] == "precision")["status"] == "partial"

    def test_a_set_of_positives_alone_warns_of_its_prevalence(self, tmp_path):
        out_dir = self._appraise(tmp_path, "case_id,reference,score\na,positive,0.9\nb,positive,0.2\n",
                                 "--threshold", "0.5")
        warnings = json.loads((out_dir / "warnings.json").read_text())
        assert [w["details"] for w in warnings if w["code"] == "enrichment_optimism"] == [
            {"assumed_prevalence": 0.001, "ratio": 1000.0, "test_set_prevalence": 1.0, "threshold": 10.0}
        ]

    def test_a_file_without_positive_or_negative_cases_runs_with_every_metric_undefined(self, tmp_path):
        out_dir = self._appraise(tmp_path, "case_id,reference,score\na,ambiguous,0.9\nb,ambiguous,0.2\n",
                                 "--threshold", "0.5")
        assert [m["value"] for m in json.loads((out_dir / "metrics.json").read_text())] == [None] * 4
        assert not (out_dir / "pr_curve.csv").exists()
        assert json.loads((out_dir / "warnings.json").read_text()) == []

    @pytest.mark.parametrize("kind, curve", [("scored", True), ("enriched", True), ("one class", False),
                                             ("no labelled case", False), ("predictions only", False)])
    def test_every_run_writes_its_warnings_and_a_curve_file_exactly_when_it_has_a_curve(self, kind, curve, tmp_path):
        from rareval.datamodel import emit
        from rareval.synth import EnrichmentRule, PopulationSpec, generate
        def scored(*labels):
            rows = (f"c{i},{labels[i % len(labels)]},{i / 10}\n" for i in range(10))
            return "case_id,reference,score\n" + "".join(rows)

        if kind == "enriched":  # its design goes beside the input the run reads
            spec = PopulationSpec(n=400, prevalence=0.05, enrichment=(EnrichmentRule("negative", 0.3),), seed=2)
            emit(generate(spec).dataset, tmp_path / "enriched.csv")
            (tmp_path / "enriched.csv.design.json").rename(tmp_path / "data.csv.design.json")
        text = {
            "scored": scored("positive", "negative"),
            "one class": scored("positive"),
            "no labelled case": scored("ambiguous"),
            "predictions only": "case_id,reference,predicted\np,positive,1\nn,negative,0\n",
        }.get(kind) or (tmp_path / "enriched.csv").read_text()
        out_dir = self._appraise(tmp_path, text, *([] if kind == "predictions only" else ["--threshold", "0.5"]))
        files = {"metrics.json", "outputs.json", "report.json", "report.md", "warnings.json"}
        assert {p.name for p in out_dir.iterdir()} == files | ({"pr_curve.csv"} if curve else set())
        warnings = json.loads((out_dir / "warnings.json").read_text())
        assert json.loads((out_dir / "report.json").read_text())["warnings"] == warnings
        assert json.loads((out_dir / "outputs.json").read_text())["warnings"] == warnings

    def test_an_enriched_cost_run_reports_confusions_metrics_and_the_prevalence_it_warns_of(self, tmp_path):
        # the golden enriched input: negatives kept with p = 0.3 weigh an inexact 1/0.3, where the bootstrap's own
        # class-table point once differed from confusion's in the last digits, and test_set_prevalence was unweighted
        from rareval import datamodel, metrics
        from rareval.synth import EnrichmentRule, PopulationSpec, generate
        spec = PopulationSpec(n=6000, prevalence=0.05, enrichment=(EnrichmentRule("negative", 0.3),), seed=12)
        datamodel.emit(generate(spec).dataset, data := tmp_path / "enriched.csv")
        argv = ["evaluate", "--input", str(data), "--cost-fp", "1", "--cost-fn", "100", "--assumed-prevalence", "0.002"]
        assert main([*argv, "--out-dir", str(out_dir := tmp_path / "run"), "--reproducible"]) == 0
        outputs = json.loads((out_dir / "outputs.json").read_text())
        counts = metrics.confusion(datamodel.apply_threshold(datamodel.ingest(data), outputs["threshold"]))
        assert counts.weighted
        keys = ("metric", "value", "n_effective", "weighted")
        expected = [metrics.metric_from_counts(counts, m).to_json_dict(m) for m in metrics.PROPORTION_METRICS]
        assert [[entry[key] for key in keys] for entry in json.loads((out_dir / "metrics.json").read_text())] == [
            [entry[key] for key in keys] for entry in expected]
        warning = next(w for w in outputs["warnings"] if w["code"] == "enrichment_optimism")
        assert outputs["test_set_prevalence"] == warning["details"]["test_set_prevalence"] == 0.05692926969522764

    def test_a_design_gets_the_bootstrap_interval_of_the_top_k_with_the_derived_seed(self, tmp_path):
        from rareval import datamodel, metrics
        from rareval.provenance import derive_seed
        data = tmp_path / "e.csv"
        run_cli("synth", "--out", data, "--n", 4000, "--prevalence", 0.05, "--enrich", "negative:0.1", "--seed", 1)
        run_cli("evaluate", "--input", data, "--k", 60, "--seed", 3, "--out-dir", tmp_path / "run", "--reproducible")
        entry = json.loads((tmp_path / "run" / "metrics.json").read_text())[-1]
        seed = derive_seed(3, "metrics:precision_at_k")
        assert (entry["metric"], entry["seed"]) == ("precision_at_60", seed)

        ds = datamodel.ingest(data)
        top = sorted(ds.cases, key=lambda c: (-c.score, c.case_id))[:60]
        top_k = datamodel.Dataset([dataclasses.replace(c, predicted=True) for c in top], ds.design)
        expected = metrics.estimate_metric(top_k, "precision", seed=seed)
        assert [entry[key] for key in ("value", "ci_low", "ci_high")] == [expected.value, expected.ci_low,
                                                                          expected.ci_high]
        wilson = metrics.precision(metrics.confusion(top_k))  # the interval of the weighted counts
        assert (entry["ci_low"], entry["ci_high"]) != (wilson.ci_low, wilson.ci_high)


class TestScleWorkflow:
    def test_sample_ingest_aggregate_apply(self, synth_dataset, tmp_path):
        out_dir = tmp_path / "scle"
        code, stdout, _ = run_cli(
            "scle", "sample",
            "--input", synth_dataset, "--threshold", 0.5,
            "--n-fp", 3, "--n-fn", 3, "--n-tp", 3,
            "--seed", 9, "--out-dir", out_dir, "--reproducible",
        )
        info = json.loads(stdout)
        sheet = Path(info["sheet"])
        sample = Path(info["sample"])
        assert sheet.exists() and sample.exists()

        # annotate one TP row as trivial with a verdict
        lines = sheet.read_text().splitlines()
        tp_index = next(i for i, l in enumerate(lines) if ",TP," in l)
        parts = lines[tp_index].split(",")
        parts[-3] = "trivial"
        parts[-1] = "negative"
        lines[tp_index] = ",".join(parts)
        sheet.write_text("\n".join(lines) + "\n")

        annotations_path = out_dir / "annotations.json"
        run_cli("scle", "ingest", "--sheet", sheet, "--sample", sample, "--out", annotations_path)
        payload = json.loads(annotations_path.read_text())
        assert len(payload["annotations"]) == 1

        code, stdout, _ = run_cli(
            "scle", "aggregate", "--annotations", annotations_path, "--sample", sample,
            "--out-dir", out_dir,
        )
        summary = json.loads(stdout)
        assert summary["triviality_rate"] == pytest.approx(1 / 3)
        assert (out_dir / "scle_summary.md").exists()

        revised = out_dir / "revised.csv"
        run_cli(
            "scle", "apply", "--input", synth_dataset, "--annotations", annotations_path,
            "--out", revised,
        )
        assert revised.exists()


    @pytest.mark.parametrize("flags, message", [
        (["--context-fields", "score,score"], "context fields repeat review sheet column(s): ['score', 'score']"),
        (["--context-fields", "note"], "context fields repeat review sheet column(s): ['note', 'note']"),
        (["--substratify-by", "sitee"], "attribute 'sitee' is absent from every case"),
    ], ids=["repeated-field", "fixed-column", "misspelt-attribute"])
    def test_a_sample_that_scle_ingest_would_refuse_is_not_written(self, flags, message, capsys, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "out"
        data.write_text("case_id,reference,score,sg_note,sg_site\na,positive,0.9,x,n\nb,negative,0.7,y,s\n"
                        "c,negative,0.2,y,n\n")
        argv = ["scle", "sample", "--input", data, "--threshold", 0.5, "--n-fp", 1, "--n-tp", 1, *flags,
                "--out-dir", out]
        assert TestExitCodes._exit(argv, capsys) == (2, {"exit_code": 2, "type": "input", "message": message})
        assert not (out / "scle_sample.json").exists() and not (out / "review_sheet.csv").exists()

    @pytest.mark.parametrize("second", ["negative", "positive"])
    def test_apply_rejects_conflicting_verdicts_and_counts_what_it_applied(self, second, tmp_path, capsys):
        data, annotations, revised = tmp_path / "d.csv", tmp_path / "a.json", tmp_path / "revised.csv"
        data.write_text("case_id,reference,predicted\nc1,positive,1\nc2,negative,0\n", encoding="utf-8")
        verdicts = [{"case_id": "c1", "reviewer": r, "verdict": v} for r, v in (("r1", "negative"), ("r2", second))]
        annotations.write_text(json.dumps({"kind": "scle_annotations", "annotations": verdicts}), encoding="utf-8")
        argv = ["scle", "apply", "--input", str(data), "--annotations", str(annotations), "--out", str(revised)]
        if second == "positive":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "conflicting verdicts for case 'c1'" in json.loads(capsys.readouterr().err)["error"]["message"]
            return
        assert main(argv) == 0
        sidecar = json.loads(Path(f"{revised}.design.json").read_text(encoding="utf-8"))
        assert json.loads(capsys.readouterr().out)["verdicts"] == sidecar["metadata"]["verdicts_applied"] == 1


class TestRobustnessCommands:
    def test_stability_roundtrip(self, tmp_path):
        data = tmp_path / "runs.csv"
        run_cli(
            "synth", "--out", data, "--n", 400, "--prevalence", 0.3,
            "--n-runs", 3, "--flip-probability", 0.0, "--seed", 4,
        )
        _, stdout, _ = run_cli("stability", "--input", data)
        payload = json.loads(stdout)
        assert payload["unanimity_rate"] == 1.0

    def test_subsets_and_resample(self, synth_dataset, tmp_path):
        out = tmp_path / "resample.json"
        _, stdout, _ = run_cli(
            "resample", "--input", synth_dataset, "--threshold", 0.5,
            "--metric", "recall", "--n", 50, "--seed", 2, "--out", out,
        )
        payload = json.loads(stdout)
        assert payload["scheme"] == "bootstrap"
        assert len(payload["values"]) == 50
        assert json.loads(out.read_text())["mean"] == payload["mean"]

    @pytest.mark.parametrize("attribute", ["../../esc", "a/b"])
    def test_subsets_refuses_an_attribute_that_makes_no_file_name_before_the_input_is_read(self, attribute, capsys,
                                                                                             monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        Path("d.csv").write_text(f"case_id,reference,score,sg_{attribute}\np,positive,0.9,n\nq,positive,0.4,s\n"
                                 "n,negative,0.1,n\nm,negative,0.6,s\n")
        argv = ["subsets", "--input", "d.csv", "--threshold", "0.5", "--attribute", attribute]
        assert main(argv) == 0  # without --out-dir nothing is written, and the attribute is a column like any
        monkeypatch.setattr("rareval.datamodel.ingest", lambda *a, **k: pytest.fail("the input was read"))
        code, error = TestExitCodes._exit([*argv, "--out-dir", "o/p"], capsys)
        assert code == 2
        assert error["message"] == f"--attribute {attribute!r} makes no file name: subsets_{attribute}.json"
        assert sorted(str(p) for p in Path().rglob("*")) == ["d.csv"]


class TestChecklistCommand:
    def test_empty_checklist(self, tmp_path):
        _, stdout, _ = run_cli("checklist", "--out-dir", tmp_path)
        rows = json.loads((tmp_path / "checklist.json").read_text())
        assert len(rows) == 12
        assert all(r["status"] in ("unsatisfied", "external_evidence_required") for r in rows)

    def test_checklist_from_evaluate_outputs(self, synth_dataset, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(
            "evaluate", "--input", synth_dataset, "--threshold", 0.5,
            "--seed", 1, "--out-dir", run_dir, "--reproducible",
        )
        out_dir = tmp_path / "cl"
        run_cli(
            "checklist", "--outputs", run_dir / "outputs.json",
            "--attest", "metrics=reviewed and appropriate",
            "--out-dir", out_dir,
        )
        rows = {r["consideration"]: r for r in json.loads((out_dir / "checklist.json").read_text())}
        assert rows["metrics"]["status"] == "satisfied"
        assert rows["recall"]["status"] in ("partial", "satisfied")


def test_main_returns_zero_in_process(capsys):
    assert main(["adjust-precision", "--sensitivity", "0.9", "--specificity", "0.99", "--prevalence", "0.01"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["adjusted_precision"] < 1


# A program entry run as its own process; the last stdout line is its freeze count, then whether numpy was loaded
# at each freeze.
_ENTRY_RUN = """
import gc, json, sys
sys.argv = ["rareval", "adjust-precision", "--sensitivity", "0.9", "--specificity", "0.99", "--prevalence", "0.01"]
freeze, numpy_at_freeze = gc.freeze, []
gc.freeze = lambda: (numpy_at_freeze.append("numpy" in sys.modules), freeze())
try:
    {entry}
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
print(json.dumps([gc.get_freeze_count(), numpy_at_freeze]))
"""
# the console-script target declared under [project.scripts]
_SCRIPT_MODULE, _SCRIPT_FUNCTION = re.search(
    r'^rareval = "([\w.]+):(\w+)"$', (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"), re.M
).groups()
_ENTRIES = {
    "python -m rareval.cli": "import runpy; runpy.run_module('rareval.cli', run_name='__main__', alter_sys=True)",
    "rareval script": f"import {_SCRIPT_MODULE}; sys.exit({_SCRIPT_MODULE}.{_SCRIPT_FUNCTION}())",
}


@pytest.mark.parametrize("entry", _ENTRIES)
def test_program_entries_freeze_the_start_up_heap(entry):
    code = _ENTRY_RUN.format(entry=_ENTRIES[entry])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert 0 < json.loads(proc.stdout.splitlines()[0])["adjusted_precision"] < 1
    frozen, numpy_at_freeze = json.loads(proc.stdout.splitlines()[-1])
    assert frozen > 0
    assert numpy_at_freeze == [True]  # the frozen heap holds numpy's objects


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
@pytest.mark.parametrize("command", ["synth", "evaluate"])
def test_a_closed_stdout_ends_the_run_silently_with_its_files_complete(command, tmp_path):
    run_cli("synth", "--out", tmp_path / "d.csv", "--n", 500, "--prevalence", 0.1, "--seed", 2)
    trees = []
    for name, closed in (("open", False), ("closed", True)):
        run_dir = tmp_path / name
        argv = {"synth": ["synth", "--n", 500, "--prevalence", 0.1, "--seed", 2, "--out", run_dir / "s.csv"],
                "evaluate": ["evaluate", "--input", tmp_path / "d.csv", "--threshold", 0.5, "--reproducible",
                             "--out-dir", run_dir]}[command]
        proc = subprocess.Popen([sys.executable, "-m", "rareval.cli", *map(str, argv)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if closed:
            proc.stdout.close()  # the reader is gone before the command prints
        _, stderr = proc.communicate()
        assert (proc.returncode, stderr) == ((-signal.SIGPIPE, b"") if closed else (0, b"")), stderr
        trees.append({p.relative_to(run_dir): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()})
    assert trees[0] and trees[1] == trees[0]


_MINIMAL_RECORDS = {  # argv of each command that fills a record from its flags, and the record's required fields
    "size-study": (["size-study", "--sample-size", "100", "--flag-rate-a", "0.1", "--flag-rate-b", "0.1",
                    "--overlap-rate", "0.5", "--precision-a", "0.9", "--precision-b", "0.8"],
                   dict(sample_size=100, flag_rate_a=0.1, flag_rate_b=0.1, overlap_rate=0.5, precision_a=0.9,
                        precision_b=0.8)),
    "scle sample": (["scle", "sample", "--input", "d.csv", "--n-fp", "1"], dict(n_fp=1)),
    "synth": (["synth", "--out", "s.csv", "--n", "100", "--prevalence", "0.1"], dict(n=100, prevalence=0.1)),
}


@pytest.mark.parametrize("command", _MINIMAL_RECORDS)
def test_each_record_field_a_flag_leaves_unset_takes_the_records_default(command):
    from rareval import cli, design, scle, synth
    cls = {"size-study": design.PrecisionStudyAssumptions, "scle sample": scle.ScleConfig,
           "synth": synth.PopulationSpec}[command]
    argv, required = _MINIMAL_RECORDS[command]
    args = build_parser().parse_args(argv)
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    # the parser restates no default of the record; a store_true flag left unset is False
    assert {name: v for name, v in values.items() if v is not None and v is not False} == required
    assert cli._record(cls, args, {}) == cls.from_dict(required)


def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["adjust-precision", "--sensitivity", "0.9", "--specificity", "0.99", "--prevalence", "0.01"]) == 0
    assert gc.get_freeze_count() == before


def _strict_json(text):
    """Parse JSON the way strict parsers do: NaN and +-Infinity are errors."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    @pytest.fixture
    def sited_csv(self, tmp_path):
        """200 scored cases over two sites; the single highest score is a negative."""
        rows = ["case_id,reference,score,sg_site"]
        for i in range(200):
            reference = "positive" if i % 10 == 0 else "negative"
            score = (0.5 if reference == "positive" else 0.0) + (i * 37 % 199) / 500
            rows.append(f"c{i:03d},{reference},{score!r},{'north' if i % 3 else 'south'}")
        rows.append("top,negative,0.999,north")
        path = tmp_path / "sited.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_every_emitted_json_file_is_strict(self, sited_csv, tmp_path):
        out = tmp_path / "out"
        stdouts = [
            run_cli("evaluate", "--input", sited_csv, "--threshold", 0.5, "--seed", 1,
                    "--out-dir", out / "threshold", "--reproducible")[1],
            # a false positive costs so much that predicting nothing is cheapest
            run_cli("evaluate", "--input", sited_csv, "--cost-fp", 1000, "--cost-fn", 1,
                    "--assumed-prevalence", 0.001, "--out-dir", out / "inf", "--reproducible")[1],
            run_cli("scle", "sample", "--input", sited_csv, "--threshold", 0.5, "--n-fp", 3,
                    "--n-fn", 3, "--n-tp", 3, "--out-dir", out / "scle", "--reproducible")[1],
            run_cli("subsets", "--input", sited_csv, "--threshold", 0.5, "--attribute", "site",
                    "--out-dir", out / "subsets")[1],
            # only the top case is predicted positive: precision is undefined in 4 of 5 folds
            run_cli("resample", "--input", sited_csv, "--threshold", 0.99, "--metric", "precision",
                    "--scheme", "k_fold", "--n", 5, "--out", out / "resample.json")[1],
        ]
        files = sorted(out.rglob("*.json"))
        assert len(files) == 4 + 4 + 1 + 1 + 1
        docs = {p.relative_to(out).as_posix(): _strict_json(p.read_text(encoding="utf-8")) for p in files}
        for stdout in stdouts[2:]:
            _strict_json(stdout.strip().splitlines()[-1])

        assert docs["inf/report.json"]["curves"]["threshold"] is None
        assert docs["inf/report.json"]["curves"]["operating_point"]["threshold"] is None
        assert docs["inf/outputs.json"]["threshold"] is None
        assert "Threshold:" not in (out / "inf" / "report.md").read_text()
        assert docs["threshold/report.json"]["curves"]["threshold"] == 0.5
        resample = docs["resample.json"]
        assert resample["n_undefined"] == 4
        assert resample["values"].count(None) == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_float_flags_are_usage_errors(self, value, capsys):
        for argv in (
            ["evaluate", "--input", "missing.csv", f"--threshold={value}"],
            ["adjust-precision", "--sensitivity", "0.9", "--specificity", "0.9", f"--prevalence={value}"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["type"] == "usage"
            assert "not a finite number" in error["message"]


def test_cli_import_does_not_load_scipy():
    code = "import sys, rareval.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
